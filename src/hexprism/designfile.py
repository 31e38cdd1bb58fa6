"""Bit-exact JSON design files plus a human-oriented text rendering.

JSON is the canonical interchange: parse(emit(d)) reproduces the design
exactly, block order included.  The text format is for reading, not
parsing.

On disk a design file is the text of
``json.dumps(design_to_obj(design), indent=2) + "\n"``: a 2-space indent,
one value per line, the keys in the order host, kind, blocks, leave,
padding, ``[]`` for an empty list and a trailing newline.  A hexagon is
``{"type": "hexagon", "vertices": [a, b, c, d, e, f]}`` and a prism is
``{"type": "prism", "triangles": [[a, b, c], [d, e, f]]}``.  The stdlib
encoder falls back to pure Python whenever ``indent`` is set, so
``dumps_design`` writes this layout itself: each block is one fixed
per-shape template filled with its six vertices, and only the small host,
kind, leave and padding go through ``json``.  ``save_design`` writes the
text in runs of 1,000 blocks and never holds it whole.

Decoding builds each block object into a block as ``json.loads`` parses it
(``_block`` is its ``object_hook``), so it holds the text and the design but
never the whole JSON tree.  A file this path does not accept is parsed again
without the hook, for _block_from_obj and the other checks to name the fault.
"""

from __future__ import annotations

import gc
import json
from collections import Counter

from .core import (
    Block,
    Complete,
    CompleteBipartite,
    Design,
    Explicit,
    Hexagon,
    Host,
    Kind,
    Prism,
    _unchecked,
    edge,
)


class DesignFileError(ValueError):
    """A design file that does not conform to the format."""


def _int(value) -> int:
    """A plain JSON integer; floats, strings and booleans are rejected
    rather than coerced."""
    if type(value) is not int:
        raise DesignFileError(f"expected an integer, got {value!r}")
    return value


def _ints(values) -> tuple[int, ...]:
    return tuple(map(_int, values))


def _host_to_obj(host: Host) -> dict:
    if isinstance(host, Complete):
        return {"type": "complete", "n": host.n}
    if isinstance(host, CompleteBipartite):
        return {
            "type": "bipartite",
            "left": sorted(host.left),
            "right": sorted(host.right),
        }
    return {"type": "explicit", "edges": [list(e) for e in host.edges]}


def _host_from_obj(obj) -> Host:
    if not isinstance(obj, dict) or "type" not in obj:
        raise DesignFileError("host must be an object with a 'type' field")
    kind = obj["type"]
    try:
        if kind == "complete":
            return Complete(_int(obj["n"]))
        if kind == "bipartite":
            return CompleteBipartite(
                frozenset(_ints(obj["left"])), frozenset(_ints(obj["right"]))
            )
        if kind == "explicit":
            return Explicit(tuple((u, v) for u, v in map(_ints, obj["edges"])))
    except DesignFileError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DesignFileError(f"malformed {kind} host: {exc}") from exc
    raise DesignFileError(f"unknown host type {kind!r}")


def _block_to_obj(block: Block) -> dict:
    if isinstance(block, Hexagon):
        return {"type": "hexagon", "vertices": list(block.vertices)}
    return {"type": "prism", "triangles": [list(block.first), list(block.second)]}


def _block_from_obj(obj) -> Block:
    if not isinstance(obj, dict) or "type" not in obj:
        raise DesignFileError("block must be an object with a 'type' field")
    kind = obj["type"]
    try:
        if kind == "hexagon":
            return Hexagon(_ints(obj["vertices"]))
        if kind == "prism":
            first, second = obj["triangles"]
            return Prism(_ints(first), _ints(second))
    except DesignFileError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DesignFileError(f"malformed {kind} block: {exc}") from exc
    raise DesignFileError(f"unknown block type {kind!r}")


_SIX_INTS = (int,) * 6  # a bool is not an int here, as in _int


def _block(obj):
    """obj built unchecked as a block if it is a block object, else obj itself:
    a dict whose "type" is "hexagon" with a list of 6 plain ints under
    "vertices", or "prism" with a list of two lists of 3 under "triangles"."""
    kind = obj.get("type") if type(obj) is dict else None
    if type(kind) is not str:
        return obj
    if kind == "hexagon":
        cycle = obj.get("vertices")
        if type(cycle) is list and tuple(map(type, cycle)) == _SIX_INTS:
            return _unchecked(Hexagon, tuple(cycle))
    elif kind == "prism":
        pair = obj.get("triangles")
        if type(pair) is list and tuple(map(type, pair)) == (list, list):
            first, second = pair
            if len(first) == 3 and tuple(map(type, first + second)) == _SIX_INTS:
                return _unchecked(Prism, tuple(first + second))
    return obj


def design_to_obj(design: Design) -> dict:
    return {
        "host": _host_to_obj(design.host),
        "kind": design.kind.value,
        "blocks": [_block_to_obj(b) for b in design.blocks],
        "leave": [list(e) for e in sorted(design.leave)],
        "padding": [list(e) for e in design.padding],
    }


def design_from_obj(obj) -> Design:
    return _design(obj, lambda objs: tuple(map(_block_from_obj, objs)))


def _design(obj, blocks_of) -> Design:
    """The design in obj, whose block list blocks_of turns into blocks."""
    if not isinstance(obj, dict):
        raise DesignFileError("design file must contain a JSON object")
    missing = {"host", "kind", "blocks"} - set(obj)
    if missing:
        raise DesignFileError(f"design object lacks fields: {sorted(missing)}")
    try:
        kind = Kind(obj["kind"])
    except ValueError as exc:
        raise DesignFileError(f"unknown kind {obj['kind']!r}") from exc
    host = _host_from_obj(obj["host"])
    if type(obj["blocks"]) is not list:
        raise DesignFileError("blocks must be a list")
    blocks = blocks_of(obj["blocks"])
    try:
        leave = [edge(u, v) for u, v in map(_ints, obj.get("leave", []))]
        padding = tuple((u, v) for u, v in map(_ints, obj.get("padding", [])))
    except (TypeError, ValueError) as exc:
        raise DesignFileError(f"malformed leave or padding: {exc}") from exc
    # the leave is a set, so a repeat would collapse unseen; padding is a multiset
    if len(set(leave)) < len(leave):
        repeated = next(e for e, count in Counter(leave).items() if count > 1)
        raise DesignFileError(f"leave lists edge {list(repeated)} more than once")
    try:
        return Design(host=host, kind=kind, blocks=blocks, leave=leave, padding=padding)
    except ValueError as exc:
        raise DesignFileError(str(exc)) from exc


def _nested(value, depth: int) -> str:
    """json.dumps(value, indent=2) as it reads nested ``depth`` levels deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


# one block each, nested two levels deep; the six %s take the vertices in order
_HEXAGON = (
    '    {\n      "type": "hexagon",\n      "vertices": [\n        '
    + ",\n        ".join(["%s"] * 6)
    + "\n      ]\n    }"
)
_TRIANGLE = "[\n          " + ",\n          ".join(["%s"] * 3) + "\n        ]"
_PRISM = (
    '    {\n      "type": "prism",\n      "triangles": [\n        '
    + _TRIANGLE + ",\n        " + _TRIANGLE
    + "\n      ]\n    }"
)
_RUN = 1000  # blocks per chunk of the text


def _chunks(design: Design):
    """The design file text as the head, runs of _RUN blocks, then the tail."""
    yield '{\n  "host": %s,\n  "kind": %s,\n  "blocks": [' % (
        _nested(_host_to_obj(design.host), 1), json.dumps(design.kind.value))
    blocks = design.blocks
    for start in range(0, len(blocks), _RUN):
        yield (",\n" if start else "\n") + ",\n".join([
            (_HEXAGON if isinstance(b, Hexagon) else _PRISM) % b.vertices
            for b in blocks[start:start + _RUN]
        ])
    yield '%s,\n  "leave": %s,\n  "padding": %s\n}\n' % (
        "\n  ]" if blocks else "]", _nested([list(e) for e in sorted(design.leave)], 1),
        _nested([list(e) for e in design.padding], 1))


def dumps_design(design: Design) -> str:
    """The design file text; see the module docstring for the layout."""
    return "".join(_chunks(design))


def loads_design(text: str | bytes) -> Design:
    """The design in JSON text, given as str or as UTF-encoded bytes."""
    # the collector would only rescan the acyclic tree; the caller's state comes back
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            design = _design(json.loads(text, object_hook=_block), tuple)
            if set(map(type, design.blocks)) <= {Hexagon, Prism}:
                return design
        except (TypeError, ValueError, RecursionError):
            pass  # any fault, DesignFileError included, is named by the checked path below
        try:
            obj = json.loads(text)
        # ValueError covers undecodable bytes; too deep a nesting exhausts the stack
        except (ValueError, RecursionError) as exc:
            raise DesignFileError(f"not valid JSON: {exc}") from exc
        return design_from_obj(obj)
    finally:
        if enabled:
            gc.enable()


def save_design(design: Design, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.writelines(_chunks(design))


def load_design(path) -> Design:
    with open(path, encoding="utf-8") as fp:
        try:
            text = fp.read()
        except UnicodeDecodeError as exc:
            raise DesignFileError(f"not UTF-8 text: {exc}") from exc
    return loads_design(text)


def _host_text(host: Host) -> str:
    if isinstance(host, Complete):
        return f"K_{host.n}"
    if isinstance(host, CompleteBipartite):
        return f"K_{{{len(host.left)},{len(host.right)}}}"
    return f"graph on {len(host.edges)} listed edges"


def render_text(design: Design) -> str:
    """Readable one-block-per-line rendering; not meant to be parsed back."""
    lines = [f"{design.kind.value} of {_host_text(design.host)}"]
    lines.append(
        f"blocks: {design.hexagon_count} hexagons, {design.prism_count} prisms"
    )
    for block in design.blocks:
        if isinstance(block, Hexagon):
            lines.append("  hexagon (" + ", ".join(map(str, block.vertices)) + ")")
        else:
            first = ", ".join(map(str, block.first))
            second = ", ".join(map(str, block.second))
            lines.append(f"  prism [{first}; {second}]")
    if design.leave:
        pairs = " ".join(f"{{{u},{v}}}" for u, v in sorted(design.leave))
        lines.append(f"leave ({len(design.leave)} edges): {pairs}")
    if design.padding:
        pairs = " ".join(f"{{{u},{v}}}" for u, v in design.padding)
        lines.append(f"padding ({len(design.padding)} edges): {pairs}")
    return "\n".join(lines) + "\n"
