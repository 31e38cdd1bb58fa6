"""Stdlib-only output oracle.

Re-checks design files and search results by counting edges, with no
hexprism code.  Expected leave and padding sizes follow the rules stated in
the paper: none when a decomposition of K_n exists (n % 3 in {0, 1} and n not
7, 9 or 10), six edges at n = 7, three at n = 9 and 10, and otherwise a leave
of one edge and a padding of two.
"""

from __future__ import annotations

EXCEPTIONAL = (7, 9, 10)


def expected_sizes(n: int) -> tuple[bool, int, int]:
    """(decomposition exists, minimum leave, minimum padding) for K_n."""
    if n % 3 in (0, 1) and n not in EXCEPTIONAL:
        return True, 0, 0
    if n == 7:
        return False, 6, 6
    if n in (9, 10):
        return False, 3, 3
    return False, 1, 2


def expect_for_order(n: int, kind: str) -> dict:
    """What a `construct --n n --kind kind` design must look like."""
    exists, leave, padding = expected_sizes(n)
    if exists:
        # a packing or covering request returns the decomposition itself
        return {"host": ("complete", n), "kinds": {"decomposition", kind},
                "leave": 0, "padding": 0, "shapes": "both"}
    if kind == "decomposition":
        raise ValueError(f"K_{n} has no decomposition")
    return {"host": ("complete", n), "kinds": {kind},
            "leave": leave if kind == "packing" else 0,
            "padding": padding if kind == "covering" else 0, "shapes": "both"}


def expect_for_catalog_key(key: str) -> dict:
    """What the bundled design under a `catalog` key must look like."""
    tag, _, rest = key.partition(":")
    if tag == "bipartite":
        m, _, n = rest.partition("x")
        return {"host": ("bipartite", int(m), int(n)), "kinds": {"decomposition"},
                "leave": 0, "padding": 0, "shapes": "hexagon"}
    n = int(rest)
    if tag == "hexagons":
        return {"host": ("complete", n), "kinds": {"decomposition"},
                "leave": 0, "padding": 0, "shapes": "hexagon"}
    if tag == "prisms":
        return {"host": ("complete", n), "kinds": {"decomposition"},
                "leave": 0, "padding": 0, "shapes": "prism"}
    exists, leave, padding = expected_sizes(n)
    return {"host": ("complete", n), "kinds": {tag},
            "leave": leave if tag == "packing" else 0,
            "padding": padding if tag == "covering" else 0, "shapes": "both"}


def _host_shape(host) -> tuple:
    if not isinstance(host, dict):
        raise ValueError("host is not an object")
    if host.get("type") == "complete":
        return ("complete", int(host["n"]))
    if host.get("type") == "bipartite":
        left, right = sorted(host["left"]), sorted(host["right"])
        if left != list(range(len(left))) or right != list(
            range(len(left), len(left) + len(right))
        ):
            raise ValueError("bipartite sides are not 0..m-1 and m..m+n-1")
        return ("bipartite", len(left), len(right))
    raise ValueError(f"unexpected host type {host.get('type')!r}")


def _block_pairs(block):
    """Vertex tuple and edge list of one block object, or raise."""
    if block.get("type") == "hexagon":
        a, b, c, d, e, f = block["vertices"]
        return (a, b, c, d, e, f), ((a, b), (b, c), (c, d), (d, e), (e, f), (f, a))
    if block.get("type") == "prism":
        (a, b, c), (d, e, f) = block["triangles"]
        return (a, b, c, d, e, f), (
            (a, b), (b, c), (a, c), (d, e), (e, f), (d, f), (a, d), (b, e), (c, f)
        )
    raise ValueError(f"unknown block type {block.get('type')!r}")


def _pair_index(u, v, size: int) -> int:
    if not (isinstance(u, int) and isinstance(v, int) and 0 <= u < size and 0 <= v < size):
        raise ValueError(f"pair {(u, v)} is outside the host")
    if u == v:
        raise ValueError(f"loop at {u}")
    return u * size + v if u < v else v * size + u


def check_design(obj, expect: dict) -> tuple[list[str], int, int]:
    """Problems found in a design object, plus its hexagon and prism counts.

    The design must partition its host's edges (blocks plus leave equal host
    plus padding, as multisets), match the expected host, kind, leave and
    padding sizes, and use the expected block shapes.
    """
    problems: list[str] = []
    try:
        shape = _host_shape(obj["host"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"bad host: {exc}"], 0, 0
    if shape != expect["host"]:
        problems.append(f"host {shape} != expected {expect['host']}")
    if obj.get("kind") not in expect["kinds"]:
        problems.append(f"kind {obj.get('kind')!r} not in {sorted(expect['kinds'])}")
    if shape[0] == "complete":
        size = shape[1]
        host_pairs = ((u, v) for u in range(size) for v in range(u + 1, size))
    else:
        m, n = shape[1], shape[2]
        size = m + n
        host_pairs = ((u, v) for u in range(m) for v in range(m, size))

    # count[u * size + v], u < v: host minus padding uses, plus block uses
    count = [0] * (size * size)
    for u, v in host_pairs:
        count[u * size + v] = -1
    hexagons = prisms = 0
    try:
        for u, v in obj.get("padding", []):
            count[_pair_index(u, v, size)] -= 1
        for i, block in enumerate(obj["blocks"]):
            vertices, pairs = _block_pairs(block)
            if len(set(vertices)) != 6 or not all(
                isinstance(x, int) and 0 <= x < size for x in vertices
            ):
                problems.append(f"block {i} has bad vertices {vertices}")
                continue
            if block["type"] == "hexagon":
                hexagons += 1
            else:
                prisms += 1
            for u, v in pairs:
                count[u * size + v if u < v else v * size + u] += 1
        leave = obj.get("leave", [])
        for u, v in leave:
            at = _pair_index(u, v, size)
            if count[at] != -1:
                problems.append(f"leave edge {(u, v)} is covered or not a host edge")
            count[at] += 1
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return problems + [f"malformed design: {exc!r}"], hexagons, prisms
    off = len(count) - count.count(0)
    if off:
        problems.append(f"{off} vertex pairs are not covered exactly as the host requires")
    if len(obj.get("leave", [])) != expect["leave"]:
        problems.append(f"leave has {len(obj.get('leave', []))} edges, expected {expect['leave']}")
    if len(obj.get("padding", [])) != expect["padding"]:
        problems.append(
            f"padding has {len(obj.get('padding', []))} edges, expected {expect['padding']}"
        )
    want = expect["shapes"]
    if want == "both" and not (hexagons and prisms):
        problems.append(f"needs both shapes, has {hexagons} hexagons and {prisms} prisms")
    if want == "hexagon" and (prisms or not hexagons):
        problems.append(f"needs hexagons only, has {hexagons} hexagons and {prisms} prisms")
    if want == "prism" and (hexagons or not prisms):
        problems.append(f"needs prisms only, has {hexagons} hexagons and {prisms} prisms")
    return problems, hexagons, prisms
