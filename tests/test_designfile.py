from __future__ import annotations

import json
import random

import pytest

from hexprism import catalog, cli, designfile
from hexprism.catalog import get as catalog_get
from hexprism.constructions import max_multipack, min_multicover, multidecompose
from hexprism.core import (
    Complete,
    CompleteBipartite,
    Design,
    Explicit,
    Hexagon,
    Kind,
    Prism,
)
from hexprism.designfile import (
    DesignFileError,
    design_from_obj,
    design_to_obj,
    dumps_design,
    loads_design,
)


NON_INTEGERS = [
    (("blocks", 0, "vertices", 0), 0.9),
    (("blocks", 0, "vertices", 0), "0"),
    (("host", "n"), 6.7),
    (("blocks", 0, "vertices", 1), True),
]


def _set_at(obj, path, value) -> None:
    *parents, last = path
    for step in parents:
        obj = obj[step]
    obj[last] = value


@pytest.mark.parametrize("path, value", NON_INTEGERS)
def test_non_integers_are_rejected(path, value, tmp_path):
    obj = design_to_obj(catalog_get("decomposition:6"))
    _set_at(obj, path, value)
    text = json.dumps(obj)
    with pytest.raises(DesignFileError, match="expected an integer"):
        loads_design(text)
    file = tmp_path / "design.json"
    file.write_text(text)
    assert cli.main(["verify", str(file)]) == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "text",
    [b'{"host": "\xff"}', "[" * 200_000, b"[" * 200_000],
    ids=["bytes-not-utf8", "nested-text", "nested-bytes"],
)
def test_undecodable_or_deeply_nested_text_is_rejected(text):
    with pytest.raises(DesignFileError, match="not valid JSON"):
        loads_design(text)


HEXAGON = Hexagon((0, 1, 2, 3, 4, 5))
PRISM = Prism((0, 2, 4), (1, 3, 5))

# the codec writes and reads any Design, valid or not
SMALL_DESIGNS = {
    "complete-mixed": Design(Complete(6), Kind.DECOMPOSITION, (HEXAGON, PRISM)),
    "bipartite-hexagons": Design(
        CompleteBipartite(frozenset({0, 2, 4}), frozenset({1, 3, 5})),
        Kind.DECOMPOSITION,
        (HEXAGON, Hexagon((0, 3, 2, 5, 4, 1)), Hexagon((0, 5, 2, 1, 4, 3))),
    ),
    "explicit-multigraph": Design(
        Explicit(((1, 0), (0, 1), (2, 3), (3, 4), (4, 5), (5, 0), (1, 2))),
        Kind.COVERING,
        (HEXAGON,),
        padding=((0, 1),),
    ),
    "explicit-prisms-only": Design(
        Explicit(((0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5), (0, 1), (2, 3), (4, 5))),
        Kind.DECOMPOSITION,
        (PRISM,),
    ),
    "no-blocks-with-leave": Design(Complete(3), Kind.PACKING, (), leave={(2, 1), (0, 2), (0, 1)}),
    "no-blocks-no-edges": Design(Complete(1), Kind.DECOMPOSITION, ()),
    "leave": Design(Complete(7), Kind.PACKING, (HEXAGON, PRISM), leave={(6, 0), (5, 6)}),
    "padding": Design(Complete(6), Kind.COVERING, (PRISM, HEXAGON), padding=((5, 4), (0, 1), (0, 1))),
}

def assert_codec_exact(design):
    text = dumps_design(design)
    oracle = json.dumps(design_to_obj(design), indent=2) + "\n"
    # pytest's own diff of two multi-megabyte strings takes minutes
    if text != oracle:
        at = next(i for i, (a, b) in enumerate(zip(text + "\0", oracle + "\0")) if a != b)
        window = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"differs at offset {at}: {text[window]!r} vs {oracle[window]!r}")
    assert loads_design(text) == design


@pytest.mark.parametrize("name", sorted(SMALL_DESIGNS))
def test_dumps_is_the_indented_json_text(name):
    assert_codec_exact(SMALL_DESIGNS[name])


@pytest.mark.parametrize("key", catalog.keys())
def test_dumps_of_every_catalog_entry(key):
    assert_codec_exact(catalog_get(key))


# one order of at least 450 per kind; the packing has a leave, the covering padding
@pytest.mark.parametrize(
    "build, n", [(multidecompose, 601), (max_multipack, 452), (min_multicover, 455)]
)
def test_dumps_at_large_orders(build, n):
    design = build(n)
    assert len(design.blocks) > 16_000
    assert design.hexagon_count and design.prism_count
    if design.kind is Kind.PACKING:
        assert design.leave
    if design.kind is Kind.COVERING:
        assert design.padding
    assert_codec_exact(design)


@pytest.mark.parametrize("leave", [[[2, 5], [5, 2]], [[0, 1], [2, 5], [2, 5]]])
def test_repeated_leave_edge_is_rejected(leave):
    # a leave is a set: loading it as one would hide the repeat and let the
    # file verify; padding, a multiset, may repeat (see SMALL_DESIGNS)
    obj = design_to_obj(max_multipack(8))
    obj["leave"] = leave
    with pytest.raises(DesignFileError, match=r"leave lists edge \[2, 5\] more than once"):
        loads_design(json.dumps(obj))


def _decoded(obj):
    """design_from_obj's answer: the Design, or the DesignFileError message."""
    try:
        return design_from_obj(obj)
    except DesignFileError as exc:
        return f"DesignFileError: {exc}"


def _perturbed_k13(seed: int) -> dict:
    """A K13 design object with one block changed in one of the ways a file
    can break, or in one a valid file may differ (extra keys)."""
    rng = random.Random(seed)
    obj = design_to_obj(multidecompose(13))
    index = rng.randrange(len(obj["blocks"]))
    block = obj["blocks"][index]
    rows = [block["vertices"]] if block["type"] == "hexagon" else block["triangles"]
    row = rng.choice(rows)
    at = rng.randrange(len(row))
    how = rng.choice(["bool", "float", "short", "long", "dict", "tuple", "extra",
                      "not-a-list", "triangle-count", "type"])
    if how == "bool":
        row[at] = rng.choice([True, False])
    elif how == "float":
        row[at] = float(row[at])
    elif how == "short":
        del row[at]
    elif how == "long":
        row.append(rng.randrange(13))
    elif how in ("dict", "tuple"):
        # iterating either yields the vertices, as a list does
        row = {v: None for v in row} if how == "dict" else tuple(row)
        if block["type"] == "hexagon":
            block["vertices"] = row
        else:
            block["triangles"][rng.randrange(2)] = row
    elif how == "extra":
        block[rng.choice(["note", "type2", "vertices", "triangles"])] = rng.choice([1, None, []])
    elif how == "not-a-list":
        block["vertices" if block["type"] == "hexagon" else "triangles"] = rng.choice(
            ["012345", 7, None, {"a": 1}])
    elif how == "triangle-count":
        block["type"], block["triangles"] = "prism", [[0, 1, 2]] * rng.choice([1, 3])
    else:
        obj["blocks"][index] = rng.choice([{"type": ["hexagon"]}, {"vertices": row}, [block],
                                           {"type": "pentagon", "vertices": row}])
    return obj


def _malformed_objects() -> list:
    """Every malformed design object the tests above and test_cli.py feed to
    the decoder, as objects, and valid ones beside them."""
    objs = [design_to_obj(d) for d in SMALL_DESIGNS.values()]
    for path, value in NON_INTEGERS:
        obj = design_to_obj(catalog_get("decomposition:6"))
        _set_at(obj, path, value)
        objs.append(obj)
    for blocks in (5, None, True, "blocks"):
        objs.append({**design_to_obj(catalog_get("decomposition:6")), "blocks": blocks})
    for leave in ([[2, 5], [5, 2]], [[0, 1], [2, 5], [2, 5]]):
        objs.append({**design_to_obj(max_multipack(8)), "leave": leave})
    return objs + [[], None]


def test_bulk_decode_agrees_with_the_block_by_block_loop(monkeypatch):
    # the bulk passes must accept exactly the block lists the checked loop
    # accepts, build equal blocks, and leave every fault to it to name
    objs = _malformed_objects() + [_perturbed_k13(seed) for seed in range(400)]
    fast = [_decoded(obj) for obj in objs]
    monkeypatch.setattr(designfile, "_blocks_in_bulk", lambda blocks: None)
    slow = [_decoded(obj) for obj in objs]
    assert [repr(r) for r in fast] == [repr(r) for r in slow]
    assert fast == slow
    # the perturbations reach both outcomes, and bool vertices among the faults
    assert {type(r) for r in fast} == {Design, str}
    assert sum(isinstance(r, str) for r in fast) > 200
    assert "DesignFileError: expected an integer, got True" in fast
