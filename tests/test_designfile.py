from __future__ import annotations

import gc
import json
import random
import tracemalloc

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

def assert_codec_exact(design, tmp_path):
    text = dumps_design(design)
    oracle = json.dumps(design_to_obj(design), indent=2) + "\n"
    # pytest's own diff of two multi-megabyte strings takes minutes
    if text != oracle:
        at = next(i for i, (a, b) in enumerate(zip(text + "\0", oracle + "\0")) if a != b)
        window = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"differs at offset {at}: {text[window]!r} vs {oracle[window]!r}")
    # save_design writes the same text, one run of blocks at a time
    path = tmp_path / "design.json"
    designfile.save_design(design, path)
    assert path.read_bytes() == text.encode()
    assert loads_design(text) == design


@pytest.mark.parametrize("name", sorted(SMALL_DESIGNS))
def test_dumps_is_the_indented_json_text(name, tmp_path):
    assert_codec_exact(SMALL_DESIGNS[name], tmp_path)


@pytest.mark.parametrize("key", catalog.keys())
def test_dumps_of_every_catalog_entry(key, tmp_path):
    assert_codec_exact(catalog_get(key), tmp_path)


@pytest.mark.parametrize("count", [designfile._RUN, designfile._RUN + 1])
def test_dumps_where_runs_of_blocks_meet(count, tmp_path):
    assert_codec_exact(Design(Complete(6), Kind.COVERING, (HEXAGON, PRISM) * count), tmp_path)


# one order of at least 450 per kind; the packing has a leave, the covering padding
@pytest.mark.parametrize(
    "build, n",
    [(multidecompose, 601), (max_multipack, 452), (min_multicover, 455), (max_multipack, 677)],
)
def test_dumps_at_large_orders(build, n, tmp_path):
    design = build(n)
    assert len(design.blocks) > 16_000
    assert design.hexagon_count and design.prism_count
    if design.kind is Kind.PACKING:
        assert design.leave
    if design.kind is Kind.COVERING:
        assert design.padding
    assert_codec_exact(design, tmp_path)


@pytest.mark.parametrize("leave", [[[2, 5], [5, 2]], [[0, 1], [2, 5], [2, 5]]])
def test_repeated_leave_edge_is_rejected(leave):
    # a leave is a set: loading it as one would hide the repeat and let the
    # file verify; padding, a multiset, may repeat (see SMALL_DESIGNS)
    obj = design_to_obj(max_multipack(8))
    obj["leave"] = leave
    with pytest.raises(DesignFileError, match=r"leave lists edge \[2, 5\] more than once"):
        loads_design(json.dumps(obj))


def _decoded(decode, value):
    """decode's answer for value: the Design, or the DesignFileError message."""
    try:
        return decode(value)
    except DesignFileError as exc:
        return f"DesignFileError: {exc}"


def _text(obj) -> str | None:
    """obj as JSON text, or None if it holds a value JSON cannot write."""
    try:
        return json.dumps(obj)
    except TypeError:
        return None


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


HEXAGON_OBJ = {"type": "hexagon", "vertices": [0, 1, 2, 3, 4, 5]}
PRISM_OBJ = {"type": "prism", "triangles": [[0, 2, 4], [1, 3, 5]]}


def _misplaced_blocks() -> list:
    """Design objects with a block object where no block belongs, which the
    object hook builds into a block all the same, and with block instances
    where block objects belong."""
    packing = design_to_obj(max_multipack(8))
    covering = design_to_obj(catalog_get("covering:11"))
    bipartite = design_to_obj(catalog_get("bipartite:4x6"))
    explicit = design_to_obj(SMALL_DESIGNS["explicit-multigraph"])
    objs = [HEXAGON_OBJ, PRISM_OBJ, {**packing, **HEXAGON_OBJ}, {**packing, **PRISM_OBJ}]
    for key in ("host", "kind", "blocks", "leave", "padding", "note"):
        objs += [{**packing, key: HEXAGON_OBJ}, {**covering, key: PRISM_OBJ}]
    objs.append({**packing, "host": {"type": "complete", "n": HEXAGON_OBJ}})
    objs.append({**packing, "leave": [HEXAGON_OBJ] + packing["leave"]})
    objs.append({**covering, "padding": covering["padding"] + [PRISM_OBJ]})
    for side in ("left", "right"):
        host = {**bipartite["host"], side: bipartite["host"][side] + [HEXAGON_OBJ]}
        objs.append({**bipartite, "host": host})
    for edges in ([HEXAGON_OBJ] + explicit["host"]["edges"], [[0, PRISM_OBJ]], HEXAGON_OBJ):
        objs.append({**explicit, "host": {"type": "explicit", "edges": edges}})
    for key, value in (("note", PRISM_OBJ), ("vertices", [HEXAGON_OBJ, 1, 2, 3, 4, 5]),
                       ("type", HEXAGON_OBJ)):
        objs.append({**packing, "blocks": [{**HEXAGON_OBJ, key: value}]})
    for blocks in ([HEXAGON, PRISM], [PRISM], packing["blocks"] + [HEXAGON]):
        objs.append({**packing, "blocks": blocks})
    return objs


def test_bulk_decode_agrees_with_the_block_by_block_loop(monkeypatch):
    # _block, as the parser's object hook, must accept exactly the block
    # objects the checked loop accepts, build equal blocks, and leave every
    # fault to the checked path to name; the uneven prisms split their six
    # vertices 2 + 4 over the triangles
    uneven = [{**design_to_obj(catalog_get("decomposition:6")),
               "blocks": [{"type": "prism", "triangles": triangles}]}
              for triangles in ([[0, 1], [2, 3, 4, 5]], [[0, 1, 2, 3], [4, 5]])]
    objs = (_malformed_objects() + [_perturbed_k13(seed) for seed in range(400)]
            + uneven + _misplaced_blocks())
    texts = [text for text in map(_text, objs) if text is not None]
    assert len(objs) - len(texts) == 3
    fast = [_decoded(design_from_obj, obj) for obj in objs]
    fast_text = [_decoded(loads_design, text) for text in texts]
    monkeypatch.setattr(designfile, "_block", lambda obj: obj)
    slow = [_decoded(design_from_obj, obj) for obj in objs]
    slow_text = [_decoded(loads_design, text) for text in texts]
    assert [repr(r) for r in fast] == [repr(r) for r in slow]
    assert fast == slow
    assert [repr(r) for r in fast_text] == [repr(r) for r in slow_text]
    assert fast_text == slow_text
    # block instances in a library caller's "blocks" are not block objects
    assert fast[-3:] == ["DesignFileError: block must be an object with a 'type' field"] * 3
    # the perturbations reach both outcomes, and bool vertices among the faults
    assert {type(r) for r in fast} == {Design, str}
    assert sum(isinstance(r, str) for r in fast) > 200
    assert "DesignFileError: expected an integer, got True" in fast


def test_valid_text_is_decoded_without_the_checked_path(monkeypatch):
    def checked(obj):
        raise AssertionError("valid text went to design_from_obj")

    texts = {dumps_design(d): d for d in SMALL_DESIGNS.values()}
    monkeypatch.setattr(designfile, "design_from_obj", checked)
    for text, design in texts.items():
        assert loads_design(text) == design


def test_loads_pauses_the_collector_and_gives_its_state_back(monkeypatch):
    design = catalog_get("decomposition:6")
    text = dumps_design(design)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert loads_design(text) == design
            assert gc.isenabled() is enabled
            with pytest.raises(DesignFileError, match="unknown host type"):
                loads_design(text.replace('"complete"', '"cubic"'))
            assert gc.isenabled() is enabled
        gc.enable()
        seen = []
        monkeypatch.setattr(designfile, "_block", lambda obj: seen.append(gc.isenabled()) or obj)
        assert loads_design(text) == design
        assert seen and not any(seen)
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture(scope="module")
def k601() -> Design:
    return multidecompose(601)


def _traced(call):
    """call's result, the traced bytes it left allocated and its traced peak,
    both counted from the start of the call."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - start, peak - start


def test_decoding_holds_no_more_than_the_design(k601):
    # the parse builds each block as it reaches it, so the JSON tree of the
    # blocks never exists whole; holding it beside the design peaks at 2.35
    text = dumps_design(k601)
    design, kept, peak = _traced(lambda: loads_design(text))
    assert design == k601
    assert peak <= 1.3 * kept


def test_saving_holds_a_run_of_blocks_not_the_file(k601, tmp_path):
    # holding the whole text and its encoding peaks at 3.64 times the file
    path = tmp_path / "k601.json"
    _, _, peak = _traced(lambda: designfile.save_design(k601, path))
    assert peak <= 0.25 * path.stat().st_size
