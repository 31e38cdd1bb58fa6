from __future__ import annotations

import json

import pytest

from hexprism import cli
from hexprism.catalog import get as catalog_get
from hexprism.designfile import DesignFileError, design_to_obj, loads_design


@pytest.mark.parametrize(
    "path, value",
    [
        (("blocks", 0, "vertices", 0), 0.9),
        (("blocks", 0, "vertices", 0), "0"),
        (("host", "n"), 6.7),
        (("blocks", 0, "vertices", 1), True),
    ],
)
def test_non_integers_are_rejected(path, value, tmp_path):
    obj = design_to_obj(catalog_get("decomposition:6"))
    *parents, last = path
    target = obj
    for step in parents:
        target = target[step]
    target[last] = value
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
