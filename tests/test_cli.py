from __future__ import annotations

import json
import subprocess
import sys

import pytest

from hexprism import cli
from hexprism.catalog import get as catalog_get
from hexprism.core import Complete
from hexprism.designfile import design_from_obj, dumps_design, load_design, loads_design
from hexprism.search import SearchOutcome, SearchStats, Status, needs_budget
from hexprism.verifier import verify_design


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "hexprism.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_construct_writes_verified_file(tmp_path):
    path = tmp_path / "d13.json"
    proc = run_cli("construct", "--n", "13", "--kind", "decomposition", "--output", str(path))
    assert proc.returncode == 0, proc.stderr
    design = load_design(path)
    assert len(design.blocks) == 11
    assert verify_design(design).valid


def test_construct_stdout_json_parses():
    proc = run_cli("construct", "--n", "8", "--kind", "packing")
    assert proc.returncode == 0
    design = loads_design(proc.stdout)
    assert len(design.leave) == 1


def test_construct_text_format():
    proc = run_cli("construct", "--n", "6", "--kind", "decomposition", "--format", "text")
    assert proc.returncode == 0
    assert "hexagon" in proc.stdout and "prism" in proc.stdout


def test_construct_infeasible_prints_report():
    proc = run_cli("construct", "--n", "7", "--kind", "decomposition")
    assert proc.returncode == 1
    assert "7" in proc.stderr
    report = json.loads(proc.stdout)
    assert report["decomposition_exists"] is False
    assert report["min_leave"] == 6


def test_construct_covering_ten_has_padding_three(tmp_path):
    path = tmp_path / "c10.json"
    proc = run_cli("construct", "--n", "10", "--kind", "covering", "--output", str(path))
    assert proc.returncode == 0
    assert len(json.loads(path.read_text())["padding"]) == 3


def test_construct_tiny_order_usage_error():
    assert run_cli("construct", "--n", "5", "--kind", "packing").returncode == 2


def test_verify_round_trip(tmp_path):
    path = tmp_path / "p17.json"
    run_cli("construct", "--n", "17", "--kind", "packing", "--output", str(path))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["valid"] is True
    assert report["leave"] == [[0, 9]]


def test_verify_detects_mutation(tmp_path):
    path = tmp_path / "d.json"
    run_cli("construct", "--n", "6", "--kind", "decomposition", "--output", str(path))
    obj = json.loads(path.read_text())
    block = obj["blocks"][0]
    if block["type"] == "hexagon":
        block["vertices"][0] = block["vertices"][1]
    else:
        block["triangles"][0][0] = block["triangles"][0][1]
    path.write_text(json.dumps(obj))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert not report["valid"]
    assert report["failures"]


def test_verify_parse_error_distinct(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("verify", str(path)).returncode == 2
    path.write_text(json.dumps({"host": {"type": "complete", "n": 6}}))
    assert run_cli("verify", str(path)).returncode == 2
    assert run_cli("verify", str(tmp_path / "absent.json")).returncode == 2


_HOST_AND_KIND = b'{"host": {"type": "complete", "n": 6}, "kind": "decomposition", '


@pytest.mark.parametrize(
    "content",
    [b'{"host": "\xff"}', b"[" * 200_000]
    + [_HOST_AND_KIND + b'"blocks": ' + blocks + b"}" for blocks in (b"5", b"null", b"true")],
    ids=["not-utf8", "nested-too-deeply", "blocks-int", "blocks-null", "blocks-bool"],
)
def test_verify_unreadable_file_is_a_usage_error(tmp_path, content):
    # exit 1 means the design failed verification, so a file that cannot be
    # decoded or parsed, or whose blocks are not a list, must exit 2 with a
    # message, not a traceback
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "cannot parse" in proc.stderr and "Traceback" not in proc.stderr


def test_classify_json_and_text():
    proc = run_cli("classify", "--n", "9")
    report = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert report["min_leave"] == 3 and report["min_padding"] == 3
    assert report["annotation"]

    proc = run_cli("classify", "--n", "12", "--format", "text")
    assert "decomposition exists: yes" in proc.stdout
    assert run_cli("classify", "--n", "2").returncode == 2


def test_search_exhaustion_exit_code():
    proc = run_cli("search", "--n", "7")
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["status"] == "exhausted"
    assert out["nodes"] > 0


def test_search_found_writes_design(tmp_path):
    path = tmp_path / "found.json"
    proc = run_cli("search", "--host", "bipartite:6x6", "--blocks", "hexagon", "--output", str(path))
    assert proc.returncode == 0
    design = load_design(path)
    assert len(design.blocks) == 6
    assert verify_design(design, require_both_types=False).valid


def test_search_budget_exit_code():
    proc = run_cli("search", "--n", "12", "--budget", "2")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["status"] == "budget"


@pytest.mark.parametrize("n, budget", [(10, None), (11, cli.DEFAULT_BUDGET)])
def test_search_default_budget_starts_above_the_limit(monkeypatch, capsys, n, budget):
    seen = []

    def record(host, config):
        seen.append(config.node_budget)
        return SearchOutcome(Status.EXHAUSTED, None, SearchStats())

    monkeypatch.setattr(cli, "search_multidecomposition", record)
    assert cli.main(["search", "--n", str(n)]) == cli.EXIT_FAIL
    assert seen == [budget]
    assert needs_budget(Complete(n)) is (budget is not None)


@pytest.mark.parametrize("budget", ["-5", "0", "x"])
def test_search_budget_must_be_positive(budget):
    proc = run_cli("search", "--n", "9", "--budget", budget)
    assert proc.returncode == 2
    assert "--budget: must be a positive integer" in proc.stderr


def test_search_usage_errors():
    assert run_cli("search").returncode == 2
    assert run_cli("search", "--host", "triangle:5").returncode == 2


@pytest.mark.parametrize("spec", ["complete:", "bipartite:4x"])
def test_search_malformed_host_is_named(spec):
    proc = run_cli("search", "--host", spec)
    assert proc.returncode == 2
    assert f"bad host {spec!r}; use complete:N or bipartite:MxN" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_catalog_listing_and_export(tmp_path):
    proc = run_cli("catalog")
    keys = proc.stdout.split()
    assert proc.returncode == 0
    assert "decomposition:13" in keys
    assert "bipartite:4x6" in keys
    assert len(keys) == 17

    for key in keys:
        export = run_cli("catalog", key)
        assert export.returncode == 0, key
        loads_design(export.stdout)

    path = tmp_path / "k9.json"
    assert run_cli("catalog", "packing:9", "--output", str(path)).returncode == 0
    design = load_design(path)
    assert design.leave == frozenset({(1, 3), (1, 8), (3, 8)})

    assert run_cli("catalog", "decomposition:99").returncode == 2
    assert run_cli("catalog", "junk").returncode == 2


def test_file_round_trip_is_bit_exact(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run_cli("construct", "--n", "19", "--kind", "decomposition", "--output", str(first))
    run_cli("construct", "--n", "19", "--kind", "decomposition", "--output", str(second))
    assert first.read_text() == second.read_text()
    design = load_design(first)
    from hexprism.designfile import dumps_design

    assert dumps_design(design) == first.read_text()


def test_construct_output_file_is_the_stdout_form(tmp_path):
    path = tmp_path / "c20.json"
    argv = [sys.executable, "-m", "hexprism.cli", "construct", "--n", "20", "--kind", "covering"]
    printed = subprocess.run(argv, capture_output=True)
    written = subprocess.run(argv + ["--output", str(path)], capture_output=True)
    assert printed.returncode == written.returncode == 0
    assert written.stdout == b""
    assert path.read_bytes() == printed.stdout


def test_search_output_file_is_dumps_of_the_found_design(tmp_path, capsys):
    path = tmp_path / "b6x6.json"
    argv = ["search", "--host", "bipartite:6x6", "--blocks", "hexagon", "--output", str(path)]
    assert cli.main(argv) == cli.EXIT_OK
    found = design_from_obj(json.loads(capsys.readouterr().out)["design"])
    assert path.read_bytes() == dumps_design(found).encode()


@pytest.mark.parametrize("key", ["packing:9", "covering:11", "bipartite:4x6"])
def test_catalog_output_file_is_dumps_of_the_entry(tmp_path, capsys, key):
    path = tmp_path / "entry.json"
    assert cli.main(["catalog", key, "--output", str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == dumps_design(catalog_get(key)).encode()


@pytest.mark.parametrize(
    "n,kind",
    [(6, "decomposition"), (16, "decomposition"), (14, "packing"), (23, "covering"),
     (9, "packing"), (10, "covering")],
)
def test_construct_verify_pipeline(tmp_path, n, kind):
    path = tmp_path / "design.json"
    built = run_cli("construct", "--n", str(n), "--kind", kind, "--output", str(path))
    assert built.returncode == 0, built.stderr
    assert run_cli("verify", str(path)).returncode == 0


def test_import_loads_no_numeric_or_graph_library():
    code = (
        "import sys, hexprism, hexprism.cli; "
        "print(sorted({'numpy', 'networkx'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
