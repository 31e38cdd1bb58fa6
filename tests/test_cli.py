from __future__ import annotations

import ast
import gc
import json
import subprocess
import sys
import zipfile
from pathlib import Path

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
# packing:8 with its one leave edge listed twice, in both orders
_P8_LEAVE_TWICE = json.dumps(
    {**json.loads(dumps_design(catalog_get("packing:8"))), "leave": [[2, 5], [5, 2]]}
).encode()


@pytest.mark.parametrize(
    "content",
    [b'{"host": "\xff"}', b"[" * 200_000]
    + [_HOST_AND_KIND + b'"blocks": ' + blocks + b"}" for blocks in (b"5", b"null", b"true")]
    + [_P8_LEAVE_TWICE],
    ids=["not-utf8", "nested-too-deeply", "blocks-int", "blocks-null", "blocks-bool",
         "leave-edge-twice"],
)
def test_verify_unreadable_file_is_a_usage_error(tmp_path, content):
    # exit 1 means the design failed verification, so a file that cannot be
    # decoded or parsed, whose blocks are not a list, or whose leave set lists
    # an edge twice, must exit 2 with a message, not a traceback
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
    both = run_cli("search", "--n", "5", "--host", "complete:12")
    assert both.returncode == 2
    assert "not allowed with argument" in both.stderr
    assert "Traceback" not in both.stderr


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


def test_cli_import_leaves_the_search_engine_unloaded():
    # only `hexprism search` runs the engine, so no other command loads it;
    # the package still lists and resolves every public name
    code = (
        "import sys, hexprism, hexprism.cli\n"
        "assert 'hexprism.search' not in sys.modules, 'search loaded'\n"
        "assert set(hexprism.__all__) <= set(dir(hexprism)), 'dir'\n"
        "assert all(getattr(hexprism, name) is not None for name in hexprism.__all__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_hook_imports_show_in_importtime():
    # the package's lazy hook imports as the import statement does, so
    # -X importtime reports each submodule it loads
    code = "import hexprism; hexprism.catalog"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert "hexprism.catalog" in names


def _main_in_a_fresh_process(argv, *flags):
    """The exit code of cli.main(argv) run by a new interpreter with src/ first
    on sys.path, and the names of the modules loaded when it returns."""
    program = (
        "import sys\n"
        "sys.path.insert(0, sys.argv.pop(1))\n"
        "from hexprism import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, *sorted(sys.modules), file=sys.stderr)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, *flags, "-c", program, str(src), *argv],
                          capture_output=True, text=True)
    code, *loaded = proc.stderr.splitlines()[-1].split()
    return int(code), set(loaded)


@pytest.mark.parametrize("argv, exit_code, loads, unloaded", [
    (["construct", "--n", "13", "--kind", "packing"], 0,
     {"constructions", "verifier", "designfile"}, {"search"}),
    (["construct", "--n", "10", "--kind", "decomposition"], 1,
     {"constructions", "feasibility"}, {"search"}),
    (["verify", "{design}"], 0,
     {"designfile", "verifier"}, {"constructions", "catalog", "bases", "bipartite", "search"}),
    (["classify", "--n", "13"], 0,
     {"feasibility"}, {"verifier", "designfile", "constructions", "catalog", "bases", "search"}),
    (["catalog", "covering:17"], 0,
     {"bases"}, {"catalog", "bipartite", "constructions", "search"}),
    (["catalog"], 0, {"bases"}, {"catalog", "bipartite", "constructions", "search"}),
    (["search", "--n", "9"], 1,
     {"search"}, {"constructions", "catalog", "bases", "bipartite", "verifier", "designfile"}),
    # 479 nodes start no helper, so what a helper needs stays unloaded
    (["search", "--n", "9"], 1, {"search"}, {"mmap", "signal"}),
], ids=["construct", "construct-nonexistent", "verify", "classify", "catalog-export",
        "catalog-list", "search", "search-no-helper"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, exit_code, loads, unloaded):
    # each command, run through main in a fresh process, imports the modules
    # it runs on first call and no others, and none imports dataclasses;
    # names outside the standard library are the package's own
    design = tmp_path / "k13.json"
    design.write_text(dumps_design(catalog_get("decomposition:13")), encoding="utf-8")
    code, loaded = _main_in_a_fresh_process([arg.format(design=design) for arg in argv])
    qualified = {name: name if name in sys.stdlib_module_names else f"hexprism.{name}"
                 for name in loads | unloaded}
    assert code == exit_code
    assert "dataclasses" not in loaded
    assert {qualified[name] for name in loads} <= loaded
    assert not {qualified[name] for name in unloaded} & loaded


@pytest.mark.parametrize("argv", [
    ["catalog", "covering:17"], ["construct", "--n", "30", "--kind", "covering"],
], ids=["catalog-export", "construct"])
def test_a_clean_interpreter_loads_neither_resources_nor_threading(argv):
    # under -S no site-packages .pth file imports anything first, so what is
    # in sys.modules afterwards is what the command imported: the bundled
    # files come through the package loader and the catalog lock from _thread
    code, loaded = _main_in_a_fresh_process(argv, "-S")
    assert code == 0
    assert not {"importlib.resources", "threading"} & loaded


def test_the_catalog_loads_from_a_zipped_package(tmp_path):
    # with only a zip of the package on sys.path, the zip importer serves the
    # bundled files, which load, verify and equal the directory's
    package = Path(__file__).resolve().parents[1] / "src" / "hexprism"
    archive = tmp_path / "hexprism.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(package.parent).as_posix())
    program = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from hexprism import catalog\n"
        "from hexprism.designfile import dumps_design\n"
        "from hexprism.verifier import verify_design\n"
        "assert catalog.__file__.startswith(sys.argv[1]), catalog.__file__\n"
        "assert type(catalog.__loader__).__name__ == 'zipimporter'\n"
        "design = catalog.get('covering:17')\n"
        "assert verify_design(design).valid\n"
        "sys.stdout.write(dumps_design(design))\n"
    )
    # -I leaves PYTHONPATH and the working directory off sys.path
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", program, str(archive)],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == dumps_design(catalog_get("covering:17"))


def test_every_source_file_parses_as_python_3_10():
    # the package supports 3.10, so no file may use newer syntax
    root = Path(__file__).resolve().parents[1]
    files = [path for part in ("src", "tests", "perfbench") for path in (root / part).rglob("*.py")]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_every_name_the_benchmark_tracer_wraps_is_there():
    # perfbench/spans.py wraps names in cli, designfile, bases, catalog and
    # search by getattr, so a rename there fails here, not in a traced run;
    # -B keeps the import from writing bytecode under perfbench/
    root = Path(__file__).resolve().parents[1]
    code = "import sys; sys.path[:0] = sys.argv[1:]; from spans import Tracer; Tracer().install()"
    argv = [sys.executable, "-B", "-c", code, str(root / "src"), str(root / "perfbench")]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_commands_leave_no_cyclic_garbage_that_grows(tmp_path, capsys):
    # main pauses the cyclic collector for the command, which is sound only
    # while the command makes no cycles whose number grows with the design
    found = []
    for n in (61, 601):
        path = tmp_path / f"k{n}.json"
        gc.collect()
        argv = ["construct", "--n", str(n), "--kind", "decomposition", "--output", str(path)]
        assert cli.main(argv) == cli.EXIT_OK
        assert cli.main(["verify", str(path)]) == cli.EXIT_OK
        found.append(gc.collect())
    capsys.readouterr()
    assert found[0] == found[1] < 1000
    assert gc.isenabled()
    gc.disable()
    try:
        assert cli.main(["classify", "--n", "13"]) == cli.EXIT_OK
        assert not gc.isenabled()
    finally:
        gc.enable()
