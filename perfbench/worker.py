"""Runs workload steps inside one interpreter.

CLI steps go through `hexprism.cli.main(argv)` with output captured; search
steps call the library.  hexprism is imported before anything is timed.  With
`--trace 1` span wrappers are installed first.  Writes one JSON document with
a record per timed step, the spans, and this process's peak RSS.

    PYTHONPATH=src python3 perfbench/worker.py --workload search --seed 1 \
        --seconds 20 --trace 0 --workdir W --out W/result.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from session import Session, check_search
from spans import Tracer


def _design_obj(design) -> dict:
    """A found design as a file-format object, built from its attributes."""
    from hexprism.core import Complete, Hexagon

    host = design.host
    if isinstance(host, Complete):
        host_obj = {"type": "complete", "n": host.n}
    else:
        host_obj = {"type": "bipartite", "left": sorted(host.left), "right": sorted(host.right)}
    blocks = [
        {"type": "hexagon", "vertices": list(b.vertices)} if isinstance(b, Hexagon)
        else {"type": "prism", "triangles": [list(b.first), list(b.second)]}
        for b in design.blocks
    ]
    return {"host": host_obj, "kind": design.kind.value, "blocks": blocks,
            "leave": [list(e) for e in sorted(design.leave)],
            "padding": [list(e) for e in design.padding]}


def run_instance(step: dict) -> dict:
    """One library search instance: timed call, then its checks."""
    from hexprism import search
    from hexprism.core import Complete, CompleteBipartite, Kind

    host = step.get("host")
    if host and host[0] == "complete":
        host = Complete(host[1])
    elif host:
        m, n = host[1], host[2]
        host = CompleteBipartite(frozenset(range(m)), frozenset(range(m, m + n)))
    gc.collect()  # each instance starts from the same heap state, whatever ran before
    record = {"op": step["op"], "instance": step["instance"], "group": step["group"],
              "rss_kb": 0}
    start = perf_counter()
    try:
        if step["call"] == "search":
            result = search.search_multidecomposition(host, search.SearchConfig(**step["config"]))
        elif step["call"] == "extremal":
            result = search.find_extremal(host, Kind(step["kind"]), step["bound"],
                                          node_budget=step.get("node_budget"))
        else:
            result = search.confirm_nonexistence(step["n"])
    except Exception:  # a failed operation: record it and go on
        record["seconds"] = perf_counter() - start
        problems = [f"{step['instance']} raised:\n{traceback.format_exc()}"]
    else:
        record["seconds"] = perf_counter() - start
        problems = _check_result(step, result, record)
    record["ok"] = not problems
    record["problems"] = problems
    return record


def _check_result(step: dict, result, record: dict) -> list[str]:
    """Problems with one instance's result; notes its counts in the record."""
    if step["call"] != "certify":
        record["nodes"] = result.stats.nodes
        record["placements"] = result.stats.placements
        design = _design_obj(result.design) if result.design is not None else None
        return check_search(step["instance"], result.status.value,
                            result.stats.nodes, result.stats.placements, design)
    record["stats"] = stats = dict(result.stats)
    problems = [] if result.nonexistent and result.branches_agree else [
        f"{step['instance']}: nonexistent={result.nonexistent} "
        f"branches_agree={result.branches_agree}"
    ]
    if step["n"] == 7:
        record["nodes"] = stats["full_search_nodes"]
        record["placements"] = stats["full_search_placements"]
        problems += check_search(step["instance"],
                                 "exhausted" if result.nonexistent else "found",
                                 record["nodes"], record["placements"], None)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--steps", type=int, default=0, help="run this many steps")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="else run the whole cycles that take about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import hexprism.cli as cli

    os.chdir(args.workdir)
    tracer = Tracer()
    if args.trace:
        tracer.install()

    def run_cli(argv):
        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a wrong exit code, checked like any other
                traceback.print_exc(file=sys.__stderr__)
                rc = -1
        return rc, out.getvalue(), perf_counter() - start, 0

    session = Session(Path(args.workdir), run_cli)
    records = []
    index = 0

    def run_step(step):
        nonlocal index
        tracer.op = index
        record = run_instance(step) if "call" in step else session.run(step)
        if record is not None:
            record["index"] = index
            records.append(record)
        index += 1

    if args.steps:
        for step in workloads.steps(args.workload, args.seed, args.steps):
            run_step(step)
    else:
        workloads.run_cycles(args.workload, args.seed, args.seconds, run_step)
    result = {"records": records, "spans": tracer.spans,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
