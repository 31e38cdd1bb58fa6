"""hexprism benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client drives the program in a closed
loop: each call starts when the previous one has finished.  CLI calls run
`python -m hexprism.cli` from `src/` in fresh processes; the search workload
calls the library in one worker process, with import outside the timed
region.  `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
same inputs in one process with span wrappers and prints the per-layer
metrics, a self-time table and the tracing overhead.  The last line of
standard output is the JSON result; a copy with an environment stamp goes
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads
from session import Session
from spans import summarize, table

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 7
CALL_TIMEOUT_S = 120


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list[str], cwd: Path, timeout: float = CALL_TIMEOUT_S):
    """Run argv to completion; (exit code, stdout, stderr, wall s, peak RSS KiB)."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            # reap with wait4 for this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            rss_kb = usage.ru_maxrss
        except ChildProcessError:  # reaped by the timeout's kill
            proc.wait()
            rss_kb = 0
        finally:
            killer.cancel()
        seconds = perf_counter() - start
    return (proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"), seconds, rss_kb)


def percentile_tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as (value,
    level, samples beyond).  Below 40 samples that percentile would sit under
    p75, so the maximum is reported instead."""
    xs = sorted(values)
    if len(xs) < 40:
        return xs[-1], 100.0, 0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs), 10


# ---------------------------------------------------------------------------
# set-up and import probes, each in a fresh interpreter


def setup_probes(workdir: Path, importtime: bool) -> tuple[list[dict], list[dict]]:
    """Fresh processes that import hexprism and get every catalog key."""
    probes, records = [], []
    flags = ["-X", "importtime"] if importtime else []
    for _ in range(SETUP_PROBES):
        rc, out, err, seconds, _ = spawn(
            [sys.executable, *flags, str(BENCH / "setup_probe.py")], workdir)
        problems = []
        try:
            probe = json.loads(out.strip().splitlines()[-1]) if rc == 0 else None
        except (IndexError, ValueError):
            probe = None
        if probe is None:
            problems.append(f"set-up probe exited {rc}: {err.strip()[-300:]}")
        elif probe["entries"] != len(workloads.CATALOG_KEYS):
            problems.append(f"catalog has {probe['entries']} keys, expected "
                            f"{len(workloads.CATALOG_KEYS)}")
        else:
            probe["wall_s"] = seconds
            if importtime:
                probe["imports"] = _importtime(err)
            probes.append(probe)
        records.append({"op": "setup", "seconds": seconds, "ok": not problems,
                        "problems": problems})
    return probes, records


def _importtime(stderr: str) -> dict:
    """Cumulative import seconds of hexprism, numpy and networkx."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        name = parts[2].strip()
        if name in ("hexprism", "numpy", "networkx") and parts[1].strip().isdigit():
            cumulative[name] = int(parts[1]) / 1e6
    total = cumulative.get("hexprism", 0.0)
    third_party = cumulative.get("numpy", 0.0) + cumulative.get("networkx", 0.0)
    return {"total_s": total, "numpy_s": cumulative.get("numpy", 0.0),
            "networkx_s": cumulative.get("networkx", 0.0),
            "hexprism_s": total - third_party}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path):
    probes, records = setup_probes(workdir, importtime=False)
    if workload == "search":
        worker = run_worker(workload, seed, workdir, trace=0, seconds=seconds)
        ops = worker["records"]
        peak_kb = worker["rss_kb"]
        # a call of this workload is one group of library calls, in a cycle
        groups: dict = {}
        for r in ops:
            cycle = r["index"] // len(workloads.SEARCH_INSTANCES)
            groups.setdefault((cycle, r["group"]), []).append(r["seconds"])
        calls = [{"op": group, "seconds": sum(times)} for (_, group), times in groups.items()]
    else:
        def run_cli(argv):
            rc, out, _, wall, rss_kb = spawn(
                [sys.executable, "-m", "hexprism.cli", *argv], workdir)
            return rc, out, wall, rss_kb

        session = Session(workdir, run_cli)
        ops = []

        def run_step(step):
            record = session.run(step)
            if record is not None:
                ops.append(record)

        workloads.run_cycles(workload, seed, seconds, run_step)
        peak_kb = max(r["rss_kb"] for r in ops)
        calls = ops
    times = [r["seconds"] for r in calls]
    tail, level, beyond = percentile_tail(times)
    metrics = {
        "setup_s": (statistics.median(p["wall_s"] for p in probes) if probes else 0.0, "s"),
        "call_p50_s": (statistics.median(times), "s"),
        "call_tail_s": (tail, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    notes = [
        f"set-up: median of {len(probes)} fresh processes (import hexprism + cold get "
        f"of every catalog key)",
        f"calls: {len(times)} in whole cycles, closed loop, one client; tail is p{level:.0f} "
        f"with {beyond} samples beyond it",
    ]
    by_op: dict = {}
    for r in calls:
        by_op.setdefault(r["op"], []).append(r["seconds"])
    for op, values in sorted(by_op.items()):
        notes.append(f"  {op:<20} n={len(values):<4} median {statistics.median(values):.4f} s")
    return metrics, records + ops, notes


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def run_worker(workload: str, seed: int, workdir: Path, trace: int,
               steps: int = 0, seconds: float = 0.0) -> dict:
    out = workdir / f"worker-{trace}.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--workdir", str(workdir),
            "--out", str(out)]
    argv += ["--steps", str(steps)] if steps else ["--seconds", str(seconds)]
    rc, _, err, _, rss_kb = spawn(argv, workdir, timeout=170)
    if rc != 0:
        raise RuntimeError(f"worker exited {rc}: {err.strip()[-2000:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    result["rss_kb"] = max(result["rss_kb"], rss_kb)
    return result


CERT_COUNTERS = {
    "search.certify.n9.pairs_edge_disjoint": ("cert-n9", "pairs_edge_disjoint"),
    "search.certify.n9.pairs_parity_rejected": ("cert-n9", "pairs_parity_rejected"),
    "search.certify.n10.case61_single_prisms": ("cert-n10", "case61_single_prisms"),
    "search.certify.n10.case33_pairs_support_compatible":
        ("cert-n10", "case33_pairs_support_compatible"),
    "search.certify.n10.case33_third_candidates": ("cert-n10", "case33_third_candidates"),
}


def layer_metrics(traced: dict, untraced: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced replay; overhead against the untraced one."""
    spans = traced["spans"]
    rows = summarize(spans)

    def row(name, key="total_s"):
        return rows.get(name, {}).get(key, 0)

    # in-process wall time of each CLI call, by subcommand
    main_s = {s[5]: s[3] - s[2] for s in spans if s[1] == "cli.main"}
    by_command: dict = {}
    for r in traced["records"]:
        if r["index"] in main_s:
            by_command.setdefault(r["op"], []).append(main_s[r["index"]])

    def median_call(op):
        return statistics.median(by_command[op]) if op in by_command else 0.0

    constructions_self = sum(r["self_s"] for n, r in rows.items() if n.startswith("constructions."))
    verify_s = row("verifier.verify")
    m = {
        "cli.self_s": (row("cli.main", "self_s"), "s"),
        "cli.construct_s": (median_call("construct"), "s"),
        "cli.verify_s": (median_call("verify"), "s"),
        "constructions.build_s": (row("constructions.build"), "s"),
        "constructions.self_s": (constructions_self, "s"),
        "constructions.join_layout_s": (row("constructions.join_layout"), "s"),
        "constructions.blocks": (row("constructions.build", "blocks"), "count"),
        "bipartite.fill_s": (row("bipartite.fill"), "s"),
        "bipartite.fill_calls": (row("bipartite.fill", "calls"), "count"),
        "bipartite.blocks": (row("bipartite.fill", "blocks"), "count"),
        "verifier.verify_s": (verify_s, "s"),
        "verifier.incidence_s": (row("verifier.incidence"), "s"),
        "verifier.edges": (row("verifier.verify", "edges"), "count"),
        "verifier.edges_per_s": (row("verifier.verify", "edges") / verify_s if verify_s else 0.0,
                                 "1/s"),
        "designfile.dumps_s": (row("designfile.dumps"), "s"),
        "designfile.bytes": (row("designfile.dumps", "bytes"), "B"),
        "designfile.loads_s": (row("designfile.loads"), "s"),
        "search.leave_classes_s": (row("search.leave_classes"), "s"),
        "search.leave_classes": (row("search.leave_classes", "classes"), "count"),
    }

    # per search instance: the first occurrence, timed by its top-level search span
    top = {}
    for s in spans:
        if s[1] in ("search.engine", "search.extremal", "search.certify") and (
            s[4] is None or spans[s[4]][1] == "cli.main"
        ):
            top[s[5]] = top.get(s[5], 0.0) + s[3] - s[2]
    seen = {}
    for r in traced["records"]:
        if "instance" in r and r["instance"] not in seen:
            seen[r["instance"]] = r
    groups = {"engine": 0.0, "extremal": 0.0, "certify": 0.0}
    nodes = search_s = 0.0
    for name, spec in workloads.SEARCH_INSTANCES.items():
        r = seen.get(name)
        s = top.get(r["index"], 0.0) if r else 0.0
        groups[spec["group"]] += s
        if spec["call"] == "certify":
            m[f"search.certify.n{spec['n']}_s"] = (s, "s")
            continue
        m[f"search.{name}.nodes"] = (r.get("nodes", 0) if r else 0, "count")
        m[f"search.{name}.placements"] = (r.get("placements", 0) if r else 0, "count")
        m[f"search.{name}.s"] = (s, "s")
        if r:
            nodes += r.get("nodes", 0)
            search_s += s
    cert7 = seen.get("cert-n7", {})
    m["search.certify.n7.nodes"] = (cert7.get("nodes", 0), "count")
    m["search.certify.n7.placements"] = (cert7.get("placements", 0), "count")
    for metric, (instance, key) in CERT_COUNTERS.items():
        m[metric] = (seen.get(instance, {}).get("stats", {}).get(key, 0), "count")
    m["search.nodes_per_s"] = (nodes / search_s if search_s else 0.0, "1/s")
    m["search.engine_s"] = (groups["engine"], "s")
    m["search.extremal_s"] = (groups["extremal"], "s")
    m["search.certify_s"] = (groups["certify"], "s")

    mutations = [r for r in traced["records"] + untraced["records"] if r.get("mutation")]
    detected = sum(r["ok"] for r in mutations)
    m["verifier.mutations"] = (len(mutations), "count")
    m["verifier.mutations_detected"] = (detected / len(mutations) if mutations else 1.0, "ratio")

    traced_s = sum(r["seconds"] for r in traced["records"])
    untraced_s = sum(r["seconds"] for r in untraced["records"])
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.overhead_pct"] = (100 * (traced_s - untraced_s) / untraced_s, "%")
    m["trace.spans"] = (len(spans), "count")
    return m, {"rows": rows, "traced_s": traced_s, "untraced_s": untraced_s}


def run_traced(workload: str, seed: int, workdir: Path):
    probes, records = setup_probes(workdir, importtime=True)
    steps = workloads.REPLAY_STEPS[workload]
    untraced = run_worker(workload, seed, workdir, trace=0, steps=steps)
    traced = run_worker(workload, seed, workdir, trace=1, steps=steps)
    metrics, detail = layer_metrics(traced, untraced)

    def median(values):
        return statistics.median(values) if values else 0.0

    for part in ("total_s", "hexprism_s", "numpy_s", "networkx_s"):
        metrics[f"import.{part}"] = (median([p["imports"][part] for p in probes]), "s")
    metrics["catalog.load_s"] = (median([p["catalog_s"] for p in probes]), "s")
    metrics["catalog.entries"] = (probes[0]["entries"] if probes else 0, "count")
    all_records = records + untraced["records"] + traced["records"]
    failed = sum(not r["ok"] for r in all_records)
    metrics["error_rate"] = (failed / len(all_records), "ratio")

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    text = table(detail["rows"], detail["traced_s"])
    spans_path = results / f"spans-{workload}-s{seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "op", "attrs"],
                   "spans": traced["spans"]}, fh)
    (results / f"layers-{workload}-s{seed}.txt").write_text(text + "\n", encoding="utf-8")
    notes = [
        f"traced replay of the first {steps} steps in one process: "
        f"{detail['traced_s']:.4f} s traced, {detail['untraced_s']:.4f} s untraced, "
        f"overhead {metrics['trace.overhead_s'][0]:+.4f} s",
        f"import breakdown: median of {len(probes)} fresh `-X importtime` processes",
        f"spans written to {spans_path.relative_to(ROOT)}",
        "per-layer self time of the traced replay:",
        text,
    ]
    return metrics, all_records, notes


# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "networkx": version("networkx"), "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit, "seed": seed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hexprism" / "__init__.py").is_file():
        print(f"no hexprism source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, records, notes = run_traced(args.workload, args.seed, workdir)
        else:
            metrics, records, notes = run_untraced(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    failed = [r for r in records if not r["ok"]]
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env = environment(args.seed)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stamp = dict(result, environment=env, workload=args.workload, seconds=args.seconds,
                 trace=args.trace, failures=[r["problems"] for r in failed][:50])
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(stamp, indent=2) + "\n", encoding="utf-8")

    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in notes:
        print(line)
    for r in failed[:20]:
        print(f"FAILED {r['op']}: {'; '.join(r['problems'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
