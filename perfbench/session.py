"""Runs workload steps through a CLI runner and checks every output.

The runner decides how a CLI call is made (a fresh subprocess, or
`hexprism.cli.main` in this process); checks are the same either way and use
only the stdlib oracle and the recorded fingerprints.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

from oracle import check_design, expect_for_catalog_key, expect_for_order, expected_sizes
from workloads import SEARCH_INSTANCES, mutate

@functools.cache
def fingerprints() -> dict:
    """Recorded status, node and placement counts of each search instance."""
    return json.loads((Path(__file__).parent / "fingerprints.json").read_text())


def check_search(instance: str, status: str, nodes: int, placements: int, design) -> list[str]:
    """A search verdict against the recorded fingerprint and the oracle."""
    want = fingerprints()[instance]
    problems = []
    if (status, nodes, placements) != (want["status"], want["nodes"], want["placements"]):
        problems.append(
            f"fingerprint mismatch on {instance}: {status} {nodes} nodes "
            f"{placements} placements, recorded {want['status']} {want['nodes']} "
            f"nodes {want['placements']} placements"
        )
    if status == "found":
        spec = SEARCH_INSTANCES[instance]
        if design is None:
            return problems + [f"{instance} found no design object"]
        if spec["call"] == "search":
            host = tuple(spec["host"])
            expect = {"host": host, "kinds": {"decomposition"}, "leave": 0, "padding": 0,
                      "shapes": spec["shapes"]}
        else:
            kind, bound = spec["kind"], spec["bound"]
            expect = {"host": tuple(spec["host"]), "kinds": {kind}, "shapes": "both",
                      "leave": bound if kind == "packing" else 0,
                      "padding": bound if kind == "covering" else 0}
        found, _, _ = check_design(design, expect)
        problems += [f"{instance}: {p}" for p in found]
    return problems


class Session:
    """Executes steps in a work directory, keeping the parsed designs that
    later steps of the same unit check against or mutate."""

    def __init__(self, workdir: Path, run_cli):
        self.workdir = workdir
        self.run_cli = run_cli  # argv -> (exit code, stdout text, seconds, peak RSS KiB)
        self.designs: dict[str, dict] = {}
        self.counts: dict[str, tuple[int, int]] = {}

    def run(self, step: dict) -> dict | None:
        """Run one step; timed steps return their record, others None."""
        if step["op"] == "mutate":
            obj = self.designs.pop(step["src"], None)
            if obj is None:  # its construct failed; the verify of the copy fails too
                return None
            mutate(obj, step["mutation"])
            with open(self.workdir / step["dst"], "w", encoding="utf-8") as fh:
                json.dump(obj, fh, separators=(",", ":"))
            return None
        if step["op"] == "cleanup":
            for name in step["paths"]:
                self.designs.pop(name, None)
                self.counts.pop(name, None)
                try:
                    os.unlink(self.workdir / name)
                except FileNotFoundError:
                    pass
            return None
        rc, out, seconds, rss_kb = self.run_cli(step["argv"])
        record = {"op": step["op"], "seconds": seconds, "rss_kb": rss_kb}
        if step["op"] == "verify-mutated":
            record["mutation"] = True
        try:
            problems = self._check(step["check"], rc, out, record)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            problems = [f"output check raised {exc!r}"]
        record["ok"] = not problems
        record["problems"] = problems
        return record

    def _check(self, check: dict, rc: int, out: str, record: dict) -> list[str]:
        """Problems with one CLI call's exit code and output; a search call
        also notes its instance, nodes and placements in the record."""
        kind = check["type"]
        if kind == "design_file":
            if rc != 0:
                return [f"construct exited {rc}"]
            with open(self.workdir / check["path"], encoding="utf-8") as fh:
                obj = json.load(fh)
            problems, h, p = check_design(obj, expect_for_order(check["n"], check["kind"]))
            self.designs[check["path"]] = obj
            self.counts[check["path"]] = (h, p)
            return problems
        if kind == "verify":
            report = json.loads(out)
            problems = [] if rc == check["rc"] else [f"verify exited {rc}, expected {check['rc']}"]
            if report["valid"] != (check["rc"] == 0):
                problems.append(f"verdict valid={report['valid']}")
            if check["rc"] == 0:
                got = (report["hexagon_count"], report["prism_count"])
                if got != self.counts.get(check["path"]):
                    problems.append(f"block counts {got} != oracle {self.counts.get(check['path'])}")
            else:
                codes = {f["code"] for f in report["failures"]}
                missing = set(check["codes"]) - codes
                if missing:
                    problems.append(f"findings {sorted(codes)} lack {sorted(missing)}")
            return problems
        if kind == "catalog":
            if rc != 0:
                return [f"catalog exited {rc}"]
            problems, _, _ = check_design(json.loads(out), expect_for_catalog_key(check["key"]))
            return problems
        if kind == "classify":
            if rc != 0:
                return [f"classify exited {rc}"]
            report = json.loads(out)
            want = expected_sizes(check["n"])
            got = (report["decomposition_exists"], report["min_leave"], report["min_padding"])
            return [] if got == want else [f"classify {check['n']}: {got} != {want}"]
        if kind == "search":
            report = json.loads(out)
            record.update(instance=check["instance"], nodes=report["nodes"],
                          placements=report["placements"])
            problems = [] if rc == check["rc"] else [f"search exited {rc}, expected {check['rc']}"]
            return problems + check_search(
                check["instance"], report["status"], report["nodes"], report["placements"],
                report["design"],
            )
        raise ValueError(f"unknown check {kind!r}")
