"""In-memory spans around the names each hexprism layer is called through.

A span is [id, name, start, end, parent id, op index, attrs].  Spans stay in
a list until the run ends.  Self time is a span's duration minus the time its
child spans cover; children of one span never overlap, since the program is
single-threaded.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


def _blocks(design) -> dict:
    return {"blocks": len(design.blocks)}


def _verified(report) -> dict:
    return {"edges": 6 * report.hexagon_count + 9 * report.prism_count}


def _searched(outcome) -> dict:
    return {"nodes": outcome.stats.nodes, "placements": outcome.stats.placements}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def _wrapped(self, fn, name: str, note):
        def traced(*args, **kwargs):
            span = [len(self.spans), name, 0.0, 0.0,
                    self.stack[-1] if self.stack else None, self.op, None]
            self.spans.append(span)
            self.stack.append(span[0])
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self.stack.pop()
            if note is not None:
                span[6] = note(result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) by a spanning wrapper."""
        if isinstance(owner, dict):
            owner[attr] = self._wrapped(owner[attr], name, note)
        else:
            setattr(owner, attr, self._wrapped(getattr(owner, attr), name, note))

    def install(self) -> None:
        """Wrap every layer boundary of the imported hexprism package."""
        from hexprism import bases, bipartite, catalog, cli, constructions, designfile
        from hexprism import search, verifier

        self.wrap(cli, "main", "cli.main")
        for kind in list(cli._CONSTRUCTORS):
            self.wrap(cli._CONSTRUCTORS, kind, "constructions.build", _blocks)
        self.wrap(constructions, "join_layout", "constructions.join_layout")
        for owner in (constructions, catalog):
            self.wrap(owner, "c6_decompose_bipartite", "bipartite.fill", _blocks)
        for owner in (cli, constructions):
            self.wrap(owner, "catalog_get", "catalog.get")
        for owner in (constructions, catalog, bipartite):
            self.wrap(owner, "load_base", "catalog.load_base")
        for owner in (catalog, bases):
            self.wrap(owner, "load_data_design", "catalog.load_data")
        for owner in (cli, catalog, bases):
            self.wrap(owner, "verify_design", "verifier.verify", _verified)
        self.wrap(verifier, "incidence_table", "verifier.incidence")
        self.wrap(cli, "save_design", "designfile.save")
        self.wrap(cli, "load_design", "designfile.load")
        for owner in (cli, designfile):
            self.wrap(owner, "dumps_design", "designfile.dumps", lambda text: {"bytes": len(text)})
        for owner in (designfile, bases):
            self.wrap(owner, "loads_design", "designfile.loads")
        for owner in (cli, search):
            self.wrap(owner, "search_multidecomposition", "search.engine", _searched)
        self.wrap(search, "find_extremal", "search.extremal", _searched)
        self.wrap(search, "_leave_candidates", "search.leave_classes",
                  lambda classes: {"classes": len(classes)})
        self.wrap(search, "confirm_nonexistence", "search.certify")
        self.wrap(search, "_all_prisms", "search.certify.all_prisms")
        for scan in ("_scan_k9_prism_pairs", "_scan_k10_single_prism", "_scan_k10_prism_triples"):
            self.wrap(search, scan, "search.certify.scan")
        self.wrap(search, "_hexagon_completion", "search.certify.completion")


def self_times(spans) -> list[float]:
    """Self time of each span, indexed by span id."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def summarize(spans) -> dict:
    """Per span name: calls, total seconds, self seconds and summed attrs."""
    own = self_times(spans)
    rows: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s, self_s in zip(spans, own):
        row = rows[s[1]]
        row["calls"] += 1
        row["total_s"] += s[3] - s[2]
        row["self_s"] += self_s
        for key, value in (s[6] or {}).items():
            row[key] = row.get(key, 0) + value
    return dict(rows)


def table(rows: dict, wall_s: float) -> str:
    """The per-span and per-layer self-time table, heaviest first."""
    lines = [f"{'span':<28}{'calls':>8}{'total_s':>11}{'self_s':>11}{'self%':>8}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100 * row["self_s"] / wall_s if wall_s else 0.0
        lines.append(f"{name:<28}{row['calls']:>8}{row['total_s']:>11.4f}"
                     f"{row['self_s']:>11.4f}{share:>7.1f}%")
    layers: dict = defaultdict(float)
    for name, row in rows.items():
        layers[name.split(".")[0]] += row["self_s"]
    outside = wall_s - sum(layers.values())
    lines.append(f"{'layer':<28}{'':>8}{'':>11}{'self_s':>11}{'self%':>8}")
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        share = 100 * self_s / wall_s if wall_s else 0.0
        lines.append(f"{layer:<28}{'':>8}{'':>11}{self_s:>11.4f}{share:>7.1f}%")
    lines.append(f"{'(outside spans)':<28}{'':>8}{'':>11}{outside:>11.4f}"
                 f"{100 * outside / wall_s if wall_s else 0.0:>7.1f}%")
    return "\n".join(lines)
