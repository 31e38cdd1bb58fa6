"""Command line surface.

Subcommands: construct, verify, classify, search, catalog.  JSON output is
the canonical interchange format and round-trips through the design-file
codec; text output is for human eyes and deliberately not re-parseable.

Exit codes: 0 success, 1 verification failure or nonexistence, 2 bad usage
or unparseable input, 3 search stopped by its node budget.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .core import Complete, CompleteBipartite, Design
from .feasibility import UNBUDGETED_VERTEX_LIMIT, FeasibilityReport, UnsupportedOrderError, classify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# hosts beyond the small-host limit need some budget; this default keeps
# interactive use from hanging while staying generous for catalog-scale runs
DEFAULT_BUDGET = 200_000


def _lazy(module: str, name: str):
    """module.name, imported on the first call, so that each command loads
    only the modules it runs.  __import__ imports as the import statement
    does, so -X importtime lists the module, as it does not for
    importlib.import_module."""

    def call(*args):
        return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)(*args)

    return call


_CONSTRUCTORS = {
    "decomposition": _lazy("constructions", "multidecompose"),
    "packing": _lazy("constructions", "max_multipack"),
    "covering": _lazy("constructions", "min_multicover"),
}
catalog_get = _lazy("bases", "get")
catalog_keys = _lazy("bases", "keys")
verify_design = _lazy("verifier", "verify_design")
load_design = _lazy("designfile", "load_design")
save_design = _lazy("designfile", "save_design")
search_multidecomposition = _lazy("search", "search_multidecomposition")


def dumps_design(design: Design) -> str:
    """designfile.dumps_design, imported on the first call; it joins the
    chunks itself, since perfbench/spans.py wraps designfile.dumps_design
    as well as this name, and a traced call should make one span."""
    from .designfile import _chunks

    return "".join(_chunks(design))


def _positive_int(text: str) -> int:
    """argparse type: a positive integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _emit_design(design: Design, fmt: str, output: str | None) -> None:
    from .designfile import render_text

    if output is None:
        sys.stdout.write(dumps_design(design) if fmt == "json" else render_text(design))
    elif fmt == "json":
        save_design(design, output)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(render_text(design))


def _feasibility_obj(report: FeasibilityReport) -> dict:
    return {
        "n": report.n,
        "decomposition_exists": report.decomposition_exists,
        "min_leave": report.min_leave,
        "min_padding": report.min_padding,
        "block_solutions": sorted(map(list, report.block_solutions)),
        "degree_solutions": sorted(map(list, report.degree_solutions)),
        "annotation": report.annotation,
    }


def _feasibility_text(report: FeasibilityReport) -> str:
    lines = [
        f"order {report.n}",
        f"decomposition exists: {'yes' if report.decomposition_exists else 'no'}",
        f"minimum leave size: {report.min_leave}",
        f"minimum padding size: {report.min_padding}",
        "block count solutions (hexagons, prisms): "
        + (", ".join(str(s) for s in sorted(report.block_solutions)) or "none"),
        f"degree solutions (p, q) at degree {report.n - 1}: "
        + (", ".join(str(s) for s in sorted(report.degree_solutions)) or "none"),
    ]
    if report.annotation:
        lines.append(f"note: {report.annotation}")
    return "\n".join(lines) + "\n"


def _print_feasibility(report: FeasibilityReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_feasibility_obj(report), indent=2))
    else:
        sys.stdout.write(_feasibility_text(report))


def _verification_obj(report) -> dict:
    return {
        "valid": report.valid,
        "failures": [
            {
                "code": f.code,
                "message": f.message,
                "blocks": list(f.blocks),
                "edges": [list(e) for e in f.edges],
            }
            for f in report.failures
        ],
        "hexagon_count": report.hexagon_count,
        "prism_count": report.prism_count,
        "leave": [list(e) for e in sorted(report.leave)],
        "padding": [list(e) for e in report.padding],
        "incidence": {str(v): list(pq) for v, pq in sorted(report.incidence.items())},
    }


def _verification_text(report) -> str:
    lines = [
        f"valid: {'yes' if report.valid else 'no'}",
        f"hexagons: {report.hexagon_count}",
        f"prisms: {report.prism_count}",
        "leave: " + (", ".join(str(e) for e in sorted(report.leave)) or "none"),
        "padding: " + (", ".join(str(e) for e in report.padding) or "none"),
    ]
    for f in report.failures:
        lines.append(f"failure [{f.code}]: {f.message}")
    return "\n".join(lines) + "\n"


def cmd_construct(args) -> int:
    from .constructions import InfeasibleOrderError

    try:
        design = _CONSTRUCTORS[args.kind](args.n)
    except InfeasibleOrderError as exc:
        print(exc, file=sys.stderr)
        _print_feasibility(exc.report, args.format)
        return EXIT_FAIL
    except UnsupportedOrderError as exc:
        return _fail(str(exc), EXIT_USAGE)
    report = verify_design(design)
    if not report.valid:
        codes = ", ".join(f.code for f in report.failures)
        return _fail(f"constructed design failed verification: {codes}", EXIT_FAIL)
    try:
        _emit_design(design, args.format, args.output)
    except OSError as exc:
        return _fail(f"cannot write {args.output}: {exc}", EXIT_USAGE)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .designfile import DesignFileError

    try:
        design = load_design(args.input)
    except OSError as exc:
        return _fail(f"cannot read {args.input}: {exc}", EXIT_USAGE)
    except DesignFileError as exc:
        return _fail(f"cannot parse {args.input}: {exc}", EXIT_USAGE)
    report = verify_design(design)
    if args.format == "json":
        print(json.dumps(_verification_obj(report), indent=2))
    else:
        sys.stdout.write(_verification_text(report))
    return EXIT_OK if report.valid else EXIT_FAIL


def cmd_classify(args) -> int:
    try:
        report = classify(args.n)
    except UnsupportedOrderError as exc:
        return _fail(str(exc), EXIT_USAGE)
    _print_feasibility(report, args.format)
    return EXIT_OK


def _parse_host(args):
    if args.host is None:
        return Complete(args.n)
    tag, _, rest = args.host.partition(":")
    texts = rest.partition("x")[::2] if tag == "bipartite" else (rest,)
    try:
        sizes = [int(text) for text in texts]
    except ValueError:
        raise ValueError(f"bad host {args.host!r}; use complete:N or bipartite:MxN") from None
    if tag == "complete":
        return Complete(*sizes)
    if tag == "bipartite":
        m, n = sizes
        if m < 1 or n < 1:
            raise ValueError("bipartite sides must be positive")
        return CompleteBipartite(frozenset(range(m)), frozenset(range(m, m + n)))
    raise ValueError(f"unknown host {args.host!r}; use complete:N or bipartite:MxN")


def _outcome_obj(outcome) -> dict:
    design = outcome.design
    if design is not None:
        from .designfile import design_to_obj

        design = design_to_obj(design)
    return {
        "status": outcome.status.value,
        "nodes": outcome.stats.nodes,
        "placements": outcome.stats.placements,
        "max_depth": outcome.stats.max_depth,
        "design": design,
    }


def cmd_search(args) -> int:
    from .search import SearchConfig, Status, needs_budget

    try:
        host = _parse_host(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    both = args.blocks == "both"
    budget = args.budget or (DEFAULT_BUDGET if needs_budget(host) else None)
    config = SearchConfig(
        hexagons=args.blocks in ("both", "hexagon"),
        prisms=args.blocks in ("both", "prism"),
        min_hexagons=1 if both else 0,
        min_prisms=1 if both else 0,
        node_budget=budget,
        symmetry_breaking=True,
    )
    outcome = search_multidecomposition(host, config)
    if args.format == "json":
        print(json.dumps(_outcome_obj(outcome), indent=2))
    else:
        print(f"status: {outcome.status.value}")
        print(
            f"nodes: {outcome.stats.nodes}  placements: {outcome.stats.placements}"
            f"  max depth: {outcome.stats.max_depth}"
        )
        if outcome.design is not None:
            from .designfile import render_text

            sys.stdout.write(render_text(outcome.design))
    if outcome.status is Status.FOUND:
        if args.output is not None:
            try:
                save_design(outcome.design, args.output)
            except OSError as exc:
                return _fail(f"cannot write {args.output}: {exc}", EXIT_USAGE)
        return EXIT_OK
    if outcome.status is Status.BUDGET:
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def cmd_catalog(args) -> int:
    if args.key is None:
        print("\n".join(catalog_keys()))
        return EXIT_OK
    try:
        design = catalog_get(args.key)
    except KeyError:
        known = ", ".join(catalog_keys())
        return _fail(f"unknown catalog key {args.key!r}; known keys: {known}", EXIT_USAGE)
    try:
        _emit_design(design, args.format, args.output)
    except OSError as exc:
        return _fail(f"cannot write {args.output}: {exc}", EXIT_USAGE)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexprism",
        description="Construct, verify, and search hexagon/prism designs on complete graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=["json", "text"],
            default="json",
            help="json is canonical and machine-readable; text is for reading",
        )

    p = sub.add_parser("construct", help="build a decomposition, packing, or covering of K_n")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument(
        "--kind", choices=sorted(_CONSTRUCTORS), required=True, help="what to construct"
    )
    add_format(p)
    p.add_argument("--output", help="write the design file here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a design file independently of how it was made")
    p.add_argument("input", help="path to a JSON design file")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="report feasibility bounds for an order")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("search", help="exhaustive backtracking search for a decomposition")
    hosts = p.add_mutually_exclusive_group(required=True)
    hosts.add_argument("--n", type=int, help="shorthand for --host complete:N")
    hosts.add_argument("--host", help="complete:N or bipartite:MxN")
    p.add_argument(
        "--blocks",
        choices=["both", "hexagon", "prism"],
        default="both",
        help="allowed block shapes; 'both' also requires one of each in the result",
    )
    p.add_argument(
        "--budget",
        type=_positive_int,
        help=(
            f"node budget; hosts over {UNBUDGETED_VERTEX_LIMIT} vertices"
            f" default to {DEFAULT_BUDGET}"
        ),
    )
    add_format(p)
    p.add_argument("--output", help="write the found design file here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("catalog", help="list bundled designs, or export one by key")
    p.add_argument("key", nargs="?", help="e.g. decomposition:13, packing:9, bipartite:4x6")
    add_format(p)
    p.add_argument("--output", help="write the design file here instead of stdout")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # commands build acyclic tuples and JSON trees, which the cyclic collector
    # would only rescan; in-process callers get their collector state back
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
