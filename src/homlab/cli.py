"""Command-line front end.

Verbs: count, verify, scan, search, lemma, toy-c6.  Progress goes to
stderr; reports go to stdout or --out.  Exit codes: 0 everything
holds/equality, 2 findings present, 1 operational error.
"""

import argparse
import json
import sys

from homlab.counting import CONTRACTION_WORK_LIMIT, hom
from homlab.errors import HomlabError, InvalidArgument, LimitExceeded
from homlab.fileio import frac_str, graph_from_any, load_replay, model_from_any, parse_constraints, read_text, report_to_dict
from homlab.lemmas import LEMMA_IDS, check_local_lemma, lemma_instance_to_dict, load_lemma_instance, random_lemma_instance
from homlab.scan import (
    SCAN_INEQUALITIES,
    ScanJob,
    check_instance,
    emit_report,
    run_scan,
)
from homlab.toy import reproduce_toy_c6

EXIT_OK = 0
EXIT_OPERATIONAL_ERROR = 1
EXIT_FINDINGS = 2


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_text(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    return "%s  %s  verdict=%s exact=%s slack_log10=%.6g\n" % (
        report.ineq,
        report.instance,
        report.verdict,
        report.exact,
        report.slack_log10,
    )


def _parse_seed_range(text: str) -> range:
    """The seeds of 'lo:hi' or of one seed, sized from the two ends; the
    range stays lazy until the model source that uses it is sized."""
    try:
        lo, hi = map(int, text.split(":")) if ":" in text else (int(text), int(text) + 1)
    except ValueError:
        raise InvalidArgument("--seeds must be 'lo:hi' or one seed, not %r" % text) from None
    if hi - lo > CONTRACTION_WORK_LIMIT:
        raise LimitExceeded("--seeds range %r has %d seeds, over %d" % (text, hi - lo, CONTRACTION_WORK_LIMIT))
    if hi <= lo:
        raise InvalidArgument("--seeds range %r is empty" % text)
    return range(lo, hi)


def _at_least(value: int | None, least: int, flag: str) -> int | None:
    if value is not None and value < least:
        raise InvalidArgument("%s must be >= %d, not %d" % (flag, least, value))
    return value


def _graph_source_from_args(args) -> dict:
    if args.graphs:
        return {"kind": "named", "names": args.graphs.split(";")}
    if args.graph_files:
        return {"kind": "files", "paths": args.graph_files}
    if args.max_vertices is None:
        raise HomlabError("need --graphs, --graph-files, or --max-vertices")
    return {
        "kind": "enumerate",
        "min_vertices": args.min_vertices,
        "max_vertices": args.max_vertices,
        "connected": args.connected,
        "no_isolated": args.no_isolated,
        "triangle_free": args.triangle_free,
        "require_triangle": args.require_triangle,
        "require_edge": args.require_edge,
        "dedup": True,
    }


def _model_source_from_args(args) -> dict:
    parts = []
    if args.models:
        parts.append({"kind": "named", "names": args.models.split(",")})
    if args.model_files:
        parts.append({"kind": "files", "paths": args.model_files})
    if args.complete_looped is not None:
        parts.append({"kind": "complete-looped", "max_q": _at_least(args.complete_looped, 1, "--complete-looped")})
    if args.random_models:
        rand_kind, *pieces = args.random_models.split(",")
        if not pieces or not all(x.isdigit() for x in pieces):
            raise InvalidArgument("--random-models must be KIND,Q[,Q...], not %r" % args.random_models)
        qs = [int(x) for x in pieces]
        seeds = _parse_seed_range(args.seeds or "0:50")
        parts.append({"kind": "random", "rand_kind": rand_kind, "qs": qs, "seeds": seeds})
    if not parts:
        raise HomlabError("need --models, --model-files, --complete-looped, or --random-models")
    if len(parts) == 1:
        return parts[0]
    return {"kind": "union", "parts": parts}


def _add_graph_flags(p: argparse.ArgumentParser):
    p.add_argument("--graphs", help="semicolon-separated named graphs, e.g. 'C6;K3,3'")
    p.add_argument("--graph-files", nargs="*", help="graph files (edge list, graph6, or JSON)")
    p.add_argument("--max-vertices", type=int, help="enumerate all graphs up to this size")
    p.add_argument("--min-vertices", type=int, default=1)
    p.add_argument("--triangle-free", action="store_true")
    p.add_argument("--no-isolated", action="store_true")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--require-triangle", action="store_true", help="keep only graphs with a triangle")
    p.add_argument("--require-edge", action="store_true", help="drop edgeless graphs")


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--models", help="comma-separated named models, e.g. 'Kq:3,hardcore,wr'")
    p.add_argument("--model-files", nargs="*")
    p.add_argument("--complete-looped", type=int, metavar="MAXQ", help="all partially looped complete graphs up to MAXQ colors")
    p.add_argument("--random-models", metavar="KIND,Q[,Q...]", help="seeded random models, e.g. 'psd,3' or 'general,2,3,4'")
    p.add_argument("--seeds", help="seed range 'lo:hi' or single seed for --random-models")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homlab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("count", help="exact weighted homomorphism count")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--lists", help="vertex constraint file")

    p = sub.add_parser("verify", help="verify one inequality instance")
    p.add_argument("--ineq", choices=SCAN_INEQUALITIES)
    p.add_argument("--graph")
    p.add_argument("--model")
    p.add_argument("--lists")
    p.add_argument("--replay", help="finding replay file (overrides the other flags)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")

    p = sub.add_parser("scan", help="batch verification over a graph x model grid")
    p.add_argument("--ineq", required=True, choices=SCAN_INEQUALITIES)
    _add_graph_flags(p)
    _add_model_flags(p)
    p.add_argument("--list-seeds", type=int, help="number of seeded random list assignments per cell")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--out")

    p = sub.add_parser("search", help="counterexample search within a budget")
    p.add_argument("--ineq", required=True, choices=SCAN_INEQUALITIES)
    _add_graph_flags(p)
    _add_model_flags(p)
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--out")

    p = sub.add_parser("lemma", help="check a local lemma instance")
    p.add_argument("--id", choices=LEMMA_IDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--file", help="lemma instance JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")

    p = sub.add_parser("toy-c6", help="reproduce the worked six-cycle list-coloring bound")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")

    return parser


def _cmd_count(args) -> int:
    g = graph_from_any(args.graph)
    m = model_from_any(args.model)
    constraints = parse_constraints(read_text(args.lists), m.q, g.n) if args.lists else None
    value = hom(g, m, constraints)
    print(frac_str(value))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.replay:
        report = check_instance(*load_replay(args.replay))
    else:
        if not (args.ineq and args.graph and args.model):
            raise HomlabError("verify needs --replay or all of --ineq/--graph/--model")
        g = graph_from_any(args.graph)
        m = model_from_any(args.model)
        constraints = parse_constraints(read_text(args.lists), m.q, g.n) if args.lists else None
        report = check_instance(args.ineq, g, m, constraints)
    _emit(_report_text(report, args.format), args.out)
    return EXIT_FINDINGS if report.verdict == "violated" else EXIT_OK


def _cmd_scan(args) -> int:
    list_seeds = _at_least(args.list_seeds, 0, "--list-seeds")
    if list_seeds and list_seeds > CONTRACTION_WORK_LIMIT:
        raise LimitExceeded("--list-seeds %d is over %d" % (list_seeds, CONTRACTION_WORK_LIMIT))
    job = ScanJob(
        ineq=args.ineq,
        graphs=_graph_source_from_args(args),
        models=_model_source_from_args(args),
        lists={"kind": "random", "seeds": range(list_seeds)} if list_seeds else None,
        jobs=_at_least(args.jobs, 1, "--jobs"),
    )
    print("scanning %s ..." % args.ineq, file=sys.stderr)
    summary = run_scan(job)
    _emit(emit_report(summary, args.format), args.out)
    return _scan_exit(summary)


def _cmd_search(args) -> int:
    job = ScanJob(args.ineq, _graph_source_from_args(args), _model_source_from_args(args))
    summary = run_scan(job, _at_least(args.budget, 0, "--budget"))
    _emit(json.dumps(summary.findings, indent=2, sort_keys=True) + "\n", args.out)
    # Search prints findings only, so its errored cells go to stderr.
    for e in summary.errors:
        print("error: %s: %s" % (e["instance_id"], e["error"]), file=sys.stderr)
    return _scan_exit(summary)


def _scan_exit(summary) -> int:
    """Errors and no findings: exit 1; findings: exit 2; else 0."""
    if summary.errors and not summary.findings:
        return EXIT_OPERATIONAL_ERROR
    return EXIT_FINDINGS if summary.findings else EXIT_OK


def _cmd_lemma(args) -> int:
    if args.file:
        inst = load_lemma_instance(args.file)
    else:
        if not args.id:
            raise HomlabError("lemma needs --file or --id")
        inst = random_lemma_instance(args.id, args.seed)
        print(json.dumps(lemma_instance_to_dict(inst), sort_keys=True), file=sys.stderr)
    report = check_local_lemma(inst)
    _emit(_report_text(report, args.format), args.out)
    return EXIT_FINDINGS if report.verdict == "violated" else EXIT_OK


def _cmd_toy(args) -> int:
    reports = reproduce_toy_c6()
    if args.format == "json":
        text = json.dumps([report_to_dict(r) for r in reports], indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(_report_text(r, "text") for r in reports)
    _emit(text, args.out)
    bad = [r for r in reports if r.verdict == "violated"]
    return EXIT_FINDINGS if bad else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "verify": _cmd_verify,
        "scan": _cmd_scan,
        "search": _cmd_search,
        "lemma": _cmd_lemma,
        "toy-c6": _cmd_toy,
    }
    try:
        return handlers[args.verb](args)
    except HomlabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_OPERATIONAL_ERROR
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return EXIT_OPERATIONAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
