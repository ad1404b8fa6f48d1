"""Command-line front end.

Verbs: count, verify, scan, search, lemma, toy-c6.  Progress goes to
stderr; reports go to stdout or --out.  Exit codes: 0 everything
holds/equality, 2 findings present, 1 operational error.
"""

import argparse
import json
import sys

from homlab.counting import hom
from homlab.errors import HomlabError
from homlab.fileio import (
    frac_str,
    graph_from_any,
    lemma_instance_from_dict,
    lemma_instance_to_dict,
    report_to_dict,
)
from homlab.lemmas import LEMMA_IDS, check_local_lemma, random_lemma_instance
from homlab.models import parse_model_name
from homlab.scan import (
    ScanJob,
    emit_report,
    replay_finding,
    run_scan,
    search_counterexample,
)
from homlab.toy import reproduce_toy_c6

EXIT_OK = 0
EXIT_OPERATIONAL_ERROR = 1
EXIT_FINDINGS = 2


def _load_model_arg(spec: str):
    import os

    if os.path.exists(spec):
        from homlab.fileio import load_model

        return load_model(spec)
    return parse_model_name(spec)


def _load_lists(path: str, q: int):
    from homlab.fileio import parse_constraints

    with open(path, "r", encoding="utf-8") as fh:
        return parse_constraints(fh.read(), q)


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


def _parse_seed_range(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":")
        return list(range(int(lo), int(hi)))
    return [int(text)]


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
    if args.complete_looped:
        parts.append({"kind": "complete-looped", "max_q": args.complete_looped})
    if args.random_models:
        pieces = args.random_models.split(",")
        rand_kind = pieces[0]
        qs = [int(x) for x in pieces[1:]]
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
    p.add_argument("--ineq", choices=("reverse-sidorenko", "clique-max", "bst"))
    p.add_argument("--graph")
    p.add_argument("--model")
    p.add_argument("--lists")
    p.add_argument("--replay", help="finding replay file (overrides the other flags)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")

    p = sub.add_parser("scan", help="batch verification over a graph x model grid")
    p.add_argument("--ineq", required=True, choices=("reverse-sidorenko", "clique-max", "bst"))
    _add_graph_flags(p)
    _add_model_flags(p)
    p.add_argument("--list-seeds", type=int, help="number of seeded random list assignments per cell")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--out")

    p = sub.add_parser("search", help="counterexample search within a budget")
    p.add_argument("--ineq", required=True, choices=("reverse-sidorenko", "clique-max", "bst"))
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
    m = _load_model_arg(args.model)
    constraints = _load_lists(args.lists, m.q) if args.lists else None
    value = hom(g, m, constraints)
    print(frac_str(value))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from homlab.scan import check_instance

    if args.replay:
        with open(args.replay, "r", encoding="utf-8") as fh:
            report = replay_finding(json.load(fh))
    else:
        if not (args.ineq and args.graph and args.model):
            raise HomlabError("verify needs --replay or all of --ineq/--graph/--model")
        g = graph_from_any(args.graph)
        m = _load_model_arg(args.model)
        constraints = _load_lists(args.lists, m.q) if args.lists else None
        report = check_instance(args.ineq, g, m, constraints)
    _emit(_report_text(report, args.format), args.out)
    return EXIT_FINDINGS if report.verdict == "violated" else EXIT_OK


def _cmd_scan(args) -> int:
    job = ScanJob(
        ineq=args.ineq,
        graphs=_graph_source_from_args(args),
        models=_model_source_from_args(args),
        lists={"kind": "random", "seeds": list(range(args.list_seeds))} if args.list_seeds else None,
        jobs=args.jobs,
    )
    print("scanning %s ..." % args.ineq, file=sys.stderr)
    summary = run_scan(job)
    _emit(emit_report(summary, args.format), args.out)
    if summary.errors and not summary.findings:
        return EXIT_OPERATIONAL_ERROR
    return EXIT_FINDINGS if summary.findings else EXIT_OK


def _cmd_search(args) -> int:
    findings = search_counterexample(
        args.ineq,
        _graph_source_from_args(args),
        _model_source_from_args(args),
        args.budget,
    )
    _emit(json.dumps(findings, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_FINDINGS if findings else EXIT_OK


def _cmd_lemma(args) -> int:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            inst = lemma_instance_from_dict(json.load(fh))
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
