"""Batch scan orchestration: (graph x model) grids, counterexample search,
deterministic summaries, and report emission.

A scan cell is independent and side-effect-free.  One runner call decides
its cells in order and owns their memos, two per model: the factor memo
of the inequality's right-hand side, and hom's component memo, so each
connected component is contracted once per model.  With k > 1 workers the
parent compiles the grid's plans and forks k workers, which inherit the
cells and the plans; worker i takes the cells i, i + k, i + 2k, ... and
sends its outcomes back through a pipe, and the parent, which decides no
cell, merges them back in cell order, so the summary is identical for any
worker count.  Where os.fork is missing a scan runs serially.  A cell comes
back as its verdict, exactness and slack; only a finding (a violated cell)
carries its full report dict.
"""

import csv
import io
import json
import math
import os
import random
import signal
from dataclasses import dataclass, field
from itertools import cycle, islice
from json.encoder import encode_basestring_ascii

from homlab.counting import compile_plan, compile_plans, key_bits, lists_to_constraints
from homlab.errors import HomlabError, InvalidArgument, check_work
from homlab.fileio import (
    frac_str,
    graph_to_dict,
    load_graph,
    load_model,
    model_to_dict,
    report_to_dict,
)
from homlab.graphs import (
    ENUMERATION_VERTEX_LIMIT,
    Graph,
    enumerate_graphs,
    graph_to_mask,
    parse_graph_name,
    triangle_count,
)
from homlab.inequalities import (
    check_bst,
    check_clique_max,
    check_reverse_sidorenko,
)
from homlab.models import Model, model_complete_looped, parse_model_name, random_model

SCAN_INEQUALITIES = ("reverse-sidorenko", "clique-max", "bst")


@dataclass
class ScanJob:
    ineq: str
    graphs: dict
    models: dict
    lists: dict | None = None
    jobs: int = 1

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class ScanSummary:
    job: dict
    instances_checked: int = 0
    histogram: dict = field(default_factory=lambda: {"holds": 0, "equality": 0, "violated": 0})
    rows: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    worst: dict | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))


def materialize_graphs(source: dict) -> list[tuple[str, Graph]]:
    kind = source["kind"]
    if kind == "named":
        return [(name, parse_graph_name(name)) for name in source["names"]]
    if kind == "files":
        return [(path, load_graph(path)) for path in source["paths"]]
    if kind == "enumerate":
        out = []
        lo = source.get("min_vertices", 1)
        hi = source["max_vertices"]
        dedup = source.get("dedup", True)
        # Labeled enumeration walks all 2^C(n,2) masks, so it stops at 7.
        cap = ENUMERATION_VERTEX_LIMIT if dedup else 7
        if hi > cap:
            raise InvalidArgument("scan enumeration bounds are limited to %d vertices" % cap)
        for n in range(lo, hi + 1):
            for g in enumerate_graphs(
                n,
                connected=source.get("connected", False),
                no_isolated=source.get("no_isolated", False),
                triangle_free=source.get("triangle_free", False),
                dedup_isomorphism=dedup,
            ):
                if source.get("require_triangle") and triangle_count(g) == 0:
                    continue
                if source.get("require_edge") and not g.edge_count:
                    continue
                out.append(("n%d-m%x" % (n, graph_to_mask(g)), g))
        return out
    raise InvalidArgument("unknown graph source kind %r" % kind)


def materialize_models(source: dict) -> list[tuple[str, Model]]:
    kind = source["kind"]
    if kind == "named":
        return [(name, parse_model_name(name)) for name in source["names"]]
    if kind == "files":
        return [(path, load_model(path)) for path in source["paths"]]
    if kind == "random":
        rand_kind, qs, seeds = source["rand_kind"], source["qs"], source["seeds"]
        # Seed i takes q = qs[i % len(qs)].  One model per q is built first,
        # so random_model refuses a bad q or kind before the source is sized;
        # a model counts q^2 edge weights, q vertex weights and one for itself.
        pairs = zip(cycle(qs), seeds)
        built = (("random:%s,%d,%d" % (rand_kind, q, seed), random_model(q, seed, rand_kind)) for q, seed in pairs)
        out = list(islice(built, len(qs)))
        rounds, rest = divmod(len(seeds), len(qs))
        weights = rounds * sum(q * q + q + 1 for q in qs) + sum(q * q + q + 1 for q in qs[:rest])
        check_work("random-models", weights, "%d models", len(seeds))
        return out + list(built)
    if kind == "complete-looped":
        count_models(source)  # refuses the family by its weights
        qls = [(q, ell) for q in range(1, max(source["max_q"], 0) + 1) for ell in range(q + 1)]
        return [("Kq-looped:%d,%d" % ql, model_complete_looped(*ql)) for ql in qls]
    if kind == "union":
        return [pair for part in source["parts"] for pair in materialize_models(part)]
    raise InvalidArgument("unknown model source kind %r" % kind)


def count_models(source: dict) -> int:
    """The number of models `materialize_models` makes from source, counted
    without building any.  A complete-looped family is refused here when
    its weights, the sum of (q + 1) * q^2 over q <= t, exceed the work
    limit; a random one is sized by `materialize_models`, which first
    builds one model per q to check q and kind."""
    kind = source["kind"]
    if kind == "named":
        return len(source["names"])
    if kind == "files":
        return len(source["paths"])
    if kind == "random":
        return len(source["seeds"])
    if kind == "complete-looped":  # q + 1 models for each q <= t
        t = max(source["max_q"], 0)
        check_work("complete-looped", t * (t + 1) * (t + 2) * (3 * t + 1) // 12, "weights of the models up to q = %d", t)
        return t * (t + 3) // 2
    if kind == "union":
        return sum(map(count_models, source["parts"]))
    raise InvalidArgument("unknown model source kind %r" % kind)


def random_lists(seed: int, gid: str, n: int, q: int) -> list[frozenset[int]]:
    """Deterministic per-(seed, graph) random nonempty color lists."""
    rng = random.Random("lists:%d:%s:%d" % (seed, gid, q))
    lists = []
    for _ in range(n):
        allowed = {c for c in range(q) if rng.random() < 0.55}
        if not allowed:
            allowed = {rng.randrange(q)}
        lists.append(frozenset(allowed))
    return lists


def check_instance(ineq: str, graph: Graph, model: Model, constraints=None, memo=None, hom_memo=None):
    """Decide one cell.  `memo` is a factor memo for this model (see
    check_reverse_sidorenko and check_clique_max), which bst has no use
    for; `hom_memo` is hom's component memo for this model, a separate
    dict that every inequality uses.  bst takes no vertex constraints."""
    if ineq == "reverse-sidorenko":
        return check_reverse_sidorenko(graph, model, constraints, memo, hom_memo)
    if ineq == "clique-max":
        return check_clique_max(graph, model, constraints, memo, hom_memo)
    if ineq == "bst":
        if constraints is not None:
            raise InvalidArgument("bst takes no vertex constraints")
        return check_bst(graph, model, hom_memo)
    raise InvalidArgument("unknown inequality %r (scan supports %s)" % (ineq, SCAN_INEQUALITIES))


def _cells_for_job(job: ScanJob):
    """The grid's cells, graph-major.  The grid is sized, graphs times
    models times list seeds, before any model or cell is built."""
    graphs = materialize_graphs(job.graphs)
    list_seeds = [None] if job.lists is None else job.lists["seeds"]
    sizes = len(graphs), count_models(job.models), len(list_seeds)
    check_work("scan-grid", math.prod(sizes), "cells of %d graphs x %d models x %d list seeds", *sizes)
    models = materialize_models(job.models)
    cells = []
    for gid, g in graphs:
        for model_index, (mid, m) in enumerate(models):
            for ls in list_seeds:
                constraints = None if ls is None else lists_to_constraints(random_lists(ls, gid, g.n, m.q), m.q)
                instance_id = "%s|%s" % (gid, mid) + ("|lists:%d" % ls if ls is not None else "")
                cells.append((instance_id, g, model_index, m, constraints))
    return cells


def _compile_for_workers(job: ScanJob, cells) -> None:
    """Compile the plans the cells contract, with their kernels, so forked
    workers inherit them instead of each compiling them; a process that
    runs many scans keeps them warm.  These are the component plans of
    unconstrained hom (`compile_plans`) and, when the job has lists, each
    graph's whole plan, which constrained hom contracts on keys as wide as
    its highest listed color needs: every width up to key_bits(q)."""
    adjacencies, qs = {c[1].adjacency for c in cells}, {c[3].q for c in cells}
    compile_plans(adjacencies, qs, job.ineq == "bst")
    if job.lists is not None and len(adjacencies) <= compile_plan.cache_parameters()["maxsize"]:
        for adjacency in adjacencies:
            plan = compile_plan(adjacency)
            for bits in range(1, key_bits(max(qs)) + 1):
                plan.kernels(bits)


def _run_cells(ineq: str, cells) -> list:
    """Each cell's outcome, in order: (verdict, exact, slack_log10, report),
    report being the report dict of a violated cell and None otherwise, or
    ("error", message).  The memos, a factor memo and a component memo per
    model index, live for this call."""
    memos = {}
    results = []
    for _, g, model_index, m, constraints in cells:
        try:
            r = check_instance(ineq, g, m, constraints, *memos.setdefault(model_index, ({}, {})))
            results.append((r.verdict, r.exact, r.slack_log10, report_to_dict(r) if r.verdict == "violated" else None))
        except HomlabError as exc:
            results.append(("error", "%s: %s" % (type(exc).__name__, exc)))
    return results


def _fork_cells(ineq: str, cells, k: int) -> list:
    """Each cell's `_run_cells` outcome, in order, from k forked workers.
    Worker i inherits the cells and runs cells[i::k]; it sends its pickled
    outcomes, or the exception its slice raised, through its own pipe.
    The parent decides no cell: it reads each pipe to EOF before it reaps
    that worker, so no result is too large for the pipe, and re-raises a
    worker's exception.  Every worker is reaped, and one still running
    when the parent unwinds is killed first."""
    import pickle

    workers = []  # (pid, read end of its pipe) of each worker not yet reaped
    try:
        for i in range(k):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # The worker leaves by os._exit alone, so it never returns
                # into the parent's stack or runs the parent's exit hooks.
                try:
                    os.close(r)
                    try:
                        out, status = _run_cells(ineq, cells[i::k]), 0
                    except BaseException as exc:
                        out, status = exc, 1
                    data = pickle.dumps(out)
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                    os._exit(status)
                finally:
                    os._exit(1)
            os.close(w)
            workers.append((pid, open(r, "rb")))
        parts = []
        for i in range(1, k + 1):
            pid, pipe = workers[0]
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            pipe.close()
            if code == 0:
                parts.append(pickle.loads(data))
            elif code == 1 and data:
                raise pickle.loads(data)
            else:
                how = "was killed by signal %d" % -code if code < 0 else "exited with status %d" % code
                raise HomlabError("scan worker %d of %d %s before sending its results" % (i, k, how))
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [parts[i % k][i // k] for i in range(len(cells))]


def run_scan(job: ScanJob, budget: int | None = None) -> ScanSummary:
    """Decide the grid's cells, or its first `budget` cells, on up to
    job.jobs workers and summarize them in order, the same for any worker
    count.  Every cell ends in a verdict row or an error entry."""
    cells = _cells_for_job(job)[:budget]
    k = min(job.jobs, len(cells), os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if k > 1:
        _compile_for_workers(job, cells)
        # Cells are graph-major, so when k divides the model count every
        # model's cells go to one worker and each factor is computed once;
        # each slice is also a fair sample of cheap and costly graphs.
        results = _fork_cells(job.ineq, cells, k)
    else:
        results = _run_cells(job.ineq, cells)

    summary = ScanSummary(job=job.to_dict())
    for (instance_id, g, _, m, constraints), result in zip(cells, results):
        if result[0] == "error":
            # Per-instance failures are collected, not fatal, and stay
            # outside the verdict histogram (which always totals
            # instances_checked).
            summary.errors.append({"instance_id": instance_id, "error": result[1]})
            continue
        summary.instances_checked += 1
        verdict, exact, slack, report = result
        summary.histogram[verdict] += 1
        gid, _, rest = instance_id.partition("|")
        summary.rows.append(dict(zip(CSV_COLUMNS, (instance_id, gid, rest, verdict, exact, slack))))
        if isinstance(slack, (int, float)) and not math.isnan(slack):
            if summary.worst is None or slack < summary.worst["slack_log10"]:
                summary.worst = {"instance_id": instance_id, "slack_log10": slack}
        if verdict == "violated":
            summary.findings.append({"instance_id": instance_id, "report": report, "replay": make_replay(job.ineq, g, m, constraints)})
    return summary


def make_replay(ineq: str, g: Graph, m: Model, constraints=None) -> dict:
    return {
        "ineq": ineq,
        "graph": graph_to_dict(g),
        "model": model_to_dict(m),
        "constraints": None if constraints is None else [[frac_str(x) for x in vec] for vec in constraints],
    }


CSV_COLUMNS = ("instance_id", "graph", "model", "verdict", "exact", "slack_log10")


# One verdict row as json.dumps(..., indent=2, sort_keys=True) writes it
# inside the top-level "rows" list.
_JSON_ROW = (
    '    {\n      "exact": %s,\n      "graph": %s,\n      "instance_id": %s,\n'
    '      "model": %s,\n      "slack_log10": %s,\n      "verdict": %s\n    }'
)


def _json_row(r: dict) -> str:
    x, enc = r["slack_log10"], encode_basestring_ascii
    # A float as json writes it with allow_nan=True: its repr when finite.
    slack = float.__repr__(x) if x - x == 0 else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    return _JSON_ROW % ("true" if r["exact"] else "false", enc(r["graph"]), enc(r["instance_id"]), enc(r["model"]), slack, enc(r["verdict"]))


def emit_report(summary: ScanSummary, fmt: str = "json") -> str:
    """Bit-reproducible report text for a summary.  The json text is byte
    for byte json.dumps(summary.to_dict(), indent=2, sort_keys=True,
    allow_nan=True, default=list) + "\\n", so the job's seed ranges are
    written as lists; its rows, flat dicts of the CSV_COLUMNS scalars,
    come from one template filled by the json module's scalar encoders."""
    if fmt == "json":
        parts = []
        for key, value in sorted(summary.to_dict().items()):
            if key == "rows" and value:
                text = "[\n%s\n  ]" % ",\n".join(map(_json_row, value))
            else:
                # A json string holds no raw newline, so every newline is indentation.
                text = json.dumps(value, indent=2, sort_keys=True, allow_nan=True, default=list).replace("\n", "\n  ")
            parts.append("  %s: %s" % (encode_basestring_ascii(key), text))
        return "{\n%s\n}\n" % ",\n".join(parts)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in summary.rows:
            writer.writerow([row[c] for c in CSV_COLUMNS])
        return buf.getvalue()
    if fmt == "text":
        lines = ["inequality: %s" % summary.job["ineq"]]
        lines.append("instances checked: %d" % summary.instances_checked)
        lines.append("verdicts: holds=%(holds)d equality=%(equality)d violated=%(violated)d" % summary.histogram)
        if summary.worst:
            lines.append(
                "worst slack: %s (log10 = %.6g)"
                % (summary.worst["instance_id"], summary.worst["slack_log10"])
            )
        for f in summary.findings:
            lines.append("FINDING %s" % f["instance_id"])
        for e in summary.errors:
            lines.append("ERROR %s: %s" % (e["instance_id"], e["error"]))
        return "\n".join(lines) + "\n"
    raise InvalidArgument("unknown report format %r" % fmt)

