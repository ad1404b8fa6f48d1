"""Batch scan orchestration: (graph x model) grids, counterexample search,
deterministic summaries, and report emission.

A scan cell is independent and side-effect-free; with several workers the
cells are distributed to a process pool and aggregated in the original
deterministic order, so the summary is identical for any worker count.
"""

import csv
import io
import json
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from homlab.errors import HomlabError, InvalidArgument, UndecidedAtPrecisionCap
from homlab.fileio import (
    graph_from_dict,
    graph_to_dict,
    load_graph,
    load_model,
    model_from_dict,
    model_to_dict,
    report_to_dict,
)
from homlab.graphs import (
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
from homlab.models import Model, parse_model_name, random_model

SCAN_INEQUALITIES = ("reverse-sidorenko", "clique-max", "bst")

# Reverse-Sidorenko factor memos of the run_scan in progress, one dict per
# model index of the job.  run_scan empties it on entry and on exit, so no
# factor outlives a scan; pool workers are started inside run_scan and each
# fills its own copy.
_FACTOR_MEMO: dict[int, dict] = {}


@dataclass
class ScanJob:
    ineq: str
    graphs: dict
    models: dict
    lists: dict | None = None
    jobs: int = 1

    def to_dict(self) -> dict:
        return {
            "ineq": self.ineq,
            "graphs": self.graphs,
            "models": self.models,
            "lists": self.lists,
            "jobs": self.jobs,
        }


@dataclass
class ScanSummary:
    job: dict
    instances_checked: int = 0
    histogram: dict = field(default_factory=lambda: {"holds": 0, "equality": 0, "violated": 0, "undecided": 0})
    rows: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    worst: dict | None = None

    def to_dict(self) -> dict:
        return {
            "job": self.job,
            "instances_checked": self.instances_checked,
            "histogram": self.histogram,
            "rows": self.rows,
            "findings": self.findings,
            "errors": self.errors,
            "worst": self.worst,
        }

    @staticmethod
    def from_dict(d: dict) -> "ScanSummary":
        return ScanSummary(
            job=d["job"],
            instances_checked=d["instances_checked"],
            histogram=d["histogram"],
            rows=d["rows"],
            findings=d["findings"],
            errors=d["errors"],
            worst=d["worst"],
        )


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
        if hi > 7:
            raise InvalidArgument("scan enumeration bounds are limited to 7 vertices")
        for n in range(lo, hi + 1):
            for g in enumerate_graphs(
                n,
                connected=source.get("connected", False),
                no_isolated=source.get("no_isolated", False),
                triangle_free=source.get("triangle_free", False),
                dedup_isomorphism=source.get("dedup", True),
            ):
                if source.get("require_triangle") and triangle_count(g) == 0:
                    continue
                if source.get("require_edge") and not g.edges:
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
        rand_kind = source["rand_kind"]
        qs = source.get("qs") or [source["q"]]
        out = []
        for i, seed in enumerate(source["seeds"]):
            q = qs[i % len(qs)]
            out.append(
                (
                    "random:%s,%d,%d" % (rand_kind, q, seed),
                    random_model(q, seed, rand_kind),
                )
            )
        return out
    if kind == "complete-looped":
        out = []
        for q in range(1, source["max_q"] + 1):
            for ell in range(0, q + 1):
                out.append(("Kq-looped:%d,%d" % (q, ell), parse_model_name("Kq-looped:%d,%d" % (q, ell))))
        return out
    if kind == "union":
        out = []
        for part in source["parts"]:
            out.extend(materialize_models(part))
        return out
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


def check_instance(ineq: str, graph: Graph, model: Model, constraints=None, memo=None):
    """Decide one cell.  `memo` is a reverse-Sidorenko factor memo for
    this model (see check_reverse_sidorenko); the other checkers ignore it."""
    if ineq == "reverse-sidorenko":
        return check_reverse_sidorenko(graph, model, constraints, memo)
    if ineq == "clique-max":
        return check_clique_max(graph, model, constraints)
    if ineq == "bst":
        return check_bst(graph, model)
    raise InvalidArgument("unknown inequality %r (scan supports %s)" % (ineq, SCAN_INEQUALITIES))


def _cells_for_job(job: ScanJob):
    graphs = materialize_graphs(job.graphs)
    models = materialize_models(job.models)
    list_seeds = [None]
    if job.lists is not None:
        list_seeds = list(job.lists["seeds"])
    cells = []
    for gid, g in graphs:
        for model_index, (mid, m) in enumerate(models):
            for ls in list_seeds:
                constraints = None
                if ls is not None:
                    lists = random_lists(ls, gid, g.n, m.q)
                    constraints = [tuple(Fraction(1 if c in allowed else 0) for c in range(m.q)) for allowed in lists]
                instance_id = "%s|%s" % (gid, mid) + ("|lists:%d" % ls if ls is not None else "")
                cells.append((instance_id, g, model_index, m, constraints))
    return cells


def _run_cell(args):
    instance_id, ineq, g, model_index, m, constraints = args
    try:
        report = check_instance(ineq, g, m, constraints, _FACTOR_MEMO.setdefault(model_index, {}))
        return instance_id, "ok", report_to_dict(report)
    except UndecidedAtPrecisionCap as exc:
        return instance_id, "undecided", str(exc)
    except HomlabError as exc:
        return instance_id, "error", "%s: %s" % (type(exc).__name__, exc)


def run_scan(job: ScanJob) -> ScanSummary:
    """Run the full grid; deterministic for a fixed job regardless of the
    worker count."""
    _FACTOR_MEMO.clear()
    try:
        return _run_scan(job)
    finally:
        _FACTOR_MEMO.clear()


def _run_scan(job: ScanJob) -> ScanSummary:
    cells = _cells_for_job(job)
    tasks = [
        (instance_id, job.ineq, g, model_index, m, constraints)
        for instance_id, g, model_index, m, constraints in cells
    ]
    if job.jobs > 1:
        with ProcessPoolExecutor(max_workers=job.jobs) as pool:
            results = list(pool.map(_run_cell, tasks, chunksize=16))
    else:
        results = [_run_cell(t) for t in tasks]

    summary = ScanSummary(job=job.to_dict())
    cell_by_id = {cell[0]: cell[1:] for cell in cells}
    for instance_id, status, payload in results:
        if status == "undecided":
            summary.instances_checked += 1
            summary.histogram["undecided"] += 1
            summary.errors.append({"instance_id": instance_id, "error": payload})
            continue
        if status == "error":
            # Per-instance failures are collected, not fatal, and stay
            # outside the verdict histogram (which always totals
            # instances_checked).
            summary.errors.append({"instance_id": instance_id, "error": payload})
            continue
        summary.instances_checked += 1
        report = payload
        verdict = report["verdict"]
        summary.histogram[verdict] += 1
        gid, _, rest = instance_id.partition("|")
        row = {
            "instance_id": instance_id,
            "graph": gid,
            "model": rest,
            "verdict": verdict,
            "exact": report["exact"],
            "slack_log10": report["slack_log10"],
        }
        summary.rows.append(row)
        slack = report["slack_log10"]
        if isinstance(slack, (int, float)) and not math.isnan(slack):
            if summary.worst is None or slack < summary.worst["slack_log10"]:
                summary.worst = {"instance_id": instance_id, "slack_log10": slack}
        if verdict == "violated":
            g, _, m, constraints = cell_by_id[instance_id]
            summary.findings.append(
                {
                    "instance_id": instance_id,
                    "report": report,
                    "replay": make_replay(job.ineq, g, m, constraints),
                }
            )
    return summary


def make_replay(ineq: str, g: Graph, m: Model, constraints=None) -> dict:
    from homlab.fileio import frac_str

    return {
        "ineq": ineq,
        "graph": graph_to_dict(g),
        "model": model_to_dict(m),
        "constraints": None
        if constraints is None
        else [[frac_str(x) for x in vec] for vec in constraints],
    }


def replay_finding(replay: dict):
    """Re-run a finding's replay data through the named checker."""
    g = graph_from_dict(replay["graph"])
    m = model_from_dict(replay["model"])
    constraints = replay.get("constraints")
    if constraints is not None:
        constraints = [tuple(Fraction(x) for x in vec) for vec in constraints]
    return check_instance(replay["ineq"], g, m, constraints)


def search_counterexample(ineq: str, graph_source: dict, model_source: dict, budget: int) -> list[dict]:
    """Scan cells until the budget is exhausted, returning all violations
    with replay data.  An empty list is a legitimate outcome."""
    job = ScanJob(ineq, graph_source, model_source)
    cells = _cells_for_job(job)[:budget]
    findings = []
    memos = {}
    for instance_id, g, model_index, m, constraints in cells:
        try:
            report = check_instance(ineq, g, m, constraints, memos.setdefault(model_index, {}))
        except HomlabError:
            continue
        if report.verdict == "violated":
            findings.append(
                {
                    "instance_id": instance_id,
                    "report": report_to_dict(report),
                    "replay": make_replay(ineq, g, m, constraints),
                }
            )
    return findings


CSV_COLUMNS = ("instance_id", "graph", "model", "verdict", "exact", "slack_log10")


def emit_report(summary: ScanSummary, fmt: str = "json") -> str:
    """Bit-reproducible report text for a summary."""
    if fmt == "json":
        return json.dumps(summary.to_dict(), indent=2, sort_keys=True, allow_nan=True) + "\n"
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
        lines.append(
            "verdicts: holds=%(holds)d equality=%(equality)d violated=%(violated)d undecided=%(undecided)d"
            % summary.histogram
        )
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


def parse_summary(text: str) -> ScanSummary:
    return ScanSummary.from_dict(json.loads(text))
