"""homlab benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload rs-scan --seed 1 --seconds 20 --trace 0

With `--trace 0` the run measures the end-to-end metrics untraced; with
`--trace 1` it makes a traced pass over a fixed slice of the workload and
reports the per-layer metrics.  Untraced times are read at nominal machine
speed (speed.py).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from itertools import islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import oracle  # noqa: E402
from perfbench.speed import SpeedClock  # noqa: E402
from perfbench.tracer import Tracer, covered_time, self_times  # noqa: E402
from perfbench.workloads import WORKLOAD_NAMES, make_workload  # noqa: E402

PROBES = 5  # fresh set-up processes per run, spread over the timed phase; setup_s is their median
MIN_UNITS = 3  # fewest chunks or rounds a timed run measures
ORACLE_CELLS_PER_CHUNK = 2
CHILD_TIMEOUT_S = 170
LEMMA_SETUP_ROUNDS = 10

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

LEMMA_IDS = (
    "mixed-norm", "mixed-norm-2", "local-123", "color-holder", "color-bcd", "color-ac", "color-abc",
    "clique-cs", "h-log-convex", "f-log-conv", "m-log-conv", "sym-monotone", "sym-corollary",
)

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = (
    ("counting.hom.s", "s", "lower"),
    ("counting.hom.calls", "count", "lower"),
    ("counting.biclique_kernel_sum.s", "s", "lower"),
    ("counting.biclique_kernel_sum.calls", "count", "lower"),
    ("counting.biclique_kernel_sum.distinct_frac", "frac", "higher"),
    ("counting.hom_clique.s", "s", "lower"),
    ("counting.hom_clique.calls", "count", "lower"),
    ("inequalities.clique_factor.hit_frac", "frac", "higher"),
    ("power.compare_power_products.s", "s", "lower"),
    ("power.compare_power_products.calls", "count", "lower"),
    ("power.compare_power_products.exact_frac", "frac", "higher"),
    ("power.compare_power_products.max_bits", "bits", "lower"),
    ("power.compare_radical_products.s", "s", "lower"),
    ("power.RadicalSum.sign.s", "s", "lower"),
    ("power.RadicalSum.sign.calls", "count", "lower"),
    ("power.RadicalSum.mul.calls", "count", "lower"),
    ("ratmath.factorize.s", "s", "lower"),
    ("ratmath.factorize.calls", "count", "lower"),
    ("inequalities.check_reverse_sidorenko.self_s", "s", "lower"),
    ("inequalities.check_clique_max.self_s", "s", "lower"),
    ("inequalities.check_bst.self_s", "s", "lower"),
) + tuple(("lemmas.check_local_lemma.%s.s" % lid, "s", "lower") for lid in LEMMA_IDS) + (
    ("lemmas.check_local_lemma.p99_ms", "ms", "lower"),
    ("lemmas.random_lemma_instance.s", "s", "lower"),
    ("scan.check_instance.p50_ms", "ms", "lower"),
    ("scan.check_instance.p99_ms", "ms", "lower"),
    ("scan.run_scan.self_s", "s", "lower"),
    ("scan.emit_report.s", "s", "lower"),
    ("fileio.report_to_dict.s", "s", "lower"),
    ("scan.pool.efficiency", "frac", "higher"),
    ("graphs.enumerate_graphs.s", "s", "lower"),
    ("graphs.enumerate_graphs.out", "count", "higher"),
    ("scan.materialize_models.s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.residual_frac", "frac", "lower"),
)


class SetupError(Exception):
    pass


def import_homlab():
    """Import homlab from this checkout's src/ and nowhere else."""
    package = SRC / "homlab"
    if not (package / "__init__.py").is_file():
        raise SetupError("no homlab sources at %s" % package)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import homlab
    import homlab.fileio
    import homlab.lemmas
    import homlab.scan

    if Path(homlab.__file__).resolve().parent != package.resolve():
        raise SetupError("homlab was imported from %s, not %s" % (homlab.__file__, package))
    return homlab


# -- helpers -----------------------------------------------------------------


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def report_digest(text: str) -> str:
    """sha256 of a JSON scan report without its `job` key, which echoes the
    worker count."""
    doc = json.loads(text)
    doc.pop("job", None)
    return hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True, allow_nan=True).encode()).hexdigest()


def percentile(values, p: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_child(args) -> dict:
    """Run a Python child in this checkout and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable] + [str(a) for a in args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError("child %s failed: %s" % (args[:2], proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_spec(wl, seed: int) -> dict:
    units = wl.units(seed)
    if wl.kind == "scan":
        return {"graphs": wl.graphs, "models": next(units)}
    return {"lemmas": [pair for rnd in islice(units, LEMMA_SETUP_ROUNDS) for pair in rnd]}


class SetupProbes:
    """Set-up measured in fresh interpreters (probe.py).  The probes are
    spread evenly over the timed phase, between its units, so that
    setup_s samples the machine at the same moments the timed phase does.
    Each probe keeps the span it ran in, so that its time can be scaled to
    nominal machine speed like the timed phase's (speed.py)."""

    def __init__(self, wl, seed: int, count: int, seconds: float):
        self.spec = json.dumps(setup_spec(wl, seed))
        self.count = count
        self.seconds = seconds
        self.times = []  # (setup_s, start, end)

    def due(self, timed: float):
        while len(self.times) < self.count and timed >= len(self.times) * self.seconds / self.count:
            start = time.perf_counter()
            setup = run_child([BENCH_DIR / "probe.py", SRC, self.spec])["setup_s"]
            self.times.append((setup, start, time.perf_counter()))

    def finish(self):
        self.due(float("inf"))


class Outcome:
    """Attempted and failed items of a run, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.oracle_checked = 0

    def fail(self, item: str, reason: str):
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append("%s: %s" % (item, reason))

    def fail_all(self, reason: str):
        self.failed = self.attempted
        self.reasons.append("run: " + reason)


# -- correctness ---------------------------------------------------------------


def scan_cells(job) -> dict:
    from homlab.scan import materialize_graphs, materialize_models

    graphs = materialize_graphs(job.graphs)
    models = materialize_models(job.models)
    return {"%s|%s" % (gid, mid): (g, m) for gid, g in graphs for mid, m in models}


def check_scan_chunk(ineq, job, summary, outcome: Outcome, oracle_rng):
    """Every cell must be decided exactly as holds or equality, and a sample
    must agree with the brute-force oracle field by field."""
    from homlab.fileio import report_to_dict
    from homlab.scan import check_instance

    cells = scan_cells(job)
    outcome.attempted += len(cells)
    if summary is None:
        for cid in cells:
            outcome.fail(cid, "chunk raised")
        return
    rows = {r["instance_id"]: r for r in summary.rows}
    errors = {e["instance_id"]: e["error"] for e in summary.errors}
    bad = set()
    for cid in cells:
        row = rows.get(cid)
        if cid in errors:
            reason = "error " + errors[cid]
        elif row is None:
            reason = "missing"
        elif row["verdict"] not in ("holds", "equality"):
            reason = "verdict " + row["verdict"]
        elif row["exact"] is not True:
            reason = "not exact"
        else:
            continue
        bad.add(cid)
        outcome.fail(cid, reason)
    for cid in oracle_rng.sample(sorted(cells), min(ORACLE_CELLS_PER_CHUNK, len(cells))):
        if cid in bad:
            continue
        g, m = cells[cid]
        report = report_to_dict(check_instance(ineq, g, m))
        expected = oracle.expected_report(ineq, g.n, g.edge_list(), m.edge_weights, m.vertex_weights)
        wrong = oracle.mismatches(report, expected)
        if report["verdict"] != rows[cid]["verdict"]:
            wrong.append("row verdict")
        outcome.oracle_checked += 1
        if wrong:
            outcome.fail(cid, "oracle disagrees on " + ", ".join(wrong))


def check_lemma_report(item: str, report, outcome: Outcome):
    outcome.attempted += 1
    if isinstance(report, Exception):
        outcome.fail(item, "%s: %s" % (type(report).__name__, report))
    elif report.verdict not in ("holds", "equality"):
        outcome.fail(item, "verdict " + report.verdict)
    elif report.exact is not True:
        outcome.fail(item, "not exact")


def decide_lemma(check_local_lemma, inst):
    """The instance's report, or the exception that stopped it: an erroring
    instance is a failed item, not a crashed run."""
    try:
        return check_local_lemma(inst)
    except Exception as exc:
        return exc


# -- untraced, time-bounded run ------------------------------------------------


def measure_scan(wl, seed: int, seconds: float, min_units: int, probes: SetupProbes, clock: SpeedClock, lines: list):
    from homlab import scan as hs

    hs.materialize_graphs(wl.graphs)  # the cold isomorphism dedup is set-up, paid outside the timed phase
    outcome = Outcome()
    oracle_rng = random.Random("perfbench-oracle|%s|%d" % (wl.name, seed))
    units = wl.units(seed)
    spans, walls, cpus, cells, digests = [], [], [], [], []
    first_job = None
    while len(walls) < min_units or sum(walls) < seconds:
        probes.due(sum(walls))
        job = hs.ScanJob(wl.ineq, wl.graphs, next(units), jobs=wl.jobs)
        first_job = first_job or job
        c0, t0 = cpu_now(), time.perf_counter()
        try:
            summary = hs.run_scan(job)
            text = hs.emit_report(summary, "json")
        except Exception as exc:  # counted below as a failed chunk
            summary, text = None, None
            lines.append("chunk %d raised %s: %s" % (len(walls), type(exc).__name__, exc))
        t1, c1 = time.perf_counter(), cpu_now()
        before = outcome.attempted
        check_scan_chunk(wl.ineq, job, summary, outcome, oracle_rng)
        cells.append(outcome.attempted - before)
        spans.append((t0, t1))
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        digests.append(report_digest(text) if text else "none")
        lines.append("chunk %d: %d cells in %.3f s (cpu %.3f s) sha256 %s" % (len(walls) - 1, cells[-1], walls[-1], cpus[-1], digests[-1]))
    if wl.jobs > 1:
        reference = report_digest(hs.emit_report(hs.run_scan(hs.ScanJob(wl.ineq, wl.graphs, first_job.models, jobs=1)), "json"))
        lines.append("chunk 0 at 1 worker: sha256 %s" % reference)
        if reference != digests[0]:
            outcome.fail_all("digest at %d workers differs from 1 worker" % wl.jobs)
    probes.finish()
    clock.stop()
    scaled = [clock.scaled(*span) for span in spans]
    lines.append("%d chunks, %.1f s timed: %.1f cells per s as measured; reference task median %.3f ms" % (
        len(walls), sum(walls), outcome.attempted / sum(walls), clock.median_ms()))
    rates = [n / w for n, w in zip(cells, scaled)]
    lines.append("at nominal speed: chunk rate p10 %.1f / p50 %.1f / p90 %.1f cells per s" % (
        percentile(rates, 10), statistics.median(rates), percentile(rates, 90)))
    return outcome, outcome.attempted / sum(scaled), statistics.mean(c * x / w for c, x, w in zip(cpus, scaled, walls))


def measure_lemmas(wl, seed: int, seconds: float, min_units: int, probes: SetupProbes, clock: SpeedClock, lines: list):
    """Time each instance on its own.  The battery's cost is heavy-tailed
    (one m-log-conv instance can cost a thousand typical ones), so a total
    over a run hinges on a few draws; the rate is taken from per-id medians."""
    from homlab import lemmas

    outcome = Outcome()
    units = wl.units(seed)
    timings = []
    timed = 0.0
    rounds = 0
    while rounds < min_units or timed < seconds:
        probes.due(timed)
        pairs = next(units)
        rnd = [lemmas.random_lemma_instance(lid, s) for lid, s in pairs]  # set-up, outside the timed phase
        for (lid, s), inst in zip(pairs, rnd):
            c0, t0 = time.process_time(), time.perf_counter()
            report = decide_lemma(lemmas.check_local_lemma, inst)
            t1, c1 = time.perf_counter(), time.process_time()
            check_lemma_report("%s:%d" % (lid, s), report, outcome)
            timings.append((lid, t0, t1, c1 - c0))
            timed += t1 - t0
        rounds += 1
    probes.finish()
    clock.stop()
    walls, cpus = defaultdict(list), defaultdict(list)
    for lid, t0, t1, cpu in timings:
        scaled = clock.scaled(t0, t1)
        walls[lid].append(scaled)
        cpus[lid].append(cpu * scaled / (t1 - t0))
    lines.append("%d rounds of %d instances, %.1f s timed: %.1f instances per s overall as measured; reference task median %.3f ms" % (
        rounds, len(walls), timed, outcome.attempted / timed, clock.median_ms()))
    for lid in walls:
        lines.append("%-14s at nominal speed: median %.3f ms, p90 %.3f ms, max %.3f ms" % (
            lid, 1000 * statistics.median(walls[lid]), 1000 * percentile(walls[lid], 90), 1000 * max(walls[lid])))
    typical_round = sum(statistics.median(v) for v in walls.values())
    return outcome, len(walls) / typical_round, sum(statistics.median(v) for v in cpus.values())


def timed_run(wl, seed: int, seconds: float, min_units: int, probe_count: int, lines: list):
    probes = SetupProbes(wl, seed, probe_count, seconds)
    measure = measure_scan if wl.kind == "scan" else measure_lemmas
    with SpeedClock() as clock:  # the measure stops it before it reads scaled times
        outcome, rate, cpu = measure(wl, seed, seconds, min_units, probes, clock, lines)
    setup = [s * clock.scaled(start, end) / (end - start) for s, start, end in probes.times]
    lines.append("setup probes as measured: " + " ".join("%.3f" % s for s, _, _ in probes.times) + " s")
    lines.append("setup probes at nominal speed: " + " ".join("%.3f" % s for s in setup) + " s")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if wl.jobs > 1 else 0
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": rate,
        "cpu_s": cpu,
        "peak_rss_mb": (own + wl.jobs * workers) / 1024.0 if workers else own / 1024.0,
    }
    return outcome, metrics, dict(END_TO_END)


# -- traced run ----------------------------------------------------------------


def plain_pass(wl, seed: int, jobs: int) -> dict:
    """Untraced pass over exactly the units a traced run covers."""
    from homlab import lemmas
    from homlab import scan as hs

    units = list(islice(wl.units(seed), wl.trace_units))
    if wl.kind == "scan":
        hs.materialize_graphs(wl.graphs)
        t0 = time.perf_counter()
        texts = [hs.emit_report(hs.run_scan(hs.ScanJob(wl.ineq, wl.graphs, models, jobs=jobs)), "json") for models in units]
        wall = time.perf_counter() - t0
        return {"wall": wall, "digests": [report_digest(t) for t in texts]}
    t0 = time.perf_counter()
    for pairs in units:
        for lid, s in pairs:
            decide_lemma(lemmas.check_local_lemma, lemmas.random_lemma_instance(lid, s))
    return {"wall": time.perf_counter() - t0, "digests": []}


def traced_run(wl, seed: int, smoke: bool, lines: list):
    from homlab import lemmas
    from homlab import scan as hs

    # Untraced passes run in fresh processes, so that no pass inherits caches
    # another pass warmed, once before and once after the traced pass, so
    # that a drift in machine speed during the run cancels in the overhead.
    def plain_passes():
        out = {}
        for jobs in sorted({1, wl.jobs}):
            args = [BENCH_DIR / "run.py", "--workload", wl.name, "--seed", seed, "--pass-jobs", jobs]
            out[jobs] = run_child(args + (["--smoke"] if smoke else []))
        return out

    before = plain_passes()
    units = list(islice(wl.units(seed), wl.trace_units))
    tracer = Tracer()
    summaries, reports = [], []
    tracer.install()
    try:
        start = time.perf_counter()
        if wl.kind == "scan":
            hs.materialize_graphs(wl.graphs)
            hs.materialize_models(units[0])
            setup_end = time.perf_counter()
            for models in units:
                job = hs.ScanJob(wl.ineq, wl.graphs, models, jobs=1)
                summary = hs.run_scan(job)
                summaries.append((job, summary, hs.emit_report(summary, "json")))
        else:
            setup_end = start
            for pairs in units:
                rnd = [lemmas.random_lemma_instance(lid, s) for lid, s in pairs]
                reports.append((pairs, [decide_lemma(lemmas.check_local_lemma, inst) for inst in rnd]))
        end = time.perf_counter()
    finally:
        tracer.uninstall()
    after = plain_passes()
    plain = {jobs: {"wall": (before[jobs]["wall"] + after[jobs]["wall"]) / 2} for jobs in before}

    outcome = Outcome()
    if wl.kind == "scan":
        oracle_rng = random.Random("perfbench-oracle|%s|%d" % (wl.name, seed))
        digests = []
        for job, summary, text in summaries:
            check_scan_chunk(wl.ineq, job, summary, outcome, oracle_rng)
            digests.append(report_digest(text))
        for k, digest in enumerate(digests):
            lines.append("traced chunk %d at 1 worker: sha256 %s" % (k, digest))
        for jobs in before:
            if before[jobs]["digests"] != digests or after[jobs]["digests"] != digests:
                outcome.fail_all("digest of an untraced %d-worker pass differs from the traced pass" % jobs)
    else:
        for pairs, reps in reports:
            for (lid, s), rep in zip(pairs, reps):
                check_lemma_report("%s:%d" % (lid, s), rep, outcome)

    traced_wall = end - setup_end
    metrics = layer_metrics(tracer, wl, start, end, setup_end, traced_wall, plain)
    write_spans(wl, seed, tracer)
    lines.append("traced %d spans; traced pass %.3f s vs untraced %.3f s" % (len(tracer.spans), traced_wall, plain[1]["wall"]))
    return outcome, metrics, {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(tracer, wl, start, end, setup_end, traced_wall, plain) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def attrs(i):
        return spans[i][5] or {}

    def total(name, keep=lambda i: True):
        return sum(dur(i) for i in by_name[name] if keep(i))

    def calls(name):
        return len(by_name[name])

    def self_total(name):
        return sum(selfs[i] for i in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    def in_setup(i):
        return spans[i][1] < setup_end

    m = {}
    for layer in ("counting.hom", "counting.biclique_kernel_sum", "counting.hom_clique",
                  "power.compare_power_products", "power.RadicalSum.sign", "ratmath.factorize"):
        m[layer + ".s"] = total(layer)
        m[layer + ".calls"] = calls(layer)
    kernel = by_name["counting.biclique_kernel_sum"]
    m["counting.biclique_kernel_sum.distinct_frac"] = ratio(len({attrs(i).get("key") for i in kernel}), len(kernel))
    clique_checks = by_name["inequalities.check_clique_max"]
    factor_calls = sum(1 for i in by_name["counting.hom_clique"]
                       if spans[i][3] >= 0 and spans[spans[i][3]][0] == "inequalities.check_clique_max")
    needed = sum(attrs(i).get("n", 0) for i in clique_checks)
    m["inequalities.clique_factor.hit_frac"] = 1.0 - factor_calls / needed if needed else 0.0
    compares = by_name["power.compare_power_products"]
    m["power.compare_power_products.exact_frac"] = ratio(sum(1 for i in compares if attrs(i).get("exact")), len(compares))
    m["power.compare_power_products.max_bits"] = max((attrs(i).get("bits", 0) for i in compares), default=0)
    m["power.compare_radical_products.s"] = total("power.compare_radical_products")
    m["power.RadicalSum.mul.calls"] = tracer.counts.get("power.RadicalSum.mul", 0)
    for check in ("check_reverse_sidorenko", "check_clique_max", "check_bst"):
        m["inequalities.%s.self_s" % check] = self_total("inequalities." + check)
    lemma_spans = by_name["lemmas.check_local_lemma"]
    for lid in LEMMA_IDS:
        m["lemmas.check_local_lemma.%s.s" % lid] = total("lemmas.check_local_lemma", lambda i: attrs(i).get("id") == lid)
    m["lemmas.check_local_lemma.p99_ms"] = 1000 * percentile([dur(i) for i in lemma_spans], 99)
    m["lemmas.random_lemma_instance.s"] = total("lemmas.random_lemma_instance")
    cell_times = [dur(i) for i in by_name["scan.check_instance"]]
    m["scan.check_instance.p50_ms"] = 1000 * percentile(cell_times, 50)
    m["scan.check_instance.p99_ms"] = 1000 * percentile(cell_times, 99)
    m["scan.run_scan.self_s"] = self_total("scan.run_scan")
    m["scan.emit_report.s"] = total("scan.emit_report")
    m["fileio.report_to_dict.s"] = total("fileio.report_to_dict")
    m["scan.pool.efficiency"] = ratio(sum(cell_times), wl.jobs * plain[wl.jobs]["wall"]) if wl.kind == "scan" else 0.0
    m["graphs.enumerate_graphs.s"] = total("graphs.enumerate_graphs", in_setup)
    m["graphs.enumerate_graphs.out"] = sum(attrs(i).get("out", 0) for i in by_name["graphs.enumerate_graphs"] if in_setup(i))
    m["scan.materialize_models.s"] = total("scan.materialize_models", in_setup)
    m["trace.overhead_frac"] = ratio(traced_wall, plain[1]["wall"]) - 1.0
    m["trace.residual_frac"] = 1.0 - ratio(covered_time(spans, start, end), end - start)
    return m


def write_spans(wl, seed: int, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    rows = []
    for name, t0, t1, parent, cell, attrs in tracer.spans:
        kept = {k: v for k, v in (attrs or {}).items() if k != "key"}
        rows.append([name, t0, t1, parent, cell, kept or None])
    path = OUT_DIR / ("trace-%s-%d.json" % (wl.name, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed, "counts": tracer.counts, "spans": rows}, fh)


# -- entry point ---------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, lines=None) -> dict:
    """Run one workload and return the result object the last line prints."""
    lines = [] if lines is None else lines
    import_homlab()
    wl = make_workload(name, smoke)
    if trace:
        outcome, metrics, units = traced_run(wl, seed, smoke, lines)
    else:
        outcome, metrics, units = timed_run(wl, seed, seconds, 1 if smoke else MIN_UNITS, 1 if smoke else PROBES, lines)
    lines.append("failed_frac = %s (%d of %d items failed; %d cells re-decided by the oracle)" % (
        outcome.failed / outcome.attempted if outcome.attempted else 1.0, outcome.failed, outcome.attempted, outcome.oracle_checked))
    lines.extend("FAILED " + r for r in outcome.reasons)
    for key in sorted(metrics):
        lines.append("%s = %.6g %s" % (key, metrics[key], units[key]))
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {key: {"value": float(metrics[key]), "unit": units[key]} for key in sorted(metrics)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink every grid (tests)")
    parser.add_argument("--pass-jobs", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.pass_jobs is not None:
            import_homlab()
            print(json.dumps(plain_pass(make_workload(args.workload, args.smoke), args.seed, args.pass_jobs)))
            return 0
        lines = []
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, lines)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for line in lines:
        print("  " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
