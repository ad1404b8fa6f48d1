"""Tests of the benchmark's own code: span arithmetic, the oracle, metric
names, the tracer's install/uninstall, and a smoke-size run of every
workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import random
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import oracle, run
from perfbench.tracer import Tracer, covered_time, self_times
from perfbench.workloads import WORKLOAD_NAMES

run.import_homlab()

from homlab import counting, inequalities, lemmas, power, scan  # noqa: E402
from homlab.fileio import report_to_dict  # noqa: E402
from homlab.graphs import Graph, enumerate_graphs  # noqa: E402
from homlab.models import random_model  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, parent):
    return (name, start, end, parent, None, None)


def test_self_time_on_synthetic_tree():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
        span("later", 12.0, 13.0, -1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    # [0, 10] and [12, 13] are covered inside the window [0, 15]; 11 of 15 s.
    assert covered_time(spans, 0.0, 15.0) == 11.0
    assert covered_time(spans, 9.0, 12.5) == 1.5


def test_oracle_hom_matches_counting_on_tiny_cases():
    rng = random.Random(5)
    for n in range(1, 5):
        for g in enumerate_graphs(n, dedup_isomorphism=True):
            m = random_model(rng.choice([1, 2, 3]), rng.randrange(1000), "general")
            assert oracle.hom_count(g.n, g.edge_list(), m.edge_weights, m.vertex_weights) == counting.hom(g, m)


def test_oracle_biclique_matches_kernel_sum():
    for seed in range(4):
        m = random_model(3, seed, "general")
        kernel = lambda x, y: m.edge_weights[x][y]  # noqa: E731
        for a in range(1, 4):
            for b in range(1, 4):
                n, edges = oracle.complete_bipartite(a, b)
                expected = oracle.hom_count(n, edges, m.edge_weights, m.vertex_weights)
                got = counting.biclique_kernel_sum(kernel, 3, 3, a, b, m.vertex_weights, m.vertex_weights)
                assert got == expected


@pytest.mark.parametrize("ineq", ["reverse-sidorenko", "clique-max", "bst"])
def test_oracle_agrees_with_reports(ineq):
    kind = "antiferro-2spin" if ineq == "bst" else ("psd" if ineq == "clique-max" else "general")
    graphs = [Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])]
    for g in graphs:
        for seed in range(3):
            m = random_model(2, seed, kind)
            report = report_to_dict(scan.check_instance(ineq, g, m))
            expected = oracle.expected_report(ineq, g.n, g.edge_list(), m.edge_weights, m.vertex_weights)
            assert oracle.mismatches(report, expected) == []
            report["verdict"] = "violated" if report["verdict"] != "violated" else "holds"
            assert oracle.mismatches(report, expected) == ["verdict"]


def test_oracle_decides_by_exact_clearing():
    assert oracle.decide(Fraction(2), [(Fraction(4), Fraction(1, 2))]) == "equality"
    assert oracle.decide(Fraction(2), [(Fraction(5), Fraction(1, 2))]) == "holds"
    assert oracle.decide(Fraction(3), [(Fraction(2), Fraction(1, 2)), (Fraction(4), Fraction(1, 2))]) == "violated"
    assert oracle.decide(Fraction(0), None) == "equality"
    assert oracle.factor_list([(Fraction(1), Fraction(1)), (Fraction(3, 2), Fraction(1, 4)), (Fraction(3, 2), Fraction(1, 4))]) == [["3/2", "1/2"]]


def test_metric_names_and_benchmark_json_agree():
    names = [n for n, _ in run.END_TO_END] + [n for n, _, _ in run.PER_LAYER]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    assert run.LEMMA_IDS == lemmas.LEMMA_IDS


def test_tracer_restores_every_original():
    originals = {
        "inequalities.hom": inequalities.hom,
        "scan.check_bst": scan.check_bst,
        "lemmas.compare_radical_products": lemmas.compare_radical_products,
        "power.factorize": power.factorize,
        "sign": power.RadicalSum.__dict__["sign"],
        "mul": power.RadicalSum.__dict__["__mul__"],
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert inequalities.hom is not originals["inequalities.hom"]
        assert scan.check_bst is not originals["scan.check_bst"]
        assert power.factorize is not originals["power.factorize"]
        value = power.RadicalSum.from_power(12, Fraction(1, 2)) * power.RadicalSum.from_rational(3)
        assert value.sign() == 1
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        scan.check_instance("reverse-sidorenko", g, random_model(2, 1, "general"))
    finally:
        tracer.uninstall()
    assert inequalities.hom is originals["inequalities.hom"] is counting.hom
    assert scan.check_bst is originals["scan.check_bst"]
    assert lemmas.compare_radical_products is originals["lemmas.compare_radical_products"]
    assert power.factorize is originals["power.factorize"]
    assert power.RadicalSum.__dict__["sign"] is originals["sign"]
    assert power.RadicalSum.__dict__["__mul__"] is originals["mul"]
    names = {s[0] for s in tracer.spans}
    assert {"scan.check_instance", "inequalities.check_reverse_sidorenko", "counting.hom",
            "counting.biclique_kernel_sum", "power.compare_power_products", "ratmath.factorize",
            "power.RadicalSum.sign"} <= names
    assert tracer.counts["power.RadicalSum.mul"] >= 1
    cell = [s for s in tracer.spans if s[0] == "scan.check_instance"][0]
    assert all(s[4] == cell[4] for s in tracer.spans if s[1] >= cell[1] and s[2] <= cell[2])


def test_correctness_gate_counts_a_bad_row():
    job = scan.ScanJob("reverse-sidorenko", {"kind": "named", "names": ["C4"]}, {"kind": "named", "names": ["Kq:2"]})
    summary = scan.run_scan(job)
    outcome = run.Outcome()
    run.check_scan_chunk(job.ineq, job, summary, outcome, random.Random(0))
    assert (outcome.attempted, outcome.failed, outcome.oracle_checked) == (1, 0, 1)
    summary.rows[0]["verdict"] = "violated"
    outcome = run.Outcome()
    run.check_scan_chunk(job.ineq, job, summary, outcome, random.Random(0))
    assert outcome.failed == 1


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run(workload, trace):
    result = run.run(workload, seed=3, seconds=0, trace=trace, smoke=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = [n for n, _, _ in run.PER_LAYER] if trace else [n for n, _ in run.END_TO_END]
    assert sorted(result["metrics"]) == sorted(expected)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.BENCH_DIR.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rs-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not Path(tmp_path / "src").exists()


def test_speed_clock_scales_each_stretch_and_skips_samples():
    from perfbench import speed

    clock = speed.SpeedClock()
    # Samples of 1 ms every 10 ms: a fast phase (reference at nominal)
    # for the first 50, then a slow one (twice nominal).
    clock.starts = [0.01 * k for k in range(100)]
    clock.ends = [t + 0.001 for t in clock.starts]
    clock.cpus = [speed.NOMINAL_S] * 50 + [2 * speed.NOMINAL_S] * 50
    # Between samples: 9 ms of measured time per 10 ms.
    assert abs(clock.scaled(0.101, 0.201) - 0.090) < 1e-9
    assert abs(clock.scaled(0.801, 0.901) - 0.045) < 1e-9
    assert abs(clock.scaled(0.102, 0.105) - 0.003) < 1e-9


def test_speed_clock_samples_while_running():
    from perfbench import speed

    with speed.SpeedClock() as clock:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(clock.cpus) >= 5 and len(clock.starts) == len(clock.ends) == len(clock.cpus)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
