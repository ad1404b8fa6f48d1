import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab import cli, errors, scan
from homlab.counting import (
    _components,
    _cover_parts,
    _graph_parts,
    _step_kernel,
    compile_plan,
    compile_plans,
    fill_memo,
    key_bits,
    lists_to_constraints,
    part_keys,
)
from homlab.errors import HomlabError, InvalidArgument, LimitExceeded
from homlab.fileio import replay_from_dict, report_to_dict
from homlab.graphs import parse_graph_name
from homlab.inequalities import check_bst, check_clique_max, check_reverse_sidorenko, unconstrained_hom_calls
from homlab.lemmas import LEMMA_IDS, check_local_lemma, random_lemma_instance
from homlab.models import Model
from homlab.scan import (
    ScanJob,
    ScanSummary,
    check_instance,
    emit_report,
    run_scan,
)


def small_finding_job(**overrides):
    job = ScanJob(
        ineq="reverse-sidorenko",
        graphs={
            "kind": "enumerate",
            "min_vertices": 3,
            "max_vertices": 4,
            "no_isolated": True,
            "require_triangle": True,
            "dedup": True,
        },
        models={"kind": "named", "names": ["heps:1/10"]},
    )
    return dataclasses.replace(job, **overrides)


class TestRunScan:
    def test_deterministic_summary(self):
        s1 = run_scan(small_finding_job())
        s2 = run_scan(small_finding_job())
        assert s1.to_dict() == s2.to_dict()

    def test_worker_count_independence(self):
        s1 = run_scan(small_finding_job(jobs=1))
        s2 = run_scan(small_finding_job(jobs=2))
        d1, d2 = s1.to_dict(), s2.to_dict()
        d1["job"]["jobs"] = d2["job"]["jobs"] = 0
        assert d1 == d2

    def test_histogram_totals_equal_instances_checked(self):
        s = run_scan(small_finding_job())
        assert sum(s.histogram.values()) == s.instances_checked
        assert s.histogram["violated"] >= 1

    def test_errors_collected_not_fatal(self):
        # isolated vertices are a per-instance error for this inequality
        job = small_finding_job(
            graphs={"kind": "enumerate", "min_vertices": 1, "max_vertices": 2, "dedup": True},
            models={"kind": "named", "names": ["hardcore"]},
        )
        s = run_scan(job)
        assert s.errors and all("IsolatedVertex" in e["error"] for e in s.errors)
        assert sum(s.histogram.values()) == s.instances_checked

    def test_limit_exceeded_cell_is_an_error(self, monkeypatch, capsys):
        check_instance = scan.check_instance

        def capped_c4(ineq, graph, model, constraints=None, *memos):
            if graph.n == 4:
                raise LimitExceeded("comparison undecided")
            return check_instance(ineq, graph, model, constraints, *memos)

        monkeypatch.setattr(scan, "check_instance", capped_c4)
        s = run_scan(small_finding_job(graphs={"kind": "named", "names": ["C4", "K3,3"]}, models={"kind": "named", "names": ["Kq:2"]}))
        assert s.errors == [{"instance_id": "C4|Kq:2", "error": "LimitExceeded: comparison undecided"}]
        assert [r["instance_id"] for r in s.rows] == ["K3,3|Kq:2"]
        assert s.instances_checked == sum(s.histogram.values()) == 1
        assert not s.findings
        code = cli.main(["scan", "--ineq", "reverse-sidorenko", "--graphs", "C4;K3,3", "--models", "Kq:2"])
        assert code == 1
        assert "ERROR C4|Kq:2: LimitExceeded: comparison undecided" in capsys.readouterr().out

    def test_findings_replay(self):
        s = run_scan(small_finding_job())
        assert s.findings
        for f in s.findings:
            rep = check_instance(*replay_from_dict(f["replay"]))
            assert rep.verdict == "violated" and rep.exact

    def test_zero_violations_on_triangle_free(self):
        job = ScanJob(
            ineq="reverse-sidorenko",
            graphs={
                "kind": "enumerate",
                "min_vertices": 2,
                "max_vertices": 4,
                "no_isolated": True,
                "triangle_free": True,
                "dedup": True,
            },
            models={"kind": "union", "parts": [
                {"kind": "complete-looped", "max_q": 3},
                {"kind": "random", "rand_kind": "general", "qs": [2, 3], "seeds": list(range(6))},
            ]},
        )
        s = run_scan(job)
        assert s.histogram["violated"] == 0 and not s.errors

    def test_random_model_seeds_regenerate(self):
        from homlab.models import random_model
        from homlab.scan import materialize_models

        source = {"kind": "random", "rand_kind": "psd", "qs": [2, 3], "seeds": [4, 9]}
        models = materialize_models(source)
        assert models[0][1] == random_model(2, 4, "psd")
        assert models[1][1] == random_model(3, 9, "psd")

    def test_list_scan_small(self):
        job = ScanJob(
            ineq="reverse-sidorenko",
            graphs={
                "kind": "enumerate",
                "min_vertices": 2,
                "max_vertices": 4,
                "no_isolated": True,
                "dedup": True,
            },
            models={"kind": "complete-looped", "max_q": 2},
            lists={"kind": "random", "seeds": list(range(4))},
        )
        s = run_scan(job)
        assert s.histogram["violated"] == 0 and not s.errors
        assert s.instances_checked > 0


ACCEPTANCE_7_JOB = dict(
    ineq="reverse-sidorenko",
    graphs={
        "kind": "enumerate",
        "min_vertices": 2,
        "max_vertices": 6,
        "no_isolated": True,
        "triangle_free": True,
        "dedup": True,
    },
    models={
        "kind": "union",
        "parts": [
            {"kind": "complete-looped", "max_q": 4},
            {"kind": "random", "rand_kind": "general", "qs": [2, 3, 4], "seeds": list(range(50))},
        ],
    },
)
ACCEPTANCE_8_JOB = dict(
    ineq="reverse-sidorenko",
    graphs={"kind": "enumerate", "min_vertices": 2, "max_vertices": 5, "no_isolated": True, "dedup": True},
    models={"kind": "complete-looped", "max_q": 3},
    lists={"kind": "random", "seeds": list(range(20))},
)
ACCEPTANCE_9_JOB = dict(
    ineq="clique-max",
    graphs={"kind": "enumerate", "min_vertices": 1, "max_vertices": 6, "dedup": True},
    models={"kind": "random", "rand_kind": "psd", "qs": [2, 3, 4], "seeds": list(range(50))},
)

# The benchmark's bst grid with three antiferromagnetic 2-spin models.
BST_SCAN_JOB = dict(
    ineq="bst",
    graphs={"kind": "enumerate", "min_vertices": 1, "max_vertices": 6, "dedup": True},
    models={"kind": "random", "rand_kind": "antiferro-2spin", "qs": [2], "seeds": [0, 1, 2]},
)


def memo_free(patch):
    """Decide every cell on its own, with no memo shared between cells:
    neither the factor memo nor hom's component memo."""
    patch.setattr(
        scan,
        "check_reverse_sidorenko",
        lambda g, m, constraints=None, memo=None, hom_memo=None: check_reverse_sidorenko(g, m, constraints),
    )
    patch.setattr(
        scan,
        "check_clique_max",
        lambda g, m, lambdas=None, memo=None, hom_memo=None: check_clique_max(g, m, lambdas),
    )
    patch.setattr(scan, "check_bst", lambda g, m, hom_memo=None: check_bst(g, m))


def report_at_jobs_1(summary):
    summary.job["jobs"] = 1
    return emit_report(summary, "json")


class TestFactorMemo:
    @pytest.mark.parametrize(
        "job",
        [
            ACCEPTANCE_7_JOB,
            ACCEPTANCE_8_JOB,
            ACCEPTANCE_9_JOB,
            dict(ineq="clique-max", graphs={"kind": "named", "names": ["C4", "K3"]}, models={"kind": "named", "names": ["Kq:3"]}),
            BST_SCAN_JOB,
        ],
        ids=["acceptance-7", "acceptance-8-lists", "acceptance-9-clique", "fewer-cells-than-workers", "bst-scan"],
    )
    def test_reports_match_memo_free_cells(self, job, monkeypatch):
        # Three workers, even on a smaller machine; 3 divides neither the 64
        # models of #7 nor the 50 of #9.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        with monkeypatch.context() as patch:
            memo_free(patch)
            expected = emit_report(run_scan(ScanJob(jobs=1, **job)), "json")
        for jobs in (1, 2, 3):
            assert report_at_jobs_1(run_scan(ScanJob(jobs=jobs, **job))) == expected

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scan_after_scan_matches_memo_free(self, jobs, monkeypatch):
        # Model 0 differs between the two scans, so a factor memo that
        # outlived the first would hand its C4 factors to the second.
        first = small_finding_job(graphs={"kind": "named", "names": ["C4", "K3,3"]}, models={"kind": "named", "names": ["Kq:3"]}, jobs=jobs)
        second = dataclasses.replace(first, models={"kind": "named", "names": ["wr", "Kq:3"]})
        with monkeypatch.context() as patch:
            memo_free(patch)
            expected = emit_report(run_scan(second), "json")
        run_scan(first)
        assert emit_report(run_scan(second), "json") == expected

    @pytest.mark.parametrize(
        "jobs, cpus, cells, workers",
        [(64, 4, 6, 4), (64, 16, 3, 3), (3, 16, 6, 3), (2, None, 6, None), (4, 1, 6, None), (2, 4, 1, None)],
    )
    def test_worker_count_clamp(self, monkeypatch, jobs, cpus, cells, workers):
        # k = min(jobs, cells, cpu count) forked workers, and no fork for k = 1.
        forked = count_forks(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        job = ScanJob(
            "clique-max",
            {"kind": "named", "names": ["P2", "P3", "C4", "K3", "C5", "K4"][:cells]},
            {"kind": "named", "names": ["Kq:2"]},
        )
        serial = emit_report(run_scan(job), "json")
        assert forked == []
        assert report_at_jobs_1(run_scan(dataclasses.replace(job, jobs=jobs))) == serial
        assert len(forked) == (workers or 0)
        assert_no_children()


def count_forks(monkeypatch) -> list:
    """The pids of the processes os.fork starts from now on in this process."""
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_on_graph(monkeypatch, name, fail):
    """Make scan.check_instance call fail() on the named graph's cells, and
    only in a forked worker; every other cell is decided as before."""
    target, parent, check = parse_graph_name(name), os.getpid(), scan.check_instance

    def check_or_fail(ineq, graph, *rest):
        if graph == target:
            assert os.getpid() != parent, "the parent decided a cell"
            fail()
        return check(ineq, graph, *rest)

    monkeypatch.setattr(scan, "check_instance", check_or_fail)


class TestForkedWorkers:
    # Six graphs at two workers: worker 1 takes P2, C4 and C5, worker 2
    # takes P3, K3 and K4.
    JOB = ScanJob(
        "clique-max",
        {"kind": "named", "names": ["P2", "P3", "C4", "K3", "C5", "K4"]},
        {"kind": "named", "names": ["Kq:2"]},
        jobs=2,
    )

    BUDGET_S = 60

    @pytest.fixture(autouse=True)
    def two_cpus_and_a_time_budget(self, monkeypatch):
        # A runner that deadlocks fails the test instead of hanging it;
        # workers do not inherit the interval timer.
        def over_budget(signum, frame):
            raise TimeoutError("a forked scan ran past %d s" % self.BUDGET_S)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        previous = signal.signal(signal.SIGALRM, over_budget)
        signal.setitimer(signal.ITIMER_REAL, self.BUDGET_S)
        yield
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

    def test_parent_decides_no_cell(self, monkeypatch):
        # Every cell runs in a worker: the patched check refuses the parent.
        fail_on_graph(monkeypatch, "C4", lambda: None)
        forked = count_forks(monkeypatch)
        assert run_scan(self.JOB).instances_checked == 6
        assert len(forked) == 2
        assert_no_children()

    def test_worker_exception_is_raised_in_the_parent(self, monkeypatch):
        def divide():
            return 1 // 0

        fail_on_graph(monkeypatch, "K3", divide)
        with pytest.raises(ZeroDivisionError) as info:
            run_scan(self.JOB)
        assert str(info.value) == "integer division or modulo by zero"
        assert_no_children()

    @pytest.mark.parametrize(
        "fail, how",
        [
            (lambda: os._exit(3), "exited with status 3"),
            (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal %d" % signal.SIGKILL),
        ],
        ids=["exit-3", "sigkill"],
    )
    def test_worker_that_dies_is_an_error(self, monkeypatch, fail, how):
        # Worker 1 dies on C5, its last cell, while worker 2 may still run:
        # the scan raises and leaves no process behind.
        fail_on_graph(monkeypatch, "C5", fail)
        with pytest.raises(HomlabError, match="^scan worker 1 of 2 %s before sending its results$" % how):
            run_scan(self.JOB)
        assert_no_children()

    def test_no_fork_runs_serially(self, monkeypatch):
        serial = emit_report(run_scan(dataclasses.replace(self.JOB, jobs=1)), "json")
        monkeypatch.delattr(os, "fork")
        assert report_at_jobs_1(run_scan(self.JOB)) == serial

    def test_results_larger_than_a_pipe_buffer(self, monkeypatch):
        # 251 of these 280 biclique cells are violated, and each finding's
        # report spells out the graph's edges, so every worker sends well
        # over a pipe's 64 KiB buffer and must be read before it is reaped.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        names = ["K%d,%d" % (a, b) for a in range(2, 7) for b in range(a, 60)]
        job = ScanJob("clique-max", {"kind": "named", "names": names}, {"kind": "named", "names": ["wr"]})
        cells = scan._cells_for_job(job)
        assert len(pickle.dumps(scan._run_cells(job.ineq, cells[2::3]))) > 65536
        serial = emit_report(run_scan(job), "json")
        assert len(json.loads(serial)["findings"]) == 251
        for jobs in (2, 3):
            assert report_at_jobs_1(run_scan(dataclasses.replace(job, jobs=jobs))) == serial
        assert_no_children()


class TestSearch:
    def test_finds_widom_rowlinson_star(self):
        job = ScanJob("clique-max", {"kind": "named", "names": ["K1,1", "K1,2", "K1,3", "K1,4", "K1,5"]}, {"kind": "named", "names": ["wr"]})
        findings = run_scan(job, budget=100).findings
        ids = [f["instance_id"] for f in findings]
        assert any("K1,4" in i for i in ids)

    def test_empty_result_is_fine(self):
        job = ScanJob(
            "reverse-sidorenko",
            {
                "kind": "enumerate",
                "min_vertices": 2,
                "max_vertices": 4,
                "no_isolated": True,
                "triangle_free": True,
                "dedup": True,
            },
            {"kind": "random", "rand_kind": "general", "qs": [3], "seeds": list(range(10))},
        )
        findings = run_scan(job, budget=10000).findings
        assert findings == []

    @pytest.mark.parametrize("budget", [0, 1, 13, 20, 21, 47, 50, 53, 54, 100])
    def test_matches_scan_findings(self, budget):
        # 18 graphs (1 to 4 vertices) x 3 models; graphs with an isolated
        # vertex are error cells, and cells 19 and 20 (one graph under heps
        # and wr) are the first findings.
        graphs = {"kind": "enumerate", "min_vertices": 1, "max_vertices": 4, "dedup": True}
        models = {"kind": "named", "names": ["Kq:3", "heps:1/10", "wr"]}
        job = ScanJob("reverse-sidorenko", graphs, models)
        first = {cell[0] for cell in scan._cells_for_job(job)[:budget]}
        full = run_scan(job)
        assert full.errors and len(full.findings) >= 2
        expected = [f for f in full.findings if f["instance_id"] in first]
        assert run_scan(job, budget).findings == expected


class TestEmit:
    def test_csv_header_only_when_empty(self):
        from homlab.scan import ScanSummary

        text = emit_report(ScanSummary(job={"ineq": "bst"}), "csv")
        assert text == "instance_id,graph,model,verdict,exact,slack_log10\n"

    def test_csv_row_for_finding(self):
        s = run_scan(small_finding_job(graphs={"kind": "named", "names": ["K3"]}))
        lines = emit_report(s, "csv").splitlines()
        assert len(lines) == 2
        assert "violated" in lines[1]

    def test_json_round_trip(self):
        s = run_scan(small_finding_job())
        assert ScanSummary(**json.loads(emit_report(s, "json"))).to_dict() == s.to_dict()

    def test_text_format(self):
        s = run_scan(small_finding_job())
        text = emit_report(s, "text")
        assert "FINDING" in text and "instances checked" in text

    def test_no_undecided_outcome(self):
        s = run_scan(small_finding_job(graphs={"kind": "enumerate", "min_vertices": 1, "max_vertices": 4, "dedup": True}))
        assert s.errors and s.findings
        assert set(s.histogram) == {"holds", "equality", "violated"}
        for fmt in ("json", "text"):
            assert "undecided" not in emit_report(s, fmt)


_TEXTS = st.text(max_size=8) | st.sampled_from(["", 'q"uote', "back\\slash", "ctl\x00\x1f\x7f\n\t", "\u00e9\u2028\U0001f600", "C4|Kq:3"])
_SLACKS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 1e308, -1e308]
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _SLACKS | _TEXTS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_TEXTS, children, max_size=3),
    max_leaves=8,
)
_ROWS = st.lists(
    st.fixed_dictionaries(
        {
            "instance_id": _TEXTS,
            "graph": _TEXTS,
            "model": _TEXTS,
            "verdict": st.sampled_from(["holds", "equality", "violated"]) | _TEXTS,
            "exact": st.booleans(),
            "slack_log10": _SLACKS,
        }
    ),
    max_size=4,
)
_SUMMARIES = st.builds(
    ScanSummary,
    # A job that holds its own "rows" key: only the top-level rows are templated.
    job=st.fixed_dictionaries({"rows": _JSON_VALUES}, optional={"ineq": _TEXTS, "jobs": st.integers(1, 4)}),
    instances_checked=st.integers(0, 10 ** 6),
    histogram=st.dictionaries(_TEXTS, st.integers(0, 9), max_size=3),
    rows=_ROWS,
    findings=st.lists(_JSON_VALUES, max_size=2),
    errors=st.lists(st.fixed_dictionaries({"instance_id": _TEXTS, "error": _TEXTS}), max_size=2),
    worst=st.none() | st.fixed_dictionaries({"instance_id": _TEXTS, "slack_log10": _SLACKS}),
)


def _dumps(summary) -> str:
    return json.dumps(summary.to_dict(), indent=2, sort_keys=True, allow_nan=True) + "\n"


class TestReportJson:
    """emit_report's json is json.dumps(to_dict(), indent=2, sort_keys=True,
    allow_nan=True) + newline, byte for byte."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_SUMMARIES)
    def test_matches_json_dumps(self, summary):
        assert emit_report(summary, "json") == _dumps(summary)

    def test_edge_values(self):
        ids = ["n\u00e9-\u2028", 'a"b', "c\\d", "e\x00\x01\x1f\x7f", "\U0001f600"]
        slacks = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308]
        rows = [
            dict(zip(scan.CSV_COLUMNS, (ids[i % len(ids)] + "|m", ids[i % len(ids)], "m", "holds", i % 2 == 0, slack)))
            for i, slack in enumerate(slacks)
        ]
        job = {"ineq": "bst", "rows": [{"exact": True, "slack_log10": -0.0}], "graphs": {"rows": []}}
        for summary in (
            ScanSummary(job=job, rows=rows, worst={"instance_id": ids[0], "slack_log10": -math.inf}),
            ScanSummary(job=job),
            ScanSummary(job={}),
        ):
            assert emit_report(summary, "json") == _dumps(summary)
        assert not ScanSummary(job={}).rows and ScanSummary(job={}).worst is None

    def test_scan_with_findings_and_errors(self):
        s = run_scan(small_finding_job(graphs={"kind": "enumerate", "min_vertices": 1, "max_vertices": 4, "dedup": True}))
        assert s.rows and s.findings and s.errors
        assert emit_report(s, "json") == _dumps(s)


class TestReportDigests:
    """Report bytes pinned by sha256: three small grids with findings and a
    short lemma stream.  A change that keeps verdicts but moves a byte
    (a factor's exponent, a slack's last bit) shows here."""

    @pytest.mark.parametrize(
        "ineq, graphs, names, digest",
        [
            (
                "clique-max",
                {"kind": "enumerate", "min_vertices": 1, "max_vertices": 5, "dedup": True},
                ["wr", "hardcore", "Kq:3", "heps:1/10"],
                "b6a58f9f97c09fd934a58ec9e1c7223d8996ba7493c3d719d87748e67a378f7e",
            ),
            (
                "reverse-sidorenko",
                {"kind": "enumerate", "min_vertices": 2, "max_vertices": 5, "no_isolated": True, "dedup": True},
                ["wr", "hardcore", "Kq:3", "Kq-looped:3,1"],
                "7f5f2d08d98104578f2b8f8e79fe27fafcb62269369c8bc64962928927a3ef4c",
            ),
            (
                "bst",
                {"kind": "enumerate", "min_vertices": 1, "max_vertices": 5, "dedup": True},
                ["hardcore", "ising:1,2,1", "ising:2,1,2"],
                "f83058e1be90b6688715602dac51fc9f2eb8e765d2afeaaf881f9058c146a25c",
            ),
        ],
        ids=["clique-max", "reverse-sidorenko", "bst"],
    )
    def test_scan_report(self, ineq, graphs, names, digest):
        summary = run_scan(ScanJob(ineq, graphs, {"kind": "named", "names": names}))
        assert summary.findings and not summary.errors
        assert hashlib.sha256(emit_report(summary, "json").encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "ineq, graphs, models, digest",
        [
            (
                "reverse-sidorenko",
                {"kind": "enumerate", "min_vertices": 2, "max_vertices": 5, "no_isolated": True, "dedup": True},
                {"kind": "random", "rand_kind": "general", "qs": [2, 3, 4], "seeds": list(range(6))},
                "f1c42eaaaa9e2bdf0d18d2715ec0a3feb402a134272e11c0d1c4d07430fed3ad",
            ),
            (
                "clique-max",
                {"kind": "enumerate", "min_vertices": 1, "max_vertices": 5, "dedup": True},
                {"kind": "union", "parts": [{"kind": "named", "names": ["wr"]}, {"kind": "random", "rand_kind": "psd", "qs": [2, 3, 4], "seeds": list(range(6))}]},
                "ab91744aab6f72920e083bc8053001ab3d186c0fe9c58b9337ebae31d82d60a0",
            ),
            (
                # 3,100 cells, 53 findings: biclique factors of degrees up
                # to 5 on the complete-looped family and random models.
                "reverse-sidorenko",
                {"kind": "enumerate", "min_vertices": 2, "max_vertices": 6, "no_isolated": True, "dedup": True},
                {"kind": "union", "parts": [{"kind": "complete-looped", "max_q": 4}, {"kind": "random", "rand_kind": "general", "qs": [2, 3, 4], "seeds": list(range(6))}]},
                "3df24658cdb7bd450c35cca2cee91f5ef50fc4079845c8d79ff5ea4a37e1fc0d",
            ),
        ],
        ids=["reverse-sidorenko", "clique-max", "reverse-sidorenko-n6"],
    )
    def test_random_model_report(self, ineq, graphs, models, digest):
        # Two more grids with findings, on random rational models: factors
        # with fractional exponents, and slacks from logs of large
        # numerators and denominators.
        summary = run_scan(ScanJob(ineq, graphs, models))
        assert summary.findings and not summary.errors
        assert hashlib.sha256(emit_report(summary, "json").encode()).hexdigest() == digest

    def test_lemma_stream(self):
        digest = hashlib.sha256()
        for lemma_id in LEMMA_IDS:
            for seed in range(3):
                report = report_to_dict(check_local_lemma(random_lemma_instance(lemma_id, seed)))
                digest.update((json.dumps(report, sort_keys=True) + "\n").encode())
        assert digest.hexdigest() == "d9607362dd0f00665958c833382dcda6647185084b1e44f1272a5e320e7062a2"

REPORT_DIGEST_GRIDS = {
    "clique-max": ({"kind": "enumerate", "min_vertices": 1, "max_vertices": 5, "dedup": True}, ["wr", "hardcore", "Kq:3", "heps:1/10"]),
    "reverse-sidorenko": (
        {"kind": "enumerate", "min_vertices": 2, "max_vertices": 5, "no_isolated": True, "dedup": True},
        ["wr", "hardcore", "Kq:3", "Kq-looped:3,1"],
    ),
    "bst": ({"kind": "enumerate", "min_vertices": 1, "max_vertices": 5, "dedup": True}, ["hardcore", "ising:1,2,1", "ising:2,1,2"]),
}


class TestFindingsAcrossJobs:
    """Workers build a report dict only for a finding; the report, with its
    `job` entry dropped, is the same bytes at any worker count."""

    @pytest.mark.parametrize("ineq", sorted(REPORT_DIGEST_GRIDS) + ["reverse-sidorenko-lists"])
    def test_report_bytes_do_not_depend_on_jobs(self, ineq, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        if ineq == "reverse-sidorenko-lists":
            graphs, _ = REPORT_DIGEST_GRIDS["reverse-sidorenko"]
            models = {"kind": "named", "names": ["heps:1/10", "wr", "Kq:3"]}
            job = ScanJob("reverse-sidorenko", graphs, models, {"kind": "random", "seeds": list(range(6))})
        else:
            graphs, names = REPORT_DIGEST_GRIDS[ineq]
            job = ScanJob(ineq, graphs, {"kind": "named", "names": names})

        def without_job(jobs):
            summary = run_scan(dataclasses.replace(job, jobs=jobs))
            assert summary.findings and not summary.errors
            doc = json.loads(emit_report(summary, "json"))
            del doc["job"]
            return json.dumps(doc, indent=2, sort_keys=True)

        expected = without_job(1)
        for jobs in (2, 3):
            assert without_job(jobs) == expected


class TestPlansCompiledBeforeTheFork:
    """With k > 1 workers, run_scan compiles every plan of the grid, each
    with its step kernels for the key bit widths of the grid's models, in
    the parent before the pool starts (`compile_plans`), so forked workers
    inherit them; the report does not depend on it."""

    @pytest.mark.parametrize("ineq", ["clique-max", "bst"])
    def test_parent_holds_every_plan_and_kernel(self, ineq, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        graphs, names = REPORT_DIGEST_GRIDS[ineq]
        job = ScanJob(ineq, graphs, {"kind": "named", "names": names})
        keys = {key for _, g in scan.materialize_graphs(graphs) for _, key in _components(g.adjacency)}
        if ineq == "bst":
            keys |= {half for key in keys for half in _cover_parts(key)}
        widths = {key_bits(m.q) for _, m in scan.materialize_models(job.models)}
        assert widths == ({1} if ineq == "bst" else {1, 2})
        docs = []
        for jobs in (1, 2, 3):
            compile_plan.cache_clear()
            _step_kernel.cache_clear()
            doc = json.loads(emit_report(run_scan(dataclasses.replace(job, jobs=jobs)), "json"))
            del doc["job"]
            docs.append(doc)
            if jobs > 1:
                plans, kernels = compile_plan.cache_info().misses, _step_kernel.cache_info().misses
                for key in keys:
                    # Only the grid's widths were built, and no kernel of
                    # them is left for a worker to compile.
                    assert set(compile_plan(key).runs) == widths
                    for bits in widths:
                        compile_plan(key).kernels(bits)
                assert (compile_plan.cache_info().misses, _step_kernel.cache_info().misses) == (plans, kernels)
        assert docs[0]["findings"] and docs[1] == docs[0] == docs[2]

    def test_plans_that_outnumber_the_cache_are_left_to_the_workers(self):
        # Stars with the center at each position: more distinct plans than
        # the plan cache holds, so compiling them all would evict the first
        # before a worker reads them.
        stars = [tuple(((1 << n) - 1) ^ (1 << c) if v == c else 1 << c for v in range(n)) for n in range(2, 47) for c in range(n)]
        assert len(set(stars)) > compile_plan.cache_parameters()["maxsize"]
        compile_plan.cache_clear()
        compile_plans(stars, [2])
        assert compile_plan.cache_info().currsize == 0
        compile_plans(stars[:10], [2])
        assert compile_plan.cache_info().currsize == len(set(stars[:10])) == 9


    @pytest.mark.parametrize("ineq", ["reverse-sidorenko", "clique-max"])
    def test_list_scans_find_every_whole_plan(self, ineq):
        # Constrained hom contracts each graph's whole plan, a cache entry
        # of its own for a disconnected graph, on keys as wide as its
        # highest listed color needs; the parent compiles both.
        graphs = {"kind": "enumerate", "min_vertices": 1, "max_vertices": 6, "dedup": True}
        models = {"kind": "union", "parts": [{"kind": "complete-looped", "max_q": 3}, {"kind": "random", "rand_kind": "general", "qs": [2, 4], "seeds": [0, 1]}]}
        if ineq == "reverse-sidorenko":
            graphs = dict(graphs, min_vertices=2, no_isolated=True)
        job = ScanJob(ineq, graphs, models, lists={"seeds": [0, 1]}, jobs=2)
        cells = scan._cells_for_job(job)
        assert any(len(_components(c[1].adjacency)) > 1 for c in cells)
        scan._compile_for_workers(job, cells)
        misses = compile_plan.cache_info().misses, _step_kernel.cache_info().misses
        widths = set(range(1, key_bits(4) + 1))
        assert all(set(compile_plan(c[1].adjacency).runs) >= widths for c in cells)
        results = scan._run_cells(ineq, cells)
        assert (compile_plan.cache_info().misses, _step_kernel.cache_info().misses) == misses
        assert not any(r[0] == "error" for r in results)


def _disjoint_paths(sizes) -> tuple:
    """The adjacency of disjoint paths of these vertex counts, in order."""
    rows = []
    for k in sizes:
        base = len(rows)
        rows += [(1 << base + v - 1 if v else 0) | (1 << base + v + 1 if v < k - 1 else 0) for v in range(k)]
    return tuple(rows)


class TestGraphPartsBeforeTheFork:
    """compile_plans also fills each graph's `_graph_parts` entry, for hom
    and with cover for hom_double_cover, with its work bound for every q of
    the grid, so forked workers inherit them.  It fills none when the plans
    outnumber the plan cache, or the entries the parts cache."""

    def test_entries_and_bounds_are_filled(self):
        adjacencies = {g.adjacency for _, g in scan.materialize_graphs(REPORT_DIGEST_GRIDS["bst"][0])}
        _graph_parts.cache_clear()
        compile_plans(adjacencies, [2, 3], True)
        filled = _graph_parts.cache_info()
        assert filled.misses == filled.currsize == 2 * len(adjacencies)
        for adjacency in adjacencies:
            keys = [key for _, key in _components(adjacency)]
            for cover, plans in ((False, keys), (True, [half for key in keys for half in _cover_parts(key)])):
                parts = _graph_parts(adjacency, cover)
                assert parts.works == {q: sum(compile_plan(key).work(q) for key in plans) for q in (2, 3)}
        assert _graph_parts.cache_info().misses == filled.misses

    def test_nothing_when_the_plans_outnumber_the_plan_cache(self):
        stars = [tuple(((1 << n) - 1) ^ (1 << c) if v == c else 1 << c for v in range(n)) for n in range(2, 47) for c in range(n)]
        _graph_parts.cache_clear()
        compile_plans(stars, [2])
        assert _graph_parts.cache_info().currsize == 0

    def test_no_entry_when_the_graphs_outnumber_the_parts_cache(self):
        # Paths of 1, 2 and 3 vertices in every order, up to 10 vertices:
        # 599 graphs, two entries each with cover, and only 3 components.
        sequences, frontier = [], [()]
        while frontier:
            frontier = [seq + (k,) for seq in frontier for k in (1, 2, 3) if sum(seq) + k <= 10]
            sequences += frontier
        adjacencies = {_disjoint_paths(seq) for seq in sequences}
        assert len(adjacencies) == 599 and 2 * 599 > _graph_parts.cache_parameters()["maxsize"]
        _graph_parts.cache_clear()
        compile_plan.cache_clear()
        compile_plans(adjacencies, [2], True)
        assert _graph_parts.cache_info().currsize == 0 and compile_plan.cache_info().currsize > 0


class TestFilledMemos:
    """Before a block of cells, `_run_cells` fills each model's component
    memo with the parts of the block's graphs in one walk (`fill_memo`);
    blocks fit the plan caches, so no plan is compiled more often than
    when each cell contracts its own parts."""

    N7_MODELS = {
        "bst": {"kind": "random", "rand_kind": "antiferro-2spin", "qs": [2], "seeds": [0, 1, 2]},
        "clique-max": {"kind": "random", "rand_kind": "psd", "qs": [2, 3, 4], "seeds": [0, 1, 2]},
    }

    @pytest.mark.parametrize("ineq", ["bst", "clique-max"])
    def test_no_plan_is_compiled_more_often_than_cell_by_cell(self, ineq):
        # The n <= 7 grid: 1,252 graphs, whose 2,004 (bst) or 996 plans
        # outnumber the plan cache for bst.  Cell by cell, bst missed
        # compile_plan 2,182 times and _graph_parts 2,504 times, and
        # clique-max 996 and 1,252 times.
        job = ScanJob(ineq, {"kind": "enumerate", "min_vertices": 1, "max_vertices": 7, "dedup": True}, self.N7_MODELS[ineq])
        cells = scan._cells_for_job(job)
        misses, outcomes = [], []
        for filled in (False, True):
            compile_plan.cache_clear()
            _graph_parts.cache_clear()
            if filled:
                outcomes.append(scan._run_cells(ineq, cells))
            else:
                memos = {}
                outcomes.append([check_instance(ineq, g, m, None, *memos.setdefault(i, ({}, {}))).verdict for _, g, i, m, _ in cells])
            misses.append((compile_plan.cache_info().misses, _graph_parts.cache_info().misses))
        assert [r[0] for r in outcomes[1]] == outcomes[0]
        assert misses[1][0] <= misses[0][0] and misses[1][1] <= misses[0][1], misses

    def test_blocks_fit_the_plan_caches(self):
        graphs = scan.materialize_graphs({"kind": "enumerate", "min_vertices": 1, "max_vertices": 7, "dedup": True})
        cells = [(gid, g, 0, None, None) for gid, g in graphs]
        room = compile_plan.cache_parameters()["maxsize"]
        for covers in (False, True):
            pairs = [(c, (c[1].adjacency, covers)) for c in cells]
            blocks = list(scan._blocks(pairs))
            assert [pair for block in blocks for pair in block] == pairs and len(blocks) > 1
            for block in blocks:
                keys = set().union(*(part_keys(*call) for _, call in block))
                assert len(keys) <= room and len(block) << covers <= room
        # A cell whose check calls no unconstrained hom takes no room.
        assert list(scan._blocks([(c, None) for c in cells])) == [[(c, None) for c in cells]]

    @pytest.mark.parametrize("ineq", ["bst", "clique-max", "reverse-sidorenko"])
    def test_a_fill_holds_exactly_what_the_check_reads(self, ineq):
        # Graphs with isolated vertices and several components, models at
        # q = 1..3 with a zero-weight color, with and without lists: the
        # memo `fill_memo` leaves from `unconstrained_hom_calls` is the one
        # the check alone would leave, and the check adds nothing to it.
        graphs = scan.materialize_graphs({"kind": "enumerate", "min_vertices": 1, "max_vertices": 5, "dedup": True})
        models = [
            Model.from_rows([[1]]),
            Model.from_rows([[0, 1], [1, 1]], [1, 2]),
            Model.from_rows([[1, 2], [2, 1]], [0, 1]),
            Model.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 2]], [1, 0, Fraction(1, 2)]),
        ]
        for gid, g in graphs:
            for m in models:
                for constraints in (None, lists_to_constraints(scan.random_lists(0, gid, g.n, m.q), m.q)):
                    call = unconstrained_hom_calls(ineq, g, m, constraints)
                    filled, alone = {}, {}
                    if call is not None:
                        assert call == (g.adjacency, ineq == "bst")
                        fill_memo([call[0]], m, call[1], filled)
                    before = dict(filled)
                    for memo in (filled, alone):
                        try:
                            check_instance(ineq, g, m, constraints, {}, memo)
                            refused = False
                        except HomlabError:
                            refused = True
                        # Without lists, a check refuses exactly the cells that call no hom.
                        assert constraints is not None or refused == (call is None)
                    assert filled == before and alone.keys() == before.keys(), (gid, m, constraints)

    @pytest.mark.parametrize("ineq", ["bst", "clique-max", "reverse-sidorenko"])
    def test_a_cell_over_the_bound_errors_as_on_its_own(self, ineq, monkeypatch):
        monkeypatch.setattr(errors, "WORK_LIMIT", 40)  # K5's plan works 62 at q = 2, P3's 14
        k5 = parse_graph_name("K5")
        model = scan.materialize_models({"kind": "named", "names": ["Kq-looped:2,1"]})[0][1]
        with pytest.raises(LimitExceeded) as info:
            check_instance(ineq, k5, model)
        summary = run_scan(ScanJob(ineq, {"kind": "named", "names": ["K5", "P3"]}, {"kind": "named", "names": ["Kq-looped:2,1"]}))
        assert summary.errors == [{"instance_id": "K5|Kq-looped:2,1", "error": "LimitExceeded: %s" % info.value}]
        assert summary.instances_checked == 1 and "exceeds 40 (n = " in str(info.value)


def _no_labeled_walk(*args, **kwargs):
    # An uncapped 8-vertex labeled source would walk 2^28 masks; fail at once.
    raise AssertionError("enumeration ran past the scan cap")


def run_cli(*args, env=None, timeout=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "homlab.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
    )


class TestCli:
    def test_serial_run_loads_no_process_pool(self):
        # Neither importing the CLI, nor a --jobs 1 scan, nor a --jobs 2
        # scan, whose workers are forked directly, adds a module of
        # concurrent or multiprocessing to sys.modules.
        code = (
            "import contextlib, io, os, sys\n"
            "before = set(sys.modules)\n"
            "import homlab.cli\n"
            "pool = lambda: sorted(m for m in set(sys.modules) - before if m.split('.')[0] in ('concurrent', 'multiprocessing'))\n"
            "print(pool())\n"
            "os.cpu_count = lambda: 2\n"
            "for jobs in '1', '2':\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        homlab.cli.main(['scan', '--ineq', 'bst', '--max-vertices', '4', '--models', 'hardcore', '--jobs', jobs])\n"
            "    print(pool())\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0 and res.stdout.split("\n") == ["[]", "[]", "[]", ""], res.stdout + res.stderr

    def test_count(self):
        res = run_cli("count", "--graph", "C6", "--model", "Kq:3")
        assert res.returncode == 0 and res.stdout.strip() == "66"

    def test_count_wr(self):
        res = run_cli("count", "--graph", "K1,4", "--model", "wr")
        assert res.stdout.strip() == "113"

    @staticmethod
    def _refused_in_bounded_memory(args, max_mib: int):
        """Run `homlab args` and check it exits 1 with one error line and
        no traceback, at under max_mib MiB max RSS.  A fresh parent process
        reads the peak of this one child, as RUSAGE_CHILDREN holds the
        largest child a process ever waited for."""
        code = (
            "import resource, subprocess, sys\n"
            "res = subprocess.run([sys.executable, '-m', 'homlab.cli', *sys.argv[1:]], capture_output=True, text=True)\n"
            "print(res.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
            "sys.stdout.write(res.stderr)\n"
        )
        res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60)
        head, *err = res.stdout.splitlines()
        returncode, max_rss_kib = map(int, head.split())
        assert returncode == 1 and len(err) == 1 and err[0].startswith("error:"), res.stdout
        assert max_rss_kib < max_mib * 1024, max_rss_kib

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
    def test_dense_graph_over_the_work_bound_fails_in_bounded_memory(self):
        # K1000's plan is far over the work bound.
        self._refused_in_bounded_memory(["count", "--graph", "K1000", "--model", "Kq:2"], 100)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
    def test_large_model_over_the_work_bound_fails_in_bounded_memory(self):
        # Kq:3162's q^2 + q + 1 weights are just over the work limit, so it
        # is refused before any weight is built (19 MB max RSS on CPython
        # 3.11; built, it took about 250 MB).
        self._refused_in_bounded_memory(["count", "--graph", "P2", "--model", "Kq:3162"], 50)

    def test_refused_work_bound_prints_one_short_line(self):
        # K1000's work bound has 302 digits; the error line shows three.
        res = run_cli("count", "--graph", "K1000", "--model", "Kq:2")
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr == "error: contraction work bound 2.14e+301 exceeds 10000000 (n = 1000, q = 2)\n"
        assert len(res.stderr) < 120

    def test_verify_holds_exit_zero(self):
        res = run_cli("verify", "--ineq", "reverse-sidorenko", "--graph", "C6", "--model", "Kq:3")
        assert res.returncode == 0 and "verdict=holds" in res.stdout

    def test_verify_violation_exit_two(self):
        res = run_cli("verify", "--ineq", "clique-max", "--graph", "K1,4", "--model", "wr")
        assert res.returncode == 2 and "verdict=violated" in res.stdout

    def test_verify_replay_file(self, tmp_path):
        s = run_scan(small_finding_job(graphs={"kind": "named", "names": ["K3"]}))
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(s.findings[0]["replay"]))
        res = run_cli("verify", "--replay", str(replay))
        assert res.returncode == 2 and "violated" in res.stdout

    def test_operational_error_exit_one(self):
        res = run_cli("count", "--graph", "Q17", "--model", "wr")
        assert res.returncode == 1

    def test_count_long_cycle(self):
        res = run_cli("count", "--graph", "C40", "--model", "Kq:3")
        assert res.returncode == 0 and res.stdout.strip() == "1099511627778"

    def test_count_over_work_limit_fails_fast(self):
        res = run_cli("count", "--graph", "K16", "--model", "Kq-looped:4,4")
        assert res.returncode == 1
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_clique_factor_on_large_star(self):
        res = run_cli("verify", "--ineq", "clique-max", "--graph", "S20", "--model", "Kq-looped:4,4", timeout=30)
        assert res.returncode == 0 and "verdict=equality" in res.stdout

    def test_clique_factor_over_work_limit_fails_fast(self):
        res = run_cli("verify", "--ineq", "clique-max", "--graph", "S19", "--model", "Kq:8", timeout=30)
        assert res.returncode == 1
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_biclique_factor_over_work_limit_fails_fast(self, tmp_path):
        # Two adjacent centres with 20 leaves each: the centre edge's
        # factor is K_{21,21}.
        edges = [(0, 1)] + [(0, v) for v in range(2, 22)] + [(1, v) for v in range(22, 42)]
        graph = tmp_path / "double-star.txt"
        graph.write_text("42 %d\n" % len(edges) + "".join("%d %d\n" % e for e in edges))
        res = run_cli("verify", "--ineq", "reverse-sidorenko", "--graph", str(graph), "--model", "Kq:8", timeout=30)
        assert res.returncode == 1
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "graph_text, model",
        [
            ("0 x\n", "Kq:3"),
            (None, "Kq:abc"),
            ("", "Kq:3"),
            ("-1 0\n", "Kq:2"),
            ('{"n": -2, "edges": []}', "Kq:2"),
            # The plan search is quadratic in n; this one is refused before it.
            ('{"n": 4000, "edges": []}', "Kq:2"),
        ],
        ids=["edge-list-token", "model-spec", "empty-graph-file", "negative-n-edge-list", "negative-n-json", "large-edgeless"],
    )
    def test_malformed_input_is_an_error_line(self, tmp_path, graph_text, model):
        graph = "C4"
        if graph_text is not None:
            graph = str(tmp_path / "g.txt")
            (tmp_path / "g.txt").write_text(graph_text)
        res = run_cli("count", "--graph", graph, "--model", model, timeout=30)
        assert res.returncode == 1
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_scan_verb(self, tmp_path):
        out = tmp_path / "scan.csv"
        res = run_cli(
            "scan",
            "--ineq",
            "reverse-sidorenko",
            "--max-vertices",
            "4",
            "--min-vertices",
            "2",
            "--triangle-free",
            "--no-isolated",
            "--models",
            "Kq:2,Kq:3",
            "--format",
            "csv",
            "--out",
            str(out),
        )
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("instance_id") and len(lines) > 1

    def test_scan_finding_exit_two(self):
        res = run_cli(
            "scan",
            "--ineq",
            "reverse-sidorenko",
            "--graphs",
            "K3",
            "--models",
            "heps:1/10",
            "--format",
            "text",
        )
        assert res.returncode == 2 and "FINDING" in res.stdout

    def test_scan_deduped_eight_vertices(self):
        # Orderly generation prunes triangle-free classes early, so n = 8 is cheap.
        res = run_cli(
            "scan",
            "--ineq",
            "reverse-sidorenko",
            "--min-vertices",
            "8",
            "--max-vertices",
            "8",
            "--triangle-free",
            "--no-isolated",
            "--models",
            "Kq:2",
            "--format",
            "text",
            timeout=60,
        )
        assert res.returncode == 0, res.stderr
        assert "instances checked: 303" in res.stdout and "violated=0" in res.stdout

    def test_scan_labeled_eight_vertices_is_an_error(self, monkeypatch, capsys):
        from homlab import cli

        graph_source = cli._graph_source_from_args
        monkeypatch.setattr(cli, "_graph_source_from_args", lambda args: {**graph_source(args), "dedup": False})
        monkeypatch.setattr(scan, "enumerate_graphs", _no_labeled_walk)
        rc = cli.main(["scan", "--ineq", "reverse-sidorenko", "--max-vertices", "8", "--models", "Kq:2"])
        err = capsys.readouterr().err
        assert rc == 1 and "error: scan enumeration bounds are limited to 7 vertices" in err
        assert "Traceback" not in err

    def test_scan_enumeration_caps(self, monkeypatch):
        from homlab.errors import InvalidArgument

        with monkeypatch.context() as m:
            m.setattr(scan, "enumerate_graphs", _no_labeled_walk)
            with pytest.raises(InvalidArgument, match="limited to 8 vertices"):
                scan.materialize_graphs({"kind": "enumerate", "max_vertices": 9, "dedup": True})
            with pytest.raises(InvalidArgument, match="limited to 7 vertices"):
                scan.materialize_graphs({"kind": "enumerate", "max_vertices": 8, "dedup": False})
        labeled = scan.materialize_graphs({"kind": "enumerate", "min_vertices": 3, "max_vertices": 3, "dedup": False})
        assert len(labeled) == 8

    def test_search_verb(self):
        res = run_cli(
            "search",
            "--ineq",
            "clique-max",
            "--graphs",
            "K1,3;K1,4",
            "--models",
            "wr",
        )
        assert res.returncode == 2
        findings = json.loads(res.stdout)
        assert any("K1,4" in f["instance_id"] for f in findings)

    def test_search_with_only_error_cells_exits_like_scan(self):
        grid = ("--ineq", "bst", "--graphs", "C4;K3,3", "--models", "Kq:3")
        res = run_cli("search", *grid)
        assert res.returncode == 1 and json.loads(res.stdout) == []
        assert res.stderr.splitlines() == [
            "error: %s|Kq:3: NotTwoSpin: the swapping bound is stated for 2-spin models" % g for g in ("C4", "K3,3")
        ]
        assert run_cli("scan", *grid).returncode == 1

    def test_lemma_verb(self):
        res = run_cli("lemma", "--id", "color-abc", "--seed", "3")
        assert res.returncode == 0 and "verdict" in res.stdout

    def test_lemma_file(self, tmp_path):
        from homlab.lemmas import lemma_instance_to_dict, random_lemma_instance

        inst = random_lemma_instance("mixed-norm", 7)
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(lemma_instance_to_dict(inst)))
        res = run_cli("lemma", "--file", str(f), "--format", "json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["verdict"] in ("holds", "equality")

    # At a = 14 the products of this m-log-conv instance exceed 10^308 as
    # floats; at a = 30 so do single coefficients of its sums.
    @pytest.mark.parametrize("a", [14, 30])
    def test_lemma_slack_past_float_range(self, tmp_path, a):
        from homlab.lemmas import lemma_instance_to_dict, random_lemma_instance

        inst = random_lemma_instance("m-log-conv", 3)
        inst.params.update(a=a, delta=a)
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(lemma_instance_to_dict(inst)))
        res = run_cli("lemma", "--file", str(f), "--format", "json", timeout=30)
        assert res.returncode == 0 and "Traceback" not in res.stderr
        assert json.loads(res.stdout)["verdict"] == "equality"

    def test_lemma_over_work_limit_fails_fast(self, tmp_path):
        from homlab.lemmas import LemmaInstance, lemma_instance_to_dict
        from homlab.models import Model

        m = Model.from_rows([[18, 7, 14], [7, Fraction(69, 4), 19], [14, 19, 24]])
        params = {"model": m, "a": 60, "b": 1, "delta": 60, "lam": (1, 3, 1), "mu": (Fraction(1, 2), Fraction(1, 2), 1)}
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(lemma_instance_to_dict(LemmaInstance("m-log-conv", params))))
        res = run_cli("lemma", "--file", str(f), timeout=30)
        assert res.returncode == 1
        assert res.stderr.startswith("error: m-log-conv work bound") and "Traceback" not in res.stderr

    def test_toy_verb(self):
        res = run_cli("toy-c6")
        assert res.returncode == 0
        assert res.stdout.count("verdict=") == 10

    def test_count_with_lists(self, tmp_path):
        lists = tmp_path / "lists.txt"
        lists.write_text("0: {0,2}\n1: {0,1}\n2: {1,2}\n3: {0,1,2}\n4: {0,2}\n5: {0,1,2}\n")
        res = run_cli("count", "--graph", "C6", "--model", "Kq:3", "--lists", str(lists))
        assert res.stdout.strip() == "17"

    def test_verify_with_lists(self, tmp_path):
        lists = tmp_path / "lists.txt"
        lists.write_text("0: {0,2}\n1: {0,1}\n2: {1,2}\n3: {0,1,2}\n4: {0,2}\n5: {0,1,2}\n")
        res = run_cli(
            "verify",
            "--ineq",
            "reverse-sidorenko",
            "--graph",
            "C6",
            "--model",
            "Kq:3",
            "--lists",
            str(lists),
        )
        assert res.returncode == 0 and "verdict=holds" in res.stdout

    @pytest.mark.parametrize("ineq", ["clique-max", "reverse-sidorenko"])
    def test_verify_rejects_negative_list_weights(self, tmp_path, ineq):
        lists = tmp_path / "lists.txt"
        lists.write_text("-1 0\n1 1\n")
        res = run_cli("verify", "--ineq", ineq, "--graph", "P2", "--model", "Kq:2", "--lists", str(lists))
        assert res.returncode == 1 and "Traceback" not in res.stderr
        assert res.stderr.startswith("error: constraint line '-1 0' has a negative weight")

    def test_bst_rejects_vertex_lists(self, tmp_path, capsys):
        # bst used to drop the lists and print the list-free verdict.
        lists = tmp_path / "lists.txt"
        lists.write_text("0: {0}\n")
        res = run_cli("verify", "--ineq", "bst", "--graph", "C4", "--model", "hardcore", "--lists", str(lists))
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr == "error: bst takes no vertex constraints\n"
        replay = tmp_path / "replay.json"
        from homlab.graphs import parse_graph_name
        from homlab.models import parse_model_name

        constraints = [(Fraction(1), Fraction(0))] * 4
        replay.write_text(json.dumps(scan.make_replay("bst", parse_graph_name("C4"), parse_model_name("hardcore"), constraints)))
        assert cli.main(["verify", "--replay", str(replay)]) == 1
        assert capsys.readouterr().err == "error: bst takes no vertex constraints\n"
        out = tmp_path / "scan.json"
        code = cli.main(["scan", "--ineq", "bst", "--graphs", "C4", "--models", "hardcore", "--list-seeds", "2", "--format", "json", "--out", str(out)])
        summary = json.loads(out.read_text())
        assert code == 1 and summary["rows"] == [] and summary["instances_checked"] == 0
        assert [e["instance_id"] for e in summary["errors"]] == ["C4|hardcore|lists:0", "C4|hardcore|lists:1"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x: {0}\n", "error: constraint line 'x: {0}' is neither weights nor"),
            ("1/2 abc\n", "error: constraint line '1/2 abc' is neither weights nor"),
            ("0: {5}\n", "error: constraint line '0: {5}' needs a vertex >= 0 and colors in 0..1"),
        ],
    )
    def test_malformed_list_lines_fail_fast(self, tmp_path, text, message):
        lists = tmp_path / "lists.txt"
        lists.write_text(text)
        res = run_cli("verify", "--ineq", "clique-max", "--graph", "P2", "--model", "Kq:2", "--lists", str(lists))
        assert res.returncode == 1 and "Traceback" not in res.stderr
        assert res.stderr.startswith(message)

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"lemma": "mixed-norm", "params": {"q": "x", "A": [["1"]], "B": [["1"]]}}, "error: q must be a rational"),
            ([1, 2], "error: not a lemma instance document"),
            ({"params": {}}, "error: not a lemma instance document"),
            ({"lemma": 3, "params": {}}, "error: not a lemma instance document"),
            ({"lemma": "sym-monotone", "params": [1]}, "error: not a lemma instance document"),
        ],
        ids=["document%d" % i for i in range(5)],
    )
    def test_malformed_lemma_files_fail_fast(self, tmp_path, document, message):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(document))
        res = run_cli("lemma", "--file", str(f))
        assert res.returncode == 1 and "Traceback" not in res.stderr
        assert res.stderr.startswith(message)

    # A ragged matrix and a missing parameter used to leak IndexError and
    # KeyError from inside the lemma code.
    @pytest.mark.parametrize(
        "document, message",
        [
            (
                {"lemma": "mixed-norm", "params": {"q": "2", "A": [["1", "2"], ["1"]], "B": [["1"], ["1"]]}},
                "error: A has 1 entries along na = 2",
            ),
            ({"lemma": "m-log-conv", "params": {"a": 2}}, "error: missing parameter model"),
            # A value that does not parse is named like any other bad parameter.
            ({"lemma": "mixed-norm", "params": {"q": "x", "A": [["1"]], "B": [["1"]]}}, "error: q must be a rational"),
            ({"lemma": "mixed-norm", "params": {"q": "1/0", "A": [["1"]], "B": [["1"]]}}, "error: q must be a rational"),
            (
                {"lemma": "mixed-norm", "params": {"q": "2", "A": [["1", "abc"]], "B": [["1"]]}},
                "error: A must be a nonempty rows x na array of rationals",
            ),
            (
                {"lemma": "h-log-convex", "params": {"model": {"__model__": {}}, "t": 2, "lam": ["1"], "nu": ["1"]}},
                "error: model is not a model document: ",
            ),
            (
                {
                    "lemma": "clique-cs",
                    "params": {
                        "graph": {"__graph__": {"n": -1, "edges": []}},
                        "model": {"__model__": {"q": 1, "edge_weights": [["1"]], "vertex_weights": ["1"]}},
                        "lam": [["1"]],
                        "nu": [["1"]],
                        "nu_apex": ["1"],
                    },
                },
                "error: graph is not a graph document: ",
            ),
            (
                {"lemma": "h-log-convex", "params": {"model": "Kq:3", "t": 2, "lam": ["1"], "nu": ["1"]}},
                "error: model must be a Model",
            ),
        ],
    )
    def test_lemma_file_parameters_fail_fast(self, tmp_path, document, message):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(document))
        res = run_cli("lemma", "--file", str(f))
        assert res.returncode == 1 and "Traceback" not in res.stderr
        assert res.stderr.startswith(message)

    @pytest.mark.parametrize(
        "args, text, message",
        [
            (["lemma", "--file"], "{not json", "error: not a lemma instance document: "),
            (["verify", "--replay"], "{not json", "error: not a replay document: "),
            (["verify", "--replay"], '{"ineq": "bst"}', "error: not a replay document: missing parameter graph"),
        ],
    )
    def test_malformed_documents_fail_fast(self, tmp_path, capsys, args, text, message):
        f = tmp_path / "doc.json"
        f.write_text(text)
        assert cli.main([*args, str(f)]) == 1
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--random-models", "psd"], "error: --random-models must be KIND,Q[,Q...], not 'psd'"),
            (["--random-models", "psd,x"], "error: --random-models must be KIND,Q[,Q...], not 'psd,x'"),
            (["--random-models", "psd,2", "--seeds", "a:b"], "error: --seeds must be 'lo:hi' or one seed, not 'a:b'"),
            (["--models", "Kq:2", "--list-seeds", "-1"], "error: --list-seeds must be >= 0, not -1"),
            (["--models", "Kq:2", "--jobs", "0"], "error: --jobs must be >= 1, not 0"),
            (["--models", "Kq:2", "--jobs", "-3"], "error: --jobs must be >= 1, not -3"),
            (["--complete-looped", "-2"], "error: --complete-looped must be >= 1, not -2"),
            (["--random-models", "psd,2", "--seeds", "5:2"], "error: --seeds range '5:2' is empty"),
        ],
    )
    def test_malformed_scan_flags_fail_fast(self, capsys, flags, message):
        assert cli.main(["scan", "--ineq", "clique-max", "--graphs", "C4", *flags]) == 1
        assert capsys.readouterr().err.startswith(message)

    def test_seed_range_is_sized_before_it_is_built(self, monkeypatch, capsys):
        # A range is measured from its two ends: 10^8 seeds used to build a
        # list of 10^8 ints and leak a MemoryError traceback.
        args = ["scan", "--ineq", "bst", "--max-vertices", "3", "--random-models", "antiferro-2spin,2", "--seeds", "0:100000000"]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == "error: seed-range work bound 100000000 exceeds 10000000 (--seeds '0:100000000')\n"
        monkeypatch.setattr(errors, "WORK_LIMIT", 5)
        assert cli._parse_seed_range("3:8") == range(3, 8)
        assert cli._parse_seed_range("9") == range(9, 10)
        with pytest.raises(LimitExceeded, match=re.escape("seed-range work bound 6 exceeds 5 (--seeds '3:9')")):
            cli._parse_seed_range("3:9")

    def test_constrained_reverse_sidorenko_report_is_pinned(self, tmp_path):
        # The report CI also compares on every Python of its matrix: biclique
        # factors under list constraints, and a seed range echoed as a list.
        out = tmp_path / "rs.json"
        args = ["scan", "--ineq", "reverse-sidorenko", "--max-vertices", "4", "--no-isolated", "--models", "wr,hardcore,Kq:3"]
        args += ["--random-models", "general,2,3", "--seeds", "0:4", "--list-seeds", "2", "--format", "json", "--jobs", "1", "--out", str(out)]
        assert cli.main(args) == 0
        assert out.read_bytes() == (pathlib.Path(__file__).parent / "data" / "rs-lists-n4.json").read_bytes()

    def test_refused_seed_range_is_never_listed(self, capsys):
        # --seeds stays a range until materialize_models sizes the source, so
        # a refused source costs one model, not a list of 10^7 seeds (about
        # 400 MB when the range was listed first).
        args = ["scan", "--ineq", "bst", "--max-vertices", "1", "--random-models", "antiferro-2spin,2", "--seeds", "0:10000000", "--jobs", "1"]
        tracemalloc.start()
        try:
            assert cli.main(args) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: random-models work bound 70000000 exceeds 10000000 (10000000 models)" and "Traceback" not in err
        assert peak < 10 * 2 ** 20

    def test_complete_looped_family_is_sized_before_it_is_built(self, monkeypatch, capsys):
        # Sum of (q + 1) * q^2 over q <= 78 is 9,653,800 weights, and 10,153,080
        # up to 79; counted with a stand-in model, so nothing large is built.
        built = []
        monkeypatch.setattr(scan, "model_complete_looped", lambda q, ell: built.append(q * q) or None)
        assert len(scan.materialize_models({"kind": "complete-looped", "max_q": 78})) == sum(q + 1 for q in range(1, 79))
        assert sum(built) == 9_653_800
        built.clear()
        for max_q in (79, 3000, 10 ** 9):
            with pytest.raises(LimitExceeded, match=r"complete-looped work bound \S+ exceeds 10000000 \(weights of the models up to q = %d\)" % max_q):
                scan.materialize_models({"kind": "complete-looped", "max_q": max_q})
        assert not built
        assert cli.main(["scan", "--ineq", "bst", "--max-vertices", "3", "--complete-looped", "3000"]) == 1
        assert capsys.readouterr().err == "scanning bst ...\nerror: complete-looped work bound 20272506750500 exceeds 10000000 (weights of the models up to q = 3000)\n"

    def test_random_model_source_is_sized_before_it_is_built(self, monkeypatch, capsys):
        # Seed i takes q = qs[i % len(qs)], and a model counts q^2 + q + 1
        # weights: five seeds over q = 2, 3 take 7 + 13 + 7 + 13 + 7 = 47.
        # Counted with a stand-in model and a small limit, so nothing large
        # is built; one model per q is built before the source is sized.
        built = []
        monkeypatch.setattr(scan, "random_model", lambda q, seed, kind: built.append(q) or None)
        monkeypatch.setattr(errors, "WORK_LIMIT", 47)
        source = {"kind": "random", "rand_kind": "psd", "qs": [2, 3], "seeds": list(range(5))}
        assert len(scan.materialize_models(source)) == 5 and built == [2, 3, 2, 3, 2]
        built.clear()
        source["seeds"] = list(range(6))
        with pytest.raises(LimitExceeded, match=re.escape("random-models work bound 60 exceeds 47 (6 models)")):
            scan.materialize_models(source)
        assert built == [2, 3]
        built.clear()
        args = ["scan", "--ineq", "bst", "--graphs", "C4", "--random-models", "antiferro-2spin,2", "--seeds", "0:10", "--jobs", "1"]
        assert cli.main(args) == 1
        assert built == [2]
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: random-models work bound 70 exceeds 47 (10 models)" and "Traceback" not in err

    def test_random_model_source_refuses_q_and_kind_before_its_size(self):
        # A q = 1 source takes 3 weights per seed, so 10^7 seeds are refused;
        # the seeds are a range and one model is built.
        source = {"kind": "random", "rand_kind": "general", "qs": [1], "seeds": range(10 ** 7)}
        with pytest.raises(LimitExceeded, match=re.escape("random-models work bound 30000000 exceeds 10000000 (10000000 models)")):
            scan.materialize_models(source)
        # Too large to build, yet the bad q or kind is what gets reported.
        for rand_kind, qs, message in (
            ("general", [2, 9], "random models limited to q <= 8"),
            ("antiferro-2spin", [3], "antiferro-2spin models have q = 2"),
            ("nope", [2], "unknown random model kind 'nope'"),
        ):
            source = {"kind": "random", "rand_kind": rand_kind, "qs": qs, "seeds": range(10 ** 7)}
            with pytest.raises(InvalidArgument, match=message):
                scan.materialize_models(source)

    def test_list_seeds_are_sized_before_they_are_built(self, capsys):
        # 10^9 list seeds used to build a list of 10^9 ints and leak a MemoryError traceback.
        args = ["scan", "--ineq", "bst", "--graphs", "C4", "--models", "hardcore", "--list-seeds", "1000000000", "--jobs", "1"]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == "error: list-seeds work bound 1000000000 exceeds 10000000 (--list-seeds 1000000000)\n"

    def test_grid_is_sized_before_any_model_is_built(self, monkeypatch, capsys):
        # 4 graphs x 3 * 10^6 q = 1 models take 9 * 10^6 weights, under the
        # limit, but make 1.2 * 10^7 cells: refused before a model is built
        # (about 1 GB of models), by scan and search alike.
        def no_models(source):
            raise AssertionError("models built before the grid was sized")

        monkeypatch.setattr(scan, "materialize_models", no_models)
        graphs = {"kind": "named", "names": ["K2", "K3", "C4", "C5"]}
        job = ScanJob("clique-max", graphs, {"kind": "random", "rand_kind": "general", "qs": [1], "seeds": range(3 * 10 ** 6)})
        for budget in (None, 10):
            with pytest.raises(LimitExceeded, match=re.escape("scan-grid work bound 12000000 exceeds 10000000 (cells of 4 graphs x 3000000 models x 1 list seeds)")):
                run_scan(job, budget)
        # Models times list seeds: 2 models x 5 * 10^6 list seeds on one graph.
        job = ScanJob("clique-max", {"kind": "named", "names": ["C4"]}, {"kind": "named", "names": ["wr", "Kq:2"]}, {"kind": "random", "seeds": range(5 * 10 ** 6 + 1)})
        with pytest.raises(LimitExceeded, match=re.escape("scan-grid work bound 10000002 exceeds 10000000 (cells of 1 graphs x 2 models x 5000001 list seeds)")):
            run_scan(job)
        args = ["scan", "--ineq", "clique-max", "--graphs", "K2;K3;C4;C5", "--random-models", "general,1", "--seeds", "0:3000000", "--jobs", "1"]
        grid = "scan-grid work bound 12000000 exceeds 10000000 (cells of 4 graphs x 3000000 models x 1 list seeds)"
        assert cli.main(args) == 1
        assert capsys.readouterr().err == "scanning clique-max ...\nerror: %s\n" % grid
        assert cli.main(["search", "--ineq", "clique-max", "--graphs", "K2;K3;C4;C5", "--random-models", "general,1", "--seeds", "0:3000000"]) == 1
        assert capsys.readouterr().err == "error: %s\n" % grid

    def test_models_are_counted_as_built(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(scan.model_to_dict(scan.parse_model_name("wr"))))
        sources = [
            {"kind": "named", "names": ["wr", "hardcore", "Kq:3"]},
            {"kind": "files", "paths": [str(path)] * 2},
            {"kind": "random", "rand_kind": "psd", "qs": [2, 3], "seeds": range(7)},
            *({"kind": "complete-looped", "max_q": t} for t in (-1, 0, 1, 2, 5)),
        ]
        sources.append({"kind": "union", "parts": sources[:4]})
        for source in sources:
            assert scan.count_models(source) == len(scan.materialize_models(source)), source

    def test_negative_search_budget_fails_fast(self, capsys):
        # A budget of -1 used to slice off the grid's last cell.
        assert cli.main(["search", "--ineq", "clique-max", "--graphs", "C4", "--models", "Kq:2", "--budget", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: --budget must be >= 0, not -1")

    def test_graph_file_formats(self, tmp_path):
        edge_file = tmp_path / "g.txt"
        edge_file.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
        res = run_cli("count", "--graph", str(edge_file), "--model", "hardcore")
        assert res.stdout.strip() == "7"
        json_file = tmp_path / "g.json"
        json_file.write_text('{"n": 4, "edges": [[0,1],[1,2],[2,3],[0,3]]}')
        res = run_cli("count", "--graph", str(json_file), "--model", "hardcore")
        assert res.stdout.strip() == "7"

    def test_verify_large_instance_is_exact(self, tmp_path):
        # K11 minus 11 edges against a general 2-spin model: the cleared
        # comparison would need about 2.9e7 bits, so the coprime basis
        # decides it.
        missing = {(0, 3), (0, 10), (1, 3), (2, 3), (2, 6), (2, 10), (4, 8), (4, 9), (4, 10), (7, 9), (9, 10)}
        edges = [(u, v) for u in range(11) for v in range(u + 1, 11) if (u, v) not in missing]
        graph = tmp_path / "g.txt"
        graph.write_text("11 %d\n" % len(edges) + "".join("%d %d\n" % e for e in edges))
        args = ("--ineq", "reverse-sidorenko", "--graph", str(graph), "--model", "random:general,2,0")
        res = run_cli("verify", *args, "--format", "json", timeout=60)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["verdict"] == "holds" and report["exact"] is True


class TestConstraintFiles:
    def test_weight_lines(self):
        from homlab.fileio import parse_constraints

        cons = parse_constraints("1/2 0 3\n1 1 1\n", 3, 2)
        from fractions import Fraction

        assert cons[0] == (Fraction(1, 2), Fraction(0), Fraction(3))

    def test_shorthand(self):
        from homlab.fileio import parse_constraints

        cons = parse_constraints("0: {0,2}\n1: {1}\n", 3, 2)
        assert cons[0] == (1, 0, 1) and cons[1] == (0, 1, 0)
        # Every vertex of the graph gets a vector, and an unlisted one, the
        # last ones included, allows every color.
        assert parse_constraints("0: {0}\n", 2, 4) == [(1, 0), (1, 1), (1, 1), (1, 1)]
        assert parse_constraints("3: {1}\n0: {0}\n", 2, 4) == [(1, 0), (1, 1), (1, 1), (0, 1)]

    def test_model_file_round_trip(self, tmp_path):
        from homlab.fileio import load_model, model_to_dict
        from homlab.models import model_widom_rowlinson

        m = model_widom_rowlinson()
        path = tmp_path / "wr.json"
        path.write_text(json.dumps(model_to_dict(m)))
        assert load_model(str(path)) == m
        # looped_set is written for reference; the diagonal decides it on read.
        path.write_text(json.dumps({**model_to_dict(m), "looped_set": [1]}))
        assert load_model(str(path)).looped_set == {0, 1, 2}


# A placeholder for the bare JSON number 1e400, which json.loads reads as
# an infinite float; json.dump would write Infinity instead.
OVERFLOW = "<1e400>"
BAD_VALUES = (0.1, OVERFLOW, "1e100000000", 10**9, -1, "x", {}, [], None)
BAD_TOKENS = ("0.1", "1e400", "1e100000000", "1000000000", "-1", "x", "")


class OverBudget(Exception):
    pass


def _slots(value):
    """(holder, key) of every value under a JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield value, key
        yield from _slots(child)


def _input_files():
    """(kind, text, argv before the file's path) of a valid file of each kind."""
    from homlab.fileio import graph_to_dict, model_to_dict
    from homlab.graphs import parse_graph_name
    from homlab.models import random_model

    m, g = random_model(2, 3, "general"), parse_graph_name("C5")
    replay = scan.make_replay("clique-max", g, m, [(Fraction(1), Fraction(1, 2))] * 5)
    return [
        ("model", model_to_dict(m), ["count", "--graph", "C4", "--model"]),
        ("graph", graph_to_dict(g), ["count", "--model", "Kq:2", "--graph"]),
        ("replay", replay, ["verify", "--replay"]),
        ("lists", "0: {0,1}\n1: {1}\n2: {0}\n", ["count", "--graph", "C4", "--model", "Kq:2", "--lists"]),
        ("lists", "1 1/2\n0 1\n1 1\n1 0\n", ["count", "--graph", "C4", "--model", "Kq:2", "--lists"]),
    ]


class TestInputFileFuzz:
    """Model, graph, replay and list files, each with one field dropped or
    replaced (by a wrong type, a JSON float, 1e400, an exponent string, or
    a huge count or index), or one token of a list file replaced, through
    cli.main in-process: each run ends within its budget in exit 0, 1 or 2,
    with an error: line on exit 1, and no exception escapes."""

    BUDGET_S = 5

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from(_input_files()), st.data())
    def test_mutated_file_exits_cleanly(self, file, data):
        kind, doc, argv = file
        if kind == "lists":
            tokens = re.split(r"([\s:{},/]+)", doc)
            i = data.draw(st.sampled_from(range(0, len(tokens), 2)))
            tokens[i] = data.draw(st.sampled_from(BAD_TOKENS))
            text = "".join(tokens)
        else:
            doc = json.loads(json.dumps(doc))
            holder, key = data.draw(st.sampled_from(list(_slots(doc))))
            bad = data.draw(st.sampled_from(("drop",) + BAD_VALUES))
            if bad == "drop":
                del holder[key]
            else:
                holder[key] = bad
            text = json.dumps(doc).replace(json.dumps(OVERFLOW), "1e400")

        def over_budget(signum, frame):
            raise OverBudget("%s file over %d s: %r" % (kind, self.BUDGET_S, text[:200]))

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, kind)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            previous = signal.signal(signal.SIGALRM, over_budget)
            signal.setitimer(signal.ITIMER_REAL, self.BUDGET_S)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([*argv, path])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1, 2), text
        if code == 1:
            assert err.getvalue().startswith("error: "), (text, err.getvalue())
