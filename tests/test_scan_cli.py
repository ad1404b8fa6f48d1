import dataclasses
import json
import subprocess
import sys

import pytest

from homlab import scan
from homlab.inequalities import check_reverse_sidorenko
from homlab.scan import (
    ScanJob,
    emit_report,
    parse_summary,
    replay_finding,
    run_scan,
    search_counterexample,
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

    def test_findings_replay(self):
        s = run_scan(small_finding_job())
        assert s.findings
        for f in s.findings:
            rep = replay_finding(f["replay"])
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


class TestFactorMemo:
    @pytest.mark.parametrize("job", [ACCEPTANCE_7_JOB, ACCEPTANCE_8_JOB], ids=["acceptance-7", "acceptance-8-lists"])
    def test_reports_match_memo_free_cells(self, job, monkeypatch):
        with monkeypatch.context() as patch:
            # Every cell decided on its own, with no memo shared between cells.
            patch.setattr(
                scan,
                "check_reverse_sidorenko",
                lambda g, m, constraints=None, memo=None: check_reverse_sidorenko(g, m, constraints),
            )
            expected = {jobs: emit_report(run_scan(ScanJob(jobs=jobs, **job)), "json") for jobs in (1, 2)}
        for jobs in (1, 2):
            assert emit_report(run_scan(ScanJob(jobs=jobs, **job)), "json") == expected[jobs]

    def test_memo_empty_after_scan(self):
        job = ScanJob(
            ineq="reverse-sidorenko",
            graphs={"kind": "enumerate", "min_vertices": 1, "max_vertices": 3, "dedup": True},
            models={"kind": "named", "names": ["Kq:3", "hardcore"]},
        )
        s = run_scan(job)
        # Graphs with an isolated vertex raise IsolatedVertex in their cells.
        assert s.errors and s.rows
        assert scan._FACTOR_MEMO == {}

    def test_memo_empty_after_scan_raises(self, monkeypatch):
        def fail(report):
            assert scan._FACTOR_MEMO
            raise RuntimeError("stop")

        monkeypatch.setattr(scan, "report_to_dict", fail)
        with pytest.raises(RuntimeError):
            run_scan(small_finding_job(graphs={"kind": "named", "names": ["C4"]}, models={"kind": "named", "names": ["Kq:3"]}))
        assert scan._FACTOR_MEMO == {}


class TestSearch:
    def test_finds_widom_rowlinson_star(self):
        findings = search_counterexample(
            "clique-max",
            {"kind": "named", "names": ["K1,1", "K1,2", "K1,3", "K1,4", "K1,5"]},
            {"kind": "named", "names": ["wr"]},
            budget=100,
        )
        ids = [f["instance_id"] for f in findings]
        assert any("K1,4" in i for i in ids)

    def test_empty_result_is_fine(self):
        findings = search_counterexample(
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
            budget=10000,
        )
        assert findings == []


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
        assert parse_summary(emit_report(s, "json")).to_dict() == s.to_dict()

    def test_text_format(self):
        s = run_scan(small_finding_job())
        text = emit_report(s, "text")
        assert "FINDING" in text and "instances checked" in text


def run_cli(*args, env=None, timeout=None):
    import os

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
    def test_count(self):
        res = run_cli("count", "--graph", "C6", "--model", "Kq:3")
        assert res.returncode == 0 and res.stdout.strip() == "66"

    def test_count_wr(self):
        res = run_cli("count", "--graph", "K1,4", "--model", "wr")
        assert res.stdout.strip() == "113"

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
        [("0 x\n", "Kq:3"), (None, "Kq:abc"), ("", "Kq:3")],
        ids=["edge-list-token", "model-spec", "empty-graph-file"],
    )
    def test_malformed_input_is_an_error_line(self, tmp_path, graph_text, model):
        graph = "C4"
        if graph_text is not None:
            graph = str(tmp_path / "g.txt")
            (tmp_path / "g.txt").write_text(graph_text)
        res = run_cli("count", "--graph", graph, "--model", model)
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

    def test_lemma_verb(self):
        res = run_cli("lemma", "--id", "color-abc", "--seed", "3")
        assert res.returncode == 0 and "verdict" in res.stdout

    def test_lemma_file(self, tmp_path):
        from homlab.fileio import lemma_instance_to_dict
        from homlab.lemmas import random_lemma_instance

        inst = random_lemma_instance("mixed-norm", 7)
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(lemma_instance_to_dict(inst)))
        res = run_cli("lemma", "--file", str(f), "--format", "json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["verdict"] in ("holds", "equality")

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

        cons = parse_constraints("1/2 0 3\n1 1 1\n", 3)
        from fractions import Fraction

        assert cons[0] == (Fraction(1, 2), Fraction(0), Fraction(3))

    def test_shorthand(self):
        from homlab.fileio import parse_constraints

        cons = parse_constraints("0: {0,2}\n1: {1}\n", 3)
        assert cons[0] == (1, 0, 1) and cons[1] == (0, 1, 0)

    def test_model_file_round_trip(self, tmp_path):
        from homlab.fileio import load_model, model_to_dict
        from homlab.models import model_widom_rowlinson

        m = model_widom_rowlinson()
        path = tmp_path / "wr.json"
        path.write_text(json.dumps(model_to_dict(m)))
        assert load_model(str(path)) == m
