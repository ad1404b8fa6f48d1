"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Tolerances are exact (integer/rational equality and
exact comparator verdicts) throughout; the stated time budgets are noted
in comments next to each criterion.
"""

import time
from fractions import Fraction

import pytest

from conftest import (
    eps_low_coefficients,
    hom_oracle,
    independent_set_count_oracle,
    two_spin_is_antiferromagnetic,
    two_spin_is_ferromagnetic,
)
from homlab.counting import (
    cc,
    hom,
    hom_eps_polynomial,
)
from homlab.graphs import GraphFamilySpec, build_named, enumerate_graphs, tensor_with_k2
from homlab.inequalities import (
    check_bst,
    check_reverse_sidorenko,
    check_sym_monotone,
    swap_injection_check,
    sym_average_products,
)
from homlab.lemmas import LEMMA_IDS, check_local_lemma, random_lemma_instance
from homlab.models import (
    Model,
    classify_model,
    model_complete_looped,
    model_h_eps,
    model_hardcore,
    model_widom_rowlinson,
    random_model,
)
from homlab.power import PowerProduct, compare_power_products
from homlab.scan import ScanJob, run_scan
from homlab.toy import reproduce_toy_c6


def named(kind, *params):
    return build_named(GraphFamilySpec(kind, tuple(params)))


def announce(number: int, label: str, started: float):
    print("ACCEPTANCE %2d PASS (%.1fs): %s" % (number, time.time() - started, label))


class TestAcceptance:
    def test_01_exact_counts(self):
        # budget: < 1 s
        t0 = time.time()
        c6 = named("cycle", 6)
        k22 = named("biclique", 2, 2)
        k3m = model_complete_looped(3, 0)
        hc = model_hardcore()
        wr = model_widom_rowlinson()
        cases = [
            (c6, k3m, 66),
            (k22, k3m, 18),
            (c6, hc, 18),
            (k22, hc, 7),
            (named("complete", 2), wr, 7),
            (named("complete", 5), wr, 63),
            (named("biclique", 1, 4), wr, 113),
        ]
        for g, m, expected in cases:
            assert hom(g, m) == expected
            assert hom_oracle(g, m) == expected
        assert independent_set_count_oracle(c6) == 18
        assert independent_set_count_oracle(k22) == 7
        announce(1, "seven exact counts against the brute-force oracle", t0)

    def test_02_regular_bounds_decided_exactly(self):
        # budget: < 1 s
        t0 = time.time()
        got = compare_power_products(
            PowerProduct.of((66, 1)), PowerProduct.of((18, Fraction(3, 2)))
        )
        assert got == ("less", True)
        assert 66 ** 2 == 4356 and 18 ** 3 == 5832
        got = compare_power_products(
            PowerProduct.of((18, 1)), PowerProduct.of((7, Fraction(6, 4)))
        )
        assert got == ("less", True)
        assert 18 ** 4 == 104976 and 7 ** 6 == 117649
        rep = check_reverse_sidorenko(named("cycle", 6), model_complete_looped(3, 0))
        assert rep.verdict == "holds" and rep.exact
        rep = check_reverse_sidorenko(named("cycle", 6), model_hardcore())
        assert rep.verdict == "holds" and rep.exact
        announce(2, "66^2 <= 18^3 and 18^4 <= 7^6 on the exact path", t0)

    def test_03_widom_rowlinson_violation(self):
        # budget: < 1 s
        t0 = time.time()
        got = compare_power_products(
            PowerProduct.of((113, 1)), PowerProduct.of((7, 2), (63, Fraction(1, 5)))
        )
        assert got == ("greater", True)
        assert 113 ** 5 == 18424351793
        assert 7 ** 10 * 63 == 17795940687
        announce(3, "113 > 7^2 * 63^{1/5} via cleared big integers", t0)

    def test_04_eps_expansion_all_graphs_up_to_six(self):
        # budget: < 30 s
        t0 = time.time()
        checked = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n, dedup_isomorphism=True):
                poly = hom_eps_polynomial(g)
                padded = poly.coefficients + (Fraction(0),) * 4
                assert padded[:4] == eps_low_coefficients(g), g
                checked += 1
        assert checked == 208
        announce(4, "eps expansion (1, |E|, C(|E|,2), C(|E|,3)+|T|) on %d graphs" % checked, t0)

    def test_05_triangle_necessity(self):
        # budget: < 10 s
        t0 = time.time()
        rep = check_reverse_sidorenko(named("complete", 3), model_h_eps(Fraction(1, 10)))
        assert rep.verdict == "violated" and rep.exact
        job = ScanJob(
            ineq="reverse-sidorenko",
            graphs={
                "kind": "enumerate",
                "min_vertices": 3,
                "max_vertices": 5,
                "no_isolated": True,
                "require_triangle": True,
                "dedup": True,
            },
            models={"kind": "named", "names": ["heps:1/10"]},
        )
        summary = run_scan(job)
        assert len(summary.findings) >= 1
        assert any(f["instance_id"].startswith("n3-m7|") for f in summary.findings)
        announce(5, "triangle counterexample family: %d findings, K_3 included" % len(summary.findings), t0)

    def test_06_toy_reproduction(self):
        # budget: < 1 s
        t0 = time.time()
        reports = reproduce_toy_c6()
        by_step = {r.ineq.removeprefix("toy-c6:"): r.verdict for r in reports}
        assert all(v in ("holds", "equality") for v in by_step.values())
        assert by_step["condition-on-first-vertex"] == "equality"
        assert by_step["four-cycle-identity"] == "equality"
        assert by_step["post-cauchy-schwarz-bottom"] == "equality"
        announce(6, "all %d toy steps verified, required equalities exact" % len(reports), t0)

    def test_07_reverse_sidorenko_scan(self):
        # budget: <= 10 min single-threaded
        t0 = time.time()
        job = ScanJob(
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
                    {
                        "kind": "random",
                        "rand_kind": "general",
                        "qs": [2, 3, 4],
                        "seeds": list(range(50)),
                    },
                ],
            },
        )
        summary = run_scan(job)
        assert summary.histogram["violated"] == 0
        assert not summary.errors
        announce(7, "reverse-sidorenko scan: %d instances, zero violations" % summary.instances_checked, t0)

    def test_08_semiproper_list_scan(self):
        # budget: <= 5 min
        t0 = time.time()
        job = ScanJob(
            ineq="reverse-sidorenko",
            graphs={
                "kind": "enumerate",
                "min_vertices": 2,
                "max_vertices": 5,
                "no_isolated": True,
                "dedup": True,
            },
            models={"kind": "complete-looped", "max_q": 3},
            lists={"kind": "random", "seeds": list(range(20))},
        )
        summary = run_scan(job)
        assert summary.histogram["violated"] == 0
        assert not summary.errors
        announce(8, "semiproper list scan: %d instances, zero violations" % summary.instances_checked, t0)

    def test_09_clique_max_scan(self):
        # budget: <= 10 min
        t0 = time.time()
        job = ScanJob(
            ineq="clique-max",
            graphs={"kind": "enumerate", "min_vertices": 1, "max_vertices": 6, "dedup": True},
            models={
                "kind": "random",
                "rand_kind": "psd",
                "qs": [2, 3, 4],
                "seeds": list(range(50)),
            },
        )
        summary = run_scan(job)
        assert summary.histogram["violated"] == 0
        assert not summary.errors
        announce(9, "clique-max scan: %d instances, zero violations" % summary.instances_checked, t0)

    def test_10_swapping_trick(self):
        # budget: <= 5 min
        t0 = time.time()
        job = ScanJob(
            ineq="bst",
            graphs={"kind": "enumerate", "min_vertices": 1, "max_vertices": 6, "dedup": True},
            models={
                "kind": "random",
                "rand_kind": "antiferro-2spin",
                "qs": [2],
                "seeds": list(range(50)),
            },
        )
        summary = run_scan(job)
        assert summary.histogram["violated"] == 0
        assert not summary.errors
        pairs = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n, dedup_isomorphism=True):
                res = swap_injection_check(g)
                assert res["images_distinct"] and res["images_valid"], g
                pairs += res["pairs"]
        announce(
            10,
            "swapping bound: %d instances, injection checked on %d pairs" % (summary.instances_checked, pairs),
            t0,
        )

    def test_11_lemma_battery(self):
        # budget: <= 10 min
        t0 = time.time()
        for lemma_id in LEMMA_IDS:
            for seed in range(200):
                rep = check_local_lemma(random_lemma_instance(lemma_id, seed))
                assert rep.verdict in ("holds", "equality"), (lemma_id, seed)
                assert rep.exact
        # exhaustive monotonicity grid: numerators <= 4, denominators <= 3,
        # n <= 4, k <= 5; the averages are symmetric, so multisets suffice.
        values = sorted(
            {Fraction(p, q) for p in range(5) for q in range(1, 4)}
        )
        from itertools import combinations_with_replacement

        grid_instances = 0
        for n in range(1, 5):
            for alphas in combinations_with_replacement(values, n):
                for k in range(1, 6):
                    ms = sym_average_products(alphas, k)
                    assert all(a >= b for a, b in zip(ms, ms[1:])), (alphas, k)
                    grid_instances += 1
        import random as rnd

        rng = rnd.Random(1105)
        for _ in range(1000):
            n = rng.randrange(1, 5)
            alphas = [Fraction(rng.randrange(0, 9), rng.randrange(1, 7)) for _ in range(n)]
            k = rng.randrange(1, 6)
            ms = sym_average_products(alphas, k)
            assert all(a >= b for a, b in zip(ms, ms[1:])), (alphas, k)
        announce(
            11,
            "13 lemma ids x 200 seeds + %d grid + 1000 random monotonicity instances" % grid_instances,
            t0,
        )

    def test_12_classification(self):
        # budget: < 10 s
        t0 = time.time()
        c = classify_model(Model.from_rows([[1, 1, 1], [1, 1, 0], [1, 0, 0]]))
        assert not c.antiferromagnetic and not c.ferromagnetic
        for q in range(1, 6):
            adjacency = [[1 if i != j else 0 for j in range(q)] for i in range(q)]
            c = classify_model(Model.from_rows(adjacency))
            assert c.antiferromagnetic, q
        for seed in range(1000):
            m = random_model(2, seed, "general")
            c = classify_model(m)
            assert c.ferromagnetic == two_spin_is_ferromagnetic(m)
            assert c.antiferromagnetic == two_spin_is_antiferromagnetic(m)
        announce(12, "classification: paper matrix, K_q spectra, 1000 two-spin models", t0)
