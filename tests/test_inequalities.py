import random
import time
from fractions import Fraction

import pytest

from conftest import independent_set_count_oracle
from homlab.counting import hom, hom_clique
from homlab.errors import IsolatedVertex, NotTwoSpin
from homlab.graphs import (
    Graph,
    GraphFamilySpec,
    build_named,
    enumerate_graphs,
    tensor_with_k2,
)
from homlab.inequalities import (
    check_bst,
    check_clique_max,
    check_graphical_bl,
    check_reverse_sidorenko,
    check_sym_monotone,
    independent_set_masks,
    swap_injection_check,
)
from homlab.models import (
    Model,
    classify_model,
    model_complete_looped,
    model_h_eps,
    model_hardcore,
    model_widom_rowlinson,
    random_model,
)
from homlab.power import CLEARING_MAX_BITS, _compare_by_basis, _compare_by_clearing, _exact_bit_estimate
from homlab.ratmath import lcm_many


def named(kind, *params):
    return build_named(GraphFamilySpec(kind, tuple(params)))


class TestReverseSidorenko:
    def test_c6_against_three_colorings(self):
        rep = check_reverse_sidorenko(named("cycle", 6), model_complete_looped(3, 0))
        assert rep.verdict == "holds" and rep.exact
        assert rep.lhs.as_fraction() == 66
        assert rep.rhs.factors == ((Fraction(18), Fraction(3, 2)),)

    def test_biclique_equality_any_model(self):
        g = named("biclique", 2, 2)
        for m in (model_complete_looped(4, 1), model_widom_rowlinson(), random_model(3, 3, "general")):
            assert check_reverse_sidorenko(g, m).verdict == "equality"

    def test_triangle_violation_exact(self):
        rep = check_reverse_sidorenko(named("complete", 3), model_h_eps(Fraction(1, 10)))
        assert rep.verdict == "violated" and rep.exact
        # LHS = 1 + 3e + 3e^2 + 2e^3 at e = 1/10
        assert rep.lhs.as_fraction() == Fraction(333, 250)
        # RHS base = 1 + 4e + 6e^2 + 4e^3 + 2e^4 at e = 1/10
        from homlab.counting import hom_eps_polynomial

        base = hom_eps_polynomial(named("cycle", 4))(Fraction(1, 10))
        assert base == Fraction(7321, 5000)
        assert rep.rhs.factors == ((base, Fraction(3, 4)),)
        # cleared comparison: (333/250)^4 > (7321/5000)^3
        assert Fraction(333, 250) ** 4 > Fraction(7321, 5000) ** 3

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertex):
            check_reverse_sidorenko(Graph.from_edges(3, [(0, 1)]), model_hardcore())

    def test_scale_free_verdicts(self):
        rng = random.Random(17)
        g = named("cycle", 5)
        m = random_model(3, 1, "general")
        base = check_reverse_sidorenko(g, m).verdict
        for _ in range(10):
            c = Fraction(rng.randrange(1, 12), rng.randrange(1, 12))
            assert check_reverse_sidorenko(g, m.scaled_edges(c)).verdict == base

    def test_triangle_free_small_sweep(self):
        models = [model_complete_looped(q, ell) for q in range(1, 4) for ell in range(q + 1)]
        models += [random_model(3, s, "general") for s in range(5)]
        for n in range(2, 6):
            for g in enumerate_graphs(n, dedup_isomorphism=True, triangle_free=True, no_isolated=True):
                for m in models:
                    rep = check_reverse_sidorenko(g, m)
                    assert rep.verdict in ("holds", "equality"), (g, m)

    def test_semiproper_list_instances_with_triangles(self):
        rng = random.Random(23)
        for n in range(2, 5):
            for g in enumerate_graphs(n, dedup_isomorphism=True, no_isolated=True):
                for q in range(1, 4):
                    for ell in range(q + 1):
                        m = model_complete_looped(q, ell)
                        for _ in range(3):
                            cons = [
                                tuple(
                                    Fraction(1 if rng.random() < 0.6 else 0) for _ in range(q)
                                )
                                for _ in range(g.n)
                            ]
                            rep = check_reverse_sidorenko(g, m, cons)
                            assert rep.verdict in ("holds", "equality"), (g, q, ell, cons)


class TestReverseSidorenkoMemo:
    def test_memo_gives_the_same_report(self):
        rng = random.Random(41)
        for n in range(2, 6):
            for g in enumerate_graphs(n, dedup_isomorphism=True, no_isolated=True):
                m = random_model(rng.randrange(2, 4), rng.randrange(100), "general")
                cons = [tuple(Fraction(rng.randrange(2)) for _ in range(m.q)) for _ in range(g.n)]
                for constraints in (None, cons):
                    memo = {}
                    first = check_reverse_sidorenko(g, m, constraints, memo=memo)
                    assert first == check_reverse_sidorenko(g, m, constraints)
                    assert check_reverse_sidorenko(g, m, constraints, memo=memo) == first

    def test_memo_is_keyed_by_degrees_and_side_constraints(self):
        g = named("cycle", 6)
        m = model_complete_looped(3, 0)
        memo = {}
        check_reverse_sidorenko(g, m, memo=memo)
        assert memo == {(2, 2, None, None): Fraction(18)}
        lam = (Fraction(1), Fraction(1), Fraction(0))
        full = (Fraction(1),) * 3
        cons = [lam, full] * 3
        check_reverse_sidorenko(g, m, cons, memo=memo)
        assert set(memo) == {(2, 2, None, None), (2, 2, lam, full), (2, 2, full, lam)}

    def test_memo_entries_are_used(self):
        # A planted factor shows that the memo is read before computing.
        g = named("cycle", 6)
        m = model_complete_looped(3, 0)
        assert check_reverse_sidorenko(g, m).verdict == "holds"
        planted = {(2, 2, None, None): Fraction(1)}
        assert check_reverse_sidorenko(g, m, memo=planted).verdict == "violated"


class TestLargeReverseSidorenko:
    """Cells whose cleared comparison would be too large to clear cheaply
    are decided exactly over a coprime basis."""

    @staticmethod
    def cleared_bits(rep):
        diff = (rep.lhs * rep.rhs ** -1).factors
        return diff, _exact_bit_estimate(diff, lcm_many(e.denominator for _, e in diff))

    def test_above_ten_million_bits_is_exact_and_fast(self):
        missing = {(0, 3), (0, 10), (1, 3), (2, 3), (2, 6), (2, 10), (4, 8), (4, 9), (4, 10), (7, 9), (9, 10)}
        g = Graph.from_edges(11, [(u, v) for u in range(11) for v in range(u + 1, 11) if (u, v) not in missing])
        m = random_model(2, 0, "general")
        t0 = time.perf_counter()
        rep = check_reverse_sidorenko(g, m)
        assert time.perf_counter() - t0 < 1.0
        assert rep.verdict == "holds" and rep.exact
        assert self.cleared_bits(rep)[1] > 10 ** 7

    @pytest.mark.parametrize("model", [model_h_eps(Fraction(1, 10)), random_model(2, 0, "general")], ids=["heps", "general"])
    def test_clearing_and_basis_agree_above_the_threshold(self, model):
        edges = [(0, 2), (0, 3), (0, 5), (0, 7), (1, 3), (1, 4), (1, 6), (1, 7), (2, 3), (2, 5), (2, 6), (3, 6), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
        rep = check_reverse_sidorenko(Graph.from_edges(8, edges), model)
        diff, bits = self.cleared_bits(rep)
        assert CLEARING_MAX_BITS < bits < 10 ** 7
        ordering = _compare_by_clearing(diff, lcm_many(e.denominator for _, e in diff))
        assert _compare_by_basis(diff) == ordering
        assert rep.verdict == {"less": "holds", "greater": "violated"}[ordering] and rep.exact


class TestCliqueMax:
    def test_path_example(self):
        m = Model.from_rows([[2, 1], [1, 2]])
        rep = check_clique_max(named("path", 3), m)
        assert rep.verdict == "holds"
        assert hom(named("path", 3), m) == 18
        assert hom_clique(2, m) == 6 and hom_clique(3, m) == 28
        assert 18 ** 3 == 5832 and 6 ** 3 * 28 == 6048

    def test_widom_rowlinson_star_violation(self):
        rep = check_clique_max(named("biclique", 1, 4), model_widom_rowlinson())
        assert rep.verdict == "violated" and rep.exact

    def test_clique_equality(self):
        for d in (1, 2, 3):
            g = named("complete", d + 1)
            rep = check_clique_max(g, random_model(2, d, "psd"))
            assert rep.verdict == "equality", d

    def test_psd_small_sweep(self):
        models = [random_model(2 + s % 2, s, "psd") for s in range(8)]
        for n in range(1, 5):
            for g in enumerate_graphs(n, dedup_isomorphism=True):
                for m in models:
                    rep = check_clique_max(g, m)
                    assert rep.verdict in ("holds", "equality"), (g.edge_list(), m)

    def test_with_vertex_weights(self):
        rng = random.Random(29)
        for seed in range(10):
            m = random_model(2, seed, "psd")
            g = named("path", 3)
            lambdas = [
                tuple(Fraction(rng.randrange(0, 4), rng.randrange(1, 3)) for _ in range(2))
                for _ in range(3)
            ]
            rep = check_clique_max(g, m, lambdas)
            assert rep.verdict in ("holds", "equality"), (seed, lambdas)


class TestBst:
    def test_k2_hardcore_equality(self):
        rep = check_bst(named("complete", 2), model_hardcore())
        assert rep.verdict == "equality"
        assert rep.lhs.as_fraction() == 9

    def test_k3_hardcore(self):
        rep = check_bst(named("complete", 3), model_hardcore())
        assert rep.verdict == "holds"
        assert rep.lhs.as_fraction() == 16 and rep.rhs.as_fraction() == 18

    def test_c5_antiferro_seeds(self):
        g = named("cycle", 5)
        for seed in range(50):
            rep = check_bst(g, random_model(2, seed, "antiferro-2spin"))
            assert rep.verdict in ("holds", "equality"), seed

    def test_not_two_spin(self):
        with pytest.raises(NotTwoSpin):
            check_bst(named("complete", 2), model_widom_rowlinson())

    def test_two_spin_corollary_composite(self):
        # antiferromagnetic 2-spin: the swapping bound plus the biclique
        # bound on the bipartite lift chain together into the direct
        # biclique bound (the lift preserves the degree pair of each edge).
        from homlab.power import PowerProduct, compare_power_products

        for seed in range(10):
            m = random_model(2, seed, "antiferro-2spin")
            assert classify_model(m).antiferromagnetic
            for n in range(2, 5):
                for g in enumerate_graphs(n, dedup_isomorphism=True, no_isolated=True):
                    assert check_bst(g, m).verdict in ("holds", "equality")
                    lift = tensor_with_k2(g)
                    lift_rep = check_reverse_sidorenko(lift, m)
                    assert lift_rep.verdict in ("holds", "equality")
                    # hom(G)^2 <= hom(lift) <= lift RHS = (direct RHS)^2
                    direct = check_reverse_sidorenko(g, m)
                    assert direct.verdict in ("holds", "equality")
                    if direct.rhs is not None and lift_rep.rhs is not None:
                        assert compare_power_products(direct.rhs ** 2, lift_rep.rhs).ordering == "equal"


class TestSwapInjection:
    def test_k3(self):
        assert swap_injection_check(named("complete", 3)) == {
            "pairs": 16,
            "images_distinct": True,
            "images_valid": True,
        }

    def test_k2(self):
        res = swap_injection_check(named("complete", 2))
        assert res["pairs"] == 9 and res["images_distinct"] and res["images_valid"]

    def test_edgeless_identity(self):
        res = swap_injection_check(Graph.from_edges(3, []))
        assert res["pairs"] == 64 and res["images_distinct"] and res["images_valid"]

    def test_small_sweep_and_count_inequality(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n, dedup_isomorphism=True):
                res = swap_injection_check(g)
                assert res["images_distinct"] and res["images_valid"], g
                i_g = independent_set_count_oracle(g)
                assert res["pairs"] == i_g ** 2
                i_lift = independent_set_count_oracle(tensor_with_k2(g))
                assert i_g ** 2 <= i_lift

    def test_independent_set_masks_match_oracle(self):
        for g in enumerate_graphs(4, dedup_isomorphism=True):
            assert len(independent_set_masks(g)) == independent_set_count_oracle(g)


class TestGraphicalBL:
    def test_rank_one_equality(self):
        rng = random.Random(41)
        g = named("star", 3)
        sizes = [rng.randrange(1, 4) for _ in range(g.n)]
        parts = {v: [Fraction(rng.randrange(1, 5)) for _ in range(sizes[v])] for v in range(g.n)}
        kernels = {
            (u, v): [[parts[u][x] * parts[v][y] for y in range(sizes[v])] for x in range(sizes[u])]
            for u, v in g.edge_list()
        }
        assert check_graphical_bl(g, kernels, sizes).verdict == "equality"

    def test_random_triangle_free_instances(self):
        rng = random.Random(43)
        shapes = [named("star", 2), named("path", 4), named("cycle", 4), named("biclique", 2, 3)]
        for i in range(200):
            g = shapes[i % len(shapes)]
            sizes = [rng.randrange(1, 4) for _ in range(g.n)]
            kernels = {
                (u, v): [
                    [Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(sizes[v])]
                    for _ in range(sizes[u])
                ]
                for u, v in g.edge_list()
            }
            rep = check_graphical_bl(g, kernels, sizes)
            assert rep.verdict in ("holds", "equality"), (i, g.edge_list())

    def test_exponent_orientation_is_load_bearing(self):
        # The bound pairs the u-side of each edge kernel with d_v copies.
        # On asymmetric stars the swapped pairing is genuinely false, so
        # this pins the orientation: the implemented one never violates,
        # the swapped one violates often.
        from homlab.counting import biclique_kernel_sum
        from homlab.inequalities import _kernel_assignment_sum
        from homlab.power import PowerProduct, compare_power_products

        rng = random.Random(99)
        star = named("star", 3)
        degs = star.degrees()
        swapped_violations = 0
        for _ in range(150):
            sizes = [rng.randrange(1, 4) for _ in range(star.n)]
            kernels = {
                (u, v): [
                    [Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(sizes[v])]
                    for _ in range(sizes[u])
                ]
                for u, v in star.edge_list()
            }
            lhs = _kernel_assignment_sum(star, kernels, sizes)
            fac_claimed, fac_swapped, zero = [], [], False
            for u, v in star.edge_list():
                ker = lambda x, y, mat=kernels[(u, v)]: mat[x][y]
                b1 = biclique_kernel_sum(ker, sizes[u], sizes[v], degs[v], degs[u])
                b2 = biclique_kernel_sum(ker, sizes[u], sizes[v], degs[u], degs[v])
                if b1 == 0 or b2 == 0:
                    zero = True
                    break
                fac_claimed.append((b1, Fraction(1, degs[u] * degs[v])))
                fac_swapped.append((b2, Fraction(1, degs[u] * degs[v])))
            if zero or lhs == 0:
                continue
            left = PowerProduct.from_value(lhs)
            assert (
                compare_power_products(left, PowerProduct.of(*fac_claimed)).ordering != "greater"
            )
            if compare_power_products(left, PowerProduct.of(*fac_swapped)).ordering == "greater":
                swapped_violations += 1
        assert swapped_violations > 10

    def test_reproduces_toy_instance(self):
        from homlab.toy import CYCLE_LISTS

        g = named("cycle", 6)
        sizes = [3] * 6
        kernels = {}
        for u, v in g.edge_list():
            kernels[(u, v)] = [
                [
                    Fraction(1 if x != y and x in CYCLE_LISTS[u] and y in CYCLE_LISTS[v] else 0)
                    for y in range(3)
                ]
                for x in range(3)
            ]
        rep = check_graphical_bl(g, kernels, sizes)
        assert rep.verdict == "holds"
        assert rep.lhs.as_fraction() == 17


class TestBicliqueNormPower:
    def test_all_ones_kernel(self):
        from homlab.inequalities import biclique_norm_power

        base, exp = biclique_norm_power(lambda x, y: Fraction(1), 2, 2, 2, 2)
        assert base == 16 and exp == Fraction(1, 4)

    def test_proper_coloring_kernels(self):
        from homlab.inequalities import biclique_norm_power

        ne = lambda x, y: Fraction(0 if x == y else 1)
        assert biclique_norm_power(ne, 2, 2, 2, 2)[0] == 2
        assert biclique_norm_power(ne, 3, 3, 2, 2)[0] == 18


class TestAntiferroConjectureScan:
    def test_no_violations_on_rejection_sampled_q3_models(self):
        # The biclique bound is conjectured for every antiferromagnetic
        # model; a violation here would be a reportable discovery, so an
        # empty findings list is the expected outcome.
        models = []
        seed = 0
        while len(models) < 25 and seed < 4000:
            m = random_model(3, seed, "general")
            if classify_model(m).antiferromagnetic:
                models.append(m)
            seed += 1
        assert len(models) == 25
        findings = []
        for n in range(2, 5):
            for g in enumerate_graphs(
                n, dedup_isomorphism=True, triangle_free=True, no_isolated=True
            ):
                for m in models:
                    rep = check_reverse_sidorenko(g, m)
                    if rep.verdict == "violated":
                        findings.append((g.edge_list(), m))
        assert findings == []


class TestSymMonotone:
    def test_all_equal_weights(self):
        assert check_sym_monotone([1, 1, 1], 4).verdict == "equality"

    def test_paper_displayed_values(self):
        from homlab.inequalities import sym_average_products

        assert sym_average_products([2, 1, 0], 4) == [
            Fraction(17, 3),
            Fraction(32, 21),
            Fraction(0),
        ]
        assert check_sym_monotone([2, 1, 0], 4).verdict == "holds"

    def test_single_value_vacuous(self):
        assert check_sym_monotone([Fraction(5, 2)], 3).verdict == "holds"

    def test_random_instances(self):
        rng = random.Random(47)
        for _ in range(200):
            n = rng.randrange(1, 5)
            alphas = [Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(n)]
            k = rng.randrange(1, 6)
            rep = check_sym_monotone(alphas, k)
            assert rep.verdict in ("holds", "equality"), (alphas, k)
