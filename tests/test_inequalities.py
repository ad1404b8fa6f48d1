import itertools
import math
import random
import time
from fractions import Fraction
from math import lcm

import pytest

from conftest import cleared_bits_oracle, clearing_oracle, independent_set_count_oracle
from homlab import inequalities, power, ratmath
from homlab.counting import compile_plan, hom, hom_clique, lists_to_constraints
from homlab.errors import WORK_LIMIT, InvalidArgument, IsolatedVertex, LimitExceeded, NotTwoSpin
from homlab.graphs import (
    Graph,
    GraphFamilySpec,
    build_named,
    enumerate_graphs,
    tensor_with_k2,
)
from homlab.inequalities import (
    _VERDICTS,
    _support_sums,
    check_bst,
    check_clique_max,
    check_graphical_bl,
    check_reverse_sidorenko,
    check_sym_monotone,
    decide,
    independent_set_masks,
    swap_injection_check,
    sym_average_products,
    sym_corollary_sides,
)
from homlab.models import (
    Model,
    classify_model,
    model_complete_looped,
    model_h_eps,
    model_hardcore,
    model_widom_rowlinson,
    parse_model_name,
    random_model,
)
from homlab.lemmas import _LEMMAS as lemma_table, check_local_lemma, random_lemma_instance
from homlab.power import (
    CLEARING_MAX_BITS,
    PowerProduct,
    RadicalSum,
    _compare_by_basis,
    compare_radical_products,
)
from homlab.scan import random_lists


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
            scaled = Model.from_rows([[w * c for w in row] for row in m.edge_weights], m.vertex_weights)
            assert check_reverse_sidorenko(g, scaled).verdict == base

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


class TestZeroFactor:
    """A zero factor makes the whole RHS zero, even next to nonzero ones."""

    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    one, zero = Fraction(1), Fraction(0)

    def assert_zero_rhs(self, rep):
        # The LHS is 0 too, so the verdict is equality, not holds.
        assert rep.rhs is None and rep.lhs is None
        assert rep.verdict == "equality"

    def test_reverse_sidorenko(self):
        # Vertices 0 and 1 may only take color 0, so edge 01's factor is 0.
        cons = [(self.one, self.zero), (self.one, self.zero), (self.one, self.one)]
        self.assert_zero_rhs(check_reverse_sidorenko(self.path, model_complete_looped(2, 0), cons))

    def test_clique_max(self):
        lambdas = [(self.zero, self.zero), (self.one, self.one), (self.one, self.one)]
        self.assert_zero_rhs(check_clique_max(self.path, model_complete_looped(2, 1), lambdas))

    def test_graphical_bl(self):
        kernels = {(0, 1): [[0, 0], [0, 0]], (1, 2): [[1, 2], [3, 4]]}
        self.assert_zero_rhs(check_graphical_bl(self.path, kernels, [2, 2, 2]))


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

    def test_first_factor_over_the_bound_is_the_first_such_edge(self):
        # Centers 0 - 1 - 2 on a path, each with leaves, so the edges (0, 1)
        # and (1, 2) carry two degree pairs past the biclique work bound at
        # q = 10, while hom on the tree is cheap.  A pair's bound depends on
        # its degrees and q alone, so factor keys grouped by degree pair and
        # split by constraints still reach the first such edge first: these
        # are the texts a walk over the edges, one key at a time, gave.
        m = model_complete_looped(10, 0)
        for degrees, text in (
            ((13, 12, 11), "biclique work bound 35271600 exceeds 10000000 (K_{13,12}, sizes 10 and 10)"),
            ((11, 12, 13), "biclique work bound 18475600 exceeds 10000000 (K_{12,11}, sizes 10 and 10)"),
        ):
            edges = [(0, 1), (1, 2)]
            for center, d in enumerate(degrees):
                edges += [(center, len(edges) + 1 + i) for i in range(d - (2 if center == 1 else 1))]
            g = Graph.from_edges(max(v for e in edges for v in e) + 1, edges)
            assert [pair for pair, _ in g.degree_pairs][:3] == [(degrees[1], degrees[0]), (1, degrees[0]), (degrees[2], degrees[1])]
            for seed in (None, 0, 1, 2):
                cons = None if seed is None else lists_to_constraints(random_lists(seed, "star-path", g.n, 10), 10)
                with pytest.raises(LimitExceeded) as err:
                    check_reverse_sidorenko(g, m, cons)
                assert str(err.value) == text


class TestLargeReverseSidorenko:
    """Cells whose cleared comparison would be too large to clear cheaply
    are decided exactly over a coprime basis."""

    @staticmethod
    def cleared_bits(rep):
        diff = (rep.lhs * rep.rhs ** -1).factors
        return diff, cleared_bits_oracle(diff, lcm(*(e.denominator for _, e in diff)))

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
        ordering = clearing_oracle(diff, lcm(*(e.denominator for _, e in diff)))
        assert _compare_by_basis(diff) == ordering
        assert rep.verdict == {"less": "holds", "greater": "violated"}[ordering] and rep.exact


class TestDirectReport:
    """`_report(ineq, instance, value, factors)` builds a positive rational
    value's side directly and decides the pair on one `_check` and its
    clamp.  Every field of its report, the slack by repr, equals the
    general route's: `_side` on both sides, then `_decide_sides`.  The
    `seen` fixture wraps `_report` so that every check the inequality code
    makes is compared."""

    @staticmethod
    def general(ineq, instance, value, factors):
        lhs, rhs = inequalities._side([(value, 1)]), inequalities._side(factors)
        verdict, slack = inequalities._decide_sides([(lhs, rhs)])
        return inequalities.IneqReport(ineq, instance, lhs and lhs[0], rhs and rhs[0], verdict, True, slack)

    @staticmethod
    def fields(rep):
        # PowerProduct equality skips log10, so each side is its ints and its log10's repr.
        sides = [None if p is None else (p.ints, repr(p.log10)) for p in (rep.lhs, rep.rhs)]
        return (rep.ineq, rep.instance, *sides, rep.verdict, rep.exact, repr(rep.slack_log10))

    @pytest.fixture
    def seen(self, monkeypatch):
        direct, seen = inequalities._report, []

        def both(ineq, instance, value, factors):
            rep = direct(ineq, instance, value, factors)
            assert self.fields(rep) == self.fields(self.general(ineq, instance, value, factors)), (ineq, instance)
            seen.append(rep)
            return rep

        monkeypatch.setattr(inequalities, "_report", both)
        return seen

    def test_random_cells(self, seen):
        rng = random.Random(32)
        graphs = [g for n in range(1, 6) for g in enumerate_graphs(n, dedup_isomorphism=True)]
        for i in range(240):
            g, q = rng.choice(graphs), rng.randrange(2, 5)
            m = random_model(q, rng.randrange(1000), rng.choice(["general", "psd"]))
            lams = [tuple(Fraction(rng.randrange(3), rng.randrange(1, 3)) for _ in range(q)) for _ in range(g.n)]
            lams = rng.choice([None, lams])
            if all(g.adjacency):
                check_reverse_sidorenko(g, m, lams)
            check_clique_max(g, m, lams)
            check_bst(g, random_model(2, rng.randrange(1000), rng.choice(["general", "antiferro-2spin"])))
            if all(g.adjacency) and g.n <= 4:
                sizes = [rng.randrange(1, 4) for _ in range(g.n)]
                pick = lambda: Fraction(rng.randrange(0, 5) * (rng.random() < 0.95), rng.randrange(1, 4))
                check_graphical_bl(g, {(u, v): [[pick() for _ in range(sizes[v])] for _ in range(sizes[u])] for u, v in g.edge_list()}, sizes)
        verdicts = {rep.verdict for rep in seen}
        assert verdicts == {"holds", "equality", "violated"}
        assert any(rep.lhs is None for rep in seen) and any(rep.lhs is not None for rep in seen)

    def test_zero_left_side(self, seen):
        rep = check_reverse_sidorenko(named("cycle", 5), parse_model_name("Kq:2"))
        assert rep.lhs is None and rep.verdict == "holds" and rep.slack_log10 == math.inf

    def test_zero_factor(self, seen):
        cases = TestZeroFactor()
        cases.test_reverse_sidorenko()
        cases.test_clique_max()
        cases.test_graphical_bl()
        rep = inequalities._report("t", "i", Fraction(3), [(Fraction(0), Fraction(1, 2)), (Fraction(5), 1)])
        assert rep.rhs is None and rep.verdict == "violated" and rep.slack_log10 == -math.inf
        # A zero base to the power 0 is 1.
        assert inequalities._report("t", "i", Fraction(3), [(Fraction(0), 0), (Fraction(5), 1)]).verdict == "holds"
        assert len(seen) == 5

    def test_value_of_one(self, seen):
        assert inequalities._report("t", "i", Fraction(1), [(Fraction(2), Fraction(1, 2))]).verdict == "holds"
        assert inequalities._report("t", "i", Fraction(1), [(Fraction(1, 2), Fraction(1, 3))]).verdict == "violated"
        rep = inequalities._report("t", "i", Fraction(1), [(Fraction(1), 1)])
        assert rep.lhs.ints == rep.rhs.ints == () and rep.verdict == "equality" and repr(rep.slack_log10) == "0.0"
        # hom(K1, heps) is the sum of its vertex weights, 1.
        rep = check_clique_max(named("complete", 1), model_h_eps(Fraction(1, 10)))
        assert rep.lhs.ints == () and rep.verdict == "equality"

    def test_equality(self, seen):
        for g in (named("path", 3), named("cycle", 4), named("biclique", 2, 3)):
            for seed in range(5):
                assert check_bst(g, random_model(2, seed, "general")).verdict == "equality"
        for seed in range(5):
            assert check_clique_max(named("complete", 1), random_model(3, seed, "general")).verdict == "equality"

    def test_radical_factor(self, seen):
        root = RadicalSum.from_rational(1) + RadicalSum.from_power(2, Fraction(1, 2))
        assert inequalities._report("t", "i", Fraction(5, 2), [(root, 1)]).verdict == "violated"
        assert inequalities._report("t", "i", Fraction(12, 5), [(root, 1)]).verdict == "holds"

    def test_above_the_clearing_threshold(self, seen, monkeypatch):
        calls = []
        basis = power._compare_by_basis
        monkeypatch.setattr(power, "_compare_by_basis", lambda diff: calls.append(diff) or basis(diff))
        edges = [(0, 2), (0, 3), (0, 5), (0, 7), (1, 3), (1, 4), (1, 6), (1, 7), (2, 3), (2, 5), (2, 6), (3, 6), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
        for model in (model_h_eps(Fraction(1, 10)), random_model(2, 0, "general")):
            check_reverse_sidorenko(Graph.from_edges(8, edges), model)
        assert len(calls) == 4 and len(seen) == 2


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


class TestCliqueMaxMemo:
    def test_memo_gives_the_same_report(self):
        rng = random.Random(43)
        for n in range(1, 5):
            for g in enumerate_graphs(n, dedup_isomorphism=True):
                m = random_model(rng.randrange(2, 4), rng.randrange(100), "psd")
                lams = [tuple(Fraction(rng.randrange(3)) for _ in range(m.q)) for _ in range(g.n)]
                for lambdas in (None, lams):
                    memo = {}
                    first = check_clique_max(g, m, lambdas, memo=memo)
                    assert first == check_clique_max(g, m, lambdas)
                    assert check_clique_max(g, m, lambdas, memo=memo) == first

    def test_memo_is_keyed_by_clique_size_and_weights(self):
        m = Model.from_rows([[2, 1], [1, 2]])
        memo = {}
        check_clique_max(named("path", 3), m, memo=memo)
        assert memo == {(2, None): Fraction(6), (3, None): Fraction(28)}
        lam = (Fraction(1), Fraction(0))
        check_clique_max(named("path", 3), m, [lam] * 3, memo=memo)
        assert set(memo) == {(2, None), (3, None), (2, lam), (3, lam)}

    def test_memo_entries_are_used(self):
        m = Model.from_rows([[2, 1], [1, 2]])
        assert check_clique_max(named("path", 3), m).verdict == "holds"
        planted = {(3, None): Fraction(1)}
        assert check_clique_max(named("path", 3), m, memo=planted).verdict == "violated"


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

    def test_cover_over_work_bound(self):
        # K19 is under the bound at q = 2 and its cover is over it: the
        # right-hand side raises with the cover graph's bound and size.
        g = named("complete", 19)
        cover = tensor_with_k2(g)
        assert compile_plan(g.adjacency).work(2) <= WORK_LIMIT < compile_plan(cover.adjacency).work(2)
        text = "contraction work bound %d exceeds %d (n = 38, q = 2)" % (compile_plan(cover.adjacency).work(2), WORK_LIMIT)
        for memo in (None, {}):
            with pytest.raises(LimitExceeded) as exc:
                check_bst(g, model_hardcore(), memo)
            assert str(exc.value) == text

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

    def test_matches_edge_list_reference(self):
        for n in range(7):
            for g in enumerate_graphs(n, dedup_isomorphism=True):
                assert swap_injection_check(g) == _swap_injection_reference(g), g


def _swap_injection_reference(g):
    """The swapping injection on an explicit unsafe edge list, with T taken
    by a 2-coloring DFS of the unsafe subgraph."""
    ind = [s for s in range(1 << g.n) if all(not (s >> u & 1 and s >> v & 1) for u, v in g.edge_list())]
    images = set()
    valid = True
    for a_mask in ind:
        for b_mask in ind:
            only_a, only_b = a_mask & ~b_mask, b_mask & ~a_mask
            adj = {}
            for u, v in g.edge_list():
                if (only_a >> u & 1 and only_b >> v & 1) or (only_b >> u & 1 and only_a >> v & 1):
                    adj.setdefault(u, []).append(v)
                    adj.setdefault(v, []).append(u)
            color, t_mask = {}, 0
            for start in sorted(adj):
                if start in color:
                    continue
                color[start] = 0
                stack, comp = [start], [start]
                while stack:
                    x = stack.pop()
                    for y in adj[x]:
                        if y not in color:
                            color[y] = 1 - color[x]
                            comp.append(y)
                            stack.append(y)
                side = color[min(comp)]
                t_mask |= sum(1 << x for x in comp if color[x] == side)
            a_img = (a_mask & ~t_mask) | (b_mask & t_mask)
            b_img = (b_mask & ~t_mask) | (a_mask & t_mask)
            for u, v in g.edge_list():
                if (a_img >> u & 1 and b_img >> v & 1) or (b_img >> u & 1 and a_img >> v & 1):
                    valid = False
            images.add((a_img, b_img))
    return {"pairs": len(ind) ** 2, "images_distinct": len(images) == len(ind) ** 2, "images_valid": valid}


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
            left = PowerProduct.of((lhs, 1))
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


def _sym_corollary_reference(alphas, k, tau):
    # E[tau(|x|)] E[prod alpha] and E[tau(|x|) prod alpha], each times n^k,
    # over all n^k tuples.
    n = len(alphas)
    e_tau = e_prod = e_both = Fraction(0)
    for x in itertools.product(range(n), repeat=k):
        p = math.prod((alphas[i] for i in x), start=Fraction(1))
        e_tau += tau[len(set(x))]
        e_prod += p
        e_both += tau[len(set(x))] * p
    return e_tau * e_prod, e_both * n ** k


def _f_poly_reference(alphas, k, s):
    return sum(
        (math.prod((alphas[i] for i in x), start=Fraction(1)) for x in itertools.product(sorted(s), repeat=k) if set(x) == s),
        Fraction(0),
    )


class TestSymSumsDifferential:
    def test_corollary_sides_match_tuple_sums(self):
        rng = random.Random(53)
        for _ in range(150):
            alphas = [Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(rng.randrange(0, 5))]
            k = rng.randrange(0, 6)
            tau = sorted((Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(k + 1)), reverse=True)
            lhs, rhs = _sym_corollary_reference(alphas, k, tau)
            assert sym_corollary_sides(alphas, k, tau) == (lhs, rhs), (alphas, k, tau)

    def test_f_poly_matches_tuple_sum(self):
        rng = random.Random(59)
        for _ in range(60):
            n = rng.randrange(1, 5)
            alphas = [Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(n)]
            for k in range(0, 6):
                for size in range(0, n + 1):
                    for s in itertools.combinations(range(n), size):
                        s = frozenset(s)
                        got = _support_sums(alphas, k).get(s, (0, 0))[1]
                        assert got == _f_poly_reference(alphas, k, s), (alphas, k, s)


class TestSymMonotone:
    def test_all_equal_weights(self):
        assert check_sym_monotone([1, 1, 1], 4).verdict == "equality"

    def test_paper_displayed_values(self):
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


def _f_recursion_holds(alphas, k):
    """f_{k,S} = sum_{x in S} alpha_x (f_{k-1,S} + f_{k-1,S \\ x}) for every
    S of size 1..min(n, k), where f_{k,S} sums prod alpha_{x_i} over x in
    S^k using every element of S: the total of S in _support_sums."""
    alphas = [Fraction(a) for a in alphas]
    n = len(alphas)
    f_k, f_prev = _support_sums(alphas, k), _support_sums(alphas, k - 1)
    for size in range(1, min(n, k) + 1):
        for s in map(frozenset, itertools.combinations(range(n), size)):
            prev = f_prev.get(s, (0, 0))[1]
            recurred = sum((alphas[x] * (prev + f_prev.get(s - {x}, (0, 0))[1]) for x in s), Fraction(0))
            if f_k.get(s, (0, 0))[1] != recurred:
                return False
    return True


def _sym_monotone_reference(alphas, k):
    """(verdict, slack) of check_sym_monotone as it was before decide gave
    them: its own verdict, equality and slack code, with the f-recursion and
    the corollary at tau(j) = 1/(j+1) checked on the same instance."""
    ms = sym_average_products(alphas, k)
    monotone = all(a >= b for a, b in zip(ms, ms[1:]))
    all_equal = len(ms) > 1 and all(a == b for a, b in zip(ms, ms[1:]))
    lhs, rhs = sym_corollary_sides(alphas, k, [Fraction(1, j + 1) for j in range(k + 1)])
    ok = monotone and _f_recursion_holds(alphas, k) and lhs <= rhs
    verdict = "violated" if not ok else ("equality" if all_equal else "holds")
    steps = []
    for hi, lo in zip(ms, ms[1:]):
        if lo == 0:
            steps.append(0.0 if hi == 0 else math.inf)
        elif hi == 0:
            steps.append(-math.inf)
        else:
            steps.append(math.log10(hi / lo))
    return verdict, min(steps, default=0.0)


# The battery's sym-monotone seeds 0-199, then acceptance #11's grid: every
# multiset of n <= 4 values p/q (p <= 4, q <= 3), at k <= 5.
SYM_SEEDS = [random_lemma_instance("sym-monotone", seed) for seed in range(200)]
SYM_GRID = [
    (alphas, k)
    for n in range(1, 5)
    for alphas in itertools.combinations_with_replacement(sorted({Fraction(p, q) for p in range(5) for q in range(1, 4)}), n)
    for k in range(1, 6)
]


class TestSymMonotoneDecide:
    """check_sym_monotone and the sym-monotone lemma are decided by decide
    over sym_monotone_checks, and agree with the reference above."""

    @staticmethod
    def _assert_same(rep, alphas, k, tolerance):
        verdict, slack = _sym_monotone_reference(alphas, k)
        assert rep.verdict == verdict, (alphas, k)
        if slack == 0 or math.isinf(slack):
            assert repr(rep.slack_log10) == repr(slack), (alphas, k)
        else:
            assert abs(rep.slack_log10 - slack) <= tolerance, (alphas, k)

    def test_battery_seeds_match_reference(self):
        for inst in SYM_SEEDS:
            self._assert_same(check_local_lemma(inst), inst.params["alphas"], inst.params["k"], 1e-15)

    def test_grid_matches_reference(self):
        # decide's slack subtracts the float log10s of each m's numerator and
        # denominator (PowerProduct.log10); the reference took one log10 of
        # the ratio.  On this grid they reach 1.6e7, whose log10 has an ulp
        # of 8.9e-16, so the two slacks may part by two such ulps.
        for alphas, k in SYM_GRID:
            self._assert_same(check_sym_monotone(alphas, k), alphas, k, 2e-15)

    def test_f_recursion_identity(self):
        # An engine property: the recursion holds for any alphas, so it is
        # tested here rather than checked on every instance.
        for alphas, k in [(inst.params["alphas"], inst.params["k"]) for inst in SYM_SEEDS] + SYM_GRID:
            assert _f_recursion_holds(alphas, k), (alphas, k)

    def test_one_support_sums_pass_per_instance(self, monkeypatch):
        calls = []
        support_sums = inequalities._support_sums
        monkeypatch.setattr(inequalities, "_support_sums", lambda *args: calls.append(args) or support_sums(*args))
        for inst in SYM_SEEDS[:40]:
            calls.clear()
            check_local_lemma(inst)
            assert len(calls) == 1, inst.params


# ---------------------------------------------------------------------------
# decide: one zero rule and two comparator routes.

# 1 + sqrt(2): a true sum, so a check holding it takes the radical route.
TRUE_SUM = RadicalSum.from_rational(1) + RadicalSum.from_power(2, Fraction(1, 2))


@pytest.mark.parametrize("x, zero", [(Fraction(3, 2), Fraction(0)), (TRUE_SUM, RadicalSum())], ids=["rational", "radical"])
class TestDecideZeroRule:
    def test_zero_against_zero(self, x, zero):
        assert decide([("c", [(zero, Fraction(1, 2))], [(x, 1), (zero, 2)])]) == ("equality", 0.0)

    def test_zero_against_positive(self, x, zero):
        assert decide([("c", [(x, 1), (zero, 1)], [(x, 2)])]) == ("holds", math.inf)

    def test_positive_against_zero(self, x, zero):
        assert decide([("c", [(x, 1)], [(x, 2), (zero, Fraction(1, 3))])]) == ("violated", -math.inf)

    def test_zero_to_the_zero_is_one(self, x, zero):
        assert decide([("c", [(x, 1), (zero, 0)], [(x, 1)])]) == ("equality", 0.0)
        verdict, slack = decide([("c", [(zero, 0)], [(x, 2), (zero, 0)])])
        value = x.float_value() if isinstance(x, RadicalSum) else float(x)
        assert verdict == "holds" and slack == pytest.approx(2 * math.log10(value))

    def test_negative_side_or_zero_to_a_negative_power_raises(self, x, zero):
        negative = -x if isinstance(x, Fraction) else RadicalSum() - x
        with pytest.raises(InvalidArgument):
            decide([("c", [(negative, 1)], [(x, 1)])])
        with pytest.raises(InvalidArgument):
            decide([("c", [(x, 1)], [(zero, -1)])])


class TestDecide:
    def test_empty_list_is_vacuous(self):
        assert decide([]) == ("holds", 0.0)

    def test_parts_aggregate(self):
        two, three = Fraction(2), Fraction(3)
        holds, equal = ("h", [(two, 1)], [(three, 1)]), ("e", [(two, 2)], [(two, 1), (two, 1)])
        assert decide([equal, equal]) == ("equality", 0.0)
        verdict, slack = decide([holds, equal])
        assert verdict == "holds" and slack == 0.0
        verdict, slack = decide([holds, ("v", [(three, 1)], [(two, 1)])])
        assert verdict == "violated" and slack == pytest.approx(-math.log10(1.5))

    def test_scan_slack_is_the_power_product_difference(self):
        small, big = [(Fraction(66), 1)], [(Fraction(18), Fraction(3, 2)), (Fraction(5, 7), Fraction(1, 4))]
        want = PowerProduct.of(*big).log10 - PowerProduct.of(*small).log10
        assert decide([("c", small, big)]) == ("holds", want)

    def test_rational_checks_skip_the_radical_algebra(self, monkeypatch):
        def fail(*args):
            raise AssertionError("an all-rational check reached the radical algebra")

        monkeypatch.setattr(inequalities, "compare_radical_products", fail)
        monkeypatch.setattr(power, "factorize", fail)
        monkeypatch.setattr(ratmath, "factorize", fail)
        assert decide([("c", [(Fraction(12), Fraction(1, 2))], [(Fraction(7, 2), 1), (Fraction(0), 0)])])[0] == "holds"
        for lemma_id in ("color-holder", "clique-cs", "h-log-convex", "f-log-conv", "sym-corollary"):
            for seed in range(20):
                assert check_local_lemma(random_lemma_instance(lemma_id, seed)).verdict in ("holds", "equality")

    def test_power_product_route_matches_the_radical_comparator(self):
        # Every all-rational check of the battery's evaluators (a sum with a
        # rational value counts as rational): decide's verdict, from the
        # PowerProduct route, against compare_radical_products with every
        # base lifted, which reads 0^0 as 1 on its own.
        lift = lambda side: [(b if isinstance(b, RadicalSum) else RadicalSum.from_rational(b), e) for b, e in side]
        compared = 0
        for lemma_id, (_, _, evaluate, _) in lemma_table.items():
            for seed in range(200):
                for check in evaluate(random_lemma_instance(lemma_id, seed).params):
                    _, small, big = check
                    if any(isinstance(b, RadicalSum) and b.as_fraction() is None for b, _ in small + big):
                        continue
                    want = _VERDICTS[compare_radical_products(lift(small), lift(big)).ordering]
                    assert decide([check])[0] == want, (lemma_id, seed, check[0])
                    compared += 1
        assert compared > 2600
