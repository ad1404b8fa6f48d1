import ast
import itertools
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest

from conftest import cc_oracle, hom_oracle, semiproper_oracle
from homlab.counting import (
    CONTRACTION_WORK_LIMIT,
    biclique_kernel_sum,
    cc,
    compile_plan,
    hom,
    hom_biclique,
    hom_clique,
    hom_eps_polynomial,
    eps_poly_low_coefficients,
    lists_to_constraints,
    ominus,
    semiproper_count,
)
from homlab.errors import DimensionMismatch, LimitExceeded
from homlab.graphs import (
    Graph,
    GraphFamilySpec,
    build_named,
    enumerate_graphs,
    is_bipartite,
    parse_graph_name,
    tensor_with_k2,
)
from homlab.inequalities import _kernel_assignment_sum
from homlab.models import (
    Model,
    model_complete_looped,
    model_h_eps,
    model_hardcore,
    model_widom_rowlinson,
    random_model,
)


def named(kind, *params):
    return build_named(GraphFamilySpec(kind, tuple(params)))


class TestHom:
    def test_c6_colorings(self):
        # chromatic polynomial of C_6 at 3: (3-1)^6 + (3-1) = 66
        assert hom(named("cycle", 6), model_complete_looped(3, 0)) == 66

    def test_c6_independent_sets(self):
        assert hom(named("cycle", 6), model_hardcore()) == 18

    def test_h_eps_zero_is_one(self):
        for g in (named("path", 4), named("complete", 4), named("cycle", 5)):
            assert hom(g, model_h_eps(0)) == 1

    def test_widom_rowlinson_values(self):
        wr = model_widom_rowlinson()
        assert hom(named("complete", 2), wr) == 7
        assert hom(named("complete", 5), wr) == 63
        assert hom(named("biclique", 1, 4), wr) == 113

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(2)
        for seed in range(25):
            n = rng.randrange(1, 5)
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            )
            m = random_model(rng.randrange(1, 4), seed, "general")
            assert hom(g, m) == hom_oracle(g, m)

    def test_constraints_match_oracle(self):
        rng = random.Random(3)
        g = named("cycle", 4)
        for seed in range(10):
            m = random_model(3, seed, "general")
            cons = [
                tuple(Fraction(rng.randrange(0, 3), rng.randrange(1, 3)) for _ in range(3))
                for _ in range(4)
            ]
            assert hom(g, m, cons) == hom_oracle(g, m, cons)

    def test_multiplicative_over_disjoint_union(self):
        rng = random.Random(4)
        for seed in range(10):
            n1, n2 = rng.randrange(1, 4), rng.randrange(1, 4)
            e1 = [(u, v) for u in range(n1) for v in range(u + 1, n1) if rng.random() < 0.6]
            e2 = [(u, v) for u in range(n2) for v in range(u + 1, n2) if rng.random() < 0.6]
            g1 = Graph.from_edges(n1, e1)
            g2 = Graph.from_edges(n2, e2)
            both = Graph.from_edges(n1 + n2, e1 + [(u + n1, v + n1) for u, v in e2])
            m = random_model(2, seed, "general")
            assert hom(both, m) == hom(g1, m) * hom(g2, m)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hom(named("complete", 2), model_hardcore(), [(1, 1, 1), (1, 1, 1)])


def _small_graphs():
    for n in range(6):
        yield from enumerate_graphs(n, dedup_isomorphism=True)


def _engine_models():
    models = []
    for seed in range(2):
        for q in (2, 3):
            models.append(random_model(q, seed, "general"))
            models.append(random_model(q, seed, "psd"))
        models.append(random_model(2, seed, "antiferro-2spin"))
    return models


def _random_constraints(rng, n, q):
    # About one entry in three is zero, so some vertices lose colors.
    return [tuple(Fraction(rng.randrange(0, 3), rng.randrange(1, 3)) for _ in range(q)) for _ in range(n)]


def _disconnected_graphs():
    out = [Graph.from_edges(0, []), Graph.from_edges(1, []), Graph.from_edges(4, [])]
    out.append(Graph.from_edges(5, [(0, 1), (1, 2)]))  # isolated vertices 3, 4
    out.append(Graph.from_edges(6, [(0, 4), (2, 5)]))  # interleaved components
    for g in (named("path", 3), named("cycle", 4), named("star", 3)):
        assert is_bipartite(g)
        out.append(tensor_with_k2(g))  # two copies of g
    return out


class TestContractionEngine:
    def test_hom_matches_oracle_on_all_small_graphs(self):
        rng = random.Random(21)
        models = _engine_models()
        for g in _small_graphs():
            for m in rng.sample(models, 3):
                assert hom(g, m) == hom_oracle(g, m), (g, m)
                cons = _random_constraints(rng, g.n, m.q)
                assert hom(g, m, cons) == hom_oracle(g, m, cons), (g, m, cons)

    def test_hom_matches_oracle_on_disconnected_graphs(self):
        rng = random.Random(22)
        for g in _disconnected_graphs():
            for m in _engine_models():
                if m.q ** g.n > 1000:
                    continue  # keeps the oracle cheap: the 8-vertex covers run at q = 2
                assert hom(g, m) == hom_oracle(g, m), (g, m)
                cons = _random_constraints(rng, g.n, m.q)
                assert hom(g, m, cons) == hom_oracle(g, m, cons), (g, m, cons)

    def test_double_cover_of_bipartite_graph_squares(self):
        for g in (named("path", 4), named("cycle", 6), named("biclique", 2, 3)):
            for seed in range(3):
                m = random_model(2, seed, "antiferro-2spin")
                assert hom(tensor_with_k2(g), m) == hom(g, m) ** 2

    def test_empty_and_single_vertex(self):
        m = random_model(3, 5, "general")
        assert hom(Graph.from_edges(0, []), m) == 1
        assert hom(Graph.from_edges(1, []), m) == sum(m.vertex_weights)
        assert semiproper_count(Graph.from_edges(0, []), []) == 1
        assert semiproper_count(Graph.from_edges(1, []), [{0, 2, 5}]) == 3

    def test_semiproper_matches_oracle(self):
        rng = random.Random(23)
        graphs = list(_small_graphs()) + _disconnected_graphs()
        for g in graphs:
            for _ in range(2):
                lists = [{c for c in range(4) if rng.random() < 0.6} for _ in range(g.n)]
                looped = {c for c in range(4) if rng.random() < 0.3}
                got = semiproper_count(g, lists, looped)
                assert got == semiproper_oracle(g, lists, looped), (g, lists, looped)

    def test_kernel_assignment_sum_matches_enumeration(self):
        rng = random.Random(24)
        for g in list(_small_graphs())[::3] + _disconnected_graphs():
            sizes = [rng.randrange(1, 4) for _ in range(g.n)]
            kernels = {
                (u, v): [[Fraction(rng.randrange(0, 4), rng.randrange(1, 4)) for _ in range(sizes[v])] for _ in range(sizes[u])]
                for u, v in g.edge_list()
            }
            want = Fraction(0)
            for x in itertools.product(*(range(s) for s in sizes)):
                t = Fraction(1)
                for (u, v), mat in kernels.items():
                    t *= mat[x[u]][x[v]]
                want += t
            assert _kernel_assignment_sum(g, kernels, sizes) == want, (g, sizes)

    def test_plan_places_each_vertex_once_and_empties_frontier(self):
        for g in list(_small_graphs()) + _disconnected_graphs() + [named("petersen"), named("cycle", 12)]:
            plan = compile_plan(g.adjacency)
            order = [step.vertex for step in plan.steps]
            assert sorted(order) == list(range(g.n))
            frontier = []
            placed = set()
            for step, width in zip(plan.steps, plan.widths):
                assert width == len(frontier)
                placed.add(step.vertex)
                assert {u for _, u in step.back} == {u for u in g.neighbors(step.vertex) if u in placed}
                assert all(frontier[i] == u for i, u in step.back)
                if step.project is not None:
                    frontier = list(step.project(tuple(frontier)))
                frontier += [step.vertex] if step.kept else []
                assert all(set(g.neighbors(u)) - placed for u in frontier)
            assert frontier == []

    def test_plan_depends_only_on_adjacency(self):
        g1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        g2 = Graph.from_edges(5, [(4, 0), (3, 4), (2, 3), (1, 2), (0, 1)])
        assert g1 is not g2
        assert compile_plan(g1.adjacency) is compile_plan(g2.adjacency)
        shape = lambda plan: [
            (s.vertex, s.back, s.kept, s.project and s.project(tuple(range(w))))
            for s, w in zip(plan.steps, plan.widths)
        ]
        cached = shape(compile_plan(g1.adjacency))
        compile_plan.cache_clear()
        assert shape(compile_plan(g2.adjacency)) == cached

    def test_greedy_order_keeps_cycles_narrow(self):
        plan = compile_plan(named("cycle", 40).adjacency)
        assert max(plan.widths) <= 2
        assert hom(named("cycle", 40), model_complete_looped(3, 0)) == 2 ** 40 + 2

    def test_work_limit(self):
        plan = compile_plan(named("complete", 16).adjacency)
        assert plan.work(4) > CONTRACTION_WORK_LIMIT
        with pytest.raises(LimitExceeded):
            hom(named("complete", 16), model_complete_looped(4, 4))

    def test_plan_search_limit(self):
        # The greedy search is quadratic in n, so a graph with n^2 over the
        # limit is refused where it is built, before any edge is read.
        def edges():
            raise AssertionError("edges read before the size check")
            yield

        assert 4000 ** 2 > CONTRACTION_WORK_LIMIT
        with pytest.raises(LimitExceeded, match="plan search bound 16000000"):
            Graph.from_edges(4000, edges())
        with pytest.raises(LimitExceeded, match="plan search bound 100000000000000"):
            parse_graph_name("C10000000")

    def test_isolated_vertices_placed_in_one_pass(self):
        # Vertices with no neighbours skip the greedy search, so an
        # edgeless graph just under the search bound plans in linear time.
        t0 = time.perf_counter()
        plan = compile_plan((0,) * 3000)
        assert time.perf_counter() - t0 < 0.5
        assert [s.vertex for s in plan.steps] == list(range(3000)) and set(plan.widths) == {0}
        rng = random.Random(15)
        models = _engine_models()
        for _ in range(40):
            n = rng.randrange(2, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            # Isolate a random set of vertices, interleaved with the rest.
            lonely = set(rng.sample(range(n), rng.randrange(1, n)))
            g = Graph.from_edges(n, [e for e in edges if not lonely & set(e)])
            steps = compile_plan(g.adjacency).steps
            isolated = [v for v in range(n) if not g.adjacency[v]]
            assert [s.vertex for s in steps[: len(isolated)]] == isolated
            m = rng.choice(models)
            constraints = _random_constraints(rng, n, m.q) if rng.random() < 0.5 else None
            assert hom(g, m, constraints) == hom_oracle(g, m, constraints), (g, m, constraints)

    def test_oracles_import_only_graph_from_homlab(self):
        # The brute-force oracles must not share code with the engine.
        tree = ast.parse((pathlib.Path(__file__).parent / "conftest.py").read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names if alias.name.split(".")[0] == "homlab"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "homlab":
                imported += ["%s.%s" % (node.module, alias.name) for alias in node.names]
        assert imported == ["homlab.graphs.Graph"]


class TestHomBiclique:
    def test_known_values(self):
        assert hom_biclique(2, 2, model_complete_looped(3, 0)) == 18
        assert hom_biclique(2, 2, model_hardcore()) == 7

    def test_empty_side(self):
        m = random_model(3, 1, "general")
        total = sum(m.vertex_weights, Fraction(0))
        assert hom_biclique(3, 0, m) == total ** 3
        assert hom_biclique(0, 0, m) == 1

    def test_agrees_with_hom_on_bicliques(self):
        for seed in range(30):
            m = random_model(2 + seed % 2, seed, "general")
            for a in range(1, 5):
                for b in range(1, 5):
                    g = named("biclique", a, b)
                    assert hom_biclique(a, b, m) == hom(g, m), (a, b, seed)

    def test_side_constraints(self):
        m = model_complete_looped(3, 0)
        lam_a = (1, 1, 0)
        lam_b = (0, 1, 1)
        g = named("biclique", 2, 2)
        cons = [tuple(Fraction(x) for x in lam_a)] * 2 + [tuple(Fraction(x) for x in lam_b)] * 2
        assert hom_biclique(2, 2, m, (lam_a, lam_b)) == hom(g, m, cons)


class TestBicliqueKernelSum:
    def test_all_ones_kernel(self):
        base = biclique_kernel_sum(lambda x, y: Fraction(1), 2, 2, 2, 2)
        assert base == 16

    def test_inequality_kernel(self):
        ne = lambda x, y: Fraction(0 if x == y else 1)
        assert biclique_kernel_sum(ne, 2, 2, 2, 2) == 2
        assert biclique_kernel_sum(ne, 3, 3, 2, 2) == 18

    def test_norm_monotonicity(self):
        # Monotone in (a, b) over probability measures on the two factors;
        # unnormalized counting measure genuinely breaks it (f = 1 on two
        # points gives 2^{1/a + 1/b}).
        from homlab.power import PowerProduct, compare_power_products

        rng = random.Random(9)
        for _ in range(100):
            q1, q2 = rng.randrange(1, 4), rng.randrange(1, 4)
            w1 = [Fraction(1, q1)] * q1
            w2 = [Fraction(1, q2)] * q2
            mat = [
                [Fraction(rng.randrange(1, 5), rng.randrange(1, 4)) for _ in range(q2)]
                for _ in range(q1)
            ]
            ker = lambda x, y: mat[x][y]
            a, b = rng.randrange(1, 3), rng.randrange(1, 3)
            c, d = a + rng.randrange(0, 2), b + rng.randrange(0, 2)
            small = PowerProduct.of(
                (biclique_kernel_sum(ker, q1, q2, a, b, w1, w2), Fraction(1, a * b))
            )
            large = PowerProduct.of(
                (biclique_kernel_sum(ker, q1, q2, c, d, w1, w2), Fraction(1, c * d))
            )
            assert compare_power_products(small, large).ordering in ("less", "equal")


def kernel_sum_by_product(f, size1, size2, a, b, w1, w2):
    """The K_{a,b} pattern sum straight from its definition."""
    total = Fraction(0)
    for xs in itertools.product(range(size1), repeat=a):
        for ys in itertools.product(range(size2), repeat=b):
            t = Fraction(1)
            for x in xs:
                t *= w1[x]
            for y in ys:
                t *= w2[y]
            for x in xs:
                for y in ys:
                    t *= f(x, y)
            total += t
    return total


class TestBicliqueKernelSumDifferential:
    def random_case(self, rng):
        size1, size2 = rng.randrange(1, 5), rng.randrange(1, 5)
        entry = lambda: Fraction(rng.choice([0, 0, 1, 2, 3, 5]), rng.choice([1, 2, 3, 7]))
        mat = [[entry() for _ in range(size2)] for _ in range(size1)]
        w1 = [entry() for _ in range(size1)]
        w2 = [entry() for _ in range(size2)]
        return mat, size1, size2, w1, w2

    def test_matches_product_sum(self):
        rng = random.Random(31)
        for _ in range(300):
            mat, size1, size2, w1, w2 = self.random_case(rng)
            f = lambda x, y: mat[x][y]
            a, b = rng.randrange(0, 4), rng.randrange(0, 4)
            expected = kernel_sum_by_product(f, size1, size2, a, b, w1, w2)
            assert biclique_kernel_sum(f, size1, size2, a, b, w1, w2) == expected, (mat, a, b, w1, w2)
            ones1, ones2 = [Fraction(1)] * size1, [Fraction(1)] * size2
            assert biclique_kernel_sum(f, size1, size2, a, b) == kernel_sum_by_product(f, size1, size2, a, b, ones1, ones2)

    def test_both_contraction_directions(self):
        # A lopsided pair contracts the small side whichever argument it is,
        # and transposing the kernel with the sides never changes the sum.
        rng = random.Random(32)
        for _ in range(100):
            mat, size1, size2, w1, w2 = self.random_case(rng)
            f = lambda x, y: mat[x][y]
            for a, b in ((1, 4), (4, 1), (2, 3), (3, 2)):
                value = biclique_kernel_sum(f, size1, size2, a, b, w1, w2)
                assert value == biclique_kernel_sum(lambda y, x: f(x, y), size2, size1, b, a, w2, w1)
                assert value == kernel_sum_by_product(f, size1, size2, a, b, w1, w2)

    def test_zero_weight_points_and_empty_measures(self):
        f = lambda x, y: Fraction(x + y + 1, 2)
        assert biclique_kernel_sum(f, 3, 2, 2, 2, [0, 0, 0], [1, 1]) == 0
        assert biclique_kernel_sum(f, 3, 2, 2, 2, [1, 1, 1], [0, 0]) == 0
        w1, w2 = [Fraction(0), Fraction(1, 3), Fraction(0)], [Fraction(2), Fraction(0)]
        assert biclique_kernel_sum(f, 3, 2, 2, 3, w1, w2) == kernel_sum_by_product(f, 3, 2, 2, 3, w1, w2)

    def test_work_limit(self):
        ones = lambda x, y: 1
        with pytest.raises(LimitExceeded):
            biclique_kernel_sum(ones, 8, 8, 21, 21)
        assert biclique_kernel_sum(ones, 8, 8, 1, 21) == 8 ** 22


class TestOminusAndCc:
    def test_ominus_examples(self):
        assert ominus({1, 2, 3}, {2}, set()) == {1, 3}
        assert ominus({1, 2, 3}, {2}, {2}) == {1, 2, 3}
        assert ominus({1, 2}, {1, 2, 3}, {1}) == {1}

    def test_ominus_accepts_vectors(self):
        assert ominus({0, 1, 2}, (1, 1, 2), {2}) == {0, 2}

    def test_cc_examples(self):
        assert cc({0, 1, 2}, {0, 1, 2}, 1, 1) == 6
        assert cc({0, 1}, {0, 1}, 2, 2) == 2
        assert cc({0, 1, 2}, {0, 1, 2}, 0, 2) == 9

    def test_cc_work_limit(self):
        # C(4 + a - 1, a) * (a + 4) is 7.7e6 at a = 80 and 1.8e7 at a = 100;
        # a = 200 ran past 60 s before cc had a work bound.
        four = {0, 1, 2, 3}
        for a, b_set in ((100, four), (200, four), (200, set())):
            t0 = time.perf_counter()
            with pytest.raises(LimitExceeded, match="cc work bound"):
                cc(four, b_set, a, 2, {0})
            assert time.perf_counter() - t0 < 1

    def test_cc_exhaustive_against_oracle(self):
        universe = (0, 1, 2)
        subsets = [
            frozenset(s)
            for r in range(4)
            for s in itertools.combinations(universe, r)
        ]
        for a_set in subsets:
            for b_set in subsets:
                for looped in subsets:
                    for a in range(4):
                        for b in range(4):
                            got = cc(a_set, b_set, a, b, looped)
                            want = cc_oracle(a_set, b_set, a, b, looped)
                            assert got == want, (a_set, b_set, a, b, looped)
                            assert got == cc(b_set, a_set, b, a, looped)


class TestSemiproper:
    def test_c6_full_lists(self):
        g = named("cycle", 6)
        assert semiproper_count(g, [{0, 1, 2}] * 6) == 66

    def test_toy_lists_value(self):
        g = named("cycle", 6)
        toy = [{0, 2}, {0, 1}, {1, 2}, {0, 1, 2}, {0, 2}, {0, 1, 2}]
        assert semiproper_count(g, toy) == 17
        assert semiproper_oracle(g, toy) == 17

    def test_all_looped_no_constraint(self):
        g = named("complete", 4)
        assert semiproper_count(g, [{0, 1}] * 4, looped={0, 1}) == 2 ** 4

    def test_agrees_with_hom_on_complete_looped(self):
        rng = random.Random(8)
        for n in range(1, 5):
            for g in enumerate_graphs(n, dedup_isomorphism=True):
                for q in range(1, 4):
                    for ell in range(q + 1):
                        lists = [
                            frozenset(
                                {c for c in range(q) if rng.random() < 0.7} or {0}
                            )
                            for _ in range(g.n)
                        ]
                        m = model_complete_looped(q, ell)
                        direct = semiproper_count(g, lists, looped=set(range(ell)))
                        via_hom = hom(g, m, lists_to_constraints(lists, q))
                        assert direct == via_hom


class TestHomClique:
    def test_examples(self):
        m = Model.from_rows([[2, 1], [1, 2]])
        assert hom_clique(2, m) == 6
        assert hom_clique(3, m) == 28
        assert hom_clique(0, m) == 1

    def test_matches_hom_on_complete_graph(self):
        for seed in range(10):
            m = random_model(3, seed, "general")
            for a in range(1, 5):
                assert hom_clique(a, m) == hom(named("complete", a), m)

    def test_with_weights(self):
        m = model_complete_looped(3, 0)
        lam = (Fraction(1, 2), Fraction(2), Fraction(0))
        assert hom_clique(2, m, lam) == hom(named("complete", 2), m, [lam, lam])

    def test_matches_hom_with_zero_weights_and_fractions(self):
        rng = random.Random(12)
        for seed in range(20):
            m = random_model(rng.randrange(1, 5), seed, "general")
            lam = tuple(Fraction(rng.choice([0, 1, 2, 5]), rng.choice([1, 3])) for _ in range(m.q))
            for a in range(1, 6):
                assert hom_clique(a, m, lam) == hom(named("complete", a), m, [lam] * a), (seed, a)

    def test_work_limit(self):
        m = model_complete_looped(8, 0)
        with pytest.raises(LimitExceeded):
            hom_clique(20, m)
        # Zero-weight colors do not count towards the bound.
        lam = (1, 1) + (0,) * 6
        assert hom_clique(20, m, lam) == 0
        assert hom_clique(21, model_complete_looped(4, 4)) == 4 ** 21


class TestEpsPolynomial:
    def test_triangle(self):
        poly = hom_eps_polynomial(named("complete", 3))
        assert poly.coefficients == (1, 3, 3, 2)

    def test_four_cycle(self):
        poly = hom_eps_polynomial(named("cycle", 4))
        assert poly.coefficients == (1, 4, 6, 4, 2)

    def test_single_edge(self):
        poly = hom_eps_polynomial(named("complete", 2))
        assert poly.coefficients == (1, 1)

    def test_evaluates_to_hom(self):
        for g in (named("complete", 3), named("cycle", 5), named("biclique", 2, 3)):
            poly = hom_eps_polynomial(g)
            for eps in (0, Fraction(1, 10), Fraction(1, 2), 1):
                assert poly(eps) == hom(g, model_h_eps(eps))

    def test_low_coefficients_formula(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n, dedup_isomorphism=True):
                poly = hom_eps_polynomial(g)
                lead = eps_poly_low_coefficients(g)
                padded = poly.coefficients + (Fraction(0),) * 4
                assert padded[:4] == lead, g

    def test_degree_bounded_by_edges(self):
        g = named("complete", 4)
        assert len(hom_eps_polynomial(g).coefficients) - 1 <= len(g.edges)

    def test_long_cycle(self):
        # hom(C_n, H_eps) = (1 + eps)^n + eps^n.
        poly = hom_eps_polynomial(named("cycle", 40))
        assert poly.coefficients[:4] == eps_poly_low_coefficients(named("cycle", 40)) == (1, 40, 780, 9880)
        assert poly.coefficients == tuple(math.comb(40, k) for k in range(40)) + (2,)

    def test_work_limit(self):
        with pytest.raises(LimitExceeded):
            hom_eps_polynomial(named("complete", 23))

    def test_matches_enumeration(self):
        # Reference: sum over all 2^n colorings of (1 + 2 eps)^(monochromatic edges).
        for n in range(0, 7):
            for g in enumerate_graphs(n, dedup_isomorphism=True):
                coeffs = [Fraction(0)] * (len(g.edges) + 1)
                for x in itertools.product((0, 1), repeat=n):
                    mono = sum(1 for u, v in g.edge_list() if x[u] == x[v])
                    for k in range(mono + 1):
                        coeffs[k] += Fraction(math.comb(mono, k) * 2 ** k, 2 ** n)
                while len(coeffs) > 1 and coeffs[-1] == 0:
                    coeffs.pop()
                assert hom_eps_polynomial(g).coefficients == tuple(coeffs), g
