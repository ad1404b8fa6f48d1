import ast
import inspect
import itertools
import math
import pathlib
import random
import re
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bipartite_oracle, cc_oracle, eps_low_coefficients, hom_oracle, semiproper_oracle
from homlab import counting
from homlab.counting import (
    EXACT_ORDER_MAX_VERTICES,
    WIDE_STEP,
    _components,
    biclique_kernel_sum,
    cc,
    compile_plan,
    hom,
    hom_biclique,
    hom_clique,
    hom_double_cover,
    hom_eps_polynomial,
    lists_to_constraints,
    multiset_count,
    multisets,
    ominus,
    semiproper_count,
)
from homlab import errors
from homlab.errors import WORK_LIMIT, DimensionMismatch, LimitExceeded, check_work
from homlab.graphs import (
    Graph,
    GraphFamilySpec,
    build_named,
    _connected,
    enumerate_graphs,
    parse_graph_name,
    tensor_with_k2,
)
from homlab.inequalities import _kernel_assignment_sum, check_reverse_sidorenko
from homlab.ratmath import scaled_colors
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


def _random_graph(rng, n, p):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _scattered_union(rng, parts, isolated):
    """Disjoint union of the graphs `parts` and `isolated` lone vertices,
    relabelled by a random permutation so the components interleave."""
    n = sum(g.n for g in parts) + isolated
    label = list(range(n))
    rng.shuffle(label)
    edges, offset = [], 0
    for g in parts:
        edges += [(label[u + offset], label[v + offset]) for u, v in g.edge_list()]
        offset += g.n
    return Graph.from_edges(n, edges)


def _disconnected_graphs():
    out = [Graph.from_edges(0, []), Graph.from_edges(1, []), Graph.from_edges(4, [])]
    out.append(Graph.from_edges(5, [(0, 1), (1, 2)]))  # isolated vertices 3, 4
    out.append(Graph.from_edges(6, [(0, 4), (2, 5)]))  # interleaved components
    for g in (named("path", 3), named("cycle", 4), named("star", 3)):
        assert bipartite_oracle(g)
        out.append(tensor_with_k2(g))  # two copies of g
    rng = random.Random(23)
    while len(out) < 30:  # random components and lone vertices, interleaved
        parts = [_random_graph(rng, rng.randrange(2, 5), 0.6) for _ in range(rng.randrange(1, 4))]
        g = _scattered_union(rng, parts, rng.randrange(0, 3))
        if g.n <= 9:
            out.append(g)
    return out


def _over_the_cap_graphs():
    """C12 + K3 and C11: bipartite and non-bipartite components whose
    double covers are over the exact-order cap."""
    return [Graph.from_edges(15, named("cycle", 12).edge_list() + [(12, 13), (13, 14), (12, 14)]), named("cycle", 11)]


class TestContractionEngine:
    def test_hom_matches_oracle_on_all_small_graphs(self):
        # One component memo per model, shared by all the graphs: hom with
        # it equals the oracle and hom without it.  With constraints the
        # memo is neither read nor written.
        rng = random.Random(21)
        models = _engine_models()
        memos = [{} for _ in models]
        for g in _small_graphs():
            for i in rng.sample(range(len(models)), 3):
                m, memo = models[i], memos[i]
                assert hom(g, m, memo=memo) == hom(g, m) == hom_oracle(g, m), (g, m)
                cons = _random_constraints(rng, g.n, m.q)
                before = dict(memo)
                assert hom(g, m, cons, memo) == hom_oracle(g, m, cons), (g, m, cons)
                assert memo == before
        # Their double covers at q = 2: covers of bipartite graphs split into
        # two components, the others are connected, and the 12-vertex ones
        # are over the exact-order cap. The oracle takes about 0.5 s per
        # 12-vertex cover, so n = 6 is sampled.
        m = random_model(2, 3, "antiferro-2spin")
        six = list(enumerate_graphs(6, dedup_isomorphism=True))
        bases = [g for g in _small_graphs() if g.n]
        bases += [g for g in six if bipartite_oracle(g)][-2:] + [g for g in six if not bipartite_oracle(g)][-2:]
        for g in bases:
            cover = tensor_with_k2(g)
            assert hom(cover, m) == hom_oracle(cover, m), g

    def test_hom_matches_oracle_on_disconnected_graphs(self):
        rng = random.Random(22)
        models = _engine_models()
        memos = [{} for _ in models]
        for g in _disconnected_graphs():
            for m, memo in zip(models, memos):
                if m.q ** g.n > 1000:
                    continue  # keeps the oracle cheap: the 8-vertex covers run at q = 2
                assert hom(g, m, memo=memo) == hom(g, m) == hom_oracle(g, m), (g, m)
                cons = _random_constraints(rng, g.n, m.q)
                assert hom(g, m, cons, memo) == hom_oracle(g, m, cons), (g, m, cons)
        # A memo entry is read before contracting, and only without constraints.
        g = Graph.from_edges(5, [(0, 1), (2, 3)])  # two edges and a lone vertex
        m = model_complete_looped(3, 0)
        planted = {(2, 1): 5, (0,): 7}
        assert hom(g, m, memo=planted) == 5 * 5 * 7
        assert hom(g, m, [(1, 1, 1)] * 5, planted) == 6 * 6 * 3

    def test_double_cover_of_bipartite_graph_squares(self):
        for g in (named("path", 4), named("cycle", 6), named("biclique", 2, 3)):
            for seed in range(3):
                m = random_model(2, seed, "antiferro-2spin")
                assert hom(tensor_with_k2(g), m) == hom(g, m) ** 2
        # The cover built from G's components equals the cover graph's hom,
        # with a fresh memo and with hom's memo for the model, shared by all
        # graphs (as check_bst uses it): at q = 2 (hard-core has a zero
        # diagonal entry; the last model a zero-weight color) and q = 3, on
        # every graph with n <= 6 and on graphs whose bipartite and
        # non-bipartite components are over the exact-order cap.
        models = [model_hardcore(), random_model(2, 0, "antiferro-2spin"), random_model(3, 1, "general")]
        models.append(Model.from_rows([[1, 2], [2, 1]], [1, 0]))
        graphs = list(_small_graphs()) + list(enumerate_graphs(6, dedup_isomorphism=True)) + _over_the_cap_graphs()
        for m in models:
            memo = {}
            for g in graphs:
                hom(g, m, memo=memo)
                assert hom_double_cover(g, m, memo) == hom_double_cover(g, m) == hom(tensor_with_k2(g), m), (g, m)

    def test_hom_matches_oracle_on_models_with_zeros(self):
        # Zero edge weights empty a step's table and zero vertex weights
        # prune colors, up to q = 4: hard-core, Widom-Rowlinson, an
        # antiferromagnetic 2-spin model with a zero diagonal, a partially
        # looped K4, and a random q = 4 model with zero entries and a
        # zero-weight color.  Every graph with n <= 5, every eighth with
        # n = 6, and the disconnected graphs; half of them with constraints.
        rng = random.Random(28)
        rows = [[0] * 4 for _ in range(4)]
        for x in range(4):
            for y in range(x, 4):
                rows[x][y] = rows[y][x] = Fraction(rng.choice([0, 0, 1, 2, 3]), rng.randrange(1, 4))
        models = [model_hardcore(), model_widom_rowlinson(), Model.from_rows([[0, 3], [3, 1]], [1, Fraction(1, 2)])]
        models += [model_complete_looped(4, 1), Model.from_rows(rows, [1, 0, Fraction(2, 3), 3])]
        graphs = list(_small_graphs()) + list(enumerate_graphs(6, dedup_isomorphism=True))[::8] + _disconnected_graphs()
        for m in models:
            memo = {}
            for g in graphs:
                if m.q ** g.n > 1024:
                    continue  # keeps the oracle cheap: n = 6 runs at q <= 3
                assert hom(g, m, memo=memo) == hom(g, m) == hom_oracle(g, m), (g, m)
                if rng.random() < 0.5:
                    cons = _random_constraints(rng, g.n, m.q)
                    assert hom(g, m, cons) == hom_oracle(g, m, cons), (g, m, cons)

    def test_step_kernels_are_bounded_and_shared_by_shape(self):
        assert counting._step_kernel.cache_parameters()["maxsize"] is not None
        # A kernel is keyed by its step's shape and the key's bit width, not
        # its plan: the 2,000 steps of a long cycle use 4 kernels per width,
        # and each width its own.
        plan = compile_plan(named("cycle", 2000).adjacency)
        kernels = [set(plan.kernels(bits)) for bits in (1, 2, 3)]
        assert [len(k) for k in kernels] == [4, 4, 4] and len(set.union(*kernels)) == 12
        assert plan.kernels(2) is plan.kernels(2)
        assert hom(named("cycle", 2000), model_complete_looped(3, 0)) == 2 ** 2000 + 2

    def test_wide_steps_match_brute_force(self):
        # Around WIDE_STEP placed neighbours and kept positions, where a
        # kernel switches from naming each position to a list of shifts.
        # Each pair of vertices has its own non-symmetric block on a block
        # palette, so a row read at the wrong neighbour's shift or read
        # transposed changes the sum; most vertices have one color, so the
        # brute-force sum stays small.
        def link(u, v, x, y):  # the weight of colors x at u and y at v
            if u > v:
                u, v, x, y = v, u, y, x
            return 1 + (u + 2 * v + 3 * x + 5 * x * v + 7 * y) % 6

        graphs = [named("complete", n) for n in range(WIDE_STEP, WIDE_STEP + 4)]
        # Without one edge, a vertex leaves the frontier while more than
        # WIDE_STEP positions stay.
        graphs += [Graph.from_edges(n, [e for e in named("complete", n).edge_list() if e != (0, n - 1)]) for n in (20, 21)]
        plans = [compile_plan(g.adjacency) for g in graphs]
        assert [max(len(s.back) for s in plan.steps) for plan in plans[:4]] == list(range(WIDE_STEP - 1, WIDE_STEP + 3))
        assert any(s.keep is not None and len(s.keep) > WIDE_STEP for plan in plans for s in plan.steps)
        for g, plan in zip(graphs, plans):
            choices = [[(c, v + c + 1) for c in ((0, 1) if v % 5 == 0 else (v % 2,))] for v in range(g.n)]
            want = 0
            for x in itertools.product(*choices):
                colors = [c for c, _ in x]
                want += math.prod(w for _, w in x) * math.prod(link(u, v, colors[u], colors[v]) for u, v in g.edge_list())
            blocks = lambda u, v: [[link(u, v, x, y) for y in range(2)] for x in range(2)]
            assert counting.contract(plan, *_block_palette(choices, blocks)) == want, g

    @pytest.mark.skipif(sys.platform != "linux", reason="measured on Linux only, as the max RSS tests are")
    def test_dense_plan_holds_little_memory(self):
        # K1000's plan has about 500,000 placed-neighbour positions; its
        # steps hold them as bare ints, in about 12 MB (38 MB when each was
        # a (position, vertex) pair).
        adjacency = named("complete", 1000).adjacency
        tracemalloc.start()
        try:
            plan = compile_plan.__wrapped__(adjacency)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(plan.steps) == 1000 and held < 16 * 2 ** 20, held

    def test_kernel_code_is_bounded_on_wide_frontiers(self):
        # A q = 1 frontier can hold thousands of vertices; past WIDE_STEP a
        # kernel's code no longer grows with its step, at any key width, so
        # making K_n's kernels takes time linear in n.
        for bits in (1, 3):
            size = lambda n: max(len(run.__code__.co_code) for run in compile_plan(named("complete", n).adjacency).kernels(bits))
            assert size(3 * WIDE_STEP) == size(WIDE_STEP + 2) > size(WIDE_STEP - 1)
        assert hom(named("complete", 300), model_complete_looped(1, 1)) == 1

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

    def test_kernel_assignment_sum_binds_each_link_to_its_edge(self):
        # Every edge gets its own non-symmetric kernel with distinct
        # entries, so a link matrix bound to the wrong neighbour, or read
        # transposed, changes the sum.  The graphs have steps with two and
        # three placed neighbours.
        for g in (named("complete", 4), named("cycle", 5), named("biclique", 2, 3), named("petersen")):
            sizes = [2 + v % 2 for v in range(g.n)]
            kernels = {}
            for e, (u, v) in enumerate(g.edge_list()):
                kernels[(u, v)] = [[Fraction(1 + 7 * e + 3 * x + y, 1 + x) for y in range(sizes[v])] for x in range(sizes[u])]
            want = Fraction(0)
            for x in itertools.product(*(range(s) for s in sizes)):
                want += math.prod(mat[x[u]][x[v]] for (u, v), mat in kernels.items())
            assert _kernel_assignment_sum(g, kernels, sizes) == want, g

    def test_kernel_assignment_palette_is_sized_before_it_is_built(self):
        # Two vertices of 1,600 colors each need a 3,200 x 3,200 block
        # matrix, over the work limit however cheap the contraction is.
        g = Graph.from_edges(2, [(0, 1)])
        kernels = {(0, 1): [[1] * 1600] * 1600}
        with pytest.raises(LimitExceeded, match=re.escape("block-palette work bound 10240000 exceeds 10000000 (matrix entries of 3200 colors)")):
            _kernel_assignment_sum(g, kernels, [1600, 1600])

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
                neighbours = [u for u in frontier if g.adjacency[step.vertex] >> u & 1]
                assert [frontier[i] for i in step.back] == neighbours
                assert set(neighbours) == {u for u in placed if g.adjacency[step.vertex] >> u & 1}
                if step.keep is not None:  # None only when every position stays
                    assert step.keep != tuple(range(width))
                    frontier = [frontier[i] for i in step.keep]
                frontier += [step.vertex] if step.kept else []
                assert all(g.adjacency[u] & ~sum(1 << v for v in placed) for u in frontier)
            assert frontier == []

    def test_plan_depends_only_on_adjacency(self):
        g1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        g2 = Graph.from_edges(5, [(4, 0), (3, 4), (2, 3), (1, 2), (0, 1)])
        assert g1 is not g2
        assert compile_plan(g1.adjacency) is compile_plan(g2.adjacency)
        shape = lambda plan: [(s.vertex, s.back, s.keep, s.kept, run, w) for s, run, w in zip(plan.steps, plan.kernels(2), plan.widths)]
        cached = shape(compile_plan(g1.adjacency))
        compile_plan.cache_clear()
        assert shape(compile_plan(g2.adjacency)) == cached

    def test_greedy_order_keeps_cycles_narrow(self):
        plan = compile_plan(named("cycle", 40).adjacency)
        assert max(plan.widths) <= 2
        assert hom(named("cycle", 40), model_complete_looped(3, 0)) == 2 ** 40 + 2

    def test_work_limit(self):
        plan = compile_plan(named("complete", 16).adjacency)
        assert plan.work(4) > WORK_LIMIT
        with pytest.raises(LimitExceeded):
            hom(named("complete", 16), model_complete_looped(4, 4))
        # Two copies of K11 are each under the bound and over it together:
        # the whole graph's bound is checked before any contraction or memo
        # lookup, with its text, also when the memo holds the component.
        k11 = named("complete", 11)
        assert compile_plan(k11.adjacency).work(4) <= WORK_LIMIT
        two = Graph.from_edges(22, k11.edge_list() + [(u + 11, v + 11) for u, v in k11.edge_list()])
        text = "contraction work bound %d exceeds %d (n = 22, q = 4)" % (compile_plan(two.adjacency).work(4), WORK_LIMIT)
        for memo in (None, {}, {k11.adjacency: 1}):
            with pytest.raises(LimitExceeded, match=re.escape(text)):
                hom(two, model_complete_looped(4, 4), memo=memo)

    def test_work_bound_text(self, monkeypatch):
        # In full up to 20 digits, then three digits as %.2e writes them,
        # also for a bound past float range and at the rounding edges.
        monkeypatch.setattr(errors, "WORK_LIMIT", 10)

        def text(work, kind="contraction", detail=("n = %d", 1)):
            with pytest.raises(LimitExceeded) as info:
                check_work(kind, work, *detail)
            return str(info.value)

        def bound(work):
            return text(work).split()[3]

        check_work("contraction", 10, "n = %d", 1)  # at the limit: no error
        for work in (11, 10 ** 20 - 1):
            assert bound(work) == str(work)
        rng = random.Random(5)
        for work in [10 ** 20, 10 ** 300 - 1, 9995 * 10 ** 96, 2 ** 1000] + [rng.randrange(10 ** 20, 10 ** 300) for _ in range(500)]:
            assert bound(work) == "%.2e" % work, work
        assert bound(3 * 10 ** 4000 + 7) == "3.00e+4000"
        # The last full bound, the first short one, and a lead of 999.5
        # that rounds up to 1000 and carries into the exponent.
        assert text(10 ** 20 - 1) == "contraction work bound 99999999999999999999 exceeds 10 (n = 1)"
        assert text(10 ** 20) == "contraction work bound 1.00e+20 exceeds 10 (n = 1)"
        assert text(9995 * 10 ** 96) == "contraction work bound 1.00e+100 exceeds 10 (n = 1)"
        assert text(9994 * 10 ** 96) == "contraction work bound 9.99e+99 exceeds 10 (n = 1)"
        assert text(10 ** 30, "cc", ("a = %d, |A| = %d", 2, 3)) == "cc work bound 1.00e+30 exceeds 10 (a = 2, |A| = 3)"

    def test_double_cover_work_bound_is_the_cover_graphs(self, monkeypatch):
        # With the limit one below the cover graph's plan work the cover
        # raises its text, and at that work it is computed.  Above the
        # exact-order cap the greedy plans of a bipartite cover's two halves
        # can differ from twice G's plan, so random bipartite graphs with
        # interleaved sides are included.
        rng = random.Random(27)
        graphs = _over_the_cap_graphs()
        while len(graphs) < 12:
            n = rng.randrange(EXACT_ORDER_MAX_VERTICES + 1, 17)
            side = [rng.randrange(2) for _ in range(n)]
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v] and rng.random() < 0.3])
            if _connected(g.adjacency):
                graphs.append(g)
        m = random_model(2, 4, "antiferro-2spin")
        works = []
        # The covers are built first, as the limit bounds their n^2 too.
        for g, cover in [(g, tensor_with_k2(g)) for g in graphs]:
            work = compile_plan(cover.adjacency).work(2)
            works.append((work, 2 * compile_plan(g.adjacency).work(2)))
            monkeypatch.setattr(errors, "WORK_LIMIT", work - 1)
            text = "contraction work bound %d exceeds %d (n = %d, q = 2)" % (work, work - 1, 2 * g.n)
            with pytest.raises(LimitExceeded, match=re.escape(text)):
                hom_double_cover(g, m)
            monkeypatch.setattr(errors, "WORK_LIMIT", work)
            assert hom_double_cover(g, m) == hom(cover, m), g
        assert any(cover != twice for cover, twice in works[2:])

    def test_plan_search_limit(self):
        # The greedy search is quadratic in n, so a graph with n^2 over the
        # limit is refused where it is built, before any edge is read.
        def edges():
            raise AssertionError("edges read before the size check")
            yield

        assert 4000 ** 2 > WORK_LIMIT
        with pytest.raises(LimitExceeded, match=re.escape("plan-search work bound 16000000 exceeds 10000000 (n = 4000)")):
            Graph.from_edges(4000, edges())
        with pytest.raises(LimitExceeded, match="plan-search work bound 100000000000000 exceeds"):
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


def _reference_greedy_order(adjacency):
    """The min-frontier order as first written: every step rescans the
    frontier for every candidate, n^3 in all.  Vertices without neighbours
    come first; then each step places the vertex that leaves the fewest
    placed vertices with an unplaced neighbour, ties to the lowest index."""
    n = len(adjacency)
    order = [v for v in range(n) if not adjacency[v]]
    placed = sum(1 << v for v in order)
    frontier = []

    def width_after(v):
        still_open = ~(placed | 1 << v)
        return sum(1 for u in frontier + [v] if adjacency[u] & still_open)

    for _ in range(n - len(order)):
        v = min((u for u in range(n) if not placed >> u & 1), key=width_after)
        placed |= 1 << v
        order.append(v)
        frontier = [u for u in frontier + [v] if adjacency[u] & ~placed]
    return order


def _order_widths(adjacency, order):
    """Frontier width before each step of `order`, counted from scratch."""
    placed, widths = 0, []
    for v in order:
        widths.append(sum(1 for u in range(len(adjacency)) if placed >> u & 1 and adjacency[u] & ~placed))
        placed |= 1 << v
    return widths


def _work(widths, q):
    return sum(q ** (w + 1) for w in widths)


def _enumerated_sum(edges, choices, link):
    """Brute-force contraction: the sum over every pick from choices of
    the weights times link(u, v)[color u][color v] over the edges u < v."""
    total = 0
    for pick in itertools.product(*choices):
        colors = [c for c, _ in pick]
        total += math.prod(w for _, w in pick) * math.prod(link(u, v)[colors[u]][colors[v]] for u, v in edges)
    return total


def _block_palette(choices, link):
    """(choices, matrix) on a block palette: vertex v's color c becomes
    offsets[v] + c, offsets[v] the summed palette sizes of the vertices
    before it, and the symmetric matrix holds link(u, v) in its (u, v)
    block and the transpose in its (v, u) block, for every pair u < v.  A
    kernel that reads a row at the wrong neighbour's shift reads another
    pair's block."""
    sizes = [max(c for c, _ in colors) + 1 for colors in choices]
    offsets = [0, *itertools.accumulate(sizes)]
    matrix = [[0] * offsets[-1] for _ in range(offsets[-1])]
    for u, v in itertools.combinations(range(len(choices)), 2):
        block = link(u, v)
        for x in range(sizes[u]):
            for y in range(sizes[v]):
                matrix[offsets[u] + x][offsets[v] + y] = matrix[offsets[v] + y][offsets[u] + x] = block[x][y]
    return [[(offsets[v] + c, w) for c, w in colors] for v, colors in enumerate(choices)], matrix


class TestPackedKeys:
    """Frontier tables are keyed by one int: position i holds its color in
    bits [b*i, b*(i+1)), b the bit width of the largest color index.  Each
    check is against brute-force enumeration, with link matrices whose
    entries differ by position, so a misplaced shift or run changes the
    sum."""

    def test_random_graphs_match_enumeration(self):
        rng = random.Random(25)
        widths = set()
        for trial in range(240):
            n = rng.randrange(1, 8)
            top = (1, 3, 7)[trial % 3]  # keys of 1, 2 and 3 bits per position
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            # 1 to 3 colors per vertex, with gaps, and now and then weight 0.
            choices = [[(c, rng.choice([0, 1, 2, 5])) for c in sorted(rng.sample(range(top + 1), rng.randrange(1, min(3, top + 1) + 1)))] for _ in range(n)]
            if math.prod(map(len, choices)) > 400:
                choices = [colors[:1] if v % 2 else colors for v, colors in enumerate(choices)]
            # Each pair its own non-symmetric matrix, with zeros, on a block
            # palette; the shared matrix is symmetric, as hom's is, with
            # distinct entries.
            mats = {e: [[rng.choice([0, 1, 2, 3, 7]) for _ in range(top + 1)] for _ in range(top + 1)] for e in itertools.combinations(range(n), 2)}
            per_edge = lambda u, v: mats[(u, v)]
            shared = [[1 + x * y + x + y for y in range(top + 1)] for x in range(top + 1)]
            plan = compile_plan(Graph.from_edges(n, edges).adjacency)
            assert counting.contract(plan, *_block_palette(choices, per_edge)) == _enumerated_sum(edges, choices, per_edge), (edges, choices)
            assert counting.contract(plan, choices, shared) == _enumerated_sum(edges, choices, lambda u, v: shared), (edges, choices)
            widths.add(counting.key_bits(max(c for colors in choices for c, _ in colors) + 1))
        assert widths == {1, 2, 3}

    def test_wide_runs_and_neighbours_match_enumeration(self):
        # 2k leaves 0..2k-1, all joined to x = 2k, and the even ones also to
        # y = 2k + 1, placed in order: x has 2k placed neighbours, and after
        # it the odd leaves drop, leaving k runs of one kept position each,
        # so both lists of a wide kernel are read.
        k = WIDE_STEP + 3
        x, y = 2 * k, 2 * k + 1
        edges = [(v, x) for v in range(2 * k)] + [(v, y) for v in range(0, 2 * k, 2)] + [(x, y)]
        adjacency = Graph.from_edges(2 * k + 2, edges).adjacency
        plan = counting._plan(adjacency, list(range(2 * k + 2)))
        step = plan.steps[x]
        assert len(step.back) == 2 * k and step.kept
        assert sum(1 for j, i in enumerate(step.keep) if not j or step.keep[j - 1] != i - 1) == k > WIDE_STEP
        choices = [[((3 * v) % 8, 1 + v % 4)] + ([(7 - v % 8, 2)] if v % 9 == 0 else []) for v in range(2 * k + 2)]
        link = lambda u, v: [[1 + (u + 2 * v + 3 * a + 5 * b * u) % 7 for b in range(8)] for a in range(8)]
        # Five vertices have two colors, so the table stays small, but the
        # work bound counts 2 colors at every position: skip it.
        blocks, matrix = _block_palette(choices, link)
        assert counting._contract(plan, blocks, matrix, counting.key_bits(len(matrix))) == _enumerated_sum(edges, choices, link)

    def test_zero_weights_are_pruned(self):
        # A proper 2-coloring step on a one-position frontier: the zero
        # entries of the edge matrix and the zero-weight color write no key.
        run = counting._step_kernel((0,), None, True, 1, 1)
        assert run({0: 3, 1: 5}, [(0, 2), (1, 0)], [[0, 1], [1, 0]]) == {0b01: 10}
        run = counting._step_kernel((0,), (), False, 1, 1)
        assert run({0: 3, 1: 5}, [(1, 7)], [[0, 1], [1, 0]]) == {0: 21}

    def test_key_wider_than_a_machine_word(self):
        # K_200 with one allowed color out of 8 at each vertex: the frontier
        # reaches 199 positions of 3 bits, a 597-bit key, and the sum has
        # the closed form prod w_v * prod_{u < v} E[c_u][c_v].
        n = 200
        g = named("complete", n)
        plan = compile_plan(g.adjacency)
        assert max(plan.widths) * counting.key_bits(8) > 64
        colors = [(5 * v) % 8 for v in range(n)]
        choices = [[(c, 1 + v % 3)] for v, c in enumerate(colors)]
        shared = [[1 + (x * y + x + y) % 5 for y in range(8)] for x in range(8)]
        want = math.prod(1 + v % 3 for v in range(n)) * math.prod(shared[colors[u]][colors[v]] for u, v in g.edge_list())
        assert counting.contract(plan, choices, shared) == want


class TestPlanOrder:
    def test_exact_order_is_least_work(self):
        # Against every order of every graph with at most 6 vertices.
        for n in range(1, 7):
            for g in enumerate_graphs(n, dedup_isomorphism=True):
                least = min(_work(_order_widths(g.adjacency, p), 4) for p in itertools.permutations(range(n)))
                assert compile_plan(g.adjacency).work(4) == least, g

    def test_no_more_work_than_greedy(self):
        rng = random.Random(24)
        graphs = [g for n in range(1, 8) for g in enumerate_graphs(n, dedup_isomorphism=True)]
        graphs += [_random_graph(rng, rng.randrange(8, EXACT_ORDER_MAX_VERTICES + 1), rng.choice((0.3, 0.5, 0.7))) for _ in range(150)]
        for g in graphs:
            plan = compile_plan(g.adjacency)
            greedy = _order_widths(g.adjacency, _reference_greedy_order(g.adjacency))
            assert list(plan.widths) == _order_widths(g.adjacency, [s.vertex for s in plan.steps])
            for q in (2, 3, 4):
                assert plan.work(q) <= _work(greedy, q), (g, q)

    def test_disconnected_plan_joins_component_plans(self):
        rng = random.Random(25)
        for _ in range(60):
            sizes = [rng.randrange(2, 13) for _ in range(rng.randrange(2, 4))]
            parts = []
            for size in sizes:
                g = _random_graph(rng, size, 0.5)
                while not _connected(g.adjacency):
                    g = _random_graph(rng, size, 0.5)
                parts.append(g)
            g = _scattered_union(rng, parts, rng.randrange(0, 3))
            isolated = [v for v in range(g.n) if not g.adjacency[v]]
            want_order, want_widths, seen = list(isolated), [0] * len(isolated), set(isolated)
            for start in range(g.n):
                if start in seen:
                    continue
                # The component of `start`, renumbered in increasing order.
                members, grow = {start}, [start]
                while grow:
                    grow = [u for v in grow for u in range(g.n) if g.adjacency[v] >> u & 1 and u not in members]
                    members.update(grow)
                members = sorted(members)
                local = Graph.from_edges(len(members), [(members.index(u), members.index(v)) for u, v in g.edge_list() if u in members])
                plan = compile_plan(local.adjacency)
                want_order += [members[s.vertex] for s in plan.steps]
                want_widths += plan.widths
                seen.update(members)
            plan = compile_plan(g.adjacency)
            assert [s.vertex for s in plan.steps] == want_order
            assert list(plan.widths) == want_widths

    def test_component_works_sum_to_plan_work(self):
        # hom checks the bound as the sum over its component plans.
        for n in range(8):
            for g in enumerate_graphs(n, dedup_isomorphism=True):
                for q in (2, 3, 4):
                    parts = sum(compile_plan(key).work(q) for _, key in _components(g.adjacency))
                    assert parts == compile_plan(g.adjacency).work(q), (g, q)

    def test_greedy_order_above_the_cap(self):
        rng = random.Random(26)
        graphs = [named("cycle", 40), tensor_with_k2(named("petersen")), named("complete", 30), named("biclique", 7, 9)]
        while len(graphs) < 30:
            g = _random_graph(rng, rng.randrange(EXACT_ORDER_MAX_VERTICES + 1, 30), rng.choice((0.1, 0.2, 0.5)))
            if _connected(g.adjacency):
                graphs.append(g)
        for g in graphs:
            assert g.n > EXACT_ORDER_MAX_VERTICES and _connected(g.adjacency)
            plan = compile_plan(g.adjacency)
            assert [s.vertex for s in plan.steps] == _reference_greedy_order(g.adjacency), g
            assert list(plan.widths) == _order_widths(g.adjacency, _reference_greedy_order(g.adjacency))


def _hom_by_components(g, m, constraints):
    """Constrained hom as one contraction per component on the component's
    own plan, multiplied: the loop hom ran before it made one `contract`
    call on the whole graph's plan."""
    scaled = [scaled_colors([w * Fraction(x) for w, x in zip(m.vertex_weights, lam)]) for lam in constraints]
    choices = [colors for _, colors in scaled]
    if not all(choices):
        return Fraction(0)
    edge_scale, ew = m.integer_edges
    total = math.prod(counting.contract(compile_plan(key), [choices[v] for v in vertices], ew) for vertices, key in _components(g.adjacency))
    return Fraction(total, math.prod(scale for scale, _ in scaled) * edge_scale ** g.edge_count)


class TestConstrainedHom:
    """Constrained hom is one `contract` call on the whole graph's plan,
    unconstrained hom one contraction per `_graph_parts` entry.  The two
    agree on the work bound and its text because the whole plan orders each
    component on its own and sums their widths' work."""

    @staticmethod
    def several_components():
        # Random components, some disconnected themselves, and lone
        # vertices, interleaved, on 7 to 15 vertices.
        rng = random.Random(34)
        out = []
        while len(out) < 40:
            parts = [_random_graph(rng, rng.randrange(2, 7), rng.choice((0.3, 0.6))) for _ in range(rng.randrange(2, 4))]
            g = _scattered_union(rng, parts, rng.randrange(0, 4))
            if 7 <= g.n <= 15 and len(_components(g.adjacency)) > 1:
                out.append(g)
        return out

    def test_whole_plan_work_is_the_parts_work(self):
        graphs = [g for n in range(7) for g in enumerate_graphs(n)] + self.several_components()
        for g in graphs:
            plan, parts = compile_plan(g.adjacency), counting._graph_parts(g.adjacency, False)
            for q in (1, 2, 3, 4):
                assert plan.work(q) == parts.work(q), (g, q)

    def test_matches_the_per_component_loop(self):
        # One random q per labeled graph with n <= 6 (`enumerate_graphs`
        # without dedup yields every one), every q on the graphs
        # with several components; the lists come from a pool per q in
        # which two entries in five are zero.
        rng = random.Random(35)
        models = {q: random_model(q, q, "general") for q in (1, 2, 3, 4)}
        pools = {q: [tuple(rng.choice((0, 0, 1, 2, Fraction(1, 2))) for _ in range(q)) for _ in range(40)] for q in models}
        cases = [(g, models[rng.randrange(1, 5)]) for n in range(7) for g in enumerate_graphs(n)]
        cases += [(g, m) for g in self.several_components() for m in models.values()]
        for g, m in cases:
            constraints = [rng.choice(pools[m.q]) for _ in range(g.n)]
            assert hom(g, m, constraints) == _hom_by_components(g, m, constraints), (g, m, constraints)
        assert any(not any(lam) for pool in pools.values() for lam in pool)  # some vertex allows no color

    def test_over_the_bound_on_a_disconnected_graph(self):
        # Two K11 and a lone vertex between them: each K11 is under the
        # bound at q = 4, the whole graph over it.  A list that allows no
        # color gives 0 before the bound is checked; the bound's q is the
        # longest list, and with two colors a vertex the count is 2^23.
        k11 = named("complete", 11)
        g = Graph.from_edges(23, k11.edge_list() + [(u + 12, v + 12) for u, v in k11.edge_list()])
        m = model_complete_looped(4, 4)
        text = "contraction work bound 11184812 exceeds 10000000 (n = 23, q = 4)"
        for constraints in ([(1, 1, 1, 1)] * 23, [(1, 1, 1, 1)] * 22 + [(1, 0, 0, 0)]):
            with pytest.raises(LimitExceeded, match="^%s$" % re.escape(text)):
                hom(g, m, constraints)
        assert hom(g, m, [(1, 1, 1, 1)] * 22 + [(0, 0, 0, 0)]) == 0
        assert hom(g, m, [(1, 1, 0, 0)] * 23) == 2 ** 23


class TestConstrainedChoices:
    """Constrained hom scales each vertex's list from the model's int
    vertex weights and the entries' integer ratios."""

    def test_entry_types_give_one_count(self):
        g = named("cycle", 5)
        m = random_model(3, 2, "general")
        lists = [(Fraction(1, 2), 0, Fraction(3)), (1, Fraction(3, 4), 0), (0, 0, Fraction(5, 4)), (1, 1, 1), (Fraction(1, 2), 2, 0)]
        want = hom_oracle(g, m, lists)
        for form in (lambda x: x, Fraction, str, float):
            assert hom(g, m, [tuple(map(form, lam)) for lam in lists]) == want

    def test_dimension_texts(self):
        g, m = named("path", 3), model_complete_looped(3, 0)
        with pytest.raises(DimensionMismatch, match=r"^need one constraint per vertex \(3\)$"):
            hom(g, m, [(1, 1, 1)] * 2)
        with pytest.raises(DimensionMismatch, match=r"^constraint length 2 != q = 3$"):
            hom(g, m, [(0, 0, 0), (1, 1, 1), (1, 1)])


def _multiset_permutations(combo: tuple) -> int:
    # The multinomial of a tuple, counted from scratch: the reference for
    # the coefficients `multisets` carries.
    out = math.factorial(len(combo))
    counts = {}
    for c in combo:
        counts[c] = counts.get(c, 0) + 1
    for c in counts.values():
        out //= math.factorial(c)
    return out


def _reference_multisets(points, k):
    """The old multiset loop: combinations_with_replacement, each tuple
    grouped into (point, multiplicity) pairs and weighted by
    _multiset_permutations."""
    for combo in itertools.combinations_with_replacement(points, k):
        pairs = []
        for p in combo:
            if pairs and pairs[-1][0] == p:
                pairs[-1][1] += 1
            else:
                pairs.append([p, 1])
        yield tuple((p, m) for p, m in pairs), _multiset_permutations(combo)


class TestMultisets:
    def test_against_product_and_the_old_loop(self):
        # Each multiset's coefficient is its number of orderings among the
        # n^k tuples, and the sequence is combinations_with_replacement's.
        for n in range(6):
            for k in range(7):
                points = ["p%d" % i for i in range(n)]
                got = list(multisets(points, k))
                assert got == list(_reference_multisets(points, k)), (n, k)
                assert len(got) == multiset_count(n, k) == (math.comb(n + k - 1, k) if n or k else 1)
                orderings = {}
                for xs in itertools.product(points, repeat=k):
                    key = tuple(sorted(Counter(xs).items(), key=lambda item: points.index(item[0])))
                    orderings[key] = orderings.get(key, 0) + 1
                assert dict(got) == orderings, (n, k)
                assert all(m > 0 for pairs, _ in got for _, m in pairs)

    def test_points_may_be_any_iterable(self):
        assert list(multisets(iter("ab"), 2)) == [((("a", 2),), 1), ((("a", 1), ("b", 1)), 2), ((("b", 2),), 1)]

    def test_depth_does_not_grow_with_points_or_k(self):
        # Three thousand points at k = 1 (clique-max of K1 on Kq:3000) and
        # one point at k = 500, with almost no stack to spare.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 20)
        try:
            wide = list(multisets(range(3000), 1))
            deep = list(multisets(["x"], 500))
        finally:
            sys.setrecursionlimit(limit)
        assert wide == [(((i, 1),), 1) for i in range(3000)]
        assert deep == [((("x", 500),), 1)]
        assert len(list(multisets(range(3), 21))) == multiset_count(3, 21) == 253


def hom_biclique_reference(a, b, m, side_constraints=None):
    """hom(K_{a,b}, m) as it was computed before the model's int view: the
    kernel and side weights as Fractions, tabulated and scaled per call."""
    def side(lam):
        if lam is None:
            return [Fraction(w) for w in m.vertex_weights]
        if len(lam) != m.q:
            raise DimensionMismatch("side constraint length != q")
        return [m.vertex_weights[c] * Fraction(lam[c]) for c in range(m.q)]

    lam_a, lam_b = (None, None) if side_constraints is None else side_constraints
    w1, w2 = side(lam_a), side(lam_b)
    if a == 0 and b == 0:
        return Fraction(1)
    if a == 0:
        return sum(w2, Fraction(0)) ** b
    if b == 0:
        return sum(w1, Fraction(0)) ** a
    table = [[Fraction(x) for x in row] for row in m.edge_weights]
    if math.comb(m.q + a - 1, a) * a < math.comb(m.q + b - 1, b) * b:  # contract the cheaper side
        table, a, b, w1, w2 = [list(col) for col in zip(*table)], b, a, w2, w1
    kernel_scale = math.lcm(*(x.denominator for row in table for x in row))
    kernel = [[x.numerator * (kernel_scale // x.denominator) for x in row] for row in table]
    scale1 = math.lcm(*(w.denominator for w in w1 if w))
    scale2 = math.lcm(*(w.denominator for w in w2 if w))
    rows = [(w.numerator * (scale1 // w.denominator), kernel[x]) for x, w in enumerate(w1) if w]
    points2 = [(y, w.numerator * (scale2 // w.denominator)) for y, w in enumerate(w2) if w]
    total = 0
    for combo in itertools.combinations_with_replacement(points2, b):
        ys = [y for y, _ in combo]
        inner = sum(math.prod((row[y] for y in ys), start=w) for w, row in rows)
        orderings = math.factorial(b) // math.prod(math.factorial(ys.count(y)) for y in set(ys))
        total += orderings * math.prod(w for _, w in combo) * inner ** a
    return Fraction(total, scale1 ** a * scale2 ** b * kernel_scale ** (a * b))


_WEIGHTS = st.sampled_from([0, 1, 2, Fraction(1, 2), Fraction(5, 3), Fraction(7, 4)])


@st.composite
def _biclique_cases(draw):
    """A general, PSD or antiferromagnetic 2-spin model with q <= 4, its
    vertex weights redrawn with zeros allowed, and optional side
    constraints with zero and fractional entries, given as ints, Fractions
    or strings."""
    kind = draw(st.sampled_from(["general", "psd", "antiferro-2spin"]))
    q = 2 if kind == "antiferro-2spin" else draw(st.integers(1, 4))
    m = random_model(q, draw(st.integers(0, 10 ** 6)), kind)
    m = Model.from_rows(m.edge_weights, draw(st.lists(_WEIGHTS, min_size=q, max_size=q)))
    entry = st.builds(lambda x, form: form(x), _WEIGHTS, st.sampled_from([Fraction, str, lambda x: x]))
    side = st.none() | st.lists(entry, min_size=q, max_size=q)
    constraints = draw(st.none() | st.tuples(side, side))
    return draw(st.integers(0, 5)), draw(st.integers(0, 5)), m, constraints


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

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_biclique_cases())
    def test_matches_the_fraction_reference(self, case):
        a, b, m, constraints = case
        assert hom_biclique(a, b, m, constraints) == hom_biclique_reference(a, b, m, constraints)

    def test_wrong_length_side_constraint(self):
        m = random_model(3, 4, "general")
        for constraints in (((1, 1), None), (None, (1, 1, 1, 1)), ((1, 0, 1), (1, 1))):
            with pytest.raises(DimensionMismatch, match=r"^side constraint length != q$"):
                hom_biclique(2, 3, m, constraints)
            with pytest.raises(DimensionMismatch, match=r"^side constraint length != q$"):
                hom_biclique_reference(2, 3, m, constraints)


@st.composite
def _biclique_call_sequences(draw):
    """One model, its vertex weights redrawn with zeros allowed, and a
    sequence of (a, b, side constraints) calls on it: keys repeat, come in
    both orders, and the constraints are drawn from a small pool, so the
    model's cached terms are read back under every kind of key."""
    _, _, m, _ = draw(_biclique_cases())
    entry = st.builds(lambda x, form: form(x), _WEIGHTS, st.sampled_from([Fraction, str, lambda x: x]))
    side = st.none() | st.lists(entry, min_size=m.q, max_size=m.q)
    pool = draw(st.lists(st.none() | st.tuples(side, side), min_size=1, max_size=3))
    calls = st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from(pool))
    return m, draw(st.lists(calls, min_size=1, max_size=12))


def _double_star(d: int) -> Graph:
    """Two adjacent centres of degree d, each with d - 1 leaves."""
    edges = [(0, 1)] + [(0, v) for v in range(2, d + 1)] + [(1, v) for v in range(d + 1, 2 * d)]
    return Graph.from_edges(2 * d, edges)


class TestBicliqueSums:
    """hom_biclique reads the multiset terms of each contracted side and
    size from its model (`Model.biclique_sums`), so every exponent is one
    power sum over terms walked once."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_biclique_call_sequences())
    def test_call_sequences_match_the_fraction_reference(self, case):
        m, calls = case
        for a, b, constraints in calls:
            assert hom_biclique(a, b, m, constraints) == hom_biclique_reference(a, b, m, constraints), (a, b, constraints)

    def test_kernel_sums_with_and_without_a_cache(self):
        # A kernel that is not symmetric, measures with zeros and unequal
        # sides: one cache serves both sides and every size.
        rng = random.Random(35)
        for _ in range(30):
            size1, size2 = rng.randrange(1, 5), rng.randrange(1, 5)
            mat = [[Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(size2)] for _ in range(size1)]
            w1 = [Fraction(rng.randrange(0, 3), rng.randrange(1, 3)) for _ in range(size1)]
            w2 = [rng.randrange(0, 3) for _ in range(size2)]
            f = lambda x, y, mat=mat: mat[x][y]
            sums = {}
            for _ in range(12):
                a, b = rng.randrange(0, 5), rng.randrange(0, 5)
                want = biclique_kernel_sum(f, size1, size2, a, b, w1, w2)
                assert biclique_kernel_sum(f, size1, size2, a, b, w1, w2, sums=sums) == want
                if size1 ** a * size2 ** b <= 600:
                    assert want == _brute_kernel_sum(mat, a, b, w1, w2)

    def test_empty_sides(self):
        # A side with no points has one empty tuple at exponent 0 and none above.
        one = lambda x, y: 1
        for cached in (False, True):
            sums = [{} if cached else None for _ in range(3)]
            for a in range(3):
                for b in range(3):
                    assert biclique_kernel_sum(one, 0, 3, a, b, sums=sums[0]) == (3 ** b if a == 0 else 0)
                    assert biclique_kernel_sum(one, 3, 0, a, b, sums=sums[1]) == (3 ** a if b == 0 else 0)
                    assert biclique_kernel_sum(one, 0, 0, a, b, sums=sums[2]) == (a == b == 0)
        assert hom_biclique(2, 3, model_complete_looped(0, 0)) == 0

    def test_equal_models_do_not_share_terms(self):
        m1 = random_model(3, 7, "general")
        m2 = Model(m1.q, m1.integer_edges, m1.integer_colors)
        assert m1 == m2 and hash(m1) == hash(m2)
        hom_biclique(2, 3, m1)
        assert m1.biclique_sums and not m2.biclique_sums
        assert m1.biclique_sums is not m2.biclique_sums
        assert hom_biclique(2, 3, m2) == hom_biclique(2, 3, m1)

    def test_double_star_just_under_the_bound_in_little_memory(self):
        # K_{187,187} at q = 3 walks 17,766 multisets of 187 colors, a
        # work bound of 9,966,726; only their (coef, inner) pairs are kept.
        m = model_complete_looped(3, 0)
        tracemalloc.start()
        try:
            report = check_reverse_sidorenko(_double_star(187), m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == "holds" and peak < 8 * 2 ** 20, peak
        text = "biclique work bound 10126620 exceeds 10000000 (K_{188,188}, sizes 3 and 3)"
        with pytest.raises(LimitExceeded, match="^%s$" % re.escape(text)):
            check_reverse_sidorenko(_double_star(188), m)


def _brute_kernel_sum(mat, a, b, w1, w2):
    # The K_{a,b} pattern sum over every tuple of both sides.
    total = Fraction(0)
    for xs in itertools.product(range(len(mat)), repeat=a):
        for ys in itertools.product(range(len(mat[0])), repeat=b):
            term = math.prod((w1[x] for x in xs), start=Fraction(1)) * math.prod(w2[y] for y in ys)
            total += term * math.prod(mat[x][y] for x in xs for y in ys)
    return total


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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_int_fraction_and_float_entries_agree(self, data):
        # Dyadic entries are exact as floats; integral ones are also given
        # as ints.  Every form is read through as_integer_ratio().
        size1, size2 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        a, b = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        entry = st.builds(Fraction, st.integers(0, 9), st.sampled_from([1, 1, 2, 4, 8]))
        mat = data.draw(st.lists(st.lists(entry, min_size=size2, max_size=size2), min_size=size1, max_size=size1))
        w1 = data.draw(st.lists(entry, min_size=size1, max_size=size1))
        w2 = data.draw(st.lists(entry, min_size=size2, max_size=size2))
        expected = kernel_sum_by_product(lambda x, y: mat[x][y], size1, size2, a, b, w1, w2)
        forms = [Fraction, float] + ([int] if all(x.denominator == 1 for x in [*w1, *w2, *itertools.chain(*mat)]) else [])
        for form in forms:
            table = [[form(x) for x in row] for row in mat]
            value = biclique_kernel_sum(lambda x, y: table[x][y], size1, size2, a, b, [form(w) for w in w1], [form(w) for w in w2])
            assert type(value) is Fraction and value == expected, form

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
                lead = eps_low_coefficients(g)
                padded = poly.coefficients + (Fraction(0),) * 4
                assert padded[:4] == lead, g

    def test_degree_bounded_by_edges(self):
        g = named("complete", 4)
        assert len(hom_eps_polynomial(g).coefficients) - 1 <= g.edge_count

    def test_long_cycle(self):
        # hom(C_n, H_eps) = (1 + eps)^n + eps^n.
        poly = hom_eps_polynomial(named("cycle", 40))
        assert poly.coefficients[:4] == eps_low_coefficients(named("cycle", 40)) == (1, 40, 780, 9880)
        assert poly.coefficients == tuple(math.comb(40, k) for k in range(40)) + (2,)

    def test_work_limit(self):
        with pytest.raises(LimitExceeded):
            hom_eps_polynomial(named("complete", 23))

    def test_matches_enumeration(self):
        # Reference: sum over all 2^n colorings of (1 + 2 eps)^(monochromatic edges).
        for n in range(0, 7):
            for g in enumerate_graphs(n, dedup_isomorphism=True):
                coeffs = [Fraction(0)] * (g.edge_count + 1)
                for x in itertools.product((0, 1), repeat=n):
                    mono = sum(1 for u, v in g.edge_list() if x[u] == x[v])
                    for k in range(mono + 1):
                        coeffs[k] += Fraction(math.comb(mono, k) * 2 ** k, 2 ** n)
                while len(coeffs) > 1 and coeffs[-1] == 0:
                    coeffs.pop()
                assert hom_eps_polynomial(g).coefficients == tuple(coeffs), g
