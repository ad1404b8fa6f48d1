import random
from itertools import combinations, product

import pytest

from conftest import bipartite_oracle, canonical_oracle, isomorphic_oracle
from homlab.errors import InvalidSpec, LimitExceeded
from homlab.graphs import (
    Graph,
    GraphFamilySpec,
    add_apexes,
    build_named,
    enumerate_graphs,
    graph_to_mask,
    parse_graph_name,
    read_edge_list,
    read_graph6,
    tensor_with_k2,
    triangle_count,
)
from homlab.graphs import _connected, _dedup_rows, _filtered_masks, _has_triangle, _is_canonical, _mask_rows, _rows_to_mask


def named(kind, *params):
    return build_named(GraphFamilySpec(kind, tuple(params)))


# Reference canonical form by full minimization, against which the bitset
# canonicity test of the generation is checked.


def _least_string(rows, early_exit: bool = False) -> int | None:
    """Least column-major adjacency bitstring over all vertex relabelings.

    The string reads the upper triangle column by column: placing vertex j
    contributes bits (0,j),...,(j-1,j), so every partial labeling fixes a
    prefix and a branch is cut once its prefix exceeds the best string's
    prefix of the same length.  The search starts from the identity
    labeling's string.  With `early_exit` it returns None the moment some
    prefix falls below the identity's, i.e. once the graph is known not to
    be canonical.
    """
    n = len(rows)
    total = n * (n - 1) // 2
    best = [0]
    for j in range(1, n):
        for i in range(j):
            best[0] = best[0] << 1 | (rows[i] >> j & 1)

    def rec(order: list[int], value: int, remaining: list[int]) -> bool:
        depth = len(order)
        if depth == n:
            best[0] = value
            return True
        shift = total - depth * (depth + 1) // 2
        for idx, w in enumerate(remaining):
            bits = 0
            for u in order:
                bits = bits << 1 | (rows[u] >> w & 1)
            new_value = value << depth | bits
            prefix = best[0] >> shift
            if new_value > prefix:
                continue
            if new_value < prefix and early_exit:
                return False
            if not rec(order + [w], new_value, remaining[:idx] + remaining[idx + 1 :]):
                return False
        return True

    return best[0] if rec([], 0, list(range(n))) else None


def canonical_mask(g: Graph) -> int:
    """Edge mask of the relabeling with the least column-major bitstring."""
    n = g.n
    value = _least_string(g.adjacency)
    rows = [0] * n
    pos = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if value >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return _rows_to_mask(rows)


def is_canonical_mask(n: int, mask: int) -> bool:
    """The early-exit form of canonical_mask(g) == mask."""
    return _least_string(_mask_rows(n, mask), early_exit=True) is not None


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return g1.n == g2.n and canonical_mask(g1) == canonical_mask(g2)


def mask_to_graph(n: int, mask: int) -> Graph:
    return Graph(n, _mask_rows(n, mask))


def frozenset_reference(n: int, pairs):
    """Graph's construction before it kept only neighbour bitsets: the edges
    as a frozenset of frozensets, checked in its iteration order, and the
    bitsets built from them.  The reference for Graph.from_edges."""
    edges = frozenset(map(frozenset, pairs))
    adj = [0] * n
    for e in edges:
        if len(e) == 1:
            raise InvalidSpec("self-loop at %d" % min(e))
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidSpec("edge endpoint out of range: (%d, %d)" % tuple(sorted(e)))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return edges, tuple(adj)


class TestBuildNamed:
    def test_biclique_k22(self):
        g = named("biclique", 2, 2)
        assert g.n == 4 and g.edge_count == 4
        assert set(g.degrees()) == {2}
        # part A first: vertices 0,1 only adjacent to 2,3
        assert g.adjacency[0] == 0b1100

    def test_cycle_c6(self):
        g = named("cycle", 6)
        assert g.n == 6 and g.edge_count == 6 and set(g.degrees()) == {2}

    def test_complete_k4(self):
        g = named("complete", 4)
        assert g.n == 4 and g.edge_count == 6

    def test_star_and_path(self):
        assert named("star", 4).degrees() == (4, 1, 1, 1, 1)
        assert named("path", 4).degrees() == (1, 2, 2, 1)

    def test_petersen(self):
        g = named("petersen")
        assert g.n == 10 and g.edge_count == 15
        assert set(g.degrees()) == {3} and not _has_triangle(g.adjacency)

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            named("biclique", 0, 3)
        with pytest.raises(InvalidSpec):
            named("cycle", 2)

    def test_parse_names(self):
        assert parse_graph_name("K5").n == 5
        assert parse_graph_name("K3,3").degrees() == (3,) * 6
        assert parse_graph_name("C6").n == 6
        assert parse_graph_name("P4").n == 4
        assert parse_graph_name("petersen").n == 10
        with pytest.raises(InvalidSpec):
            parse_graph_name("Q3")


class TestTensorWithK2:
    def test_k2_gives_two_disjoint_edges(self):
        t = tensor_with_k2(named("complete", 2))
        assert t.n == 4 and t.edge_count == 2
        assert t.degrees() == (1, 1, 1, 1)

    def test_k3_gives_c6(self):
        t = tensor_with_k2(named("complete", 3))
        assert isomorphic_oracle(t, named("cycle", 6))

    def test_c4_gives_two_c4(self):
        t = tensor_with_k2(named("cycle", 4))
        assert t.n == 8 and t.edge_count == 8
        assert set(t.degrees()) == {2}
        # two components, each a 4-cycle
        assert not _connected(t.adjacency)

    def test_always_bipartite_and_triangle_free(self):
        for n in range(1, 7):
            for g in enumerate_graphs(n, dedup_isomorphism=True):
                t = tensor_with_k2(g)
                assert bipartite_oracle(t)
                assert triangle_count(t) == 0
                assert t.degrees() == g.degrees() * 2


class TestAddApexes:
    def test_k2_one_apex_is_k3(self):
        assert are_isomorphic(add_apexes(named("complete", 2), 1), named("complete", 3))

    def test_k2_two_apexes_is_k4_minus_edge(self):
        g = add_apexes(named("complete", 2), 2)
        assert g.n == 4 and g.edge_count == 5
        assert not g.adjacency[2] >> 3 & 1

    def test_empty2_two_apexes_is_k22(self):
        g = add_apexes(Graph.from_edges(2, []), 2)
        assert are_isomorphic(g, named("biclique", 2, 2))

    def test_restriction_is_original(self):
        g = named("path", 4)
        gg = add_apexes(g, 2)
        restricted = [(u, v) for u, v in gg.edge_list() if u < g.n and v < g.n]
        assert restricted == g.edge_list()
        assert not gg.adjacency[g.n] >> (g.n + 1) & 1


class TestTriangleCount:
    def test_named_values(self):
        assert triangle_count(named("complete", 3)) == 1
        assert triangle_count(named("cycle", 6)) == 0
        assert triangle_count(named("complete", 4)) == 4

    def test_against_brute_force(self):
        for g in enumerate_graphs(5, dedup_isomorphism=True):
            edge = lambda u, v: g.adjacency[u] >> v & 1
            brute = sum(1 for a, b, c in combinations(range(g.n), 3) if edge(a, b) and edge(a, c) and edge(b, c))
            assert triangle_count(g) == brute


class TestEnumeration:
    def test_labeled_counts(self):
        assert sum(1 for _ in enumerate_graphs(2)) == 2
        assert sum(1 for _ in enumerate_graphs(3)) == 8

    def test_isomorphism_class_counts(self):
        oeis = [
            ({}, [1, 2, 4, 11, 34, 156, 1044]),  # A000088
            ({"triangle_free": True}, [1, 2, 3, 7, 14, 38, 107]),  # A006785
            ({"connected": True}, [1, 1, 2, 6, 21, 112, 853]),  # A001349
        ]
        for filters, counts in oeis:
            got = [sum(1 for _ in enumerate_graphs(n, dedup_isomorphism=True, **filters)) for n in range(1, 8)]
            assert got == counts, filters

    def test_dedup_yields_pairwise_nonisomorphic(self):
        for n in range(2, 6):
            reps = list(enumerate_graphs(n, dedup_isomorphism=True))
            masks = {canonical_mask(g) for g in reps}
            assert len(masks) == len(reps)

    def test_representative_is_its_own_canonical_form(self):
        for g in enumerate_graphs(4, dedup_isomorphism=True):
            assert canonical_mask(g) == graph_to_mask(g)

    def test_filters(self):
        tf = list(enumerate_graphs(4, dedup_isomorphism=True, triangle_free=True))
        assert not any(_has_triangle(g.adjacency) for g in tf)
        ni = list(enumerate_graphs(4, dedup_isomorphism=True, no_isolated=True))
        assert all(0 not in g.degrees() for g in ni)

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            next(enumerate_graphs(9))

    def test_early_exit_check_matches_full_minimization(self):
        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                assert _is_canonical(_mask_rows(n, mask)) == (canonical_mask(mask_to_graph(n, mask)) == mask), (n, mask)

    @pytest.mark.parametrize("n, samples", [(6, 60), (7, 20), (8, 6)])
    def test_bitset_check_matches_permutation_oracle(self, n, samples):
        # Random masks of every density, nearly all not canonical; their
        # canonical forms by the reference search; and symmetric graphs,
        # each both as named and in canonical form.
        rng = random.Random(2026 + n)
        m = n * (n - 1) // 2
        randoms = [Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < (k + 1) / (samples + 1)]) for k in range(samples)]
        symmetric = [Graph.from_edges(n, []), named("complete", n), named("cycle", n), named("path", n), named("biclique", 2, n - 2), named("star", n - 1)]
        masks = [rng.getrandbits(m) for _ in range(samples)]
        masks += [f(g) for g in randoms + symmetric for f in (graph_to_mask, canonical_mask)]
        verdicts = [canonical_oracle(n, mask) for mask in masks]
        assert any(verdicts) and not all(verdicts)
        for mask, verdict in zip(masks, verdicts):
            assert _is_canonical(_mask_rows(n, mask)) == verdict, (n, mask)

    def test_seven_vertex_class_count(self):
        assert sum(1 for _ in enumerate_graphs(7, dedup_isomorphism=True)) == 1044

    def test_eight_vertex_class_count(self):
        assert sum(1 for _ in enumerate_graphs(8, dedup_isomorphism=True)) == 12346  # A000088
        assert sum(1 for _ in enumerate_graphs(8, dedup_isomorphism=True, triangle_free=True)) == 410  # A006785
        assert sum(1 for _ in enumerate_graphs(8, dedup_isomorphism=True, connected=True)) == 11117  # A001349

    @pytest.mark.parametrize("connected, no_isolated, triangle_free", list(product([False, True], repeat=3)))
    def test_generation_matches_filtered_sweep(self, connected, no_isolated, triangle_free):
        # Reference: filter all 2^C(n,2) labeled masks, keep the canonical
        # ones by the full minimization above.
        for n in range(7):
            reference = tuple(
                mask
                for mask in _filtered_masks(n, connected, no_isolated, triangle_free)
                if is_canonical_mask(n, mask)
            )
            assert tuple(map(_rows_to_mask, _dedup_rows(n, connected, no_isolated, triangle_free))) == reference, n

    def test_canonical_form_matches_permutation_oracle(self):
        rng = random.Random(11)
        graphs = list(enumerate_graphs(4, dedup_isomorphism=True))
        for g in graphs:
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])
            assert canonical_mask(relabeled) == canonical_mask(g)
            assert are_isomorphic(relabeled, g)
            assert isomorphic_oracle(relabeled, g)


class TestDegreePairs:
    def test_equals_a_per_edge_recount(self):
        # Every labeled graph with n <= 6: the edges (u, v), u < v, grouped by
        # (d_v, d_u) in order of first appearance, degrees counted per edge.
        for n in range(7):
            for g in enumerate_graphs(n):
                edges = g.edge_list()
                degree = lambda x: sum(x in e for e in edges)
                groups = {}
                for u, v in edges:
                    groups.setdefault((degree(v), degree(u)), []).append((u, v))
                assert g.degree_pairs == tuple((key, tuple(group)) for key, group in groups.items()), edges


class TestPredicates:
    def test_against_networkx_on_labeled_graphs(self):
        nx = pytest.importorskip("networkx")
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                g_nx = nx.Graph()
                g_nx.add_nodes_from(range(n))
                g_nx.add_edges_from(g.edge_list())
                assert _connected(g.adjacency) == nx.is_connected(g_nx), g
                assert bipartite_oracle(g) == nx.is_bipartite(g_nx), g
                assert (not _has_triangle(g.adjacency)) == (sum(nx.triangles(g_nx).values()) == 0), g

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert _connected(g.adjacency) and bipartite_oracle(g) and not _has_triangle(g.adjacency)

    def test_filters_on_rows_match_graph_predicates(self):
        for n in range(6):
            every = list(_filtered_masks(n, False, False, False))
            for connected, triangle_free in product([False, True], repeat=2):
                want = [
                    mask
                    for mask in every
                    if (not connected or _connected(mask_to_graph(n, mask).adjacency))
                    and (not triangle_free or not _has_triangle(mask_to_graph(n, mask).adjacency))
                ]
                assert list(_filtered_masks(n, connected, False, triangle_free)) == want


class TestFormats:
    def test_edge_list_round_trip(self):
        g = build_named(GraphFamilySpec("petersen"))
        text = "%d %d\n" % (g.n, g.edge_count) + "".join("%d %d\n" % e for e in g.edge_list())
        assert read_edge_list(text) == g
        # Against the frozenset reference: seeded pair lists with repeats,
        # reversed pairs and shuffled order, read by from_edges, by
        # read_edge_list and reversed; then the same lists with one
        # self-loop or one endpoint out of range added.
        rng = random.Random(27)
        for trial in range(400):
            n = rng.randrange(9)
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(2 * n + 1))] if n > 1 else []
            pairs += rng.sample(pairs, len(pairs) // 3)
            pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
            rng.shuffle(pairs)
            edges, rows = frozenset_reference(n, pairs)
            g = Graph.from_edges(n, pairs)
            text = "%d %d\n" % (n, len(pairs)) + "".join("%d %d\n" % p for p in pairs)
            for h in (read_edge_list(text), Graph.from_edges(n, [(v, u) for u, v in reversed(pairs)])):
                assert h == g and hash(h) == hash(g)
            assert g.adjacency == rows
            assert g.edge_list() == sorted(tuple(sorted(e)) for e in edges)
            assert g.edge_text == str(g.edge_list())
            assert g.edge_count == len(edges)
            if trial % 2:
                w = rng.randrange(n + 2)
                bad = (w, w)
            else:
                bad = (rng.randrange(-2, n), rng.choice((-1, n, n + 1)))
            bad_pairs = pairs + [bad]
            rng.shuffle(bad_pairs)
            with pytest.raises(InvalidSpec) as want:
                frozenset_reference(n, bad_pairs)
            with pytest.raises(InvalidSpec) as got:
                Graph.from_edges(n, bad_pairs)
            assert str(got.value) == str(want.value)

    def test_edge_list_parsing(self):
        g = read_edge_list("3 2\n0 1\n1 2\n")
        assert g.edge_list() == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "3 x\n", "3 1\n0 1 2\n", "3 1\n1 1\n"])
    def test_malformed_edge_list(self, text):
        with pytest.raises(InvalidSpec):
            read_edge_list(text)

    @pytest.mark.parametrize("n", [-1, -2, True, 2.0, "3"])
    def test_vertex_count_must_be_a_nonnegative_int(self, n):
        with pytest.raises(InvalidSpec, match="vertex count must be a nonnegative int"):
            Graph.from_edges(n, [])

    @pytest.mark.parametrize("line", ["", "0 x", "~A", "D?"])
    def test_malformed_graph6(self, line):
        with pytest.raises(InvalidSpec):
            read_graph6(line)

    def test_graph6_against_networkx(self):
        # From n = 63 on, the vertex count takes the 4-character form.
        nx = pytest.importorskip("networkx")
        for n, seed in product((6, 63, 64, 65, 66), range(10)):
            g_nx = nx.gnp_random_graph(n, 0.5, seed=seed)
            line = nx.to_graph6_bytes(g_nx, header=False).decode().strip()
            g = read_graph6(line)
            assert g.n == n
            assert sorted(tuple(sorted(e)) for e in g_nx.edges()) == g.edge_list()

    def test_graph6_vertex_count_is_checked_before_the_body(self):
        # n = 300,000 in the 8-character form, refused by Graph's bound.
        with pytest.raises(LimitExceeded, match=r"\(n = 300000\)"):
            read_graph6("~~??@HN_" + "?" * 10)
        # K3 needs one data character, not a long tail.
        with pytest.raises(InvalidSpec, match="needs 1 data characters, not 2000000"):
            read_graph6("Bw" + "w" * 1999999)
