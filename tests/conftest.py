"""Shared brute-force oracles, deliberately independent of the engine's
computation paths: plain itertools enumeration with no pruning, no
contraction, no incremental products.
"""

import itertools
from fractions import Fraction
from math import comb

import pytest

from homlab.graphs import Graph


def hom_oracle(g: Graph, m, constraints=None) -> Fraction:
    """Sum over all |Omega|^n maps of the full product, no shortcuts."""
    total = Fraction(0)
    edges = g.edge_list()
    for assignment in itertools.product(range(m.q), repeat=g.n):
        w = Fraction(1)
        for v, c in enumerate(assignment):
            w *= m.vertex_weights[c]
            if constraints is not None:
                w *= Fraction(constraints[v][c])
        for u, v in edges:
            w *= m.edge_weights[assignment[u]][assignment[v]]
        total += w
    return total


def cleared_bits_oracle(factors, scale: int) -> int:
    """Bits of prod b^(e * scale) over Fraction factors (b, e), with scale a
    common multiple of the exponent denominators."""
    bits = 0
    for base, exponent in factors:
        k = abs(exponent.numerator * (scale // exponent.denominator))
        bits += k * max(base.numerator.bit_length(), base.denominator.bit_length())
    return bits


def clearing_oracle(factors, scale: int) -> str:
    """Ordering of prod b^e against 1 over Fraction factors (b, e): raised
    to the power `scale`, a common multiple of the exponent denominators,
    as a comparison of big integers."""
    num = den = 1
    for base, exponent in factors:
        k = exponent.numerator * (scale // exponent.denominator)
        if k > 0:
            num *= base.numerator ** k
            den *= base.denominator ** k
        else:
            num *= base.denominator ** (-k)
            den *= base.numerator ** (-k)
    if num == den:
        return "equal"
    return "less" if num < den else "greater"


def cc_oracle(a_set, b_set, a: int, b: int, looped=frozenset()) -> int:
    """Count semiproper colorings of K_{a,b} by direct double enumeration."""
    looped = frozenset(looped)
    total = 0
    for xa in itertools.product(sorted(a_set), repeat=a):
        for xb in itertools.product(sorted(b_set), repeat=b):
            if all(x != y or x in looped for x in xa for y in xb):
                total += 1
    return total


def semiproper_oracle(g: Graph, lists, looped=frozenset()) -> int:
    looped = frozenset(looped)
    edges = g.edge_list()
    total = 0
    for assignment in itertools.product(*[sorted(l) for l in lists]):
        ok = True
        for u, v in edges:
            if assignment[u] == assignment[v] and assignment[u] not in looped:
                ok = False
                break
        if ok:
            total += 1
    return total


def isomorphic_oracle(g1: Graph, g2: Graph) -> bool:
    """Brute-force permutation search."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    rows2 = g2.adjacency
    for perm in itertools.permutations(range(g1.n)):
        if all(rows2[perm[u]] >> perm[v] & 1 for u, v in g1.edge_list()):
            return True
    return False


def bipartite_oracle(g: Graph) -> bool:
    """Two-colour each component by a depth-first search over edge_list()."""
    neighbours = [[] for _ in range(g.n)]
    for u, v in g.edge_list():
        neighbours[u].append(v)
        neighbours[v].append(u)
    side = {}
    for start in range(g.n):
        if start in side:
            continue
        side[start], stack = 0, [start]
        while stack:
            u = stack.pop()
            for w in neighbours[u]:
                if w not in side:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def eps_low_coefficients(g: Graph) -> tuple:
    """The displayed low-order expansion (1, |E|, C(|E|,2), C(|E|,3)+|T|) of
    hom(G, H_eps), with the triangles T counted over all vertex triples."""
    e = len(g.edge_list())
    edge = lambda u, v: g.adjacency[u] >> v & 1
    t = sum(1 for a, b, c in itertools.combinations(range(g.n), 3) if edge(a, b) and edge(a, c) and edge(b, c))
    return (1, e, comb(e, 2), comb(e, 3) + t)


def two_spin_is_ferromagnetic(m) -> bool:
    """Determinant shortcut: w00*w11 >= w01^2."""
    w = m.edge_weights
    return w[0][0] * w[1][1] >= w[0][1] ** 2


def two_spin_is_antiferromagnetic(m) -> bool:
    w = m.edge_weights
    return w[0][0] * w[1][1] <= w[0][1] ** 2


def canonical_oracle(n: int, mask: int) -> bool:
    """Whether no relabeling of the n-vertex graph with edge mask `mask`
    (bit k is the k-th pair of (0,1), (0,2), ..., (n-2,n-1)) has a smaller
    column-major adjacency string, trying all n! relabelings.  Column j of
    the string holds the bits (0,j), ..., (j-1,j)."""
    adj = [[0] * n for _ in range(n)]
    for k, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        adj[u][v] = adj[v][u] = mask >> k & 1
    column_major = [(i, j) for j in range(1, n) for i in range(j)]
    identity = [adj[i][j] for i, j in column_major]
    return not any([adj[p[i]][p[j]] for i, j in column_major] < identity for p in itertools.permutations(range(n)))


def independent_set_count_oracle(g: Graph) -> int:
    count = 0
    for subset in itertools.product((0, 1), repeat=g.n):
        if all(not (subset[u] and subset[v]) for u, v in g.edge_list()):
            count += 1
    return count


@pytest.fixture(scope="session")
def oracles():
    return {
        "hom": hom_oracle,
        "cc": cc_oracle,
        "semiproper": semiproper_oracle,
        "isomorphic": isomorphic_oracle,
        "independent_sets": independent_set_count_oracle,
    }
