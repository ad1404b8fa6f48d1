"""Shared brute-force oracles, deliberately independent of the engine's
computation paths: plain itertools enumeration with no pruning, no
contraction, no incremental products.
"""

import itertools
from fractions import Fraction

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
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    e2 = g2.edges
    for perm in itertools.permutations(range(g1.n)):
        if all(frozenset((perm[u], perm[v])) in e2 for u, v in g1.edge_list()):
            return True
    return False


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
