"""Brute-force oracle that re-decides scan cells without homlab's counting
or power code.

Every count is a plain `itertools.product` sum over all colourings with
denominators cleared into integers, and every comparison clears the
exponents into integer powers.  The oracle rebuilds the exact
`lhs_factors` / `rhs_factors` a report should carry and the verdict the
comparison gives, so a caller can check a report field by field.
"""

from fractions import Fraction
from itertools import product
from math import lcm


def hom_count(n: int, edges, weights, vertex_weights) -> Fraction:
    """sum over c in [q]^n of prod_v vw[c_v] * prod_{uv} w[c_u][c_v]."""
    q = len(vertex_weights)
    ed = lcm(*(Fraction(x).denominator for row in weights for x in row))
    vd = lcm(*(Fraction(x).denominator for x in vertex_weights))
    w = [[int(Fraction(x) * ed) for x in row] for row in weights]
    vw = [int(Fraction(x) * vd) for x in vertex_weights]
    total = 0
    for colours in product(range(q), repeat=n):
        t = 1
        for c in colours:
            t *= vw[c]
        for u, v in edges:
            if not t:
                break
            t *= w[colours[u]][colours[v]]
        total += t
    return Fraction(total, ed ** len(edges) * vd ** n)


def complete_bipartite(a: int, b: int):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def complete_graph(k: int):
    return k, [(i, j) for i in range(k) for j in range(i + 1, k)]


def double_cover(n: int, edges):
    """G x K2: vertex (v, side) is v + side * n."""
    return 2 * n, [(u, v + n) for u, v in edges] + [(v, u + n) for u, v in edges]


def frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def factor_list(factors):
    """Normal form of a product of (base, exponent) pairs as report text:
    equal bases merged, unit bases and zero exponents dropped, sorted by
    base.  None stands for a zero side."""
    if factors is None:
        return None
    merged = {}
    for base, exponent in factors:
        merged[base] = merged.get(base, Fraction(0)) + exponent
    return [[frac_text(b), frac_text(e)] for b, e in sorted(merged.items()) if e != 0 and b != 1]


def decide(lhs: Fraction, rhs_factors) -> str:
    """Verdict of lhs <= prod b^e (rhs_factors None means a zero RHS)."""
    if lhs == 0 or rhs_factors is None:
        if lhs == 0 and rhs_factors is None:
            return "equality"
        return "holds" if lhs == 0 else "violated"
    scale = lcm(*(e.denominator for _, e in rhs_factors))
    left_num, left_den = lhs.numerator ** scale, lhs.denominator ** scale
    right_num = right_den = 1
    for base, exponent in rhs_factors:
        k = int(exponent * scale)
        right_num *= base.numerator ** k
        right_den *= base.denominator ** k
    left, right = left_num * right_den, right_num * left_den
    return "equality" if left == right else ("holds" if left < right else "violated")


def expected_report(ineq: str, n: int, edges, weights, vertex_weights) -> dict:
    """The lhs_factors, rhs_factors and verdict a report on this cell must
    carry, computed from scratch."""

    def count(graph):
        return hom_count(graph[0], graph[1], weights, vertex_weights)

    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    if ineq == "bst":
        lhs = count((n, edges)) ** 2
        rhs_value = count(double_cover(n, edges))
        rhs = None if rhs_value == 0 else [(rhs_value, Fraction(1))]
    elif ineq == "reverse-sidorenko":
        lhs = count((n, edges))
        rhs = [(count(complete_bipartite(degrees[v], degrees[u])), Fraction(1, degrees[u] * degrees[v])) for u, v in edges]
    elif ineq == "clique-max":
        lhs = count((n, edges))
        rhs = [(count(complete_graph(degrees[v] + 1)), Fraction(1, degrees[v] + 1)) for v in range(n)]
    else:
        raise ValueError("no oracle for %r" % ineq)
    if rhs is not None and any(base == 0 for base, _ in rhs):
        rhs = None
    return {
        "lhs_factors": None if lhs == 0 else factor_list([(lhs, Fraction(1))]),
        "rhs_factors": factor_list(rhs),
        "verdict": decide(lhs, rhs),
    }


def mismatches(report: dict, expected: dict) -> list[str]:
    """Names of the report fields that disagree with the oracle."""
    return [k for k in ("lhs_factors", "rhs_factors", "verdict") if report.get(k) != expected[k]]
