"""Step-by-step exact reproduction of the worked 3-list-coloring bound on
the 6-cycle: conditioning on the first vertex, the two induction-step
bounds on the remaining path, factor cancellation, the Cauchy-Schwarz
split, and the final 4-cycle base case.

Colors are 0=R, 1=G, 2=B; no looped colors.  The cycle lists are
{R,B}, {R,G}, {G,B}, {R,G,B}, {R,B}, {R,G,B} in cycle order.
"""

import math
from fractions import Fraction

from homlab.counting import cc, semiproper_count
from homlab.graphs import Graph, build_named, GraphFamilySpec
from homlab.inequalities import IneqReport
from homlab.lemmas import _float_of_factors
from homlab.power import RadicalSum, compare_radical_products

R, G, B = 0, 1, 2

CYCLE_LISTS = (
    frozenset({R, B}),
    frozenset({R, G}),
    frozenset({G, B}),
    frozenset({R, G, B}),
    frozenset({R, B}),
    frozenset({R, G, B}),
)


def _report(step: str, small, big, must_be_equality=False) -> IneqReport:
    from homlab.inequalities import clamp_slack

    cmp_result = compare_radical_products(small, big)
    verdict = {"less": "holds", "equal": "equality", "greater": "violated"}[cmp_result.ordering]
    if must_be_equality and verdict != "equality":
        verdict = "violated"
    small_f = _float_of_factors(small)
    big_f = _float_of_factors(big)
    slack = math.log10(big_f / small_f) if small_f > 0 and big_f > 0 else 0.0
    return IneqReport("toy-c6:" + step, "six-cycle toy lists", None, None, verdict, True, clamp_slack(verdict, slack))


def _path_count(lists) -> int:
    path = build_named(GraphFamilySpec("path", (len(lists),)))
    return semiproper_count(path, lists)


def reproduce_toy_c6() -> list[IneqReport]:
    """Verify every displayed step of the toy calculation exactly."""
    c6 = build_named(GraphFamilySpec("cycle", (6,)))
    lists = CYCLE_LISTS
    reports = []

    # Biclique factors of the main bound: edge (u, v) contributes
    # cc(L_u, L_v, 2, 2)^{1/4} since the cycle is 2-regular.
    edge_cc = [cc(lists[i], lists[(i + 1) % 6], 2, 2) for i in range(6)]
    total = semiproper_count(c6, lists)
    main_rhs = [(RadicalSum.from_rational(base), Fraction(1, 4)) for base in edge_cc]
    reports.append(_report("main-inequality", [(RadicalSum.from_rational(total), Fraction(1))], main_rhs))

    # Conditioning on the first vertex (its list is {R, B}).
    lists_blue = [
        lists[1],
        lists[2],
        lists[3],
        lists[4],
        lists[5] - {B},
    ]
    lists_red = [
        lists[1] - {R},
        lists[2],
        lists[3],
        lists[4],
        lists[5] - {R},
    ]
    count_blue = _path_count(lists_blue)
    count_red = _path_count(lists_red)
    reports.append(
        _report(
            "condition-on-first-vertex",
            [(RadicalSum.from_rational(total), Fraction(1))],
            [(RadicalSum.from_rational(count_red + count_blue), Fraction(1))],
            must_be_equality=True,
        )
    )

    # Induction hypothesis applied to the two 5-vertex paths.  With path
    # degrees (1,2,2,2,1) the endpoint edges contribute K_{2,1} counts to
    # the 1/2 power and the interior edges K_{2,2} counts to the 1/4 power.
    def path_bound_factors(path_lists):
        f = [
            (RadicalSum.from_rational(cc(path_lists[0], path_lists[1], 2, 1)), Fraction(1, 2)),
            (RadicalSum.from_rational(cc(path_lists[1], path_lists[2], 2, 2)), Fraction(1, 4)),
            (RadicalSum.from_rational(cc(path_lists[2], path_lists[3], 2, 2)), Fraction(1, 4)),
            (RadicalSum.from_rational(cc(path_lists[4], path_lists[3], 2, 1)), Fraction(1, 2)),
        ]
        return f

    blue_factors = path_bound_factors(lists_blue)
    red_factors = path_bound_factors(lists_red)
    reports.append(
        _report("induction-step-blue", [(RadicalSum.from_rational(count_blue), Fraction(1))], blue_factors)
    )
    reports.append(
        _report("induction-step-red", [(RadicalSum.from_rational(count_red), Fraction(1))], red_factors)
    )

    # Cancellation step: sum of the two path bounds against the full
    # product.  Both sides still carry the two interior K_{2,2} factors.
    def factors_to_sum(factors) -> RadicalSum:
        out = RadicalSum.from_rational(1)
        for s, e in factors:
            value = s.as_fraction()
            out = out * RadicalSum.from_power(value, e)
        return out

    lhs_sum = factors_to_sum(blue_factors) + factors_to_sum(red_factors)
    reports.append(_report("cancellation", [(lhs_sum, Fraction(1))], main_rhs))

    # Localized form: discard the factors shared by both sides (the two
    # interior edges of the paths, i.e. the cycle edges at distance >= 2
    # from the deleted vertex).
    a1 = cc(lists_blue[0], lists_blue[1], 2, 1)
    b1 = cc(lists_blue[4], lists_blue[3], 2, 1)
    a2 = cc(lists_red[0], lists_red[1], 2, 1)
    b2 = cc(lists_red[4], lists_red[3], 2, 1)
    local_lhs = RadicalSum.from_power(a1, Fraction(1, 2)) * RadicalSum.from_power(b1, Fraction(1, 2)) + RadicalSum.from_power(
        a2, Fraction(1, 2)
    ) * RadicalSum.from_power(b2, Fraction(1, 2))
    local_rhs = [
        (RadicalSum.from_rational(edge_cc[0]), Fraction(1, 4)),
        (RadicalSum.from_rational(edge_cc[1]), Fraction(1, 4)),
        (RadicalSum.from_rational(edge_cc[4]), Fraction(1, 4)),
        (RadicalSum.from_rational(edge_cc[5]), Fraction(1, 4)),
    ]
    reports.append(_report("localized", [(local_lhs, Fraction(1))], local_rhs))

    # Cauchy-Schwarz split: top half (the two-edge paths through the
    # second vertex) and bottom half (through the sixth vertex).
    reports.append(
        _report(
            "post-cauchy-schwarz-top",
            [(RadicalSum.from_rational(a1 + a2), Fraction(1))],
            [(RadicalSum.from_rational(edge_cc[0]), Fraction(1, 2)), (RadicalSum.from_rational(edge_cc[1]), Fraction(1, 2))],
        )
    )
    reports.append(
        _report(
            "post-cauchy-schwarz-bottom",
            [(RadicalSum.from_rational(b1 + b2), Fraction(1))],
            [(RadicalSum.from_rational(edge_cc[4]), Fraction(1, 2)), (RadicalSum.from_rational(edge_cc[5]), Fraction(1, 2))],
            must_be_equality=True,
        )
    )

    # The top-half sum is itself a 4-cycle list-coloring count with mixed
    # lists on one side: {R,G},{R,G} against {R,B},{G,B}.
    k22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    mixed = semiproper_count(k22, [lists[1], lists[1], lists[0], lists[2]])
    reports.append(
        _report(
            "four-cycle-identity",
            [(RadicalSum.from_rational(mixed), Fraction(1))],
            [(RadicalSum.from_rational(a1 + a2), Fraction(1))],
            must_be_equality=True,
        )
    )

    # Final 4-cycle base case.
    reports.append(
        _report(
            "final-four-cycle",
            [(RadicalSum.from_rational(mixed), Fraction(1))],
            [(RadicalSum.from_rational(edge_cc[0]), Fraction(1, 2)), (RadicalSum.from_rational(edge_cc[1]), Fraction(1, 2))],
        )
    )
    return reports
