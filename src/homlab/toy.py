"""Step-by-step exact reproduction of the worked 3-list-coloring bound on
the 6-cycle: conditioning on the first vertex, the two induction-step
bounds on the remaining path, factor cancellation, the Cauchy-Schwarz
split, and the final 4-cycle base case.

Colors are 0=R, 1=G, 2=B; no looped colors.  The cycle lists are
{R,B}, {R,G}, {G,B}, {R,G,B}, {R,B}, {R,G,B} in cycle order.
"""

from fractions import Fraction

from homlab.counting import cc, semiproper_count
from homlab.graphs import Graph, build_named, GraphFamilySpec
from homlab.inequalities import IneqReport, decide
from homlab.power import radical_product

R, G, B = 0, 1, 2

CYCLE_LISTS = (
    frozenset({R, B}),
    frozenset({R, G}),
    frozenset({G, B}),
    frozenset({R, G, B}),
    frozenset({R, B}),
    frozenset({R, G, B}),
)


def _report(step: str, small, big, identity=False) -> IneqReport:
    """small <= big, or with identity=True small == big as the two checks
    small <= big and big <= small: decide makes anything but equality
    violated."""
    verdict, slack = decide([(step, small, big)] + ([(step, big, small)] if identity else []))
    return IneqReport("toy-c6:" + step, "six-cycle toy lists", None, None, verdict, True, slack)


def _path_count(lists) -> int:
    path = build_named(GraphFamilySpec("path", (len(lists),)))
    return semiproper_count(path, lists)


def reproduce_toy_c6() -> list[IneqReport]:
    """Verify every displayed step of the toy calculation exactly."""
    c6 = build_named(GraphFamilySpec("cycle", (6,)))
    lists = CYCLE_LISTS
    reports = []

    half, quarter = Fraction(1, 2), Fraction(1, 4)

    # Biclique factors of the main bound: edge (u, v) contributes
    # cc(L_u, L_v, 2, 2)^{1/4} since the cycle is 2-regular.
    edge_cc = [cc(lists[i], lists[(i + 1) % 6], 2, 2) for i in range(6)]
    total = semiproper_count(c6, lists)
    main_rhs = [(base, quarter) for base in edge_cc]
    reports.append(_report("main-inequality", [(total, 1)], main_rhs))

    # Conditioning on the first vertex (its list is {R, B}).
    lists_blue = [lists[1], lists[2], lists[3], lists[4], lists[5] - {B}]
    lists_red = [lists[1] - {R}, lists[2], lists[3], lists[4], lists[5] - {R}]
    count_blue = _path_count(lists_blue)
    count_red = _path_count(lists_red)
    reports.append(_report("condition-on-first-vertex", [(total, 1)], [(count_red + count_blue, 1)], identity=True))

    # Induction hypothesis applied to the two 5-vertex paths.  With path
    # degrees (1,2,2,2,1) the endpoint edges contribute K_{2,1} counts to
    # the 1/2 power and the interior edges K_{2,2} counts to the 1/4 power.
    def path_bound_factors(path_lists):
        return [
            (cc(path_lists[0], path_lists[1], 2, 1), half),
            (cc(path_lists[1], path_lists[2], 2, 2), quarter),
            (cc(path_lists[2], path_lists[3], 2, 2), quarter),
            (cc(path_lists[4], path_lists[3], 2, 1), half),
        ]

    blue_factors = path_bound_factors(lists_blue)
    red_factors = path_bound_factors(lists_red)
    reports.append(_report("induction-step-blue", [(count_blue, 1)], blue_factors))
    reports.append(_report("induction-step-red", [(count_red, 1)], red_factors))

    # Cancellation step: sum of the two path bounds against the full
    # product.  Both sides still carry the two interior K_{2,2} factors.
    lhs_sum = radical_product(blue_factors) + radical_product(red_factors)
    reports.append(_report("cancellation", [(lhs_sum, 1)], main_rhs))

    # Localized form: discard the factors shared by both sides (the two
    # interior edges of the paths, i.e. the cycle edges at distance >= 2
    # from the deleted vertex).
    a1 = cc(lists_blue[0], lists_blue[1], 2, 1)
    b1 = cc(lists_blue[4], lists_blue[3], 2, 1)
    a2 = cc(lists_red[0], lists_red[1], 2, 1)
    b2 = cc(lists_red[4], lists_red[3], 2, 1)
    local_lhs = radical_product([(a1, half), (b1, half)]) + radical_product([(a2, half), (b2, half)])
    local_rhs = [(edge_cc[i], quarter) for i in (0, 1, 4, 5)]
    reports.append(_report("localized", [(local_lhs, 1)], local_rhs))

    # Cauchy-Schwarz split: top half (the two-edge paths through the
    # second vertex) and bottom half (through the sixth vertex).
    top_rhs = [(edge_cc[0], half), (edge_cc[1], half)]
    reports.append(_report("post-cauchy-schwarz-top", [(a1 + a2, 1)], top_rhs))
    bottom_rhs = [(edge_cc[4], half), (edge_cc[5], half)]
    reports.append(_report("post-cauchy-schwarz-bottom", [(b1 + b2, 1)], bottom_rhs, identity=True))

    # The top-half sum is itself a 4-cycle list-coloring count with mixed
    # lists on one side: {R,G},{R,G} against {R,B},{G,B}.
    k22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    mixed = semiproper_count(k22, [lists[1], lists[1], lists[0], lists[2]])
    reports.append(_report("four-cycle-identity", [(mixed, 1)], [(a1 + a2, 1)], identity=True))

    # Final 4-cycle base case.
    reports.append(_report("final-four-cycle", [(mixed, 1)], top_rhs))
    return reports
