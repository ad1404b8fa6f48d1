from fractions import Fraction

from conftest import semiproper_oracle
from homlab.counting import cc, semiproper_count
from homlab.graphs import GraphFamilySpec, build_named
from homlab.toy import CYCLE_LISTS, _report, reproduce_toy_c6


def step_verdicts():
    return {r.ineq.removeprefix("toy-c6:"): r for r in reproduce_toy_c6()}


class TestFrozenQuantities:
    """The exact counts every step is built from, frozen from the
    brute-force oracle."""

    def test_cycle_count(self):
        c6 = build_named(GraphFamilySpec("cycle", (6,)))
        assert semiproper_oracle(c6, CYCLE_LISTS) == 17
        assert semiproper_count(c6, CYCLE_LISTS) == 17

    def test_edge_biclique_counts(self):
        values = [cc(CYCLE_LISTS[i], CYCLE_LISTS[(i + 1) % 6], 2, 2) for i in range(6)]
        assert values == [7, 7, 10, 10, 10, 10]

    def test_split_counts(self):
        # leaves-side K_{2,1} counts appearing in the localized steps
        assert cc({0, 1}, {1, 2}, 2, 1) == 5
        assert cc({1}, {1, 2}, 2, 1) == 1
        assert cc({0, 1}, {0, 2}, 2, 1) == 5
        assert cc({1, 2}, {0, 2}, 2, 1) == 5


class TestSteps:
    def test_all_steps_hold_or_equal(self):
        reports = reproduce_toy_c6()
        assert len(reports) == 10
        assert all(r.verdict in ("holds", "equality") for r in reports)
        assert all(r.exact for r in reports)

    def test_required_equalities(self):
        steps = step_verdicts()
        assert steps["condition-on-first-vertex"].verdict == "equality"
        assert steps["four-cycle-identity"].verdict == "equality"
        assert steps["post-cauchy-schwarz-bottom"].verdict == "equality"

    def test_main_inequality_is_strict(self):
        steps = step_verdicts()
        assert steps["main-inequality"].verdict == "holds"
        assert steps["main-inequality"].slack_log10 > 0

    def test_post_cs_top_values(self):
        # 6 <= sqrt(7 * 7): strict
        steps = step_verdicts()
        assert steps["post-cauchy-schwarz-top"].verdict == "holds"

    def test_bottom_equality_numbers(self):
        # the two K_{2,1} counts sum to the K_{2,2} count exactly
        b1 = cc({0, 1}, {0, 2}, 2, 1)
        b2 = cc({1, 2}, {0, 2}, 2, 1)
        assert b1 + b2 == 10 == cc({0, 2}, {0, 1, 2}, 2, 2)

    def test_mixed_four_cycle_identity_numbers(self):
        from homlab.graphs import Graph

        k22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        mixed = semiproper_count(k22, [{0, 1}, {0, 1}, {0, 2}, {1, 2}])
        assert mixed == 6 == cc({0, 1}, {1, 2}, 2, 1) + cc({1}, {1, 2}, 2, 1)

    def test_an_identity_that_only_holds_is_violated(self):
        # 6 <= 7 holds as an inequality; as an identity it fails both ways.
        assert _report("step", [(6, 1)], [(7, 1)]).verdict == "holds"
        for small, big in ((6, 7), (7, 6)):
            report = _report("step", [(small, 1)], [(big, 1)], identity=True)
            assert report.verdict == "violated" and report.slack_log10 < 0
        assert _report("step", [(Fraction(2), Fraction(1, 2))], [(4, Fraction(1, 4))], identity=True).verdict == "equality"
