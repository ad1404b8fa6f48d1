import contextlib
import io
import itertools
import json
import operator
import os
import random
import re
import signal
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab import cli

from homlab.errors import LimitExceeded, PreconditionViolated
from homlab.lemmas import (
    LEMMA_IDS,
    LemmaInstance,
    _hom_clique_radical,
    check_local_lemma,
    lemma_instance_from_dict,
    lemma_instance_to_dict,
    random_lemma_instance,
    validate_instance,
)
from homlab.models import Model, random_model
from homlab.power import RadicalSum


class TestSpecExamples:
    def test_local_123_singleton_equality(self):
        inst = LemmaInstance(
            "local-123",
            {
                "beta": 1,
                "gamma": 2,
                "delta": 2,
                "f12": [[Fraction(1)]],
                "f23": [[Fraction(1)]],
                "w1": [Fraction(1)],
                "w2": [Fraction(1)],
                "w3": [Fraction(1)],
            },
        )
        assert check_local_lemma(inst).verdict == "equality"

    def test_local_123_two_color_inequality(self):
        ne = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        inst = LemmaInstance(
            "local-123",
            {
                "beta": 1,
                "gamma": 2,
                "delta": 2,
                "f12": ne,
                "f23": ne,
                "w1": [Fraction(1)] * 2,
                "w2": [Fraction(1)] * 2,
                "w3": [Fraction(1)] * 2,
            },
        )
        rep = check_local_lemma(inst)
        # LHS 2 against RHS 2^{1/2} * 2
        assert rep.verdict == "holds"

    def test_color_holder_equality_point(self):
        inst = LemmaInstance(
            "color-holder",
            {"q": 3, "looped": [], "A": [0, 1, 2], "B": [0, 1, 2], "k": 1, "r": 0, "s": 1, "t": 2},
        )
        assert check_local_lemma(inst).verdict == "equality"

    def test_color_ac_b_equals_one_is_equality(self):
        inst = LemmaInstance(
            "color-ac",
            {"q": 3, "looped": [], "A": [0, 1, 2], "B": [0, 1], "C": [1, 2], "a": 3, "b": 1, "c": 2},
        )
        assert check_local_lemma(inst).verdict == "equality"


class TestPreconditions:
    def test_gamma_too_small(self):
        inst = random_lemma_instance("local-123", 0)
        inst.params["gamma"] = 1
        with pytest.raises(PreconditionViolated, match="gamma"):
            check_local_lemma(inst)

    def test_color_bcd_d_not_subset(self):
        inst = LemmaInstance(
            "color-bcd",
            {"q": 3, "looped": [], "B": [0], "C": [0], "D": [1], "b": 2, "c": 1, "k": 1, "t": Fraction(1)},
        )
        with pytest.raises(PreconditionViolated, match="subset"):
            check_local_lemma(inst)

    def test_color_bcd_looped_d(self):
        inst = LemmaInstance(
            "color-bcd",
            {"q": 3, "looped": [1], "B": [0], "C": [0, 1], "D": [1], "b": 2, "c": 1, "k": 1, "t": Fraction(1)},
        )
        with pytest.raises(PreconditionViolated, match="looped"):
            check_local_lemma(inst)

    def test_color_abc_exponent_guard(self):
        inst = LemmaInstance(
            "color-abc",
            {"q": 2, "looped": [], "A": [0, 1], "B": [0], "C": [1], "a": 2, "b": 1, "c": 1},
        )
        with pytest.raises(PreconditionViolated, match="b \\+ c"):
            check_local_lemma(inst)

    def test_h_log_convex_needs_psd(self):
        from homlab.models import Model

        inst = random_lemma_instance("h-log-convex", 1)
        # Shape is read before the PSD check, so lam and nu match q = 2.
        inst.params.update(model=Model.from_rows([[0, 1], [1, 0]]), lam=(1, 1), nu=(1, 0))  # one negative eigenvalue
        with pytest.raises(PreconditionViolated, match="semidefinite"):
            check_local_lemma(inst)

    def test_mixed_norm_q_below_one(self):
        inst = random_lemma_instance("mixed-norm", 5)
        inst.params["q"] = Fraction(1, 2)
        with pytest.raises(PreconditionViolated, match="q >= 1"):
            check_local_lemma(inst)

    def test_sym_corollary_tau_must_decrease(self):
        inst = random_lemma_instance("sym-corollary", 2)
        inst.params["tau"] = [Fraction(0), Fraction(1)] + list(inst.params["tau"][2:])
        inst.params["k"] = len(inst.params["tau"]) - 1
        with pytest.raises(PreconditionViolated, match="non-increasing"):
            check_local_lemma(inst)


class TestParameterKinds:
    """Each kind of declared parameter rejects a malformed value with a
    PreconditionViolated naming it."""

    @pytest.mark.parametrize(
        "lemma_id, seed, update, message",
        [
            ("color-ac", 0, {"b": None}, "missing parameter b"),
            ("mixed-norm", 0, {"A": [[Fraction(1), Fraction(2)], [Fraction(1)]]}, "A has 1 entries along na = 2"),
            ("local-123", 0, {"w1": [Fraction(1)] * 9}, "w1 has 9 entries along n1"),
            ("h-log-convex", 0, {"lam": (Fraction(1),) * 7}, "lam has 7 entries along q = "),
            ("color-holder", 0, {"k": "2"}, "k must be an int"),
            ("color-holder", 0, {"k": True}, "k must be an int"),
            ("mixed-norm", 0, {"q": 2.0}, "q must be a rational"),
            ("sym-monotone", 0, {"alphas": [Fraction(1), Fraction(-1, 2)]}, "alphas must be nonnegative"),
            ("mixed-norm", 0, {"A": []}, "A must be a nonempty rows x na array of rationals"),
            ("color-ac", 0, {"A": [[0], 1]}, "A must be a list of int colors"),
            ("h-log-convex", 0, {"model": [[1]]}, "model must be a Model"),
            ("clique-cs", 0, {"graph": "C4"}, "graph must be a Graph"),
        ],
    )
    def test_malformed_parameter(self, lemma_id, seed, update, message):
        inst = random_lemma_instance(lemma_id, seed)
        for key, value in update.items():
            if value is None:
                del inst.params[key]
            else:
                inst.params[key] = value
        with pytest.raises(PreconditionViolated, match=re.escape(message)):
            check_local_lemma(inst)

    def test_negative_f_log_conv_weight(self):
        inst = random_lemma_instance("f-log-conv", 0)
        inst.params["mu"] = (Fraction(-1),) + tuple(inst.params["mu"][1:])
        with pytest.raises(PreconditionViolated, match="mu must be nonnegative"):
            check_local_lemma(inst)

    def test_read_values_are_tuples_of_fractions(self):
        inst = random_lemma_instance("clique-cs", 4)
        inst.params["nu_apex"] = [1] * len(inst.params["nu_apex"])
        p = validate_instance(inst)
        assert p["nu_apex"] == (Fraction(1),) * len(inst.params["nu_apex"])
        assert all(type(row) is tuple and all(type(x) is Fraction for x in row) for row in p["lam"])
        # Fractions are passed through, not re-wrapped.
        assert p["lam"][0][0] is inst.params["lam"][0][0]
        colors = random_lemma_instance("color-bcd", 1)
        assert validate_instance(colors)["C"] == frozenset(colors.params["C"])

    def test_unknown_lemma_id(self):
        with pytest.raises(PreconditionViolated, match="unknown lemma id"):
            validate_instance(LemmaInstance(["mixed-norm"], {}))


# A placeholder for the bare JSON number 1e400, which json.loads reads as
# an infinite float; json.dump would write Infinity instead.
OVERFLOW = "<1e400>"


def _rational_slot(holder, key):
    """(holder, key) of the last rational string at or under holder[key],
    looking into a tagged model's vertex weights; None if there is none."""
    value = holder[key]
    if isinstance(value, str):
        return holder, key
    if isinstance(value, dict) and "__model__" in value:
        return _rational_slot(value["__model__"], "vertex_weights")
    if isinstance(value, list) and value:
        return _rational_slot(value, -1)
    return None


def _mutants(doc):
    """(name, apply) for each mutation that applies to a lemma file: drop a
    key, truncate a row, turn an int into a string, nest a color, or put a
    negative entry, a JSON float (0.1 or 1e400) or an exponent string where
    a rational is due."""
    params = doc["params"]
    out = [("drop %s" % k, lambda p, k=k: p.pop(k)) for k in params]
    for k, v in params.items():
        if type(v) is int:
            out.append(("stringify %s" % k, lambda p, k=k: p.update({k: str(p[k])})))
        elif isinstance(v, list) and v and all(type(c) is int for c in v):
            out.append(("nest %s" % k, lambda p, k=k: p[k].__setitem__(0, [p[k][0]])))
        elif isinstance(v, list) and v and isinstance(v[0], list) and v[0]:
            out.append(("truncate %s" % k, lambda p, k=k: p[k][0].pop()))
        if _rational_slot(params, k):
            for label, bad in (("negate", "-1"), ("float", 0.1), ("overflow", OVERFLOW), ("exponent", "1e100000000")):
                out.append(("%s %s" % (label, k), lambda p, k=k, bad=bad: operator.setitem(*_rational_slot(p, k), bad)))
    return out


class TestLemmaFileFuzz:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from(LEMMA_IDS), st.integers(0, 199), st.data())
    def test_mutated_file_exits_cleanly(self, lemma_id, seed, data):
        doc = lemma_instance_to_dict(random_lemma_instance(lemma_id, seed))
        name, mutate = data.draw(st.sampled_from(_mutants(doc)))
        mutate(doc["params"])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "inst.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc).replace(json.dumps(OVERFLOW), "1e400"))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["lemma", "--file", path])
        assert code in (0, 1, 2), name
        if code == 1:
            assert err.getvalue().startswith("error: "), (name, err.getvalue())


class TestBattery:
    @pytest.mark.parametrize("lemma_id", LEMMA_IDS)
    def test_forty_seeds_per_lemma(self, lemma_id):
        for seed in range(40):
            inst = random_lemma_instance(lemma_id, seed)
            rep = check_local_lemma(inst)
            assert rep.verdict in ("holds", "equality"), (lemma_id, seed, rep)
            assert rep.exact

    def test_generator_is_deterministic(self):
        for lemma_id in LEMMA_IDS:
            a = random_lemma_instance(lemma_id, 3)
            b = random_lemma_instance(lemma_id, 3)
            assert a.params == b.params, lemma_id


class TestSerialization:
    @pytest.mark.parametrize("lemma_id", LEMMA_IDS)
    def test_round_trip_preserves_verdict(self, lemma_id):
        # The whole report, not only the verdict: the instance text describes
        # the parameters as read, so it does not depend on their source.
        for seed in range(20):
            inst = random_lemma_instance(lemma_id, seed)
            doc = lemma_instance_to_dict(inst)
            decoded = lemma_instance_from_dict(json.loads(json.dumps(doc)))
            assert lemma_instance_to_dict(decoded) == doc, (lemma_id, seed)
            assert check_local_lemma(decoded) == check_local_lemma(inst), (lemma_id, seed)

    def test_document_holds_the_declared_parameters_as_read(self):
        inst = random_lemma_instance("color-ac", 9)
        inst.params["C"] = [3, 1, 2]
        doc = lemma_instance_to_dict(inst)
        assert "q" in inst.params and set(doc["params"]) == {"looped", "A", "B", "C", "a", "b", "c"}
        assert doc["params"]["C"] == [1, 2, 3]
        inst = random_lemma_instance("h-log-convex", 0)
        inst.params["nu"] = [1] * len(inst.params["nu"])
        assert lemma_instance_to_dict(inst)["params"]["nu"] == ["1"] * len(inst.params["nu"])


class TestFloatTranscriptionOracle:
    """Recompute both sides of two lemmas directly from their statements in
    high-precision floats (an independent transcription) and require the
    same verdict the exact evaluator produced."""

    def test_color_abc_sides(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        from homlab.counting import cc, ominus

        for seed in range(40):
            inst = random_lemma_instance("color-abc", seed)
            p = inst.params
            a_set, b_set, c_set = set(p["A"]), set(p["B"]), set(p["C"])
            looped = set(p["looped"])
            a, b, c = p["a"], p["b"], p["c"]
            lhs = mpmath.mpf(0)
            for x in sorted(a_set):
                v = cc(ominus(b_set, {x}, looped), ominus(c_set, {x}, looped), c - 1, b - 1, looped)
                lhs += mpmath.power(v, mpmath.mpf(a) / (b + c - 2))
            rhs = (
                mpmath.power(cc(a_set, b_set, b, a, looped), mpmath.mpf(c - 1) / (b * (b + c - 2)))
                * mpmath.power(cc(a_set, c_set, c, a, looped), mpmath.mpf(b - 1) / (c * (b + c - 2)))
                * mpmath.power(
                    cc(b_set, c_set, c, b, looped),
                    mpmath.mpf(a * (b - 1) * (c - 1)) / ((b + c - 2) * b * c),
                )
            )
            tol = mpmath.mpf(10) ** -30 * max(1, abs(lhs), abs(rhs))
            float_verdict = (
                "equality" if abs(rhs - lhs) < tol else ("holds" if rhs > lhs else "violated")
            )
            assert check_local_lemma(inst).verdict == float_verdict, seed

    def test_local_123_sides(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        import itertools

        for seed in range(40):
            inst = random_lemma_instance("local-123", seed)
            p = inst.params
            beta, gamma, delta = p["beta"], p["gamma"], p["delta"]
            to_f = lambda x: mpmath.mpf(x.numerator) / x.denominator
            f12 = [[to_f(x) for x in row] for row in p["f12"]]
            f23 = [[to_f(x) for x in row] for row in p["f23"]]
            w1 = [to_f(x) for x in p["w1"]]
            w2 = [to_f(x) for x in p["w2"]]
            w3 = [to_f(x) for x in p["w3"]]
            n1, n2, n3 = len(w1), len(w2), len(w3)
            lhs = mpmath.mpf(0)
            for x in range(n1):
                inner = mpmath.mpf(0)
                for ys in itertools.product(range(n2), repeat=beta):
                    for zs in itertools.product(range(n3), repeat=gamma - 1):
                        t = mpmath.mpf(1)
                        for y in ys:
                            t *= w2[y]
                            for z in zs:
                                t *= mpmath.power(f12[x][y], mpmath.mpf(1) / (gamma - 1)) * f23[y][z]
                        for z in zs:
                            t *= w3[z]
                        inner += t
                lhs += w1[x] * mpmath.power(inner, mpmath.mpf(delta * (gamma - 1)) / (beta * (gamma - 1)))
            s12 = mpmath.mpf(0)
            for xs in itertools.product(range(n1), repeat=gamma):
                for ys in itertools.product(range(n2), repeat=delta):
                    t = mpmath.mpf(1)
                    for x in xs:
                        t *= w1[x]
                    for y in ys:
                        t *= w2[y]
                    for x in xs:
                        for y in ys:
                            t *= f12[x][y]
                    s12 += t
            s23 = mpmath.mpf(0)
            for ys in itertools.product(range(n2), repeat=beta):
                for zs in itertools.product(range(n3), repeat=gamma):
                    t = mpmath.mpf(1)
                    for y in ys:
                        t *= w2[y]
                    for z in zs:
                        t *= w3[z]
                    for y in ys:
                        for z in zs:
                            t *= f23[y][z]
                    s23 += t
            rhs = mpmath.power(s12, mpmath.mpf(1) / gamma) * mpmath.power(
                s23, mpmath.mpf(delta * (gamma - 1)) / (beta * gamma)
            )
            tol = mpmath.mpf(10) ** -30 * max(1, abs(lhs), abs(rhs))
            float_verdict = (
                "equality" if abs(rhs - lhs) < tol else ("holds" if rhs > lhs else "violated")
            )
            assert check_local_lemma(inst).verdict == float_verdict, seed


class TestHLogConvexChain:
    def test_chain_for_t_two_and_three(self):
        import random as rnd

        from homlab.models import random_model

        rng = rnd.Random(51)
        for seed in range(20):
            q = 1 + seed % 3
            m = random_model(q, seed, "psd")
            lam = tuple(Fraction(rng.randrange(1, 4), rng.randrange(1, 3)) for _ in range(q))
            nu = tuple(Fraction(rng.randrange(0, 4), rng.randrange(1, 3)) for _ in range(q))
            for t in (2, 3):
                inst = LemmaInstance("h-log-convex", {"model": m, "t": t, "lam": lam, "nu": nu})
                rep = check_local_lemma(inst)
                assert rep.verdict in ("holds", "equality"), (seed, t)


def _hom_clique_radical_reference(s, m, lam, eta_atoms, eta_power):
    # One term per coloring of K_s, as a plain product over all q^s tuples.
    out = RadicalSum()
    for xs in itertools.product(range(m.q), repeat=s):
        t = Fraction(1)
        for i, x in enumerate(xs):
            t *= m.vertex_weights[x] * lam[x]
            for y in xs[:i]:
                t *= m.edge_weights[y][x]
        term = RadicalSum.from_rational(t)
        for x in xs:
            term = term * eta_atoms[x].int_pow(eta_power)
        out = out + term
    return out


class TestCliqueRadicalDifferential:
    def test_matches_tuple_sum(self):
        rng = random.Random(61)
        for seed in range(40):
            q = rng.randrange(1, 4)
            m = random_model(q, seed, "psd")
            lam = tuple(Fraction(rng.choice([0, 0, 1, 2, 3]), rng.randrange(1, 3)) for _ in range(q))
            eta_atoms = [RadicalSum.from_power(rng.randrange(0, 6), Fraction(1, rng.randrange(1, 4))) for _ in range(q)]
            for s in range(0, 6):
                power = rng.randrange(0, 3)
                got = _hom_clique_radical(s, m, lam, eta_atoms, power)
                want = _hom_clique_radical_reference(s, m, lam, eta_atoms, power)
                # Same terms in the same order: the float slack sums them in order.
                assert list(got.terms.items()) == list(want.terms.items()), (seed, s)

    def test_large_exponent_instance_is_fast(self):
        m = Model.from_rows([[18, 7, 14], [7, Fraction(69, 4), 19], [14, 19, 24]])
        params = {
            "model": m,
            "a": 12,
            "b": 1,
            "delta": 12,
            "lam": (1, 3, 1),
            "mu": (Fraction(1, 2), Fraction(1, 2), 1),
        }
        t0 = time.time()
        assert check_local_lemma(LemmaInstance("m-log-conv", params)).verdict == "holds"
        assert time.time() - t0 < 10

    def test_each_body_is_built_once(self, monkeypatch):
        from homlab import lemmas

        built = []
        build = lemmas._hom_clique_radical
        monkeypatch.setattr(lemmas, "_hom_clique_radical", lambda s, *rest: built.append(s) or build(s, *rest))
        m = Model.from_rows([[18, 7, 14], [7, Fraction(69, 4), 19], [14, 19, 24]])
        params = {"model": m, "a": 6, "b": 1, "delta": 6, "lam": (1, 3, 1), "mu": (Fraction(1, 2), Fraction(1, 2), 1)}
        assert check_local_lemma(LemmaInstance("m-log-conv", params)).verdict == "holds"
        # Seven checks name s = 1..7 twenty times between them.
        assert sorted(built) == list(range(1, 8))

    def test_over_work_limit_fails_fast(self):
        m = Model.from_rows([[18, 7, 14], [7, Fraction(69, 4), 19], [14, 19, 24]])
        params = {
            "model": m,
            "a": 60,
            "b": 1,
            "delta": 60,
            "lam": (1, 3, 1),
            "mu": (Fraction(1, 2), Fraction(1, 2), 1),
        }
        t0 = time.time()
        with pytest.raises(LimitExceeded, match="m-log-conv work bound"):
            check_local_lemma(LemmaInstance("m-log-conv", params))
        assert time.time() - t0 < 1


# Three multiset loops past the work limit: C(n + k - 1, k) multisets
# times each one's cost.  Each ran past 15 s before its loop had a bound.
_OVER_LIMIT_FILES = [
    ("symmetric-sum", {"lemma": "sym-monotone", "params": {"k": 400, "alphas": ["1", "2", "3", "4", "5", "6"]}}),
    (
        "local-123",
        {
            "lemma": "local-123",
            "params": {
                "beta": 300,
                "gamma": 2,
                "delta": 300,
                "f12": [["1", "1", "1", "1"]],
                "f23": [["1"], ["1"], ["1"], ["1"]],
                "w1": ["1"],
                "w2": ["1", "1", "1", "1"],
                "w3": ["1"],
            },
        },
    ),
    (
        "color-bcd",
        {"lemma": "color-bcd", "params": {"q": 4, "looped": [], "B": [0, 1, 2, 3], "C": [0, 1, 2, 3], "D": [0, 1, 2, 3], "b": 2, "c": 1, "k": 300, "t": 1}},
    ),
]


class TestMultisetLoopBounds:
    BUDGET_S = 5

    def _main(self, argv):
        """cli.main in-process under a SIGALRM budget: (exit code, stdout, stderr)."""

        def over_budget(signum, frame):
            raise TimeoutError("%r ran past %d s" % (argv, self.BUDGET_S))

        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, over_budget)
        signal.setitimer(signal.ITIMER_REAL, self.BUDGET_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("kind, doc", _OVER_LIMIT_FILES, ids=[kind for kind, _ in _OVER_LIMIT_FILES])
    def test_over_limit_file_is_refused(self, tmp_path, kind, doc):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code, out, err = self._main(["lemma", "--file", str(path)])
        assert time.perf_counter() - t0 < 1
        assert code == 1 and not out
        assert err.startswith("error: %s work bound " % kind) and err.count("\n") == 1
        assert "Traceback" not in err

    def test_large_palette_at_k_one_is_decided(self):
        # clique_terms over 3,000 colors at a = 1: one multiset per color.
        code, out, err = self._main(["verify", "--ineq", "clique-max", "--graph", "K1", "--model", "Kq:3000"])
        assert code == 0 and not err
        assert "verdict=equality" in out
