"""The local-lemma battery: exact checkers for every helper inequality,
each exercised on finite rational instances.

Each lemma id has a validator (raising PreconditionViolated with the
failing condition named), an evaluator producing one or more sub-checks of
the form small <= big where each side is a product of rational powers of
RadicalSums, and a seeded random instance generator.  Real exponents in
the sources (q >= 1, t >= 1) are exercised at rational sample points;
the inequalities are closed under limits, so this loses nothing checkable.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from homlab.counting import biclique_kernel_sum, cc, hom, hom_clique, ominus
from homlab.errors import PreconditionViolated
from homlab.graphs import Graph, add_apexes, build_named, GraphFamilySpec
from homlab.inequalities import IneqReport, check_sym_monotone, sym_corollary_holds
from homlab.models import Model, classify_model, random_model
from homlab.power import RadicalSum, compare_radical_products

LEMMA_IDS = (
    "mixed-norm",
    "mixed-norm-2",
    "local-123",
    "color-holder",
    "color-bcd",
    "color-ac",
    "color-abc",
    "clique-cs",
    "h-log-convex",
    "f-log-conv",
    "m-log-conv",
    "sym-monotone",
    "sym-corollary",
)


@dataclass
class LemmaInstance:
    lemma_id: str
    params: dict


def _require(cond: bool, condition: str):
    if not cond:
        raise PreconditionViolated(condition)


def _require_nonneg_matrix(mat, name: str):
    for row in mat:
        for x in row:
            _require(Fraction(x) >= 0, "%s must be nonnegative" % name)


# ---------------------------------------------------------------------------
# mixed-norm: ||A^T B||_{L_{1,q}}^2 <= ||A^T A||_{L_{q,q}} ||B^T B||_{L_{1,1}}


def _validate_mixed_norm(p):
    q = Fraction(p["q"])
    _require(q >= 1, "q >= 1")
    a, b = p["A"], p["B"]
    _require(len(a) == len(b), "A and B must have the same row count")
    _require_nonneg_matrix(a, "A")
    _require_nonneg_matrix(b, "B")


def _evaluate_mixed_norm(p):
    q = Fraction(p["q"])
    a = [[Fraction(x) for x in row] for row in p["A"]]
    b = [[Fraction(x) for x in row] for row in p["B"]]
    rows = len(a)
    na, nb = len(a[0]), len(b[0])
    at_b = [[sum(a[s][i] * b[s][j] for s in range(rows)) for j in range(nb)] for i in range(na)]
    at_a = [[sum(a[s][i] * a[s][j] for s in range(rows)) for j in range(na)] for i in range(na)]
    bt_b_sum = sum(b[s][i] * b[s][j] for s in range(rows) for i in range(nb) for j in range(nb))
    s_l = RadicalSum()
    for i in range(na):
        s_l = s_l + RadicalSum.from_power(sum(at_b[i], Fraction(0)), q)
    s_a = RadicalSum()
    for i in range(na):
        for j in range(na):
            s_a = s_a + RadicalSum.from_power(at_a[i][j], q)
    lhs = [(s_l, Fraction(2) / q)]
    rhs = [(s_a, 1 / q), (RadicalSum.from_rational(bt_b_sum), Fraction(1))]
    return [("matrix-mixed-norm", lhs, rhs)]


def _random_mixed_norm(rng):
    rows = rng.randrange(1, 4)
    na = rng.randrange(1, 4)
    nb = rng.randrange(1, 4)
    q = rng.choice([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(7, 3)])
    mk = lambda r, c: [[Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(c)] for _ in range(r)]
    return {"q": q, "A": mk(rows, na), "B": mk(rows, nb)}


# ---------------------------------------------------------------------------
# mixed-norm-2: the three-function form used to prove log-convexity.


def _validate_mixed_norm_2(p):
    _require(Fraction(p["q"]) >= 1, "q >= 1")
    for name in ("f", "g", "h"):
        flat = p[name]
        for entry in _flatten(flat):
            _require(Fraction(entry) >= 0, "%s must be nonnegative" % name)


def _flatten(x):
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from _flatten(y)
    else:
        yield x


def _evaluate_mixed_norm_2(p):
    q = Fraction(p["q"])
    f = p["f"]  # f[s][t]
    g = p["g"]  # g[s][t][u]
    h = p["h"]  # h[s][t][v]
    ns, nt = len(f), len(f[0])
    nu = len(g[0][0])
    nv = len(h[0][0])
    s_l = RadicalSum()
    for t in range(nt):
        for v in range(nv):
            inner = sum(
                Fraction(f[s][t]) * Fraction(g[s][t][u]) * Fraction(h[s][t][v])
                for s in range(ns)
                for u in range(nu)
            )
            s_l = s_l + RadicalSum.from_power(inner, q)
    s_r1 = RadicalSum()
    for t in range(nt):
        inner = sum(
            Fraction(f[s][t]) * (sum(Fraction(g[s][t][u]) for u in range(nu))) ** 2
            for s in range(ns)
        )
        s_r1 = s_r1 + RadicalSum.from_power(inner, q)
    s_r2 = RadicalSum()
    for t in range(nt):
        for v in range(nv):
            for v2 in range(nv):
                inner = sum(
                    Fraction(f[s][t]) * Fraction(h[s][t][v]) * Fraction(h[s][t][v2])
                    for s in range(ns)
                )
                s_r2 = s_r2 + RadicalSum.from_power(inner, q)
    lhs = [(s_l, Fraction(2))]
    rhs = [(s_r1, Fraction(1)), (s_r2, Fraction(1))]
    return [("three-function-mixed-norm", lhs, rhs)]


def _random_mixed_norm_2(rng):
    ns, nt, nu, nv = (rng.randrange(1, 3) for _ in range(4))
    q = rng.choice([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)])
    r = lambda: Fraction(rng.randrange(0, 4), rng.randrange(1, 3))
    return {
        "q": q,
        "f": [[r() for _ in range(nt)] for _ in range(ns)],
        "g": [[[r() for _ in range(nu)] for _ in range(nt)] for _ in range(ns)],
        "h": [[[r() for _ in range(nv)] for _ in range(nt)] for _ in range(ns)],
    }


# ---------------------------------------------------------------------------
# local-123: the two-edge path inequality behind the main induction.


def _validate_local_123(p):
    beta, gamma, delta = p["beta"], p["gamma"], p["delta"]
    _require(1 <= beta <= delta, "1 <= beta <= delta")
    _require(gamma >= 2, "gamma >= 2")
    _require_nonneg_matrix(p["f12"], "f12")
    _require_nonneg_matrix(p["f23"], "f23")
    for name in ("w1", "w2", "w3"):
        for x in p[name]:
            _require(Fraction(x) >= 0, "%s must be nonnegative" % name)


def _evaluate_local_123(p):
    beta, gamma, delta = p["beta"], p["gamma"], p["delta"]
    f12 = [[Fraction(x) for x in row] for row in p["f12"]]
    f23 = [[Fraction(x) for x in row] for row in p["f23"]]
    w1 = [Fraction(x) for x in p["w1"]]
    w2 = [Fraction(x) for x in p["w2"]]
    w3 = [Fraction(x) for x in p["w3"]]
    n1, n2, n3 = len(w1), len(w2), len(w3)
    s_l = RadicalSum()
    for x in range(n1):
        if w1[x] == 0:
            continue
        inner = Fraction(0)
        for ys in product(range(n2), repeat=beta):
            t = Fraction(1)
            for y in ys:
                t *= w2[y] * f12[x][y]
                if t == 0:
                    break
            if t == 0:
                continue
            z_sum = Fraction(0)
            for z in range(n3):
                tz = w3[z]
                for y in ys:
                    tz *= f23[y][z]
                    if tz == 0:
                        break
                z_sum += tz
            inner += t * z_sum ** (gamma - 1)
        s_l = s_l + RadicalSum.from_power(inner, Fraction(delta, beta)).scale(w1[x])
    s12 = biclique_kernel_sum(lambda x, y: f12[x][y], n1, n2, gamma, delta, w1, w2)
    s23 = biclique_kernel_sum(lambda y, z: f23[y][z], n2, n3, beta, gamma, w2, w3)
    lhs = [(s_l, Fraction(1))]
    rhs = [
        (RadicalSum.from_rational(s12), Fraction(1, gamma)),
        (RadicalSum.from_rational(s23), Fraction(delta * (gamma - 1), beta * gamma)),
    ]
    return [("two-edge-path-local", lhs, rhs)]


def _random_local_123(rng):
    delta = rng.randrange(1, 4)
    beta = rng.randrange(1, delta + 1)
    gamma = rng.randrange(2, 5)
    n1, n2, n3 = (rng.randrange(1, 4) for _ in range(3))
    r = lambda: Fraction(rng.randrange(0, 4), rng.randrange(1, 3))
    rw = lambda: Fraction(rng.randrange(1, 4), rng.randrange(1, 3))
    return {
        "beta": beta,
        "gamma": gamma,
        "delta": delta,
        "f12": [[r() for _ in range(n2)] for _ in range(n1)],
        "f23": [[r() for _ in range(n3)] for _ in range(n2)],
        "w1": [rw() for _ in range(n1)],
        "w2": [rw() for _ in range(n2)],
        "w3": [rw() for _ in range(n3)],
    }


# ---------------------------------------------------------------------------
# color-holder: interpolation in the second biclique index.


def _validate_color_holder(p):
    r, s, t = p["r"], p["s"], p["t"]
    _require(0 <= r <= s <= t, "0 <= r <= s <= t")
    _require(p["k"] >= 0, "k >= 0")


def _evaluate_color_holder(p):
    a_set, b_set, looped = set(p["A"]), set(p["B"]), set(p["looped"])
    k, r, s, t = p["k"], p["r"], p["s"], p["t"]
    c_s = cc(a_set, b_set, k, s, looped)
    lhs = [(RadicalSum.from_rational(c_s), Fraction(1))]
    if r == t:
        return [("biclique-index-interpolation", lhs, [(RadicalSum.from_rational(c_s), Fraction(1))])]
    c_r = cc(a_set, b_set, k, r, looped)
    c_t = cc(a_set, b_set, k, t, looped)
    rhs = [
        (RadicalSum.from_rational(c_r), Fraction(t - s, t - r)),
        (RadicalSum.from_rational(c_t), Fraction(s - r, t - r)),
    ]
    return [("biclique-index-interpolation", lhs, rhs)]


def _random_subset(rng, universe):
    return {x for x in universe if rng.random() < 0.6}


def _random_color_holder(rng):
    q = rng.randrange(1, 5)
    universe = range(q)
    r = rng.randrange(0, 3)
    s = r + rng.randrange(0, 3)
    t = s + rng.randrange(0, 3)
    return {
        "q": q,
        "looped": sorted(_random_subset(rng, universe)),
        "A": sorted(_random_subset(rng, universe)),
        "B": sorted(_random_subset(rng, universe)),
        "k": rng.randrange(0, 4),
        "r": r,
        "s": s,
        "t": t,
    }


# ---------------------------------------------------------------------------
# color-bcd: the correlation step with the (1 - |x|/|C|) weights.


def _validate_color_bcd(p):
    b_int, c_int, k = p["b"], p["c"], p["k"]
    _require(b_int >= 2, "b >= 2")
    _require(c_int >= 1, "c >= 1")
    _require(k >= 1, "k >= 1")
    _require(Fraction(p["t"]) >= 1, "t >= 1")
    d_set, c_set, looped = set(p["D"]), set(p["C"]), set(p["looped"])
    _require(d_set <= c_set, "D subset of C")
    _require(not (d_set & looped), "D must avoid looped colors")


def _evaluate_color_bcd(p):
    b_set, c_set, d_set = set(p["B"]), set(p["C"]), set(p["D"])
    looped = set(p["looped"])
    b_int, c_int, k = p["b"], p["c"], p["k"]
    t = Fraction(p["t"])
    lhs_sum = RadicalSum()
    rhs_sum = RadicalSum()
    c_size = len(c_set)
    for x in product(sorted(d_set), repeat=k):
        term_l = RadicalSum.from_rational(1)
        for xi in x:
            val = cc(b_set - {xi}, c_set - {xi}, c_int - 1, b_int - 1, looped)
            term_l = term_l * RadicalSum.from_power(val, t / (b_int - 1))
        lhs_sum = lhs_sum + term_l
        term_r = RadicalSum.from_power(len(c_set - set(x)), t) * RadicalSum.from_power(c_size, -(1 - Fraction(k, c_int)) * t)
        for xi in x:
            val = cc(b_set - {xi}, c_set, c_int, b_int - 1, looped)
            term_r = term_r * RadicalSum.from_power(val, t * (c_int - 1) / ((b_int - 1) * c_int))
        rhs_sum = rhs_sum + term_r
    return [("bcd-correlation", [(lhs_sum, Fraction(1))], [(rhs_sum, Fraction(1))])]


def _random_color_bcd(rng):
    q = rng.randrange(2, 5)
    universe = range(q)
    looped = _random_subset(rng, universe)
    c_set = _random_subset(rng, universe)
    d_set = {x for x in (c_set - looped) if rng.random() < 0.7}
    return {
        "q": q,
        "looped": sorted(looped),
        "B": sorted(_random_subset(rng, universe)),
        "C": sorted(c_set),
        "D": sorted(d_set),
        "b": rng.randrange(2, 5),
        "c": rng.randrange(1, 4),
        "k": rng.randrange(1, 4),
        "t": rng.choice([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]),
    }


# ---------------------------------------------------------------------------
# color-ac and color-abc: the semiproper local inequalities.


def _validate_color_ac(p):
    a_int, b_int, c_int = p["a"], p["b"], p["c"]
    _require(a_int >= 1 and b_int >= 1 and c_int >= 1, "a, b, c positive")
    _require(max(b_int, c_int) <= a_int, "max{b, c} <= a")
    _require(b_int + c_int >= 3, "b + c >= 3 (exponent b+c-2 must be positive)")


_validate_color_abc = _validate_color_ac


def _color_lhs_sum(p):
    a_set, b_set, c_set = set(p["A"]), set(p["B"]), set(p["C"])
    looped = set(p["looped"])
    a_int, b_int, c_int = p["a"], p["b"], p["c"]
    out = RadicalSum()
    for x in sorted(a_set):
        val = cc(
            ominus(b_set, {x}, looped),
            ominus(c_set, {x}, looped),
            c_int - 1,
            b_int - 1,
            looped,
        )
        out = out + RadicalSum.from_power(val, Fraction(a_int, b_int + c_int - 2))
    return out


def _evaluate_color_ac(p):
    a_set, b_set, c_set = set(p["A"]), set(p["B"]), set(p["C"])
    looped = set(p["looped"])
    a_int, b_int, c_int = p["a"], p["b"], p["c"]
    lhs = [(_color_lhs_sum(p), Fraction(1))]
    cc_ac = cc(a_set, c_set, c_int, a_int, looped)
    second = RadicalSum()
    for x in sorted(a_set):
        val = cc(ominus(b_set, {x}, looped), c_set, c_int, b_int - 1, looped)
        second = second + RadicalSum.from_power(val, Fraction(a_int, c_int))
    rhs = [
        (RadicalSum.from_rational(cc_ac), Fraction(b_int - 1, c_int * (b_int + c_int - 2))),
        (second, Fraction(c_int - 1, b_int + c_int - 2)),
    ]
    return [("ac-local", lhs, rhs)]


def _evaluate_color_abc(p):
    a_set, b_set, c_set = set(p["A"]), set(p["B"]), set(p["C"])
    looped = set(p["looped"])
    a_int, b_int, c_int = p["a"], p["b"], p["c"]
    lhs = [(_color_lhs_sum(p), Fraction(1))]
    cc_ab = cc(a_set, b_set, b_int, a_int, looped)
    cc_ac = cc(a_set, c_set, c_int, a_int, looped)
    cc_bc = cc(b_set, c_set, c_int, b_int, looped)
    denom = b_int + c_int - 2
    rhs = [
        (RadicalSum.from_rational(cc_ab), Fraction(c_int - 1, b_int * denom)),
        (RadicalSum.from_rational(cc_ac), Fraction(b_int - 1, c_int * denom)),
        (RadicalSum.from_rational(cc_bc), Fraction(a_int * (b_int - 1) * (c_int - 1), denom * b_int * c_int)),
    ]
    return [("semiproper-local", lhs, rhs)]


def _random_color_ac(rng):
    q = rng.randrange(2, 5)
    universe = range(q)
    b_int = rng.randrange(1, 4)
    c_int = rng.randrange(1, 4)
    if b_int + c_int < 3:
        c_int = 2
    a_int = max(b_int, c_int) + rng.randrange(0, 3)
    return {
        "q": q,
        "looped": sorted(_random_subset(rng, universe)),
        "A": sorted(_random_subset(rng, universe)),
        "B": sorted(_random_subset(rng, universe)),
        "C": sorted(_random_subset(rng, universe)),
        "a": a_int,
        "b": b_int,
        "c": c_int,
    }


_random_color_abc = _random_color_ac


# ---------------------------------------------------------------------------
# clique-cs: the Cauchy-Schwarz step on G, G-dot, G-dot-dot.


def _validate_clique_cs(p):
    lam = p["lam"]
    for vec in lam:
        for x in vec:
            _require(Fraction(x) > 0, "lambda must be pointwise positive")
    for vec in p["nu"]:
        for x in vec:
            _require(Fraction(x) >= 0, "nu must be nonnegative")
    for x in p["nu_apex"]:
        _require(Fraction(x) >= 0, "apex weights must be nonnegative")


def _evaluate_clique_cs(p):
    g: Graph = p["graph"]
    m: Model = p["model"]
    lam = [tuple(Fraction(x) for x in vec) for vec in p["lam"]]
    nu = [tuple(Fraction(x) for x in vec) for vec in p["nu"]]
    nu_apex = tuple(Fraction(x) for x in p["nu_apex"])
    mu = [tuple(n * n / l for n, l in zip(nv, lv)) for nv, lv in zip(nu, lam)]
    g_dot = add_apexes(g, 1)
    g_ddot = add_apexes(g, 2)
    big = hom(g_ddot, m, lam + [nu_apex, nu_apex]) * hom(g, m, mu)
    small = hom(g_dot, m, nu + [nu_apex]) ** 2
    return [("apex-cauchy-schwarz", [(RadicalSum.from_rational(small), Fraction(1))], [(RadicalSum.from_rational(big), Fraction(1))])]


def _random_small_graph(rng, max_n=4) -> Graph:
    n = rng.randrange(1, max_n + 1)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def _random_weight_vector(rng, q, positive=False):
    lo = 1 if positive else 0
    return tuple(Fraction(rng.randrange(lo, 4), rng.randrange(1, 3)) for _ in range(q))


def _random_clique_cs(rng):
    q = rng.randrange(1, 4)
    m = random_model(q, rng.randrange(10 ** 6), "general")
    g = _random_small_graph(rng)
    return {
        "graph": g,
        "model": m,
        "lam": [_random_weight_vector(rng, q, positive=True) for _ in range(g.n)],
        "nu": [_random_weight_vector(rng, q) for _ in range(g.n)],
        "nu_apex": _random_weight_vector(rng, q),
    }


# ---------------------------------------------------------------------------
# h-log-convex, f-log-conv, m-log-conv: clique partition function convexity.


def _require_psd(m: Model):
    _require(classify_model(m).ferromagnetic, "model must be positive semidefinite")


def _validate_h_log_convex(p):
    _require(p["t"] >= 2, "t >= 2")
    _require_psd(p["model"])
    for x in p["lam"]:
        _require(Fraction(x) > 0, "lambda must be pointwise positive")
    for x in p["nu"]:
        _require(Fraction(x) >= 0, "nu must be nonnegative")


def _evaluate_h_log_convex(p):
    m: Model = p["model"]
    t = p["t"]
    lam = tuple(Fraction(x) for x in p["lam"])
    nu = tuple(Fraction(x) for x in p["nu"])
    mu = tuple(n * n / l for n, l in zip(nu, lam))
    h_up = hom_clique(t + 1, m, lam)
    h_down = hom_clique(t - 1, m, mu)
    h_mid = hom_clique(t, m, nu)
    lhs = [(RadicalSum.from_rational(h_mid), Fraction(2, t))]
    rhs = [(RadicalSum.from_rational(h_up), Fraction(1, t + 1)), (RadicalSum.from_rational(h_down), Fraction(1, t - 1))]
    return [("clique-h-log-convex", lhs, rhs)]


def _random_psd_model(rng, q):
    return random_model(q, rng.randrange(10 ** 6), "psd")


def _random_h_log_convex(rng):
    q = rng.randrange(1, 4)
    return {
        "model": _random_psd_model(rng, q),
        "t": rng.randrange(2, 4),
        "lam": _random_weight_vector(rng, q, positive=True),
        "nu": _random_weight_vector(rng, q),
    }


def _validate_f_log_conv(p):
    _require(p["a"] >= 1, "a >= 1")
    _require_psd(p["model"])


def _evaluate_f_log_conv(p):
    m: Model = p["model"]
    a = p["a"]
    mu = tuple(Fraction(x) for x in p["mu"])
    nu = tuple(Fraction(x) for x in p["nu"])
    k_a = build_named(GraphFamilySpec("complete", (a,)))
    f_vals = []
    for i in range(a + 1):
        constraints = [mu] * i + [nu] * (a - i)
        f_vals.append(hom(k_a, m, constraints))
    checks = []
    for s in range(a - 1):
        checks.append(
            (
                "interpolation-log-convex[s=%d]" % s,
                [(RadicalSum.from_rational(f_vals[s + 1]), Fraction(2))],
                [(RadicalSum.from_rational(f_vals[s]), Fraction(1)), (RadicalSum.from_rational(f_vals[s + 2]), Fraction(1))],
            )
        )
    checks.append(
        (
            "interpolation-endpoint",
            [(RadicalSum.from_rational(f_vals[1]), Fraction(a))],
            [(RadicalSum.from_rational(f_vals[0]), Fraction(a - 1)), (RadicalSum.from_rational(f_vals[a]), Fraction(1))],
        )
    )
    return checks


def _random_f_log_conv(rng):
    q = rng.randrange(1, 4)
    return {
        "model": _random_psd_model(rng, q),
        "a": rng.randrange(1, 5),
        "mu": _random_weight_vector(rng, q),
        "nu": _random_weight_vector(rng, q),
    }


def _validate_m_log_conv(p):
    _require(1 <= p["b"] <= p["a"] <= p["delta"], "1 <= b <= a <= delta")
    _require_psd(p["model"])


def _hom_clique_radical(s: int, m: Model, lam, eta_atoms, eta_power: int) -> RadicalSum:
    """h_s with weights lam(x) * eta(x)^eta_power, eta given as atoms."""
    q = m.q
    ew = m.edge_weights
    out = RadicalSum()
    if s == 0:
        return RadicalSum.from_rational(1)
    for xs in product(range(q), repeat=s):
        t = Fraction(1)
        for i, x in enumerate(xs):
            t *= m.vertex_weights[x] * lam[x]
            if t == 0:
                break
            for y in xs[:i]:
                t *= ew[y][x]
                if t == 0:
                    break
            if t == 0:
                break
        if t == 0:
            continue
        term = RadicalSum.from_rational(t)
        for x in xs:
            term = term * eta_atoms[x].int_pow(eta_power)
        out = out + term
    return out


def _evaluate_m_log_conv(p):
    m: Model = p["model"]
    a, b, delta = p["a"], p["b"], p["delta"]
    lam = tuple(Fraction(x) for x in p["lam"])
    mu = tuple(Fraction(x) for x in p["mu"])
    q = m.q
    eta_atoms = []
    for x in range(q):
        pointwise = tuple(mu[c] * m.edge_weights[x][c] for c in range(q))
        r_x = hom_clique(b, m, pointwise)
        eta_atoms.append(RadicalSum.from_power(r_x, Fraction(1, b)))
    h_mu = hom_clique(b + 1, m, mu)

    def m_factors(s: int, mult=Fraction(1)):
        body = _hom_clique_radical(s, m, lam, eta_atoms, a + 1 - s)
        factors = [(body, Fraction(1) * mult)]
        e = Fraction(s * (s - 1), b + 1) * mult
        if e != 0:
            factors.append((RadicalSum.from_rational(h_mu), e))
        return factors

    checks = []
    if b < delta:
        checks.append(
            (
                "step-ratio[b+1 vs b,1]",
                m_factors(b) + m_factors(1),
                m_factors(b + 1),
            )
        )
        for s in range(b, a):
            checks.append(
                (
                    "chain-log-convex[s=%d]" % s,
                    m_factors(s + 1, Fraction(2)),
                    m_factors(s) + m_factors(s + 2),
                )
            )
    checks.append(("endpoint-power", m_factors(1, Fraction(a + 1)), m_factors(a + 1)))
    return checks


def _random_m_log_conv(rng):
    q = rng.randrange(1, 4)
    b = rng.randrange(1, 4)
    a = b + rng.randrange(0, 3)
    delta = a + rng.randrange(0, 2)
    return {
        "model": _random_psd_model(rng, q),
        "a": a,
        "b": b,
        "delta": delta,
        "lam": _random_weight_vector(rng, q),
        "mu": _random_weight_vector(rng, q),
    }


# ---------------------------------------------------------------------------
# sym-monotone and sym-corollary.


def _validate_sym_monotone(p):
    _require(p["k"] >= 1, "k >= 1")
    _require(len(p["alphas"]) >= 1, "n >= 1")
    for x in p["alphas"]:
        _require(Fraction(x) >= 0, "alphas must be nonnegative")


def _validate_sym_corollary(p):
    _validate_sym_monotone(p)
    tau = [Fraction(x) for x in p["tau"]]
    _require(len(tau) == p["k"] + 1, "tau must have length k + 1")
    _require(all(x >= 0 for x in tau), "tau must be nonnegative")
    _require(all(a >= b for a, b in zip(tau, tau[1:])), "tau must be non-increasing")


def _evaluate_sym_corollary(p):
    alphas = [Fraction(x) for x in p["alphas"]]
    k = p["k"]
    tau = [Fraction(x) for x in p["tau"]]
    holds, is_eq = sym_corollary_holds(alphas, k, tau)
    # Encode as exact rational sides for the comparator.
    n = len(alphas)
    e_tau = Fraction(0)
    e_prod = Fraction(0)
    e_both = Fraction(0)
    count = 0
    for x in product(range(n), repeat=k):
        ell = len(set(x))
        pr = Fraction(1)
        for i in x:
            pr *= alphas[i]
        e_tau += tau[ell]
        e_prod += pr
        e_both += tau[ell] * pr
        count += 1
    lhs = [(RadicalSum.from_rational(e_tau * e_prod), Fraction(1))]
    rhs = [(RadicalSum.from_rational(e_both * count), Fraction(1))]
    return [("chebyshev-style-correlation", lhs, rhs)]


def _random_alphas(rng, n):
    return [Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(n)]


def _random_sym_monotone(rng):
    n = rng.randrange(1, 5)
    return {"alphas": _random_alphas(rng, n), "k": rng.randrange(1, 6)}


def _random_sym_corollary(rng):
    n = rng.randrange(1, 4)
    k = rng.randrange(1, 5)
    steps = sorted(
        (Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(k + 1)),
        reverse=True,
    )
    return {"alphas": _random_alphas(rng, n), "k": k, "tau": steps}


# ---------------------------------------------------------------------------
# Dispatch.

_VALIDATORS = {
    "mixed-norm": _validate_mixed_norm,
    "mixed-norm-2": _validate_mixed_norm_2,
    "local-123": _validate_local_123,
    "color-holder": _validate_color_holder,
    "color-bcd": _validate_color_bcd,
    "color-ac": _validate_color_ac,
    "color-abc": _validate_color_abc,
    "clique-cs": _validate_clique_cs,
    "h-log-convex": _validate_h_log_convex,
    "f-log-conv": _validate_f_log_conv,
    "m-log-conv": _validate_m_log_conv,
    "sym-monotone": _validate_sym_monotone,
    "sym-corollary": _validate_sym_corollary,
}

_EVALUATORS = {
    "mixed-norm": _evaluate_mixed_norm,
    "mixed-norm-2": _evaluate_mixed_norm_2,
    "local-123": _evaluate_local_123,
    "color-holder": _evaluate_color_holder,
    "color-bcd": _evaluate_color_bcd,
    "color-ac": _evaluate_color_ac,
    "color-abc": _evaluate_color_abc,
    "clique-cs": _evaluate_clique_cs,
    "h-log-convex": _evaluate_h_log_convex,
    "f-log-conv": _evaluate_f_log_conv,
    "m-log-conv": _evaluate_m_log_conv,
    "sym-corollary": _evaluate_sym_corollary,
}

_GENERATORS = {
    "mixed-norm": _random_mixed_norm,
    "mixed-norm-2": _random_mixed_norm_2,
    "local-123": _random_local_123,
    "color-holder": _random_color_holder,
    "color-bcd": _random_color_bcd,
    "color-ac": _random_color_ac,
    "color-abc": _random_color_abc,
    "clique-cs": _random_clique_cs,
    "h-log-convex": _random_h_log_convex,
    "f-log-conv": _random_f_log_conv,
    "m-log-conv": _random_m_log_conv,
    "sym-monotone": _random_sym_monotone,
    "sym-corollary": _random_sym_corollary,
}


def validate_instance(inst: LemmaInstance):
    if inst.lemma_id not in _VALIDATORS:
        raise PreconditionViolated("unknown lemma id %r" % inst.lemma_id)
    _VALIDATORS[inst.lemma_id](inst.params)


def random_lemma_instance(lemma_id: str, seed: int) -> LemmaInstance:
    rng = random.Random("%s:%d" % (lemma_id, seed))
    return LemmaInstance(lemma_id, _GENERATORS[lemma_id](rng))


def _float_of_factors(factors) -> float:
    total = 0.0
    for s, e in factors:
        v = s.float_value()
        if v <= 0:
            return 0.0
        total += float(e) * math.log10(v)
    return 10.0 ** total


def check_local_lemma(inst: LemmaInstance) -> IneqReport:
    """Evaluate the named lemma's inequality exactly on the instance.

    Multi-part lemmas (the log-convexity chains) aggregate: any violated
    part makes the verdict violated; all-equal parts give equality.
    """
    validate_instance(inst)
    if inst.lemma_id == "sym-monotone":
        rep = check_sym_monotone(inst.params["alphas"], inst.params["k"])
        return IneqReport("sym-monotone", rep.instance, None, None, rep.verdict, rep.exact, rep.slack_log10)
    checks = _EVALUATORS[inst.lemma_id](inst.params)
    verdicts = []
    slack = math.inf
    for label, small, big in checks:
        cmp_result = compare_radical_products(small, big)
        verdicts.append(cmp_result.ordering)
        small_f = _float_of_factors(small)
        big_f = _float_of_factors(big)
        if small_f > 0 and big_f > 0:
            slack = min(slack, math.log10(big_f / small_f))
        elif cmp_result.ordering == "equal":
            slack = min(slack, 0.0)
    if any(v == "greater" for v in verdicts):
        verdict = "violated"
    elif all(v == "equal" for v in verdicts):
        verdict = "equality"
    else:
        verdict = "holds"
    if slack is math.inf:
        slack = 0.0
    from homlab.inequalities import clamp_slack

    return IneqReport(
        inst.lemma_id,
        _describe_instance(inst),
        None,
        None,
        verdict,
        True,
        clamp_slack(verdict, slack),
    )


def _describe_instance(inst: LemmaInstance) -> str:
    parts = []
    for key in sorted(inst.params):
        value = inst.params[key]
        if isinstance(value, Graph):
            parts.append("%s=%s" % (key, value.edge_list()))
        elif isinstance(value, Model):
            parts.append("%s=q%d" % (key, value.q))
        else:
            parts.append("%s=%s" % (key, value))
    return ", ".join(parts)
