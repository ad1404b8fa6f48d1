"""The local-lemma battery: exact checkers for every helper inequality,
each exercised on finite rational instances.

Each lemma id is one row of _LEMMAS: its parameters, a check, an
evaluator and a seeded random instance generator.  validate_instance
reads the declared parameters with fileio.read_fields, from Python values
or from the JSON forms of a lemma file: a missing one, or one of the wrong
type or shape, raises PreconditionViolated naming it, and the check raises
it for any failed precondition.  The parameters as read (arrays as tuples
of Fractions) go to the evaluator, which produces one or more checks
(label, small, big) of the claim small <= big.  Each side is a list of
(base, exponent) factors: a rational base is passed as a Fraction or
int, and only a true sum of radicals is built as a RadicalSum.
inequalities.decide gives the verdict and slack.  This module also owns
the lemma file format (lemma_instance_to_dict, lemma_instance_from_dict).
Real exponents in the sources (q >= 1, t >= 1) are exercised at rational
sample points; the inequalities are closed under limits, so this loses
nothing checkable.
"""

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from homlab.counting import biclique_kernel_sum, cc, check_work, clique_terms, hom, hom_clique, multiset_count, multisets, ominus
from homlab.errors import PreconditionViolated
from homlab.graphs import Graph, add_apexes, build_named, GraphFamilySpec
from homlab.fileio import _require, decode, frac_str, read_fields, read_text, to_json
from homlab.inequalities import IneqReport, decide, sym_corollary_sides, sym_monotone_checks
from homlab.models import Model, classify_model, random_model
# compare_radical_products is unused here (inequalities.decide calls it),
# but perfbench's tracer test reads this binding, so it stays.
from homlab.power import RadicalSum, compare_radical_products  # noqa: F401


@dataclass
class LemmaInstance:
    lemma_id: str
    params: dict


# ---------------------------------------------------------------------------
# mixed-norm: ||A^T B||_{L_{1,q}}^2 <= ||A^T A||_{L_{q,q}} ||B^T B||_{L_{1,1}}


def _check_mixed_norm(p):
    _require(p["q"] >= 1, "q >= 1")


def _evaluate_mixed_norm(p):
    q, a, b = p["q"], p["A"], p["B"]
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
    rhs = [(s_a, 1 / q), (bt_b_sum, Fraction(1))]
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


def _evaluate_mixed_norm_2(p):
    q = p["q"]
    f = p["f"]  # f[s][t]
    g = p["g"]  # g[s][t][u]
    h = p["h"]  # h[s][t][v]
    ns, nt = len(f), len(f[0])
    nu = len(g[0][0])
    nv = len(h[0][0])
    s_l = RadicalSum()
    for t in range(nt):
        for v in range(nv):
            inner = sum(f[s][t] * g[s][t][u] * h[s][t][v] for s in range(ns) for u in range(nu))
            s_l = s_l + RadicalSum.from_power(inner, q)
    s_r1 = RadicalSum()
    for t in range(nt):
        inner = sum(f[s][t] * sum(g[s][t][u] for u in range(nu)) ** 2 for s in range(ns))
        s_r1 = s_r1 + RadicalSum.from_power(inner, q)
    s_r2 = RadicalSum()
    for t in range(nt):
        for v in range(nv):
            for v2 in range(nv):
                inner = sum(f[s][t] * h[s][t][v] * h[s][t][v2] for s in range(ns))
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


def _check_local_123(p):
    _require(1 <= p["beta"] <= p["delta"], "1 <= beta <= delta")
    _require(p["gamma"] >= 2, "gamma >= 2")


def _evaluate_local_123(p):
    beta, gamma, delta = p["beta"], p["gamma"], p["delta"]
    f12, f23, w1, w2, w3 = p["f12"], p["f23"], p["w1"], p["w2"], p["w3"]
    n1, n2, n3 = len(w1), len(w2), len(w3)
    # Each multiset of ys takes a beta-fold product for every z and every x.
    check_work("local-123", multiset_count(n2, beta) * beta * (n1 + n3), "beta = %d, n1 = %d, n2 = %d, n3 = %d", beta, n1, n2, n3)
    # The summand over ys in [n2]^beta depends only on the multiset of ys:
    # its z-sum part is the same for every x.
    ys_terms = []
    for ys, mult in multisets(range(n2), beta):
        z_sum = sum(w3[z] * math.prod(f23[y][z] ** m for y, m in ys) for z in range(n3))
        ys_terms.append((ys, mult * z_sum ** (gamma - 1)))
    s_l = RadicalSum()
    for x in range(n1):
        if w1[x] == 0:
            continue
        inner = sum((t * math.prod((w2[y] * f12[x][y]) ** m for y, m in ys) for ys, t in ys_terms), Fraction(0))
        s_l = s_l + RadicalSum.from_power(inner, Fraction(delta, beta)).scale(w1[x])
    s12 = biclique_kernel_sum(lambda x, y: f12[x][y], n1, n2, gamma, delta, w1, w2)
    s23 = biclique_kernel_sum(lambda y, z: f23[y][z], n2, n3, beta, gamma, w2, w3)
    lhs = [(s_l, Fraction(1))]
    rhs = [
        (s12, Fraction(1, gamma)),
        (s23, Fraction(delta * (gamma - 1), beta * gamma)),
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


def _check_color_holder(p):
    _require(0 <= p["r"] <= p["s"] <= p["t"], "0 <= r <= s <= t")
    _require(p["k"] >= 0, "k >= 0")


def _evaluate_color_holder(p):
    a_set, b_set, looped = p["A"], p["B"], p["looped"]
    k, r, s, t = p["k"], p["r"], p["s"], p["t"]
    c_s = cc(a_set, b_set, k, s, looped)
    lhs = [(c_s, Fraction(1))]
    if r == t:
        return [("biclique-index-interpolation", lhs, [(c_s, Fraction(1))])]
    c_r = cc(a_set, b_set, k, r, looped)
    c_t = cc(a_set, b_set, k, t, looped)
    rhs = [
        (c_r, Fraction(t - s, t - r)),
        (c_t, Fraction(s - r, t - r)),
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


def _check_color_bcd(p):
    _require(p["b"] >= 2, "b >= 2")
    _require(p["c"] >= 1, "c >= 1")
    _require(p["k"] >= 1, "k >= 1")
    _require(p["t"] >= 1, "t >= 1")
    _require(p["D"] <= p["C"], "D subset of C")
    _require(not (p["D"] & p["looped"]), "D must avoid looped colors")


def _evaluate_color_bcd(p):
    b_set, c_set, d_set = set(p["B"]), set(p["C"]), set(p["D"])
    looped = set(p["looped"])
    b_int, c_int, k, t = p["b"], p["c"], p["k"], p["t"]
    # Each multiset of x takes k products of radical sums on either side.
    check_work("color-bcd", multiset_count(len(d_set), k) * k, "|D| = %d, k = %d", len(d_set), k)
    left = {
        xi: RadicalSum.from_power(cc(b_set - {xi}, c_set - {xi}, c_int - 1, b_int - 1, looped), t / (b_int - 1))
        for xi in d_set
    }
    right = {
        xi: RadicalSum.from_power(cc(b_set - {xi}, c_set, c_int, b_int - 1, looped), t * (c_int - 1) / ((b_int - 1) * c_int))
        for xi in d_set
    }
    lhs_sum = RadicalSum()
    rhs_sum = RadicalSum()
    # Both summands over x in D^k depend only on the multiset of x.
    for x, mult in multisets(sorted(d_set), k):
        term_l = RadicalSum.from_rational(mult)
        term_r = RadicalSum.from_power(len(c_set - {xi for xi, _ in x}), t).scale(mult) * RadicalSum.from_power(len(c_set), -(1 - Fraction(k, c_int)) * t)
        for xi, m in x:
            for _ in range(m):
                term_l = term_l * left[xi]
                term_r = term_r * right[xi]
        lhs_sum = lhs_sum + term_l
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


def _check_color_ac(p):
    a_int, b_int, c_int = p["a"], p["b"], p["c"]
    _require(a_int >= 1 and b_int >= 1 and c_int >= 1, "a, b, c positive")
    _require(max(b_int, c_int) <= a_int, "max{b, c} <= a")
    _require(b_int + c_int >= 3, "b + c >= 3 (exponent b+c-2 must be positive)")


def _color_lhs_sum(p):
    a_set, b_set, c_set, looped = p["A"], p["B"], p["C"], p["looped"]
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
    a_set, b_set, c_set, looped = p["A"], p["B"], p["C"], p["looped"]
    a_int, b_int, c_int = p["a"], p["b"], p["c"]
    lhs = [(_color_lhs_sum(p), Fraction(1))]
    cc_ac = cc(a_set, c_set, c_int, a_int, looped)
    second = RadicalSum()
    for x in sorted(a_set):
        val = cc(ominus(b_set, {x}, looped), c_set, c_int, b_int - 1, looped)
        second = second + RadicalSum.from_power(val, Fraction(a_int, c_int))
    rhs = [
        (cc_ac, Fraction(b_int - 1, c_int * (b_int + c_int - 2))),
        (second, Fraction(c_int - 1, b_int + c_int - 2)),
    ]
    return [("ac-local", lhs, rhs)]


def _evaluate_color_abc(p):
    a_set, b_set, c_set, looped = p["A"], p["B"], p["C"], p["looped"]
    a_int, b_int, c_int = p["a"], p["b"], p["c"]
    lhs = [(_color_lhs_sum(p), Fraction(1))]
    cc_ab = cc(a_set, b_set, b_int, a_int, looped)
    cc_ac = cc(a_set, c_set, c_int, a_int, looped)
    cc_bc = cc(b_set, c_set, c_int, b_int, looped)
    denom = b_int + c_int - 2
    rhs = [
        (cc_ab, Fraction(c_int - 1, b_int * denom)),
        (cc_ac, Fraction(b_int - 1, c_int * denom)),
        (cc_bc, Fraction(a_int * (b_int - 1) * (c_int - 1), denom * b_int * c_int)),
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


# ---------------------------------------------------------------------------
# clique-cs: the Cauchy-Schwarz step on G, G-dot, G-dot-dot.


def _check_clique_cs(p):
    _require(all(x > 0 for vec in p["lam"] for x in vec), "lambda must be pointwise positive")


def _evaluate_clique_cs(p):
    g: Graph = p["graph"]
    m: Model = p["model"]
    lam, nu, nu_apex = p["lam"], p["nu"], p["nu_apex"]
    mu = [tuple(n * n / l for n, l in zip(nv, lv)) for nv, lv in zip(nu, lam)]
    g_dot = add_apexes(g, 1)
    g_ddot = add_apexes(g, 2)
    big = hom(g_ddot, m, [*lam, nu_apex, nu_apex]) * hom(g, m, mu)
    small = hom(g_dot, m, [*nu, nu_apex]) ** 2
    return [("apex-cauchy-schwarz", [(small, Fraction(1))], [(big, Fraction(1))])]


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


def _check_h_log_convex(p):
    _require(p["t"] >= 2, "t >= 2")
    _require_psd(p["model"])
    _require(all(x > 0 for x in p["lam"]), "lambda must be pointwise positive")


def _evaluate_h_log_convex(p):
    m: Model = p["model"]
    t, lam, nu = p["t"], p["lam"], p["nu"]
    mu = tuple(n * n / l for n, l in zip(nu, lam))
    h_up = hom_clique(t + 1, m, lam)
    h_down = hom_clique(t - 1, m, mu)
    h_mid = hom_clique(t, m, nu)
    lhs = [(h_mid, Fraction(2, t))]
    rhs = [(h_up, Fraction(1, t + 1)), (h_down, Fraction(1, t - 1))]
    return [("clique-h-log-convex", lhs, rhs)]


def _random_h_log_convex(rng):
    q = rng.randrange(1, 4)
    return {
        "model": random_model(q, rng.randrange(10 ** 6), "psd"),
        "t": rng.randrange(2, 4),
        "lam": _random_weight_vector(rng, q, positive=True),
        "nu": _random_weight_vector(rng, q),
    }


def _check_f_log_conv(p):
    _require(p["a"] >= 1, "a >= 1")
    _require_psd(p["model"])


def _evaluate_f_log_conv(p):
    m: Model = p["model"]
    a, mu, nu = p["a"], p["mu"], p["nu"]
    k_a = build_named(GraphFamilySpec("complete", (a,)))
    f_vals = []
    for i in range(a + 1):
        constraints = [mu] * i + [nu] * (a - i)
        f_vals.append(hom(k_a, m, constraints))
    checks = [
        ("interpolation-log-convex[s=%d]" % s, [(f_vals[s + 1], 2)], [(f_vals[s], 1), (f_vals[s + 2], 1)])
        for s in range(a - 1)
    ]
    checks.append(("interpolation-endpoint", [(f_vals[1], a)], [(f_vals[0], a - 1), (f_vals[a], 1)]))
    return checks


def _random_f_log_conv(rng):
    q = rng.randrange(1, 4)
    return {
        "model": random_model(q, rng.randrange(10 ** 6), "psd"),
        "a": rng.randrange(1, 5),
        "mu": _random_weight_vector(rng, q),
        "nu": _random_weight_vector(rng, q),
    }


def _check_m_log_conv(p):
    _require(1 <= p["b"] <= p["a"] <= p["delta"], "1 <= b <= a <= delta")
    _require_psd(p["model"])


def _hom_clique_radical(s: int, m: Model, lam, eta_atoms, eta_power: int) -> RadicalSum:
    """h_s with weights lam(x) * eta(x)^eta_power, eta given as atoms:
    each multiset term of h_s(lam) times prod_x eta(x)^(k_x eta_power)."""
    denom, terms = clique_terms(s, m, lam)
    powers = {(x, k): eta.int_pow(k * eta_power) for x, eta in enumerate(eta_atoms) for k in range(1, s + 1)}
    out = RadicalSum()
    for counts, t in terms:
        term = RadicalSum.from_rational(Fraction(t, denom))
        for x_k in counts:
            term = term * powers[x_k]
        out = out + term
    return out


def _expansion_work(q: int, sides) -> int:
    """Term work of m-log-conv's checks, from the sizes alone.  Each side
    is a list of (s, e) for a factor body_s^e; body_s has at most
    multiset_count(q, s) terms, one per color multiset, and a product of
    sums of degrees d1 and d2 forms at most multiset_count(q, d1) *
    multiset_count(q, d2) term products.  The work is every body's terms
    plus the products formed expanding each side as compare_radical_products
    does, powers by RadicalSum.int_pow's squaring."""
    work = 0
    for side in sides:
        deg = 0
        for s, e in side:
            work += multiset_count(q, s)
            power, square = 0, s
            while e:
                if e & 1:
                    work += multiset_count(q, power) * multiset_count(q, square)
                    power += square
                if e > 1:
                    work += multiset_count(q, square) ** 2
                    square *= 2
                e >>= 1
            work += multiset_count(q, deg) * multiset_count(q, power)
            deg += power
    return work


def _evaluate_m_log_conv(p):
    m: Model = p["model"]
    a, b, delta = p["a"], p["b"], p["delta"]
    q = m.q
    checks = []
    if b < delta:
        checks.append(("step-ratio[b+1 vs b,1]", [(b, 1), (1, 1)], [(b + 1, 1)]))
        checks.extend(("chain-log-convex[s=%d]" % s, [(s + 1, 2)], [(s, 1), (s + 2, 1)]) for s in range(b, a))
    checks.append(("endpoint-power", [(1, a + 1)], [(a + 1, 1)]))
    check_work("m-log-conv", _expansion_work(q, [side for _, small, big in checks for side in (small, big)]), "q = %d, a = %d, b = %d", q, a, b)
    lam, mu = p["lam"], p["mu"]
    eta_atoms = []
    for x in range(q):
        pointwise = tuple(mu[c] * m.edge_weights[x][c] for c in range(q))
        r_x = hom_clique(b, m, pointwise)
        eta_atoms.append(RadicalSum.from_power(r_x, Fraction(1, b)))
    h_mu = hom_clique(b + 1, m, mu)
    bodies = {}  # s -> body_s; the checks share most s

    def m_factors(s: int, mult: int):
        body = bodies.get(s)
        if body is None:
            body = bodies[s] = _hom_clique_radical(s, m, lam, eta_atoms, a + 1 - s)
        factors = [(body, Fraction(mult))]
        e = Fraction(s * (s - 1), b + 1) * mult
        if e != 0:
            factors.append((h_mu, e))
        return factors

    return [
        (label, [f for s, e in small for f in m_factors(s, e)], [f for s, e in big for f in m_factors(s, e)])
        for label, small, big in checks
    ]


def _random_m_log_conv(rng):
    q = rng.randrange(1, 4)
    b = rng.randrange(1, 4)
    a = b + rng.randrange(0, 3)
    delta = a + rng.randrange(0, 2)
    return {
        "model": random_model(q, rng.randrange(10 ** 6), "psd"),
        "a": a,
        "b": b,
        "delta": delta,
        "lam": _random_weight_vector(rng, q),
        "mu": _random_weight_vector(rng, q),
    }


# ---------------------------------------------------------------------------
# sym-monotone and sym-corollary.


def _check_sym_monotone(p):
    _require(p["k"] >= 1, "k >= 1")


def _evaluate_sym_monotone(p):
    return sym_monotone_checks(p["alphas"], p["k"])


def _check_sym_corollary(p):
    _require(p["k"] >= 1, "k >= 1")
    tau = p["tau"]
    _require(len(tau) == p["k"] + 1, "tau must have length k + 1")
    _require(all(a >= b for a, b in zip(tau, tau[1:])), "tau must be non-increasing")


def _evaluate_sym_corollary(p):
    lhs, rhs = sym_corollary_sides(p["alphas"], p["k"], p["tau"])
    return [("chebyshev-style-correlation", [(lhs, Fraction(1))], [(rhs, Fraction(1))])]


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

# Each lemma id's (params, check, evaluate, generate).  params declares
# the parameters as read_fields takes them; check raises PreconditionViolated
# for a failed precondition.  The table's order is LEMMA_IDS, the order of
# the `lemma --id` choices and of a battery round.
_LEMMAS = {
    "mixed-norm": ({"q": Fraction, "A": ("rows", "na"), "B": ("rows", "nb")}, _check_mixed_norm, _evaluate_mixed_norm, _random_mixed_norm),
    "mixed-norm-2": ({"q": Fraction, "f": ("ns", "nt"), "g": ("ns", "nt", "nu"), "h": ("ns", "nt", "nv")}, _check_mixed_norm, _evaluate_mixed_norm_2, _random_mixed_norm_2),
    "local-123": ({"beta": int, "gamma": int, "delta": int, "f12": ("n1", "n2"), "f23": ("n2", "n3"), "w1": ("n1",), "w2": ("n2",), "w3": ("n3",)}, _check_local_123, _evaluate_local_123, _random_local_123),
    "color-holder": ({"looped": frozenset, "A": frozenset, "B": frozenset, "k": int, "r": int, "s": int, "t": int}, _check_color_holder, _evaluate_color_holder, _random_color_holder),
    "color-bcd": ({"looped": frozenset, "B": frozenset, "C": frozenset, "D": frozenset, "b": int, "c": int, "k": int, "t": Fraction}, _check_color_bcd, _evaluate_color_bcd, _random_color_bcd),
    "color-ac": ({"looped": frozenset, "A": frozenset, "B": frozenset, "C": frozenset, "a": int, "b": int, "c": int}, _check_color_ac, _evaluate_color_ac, _random_color_ac),
    "color-abc": ({"looped": frozenset, "A": frozenset, "B": frozenset, "C": frozenset, "a": int, "b": int, "c": int}, _check_color_ac, _evaluate_color_abc, _random_color_ac),
    "clique-cs": ({"graph": Graph, "model": Model, "lam": ("n", "q"), "nu": ("n", "q"), "nu_apex": ("q",)}, _check_clique_cs, _evaluate_clique_cs, _random_clique_cs),
    "h-log-convex": ({"model": Model, "t": int, "lam": ("q",), "nu": ("q",)}, _check_h_log_convex, _evaluate_h_log_convex, _random_h_log_convex),
    "f-log-conv": ({"model": Model, "a": int, "mu": ("q",), "nu": ("q",)}, _check_f_log_conv, _evaluate_f_log_conv, _random_f_log_conv),
    "m-log-conv": ({"model": Model, "a": int, "b": int, "delta": int, "lam": ("q",), "mu": ("q",)}, _check_m_log_conv, _evaluate_m_log_conv, _random_m_log_conv),
    "sym-monotone": ({"k": int, "alphas": ("n",)}, _check_sym_monotone, _evaluate_sym_monotone, _random_sym_monotone),
    "sym-corollary": ({"k": int, "alphas": ("n",), "tau": ("k + 1",)}, _check_sym_corollary, _evaluate_sym_corollary, _random_sym_corollary),
}

LEMMA_IDS = tuple(_LEMMAS)


def validate_instance(inst: LemmaInstance) -> dict:
    """The instance's parameters as read by read_fields and passed by its lemma's check."""
    if not isinstance(inst.lemma_id, str) or inst.lemma_id not in _LEMMAS:
        raise PreconditionViolated("unknown lemma id %r" % (inst.lemma_id,))
    kinds, check, _, _ = _LEMMAS[inst.lemma_id]
    p = read_fields(inst.params, kinds)
    check(p)
    return p


def random_lemma_instance(lemma_id: str, seed: int) -> LemmaInstance:
    rng = random.Random("%s:%d" % (lemma_id, seed))
    _, _, _, generate = _LEMMAS[lemma_id]
    return LemmaInstance(lemma_id, generate(rng))


def check_local_lemma(inst: LemmaInstance) -> IneqReport:
    """Evaluate the named lemma's inequality exactly on the instance.

    Multi-part lemmas (the log-convexity chains) aggregate as in
    inequalities.decide.  The report's instance text describes the
    parameters as read: see _describe.
    """
    p = validate_instance(inst)
    _, _, evaluate, _ = _LEMMAS[inst.lemma_id]
    verdict, slack = decide(evaluate(p))
    instance = ", ".join("%s=%s" % (key, _describe(p[key])) for key in sorted(p))
    return IneqReport(inst.lemma_id, instance, None, None, verdict, True, slack)


def _describe(value) -> str:
    """A parameter as read by read_fields: a graph as its edge list, a model as
    q<colors>, arrays and color sets as bracketed lists, rationals by
    frac_str."""
    if isinstance(value, Graph):
        return str(value.edge_list())
    if isinstance(value, Model):
        return "q%d" % value.q
    if isinstance(value, (tuple, frozenset)):
        return "[%s]" % ", ".join(map(_describe, sorted(value) if isinstance(value, frozenset) else value))
    return frac_str(value)


# ---------------------------------------------------------------------------
# Lemma files: {"lemma": ID, "params": {...}} in the JSON forms read_fields takes.


def lemma_instance_to_dict(inst: LemmaInstance) -> dict:
    """The instance as a lemma file: its declared parameters as read."""
    return {"lemma": inst.lemma_id, "params": {k: to_json(v) for k, v in validate_instance(inst).items()}}


def lemma_instance_from_dict(d) -> LemmaInstance:
    """A lemma file's instance; its parameters are read when it is checked."""
    p = read_fields(d, {"lemma": str, "params": dict})
    return LemmaInstance(p["lemma"], p["params"])


def load_lemma_instance(path: str) -> LemmaInstance:
    return decode("lemma instance", lambda: lemma_instance_from_dict(json.loads(read_text(path))))
