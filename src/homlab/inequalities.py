"""Graph-level inequality checkers: reverse Sidorenko, graphical
Brascamp-Lieb, clique maximization, the bipartite swapping trick, the
swapping injection itself, and symmetric-polynomial monotonicity.

Every verdict, here and in the lemma battery and the toy reproduction,
comes from one `decide` over checks (label, small, big) whose sides are
(base, exponent) lists: one zero rule, all-rational checks on the
PowerProduct comparator and the rest on the RadicalSum one, and one float
slack routine.  "violated" is a finding, not an error: it is the expected
outcome off the theorems' hypotheses (graphs with triangles, non-PSD
models), and a scan reports it as such.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from homlab.counting import (
    _multiset_permutations,
    _scaled_matrix,
    _side_weights,
    biclique_kernel_sum,
    compile_plan,
    contract,
    hom,
    hom_clique,
)
from homlab.errors import (
    DimensionMismatch,
    InvalidArgument,
    IsolatedVertex,
    LimitExceeded,
    NotTwoSpin,
)
from homlab.graphs import Graph, _component, tensor_with_k2
from homlab.models import Model
from homlab.power import Comparison, PowerProduct, RadicalSum, compare_power_products, compare_radical_products

SWAP_CHECK_VERTEX_LIMIT = 7


@dataclass(frozen=True)
class IneqReport:
    ineq: str
    instance: str
    lhs: PowerProduct | None
    rhs: PowerProduct | None
    verdict: str  # "holds" | "equality" | "violated"
    # Always True; the report field `exact` comes from it, and perfbench's
    # correctness gate fails every item whose report lacks it.
    exact: bool
    slack_log10: float


def _verdict_from_comparison(cmp_result: Comparison) -> str:
    return {"less": "holds", "equal": "equality", "greater": "violated"}[cmp_result.ordering]


def clamp_slack(verdict: str, slack: float) -> float:
    """Keep the float slack's sign consistent with the exact verdict."""
    if verdict == "equality":
        return 0.0
    if verdict == "holds" and slack < 0:
        return 0.0
    if verdict == "violated" and slack > 0:
        return -0.0
    return slack


def _side(factors) -> tuple[PowerProduct, list] | None:
    """One side of a check under the zero rule: the PowerProduct of its
    rational factors and the list of its other (RadicalSum, exponent)
    factors, or None when the side is 0.  A RadicalSum with a rational
    value counts as that rational.

    A factor with exponent 0 is 1, base 0 included; any other zero base
    makes the side 0.  A negative base, or 0 to a negative power, raises
    InvalidArgument.
    """
    rational, radical, zero = [], [], False
    for base, exponent in factors:
        if not exponent:
            continue
        if isinstance(base, RadicalSum):
            value = base.as_fraction()
            if value is None:
                # Distinct canonical radicals are independent, so this sum is not 0.
                if base.sign() < 0:
                    raise InvalidArgument("inequality sides must be nonnegative, got %s" % base)
                radical.append((base, exponent))
                continue
            base = value
        if base > 0:
            rational.append((base, exponent))
        elif base < 0 or exponent < 0:
            raise InvalidArgument("inequality sides must be nonnegative and finite, got %s^%s" % (base, exponent))
        else:
            zero = True
    return None if zero else (PowerProduct.of(*rational), radical)


def _log10(side) -> float | None:
    """Float log10 of a nonzero side, for the slack only: the rational
    part's PowerProduct.log10 plus e * log10 of each sum's float.  None
    when a sum's float is not positive."""
    product, radical = side
    total = product.log10()
    for s, e in radical:
        try:
            v, shift = s.float_value(), 0
        except OverflowError:
            # A coefficient past the float range: take the sum's float at
            # 2^-shift times its value.
            shift = max(c.numerator.bit_length() - c.denominator.bit_length() for c in s.terms.values())
            v = s.scale(Fraction(1, 1 << shift)).float_value()
        if v <= 0:
            return None
        total += float(e) * math.log10(v)
        if shift:
            total += float(e) * shift * math.log10(2)
    return total


def _lifted(side) -> list:
    """A nonzero side's factors for compare_radical_products, its rational
    ones lifted as single-term sums."""
    product, radical = side
    return [(RadicalSum.from_rational(b), e) for b, e in product.factors] + radical


def _decide_sides(sides) -> tuple[str, float]:
    """decide over (small, big) pairs already read by _side."""
    verdicts, slacks = [], []
    for small, big in sides:
        if small is None or big is None:
            verdict = "equality" if small is big else "holds" if small is None else "violated"
            verdicts.append(verdict)
            slacks.append({"equality": 0.0, "holds": math.inf, "violated": -math.inf}[verdict])
            continue
        if small[1] or big[1]:
            cmp_result = compare_radical_products(_lifted(small), _lifted(big))
        else:
            cmp_result = compare_power_products(small[0], big[0])
        verdicts.append(_verdict_from_comparison(cmp_result))
        small_log, big_log = _log10(small), _log10(big)
        if small_log is not None and big_log is not None:
            slacks.append(big_log - small_log)
        elif verdicts[-1] == "equality":
            slacks.append(0.0)
    if "violated" in verdicts:
        verdict = "violated"
    elif all(v == "equality" for v in verdicts):
        verdict = "equality"
    else:
        verdict = "holds"
    return verdict, clamp_slack(verdict, min(slacks, default=0.0))


def decide(checks) -> tuple[str, float]:
    """Exact verdict and float slack of checks (label, small, big), each the
    claim small <= big.  A side is a list of (base, exponent) factors whose
    base is a nonnegative Fraction (or int) or RadicalSum, exponent rational.

    Zero rule (see _side): 0 <= 0 is equality with slack 0.0, 0 <= x holds
    with slack +inf, x <= 0 is violated with slack -inf.  A check with only
    rational bases is decided by compare_power_products; any other by
    compare_radical_products, with its rational factors lifted as
    single-term sums.  Any violated check makes the verdict violated; all
    equal give equality.  The slack is the least log10(big / small) over
    the checks whose floats are positive (0.0 for an equal one without),
    0.0 when there is none, kept consistent with the verdict by clamp_slack.
    """
    return _decide_sides([(_side(small), _side(big)) for _, small, big in checks])


def _report(ineq: str, instance: str, small, big) -> IneqReport:
    """Report on the one check small <= big; its lhs and rhs are the sides'
    PowerProducts, None for a zero side."""
    lhs, rhs = _side(small), _side(big)
    verdict, slack = _decide_sides([(lhs, rhs)])
    return IneqReport(ineq, instance, lhs and lhs[0], rhs and rhs[0], verdict, True, slack)


def biclique_norm_power(kernel, size1: int, size2: int, a: int, b: int, w1=None, w2=None) -> tuple[Fraction, Fraction]:
    """The K_{a,b} norm of a two-variable kernel as a (base, exponent) pair:
    base is the exact pattern sum, exponent 1/(ab)."""
    if a < 1 or b < 1:
        raise DimensionMismatch("norm indices must be >= 1")
    base = biclique_kernel_sum(kernel, size1, size2, a, b, w1, w2)
    return base, Fraction(1, a * b)


def check_reverse_sidorenko(g: Graph, m: Model, constraints=None, memo=None) -> IneqReport:
    """hom(G, H) vs prod_{uv} hom(K_{d_u, d_v}, H)^{1/(d_u d_v)}.

    With constraints, each biclique factor propagates the endpoint
    constraints to the corresponding side, matching the list form of the
    semiproper theorem.  Must hold for triangle-free G (any H); a violation
    for G with triangles is a legitimate finding.

    `memo` is an optional dict owned by the caller, one per model: factors
    are looked up in it by (d_v, d_u, lambda_u, lambda_v) before they are
    computed, and stored in it after.  Without one, a local dict still
    shares the factors of repeated degree pairs within this call.
    """
    degs = g.degrees()
    if any(d == 0 for d in degs):
        raise IsolatedVertex("reverse-sidorenko needs no isolated vertices")
    lhs_value = hom(g, m, constraints)
    if memo is None:
        memo = {}
    factors = []
    kernel = lambda x, y: m.edge_weights[x][y]
    for u, v in g.edge_list():
        lam_u = None if constraints is None else tuple(constraints[u])
        lam_v = None if constraints is None else tuple(constraints[v])
        key = (degs[v], degs[u], lam_u, lam_v)
        base = memo.get(key)
        if base is None:
            # u-side colors appear d_v times: the norm is K_{d_v, d_u}.
            base = memo[key] = biclique_kernel_sum(
                kernel, m.q, m.q, degs[v], degs[u], _side_weights(m, lam_u), _side_weights(m, lam_v)
            )
        factors.append((base, Fraction(1, degs[u] * degs[v])))
    instance = "G=%s, model q=%d" % (g.edge_list(), m.q)
    return _report("reverse-sidorenko", instance, [(lhs_value, 1)], factors)


def check_graphical_bl(g: Graph, kernels: dict, sizes) -> IneqReport:
    """Graphical Brascamp-Lieb: sum over assignments of prod f_uv vs
    prod ||f_uv||_{K_{d_v, d_u}}.

    `kernels[(u, v)]` (u < v) is a matrix indexed by Omega_u x Omega_v;
    `sizes[v]` is |Omega_v|.  Counting measure on each vertex space; fold
    vertex weights into the kernels if needed.
    """
    degs = g.degrees()
    if any(d == 0 for d in degs):
        raise IsolatedVertex("graphical-BL needs no isolated vertices")
    edges = g.edge_list()
    for u, v in edges:
        mat = kernels[(u, v)]
        if len(mat) != sizes[u] or any(len(row) != sizes[v] for row in mat):
            raise DimensionMismatch("kernel (%d, %d) has wrong shape" % (u, v))
    lhs_value = _kernel_assignment_sum(g, kernels, sizes)
    factors = []
    for u, v in edges:
        mat = kernels[(u, v)]
        base = biclique_kernel_sum(lambda x, y, mat=mat: mat[x][y], sizes[u], sizes[v], degs[v], degs[u])
        factors.append((base, Fraction(1, degs[u] * degs[v])))
    instance = "G=%s, sizes=%s" % (edges, tuple(sizes))
    return _report("graphical-bl", instance, [(lhs_value, 1)], factors)


def _kernel_assignment_sum(g: Graph, kernels: dict, sizes) -> Fraction:
    """Sum over x in prod_v [sizes[v]] of prod_{uv} kernels[(u, v)][x_u][x_v],
    with each kernel scaled to integers for the contraction engine."""
    denom = 1
    mats = {}
    for u, v in g.edge_list():
        scale, mats[(u, v)] = _scaled_matrix([[Fraction(x) for x in row] for row in kernels[(u, v)]])
        mats[(v, u)] = [list(col) for col in zip(*mats[(u, v)])]
        denom *= scale
    choices = [[(c, 1) for c in range(size)] for size in sizes]
    return Fraction(contract(compile_plan(g.adjacency), choices, lambda u, v: mats[(u, v)]), denom)


def check_clique_max(g: Graph, m: Model, lambdas=None, memo=None) -> IneqReport:
    """hom_lambda(G, H) vs prod_v h_{d_v + 1}(lambda_v)^{1/(d_v+1)}.

    Must hold when the model is ferromagnetic (PSD); otherwise a violation
    is a finding (e.g. K_{1,4} against Widom-Rowlinson).

    `memo` is an optional dict owned by the caller, one per model, as in
    check_reverse_sidorenko: factors are keyed by (d_v + 1, lambda_v).
    """
    degs = g.degrees()
    lhs_value = hom(g, m, lambdas)
    if memo is None:
        memo = {}
    factors = []
    for v in range(g.n):
        lam = None if lambdas is None else tuple(Fraction(x) for x in lambdas[v])
        key = (degs[v] + 1, lam)
        base = memo.get(key)
        if base is None:
            base = memo[key] = hom_clique(degs[v] + 1, m, lam)
        factors.append((base, Fraction(1, degs[v] + 1)))
    instance = "G=%s, model q=%d" % (g.edge_list(), m.q)
    return _report("clique-max", instance, [(lhs_value, 1)], factors)


def check_bst(g: Graph, m: Model) -> IneqReport:
    """Bipartite swapping trick bound: hom(G,H)^2 vs hom(G x K_2, H).

    Guaranteed for antiferromagnetic 2-spin H; elsewhere it is a probe.
    """
    if m.q != 2:
        raise NotTwoSpin("the swapping bound is stated for 2-spin models")
    lhs_value = hom(g, m) ** 2
    rhs_value = hom(tensor_with_k2(g), m)
    instance = "G=%s" % (g.edge_list(),)
    return _report("bst", instance, [(lhs_value, 1)], [(rhs_value, 1)])


def independent_set_masks(g: Graph) -> list[int]:
    rows = g.adjacency
    return [s for s in range(1 << g.n) if not any(s >> v & 1 and rows[v] & s for v in range(g.n))]


def swap_injection_check(g: Graph) -> dict:
    """Run the swapping injection on the hard-core specialization.

    For every ordered pair (A, B) of independent sets: unsafe edges join a
    vertex in A only to one in B only, so A-only and B-only are the two
    color classes of the unsafe subgraph.  T is the canonical transversal
    picking, in each connected component of the unsafe subgraph, the class
    containing the component's smallest vertex; it is recomputable from
    the swapped image, whose unsafe edges are the same.  Swapping A/B
    membership on T must give an independent set of G x K_2, injectively.
    """
    if g.n > SWAP_CHECK_VERTEX_LIMIT:
        raise LimitExceeded("swap check limited to n <= %d" % SWAP_CHECK_VERTEX_LIMIT)
    ind = independent_set_masks(g)
    rows = g.adjacency
    images = set()
    valid = True
    for a_mask in ind:
        for b_mask in ind:
            only_a = a_mask & ~b_mask
            only_b = b_mask & ~a_mask
            unsafe = [r & (only_b if only_a >> v & 1 else only_a if only_b >> v & 1 else 0) for v, r in enumerate(rows)]
            t_mask = 0
            left = sum(1 << v for v, r in enumerate(unsafe) if r)
            while left:
                v = (left & -left).bit_length() - 1
                comp = _component(unsafe, v)
                t_mask |= comp & (only_a if only_a >> v & 1 else only_b)
                left &= ~comp
            a_img = (a_mask & ~t_mask) | (b_mask & t_mask)
            b_img = (b_mask & ~t_mask) | (a_mask & t_mask)
            if any(a_img >> v & 1 and r & b_img for v, r in enumerate(rows)):
                valid = False
            images.add((a_img, b_img))
    return {
        "pairs": len(ind) ** 2,
        "images_distinct": len(images) == len(ind) ** 2,
        "images_valid": valid,
    }


# ---------------------------------------------------------------------------
# Symmetric polynomial monotonicity.


def _support_sums(alphas, k: int) -> dict:
    """{S: (count, total)} over x in [n]^k whose set of distinct entries is
    S: how many such x there are, and the sum of prod alpha_{x_i}.

    Tuples are grouped by their index multiset (the product only depends on
    it), weighted by the number of orderings.
    """
    sums = {}
    for chosen in combinations_with_replacement(range(len(alphas)), k):
        support = frozenset(chosen)
        mult = _multiset_permutations(chosen)
        count, total = sums.get(support, (0, Fraction(0)))
        sums[support] = (count + mult, total + mult * math.prod((alphas[i] for i in chosen), start=Fraction(1)))
    return sums


def _sym_sums(alphas, k: int) -> dict:
    """{ell: (count, total)} as in _support_sums, merged over the supports
    of size ell."""
    sums = {}
    for support, (count, total) in _support_sums(alphas, k).items():
        c, t = sums.get(len(support), (0, Fraction(0)))
        sums[len(support)] = (c + count, t + total)
    return sums


def sym_average_products(alphas, k: int) -> list[Fraction]:
    """m_ell for ell = 1..min(n, k): the average of prod alpha_{x_i} over
    x in [n]^k with exactly ell distinct entries."""
    sums = _sym_sums([Fraction(a) for a in alphas], k)
    return [sums[ell][1] / sums[ell][0] for ell in range(1, min(len(alphas), k) + 1)]


def validate_f_recursion(alphas, k: int) -> bool:
    """f_{k,S} = sum_{x in S} alpha_x (f_{k-1,S} + f_{k-1,S \\ x}), where
    f_{k,S} sums prod alpha_{x_i} over x in S^k using every element of S:
    the total of S in _support_sums(alphas, k)."""
    if k < 1:
        return True
    alphas = [Fraction(a) for a in alphas]
    n = len(alphas)
    f_k, f_prev = _support_sums(alphas, k), _support_sums(alphas, k - 1)
    for size in range(1, min(n, k) + 1):
        for s in map(frozenset, combinations(range(n), size)):
            prev = f_prev.get(s, (0, 0))[1]
            recurred = sum((alphas[x] * (prev + f_prev.get(s - {x}, (0, 0))[1]) for x in s), Fraction(0))
            if f_k.get(s, (0, 0))[1] != recurred:
                return False
    return True


def sym_corollary_sides(alphas, k: int, tau) -> tuple[Fraction, Fraction]:
    """(E[tau(|x|)] E[prod alpha] n^k, E[tau(|x|) prod alpha] n^k) over
    x in D^k: the two sides of the corollary, cleared of one 1/n^k."""
    tau = [Fraction(t) for t in tau]
    sums = _sym_sums([Fraction(a) for a in alphas], k)
    e_tau = sum((tau[ell] * count for ell, (count, _) in sums.items()), Fraction(0))
    e_prod = sum((total for _, total in sums.values()), Fraction(0))
    e_both = sum((tau[ell] * total for ell, (_, total) in sums.items()), Fraction(0))
    count = sum(count for count, _ in sums.values())
    return e_tau * e_prod, e_both * count


def sym_corollary_holds(alphas, k: int, tau) -> tuple[bool, bool]:
    """E[tau(|x|)] E[prod alpha] <= E[tau(|x|) prod alpha] over x in D^k.

    Returns (holds, is_equality).  tau is a sequence tau[0..k], checked
    non-increasing by the caller.
    """
    lhs, rhs = sym_corollary_sides(alphas, k, tau)
    return lhs <= rhs, lhs == rhs


def check_sym_monotone(alphas, k: int) -> IneqReport:
    """Verdict on m_1 >= ... >= m_{min(n,k)}, with the recursion identity
    and the corollary at tau(j) = 1/(j+1) validated on the same instance."""
    ms = sym_average_products(alphas, k)
    monotone = all(a >= b for a, b in zip(ms, ms[1:]))
    all_equal = len(ms) > 1 and all(a == b for a, b in zip(ms, ms[1:]))
    recursion_ok = validate_f_recursion(alphas, k)
    tau = [Fraction(1, j + 1) for j in range(k + 1)]
    cor_holds, _ = sym_corollary_holds(alphas, k, tau)
    ok = monotone and recursion_ok and cor_holds
    verdict = "violated" if not ok else ("equality" if all_equal else "holds")
    steps = []
    for hi, lo in zip(ms, ms[1:]):
        if lo == 0:
            steps.append(0.0 if hi == 0 else math.inf)
        elif hi == 0:
            steps.append(-math.inf)
        else:
            steps.append(math.log10(hi / lo))
    slack = min(steps, default=0.0)
    return IneqReport(
        "sym-monotone",
        "alphas=%s, k=%d" % ([str(a) for a in map(Fraction, alphas)], k),
        None,
        None,
        verdict,
        True,
        slack,
    )
