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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from homlab.counting import (
    biclique_kernel_sum,
    compile_plan,
    contract,
    hom,
    hom_biclique,
    hom_clique,
    hom_double_cover,
    multiset_count,
    multisets,
)
from homlab.errors import (
    DimensionMismatch,
    InvalidArgument,
    IsolatedVertex,
    LimitExceeded,
    NotTwoSpin,
    check_work,
)
from homlab.graphs import Graph, _component
from homlab.models import Model
from homlab.power import PowerProduct, RadicalSum, compare_power_products, compare_radical_products
from homlab.ratmath import scaled_matrix

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


_VERDICTS = {"less": "holds", "equal": "equality", "greater": "violated"}


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
    """One side of a check under the zero rule, read in one pass: the
    PowerProduct of its rational factors and the list of its other
    (RadicalSum, exponent) factors, or None when the side is 0.  A
    RadicalSum with a rational value counts as that rational.

    A factor with exponent 0 is 1, base 0 included; any other zero base
    makes the side 0.  A negative base, or 0 to a negative power, raises
    InvalidArgument.
    """
    ints, radical, zero = [], [], False
    # Fractions and ints both give their ratio as an int pair.
    for base, exponent in factors:
        en, ed = exponent.as_integer_ratio()
        if not en:
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
        n, d = base.as_integer_ratio()
        if n > 0:
            ints.append((n, d, en, ed))
        elif n < 0 or en < 0:
            raise InvalidArgument("inequality sides must be nonnegative and finite, got %s^%s" % (base, exponent))
        else:
            zero = True
    return None if zero else (PowerProduct.of_ints(ints), radical)


def _log10(side) -> float | None:
    """Float log10 of a nonzero side, for the slack only: the rational
    part's PowerProduct.log10 plus e * log10 of each sum's float.  None
    when a sum's float is not positive."""
    product, radical = side
    total = product.log10
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


def _check(small, big) -> tuple[str, float | None]:
    """Verdict and float slack of one check over sides read by _side; the
    slack is None when a side's float is not positive and the check is
    not an equality."""
    if small is None or big is None:
        if small is big:
            return "equality", 0.0
        return ("holds", math.inf) if small is None else ("violated", -math.inf)
    if small[1] or big[1]:
        cmp_result = compare_radical_products([*small[0].factors, *small[1]], [*big[0].factors, *big[1]])
    else:
        cmp_result = compare_power_products(small[0], big[0])
    verdict = _VERDICTS[cmp_result.ordering]
    small_log, big_log = _log10(small), _log10(big)
    if small_log is not None and big_log is not None:
        return verdict, big_log - small_log
    return verdict, 0.0 if verdict == "equality" else None


def _decide_sides(sides) -> tuple[str, float]:
    """decide over (small, big) pairs already read by _side."""
    violated, equal, least = False, bool(sides), None
    for small, big in sides:
        verdict, slack = _check(small, big)
        violated = violated or verdict == "violated"
        equal = equal and verdict == "equality"
        if slack is not None and (least is None or slack < least):
            least = slack
    verdict = "violated" if violated else "equality" if equal else "holds"
    return verdict, clamp_slack(verdict, 0.0 if least is None else least)


def decide(checks) -> tuple[str, float]:
    """Exact verdict and float slack of checks (label, small, big), each the
    claim small <= big.  A side is a list of (base, exponent) factors whose
    base is a nonnegative Fraction (or int) or RadicalSum, exponent rational.

    Zero rule (see _side): 0 <= 0 is equality with slack 0.0, 0 <= x holds
    with slack +inf, x <= 0 is violated with slack -inf.  A check with only
    rational bases is decided by compare_power_products; any other by
    compare_radical_products, which builds each side, rational factors
    included, with power.radical_product.  Any violated check makes the
    verdict violated; all equal give equality.  The slack is the least
    log10(big / small) over the checks whose floats are positive (0.0 for
    an equal one without), 0.0 when there is none, kept consistent with
    the verdict by clamp_slack.  An empty list is a vacuous claim: it holds
    with slack 0.0.
    """
    return _decide_sides([(_side(small), _side(big)) for _, small, big in checks])


def _report(ineq: str, instance: str, value, factors) -> IneqReport:
    """Report on the one check value <= prod factors, with the sides'
    PowerProducts (None if 0) and the verdict and slack of _decide_sides,
    read as its one `_check` and clamp.  A positive rational value's side
    is built directly, as _side would read it."""
    n, d = value.as_integer_ratio()
    lhs = (PowerProduct(((n, d, 1, 1),) if n != d else (), math.log10(n) - math.log10(d)), []) if n > 0 else _side([(value, 1)])
    rhs = _side(factors)
    verdict, slack = _check(lhs, rhs)
    return IneqReport(ineq, instance, lhs and lhs[0], rhs and rhs[0], verdict, True, clamp_slack(verdict, 0.0 if slack is None else slack))


@lru_cache(maxsize=1024)
def _factor_keys(adjacency: tuple, clique: bool) -> tuple:
    """(memo key, exponent) of each factor of an unconstrained cell, in the
    checks' order: (d_v, d_u, None, None), count/(d_u d_v) per degree pair of
    the edges (reverse Sidorenko), or (d + 1, None), count/(d + 1) per degree."""
    if clique:
        return tuple(((a, None), Fraction(count, a)) for a, count in Counter(row.bit_count() + 1 for row in adjacency).items())
    g = Graph(len(adjacency), adjacency)
    return tuple(((d_v, d_u, None, None), Fraction(len(edges), d_u * d_v)) for (d_v, d_u), edges in g.degree_pairs)


def check_reverse_sidorenko(g: Graph, m: Model, constraints=None, memo=None, hom_memo=None) -> IneqReport:
    """hom(G, H) vs prod_{uv} hom(K_{d_u, d_v}, H)^{1/(d_u d_v)}.

    With constraints, each biclique factor propagates the endpoint
    constraints to the corresponding side, matching the list form of the
    semiproper theorem.  Must hold for triangle-free G (any H); a violation
    for G with triangles is a legitimate finding.

    `memo` is an optional dict owned by the caller, one per model: factors
    are looked up in it by (d_v, d_u, lambda_u, lambda_v) before they are
    computed by `hom_biclique`, and stored in it after.  Edges with equal
    keys give one factor, its exponent multiplied by their count; the keys
    come from `Graph.degree_pairs`, each degree pair split by its edges'
    constraints; without constraints they are read, with their exponents,
    once per graph (`_factor_keys`).  Below the memo, `hom_biclique`
    keeps the multiset terms of each contracted side and size on the model
    (`Model.biclique_sums`), so the factors of one model and measure pair
    share one walk per side and size, and each is one power sum.  A pair's
    work bound depends on its degrees and q alone, so the first factor over
    the bound is that of the first such edge.
    `hom_memo` is hom's component memo for the same model, a separate dict.
    """
    if not all(g.adjacency):
        raise IsolatedVertex("reverse-sidorenko needs no isolated vertices")
    lhs_value = hom(g, m, constraints, hom_memo)
    memo = {} if memo is None else memo
    if constraints is None:
        keys = _factor_keys(g.adjacency, False)
    else:
        keys = [((d_v, d_u, *lams), Fraction(count, d_u * d_v)) for (d_v, d_u), edges in g.degree_pairs
                for lams, count in Counter((tuple(constraints[u]), tuple(constraints[v])) for u, v in edges).items()]
    factors = []
    for key, exponent in keys:
        base = memo.get(key)
        if base is None:
            # u-side colors appear d_v times: the norm is K_{d_v, d_u}.
            base = memo[key] = hom_biclique(key[0], key[1], m, key[2:])
        factors.append((base, exponent))
    instance = "G=%s, model q=%d" % (g.edge_text, m.q)
    return _report("reverse-sidorenko", instance, lhs_value, factors)


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
    return _report("graphical-bl", instance, lhs_value, factors)


def _kernel_assignment_sum(g: Graph, kernels: dict, sizes) -> Fraction:
    """Sum over x in prod_v [sizes[v]] of prod_{uv} kernels[(u, v)][x_u][x_v],
    on a block palette: vertex v takes the colors offsets[v] + c, and one
    symmetric int matrix holds edge uv's scaled kernel in its (u, v) and
    (v, u) blocks.  Its (sum of sizes)^2 entries are checked first."""
    offsets = [0, *accumulate(sizes)]
    total = offsets.pop()
    check_work("block-palette", total * total, "matrix entries of %d colors", total)
    matrix = [[0] * total for _ in range(total)]
    denom = 1
    for u, v in g.edge_list():
        scale, rows = scaled_matrix(kernels[(u, v)])
        denom *= scale
        for x, row in enumerate(rows, offsets[u]):
            for y, w in enumerate(row, offsets[v]):
                matrix[x][y] = matrix[y][x] = w
    choices = [[(offsets[v] + c, 1) for c in range(size)] for v, size in enumerate(sizes)]
    return Fraction(contract(compile_plan(g.adjacency), choices, matrix), denom)


def check_clique_max(g: Graph, m: Model, lambdas=None, memo=None, hom_memo=None) -> IneqReport:
    """hom_lambda(G, H) vs prod_v h_{d_v + 1}(lambda_v)^{1/(d_v+1)}.

    Must hold when the model is ferromagnetic (PSD); otherwise a violation
    is a finding (e.g. K_{1,4} against Widom-Rowlinson).

    `memo` is an optional dict owned by the caller, one per model, as in
    check_reverse_sidorenko: factors are keyed by (d_v + 1, lambda_v), and
    vertices with equal keys give one factor (`_factor_keys` without
    lambdas).  `hom_memo` is hom's component memo for the same model, a
    separate dict.
    """
    lhs_value = hom(g, m, lambdas, hom_memo)
    memo = {} if memo is None else memo
    if lambdas is None:
        keys = _factor_keys(g.adjacency, True)
    else:
        counts = Counter((row.bit_count() + 1, tuple(map(Fraction, lam))) for row, lam in zip(g.adjacency, lambdas))
        keys = [(key, Fraction(count, key[0])) for key, count in counts.items()]
    factors = []
    for key, exponent in keys:
        base = memo.get(key)
        if base is None:
            base = memo[key] = hom_clique(key[0], m, key[1])
        factors.append((base, exponent))
    instance = "G=%s, model q=%d" % (g.edge_text, m.q)
    return _report("clique-max", instance, lhs_value, factors)


def check_bst(g: Graph, m: Model, hom_memo=None) -> IneqReport:
    """Bipartite swapping trick bound: hom(G,H)^2 vs hom(G x K_2, H).

    Guaranteed for antiferromagnetic 2-spin H; elsewhere it is a probe.
    Both sides are built from G's components (`hom_double_cover`): the
    cover of a bipartite component C is two copies of C, so it gives
    hom(C)^2.
    `hom_memo` is hom's component memo for this model, owned by the
    caller; with none, a local one links the two sides.
    """
    if m.q != 2:
        raise NotTwoSpin("the swapping bound is stated for 2-spin models")
    hom_memo = {} if hom_memo is None else hom_memo
    lhs_value = hom(g, m, memo=hom_memo) ** 2
    return _report("bst", "G=" + g.edge_text, lhs_value, [(hom_double_cover(g, m, hom_memo), 1)])


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
    it), weighted by the number of orderings.  Raises LimitExceeded when
    multiset_count(n, k) * k exceeds WORK_LIMIT.
    """
    check_work("symmetric-sum", multiset_count(len(alphas), k) * k, "n = %d, k = %d", len(alphas), k)
    sums = {}
    for chosen, mult in multisets(range(len(alphas)), k):
        support = frozenset(i for i, _ in chosen)
        count, total = sums.get(support, (0, Fraction(0)))
        sums[support] = (count + mult, total + mult * math.prod((alphas[i] ** m for i, m in chosen), start=Fraction(1)))
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


def sym_monotone_checks(alphas, k: int) -> list:
    """The chain m_{ell+1} <= m_ell for ell = 1..min(n, k) - 1, as checks
    for decide, from one _support_sums pass."""
    ms = sym_average_products(alphas, k)
    return [("chain-monotone[ell=%d]" % ell, [(lo, 1)], [(hi, 1)]) for ell, (hi, lo) in enumerate(zip(ms, ms[1:]), 1)]


def check_sym_monotone(alphas, k: int) -> IneqReport:
    """Verdict on m_1 >= ... >= m_{min(n,k)}: decide over sym_monotone_checks."""
    verdict, slack = decide(sym_monotone_checks(alphas, k))
    instance = "alphas=%s, k=%d" % ([str(a) for a in map(Fraction, alphas)], k)
    return IneqReport("sym-monotone", instance, None, None, verdict, True, slack)
