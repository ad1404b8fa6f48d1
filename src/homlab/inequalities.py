"""Graph-level inequality checkers: reverse Sidorenko, graphical
Brascamp-Lieb, clique maximization, the bipartite swapping trick, the
swapping injection itself, and symmetric-polynomial monotonicity.

Every verdict comes from the exact comparator.  "violated" is a finding,
not an error: it is the expected outcome off the theorems' hypotheses
(graphs with triangles, non-PSD models), and a scan reports it as such.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

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
    IsolatedVertex,
    LimitExceeded,
    NotTwoSpin,
)
from homlab.graphs import Graph, tensor_with_k2
from homlab.models import Model
from homlab.power import Comparison, PowerProduct, compare_power_products

SWAP_CHECK_VERTEX_LIMIT = 7


@dataclass(frozen=True)
class IneqReport:
    ineq: str
    instance: str
    lhs: PowerProduct | None
    rhs: PowerProduct | None
    verdict: str  # "holds" | "equality" | "violated"
    exact: bool
    slack_log10: float

    def is_finding(self) -> bool:
        return self.verdict == "violated"


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


def _slack(lhs_log10: float, rhs_log10: float) -> float:
    return rhs_log10 - lhs_log10


def report_from_sides(ineq: str, instance: str, lhs_value: Fraction, rhs: PowerProduct | None) -> IneqReport:
    """Build a report for LHS (an exact rational) <= RHS (a power product).

    Zero values cannot enter a PowerProduct, so they are dispatched here;
    a zero RHS is passed as None.
    """
    rhs_is_zero = rhs is None
    if lhs_value < 0:
        raise ValueError("inequality sides must be nonnegative")
    if lhs_value == 0 or rhs_is_zero:
        if lhs_value == 0 and rhs_is_zero:
            verdict, slack = "equality", 0.0
        elif lhs_value == 0:
            verdict, slack = "holds", math.inf
        else:
            verdict, slack = "violated", -math.inf
        return IneqReport(ineq, instance, None if lhs_value == 0 else PowerProduct.from_value(lhs_value), None if rhs_is_zero else rhs, verdict, True, slack)
    lhs = PowerProduct.from_value(lhs_value)
    cmp_result = compare_power_products(lhs, rhs)
    verdict = _verdict_from_comparison(cmp_result)
    return IneqReport(
        ineq,
        instance,
        lhs,
        rhs,
        verdict,
        cmp_result.exact,
        clamp_slack(verdict, _slack(lhs.log10(), rhs.log10())),
    )


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
    zero_rhs = False
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
        if base == 0:
            zero_rhs = True
            continue
        factors.append((base, Fraction(1, degs[u] * degs[v])))
    instance = "G=%s, model q=%d" % (g.edge_list(), m.q)
    if zero_rhs:
        return report_from_sides("reverse-sidorenko", instance, lhs_value, None)
    return report_from_sides("reverse-sidorenko", instance, lhs_value, PowerProduct.of(*factors))


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
    zero_rhs = False
    for u, v in edges:
        mat = kernels[(u, v)]
        base = biclique_kernel_sum(lambda x, y, mat=mat: mat[x][y], sizes[u], sizes[v], degs[v], degs[u])
        if base == 0:
            zero_rhs = True
            continue
        factors.append((base, Fraction(1, degs[u] * degs[v])))
    instance = "G=%s, sizes=%s" % (edges, tuple(sizes))
    rhs = None if zero_rhs else PowerProduct.of(*factors)
    return report_from_sides("graphical-bl", instance, lhs_value, rhs)


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


@lru_cache(maxsize=4096)
def _h_cached(m: Model, a: int, lam: tuple | None) -> Fraction:
    return hom_clique(a, m, lam)


def check_clique_max(g: Graph, m: Model, lambdas=None) -> IneqReport:
    """hom_lambda(G, H) vs prod_v h_{d_v + 1}(lambda_v)^{1/(d_v+1)}.

    Must hold when the model is ferromagnetic (PSD); otherwise a violation
    is a finding (e.g. K_{1,4} against Widom-Rowlinson).
    """
    degs = g.degrees()
    lhs_value = hom(g, m, lambdas)
    factors = []
    zero_rhs = False
    for v in range(g.n):
        lam = None if lambdas is None else tuple(Fraction(x) for x in lambdas[v])
        base = _h_cached(m, degs[v] + 1, lam)
        if base == 0:
            zero_rhs = True
            continue
        factors.append((base, Fraction(1, degs[v] + 1)))
    instance = "G=%s, model q=%d" % (g.edge_list(), m.q)
    rhs = None if zero_rhs else PowerProduct.of(*factors)
    return report_from_sides("clique-max", instance, lhs_value, rhs)


def check_bst(g: Graph, m: Model) -> IneqReport:
    """Bipartite swapping trick bound: hom(G,H)^2 vs hom(G x K_2, H).

    Guaranteed for antiferromagnetic 2-spin H; elsewhere it is a probe.
    """
    if m.q != 2:
        raise NotTwoSpin("the swapping bound is stated for 2-spin models")
    lhs_value = hom(g, m) ** 2
    rhs_value = hom(tensor_with_k2(g), m)
    instance = "G=%s" % (g.edge_list(),)
    rhs = None if rhs_value == 0 else PowerProduct.from_value(rhs_value)
    return report_from_sides("bst", instance, lhs_value, rhs)


def independent_set_masks(g: Graph) -> list[int]:
    out = []
    for mask in range(1 << g.n):
        ok = True
        mm = mask
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            if g.adjacency[v] & mask:
                ok = False
                break
            mm ^= low
        if ok:
            out.append(mask)
    return out


def swap_injection_check(g: Graph) -> dict:
    """Run the swapping injection on the hard-core specialization.

    For every ordered pair (A, B) of independent sets: unsafe edges are
    those with endpoint patterns (in A only) -- (in B only); T is the
    canonical transversal picking, in each connected component of the
    unsafe subgraph, the side containing the component's smallest vertex;
    swapping A/B membership on T must give an independent set of G x K_2,
    injectively.
    """
    if g.n > SWAP_CHECK_VERTEX_LIMIT:
        raise LimitExceeded("swap check limited to n <= %d" % SWAP_CHECK_VERTEX_LIMIT)
    ind = independent_set_masks(g)
    edges = g.edge_list()
    images = set()
    valid = True
    for a_mask in ind:
        for b_mask in ind:
            only_a = a_mask & ~b_mask
            only_b = b_mask & ~a_mask
            unsafe = [
                (u, v)
                for u, v in edges
                if (only_a >> u & 1 and only_b >> v & 1)
                or (only_b >> u & 1 and only_a >> v & 1)
            ]
            t_mask = _canonical_transversal(g.n, unsafe)
            a_img = (a_mask & ~t_mask) | (b_mask & t_mask)
            b_img = (b_mask & ~t_mask) | (a_mask & t_mask)
            for u, v in edges:
                if (a_img >> u & 1 and b_img >> v & 1) or (b_img >> u & 1 and a_img >> v & 1):
                    valid = False
            images.add((a_img, b_img))
    return {
        "pairs": len(ind) ** 2,
        "images_distinct": len(images) == len(ind) ** 2,
        "images_valid": valid,
    }


def _canonical_transversal(n: int, unsafe_edges) -> int:
    """Pick one endpoint from every unsafe edge: within each component of
    the (bipartite) unsafe subgraph, take the 2-coloring class containing
    the smallest vertex.  Deterministic under the fixed order 0..n-1, and
    recomputable from the swapped image since unsafe edges are unchanged.
    """
    adj = {}
    for u, v in unsafe_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    color = {}
    t_mask = 0
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        comp = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    comp.append(y)
                    stack.append(y)
        side = color[min(comp)]
        for x in comp:
            if color[x] == side:
                t_mask |= 1 << x
    return t_mask


# ---------------------------------------------------------------------------
# Symmetric polynomial monotonicity.


def sym_average_products(alphas, k: int) -> list[Fraction]:
    """m_ell for ell = 1..min(n, k): the average of prod alpha_{x_i} over
    x in [n]^k with exactly ell distinct entries.

    Tuples are grouped by their index multiset (the product only depends on
    it), weighted by the number of orderings.
    """
    alphas = [Fraction(a) for a in alphas]
    n = len(alphas)
    sums = {}
    counts = {}
    for chosen in combinations_with_replacement(range(n), k):
        ell = len(set(chosen))
        mult = _multiset_permutations(chosen)
        p = Fraction(1)
        for i in chosen:
            p *= alphas[i]
        sums[ell] = sums.get(ell, Fraction(0)) + mult * p
        counts[ell] = counts.get(ell, 0) + mult
    return [sums[ell] / counts[ell] for ell in range(1, min(n, k) + 1)]


def _f_poly(alphas, k: int, s: frozenset) -> Fraction:
    """Sum over x in S^k using every element of S, of prod alpha_{x_i}."""
    if len(s) > k:
        return Fraction(0)
    total = Fraction(0)
    members = sorted(s)
    for x in product(members, repeat=k):
        if set(x) == s:
            p = Fraction(1)
            for i in x:
                p *= alphas[i]
            total += p
    return total


def validate_f_recursion(alphas, k: int) -> bool:
    """f_{k,S} = sum_{x in S} alpha_x (f_{k-1,S} + f_{k-1,S \\ x})."""
    alphas = [Fraction(a) for a in alphas]
    n = len(alphas)
    universe = list(range(n))
    from itertools import combinations

    for size in range(1, min(n, k) + 1):
        for s in combinations(universe, size):
            s = frozenset(s)
            direct = _f_poly(alphas, k, s)
            recurred = sum(
                (alphas[x] * (_f_poly(alphas, k - 1, s) + _f_poly(alphas, k - 1, s - {x})) for x in s),
                Fraction(0),
            )
            if direct != recurred:
                return False
    return True


def sym_corollary_holds(alphas, k: int, tau) -> tuple[bool, bool]:
    """E[tau(|x|)] E[prod alpha] <= E[tau(|x|) prod alpha] over x in D^k.

    Returns (holds, is_equality).  tau is a sequence tau[0..k], checked
    non-increasing by the caller.
    """
    alphas = [Fraction(a) for a in alphas]
    tau = [Fraction(t) for t in tau]
    n = len(alphas)
    total = Fraction(0)
    e_tau = Fraction(0)
    e_prod = Fraction(0)
    e_both = Fraction(0)
    count = 0
    for x in product(range(n), repeat=k):
        ell = len(set(x))
        p = Fraction(1)
        for i in x:
            p *= alphas[i]
        e_tau += tau[ell]
        e_prod += p
        e_both += tau[ell] * p
        count += 1
    lhs = e_tau * e_prod
    rhs = e_both * count
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
