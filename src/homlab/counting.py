"""Exact computation of hom(G, H) and the counting quantities the
inequalities are built from: constrained homs, biclique contractions,
semiproper list-coloring counts, clique partition functions, and the
eps-polynomial of the triangle counterexample family.

Everything returns Fraction (or int for pure counts); no floats.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, lcm, prod
from operator import itemgetter
from typing import NamedTuple

from homlab.errors import DimensionMismatch, LimitExceeded
from homlab.graphs import CONTRACTION_WORK_LIMIT, Graph, triangle_count
from homlab.models import Model


def _check_constraints(constraints, n: int, q: int):
    if constraints is None:
        return None
    if len(constraints) != n:
        raise DimensionMismatch("need one constraint per vertex (%d)" % n)
    out = []
    for lam in constraints:
        if len(lam) != q:
            raise DimensionMismatch("constraint length %d != q = %d" % (len(lam), q))
        out.append(tuple(Fraction(x) for x in lam))
    return out


def lists_to_constraints(lists, q: int):
    """Turn per-vertex color sets into 0/1 weight vectors."""
    return [tuple(Fraction(1 if c in allowed else 0) for c in range(q)) for allowed in lists]


def hom(g: Graph, m: Model, constraints=None) -> Fraction:
    """Weighted homomorphism count: sum over all maps V -> colors of the
    product of edge weights times per-vertex weight * constraint.

    A frontier DP (bucket elimination) over the graph's cached `Plan`:
    vertices are placed in a greedy min-frontier order, and a table maps
    the colors of the placed vertices that still have unplaced neighbors
    to the summed weight of all partial maps that agree with them.
    Zero-weight colors are pruned first.  All weights are scaled to
    integers by their common denominators (pure big-int arithmetic in the
    hot loop), and the exact scaling is divided back out at the end.
    Raises LimitExceeded when the plan's work bound exceeds
    CONTRACTION_WORK_LIMIT.
    """
    constraints = _check_constraints(constraints, g.n, m.q)
    if constraints is None:
        scale, colors = _scaled_colors(m.vertex_weights)
        choices = [colors] * g.n
        denom = scale ** g.n
    else:
        choices = []
        denom = 1
        for lam in constraints:
            scale, colors = _scaled_colors([w * x for w, x in zip(m.vertex_weights, lam)])
            choices.append(colors)
            denom *= scale
    if not all(choices):
        return Fraction(0)
    edge_scale, ew = _scaled_matrix(m.edge_weights) if g.edges else (1, None)
    denom *= edge_scale ** len(g.edges)
    return Fraction(contract(compile_plan(g.adjacency), choices, lambda u, v: ew), denom)


def _scaled_colors(weights):
    """(scale, [(color, scale * weight)]) over the nonzero weights, with
    scale the lcm of their denominators, so every product is an int."""
    scale = lcm(*(w.denominator for w in weights if w))
    return scale, [(c, w.numerator * (scale // w.denominator)) for c, w in enumerate(weights) if w]


def _scaled_matrix(rows):
    scale = lcm(*(x.denominator for row in rows for x in row))
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# The contraction engine shared by hom, semiproper_count, the graphical
# Brascamp-Lieb assignment sum and the eps-polynomial.


class Step(NamedTuple):
    vertex: int
    back: tuple  # (frontier position, vertex) of each placed neighbor
    project: object  # drops the finished vertices from a key; None if none
    kept: bool  # whether the new vertex joins the frontier


class Plan(NamedTuple):
    steps: tuple
    widths: tuple  # frontier width before each step

    def work(self, q: int) -> int:
        return sum(q ** (w + 1) for w in self.widths)


def _projector(keep):
    # itemgetter returns a bare item for a single index, hence the cases.
    if not keep:
        return lambda key: ()
    if len(keep) == 1:
        (i,) = keep
        return lambda key: (key[i],)
    return itemgetter(*keep)


@lru_cache(maxsize=1024)
def compile_plan(adjacency: tuple) -> Plan:
    """Vertex order and frontier bookkeeping for a graph given by its
    neighbor bitsets.

    Each step places the unplaced vertex that leaves the smallest
    frontier (placed vertices with an unplaced neighbor); ties go to the
    lowest index.  Cached because a scan meets each graph with many
    models; keyed by the adjacency tuple, not the Graph, so an entry keeps
    no graph alive.  The greedy search takes about n^2 steps, which every
    Graph bounds by CONTRACTION_WORK_LIMIT.
    """
    n = len(adjacency)
    # The greedy search would take the vertices with no neighbours first
    # anyway, lowest index first (width 0 while the frontier is empty), so
    # they are placed in one pass.
    isolated = [v for v in range(n) if not adjacency[v]]
    placed = sum(1 << v for v in isolated)
    frontier = []
    steps = [Step(v, (), None, False) for v in isolated]
    widths = [0] * len(isolated)

    def width_after(v):
        still_open = ~(placed | 1 << v)
        return sum(1 for u in frontier + [v] if adjacency[u] & still_open)

    for _ in range(n - len(isolated)):
        # min keeps the first of equal widths: the lowest index.
        v = min((u for u in range(n) if not placed >> u & 1), key=width_after)
        placed |= 1 << v
        back = tuple((i, u) for i, u in enumerate(frontier) if adjacency[v] >> u & 1)
        keep = tuple(i for i, u in enumerate(frontier) if adjacency[u] & ~placed)
        kept = bool(adjacency[v] & ~placed)
        project = None if len(keep) == len(frontier) else _projector(keep)
        widths.append(len(frontier))
        steps.append(Step(v, back, project, kept))
        frontier = [frontier[i] for i in keep] + ([v] if kept else [])
    return Plan(tuple(steps), tuple(widths))


def contract(plan: Plan, choices, edge_matrix) -> int:
    """Sum over all maps v -> colors in choices[v] of the product of the
    color weights and, for every edge, edge_matrix(u, v)[color u][color v]
    (u placed before v).  Weights and matrix entries are integers.
    """
    q = max(map(len, choices), default=0)
    work = plan.work(q)
    if work > CONTRACTION_WORK_LIMIT:
        raise LimitExceeded(
            "contraction work bound %d exceeds %d (n = %d, q = %d)"
            % (work, CONTRACTION_WORK_LIMIT, len(plan.steps), q)
        )
    table = {(): 1}
    for v, back, project, kept in plan.steps:
        links = [(i, edge_matrix(u, v)) for i, u in back]
        colors = choices[v]
        new = {}
        get = new.get
        for key, val in table.items():
            rows = [mat[key[i]] for i, mat in links]
            base = key if project is None else project(key)
            for c, w in colors:
                for row in rows:
                    w *= row[c]
                    if not w:
                        break
                if w:
                    k = base + (c,) if kept else base
                    new[k] = get(k, 0) + val * w
        if not new:
            return 0
        table = new
    return table[()]


def hom_biclique(a: int, b: int, m: Model, side_constraints=None) -> Fraction:
    """hom(K_{a,b}, m): `biclique_kernel_sum` of the edge weights.

    `side_constraints` is an optional (lambda_a, lambda_b) pair applied to
    every vertex of the respective side.
    """
    lam_a, lam_b = (None, None) if side_constraints is None else side_constraints
    ew = m.edge_weights
    return biclique_kernel_sum(lambda x, y: ew[x][y], m.q, m.q, a, b, _side_weights(m, lam_a), _side_weights(m, lam_b))


def _side_weights(m: Model, lam):
    if lam is None:
        return list(m.vertex_weights)
    if len(lam) != m.q:
        raise DimensionMismatch("side constraint length != q")
    return [m.vertex_weights[c] * Fraction(lam[c]) for c in range(m.q)]


def _multiset_permutations(combo: tuple) -> int:
    out = factorial(len(combo))
    counts = {}
    for c in combo:
        counts[c] = counts.get(c, 0) + 1
    for c in counts.values():
        out //= factorial(c)
    return out


def _biclique_work(size1: int, size2: int, a: int, b: int) -> int:
    # Multisets of the b points on side 2, times an a-side row product each.
    return comb(size2 + b - 1, b) * size1 * b


def biclique_kernel_sum(f, size1: int, size2: int, a: int, b: int, w1=None, w2=None) -> Fraction:
    """K_{a,b} pattern sum of a kernel f(x, y): sum over x in [size1]^a,
    y in [size2]^b of prod f(x_i, y_j), with optional per-point measures.

    Contracted over the cheaper side: the other side's points are summed
    as multisets with multinomial weight, and each multiset's a-side sum
    is raised to the power a.  The kernel is tabulated once and scaled to
    integers by the lcm of its denominators, the measures likewise (with
    zero-weight points dropped), so the loop is pure big-int arithmetic
    and the exact scale is divided back out once.  Raises LimitExceeded
    when the work, C(size2 + b - 1, b) * size1 * b on the contracted
    side, exceeds CONTRACTION_WORK_LIMIT.
    """
    w1 = [Fraction(1)] * size1 if w1 is None else [Fraction(x) for x in w1]
    w2 = [Fraction(1)] * size2 if w2 is None else [Fraction(x) for x in w2]
    if a == 0 and b == 0:
        return Fraction(1)
    if a == 0:
        return sum(w2, Fraction(0)) ** b
    if b == 0:
        return sum(w1, Fraction(0)) ** a
    table = [[Fraction(f(x, y)) for y in range(size2)] for x in range(size1)]
    work = _biclique_work(size1, size2, a, b)
    if _biclique_work(size2, size1, b, a) < work:
        table = [list(col) for col in zip(*table)]
        size1, size2, a, b, w1, w2 = size2, size1, b, a, w2, w1
        work = _biclique_work(size1, size2, a, b)
    if work > CONTRACTION_WORK_LIMIT:
        raise LimitExceeded(
            "biclique work bound %d exceeds %d (K_{%d,%d}, sizes %d and %d)"
            % (work, CONTRACTION_WORK_LIMIT, a, b, size1, size2)
        )
    kernel_scale, kernel = _scaled_matrix(table)
    scale1, points1 = _scaled_colors(w1)
    scale2, points2 = _scaled_colors(w2)
    rows = [(w, kernel[x]) for x, w in points1]
    total = 0
    for combo in combinations_with_replacement(points2, b):
        ys = [y for y, _ in combo]
        inner = sum(prod(map(row.__getitem__, ys), start=w) for w, row in rows)
        total += _multiset_permutations(ys) * prod(w for _, w in combo) * inner ** a
    return Fraction(total, scale1 ** a * scale2 ** b * kernel_scale ** (a * b))


def ominus(a_set, b, looped) -> frozenset:
    """A (-) B: remove from A the non-looped colors of B.

    B may be a color set or a color vector (treated as its set of values).
    """
    b_set = frozenset(b)
    return frozenset(a_set) - (b_set - frozenset(looped))


def cc(a_set, b_set, a: int, b: int, looped=()) -> int:
    """Semiproper colorings of K_{a,b} with side lists A and B: computed by
    the expansion sum over x in A^a of |B (-) x|^b, grouped by the multiset
    of x.  Raises LimitExceeded when the work, C(|A| + a - 1, a) * (a + |B|),
    exceeds CONTRACTION_WORK_LIMIT.

    Symmetric: cc(A, B, a, b) == cc(B, A, b, a).
    """
    a_list = sorted(a_set)
    b_frozen = frozenset(b_set)
    looped = frozenset(looped)
    if a == 0:
        return len(b_frozen) ** b
    work = comb(len(a_list) + a - 1, a) * (a + len(b_frozen))
    if work > CONTRACTION_WORK_LIMIT:
        raise LimitExceeded(
            "cc work bound %d exceeds %d (a = %d, |A| = %d, |B| = %d)"
            % (work, CONTRACTION_WORK_LIMIT, a, len(a_list), len(b_frozen))
        )
    total = 0
    for x in combinations_with_replacement(a_list, a):
        mult = _multiset_permutations(x)
        total += mult * len(b_frozen - (frozenset(x) - looped)) ** b
    return total


def semiproper_count(g: Graph, lists, looped=()) -> int:
    """Number of assignments v -> lists[v] such that no edge receives two
    equal non-looped colors.  Integer-exact, on the contraction engine.
    """
    looped = frozenset(looped)
    if len(lists) != g.n:
        raise DimensionMismatch("need one list per vertex")
    palette = sorted(set().union(*lists))
    index = {c: i for i, c in enumerate(palette)}
    choices = [[(index[c], 1) for c in sorted(l)] for l in lists]
    if not all(choices):
        return 0
    ok = [[int(x != y or x in looped) for y in palette] for x in palette]
    return contract(compile_plan(g.adjacency), choices, lambda u, v: ok)


def hom_clique(a: int, m: Model, lam=None) -> Fraction:
    """h_a(lambda) = hom with weights lambda on the complete graph K_a;
    h_0 = 1.  The sum of `clique_terms`.
    """
    denom, terms = clique_terms(a, m, lam)
    return Fraction(sum(t for _, t in terms), denom)


def clique_terms(a: int, m: Model, lam=None):
    """(denominator, terms) of h_a(lambda) grouped by color multiset.

    Every vertex of K_a carries the same weights, so a coloring's weight
    depends only on its color multiset: the terms run over the
    C(q + a - 1, a) multisets instead of the q^a colorings.  Each term is
    (counts, t): counts pairs every color of the multiset with its
    multiplicity, and t / denominator is the multiset's weight times its
    number of orderings, t an int on integer-scaled weights.  Raises
    LimitExceeded when C(q + a - 1, a) * a^2 exceeds
    CONTRACTION_WORK_LIMIT, with q the number of nonzero-weight colors.
    """
    weight_scale, colors = _scaled_colors(_side_weights(m, lam))
    q = len(colors)
    work = comb(q + a - 1, a) * a * a if a else 0
    if work > CONTRACTION_WORK_LIMIT:
        raise LimitExceeded(
            "clique work bound %d exceeds %d (K_%d, q = %d)" % (work, CONTRACTION_WORK_LIMIT, a, q)
        )
    edge_scale, ew = _scaled_matrix(m.edge_weights)
    terms = []
    for combo in combinations_with_replacement(range(q), a):
        counts = [(c, w, combo.count(i)) for i, (c, w) in enumerate(colors) if i in combo]
        t = _multiset_permutations(combo)
        for i, (c, w, k) in enumerate(counts):
            row = ew[c]
            t *= w ** k * row[c] ** (k * (k - 1) // 2)
            for d, _, j in counts[i + 1 :]:
                t *= row[d] ** (k * j)
        terms.append((tuple((c, k) for c, _, k in counts), t))
    return weight_scale ** a * edge_scale ** (a * (a - 1) // 2), terms


class EpsPolynomial:
    """hom(G, H_eps) as an exact polynomial in eps (coefficients c_0..c_d)."""

    def __init__(self, coefficients):
        self.coefficients = tuple(Fraction(c) for c in coefficients)

    def __eq__(self, other):
        return isinstance(other, EpsPolynomial) and self.coefficients == other.coefficients

    def __call__(self, eps) -> Fraction:
        eps = Fraction(eps)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * eps + c
        return acc

    def __repr__(self):
        return "EpsPolynomial(%s)" % (list(self.coefficients),)


def hom_eps_polynomial(g: Graph) -> EpsPolynomial:
    """Expand hom(G, H_eps) = 2^{-n} sum_x (1+2 eps)^{m(x)} exactly, where
    m(x) counts monochromatic edges of the 2-coloring x.

    One contraction with edge matrix [[Y, 1], [1, Y]] gives
    sum_j N_j Y^j, N_j the number of colorings with j monochromatic
    edges; since N_j <= 2^n < Y = 2^(n+1), the N_j are its base-Y digits.
    The first coefficients satisfy c_0 = 1, c_1 = |E|, c_2 = C(|E|,2),
    c_3 = C(|E|,3) + |T(G)|.
    """
    n = g.n
    y = 1 << (n + 1)
    packed = contract(compile_plan(g.adjacency), [[(0, 1), (1, 1)]] * n, lambda u, v: [[y, 1], [1, y]])
    mono_counts = []
    while packed:
        packed, count = divmod(packed, y)
        mono_counts.append(count)
    coeffs = [Fraction(0)] * len(mono_counts)
    scale = Fraction(1, 2 ** n)
    for j, count in enumerate(mono_counts):
        if not count:
            continue
        # (1 + 2 eps)^j contributes C(j, k) 2^k eps^k.
        for k in range(j + 1):
            coeffs[k] += scale * count * comb(j, k) * 2 ** k
    return EpsPolynomial(coeffs)


def eps_poly_low_coefficients(g: Graph) -> tuple:
    """The displayed low-order expansion (1, |E|, C(|E|,2), C(|E|,3)+|T|)."""
    e = len(g.edges)
    return (
        Fraction(1),
        Fraction(e),
        Fraction(comb(e, 2)),
        Fraction(comb(e, 3) + triangle_count(g)),
    )
