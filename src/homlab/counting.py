"""Exact computation of hom(G, H) and the counting quantities the
inequalities are built from: constrained homs, biclique contractions,
semiproper list-coloring counts, clique partition functions, and the
eps-polynomial of the triangle counterexample family.

Everything returns Fraction (or int for pure counts); no floats.
"""

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import compress, count, product
from math import comb, prod
from operator import add, and_, itemgetter
from typing import NamedTuple

from homlab.errors import DimensionMismatch, check_work
from homlab.graphs import Graph, _component
from homlab.models import Model
from homlab.ratmath import scaled_colors, scaled_matrix


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


def hom(g: Graph, m: Model, constraints=None, memo=None) -> Fraction:
    """Weighted homomorphism count: sum over all maps V -> colors of the
    product of edge weights times per-vertex weight * constraint.

    hom is multiplicative over connected components, so each component
    (an isolated vertex is one) is contracted on its own and the results
    are multiplied.  A contraction is a frontier DP (bucket elimination)
    over the component's cached `Plan`: vertices are placed in the plan's
    order, and a table maps the colors of the placed vertices that still
    have unplaced neighbors, packed into one int key, to the summed weight
    of all partial maps that agree with them (see `compile_plan` for the
    order and `_step_kernel` for the key).  Every edge shares the model's
    one int edge matrix.
    Zero-weight colors are pruned first.  The model holds its weights as
    ints over a common scale (`Model.integer_edges` and `integer_colors`),
    constrained weights are scaled per call, and the scales are divided
    out once, at the end.

    `memo` is an optional dict owned by the caller, one per model: the
    scaled count of each component is looked up in it by the component's
    adjacency (`_components`) before it is contracted, and stored in it
    after.  It is read only without constraints, as a component's count
    then depends on its adjacency alone; with no memo a local one still
    merges the repeated components of g.
    Raises LimitExceeded, before any contraction, when the components'
    summed plan work bound (`_graph_parts`) exceeds WORK_LIMIT.
    """
    constraints = _check_constraints(constraints, g.n, m.q)
    if constraints is None:
        return _hom_parts(g, m, False, memo)
    scaled = [scaled_colors([w * x for w, x in zip(m.vertex_weights, lam)]) for lam in constraints]
    choices = [colors for _, colors in scaled]
    if not all(choices):
        return Fraction(0)
    q = max(map(len, choices), default=0)
    parts = _graph_parts(g.adjacency, False)
    check_work("contraction", parts.work(q), "n = %d, q = %d", g.n, q)
    edge_scale, ew = m.integer_edges
    total, bits = 1, key_bits(m.q)
    for _, vertices, _, plan in parts.parts:
        total *= _contract(plan, [choices[v] for v in vertices], ew, bits)
        if not total:
            break
    return Fraction(total, prod(scale for scale, _ in scaled) * edge_scale ** g.edge_count)


def hom_double_cover(g: Graph, m: Model, memo=None) -> Fraction:
    """hom(G x K_2, m), built from G's components without the cover graph.

    The cover of a connected bipartite C is two copies of C, so C gives
    hom(C)^2 (the identity behind the swapping bound); the cover of any
    other connected C is connected and is contracted as one component.
    `memo` is hom's component memo for this model, shared with hom(g, m),
    and holds hom(C) under C's key and each connected cover's count under
    its own.  The work bound is the cover graph's, checked first; only the
    cover's component plans are contracted, since C's own plan may cost
    more than either copy's above EXACT_ORDER_MAX_VERTICES.
    """
    return _hom_parts(g, m, True, memo)


def _hom_parts(g: Graph, m: Model, cover: bool, memo) -> Fraction:
    """Unconstrained hom(g, m), or with cover hom(g x K_2, m): the product
    of each `_graph_parts` entry's count, memoized by its key, to its power."""
    scale, colors = m.integer_colors
    if g.n and not colors:
        return Fraction(0)
    n, edges = (2 * g.n, 2 * g.edge_count) if cover else (g.n, g.edge_count)
    parts = _graph_parts(g.adjacency, cover)
    check_work("contraction", parts.work(len(colors)), "n = %d, q = %d", n, len(colors))
    edge_scale, ew = m.integer_edges
    memo = {} if memo is None else memo
    total, bits = 1, key_bits(m.q)
    for key, vertices, power, plan in parts.parts:
        value = memo.get(key)
        if value is None:
            value = memo[key] = _contract(plan, [colors] * len(vertices), ew, bits)
        total *= value ** power
        if not total:
            break
    return Fraction(total, scale ** n * edge_scale ** edges)


def compile_plans(adjacencies, qs, cover: bool = False):
    """Compile the plan of each component that `hom` contracts for these
    graphs, and with cover the parts that `hom_double_cover` contracts,
    with the step kernels of each plan for models of q colors, q in qs, and
    the graphs' `_graph_parts` with their work bounds for these q; none if
    they outnumber their cache, which would evict the first."""
    keys = {key for adjacency in adjacencies for _, key in _components(adjacency)}
    keys |= {part for key in keys for part in _cover_parts(key)} if cover else set()
    widths, kinds = {key_bits(q) for q in qs}, {False, cover}
    room = compile_plan.cache_parameters()["maxsize"]  # the parts cache's size too
    for key in keys if len(keys) <= room else ():
        plan = compile_plan(key)
        for bits in widths:
            plan.kernels(bits)
    for adjacency in adjacencies if len(keys) <= room and len(adjacencies) * len(kinds) <= room else ():
        for kind, q in product(kinds, qs):
            _graph_parts(adjacency, kind).work(q)


class _Parts(NamedTuple):
    parts: tuple  # (memo key, vertices, power, plan) per part (`_graph_parts`)
    plans: tuple  # every plan whose work the bound sums
    works: dict  # q -> the plans' summed work(q)

    def work(self, q: int) -> int:
        if q not in self.works:
            self.works[q] = sum(plan.work(q) for plan in self.plans)
        return self.works[q]


@lru_cache(maxsize=1024)
def _graph_parts(adjacency: tuple, cover: bool) -> _Parts:
    """What `hom`, or with cover `hom_double_cover`, contracts for a graph,
    and the summed work(q) of every component's, or cover component's, plan.
    A component (`_components`) is (its key, its vertices, 1, its plan).  In
    the cover a bipartite C is (C's key, range(|C|), 2, its first cover
    copy's plan), any other C (its cover's key, range(2|C|), 1, the cover's
    plan).  Cached like `_components`."""
    parts, plans = [], []
    for vertices, key in _components(adjacency):
        halves = _cover_parts(key) if cover else (key,)
        plans += map(compile_plan, halves)
        if cover:
            key, vertices = key if len(halves) == 2 else halves[0], range(len(halves[0]))
        parts.append((key, vertices, len(halves), plans[-len(halves)]))
    return _Parts(tuple(parts), tuple(plans), {})


@lru_cache(maxsize=1024)
def _components(adjacency: tuple) -> tuple:
    """(vertices, key) of each connected component, an isolated vertex
    included, in order of its lowest vertex: vertices lists it in
    increasing order, and key is its adjacency relabelled in that order.
    Cached like `compile_plan`, by adjacency."""
    out = []
    left = (1 << len(adjacency)) - 1
    while left:
        component = _component(adjacency, (left & -left).bit_length() - 1)
        left &= ~component
        vertices = _bits(component)
        low = vertices[0]
        if vertices[-1] - low < len(vertices):  # consecutive: a shift relabels
            key = tuple(adjacency[v] >> low for v in vertices)
        else:
            index = {v: i for i, v in enumerate(vertices)}
            key = tuple(sum(1 << index[u] for u in _bits(adjacency[v])) for v in vertices)
        out.append((tuple(vertices), key))
    return tuple(out)


@lru_cache(maxsize=1024)
def _cover_parts(key: tuple) -> tuple:
    """The component keys of C x K_2 for the connected graph C with
    adjacency key: two if C is bipartite, else the cover itself.  Vertex
    (v, i) of the cover is v + i*k, as in graphs.tensor_with_k2."""
    k = len(key)
    return tuple(part for _, part in _components(tuple(r << k for r in key) + key))


# ---------------------------------------------------------------------------
# The contraction engine of hom, semiproper_count, the graphical Brascamp-Lieb
# sum and the eps-polynomial, on one int edge matrix shared by every edge.


class Step(NamedTuple):
    vertex: int
    back: tuple  # the frontier position of each placed neighbor
    keep: tuple | None  # the frontier positions that stay; None if all do
    kept: bool  # whether the new vertex joins the frontier


class Plan(NamedTuple):
    steps: tuple
    widths: tuple  # frontier width before each step
    runs: dict  # key bits -> the kernel of each step (`kernels`)

    def work(self, q: int) -> int:
        return sum(q ** (w + 1) for w in self.widths)

    def kernels(self, bits: int) -> tuple:
        """The loop of each step on frontier keys of `bits` bits per
        position (`_step_kernel`), looked up once per plan and width."""
        runs = self.runs.get(bits)
        if runs is None:
            shapes = zip(self.steps, self.widths)
            runs = self.runs[bits] = tuple(_step_kernel(s.back, s.keep, s.kept, w, bits) for s, w in shapes)
        return runs


def _projector(picks):
    # The items at picks, as a tuple: itemgetter returns a bare item for one.
    return itemgetter(*picks) if len(picks) > 1 else lambda items: (items[picks[0]],)


def key_bits(q: int) -> int:
    """The bits a frontier key gives each position for colors 0..q-1."""
    return (q - 1).bit_length() or 1


# A step with more placed neighbours or runs of kept positions than this
# reads their shifts from lists, so every kernel's source stays bounded: at
# q = 1 a frontier may hold thousands of vertices.
WIDE_STEP = 16


@lru_cache(maxsize=1024)
def _step_kernel(positions: tuple, keep, kept: bool, width: int, bits: int):
    """`step(table, colors, m) -> table`, the contraction step of this
    shape on packed frontier keys and the edge matrix m, built from ints
    and exec'd once, as namedtuple builds its methods.  Frontier position i
    of a key holds its color in bits [bits*i, bits*(i+1)); positions are
    the frontier positions of the placed neighbours, width the frontier
    width before the step, and keep and kept as in `Step`.  The loop reads
    a neighbour's color as `key >> s & mask`, packs the kept positions
    with one shift and mask per run of consecutive positions, and places
    the new vertex as `p | c << s`; a step that drops no position writes
    each new key once, with no get-and-add."""
    mask = (1 << bits) - 1

    def read(i):  # the color at frontier position i; the top one needs no mask
        shifted = "key >> %d" % (bits * i) if i else "key"
        return shifted if i == width - 1 else "%s & %d" % (shifted, mask)

    runs = []  # (shift, mask) of each run of kept positions; no mask on a lone top run
    for j, i in enumerate(keep or ()):
        if runs and keep[j - 1] == i - 1:
            runs[-1][1] += 1
        else:
            runs.append([i, 1, j])
    runs = [(bits * (i - j), None if i + n == width and not j else ((1 << bits * n) - 1) << bits * j) for i, n, j in runs]
    if len(positions) > WIDE_STEP:
        rows = ["rows = [m[key >> s & %d] for s in shifts]" % mask]
        weight = ["    for r in rows:", "        w = w * r[c]"]
    else:
        rows = ["r%d = m[%s]" % (j, read(i)) for j, i in enumerate(positions)]
        weight = ["    w = w * " + " * ".join("r%d[c]" % j for j in range(len(positions)))] if positions else []
    if not keep:  # all positions stay, or none
        pack, base = [], "key" if keep is None else "0"
    elif len(runs) > WIDE_STEP:
        pack, base = ["p = 0", "for d, b in packs:", "    p |= key >> d & b"], "p"
    else:
        terms = [("key >> %d" % d if d else "key") + ("" if m is None else " & %d" % m) for d, m in runs]
        pack, base = ["p = " + " | ".join(terms)], "p"
    shift = bits * (width if keep is None else len(keep))
    put = "new[k] = val * %s" if keep is None else "new[k] = get(k, 0) + val * %s"
    if kept:  # each color makes its own key
        k = "%s | c << %d" % (base, shift) if shift else "c"
        body = [*pack, "for c, w in colors:", *weight, "    if w:", "        k = " + k, "        " + put % "w"]
    else:  # every color lands on one key
        body = ["s = 0", "for c, w in colors:", *weight, "    s += w", "if s:", *["    " + line for line in pack], "    k = " + base, "    " + put % "s"]
    lines = ["def step(table, colors, m):", "    new = {}"] + ["    get = new.get"] * (keep is not None)
    lines += ["    for key, val in table.items():"] + ["        " + line for line in rows + body]
    lines += ["    return new"]
    namespace = {"shifts": positions if bits == 1 else [bits * i for i in positions], "packs": [(d, -1 if m is None else m) for d, m in runs]}
    exec("\n".join(lines), namespace)
    return namespace["step"]


# Components of at most this many vertices get the exact least-work order.
# Measured per connected graph (2 vCPUs, CPython 3.11): the subset DP takes
# 0.04, 0.07, 0.11, 0.21, 0.40 and 0.78 ms at n = 5..10 and 2.6 ms at
# n = 12, the greedy order about 0.05 ms.  One contraction at q = 4 then
# saves 0.9, 2.0 and 6.1 ms at n = 8, 9 and 10, so the DP pays for itself
# with one model; at q = 2 it saves 0.02-0.09 ms, so a cold scan of the
# 8-vertex graphs with one q = 2 model runs 2-6% slower.  At n = 12 the
# DP makes a cold bst scan of the n <= 6 double covers 0.35 s slower.
EXACT_ORDER_MAX_VERTICES = 10


@lru_cache(maxsize=1024)
def compile_plan(adjacency: tuple) -> Plan:
    """Vertex order and frontier bookkeeping for a graph given by its
    neighbor bitsets.

    The vertices with no neighbours come first, in one pass.  Then each
    connected component is ordered on its own, in order of its lowest
    vertex, on its adjacency relabelled in increasing vertex order (its
    `_components` key): a step's frontier width is the sum of the
    components' widths, so joining each component's least-work order
    gives the least work for the whole graph, and the graph's work bound
    is the sum of its component plans' bounds.  A component of at most EXACT_ORDER_MAX_VERTICES
    vertices gets the order of least work sum 4^(w+1) from a DP over its
    placed sets (`_least_work_order`); a larger one gets the greedy
    min-frontier order (`_greedy_order`).  Cached because a scan meets
    each graph with many models; keyed by the adjacency tuple, not the
    Graph, so an entry keeps no graph alive.  Building the steps scans
    the frontier once per step, about n^2 steps, which every Graph bounds
    by WORK_LIMIT.  The step kernels are looked up on first
    use, per key bit width (`Plan.kernels`).
    """
    order = [v for v in range(len(adjacency)) if not adjacency[v]]
    for vertices, rows in _components(adjacency):
        if len(vertices) > EXACT_ORDER_MAX_VERTICES:
            order += [vertices[i] for i in _greedy_order(rows)]
        elif len(vertices) > 1:
            order += [vertices[i] for i in _least_work_order(rows)]
    return _plan(adjacency, order)


_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> list:
    """The indices of the set bits of mask, lowest first, picked from its
    binary digits at C speed (one big-int op per bit would cost a K1000
    row 6x more)."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)))


@lru_cache(maxsize=None)
def _lattice(k: int):
    """The subsets of k vertices, largest first: `position` numbers them in
    that order, and each size below k has a layer (masks, columns): masks
    picks the layer's sets out of a list by mask, and column j picks the
    j-th one-larger superset of each of them out of a list by position."""
    order = sorted(range(1 << k), key=lambda s: (-s.bit_count(), s))
    position = [0] * (1 << k)
    for i, s in enumerate(order):
        position[s] = i
    layers = []
    for size in range(k - 1, -1, -1):
        masks = [s for s in order if s.bit_count() == size]
        larger = [[position[s | 1 << v] for v in range(k) if not s >> v & 1] for s in masks]
        layers.append((_projector(masks), [_projector(column) for column in zip(*larger)]))
    return position, layers


def _least_work_order(rows) -> list:
    """The order of the k vertices of a connected graph with neighbor
    bitsets `rows` whose work sum 4^(w+1) is least, w the frontier width
    before each step.  A step's cost depends only on the placed set s
    (w is the number of vertices of s with a neighbour outside s), so the
    least cost to finish from s is a DP over the 2^k subsets, one size at
    a time (the subset lattice DP for vertex ordering problems:
    Bodlaender, Fomin, Koster, Kratsch and Thilikos, Theory Comput.
    Syst. 50, 2012).  Ties go to the lowest index, step by step."""
    k = len(rows)
    full = (1 << k) - 1
    reach = [0]  # reach[x]: the neighbours of the vertex set x
    for row in rows:
        reach += [x | row for x in reach]
    widths = map(int.bit_count, map(and_, range(full + 1), reversed(reach)))
    cost = [4 << 2 * w for w in widths]
    position, layers = _lattice(k)
    rest = [0]  # least cost to place the rest, by position; the full set is first
    for masks, columns in layers:
        best = columns[0](rest)
        for column in columns[1:]:
            best = [x if x < y else y for x, y in zip(best, column(rest))]
        rest += map(add, masks(cost), best)
    order = []
    s = 0
    while s != full:
        want = rest[position[s]] - cost[s]
        v = next(v for v in range(k) if not s >> v & 1 and rest[position[s | 1 << v]] == want)
        order.append(v)
        s |= 1 << v
    return order


def _greedy_order(adjacency: tuple) -> list:
    """Min-frontier order of a connected graph: each step places
    the unplaced vertex that leaves the smallest frontier, ties to the
    lowest index.  Placing v leaves |frontier| + (open[v] > 0) - closes[v]
    vertices, with open[v] the count of v's unplaced neighbours and
    closes[v] the count of frontier vertices whose one unplaced neighbour
    is v.  Both change only near the placed vertex, so the scores live in
    a heap that gets a fresh entry per change (stale ones are skipped),
    and the search takes about m + n log n steps."""
    n = len(adjacency)
    open_ = [row.bit_count() for row in adjacency]
    closes = [0] * n
    score = lambda v: (open_[v] > 0) - closes[v]
    heap = [(score(v), v) for v in range(n)]
    heapify(heap)
    order = []
    placed = set()
    mask = 0  # placed, as a bitset
    while heap:
        s, v = heappop(heap)
        if v in placed or s != score(v):
            continue
        order.append(v)
        placed.add(v)
        mask |= 1 << v
        # v's neighbours lose an unplaced neighbour; v itself may now be
        # waiting on just one.
        for u in _bits(adjacency[v]) + [v]:
            if u != v:
                open_[u] -= 1
            if u not in placed:
                if not open_[u]:
                    heappush(heap, (score(u), u))
            elif open_[u] == 1:  # u now closes with its last neighbour
                last = (adjacency[u] & ~mask).bit_length() - 1
                closes[last] += 1
                heappush(heap, (score(last), last))
    return order


def _plan(adjacency: tuple, order: list) -> Plan:
    placed = 0
    frontier = []
    steps = []
    widths = []
    for v in order:
        placed |= 1 << v
        unplaced = ~placed
        back = tuple(i for i, u in enumerate(frontier) if adjacency[v] >> u & 1)
        keep = tuple(i for i, u in enumerate(frontier) if adjacency[u] & unplaced)
        kept = bool(adjacency[v] & unplaced)
        widths.append(len(frontier))
        frontier = [frontier[i] for i in keep] + ([v] if kept else [])
        keep = None if len(keep) == widths[-1] else keep
        steps.append(Step(v, back, keep, kept))
    return Plan(tuple(steps), tuple(widths), {})


def contract(plan: Plan, choices, edge_matrix) -> int:
    """Sum over all maps v -> colors in choices[v] of the product of the
    color weights and, for every edge, E[color u][color v] (u placed
    before v), where E is edge_matrix, one int matrix shared by every edge.
    Weights are integers.  Raises LimitExceeded first when the plan's work
    bound exceeds WORK_LIMIT.
    """
    q = max(map(len, choices), default=0)
    check_work("contraction", plan.work(q), "n = %d, q = %d", len(plan.steps), q)
    top = max((c for colors in choices for c, _ in colors), default=0)
    return _contract(plan, choices, edge_matrix, key_bits(top + 1))


def _contract(plan: Plan, choices, edge_matrix, bits: int) -> int:
    """`contract` without its work check, for a caller that has checked a
    bound covering the plan (hom sums its components' bounds), on keys of
    `bits` bits per position, enough for every color of choices.  The
    table maps each packed frontier key to the summed weight of the
    partial maps that agree with it; the empty frontier's key is 0."""
    table = {0: 1}
    for (v, _, _, _), run in zip(plan.steps, plan.kernels(bits)):
        table = run(table, choices[v], edge_matrix)
    return table.get(0, 0)


def hom_biclique(a: int, b: int, m: Model, side_constraints=None) -> Fraction:
    """hom(K_{a,b}, m): `biclique_kernel_sum` of the model's int view.

    `side_constraints` is an optional (lambda_a, lambda_b) pair applied to
    every vertex of the respective side.  The kernel is `Model.integer_edges`
    and the weights `integer_colors` (times the constraints), so their
    scales, edge_scale^(ab) * color_scale^(a+b), are divided out once here.
    """
    lam_a, lam_b = (None, None) if side_constraints is None else side_constraints
    edge_scale, ew = m.integer_edges
    color_scale, colors = m.integer_colors
    weights = [0] * m.q
    for c, w in colors:
        weights[c] = w
    w1, w2 = _side_weights(weights, lam_a), _side_weights(weights, lam_b)
    return biclique_kernel_sum(lambda x, y: ew[x][y], m.q, m.q, a, b, w1, w2) / (edge_scale ** (a * b) * color_scale ** (a + b))


def _side_weights(weights, lam) -> list:
    """The per-color weights times a side constraint, if one is given."""
    if lam is None:
        return list(weights)
    if len(lam) != len(weights):
        raise DimensionMismatch("side constraint length != q")
    return [w * Fraction(x) for w, x in zip(weights, lam)]


def multiset_count(n: int, k: int) -> int:
    """C(n + k - 1, k): how many multisets of k out of n points there are."""
    return comb(n + k - 1, k) if n or k else 1


def multisets(points, k: int):
    """Each multiset of k of the points in combinations_with_replacement order,
    as (((point, multiplicity), ...), k! / prod multiplicity!) without zero
    multiplicities.  The next multiset moves one copy off the last point below
    the final one, and every copy of the final point, onto the point after it,
    so the coefficient is carried by one product and one exact division."""
    points = tuple(points)
    if not k:
        yield (), 1
    if not (k and points):
        return
    index, chosen, coef = [0], [(points[0], k)], 1
    while True:
        yield tuple(chosen), coef
        moved = 0
        if index[-1] == len(points) - 1:
            index.pop()
            moved = chosen.pop()[1]
            if not index:
                return
        j = index.pop()
        point, m = chosen.pop()
        coef = coef * m // (moved + 1)
        if m > 1:
            index.append(j)
            chosen.append((point, m - 1))
        index.append(j + 1)
        chosen.append((points[j + 1], moved + 1))


def biclique_kernel_sum(f, size1: int, size2: int, a: int, b: int, w1=None, w2=None) -> Fraction:
    """K_{a,b} pattern sum of a kernel f(x, y): sum over x in [size1]^a,
    y in [size2]^b of prod f(x_i, y_j), with optional per-point measures.

    Contracted over the cheaper side: the other side's points are summed
    as multisets with multinomial weight, and each multiset's a-side sum
    is raised to the power a.  Kernel entries and measures are ints or
    Fractions.  The kernel is tabulated once and scaled to integers by the
    lcm of its denominators, the measures likewise (with zero-weight
    points dropped), each entry read through as_integer_ratio(), so the
    loop is pure big-int arithmetic and the exact scale is divided back
    out once.  Raises LimitExceeded when the work,
    multiset_count(size2, b) * size1 * b on the contracted side, exceeds
    WORK_LIMIT.
    """
    w1 = [1] * size1 if w1 is None else w1
    w2 = [1] * size2 if w2 is None else w2
    table = [[f(x, y) for y in range(size2)] for x in range(size1)]
    # Multisets of the b points on side 2, times an a-side row product each.
    work, flipped = multiset_count(size2, b) * size1 * b, multiset_count(size1, a) * size2 * a
    if flipped < work:
        table = [list(col) for col in zip(*table)]
        size1, size2, a, b, w1, w2, work = size2, size1, b, a, w2, w1, flipped
    check_work("biclique", work, "K_{%d,%d}, sizes %d and %d", a, b, size1, size2)
    kernel_scale, kernel = scaled_matrix(table)
    scale1, points1 = scaled_colors(w1)
    scale2, points2 = scaled_colors(w2)
    rows = [(w, kernel[x]) for x, w in points1]
    total = 0
    for combo, mult in multisets(points2, b):
        inner = sum(prod([row[y] ** m for (y, _), m in combo], start=w) for w, row in rows)
        total += mult * prod([w ** m for (_, w), m in combo]) * inner ** a
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
    of x.  Raises LimitExceeded when the work,
    multiset_count(|A|, a) * (a + |B|), exceeds WORK_LIMIT.

    Symmetric: cc(A, B, a, b) == cc(B, A, b, a).
    """
    a_list = sorted(a_set)
    b_frozen = frozenset(b_set)
    looped = frozenset(looped)
    check_work("cc", multiset_count(len(a_list), a) * (a + len(b_frozen)), "a = %d, |A| = %d, |B| = %d", a, len(a_list), len(b_frozen))
    return sum(mult * len(b_frozen - (frozenset(c for c, _ in x) - looped)) ** b for x, mult in multisets(a_list, a))


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
    return contract(compile_plan(g.adjacency), choices, ok)


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
    multiset_count(q, a) multisets instead of the q^a colorings.  Each term
    is (counts, t): counts pairs every color of the multiset with its
    multiplicity, and t / denominator is the multiset's weight times its
    number of orderings, t an int on integer-scaled weights.  Raises
    LimitExceeded when multiset_count(q, a) * a^2 exceeds
    WORK_LIMIT, with q the number of nonzero-weight colors.
    """
    weight_scale, colors = m.integer_colors if lam is None else scaled_colors(_side_weights(m.vertex_weights, lam))
    check_work("clique", multiset_count(len(colors), a) * a * a, "K_%d, q = %d", a, len(colors))
    edge_scale, ew = m.integer_edges
    terms = []
    for counts, t in multisets(colors, a):
        for i, ((c, w), k) in enumerate(counts):
            row = ew[c]
            t *= w ** k * row[c] ** (k * (k - 1) // 2)
            for (d, _), j in counts[i + 1 :]:
                t *= row[d] ** (k * j)
        terms.append((tuple((c, k) for (c, _), k in counts), t))
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
    packed = contract(compile_plan(g.adjacency), [[(0, 1), (1, 1)]] * n, [[y, 1], [1, y]])
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

