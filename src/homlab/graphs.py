"""Graph representation, named constructions, transformations, and
small-graph enumeration with exact isomorphism dedup.

Vertices are 0..n-1.  A graph is its vertex count and one neighbour bitset
per vertex, without loops; it is immutable after construction, so
instances are safely shareable.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from homlab.errors import InvalidSpec, LimitExceeded

ENUMERATION_VERTEX_LIMIT = 8

# Bound on a contraction plan's work, the sum over its steps of
# q^(frontier width + 1) with q the most colors allowed at any vertex: the
# table entries the DP may touch, and so its time and memory.  K10 at q = 4
# (work 1.4e6) takes 1.4 s and 67 MB on a 2-vCPU VM with CPython 3.11; the
# test suite and the benchmark stay below 6e3.  A plan orders each
# connected component by an exact subset DP over its placed sets when it
# has at most counting.EXACT_ORDER_MAX_VERTICES = 10 vertices (0.8 ms at
# n = 10) and by the greedy min-frontier search, about m + n log n steps,
# above that; building the plan's steps scans the frontier once per step,
# about n^2 steps, so a Graph bounds n^2 by this limit too.
CONTRACTION_WORK_LIMIT = 10 ** 7


@dataclass(frozen=True)
class Graph:
    """n vertices 0..n-1 and their neighbour bitsets: bit v of adjacency[u]
    is set iff uv is an edge.  Graph(n, rows) takes rows as they are, from
    code that built them valid (a tuple, symmetric, no loops, no bit at or
    above n), and checks only n; from_edges is the checked constructor for
    pairs from outside.  Either way n is checked before any row is read or
    built, so a graph too large to plan fails."""

    n: int
    adjacency: tuple[int, ...]

    def __post_init__(self):
        _check_vertex_count(self.n)

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        """The graph on n vertices with edges given as any iterable of
        vertex pairs, in either order and with repeats."""
        _check_vertex_count(n)
        adj = [0] * n
        for u, v in pairs:
            if u == v:
                raise InvalidSpec("self-loop at %d" % u)
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidSpec("edge endpoint out of range: (%d, %d)" % (min(u, v), max(u, v)))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    @cached_property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adjacency) // 2

    @cached_property
    def _sorted_edges(self) -> tuple[tuple[int, int], ...]:
        # Built once, on first use, by walking each row's bits above u;
        # cached_property writes the instance's __dict__ directly, which a
        # frozen dataclass allows.
        edges = []
        for u, row in enumerate(self.adjacency):
            row >>= u + 1
            while row:
                low = row & -row
                edges.append((u, u + low.bit_length()))
                row ^= low
        return tuple(edges)

    def edge_list(self) -> list[tuple[int, int]]:
        return list(self._sorted_edges)

    @cached_property
    def edge_text(self) -> str:
        """str(self.edge_list()), formatted once: the G=... of reports."""
        return str(self.edge_list())

    @cached_property
    def degree_pairs(self) -> tuple:
        """((d_v, d_u), edges) pairs: the edges (u, v), u < v, grouped by
        their degrees, in order of first appearance in edge_list()."""
        degs = self.degrees()
        groups = {}
        for u, v in self._sorted_edges:
            groups.setdefault((degs[v], degs[u]), []).append((u, v))
        return tuple((key, tuple(edges)) for key, edges in groups.items())

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adjacency)

    def __repr__(self):
        return "Graph(n=%d, edges=%s)" % (self.n, self.edge_list())


def _check_vertex_count(n):
    if type(n) is not int or n < 0:
        raise InvalidSpec("vertex count must be a nonnegative int, not %r" % (n,))
    if n * n > CONTRACTION_WORK_LIMIT:
        raise LimitExceeded("plan search bound %d exceeds %d (n = %d)" % (n * n, CONTRACTION_WORK_LIMIT, n))


@dataclass(frozen=True)
class GraphFamilySpec:
    kind: str  # complete | biclique | cycle | path | star | petersen
    params: tuple[int, ...] = ()


def build_named(spec: GraphFamilySpec) -> Graph:
    """Construct a named graph with its canonical vertex numbering.

    Bicliques put part A first; stars are K_{1,k} with the center at 0.
    """
    kind, params = spec.kind, spec.params
    if kind == "complete":
        (n,) = params
        _require(n >= 1, "complete graph needs n >= 1")
        return Graph.from_edges(n, combinations(range(n), 2))
    if kind == "biclique":
        a, b = params
        _require(a >= 1 and b >= 1, "biclique parts must be nonempty")
        return Graph.from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))
    if kind == "cycle":
        (n,) = params
        _require(n >= 3, "cycle needs n >= 3")
        return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))
    if kind == "path":
        (n,) = params
        _require(n >= 1, "path needs n >= 1")
        return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))
    if kind == "star":
        (k,) = params
        _require(k >= 1, "star needs >= 1 leaf")
        return Graph.from_edges(k + 1, ((0, 1 + j) for j in range(k)))
    if kind == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        return Graph.from_edges(10, outer + inner + spokes)
    raise InvalidSpec("unknown graph kind %r" % kind)


def _require(cond: bool, message: str):
    if not cond:
        raise InvalidSpec(message)


def parse_graph_name(name: str) -> Graph:
    """Parse CLI syntax like "K5", "K3,3", "C6", "P4", "S3", "petersen"."""
    name = name.strip()
    low = name.lower()
    if low == "petersen":
        return build_named(GraphFamilySpec("petersen"))
    head, rest = name[:1].upper(), name[1:]
    try:
        if head == "K" and "," in rest:
            a, b = (int(t) for t in rest.split(","))
            return build_named(GraphFamilySpec("biclique", (a, b)))
        if head == "K":
            return build_named(GraphFamilySpec("complete", (int(rest),)))
        if head == "C":
            return build_named(GraphFamilySpec("cycle", (int(rest),)))
        if head == "P":
            return build_named(GraphFamilySpec("path", (int(rest),)))
        if head == "S":
            return build_named(GraphFamilySpec("star", (int(rest),)))
    except ValueError:
        pass
    raise InvalidSpec("cannot parse graph name %r" % name)


def tensor_with_k2(g: Graph) -> Graph:
    """Bipartite double cover G x K_2.

    Vertex (v, i) maps to index v + i*n; (v,i) ~ (u,1-i) for uv in E(G).
    """
    rows = g.adjacency
    return Graph(2 * g.n, tuple(r << g.n for r in rows) + rows)


def add_apexes(g: Graph, count: int) -> Graph:
    """G with `count` (1 or 2) new vertices joined to all original vertices.

    The apexes come last and are not adjacent to each other.
    """
    if count not in (1, 2):
        raise InvalidSpec("apex count must be 1 or 2")
    apexes = ((1 << count) - 1) << g.n
    return Graph(g.n + count, tuple(r | apexes for r in g.adjacency) + ((1 << g.n) - 1,) * count)


def triangle_count(g: Graph) -> int:
    rows = g.adjacency
    return sum((rows[u] & rows[v]).bit_count() for u, v in g.edge_list()) // 3


def _has_triangle(rows) -> bool:
    """Whether some edge uv of the graph with neighbor bitsets `rows` has
    a common neighbor of u and v."""
    n = len(rows)
    return any(rows[u] >> v & 1 and rows[u] & rows[v] for u in range(n) for v in range(u + 1, n))


def _connected(rows) -> bool:
    return not rows or _component(rows, 0) == (1 << len(rows)) - 1


def _component(rows, start: int) -> int:
    """Bitset of the vertices reachable from `start` in the graph with
    per-vertex neighbor bitsets `rows`, by a breadth-first flood fill."""
    seen = frontier = 1 << start
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen


# ---------------------------------------------------------------------------
# Bitmask representation for enumeration: bit k of the mask is edge k in the
# lexicographic ordering (0,1),(0,2),...,(0,n-1),(1,2),...,(n-2,n-1).


def _rows_to_mask(rows) -> int:
    """Edge mask of the graph with per-vertex neighbor bitsets `rows`."""
    n = len(rows)
    mask = 0
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            mask |= (rows[u] >> v & 1) << k
            k += 1
    return mask


def graph_to_mask(g: Graph) -> int:
    return _rows_to_mask(g.adjacency)


def _mask_rows(n: int, mask: int) -> tuple[int, ...]:
    """Adjacency as per-vertex neighbor bitsets, from an edge mask."""
    rows = [0] * n
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if mask >> k & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            k += 1
    return tuple(rows)


def _is_canonical(rows) -> bool:
    """True iff no vertex relabeling of the graph with neighbor bitsets
    `rows` has a smaller column-major adjacency bitstring than the identity.

    The string reads the upper triangle column by column: placing vertex w
    at position d contributes the bits (order[0], w), ..., (order[d-1], w).
    Only prefixes that tie the identity's string are followed.  At depth d
    the candidates that still tie form the bitset `agree`: where the
    identity has edge (i, d), a candidate not adjacent to order[i] makes a
    smaller string, so the graph is not canonical; where it has none, a
    candidate adjacent to order[i] makes a larger one and is dropped.
    """
    n = len(rows)
    order = [0] * n

    def rec(d: int, unplaced: int) -> bool:
        if d == n:
            return True
        agree = unplaced
        column = rows[d]
        for i in range(d):
            r = rows[order[i]]
            if column >> i & 1:
                if agree & ~r:
                    return False
            else:
                agree &= ~r
                if not agree:
                    return True
        while agree:
            low = agree & -agree
            order[d] = low.bit_length() - 1
            if not rec(d + 1, unplaced ^ low):
                return False
            agree ^= low
        return True

    return rec(0, (1 << n) - 1)


def enumerate_graphs(
    n: int,
    connected: bool = False,
    no_isolated: bool = False,
    triangle_free: bool = False,
    dedup_isomorphism: bool = False,
):
    """Yield graphs on n labeled vertices passing the filters.

    With dedup, yields exactly one representative per isomorphism class:
    the labeling with the least column-major adjacency string.  Deduped
    sweeps are cached per (n, filters), so repeated scans pay the
    generation once per process.
    """
    if n > ENUMERATION_VERTEX_LIMIT:
        raise LimitExceeded("enumeration limited to n <= %d" % ENUMERATION_VERTEX_LIMIT)
    if dedup_isomorphism:
        for rows in _dedup_rows(n, connected, no_isolated, triangle_free):
            yield Graph(n, rows)
        return
    for mask in _filtered_masks(n, connected, no_isolated, triangle_free):
        yield Graph(n, _mask_rows(n, mask))


def _filtered_masks(n: int, connected: bool, no_isolated: bool, triangle_free: bool):
    m = n * (n - 1) // 2
    for mask in range(1 << m):
        rows = _mask_rows(n, mask)
        if no_isolated and 0 in rows:
            continue
        if triangle_free and _has_triangle(rows):
            continue
        if connected and not _connected(rows):
            continue
        yield mask


@lru_cache(maxsize=64)
def _dedup_rows(n: int, connected: bool, no_isolated: bool, triangle_free: bool) -> tuple[tuple[int, ...], ...]:
    """Neighbor bitsets of the canonical graphs on n vertices passing the
    filters, in increasing order of edge mask: level n of the orderly
    generation (`_level`), with the filters that induced subgraphs do not
    inherit, connectivity and isolated vertices, applied to that level only."""
    keep = [rows for rows in _level(n, triangle_free) if not (no_isolated and 0 in rows) and (not connected or _connected(rows))]
    return tuple(sorted(keep, key=_rows_to_mask))


@lru_cache(maxsize=None)
def _level(k: int, triangle_free: bool) -> tuple[tuple[int, ...], ...]:
    """Neighbor bitsets of every canonical graph on k vertices, triangle-free
    ones only if asked, by orderly generation (Read 1978; McKay 1998).

    The column-major string of a graph puts vertex j's bits after the first
    C(j,2), which are the string of vertices 0..j-1.  So a canonical graph's
    restriction to its first k - 1 vertices is canonical: a smaller
    relabeling of that prefix would give a smaller full string.  Level k is
    therefore built by giving each graph of level k - 1 a last vertex with
    every neighbor set, keeping the extensions that pass the full
    canonicity test.  Triangle-freeness is inherited by induced subgraphs,
    so a neighbor set spanning an edge is skipped at once.  Each level is
    built once per process and shared by every n and filter above it.
    """
    if k == 0:
        return ((),)
    grown = []
    for rows in _level(k - 1, triangle_free):
        for s in range(1 << (k - 1)):  # neighbors of the new vertex k - 1
            if triangle_free and any(s >> u & 1 and rows[u] & s for u in range(k - 1)):
                continue
            ext = tuple(r | (s >> u & 1) << (k - 1) for u, r in enumerate(rows)) + (s,)
            if _is_canonical(ext):
                grown.append(ext)
    return tuple(grown)


# ---------------------------------------------------------------------------
# Text formats.


def read_edge_list(text: str) -> Graph:
    """First line "n m", then m lines "u v" with 0-based vertex ids."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise InvalidSpec("edge list is empty")
    n, m = _int_pair(lines[0])
    edges = [_int_pair(ln) for ln in lines[1 : 1 + m]]
    if len(edges) != m:
        raise InvalidSpec("edge list declares %d edges, found %d" % (m, len(edges)))
    return Graph.from_edges(n, edges)


def _int_pair(line: str) -> tuple[int, int]:
    tokens = line.split()
    try:
        if len(tokens) == 2:
            return int(tokens[0]), int(tokens[1])
    except ValueError:
        pass
    raise InvalidSpec("edge-list line %r is not two integers" % line.strip())


# str.translate table from a graph6 data character to its six bits.
_SIX_BITS = {63 + x: format(x, "06b") for x in range(64)}


def read_graph6(line: str) -> Graph:
    """Decode one graph6 line (standard small-graph corpus format).  The
    vertex count, in its 1-, 4- or 8-character form, is checked against
    Graph's bound before the body is read, and the body must have the
    ceil(C(n, 2) / 6) characters graph6 fixes for n."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    # n in the last 1, 3 or 6 of the header's 1, 4 or 8 characters.
    size, width = (1, 1) if s[:1] != "~" else (4, 3) if s[1:2] != "~" else (8, 6)
    if not _graph6_text(s[:size]):
        raise InvalidSpec("not a graph6 line: %.60r" % s)
    if len(s) < size:
        raise InvalidSpec("graph6 line %r ends inside its vertex count" % s)
    n = 0
    for c in s[size - width : size]:
        n = n << 6 | ord(c) - 63
    _check_vertex_count(n)
    body = s[size:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise InvalidSpec("graph6 line for %d vertices needs %d data characters, not %d" % (n, need, len(body)))
    if body and not _graph6_text(body):
        raise InvalidSpec("not a graph6 line: %.60r" % s)
    bits = body.translate(_SIX_BITS)
    rows = [0] * n
    k = 0
    for v in range(1, n):
        column = int(bits[k : k + v][::-1], 2)  # bit u: the edge (u, v)
        k += v
        rows[v] = column
        while column:
            low = column & -column
            rows[low.bit_length() - 1] |= 1 << v
            column ^= low
    return Graph(n, tuple(rows))


def _graph6_text(s: str) -> bool:
    return bool(s) and min(s) >= "?" and max(s) <= "~"
