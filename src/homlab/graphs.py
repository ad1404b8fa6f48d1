"""Graph representation, named constructions, transformations, and
small-graph enumeration with exact isomorphism dedup.

Vertices are 0..n-1.  Edges are unordered pairs without loops.  A graph is
immutable after construction, so instances are safely shareable.
"""

from dataclasses import dataclass, field
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
    """Built from any iterable of vertex pairs; n is checked before any
    edge is read or bitset built, so a graph too large to plan fails."""

    n: int
    edges: frozenset[frozenset[int]]
    adjacency: tuple[int, ...] = field(init=False)  # neighbor bitsets

    def __post_init__(self):
        if type(self.n) is not int or self.n < 0:
            raise InvalidSpec("vertex count must be a nonnegative int, not %r" % (self.n,))
        if self.n * self.n > CONTRACTION_WORK_LIMIT:
            raise LimitExceeded("plan search bound %d exceeds %d (n = %d)" % (self.n * self.n, CONTRACTION_WORK_LIMIT, self.n))
        edges = frozenset(map(frozenset, self.edges))
        object.__setattr__(self, "edges", edges)
        adj = [0] * self.n
        for e in edges:
            if len(e) == 1:
                raise InvalidSpec("self-loop at %d" % min(e))
            u, v = e
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidSpec("edge endpoint out of range: (%d, %d)" % tuple(sorted(e)))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "adjacency", tuple(adj))

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        return Graph(n, edges)

    @cached_property
    def _sorted_edges(self) -> tuple[tuple[int, int], ...]:
        # Sorted once, on first use; cached_property writes the instance's
        # __dict__ directly, which a frozen dataclass allows.
        return tuple(sorted(tuple(sorted(e)) for e in self.edges))

    def edge_list(self) -> list[tuple[int, int]]:
        return list(self._sorted_edges)

    @cached_property
    def edge_text(self) -> str:
        """str(self.edge_list()), formatted once: the G=... of reports."""
        return str(self.edge_list())

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adjacency)

    def neighbors(self, v: int) -> list[int]:
        return [u for u in range(self.n) if self.adjacency[v] >> u & 1]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)

    def __repr__(self):
        return "Graph(n=%d, edges=%s)" % (self.n, self.edge_list())


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
    n = g.n
    edges = []
    for u, v in g.edge_list():
        edges.append((u, v + n))
        edges.append((v, u + n))
    return Graph.from_edges(2 * n, edges)


def add_apexes(g: Graph, count: int) -> Graph:
    """G with `count` (1 or 2) new vertices joined to all original vertices.

    The apexes come last and are not adjacent to each other.
    """
    if count not in (1, 2):
        raise InvalidSpec("apex count must be 1 or 2")
    edges = list(g.edge_list())
    for k in range(count):
        apex = g.n + k
        edges.extend((v, apex) for v in range(g.n))
    return Graph.from_edges(g.n + count, edges)


def triangle_count(g: Graph) -> int:
    rows = g.adjacency
    return sum((rows[u] & rows[v]).bit_count() for u, v in g.edge_list()) // 3


def is_triangle_free(g: Graph) -> bool:
    return not _has_triangle(g.adjacency)


def _has_triangle(rows) -> bool:
    """Whether some edge uv of the graph with neighbor bitsets `rows` has
    a common neighbor of u and v."""
    n = len(rows)
    return any(rows[u] >> v & 1 and rows[u] & rows[v] for u in range(n) for v in range(u + 1, n))


def is_connected(g: Graph) -> bool:
    return _connected(g.adjacency)


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


def is_bipartite(g: Graph) -> bool:
    """A component is bipartite iff it has no closed walk of odd length,
    i.e. iff in the double cover G x K_2 (vertex v + i*n is (v, i)) the
    component of (v, 0) misses (v, 1)."""
    n = g.n
    cover = [r << n for r in g.adjacency] + list(g.adjacency)
    left = (1 << n) - 1
    while left:
        v = (left & -left).bit_length() - 1
        comp = _component(cover, v)
        if comp >> (v + n) & 1:
            return False
        left &= ~(comp | comp >> n)
    return True


def graph_stats(g: Graph) -> dict:
    degs = g.degrees()
    return {
        "degrees": degs,
        "max_degree": max(degs, default=0),
        "has_isolated_vertex": any(d == 0 for d in degs),
        "triangle_free": is_triangle_free(g),
    }


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


def mask_to_graph(n: int, mask: int) -> Graph:
    rows = _mask_rows(n, mask)
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1))


def _mask_rows(n: int, mask: int) -> list[int]:
    """Adjacency as per-vertex neighbor bitsets, from an edge mask."""
    rows = [0] * n
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if mask >> k & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            k += 1
    return rows


def _least_string(rows, early_exit: bool = False) -> int | None:
    """Least column-major adjacency bitstring over all vertex relabelings.

    The string reads the upper triangle column by column: placing vertex j
    contributes bits (0,j),...,(j-1,j), so every partial labeling fixes a
    prefix and a branch is cut once its prefix exceeds the best string's
    prefix of the same length.  The search starts from the identity
    labeling's string.  With `early_exit` it returns None the moment some
    prefix falls below the identity's, i.e. once the graph is known not to
    be canonical; the dedup sweeps mostly see such graphs.
    """
    n = len(rows)
    total = n * (n - 1) // 2
    best = [0]
    for j in range(1, n):
        for i in range(j):
            best[0] = best[0] << 1 | (rows[i] >> j & 1)

    def rec(order: list[int], value: int, remaining: list[int]) -> bool:
        depth = len(order)
        if depth == n:
            best[0] = value
            return True
        shift = total - depth * (depth + 1) // 2
        for idx, w in enumerate(remaining):
            bits = 0
            for u in order:
                bits = bits << 1 | (rows[u] >> w & 1)
            new_value = value << depth | bits
            prefix = best[0] >> shift
            if new_value > prefix:
                continue
            if new_value < prefix and early_exit:
                return False
            if not rec(order + [w], new_value, remaining[:idx] + remaining[idx + 1 :]):
                return False
        return True

    return best[0] if rec([], 0, list(range(n))) else None


def canonical_mask(g: Graph) -> int:
    """Edge mask of the relabeling with the least column-major bitstring,
    the canonical form.  Limited to n <= 8."""
    n = g.n
    if n > ENUMERATION_VERTEX_LIMIT:
        raise LimitExceeded("canonical form limited to n <= %d" % ENUMERATION_VERTEX_LIMIT)
    value = _least_string(g.adjacency)
    rows = [0] * n
    pos = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if value >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return _rows_to_mask(rows)


def is_canonical_mask(n: int, mask: int) -> bool:
    """True iff no relabeling has a smaller column-major bitstring; the
    early-exit form of canonical_mask(g) == mask."""
    return _least_string(_mask_rows(n, mask), early_exit=True) is not None


def enumerate_graphs(
    n: int,
    connected: bool = False,
    no_isolated: bool = False,
    triangle_free: bool = False,
    dedup_isomorphism: bool = False,
):
    """Yield graphs on n labeled vertices passing the filters.

    With dedup, yields exactly one representative per isomorphism class: the
    graph whose edge mask equals its own canonical mask.  Deduped sweeps are
    cached per (n, filters), so repeated scans pay the generation once per
    process.
    """
    if n > ENUMERATION_VERTEX_LIMIT:
        raise LimitExceeded("enumeration limited to n <= %d" % ENUMERATION_VERTEX_LIMIT)
    if dedup_isomorphism:
        for mask in _dedup_masks(n, connected, no_isolated, triangle_free):
            yield mask_to_graph(n, mask)
        return
    for mask in _filtered_masks(n, connected, no_isolated, triangle_free):
        yield mask_to_graph(n, mask)


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
def _dedup_masks(n: int, connected: bool, no_isolated: bool, triangle_free: bool) -> tuple[int, ...]:
    """Edge masks of the canonical graphs on n vertices passing the filters,
    in increasing order, by orderly generation (Read 1978; McKay 1998).

    The column-major string of a graph puts vertex j's bits after the first
    C(j,2), which are the string of vertices 0..j-1.  So a canonical graph's
    restriction to its first k vertices is canonical: a smaller relabeling
    of that prefix would give a smaller full string.  Level k is therefore
    built by giving each canonical (k-1)-vertex graph a last vertex with
    every neighbor set, keeping the extensions that pass the full canonicity
    check.  Triangle-freeness is inherited by induced subgraphs, so a
    neighbor set spanning an edge is skipped at once; connectivity and
    isolated vertices are not, so they are checked on level n only.
    """
    level = [()]  # neighbor bitsets of each canonical graph on k vertices
    for k in range(n):
        grown = []
        for rows in level:
            for s in range(1 << k):  # neighbors of the new vertex k
                if triangle_free and any(s >> u & 1 and rows[u] & s for u in range(k)):
                    continue
                ext = tuple(r | (s >> u & 1) << k for u, r in enumerate(rows)) + (s,)
                if _least_string(ext, early_exit=True) is not None:
                    grown.append(ext)
        level = grown
    keep = [rows for rows in level if not (no_isolated and 0 in rows) and (not connected or _connected(rows))]
    return tuple(sorted(map(_rows_to_mask, keep)))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    return canonical_mask(g1) == canonical_mask(g2)


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


def write_edge_list(g: Graph) -> str:
    lines = ["%d %d" % (g.n, len(g.edges))]
    lines.extend("%d %d" % e for e in g.edge_list())
    return "\n".join(lines) + "\n"


def read_graph6(line: str) -> Graph:
    """Decode one graph6 line (standard small-graph corpus format)."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    data = [ord(c) - 63 for c in s]
    if not data or not all(0 <= x <= 63 for x in data):
        raise InvalidSpec("not a graph6 line: %r" % line.strip())
    if data[0] <= 62:
        n, data = data[0], data[1:]
    elif len(data) >= 4:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    else:
        raise InvalidSpec("graph6 line %r ends inside its vertex count" % line.strip())
    bits = []
    for value in data:
        bits.extend((value >> (5 - i)) & 1 for i in range(6))
    if len(bits) < n * (n - 1) // 2:
        raise InvalidSpec("graph6 line %r is too short for %d vertices" % (line.strip(), n))
    edges = []
    k = 0
    for v in range(n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return Graph.from_edges(n, edges)
