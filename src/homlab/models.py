"""Weighted target models H, held as integer weights over a common scale
with exact rational views; named families; and ferro/antiferro
classification via exact eigenvalue sign counts.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from homlab.errors import InvalidArgument, NegativeWeight, NonSymmetric, check_work
from homlab.ratmath import eigenvalue_sign_counts, read_rational, scaled_colors, scaled_matrix

RANDOM_MODEL_MAX_COLORS = 8


@dataclass(frozen=True)
class Model:
    """integer_edges = (scale, int rows) and integer_colors = (scale,
    ((color, int weight), ...)) over the nonzero vertex weights, each scale
    the lcm of the denominators, so equal rational weights give equal
    fields.  `from_rows` builds and checks one; edge_weights and
    vertex_weights are Fraction views, cached on first read, and
    biclique_sums is `hom_biclique`'s cache, which lives and dies with
    the object."""

    q: int
    integer_edges: tuple
    integer_colors: tuple

    @cached_property
    def edge_weights(self) -> tuple:
        scale, rows = self.integer_edges
        return tuple(tuple(Fraction(x, scale) for x in row) for row in rows)

    @cached_property
    def vertex_weights(self) -> tuple:
        scale, colors = self.integer_colors
        weights = dict(colors)
        return tuple(Fraction(weights.get(c, 0), scale) for c in range(self.q))

    @cached_property
    def biclique_sums(self) -> dict:
        """`hom_biclique`'s `biclique_kernel_sum` caches, one per pair of
        side measures.  It is kept on the object, not keyed by it: a Model
        hashes by value, so such a cache would serve a model built later,
        in another scan, and outlive this one."""
        return {}

    @property
    def looped_set(self) -> frozenset[int]:
        """The looped colors: those with a nonzero self-weight."""
        return frozenset(c for c, row in enumerate(self.integer_edges[1]) if row[c])

    @staticmethod
    def from_rows(rows, vertex_weights=None) -> "Model":
        """The model of a square symmetric nonnegative int or Fraction
        matrix, vertex weights 1 unless given, checked on its ints."""
        q = len(rows)
        if any(len(row) != q for row in rows):
            raise InvalidArgument("edge weight matrix must be %d x %d" % (q, q))
        if vertex_weights is not None and len(vertex_weights) != q:
            raise InvalidArgument("vertex weight vector must have length %d" % q)
        scale, ints = scaled_matrix(rows)
        if ints != tuple(zip(*ints)) or min(map(min, ints), default=0) < 0:
            i, j = next((i, j) for i in range(q) for j in range(q) if ints[i][j] != ints[j][i] or ints[i][j] < 0)
            if ints[i][j] != ints[j][i]:
                raise NonSymmetric("edge weights not symmetric at (%d, %d)" % (i, j))
            raise NegativeWeight("edge weight (%d, %d) negative" % (i, j))
        colors = scaled_colors([1] * q if vertex_weights is None else vertex_weights)
        if any(w < 0 for _, w in colors[1]):
            raise NegativeWeight("negative vertex weight")
        return Model(q, (scale, ints), colors)


@dataclass(frozen=True)
class Classification:
    ferromagnetic: bool
    antiferromagnetic: bool
    positive_eigen_count: int
    negative_eigen_count: int


def classify_model(m: Model) -> Classification:
    """Exact ferro/antiferro flags from eigenvalue sign counts.

    Ferromagnetic (positive semidefinite): no negative eigenvalue.
    Antiferromagnetic: at most one strictly positive eigenvalue; zero
    eigenvalues are neutral for both flags, so the zero matrix carries both.
    Vertex weights play no role, nor does the positive edge scale.
    """
    pos, _zero, neg = eigenvalue_sign_counts(m.integer_edges[1])
    return Classification(
        ferromagnetic=(neg == 0),
        antiferromagnetic=(pos <= 1),
        positive_eigen_count=pos,
        negative_eigen_count=neg,
    )


def model_complete_looped(q: int, ell: int) -> Model:
    """K_q with the first `ell` colors looped: semiproper-coloring target.
    It is sized before any weight is built, as a random source sizes each
    model: q^2 edge weights, q vertex weights and one for the model."""
    check_work("model", q * q + q + 1, "q^2 + q + 1 weights, q = %d", q)
    if not 0 <= ell <= q:
        raise InvalidArgument("need 0 <= ell <= q")
    rows = [[1 if i != j or i < ell else 0 for j in range(q)] for i in range(q)]
    return Model.from_rows(rows)


def model_hardcore() -> Model:
    """Two colors, the occupied one unlooped: counts independent sets."""
    return model_complete_looped(2, 1)


def model_h_eps(eps) -> Model:
    """Two-spin model with loop weight 1+2*eps and vertex weights 1/2.

    At eps=0 every graph has hom = 1; the eps^3 coefficient of hom(G, .)
    sees the triangle count of G, which is what makes this the triangle
    counterexample family.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise InvalidArgument("eps must be >= 0")
    loop = 1 + 2 * eps
    return Model.from_rows([[loop, 1], [1, loop]], vertex_weights=[Fraction(1, 2), Fraction(1, 2)])


def model_widom_rowlinson() -> Model:
    """Three fully looped colors A, 0, B with A-B the only non-edge."""
    return Model.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]])


def model_two_spin(w00, w01, w11, v0=1, v1=1) -> Model:
    return Model.from_rows([[w00, w01], [w01, w11]], vertex_weights=[v0, v1])


def _rand_fraction(rng: random.Random, max_num=16, max_den=16, positive=False) -> Fraction:
    lo = 1 if positive else 0
    return Fraction(rng.randrange(lo, max_num + 1), rng.randrange(1, max_den + 1))


def random_model(q: int, seed: int, kind: str = "general") -> Model:
    """Deterministic-in-seed random model; entries are small rationals.

    Kinds: "general" (arbitrary symmetric nonnegative), "psd" (built as
    B^T B, hence ferromagnetic by construction), "antiferro-2spin"
    (rejection-sampled weights with w00*w11 <= w01^2).
    """
    if q > RANDOM_MODEL_MAX_COLORS:
        raise InvalidArgument("random models limited to q <= %d" % RANDOM_MODEL_MAX_COLORS)
    rng = random.Random((kind, q, seed).__repr__())
    if kind == "general":
        rows = [[Fraction(0)] * q for _ in range(q)]
        for i in range(q):
            for j in range(i, q):
                rows[i][j] = rows[j][i] = _rand_fraction(rng, max_num=8, max_den=4)
        vw = [_rand_fraction(rng, max_num=4, max_den=2, positive=True) for _ in range(q)]
        return Model.from_rows(rows, vertex_weights=vw)
    if kind == "psd":
        b = [[_rand_fraction(rng, max_num=4, max_den=2) for _ in range(q)] for _ in range(q)]
        rows = [
            [sum(b[k][i] * b[k][j] for k in range(q)) for j in range(q)] for i in range(q)
        ]
        return Model.from_rows(rows)
    if kind == "antiferro-2spin":
        if q != 2:
            raise InvalidArgument("antiferro-2spin models have q = 2")
        while True:
            w00 = _rand_fraction(rng, max_num=8, max_den=4)
            w11 = _rand_fraction(rng, max_num=8, max_den=4)
            w01 = _rand_fraction(rng, max_num=8, max_den=4, positive=True)
            if w00 * w11 <= w01 ** 2:
                return model_two_spin(w00, w01, w11)
    raise InvalidArgument("unknown random model kind %r" % kind)


def parse_model_name(name: str) -> Model:
    """Parse CLI syntax: "Kq:3", "Kq-looped:5,2", "hardcore", "wr",
    "heps:1/10", "ising:w00,w01,w11", "random:kind,q,seed"."""
    name = name.strip()
    head, _, rest = name.partition(":")
    head = head.lower()
    try:
        if head == "kq":
            return model_complete_looped(int(rest), 0)
        if head == "kq-looped":
            q, ell = (int(t) for t in rest.split(","))
            return model_complete_looped(q, ell)
        if head == "hardcore":
            return model_hardcore()
        if head == "wr":
            return model_widom_rowlinson()
        if head == "heps":
            return model_h_eps(read_rational(rest))
        if head == "ising":
            w00, w01, w11 = (read_rational(t) for t in rest.split(","))
            return model_two_spin(w00, w01, w11)
        if head == "random":
            kind, q, seed = rest.split(",")
            return random_model(int(q), int(seed), kind)
    except ValueError:
        pass
    raise InvalidArgument("cannot parse model name %r" % name)
