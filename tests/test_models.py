import hashlib
import json
import pickle
import random
import re
from fractions import Fraction
from math import lcm

import pytest

from conftest import two_spin_is_antiferromagnetic, two_spin_is_ferromagnetic
from homlab.errors import WORK_LIMIT, InvalidArgument, LimitExceeded, NegativeWeight, NonSymmetric
from homlab.fileio import model_to_dict
from homlab.models import (
    Model,
    classify_model,
    model_complete_looped,
    model_h_eps,
    model_hardcore,
    model_two_spin,
    model_widom_rowlinson,
    parse_model_name,
    random_model,
)
from homlab.ratmath import eigenvalue_sign_counts, scaled_colors, scaled_matrix


def _charpoly_oracle(matrix):
    """det(xI - M) of an integer matrix by Faddeev-LeVerrier, lowest degree
    first: c_n = 1 and, with N_1 = I, c_{n-k} = -tr(M N_k) / k and
    N_{k+1} = M N_k + c_{n-k} I.  The coefficients are integers, so each
    division by k is exact."""
    n = len(matrix)
    coeffs = [0] * n + [1]
    aux = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = [[sum(matrix[i][t] * aux[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        coeffs[n - k], rem = divmod(-sum(prod[i][i] for i in range(n)), k)
        assert rem == 0
        aux = [[prod[i][j] + (coeffs[n - k] if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _inertia_oracle(matrix):
    """(positive, zero, negative) eigenvalue counts read off the
    characteristic polynomial by Descartes' rule of signs, which is exact
    for a real-rooted polynomial such as a symmetric matrix's: the zero
    count is the index of the lowest nonzero coefficient, and p(-x) gives
    the negative count.  The matrix is first scaled to integers, which
    keeps every eigenvalue's sign."""
    scale = lcm(*(x.denominator for row in matrix for x in row))
    p = _charpoly_oracle([[int(x * scale) for x in row] for row in matrix])
    zero = next(i for i, c in enumerate(p) if c)
    reflected = [c if i % 2 == 0 else -c for i, c in enumerate(p)]
    return _sign_changes(p), zero, _sign_changes(reflected)


def _random_symmetric(rng, q):
    """A seeded symmetric rational matrix of one of five shapes: general
    with negative entries, all-zero diagonal, low-rank B^T D B, a scalar
    multiple of the identity plus a low-rank part, or the zero matrix."""
    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    shape = rng.randrange(5)
    rows = [[Fraction(0)] * q for _ in range(q)]
    if shape in (0, 1):
        for i in range(q):
            for j in range(i, q):
                rows[i][j] = rows[j][i] = entry() if i != j or shape == 0 else Fraction(0)
    elif shape in (2, 3):
        rank = rng.randint(0, q if shape == 2 else 2)
        b = [[entry() for _ in range(q)] for _ in range(rank)]
        d = [entry() for _ in range(rank)]
        shift = entry() if shape == 3 else 0
        for i in range(q):
            for j in range(q):
                rows[i][j] = sum(d[t] * b[t][i] * b[t][j] for t in range(rank)) + (shift if i == j else 0)
    return rows


class TestConstruction:
    def test_symmetry_enforced(self):
        with pytest.raises(NonSymmetric):
            Model.from_rows([[1, 2], [3, 1]])

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            Model.from_rows([[1, -1], [-1, 1]])

    def test_complete_looped_shape(self):
        m = model_complete_looped(3, 2)
        assert m.edge_weights[0][0] == 1 and m.edge_weights[2][2] == 0
        assert m.looped_set == frozenset({0, 1})
        with pytest.raises(InvalidArgument):
            model_complete_looped(2, 3)

    def test_h_eps(self):
        m = model_h_eps(Fraction(1, 10))
        assert m.edge_weights[0][0] == Fraction(6, 5)
        assert m.vertex_weights == (Fraction(1, 2), Fraction(1, 2))
        m = model_h_eps(Fraction(1, 2))
        assert m.edge_weights[1][1] == 2
        assert model_h_eps(0).edge_weights[0][0] == 1

    def test_widom_rowlinson(self):
        m = model_widom_rowlinson()
        assert m.q == 3 and m.looped_set == frozenset({0, 1, 2})
        assert m.edge_weights[0][2] == 0 and m.edge_weights[0][1] == 1

    def test_looped_set_is_read_off_the_diagonal(self):
        assert Model.from_rows([[2, 1], [1, 0]]).looped_set == {0}
        assert Model.from_rows([[2, 1], [1, 2]]).looped_set == {0, 1}


class TestClassification:
    def test_ferromagnetic_example(self):
        c = classify_model(Model.from_rows([[2, 1], [1, 2]]))
        assert c.ferromagnetic and not c.antiferromagnetic
        assert (c.positive_eigen_count, c.negative_eigen_count) == (2, 0)

    def test_complete_graph_spectrum(self):
        c = classify_model(Model.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        assert c.antiferromagnetic and not c.ferromagnetic
        assert (c.positive_eigen_count, c.negative_eigen_count) == (1, 2)

    def test_neither_flag_three_by_three(self):
        # char poly x^3 - 2x^2 - x + 1: two positive roots, one negative
        c = classify_model(Model.from_rows([[1, 1, 1], [1, 1, 0], [1, 0, 0]]))
        assert not c.ferromagnetic and not c.antiferromagnetic
        assert (c.positive_eigen_count, c.negative_eigen_count) == (2, 1)

    def test_zero_matrix_is_both(self):
        c = classify_model(Model.from_rows([[0, 0], [0, 0]]))
        assert c.ferromagnetic and c.antiferromagnetic

    def test_complete_looped_always_antiferromagnetic(self):
        for q in range(1, 6):
            for ell in range(q + 1):
                c = classify_model(model_complete_looped(q, ell))
                assert c.positive_eigen_count <= 1, (q, ell)

    def test_eigen_counts_invariant_under_scaling(self):
        rng = random.Random(5)
        for seed in range(10):
            m = random_model(3, seed, "general")
            base = classify_model(m)
            scale = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
            scaled = classify_model(Model.from_rows([[w * scale for w in row] for row in m.edge_weights], m.vertex_weights))
            assert (base.positive_eigen_count, base.negative_eigen_count) == (
                scaled.positive_eigen_count,
                scaled.negative_eigen_count,
            )

    def test_against_sympy_oracle(self):
        # Exact oracle: real roots (with multiplicity) of the characteristic
        # polynomial; algebraic sign comparisons are decided exactly.
        sympy = pytest.importorskip("sympy")
        for seed in range(36):
            m = random_model(1 + seed % 6, seed, "general")
            mat = sympy.Matrix([[sympy.Rational(str(x)) for x in row] for row in m.edge_weights])
            roots = sympy.real_roots(mat.charpoly().as_expr())
            pos = sum(1 for r in roots if r.is_positive)
            neg = sum(1 for r in roots if r.is_negative)
            c = classify_model(m)
            assert (c.positive_eigen_count, c.negative_eigen_count) == (pos, neg), seed


class TestInertia:
    def test_small_cases(self):
        assert eigenvalue_sign_counts([]) == (0, 0, 0)
        assert eigenvalue_sign_counts([[Fraction(-3)]]) == (0, 0, 1)
        assert eigenvalue_sign_counts([[0, 1], [1, 0]]) == (1, 0, 1)
        assert eigenvalue_sign_counts([[0, 0, 0], [0, 0, 2], [0, 2, 0]]) == (1, 1, 1)
        assert eigenvalue_sign_counts([[1, 1], [1, 1]]) == (1, 1, 0)

    def test_input_is_not_modified(self):
        rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        eigenvalue_sign_counts(rows)
        assert rows == [[0, 1], [1, 0]]

    def test_against_descartes_oracle(self):
        rng = random.Random(2024)
        for trial in range(2400):
            q = 1 + trial % 8
            rows = _random_symmetric(rng, q)
            assert eigenvalue_sign_counts(rows) == _inertia_oracle(rows), rows


class TestTwoSpin:
    def test_examples(self):
        hc = model_two_spin(1, 1, 0)
        assert two_spin_is_antiferromagnetic(hc)
        assert classify_model(hc).antiferromagnetic
        ferro = model_two_spin(2, 1, 2)
        assert two_spin_is_ferromagnetic(ferro)
        assert classify_model(ferro).ferromagnetic
        boundary = model_two_spin(1, 1, 1)
        c = classify_model(boundary)
        assert c.ferromagnetic and c.antiferromagnetic

    def test_negative_rejected(self):
        with pytest.raises(NegativeWeight):
            model_two_spin(1, -1, 1)

    def test_shortcut_agrees_with_eigen_classifier(self):
        for seed in range(1000):
            m = random_model(2, seed, "general")
            c = classify_model(m)
            assert c.ferromagnetic == two_spin_is_ferromagnetic(m), seed
            assert c.antiferromagnetic == two_spin_is_antiferromagnetic(m), seed


class TestRandomModels:
    def test_deterministic(self):
        for kind in ("general", "psd", "antiferro-2spin"):
            q = 2 if kind == "antiferro-2spin" else 3
            assert random_model(q, 7, kind) == random_model(q, 7, kind)

    def test_psd_is_ferromagnetic(self):
        for seed in range(1000):
            m = random_model(2 + seed % 3, seed, "psd")
            assert classify_model(m).negative_eigen_count == 0, seed

    def test_antiferro_2spin_kind(self):
        for seed in range(200):
            m = random_model(2, seed, "antiferro-2spin")
            assert two_spin_is_antiferromagnetic(m), seed

    def test_limit(self):
        with pytest.raises(InvalidArgument):
            random_model(9, 0, "general")


def _weight_models():
    """Random general, psd and antiferro-2spin models with q <= 8, and
    models with zero edge or vertex weights (all-zero ones included)."""
    models = [random_model(q, seed, kind) for q in range(1, 9) for seed in range(3) for kind in ("general", "psd")]
    models += [random_model(2, seed, "antiferro-2spin") for seed in range(10)]
    models += [
        model_hardcore(),
        model_two_spin(0, Fraction(3, 4), 0, v0=0, v1=Fraction(2, 3)),
        Model.from_rows([[0, 0], [0, 0]], vertex_weights=[0, 0]),
        Model.from_rows([[Fraction(1, 6), 0, 2], [0, 0, 0], [2, 0, Fraction(5, 4)]], vertex_weights=[Fraction(1, 2), 0, 3]),
    ]
    return models


class TestIntegerWeights:
    def test_cached_weights_equal_a_fresh_scaling(self):
        for m in _weight_models():
            assert m.integer_edges == scaled_matrix(m.edge_weights)
            assert m.integer_colors == scaled_colors(m.vertex_weights)
            # Read against the Fractions themselves, not the helpers: the
            # least common scale, int entries, and zero colors dropped.
            scale, rows = m.integer_edges
            assert scale == lcm(*(x.denominator for row in m.edge_weights for x in row))
            assert [[Fraction(x, scale) for x in row] for row in rows] == [list(row) for row in m.edge_weights]
            assert all(type(x) is int for row in rows for x in row)
            scale, colors = m.integer_colors
            assert scale == lcm(*(w.denominator for w in m.vertex_weights if w))
            assert [(c, Fraction(w, scale)) for c, w in colors] == [(c, w) for c, w in enumerate(m.vertex_weights) if w]
            assert m.edge_weights is m.edge_weights and m.vertex_weights is m.vertex_weights

    def test_filled_cache_keeps_equality_hash_pickle_and_bytes(self):
        # The rational views are cached on first read; a model with them
        # filled equals and hashes as a fresh one, and writes the same bytes.
        for m in _weight_models():
            fresh = Model.from_rows(m.edge_weights, m.vertex_weights)  # reads m's views
            assert "vertex_weights" in vars(m) and "vertex_weights" not in vars(fresh)
            assert m == fresh and hash(m) == hash(fresh)
            assert json.dumps(model_to_dict(m), sort_keys=True) == json.dumps(model_to_dict(fresh), sort_keys=True)
            back = pickle.loads(pickle.dumps(m))
            assert back == fresh and hash(back) == hash(fresh)
            assert back.integer_edges == fresh.integer_edges and back.integer_colors == fresh.integer_colors


def _reference_error(rows, vertex_weights):
    """(type, text) of the first check that weights fail, or None: the
    checks of a model held as Fraction rows, cell by cell in row-major
    order with symmetry before sign, independent of the int form."""
    q = len(rows)
    ew = [[Fraction(x) for x in row] for row in rows]
    vw = [Fraction(1)] * q if vertex_weights is None else [Fraction(x) for x in vertex_weights]
    if any(len(row) != q for row in ew):
        return InvalidArgument, "edge weight matrix must be %d x %d" % (q, q)
    if len(vw) != q:
        return InvalidArgument, "vertex weight vector must have length %d" % q
    for i in range(q):
        for j in range(q):
            if ew[i][j] != ew[j][i]:
                return NonSymmetric, "edge weights not symmetric at (%d, %d)" % (i, j)
            if ew[i][j] < 0:
                return NegativeWeight, "edge weight (%d, %d) negative" % (i, j)
    if any(w < 0 for w in vw):
        return NegativeWeight, "negative vertex weight"
    return None


def _written(rng, x: Fraction):
    """x as an int when it is one and a coin says so, else as a Fraction."""
    return x.numerator if x.denominator == 1 and rng.random() < 0.5 else x


class TestModelFromRows:
    """`Model` holds only its scaled ints: equality, hashing and errors
    must be those of the rational weights they stand for."""

    def test_equality_and_hash_agree_with_rational_weights(self):
        rng = random.Random(28)
        pool = sorted({Fraction(n, d) for n in range(4) for d in range(1, 5)})
        for _ in range(400):
            q = rng.randrange(1, 5)
            rows = [[None] * q for _ in range(q)]
            for i in range(q):
                for j in range(i, q):
                    rows[i][j] = rows[j][i] = rng.choice(pool)
            vw = [rng.choice(pool) for _ in range(q)]
            other_rows, other_vw = [row[:] for row in rows], vw[:]
            if rng.random() < 0.5:  # change one weight, keeping the matrix symmetric
                i, j = rng.randrange(q), rng.randrange(q)
                other_rows[i][j] = other_rows[j][i] = rng.choice(pool)
            if rng.random() < 0.3:
                other_vw[rng.randrange(q)] = rng.choice(pool)
            a = Model.from_rows([[_written(rng, x) for x in row] for row in rows], [_written(rng, x) for x in vw])
            b = Model.from_rows([[_written(rng, x) for x in row] for row in other_rows], [_written(rng, x) for x in other_vw])
            assert (a == b) == (rows == other_rows and vw == other_vw), (rows, other_rows, vw, other_vw)
            if a == b:
                assert hash(a) == hash(b)
            for m in (a, b):
                back = pickle.loads(pickle.dumps(m))
                assert back == m and hash(back) == hash(m)
        # Equal values with different denominators give one model.
        assert Model.from_rows([[Fraction(2, 4), 1], [1, 0]]) == Model.from_rows([[Fraction(1, 2), Fraction(3, 3)], [1, 0]])
        assert Model.from_rows([[2]], [Fraction(4, 2)]) == Model.from_rows([[Fraction(2)]], [2])

    def test_bad_weights_raise_the_first_failed_check(self):
        cases = [
            ([[1, 2], [3]], None),  # ragged
            ([[1, 2], [2, 1]], [1]),  # short vertex weights
            ([[1, 2], [2, 1]], [1, 1, 1]),
            ([[1, 2], [3, 1]], None),  # non-symmetric
            ([[1, -1], [-1, 1]], None),  # negative edge
            ([[0, 1], [1, 0]], [1, -1]),  # negative vertex
            ([[1, -2], [3, 1]], None),  # non-symmetric and negative: the first cell decides
            ([[-1, 2], [3, 1]], None),
            ([[1, 2, 0], [2, 1, -1], [0, -1, 0]], [Fraction(1, 2), -1, 0]),
            ([[0, Fraction(-1, 2)], [Fraction(-2, 4), 0]], None),
        ]
        rng = random.Random(29)
        for _ in range(300):
            q = rng.randrange(1, 5)
            rows = [[Fraction(rng.randrange(-1, 5), rng.randrange(1, 4)) for _ in range(q)] for _ in range(q)]
            if rng.random() < 0.5:
                for i in range(q):
                    for j in range(i):
                        rows[i][j] = rows[j][i]
            vw = None if rng.random() < 0.3 else [Fraction(rng.randrange(-1, 4), rng.randrange(1, 3)) for _ in range(q)]
            cases.append((rows, vw))
        raised = 0
        for rows, vw in cases:
            want = _reference_error(rows, vw)
            if want is None:
                assert Model.from_rows(rows, vw).edge_weights == tuple(map(tuple, rows))
                continue
            with pytest.raises(want[0]) as info:
                Model.from_rows(rows, vw)
            assert type(info.value) is want[0] and str(info.value) == want[1], (rows, vw)
            raised += 1
        assert raised > 200

    def test_model_documents_are_pinned(self):
        # model_to_dict bytes of every named family and of random models at
        # q <= 4, seeds 0-49, all three kinds, as the Fraction-row Model wrote them.
        models = [model_hardcore(), model_widom_rowlinson(), model_h_eps(0), model_h_eps(Fraction(1, 10)), model_two_spin(1, 2, 1)]
        models.append(model_two_spin(Fraction(2, 4), Fraction(1, 3), 0, Fraction(1, 2), 3))
        models += [model_complete_looped(q, ell) for q in range(1, 6) for ell in range(q + 1)]
        for kind in ("general", "psd", "antiferro-2spin"):
            models += [random_model(q, seed, kind) for q in ((2,) if kind == "antiferro-2spin" else range(1, 5)) for seed in range(50)]
        digest = hashlib.sha256()
        for m in models:
            digest.update((json.dumps(model_to_dict(m), sort_keys=True) + "\n").encode())
        assert len(models) == 476
        assert digest.hexdigest() == "da7035a01367708978c1e5ba3398852c33e0789f71480715ce7840dbbf956253"


class TestModelSize:
    def test_complete_looped_is_sized_before_it_is_built(self):
        # q^2 + q + 1 weights are counted before the q x q matrix exists:
        # these would need 10^10 and 10^18 entries, and 3162 just over 10^7.
        for q in (3162, 10 ** 5, 10 ** 9):
            with pytest.raises(LimitExceeded, match=re.escape("model work bound %d exceeds %d (q^2 + q + 1 weights, q = %d)" % (q * q + q + 1, WORK_LIMIT, q))):
                model_complete_looped(q, 0)
            for name in ("Kq:%d" % q, "Kq-looped:%d,1" % q):
                with pytest.raises(LimitExceeded):
                    parse_model_name(name)


class TestParseNames:
    def test_names(self):
        assert parse_model_name("Kq:3").q == 3
        assert parse_model_name("Kq-looped:5,2").looped_set == frozenset({0, 1})
        assert parse_model_name("hardcore") == model_hardcore()
        assert parse_model_name("wr") == model_widom_rowlinson()
        assert parse_model_name("heps:1/10").edge_weights[0][0] == Fraction(6, 5)
        ising = parse_model_name("ising:2,1,2")
        assert ising.edge_weights[0][0] == 2
        assert parse_model_name("random:psd,3,5") == random_model(3, 5, "psd")
        with pytest.raises(InvalidArgument):
            parse_model_name("mystery")
