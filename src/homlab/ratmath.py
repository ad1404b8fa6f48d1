"""Exact integer/rational helpers: the one reader of rationals from
outside the program, integer scaling of weights, integer roots, factoring,
coprime bases, and eigenvalue sign counts (inertia) of symmetric rational
matrices.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm


def read_rational(x) -> Fraction:
    """x as an exact rational: a Fraction, an int, or a string Fraction
    reads without an exponent ("3", "-1", "1/2", "0.5").  A float (JSON's
    0.1, 1e400, NaN, Infinity), a bool, a zero denominator or an exponent
    form ("1e100000000", a power of ten Fraction would compute in full)
    raises ValueError."""
    if type(x) is Fraction:
        return x
    try:
        if type(x) is int or type(x) is str and "e" not in x.lower():
            return Fraction(x)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError("not an int or an exponent-free rational string: %.40r" % (x,))


def scaled_colors(weights) -> tuple:
    """(scale, ((color, scale * weight), ...)) over the nonzero weights,
    ints or Fractions, with scale the lcm of their denominators, so every
    product is an int."""
    ratios = [(c, *w.as_integer_ratio()) for c, w in enumerate(weights) if w]
    scale = lcm(*(d for _, _, d in ratios))
    return scale, tuple((c, n * (scale // d)) for c, n, d in ratios)


def scaled_matrix(rows) -> tuple:
    """(scale, int rows): the entries, ints or Fractions, times the lcm of
    their denominators; the rows themselves, as tuples, if all are ints."""
    rows = tuple(map(tuple, rows))
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return 1, rows
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    scale = lcm(*(d for row in ratios for _, d in row))
    return scale, tuple(tuple(n * (scale // d) for n, d in row) for row in ratios)


def integer_nth_root(x: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    if n <= 0:
        raise ValueError("root index must be positive")
    if x in (0, 1) or n == 1:
        return x
    if n == 2:
        return isqrt(x)
    # Newton iteration on integers, seeded from the bit length.
    r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    return r


def factorize(m: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division.

    Inputs here are counting quantities (at most a few tens of digits with
    small prime support), so trial division is plenty.
    """
    if m <= 0:
        raise ValueError("can only factor positive integers")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    f = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30
    i = 0
    while f * f <= m:
        if m % f == 0:
            out[f] = out.get(f, 0) + 1
            m //= f
        else:
            f += increments[i]
            i = (i + 1) % 8
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def coprime_basis(numbers) -> list[int]:
    """Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 15,
    1993): sorted pairwise-coprime integers > 1 such that every one of
    `numbers` is a product of their powers.  gcds only, no factoring.

    A number sharing a factor g > 1 with a basis element b replaces b by
    g, b/g and itself by x/g; the product of all pending and basis
    elements drops by g each time, so the loop ends.
    """
    basis: list[int] = []
    work = [n for n in numbers if n > 1]
    while work:
        x = work.pop()
        for i, b in enumerate(basis):
            g = gcd(x, b)
            if g > 1:
                del basis[i]
                work.extend(y for y in (g, b // g, x // g) if y > 1)
                break
        else:
            basis.append(x)
    return sorted(basis)


def eigenvalue_sign_counts(matrix: list[list[Fraction]]) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts of a symmetric rational
    matrix, with multiplicity, decided exactly.

    Symmetric elimination: by Sylvester's law of inertia (Phil. Mag. 4,
    1852) these counts are invariant under congruence, and by Haynsworth's
    additivity (Linear Algebra Appl. 1, 1968) the inertia of a matrix is
    that of a nonzero diagonal pivot p plus that of its Schur complement.
    With every diagonal entry zero but some a_kj nonzero, adding row and
    column j to row and column k is a congruence that makes a_kk = 2 a_kj.
    What is left when no entry is nonzero is the zero block.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    positive = negative = 0
    while a:
        n = len(a)
        k = next((i for i in range(n) if a[i][i]), None)
        if k is None:
            kj = next(((k, j) for k in range(n) for j in range(n) if a[k][j]), None)
            if kj is None:
                break
            k, j = kj
            for t in range(n):
                a[k][t] += a[j][t]
            for t in range(n):
                a[t][k] += a[t][j]
        p = a[k][k]
        if p > 0:
            positive += 1
        else:
            negative += 1
        rest = [t for t in range(n) if t != k]
        a = [[a[i][j] - a[i][k] * a[k][j] / p for j in rest] for i in rest]
    return positive, len(a), negative
