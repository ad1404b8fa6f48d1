"""Exact integer/rational helpers: roots, factoring, coprime bases,
characteristic polynomials, Sturm sign counts.

All polynomial arithmetic is over fractions.Fraction; coefficient lists are
lowest-degree-first.
"""

from fractions import Fraction
from math import gcd, isqrt


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


def lcm_many(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
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


# ---------------------------------------------------------------------------
# Polynomials over Fraction, lowest degree first.


def poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p: list[Fraction]) -> list[Fraction]:
    return [c * k for k, c in enumerate(p)][1:]


def poly_divmod(a: list[Fraction], b: list[Fraction]):
    """Euclidean division a = q*b + r over the rationals."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and poly_trim(a):
        shift = len(a) - len(b)
        coef = a[-1] * inv_lead
        q[shift] = coef
        for i, c in enumerate(b):
            a[shift + i] -= coef * c
        poly_trim(a)
    return poly_trim(q), a


def charpoly(matrix: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial det(xI - M) by Faddeev-LeVerrier.

    Exact over the rationals; fine for the q <= 8 matrices we classify.
    Returned lowest-degree-first, monic of degree n.
    """
    n = len(matrix)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    aux = [[Fraction(0)] * n for _ in range(n)]  # M_0 = 0
    for k in range(1, n + 1):
        # N = M * aux + c_{n-k+1} * I ; actually iterate per the recurrence.
        prod = [[sum(matrix[i][t] * aux[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            prod[i][i] += coeffs[n - k + 1]
        trace = sum(
            sum(matrix[i][t] * prod[t][i] for t in range(n)) for i in range(n)
        )
        coeffs[n - k] = -trace / k
        aux = prod
    return coeffs


def sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [poly_trim(list(p))]
    d = poly_deriv(chain[0])
    if poly_trim(list(d)):
        chain.append(d)
        while len(chain[-1]) > 1:
            _, r = poly_divmod(chain[-2], chain[-1])
            r = [-c for c in r]
            if not poly_trim(r):
                break
            chain.append(r)
    return chain


def _sign_changes_at(chain, x, at_infinity=0) -> int:
    signs = []
    for pol in chain:
        if at_infinity:
            lead = pol[-1]
            s = (1 if lead > 0 else -1) * (at_infinity ** (len(pol) - 1))
        else:
            v = poly_eval(pol, x)
            s = 0 if v == 0 else (1 if v > 0 else -1)
        if s:
            signs.append(1 if s > 0 else -1)
    changes = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            changes += 1
    return changes


def count_roots_in_open_interval(p: list[Fraction], lo, hi) -> int:
    """Distinct real roots of p in (lo, hi]; lo/hi may be '-inf'/'inf'.

    Sturm's theorem counts roots in (a, b] when p(a), p(b) != 0; we only use
    endpoints 0 and +/-infinity, and 0 is excluded by dividing out x-powers
    before calling.
    """
    chain = sturm_chain(p)
    if lo == "-inf":
        va = _sign_changes_at(chain, None, at_infinity=-1)
    else:
        va = _sign_changes_at(chain, Fraction(lo))
    if hi == "inf":
        vb = _sign_changes_at(chain, None, at_infinity=1)
    else:
        vb = _sign_changes_at(chain, Fraction(hi))
    return va - vb


def eigenvalue_sign_counts(matrix: list[list[Fraction]]) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts of a symmetric rational
    matrix, with multiplicity, decided exactly.

    Multiplicity is recovered by repeatedly deflating the characteristic
    polynomial by its gcd with its derivative: a symmetric matrix is
    diagonalizable, so eigenvalue multiplicity equals root multiplicity of
    the characteristic polynomial.
    """
    n = len(matrix)
    p = charpoly(matrix)
    positive = negative = zero = 0
    while p and p[0] == 0:
        zero += 1
        p = p[1:]
    # A root of multiplicity m survives m-1 gcd-with-derivative passes, so
    # summing distinct-root Sturm counts over the passes counts with
    # multiplicity.  The x^k factor was already stripped, so every pass has
    # nonzero constant term.
    while len(p) > 1:
        positive += count_roots_in_open_interval(p, 0, "inf")
        negative += count_roots_in_open_interval(p, "-inf", 0)
        p = _poly_gcd(p, poly_deriv(p))
    total = positive + negative + zero
    if total != n:
        raise AssertionError("eigenvalue count mismatch: %d != %d" % (total, n))
    return positive, zero, negative


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = poly_trim(list(a))
    b = poly_trim(list(b))
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, poly_trim(r)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a
