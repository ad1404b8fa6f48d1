"""Exact comparison of fractional-power expressions.

Two layers:

* PowerProduct -- a formal product of positive rational bases raised to
  rational exponents, compared exactly.  The two sides' exponents are put
  over one common denominator as ints; small cases are then cleared, the
  int exponents raising big integers, and large ones go over a coprime
  basis of the bases (equality from the exponent vector, strict signs
  from rigorous log intervals built on the decimal module's correctly
  rounded ln, finished by clearing when the intervals reach their
  precision cap).

* RadicalSum -- a QQ-linear combination of canonical radicals
  prod_p p^{e_p} with fractional prime exponents.  True sums of rational
  powers of rationals (the lemma sides that are not power products) live
  here.  Equality
  is decided by canonical cancellation: distinct canonical radicals are
  linearly independent over QQ, so a merged difference is zero iff it is
  empty.  Strict signs are decided by outward-rounded rational intervals
  from integer n-th roots, refined until separation.

radical_product is the one place products of powers are built, over
rational and RadicalSum bases alike, and _refine_sign the one
precision-doubling sign loop: the coprime basis refines log intervals
with it, and RadicalSum.sign root intervals.  inequalities.decide is the
one caller that picks between the comparators: a check whose bases are
all rational goes to compare_power_products, any other to
compare_radical_products.
"""

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple

from homlab.errors import InvalidArgument, LimitExceeded
from homlab.ratmath import coprime_basis, factorize, integer_nth_root

# Estimated cleared size (bits) above which compare_power_products
# switches from exponent clearing to the coprime basis.  Set at the
# measured crossover on reverse-Sidorenko cells with general 2-spin models
# (2-vCPU VM, CPython 3.11.7): at 5.3e4 bits clearing takes 0.8 ms and the
# basis 1.3 ms; at 1.5e5 bits, 6.2 ms and 1.2 ms; at 2.9e6 bits, 1.2 s and
# 2.8 ms.  The benchmark scans' comparisons stay near 10^4 bits or below.
CLEARING_MAX_BITS = 10 ** 5
# Estimated cleared size (bits) up to which a difference the log intervals
# leave undecided at _INTERVAL_MAX_DIGITS is still cleared; above it the
# comparison raises LimitExceeded.  Clearing 40 random factors took 0.04 s
# at 2.9e5 bits, 0.3 s at 1.0e6, 0.8-1.0 s at 2.0e6 and 3 s at 3.6e6
# (2-vCPU VM, CPython 3.11.7), so this keeps the last step near 1 s.
# The bound matters: the estimate grows with the lcm of the exponent
# denominators, and lcm(1..24) alone is 5.4e9.
CLEARING_LIMIT_BITS = 2 * 10 ** 6
_INTERVAL_START_DIGITS = 60
_INTERVAL_MAX_DIGITS = 4000
_ROOT_START_BITS = 48
_ROOT_MAX_BITS = 1 << 16


class Comparison(NamedTuple):
    ordering: str  # "less" | "equal" | "greater"
    # Always True.  perfbench's tracer reads `.exact` off every
    # compare_power_products result, so the field stays.
    exact: bool


_ORDERING = {-1: "less", 0: "equal", 1: "greater"}


@dataclass(frozen=True)
class PowerProduct:
    """Product of (base, exponent) factors with positive rational bases.

    Normalized: equal bases merged, unit bases and zero exponents dropped,
    factors sorted by base.
    """

    factors: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def of(*factors) -> "PowerProduct":
        # Merged by the int pair (numerator, denominator): hashing a
        # Fraction costs a modular inverse.
        merged: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
        for base, exponent in factors:
            # Callers mostly pass Fractions, and Fraction(x) would copy them.
            if not isinstance(base, Fraction):
                base = Fraction(base)
            if not isinstance(exponent, Fraction):
                exponent = Fraction(exponent)
            if base.numerator <= 0:
                raise InvalidArgument("power product bases must be positive, got %s" % base)
            key = base.numerator, base.denominator
            if key in merged:
                exponent += merged[key][1]
            merged[key] = base, exponent
        merged.pop((1, 1), None)
        return PowerProduct(tuple(sorted((f for f in merged.values() if f[1].numerator), key=itemgetter(0))))

    def __mul__(self, other: "PowerProduct") -> "PowerProduct":
        return PowerProduct.of(*self.factors, *other.factors)

    def __pow__(self, exponent) -> "PowerProduct":
        e = Fraction(exponent)
        return PowerProduct.of(*((b, x * e) for b, x in self.factors))

    def as_fraction(self):
        """Exact rational value when all exponents are integral, else None."""
        if any(e.denominator != 1 for _, e in self.factors):
            return None
        out = Fraction(1)
        for b, e in self.factors:
            out *= b ** e
        return out

    def log10(self) -> float:
        """Float log10 of the value; reporting only, never decides."""
        import math

        total = 0.0
        for b, e in self.factors:
            total += float(e) * (math.log10(b.numerator) - math.log10(b.denominator))
        return total

    def __repr__(self):
        if not self.factors:
            return "PowerProduct(1)"
        return "PowerProduct(%s)" % " * ".join(
            "%s^%s" % (b, e) for b, e in self.factors
        )


def _exact_bit_estimate(factors, scale: int) -> int:
    """Bits of prod b^(e * scale) over (b, e) factors, with scale a common
    multiple of the exponent denominators; int exponents take scale 1."""
    bits = 0
    for base, exponent in factors:
        k = abs(exponent.numerator * (scale // exponent.denominator))
        bits += k * max(base.numerator.bit_length(), base.denominator.bit_length())
    return bits


def compare_power_products(lhs: PowerProduct, rhs: PowerProduct) -> Comparison:
    """Exact ordering of two power products.

    Both sides' exponents are put over one common denominator as ints and
    merged into one difference, which is reduced to the lcm of its
    surviving exponent denominators.  Up to CLEARING_MAX_BITS (estimated)
    the difference is cleared: its int exponents raise big integers that
    are compared.  Above it, the difference is written over a coprime
    basis of its numerators and denominators: a zero exponent vector means
    equal, and otherwise the sign of the log sum comes from rigorous log
    intervals.  Intervals that still overlap at their precision cap are
    finished by clearing, up to CLEARING_LIMIT_BITS; beyond that the
    comparison raises LimitExceeded.  Every verdict is exact.
    """
    common = lcm(*(e.denominator for _, e in lhs.factors), *(e.denominator for _, e in rhs.factors))
    merged: dict[tuple[int, int], tuple[Fraction, int]] = {}
    for sign, side in ((1, lhs), (-1, rhs)):
        for base, e in side.factors:
            k = sign * e.numerator * (common // e.denominator)
            key = base.numerator, base.denominator
            if key in merged:
                k += merged[key][1]
            merged[key] = base, k
    diff = [f for f in merged.values() if f[1]]
    if not diff:
        return Comparison("equal", True)
    # Over divisors of common, the lcm of the reduced denominators
    # common / gcd(common, k) is common / gcd(common, every k).
    g = gcd(common, *(k for _, k in diff))
    scale = common // g
    diff = [(base, k // g) for base, k in diff]
    bits = _exact_bit_estimate(diff, 1)
    if bits > CLEARING_MAX_BITS:
        # In base order, as a normalized PowerProduct lists its factors:
        # the basis, and so the interval refinement, depend on the order.
        ordering = _compare_by_basis(sorted((base, Fraction(k, scale)) for base, k in diff))
        if ordering:
            return Comparison(ordering, True)
        if bits > CLEARING_LIMIT_BITS:
            raise LimitExceeded(
                "log-interval comparison undecided at %d digits, and clearing would take an estimated %d bits"
                % (_INTERVAL_MAX_DIGITS, bits)
            )
    return Comparison(_compare_by_clearing(diff, 1), True)


def _compare_by_clearing(diff_factors, scale: int) -> str:
    """Ordering of prod b^e against 1: raise to the power `scale` (a common
    multiple of the exponent denominators; 1 for int exponents) and compare
    big integers."""
    num = den = 1
    for base, exponent in diff_factors:
        k = exponent.numerator * (scale // exponent.denominator)
        if k > 0:
            num *= base.numerator ** k
            den *= base.denominator ** k
        else:
            num *= base.denominator ** (-k)
            den *= base.numerator ** (-k)
    if num == den:
        return "equal"
    return "less" if num < den else "greater"


def _compare_by_basis(diff_factors) -> str | None:
    """Ordering of prod b^e against 1, written as prod p^E_p over a coprime
    basis of the numerators and denominators; None when the log intervals
    still overlap at _INTERVAL_MAX_DIGITS.

    Each valuation is exact by repeated division, because the other basis
    elements are coprime to p.  Pairwise-coprime integers > 1 are
    multiplicatively independent, so the product is 1 exactly when every
    E_p is zero; otherwise sum E_p ln p is nonzero and has a sign.
    """
    numbers = [n for base, _ in diff_factors for n in (base.numerator, base.denominator)]
    vector = dict.fromkeys(coprime_basis(numbers), Fraction(0))
    for base, exponent in diff_factors:
        for n, e in ((base.numerator, exponent), (base.denominator, -exponent)):
            for p in vector:
                k = 0
                while n % p == 0:
                    n //= p
                    k += 1
                vector[p] += k * e
    nonzero = [(p, e) for p, e in vector.items() if e]
    if not nonzero:
        return "equal"
    sign = _refine_sign(nonzero, _ln_interval, _INTERVAL_START_DIGITS, _INTERVAL_MAX_DIGITS)
    return _ORDERING[sign] if sign else None


def _ln_interval(n: int, digits: int) -> tuple[Fraction, Fraction]:
    """Rigorous [lo, hi] enclosure of ln(n) for a positive integer n.

    decimal guarantees correct rounding for ln(), so the true value is
    within one ulp of the returned Decimal.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 4
        d = Decimal(n).ln()
        ulp = Decimal(1).scaleb(d.adjusted() - digits + 1)
        lo = Fraction(d - ulp)
        hi = Fraction(d + ulp)
    return lo, hi


def _refine_sign(terms, enclose, precision: int, cap: int) -> int:
    """Sign of sum c * v(x) over terms (x, c), from rigorous enclosures
    enclose(x, precision) -> (lo, hi) of v(x) at doubling precision up to
    cap.  Never says zero from the intervals: it returns 0 only when they
    still straddle 0 past the cap, and the caller decides what that means.
    """
    while precision <= cap:
        lo_total = hi_total = Fraction(0)
        for x, c in terms:
            lo, hi = enclose(x, precision)
            if c >= 0:
                lo_total += c * lo
                hi_total += c * hi
            else:
                lo_total += c * hi
                hi_total += c * lo
        if hi_total < 0:
            return -1
        if lo_total > 0:
            return 1
        precision *= 2
    return 0


# ---------------------------------------------------------------------------
# Radical sums.


RadKey = tuple[tuple[int, Fraction], ...]  # ((prime, exponent in (0,1)), ...)


def _key_mul(k1: RadKey, k2: RadKey) -> tuple[Fraction, RadKey]:
    """Multiply two radical keys; integer parts spill into a coefficient."""
    exps = dict(k1)
    for p, e in k2:
        exps[p] = exps.get(p, Fraction(0)) + e
    return _spill(exps)


def _spill(exps: dict[int, Fraction]) -> tuple[Fraction, RadKey]:
    """Split prime exponents into a rational coefficient (the integer
    parts) and a radical key (the fractional parts, in (0, 1))."""
    coef = Fraction(1)
    key = []
    for p in sorted(exps):
        e = exps[p]
        whole = e.numerator // e.denominator  # floor for signed Fractions
        frac = e - whole
        if whole:
            coef *= Fraction(p) ** whole
        if frac:
            key.append((p, frac))
    return coef, tuple(key)


def _key_root_interval(key: RadKey, bits: int) -> tuple[Fraction, Fraction]:
    """Rigorous [lo, hi] for prod p^{e_p}, via one integer n-th root."""
    if not key:
        return Fraction(1), Fraction(1)
    n = lcm(*(e.denominator for _, e in key))
    radicand = 1
    for p, e in key:
        radicand *= p ** int(e * n)
    scaled = radicand * (1 << (bits * n))
    root = integer_nth_root(scaled, n)
    return Fraction(root, 1 << bits), Fraction(root + 1, 1 << bits)


class RadicalSum:
    """QQ-linear combination of canonical radicals; exact add/mul/pow/sign."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[RadKey, Fraction] | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @staticmethod
    def from_rational(x) -> "RadicalSum":
        x = Fraction(x)
        return RadicalSum({(): x} if x else {})

    @staticmethod
    def from_power(base, exponent) -> "RadicalSum":
        """base^exponent for nonnegative rational base; 0^positive is 0.

        An integral exponent gives the rational base^exponent directly;
        only a fractional one factorizes the base into canonical radicals.
        """
        base = Fraction(base)
        exponent = Fraction(exponent)
        if base < 0:
            raise InvalidArgument("radical bases must be nonnegative")
        if base == 0 and exponent < 0:
            raise ZeroDivisionError("0 to a negative power")
        if exponent.denominator == 1 or base == 0:
            return RadicalSum.from_rational(base ** exponent.numerator)
        exps = {p: k * exponent for p, k in factorize(base.numerator).items()}
        # numerator and denominator are coprime, so no prime is in both
        exps.update((p, -k * exponent) for p, k in factorize(base.denominator).items())
        coef, key = _spill(exps)
        return RadicalSum({key: coef})

    def __add__(self, other: "RadicalSum") -> "RadicalSum":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return RadicalSum(out)

    def __sub__(self, other: "RadicalSum") -> "RadicalSum":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) - c
        return RadicalSum(out)

    def __mul__(self, other: "RadicalSum") -> "RadicalSum":
        out: dict[RadKey, Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                coef, key = _key_mul(k1, k2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2 * coef
        return RadicalSum(out)

    def scale(self, x) -> "RadicalSum":
        x = Fraction(x)
        return RadicalSum({k: c * x for k, c in self.terms.items()})

    def int_pow(self, k: int) -> "RadicalSum":
        if k < 0:
            raise InvalidArgument("only nonnegative integer powers of sums")
        result = RadicalSum.from_rational(1)
        square = self
        while k:
            if k & 1:
                result = result * square
            square = square * square if k > 1 else square
            k >>= 1
        return result

    def rational_pow(self, exponent) -> "RadicalSum":
        """Arbitrary rational power; only legal for single-term sums."""
        exponent = Fraction(exponent)
        if exponent.denominator == 1 and exponent >= 0:
            return self.int_pow(int(exponent))
        if not self.terms:
            return RadicalSum.from_power(0, exponent)
        if len(self.terms) != 1:
            raise InvalidArgument("cannot take fractional power of a true sum")
        ((key, coef),) = self.terms.items()
        if coef < 0:
            raise InvalidArgument("cannot take fractional power of a negative value")
        # The key's primes are known, so only the coefficient is factorized.
        spilled, root = _spill({p: e * exponent for p, e in key})
        return RadicalSum.from_power(coef, exponent) * RadicalSum({root: spilled})

    def is_atomic(self) -> bool:
        return len(self.terms) <= 1

    def as_fraction(self):
        if not self.terms:
            return Fraction(0)
        if set(self.terms) == {()}:
            return self.terms[()]
        return None

    def sign(self) -> int:
        """Exact sign: canonical cancellation plus interval refinement.

        Distinct canonical radicals are linearly independent over QQ, so a
        nonempty term dict has a nonzero value and _refine_sign terminates
        on root intervals; it raises LimitExceeded if it has not by
        _ROOT_MAX_BITS.
        """
        if not self.terms:
            return 0
        if all(c > 0 for c in self.terms.values()):
            return 1
        if all(c < 0 for c in self.terms.values()):
            return -1
        sign = _refine_sign(self.terms.items(), _key_root_interval, _ROOT_START_BITS, _ROOT_MAX_BITS)
        if not sign:
            raise LimitExceeded("radical sum sign undecided at %d bits" % _ROOT_MAX_BITS)
        return sign

    def float_value(self) -> float:
        total = 0.0
        for key, coef in self.terms.items():
            lo, hi = _key_root_interval(key, 64)
            total += float(coef) * (float(lo) + float(hi)) / 2
        return total

    def __repr__(self):
        if not self.terms:
            return "RadicalSum(0)"
        parts = []
        for key, coef in sorted(self.terms.items()):
            if key:
                rad = "*".join("%d^%s" % (p, e) for p, e in key)
                parts.append("%s*%s" % (coef, rad))
            else:
                parts.append(str(coef))
        return "RadicalSum(%s)" % " + ".join(parts)


def radical_product(factors) -> RadicalSum:
    """prod base^exponent as one RadicalSum, over (base, exponent) pairs
    whose base is a nonnegative rational or RadicalSum.

    A rational base goes through from_power and a RadicalSum through
    rational_pow, so a single-term sum takes any rational exponent and a
    true sum only a nonnegative integral one (InvalidArgument otherwise).
    """
    out = RadicalSum.from_rational(1)
    for base, exponent in factors:
        if isinstance(base, RadicalSum):
            out = out * base.rational_pow(exponent)
        else:
            out = out * RadicalSum.from_power(base, exponent)
    return out


def compare_radical_products(lhs_factors, rhs_factors) -> Comparison:
    """Compare prod F_i^{e_i} vs prod G_j^{f_j} where each F/G is a
    nonnegative rational or RadicalSum and each exponent is rational.

    Both sides are raised to the lcm of the exponent denominators attached
    to true sums (monotone on nonnegatives), built by radical_product, and
    compared by exact sign of the difference.
    """
    scale = lcm(
        *(
            Fraction(e).denominator
            for factors in (lhs_factors, rhs_factors)
            for s, e in factors
            if isinstance(s, RadicalSum) and not s.is_atomic()
        )
    )
    lhs, rhs = ([(s, Fraction(e) * scale) for s, e in factors] for factors in (lhs_factors, rhs_factors))
    return Comparison(_ORDERING[(radical_product(lhs) - radical_product(rhs)).sign()], True)
