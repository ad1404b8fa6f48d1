"""Exact comparison of fractional-power expressions.

Two layers:

* PowerProduct -- a formal product of positive rational bases raised to
  rational exponents, compared exactly: small cases by clearing exponent
  denominators into big integers, large ones over a coprime basis of the
  bases (equality from the exponent vector, strict signs from rigorous
  log intervals built on the decimal module's correctly rounded ln,
  finished by clearing when the intervals reach their precision cap).

* RadicalSum -- a QQ-linear combination of canonical radicals
  prod_p p^{e_p} with fractional prime exponents.  True sums of rational
  powers of rationals (the lemma sides that are not power products) live
  here.  Equality
  is decided by canonical cancellation: distinct canonical radicals are
  linearly independent over QQ, so a merged difference is zero iff it is
  empty.  Strict signs are decided by outward-rounded rational intervals
  from integer n-th roots, refined until separation.

inequalities.decide is the one caller that picks between them: a check
whose bases are all rational goes to compare_power_products, any other to
compare_radical_products with its rational factors lifted as single-term
sums.
"""

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm
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


@dataclass(frozen=True)
class PowerProduct:
    """Product of (base, exponent) factors with positive rational bases.

    Normalized: equal bases merged, unit bases and zero exponents dropped,
    factors sorted by base.
    """

    factors: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def of(*factors) -> "PowerProduct":
        merged: dict[Fraction, Fraction] = {}
        for base, exponent in factors:
            # Callers mostly pass Fractions, and Fraction(x) would copy them.
            if not isinstance(base, Fraction):
                base = Fraction(base)
            if not isinstance(exponent, Fraction):
                exponent = Fraction(exponent)
            if base <= 0:
                raise InvalidArgument("power product bases must be positive, got %s" % base)
            merged[base] = merged[base] + exponent if base in merged else exponent
        kept = tuple(
            sorted((b, e) for b, e in merged.items() if e != 0 and b != 1)
        )
        return PowerProduct(kept)

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
    bits = 0
    for base, exponent in factors:
        k = abs(int(exponent * scale))
        bits += k * max(base.numerator.bit_length(), base.denominator.bit_length())
    return bits


def compare_power_products(lhs: PowerProduct, rhs: PowerProduct) -> Comparison:
    """Exact ordering of two power products.

    The two sides are merged into one difference.  Up to CLEARING_MAX_BITS
    (estimated) the exponent denominators are cleared with their lcm and
    big-integer powers are compared.  Above it, the difference is written
    over a coprime basis of its numerators and denominators: a zero
    exponent vector means equal, and otherwise the sign of the log sum
    comes from rigorous log intervals.  Intervals that still overlap at
    their precision cap are finished by clearing, up to
    CLEARING_LIMIT_BITS; beyond that the comparison raises LimitExceeded.
    Every verdict is exact.
    """
    diff = PowerProduct.of(*lhs.factors, *((b, -e) for b, e in rhs.factors)).factors
    if not diff:
        return Comparison("equal", True)
    scale = lcm(*(e.denominator for _, e in diff))
    bits = _exact_bit_estimate(diff, scale)
    if bits > CLEARING_MAX_BITS:
        try:
            return Comparison(_compare_by_basis(diff), True)
        except LimitExceeded as exc:
            if bits > CLEARING_LIMIT_BITS:
                raise LimitExceeded("%s, and clearing would take an estimated %d bits" % (exc, bits)) from None
    return Comparison(_compare_by_clearing(diff, scale), True)


def _compare_by_clearing(diff_factors, scale: int) -> str:
    """Ordering of prod b^e against 1: raise to the power `scale` (a common
    multiple of the exponent denominators) and compare big integers."""
    num = den = 1
    for base, exponent in diff_factors:
        k = int(exponent * scale)
        if k > 0:
            num *= base.numerator ** k
            den *= base.denominator ** k
        else:
            num *= base.denominator ** (-k)
            den *= base.numerator ** (-k)
    if num == den:
        return "equal"
    return "less" if num < den else "greater"


def _compare_by_basis(diff_factors) -> str:
    """Ordering of prod b^e against 1, written as prod p^E_p over a coprime
    basis of the numerators and denominators.

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
    return _sign_by_log_intervals(nonzero) if nonzero else "equal"


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


def _sign_by_log_intervals(vector) -> str:
    """Ordering of prod p^E against 1 for integer p > 1, from rigorous
    enclosures of sum E ln p at doubling precision.  Never returns
    "equal": overlapping intervals at the retry cap raise LimitExceeded.
    """
    digits = _INTERVAL_START_DIGITS
    while digits <= _INTERVAL_MAX_DIGITS:
        lo_total = hi_total = Fraction(0)
        for p, exponent in vector:
            ends = [exponent * x for x in _ln_interval(p, digits)]
            lo_total += min(ends)
            hi_total += max(ends)
        if hi_total < 0:
            return "less"
        if lo_total > 0:
            return "greater"
        digits *= 2
    raise LimitExceeded("log-interval comparison undecided at %d digits" % _INTERVAL_MAX_DIGITS)


# ---------------------------------------------------------------------------
# Radical sums.


RadKey = tuple[tuple[int, Fraction], ...]  # ((prime, exponent in (0,1)), ...)


def _atom(base, exponent) -> tuple[Fraction, RadKey]:
    """Canonicalize base^exponent into (rational coefficient, radical key)."""
    base = Fraction(base)
    exponent = Fraction(exponent)
    if base <= 0:
        raise InvalidArgument("radical bases must be positive")
    if base == 1 or exponent == 0:
        return Fraction(1), ()
    exps = {p: k * exponent for p, k in factorize(base.numerator).items()}
    # numerator and denominator are coprime, so no prime is in both
    exps.update((p, -k * exponent) for p, k in factorize(base.denominator).items())
    return _spill(exps)


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
        """base^exponent for positive rational base; 0^positive is 0."""
        base = Fraction(base)
        exponent = Fraction(exponent)
        if base == 0:
            if exponent == 0:
                return RadicalSum.from_rational(1)
            if exponent > 0:
                return RadicalSum()
            raise ZeroDivisionError("0 to a negative power")
        coef, key = _atom(base, exponent)
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
            if exponent > 0:
                return RadicalSum()
            raise ZeroDivisionError("0 to a nonpositive power")
        if len(self.terms) != 1:
            raise InvalidArgument("cannot take fractional power of a true sum")
        ((key, coef),) = self.terms.items()
        if coef < 0:
            raise InvalidArgument("cannot take fractional power of a negative value")
        out = RadicalSum.from_power(coef, exponent)
        for p, e in key:
            out = out * RadicalSum.from_power(p, e * exponent)
        return out

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
        nonempty term dict has a nonzero value and refinement terminates;
        it raises LimitExceeded if it has not by _ROOT_MAX_BITS.
        """
        if not self.terms:
            return 0
        if all(c > 0 for c in self.terms.values()):
            return 1
        if all(c < 0 for c in self.terms.values()):
            return -1
        bits = _ROOT_START_BITS
        while bits <= _ROOT_MAX_BITS:
            lo_total = Fraction(0)
            hi_total = Fraction(0)
            for key, coef in self.terms.items():
                lo_r, hi_r = _key_root_interval(key, bits)
                if coef >= 0:
                    lo_total += coef * lo_r
                    hi_total += coef * hi_r
                else:
                    lo_total += coef * hi_r
                    hi_total += coef * lo_r
            if hi_total < 0:
                return -1
            if lo_total > 0:
                return 1
            bits *= 2
        raise LimitExceeded("radical sum sign undecided at %d bits" % _ROOT_MAX_BITS)

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


def power_product_to_radical(p: PowerProduct) -> RadicalSum:
    out = RadicalSum.from_rational(1)
    for base, exponent in p.factors:
        out = out * RadicalSum.from_power(base, exponent)
    return out


def compare_radical_products(lhs_factors, rhs_factors) -> Comparison:
    """Compare prod F_i^{e_i} vs prod G_j^{f_j} where each F/G is a
    nonnegative RadicalSum and each exponent is rational.

    Both sides are raised to the lcm of the exponent denominators attached
    to non-atomic factors (monotone on nonnegatives), expanded into single
    RadicalSums, and compared by exact sign of the difference.
    """
    denominators = [
        Fraction(e).denominator
        for factors in (lhs_factors, rhs_factors)
        for s, e in factors
        if not s.is_atomic()
    ]
    scale = lcm(*denominators)

    def side(factors) -> RadicalSum:
        out = RadicalSum.from_rational(1)
        for s, e in factors:
            e = Fraction(e) * scale
            if s.is_atomic():
                out = out * s.rational_pow(e)
            else:
                if e.denominator != 1:
                    raise InvalidArgument("non-integral exponent on a sum after scaling")
                out = out * s.int_pow(int(e))
        return out

    diff = side(lhs_factors) - side(rhs_factors)
    s = diff.sign()
    ordering = "equal" if s == 0 else ("less" if s < 0 else "greater")
    return Comparison(ordering, True)
