import math
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cleared_bits_oracle, clearing_oracle
from homlab.errors import InvalidArgument, LimitExceeded
from homlab import power
from homlab.power import (
    CLEARING_LIMIT_BITS,
    CLEARING_MAX_BITS,
    PowerProduct,
    RadicalSum,
    _compare_by_basis,
    _ln_interval,
    _refine_sign,
    _spill,
    compare_power_products,
    compare_radical_products,
    radical_product,
)
from homlab.inequalities import clamp_slack, decide
from homlab.ratmath import coprime_basis, factorize

fractions_pos = st.fractions(min_value=Fraction(1, 20), max_value=20)
fractions_exp = st.fractions(min_value=-4, max_value=4)


def rand_product(rng, nfactors=3) -> PowerProduct:
    return PowerProduct.of(
        *(
            (
                Fraction(rng.randrange(1, 60), rng.randrange(1, 9)),
                Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
            )
            for _ in range(nfactors)
        )
    )


class TestPowerProduct:
    def test_normalization_merges_bases(self):
        p = PowerProduct.of((2, Fraction(1, 2)), (2, Fraction(1, 2)))
        assert p.factors == ((Fraction(2), Fraction(1)),)
        assert p.as_fraction() == 2
        # Ints are wrapped, Fractions taken as they are; both merge alike.
        q = PowerProduct.of((3, 2), (Fraction(2), Fraction(1, 3)), (Fraction(3), -1))
        assert q.factors == ((Fraction(2), Fraction(1, 3)), (Fraction(3), Fraction(1)))
        assert all(type(b) is Fraction and type(e) is Fraction for b, e in q.factors)

    def test_unit_base_dropped(self):
        assert PowerProduct.of((1, 5), (3, 0)).factors == ()

    def test_positive_base_required(self):
        with pytest.raises(InvalidArgument):
            PowerProduct.of((0, 1))
        with pytest.raises(InvalidArgument):
            PowerProduct.of((-2, 1))

    def test_mul_and_pow(self):
        p = PowerProduct.of((2, 1)) * PowerProduct.of((3, Fraction(1, 2)))
        assert (p ** 2).as_fraction() == 12


class TestCompareExamples:
    def test_66_vs_18_to_three_halves(self):
        got = compare_power_products(
            PowerProduct.of((66, 1)), PowerProduct.of((18, Fraction(3, 2)))
        )
        assert got.ordering == "less" and got.exact
        assert 66 ** 2 == 4356 and 18 ** 3 == 5832  # the cleared comparison

    def test_sqrt2_squared_equals_two(self):
        got = compare_power_products(
            PowerProduct.of((2, Fraction(1, 2)), (2, Fraction(1, 2))),
            PowerProduct.of((2, 1)),
        )
        assert got == ("equal", True)

    def test_widom_rowlinson_violation_numbers(self):
        got = compare_power_products(
            PowerProduct.of((113, 1)),
            PowerProduct.of((7, 2), (63, Fraction(1, 5))),
        )
        assert got.ordering == "greater" and got.exact
        assert 113 ** 5 == 18424351793
        assert 7 ** 10 * 63 == 17795940687


class TestCompareProperties:
    def test_antisymmetry_and_transitivity(self):
        rng = random.Random(31)
        flip = {"less": "greater", "greater": "less", "equal": "equal"}
        for _ in range(300):
            a, b, c = (rand_product(rng) for _ in range(3))
            ab = compare_power_products(a, b).ordering
            ba = compare_power_products(b, a).ordering
            assert ba == flip[ab]
            bc = compare_power_products(b, c).ordering
            ac = compare_power_products(a, c).ordering
            if ab == bc != "equal":
                assert ac == ab
            if ab == "equal" and bc == "equal":
                assert ac == "equal"

    def test_exact_and_interval_paths_agree(self):
        # Exponent clearing against the coprime basis with interval signs.
        rng = random.Random(32)
        counts = {"less": 0, "equal": 0, "greater": 0}
        for i in range(1000):
            a = rand_product(rng)
            # Every fourth pair is equal in value but written over other
            # bases: b^e as (b^2)^(e/2), and c as (c * 4/9) * (3/2)^2.
            if i % 4 == 0:
                c = Fraction(rng.randrange(1, 60), rng.randrange(1, 9))
                b = PowerProduct.of(*((base ** 2, e / 2) for base, e in a.factors), (c * Fraction(4, 9), 1), (Fraction(3, 2), 2))
                a = a * PowerProduct.of((c, 1))
            else:
                b = rand_product(rng)
            diff = (a * b ** -1).factors
            if not diff:
                continue
            scale = lcm(*(e.denominator for _, e in diff))
            ordering = clearing_oracle(diff, scale)
            assert _compare_by_basis(diff) == ordering, (a, b)
            assert compare_power_products(a, b) == (ordering, True)
            counts[ordering] += 1
        assert counts["equal"] >= 200 and counts["less"] > 300 and counts["greater"] > 300

    def test_interval_path_never_says_equal(self):
        # 4^(1/2) / 2 is exactly 1; the sign step alone cannot tell, so it
        # gives up (0) at its cap.  A cap of 480 digits keeps this fast;
        # the claim is the same at any cap.
        assert _refine_sign([(4, Fraction(1, 2)), (2, Fraction(-1))], _ln_interval, 60, 480) == 0

    def test_interval_sign_separates(self):
        # 2^(1/2) = 1.4142... < 3^(1/3) = 1.4422...
        cap = power._INTERVAL_MAX_DIGITS
        assert _refine_sign([(2, Fraction(1, 2)), (3, Fraction(-1, 3))], _ln_interval, 60, cap) == -1
        assert _refine_sign([(2, Fraction(-1, 2)), (3, Fraction(1, 3))], _ln_interval, 60, cap) == 1

    @settings(max_examples=60, deadline=None)
    @given(base=fractions_pos, e1=fractions_exp, e2=fractions_exp)
    def test_same_base_ordering_matches_exponents(self, base, e1, e2):
        p1 = PowerProduct.of((base, e1))
        p2 = PowerProduct.of((base, e2))
        got = compare_power_products(p1, p2).ordering
        if base == 1 or e1 == e2:
            assert got == "equal"
        elif base > 1:
            assert got == ("less" if e1 < e2 else "greater")
        else:
            assert got == ("less" if e1 > e2 else "greater")


def product_over(basis, n):
    """Exponents of n over a coprime basis, or None if n is not a product
    of basis powers."""
    exps = []
    for p in basis:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        exps.append(k)
    return exps if n == 1 else None


class TestCoprimeBasis:
    def test_invariants_on_random_lists(self):
        rng = random.Random(34)
        primes = [2, 3, 5, 7, 11, 13, 2 ** 61 - 1]
        for _ in range(300):
            numbers = []
            for _ in range(rng.randrange(1, 7)):
                n = rng.choice([1, rng.randrange(1, 10 ** 6)])
                for _ in range(rng.randrange(0, 4)):
                    n *= rng.choice(primes) ** rng.randrange(1, 4)
                numbers.append(n)
            numbers += rng.sample(numbers, min(2, len(numbers)))  # duplicates
            basis = coprime_basis(numbers)
            assert basis == sorted(basis) and all(p > 1 for p in basis)
            for i, p in enumerate(basis):
                for r in basis[i + 1:]:
                    assert gcd(p, r) == 1, (numbers, basis)
            for n in numbers:
                exps = product_over(basis, n)
                assert exps is not None, (n, basis)
                assert math.prod(p ** k for p, k in zip(basis, exps)) == n

    def test_small_cases(self):
        assert coprime_basis([]) == [] and coprime_basis([1, 1]) == []
        assert coprime_basis([12, 18]) == [2, 3]
        assert coprime_basis([6, 10, 15]) == [2, 3, 5]
        assert coprime_basis([4, 8, 9, 27]) == [2, 3]
        assert coprime_basis([35, 35]) == [35]


class TestBasisOnlyEqualities:
    """Equalities above CLEARING_MAX_BITS, where the coprime basis
    decides; a log interval alone could never say equal."""

    P = 2 ** 127 - 1  # a Mersenne prime
    A = 3 ** 40000 + 2  # about 63,400 bits
    B = 5 ** 30000 + 4  # about 69,700 bits

    def assert_basis_equal(self, lhs, rhs):
        diff = (lhs * rhs ** -1).factors
        assert diff
        assert cleared_bits_oracle(diff, lcm(*(e.denominator for _, e in diff))) > CLEARING_MAX_BITS
        assert compare_power_products(lhs, rhs) == ("equal", True)
        assert compare_power_products(rhs, lhs) == ("equal", True)

    def test_root_of_a_square(self):
        self.assert_basis_equal(PowerProduct.of((self.A ** 2, Fraction(1, 2))), PowerProduct.of((self.A, 1)))
        self.assert_basis_equal(PowerProduct.of((self.P ** 1000, Fraction(1, 1000))), PowerProduct.of((self.P, 1)))

    def test_cube_root_of_a_ratio_of_cubes(self):
        ratio = Fraction(self.A, self.B)
        self.assert_basis_equal(PowerProduct.of((ratio ** 3, Fraction(1, 3))), PowerProduct.of((ratio, 1)))

    def test_product_of_roots(self):
        # 12^(1/2) * 3^(1/2) = 6 with 2 -> A and 3 -> B.
        self.assert_basis_equal(
            PowerProduct.of((self.A ** 2 * self.B, Fraction(1, 2)), (self.B, Fraction(1, 2))),
            PowerProduct.of((self.A * self.B, 1)),
        )

    def test_near_equality_is_strict(self):
        # The ratio is (1 + 10^-20)^(1/2), within the interval loop's reach.
        lhs = PowerProduct.of((self.A ** 2 * Fraction(10 ** 20 + 1, 10 ** 20), Fraction(1, 2)))
        rhs = PowerProduct.of((self.A, 1))
        assert compare_power_products(lhs, rhs) == ("greater", True)
        assert compare_power_products(rhs, lhs) == ("less", True)

    def found_case(self):
        # (A^2 + 1)^(1/2) against A: the log ratio is about 10^-38000, far
        # below the interval loop's cap, and the clearing estimate is about
        # 2.5e5 bits.
        lhs = PowerProduct.of((self.A ** 2 + 1, Fraction(1, 2)))
        rhs = PowerProduct.of((self.A, 1))
        diff = (lhs * rhs ** -1).factors
        bits = cleared_bits_oracle(diff, lcm(*(e.denominator for _, e in diff)))
        return lhs, rhs, bits

    def test_interval_cap_finishes_by_clearing(self):
        lhs, rhs, bits = self.found_case()
        assert CLEARING_MAX_BITS < bits <= CLEARING_LIMIT_BITS
        assert compare_power_products(lhs, rhs) == ("greater", True)

    def test_interval_cap_past_clearing_limit_raises(self, monkeypatch):
        lhs, rhs, bits = self.found_case()
        # A short interval loop keeps this fast; the case stays undecided.
        monkeypatch.setattr(power, "_INTERVAL_MAX_DIGITS", 240)
        assert compare_power_products(rhs, lhs) == ("less", True)
        monkeypatch.setattr(power, "CLEARING_LIMIT_BITS", bits - 1)
        with pytest.raises(LimitExceeded, match="undecided at 240 digits"):
            compare_power_products(rhs, lhs)


class TestRadicalSum:
    def test_canonical_merging(self):
        sqrt8 = RadicalSum.from_power(8, Fraction(1, 2))
        two_sqrt2 = RadicalSum.from_power(2, Fraction(1, 2)).scale(2)
        assert (sqrt8 - two_sqrt2).sign() == 0

    def test_product_of_conjugates(self):
        a = RadicalSum.from_rational(1) + RadicalSum.from_power(2, Fraction(1, 2))
        b = RadicalSum.from_rational(-1) + RadicalSum.from_power(2, Fraction(1, 2))
        assert (a * b).as_fraction() == 1

    def test_sign_with_mixed_terms(self):
        # sqrt(2) + sqrt(3) - sqrt(10) < 0
        s = (
            RadicalSum.from_power(2, Fraction(1, 2))
            + RadicalSum.from_power(3, Fraction(1, 2))
            - RadicalSum.from_power(10, Fraction(1, 2))
        )
        assert s.sign() == -1

    def test_sign_past_precision_cap_raises(self, monkeypatch):
        s = RadicalSum.from_power(2, Fraction(1, 2)) - RadicalSum.from_rational(Fraction(141421, 100000))
        assert s.sign() == 1
        monkeypatch.setattr(power, "_ROOT_MAX_BITS", 8)
        with pytest.raises(LimitExceeded):
            s.sign()

    def test_int_pow(self):
        a = RadicalSum.from_power(2, Fraction(1, 2)) + RadicalSum.from_power(3, Fraction(1, 2))
        want = RadicalSum.from_rational(5) + RadicalSum.from_power(6, Fraction(1, 2)).scale(2)
        assert (a.int_pow(2) - want).sign() == 0

    def test_fractional_pow_of_sum_rejected(self):
        a = RadicalSum.from_rational(1) + RadicalSum.from_power(2, Fraction(1, 2))
        with pytest.raises(InvalidArgument):
            a.rational_pow(Fraction(1, 2))

    def test_zero_cases(self):
        zero = RadicalSum.from_power(0, Fraction(3, 2))
        assert zero.sign() == 0 and zero.as_fraction() == 0

    def test_matches_power_product_comparison(self):
        rng = random.Random(33)
        for _ in range(200):
            a, b = rand_product(rng, 2), rand_product(rng, 2)
            pp = compare_power_products(a, b)
            rad = compare_radical_products(
                [(_side_reference(a.factors), Fraction(1))],
                [(_side_reference(b.factors), Fraction(1))],
            )
            assert rad.ordering == pp.ordering
            # Rational bases are taken as they are.
            assert compare_radical_products(a.factors, b.factors) == pp

    def test_outer_fractional_exponent_on_sum(self):
        # (1 + sqrt(2))^(1/3) vs 134/99: 2.41421^(1/3) = 1.34159..., 134/99 = 1.35354...
        x = RadicalSum.from_rational(1) + RadicalSum.from_power(2, Fraction(1, 2))
        got = compare_radical_products(
            [(x, Fraction(1, 3))], [(RadicalSum.from_rational(Fraction(134, 99)), Fraction(1))]
        )
        assert got.ordering == "less"

    def test_sign_against_mpmath_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 80
        rng = random.Random(123)
        for trial in range(300):
            s = RadicalSum()
            val = mpmath.mpf(0)
            for _ in range(rng.randrange(1, 6)):
                coef = Fraction(rng.randrange(-20, 21), rng.randrange(1, 8))
                base = Fraction(rng.randrange(1, 40), rng.randrange(1, 8))
                exp = Fraction(rng.randrange(0, 9), rng.randrange(1, 7))
                s = s + RadicalSum.from_power(base, exp).scale(coef)
                val += (
                    mpmath.mpf(coef.numerator)
                    / coef.denominator
                    * mpmath.power(
                        mpmath.mpf(base.numerator) / base.denominator,
                        mpmath.mpf(exp.numerator) / exp.denominator,
                    )
                )
            want = 0 if abs(val) < mpmath.mpf(10) ** -60 else (1 if val > 0 else -1)
            assert s.sign() == want, trial


# The code radical_product replaced, kept as references: the former
# RadicalSum.from_power (which factorized every base) and rational_pow
# (which rebuilt each key prime with from_power), and
# compare_radical_products' inner side with rational bases lifted as
# single-term sums, as decide used to pass them.  power_product_to_radical
# was _side_reference over a PowerProduct's factors.


def _from_power_reference(base, exponent) -> RadicalSum:
    base, exponent = Fraction(base), Fraction(exponent)
    if base == 0:
        return RadicalSum.from_rational(1 if exponent == 0 else 0)
    exps = {p: k * exponent for p, k in factorize(base.numerator).items()}
    exps.update((p, -k * exponent) for p, k in factorize(base.denominator).items())
    coef, key = _spill(exps)
    return RadicalSum({key: coef})


def _rational_pow_reference(s: RadicalSum, exponent) -> RadicalSum:
    exponent = Fraction(exponent)
    if exponent.denominator == 1 and exponent >= 0:
        return s.int_pow(int(exponent))
    ((key, coef),) = s.terms.items()
    out = _from_power_reference(coef, exponent)
    for p, e in key:
        out = out * _from_power_reference(p, e * exponent)
    return out


def _side_reference(factors) -> RadicalSum:
    out = RadicalSum.from_rational(1)
    for s, e in factors:
        if not isinstance(s, RadicalSum):
            s = RadicalSum.from_rational(s)
        e = Fraction(e)
        if s.is_atomic():
            out = out * _rational_pow_reference(s, e)
        else:
            if e.denominator != 1:
                raise InvalidArgument("non-integral exponent on a sum after scaling")
            out = out * s.int_pow(int(e))
    return out


def _random_factor(rng):
    """A (base, exponent) factor: a positive rational, a single-term sum or
    a true sum (the last only to a nonnegative integral power)."""
    kind = rng.randrange(3)
    base = Fraction(rng.randrange(1, 60), rng.randrange(1, 9))
    exponent = Fraction(rng.randrange(-6, 7), rng.choice([1, 1, 2, 3, 4]))
    if kind == 0:
        return base, exponent
    atom = _from_power_reference(base, Fraction(rng.randrange(1, 5), rng.randrange(1, 5))).scale(rng.randrange(1, 6))
    if kind == 1:
        return atom, exponent
    other = _from_power_reference(rng.randrange(2, 30), Fraction(1, rng.randrange(2, 4)))
    return atom + other, rng.randrange(0, 4)


class TestRadicalProduct:
    def test_matches_the_reference_code(self):
        rng = random.Random(35)
        for trial in range(300):
            factors = [_random_factor(rng) for _ in range(rng.randrange(0, 5))]
            assert radical_product(factors).terms == _side_reference(factors).terms, (trial, factors)

    def test_true_sum_needs_a_nonnegative_integral_exponent(self):
        x = RadicalSum.from_rational(1) + RadicalSum.from_power(2, Fraction(1, 2))
        for exponent in (Fraction(1, 2), -1):
            with pytest.raises(InvalidArgument):
                radical_product([(x, exponent)])

    def test_integral_powers_and_key_primes_skip_factorize(self, monkeypatch):
        # 3/5 * 2^(1/2) * 7^(2/3), built before factorize is watched.
        s = RadicalSum.from_power(2, Fraction(1, 2)) * RadicalSum.from_power(49, Fraction(1, 3)).scale(Fraction(3, 5))
        seen = []
        monkeypatch.setattr(power, "factorize", lambda n: seen.append(n) or factorize(n))
        for base in (0, 1, 12, Fraction(45, 8), 10007 * 10009):
            for k in (0, 1, 3) + ((-2,) if base else ()):
                assert RadicalSum.from_power(base, k).as_fraction() == Fraction(base) ** k
        assert seen == []
        root = s.rational_pow(Fraction(3, 4))
        assert seen == [3, 5]  # the coefficient's numerator and denominator, no key prime
        assert (root.int_pow(4) - s.int_pow(3)).sign() == 0
        assert root.terms == _rational_pow_reference(s, Fraction(3, 4)).terms


# ---------------------------------------------------------------------------
# The comparator before it worked on int exponents, kept as the reference:
# PowerProduct.of merged factors by Fraction base, and compare_power_products
# normalized the difference into a PowerProduct and cleared it with
# int(e * scale).


def _of_reference(*factors):
    merged = {}
    for base, exponent in factors:
        base = base if isinstance(base, Fraction) else Fraction(base)
        exponent = exponent if isinstance(exponent, Fraction) else Fraction(exponent)
        if base <= 0:
            raise InvalidArgument("power product bases must be positive, got %s" % base)
        merged[base] = merged[base] + exponent if base in merged else exponent
    return tuple(sorted((b, e) for b, e in merged.items() if e != 0 and b != 1))


def _compare_reference(lhs, rhs):
    """(ordering, whether the coprime basis was asked) of the reference."""
    diff = _of_reference(*lhs.factors, *((b, -e) for b, e in rhs.factors))
    if not diff:
        return "equal", False
    scale = lcm(*(e.denominator for _, e in diff))
    bits = sum(abs(int(e * scale)) * max(b.numerator.bit_length(), b.denominator.bit_length()) for b, e in diff)
    if bits > CLEARING_MAX_BITS:
        ordering = _compare_by_basis(diff)
        assert ordering, "the generated pairs stay off the interval cap"
        return ordering, True
    num = den = 1
    for b, e in diff:
        k = int(e * scale)
        if k > 0:
            num *= b.numerator ** k
            den *= b.denominator ** k
        else:
            num *= b.denominator ** (-k)
            den *= b.numerator ** (-k)
    return ("equal" if num == den else "less" if num < den else "greater"), False


_DENOMINATORS = (1, 1, 2, 3, 4, 6, 12)


def _raw_exponent(rng):
    k = rng.randrange(-6, 7)
    # Ints half the time, so both kinds of exponent reach PowerProduct.of.
    return k if rng.random() < 0.5 else Fraction(k, rng.choice(_DENOMINATORS))


def _raw_factors(rng, pool, count):
    return [(rng.choice(pool), _raw_exponent(rng)) for _ in range(count)]


def _comparator_pair(rng, i):
    """Raw (lhs, rhs) factor lists, one of four shapes by i % 4."""
    pool = [1, 2, 3, 6, Fraction(1, 2), Fraction(2, 3), Fraction(9, 4), rng.randrange(2, 10 ** 6)]
    if i % 4 == 0:
        return _raw_factors(rng, pool, rng.randrange(0, 5)), _raw_factors(rng, pool, rng.randrange(0, 5))
    if i % 4 == 1:
        # Shared factors that cancel, and same-base exponents whose
        # difference has a smaller denominator than either side's; half the
        # time the rest is equal in value, written over other bases.
        shared = _raw_factors(rng, pool, rng.randrange(1, 4))
        base = rng.choice(pool[1:])
        e = Fraction(rng.randrange(-5, 6), 6)
        if rng.random() < 0.5:
            return shared + [(base ** 2, e / 2)], shared + [(base, e)]
        lhs, rhs = _raw_factors(rng, pool, rng.randrange(0, 3)), _raw_factors(rng, pool, rng.randrange(0, 3))
        return lhs + shared + [(base, e)], rhs + shared + [(base, e - Fraction(rng.randrange(-3, 4), 2))]
    # One big base whose cleared size is at most CLEARING_MAX_BITS (i % 4
    # == 2) or one base size above it (3); a fractional exponent on both
    # sides cancels.
    width = rng.randrange(40, 1500)
    big = Fraction(rng.getrandbits(width) | 1 << (width - 1), rng.choice((1, 3, 7)))
    k = CLEARING_MAX_BITS // max(big.numerator.bit_length(), big.denominator.bit_length()) + i % 4 - 2
    k = rng.choice((k, -k))
    f = Fraction(rng.randrange(-5, 6), rng.choice(_DENOMINATORS))
    return [(big, k + f)], [(big, f)]


class TestComparatorDifferential:
    def test_matches_the_reference_code(self, monkeypatch):
        calls = []
        basis = power._compare_by_basis
        monkeypatch.setattr(power, "_compare_by_basis", lambda diff: calls.append(1) or basis(diff))
        rng = random.Random(15)
        seen = {"smaller lcm": 0, "below": 0, "above": 0, "equal": 0}
        for i in range(500):
            raw_lhs, raw_rhs = _comparator_pair(rng, i)
            lhs, rhs = PowerProduct.of(*raw_lhs), PowerProduct.of(*raw_rhs)
            assert lhs.factors == _of_reference(*raw_lhs) and rhs.factors == _of_reference(*raw_rhs)
            assert all(type(b) is Fraction and type(e) is Fraction for b, e in lhs.factors + rhs.factors)
            want, took_basis = _compare_reference(lhs, rhs)
            before = len(calls)
            assert compare_power_products(lhs, rhs) == (want, True), (lhs, rhs)
            assert len(calls) - before == took_basis, (lhs, rhs)
            diff = _of_reference(*lhs.factors, *((b, -e) for b, e in rhs.factors))
            sides = [lcm(*(e.denominator for _, e in p.factors)) for p in (lhs, rhs)]
            seen["smaller lcm"] += lcm(*(e.denominator for _, e in diff)) < min(sides)
            if i % 4 >= 2:
                seen["above" if took_basis else "below"] += 1
            seen["equal"] += want == "equal"
        assert min(seen.values()) >= 20, seen

    def test_bases_must_be_positive(self):
        for base in (0, -2, Fraction(-1, 2), Fraction(0)):
            for exponent in (1, 0, Fraction(-1, 3)):
                with pytest.raises(InvalidArgument):
                    PowerProduct.of((2, 1), (base, exponent))

    def test_unit_bases_are_ignored(self):
        p = PowerProduct.of((1, 5), (Fraction(3, 3), Fraction(1, 2)), (2, 1), (1, -7))
        assert p.factors == ((Fraction(2), Fraction(1)),)
        assert compare_power_products(PowerProduct.of((1, 3)), PowerProduct.of()) == ("equal", True)
        assert compare_power_products(p, PowerProduct.of((2, 1), (1, 4))) == ("equal", True)


# ---------------------------------------------------------------------------
# compare_power_products and PowerProduct.log10 as they were on Fraction
# factors, before a PowerProduct carried its int view: the reference for
# the comparator and the float log10 that read the ints.


def _compare_on_fractions(lhs, rhs):
    common = lcm(*(e.denominator for _, e in lhs.factors), *(e.denominator for _, e in rhs.factors))
    merged = {}
    for sign, side in ((1, lhs), (-1, rhs)):
        for base, e in side.factors:
            k = sign * e.numerator * (common // e.denominator)
            key = base.numerator, base.denominator
            if key in merged:
                k += merged[key][1]
            merged[key] = base, k
    diff = [f for f in merged.values() if f[1]]
    if not diff:
        return power.Comparison("equal", True)
    g = gcd(common, *(k for _, k in diff))
    scale = common // g
    diff = [(base, k // g) for base, k in diff]
    bits = cleared_bits_oracle(diff, 1)
    if bits > power.CLEARING_MAX_BITS:
        ordering = _compare_by_basis(sorted((base, Fraction(k, scale)) for base, k in diff))
        if ordering:
            return power.Comparison(ordering, True)
        if bits > power.CLEARING_LIMIT_BITS:
            raise LimitExceeded(
                "log-interval comparison undecided at %d digits, and clearing would take an estimated %d bits"
                % (power._INTERVAL_MAX_DIGITS, bits)
            )
    return power.Comparison(clearing_oracle(diff, 1), True)


def _log10_on_fractions(p):
    total = 0.0
    for b, e in p.factors:
        total += float(e) * (math.log10(b.numerator) - math.log10(b.denominator))
    return total


def _bits_of(x: float) -> str:
    # float.hex tells 0.0 from -0.0 and shows every bit.
    return x.hex() if x == x else "nan"


_SHARED_BASES = (1, 2, 3, 6, 10 ** 30 + 7, Fraction(1, 2), Fraction(2, 3), Fraction(9, 4), Fraction(4, 9), Fraction(7, 10 ** 20))
_factor = st.tuples(
    st.sampled_from(_SHARED_BASES) | st.fractions(min_value=Fraction(1, 50), max_value=50),
    st.integers(-6, 6) | st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
_sides = st.tuples(st.lists(_factor, max_size=5), st.lists(_factor, max_size=5))


class TestIntViewDifferential:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(sides=_sides)
    def test_comparator_matches_the_fraction_reference(self, sides):
        raw_lhs, raw_rhs = sides
        lhs, rhs = PowerProduct.of(*raw_lhs), PowerProduct.of(*raw_rhs)
        assert lhs.factors == _of_reference(*raw_lhs) and rhs.factors == _of_reference(*raw_rhs)
        assert all(type(x) is Fraction for f in lhs.factors + rhs.factors for x in f)
        assert compare_power_products(lhs, rhs) == _compare_on_fractions(lhs, rhs)
        assert compare_power_products(rhs, lhs) == _compare_on_fractions(rhs, lhs)
        # The same bases on both sides, some exponents cancelling exactly.
        both = PowerProduct.of(*raw_lhs, *raw_rhs)
        assert compare_power_products(both, lhs) == _compare_on_fractions(both, lhs)
        assert compare_power_products(lhs * rhs, both) == ("equal", True)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(sides=_sides)
    def test_log10_and_slack_match_the_float_formula(self, sides):
        raw_lhs, raw_rhs = sides
        lhs, rhs = PowerProduct.of(*raw_lhs), PowerProduct.of(*raw_rhs)
        assert _bits_of(lhs.log10) == _bits_of(_log10_on_fractions(lhs))
        verdict, slack = decide([("c", raw_lhs, raw_rhs)])
        want = clamp_slack(verdict, _log10_on_fractions(rhs) - _log10_on_fractions(lhs))
        assert _bits_of(slack) == _bits_of(want)

    def test_basis_path_matches(self):
        rng = random.Random(23)
        for _ in range(40):
            width = rng.randrange(200, 1500)
            big = Fraction(rng.getrandbits(width) | 1 << (width - 1), rng.choice((1, 3, 7)))
            k = CLEARING_MAX_BITS // max(big.numerator.bit_length(), big.denominator.bit_length()) + rng.randrange(1, 4)
            f = Fraction(rng.randrange(-5, 6), rng.choice(_DENOMINATORS))
            lhs = PowerProduct.of((big, k + f), (Fraction(2, 3), f))
            rhs = PowerProduct.of((big, f), (Fraction(3, 2), rng.randrange(-3, 4)))
            diff = (lhs * rhs ** -1).factors
            assert cleared_bits_oracle(diff, lcm(*(e.denominator for _, e in diff))) > CLEARING_MAX_BITS
            assert compare_power_products(lhs, rhs) == _compare_on_fractions(lhs, rhs)

    def test_limit_exceeded_text_matches(self, monkeypatch):
        lhs, rhs, bits = TestBasisOnlyEqualities().found_case()
        monkeypatch.setattr(power, "_INTERVAL_MAX_DIGITS", 240)
        monkeypatch.setattr(power, "CLEARING_LIMIT_BITS", bits - 1)
        with pytest.raises(LimitExceeded) as want:
            _compare_on_fractions(rhs, lhs)
        with pytest.raises(LimitExceeded) as got:
            compare_power_products(rhs, lhs)
        assert str(got.value) == str(want.value)
        assert "undecided at 240 digits" in str(got.value)
