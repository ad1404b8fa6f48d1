import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.errors import InvalidArgument, UndecidedAtPrecisionCap
from homlab.power import (
    CLEARING_MAX_BITS,
    PowerProduct,
    RadicalSum,
    _compare_by_basis,
    _compare_by_clearing,
    _exact_bit_estimate,
    _sign_by_log_intervals,
    compare_power_products,
    compare_radical_products,
    power_product_to_radical,
)
from homlab.ratmath import coprime_basis, lcm_many

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
            scale = lcm_many(e.denominator for _, e in diff)
            ordering = _compare_by_clearing(diff, scale)
            assert _compare_by_basis(diff) == ordering, (a, b)
            assert compare_power_products(a, b) == (ordering, True)
            counts[ordering] += 1
        assert counts["equal"] >= 200 and counts["less"] > 300 and counts["greater"] > 300

    def test_interval_path_never_says_equal(self):
        # 4^(1/2) / 2 is exactly 1; the sign step alone cannot tell.
        with pytest.raises(UndecidedAtPrecisionCap):
            _sign_by_log_intervals([(4, Fraction(1, 2)), (2, Fraction(-1))])

    def test_interval_sign_separates(self):
        # 2^(1/2) = 1.4142... < 3^(1/3) = 1.4422...
        assert _sign_by_log_intervals([(2, Fraction(1, 2)), (3, Fraction(-1, 3))]) == "less"
        assert _sign_by_log_intervals([(2, Fraction(-1, 2)), (3, Fraction(1, 3))]) == "greater"

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
        assert _exact_bit_estimate(diff, lcm_many(e.denominator for _, e in diff)) > CLEARING_MAX_BITS
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
                [(power_product_to_radical(a), Fraction(1))],
                [(power_product_to_radical(b), Fraction(1))],
            )
            assert rad.ordering == pp.ordering

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
