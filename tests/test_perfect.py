"""Perfect-number parabola: tables, preimages, parity maps, areas, constants."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadratica import verify
from quadratica.errors import EmptyInterval
from quadratica.fibgroup import PHI
from quadratica.perfect import (
    chord_geometry,
    even_preserving_map,
    half_map,
    integral,
    lucas_lehmer,
    parabola,
    perfect_from_exponent,
    preimage,
)
from quadratica.perfect import _square_minus_2

fracs = st.fractions(min_value=-40, max_value=40, max_denominator=20)

# (x1, x2, P) rows; the x1 = 1023 row's displayed x2 was -2046/2, the derived
# value is -2049/2 (see errata 'perfect-table-x2-1023')
TABLE = [
    (1, Fraction(-5, 2), 6),
    (3, Fraction(-9, 2), 28),
    (5, Fraction(-13, 2), 66),
    (7, Fraction(-17, 2), 120),
    (15, Fraction(-33, 2), 496),
    (63, Fraction(-129, 2), 8128),
    (4095, Fraction(-8193, 2), 33550336),
    (1023, Fraction(-2049, 2), 2096128),
]


class TestParabola:
    def test_factorization(self):
        for x in range(-50, 50):
            assert parabola(x) == (x + 1) * (2 * x + 1)

    def test_triangular_substitution(self):
        # (x^2 + x)/2 at x = 2t + 1 equals the parabola at t; at x = 2^p - 1
        # it is the sum 1 + 2 + ... + (2^p - 1) = 2^(p-1) (2^p - 1)
        for t in range(-30, 30):
            assert half_map(2 * t + 1) == parabola(t)
        for p in range(2, 20):
            assert half_map(2**p - 1) == perfect_from_exponent(p).value

    def test_roots(self):
        assert parabola(Fraction(-1)) == 0
        assert parabola(Fraction(-1, 2)) == 0

    def test_irrational_arguments(self):
        assert abs(parabola(math.pi) - 30.1639) < 1e-3
        assert abs(parabola(math.e) - 23.9329) < 1e-3
        assert abs(parabola(float(PHI)) - 11.090) < 1e-3

    @given(fracs, fracs)
    def test_difference_identity(self, a, b):
        assert parabola(a) - parabola(b) == (a - b) * (2 * a + 2 * b + 3)


class TestPerfectTable:
    @pytest.mark.parametrize("x1,x2,value", TABLE)
    def test_forward(self, x1, x2, value):
        assert parabola(x1) == value

    @pytest.mark.parametrize("x1,x2,value", TABLE)
    def test_preimage(self, x1, x2, value):
        assert preimage(value) == (x1, x2)

    def test_preimage_missing(self):
        assert preimage(7) is None  # 1 + 56 = 57 is not a square
        # 1 + 8*3 = 25 is square but the + branch root (5 - 3)/4 = 1/2 is not integral
        assert preimage(3) is None

    def test_exponent_records(self):
        rec = perfect_from_exponent(5)
        assert (rec.value, rec.x1, rec.x2) == (496, 15, Fraction(-33, 2))
        assert rec.is_perfect
        rec2 = perfect_from_exponent(2)
        assert (rec2.value, rec2.x1) == (6, 1)
        rec11 = perfect_from_exponent(11)
        assert (rec11.value, rec11.x1) == (2096128, 1023)
        assert not rec11.is_perfect

    def test_eight_p_plus_one(self):
        for p in range(2, 20):
            rec = perfect_from_exponent(p)
            assert 8 * rec.value + 1 == (2 ** (p + 1) - 1) ** 2

    def test_lucas_lehmer_vs_divisor_sums(self):
        verify.check_perfect_records(19)

    def test_lucas_lehmer_known(self):
        assert [p for p in range(2, 32) if lucas_lehmer(p)] == [2, 3, 5, 7, 13, 17, 19, 31]
        # the Mersenne prime exponents up to 1279 (OEIS A000043)
        known = [2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279]
        assert [p for p in range(2, 1280) if lucas_lehmer(p)] == known

    def test_mersenne_fold_matches_remainder(self):
        for p in range(3, 300):
            m = (1 << p) - 1
            s = 4
            for _ in range(p - 2):
                folded = _square_minus_2(s, p, m)
                s = (s * s - 2) % m
                assert folded == s, p
        for p in (3, 5, 7, 13):  # every residue of a small Mersenne modulus
            m = (1 << p) - 1
            for s in range(m):
                assert _square_minus_2(s, p, m) == (s * s - 2) % m, (p, s)

    def test_x1_closed_forms(self):
        for l in range(1, 61):
            assert parabola(2**l - 1) == 2**l * (2 ** (l + 1) - 1)
            assert parabola(2**l + 1) == 2**l * (2 ** (l + 1) + 7) + 6
        for n in range(0, 61):
            assert parabola(2 * n + 1) == 8 * n * n + 14 * n + 6


class TestParityMaps:
    def test_examples(self):
        assert parabola(3) == 28
        assert even_preserving_map(2) == 10
        assert parabola(4) == 45

    def test_contracts(self):
        for n in range(-2000, 2001):
            assert parabola(n) % 2 != n % 2
            assert even_preserving_map(n) % 2 == n % 2

    def test_h_never_hits_a_perfect_number(self):
        perfect_values = {
            rec.value
            for rec in map(perfect_from_exponent, (2, 3, 5, 7, 13, 17, 19, 31))
            if rec.is_perfect
        }
        # inversion oracle: 2n^2 + n = P needs 1 + 8P an odd square with root = 1 mod 4
        for value in perfect_values:
            disc = 1 + 8 * value
            root = math.isqrt(disc)
            assert not (root * root == disc and root % 4 == 1)
        # plus a direct scan over a modest range
        assert all(even_preserving_map(n) not in perfect_values for n in range(1, 100_000))


class TestSeries:
    def test_matches_direct_summation(self):
        # the arithmetic series' direct sums against both closed forms live in verify's x1-closed-forms
        verify.check_x1_forms()

    def test_odd_squares_mod_eight(self):
        # (2n + 1)^2 = 8 * (n-th triangular number) + 1
        for n in range(1000):
            assert (2 * n + 1) ** 2 == 8 * half_map(n) + 1


class TestSumSquaresBridge:
    def test_small(self):
        assert 6 * (1 + 4 + 9) == 3 * parabola(3)

    def test_ratio_bound_from_eleven(self):
        # |f(n)/n^2 - 2| = 3/n + 1/n^2 < 3.1/n exactly when n > 10
        def within(n):
            return abs(Fraction(parabola(n), n * n) - 2) < Fraction(31, 10) / n

        assert not within(10)
        assert all(within(n) for n in (11, 50, 1000))

    def test_record_floors(self):
        for p in (2, 3, 5, 7, 13):
            rec = perfect_from_exponent(p)
            assert math.isqrt(rec.value // 2) == rec.x1 == math.isqrt(((1 << (p + 1)) - 1) ** 2 - 1) // 4
        assert math.isqrt(496 // 2) == 15


class TestChordGeometry:
    def test_axis_areas(self):
        left = chord_geometry(Fraction(-1), Fraction(-1, 2))
        right = chord_geometry(Fraction(-1, 2), Fraction(0))
        assert left.axis_area == Fraction(1, 24)
        assert right.axis_area == Fraction(5, 24)
        assert left.axis_area + right.axis_area == Fraction(1, 4)

    def test_chord_area_unit(self):
        assert chord_geometry(0, 1).chord_area == Fraction(1, 3)

    def test_secant_slope(self):
        report = chord_geometry(Fraction(1), Fraction(2))
        assert report.slope == 2 * 1 + 2 * 2 + 3
        assert report.intercept == 1 - 2 * 1 * 2

    def test_empty_interval(self):
        with pytest.raises(EmptyInterval):
            chord_geometry(1, 1)

    @given(fracs, fracs)
    def test_chord_formula(self, a, b):
        if a == b:
            return
        a, b = min(a, b), max(a, b)
        report = chord_geometry(a, b)
        assert report.chord_area == (b - a) ** 3 / 3
        assert report.trapezoid_area - report.parabola_integral == report.chord_area

    def test_integral_oracle(self):
        # quadrature-free oracle: Riemann-free exact sum of the two pieces
        assert integral(Fraction(-1), Fraction(0)) == integral(Fraction(-1), Fraction(-1, 2)) + integral(
            Fraction(-1, 2), Fraction(0)
        )


CONSTANT_TARGETS = [
    (lambda phi: math.pi - math.e, 0.423310825130748),
    (lambda phi: 2 * (math.pi + math.e), 11.719748964097677),
    (lambda phi: math.pi - phi, 1.52355866483989838846),
    (lambda phi: 2 * (math.pi + phi), 9.51925328467937617692),
    (lambda phi: math.e - phi, 1.10024783970915038536),
    # displayed with a leading-digit typo (6.672...); derived value asserted,
    # see errata 'two-e-phi-sum'
    (lambda phi: 2 * (math.e + phi), 8.67263163441788017072),
    (lambda phi: 2 * math.pi + math.e, 9.0014671356386317),
    (lambda phi: 2 * math.e + math.pi, 8.5781563105078837),
    (lambda phi: 2 * math.pi + phi, 7.90121929592948132693),
    (lambda phi: 2 * phi + math.pi, 6.3776606310895829385),
    (lambda phi: 2 * math.e + phi, 7.05459764566798532072),
    (lambda phi: 2 * phi + math.e, 5.9543498059588349354),
    (lambda phi: 2 * math.pi + 3 * math.e, 14.4380307925567222),
    (lambda phi: 2 * math.e + 3 * math.pi, 14.8613416176874702),
    (lambda phi: 2 * phi + 3 * math.pi, 12.6608459382691694154),
    (lambda phi: 3 * phi + 2 * math.pi, 11.13728727342927102693),
]


class TestIrrationalConstants:
    @pytest.mark.parametrize("expr,want", CONSTANT_TARGETS)
    def test_bullet_list(self, expr, want):
        assert abs(expr(float(PHI)) - want) <= 1e-6
