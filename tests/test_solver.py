"""Exact solving, vertex forms, the four-equation family, and root shifting."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadratica.errors import DegenerateLeadingCoefficient, NonPositiveParameter
from quadratica.qfield import QuadElem
from quadratica.solver import (
    DampingKind,
    Quadratic,
    RootKind,
    disc_derivative_identity,
    four_family,
    ode_classify,
    shift_roots,
    solve,
    vertex,
)

ZERO = QuadElem.from_rational(0)

coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
nonzero_coeffs = coeffs.filter(bool)


def quadratics():
    return st.builds(Quadratic, nonzero_coeffs, coeffs, coeffs)


class TestSolve:
    def test_golden(self):
        pair = solve(Quadratic(1, -1, -1))
        assert pair.kind is RootKind.REAL_DISTINCT
        assert pair.r1 == QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
        assert pair.r2 == QuadElem(Fraction(1, 2), Fraction(-1, 2), 5)

    def test_complex_pair(self):
        pair = solve(Quadratic(1, 1, 1))
        assert pair.kind is RootKind.COMPLEX_PAIR
        assert pair.r1 == QuadElem(Fraction(-1, 2), Fraction(1, 2), -3)
        assert pair.r2 == pair.r1.conj()

    def test_double_root(self):
        pair = solve(Quadratic(1, 2, 1))
        assert pair.kind is RootKind.REAL_DOUBLE
        assert pair.r1 == pair.r2 == QuadElem.from_rational(-1)

    def test_rational_square_discriminant(self):
        pair = solve(Quadratic(2, 3, 1))
        assert pair.kind is RootKind.REAL_DISTINCT
        assert {pair.r1.as_fraction(), pair.r2.as_fraction()} == {Fraction(-1, 2), Fraction(-1)}

    # r1 = (-b + sqrt(disc))/2a takes the + branch of the radical; for a < 0
    # that makes it the smaller real root, or the one with -sqrt(m)
    @pytest.mark.parametrize(
        "coeffs,kind,r1,r2",
        [
            ((1, 2, 1), RootKind.REAL_DOUBLE, ("-1", 0, 0), ("-1", 0, 0)),
            ((-4, 4, -1), RootKind.REAL_DOUBLE, ("1/2", 0, 0), ("1/2", 0, 0)),
            ((2, 3, 1), RootKind.REAL_DISTINCT, ("-1/2", 0, 0), ("-1", 0, 0)),
            ((-2, -3, -1), RootKind.REAL_DISTINCT, ("-1", 0, 0), ("-1/2", 0, 0)),
            (("1/2", "-5/6", "1/3"), RootKind.REAL_DISTINCT, ("1", 0, 0), ("2/3", 0, 0)),
            ((1, -1, -1), RootKind.REAL_DISTINCT, ("1/2", "1/2", 5), ("1/2", "-1/2", 5)),
            ((-1, 1, 1), RootKind.REAL_DISTINCT, ("1/2", "-1/2", 5), ("1/2", "1/2", 5)),
            (("1/2", "1/3", "-1/4"), RootKind.REAL_DISTINCT, ("-1/3", "1/6", 22), ("-1/3", "-1/6", 22)),
            ((1, 1, 1), RootKind.COMPLEX_PAIR, ("-1/2", "1/2", -3), ("-1/2", "-1/2", -3)),
            (("-2/3", "1/2", "-5/4"), RootKind.COMPLEX_PAIR, ("3/8", "-1/8", -111), ("3/8", "1/8", -111)),
            ((-1, 0, -4), RootKind.COMPLEX_PAIR, (0, -2, -1), (0, 2, -1)),
        ],
    )
    def test_r1_is_the_plus_branch(self, coeffs, kind, r1, r2):
        pair = solve(Quadratic(*coeffs))
        assert pair.kind is kind
        assert (pair.r1, pair.r2) == (QuadElem(*r1), QuadElem(*r2))

    def test_degenerate(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            Quadratic(0, 1, 1)

    @given(quadratics())
    def test_vieta_and_substitution(self, q):
        pair = solve(q)
        assert pair.r1 + pair.r2 == QuadElem.from_rational(-q.b / q.a)
        assert pair.r1 * pair.r2 == QuadElem.from_rational(q.c / q.a)
        assert q(pair.r1) == ZERO and q(pair.r2) == ZERO


class TestVertex:
    def test_example(self):
        v = vertex(Quadratic(2, 3, 1))
        assert (v.h, v.k) == (Fraction(-3, 4), Fraction(-1, 8))

    def test_origin(self):
        v = vertex(Quadratic(1, 0, 0))
        assert (v.h, v.k) == (0, 0)

    def test_witness_vertex(self):
        # x^2 - (p+q)x + pq at (p, q) = (17, 7): vertex (12, -25) = (M, -I^2)
        v = vertex(Quadratic(1, -24, 119))
        assert (v.h, v.k) == (12, -25)

    @given(quadratics())
    def test_expansion_round_trip(self, q):
        assert vertex(q).expand() == q


class TestFourFamily:
    def test_golden_family(self):
        fam = {m.label: m for m in four_family(1, 1)}
        assert fam["d"].roots.r1 == QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
        assert fam["d"].roots.kind is RootKind.REAL_DISTINCT

    def test_boundary_double_roots(self):
        fam = {m.label: m for m in four_family(2, 1)}
        assert fam["b"].roots.kind is RootKind.REAL_DOUBLE
        assert fam["b"].roots.r1 == QuadElem.from_rational(1)
        assert fam["a"].roots.r1 == QuadElem.from_rational(-1)

    def test_negation_pairing(self):
        fam = {m.label: m for m in four_family(1, 1)}
        a, b = fam["a"].roots, fam["b"].roots
        assert {-a.r1, -a.r2} == {b.r1, b.r2}
        c, d = fam["c"].roots, fam["d"].roots
        assert {-c.r1, -c.r2} == {d.r1, d.r2}

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 0), (-1, 2)])
    def test_positivity_required(self, p, q):
        with pytest.raises(NonPositiveParameter):
            four_family(p, q)

    def test_d_always_real_distinct(self):
        for p, q in [(1, 1), (5, 3), (Fraction(1, 7), Fraction(2, 9))]:
            fam = {m.label: m for m in four_family(p, q)}
            assert fam["d"].roots.kind is RootKind.REAL_DISTINCT


class TestShiftRoots:
    def test_displayed_form(self):
        # x^2 - px + q shifted by k -> x^2 - (p+2k)x + (k^2 + pk + q)
        p, q, k = Fraction(5), Fraction(3), Fraction(2)
        assert shift_roots(Quadratic(1, -p, q), k) == Quadratic(1, -(p + 2 * k), k * k + p * k + q)

    def test_pq_specialization(self):
        # x^2 - px - p shifted by 1 -> x^2 - (p+2)x + 1
        for p in range(1, 20):
            assert shift_roots(Quadratic(1, -p, -p), 1) == Quadratic(1, -(p + 2), 1)

    def test_erratum_case_derived_form(self):
        # x^2 + px - p shifted by 1: constant is 1 - 2p, not -(4p - 1)
        for p in range(1, 20):
            got = shift_roots(Quadratic(1, p, -p), 1)
            assert got == Quadratic(1, -(2 - p), 1 - 2 * p)
            assert got != Quadratic(1, -(2 - p), -(4 * p - 1))

    @given(coeffs, coeffs, coeffs)
    def test_against_radical_arithmetic(self, p, q, k):
        """Oracle: solve exactly, add k to each root, re-form via Vieta."""
        base = Quadratic(1, -p, q)
        pair = solve(base)
        shifted_sum = (pair.r1 + k) + (pair.r2 + k)
        shifted_prod = (pair.r1 + k) * (pair.r2 + k)
        expected = Quadratic(1, -shifted_sum.as_fraction(), shifted_prod.as_fraction())
        assert shift_roots(base, k) == expected

    @given(coeffs, coeffs, coeffs)
    def test_composition_is_identity(self, p, q, k):
        base = Quadratic(1, p, q)
        assert shift_roots(shift_roots(base, k), -k) == base

    def test_subtracting_p_maps_between_sign_twins(self):
        for p in range(1, 30):
            assert shift_roots(Quadratic(1, -p, p), -p) == Quadratic(1, p, p)

    def test_non_monic_normalized(self):
        assert shift_roots(Quadratic(2, -2, 4), 0) == Quadratic(1, -1, 2)


class TestDerivativeDiscriminant:
    def test_perfect_shift(self):
        # f(x) = 2x^2 + 3x + 1 - 496: f'(x1) = 63, disc = 3969
        report = disc_derivative_identity(Quadratic(2, 3, 1 - 496))
        assert report.x1 == QuadElem.from_rational(15)
        assert report.sqrt_disc == QuadElem.from_rational(63)
        assert Quadratic(2, 3, 1 - 496).discriminant == 3969 == 63 * 63
        assert report.x2 == QuadElem.from_rational(Fraction(-33, 2))
        assert report.check

    def test_double_root(self):
        report = disc_derivative_identity(Quadratic(1, -2, 1))
        assert report.sqrt_disc == ZERO
        assert report.check

    def test_golden(self):
        # sqrt(5) = 2*phi - 1
        report = disc_derivative_identity(Quadratic(1, -1, -1))
        assert report.sqrt_disc == QuadElem(0, 1, 5)
        assert report.sqrt_disc == 2 * report.x1 - 1
        assert report.check

    @given(quadratics())
    def test_identity_everywhere(self, q):
        report = disc_derivative_identity(q)
        assert report.check
        assert q(report.x2) == ZERO


class TestOdeClassify:
    def test_critical(self):
        mode = ode_classify(1, 2, 1)
        assert mode.kind is DampingKind.CRITICAL
        assert mode.r1 == QuadElem.from_rational(-1)

    def test_oscillatory(self):
        mode = ode_classify(1, 0, 1)
        assert mode.kind is DampingKind.OSCILLATORY
        assert mode.r1 == QuadElem(0, 1, -1)

    def test_overdamped(self):
        mode = ode_classify(1, -3, 2)
        assert mode.kind is DampingKind.OVERDAMPED
        assert {mode.r1.as_fraction(), mode.r2.as_fraction()} == {1, 2}

    def test_indicial_form(self):
        # same classifier serves r^2 + br + c = 0
        mode = ode_classify(1, Fraction(-1, 2), Fraction(-1, 2))
        assert {mode.r1.as_fraction(), mode.r2.as_fraction()} == {1, Fraction(-1, 2)}
