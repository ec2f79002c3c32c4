"""Repdigit p-numbers, association rules, digital roots, attached parabolas."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadratica.errors import InvalidDigit, NonPositiveParameter
from quadratica.pnum import PNumber, as_repdigit, associate, digital_root, pnum_parabola, pnum_value
from quadratica.solver import Quadratic, solve


class TestValues:
    def test_basic(self):
        assert pnum_value(PNumber(7, 3)) == 777
        assert pnum_value(PNumber(1, 1)) == 1
        assert pnum_value(PNumber(9, 10)) == 9999999999

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=30))
    def test_round_trip(self, digit, reps):
        pn = PNumber(digit, reps)
        assert as_repdigit(pnum_value(pn)) == pn

    def test_recognizer_rejects(self):
        assert as_repdigit(12) is None
        assert as_repdigit(110) is None

    def test_validation(self):
        with pytest.raises(InvalidDigit):
            PNumber(0, 1)
        with pytest.raises(InvalidDigit):
            PNumber(10, 1)
        with pytest.raises(NonPositiveParameter):
            PNumber(3, 0)


class TestAssociate:
    def test_units_digit(self):
        assert associate(1234) == PNumber(4, 1)

    def test_trailing_zero(self):
        assert associate(120) == PNumber(1, 1)

    def test_repdigit_fixed_point(self):
        assert associate(888) == PNumber(8, 3)

    def test_single_digits_fixed(self):
        for d in range(1, 10):
            assert associate(d) == PNumber(d, 1)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_idempotent_on_image(self, n):
        pn = associate(n)
        assert associate(pnum_value(pn)) == pn


class TestDigitalRoot:
    def test_chain_examples(self):
        assert digital_root(124) == 7
        assert digital_root(12349998) == 9  # -> 45 -> 9
        assert digital_root(0) == 0

    def test_eighty_is_eight(self):
        # the displayed claim assigns 0 here; see errata 'digital-root-80'
        assert digital_root(80) == 8

    @given(st.integers(min_value=1, max_value=10**15))
    def test_mod_nine(self, n):
        assert digital_root(n) == (9 if n % 9 == 0 else n % 9)


class TestParabolas:
    def test_example(self):
        plus, minus = pnum_parabola(PNumber(7, 3))
        assert plus == Quadratic(1, -10, 21)
        assert minus == Quadratic(1, 10, 21)

    def test_double_root(self):
        plus, _ = pnum_parabola(PNumber(1, 1))
        assert plus == Quadratic(1, -2, 1)

    def test_expansion(self):
        plus, _ = pnum_parabola(PNumber(5, 2))
        assert plus == Quadratic(1, -7, 10)

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=12))
    def test_roots_via_solver(self, digit, reps):
        plus, minus = pnum_parabola(PNumber(digit, reps))
        pair = solve(plus)
        assert {pair.r1.as_fraction(), pair.r2.as_fraction()} == {digit, reps}
        mirror = solve(minus)
        assert {mirror.r1.as_fraction(), mirror.r2.as_fraction()} == {-digit, -reps}
