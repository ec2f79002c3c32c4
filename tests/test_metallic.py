"""Metallic means, radicand families, the creation identity, and the phi ledger."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadratica import verify
from quadratica.errors import NonPositiveParameter
from quadratica.fibgroup import PHI, PHI_BAR
from quadratica.metallic import (
    RadicandFamily,
    creation_equation,
    golden_trig,
    metallic,
    phi_ledger,
    radicand_classify,
    special_case,
)
from quadratica.qfield import QuadElem, qf_make
from quadratica.solver import Quadratic


class TestMetallicTable:
    @pytest.mark.parametrize(
        "p,sigma,name",
        [
            (1, QuadElem(Fraction(1, 2), Fraction(1, 2), 5), "gold"),
            (2, QuadElem(1, 1, 2), "silver"),
            (3, QuadElem(Fraction(3, 2), Fraction(1, 2), 13), "bronze"),
            (4, QuadElem(2, 1, 5), None),
        ],
    )
    def test_rows(self, p, sigma, name):
        entry = metallic(p, 1)
        assert entry.sigma == sigma
        assert entry.name == name

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
    def test_defining_equation(self, p, q):
        entry = metallic(p, q)
        assert entry.sigma**2 == p * entry.sigma + q
        assert float(entry.sigma) > 0

    def test_positivity(self):
        with pytest.raises(NonPositiveParameter):
            metallic(0, 1)


class TestRadicandClassify:
    def test_golden_radicand(self):
        cls = radicand_classify(5)
        assert cls.family is RadicandFamily.REAL
        assert cls.n == 1
        assert cls.equation == Quadratic(1, -1, -1)

    def test_complex_family(self):
        cls = radicand_classify(3)
        assert cls.family is RadicandFamily.COMPLEX
        assert cls.n == 1
        assert cls.equation == Quadratic(1, -1, 1)
        root = QuadElem(Fraction(1, 2), Fraction(1, 2), -3)
        assert cls.equation(root) == QuadElem.from_rational(0)

    def test_perfect_square_radicand_gives_integer_roots(self):
        cls = radicand_classify(49)
        assert cls.family is RadicandFamily.REAL and cls.n == 12
        assert cls.equation(4) == 0 and cls.equation(-3) == 0

    def test_even_rejected_to_not_odd(self):
        assert radicand_classify(8).family is RadicandFamily.NOT_ODD

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveParameter):
            radicand_classify(0)

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            special_case(1, 5, "times")

    @given(st.integers(min_value=1, max_value=2001).filter(lambda m: m % 2 == 1))
    def test_roots_solve_produced_equation(self, m):
        cls = radicand_classify(m)
        radicand = m if cls.family is RadicandFamily.REAL else -m
        if radicand == 1:
            return  # m = 1 degenerates to rational roots 0 and 1
        root = QuadElem(Fraction(1, 2), Fraction(1, 2), radicand)
        assert cls.equation(root) == QuadElem.from_rational(0)

    def test_integer_root_parameterization(self):
        # sqrt(m) = 4k + 1 -> roots 2k+1 and -2k of x^2 - x - 2k(2k+1)
        for k in range(101):
            eq = Quadratic(1, -1, -2 * k * (2 * k + 1))
            assert eq(2 * k + 1) == 0 and eq(-2 * k) == 0
            assert (4 * k + 1) ** 2 == 4 * (2 * k * (2 * k + 1)) + 1


class TestCreationEquation:
    @pytest.mark.parametrize("m,want", [(5, 3), (2, Fraction(3, 2)), (13, 7)])
    def test_values(self, m, want):
        assert creation_equation(m) == want

    @given(st.sampled_from([2, 3, 5, 6, 7, 10, 13, -1, -3, -7, 21]))
    def test_general_identity_via_expansion_oracle(self, m):
        # independent route: expand ((1+r)^2 + (1-r)^2)/4 with r^2 = m symbolically
        assert creation_equation(m) == Fraction(2 + 2 * m, 4)


class TestGoldenTrig:
    def test_report(self):
        report = golden_trig()
        assert report.ok
        assert report.quintuple_identity_max_err <= 1e-12
        assert report.feasible_radicands == (2, 3, 5, 6, 7, 8)
        assert report.infeasible_example == 10

    def test_cosine_values(self):
        phi = float(PHI)
        assert abs(math.cos(math.pi / 5) - phi / 2) <= 1e-12
        assert abs(2 * math.cos(2 * math.pi / 5) - (math.sqrt(5) - 1) / 2) <= 1e-12

    def test_quintuple_at_zero(self):
        s = math.sin(0.0)
        assert math.sin(0.0) == 5 * s - 20 * s**3 + 16 * s**5 == 0.0

    def test_infeasible_radicand(self):
        assert (1 + math.sqrt(10)) / 4 > 1  # no angle can have that cosine


class TestSpecialCase:
    def test_golden_seed(self):
        assert special_case(0, 5, "plus") == Quadratic(1, -1, -1)

    def test_shifted(self):
        assert special_case(1, 5, "plus") == Quadratic(1, -3, 1)

    def test_complex_convention(self):
        # the flag forces the imaginary case from either sign convention
        assert special_case(0, 3, "plus", complex_radicand=True) == Quadratic(1, -1, 1)
        assert special_case(0, -3, "plus", complex_radicand=True) == Quadratic(1, -1, 1)
        # plain signed radicand works without the flag too
        assert special_case(0, -3, "plus") == Quadratic(1, -1, 1)

    def test_minus_variant(self):
        # roots (-1 + 2k +/- sqrt(m))/2: sum 2k-1, product k^2 - k + (1-m)/4
        assert special_case(2, 5, "minus") == Quadratic(1, -3, Fraction(2 * 2 - 2) + Fraction(1 - 5, 4))

    @given(
        st.integers(min_value=-20, max_value=20),
        st.sampled_from([2, 3, 5, 6, 7, 13, -3, -7]),
        st.sampled_from(["plus", "minus"]),
    )
    def test_roots_solve_it(self, k, m, variant):
        eq = special_case(k, m, variant)
        offset = 1 if variant == "plus" else -1
        root = qf_make(Fraction(offset + 2 * k, 2), Fraction(1, 2), m)
        assert eq(root) == QuadElem.from_rational(0)


class TestPhiLedger:
    def test_row_three(self):
        rows = {row.n: row for row in phi_ledger(10)}
        assert (rows[3].coeff, rows[3].const) == (2, 1)
        assert rows[3].power_sum == 4

    def test_row_two_creation(self):
        rows = {row.n: row for row in phi_ledger(5)}
        assert rows[2].power_sum == 3

    def test_row_six_errata(self):
        rows = {row.n: row for row in phi_ledger(8)}
        assert (rows[6].coeff, rows[6].const) == (8, 5)
        assert rows[6].errata_id == "phi-sixth-power"
        assert all(r.errata_id is None for n, r in rows.items() if n != 6)

    def test_recurrence_and_conjugates_to_90(self):
        rows = phi_ledger(90)
        prev = None
        for row in rows:
            if prev is not None:
                assert (row.coeff, row.const) == (prev.coeff + prev.const, prev.coeff)
            assert PHI**row.n == row.coeff * PHI + row.const
            assert PHI_BAR**row.n == row.coeff * PHI_BAR + row.const
            assert PHI**row.n + PHI_BAR**row.n == QuadElem.from_rational(row.power_sum)
            assert PHI**row.n - PHI_BAR**row.n == QuadElem(0, row.diff_coeff, 5)
            prev = row

    def test_sum_and_diff_in_zero_based_fibonacci(self):
        # with F(0) = 0, F(1) = 1: sum = 3F(n-1) + F(n-2) = F(n+1) + F(n-1),
        # and the sqrt(5) coefficient of the difference is F(n)
        def f_std(k):
            a, b = 0, 1
            for _ in range(k):
                a, b = b, a + b
            return a

        for row in phi_ledger(60):
            n = row.n
            assert row.power_sum == 3 * f_std(n - 1) + f_std(n - 2) == f_std(n + 1) + f_std(n - 1)
            assert row.diff_coeff == f_std(n)

    def test_properties_one_through_eight(self):
        # each of the eight is its own named _expect in verify's phi-ledger
        verify.check_phi_ledger(8)


class TestIrrationalityBracket:
    def test_phi_inside(self):
        assert 1.6 < float(PHI) < 1.7

    def test_silver_outside(self):
        assert float(metallic(2, 1).sigma) > 1.7

    def test_conjugate_outside(self):
        assert float(PHI_BAR) < 1.6
