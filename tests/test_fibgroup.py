"""Unit quadratics x^2 = +/-x +/- 1: Fibonacci reduction, sums, finite groups."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadratica import verify
from quadratica.errors import NegativeIndex
from quadratica.fibgroup import (
    PHI,
    PHI_BAR,
    Case,
    FibPair,
    _fib_pair,
    case_root,
    closed_power_sum,
    fib,
    multiplication_table,
    partial_power_sum,
    power_reduce,
    residue_power_sum,
    unit_group,
)
from quadratica.qfield import QuadElem

ONE = QuadElem.from_rational(1)
ZERO = QuadElem.from_rational(0)


def fib_matrix(n: int) -> int:
    """Independent oracle: [[1,1],[1,0]]^n top-left entry equals fib(n) (seeds 1, 1)."""

    def mul(x, y):
        return (
            x[0] * y[0] + x[1] * y[2],
            x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2],
            x[2] * y[1] + x[3] * y[3],
        )

    result = (1, 0, 0, 1)
    base = (1, 1, 1, 0)
    e = n
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result[0]


class TestFib:
    def test_table_prefix(self):
        assert [fib(n) for n in range(7)] == [1, 1, 2, 3, 5, 8, 13]

    def test_recurrence_base(self):
        assert fib(2) == 2

    def test_fifty_vs_matrix_oracle(self):
        assert fib(50) == fib_matrix(50) == 20365011074

    @given(st.integers(min_value=0, max_value=200))
    def test_matrix_oracle_everywhere(self, n):
        assert fib(n) == fib_matrix(n)

    def test_negative_rejected(self):
        with pytest.raises(NegativeIndex):
            fib(-1)

    def test_linear_recurrence_to_300(self):
        a, b = 1, 1
        for n in range(301):
            assert fib(n) == a, n
            a, b = b, a + b

    def test_zero(self):
        assert fib(0) == 1

    def test_pair_against_the_recurrence(self):
        # zero-based (F(k), F(k+1)) for every k < 3000 and on both sides of each power of two to 2^16
        wanted = set(range(3000)) | {n for j in range(17) for n in (2**j - 1, 2**j, 2**j + 1)}
        a, b = 0, 1
        for k in range(max(wanted) + 1):
            if k in wanted:
                assert _fib_pair(k) == (a, b), k
            a, b = b, a + b

    def test_cassini_at_ten_to_the_fifth(self):
        # seeds f0 = f1 = 1 shift Cassini's F(n-1)F(n+1) - F(n)^2 = (-1)^n by one
        n = 10**5
        prev2, prev, cur = fib(n - 2), fib(n - 1), fib(n)
        assert cur == prev + prev2
        assert prev2 * cur - prev * prev == (-1) ** n


class TestPowerReduce:
    def test_phi_fifth(self):
        assert power_reduce(Case.I, 5) == FibPair(5, 3)
        assert PHI**5 == 5 * PHI + 3

    def test_phi_sixth_derived(self):
        # the recurrence gives 8*phi + 5 (the displayed 8*phi + 3 is an erratum)
        pair = power_reduce(Case.I, 6)
        assert (pair.coeff, pair.const) == (8, 5)
        assert PHI**6 == 8 * PHI + 5
        assert PHI**6 != 8 * PHI + 3

    def test_case_ii_defining_equation(self):
        pair = power_reduce(Case.II, 2)
        assert (pair.coeff, pair.const) == (-1, 1)

    @pytest.mark.parametrize("case", [Case.I, Case.II])
    @given(n=st.integers(min_value=1, max_value=90))
    def test_exact_exponentiation_both_roots(self, case, n):
        pair = power_reduce(case, n)
        x = case_root(case)
        assert x**n == pair.coeff * x + pair.const
        assert x.conj() ** n == pair.coeff * x.conj() + pair.const

    @pytest.mark.parametrize("case", [Case.I, Case.II])
    @pytest.mark.parametrize("n", [1, 2, 3, 20000])
    def test_against_fib_past_the_hypothesis_range(self, case, n):
        # zero-based F(n) = fib(n - 1) and F(n - 1) = fib(n - 2), with F(0) = 0
        f_n, f_prev = fib(n - 1), (fib(n - 2) if n > 1 else 0)
        want = FibPair(f_n, f_prev) if case is Case.I else FibPair((-1) ** (n + 1) * f_n, (-1) ** n * f_prev)
        assert power_reduce(case, n) == want
        x = case_root(case)
        assert x**n == want.coeff * x + want.const

    @pytest.mark.parametrize("case", [Case.I, Case.II])
    def test_first_power(self, case):
        assert power_reduce(case, 1) == FibPair(1, 0)

    def test_bad_index(self):
        with pytest.raises(NegativeIndex):
            power_reduce(Case.I, 0)

    def test_complex_cases_rejected(self):
        with pytest.raises(ValueError):
            power_reduce(Case.III, 3)


class TestTelescoping:
    def test_sum_of_early_terms(self):
        # sum_{k=1}^{n} f_{k-2} = f_n - 1 (the k = 1 term is f_{-1} = 0)
        for n in range(1, 91):
            assert sum(fib(k - 2) for k in range(2, n + 1)) == fib(n) - 1


class TestPartialSums:
    def test_case_iv_anchor_values(self):
        assert partial_power_sum(Case.IV, 2) == -ONE
        assert partial_power_sum(Case.IV, 3) == ZERO
        assert partial_power_sum(Case.IV, 4) == case_root(Case.IV)

    def test_case_i_anchor(self):
        x = case_root(Case.I)
        assert partial_power_sum(Case.I, 1) == x == x**3 - x**2

    def test_bad_bound(self):
        with pytest.raises(NegativeIndex):
            partial_power_sum(Case.I, 0)

    @pytest.mark.parametrize("case", list(Case))
    @pytest.mark.parametrize("n", [0, -1])
    def test_closed_form_bad_bound(self, case, n):
        with pytest.raises(NegativeIndex, match=f"sum bound must be >= 1, got {n}"):
            closed_power_sum(case, n)

    @pytest.mark.parametrize("case", list(Case))
    def test_closed_forms_to_200(self, case):
        x = case_root(case)
        total = ZERO
        power = ONE
        for n in range(1, 201):
            power = power * x
            total = total + power
            assert total == closed_power_sum(case, n)

    @pytest.mark.parametrize("case,period", [(Case.III, 6), (Case.IV, 3)])
    def test_residue_tables_to_200(self, case, period):
        for n in range(1, 201):
            assert partial_power_sum(case, n) == residue_power_sum(case, n)
        for n in range(1, 30):
            assert partial_power_sum(case, n) == partial_power_sum(case, n + period)

    def test_case_iii_table_values(self):
        x = case_root(Case.III)
        expected = {1: x, 2: 2 * x - 1, 3: 2 * x - 2, 4: x - 2, 5: -ONE, 6: ZERO}
        for n, want in expected.items():
            assert partial_power_sum(Case.III, n) == want

    def test_case_iii_displayed_5mod6_is_wrong(self):
        # the displayed -(x+1)/x equals x - 2, but the sum at n = 5 is -1
        x = case_root(Case.III)
        assert -(x + 1) / x == x - 2
        assert partial_power_sum(Case.III, 5) == -ONE != x - 2

    def test_case_ii_closed_form_both_roots(self):
        x = case_root(Case.II)
        for root in (x, x.conj()):
            total = ZERO
            power = ONE
            for n in range(1, 60):
                power = power * root
                total = total + power
                assert total == (root + 1) * (1 - root**n)


class TestUnitGroups:
    def test_orders(self):
        assert unit_group(Case.III).order == 6
        assert unit_group(Case.IV).order == 3

    def test_case_iv_elements(self):
        x = case_root(Case.IV)
        assert set(unit_group(Case.IV).elements) == {x, x**2, ONE}
        assert x**3 == ONE and x**4 == x

    def test_case_iii_power_cycle(self):
        x = case_root(Case.III)
        for t in range(11):
            assert x ** (2 + 6 * t) == x - 1
            assert x ** (4 + 6 * t) == -x
            assert x ** (6 + 6 * t) == ONE

    @pytest.mark.parametrize("case", [Case.III, Case.IV])
    def test_group_axioms_from_table(self, case):
        group = unit_group(case)
        table = multiplication_table(group)
        n = group.order
        # closure + cancellation: every row/column is a permutation
        for row in table:
            assert sorted(row) == list(range(n))
        for j in range(n):
            assert sorted(table[i][j] for i in range(n)) == list(range(n))
        # commutativity
        for i in range(n):
            for j in range(n):
                assert table[i][j] == table[j][i]
        # identity present and neutral
        e = group.index_of(ONE)
        assert all(table[e][j] == j for j in range(n))
        # inverses
        for i in range(n):
            assert any(table[i][j] == e for j in range(n))

    def test_real_cases_rejected(self):
        with pytest.raises(ValueError):
            unit_group(Case.I)


class TestGeometricSum:
    def test_phi_exact(self):
        # for the golden root the sum is also x^(n+2) - x^2
        total = sum((PHI**k for k in range(1, 5)), ZERO)
        assert total == partial_power_sum(Case.I, 4) == closed_power_sum(Case.I, 4) == PHI**6 - PHI**2

    def test_plastic_number(self):
        # verify's partial-sums also checks x(x^n - 1)/(x - 1) at 2, 3/2, phi and conj(phi),
        # and the plastic-number rewrites x^5 (x^n - 1) and x^-2 (x^n - 1) in floats
        verify.check_partial_sums(60)

    @given(st.integers(min_value=1, max_value=40))
    def test_conjugate_phi(self, n):
        total = sum((PHI_BAR**k for k in range(1, n + 1)), ZERO)
        assert total == closed_power_sum(Case.I, n, x=PHI_BAR) == PHI_BAR * (PHI_BAR**n - 1) / (PHI_BAR - 1)
