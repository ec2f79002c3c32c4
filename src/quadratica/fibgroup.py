"""The four unit-coefficient quadratics x^2 = +/-x +/- 1 and their structure.

Case I   x^2 =  x + 1   golden ratio; powers reduce along the Fibonacci numbers
Case II  x^2 = -x + 1   sign-alternating Fibonacci reduction
Case III x^2 =  x - 1   primitive 6th roots of unity in Q(sqrt(-3))
Case IV  x^2 = -x - 1   primitive cube roots of unity in Q(sqrt(-3))

Fibonacci indexing note: fib() uses the seeds f0 = f1 = 1 (so the sequence
reads 1, 1, 2, 3, 5, 8, 13, ...). Under those seeds the power reduction is
x^n = fib(n-1)*x + fib(n-2), i.e. phi^5 = 5*phi + 3. All complex-case
arithmetic runs exactly in Q(sqrt(-3)); nothing here touches floats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import NegativeIndex
from .qfield import QuadElem

__all__ = [
    "Case",
    "case_root",
    "FibPair",
    "UnitGroup",
    "fib",
    "power_reduce",
    "partial_power_sum",
    "closed_power_sum",
    "residue_power_sum",
    "unit_group",
    "multiplication_table",
    "PHI",
    "PHI_BAR",
]


class Case(str, enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


# x^2 = c1*x + c0 per case
_COEFFS = {
    Case.I: (1, 1),
    Case.II: (-1, 1),
    Case.III: (1, -1),
    Case.IV: (-1, -1),
}


def case_root(case: Case) -> QuadElem:
    """The + branch root (c1 + sqrt(c1^2 + 4*c0)) / 2 of the case's equation."""
    c1, c0 = _COEFFS[case]
    return QuadElem(Fraction(c1, 2), Fraction(1, 2), c1 * c1 + 4 * c0)


PHI = case_root(Case.I)
PHI_BAR = PHI.conj()


def _fib_pair(k: int) -> tuple[int, int]:
    """Zero-based (F(k), F(k+1)), F(0) = 0, for k >= 0, by doubling over the bits of k.

    The loop carries (F(j-1), F(j)) from (F(-1), F(0)) = (1, 0) and doubles it
    with two squares, as GMP's mpz_fib_ui does:

        F(2j+1) = 4*F(j)^2 - F(j-1)^2 + 2*(-1)^j
        F(2j-1) = F(j)^2 + F(j-1)^2
        F(2j)   = F(2j+1) - F(2j-1)

    A set bit keeps (F(2j), F(2j+1)), a clear one (F(2j-1), F(2j)).
    """
    prev, cur = 1, 0
    sign = 2  # 2*(-1)^j
    for bit in bin(k)[2:]:
        cur_sq, prev_sq = cur * cur, prev * prev
        odd = 4 * cur_sq - prev_sq + sign
        prev = cur_sq + prev_sq
        if bit == "1":
            prev, cur, sign = odd - prev, odd, -2
        else:
            cur, sign = odd - prev, 2
    return cur, prev + cur


def fib(n: int) -> int:
    """Fibonacci numbers with seeds f0 = f1 = 1: 1, 1, 2, 3, 5, 8, 13, ...; fib(n) = F(n+1)."""
    if n < 0:
        raise NegativeIndex(f"fib index must be >= 0, got {n}")
    return _fib_pair(n)[1]


@dataclass(frozen=True)
class FibPair:
    """Integers (coeff, const) with x^n = coeff*x + const for the case's roots."""

    coeff: int
    const: int


def power_reduce(case: Case, n: int) -> FibPair:
    """Reduce x^n to coeff*x + const for Case I or II.

    Case I:  x^n = F(n)*x + F(n-1)
    Case II: x^n = (-1)^(n+1)*F(n)*x + (-1)^n*F(n-1)
    with F the zero-based Fibonacci numbers. verify's power-reduction checks
    the pair against exact powers of both case roots.
    """
    case = Case(case)
    if n < 1:
        raise NegativeIndex(f"power index must be >= 1, got {n}")
    if case not in (Case.I, Case.II):
        raise ValueError("power reduction applies to Cases I and II only")
    f_n1, f_n = _fib_pair(n - 1)
    if case is Case.I:
        return FibPair(f_n, f_n1)
    sign = 1 if n % 2 else -1
    return FibPair(sign * f_n, -sign * f_n1)


def partial_power_sum(case: Case, n: int) -> QuadElem:
    """Sum_{k=1}^{n} x^k for the case's + root by exact accumulation, verify's oracle for closed_power_sum."""
    case = Case(case)
    if n < 1:
        raise NegativeIndex(f"sum bound must be >= 1, got {n}")
    x = case_root(case)
    total = QuadElem.from_rational(0)
    power = QuadElem.from_rational(1)
    for _ in range(n):
        power = power * x
        total = total + power
    return total


def closed_power_sum(case: Case, n: int, x: QuadElem | None = None) -> QuadElem:
    """The closed form for Sum_{k=1}^{n} x^k attached to each case.

    Case I:   x^(n+2) - x^2          (valid for roots of x^2 = x + 1)
    Case II:  (x + 1) * (1 - x^n)
    Case III: (x^n - 1) / x
    Case IV:  x * (x^n - 1) / (x - 1)
    """
    case = Case(case)
    if n < 1:
        raise NegativeIndex(f"sum bound must be >= 1, got {n}")
    if x is None:
        x = case_root(case)
    if case is Case.I:
        return x ** (n + 2) - x * x
    if case is Case.II:
        return (x + 1) * (1 - x**n)
    if case is Case.III:
        return (x**n - 1) / x
    return x * (x**n - 1) / (x - 1)


def residue_power_sum(case: Case, n: int) -> QuadElem:
    """Partial sums of Cases III/IV read off the residue of n (period 6 resp. 3)."""
    case = Case(case)
    x = case_root(case)
    one = QuadElem.from_rational(1)
    zero = QuadElem.from_rational(0)
    if case is Case.IV:
        table = (zero, x, -one)  # index n % 3
        return table[n % 3]
    if case is Case.III:
        table = (zero, x, 2 * x - 1, 2 * x - 2, x - 2, -one)  # index n % 6
        return table[n % 6]
    raise ValueError("residue tables exist for Cases III and IV only")


@dataclass(frozen=True)
class UnitGroup:
    """Finite multiplicative group generated by a complex case root."""

    case: Case
    elements: tuple[QuadElem, ...]
    order: int

    def index_of(self, z: QuadElem) -> int:
        return self.elements.index(z)


def unit_group(case: Case) -> UnitGroup:
    """The group {x^2, x^3, ...} generated by the Case III or IV root.

    Case III gives the six 6th roots of unity, Case IV the three cube roots.
    verify's unit-groups checks closure, identity, inverses, commutativity,
    cyclicity, and the power cycles (x^(2+6t) = x - 1, x^(4+6t) = -x,
    x^(6+6t) = 1 for III; x^(3+3t) = 1, x^(4+3t) = x for IV) for t in 0..10.
    """
    case = Case(case)
    if case not in (Case.III, Case.IV):
        raise ValueError("unit groups exist for Cases III and IV only")
    x = case_root(case)
    top = 7 if case is Case.III else 4
    elements = tuple(dict.fromkeys(x**k for k in range(2, top + 1)))
    return UnitGroup(case=case, elements=elements, order=len(elements))


def multiplication_table(group: UnitGroup) -> list[list[int]]:
    """Cayley table as indices into group.elements."""
    return [
        [group.index_of(z * w) for w in group.elements]
        for z in group.elements
    ]

