"""Metallic means, the 4n +/- 1 radicand split, and the golden-ratio ledger.

The positive root of x^2 - p*x - q is the metallic mean sigma_{p,q} (gold,
silver, bronze at q = 1, p = 1, 2, 3). A second normalization x^2 - x - n
covers radicands m = 4n + 1 (real pair) while m = 4n - 1 forces the complex
pair of x^2 - x + n; :func:`radicand_classify` bridges the two framings.

All algebraic identities here are exact in Q(sqrt(m)); only the relations
involving pi (cos(pi/5) = phi/2 and friends) are checked numerically, at
1e-12, since no exact substrate for pi exists.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import NegativeIndex, NonPositiveParameter
from .fibgroup import PHI, PHI_BAR
from .qfield import QuadElem, qf_make
from .solver import Quadratic

__all__ = [
    "MetallicEntry",
    "metallic",
    "RadicandFamily",
    "RadicandClass",
    "radicand_classify",
    "creation_equation",
    "TrigReport",
    "golden_trig",
    "special_case",
    "PhiLedgerRow",
    "phi_ledger",
]

_NAMES = {(1, 1): "gold", (2, 1): "silver", (3, 1): "bronze"}


@dataclass(frozen=True)
class MetallicEntry:
    p: int
    q: int
    equation: Quadratic
    sigma: QuadElem
    name: str | None = None


def metallic(p: int, q: int) -> MetallicEntry:
    """Metallic mean (p + sqrt(p^2 + 4q))/2, the positive root of x^2 - px - q.

    The radicand is canonicalized, so sigma_{2,1} comes out as 1 + sqrt(2)
    rather than (2 + sqrt(8))/2.
    """
    if p < 1 or q < 1:
        raise NonPositiveParameter("metallic means need p, q >= 1")
    equation = Quadratic(1, -p, -q)
    sigma = QuadElem(Fraction(p, 2), Fraction(1, 2), p * p + 4 * q)
    return MetallicEntry(p=p, q=q, equation=equation, sigma=sigma, name=_NAMES.get((p, q)))


class RadicandFamily(str, enum.Enum):
    REAL = "RealFamily"
    COMPLEX = "ComplexFamily"
    NOT_ODD = "NotOdd"


@dataclass(frozen=True)
class RadicandClass:
    family: RadicandFamily
    n: int | None
    equation: Quadratic | None


def radicand_classify(m: int) -> RadicandClass:
    """Sort an odd radicand into the two unit-trace families.

    m = 4n + 1 -> roots (1 +/- sqrt(m))/2 solve x^2 - x - n = 0 (real pair);
    m = 4n - 1 -> roots (1 +/- sqrt(m)*j)/2 solve x^2 - x + n = 0 (complex
    pair). Even m fits neither.
    """
    if m < 1:
        raise NonPositiveParameter("radicand must be >= 1")
    if m % 2 == 0:
        return RadicandClass(RadicandFamily.NOT_ODD, None, None)
    if m % 4 == 1:
        n = (m - 1) // 4
        return RadicandClass(RadicandFamily.REAL, n, Quadratic(1, -1, -n))
    n = (m + 1) // 4
    return RadicandClass(RadicandFamily.COMPLEX, n, Quadratic(1, -1, n))


def creation_equation(m: int) -> Fraction:
    """PHI^2 + conj(PHI)^2 for PHI = (1 + sqrt(m))/2; always equals (m + 1)/2."""
    big_phi = qf_make(Fraction(1, 2), Fraction(1, 2), m)
    return (big_phi**2 + big_phi.conj() ** 2).as_fraction()


@dataclass(frozen=True)
class TrigReport:
    cos_pi_5_matches_half_phi: bool
    two_cos_2pi_5_matches: bool
    quintuple_identity_max_err: float
    normalization_exact: bool
    generalized_normalization_exact: bool
    feasible_radicands: tuple[int, ...]
    infeasible_example: int

    @property
    def ok(self) -> bool:
        return (
            self.cos_pi_5_matches_half_phi
            and self.two_cos_2pi_5_matches
            and self.quintuple_identity_max_err <= 1e-12
            and self.normalization_exact
            and self.generalized_normalization_exact
        )


def golden_trig(samples: int = 1000, seed: int = 5) -> TrigReport:
    """Numeric (1e-12) checks of the phi/pi relations plus their exact halves.

    Verifies cos(pi/5) = phi/2 and 2*cos(2*pi/5) = (-1 + sqrt(5))/2, the
    quintuple-angle identity sin(5t) = 5*sin(t) - 20*sin(t)^3 + 16*sin(t)^5 at
    random angles, the exact normalization phi^2/4 + conj(phi)^2/4 + 1/4 = 1,
    its generalization PHI^2/4 + (7-m)/8 + conj(PHI)^2/4 = 1 for every
    feasible radicand m: cos(t) = PHI/2 needs (1 + sqrt(m))/4 <= 1, i.e.
    m <= 9, a bound verify's creation-trig checks.
    """
    phi_f = float(PHI)
    c1 = abs(math.cos(math.pi / 5) - phi_f / 2) <= 1e-12
    c2 = abs(2 * math.cos(2 * math.pi / 5) - (-1 + math.sqrt(5)) / 2) <= 1e-12

    rng = random.Random(seed)
    max_err = 0.0
    for _ in range(samples):
        t = rng.uniform(-math.pi, math.pi)
        s = math.sin(t)
        err = abs(math.sin(5 * t) - (5 * s - 20 * s**3 + 16 * s**5))
        max_err = max(max_err, err)

    norm_exact = (PHI**2 + PHI_BAR**2) / 4 + Fraction(1, 4) == 1

    feasible = tuple(m for m in range(2, 10) if m not in (4, 9))
    gen_ok = True
    for m in feasible:
        big = qf_make(Fraction(1, 2), Fraction(1, 2), m)
        lhs = (big**2 + big.conj() ** 2) / 4 + Fraction(7 - m, 8)
        gen_ok = gen_ok and lhs == 1

    return TrigReport(
        cos_pi_5_matches_half_phi=c1,
        two_cos_2pi_5_matches=c2,
        quintuple_identity_max_err=max_err,
        normalization_exact=norm_exact,
        generalized_normalization_exact=gen_ok,
        feasible_radicands=feasible,
        infeasible_example=10,  # (1 + sqrt(10))/4 > 1: no angle has that cosine
    )


def special_case(k: int, m: int, variant: str = "plus", complex_radicand: bool = False) -> Quadratic:
    """Quadratic with roots (+/-1 + 2k +/- sqrt(m))/2 built via Vieta.

    variant 'plus' takes the +1 offset: x^2 - (2k+1)x + k^2 + k + (1-m)/4;
    'minus' the -1 offset: x^2 - (2k-1)x + k^2 - k + (1-m)/4. Passing
    complex_radicand=True forces the imaginary case regardless of m's sign:
    the radicand becomes -|m|, the roots (+/-1 + 2k +/- sqrt(|m|)j)/2, and
    the constant gains (1+|m|)/4.
    """
    if variant not in ("plus", "minus"):
        raise ValueError("variant must be 'plus' or 'minus'")
    radicand = -abs(m) if complex_radicand else m
    offset = 1 if variant == "plus" else -1
    root = qf_make(Fraction(offset + 2 * k, 2), Fraction(1, 2), radicand)
    return Quadratic.from_roots(root, root.conj())


@dataclass(frozen=True)
class PhiLedgerRow:
    """phi^n = coeff*phi + const, with the conjugate sum and difference."""

    n: int
    coeff: int
    const: int
    power_sum: int  # phi^n + conj(phi)^n
    diff_coeff: int  # phi^n - conj(phi)^n = diff_coeff * sqrt(5)
    errata_id: str | None = None


def phi_ledger(n_max: int) -> list[PhiLedgerRow]:
    """Rows n = 2..n_max of the phi power ledger, from one Fibonacci walk.

    Row n carries (coeff, const) = (fib(n-1), fib(n-2)), so phi^n and
    conj(phi)^n both equal coeff*x + const at their own root x. Since
    phi + conj(phi) = 1 and phi - conj(phi) = sqrt(5), the row's
    phi^n + conj(phi)^n is coeff + 2*const and phi^n - conj(phi)^n is
    coeff*sqrt(5). verify's phi-ledger compares every row with exact powers.
    Row 6 is tagged with the errata id for the source text's displayed
    8*phi + 3 (derived: 8*phi + 5).
    """
    if n_max < 2:
        raise NegativeIndex("ledger starts at n = 2")
    rows = []
    coeff, const = 1, 1  # phi^2 = phi + 1
    for n in range(2, n_max + 1):
        rows.append(
            PhiLedgerRow(
                n=n,
                coeff=coeff,
                const=const,
                power_sum=coeff + 2 * const,
                diff_coeff=coeff,
                errata_id="phi-sixth-power" if n == 6 else None,
            )
        )
        coeff, const = coeff + const, coeff  # x^(n+1) = x * x^n with x^2 = x + 1
    return rows

