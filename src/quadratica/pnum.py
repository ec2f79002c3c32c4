"""Repdigit "p-numbers" p x t (the digit p written t times) and their parabolas."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidDigit, NegativeIndex, NonPositiveParameter
from .solver import Quadratic

__all__ = [
    "PNumber",
    "pnum_value",
    "as_repdigit",
    "associate",
    "digital_root",
    "pnum_parabola",
]


@dataclass(frozen=True)
class PNumber:
    """digit in 1..9 repeated reps >= 1 times; value digit * (10^reps - 1)/9."""

    digit: int
    reps: int

    def __post_init__(self):
        if not 1 <= self.digit <= 9:
            raise InvalidDigit("digit must be in 1..9")
        if self.reps < 1:
            raise NonPositiveParameter("need at least one repetition")

    def __str__(self) -> str:
        return f"{self.digit}x{self.reps}"


def pnum_value(pn: PNumber) -> int:
    """The repdigit integer, e.g. 7x3 -> 777."""
    return pn.digit * (10**pn.reps - 1) // 9


def as_repdigit(n: int) -> PNumber | None:
    """Recognize a repdigit exactly; None otherwise."""
    if n < 1:
        return None
    text = str(n)
    if len(set(text)) != 1:
        return None
    return PNumber(int(text[0]), len(text))


def associate(n: int) -> PNumber:
    """Map an integer to its p-number.

    Repdigits (single digits included) are fixed points. Anything else maps
    to units-digit x 1, with a trailing zero bumped to 1 x 1.
    """
    if n < 1:
        raise NonPositiveParameter("association is defined for n >= 1")
    rep = as_repdigit(n)
    if rep is not None:
        return rep
    units = n % 10
    if units == 0:
        return PNumber(1, 1)
    return PNumber(units, 1)


def digital_root(n: int) -> int:
    """Iterated digit sum down to a single digit (0 stays 0)."""
    if n < 0:
        raise NegativeIndex("digital root is defined for n >= 0")
    while n >= 10:
        n = sum(int(ch) for ch in str(n))
    return n


def pnum_parabola(pn: PNumber) -> tuple[Quadratic, Quadratic]:
    """The parabola x^2 - (p+t)x + pt with roots {p, t}, and its sign mirror.

    The mirror x^2 + (p+t)x + pt has roots {-p, -t}. Here t is the
    repetition count, playing the second root.
    """
    p, t = pn.digit, pn.reps
    return (
        Quadratic(1, -(p + t), p * t),
        Quadratic(1, p + t, p * t),
    )
