"""Golden cut, Platonic-solid radical tables, and the projectile quadratic.

Platonic areas, apothems, and volumes are nested radicals scale * sqrt(inner)
with inner living in Q(sqrt(5)) at worst (icosahedron/dodecahedron); the
volume identity V = A * apothem / 3 is decided by exact comparison of squared
values, never by building a degree-4 tower. The trajectory path is plain
float work: its inputs are physical measurements.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidAngle, NonFiniteTrajectory, NonPositiveLength, NonPositiveParameter
from .qfield import QuadElem, RatLike, rational

__all__ = [
    "golden_cut",
    "RadicalExpr",
    "PlatonicSolid",
    "PlatonicRow",
    "platonic",
    "Trajectory",
    "trajectory",
]

_PHI = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)


def golden_cut(length: Union[RatLike, QuadElem]) -> tuple[QuadElem, QuadElem]:
    """Split a length so that (a + b)/a = a/b = phi, exactly in Q(sqrt(5)).

    a = L/phi and b = L - a; verify's platonic-goldencut-trajectory checks
    the defining proportion a^2 = b(a + b) and a/b = phi.
    """
    total = length if isinstance(length, QuadElem) else QuadElem.from_rational(rational(length))
    if total.sign() <= 0:
        raise NonPositiveLength("cut length must be > 0")
    a = total / _PHI
    return a, total - a


@dataclass(frozen=True)
class RadicalExpr:
    """scale * sqrt(inner) with rational scale and inner in Q(sqrt(m)).

    Compared by squaring: scale^2 * inner is exact, and all table values are
    positive, so equal squares mean equal values.
    """

    scale: Fraction
    inner: QuadElem

    def __post_init__(self):
        object.__setattr__(self, "scale", rational(self.scale))
        inner = self.inner if isinstance(self.inner, QuadElem) else QuadElem.from_rational(self.inner)
        object.__setattr__(self, "inner", inner)
        if inner.sign() < 0:
            raise ValueError("inner radical must be nonnegative")

    def squared(self) -> QuadElem:
        return self.scale * self.scale * self.inner

    def times(self, other: "RadicalExpr") -> "RadicalExpr":
        return RadicalExpr(self.scale * other.scale, self.inner * other.inner)

    def scaled(self, factor: Fraction) -> "RadicalExpr":
        return RadicalExpr(self.scale * factor, self.inner)

    def __float__(self) -> float:
        return float(self.scale) * math.sqrt(float(self.inner))

    def equals(self, other: "RadicalExpr") -> bool:
        return self.squared() == other.squared() and (self.scale >= 0) == (other.scale >= 0)

    def __str__(self) -> str:
        if self.inner == 1:
            return str(self.scale)
        return f"{self.scale}*sqrt({self.inner})"


class PlatonicSolid(str, enum.Enum):
    TETRAHEDRON = "Tetrahedron"
    OCTAHEDRON = "Octahedron"
    ICOSAHEDRON = "Icosahedron"
    HEXAHEDRON = "Hexahedron"
    DODECAHEDRON = "Dodecahedron"


@dataclass(frozen=True)
class PlatonicRow:
    solid: PlatonicSolid
    edge: Fraction
    face_area: RadicalExpr
    total_area: RadicalExpr
    apothem: RadicalExpr
    volume: RadicalExpr


def _q(a, b, m) -> QuadElem:
    return QuadElem(Fraction(a), Fraction(b), m)


# per unit edge: (face area, total area, apothem/inradius, volume)
_TABLE = {
    PlatonicSolid.TETRAHEDRON: (
        (Fraction(1, 4), _q(3, 0, 0)),
        (Fraction(1), _q(3, 0, 0)),
        (Fraction(1, 12), _q(6, 0, 0)),
        (Fraction(1, 12), _q(2, 0, 0)),
    ),
    PlatonicSolid.OCTAHEDRON: (
        (Fraction(1, 4), _q(3, 0, 0)),
        (Fraction(2), _q(3, 0, 0)),
        (Fraction(1, 6), _q(6, 0, 0)),
        (Fraction(1, 3), _q(2, 0, 0)),
    ),
    PlatonicSolid.ICOSAHEDRON: (
        (Fraction(1, 4), _q(3, 0, 0)),
        (Fraction(5), _q(3, 0, 0)),
        (Fraction(1, 2), _q(Fraction(7, 6), Fraction(3, 6), 5)),
        (Fraction(5, 6), _q(Fraction(7, 2), Fraction(3, 2), 5)),
    ),
    PlatonicSolid.HEXAHEDRON: (
        (Fraction(1), _q(1, 0, 0)),
        (Fraction(6), _q(1, 0, 0)),
        (Fraction(1, 2), _q(1, 0, 0)),
        (Fraction(1), _q(1, 0, 0)),
    ),
    PlatonicSolid.DODECAHEDRON: (
        (Fraction(5, 4), _q(Fraction(5, 5), Fraction(2, 5), 5)),
        (Fraction(15), _q(Fraction(5, 5), Fraction(2, 5), 5)),
        (Fraction(1, 2), _q(Fraction(25, 10), Fraction(11, 10), 5)),
        (Fraction(5, 2), _q(Fraction(47, 10), Fraction(21, 10), 5)),
    ),
}


def platonic(solid: PlatonicSolid, edge: RatLike = 1) -> PlatonicRow:
    """Radical-exact face area, total area, apothem, volume at a given edge.

    Scales the unit-edge table by edge^2 (areas) and edge^3 (volume).
    verify's platonic-goldencut-trajectory checks the inradius identity
    V = A * apothem / 3 by squared comparison.
    """
    solid = PlatonicSolid(solid)
    edge = rational(edge)
    if edge <= 0:
        raise NonPositiveLength("edge must be > 0")
    face_u, total_u, apothem_u, volume_u = (RadicalExpr(s, q) for s, q in _TABLE[solid])
    e2, e3 = edge * edge, edge * edge * edge
    return PlatonicRow(
        solid=solid,
        edge=edge,
        face_area=face_u.scaled(e2),
        total_area=total_u.scaled(e2),
        apothem=apothem_u.scaled(edge),
        volume=volume_u.scaled(e3),
    )


@dataclass(frozen=True)
class Trajectory:
    """y = a*x^2 + b*x for a launch; c is always 0 (launch from the origin)."""

    a: float
    b: float
    c: float
    apex_x: float
    apex_y: float
    range_x: float


def trajectory(v0: float, beta: float, g: float = 9.8) -> Trajectory:
    """Projectile path y = -g x^2 / (2 v0^2 cos^2 b) + tan(b) x.

    Apex from the vertex formula, range from v0^2 sin(2b)/g; verify's
    platonic-goldencut-trajectory cross-checks the two (the range is twice
    the apex abscissa) at 1e-9 relative. A launch whose coefficients, apex
    or range come out NaN or infinite (a NaN input, or v0 or g so large or
    small that v0^2 or a leaves the float range) raises NonFiniteTrajectory.
    """
    if not 0 < beta < math.pi / 2:
        raise InvalidAngle("angle must be in (0, pi/2)")
    if v0 <= 0 or g <= 0:
        raise NonPositiveParameter("speed and gravity must be positive")
    den = 2 * v0 * v0 * math.cos(beta) ** 2
    a = -g / den if den else -math.inf  # den is 0 when v0^2 underflows
    b = math.tan(beta)
    # a is 0 when v0^2 overflows or g underflows: the apex is at infinity
    apex_x, apex_y = (-b / (2 * a), -(b * b) / (4 * a)) if a else (math.inf, math.inf)
    range_x = v0 * v0 * math.sin(2 * beta) / g
    if not all(map(math.isfinite, (a, b, apex_x, apex_y, range_x))):
        inputs = f"v0 = {v0}, beta = {beta}, g = {g}"
        raise NonFiniteTrajectory(f"{inputs} give a non-finite coefficient, apex or range")
    return Trajectory(a=a, b=b, c=0.0, apex_x=apex_x, apex_y=apex_y, range_x=range_x)
