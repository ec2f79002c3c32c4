"""Golden cut, Platonic radical tables, projectile trajectory."""

import math
import re
from fractions import Fraction

import pytest

from quadratica.errors import InvalidAngle, NonFiniteTrajectory, NonPositiveLength, NonPositiveParameter
from quadratica.geometry import (
    PlatonicSolid,
    RadicalExpr,
    golden_cut,
    platonic,
    trajectory,
)
from quadratica.qfield import QuadElem
from quadratica.solver import Quadratic, vertex

PHI = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
# Lucas and Fibonacci numbers: conj(phi)^40 = (L40 - F40*sqrt(5))/2
L40, F40 = 228826127, 102334155


class TestGoldenCut:
    def test_unit(self):
        a, b = golden_cut(1)
        assert a == PHI - 1  # 1/phi
        assert a + b == QuadElem.from_rational(1)
        assert math.isclose(float(a), 0.6180339887498949)

    def test_phi_plus_one(self):
        a, b = golden_cut(1 + PHI)
        assert a == PHI and b == QuadElem.from_rational(1)

    def test_proportion(self):
        a, b = golden_cut(Fraction(7, 3))
        total = a + b
        assert total / a == a / b == PHI
        assert a * a == b * total

    def test_positive_required(self):
        with pytest.raises(NonPositiveLength):
            golden_cut(0)

    def test_tiny_positive_length_is_cut(self):
        # L40 - F40*sqrt(5) = 2*conj(phi)^40 ~ 4e-9 > 0, though float() rounds it to 0.0
        length = QuadElem(L40, -F40, 5)
        assert float(length) == 0.0
        a, b = golden_cut(length)
        assert a * a == b * length and a + b == length

    def test_tiny_negative_length_rejected(self):
        with pytest.raises(NonPositiveLength):
            golden_cut(QuadElem(-L40, F40, 5))


# (solid, expected floats for area/apothem/volume at unit edge)
KNOWN = {
    PlatonicSolid.TETRAHEDRON: (1.7320508075688772, 0.20412414523193154, 0.11785113019775793),
    PlatonicSolid.OCTAHEDRON: (3.4641016151377544, 0.408248290463863, 0.47140452079103173),
    PlatonicSolid.ICOSAHEDRON: (8.660254037844386, 0.7557613140761709, 2.181694990624912),
    PlatonicSolid.HEXAHEDRON: (6.0, 0.5, 1.0),
    PlatonicSolid.DODECAHEDRON: (20.645728807067603, 1.1135163644116066, 7.663118960624632),
}


class TestPlatonic:
    def test_tetra_volume(self):
        row = platonic(PlatonicSolid.TETRAHEDRON, 1)
        assert row.volume.squared() == QuadElem.from_rational(Fraction(1, 72))  # (sqrt(2)/12)^2

    def test_hexa_at_edge_two(self):
        row = platonic(PlatonicSolid.HEXAHEDRON, 2)
        assert float(row.total_area) == 24.0
        assert float(row.volume) == 8.0

    def test_octa_identity_pieces(self):
        row = platonic(PlatonicSolid.OCTAHEDRON, 1)
        # volume sqrt(2)/3 equals (2*sqrt(3)) * (sqrt(6)/6) / 3
        assert math.isclose(float(row.volume), 2 * math.sqrt(3) * (math.sqrt(6) / 6) / 3, rel_tol=1e-15)

    @pytest.mark.parametrize("solid", list(PlatonicSolid))
    def test_volume_identity_exact(self, solid):
        row = platonic(solid, 1)
        third = row.total_area.times(row.apothem).scaled(Fraction(1, 3))
        assert third.equals(row.volume)

    @pytest.mark.parametrize(
        "solid,apothem_sq",
        [
            (PlatonicSolid.TETRAHEDRON, QuadElem.from_rational(Fraction(1, 24))),
            (PlatonicSolid.OCTAHEDRON, QuadElem.from_rational(Fraction(1, 6))),
            (PlatonicSolid.ICOSAHEDRON, QuadElem(Fraction(7, 24), Fraction(3, 24), 5)),
            (PlatonicSolid.HEXAHEDRON, QuadElem.from_rational(Fraction(1, 4))),
            (PlatonicSolid.DODECAHEDRON, QuadElem(Fraction(25, 40), Fraction(11, 40), 5)),
        ],
    )
    def test_apothem_squared_exact(self, solid, apothem_sq):
        assert platonic(solid, 1).apothem.squared() == apothem_sq

    @pytest.mark.parametrize("solid", list(PlatonicSolid))
    def test_against_known_decimals(self, solid):
        area, apothem, volume = KNOWN[solid]
        row = platonic(solid, 1)
        assert math.isclose(float(row.total_area), area, rel_tol=1e-12)
        assert math.isclose(float(row.apothem), apothem, rel_tol=1e-12)
        assert math.isclose(float(row.volume), volume, rel_tol=1e-12)

    @pytest.mark.parametrize("solid", list(PlatonicSolid))
    def test_scaling_laws(self, solid):
        unit = platonic(solid, 1)
        scaled = platonic(solid, Fraction(7, 2))
        factor = Fraction(7, 2)
        assert scaled.total_area.squared() == factor**4 * unit.total_area.squared()
        assert scaled.face_area.squared() == factor**4 * unit.face_area.squared()
        assert scaled.volume.squared() == factor**6 * unit.volume.squared()
        assert scaled.apothem.squared() == factor**2 * unit.apothem.squared()

    def test_face_counts_consistent(self):
        faces = {
            PlatonicSolid.TETRAHEDRON: 4,
            PlatonicSolid.OCTAHEDRON: 8,
            PlatonicSolid.ICOSAHEDRON: 20,
            PlatonicSolid.HEXAHEDRON: 6,
            PlatonicSolid.DODECAHEDRON: 12,
        }
        for solid, count in faces.items():
            row = platonic(solid, 1)
            assert row.face_area.scaled(Fraction(count)).squared() == row.total_area.squared()

    def test_positive_edge_required(self):
        with pytest.raises(NonPositiveLength):
            platonic(PlatonicSolid.HEXAHEDRON, 0)

    def test_radical_squaring_contract(self):
        r = RadicalExpr(Fraction(3, 2), QuadElem.from_rational(5))
        assert r.squared() == QuadElem.from_rational(Fraction(45, 4))

    def test_tiny_negative_inner_rejected(self):
        # -(L40 - F40*sqrt(5)) ~ -4e-9 < 0, though float() rounds it to 0.0
        with pytest.raises(ValueError):
            RadicalExpr(1, QuadElem(-L40, F40, 5))
        assert RadicalExpr(1, QuadElem(L40, -F40, 5)).squared() == QuadElem(L40, -F40, 5)

    def test_complex_inner_rejected(self):
        with pytest.raises(ValueError):
            RadicalExpr(1, QuadElem(1, 1, -3))


class TestTrajectory:
    def test_range(self):
        traj = trajectory(10.0, math.pi / 4, 9.8)
        assert math.isclose(traj.range_x, 10.204081632653061, rel_tol=1e-12)

    def test_small_angle_apex_vanishes(self):
        traj = trajectory(10.0, 0.01, 9.8)
        assert traj.apex_y < 1e-3

    def test_apex_matches_exact_vertex(self):
        traj = trajectory(12.5, 0.6, 9.81)
        exact = vertex(Quadratic(Fraction(traj.a), Fraction(traj.b), Fraction(0)))
        assert math.isclose(float(exact.h), traj.apex_x, rel_tol=1e-9)
        assert math.isclose(float(exact.k), traj.apex_y, rel_tol=1e-9, abs_tol=1e-9)

    def test_apex_closed_form(self):
        v0, beta, g = 15.0, 0.9, 9.8
        traj = trajectory(v0, beta, g)
        assert math.isclose(traj.apex_y, v0**2 * math.sin(beta) ** 2 / (2 * g), rel_tol=1e-12)

    def test_bad_angle(self):
        with pytest.raises(InvalidAngle):
            trajectory(10.0, 0.0)
        with pytest.raises(InvalidAngle):
            trajectory(10.0, math.pi / 2)

    def test_bad_speed(self):
        with pytest.raises(NonPositiveParameter):
            trajectory(-1.0, 0.5)

    @pytest.mark.parametrize(
        "v0, beta, g",
        [
            (math.nan, 0.785398, 9.8),  # every value NaN
            (10.0, 0.785398, math.nan),
            (math.inf, 0.785398, 9.8),
            (10.0, 0.785398, math.inf),
            (10.0, 0.785398, 1e-320),  # a underflows: apex at infinity
            (1e200, 0.785398, 9.8),  # v0^2 overflows: a = -0.0
            (1e-200, 0.785398, 9.8),  # v0^2 underflows: a = -g/0
        ],
    )
    def test_non_finite_refused(self, v0, beta, g):
        with pytest.raises(NonFiniteTrajectory, match=re.escape(f"v0 = {v0}, beta = {beta}, g = {g} ")):
            trajectory(v0, beta, g)
