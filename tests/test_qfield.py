"""Quadratic-field arithmetic: construction, canonical form, field axioms."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadratica.errors import DivisionByZero, MixedRadicands, PerfectSquareRadicand
from quadratica import qfield
from quadratica.metallic import metallic
from quadratica.qfield import (
    BigRational,
    QuadElem,
    parse_quad,
    qf_make,
)

PHI = qf_make(Fraction(1, 2), Fraction(1, 2), 5)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
radicands = st.sampled_from([2, 3, 5, -1, -3, 13])


def elems(m):
    return st.builds(lambda a, b: QuadElem(a, b, m), rationals, rationals)


class TestBigRational:
    """The substrate contract: lowest terms, positive denominator, canonical zero."""

    def test_lowest_terms(self):
        assert BigRational(2, 4) == BigRational(1, 2)
        assert BigRational(2, 4).numerator == 1

    def test_denominator_positive(self):
        assert BigRational(1, -3).denominator == 3
        assert BigRational(1, -3).numerator == -1

    def test_zero_canonical(self):
        assert BigRational(0, 7) == BigRational(0, 1)
        assert BigRational(0, 7).denominator == 1


class TestConstruction:
    def test_phi(self):
        assert PHI.coords() == (Fraction(1, 2), Fraction(1, 2))
        assert PHI.m == 5

    def test_rational_embedding(self):
        z = qf_make(3, 0, 7)
        assert z.is_rational and z.as_fraction() == 3

    def test_square_extraction(self):
        # sqrt(12) = 2*sqrt(3), checked against the numeric embedding
        z = qf_make(0, 1, 12)
        assert (z.a, z.b, z.m) == (0, 2, 3)
        assert math.isclose(float(z), math.sqrt(12), rel_tol=1e-15)
        assert qf_make(1, 1, 12) == qf_make(1, 2, 3)

    def test_negative_radicand_extraction(self):
        assert qf_make(0, 1, -12) == qf_make(0, 2, -3)

    @pytest.mark.parametrize("m", [0, 1, 4, 9, 49, -0])
    def test_degenerate_radicands_rejected(self, m):
        with pytest.raises(PerfectSquareRadicand):
            qf_make(1, 1, m)

    def test_canonicalization_idempotent(self):
        z = qf_make(Fraction(3, 4), Fraction(-2, 7), 45)
        assert QuadElem(z.a, z.b, z.m) == z

    def test_rational_elements_forget_radicand(self):
        assert QuadElem(3, 0, 5) == QuadElem(3, 0, 7) == QuadElem.from_rational(3)
        assert hash(QuadElem(3, 0, 5)) == hash(QuadElem.from_rational(3))


class TestArithmetic:
    def test_conjugate_product(self):
        assert QuadElem(1, 1, 2) * QuadElem(1, -1, 2) == -1

    def test_phi_square(self):
        assert PHI * PHI == PHI + 1

    def test_phi_times_conjugate(self):
        assert PHI * PHI.conj() == -1

    def test_division(self):
        z = QuadElem(3, 2, 7)
        w = QuadElem(1, -1, 7)
        assert z / w * w == z

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            PHI / QuadElem.from_rational(0)

    def test_mixed_radicands_rejected(self):
        with pytest.raises(MixedRadicands):
            QuadElem(0, 1, 2) + QuadElem(0, 1, 3)

    def test_rational_mixes_with_anything(self):
        assert QuadElem.from_rational(2) * QuadElem(0, 1, 3) == QuadElem(0, 2, 3)
        assert PHI + Fraction(1, 2) == QuadElem(1, Fraction(1, 2), 5)

    def test_pow_negative(self):
        assert PHI**-1 == PHI - 1  # 1/phi = phi - 1

    def test_scalar_ops(self):
        assert 2 * PHI - 1 == QuadElem(0, 1, 5)  # 2*phi - 1 = sqrt(5)
        assert 1 / QuadElem(0, 1, 5) == QuadElem(0, Fraction(1, 5), 5)
        assert 1 - PHI == PHI.conj()  # phi + conj(phi) = 1


class TestConjNorm:
    def test_phi(self):
        zbar, norm = PHI.conj(), PHI.norm()
        assert zbar == QuadElem(Fraction(1, 2), Fraction(-1, 2), 5)
        assert norm == -1

    def test_imaginary_unit(self):
        i = QuadElem(0, 1, -1)
        zbar, norm = i.conj(), i.norm()
        assert zbar == QuadElem(0, -1, -1)
        assert norm == 1

    def test_general(self):
        # a^2 - m*b^2 cross-checked numerically
        z = QuadElem(3, 2, 7)
        zbar, norm = z.conj(), z.norm()
        assert norm == 9 - 7 * 4 == -19
        assert math.isclose(float(z) * float(zbar), -19.0, rel_tol=1e-12)


class TestSqrtSolution:
    """qf_make(0, 1, m) and its negative solve x^2 = m inside Q(sqrt(m))."""

    def test_five(self):
        plus = qf_make(0, 1, 5)
        assert plus**2 == 5 and (-plus) ** 2 == 5
        assert plus != -plus

    def test_gaussian(self):
        j = qf_make(0, 1, -1)
        assert j**2 == -1 and (-j) ** 2 == -1

    def test_perfect_square_rejected(self):
        with pytest.raises(PerfectSquareRadicand):
            qf_make(0, 1, 4)

    def test_square_factor_still_squares_back(self):
        assert qf_make(0, 1, 12) ** 2 == 12


class TestCoords:
    def test_phi(self):
        assert PHI.coords() == (Fraction(1, 2), Fraction(1, 2))

    @given(elems(5), elems(5))
    def test_additive(self, z, w):
        az, bz = z.coords()
        aw, bw = w.coords()
        assert (z + w).coords() == (az + aw, bz + bw)

    def test_not_multiplicative(self):
        # sqrt(2)^2 = 2 has coords (2, 0); componentwise product gives (0, 1)
        root2 = QuadElem(0, 1, 2)
        assert (root2 * root2).coords() == (2, 0)
        assert (0 * 0, 1 * 1) != (2, 0)


class TestEmbedding:
    @given(elems(3), elems(3))
    def test_float_multiplicative(self, z, w):
        got = float(z * w)
        assert math.isclose(got, float(z) * float(w), rel_tol=1e-12, abs_tol=1e-12)

    def test_negative_radicand_is_complex(self):
        z = QuadElem(1, 1, -3)
        with pytest.raises(ValueError):
            float(z)
        assert complex(z) == complex(1, math.sqrt(3))


class TestFieldAxioms:
    @given(radicands.flatmap(lambda m: st.tuples(elems(m), elems(m), elems(m))))
    def test_ring_axioms(self, triple):
        z, w, v = triple
        assert (z + w) + v == z + (w + v)
        assert (z * w) * v == z * (w * v)
        assert z * (w + v) == z * w + z * v
        assert z + w == w + z
        assert z * w == w * z

    @given(radicands.flatmap(lambda m: st.tuples(elems(m), elems(m))))
    def test_norm_and_conjugation_morphisms(self, pair):
        z, w = pair
        assert (z * w).norm() == z.norm() * w.norm()
        assert (z * w).conj() == z.conj() * w.conj()
        assert (z + w).conj() == z.conj() + w.conj()

    @given(radicands.flatmap(elems))
    def test_inverses(self, z):
        if z:
            assert z * z.inverse() == QuadElem.from_rational(1)
        assert z + (-z) == QuadElem.from_rational(0)


class TestTextRoundTrip:
    @pytest.mark.parametrize(
        "text",
        ["1/2 + 1/2√5", "2√3", "-√5", "-7/2", "0", "3 - 2√7", "1/2 - 1/2√-3", "√-1"],
    )
    def test_parse_render(self, text):
        assert str(parse_quad(text)) == text

    @given(rationals, rationals, radicands)
    def test_round_trip_everything(self, a, b, m):
        z = QuadElem(a, b, m)
        assert parse_quad(str(z)) == z
        assert QuadElem.from_dict(z.to_dict()) == z

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_quad("3 + sqrt(5)")


def ref_render(a: Fraction, b: Fraction, m: int) -> str:
    """Oracle: the rendering 'a + b√m' built from Fraction coordinates."""
    if b == 0:
        return str(a)
    coef = "" if abs(b) == 1 else str(abs(b))
    radical = f"{coef}√{m}"
    if a == 0:
        return radical if b > 0 else f"-{radical}"
    return f"{a} {'+' if b > 0 else '-'} {radical}"


wide_rationals = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**12)


class TestIntegerText:
    """str and parse_quad work on the int slots; the oracles here build Fractions."""

    @given(wide_rationals, wide_rationals, radicands)
    def test_str_matches_fraction_rendering(self, a, b, m):
        z = QuadElem(a, b, m)
        assert str(z) == ref_render(z.a, z.b, z.m)

    @pytest.mark.parametrize(
        "text,a,b,m",
        [
            ("√12", "0", "1", 12),
            ("2/4 + 6/3√8", "2/4", "6/3", 8),
            ("√4", "0", "1", 4),
            ("-√-1", "0", "-1", -1),
            ("0√5", "0", "0", 5),
            ("1/2 - 0√5", "1/2", "0", 5),
            ("007/014 + 0003/009√0012", "7/14", "3/9", 12),
            ("-006 - 04√-0018", "-6", "-4", -18),
            ("3 + 2√-4", "3", "2", -4),
        ],
    )
    def test_parse_non_canonical_spellings(self, text, a, b, m):
        z = parse_quad(text)
        assert z == QuadElem(Fraction(a), Fraction(b), m)
        assert_canonical(z)

    @pytest.mark.parametrize(
        "text,bad", [("1/0 + √2", "1/0"), ("-3/0 + √2", "-3/0"), ("3 - 1/0√2", "1/0"), ("1/0 + 2/0√2", "1/0")]
    )
    def test_zero_denominator_raises_as_fraction_does(self, text, bad):
        with pytest.raises(ZeroDivisionError) as want:
            Fraction(bad)
        with pytest.raises(ZeroDivisionError) as got:
            parse_quad(text)
        assert str(got.value) == str(want.value)

    @given(radicands.flatmap(lambda m: st.tuples(elems(m), elems(m))))
    def test_division_is_multiplication_by_the_inverse(self, pair):
        z, w = pair
        if w:
            assert z / w == z * w.inverse()
            assert 3 / w == 3 * w.inverse()


# ---------------------------------------------------------------- integer core


def assert_canonical(z):
    """The stored (A + B*sqrt(m))/D: D > 0, gcd(A, B, D) = 1, m = 0 iff B = 0."""
    A, B, D, m = z._A, z._B, z._D, z._m
    assert all(type(v) is int for v in (A, B, D, m))
    assert D > 0
    assert math.gcd(A, B, D) == 1
    assert (m == 0) == (B == 0)
    if m:
        assert m != 1 and all(m % (p * p) for p in range(2, 12))
    assert (z.a, z.b) == (Fraction(A, D), Fraction(B, D))


# Reference arithmetic on Fraction coordinate pairs (a, b) for a + b*sqrt(m),
# written here so that the oracle does not share code with qfield.


def ref_mul(p, q, m):
    (a1, b1), (a2, b2) = p, q
    return (a1 * a2 + m * b1 * b2, a1 * b2 + b1 * a2)


def ref_inverse(p, m):
    a, b = p
    n = a * a - m * b * b
    return (a / n, -b / n)


def ref_pow(p, k, m):
    if k < 0:
        return ref_pow(ref_inverse(p, m), -k, m)
    result = (Fraction(1), Fraction(0))
    for _ in range(k):
        result = ref_mul(result, p, m)
    return result


def matches(z, pair, m):
    a, b = pair
    return (z.a, z.b, z.m) == (a, b, m if b else 0)


class TestIntegerCore:
    @given(radicands.flatmap(lambda m: st.tuples(elems(m), elems(m))), st.integers(-4, 6))
    def test_canonical_after_every_operation(self, pair, k):
        z, w = pair
        results = [z, w, z + w, z - w, z * w, -z, z.conj(), z + 1, 2 - z, z * Fraction(3, 4)]
        if w:
            results += [z / w, w.inverse(), Fraction(5, 3) / w]
        if z or k >= 0:
            results.append(z**k)
        for r in results:
            assert_canonical(r)

    def test_canonical_from_every_constructor(self):
        for z in (
            QuadElem(Fraction(2, 4), 3, 12),
            QuadElem(6, 4, 4),  # sqrt(4) folds into the rational part
            QuadElem(0, 0, 7),
            QuadElem("3/9", "-2/6", -12),
            QuadElem.from_rational(Fraction(-6, 8)),
            QuadElem.from_rational(0),
            parse_quad("1/2 - 1/6√-3"),
            QuadElem.from_dict({"a": {"num": 1, "den": 6}, "b": {"num": 1, "den": 4}, "m": 50}),
        ):
            assert_canonical(z)

    def test_spellings_agree(self):
        z = QuadElem(Fraction(2, 4), 3, 12)
        w = QuadElem(Fraction(1, 2), 6, 3)
        assert z == w and hash(z) == hash(w)
        assert (z._A, z._B, z._D, z._m) == (1, 12, 2, 3)
        assert QuadElem(1, 1, 4) == QuadElem(3, 0, 2) == 3
        assert hash(QuadElem(1, 1, 4)) == hash(3)
        assert QuadElem("1/2", "1/2", 5) == PHI

    @given(st.one_of(st.integers(-(10**30), 10**30), rationals))
    def test_rational_hashes_like_fraction(self, x):
        z = QuadElem.from_rational(x)
        assert z == x and hash(z) == hash(x) == hash(Fraction(x))
        assert hash(QuadElem(x, 0, 5)) == hash(x)

    def test_rational_results_hash_like_fractions(self):
        assert hash(PHI * PHI.conj()) == hash(-1)
        assert hash(PHI / 2 - PHI.conj() / 2 - QuadElem(0, Fraction(1, 2), 5)) == hash(0)
        assert {QuadElem.from_rational(Fraction(1, 3)), Fraction(1, 3)} == {Fraction(1, 3)}

    def test_types_and_immutability(self):
        z = QuadElem(Fraction(3, 4), -2, 7)
        assert type(z.a) is Fraction and type(z.b) is Fraction and type(z.m) is int
        assert type(QuadElem.from_rational(3).b) is Fraction
        for name in ("a", "b", "m", "extra"):
            with pytest.raises(AttributeError):
                setattr(z, name, 1)
        assert z == QuadElem(Fraction(3, 4), -2, 7)

    @pytest.mark.parametrize(
        "z",
        [PHI, QuadElem(Fraction(-7, 6), Fraction(5, 4), -3), QuadElem.from_rational(Fraction(9, 2))],
    )
    def test_pickle_and_deepcopy(self, z):
        for back in (pickle.loads(pickle.dumps(z)), copy.deepcopy(z), copy.copy(z)):
            assert type(back) is QuadElem
            assert back == z and hash(back) == hash(z) and str(back) == str(z)
            assert_canonical(back)

    def test_repr_and_dict_unchanged(self):
        z = QuadElem(Fraction(2, 4), 3, 12)
        assert repr(z) == "QuadElem(1/2, 6, 3)"
        assert z.to_dict() == {"a": {"num": 1, "den": 2}, "b": {"num": 6, "den": 1}, "m": 3}
        assert str(QuadElem(0, Fraction(-1, 3), 5)) == "-1/3√5"

    @given(
        radicands.flatmap(lambda m: st.tuples(st.just(m), elems(m), elems(m))),
        st.integers(-5, 7),
    )
    def test_agrees_with_coordinate_reference(self, triple, k):
        m, z, w = triple
        p, q = (z.a, z.b), (w.a, w.b)
        assert matches(z * w, ref_mul(p, q, m), m)
        if w:
            assert matches(w.inverse(), ref_inverse(q, m), m)
            assert matches(z / w, ref_mul(p, ref_inverse(q, m), m), m)
        if z or k >= 0:
            assert matches(z**k, ref_pow(p, k, m), m)


def metallic_powers(k: int, ns):
    """{n: (U(n), U(n-1))} for U(0) = 0, U(1) = 1, U(n+1) = k*U(n) + U(n-1).

    The metallic mean sigma_k is a root of x^2 = k*x + 1, so sigma_k^n = U(n)*sigma_k + U(n-1).
    """
    wanted, out = set(ns), {}
    prev, cur = 1, 0  # U(-1), U(0)
    for n in range(max(wanted) + 1):
        if n in wanted:
            out[n] = (cur, prev)
        prev, cur = cur, k * cur + prev
    return out


BIT_EDGES = sorted({n for j in range(15) for n in (2**j - 1, 2**j, 2**j + 1)} | {20000})


class TestBigPowers:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_metallic_means_against_their_recurrence(self, k):
        sigma = metallic(k, 1).sigma
        assert sigma._D == (2 if k % 2 else 1)
        for n, (u, u_prev) in metallic_powers(k, BIT_EDGES).items():
            power = sigma**n
            assert power == u * sigma + u_prev, (k, n)
            assert_canonical(power)

    def test_non_unit_with_a_denominator(self):
        p, m = (Fraction(1, 3), Fraction(2, 5)), 2
        z = QuadElem(*p, m)
        assert z._D > 1 and z.norm() not in (1, -1)
        for n in range(-20, 121):
            power = z**n
            assert matches(power, ref_pow(p, n, m), m), n
            assert_canonical(power)

    @pytest.mark.parametrize("x", [Fraction(-3, 7), Fraction(5), Fraction(1, 2)])
    def test_rational_matches_fraction(self, x):
        z = QuadElem.from_rational(x)
        for n in [*range(-30, 65), 1000, 1001]:
            power = z**n
            assert power.as_fraction() == x**n, n
            assert_canonical(power)

    def test_zero(self):
        zero = QuadElem.from_rational(0)
        assert zero**0 == 1 and PHI**0 == 1
        assert zero**1 == zero**5 == 0
        with pytest.raises(DivisionByZero):
            zero**-1


def chain_powers(z, ns):
    """{n: z**n} for the wanted n >= 0, by repeated multiplication of integer numerators.

    z^n = (A_n + B_n*sqrt(m)) / D^n with A_(n+1) = A*A_n + m*B*B_n and
    B_(n+1) = A*B_n + B*A_n: one small-by-big product per term, no Lucas sequence.
    """
    A, B, D, m = z._A, z._B, z._D, z._m
    wanted, out = set(ns), {}
    a, b, d = 1, 0, 1
    for n in range(max(wanted) + 1):
        if n in wanted:
            out[n] = QuadElem(Fraction(a, d), Fraction(b, d), m)
        a, b, d = A * a + m * B * b, A * b + B * a, D * d
    return out


# units with integral trace: (element, trace P, norm Q)
UNITS = [
    (QuadElem(2, 1, 3), 4, 1),  # 2 + sqrt(3), D = 1
    (QuadElem(Fraction(1, 2), Fraction(1, 2), -3), 1, 1),  # primitive 6th root of unity
    (QuadElem(Fraction(-1, 2), Fraction(1, 2), -3), -1, 1),  # primitive cube root of unity
    (QuadElem(1, 1, 2), 2, -1),  # 1 + sqrt(2), D = 1
    (-PHI, -1, -1),
    (QuadElem(Fraction(-1, 2), Fraction(1, 2), 5), -1, -1),  # the Case II root
    (QuadElem(-2, -1, 3), -4, 1),
]


@pytest.fixture
def pow_paths(monkeypatch):
    """Counts of calls into the two powering paths of QuadElem.__pow__."""
    calls = {"ladder": 0, "square": 0}

    def spy(name, key):
        real = getattr(qfield, name)

        def counted(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(qfield, name, counted)

    spy("_lucas_pair", "ladder")
    spy("_square", "square")
    return calls


class TestUnitPowers:
    @pytest.mark.parametrize("z, P, Q", UNITS, ids=lambda v: str(v))
    def test_units_against_product_chains(self, z, P, Q, pow_paths):
        assert z._D <= 2 and (z + z.conj(), z.norm()) == (P, Q)
        for base in (z, z.inverse()):
            for n, power in chain_powers(base, BIT_EDGES).items():
                assert base**n == power, (base, n)
                assert_canonical(base**n)
        p, m = (z.a, z.b), z.m
        for n in range(-40, 41):
            power = z**n
            assert matches(power, ref_pow(p, n, m), m), n
            assert_canonical(power)
        assert pow_paths["ladder"] > 0 and pow_paths["square"] == 0

    @pytest.mark.parametrize("z, P, Q", UNITS, ids=lambda v: str(v))
    def test_unit_times_its_conjugate_power(self, z, P, Q):
        for n in (1, 2, 999, 20000):
            assert z**n * z.conj() ** n == Q**n

    @pytest.mark.parametrize(
        "z",
        [QuadElem(0, 1, -1), QuadElem(1, 1, 5), QuadElem(Fraction(1, 3), Fraction(2, 3), 2)],
        ids=["sqrt(-1): trace 0", "1 + sqrt(5): norm -4", "non-unit with D = 3"],
    )
    def test_other_elements_take_binary_powering(self, z, pow_paths):
        p, m = (z.a, z.b), z.m
        for n in range(-12, 41):
            power = z**n
            assert matches(power, ref_pow(p, n, m), m), n
            assert_canonical(power)
        for n, power in chain_powers(z, [1000, 1001]).items():
            assert z**n == power
        assert pow_paths["ladder"] == 0 and pow_paths["square"] > 0


class TestReflectedSub:
    @given(radicands.flatmap(elems))
    def test_rational_minus_element(self, z):
        for x in (3, Fraction(1, 2)):
            diff = x - z
            assert diff == -(z - x)
            assert_canonical(diff)

    def test_non_number_is_refused(self):
        with pytest.raises(TypeError):
            "3" - PHI


class TestSign:
    def test_small_values(self):
        assert QuadElem.from_rational(0).sign() == 0
        assert QuadElem.from_rational(Fraction(-1, 3)).sign() == -1
        assert PHI.sign() == 1 and PHI.conj().sign() == -1
        assert QuadElem(-3, 2, 2).sign() == -1  # 2*sqrt(2) < 3
        assert QuadElem(3, -2, 3).sign() == -1  # 2*sqrt(3) > 3
        assert QuadElem(0, -1, 5).sign() == -1

    def test_conjugate_golden_powers(self):
        # conj(phi) = (1 - sqrt(5))/2 is negative, so conj(phi)^n has sign (-1)^n;
        # beyond n ~ 40 float() cannot tell these values from zero
        z = PHI.conj()
        for n in range(1, 301):
            assert (z**n).sign() == (-1) ** n
            assert (-(z**n)).sign() == -((-1) ** n)

    @given(radicands.filter(lambda m: m > 0).flatmap(lambda m: st.tuples(elems(m), elems(m))))
    def test_against_float_and_multiplicative(self, pair):
        z, w = pair
        # small operands keep nonzero values far above float rounding
        value = float(z)
        assert z.sign() == (value > 0) - (value < 0)
        assert (z * w).sign() == z.sign() * w.sign()
        assert (-z).sign() == -z.sign()

    def test_non_real_rejected(self):
        with pytest.raises(ValueError):
            QuadElem(1, 1, -1).sign()
        assert QuadElem(2, 0, -1).sign() == 1
