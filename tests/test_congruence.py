"""Quadratic congruences: Legendre, modular square roots, two squares."""

import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadratica import congruence
from quadratica.congruence import (
    SolutionKind,
    is_prime,
    legendre,
    solve_quad_mod,
    sqrt_mod,
    two_squares,
)
from quadratica.errors import (
    CompositeModulus,
    DegenerateLeading,
    EvenModulusUnsupported,
    InputTooLarge,
    NotRepresentable,
)
from quadratica.intmath import sieve_flags

FLAGS = sieve_flags(2000)
ODD_PRIMES = [p for p in range(3, 2000) if FLAGS[p]]

# smallest strong pseudoprime to the 12 prime bases 2..37
PSI_12 = 399165290221 * 798330580441
# smallest strong pseudoprime to the 13 prime bases 2..41
PSI_13 = 3317044064679887385961981


def brute_sqrt(r: int, p: int) -> list[int]:
    return sorted(x for x in range(p) if x * x % p == r % p)


def brute_quad(a: int, b: int, c: int, p: int) -> list[int]:
    return sorted(x for x in range(p) if (a * x * x + b * x + c) % p == 0)


def brute_two_squares(p: int):
    for a in range(1, isqrt(p) + 1):
        b2 = p - a * a
        b = isqrt(b2)
        if b * b == b2 and a <= b:
            return (a, b)
    return None


class TestLegendre:
    def test_minus_one_mod_five(self):
        assert legendre(-1, 5) == 1

    def test_minus_one_mod_seven(self):
        assert legendre(-1, 7) == -1

    def test_zero(self):
        assert legendre(0, 7) == 0

    def test_composite_rejected(self):
        with pytest.raises(CompositeModulus):
            legendre(3, 15)

    def test_even_rejected(self):
        with pytest.raises(EvenModulusUnsupported):
            legendre(3, 2)

    def test_four_t_plus_one_criterion(self):
        for p in ODD_PRIMES:
            assert (legendre(-1, p) == 1) == (p % 4 == 1)

    @given(st.sampled_from(ODD_PRIMES), st.data())
    def test_multiplicative(self, p, data):
        r = data.draw(st.integers(min_value=1, max_value=p - 1))
        s = data.draw(st.integers(min_value=1, max_value=p - 1))
        assert legendre(r * s, p) == legendre(r, p) * legendre(s, p)


class TestSqrtMod:
    def test_examples(self):
        assert sqrt_mod(-1, 5).roots == (2, 3)
        assert sqrt_mod(2, 7).roots == (3, 4)
        assert sqrt_mod(3, 7).kind is SolutionKind.NO_SOLUTION
        assert sqrt_mod(0, 7) == type(sqrt_mod(0, 7))(SolutionKind.ONE_ROOT, (0,))

    def test_exhaustive_small_primes(self):
        for p in [3, 5, 7, 11, 13, 17, 29, 41, 97, 113, 193]:
            for r in range(p):
                got = sqrt_mod(r, p)
                assert list(got.roots) == brute_sqrt(r, p), (r, p)

    @given(st.sampled_from(ODD_PRIMES), st.integers(min_value=0, max_value=10**6))
    def test_roots_square_back(self, p, r):
        got = sqrt_mod(r, p)
        for u in got.roots:
            assert u * u % p == r % p

    def test_strong_pseudoprime_modulus_rejected(self):
        for n in (PSI_12, PSI_13):
            with pytest.raises(CompositeModulus):
                sqrt_mod(4, n)

    def test_tonelli_heavy_two_power(self):
        # p - 1 with a large power of two exercises the full loop
        p = 786433  # 3 * 2^18 + 1
        assert is_prime(p)
        for r in [2, 3, 5, 10, 1234, 654321]:
            got = sqrt_mod(r, p)
            if got.kind is SolutionKind.TWO_ROOTS:
                assert all(u * u % p == r % p for u in got.roots)


# 3 * 2^18 + 1, the smallest Proth prime 165 * 2^100 + 1, and a prime 3 (mod 4)
HIGH_TWO_POWER_PRIMES = (786433, 165 * 2**100 + 1, 2**127 - 1)


class TestEulerFromTheRoot:
    @pytest.mark.parametrize("p", HIGH_TWO_POWER_PRIMES)
    def test_kind_is_eulers_criterion(self, p):
        for r in range(501):
            euler = pow(r, (p - 1) // 2, p)
            want = {0: SolutionKind.ONE_ROOT, 1: SolutionKind.TWO_ROOTS, p - 1: SolutionKind.NO_SOLUTION}[euler]
            got = sqrt_mod(r, p)
            assert got.kind is want, r
            assert all(u * u % p == r for u in got.roots), r

    def test_proth_prime_is_proven(self):
        # Proth's theorem: p = k 2^n + 1 with k < 2^n is prime if a^((p-1)/2) = -1 for some a
        p = HIGH_TWO_POWER_PRIMES[1]
        assert is_prime(p) and any(pow(a, (p - 1) // 2, p) == p - 1 for a in range(2, 50))
        assert not any(is_prime(k * 2**100 + 1) for k in range(1, 165, 2))

    @pytest.mark.parametrize("p", [p for p in HIGH_TWO_POWER_PRIMES if p % 4 == 1])
    def test_two_squares_sum_back(self, p):
        a, b = two_squares(p)
        assert a * a + b * b == p and 0 < a <= b


class TestSolveQuadMod:
    def test_example(self):
        assert solve_quad_mod(1, 1, 1, 7).roots == (2, 4)

    def test_zero_double_root(self):
        got = solve_quad_mod(1, 0, 0, 5)
        assert got.kind is SolutionKind.ONE_ROOT and got.roots == (0,)

    def test_no_solution(self):
        assert solve_quad_mod(1, 0, 1, 7).kind is SolutionKind.NO_SOLUTION

    def test_degenerate_leading(self):
        with pytest.raises(DegenerateLeading):
            solve_quad_mod(7, 1, 1, 7)

    def test_even_modulus(self):
        with pytest.raises(EvenModulusUnsupported):
            solve_quad_mod(1, 1, 1, 2)

    def test_random_against_brute_force(self):
        rng = random.Random(9)
        for _ in range(1000):
            p = rng.choice(ODD_PRIMES[:100])
            a = rng.randrange(1, p)
            b = rng.randrange(p)
            c = rng.randrange(p)
            assert list(solve_quad_mod(a, b, c, p).roots) == brute_quad(a, b, c, p)


class TestTwoSquares:
    @pytest.mark.parametrize("p,want", [(5, (1, 2)), (13, (2, 3)), (17, (1, 4))])
    def test_examples(self, p, want):
        assert two_squares(p) == want

    def test_two(self):
        assert two_squares(2) == (1, 1)

    def test_not_representable(self):
        with pytest.raises(NotRepresentable):
            two_squares(7)

    def test_composite_rejected(self):
        with pytest.raises(CompositeModulus):
            two_squares(21)

    def test_against_brute_force(self):
        # succeeds exactly on p = 1 mod 4 (plus p = 2), fails on p = 3 mod 4
        for p in ODD_PRIMES:
            if p % 4 == 1:
                a, b = two_squares(p)
                assert a * a + b * b == p and a <= b
                assert (a, b) == brute_two_squares(p)
            else:
                assert brute_two_squares(p) is None
                with pytest.raises(NotRepresentable):
                    two_squares(p)

    def test_large_prime(self):
        p = 1000033  # = 1 mod 4
        assert is_prime(p) and p % 4 == 1
        a, b = two_squares(p)
        assert a * a + b * b == p

    def test_failed_descent_means_composite(self, monkeypatch):
        # a composite that is_prime passed (as a pseudoprime above psi_13 would be)
        # gets a bogus sqrt(-1); 45 - 5^2 = 20 is not a square
        monkeypatch.setattr(congruence, "is_prime", lambda n: True)
        monkeypatch.setattr(
            congruence, "_sqrt_mod", lambda r, p: congruence.CongruenceSolution(SolutionKind.TWO_ROOTS, (8, p - 8))
        )
        with pytest.raises(CompositeModulus, match="leaves 20"):
            two_squares(45)


class TestCompositePassedAsPrime:
    """A composite that is_prime passed (as a pseudoprime above psi_13 would be)."""

    def test_refused_in_a_child_not_hung(self):
        # at 21, Euler's criterion gives 2^10 = 16 and 4^10 = 4 (mod 21), neither 0 nor +-1;
        # two_squares(21) used to search for a non-residue forever
        script = (
            "from quadratica import congruence\n"
            "from quadratica.errors import CompositeModulus\n"
            "congruence.is_prime = lambda n: True\n"
            "for call, args in ((congruence.two_squares, (21,)), (congruence.sqrt_mod, (4, 21))):\n"
            "    try:\n"
            "        raise SystemExit(f'{call.__name__}{args} returned {call(*args)}')\n"
            "    except CompositeModulus:\n"
            "        pass\n"
        )
        src = str(Path(congruence.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_squares_and_shared_factors_refused_in_a_child_not_hung(self):
        # no Jacobi symbol mod a square is -1, so a non-residue search by Jacobi symbols would never end;
        # sqrt_mod(1, 25) needs no non-residue at all. Mod 21 and 35, r^((p-1)/2) is 0 mod the shared factor
        script = (
            "from quadratica import congruence\n"
            "from quadratica.errors import CompositeModulus\n"
            "congruence.is_prime = lambda n: True\n"
            "calls = ((congruence.sqrt_mod, (1, 25)), (congruence.sqrt_mod, (4, 49)), (congruence.two_squares, (25,)),\n"
            "         (congruence.solve_quad_mod, (1, 0, -1, 121)), (congruence.sqrt_mod, (3, 21)),\n"
            "         (congruence.sqrt_mod, (7, 35)))\n"
            "for call, args in calls:\n"
            "    try:\n"
            "        raise SystemExit(f'{call.__name__}{args} returned {call(*args)}')\n"
            "    except CompositeModulus:\n"
            "        pass\n"
        )
        src = str(Path(congruence.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_tonelli_shanks_order_bound(self, monkeypatch):
        # 3277 = 29 * 113: 7 passes Euler's criterion and 2 is a "non-residue", but
        # the squaring loop finds an order no prime modulus allows
        monkeypatch.setattr(congruence, "is_prime", lambda n: True)
        with pytest.raises(CompositeModulus, match="3277 is not prime"):
            sqrt_mod(7, 3277)


class TestModulusCheckedOnce:
    def test_one_primality_test_per_call(self, monkeypatch):
        tested = []
        monkeypatch.setattr(congruence, "is_prime", lambda n: tested.append(n) or is_prime(n))
        # 73 = 1 (mod 8): 2 is a residue, so its square root takes Tonelli-Shanks,
        # whose non-residue search tries 2, 3, 4, 5
        for call, args in [
            (legendre, (2, 73)),
            (sqrt_mod, (2, 73)),
            (solve_quad_mod, (1, 0, -2, 73)),
            (two_squares, (73,)),
        ]:
            tested.clear()
            call(*args)
            assert tested == [73], call.__name__


class TestModulusBits:
    def test_past_4096_bits_refused_before_any_test(self, monkeypatch):
        def refuse(n):
            raise AssertionError("is_prime called on a modulus past the cap")

        monkeypatch.setattr(congruence, "is_prime", refuse)
        p = 2**4096 + 1
        for call, args in [(legendre, (2, p)), (sqrt_mod, (2, p)), (solve_quad_mod, (1, 0, -2, p)), (two_squares, (p,))]:
            with pytest.raises(InputTooLarge, match="at most 4096 bits, got 4097"):
                call(*args)

    def test_4096_bits_pass_the_cap(self):
        # an even modulus of 4096 bits reaches the odd-prime check
        with pytest.raises(CompositeModulus):
            legendre(2, 2**4095)


class TestIsPrime:
    def test_small(self):
        assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_against_sieve(self):
        for n in range(2000):
            assert is_prime(n) == bool(FLAGS[n])

    def test_carmichael(self):
        assert not is_prime(561) and not is_prime(41041)

    def test_mersenne(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)
