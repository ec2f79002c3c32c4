"""Integer helpers: squarefree decomposition and primality."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadratica.intmath import (
    is_prime,
    is_square,
    sieve_flags,
    squarefree_decompose,
)


def naive_squarefree(n: int) -> tuple[int, int]:
    """Oracle: peel square divisors by exhaustive search."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    s = 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        d += 1
    return s, sign * n


class TestSquarefree:
    @pytest.mark.parametrize(
        "n,want",
        [
            (12, (2, 3)),
            (45, (3, 5)),
            (-12, (2, -3)),
            (36, (6, 1)),
            (1, (1, 1)),
            (7, (1, 7)),
            (2 * 3 * 5 * 7, (1, 210)),
            (8, (2, 2)),
        ],
    )
    def test_known(self, n, want):
        assert squarefree_decompose(n) == want

    @given(st.integers(min_value=-10**6, max_value=10**6).filter(bool))
    def test_against_naive(self, n):
        s, m = squarefree_decompose(n)
        assert (s, m) == naive_squarefree(n)
        assert s * s * m == n

    def test_huge_prime_square_fast_path(self):
        p = 10**12 + 39
        assert squarefree_decompose(p * p) == (p, 1)
        assert squarefree_decompose(-p * p) == (p, -1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_decompose(0)


class TestPrimality:
    def test_matches_sieve(self):
        flags = sieve_flags(200_000)
        for n in range(200_000):
            assert is_prime(n) == bool(flags[n])

    def test_strong_pseudoprimes(self):
        # composites that fool single-witness tests, and psi_12 and psi_13, the
        # smallest strong pseudoprimes to all prime bases 2..37 and 2..41
        psi_12, psi_13 = 399165290221 * 798330580441, 3317044064679887385961981
        for n in (3215031751, 3474749660383, 341550071728321, psi_12, psi_13):
            assert not is_prime(n)

    def test_strong_lucas_pseudoprimes_fail_base_2(self):
        # strong Lucas pseudoprimes with Selfridge's parameters (OEIS A217255)
        for n in (5459, 5777, 10877):
            assert not is_prime(n)

    def test_base_2_strong_pseudoprimes_fail_lucas(self):
        # base-2 strong pseudoprimes with no prime factor <= 47 (OEIS A001262)
        for n in (8321, 42799, 49141):
            assert not is_prime(n)

    def test_primes_at_the_2_64_band_edge(self):
        assert is_prime(2**64 - 59) and is_prime(2**64 + 13)
        assert not is_prime(2**64 - 1) and not is_prime(2**64 + 1)

    def test_large_known(self):
        assert is_prime(2**89 - 1)
        assert not is_prime(2**83 - 1)

    def test_is_square(self):
        assert is_square(0) and is_square(144)
        assert not is_square(2) and not is_square(-4)
