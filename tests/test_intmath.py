"""Integer helpers: squarefree decomposition and primality."""

import random
from math import gcd, isqrt, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadratica import intmath
from quadratica.errors import InputTooLarge
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


def trial_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def trial_odd_flags(lo: int, hi: int) -> bytearray:
    return bytearray(trial_prime(n) for n in range(lo + 1, hi, 2))


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

    # the primes on either side of the first three chunk edges, and the prime after
    EDGES = [
        (intmath._FIRST_CHUNK_END + k * intmath._CHUNK_WIDTH, below, above, after)
        for k, (below, above, after) in enumerate([(251, 257, 263), (4349, 4357, 4363), (8447, 8461, 8467)])
    ]

    def test_edges_are_where_the_primes_say(self):
        for edge, below, above, after in self.EDGES:
            assert below < edge < above
            primes = [n for n in range(below, after + 1) if trial_prime(n)]
            assert primes == [below, above, after]

    @pytest.mark.parametrize("k", range(3))
    def test_primes_around_a_chunk_edge(self, k):
        _, b, a, c = self.EDGES[k]
        cases = [b, a, b * b, a * a, b * a, b * b * a * c, a * a * b * c, (b * a) ** 2 * c, b**3 * a**2, a**3 * c]
        if k < 2:
            cases.append(b * a * c)  # the oracle takes ~sqrt(n) steps on a squarefree n
        for n in cases:
            for signed in (n, -n):
                assert squarefree_decompose(signed) == naive_squarefree(signed), signed

    def test_first_chunk_products_are_their_primes(self):
        while len(intmath._chunks) < 4:
            intmath._extend_chunks(0, 0)  # builds one chunk
        edges = [0] + [intmath._FIRST_CHUNK_END + k * intmath._CHUNK_WIDTH for k in range(4)]
        for (product, candidates), lo, hi in zip(intmath._chunks, edges, edges[1:]):
            assert product == prod(n for n in range(lo, hi) if trial_prime(n)), lo
            assert candidates[0] >= lo and candidates[-1] < hi


class TestTrialDivisionLimit:
    """With the limit at 10, primes up to 10 are tried and 11^3 = 1331 is the next cube."""

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(intmath, "_TRIAL_DIVISION_LIMIT", 10)

    def test_square_remainder(self):
        # 1009^2 is left over: a perfect square, whatever its factors
        assert squarefree_decompose(2 * 1009**2) == (1009, 2) == naive_squarefree(2 * 1009**2)

    def test_proven_prime_remainder(self):
        assert squarefree_decompose(-2 * 1000003) == (1, -2000006) == naive_squarefree(-2 * 1000003)

    def test_composite_remainder_refused(self):
        # three primes above the limit: the square part cannot be told from a prime test
        with pytest.raises(InputTooLarge, match=str(3 * 1009 * 1013 * 1019)):
            squarefree_decompose(3 * 1009 * 1013 * 1019)

    def test_below_the_next_cube_decided(self):
        # 31 * 37 = 1147 is past 10^3 but below 11^3, so it has at most two prime factors
        assert squarefree_decompose(31 * 37) == (1, 1147)

    def test_after_chunks_past_the_limit_were_built(self, monkeypatch):
        monkeypatch.setattr(intmath, "_TRIAL_DIVISION_LIMIT", 10**7)
        assert squarefree_decompose(4999 * 5003 * 5009) == (1, 4999 * 5003 * 5009)  # past 4352^3
        assert len(intmath._chunks) >= 3
        monkeypatch.setattr(intmath, "_TRIAL_DIVISION_LIMIT", 10)
        assert squarefree_decompose(2 * 1009**2) == (1009, 2)
        assert squarefree_decompose(-2 * 1000003) == (1, -2000006)
        assert squarefree_decompose(31 * 37) == (1, 1147)
        with pytest.raises(InputTooLarge, match=str(3 * 1009 * 1013 * 1019)):
            squarefree_decompose(3 * 1009 * 1013 * 1019)


class TestOddFlags:
    """The one sieve loop, against trial division: flags[i] stands for lo + 1 + 2i in [lo, hi)."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 1009])
    def test_edges_at_a_prime_square(self, p):
        near = range(p * p - 2, p * p + 3)
        lows = [lo for lo in near if lo % 2 == 0] + [max(2, p * p - 41)]
        for lo in lows:
            for hi in [*near, p * p + 40, p * p + 41]:
                if hi >= lo:
                    assert intmath._odd_flags(lo, hi) == trial_odd_flags(lo, hi), (lo, hi)

    @pytest.mark.parametrize("lo", [2, 4, 8, 22, 120, 7918])
    def test_empty_and_one_flag_intervals(self, lo):
        assert intmath._odd_flags(lo, lo) == intmath._odd_flags(lo, lo + 1) == bytearray()
        for hi in (lo + 2, lo + 3):
            assert intmath._odd_flags(lo, hi) == trial_odd_flags(lo, hi) == bytearray([trial_prime(lo + 1)])

    @pytest.mark.parametrize("k", range(3))
    def test_intervals_from_a_chunk_edge(self, k):
        lo = intmath._FIRST_CHUNK_END + k * intmath._CHUNK_WIDTH
        for hi in (lo + intmath._CHUNK_WIDTH, lo + 2 * intmath._CHUNK_WIDTH + 1):
            assert intmath._odd_flags(lo, hi) == trial_odd_flags(lo, hi), (lo, hi)

    @pytest.mark.parametrize("hi", [2, 3, 4, 9, 10])
    def test_base_prime_recursion_ends(self, hi):
        assert intmath._odd_flags(2, hi) == trial_odd_flags(2, hi)


class TestPrimality:
    def test_matches_sieve(self):
        flags = sieve_flags(200_000)
        for n in range(200_000):
            assert is_prime(n) == bool(flags[n])
        # every small limit, 0 included, has limit + 1 flags
        for limit in range(3001):
            assert sieve_flags(limit) == flags[: limit + 1], limit

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

    def test_sorenson_webster_bases(self):
        # the 13 bases are proven only as this exact set: psi_12 fools the first 12, nothing below psi_13 fools all 13
        assert intmath._MR_WITNESSES == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
        psi_12, psi_13 = 318665857834031151167461, 3317044064679887385961981
        assert (intmath._PSI_12, intmath._PSI_13) == (psi_12, psi_13)
        assert not is_prime(psi_12) and not is_prime(psi_13)

    @pytest.mark.parametrize(
        "n, bases",
        [
            (318665857834031151167441, 12),  # the prime before psi_12
            (318665857834031151167483, 13),  # the prime after psi_12
            (318665857834031151167461, 13),  # psi_12 itself, refused by base 41
            (2**64 + 13, 12),
        ],
    )
    def test_bases_tried_between_2_64_and_psi_13(self, n, bases, monkeypatch):
        tried = []
        real = intmath._strong_probable_prime

        def spy(n, a, d, s):
            tried.append(a)
            assert (d % 2, d << s) == (1, n - 1)
            return real(n, a, d, s)

        monkeypatch.setattr(intmath, "_strong_probable_prime", spy)
        assert is_prime(n) == (n != intmath._PSI_12)
        assert tried == list(intmath._MR_WITNESSES[:bases])

    def test_large_known(self):
        assert is_prime(2**89 - 1)
        assert not is_prime(2**83 - 1)

    def test_is_square(self):
        assert is_square(0) and is_square(144)
        assert not is_square(2) and not is_square(-4)


def oracle_strong_lucas(n: int) -> bool:
    """The strong Lucas test on U_k, V_k and Q^k with halving, as it ran before the Q-normalised ladder."""
    if is_square(n):
        return False
    D = 5
    while True:
        j = intmath._jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            if U & 1:
                U += n
            if V & 1:
                V += n
            U, V, Qk = (U >> 1) % n, (V >> 1) % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def selfridge_d(n: int) -> int:
    D = 5
    while intmath._jacobi(D, n) == 1:
        D = -D - 2 if D > 0 else 2 - D
    return D


SMALL_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class TestLucasLadder:
    def test_agrees_below_2e5(self):
        # every strong Lucas pseudoprime with Selfridge's parameters in range (5459, 5777, 10877, 16109, 18971, ...)
        # must pass both, and every other composite fail both
        passed = []
        for n in range(2809, 200_000, 2):
            if any(n % p == 0 for p in SMALL_ODD_PRIMES):
                continue
            verdict = intmath._strong_lucas_probable_prime(n)
            assert verdict == oracle_strong_lucas(n), n
            if verdict and not is_prime(n):
                passed.append(n)
        assert passed[:5] == [5459, 5777, 10877, 16109, 18971]

    def test_agrees_on_random_64_to_256_bits(self):
        rng = random.Random(23)
        for _ in range(10_000):
            n = rng.getrandbits(rng.randrange(64, 257)) | 1
            assert intmath._strong_lucas_probable_prime(n) == oracle_strong_lucas(n), n

    def test_agrees_where_n_plus_1_has_a_high_power_of_2(self):
        # n + 1 = d * 2^s with s up to 127, and d = 1 (Mersenne numbers): a ladder of no bits, a long r-loop
        for n in (2**61 - 1, 2**89 - 1, 2**127 - 1, 2**67 - 1, 3 * 2**64 - 1, 5 * 2**100 - 1):
            assert intmath._strong_lucas_probable_prime(n) == oracle_strong_lucas(n), n

    def test_q_is_a_unit(self):
        # The ladder inverts Q = (1 - D)/4 mod the odd n, and no n reaches a D whose Q shares a factor with
        # it: an odd prime factor q of Q has q <= |Q| < |D|, so q (or 9, for q = 3) is an earlier D of the
        # search, whose Jacobi symbol 0 has refused n first. Checked for every D below 10^5 in absolute value.
        earlier = set()
        D = 5
        while abs(D) < 100_000:
            Q = abs((1 - D) // 4)
            Q >>= (Q & -Q).bit_length() - 1  # its odd part
            q = 3
            while Q > 1:
                if q * q > Q:
                    q = Q  # a prime
                if Q % q == 0:
                    assert (9 if q == 3 else q) in earlier, D
                    while Q % q == 0:
                        Q //= q
                q += 2
            earlier.add(abs(D))
            D = -D - 2 if D > 0 else 2 - D

    def test_no_n_below_1e5_takes_a_q_sharing_a_factor(self):
        for n in range(3, 100_000, 2):
            if not is_square(n):
                D = selfridge_d(n)
                assert intmath._jacobi(D, n) == 0 or gcd((1 - D) // 4, n) == 1, n
