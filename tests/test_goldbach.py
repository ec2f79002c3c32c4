"""Goldbach witnesses, witness parabolas, areas, and hypotenuse numbers."""

import csv
import io
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadratica import goldbach
from quadratica.errors import (
    EmptyInterval,
    EvenInput,
    InputTooLarge,
    InvalidPair,
    InvalidTarget,
    NonPositiveParameter,
    NoWitnessFound,
    NotCoprime,
)
from quadratica.goldbach import (
    GoldbachWitness,
    HypClass,
    find_witness,
    hypotenuse_number,
    parity_lemma,
    verify_range,
    witness_areas,
    witness_parabola,
    witnesses,
)
from quadratica.intmath import _odd_flags, is_prime, sieve_flags
from quadratica.solver import Quadratic, solve

FLAGS = sieve_flags(10_000)
ODD_PRIMES = [p for p in range(3, 10_000) if FLAGS[p]]


def trial_division_prime(k):
    return k > 1 and all(k % d for d in range(2, int(k**0.5) + 1))


def brute_min_i(flags, n):
    """Least I with M + I and M - I both prime by the flags, trying every I >= 0 in turn."""
    m = n // 2
    return next(i for i in range(m) if flags[m + i] and flags[m - i])


@pytest.fixture
def scans(monkeypatch):
    """The (M, i) of every _least_i call."""
    calls = []
    least_i = goldbach._least_i

    def spy(m, i):
        calls.append((m, i))
        return least_i(m, i)

    monkeypatch.setattr(goldbach, "_least_i", spy)
    return calls


class TestParityLemma:
    def test_example(self):
        assert parity_lemma(17, 7) == ("even", "odd")

    def test_equal_primes(self):
        assert parity_lemma(5, 5) == ("odd", "even")

    def test_direct(self):
        assert parity_lemma(13, 3) == ("even", "odd")

    def test_even_rejected(self):
        with pytest.raises(EvenInput):
            parity_lemma(4, 3)

    @given(st.integers(min_value=-200, max_value=200), st.integers(min_value=-200, max_value=200))
    def test_always_opposite(self, j, k):
        p, q = 2 * j + 1, 2 * k + 1
        mp, ip = parity_lemma(p, q)
        assert {mp, ip} == {"even", "odd"}


class TestFindWitness:
    def test_24(self):
        w = find_witness(24)
        assert (w.I, w.p, w.q) == (1, 13, 11)

    def test_24_full_list_contains_both_examples(self):
        pairs = {(w.p, w.q) for w in witnesses(24)}
        assert (17, 7) in pairs and (19, 5) in pairs

    def test_4_even_prime_pair(self):
        w = find_witness(4)
        assert (w.I, w.p, w.q) == (0, 2, 2)
        assert w.uses_even_prime

    def test_100(self):
        w = find_witness(100)
        assert (w.I, w.p, w.q) == (3, 53, 47)

    def test_inconsistent_witness_fields_rejected(self):
        assert GoldbachWitness(N=10, M=5, I=2, p=7, q=3).uses_even_prime is False
        for fields in ({"N": 12}, {"M": 6}, {"I": 1}, {"q": 5}):
            with pytest.raises(InvalidPair):
                GoldbachWitness(**{"N": 10, "M": 5, "I": 2, "p": 7, "q": 3, **fields})

    def test_twice_prime_uses_i_zero(self):
        w = find_witness(26)
        assert (w.I, w.p, w.q) == (0, 13, 13)

    def test_rejects_odd_and_small(self):
        for n in (7, 2):
            with pytest.raises(InvalidTarget):
                find_witness(n)
            with pytest.raises(InvalidTarget):
                witnesses(n)

    def test_bit_length_capped_before_any_primality_test(self, monkeypatch):
        cap = goldbach._WITNESS_MAX_BITS
        w = find_witness(2 ** (cap - 1) + 2)  # its minimal I = 246 is found in milliseconds
        assert w.N.bit_length() == cap and is_prime(w.p) and is_prime(w.q)

        def refuse(n):
            raise AssertionError("is_prime called on a target past the cap")

        monkeypatch.setattr(goldbach, "is_prime", refuse)
        with pytest.raises(InputTooLarge, match=f"at most {cap} bits, got {cap + 1}"):
            find_witness(2**cap)

    def test_exhausted_search_raises(self, monkeypatch):
        # a table with no primes at all forces the counterexample branch
        monkeypatch.setattr(goldbach, "_odd", bytearray(5))
        with pytest.raises(NoWitnessFound):
            find_witness(10)

    @given(st.integers(min_value=2, max_value=5000))
    def test_witness_contract(self, half):
        n = 2 * half
        w = find_witness(n)
        assert w.p + w.q == n
        assert w.p == w.M + w.I and w.q == w.M - w.I
        assert FLAGS[w.p] and FLAGS[w.q]
        if not w.uses_even_prime:
            mp, ip = parity_lemma(w.p, w.q)
            assert {mp, ip} == {"even", "odd"}

    def test_normalization_when_m_even(self):
        # for even M = 2n the witness reads p = 2n + I, q = 2n - I with p + q = 4n
        for n_half in range(2, 500):
            w = find_witness(4 * n_half)
            if w.M % 2 == 0:
                n = w.M // 2
                assert w.p == 2 * n + w.I and w.q == 2 * n - w.I
                assert w.p + w.q == 4 * n

    def test_minimality(self):
        for n in range(4, 2000, 2):
            w = find_witness(n)
            others = witnesses(n)
            assert others[0].I == w.I
            assert all(other.I >= w.I for other in others)

    def test_scan_matches_brute_force_inside_the_sieve(self, monkeypatch, scans):
        flags = sieve_flags(20_002)
        monkeypatch.setattr(goldbach, "_odd", _odd_flags(2, 20_003))
        for n in range(4, 20_001, 2):
            w = find_witness(n)
            assert (w.N, w.I) == (n, brute_min_i(flags, n))
        assert [m for m, _ in scans] == [m for m in range(2, 10_001) if not flags[m]]  # M prime: I = 0

    def test_scan_crosses_window_edges(self, monkeypatch, scans):
        flags = sieve_flags(10**6)
        monkeypatch.setattr(goldbach, "_odd", _odd_flags(2, 10**6 + 1))
        w = find_witness(742856)  # I = 1281 is in the third window of 256 candidates from I = 1
        assert (w.I, w.p, w.q) == (1281, 372709, 370147) and brute_min_i(flags, 742856) == 1281
        w = find_witness(138668)  # I = 513 opens the second window
        assert (w.I, w.p, w.q) == (513, 69847, 68821) and brute_min_i(flags, 138668) == 513
        assert scans == [(371428, 1), (69334, 1)]

    def test_scan_stops_below_m_instead_of_wrapping(self, monkeypatch):
        # only the table's last entries, for 403 .. 999, say prime: a slice
        # from a negative index would read them as M - I for I > M
        doctored = bytearray(500)
        doctored[200:] = b"\1" * 300
        monkeypatch.setattr(goldbach, "_odd", doctored)
        with pytest.raises(NoWitnessFound, match="N=10:"):
            find_witness(10)
        for i in (2, 4, 6, 7):
            with pytest.raises(NoWitnessFound, match="N=10:"):
                goldbach._least_i(5, i)

    def test_table_reader_matches_trial_division(self, monkeypatch):
        monkeypatch.setattr(goldbach, "_odd", _odd_flags(2, 3001))
        assert goldbach._covers(2999) and not goldbach._covers(3003)
        assert [k for k in range(3000) if goldbach._table_prime(k)] == [
            k for k in range(3000) if trial_division_prime(k)
        ]

    @pytest.mark.parametrize("table", [bytearray(), _odd_flags(2, 101)])
    def test_smallest_targets(self, monkeypatch, table):
        # 4 = 2 + 2 needs the even prime, which the odd table answers apart; 6 = 3 + 3 needs flag 0
        monkeypatch.setattr(goldbach, "_odd", table)
        expected = {4: (0, 2, 2), 6: (0, 3, 3), 8: (1, 5, 3)}
        assert {n: (w.I, w.p, w.q) for n in expected for w in [find_witness(n)]} == expected
        assert [(w.N, w.I) for n in expected for w in witnesses(n)] == [(4, 0), (6, 0), (8, 1)]
        assert verify_range(8).histogram == ((0, 2), (1, 1))

    def test_scan_windows_crossing_the_low_end(self, monkeypatch):
        # for M up to 2 * 256 + 5 the lower slice of the first window, and of
        # later ones, starts at index 0, in a table longer than a window
        monkeypatch.setattr(goldbach, "_odd", _odd_flags(2, 10_001))
        for m in range(3, 2 * 256 + 6):
            found = [i for i in range(m) if FLAGS[m + i] and FLAGS[m - i]]
            for start in range(1 if m % 2 == 0 else 2, m + 2, 2):
                later = [i for i in found if i >= start]
                if later:
                    assert goldbach._least_i(m, start) == later[0], (m, start)
                else:
                    with pytest.raises(NoWitnessFound, match=f"N={2 * m}:"):
                        goldbach._least_i(m, start)

    def test_witness_lists_match_brute_force(self):
        for n in range(4, 2000, 2):
            m = n // 2
            expected = [(i, m + i, m - i) for i in range(m) if FLAGS[m + i] and FLAGS[m - i]]
            assert [(w.I, w.p, w.q) for w in witnesses(n)] == expected, n

    def test_beyond_sieve_cap_leaves_sieve_alone(self):
        # a single search reads the table and never grows it; past its end
        # (half a terabyte at 10^12) candidates are tested one by one
        for n in (24, 10**6 + 2, 10**12 + 2):
            before = len(goldbach._odd)
            w = find_witness(n)
            assert len(goldbach._odd) == before
            assert w.p + w.q == n and is_prime(w.p) and is_prime(w.q)
            for i in range(w.I % 2, w.I, 2):
                assert not (is_prime(w.M + i) and is_prime(w.M - i))

    def test_covering_sieve_decides_without_primality_tests(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"is_prime({n}) called with the table covering it")

        monkeypatch.setattr(goldbach, "_odd", _odd_flags(2, 101))
        monkeypatch.setattr(goldbach, "is_prime", refuse)
        assert (find_witness(24).p, witness_areas(17, 7).I, witness_parabola(17, 7).vertex_y) == (13, 5, -25)
        with pytest.raises(InvalidPair):
            witness_parabola(9, 3)
        with pytest.raises(InvalidPair):
            witness_areas(-3, -5)  # negative numbers never index the table from its end

    def test_pair_check_past_the_sieve_tests_primality(self, monkeypatch):
        monkeypatch.setattr(goldbach, "_odd", bytearray())
        assert witness_areas(17, 7).I == 5
        with pytest.raises(InvalidPair):
            witness_parabola(9, 3)

    def test_fresh_interpreter_refuses_or_searches_without_sieving(self):
        # past the cap witnesses would test ~2.5e11 candidates; a single
        # search must not sieve the ~10^7 numbers below its target
        script = (
            "from quadratica import goldbach\n"
            "from quadratica.errors import InputTooLarge\n"
            "try:\n"
            "    goldbach.witnesses(10**12 + 2)\n"
            "except InputTooLarge as exc:\n"
            "    print(type(exc).__name__, exc)\n"
            "w = goldbach.find_witness(9999998)\n"
            "print(w.p, w.q, len(goldbach._odd))\n"
        )
        src = str(Path(goldbach.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30)
        assert proc.returncode == 0, proc.stderr
        refusal, witness = proc.stdout.splitlines()
        assert refusal == f"InputTooLarge witness --all needs N <= {10**7}, got {10**12 + 2}"
        p, q, sieved = map(int, witness.split())
        assert p + q == 9999998 and is_prime(p) and is_prime(q) and sieved == 0


class TestWitnessParabola:
    def test_example(self):
        par = witness_parabola(17, 7)
        assert par.quadratic == Quadratic(1, -24, 119)
        assert (par.vertex_x, par.vertex_y) == (12, -25)

    def test_small(self):
        par = witness_parabola(5, 3)
        assert par.quadratic == Quadratic(1, -8, 15)
        assert (par.vertex_x, par.vertex_y) == (4, -1)

    def test_double_root(self):
        par = witness_parabola(3, 3)
        assert par.quadratic == Quadratic(1, -6, 9)
        assert (par.vertex_x, par.vertex_y) == (3, 0)

    def test_roots_via_solver(self):
        par = witness_parabola(19, 5)
        pair = solve(par.quadratic)
        assert {pair.r1.as_fraction(), pair.r2.as_fraction()} == {19, 5}

    def test_rejects_non_prime(self):
        with pytest.raises(InvalidPair):
            witness_parabola(9, 3)

    def test_rejects_unordered(self):
        with pytest.raises(InvalidPair):
            witness_parabola(3, 5)


class TestWitnessAreas:
    def test_17_7(self):
        report = witness_areas(17, 7)
        assert report.I == 5
        assert report.parabola_area == Fraction(500, 3)
        assert report.rectangle_area == 250
        assert report.triangle_area == 125

    def test_5_3(self):
        report = witness_areas(5, 3)
        assert (report.parabola_area, report.rectangle_area, report.triangle_area) == (
            Fraction(4, 3),
            2,
            1,
        )

    def test_segment(self):
        assert witness_areas(5, 3).leading_segment == 18

    def test_equal_primes_rejected(self):
        with pytest.raises(InvalidPair):
            witness_areas(3, 3)

    def test_bits_capped_before_any_primality_test(self, monkeypatch):
        def refuse(n):
            raise AssertionError("is_prime called on a prime past the cap")

        monkeypatch.setattr(goldbach, "is_prime", refuse)
        for call in (witness_areas, witness_parabola):
            with pytest.raises(InputTooLarge, match="at most 4096 bits, got 4097"):
                call(2**4096 + 1, 3)
        # 4096 bits pass the cap; an even p is refused before its test
        with pytest.raises(InvalidPair):
            witness_areas(2**4095, 3)

    def test_random_pairs_exact(self):
        rng = random.Random(17)
        for _ in range(1000):
            p, q = rng.sample(ODD_PRIMES, 2)
            p, q = max(p, q), min(p, q)
            report = witness_areas(p, q)
            i3 = Fraction(report.I) ** 3
            assert report.parabola_area == Fraction(4, 3) * i3
            assert report.rectangle_area == 2 * i3
            assert report.triangle_area == i3
            assert report.rectangle_area / report.parabola_area == Fraction(3, 2)
            assert report.rectangle_area / report.triangle_area == 2
            assert report.parabola_area / report.triangle_area == Fraction(4, 3)

            def antiderivative(x):  # of -(x - p)(x - q)
                return -Fraction(x**3, 3) + Fraction((p + q) * x * x, 2) - p * q * x

            assert report.parabola_area == antiderivative(p) - antiderivative(q)
            assert report.leading_segment == antiderivative(0) - antiderivative(q)


class TestHypotenuse:
    def test_prime_square(self):
        assert hypotenuse_number(6, 5, 1) == (169, HypClass.PRIME_SQUARE)

    def test_prime(self):
        assert hypotenuse_number(6, 7, 1) == (193, HypClass.PRIME)

    def test_higher_power(self):
        assert hypotenuse_number(2, 1, 2) == (257, HypClass.PRIME)

    def test_composite(self):
        h, kind = hypotenuse_number(4, 3, 1)
        assert (h, kind) == (73, HypClass.PRIME)
        h, kind = hypotenuse_number(7, 3, 1)
        assert h == 205 and kind is HypClass.COMPOSITE

    @pytest.mark.parametrize("n,i", [(0, 1), (0, -1), (-1, 1)])
    def test_n_below_one_refused(self, n, i):
        # n = 0 has no leg 2n, and H = 1 is not composite
        with pytest.raises(NonPositiveParameter):
            hypotenuse_number(n, i, 1)

    def test_coprimality_required(self):
        with pytest.raises(NotCoprime):
            hypotenuse_number(3, 3, 1)

    def test_bits_capped_before_h_is_built(self, monkeypatch):
        def refuse(n):
            raise AssertionError("is_prime called on an H past the cap")

        monkeypatch.setattr(goldbach, "is_prime", refuse)
        # 2l * bit_length(2n) = 2 * 1025 * 2 = 4100; l = 10^9 would build a 4-billion-bit power
        for l in (1025, 10**9):
            with pytest.raises(InputTooLarge, match="at most 4096 are allowed"):
                hypotenuse_number(1, 1, l)

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=3),
    )
    def test_quotient_identity(self, n, i, l):
        from math import gcd

        if gcd(2 * n, i) != 1:
            return
        h, _ = hypotenuse_number(n, i, l)
        p, q = 2 * n + i, 2 * n - i
        assert ((p + q) ** (2 * l) + (p - q) ** (2 * l)) == h * 2 ** (2 * l)


class TestVerifyRange:
    def test_small_range_with_csv(self, tmp_path):
        path = tmp_path / "witnesses.csv"
        summary = verify_range(10_000, csv_path=str(path))
        assert summary.count == 4999
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == summary.count
        assert rows[0] == {"N": "4", "I_min": "0", "p": "2", "q": "2"}
        sample = rows[500]
        n, i, p, q = int(sample["N"]), int(sample["I_min"]), int(sample["p"]), int(sample["q"])
        assert p + q == n and p - q == 2 * i

    @pytest.mark.parametrize(
        "start, stop", [(4, 4), (4, 6), (5, 9), (100, 200), (998, 1000), (3, 3000), (4, 10_000)]
    )
    def test_rows_match_find_witness(self, tmp_path, start, stop):
        path = tmp_path / "witnesses.csv"
        summary = verify_range(stop, start=start, csv_path=str(path))
        with open(path, newline="") as handle:
            rows = [tuple(map(int, row)) for row in list(csv.reader(handle))[1:]]
        evens = range(max(start + start % 2, 4), stop + 1, 2)
        expected = [(w.N, w.I, w.p, w.q) for w in map(find_witness, evens)]
        assert rows == expected
        assert summary.count == len(rows)
        assert sum(count for _, count in summary.histogram) == summary.count
        assert max(i for i, _ in summary.histogram) == summary.max_i
        assert summary.n_at_max_i == min(n for n, i, _, _ in rows if i == summary.max_i)

    # up to 62 000 the largest minimal I, 525, belongs to two N
    @pytest.mark.parametrize("start, stop", [(4, 10_000), (3, 30_000), (1000, 20_000), (4, 62_000)])
    def test_straggler_rows_match_brute_force(self, tmp_path, scans, start, stop):
        path = tmp_path / "witnesses.csv"
        summary = verify_range(stop, start=start, csv_path=str(path))
        with open(path, newline="") as handle:
            rows = [tuple(map(int, row)) for row in list(csv.reader(handle))[1:]]
        flags = sieve_flags(stop)
        expected = []
        for n in range(max(start + start % 2, 4), stop + 1, 2):
            i = brute_min_i(flags, n)
            expected.append((n, i, n // 2 + i, n // 2 - i))
        assert rows == expected
        # the sweep tried every I below some i0 and left each N whose minimal
        # I is at least i0 to the scan, once, in increasing N, from i0 or i0 + 1
        i0 = min(i for _, i in scans)
        assert {i for _, i in scans} <= {i0, i0 + 1}
        assert [2 * m for m, _ in scans] == [n for n, i, _, _ in rows if i >= i0]
        assert summary.histogram == tuple(sorted(Counter(i for _, i, _, _ in rows).items()))
        assert summary.max_i == max(i for _, i, _, _ in rows)
        assert summary.n_at_max_i == min(n for n, i, _, _ in rows if i == summary.max_i)

    def test_every_small_range_matches_brute_force(self, monkeypatch):
        # every even start and stop up to 400 mixes the two parity classes of M in every way; the
        # reports are caught in memory, as 19 900 files would take seconds
        flags = sieve_flags(400)
        least = {n: brute_min_i(flags, n) for n in range(4, 401, 2)}
        rows = {n: ",".join(map(str, (n, i, n // 2 + i, n // 2 - i))) for n, i in least.items()}
        reports = []

        class Report(io.StringIO):
            def close(self):
                reports.append(self.getvalue())
                super().close()

        monkeypatch.setattr(goldbach, "_odd", bytearray())
        monkeypatch.setattr(goldbach, "open", lambda path, mode, newline: Report(newline=newline), raising=False)
        for start in range(4, 401, 2):
            for stop in range(start, 401, 2):
                summary = verify_range(stop, start=start, csv_path="report.csv")
                evens = range(start, stop + 1, 2)
                max_i = max(least[n] for n in evens)
                expected = (
                    len(evens),
                    max_i,
                    min(n for n in evens if least[n] == max_i),
                    tuple(sorted(Counter(least[n] for n in evens).items())),
                )
                assert (summary.count, summary.max_i, summary.n_at_max_i, summary.histogram) == expected
                assert reports.pop().split("\r\n") == ["N,I_min,p,q", *(rows[n] for n in evens), ""], (start, stop)
        assert not reports

    # N = 4k has M even and N = 4k + 2 has M odd, so each range holds one class of M only
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14, 128, 130, 9998, 10_000, 49_552, 61_998, 62_000])
    def test_one_parity_class(self, tmp_path, n):
        path = tmp_path / "witnesses.csv"
        summary = verify_range(n, start=n, csv_path=str(path))
        i = brute_min_i(sieve_flags(n), n)
        assert (summary.count, summary.max_i, summary.n_at_max_i, summary.histogram) == (1, i, n, ((i, 1),))
        with open(path, newline="") as handle:
            assert list(csv.reader(handle)) == [["N", "I_min", "p", "q"], [str(n), str(i), str(n // 2 + i), str(n // 2 - i)]]

    def test_four_and_six_tie_at_zero(self):
        # 4 = 2 + 2 is counted apart from the sweep, whose I = 0 finds 6 = 3 + 3; the smaller N is named
        flags = sieve_flags(6)
        assert brute_min_i(flags, 4) == brute_min_i(flags, 6) == 0
        summary = verify_range(6)
        assert (summary.count, summary.max_i, summary.n_at_max_i, summary.histogram) == (2, 0, 4, ((0, 2),))
        assert verify_range(6, start=6).n_at_max_i == 6
        assert verify_range(8).n_at_max_i == 8

    # 3 marked composite leaves N = 6 (M = 3, odd) and 8 (M = 4, even) without a witness; 7 and 11
    # leave N = 12 (M = 6) and 14 (M = 7), bit 3 of each class. To 100 the sweep runs to its end and
    # raises; to 2000 it stops first and the scan of the stragglers raises.
    @pytest.mark.parametrize("composite", [(3,), (7, 11)])
    @pytest.mark.parametrize("stop", [100, 2000])
    def test_doctored_table_names_the_smallest_n_of_either_class(self, monkeypatch, scans, composite, stop):
        flags = sieve_flags(stop)
        doctored = _odd_flags(2, stop + 1)
        for p in composite:
            flags[p] = doctored[(p - 3) // 2] = 0
        bare = [n for n in range(4, stop + 1, 2) if not any(flags[n // 2 + i] and flags[n // 2 - i] for i in range(n // 2))]
        assert len(bare) == 2 and bare[0] // 2 % 2 != bare[1] // 2 % 2
        monkeypatch.setattr(goldbach, "_odd", doctored)
        with pytest.raises(NoWitnessFound, match=f"N={bare[0]}:"):
            verify_range(stop)
        assert bool(scans) == (stop == 2000)
        with pytest.raises(NoWitnessFound, match=f"N={bare[1]}:"):
            verify_range(stop, start=bare[0] + 2)

    def test_stop_capped_before_the_sieve_and_the_report(self, tmp_path, monkeypatch):
        def refuse(lo, hi):
            raise AssertionError("sieved past the cap")

        monkeypatch.setattr(goldbach, "_odd", bytearray())
        monkeypatch.setattr(goldbach, "_odd_flags", refuse)
        path = tmp_path / "witnesses.csv"
        with pytest.raises(InputTooLarge, match=f"<= {10**8}, got {10**8 + 2}"):
            verify_range(10**8 + 2, csv_path=str(path))
        assert not path.exists()
        # nor does a refused range truncate an existing report
        path.write_text("kept\n")
        with pytest.raises(EmptyInterval):
            verify_range(3, csv_path=str(path))
        assert path.read_text() == "kept\n"

    def test_cold_range_peak_memory(self, monkeypatch):
        # one stop/2-byte odd table and one stop/2-byte digit string, never a byte per integer
        stop = 10**6
        monkeypatch.setattr(goldbach, "_odd", bytearray())
        tracemalloc.start()
        try:
            verify_range(stop)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * stop, peak / stop

    def test_doctored_sieve_raises(self, monkeypatch):
        # with 3 marked composite, N = 6 = 3 + 3 loses its only witness
        from quadratica import goldbach

        doctored = _odd_flags(2, 2001)
        doctored[0] = 0  # flag 0 is 3
        monkeypatch.setattr(goldbach, "_odd", doctored)
        with pytest.raises(NoWitnessFound, match="N=6:"):
            verify_range(100)

    def test_doctored_sieve_raises_from_the_scan(self, monkeypatch, scans):
        # the sweep leaves N = 6 to the scan, which starts past M = 3 and must
        # raise, not read the table's end, where every flag from 10 001 on says prime
        doctored = _odd_flags(2, 12_001)
        doctored[0] = 0  # flag 0 is 3
        doctored[4999:] = b"\1" * (len(doctored) - 4999)  # flag 4999 is 10 001
        monkeypatch.setattr(goldbach, "_odd", doctored)
        with pytest.raises(NoWitnessFound, match="N=6:"):
            verify_range(10_000)
        assert scans[0][0] == 3 and scans[0][1] > 3
