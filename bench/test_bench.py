"""The benchmark's own tests: its oracles are right, and they are live.

    python3 -m pytest -q bench

A wrong answer fed into a workload must raise its fail ratio; a composite
modulus that quadratica refuses must count as a correct outcome.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from quadratica import congruence, goldbach  # noqa: E402

SUMMARY = SimpleNamespace(start=4, stop=10**6, count=499_999, max_i=1281, n_at_max_i=742_856)


def _is_prime_by_trial(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def test_fibonacci_and_metallic_oracles_match_the_recurrences():
    f = [0, 1]
    for _ in range(200):
        f.append(f[-1] + f[-2])
    assert [oracle.fib_pair(n) for n in range(200)] == [(f[n], f[n + 1]) for n in range(200)]
    for k in range(1, 6):
        p = [0, 1]
        for _ in range(60):
            p.append(k * p[-1] + p[-2])
        assert [oracle.metallic_pair(k, n) for n in range(1, 60)] == [(p[n], p[n - 1]) for n in range(1, 60)]


def test_squarefree_and_sieve_oracles():
    assert oracle.squarefree(-72) == (6, -2)
    assert oracle.squarefree(2 * 3 * 49) == (7, 6)
    flags = oracle.sieve(500)
    assert [n for n in range(501) if flags[n]] == [n for n in range(501) if _is_prime_by_trial(n)]


def test_certificates_never_pass_a_composite():
    assert oracle.is_proth_prime(13) and oracle.is_proth_prime(41)  # 3*2^2 + 1, 5*2^3 + 1
    assert not oracle.is_proth_prime(57)  # 7*2^3 + 1 = 3 * 19
    rng = random.Random(7)
    for bits in (32, 33, 40):
        for two_adic in (1, 2, 3, 5):
            p = oracle.certified_prime(rng, bits, two_adic)
            assert p.bit_length() == bits and _is_prime_by_trial(p)
            assert (p - 1) % 2**two_adic == 0 and (p - 1) % 2 ** (two_adic + 1)
    for q in (13, 17, 41):
        for p in range(q + 1, q * q, q):
            if oracle.pocklington_prime(q, p):
                assert _is_prime_by_trial(p)


@pytest.mark.parametrize("name", ["algebra", "powers", "modular"])
def test_library_passes_its_oracle(name):
    record = workloads.run(name, seed=3, seconds=0)
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["errors"]


def test_goldbach_witnesses_pass_their_oracle():
    def stub_verify(task, span):
        return SUMMARY if task[0] == "verify" else workloads.Goldbach.execute(task, span)

    record = workloads.run("goldbach", seed=3, seconds=0, execute=stub_verify)
    assert record["failed"] == 0, record["errors"]


def _wrong_algebra(task, span):
    raw = list(workloads.Algebra.execute(task, span))
    raw[4] = raw[4] + 1  # the product
    return raw


def _wrong_powers(task, span):
    raw = workloads.Powers.execute(task, span)
    if task[0] == "ledger":
        return raw[:-1]
    *rest, f = raw
    return (*rest, f + 1)


def _wrong_modular(task, span):
    raw = workloads.Modular.execute(task, span)
    if task[0] == "is_prime":
        return not raw
    if task[0] == "composite":
        # answering instead of refusing a composite modulus is a failure
        return congruence.CongruenceSolution(congruence.SolutionKind.NO_SOLUTION, ())
    if task[0] == "two_squares":
        return (raw[0] + 1, raw[1])
    return congruence.CongruenceSolution(congruence.SolutionKind.TWO_ROOTS, (0, 1))


def _wrong_goldbach(task, span, flags=oracle.sieve(10**6)):
    if task[0] == "verify":
        return SimpleNamespace(**{**vars(SUMMARY), "count": SUMMARY.count - 1})
    # the next witness after the minimal one: valid primes, but not minimal
    w = goldbach.find_witness(task[1])
    start = w.I + 2 if w.I else (1 if w.M % 2 == 0 else 2)
    i = next(j for j in range(start, w.M, 2) if flags[w.M + j] and flags[w.M - j])
    p, q = w.M + i, w.M - i
    return SimpleNamespace(N=w.N, M=w.M, I=i, p=p, q=q), goldbach.witness_areas(p, q)


@pytest.mark.parametrize("name, wrong", [
    ("algebra", _wrong_algebra),
    ("powers", _wrong_powers),
    ("modular", _wrong_modular),
    ("goldbach", _wrong_goldbach),
])
def test_wrong_answers_raise_the_fail_ratio(name, wrong):
    record = workloads.run(name, seed=3, seconds=0, execute=wrong)
    for kind, (attempted, failed) in record["kinds"].items():
        assert failed == attempted, kind
    assert record["failed"] == record["attempted"] > 0


def test_refused_composite_is_a_correct_outcome():
    record = workloads.run("modular", seed=5, seconds=0)
    attempted, failed = record["kinds"]["composite"]
    assert attempted == 2 and failed == 0
    check = oracle.check_modular
    assert check(("composite", 5, 21), oracle.REFUSED)
    assert not check(("composite", 5, 21), ("NoSolution", ()))
    assert not check(("sqrt", 4, 7), oracle.REFUSED)  # refusing a prime modulus is wrong


def test_areas_oracle_rejects_a_wrong_area():
    check = oracle.GoldbachOracle().check
    w = goldbach.find_witness(100)
    areas = goldbach.witness_areas(w.p, w.q)
    plain = (areas.parabola_area, areas.rectangle_area, areas.triangle_area, areas.leading_segment)
    assert check(("witness", 100), ((w.N, w.M, w.I, w.p, w.q), plain))
    assert not check(("witness", 100), ((w.N, w.M, w.I, w.p, w.q), plain[:3] + (Fraction(0),)))


def test_traced_run_records_a_span_per_call():
    tracer = workloads.Tracer()
    record = workloads.run("algebra", seed=1, seconds=0, tracer=tracer)
    by_id = {s[0]: s for s in tracer.spans}
    items = [s for s in tracer.spans if s[4] is None]
    calls = [s for s in tracer.spans if s[4] is not None]
    assert len(by_id) == len(tracer.spans)
    assert 2 * len(items) == record["attempted"] and len(calls) == 13 * len(items)
    for _, _, start, end, parent, item in calls:
        root = by_id[parent]
        assert root[1] == "item.field" and root[5] == item and root[2] <= start <= end <= root[3]
    assert set(record["spans"]) >= {"qfield.mul", "qfield.parse", "solver.solve"}


def test_traced_run_runs_every_block_traced_and_untraced():
    tracer = workloads.Tracer()
    record = workloads.run("algebra", seed=1, seconds=0.3, tracer=tracer)
    untraced, traced = record["mode_items"]
    assert traced == untraced > 0 and untraced + traced == record["attempted"]
    assert sum(1 for s in tracer.spans if s[4] is None) == traced
    order = [s[5] for s in tracer.spans if s[4] is None]  # item ids of traced items
    block = len(workloads.Algebra.RADICANDS)
    # TU UT TU: the traced run of block 1 comes second, right before that of block 2
    assert order[:3 * block] == [*range(block), *range(3 * block, 5 * block)]


def test_traced_goldbach_scans_the_range_once():
    def stub_verify(task, span):
        return SUMMARY if task[0] == "verify" else workloads.Goldbach.execute(task, span)

    record = workloads.run("goldbach", seed=3, seconds=0, tracer=workloads.Tracer(), execute=stub_verify)
    assert record["kinds"]["verify"] == [SUMMARY.count, 0]
    assert record["kinds"]["witness"] == [2 * workloads.Goldbach.SAMPLE, 0]


def test_ledger_scales_each_window_by_its_kernel_timings():
    timings = iter([2e-3, 4e-3, 1e-3, 3e-3])
    kernel = hostspeed.Kernel(None, 1e-3)
    kernel.time = lambda: next(timings)
    ledger = workloads.Ledger(kernel)
    ledger.probe()
    ledger.add(0.5, traced=False)
    ledger.close_window()  # kernel took 3 ms on average: speed 1/3
    ledger.probe()
    ledger.add(0.2, traced=True)
    ledger.add_bulk(5.0)  # work in other processes stays as measured
    ledger.close_window()  # kernel took 2 ms on average: speed 1/2
    assert list(ledger.speeds) == pytest.approx([1 / 3, 1 / 2])
    assert list(ledger.latencies) == pytest.approx([0.5 / 3, 0.1])
    assert ledger.busy == pytest.approx(0.5 / 3 + 0.1 + 5.0)
    assert ledger.raw_busy == pytest.approx(5.7)
    assert ledger.mode_busy == pytest.approx([0.5 / 3, 0.1]) and ledger.mode_items == [1, 1]


def test_throughput_counts_only_verified_items():
    phase = {"attempted": 100, "failed": 40, "busy": 2.0, "latencies": [1e-3] * 10,
             "rss_peak_mb": [20.0]}
    metrics = bench_run.end_to_end(phase, {"setup_s": [0.1]})
    assert metrics["items_per_s"] == (30.0, "1/s")


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "algebra", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
