"""The four benchmark workloads, each run as a closed loop with one client.

Run as a script, this is one workload process: it builds its inputs from
the seed, runs items until the time is up, checks every output against
bench/oracle.py and prints one JSON line of timings for bench/run.py,
scaled to the reference host speed (see Ledger and hostspeed.py).

    PYTHONPATH=src:bench python3 bench/workloads.py --workload algebra --seed 1 --seconds 5

Each item starts only after the previous one has been checked. Items come
in blocks; a block is one stratified sweep over the workload's input mix,
so every block, and hence every seed, carries the same mix of kinds and
sizes. Only the calls into quadratica are timed: input generation and the
oracle run outside the clock. Every call goes through a public name, with
arguments that the planned refactors keep.
"""

from __future__ import annotations

import argparse
import base64
import itertools
import json
import math
import random
import resource
import statistics
import sys
import traceback
from array import array
from contextlib import nullcontext
from fractions import Fraction
from time import perf_counter

import hostspeed
import oracle
from quadratica import QuadElem, Quadratic, parse_quad, solve
from quadratica import congruence, fibgroup, goldbach, intmath, metallic
from quadratica.errors import CompositeModulus

GOLDEN = (math.sqrt(5) - 1) / 2  # step of the low-discrepancy sequence inside strata
# Input properties are taken from the first PROPS_SAMPLE items, so that the
# benchmark's own memory does not grow with the speed of the code it runs.
PROPS_SAMPLE = 20_000


def _coords(z) -> tuple[Fraction, Fraction, int]:
    return (z.a, z.b, z.m)


class Algebra:
    """Per-call overhead on small operands in Q(sqrt(m)), plus one exact solve.

    The six field radicands repeat from item to item; the radicands of the
    solved quadratics' discriminants mostly do not.
    """

    RADICANDS = (2, 3, 5, 13, -1, -3)
    KERNEL = "fractions"

    def __init__(self, rng: random.Random):
        self.rng = rng
        flags = oracle.sieve(3000)
        self.primes = [p for p in range(len(flags)) if flags[p]]
        self.field_radicands: list[int] = []
        self.disc_radicands: list[int] = []

    def _rat(self, nonzero: bool = False, den: int = 9) -> Fraction:
        num = 0
        while num == 0:
            num = self.rng.randint(-9, 9)
            if not nonzero:
                break
        return Fraction(num, self.rng.randint(1, den))

    def _quadratic(self) -> tuple[tuple[Fraction, Fraction, Fraction], int]:
        """A quadratic with a known discriminant radicand d (0 for rational roots).

        The discriminant is s^2 * d with d = +/- p*q for distinct primes below
        3000, so d is squarefree by construction and rarely seen twice; one
        quadratic in twelve has rational roots and one a double root.
        """
        a, b = self._rat(True, 5), self._rat(den=5)
        pick = self.rng.randrange(12)
        if pick == 0:
            disc, d = Fraction(0), 0
        elif pick == 1:
            disc, d = Fraction(self.rng.randint(1, 9), self.rng.randint(1, 5)) ** 2, 0
        else:
            p, q = self.rng.sample(self.primes, 2)
            d = self.rng.choice((-1, 1)) * p * q
            disc = self.rng.randint(1, 3) ** 2 * Fraction(d)
        return (a, b, (b * b - disc) / (4 * a)), d

    def block(self) -> list:
        tasks = []
        for m in self.rng.sample(self.RADICANDS, len(self.RADICANDS)):
            quad, d = self._quadratic()
            tasks.append(("field", m, self._rat(), self._rat(True), self._rat(), self._rat(True),
                          self.rng.randint(2, 5), quad, d))
            if len(self.field_radicands) < PROPS_SAMPLE:
                self.field_radicands.append(m)
                if d:
                    self.disc_radicands.append(d)
        return tasks

    @staticmethod
    def execute(task, span):
        _, m, a1, b1, a2, b2, k, (qa, qb, qc), _ = task
        with span("qfield.construct"):
            z = QuadElem(a1, b1, m)
        with span("qfield.construct"):
            w = QuadElem(a2, b2, m)
        with span("qfield.add"):
            total = z + w
        with span("qfield.sub"):
            diff = z - w
        with span("qfield.mul"):
            prod = z * w
        with span("qfield.div"):
            quot = z / w
        with span("qfield.inverse"):
            inv = w.inverse()
        with span("qfield.norm"):
            norm = z.norm()
        with span("qfield.conj"):
            conj = z.conj()
        with span("qfield.pow"):
            power = z**k
        with span("qfield.str"):
            text = str(z)
        with span("qfield.parse"):
            back = parse_quad(text)
        with span("solver.solve"):
            roots = solve(Quadratic(qa, qb, qc))
        return z, w, total, diff, prod, quot, inv, norm, conj, power, back, roots

    @staticmethod
    def observe(task, raw):
        *elems, norm, conj, power, back, roots = raw
        keys = ("z", "w", "add", "sub", "mul", "div", "inverse")
        out = {key: _coords(e) for key, e in zip(keys, elems)}
        out.update(norm=norm, conj=_coords(conj), pow=_coords(power), parse=_coords(back))
        out["solve"] = (roots.kind.value, _coords(roots.r1), _coords(roots.r2))
        return out

    check = staticmethod(oracle.check_algebra)

    def props(self) -> dict:
        field, disc = self.field_radicands, self.disc_radicands
        both = field + disc
        return {"field_radicand_repeat_share": _repeat_share(field),
                "disc_radicand_repeat_share": _repeat_share(disc),
                "repeated_radicand_share": _repeat_share(both),
                "radicands": len(both), "distinct_radicands": len(set(both))}


def _repeat_share(values: list) -> float:
    """Share of values already seen earlier in the list."""
    return (len(values) - len(set(values))) / max(1, len(values))


class Powers:
    """The same field arithmetic on huge integers, plus Fibonacci and the phi ledger.

    A block holds one power item per stratum of log n over [10, 2*10^4] and
    one phi_ledger(k) with log k in [20, 200]. Positions inside a stratum
    follow a golden-ratio sequence from a seeded start, so a run covers
    every stratum evenly: an item's cost grows faster than n, and purely
    random draws made the run-to-run spread far wider. With one ledger in
    seventeen items, the 90th percentile falls among the largest powers
    rather than in the gap between them and the ledgers.
    """

    N_RANGE = (10, 20_000)
    N_STRATA = 16
    LEDGER_RANGE = (20, 200)
    LEDGER_STRATA = 1
    METALLIC = (2, 3, 4, 5)  # sigma_k for x^2 = k*x + 1
    KERNEL = "fractions"

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.blocks = 0
        self.phase = [rng.random() for _ in range(self.N_STRATA + self.LEDGER_STRATA)]
        self.operand_bits: list[int] = []

    def _strata(self, bounds: tuple[int, int], phases: list[float]) -> list[int]:
        lo, hi = (math.log(x) for x in bounds)
        step = (hi - lo) / len(phases)
        return [round(math.exp(lo + step * (i + (u + self.blocks * GOLDEN) % 1.0)))
                for i, u in enumerate(phases)]

    def block(self) -> list:
        ns = self._strata(self.N_RANGE, self.phase[: self.N_STRATA])
        ks = self._strata(self.LEDGER_RANGE, self.phase[self.N_STRATA :])
        tasks = [("power", n, self.METALLIC[(i + self.blocks) % len(self.METALLIC)])
                 for i, n in enumerate(ns)]
        tasks += [("ledger", k) for k in ks]
        self.rng.shuffle(tasks)
        self.blocks += 1
        # phi^n's coordinates have about as many bits as F(n)
        if len(self.operand_bits) < PROPS_SAMPLE:
            self.operand_bits += [oracle.fib_pair(t[1])[0].bit_length() for t in tasks]
        return tasks

    @staticmethod
    def execute(task, span):
        if task[0] == "ledger":
            with span("metallic.phi_ledger"):
                return metallic.phi_ledger(task[1])
        _, n, k = task
        with span("qfield.construct"):
            phi = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
        with span("metallic.metallic"):
            sigma = metallic.metallic(k, 1).sigma
        with span("qfield.pow_big"):
            phi_n = phi**n
        with span("qfield.pow_big"):
            sigma_n = sigma**n
        with span("fibgroup.power_reduce"):
            reduce_1 = fibgroup.power_reduce(fibgroup.Case.I, n)
        with span("fibgroup.power_reduce"):
            reduce_2 = fibgroup.power_reduce(fibgroup.Case.II, n)
        with span("fibgroup.fib"):
            f = fibgroup.fib(n)
        return phi_n, sigma_n, reduce_1, reduce_2, f

    @staticmethod
    def observe(task, raw):
        if task[0] == "ledger":
            return [(r.n, r.coeff, r.const, r.power_sum, r.diff_coeff) for r in raw]
        phi_n, sigma_n, reduce_1, reduce_2, f = raw
        return {"phi_n": _coords(phi_n), "sigma_n": _coords(sigma_n),
                "reduce_I": (reduce_1.coeff, reduce_1.const),
                "reduce_II": (reduce_2.coeff, reduce_2.const), "fib": f}

    check = staticmethod(oracle.check_powers)

    def props(self) -> dict:
        q = statistics.quantiles(self.operand_bits, n=4) if len(self.operand_bits) > 1 else []
        return {"operand_bits_quartiles": q, "operand_bits_max": max(self.operand_bits, default=0)}


class Modular:
    """Quadratic congruences and primality for small and 61-127 bit primes.

    Large primes carry a Proth-Pocklington certificate made here, never a
    verdict of intmath.is_prime. Composite moduli are products of two primes
    and must be refused with CompositeModulus.
    """

    BITS = (61, 127)
    POOL = 128  # certified primes per residue class mod 4, bit sizes spread evenly
    # 2-adic valuations of p - 1 for the p = 1 (mod 4) pool, in their natural
    # proportions: Tonelli-Shanks cost grows with it, and seeded random pools
    # differed by 25% in mean cost
    TWO_ADIC = (2, 2, 2, 2, 3, 3, 4, 5)
    KERNEL = "powmod"

    def __init__(self, rng: random.Random):
        self.rng = rng
        flags = oracle.sieve(oracle.SMALL_MODULUS - 1)
        small = [p for p in range(3, len(flags)) if flags[p]]
        lo, hi = self.BITS
        bits = [lo + (hi - lo) * i // (self.POOL - 1) for i in range(self.POOL)]
        big = {1: [oracle.certified_prime(rng, b, self.TWO_ADIC[i % len(self.TWO_ADIC)])
                   for i, b in enumerate(bits)],
               3: [oracle.certified_prime(rng, b, 1) for b in bits]}
        # each pool is cycled in a seeded order, so that every run uses its
        # primes equally often: their costs differ (Tonelli-Shanks depth)
        self.pools = {
            name: itertools.cycle(rng.sample(pool, len(pool)))
            for name, pool in [("small", small), ("small1", [p for p in small if p % 4 == 1]),
                               ("small3", [p for p in small if p % 4 == 3]),
                               ("big1", big[1]), ("big3", big[3])]
        }
        self.big_bits = sorted(p.bit_length() for p in big[1] + big[3])
        self.small_moduli = self.big_moduli = 0

    def _next(self, pool: str) -> int:
        return next(self.pools[pool])

    def block(self) -> list:
        rng, pick = self.rng, self._next
        p1, p3, q, u, v = pick("small1"), pick("small3"), pick("small"), pick("small"), pick("small")
        tasks = [
            ("sqrt", rng.randrange(p1), p1),
            ("sqrt", rng.randrange(p3), p3),
            ("quad", rng.randrange(1, q), rng.randrange(q), rng.randrange(q), q),
            ("is_prime", pick("small"), True),
            ("composite", rng.randrange(u * v), u * v),
        ]
        small = len(tasks)
        for pool in ("big1", "big3"):
            p = pick(pool)
            tasks.append(("sqrt", rng.randrange(p), p))
            p = pick(pool)
            tasks.append(("quad", rng.randrange(1, p), rng.randrange(p), rng.randrange(p), p))
        x, y = pick("big1"), pick("big3")
        tasks += [
            ("two_squares", pick("big1")),
            ("is_prime", pick(rng.choice(("big1", "big3"))), True),
            ("is_prime", x * y, False),
            ("composite", rng.randrange(x * y), x * y),
        ]
        self.small_moduli += small
        self.big_moduli += len(tasks) - small
        return tasks

    @staticmethod
    def execute(task, span):
        kind = task[0]
        if kind == "is_prime":
            n, expected = task[1], task[2]
            size = "small" if n < oracle.SMALL_MODULUS else "big" if expected else "composite"
            with span("intmath.is_prime_" + size):
                return intmath.is_prime(n)
        if kind == "two_squares":
            with span("congruence.two_squares"):
                return congruence.two_squares(task[1])
        if kind == "composite":
            _, r, n = task
            with span("congruence.composite"):
                try:
                    if n < oracle.SMALL_MODULUS**2:
                        return congruence.sqrt_mod(r, n)
                    return congruence.solve_quad_mod(1, r, 1, n)
                except CompositeModulus:
                    return oracle.REFUSED
        p = task[-1]
        size = "_small" if p < oracle.SMALL_MODULUS else "_big"
        if kind == "sqrt":
            with span("congruence.sqrt_mod" + size):
                return congruence.sqrt_mod(task[1], p)
        with span("congruence.solve_quad_mod" + size):
            return congruence.solve_quad_mod(task[1], task[2], task[3], p)

    @staticmethod
    def observe(task, raw):
        if raw == oracle.REFUSED or task[0] in ("is_prime", "two_squares"):
            return raw
        return (raw.kind.value, tuple(raw.roots))

    check = staticmethod(oracle.check_modular)

    def props(self) -> dict:
        total = max(1, self.small_moduli + self.big_moduli)
        return {"small_modulus_share": self.small_moduli / total,
                "large_modulus_share": self.big_moduli / total,
                "large_prime_bits_quartiles": statistics.quantiles(self.big_bits, n=4)}


class Goldbach:
    """One cold verify_range(10^6), then minimal witnesses and areas for sampled N.

    A process runs a single round, so verify_range always starts with the
    library's caches empty, as `goldbach verify --to 1000000` does. The
    sampled N come in blocks of BLOCK after it.
    """

    SAMPLE = 1000
    BLOCK = 100
    ONE_ROUND = True
    KERNEL = "fractions"

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.sampled = 0
        self.check = oracle.GoldbachOracle().check

    def block(self) -> list:
        if self.sampled >= self.SAMPLE:
            return []
        first = [("verify",)] if self.sampled == 0 else []
        self.sampled += self.BLOCK
        return first + [("witness", 2 * self.rng.randrange(3, oracle.GOLDBACH_STOP // 2 + 1))
                        for _ in range(self.BLOCK)]

    @staticmethod
    def execute(task, span):
        if task[0] == "verify":
            # the default path: no workers, chunk or QUADRATICA_THREADS
            with span("goldbach.verify_range"):
                return goldbach.verify_range(oracle.GOLDBACH_STOP)
        with span("goldbach.find_witness"):
            w = goldbach.find_witness(task[1])
        if w.I == 0:
            return w, None
        with span("goldbach.witness_areas"):
            return w, goldbach.witness_areas(w.p, w.q)

    @staticmethod
    def observe(task, raw):
        if task[0] == "verify":
            return (raw.start, raw.stop, raw.count, raw.max_i, raw.n_at_max_i)
        w, areas = raw
        plain = None
        if areas is not None:
            plain = (areas.parabola_area, areas.rectangle_area, areas.triangle_area, areas.leading_segment)
        return (w.N, w.M, w.I, w.p, w.q), plain

    def props(self) -> dict:
        return {"sampled_n": self.sampled, "verify_stop": oracle.GOLDBACH_STOP}


WORKLOADS = {"algebra": Algebra, "powers": Powers, "modular": Modular, "goldbach": Goldbach}


class Tracer:
    """Spans kept in memory as tuples (id, name, start, end, parent id, item id).

    Each item gets a root span named item.<kind>; every call into a layer
    is a child span of it.
    """

    FIELDS = ("id", "name", "start", "end", "parent", "item")

    def __init__(self):
        self.spans: list[tuple] = []
        self.next_id = 0
        self.item = 0
        self.parent: int | None = None
        self._item_span: tuple = ()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def new_id(self) -> int:
        self.next_id += 1
        return self.next_id - 1

    def open_item(self, item: int, kind: str) -> None:
        self.item, self.parent = item, self.new_id()
        self._item_span = ("item." + kind, perf_counter())

    def close_item(self) -> None:
        name, start = self._item_span
        self.spans.append((self.parent, name, start, perf_counter(), None, self.item))
        self.parent = None

    def durations(self) -> dict[str, list[float]]:
        """Durations by span name, item spans left out."""
        out: dict[str, list[float]] = {}
        for _, name, start, end, parent, _ in self.spans:
            if parent is not None:
                out.setdefault(name, []).append(end - start)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": self.FIELDS, "spans": self.spans}, handle)


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.start = perf_counter()

    def __exit__(self, *exc):
        end = perf_counter()
        t = self.tracer
        t.spans.append((t.new_id(), self.name, self.start, end, t.parent, t.item))


_NULL = nullcontext()


def _no_span(name: str):
    return _NULL


class Ledger:
    """Item timings, scaled window by window to the reference host speed.

    The reference kernel runs before every block; a window is a run of
    blocks of about WINDOW seconds of work, closed by one more kernel run.
    Every item in a window is scaled by kernel.nominal over the mean of the
    window's kernel timings (see hostspeed.py). A bulk item, whose work runs
    in other processes, is kept as measured. `traced` splits the timings of
    single items by whether their block was traced, for the overhead.
    """

    WINDOW = 0.2  # seconds of work between host-speed estimates

    def __init__(self, kernel: hostspeed.Kernel):
        self.kernel = kernel
        self.latencies = array("d")  # reference seconds, one per single item
        self.busy = self.raw_busy = 0.0  # reference and measured seconds of work
        self.mode_busy = [0.0, 0.0]  # reference seconds of single items, [untraced, traced]
        self.mode_items = [0, 0]
        self.speeds = array("d")  # nominal / measured kernel time, one per window
        self._probes: list[float] = []
        self._pending: list[tuple[float, bool]] = []
        self._work = 0.0

    def probe(self) -> None:
        self._probes.append(self.kernel.time())

    def add(self, elapsed: float, traced: bool) -> None:
        self._pending.append((elapsed, traced))
        self._work += elapsed

    def add_bulk(self, elapsed: float) -> None:
        self.busy += elapsed
        self.raw_busy += elapsed

    def window_full(self) -> bool:
        return self._work >= self.WINDOW

    def close_window(self) -> None:
        if not self._pending:
            return
        self.probe()
        speed = self.kernel.nominal / (sum(self._probes) / len(self._probes))
        self.speeds.append(speed)
        for elapsed, traced in self._pending:
            scaled = elapsed * speed
            self.busy += scaled
            self.raw_busy += elapsed
            self.latencies.append(scaled)
            self.mode_busy[traced] += scaled
            self.mode_items[traced] += 1
        self._probes, self._pending, self._work = [], [], 0.0


def run(name: str, seed: int, seconds: float, tracer: Tracer | None = None, execute=None) -> dict:
    """Run one workload for `seconds` and return its raw record.

    An item that stands for many (the goldbach range scan) counts in `busy`
    and `attempted` but has no entry in `latencies`. With a tracer, every
    block runs twice, traced and untraced, the order alternating from block
    to block (TU UT TU ...), so that both modes see the same inputs and the
    same host; quadratica keeps no per-input cache that the second run
    could hit. A bulk item runs once, in the first run of its block.

    `execute` stands in for the workload's calls into quadratica; a test
    passes one that returns wrong answers to show that the oracle catches
    them.
    """
    wl = WORKLOADS[name](random.Random(seed))
    execute = execute or wl.execute
    ledger = Ledger(hostspeed.KERNELS[wl.KERNEL])
    attempted = failed = 0
    kinds: dict[str, list[int]] = {}  # task kind -> [attempted, failed]
    errors: list[str] = []
    one_round = getattr(wl, "ONE_ROUND", False)
    deadline = perf_counter() + seconds
    for index in itertools.count():
        block = wl.block()
        if not block:
            break
        passes = [(False, block)]
        if tracer is not None:  # the block again, its bulk item left out
            traced_first = index % 2 == 0
            passes = [(traced_first, block),
                      (not traced_first, [task for task in block if task[0] != "verify"])]
        for traced, tasks in passes:
            span = tracer.span if traced else _no_span
            ledger.probe()
            for task in tasks:
                weight = oracle.GOLDBACH_SUMMARY[2] if task[0] == "verify" else 1
                if traced:
                    tracer.open_item(attempted, task[0])
                t0 = perf_counter()
                try:
                    raw = execute(task, span)
                except Exception:  # an exception nobody expected is a failed item
                    elapsed = perf_counter() - t0
                    ok = False
                    if len(errors) < 5:
                        errors.append(f"{task!r:.200}: {traceback.format_exc(limit=3)}")
                else:
                    elapsed = perf_counter() - t0
                    ok = wl.check(task, wl.observe(task, raw))
                    if not ok and len(errors) < 5:
                        errors.append(f"{task!r:.200}: wrong answer")
                if traced:
                    tracer.close_item()
                attempted += weight
                failed += 0 if ok else weight
                counts = kinds.setdefault(task[0], [0, 0])
                counts[0] += weight
                counts[1] += 0 if ok else weight
                if weight == 1:
                    ledger.add(elapsed, traced)
                else:
                    ledger.add_bulk(elapsed)
        if ledger.window_full():
            ledger.close_window()
        if perf_counter() >= deadline and not one_round:
            break
    ledger.close_window()
    return {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "kinds": kinds,
        "errors": errors,
        "busy": ledger.busy,
        "raw_busy": ledger.raw_busy,
        "mode_busy": ledger.mode_busy,
        "mode_items": ledger.mode_items,
        "speeds": ledger.speeds,
        "latencies": ledger.latencies,
        "props": wl.props(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.durations() if tracer else {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", help="trace the run and write its spans to this file")
    args = parser.parse_args(argv)
    tracer = Tracer() if args.spans else None
    record = run(args.workload, args.seed, args.seconds, tracer)
    if tracer:
        tracer.write(args.spans)
    for key in ("latencies", "speeds"):
        record[key] = base64.b64encode(record[key].tobytes()).decode()
    json.dump(record, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
