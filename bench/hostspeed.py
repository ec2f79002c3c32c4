"""Reference kernels that tell how fast the host runs at a given moment.

The shared two-core host this benchmark was built on runs in spells: for
anything from a fraction of a second to minutes, all Python code on it runs
up to twice as slow, and then fast again. Raw timings from two runs of the
same code can therefore differ by half. A workload interleaves a short
reference kernel with its items, and every timing it reports is scaled to a
fixed reference speed: a duration t measured while the kernel took k seconds
is reported as t * kernel.nominal / k. The kernels use only the standard
library, so a change to quadratica cannot move them, and each workload uses
the kernel whose slowdown in a spell best matches its own: rational
arithmetic for most, modular powers for the congruence workload.

Set-up time, a fresh interpreter importing quadratica, is scaled the same
way by a fresh interpreter importing the standard-library modules that
quadratica imports, timed next to it.

A kernel stands only for work done in its own process. The Goldbach range
scan runs in a pool of worker processes, and its time follows neither the
kernel in the parent nor the kernel run on each core in turn, so that one
timing is reported as measured.

A scaled timing reads as "seconds on the reference host", the host being
one on which the kernel takes exactly `nominal` seconds; on the host this
was built on that is about its fast state.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

_MERSENNE_89 = (1 << 89) - 1


def _fractions() -> None:
    """Rational arithmetic on small operands: allocation and short calls."""
    x = Fraction(1, 3)
    for i in range(1, 30):
        x = x * Fraction(i, i + 1) + Fraction(1, i)


def _powmod() -> None:
    """Modular exponentiation with an 89-bit modulus, as in Euler's criterion."""
    p = _MERSENNE_89
    for a in range(2, 14):
        pow(a, (p - 1) // 2, p)


class Kernel:
    """One reference kernel and its duration on the reference host."""

    def __init__(self, body, nominal: float):
        self.body, self.nominal = body, nominal

    def time(self) -> float:
        """Seconds one run of the kernel takes now."""
        t0 = perf_counter()
        self.body()
        return perf_counter() - t0


# nominal: the kernel's median duration on the two-core host the benchmark
# was built on, in its fast state; only the ratio to it matters
KERNELS = {
    "fractions": Kernel(_fractions, 130e-6),
    "powmod": Kernel(_powmod, 205e-6),
}

# The reference for set-up time: a fresh interpreter importing the
# standard-library modules quadratica imports, and its wall time on the
# reference host.
STARTUP_REFERENCE = "import argparse, csv, dataclasses, enum, fractions, json, multiprocessing, random, re"
STARTUP_NOMINAL = 0.080
