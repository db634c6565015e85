"""CPU-speed reference: report times at a fixed reference speed.

On the 2-core x86 VM this benchmark was built on, the same pure-Python work
takes anywhere from 1x to 2x its fastest time, changing within seconds
(neighbouring load on the host).  Raw wall times of 30-second runs then
differ by 15-20% between runs of the same code.  A probe times a fixed piece
of work just before and just after each operation, and ``Clock`` scales the
operation's wall time by (reference probe time) / (mean probe time).

* ``probe`` is pure-Python Fraction arithmetic, the kind of work rearrcalc
  does in-process.  Scaled in-process times stay within about 1% while the
  raw times move by 30%.
* ``start_probe`` starts a bare interpreter (``python -S -c pass``).  A CLI
  command tracks it to about 3%, against 10% for the Fraction probe: most
  of a command's time is interpreter start and import.

The reported times read as seconds on a machine where the probe takes its
reference time (the fast state of that VM).  All processes of a run are
pinned to one CPU (``pin``), so the probe and the operation, or the child
process it starts, run on the same core.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

REF_S = 300e-6  # probe() in the fast state of the reference VM
REF_START_S = 11.5e-3  # start_probe() in the fast state of the reference VM
REUSE_S = 0.1  # a probe this recent is reused as the next call's "before" probe
_TERMS = [(i % 97 + 1, i % 13 + 1) for i in range(1, 151)]


def _work() -> Fraction:
    total = Fraction(0)
    for p, q in _TERMS:
        total += Fraction(p, q)
    return total


def probe() -> float:
    """Fastest of three runs of the reference work, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _work()
        best = min(best, perf_counter() - t0)
    return best


def start_probe() -> float:
    """Wall time of starting and ending a bare interpreter, in seconds."""
    t0 = perf_counter()
    # no timeout: with one, subprocess polls for the exit and the probe reads long
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return perf_counter() - t0


def pin() -> None:
    """Run this process, and the processes it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Clock:
    """Times calls; keeps both the raw and the speed-scaled durations."""

    def __init__(self, probe=probe, ref_s: float = REF_S):
        self.probe = probe
        self.ref_s = ref_s
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._last = (float("-inf"), 0.0)  # (when, probe time) of the latest probe

    def run(self, fn):
        """Call ``fn``; returns its result.  Exceptions propagate after timing."""
        when, before = self._last
        if perf_counter() - when > REUSE_S:
            before = self.probe()
        t0 = perf_counter()
        try:
            return fn()
        finally:
            elapsed = perf_counter() - t0
            after = self.probe()
            self._last = (perf_counter(), after)
            self.raw.append(elapsed)
            self.scaled.append(elapsed * self.ref_s * 2 / (before + after))
