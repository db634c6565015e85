"""Scaling sweep: time each kernel from 10^2 to 10^4 pieces, and to 3*10^4 where
it stays near a second there, then fit the log-log slope.

Runs apart from the timed workloads, untraced, with the rearrangement cache
cleared before every call so each call computes its rearrangements.  Times
are scaled to the reference CPU speed of speed.py.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction

import speed
from reference import INF
from workloads import Inputs

BASE_SIZES = (100, 1000, 10000)
# kernels measured at 3*10^4 pieces too: 0.5 to 1.5 s there on a 2-core x86
# VM; add, majorant_pair and maximal_distance would take 2 to 6 s
LARGE = {"integrate", "rearrangement", "norm_marcinkiewicz", "hlp_compare", "window"}
REPEATS = {100: 7, 1000: 3}  # larger sizes run once


def _kernel(mods, inputs, name, n, rng):
    stepfn, rearrange, majorize = mods["stepfn"], mods["rearrange"], mods["majorize"]
    x = inputs.star(rng, n) if name == "majorant_pair" else inputs.step(rng, n, INF)
    if name == "add":
        y = inputs.step(rng, n, INF)
        return lambda: x + y
    if name == "window":
        span = x.cuts[-1]
        return lambda: x.window(span / 4, 3 * span / 4)
    if name == "integrate":
        return lambda: stepfn.integrate(x, 0, INF)
    if name == "rearrangement":
        return lambda: rearrange.rearrangement(x)
    if name == "hlp_compare":
        y = inputs.step(rng, n, INF)
        return lambda: majorize.hlp_compare(y, x)
    if name == "norm_marcinkiewicz":
        phi = stepfn.PiecewiseLinearConcave(INF, (1, 3), (2, 3), 0)
        space = mods["spaces"].SpaceSpec("Marcinkiewicz", phi, INF)
        return lambda: mods["spaces"].norm(space, x)
    if name == "majorant_pair":
        tau = x.cuts[-1] / 2
        eps = rearrange.level_integral(x).value_at(tau) / 4
        return lambda: majorize.majorant_pair(x, tau, eps)
    y = inputs.step(rng, n, INF)
    return lambda: mods["experiments"].maximal_distance(x, y, Fraction(1, 2))


KERNELS = ("add", "window", "integrate", "rearrangement", "hlp_compare",
           "norm_marcinkiewicz", "majorant_pair", "maximal_distance")


def sweep(mods, seed: int) -> dict:
    """{kernel: (exponent, seconds at the largest size)}."""
    inputs = Inputs(mods)
    cache = mods["rearrange"]._rearrange
    out = {}
    for name in KERNELS:
        sizes = BASE_SIZES + ((30000,) if name in LARGE else ())
        times = []
        for n in sizes:
            call = _kernel(mods, inputs, name, n, random.Random(f"scaling/{seed}/{name}/{n}"))
            clock = speed.Clock()
            for _ in range(REPEATS.get(n, 1)):
                cache.cache_clear()
                clock.run(call)
            times.append(statistics.median(clock.scaled))
        slope, _ = statistics.linear_regression([math.log(n) for n in sizes],
                                                [math.log(t) for t in times])
        out[name] = (slope, times[-1])
    cache.cache_clear()
    return out
