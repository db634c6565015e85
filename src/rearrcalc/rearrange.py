"""Decreasing rearrangements of step functions, exactly.

For a step function x on [0, alpha), the decreasing rearrangement
x*(t) = inf{ lam : d_x(lam) <= t }, with d_x(lam) = mu{ |x| > lam } the
distribution function (``stepfn.exceedance_measure``), is computed by
sorting the pieces of |x| by value.  On [0, inf) a nonzero eventual value |tail| acts as an infinite
plateau: pieces with |value| <= |tail| are absorbed by it, larger ones stack
in front, and x*(inf) = |tail|.  The running integral Phi_x(t) = int_0^t x*
is the increasing concave piecewise-linear ``level_integral``, and the
maximal function is x**(t) = Phi_x(t)/t, with Phi_x frozen at its limit for
t >= 1 when alpha = 1.

The sort is exact without Fraction's generic comparison: each |value| p/q
becomes a slotted key comparing p1*q2 < p2*q1 in plain ints.  (A common
denominator for all values would give int keys too, but on many large
coprime denominators it grows to many thousands of bits and is slower.)
The level integral's nodes are running sums of value * length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .errors import PreconditionError
from .stepfn import (
    INF,
    PiecewiseLinearConcave,
    StepFunction,
    _require_same_domain,
    rat,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class RearrangementResult:
    """The rearrangement star = x*, its running integral, and x*(inf).

    ``star_at_infinity`` is the limit of x* at the right end of the domain:
    the absolute tail value when alpha = inf, and the last piece's value when
    alpha = 1 (where it is only the left limit at 1).
    """

    star: StepFunction
    level_integral: PiecewiseLinearConcave
    star_at_infinity: Fraction


class _Key:
    """|q| = n/d as a sort key, compared exactly in ints: n1*d2 < n2*d1."""

    __slots__ = ("n", "d")

    def __init__(self, q: Fraction):
        self.n, self.d = abs(q.numerator), q.denominator

    def __lt__(self, other: "_Key") -> bool:
        return self.n * other.d < other.n * self.d


@lru_cache(maxsize=8192)
def _rearrange(x: StepFunction) -> RearrangementResult:
    # (key of |value|, value, length) for every piece of finite length
    pieces: list[tuple[_Key, Fraction, Fraction]] = []
    start = _ZERO
    for c, v in zip(x.cuts, x.values):
        pieces.append((_Key(v), v, c - start))
        start = c
    if x.alpha != INF:
        pieces.append((_Key(x.tail), x.tail, x.alpha - start))
    else:
        plateau = _Key(x.tail)
        pieces = [p for p in pieces if plateau < p[0]]
    # sort by |value|, descending, merging equal values
    pieces.sort(key=itemgetter(0), reverse=True)
    merged: list[list] = []
    for k, v, l in pieces:
        if merged and not k < merged[-1][0]:  # sorted: not smaller means equal
            merged[-1][2] += l
        else:
            merged.append([k, v, l])
    if x.alpha != INF:
        # the last sorted piece is the tail of the rearrangement
        tail = abs(merged.pop()[1])
    else:
        tail = abs(x.tail)
    cuts: list[Fraction] = []
    values: list[Fraction] = []
    node_values: list[Fraction] = []
    acc = total = _ZERO
    for _, v, l in merged:
        v = abs(v)
        acc += l
        total += v * l
        cuts.append(acc)
        values.append(v)
        node_values.append(total)
    star = StepFunction(x.alpha, tuple(cuts), tuple(values), tail)
    # running integral of the star: one node per cut, then slope = tail
    phi = PiecewiseLinearConcave(
        x.alpha, star.cuts, tuple(node_values), final_slope=star.tail
    )
    return RearrangementResult(star, phi, tail)


def rearrangement(x: StepFunction) -> RearrangementResult:
    """Decreasing rearrangement of x with its running integral."""
    return _rearrange(x)


def level_integral(x: StepFunction) -> PiecewiseLinearConcave:
    """Phi_x(t) = int_0^t x*, as an exact concave piecewise-linear function."""
    return _rearrange(x).level_integral


def _phi_saturated(phi: PiecewiseLinearConcave, t: Fraction) -> Fraction:
    """Phi evaluated with the alpha=1 convention Phi(t) = Phi(1-) for t >= 1."""
    if phi.alpha != INF and t >= phi.alpha:
        return phi.value_at(phi.alpha)
    return phi.value_at(t)


def maximal_eval(x: StepFunction, t) -> Fraction:
    """x**(t) = (1/t) int_0^t x* for t > 0 (integral frozen past 1 when alpha=1)."""
    t = rat(t)
    if t <= 0:
        raise PreconditionError(f"maximal function needs t > 0, got {t}")
    return _phi_saturated(_rearrange(x).level_integral, t) / t


def equimeasurable(x: StepFunction, y: StepFunction) -> bool:
    """True when |x| and |y| have identical distribution functions."""
    _require_same_domain(x, y)
    return _rearrange(x).star == _rearrange(y).star
