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

The arithmetic is on int pairs, not Fractions, through the summation
kernel of ``stepfn``: each piece's length is a gcd-reduced pair
(numerator, denominator), and the star's cuts and the level integral's
nodes are running sums of pairs, one Fraction per output entry.  Here, the
sort key of |value| p/q is the plain int (|p| << k) // q = floor(|p/q| 2^k),
with k = 2 * D.bit_length() for D the largest denominator of x: distinct
values differ by at least 1/D^2 > 2^-k, so the keys order them exactly and
tie only on equal values.  Pieces of equal key are merged by adding their
length pairs.

A star passes through: when x is already x* (``stepfn``'s
``is_decreasing_rearrangement``), the rearrangement returns x itself as
``star``, without sorting or merging.  The star and its level integral are
built by the trusted constructor (see ``stepfn``): they are canonical by
construction, the level integral's segment slopes are the star's values,
with no division, and its slope function is the star object itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import itemgetter

from .errors import PreconditionError
from .stepfn import (
    INF,
    PiecewiseLinearConcave,
    StepFunction,
    _lengths,
    _products,
    _require_same_domain,
    _running_sums,
    _trusted,
    is_decreasing_rearrangement,
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


def _sorted_star(x: StepFunction, lengths) -> tuple[StepFunction, list]:
    """x* by sorting the pieces of |x|, with the length pairs of its pieces."""
    values = (*x.values, x.tail)
    ratios = [v.as_integer_ratio() for v in values]
    # floor(|p/q| 2^k) with 2^k > D^2: exact, see the module docstring
    k = 2 * max([q for _, q in ratios]).bit_length()
    keys = [(abs(p) << k) // q for p, q in ratios]
    # [key of |value|, value, length numerator, length denominator]
    pieces = [[key, v, n, d] for key, v, (n, d) in zip(keys, values, lengths)]
    if x.alpha == INF:
        pieces = [p for p in pieces if p[0] > keys[-1]]  # keys[-1]: |tail|
    # sort by |value|, descending, merging equal values
    pieces.sort(key=itemgetter(0), reverse=True)
    merged: list[list] = []
    for p in pieces:
        if merged and p[0] == merged[-1][0]:
            m = merged[-1]
            n, d = m[2] * p[3] + p[2] * m[3], m[3] * p[3]
            g = gcd(n, d)
            m[2], m[3] = n // g, d // g
        else:
            merged.append(p)
    # on [0, 1) the last sorted piece is the tail of the rearrangement
    tail = abs(merged.pop()[1] if x.alpha != INF else x.tail)
    lengths = [(n, d) for _, _, n, d in merged]
    star = _trusted(
        StepFunction,
        alpha=x.alpha,
        cuts=tuple(_running_sums(lengths)),
        values=tuple(v if v.numerator > 0 else -v for _, v, _, _ in merged),
        tail=tail,
    )
    return star, lengths


@lru_cache(maxsize=8192)
def _rearrange(x: StepFunction) -> RearrangementResult:
    lengths = _lengths(x.cuts, x.alpha)
    if is_decreasing_rearrangement(x):
        star = x
    else:
        star, lengths = _sorted_star(x, lengths)
    # running integral of the star: one node per cut, then slope = tail
    nodes = _running_sums(_products(star.values, lengths))
    phi = _trusted(
        PiecewiseLinearConcave,
        alpha=x.alpha,
        cuts=star.cuts,
        node_values=tuple(nodes),
        final_slope=star.tail,
        jump0=_ZERO,
        segment_slopes=star.values,
        slope=star,
    )
    return RearrangementResult(star, phi, star.tail)


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
