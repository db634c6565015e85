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
kernel of ``stepfn``.  Pieces are grouped by the ratio (|p|, q) of their
value p/q, exact since a Fraction is in lowest terms; a group sums its
length numerators per denominator, then adds those sums with one gcd per
denominator, as ``stepfn._total`` does for a total.
Only the distinct values are sorted, by the int key (|p| << k) // q =
floor(|p/q| 2^k), with k = 2 * D.bit_length() for D the largest
denominator of x: distinct values differ by at least 1/D^2 > 2^-k, so the
keys order them exactly.  The star's cuts and the level integral's nodes
are running sums of pairs, one gcd and one Fraction per distinct value.

A star passes through: when x is already x* (``stepfn``'s
``is_decreasing_rearrangement``), the rearrangement returns x itself as
``star``, without sorting or merging.  The star and its level integral are
built by the trusted constructor (see ``stepfn``): they are canonical by
construction, a sorted star is flagged as a star when it is built, and the
level integral's slope function is the star object itself, with no
division.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import PreconditionError
from .stepfn import (
    INF,
    PiecewiseLinearConcave,
    StepFunction,
    _frac,
    _lengths,
    _products,
    _record,
    _require_same_domain,
    _running_sums,
    _trusted,
    is_decreasing_rearrangement,
    rat,
)

_ZERO = Fraction(0)


@_record
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
    """x* by grouping the pieces of |x| by value and sorting the distinct
    values, with the reduced length pairs of its pieces."""
    # numerator sums per (|value| as its reduced ratio (|p|, q), length
    # denominator), then added per (|p|, q) with one gcd per denominator
    sums = defaultdict(int)
    for (n, d), v in zip(lengths, (*x.values, x.tail)):  # the tail on [0, 1) only
        p, q = v.as_integer_ratio()
        sums[p if p >= 0 else -p, q, d] += n
    totals = {}
    for (p, q, d), n in sums.items():
        total = totals.get((p, q))
        if total is not None:
            n, d = total[0] * d + n * total[1], total[1] * d
        g = gcd(n, d)
        totals[p, q] = (n // g, d // g)
    # floor(|p/q| 2^k) with 2^k > D^2: exact, see the module docstring
    k = 2 * max([x.tail.denominator, *(q for _, q in totals)]).bit_length()
    ratio_of = {(p << k) // q: (p, q) for p, q in totals}
    keys = sorted(ratio_of, reverse=True)
    if x.alpha == INF:
        tail = abs(x.tail)
        top = (tail.numerator << k) // tail.denominator
        keys = [key for key in keys if key > top]  # |tail| absorbs the rest
    else:  # the smallest value is the tail of the rearrangement
        tail = _frac(*ratio_of[keys.pop()])
    ratios = [ratio_of[key] for key in keys]
    lengths = [totals[r] for r in ratios]
    star = _trusted(StepFunction, alpha=x.alpha, cuts=tuple(_running_sums(lengths)),
                    values=tuple(_frac(p, q) for p, q in ratios), tail=tail, _is_star=True)
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
