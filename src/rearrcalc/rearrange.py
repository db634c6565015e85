"""Decreasing rearrangements of step functions, exactly.

For a step function x on [0, alpha), the decreasing rearrangement
x*(t) = inf{ lam : d_x(lam) <= t }, with d_x(lam) = mu{ |x| > lam } the
distribution function (``stepfn.exceedance_measure``), is computed by
sorting the pieces of |x| by value.  On [0, inf) a nonzero eventual value
|tail| acts as an infinite plateau: pieces with |value| <= |tail| are
absorbed by it, larger ones stack in front, and x*(inf) = |tail|.  The
running integral Phi_x(t) = int_0^t x* is the increasing concave
piecewise-linear ``level_integral``, and the maximal function is
x**(t) = Phi_x(t)/t, with Phi_x frozen at its limit for t >= 1 when
alpha = 1.

The arithmetic is on int pairs, not Fractions.  One pass reads each
piece's cut and value as int pairs, works out its length and adds it to
the group of its |value|, the ratio (|p|, q) of its value p/q (exact, as a
Fraction is in lowest terms), over the lcm of the group's length
denominators: a gcd only when that lcm grows.  Only the distinct values
are sorted, by the int key (|p| << k) // q = floor(|p/q| 2^k), with
k = 2 * D.bit_length() for D the largest value denominator: distinct
values differ by at least 1/D^2 > 2^-k, so the keys order them exactly.
The star's cuts and the level integral's nodes are running sums of pairs
(``stepfn``'s kernel), one gcd and one Fraction per distinct value.

A star passes through: when x is already x* (``stepfn``'s
``is_decreasing_rearrangement``), the rearrangement returns x itself as
``star``, without sorting or merging.  The star and its level integral are
built by the trusted constructor (see ``stepfn``): they are canonical by
construction, a sorted star is flagged as a star when it is built, and the
level integral's slope function is the star object itself, with no
division.

Every rearrangement goes through one cache, ``_rearrange``, keyed by the
step function: its sampled hash (see ``stepfn``) plus ``==``, so an equal
but distinct object hits too, and a hit returns the very result object
stored.  It is ``lru_cache(maxsize=512)``: hits are short-range, so recency
is enough.  Over 1,000 calls of the five property suites (seed 71) it makes
43,320 hits against 44,791 with 8,192 entries, and about nine hits in ten
look up the very same object again.  The count bounds entries, not bytes:
fresh ``canonicalize``-built operands of 2,000 pieces hold about 0.43 MB an
entry (tracemalloc over 40 of them), 0.06 MB of it their kept int pairs,
so 512 of them hold about 220 MB, and only a bound on the size of an input
caps that.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, starmap
from math import gcd

from .errors import PreconditionError
from .stepfn import (
    INF,
    PiecewiseLinearConcave,
    StepFunction,
    _ZERO,
    _cut_pairs,
    _frac,
    _lengths,
    _products,
    _record,
    _require_same_domain,
    _sums,
    _trusted,
    _value_pairs,
    is_decreasing_rearrangement,
    rat,
)


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


def _sorted_star(x: StepFunction):
    """x*, with the int pairs of its values and piece lengths."""
    # (|p|, q) -> the lengths of the pieces of value +-p/q, summed over the
    # lcm of their denominators: (cn - pn, d) when the ends share d
    groups = {}
    pn, pd = 0, 1
    ends = list(_cut_pairs(x))
    if x.alpha is not INF:
        ends.append((1, 1))
    for (cn, cd), (p, q) in zip(ends, _value_pairs(x)):
        if cd == pd:
            n, d = cn - pn, cd
        else:
            n, d = cn * pd - pn * cd, cd * pd
        pn, pd = cn, cd
        key = (p if p >= 0 else -p, q)
        sn, sd = groups.get(key) or (0, d)
        if sd % d:  # a gcd only when the lcm grows
            g = gcd(sd, d)
            sn, sd = sn * (d // g), sd // g * d
        groups[key] = sn + n * (sd // d), sd
    # floor(|p/q| 2^k) with 2^k > D^2: exact, see the module docstring
    tn, td = x._value_ints[-2:]
    k = 2 * max([td, *(q for _, q in groups)]).bit_length()
    ratio_of = {(p << k) // q: (p, q) for p, q in groups}
    keys = sorted(ratio_of, reverse=True)
    if x.alpha is INF:
        tail = abs(tn), td
        top = (tail[0] << k) // td
        keys = [key for key in keys if key > top]  # |tail| absorbs the rest
    else:  # the smallest value is the tail of the rearrangement
        tail = ratio_of[keys.pop()]
    ratios = [ratio_of[key] for key in keys]
    lengths = [groups[r] for r in ratios]
    star = _trusted(StepFunction, alpha=x.alpha, _cut_ints=(*chain.from_iterable(_sums(lengths)),),
                    _value_ints=(*chain.from_iterable(ratios), *tail), _is_star=True)
    return star, ratios, lengths


@lru_cache(maxsize=512)
def _rearrange(x: StepFunction) -> RearrangementResult:
    if is_decreasing_rearrangement(x):
        # one length per cut: the tail's value pair, last, has no node
        star, values, lengths = x, _value_pairs(x), _lengths(_cut_pairs(x), INF)
    else:
        star, values, lengths = _sorted_star(x)
    # running integral of the star: one node per cut, then slope = tail
    phi = _trusted(
        PiecewiseLinearConcave,
        alpha=x.alpha,
        cuts=star.cuts,
        node_values=(*starmap(_frac, _sums(_products(values, lengths))),),
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
    if phi.alpha is not INF and t >= phi.alpha:
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
