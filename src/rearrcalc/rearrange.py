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
piece's cut and value as four flat ints, zipped off the stored int tuples
of x (``stepfn``), works out its length and adds it to the group of its
|value|, the ratio (|p|, q) of its value p/q (exact, as a Fraction is in
lowest terms), over the lcm of the group's length denominators: a gcd only
when that lcm grows.  Only the distinct values are sorted, by the int key
(|p| << k) // q = floor(|p/q| 2^k), with k = 2 * D.bit_length() for D the
largest value denominator: distinct values differ by at least 1/D^2 >
2^-k, so the keys order them exactly.  The star's cuts are running sums of
the group lengths (``stepfn``'s kernel), one gcd per distinct value.

A star passes through: when x is already x* (``stepfn``'s
``is_decreasing_rearrangement``), the rearrangement returns x itself as
``star``, without sorting or merging.  A sorted star is built by the
trusted constructor (see ``stepfn``), canonical by construction and
flagged as a star.  The level integral is built on first read and kept:
its nodes are int-pair running sums of the star's values times the lengths
the sort kept (read off the cuts of a star that passed through), and its
slope function is the star itself.  ``hlp_compare``, ``maximal_distance``
and M*_phi never read it; M_phi with a piecewise-linear phi reads only its
last node, on [0, inf), and ``value_at`` and ``majorize``'s crossings read
its pairs, not its Fractions.

Every rearrangement goes through one cache, ``_rearrange``, keyed by the
step function: its sampled hash (see ``stepfn``) plus ``==``, so an equal
but distinct object hits too, and a hit returns the very result object
stored.  It is ``lru_cache(maxsize=512)``: hits are short-range, so recency
is enough.  Over 1,000 calls of the five property suites (seed 71) it makes
43,320 hits against 44,791 with 8,192 entries, and about nine hits in ten
look up the very same object again.  The count bounds entries, not bytes:
fresh ``canonicalize``-built operands of 2,000 pieces hold about 0.44 MB an
entry (tracemalloc over 40 of them), 0.03 MB of it the result (0.04 MB once
its level integral is read), so 512 of them hold about 225 MB, and only a
bound on the size of an input caps that.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd

from .errors import PreconditionError
from .stepfn import (
    INF,
    PiecewiseLinearConcave,
    StepFunction,
    _Field,
    _cut_pairs,
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


def _level_integral(rr: RearrangementResult) -> PiecewiseLinearConcave:
    """Phi_x, trusted, from rr.star and the lengths the sort kept (None for
    a star that passed through: one per cut, read off its cuts)."""
    star, lengths = rr.star, rr._lengths
    if lengths is None:
        lengths = _lengths(_cut_pairs(star), INF)
    nodes = chain.from_iterable(_sums(_products(_value_pairs(star), lengths)))
    return _trusted(PiecewiseLinearConcave, alpha=star.alpha, slope=star,
                    _node_ints=(0, 1, *nodes))


# set after @_record, which reads class attributes as __init__ defaults
RearrangementResult.level_integral = _Field("level_integral", _level_integral)


def _sorted_star(x: StepFunction):
    """x*, with the int pairs of its piece lengths."""
    # (|p|, q) -> the lengths of the pieces of value +-p/q, summed over the
    # lcm of their denominators: (cn - pn, d) when the ends share d
    groups = {}
    pn, pd = 0, 1
    c, v = iter(x._cut_ints), iter(x._value_ints)
    if x.alpha is not INF:
        c = chain(c, (1, 1))
    for cn, cd, p, q in zip(c, c, v, v):
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
    return star, lengths


@lru_cache(maxsize=512)
def _rearrange(x: StepFunction) -> RearrangementResult:
    star, lengths = (x, None) if is_decreasing_rearrangement(x) else _sorted_star(x)
    return _trusted(RearrangementResult, star=star, star_at_infinity=star.tail,
                    _lengths=lengths)


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
