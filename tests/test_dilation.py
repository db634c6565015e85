"""Dilation identities of the rearrangement, on [0, inf).

D_s x(t) = x(t/s) multiplies the cuts by s and keeps the values, so

    (D_s x)* = D_s(x*)  and  Phi_{D_s x}(s t) = s Phi_x(t).

Both sides run the code under test, so this is no oracle; but they see
different cut denominators.  A rational s turns cuts that share a
denominator into cuts that do not, and back, so one side takes the
rearrangement's shared-denominator length branch (one int subtraction, no
gcd) where the other cross-multiplies, and the grouped lcm, the bisection
key of ``value_at`` and the level integral's pairs all read different
ints.  The identities are checked at every node of Phi_x and at drawn
points, and on the level integral's stored fields, for x and for x*, whose
rearrangement passes it through and reads its lengths off its cuts.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from rearrcalc import INF, canonicalize, rearrangement
from rearrcalc.rearrange import _rearrange


def dilate(x, s):
    """D_s x on [0, inf): the cuts times s, the same values and tail."""
    return canonicalize([c * s for c in x.cuts], x.values, x.tail, INF)


@st.composite
def _steps(draw):
    """Step functions on [0, inf) whose cuts often share a denominator
    (k/d for one d per run of cuts), with repeated and signed |values|
    and, sometimes, a tail that absorbs the pieces below it."""
    magnitudes = draw(st.lists(st.builds(F, st.integers(1, 20), st.integers(1, 4)),
                               min_size=1, max_size=4))
    values = draw(st.lists(st.builds(lambda v, s: v * s, st.sampled_from(magnitudes),
                                     st.sampled_from([1, -1])), max_size=12))
    tail = draw(st.sampled_from([F(0), F(0), *magnitudes]))
    cuts, acc = [], F(0)
    den = 1
    for _ in values:
        if draw(st.booleans()):  # a new run over another denominator
            den = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
        acc = F(math.floor(acc * den) + draw(st.integers(1, 9)), den)
        cuts.append(acc)
    return canonicalize(cuts, values, tail, INF)


_SCALES = st.builds(F, st.integers(1, 24), st.integers(1, 24))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_steps(), _SCALES, st.lists(st.builds(F, st.integers(0, 400), st.integers(1, 7)),
                                   max_size=6))
def test_rearrangement_and_level_integral_commute_with_dilation(x, s, points):
    _rearrange.cache_clear()
    # x is sorted (or passes through when it is a star); x* passes through
    for u in (x, rearrangement(x).star):
        rr, rs = rearrangement(u), rearrangement(dilate(u, s))
        assert rs.star == dilate(rr.star, s)
        assert rs.star_at_infinity == rr.star_at_infinity
        phi, phi_s = rr.level_integral, rs.level_integral
        # at every node: the stored fields, then value_at
        assert phi_s.cuts == tuple(c * s for c in phi.cuts)
        assert phi_s.node_values == tuple(v * s for v in phi.node_values)
        assert phi_s.final_slope == phi.final_slope and phi_s.jump0 == phi.jump0 == 0
        for t in (*phi.cuts, *points):
            assert phi_s.value_at(s * t) == s * phi.value_at(t)
