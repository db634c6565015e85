"""Dilation identities, on [0, inf), of every layer above the step functions.

D_s x(t) = x(t/s) multiplies the cuts by s and keeps the values, so

    (D_s x)* = D_s(x*)  and  Phi_{D_s x}(s t) = s Phi_x(t),

and from these: ||D_s x||_1 = s ||x||_1 and ||D_s x||_inf = ||x||_inf; the
M_phi and M*_phi norms of D_s x equal those of x under phi(s .), which is
``Hyperbolic(c/s)`` for the hyperbola and, for a polyline, the one with
cuts/s, the same node values and jump0 and the final slope times s (built
by ``plc_from_nodes``, so its nodes are summed from its slopes); D_s y ≺
D_s x exactly when y ≺ x; ``maximal_distance`` scales by s; and
``majorant_pair(D_s x, s tau, s eps)`` takes the same case, with majorants
D_s z and D_s w and every abscissa, tau1 and eps1 times s (the chord slope
xi is unchanged).

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
import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from rearrcalc import INF, canonicalize, gen, rearrangement
from rearrcalc.experiments import maximal_distance
from rearrcalc.majorize import hlp_compare, majorant_pair
from rearrcalc.rearrange import _rearrange
from rearrcalc.spaces import Hyperbolic, SpaceSpec, norm
from rearrcalc.stepfn import plc_from_nodes


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


def dilate_phi(phi, s):
    """phi(s .): the hyperbola with c/s, or the polyline with cuts/s, the
    same node values and jump0, and the final slope times s."""
    if isinstance(phi, Hyperbolic):
        return Hyperbolic(phi.c / s)
    return plc_from_nodes([c / s for c in phi.cuts], phi.node_values, phi.final_slope * s,
                          phi.jump0, INF)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_steps(), _SCALES, st.integers(0, 2**31))
def test_norms_of_a_dilation_are_the_norms_under_the_dilated_phi(x, s, seed):
    _rearrange.cache_clear()
    xs = dilate(x, s)
    assert norm(SpaceSpec("L1"), xs) == s * norm(SpaceSpec("L1"), x)  # INF stays INF
    assert norm(SpaceSpec("Linf"), xs) == norm(SpaceSpec("Linf"), x)
    rng = random.Random(seed)
    for phi in (gen.rand_phi(rng, INF, force_pl=True), Hyperbolic(gen._frac(rng, 12, 6))):
        for kind in ("Marcinkiewicz", "MarcinkiewiczStar"):
            assert norm(SpaceSpec(kind, phi), xs) == norm(SpaceSpec(kind, dilate_phi(phi, s)), x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_steps(), _steps(), _SCALES, st.integers(0, 2**31),
       st.builds(F, st.integers(1, 40), st.integers(1, 8)))
def test_the_order_and_the_maximal_distance_commute_with_dilation(x, y, s, seed, delta):
    _rearrange.cache_clear()
    if seed % 2:  # y ≺ x by construction, half the time
        y, x = gen.majorized_pair(random.Random(seed), INF)
    xs, ys = dilate(x, s), dilate(y, s)
    assert hlp_compare(ys, xs).holds == hlp_compare(y, x).holds
    assert maximal_distance(xs, ys, delta) == s * maximal_distance(x, y, delta)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**31), st.booleans(), _SCALES)
def test_the_majorant_pair_commutes_with_dilation(seed, plateau, s):
    _rearrange.cache_clear()
    x, tau, eps = gen.prop32_instance(random.Random(seed), plateau)
    t, ts = majorant_pair(x, tau, eps), majorant_pair(dilate(x, s), s * tau, s * eps)
    assert ts.case_tag == t.case_tag
    assert (ts.z, ts.w) == (dilate(t.z, s), dilate(t.w, s))
    assert ts.xi == t.xi
    for name in ("gamma", "beta", "tau1", "eps1", "gamma0", "gamma1", "beta1"):
        a, b = getattr(t, name), getattr(ts, name)
        assert b == (None if a is None else s * a), name
