"""Majorization order, the two-majorant construction and its crossings, family
sampling, Hardy."""

import math
import random
from collections.abc import Sequence
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from rearrcalc import (
    INF,
    EmptyFamilyError,
    HypothesisError,
    PreconditionError,
    box,
    canonicalize,
    constant,
    family_contains,
    hardy_check,
    hlp_compare,
    integrate,
    is_decreasing_rearrangement,
    level_integral,
    majorant_pair,
    maximal_eval,
    rearrangement,
    sample_family_member,
)
from rearrcalc.gen import majorized_pair, rand_step, run_hlp_suite
from rearrcalc.majorize import _crossing
from rearrcalc.stepfn import PiecewiseLinearConcave, plc_from_nodes
from test_walks import rationals


def test_hlp_compare_examples():
    assert hlp_compare(box(F(1, 3), 3), box(1, 1)).holds
    v = hlp_compare(box(2, 1), box(1, 1))
    assert not v.holds
    assert v.witness == 1
    # reflexive, and downward along scaling
    x = canonicalize([1, 3], [2, 1], 0, INF)
    assert hlp_compare(x, x).holds
    assert hlp_compare(x * F(1, 2), x).holds
    assert not hlp_compare(x, x * F(1, 2)).holds


def test_hlp_witness_is_exact():
    rng = random.Random(77)
    checked = 0
    for _ in range(200):
        alpha = INF if rng.random() < 0.6 else F(1)
        y = rand_step(rng, alpha, max_pieces=5, nonzero_tail=True)
        x = rand_step(rng, alpha, max_pieces=5, nonzero_tail=True)
        v = hlp_compare(y, x)
        if not v.holds:
            t = v.witness
            assert 0 < t < alpha
            assert level_integral(y).value_at(t) > level_integral(x).value_at(t)
            checked += 1
    assert checked > 50


def test_hlp_tail_direction_on_halfline():
    # equal on any bounded window, ordered only by tail slope
    y = constant(1, INF)
    x = constant(2, INF)
    assert hlp_compare(y, x).holds
    v = hlp_compare(x, y)
    assert not v.holds
    assert level_integral(x).value_at(v.witness) > level_integral(y).value_at(v.witness)


def test_hlp_dense_grid_agreement():
    result = run_hlp_suite(300, 123)
    assert result.ok, result.failures


def test_is_decreasing_rearrangement():
    assert is_decreasing_rearrangement(box(1, 1))
    assert is_decreasing_rearrangement(canonicalize([1, 3], [2, 1], 0, INF))
    assert not is_decreasing_rearrangement(canonicalize([1, 2], [1, 2], 0, INF))
    assert not is_decreasing_rearrangement(box(-1, 1))


def test_family_contains_examples():
    x = box(1, 1)
    assert family_contains(box(F(1, 2), 1), x, 1, F(1, 2))
    assert not family_contains(box(F(1, 2), 3), x, 1, F(1, 4))
    # not nonincreasing -> not a member, regardless of integrals
    assert not family_contains(canonicalize([1, 2], [0, 1], 0, INF), x, 1, F(1, 8))
    # boundary eps = Phi_x(tau): only the zero function qualifies
    assert family_contains(constant(0, INF), x, F(1, 2), F(1, 2))
    assert not family_contains(box(F(1, 100), 1), x, F(1, 2), F(1, 2))
    with pytest.raises(PreconditionError):
        family_contains(box(1, 1), canonicalize([1, 2], [1, 2], 0, INF), 1, F(1, 4))


# Frozen construction geometry, derived by hand from the chord formulas.

def test_majorant_pair_single_box():
    x = box(1, 1)
    tr = majorant_pair(x, F(1, 2), F(1, 4))
    assert tr.case_tag == "affine_gap"
    assert tr.gamma == F(1, 4)
    assert tr.beta == F(2)
    assert tr.xi == F(3, 7)
    assert tr.z == canonicalize([F(1, 4), 2], [1, F(3, 7)], 0, INF)
    assert tr.w == tr.z
    assert tr.gamma0 is None and tr.gamma1 is None and tr.beta1 is None
    assert tr.tau1 == F(1, 8)
    assert tr.eps1 == F(1, 14)
    # the flattened majorant keeps a head gap of exactly 1/7 at tau
    assert family_contains(tr.z, x, F(1, 2), F(1, 7))
    assert not family_contains(tr.z, x, F(1, 2), F(1, 4))
    _assert_trace_invariants(x, F(1, 2), F(1, 4), tr)


def test_majorant_pair_two_level_plateau():
    x = canonicalize([1, 4], [2, 1], 0, INF)
    tr = majorant_pair(x, 2, F(1, 5))
    assert tr.case_tag == "affine_chord"
    assert tr.gamma == F(9, 5)
    assert tr.beta == F(5, 2)
    assert tr.xi == 1
    assert tr.gamma0 == 1
    assert tr.gamma1 == F(4, 5)
    assert tr.beta1 == F(21, 5)
    assert tr.z == canonicalize([F(4, 5), 2, 4], [2, F(7, 6), 1], 0, INF)
    assert tr.w == canonicalize([1, F(9, 5), F(21, 5)], [2, 1, F(11, 12)], 0, INF)
    assert tr.tau1 == F(3, 5)
    assert tr.eps1 == F(1, 15)
    _assert_trace_invariants(x, F(2), F(1, 5), tr)


def _assert_trace_invariants(x, tau, eps, tr):
    assert 0 < tr.gamma < tau < tr.beta
    assert 0 < tr.tau1 < tau and tr.eps1 > 0
    for g in (tr.z, tr.w):
        assert is_decreasing_rearrangement(g)
        assert hlp_compare(g, x).holds
        assert g != rearrangement(x).star
    assert family_contains(tr.z, x, tau - tr.tau1, tr.eps1)
    assert family_contains(tr.w, x, tau + tr.tau1, tr.eps1)


def test_family_nesting_in_eps():
    # membership is monotone downward in the gap parameter
    rng = random.Random(3)
    for _ in range(100):
        x = rearrangement(rand_step(rng, INF, max_pieces=5)).star
        if x.support_bound == 0:
            continue
        tau = x.support_bound * F(rng.randint(1, 8), 8)
        head = level_integral(x).value_at(tau)
        if head == 0:
            continue
        eps = head * F(rng.randint(1, 8), 9)
        y = rearrangement(rand_step(rng, INF, max_pieces=5)).star
        if family_contains(y, x, tau, eps):
            for k in (F(1, 2), F(1, 7), F(1, 100)):
                assert family_contains(y, x, tau, eps * k)


def test_majorant_pair_tau_beyond_support():
    # tau past the support: the level integral is already flat there
    x = box(1, 1)
    tr = majorant_pair(x, 3, F(1, 2))
    assert tr.case_tag == "affine_gap"
    assert tr.gamma == F(1, 2)
    assert tr.beta == 6
    assert tr.xi == F(1, 11)
    _assert_trace_invariants(x, F(3), F(1, 2), tr)


def test_majorant_pair_preconditions():
    x = box(1, 1)
    with pytest.raises(EmptyFamilyError):
        majorant_pair(x, F(1, 2), F(1, 2))  # eps = Phi_x(tau)
    with pytest.raises(EmptyFamilyError):
        majorant_pair(x, F(1, 2), 3)
    with pytest.raises(PreconditionError):
        majorant_pair(x, 0, F(1, 4))
    with pytest.raises(PreconditionError):
        majorant_pair(canonicalize([1, 2], [1, 2], 0, INF), 1, F(1, 4))
    with pytest.raises(PreconditionError):
        majorant_pair(constant(1, INF), 1, F(1, 2))  # nonzero value at infinity
    with pytest.raises(PreconditionError):
        majorant_pair(box(1, F(1, 2), alpha=1), F(1, 4), F(1, 8))


def test_sample_member_seed_zero_is_scaled_base():
    x = canonicalize([1, 4], [2, 1], 0, INF)
    tau, eps = F(2), F(1, 5)
    # head integral at tau is 3, so the scale factor is (3 - 1/5)/3 = 14/15
    y = sample_family_member(x, tau, eps, 0)
    assert y == x * F(14, 15)
    assert family_contains(y, x, tau, eps)


def test_sample_member_varied_seeds_always_land_in_family():
    rng = random.Random(4)
    for _ in range(60):
        x = rearrangement(rand_step(rng, INF, max_pieces=6)).star
        if x.support_bound == 0:
            continue
        tau = x.support_bound * F(rng.randint(1, 7), 8)
        head = level_integral(x).value_at(tau)
        if head == 0:
            continue
        eps = head * F(rng.randint(1, 7), 16)
        for seed in range(5):
            y = sample_family_member(x, tau, eps, seed)
            assert family_contains(y, x, tau, eps)
    with pytest.raises(EmptyFamilyError):
        sample_family_member(box(1, 1), F(1, 2), F(1, 2), 1)


def test_majorized_pair_generator_is_sound():
    rng = random.Random(9)
    for _ in range(150):
        alpha = INF if rng.random() < 0.6 else F(1)
        y, x = majorized_pair(rng, alpha)
        assert hlp_compare(y, x).holds


def test_hardy_examples():
    u = box(F(1, 2), 2)
    v = box(1, 1)
    w = box(1, 1)
    assert hardy_check(u, v, w)
    # equality case: u = v
    assert hardy_check(v, v, box(2, 3))
    # int v*w = inf: with int u*w finite, and with int u*w = inf as well
    assert hardy_check(box(1, 1), constant(1, INF), constant(1, INF))
    assert hardy_check(constant(1, INF), constant(1, INF), constant(1, INF))


def test_hardy_rejects_bad_hypothesis_with_witness():
    u = canonicalize([1], [2], 0, INF)  # head integral exceeds v's everywhere
    v = box(1, 1)
    w = box(1, 1)
    with pytest.raises(HypothesisError) as exc:
        hardy_check(u, v, w)
    t = exc.value.witness
    assert t is not None and 0 < t < INF
    assert integrate(u, 0, t) > integrate(v, 0, t)


def test_hardy_rejects_nonmonotone_weight():
    u = box(F(1, 2), 1)
    v = box(1, 1)
    with pytest.raises(PreconditionError):
        hardy_check(u, v, canonicalize([1, 2], [1, 2], 0, INF))


def test_hardy_conclusion_randomized():
    rng = random.Random(21)
    for _ in range(150):
        x = rand_step(rng, INF, max_pieces=5)
        u = rearrangement(x).star * F(rng.randint(0, 8), 8)
        v = rearrangement(x).star
        w = rearrangement(rand_step(rng, INF, max_pieces=4)).star
        lhs_ok = hardy_check(u, v, w)
        assert lhs_ok


def test_maximal_subadditivity_spot():
    rng = random.Random(13)
    for _ in range(100):
        x = rand_step(rng, INF, max_pieces=5)
        y = rand_step(rng, INF, max_pieces=5)
        for k in (F(1, 3), 1, F(7, 2)):
            assert maximal_eval(x + y, k) <= maximal_eval(x, k) + maximal_eval(y, k)


# -- the crossings of a line with a level integral -------------------------------
#
# The references read phi only through value_at: d = phi - line is evaluated
# at every node past the start, in order, and the first sign change is
# interpolated; past the last node d is linear, with the slope read off two
# values.


class NeverMeets(Exception):
    pass


def scan_crossing(phi, a, b, start, end=None):
    d = lambda t: phi.value_at(t) - (a + b * t)
    points = [s for s in phi.cuts if s > start and (end is None or s < end)]
    if end is not None:
        points.append(end)
    t_prev, d_prev = start, d(start)
    rising = d_prev < 0
    for s in points:
        d_s = d(s)
        if (d_s >= 0) if rising else (d_s <= 0):
            return t_prev + d_prev * (s - t_prev) / (d_prev - d_s)
        t_prev, d_prev = s, d_s
    m = d(t_prev + 1) - d_prev
    if end is not None or not (m > 0 if rising else m < 0):
        raise NeverMeets
    return t_prev - d_prev / m


def scan_coincidence(phi, a, b, gamma):
    return next((s for s in [F(0), *phi.cuts]
                 if s < gamma and phi.value_at(s) == a + b * s), gamma)


@st.composite
def level_integrals(draw, max_nodes=12):
    """A canonical increasing concave PLC with phi(0+) = 0, as a level integral is."""
    slopes = sorted(set(draw(st.lists(rationals(30, 6, signed=False), min_size=1,
                                      max_size=max_nodes + 1))), reverse=True)
    if slopes[0] == 0:
        slopes.insert(0, F(1))
    cuts, acc = [], F(0)
    for step in draw(st.lists(rationals(12, 4, signed=False).filter(bool),
                              min_size=len(slopes) - 1, max_size=len(slopes) - 1)):
        acc += step
        cuts.append(acc)
    nodes, v, prev = [], F(0), F(0)
    for c, m in zip(cuts, slopes):
        v += m * (c - prev)
        nodes.append(v)
        prev = c
    return plc_from_nodes(cuts, nodes, slopes[-1], 0, INF)


@st.composite
def crossing_cases(draw):
    """(phi, a, b, start, end) in the shapes majorant_pair calls _crossing with:
    b = 0 rising from 0, falling from a start, rising up to an end, and
    rising from a start with no end; the line may pass through a node."""
    phi = draw(level_integrals())
    shape = draw(st.sampled_from(["level", "falling", "to_end", "rising"]))
    nodes = [F(0), *phi.cuts]
    last = nodes[-1]
    point = st.one_of(st.sampled_from(nodes),
                      rationals(4 * int(last + 2), 8, signed=False))
    delta = rationals(8, 8, signed=False).filter(bool)
    if shape == "level":
        t = draw(point)
        return phi, phi.value_at(t) + draw(st.sampled_from([F(0), F(0), F(1, 3), F(2)])), \
            F(0), F(0), None
    if shape == "to_end":
        start = draw(st.sampled_from([F(0), draw(point)]))
        end = start + draw(delta)
        chord = (phi.value_at(end) - phi.value_at(start)) / (end - start)
        if chord == 0:
            end = start  # no line crosses from below: rejected below
        else:
            b = chord * draw(st.builds(F, st.integers(0, 15), st.just(16)))
            lo, hi = phi.value_at(start) - b * start, phi.value_at(end) - b * end
            a = lo + (hi - lo) * draw(st.builds(F, st.integers(1, 15), st.just(16)))
            return phi, a, b, start, end
    start = draw(point)
    falling = shape == "falling"
    at_start = phi.value_at(start) + (-1 if falling else 1) * draw(delta)
    later = [s for s in phi.cuts if s > start]
    if later and draw(st.booleans()):  # through a node past the start
        s = draw(st.sampled_from(later))
        b = (phi.value_at(s) - at_start) / (s - start)
    else:
        b = draw(rationals(40, 8, signed=False))
    return phi, at_start - b * start, b, start, None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(crossing_cases())
def test_crossing_matches_a_scan_of_value_at(case):
    phi, a, b, start, end = case
    assume(end is None or end > start)
    assume(phi.value_at(start) != a + b * start)
    try:
        expected = scan_crossing(phi, a, b, start, end)
    except NeverMeets:
        with pytest.raises(PreconditionError, match="never meets"):
            _crossing(phi, a, b, start, end)
        return
    t = _crossing(phi, a, b, start, end)
    assert t == expected and type(t) is F
    assert t > start and phi.value_at(t) == a + b * t
    if end is not None:
        assert t < end


def test_crossing_never_meets():
    phi = plc_from_nodes([1, 2], [2, 3], 0)  # slopes 2, 1, then flat at 3
    cases = [((F(4), F(0), F(0)), None),        # rising to above the final value
             ((F(1), F(3), F(0)), None),        # rising, but d falls from the start
             ((F(1), F(3), F(0), F(2)), None),  # the same, up to an end
             ((F(0), F(0), F(3)), None),        # falling from 3 along a flat phi
             ((F(-1), F(1), F(3)), F(4))]       # falling onto the final branch
    for args, want in cases:
        if want is None:
            with pytest.raises(NeverMeets):
                scan_crossing(phi, *args)
            with pytest.raises(PreconditionError, match="never meets"):
                _crossing(phi, *args)
        else:
            assert _crossing(phi, *args) == scan_crossing(phi, *args) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_integrals(), st.data())
def test_gamma0_crossing_matches_a_scan(phi, data):
    # the line through one segment of phi; gamma a point on that segment.
    # gamma0, where phi first meets the line, is _crossing from 0 up to
    # gamma; a = 0 (the first segment) is majorant_pair's assertion instead
    j = data.draw(st.integers(0, len(phi.cuts)))
    lo = F(0) if j == 0 else phi.cuts[j - 1]
    hi = phi.cuts[j] if j < len(phi.cuts) else lo + 1
    b = phi.slope.values[j] if j < len(phi.cuts) else phi.final_slope
    a = phi.value_at(lo) - b * lo
    gamma = lo + (hi - lo) * data.draw(st.builds(F, st.integers(1, 16), st.just(16)))
    assert scan_coincidence(phi, a, b, gamma) == lo
    assert (a > 0) == (j > 0)
    if a > 0:
        assert _crossing(phi, a, b, F(0), gamma) == lo


class CountingNodes(Sequence):
    """A node sequence (the flat int pairs ``_node_ints``) that counts the
    entries read."""

    def __init__(self, items):
        self.items, self.reads = tuple(items), 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        out = self.items[i]
        self.reads += len(out) if isinstance(i, slice) else 1
        return out


def test_crossing_reads_logarithmically_many_nodes():
    n = 10**4
    slopes = [F(n - j, 7) for j in range(n)]
    cuts = [F(j + 1, 3) for j in range(n)]
    nodes, v = [], F(0)
    for m in slopes:
        v += m / 3
        nodes.append(v)
    phi = PiecewiseLinearConcave(INF, cuts, nodes, 0)
    mid = cuts[n // 3]
    p = phi.value_at(mid) - F(1, 5)
    tau = cuts[n // 2] + F(1, 7)
    chord = (phi.value_at(cuts[-2]) - phi.value_at(F(1, 9))) / (cuts[-2] - F(1, 9))
    calls = [(p, F(0), F(0), None),                     # gamma: b = 0 rising from 0
             (F(0), p / tau, tau, None),                # beta: falling from tau
             (F(1), chord, F(0), cuts[-2]),             # gamma1: rising up to an end
             (phi.value_at(mid) - chord * mid + 1, chord, mid, None)]  # rising from mid
    expected = [scan_crossing(phi, *args) for args in calls]
    counted = CountingNodes(phi._node_ints)
    object.__setattr__(phi, "_node_ints", counted)
    bound = 2 * (4 * math.log2(n) + 8)  # two ints a node
    for args, want in zip(calls, expected):
        counted.reads = 0
        assert _crossing(phi, *args) == want
        assert counted.reads <= bound, (args, counted.reads)
