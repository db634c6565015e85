"""The star test and the slope function of a concave function.

``stepfn.is_decreasing_rearrangement`` is the only test for x = x*, and a
``PiecewiseLinearConcave`` is canonical exactly when its slope function is
a star.  Each is compared here with a reference written from the
definition: the rearrangement's star for the predicate, and Fraction slopes
between consecutive nodes for the constructor and for ``plc_from_nodes``.
The flattenings of the two-majorant construction and of the sampler's
"head" strategy take their averages, and eps1, from the Phi_x values their
endpoints are known to have.  They are compared with flattenings whose
averages are read off Phi_x, and with the level integral of the flattened
function itself.  ``plc_from_nodes`` checks every cut against the domain,
also a cut that merges away, and computes each segment slope once.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rearrcalc import (
    INF,
    PiecewiseLinearConcave,
    PreconditionError,
    is_decreasing_rearrangement,
    level_integral,
    majorant_pair,
    rearrangement,
    sample_family_member,
)
from rearrcalc import gen, majorize
from rearrcalc.majorize import _flatten
from rearrcalc.stepfn import plc_from_nodes
from test_trusted import stars
from test_walks import step_functions

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def slopes_between(cuts, nodes, jump0):
    """Fraction slopes between consecutive nodes, from (0, jump0) on."""
    points = [(F(0), jump0), *zip(cuts, nodes)]
    return [(v - pv) / (s - ps) for (ps, pv), (s, v) in zip(points, points[1:])]


@st.composite
def node_data(draw):
    """(cuts, node values, final slope, jump0, alpha): nodes on lines whose
    slopes are drawn from a small pool, so that runs of equal slopes
    (collinear nodes), increases, negative slopes and jumps at 0 all occur."""
    alpha = draw(st.sampled_from([INF, F(1)]))
    k = draw(st.integers(0, 7))
    if alpha == INF:
        steps = draw(st.lists(st.sampled_from([F(1, 3), F(1, 2), F(1), F(2)]),
                              min_size=k, max_size=k))
        cuts = [sum(steps[:i + 1]) for i in range(k)]
    else:
        cuts = [F(c, 48) for c in sorted(draw(st.sets(st.integers(1, 47), max_size=k)))]
    pool = st.sampled_from([F(3), F(2), F(2), F(1), F(1), F(1, 2), F(0), F(-1, 2)])
    if draw(st.booleans()):  # mostly decreasing, with collinear runs
        slopes = sorted(draw(st.lists(pool, min_size=len(cuts) + 1,
                                      max_size=len(cuts) + 1)), reverse=True)
    else:
        slopes = draw(st.lists(pool, min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    jump0 = draw(st.sampled_from([F(0), F(0), F(1, 2), F(2), F(-1)]))
    nodes, v, prev = [], jump0, F(0)
    for c, m in zip(cuts, slopes):
        v += m * (c - prev)
        nodes.append(v)
        prev = c
    return cuts, nodes, slopes[-1], jump0, alpha


@SETTINGS
@given(node_data())
def test_the_constructor_accepts_exactly_the_canonical_functions(data):
    cuts, nodes, final, jump0, alpha = data
    slopes = [*slopes_between(cuts, nodes, jump0), final]
    canonical = jump0 >= 0 and all(m >= 0 for m in slopes) and all(
        a > b for a, b in zip(slopes, slopes[1:]))
    if not canonical:
        with pytest.raises(PreconditionError):
            PiecewiseLinearConcave(alpha, cuts, nodes, final, jump0)
        return
    phi = PiecewiseLinearConcave(alpha, cuts, nodes, final, jump0)
    assert list(phi.slope.values) == slopes[:-1] and phi.slope.tail == final
    assert phi.slope.cuts == phi.cuts and phi.slope.alpha == alpha


@SETTINGS
@given(node_data())
def test_plc_from_nodes_keeps_the_nodes_where_the_slope_changes(data):
    cuts, nodes, final, jump0, alpha = data
    slopes = [*slopes_between(cuts, nodes, jump0), final]
    kept = [j for j in range(len(cuts)) if slopes[j] != slopes[j + 1]]
    merged = [slopes[j] for j in kept] + [final]
    canonical = jump0 >= 0 and all(m >= 0 for m in merged) and all(
        a > b for a, b in zip(merged, merged[1:]))
    if not canonical:
        with pytest.raises(PreconditionError):
            plc_from_nodes(cuts, nodes, final, jump0, alpha)
        return
    phi = plc_from_nodes(cuts, nodes, final, jump0, alpha)
    assert phi.cuts == tuple(cuts[j] for j in kept)
    assert phi.node_values == tuple(nodes[j] for j in kept)
    assert (phi.final_slope, phi.jump0) == (final, jump0)
    assert all(phi.value_at(c) == v for c, v in zip(cuts, nodes))


def test_plc_from_nodes_rejects_a_cut_outside_the_domain():
    # on [0, 1), a node at t = 2 on the line through the others (slope 1)
    # would merge away, and one off it would not: both are outside
    for node in (F(2), F(3, 2)):
        with pytest.raises(PreconditionError, match=r"^cut 2 outside \[0,1\)$"):
            plc_from_nodes([F(1, 2), F(2)], [F(1, 2), node], 1, 0, 1)
    assert plc_from_nodes([F(1, 2), F(2)], [F(1, 2), F(2)], 1, 0, INF) == \
        PiecewiseLinearConcave(INF, (), (), 1)


def test_plc_from_nodes_computes_each_segment_slope_once(monkeypatch):
    # four nodes: one difference of cuts, one of values and one quotient each
    calls = {"__sub__": 0, "__truediv__": 0}
    for name in calls:
        def counted(a, b, op=getattr(F, name), name=name):
            calls[name] += 1
            return op(a, b)
        monkeypatch.setattr(F, name, counted)
    plc_from_nodes([1, 3, 4, 6], [3, 7, 8, 9], 0)
    assert calls == {"__sub__": 8, "__truediv__": 4}


def test_a_non_concave_function_is_one_error():
    # slopes 1 then 2; 1 then -1; 1, 1 and 0 (collinear nodes)
    for args in (([1, 2], [1, 3], 0), ([1], [1], -1), ([1, 2], [1, 2], 0)):
        with pytest.raises(PreconditionError, match="^slopes not nonnegative and "
                                                     "strictly decreasing"):
            PiecewiseLinearConcave(INF, *args)


@SETTINGS
@given(st.one_of(step_functions(max_pieces=10), stars(), stars().map(lambda f: -f)))
def test_the_star_test_agrees_with_the_rearrangement(f):
    assert is_decreasing_rearrangement(f) == (rearrangement(f).star == f)


@SETTINGS
@given(st.one_of(stars(), step_functions(max_pieces=10)))
def test_the_slope_function_of_a_level_integral_is_the_star(x):
    phi, star = level_integral(x), rearrangement(x).star
    assert phi.slope is star
    for s, e, v in star.pieces():
        if e != INF:
            assert phi.slope((s + e) / 2) == (phi.value_at(e) - phi.value_at(s)) / (e - s) == v


# -- flattenings read off Phi_x's chords ---------------------------------------


def averaged(x, phi, a, b):
    """x = x* with its average over [a, b) there, the average read off phi."""
    return _flatten(x, a, b, (phi.value_at(b) - phi.value_at(a)) / (b - a))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.booleans())
def test_eps1_is_read_off_the_flattenings(seed, plateau):
    x, tau, eps = gen.prop32_instance(random.Random(seed), plateau)
    tr = majorant_pair(x, tau, eps)
    phi = level_integral(x)
    below, above = tau - tr.tau1, tau + tr.tau1
    expected = min(phi.value_at(below) - level_integral(tr.z).value_at(below),
                   phi.value_at(above) - level_integral(tr.w).value_at(above))
    assert tr.eps1 == expected
    if tr.case_tag == "affine_gap":
        assert tr.z == tr.w == averaged(x, phi, tr.gamma, tr.beta)
    else:
        assert tr.z == averaged(x, phi, tr.gamma1, tau)
        assert tr.w == averaged(x, phi, tr.gamma, tr.beta1)


def head_member(x, tau, eps, seed):
    """The "head" strategy of sample_family_member replayed: average x over
    [0, r) and scale by the share of Phi_x(tau) - eps in Phi_y0(tau)."""
    rng = random.Random(seed)
    if rng.choice(["scale", "head", "shape"]) != "head":
        return None
    bound = max(x.support_bound, tau, 1)
    r = F(rng.randint(1, 4 * bound.numerator * bound.denominator), 2 * bound.denominator ** 2)
    phi = level_integral(x)
    y0 = averaged(x, phi, 0, r)
    m = level_integral(y0).value_at(tau)
    c = min(F(1), (phi.value_at(tau) - eps) / m) * F(rng.randint(8, 16), 16)
    return y0.scale(c)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.booleans(), st.integers(1, 200))
def test_the_head_strategy_scales_by_the_level_integral_of_the_head(case_seed, plateau, seed):
    x, tau, eps = gen.prop32_instance(random.Random(case_seed), plateau)
    expected = head_member(x, tau, eps, seed)
    if expected is not None:
        assert sample_family_member(x, tau, eps, seed) == expected
        assert majorize.family_contains(expected, x, tau, eps)
