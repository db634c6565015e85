"""Differential tests of the linear walks against slow, independent evaluation.

Every kernel that walks a common refinement (``refine`` itself, ``+``,
``-``, ``*``, ``window``, the Marcinkiewicz norm with a piecewise-linear
phi, ``maximal_distance``) or sorts pieces (``rearrangement``) is compared
with a reference written here from the definitions: step functions are
evaluated by scanning their pieces, merged cuts come from
``sorted(set(...))``, concave functions are read through ``value_at``, and
the rearrangement is a plain sort of the pieces.  Where a kernel's output
is compared field by field, the reference merges equal neighbours with
Fraction ``!=`` (``slow_merge``), not through ``canonicalize``; that covers
``+``, ``-``, ``window``, ``abs`` and ``canonicalize`` itself, which merge
by comparing int pairs.  The int-pair summation
kernel (``integrate``, ``exceedance_measure``,
``majorize._integral_product``, the L1 and Linf norms) is compared with
Fraction loops over the pieces.  The domination kernel
``majorize.plc_dominated_by`` is compared with such a loop, and, on the
stars of a pair, with their level integrals read through ``value_at``.
Inputs with few |values| of both signs over shared, mixed and coprime
denominators check the grouped rearrangement against
``gen._sorted_oracle_star``, the per-denominator totals against Fraction
loops, that every Fraction they return is in lowest terms (``_frac``
trusts its pair), and ``-x``, ``scale`` and ``x * c`` against a loop.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rearrcalc import (
    INF,
    InfiniteIntegralError,
    StepFunction,
    box,
    canonicalize,
    constant,
    level_integral,
    maximal_distance,
    rearrangement,
)
from rearrcalc.gen import _sorted_oracle_star
from rearrcalc.majorize import HlpVerdict, _integral_product, hlp_compare, plc_dominated_by
from rearrcalc.spaces import SpaceSpec, norm
from rearrcalc.stepfn import exceedance_measure, integrate, plc_from_nodes, refine

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)

# pairwise-coprime denominators near 10**6 (all primes)
BIG_PRIMES = (999983, 999979, 999961, 999959, 999953, 999931, 999917, 999907)


# -- strategies ---------------------------------------------------------------


def rationals(max_num=24, max_den=8, signed=True):
    num = st.integers(-max_num if signed else 0, max_num)
    return st.builds(F, num, st.integers(1, max_den))


@st.composite
def step_functions(draw, alpha=None, max_pieces=8, signed=True, big_dens=False):
    if alpha is None:
        alpha = draw(st.sampled_from([INF, F(1)]))
    k = draw(st.integers(0, max_pieces))
    if big_dens:
        dens = st.sampled_from(BIG_PRIMES)
        value = st.builds(F, st.integers(-10**6 if signed else 0, 10**6), dens)
        step = st.builds(F, st.integers(1, 10**6), dens)
    else:
        value = rationals(signed=signed)
        step = rationals(signed=False).filter(lambda q: q > 0)
    if alpha == INF:
        cuts, acc = [], F(0)
        for s in draw(st.lists(step, min_size=k, max_size=k)):
            acc += s
            cuts.append(acc)
    else:
        pool = draw(st.lists(step.map(lambda q: q / (1 + q)), max_size=k))
        cuts = sorted(set(pool))
    values = draw(st.lists(value, min_size=len(cuts), max_size=len(cuts)))
    tail = draw(value) if alpha != INF or draw(st.booleans()) else F(0)
    return canonicalize(cuts, values, tail, alpha)


@st.composite
def step_pairs(draw, **kw):
    f = draw(step_functions(**kw))
    shape = draw(st.sampled_from(["free", "same_cuts", "no_cuts"]))
    if shape == "same_cuts" and f.cuts:
        vals = draw(st.lists(rationals(), min_size=len(f.cuts), max_size=len(f.cuts)))
        g = canonicalize(f.cuts, vals, draw(rationals()), f.alpha)
    elif shape == "no_cuts":
        g = constant(draw(rationals()), f.alpha)
    else:
        g = draw(step_functions(alpha=f.alpha, **kw))
    return (f, g) if draw(st.booleans()) else (g, f)


@st.composite
def concave_functions(draw, alpha):
    """A canonical nondecreasing concave PLC, jump0 possibly positive."""
    k = draw(st.integers(0, 5))
    slopes = sorted(set(draw(st.lists(rationals(12, 4, signed=False), min_size=k + 1,
                                      max_size=k + 1))), reverse=True)
    jump0 = draw(st.sampled_from([F(0), F(0), F(1, 2), F(2)]))
    if jump0 == 0 and slopes[0] == 0:
        jump0 = F(1)
    if alpha == INF:
        steps = draw(st.lists(rationals(8, 4, signed=False).filter(lambda q: q > 0),
                              min_size=len(slopes) - 1, max_size=len(slopes) - 1))
        cuts, acc = [], F(0)
        for s in steps:
            acc += s
            cuts.append(acc)
    else:
        cuts = sorted(set(draw(st.lists(st.builds(F, st.integers(1, 47), st.just(48)),
                                        max_size=len(slopes) - 1))))
    nodes, v, prev = [], jump0, F(0)
    for c, m in zip(cuts, slopes):
        v += m * (c - prev)
        nodes.append(v)
        prev = c
    return plc_from_nodes(cuts, nodes, slopes[len(cuts)], jump0, alpha)


@st.composite
def concave_pairs(draw):
    alpha = draw(st.sampled_from([INF, F(1)]))
    return draw(concave_functions(alpha)), draw(concave_functions(alpha))


# -- slow references ----------------------------------------------------------


def at(f: StepFunction, t):
    """f(t) by scanning the pieces in order."""
    for c, v in zip(f.cuts, f.values):
        if t < c:
            return v
    return f.tail


def fields(f: StepFunction):
    return f.cuts, f.values, f.tail


def slow_merge(cuts, values):
    """(cuts, values, tail) of piece data with equal neighbours merged by
    Fraction ``!=``; values has one entry per piece, the last is the tail."""
    out_cuts, out_vals, cur = [], [], values[0]
    for t, v in zip(cuts, values[1:]):
        if v != cur:
            out_cuts.append(t)
            out_vals.append(cur)
            cur = v
    return tuple(out_cuts), tuple(out_vals), cur


def check_points(alpha, *cut_lists):
    """Every merged cut, the midpoints between them, 0, and a point past the end."""
    cs = sorted({c for cuts in cut_lists for c in cuts})
    pts = [F(0), *cs]
    pts += [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    last = cs[-1] if cs else F(0)
    pts.append(last + F(1, 2) if alpha == INF else (last + 1) / 2)
    return [t for t in pts if t < alpha]


def sorted_star(x: StepFunction) -> StepFunction:
    """x* from a plain sort of (|value|, length) pairs."""
    bounds = [F(0), *x.cuts] + ([] if x.alpha == INF else [x.alpha])
    items = sorted(((abs(v), b - a) for a, b, v in zip(bounds, bounds[1:], x.values + (x.tail,))),
                   reverse=True)
    if x.alpha == INF:
        items = [(v, l) for v, l in items if v > abs(x.tail)]
        tail = abs(x.tail)
    else:
        tail = items.pop()[0]
    cuts, acc = [], F(0)
    for _, l in items:
        acc += l
        cuts.append(acc)
    return canonicalize(cuts, [v for v, _ in items], tail, x.alpha)


def first_node_violation(f, g):
    for t in sorted({*f.cuts, *g.cuts}):
        if f.value_at(t) > g.value_at(t):
            return t
    return None


def violated_somewhere(f, g) -> bool:
    """f > g somewhere on (0, alpha): at a node, at 0+, at alpha-, or at infinity."""
    if first_node_violation(f, g) is not None or f.jump0 > g.jump0:
        return True
    if f.alpha != INF:
        return f.value_at(f.alpha) > g.value_at(g.alpha)
    return f.final_slope > g.final_slope


def linear_positive_measure(c0, c1, lo, hi):
    """mu{ t in (lo, hi) : c0 + c1*t > 0 }; hi may be INF."""
    if c1 == 0:
        return (INF if hi == INF else hi - lo) if c0 > 0 else F(0)
    root = -c0 / c1
    if c1 > 0:  # t > root
        start = max(lo, root)
        return INF if hi == INF else max(F(0), hi - start)
    end = root if hi == INF else min(hi, root)
    return max(F(0), end - lo)


def slow_maximal_distance(x, y, delta):
    fx, fy = level_integral(x), level_integral(y)
    cs = sorted({*fx.cuts, *fy.cuts})
    total = F(0)
    for lo, hi in zip([F(0), *cs], [*cs, x.alpha]):
        t1 = lo + 1 if hi == INF else (2 * lo + hi) / 3
        t2 = t1 + 1 if hi == INF else (lo + 2 * hi) / 3
        dv1 = fx.value_at(t1) - fy.value_at(t1)
        dv2 = fx.value_at(t2) - fy.value_at(t2)
        b = (dv2 - dv1) / (t2 - t1)
        a = dv1 - b * t1
        # |a/t + b| > delta  <=>  a + (b - delta) t > 0  or  -a - (b + delta) t > 0
        for piece in (linear_positive_measure(a, b - delta, lo, hi),
                      linear_positive_measure(-a, -(b + delta), lo, hi)):
            if piece == INF:
                return INF
            total += piece
    return total


# -- the merge itself ---------------------------------------------------------


@SETTINGS
@given(step_pairs())
def test_merge_cuts_matches_sorted_union(pair):
    f, g = pair
    ends, fv, gv = refine(f, g)
    cuts = sorted({*f.cuts, *g.cuts})
    assert ends == [c.as_integer_ratio() for c in cuts]
    assert len(fv) == len(gv) == len(cuts) + 1
    fv, gv = [F(*p) for p in fv], [F(*p) for p in gv]
    # merged piece k lies in the f (g) piece indexed by the cuts <= its start
    fvals, gvals = (*f.values, f.tail), (*g.values, g.tail)
    for k, t in enumerate([F(0), *cuts]):
        assert fv[k] == fvals[sum(1 for c in f.cuts if c <= t)]
        assert gv[k] == gvals[sum(1 for c in g.cuts if c <= t)]


@SETTINGS
@given(step_pairs())
def test_refine_values_match_pointwise_evaluation(pair):
    f, g = pair
    ends, fv, gv = refine(f, g)
    for lo, v, w in zip([F(0), *(F(*e) for e in ends)], fv, gv):
        assert v == at(f, lo).as_integer_ratio() and w == at(g, lo).as_integer_ratio()


# -- pointwise algebra and window ------------------------------------------------


@pytest.mark.parametrize("op", ["+", "-", "*"])
@SETTINGS
@given(pair=step_pairs())
def test_binary_ops_match_pointwise_evaluation(op, pair):
    f, g = pair
    fn = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}[op]
    h = fn(f, g)
    assert set(h.cuts) <= {*f.cuts, *g.cuts}
    for t in check_points(f.alpha, f.cuts, g.cuts):
        assert at(h, t) == fn(at(f, t), at(g, t))


@SETTINGS
@given(pair=step_pairs(big_dens=True, max_pieces=6))
def test_binary_ops_with_coprime_large_denominators(pair):
    f, g = pair
    s, d = f + g, f - g
    for t in check_points(f.alpha, f.cuts, g.cuts):
        assert at(s, t) == at(f, t) + at(g, t)
        assert at(d, t) == at(f, t) - at(g, t)


def window_ends(f: StepFunction, draw):
    span = f.cuts[-1] if f.cuts else F(1)
    a = draw(st.sampled_from([F(0), span / 3, *f.cuts]))
    if f.alpha != INF:
        a = min(a, F(1, 2))
    choices = [None, INF, a + span / 2, a + F(1, 7), *[c for c in f.cuts if c > a]]
    if f.alpha != INF:
        choices = [b for b in choices if b is None or b == INF or b <= 1] + [F(1)]
    return a, draw(st.sampled_from(choices))


@SETTINGS
@given(f=step_functions(), data=st.data())
def test_window_matches_pointwise_evaluation(f, data):
    a, b = window_ends(f, data.draw)
    hi = f.alpha if b is None or b == INF else b
    cuts = sorted({c for c in (*f.cuts, a, hi) if 0 < c < f.alpha})
    values = [at(f, t) if a <= t < hi else F(0) for t in (F(0), *cuts)]
    assert fields(f.window(a, b)) == slow_merge(cuts, values)


def test_window_named_edge_cases():
    x = canonicalize([1, 2, 3], [5, -1, 2], 0, INF)
    assert x.window(0) == x and x.window(0, INF) == x
    assert x.window(1) == canonicalize([1, 2, 3], [0, -1, 2], 0, INF)  # a on a cut
    assert x.window(F(1, 2), 2) == canonicalize([F(1, 2), 1, 2], [0, 5, -1], 0, INF)  # hi on a cut
    assert x.window(3, INF) == constant(0, INF)
    assert x.window(2, 2) == constant(0, INF)
    y = canonicalize([F(1, 4), F(1, 2)], [3, -2], 7, 1)  # alpha = 1, nonzero tail
    assert y.window(0, 1) == y and y.window(0, None) == y and y.window(0, INF) == y
    assert y.window(F(1, 2), 1) == canonicalize([F(1, 2)], [0], 7, 1)
    assert y.window(F(1, 4), F(1, 2)) == canonicalize([F(1, 4), F(1, 2)], [0, -2], 0, 1)
    assert y.window(1, INF) == constant(0, 1)
    assert constant(4, INF).window(0, 1) == canonicalize([1], [4], 0, INF)  # no cuts
    # zeros next to a and to the end join the zeros outside the window
    z = canonicalize([1, 2, 3, 4, 5], [7, 0, 3, -3, 0], 9, INF)
    inner = canonicalize([2, 3, 4], [0, 3, -3], 0, INF)
    assert z.window(1, 5) == z.window(1, 4) == z.window(2, 4) == inner
    assert z.window(4, 5) == constant(0, INF)
    assert z.window(0, 2) == canonicalize([1], [7], 0, INF)


# -- concave functions ------------------------------------------------------------


def past_last_cut(phi):
    """Two points past phi's last cut, inside the domain."""
    last = phi.cuts[-1] if phi.cuts else F(0)
    if phi.alpha == INF:
        return last + 1, last + F(5, 2)
    return (2 * last + 1) / 3, (last + 2) / 3


def slow_marcinkiewicz(phi, x):
    """sup_t Phi_x(t)*phi(t)/t from value_at at the merged cuts, where the
    objective A/t + B + C*t (A, C >= 0) of every piece between them peaks,
    and from its limits at 0+ and at the right end."""
    big = level_integral(x)
    objective = lambda t: big.value_at(t) * phi.value_at(t) / t
    cands = [objective(t) for t in sorted({*big.cuts, *phi.cuts})]
    # at 0+: jump0 times x*(0+), the slope of Phi_x before its first cut
    t0 = min(big.cuts, default=F(1))
    cands.append(phi.jump0 * big.value_at(t0) / t0)
    if x.alpha != INF:
        cands.append(big.value_at(F(1)) * phi.value_at(F(1)))
        return max(cands)
    # at infinity both are affine, a + b*t, past their last cuts
    (a1, b1), (a2, b2) = [
        (h.value_at(s) - s * (h.value_at(t) - h.value_at(s)) / (t - s),
         (h.value_at(t) - h.value_at(s)) / (t - s))
        for h in (big, phi) for s, t in [past_last_cut(h)]
    ]
    if b1 > 0 and b2 > 0:
        return INF
    return max(*cands, a1 * b2 + b1 * a2)


@SETTINGS
@given(data=st.data(), alpha=st.sampled_from([INF, F(1)]))
def test_marcinkiewicz_norm_matches_value_at(data, alpha):
    phi = data.draw(concave_functions(alpha))
    x = data.draw(step_functions(alpha=alpha))
    assert norm(SpaceSpec("Marcinkiewicz", phi, alpha), x) == slow_marcinkiewicz(phi, x)


@SETTINGS
@given(concave_pairs().map(lambda p: p[0]))
def test_final_branch_matches_value_at(phi):
    a, b = phi.final_branch()
    assert b == phi.final_slope
    for t in past_last_cut(phi):
        assert phi.value_at(t) == a + b * t


@st.composite
def hlp_pairs(draw):
    """(y, x) on one domain: free pairs, and y a scaled copy of x, which
    holds, just fails, or fails only on the final branch."""
    y, x = draw(step_pairs())
    if draw(st.booleans()):
        y = x.scale(draw(st.sampled_from([F(0), F(1, 2), F(15, 16), F(1), F(17, 16)])))
    return y, x


def slow_hlp(y: StepFunction, x: StepFunction):
    """y ≺ x read off the level integrals through value_at: the first merged
    node where Phi_y > Phi_x; else, on the final branch past the last node
    lo, the first of lo + (1 - lo)/3, lo + 2(1 - lo)/3 and (root + 1)/2 that
    violates on [0, 1), and root + 1 on [0, inf), root being the crossing."""
    f, g = level_integral(y), level_integral(x)
    if not violated_somewhere(f, g):
        return True, None
    node = first_node_violation(f, g)
    if node is not None:
        return False, node
    lo = max(f.cuts + g.cuts, default=F(0))
    d = lambda t: f.value_at(t) - g.value_at(t)
    hi = lo + 1 if f.alpha == INF else F(1)
    root = lo - d(lo) * (hi - lo) / (d(hi) - d(lo))
    if f.alpha == INF:
        return False, root + 1
    for t in (lo + (1 - lo) / 3, lo + 2 * (1 - lo) / 3, (root + 1) / 2):
        if d(t) > 0:
            return False, t


@SETTINGS
@given(hlp_pairs())
def test_plc_dominated_by_verdict_and_witness(pair):
    for y, x in (pair, pair[::-1]):
        holds, w = plc_dominated_by(rearrangement(y).star, rearrangement(x).star)
        assert (holds, w) == slow_hlp(y, x)
        assert hlp_compare(y, x) == HlpVerdict(holds, w)
        if not holds:
            assert 0 < w and (y.alpha == INF or w < 1)
            assert level_integral(y).value_at(w) > level_integral(x).value_at(w)


def test_plc_dominated_by_named_witnesses():
    # final branch on [0, inf): 2t overtakes 5 + (t - 1) at 4, witness 5
    assert plc_dominated_by(constant(2, INF), canonicalize([1], [5], 1, INF)) == (False, F(5))
    # final branch on [0, 1), t against min(t, 1/2): the first third works
    assert plc_dominated_by(constant(1, 1), box(1, F(1, 2), 1)) == (False, F(2, 3))
    # the crossing 7/12 lies past the first third: the second third
    x = canonicalize([F(1, 4)], [2], F(1, 4), 1)
    assert plc_dominated_by(constant(1, 1), x) == (False, F(3, 4))
    # the crossing 4/5 lies past both thirds: halfway from it to 1
    assert plc_dominated_by(constant(1, 1), box(4, F(1, 5), 1)) == (False, F(9, 10))
    # no cuts on either side
    assert plc_dominated_by(constant(1, 1), constant(2, 1)) == (True, None)


# -- maximal distance and rearrangement ----------------------------------------------


@SETTINGS
@given(pair=step_pairs(max_pieces=6), delta=st.sampled_from([F(1), F(1, 2), F(1, 10), F(7, 3)]))
def test_maximal_distance_matches_linear_split(pair, delta):
    x, y = pair
    assert maximal_distance(x, y, delta) == slow_maximal_distance(x, y, delta)


# (x, y, delta, mu{|x** - y**| > delta}): each a path of the sign rule at
# the ends of the merged pieces, with G = Phi_x - Phi_y
MAXIMAL_CASES = {
    # G - t is 0 exactly at the cut 2: positive before it, negative after
    "zero_at_a_cut": (canonicalize([1, 2], [3, 1], 0, INF), box(1, 3), F(1), F(2)),
    # [0, 1): G - t is 0 on all of [0, 1/2], then negative
    "zero_on_a_whole_piece": (box(2, F(1, 2), 1), box(1, F(1, 2), 1), F(1), F(0)),
    # [0, 1): G - 3t/2 falls through 0 at 2/3, inside the last piece [1/2, 1)
    "root_in_the_last_piece": (box(2, F(1, 2), 1), constant(0, 1), F(3, 2), F(2, 3)),
    # [0, 1): on [1/4, 1), -G - t/8 falls through 0 at 2/3 and G - t/8 rises
    # through 0 at 6/7; G(1) = 1/4, while G(1/4) = -1/2 would miss the rise
    "two_roots_in_the_last_piece": (constant(1, 1), box(3, F(1, 4), 1), F(1, 8), F(17, 21)),
    # [0, inf): G - t/3 = 3/2 - t/3 on the ray past 1/2 falls through 0 at 9/2
    "root_on_the_ray": (box(3, F(1, 2)), constant(0), F(1, 3), F(9, 2)),
    # [0, inf): x* - y* = 1 = delta on the ray past the cut 2, with G(2) = 2
    "tail_slope_delta_zero_value": (canonicalize([F(1, 2), 2], [4, 2], 1, INF),
                                    box(2, F(3, 2)), F(1), F(1)),
    "tail_slope_minus_delta_zero_value": (box(2, F(3, 2)),
                                          canonicalize([F(1, 2), 2], [4, 2], 1, INF),
                                          F(1), F(1)),
    # the same ray with G(2) = 11/5 > 2: G - t = 1/5 on all of it
    "tail_slope_delta_positive_value": (canonicalize([F(1, 2), 2], [4, 2], 1, INF),
                                        box(2, F(7, 5)), F(1), INF),
    "tail_slope_minus_delta_positive_value": (box(2, F(7, 5)),
                                              canonicalize([F(1, 2), 2], [4, 2], 1, INF),
                                              F(1), INF),
}


@pytest.mark.parametrize("name", MAXIMAL_CASES)
def test_maximal_distance_named_cases(name):
    x, y, delta, expected = MAXIMAL_CASES[name]
    assert maximal_distance(x, y, delta) == expected
    assert slow_maximal_distance(x, y, delta) == expected


@st.composite
def shifted_pairs(draw, big_dens=False):
    """(x, y, delta) with y* - x* a multiple of delta on each piece of x*, the
    tails too on [0, inf): G -+ delta t is then often 0 at a cut, and on the
    ray its slope is often 0."""
    x = draw(step_functions(max_pieces=6, big_dens=big_dens))
    delta = draw(st.sampled_from([F(1, 2), F(1), F(1, 999983)] if big_dens else
                                 [F(1, 3), F(1, 2), F(1), F(2)]))
    star = sorted_star(x)
    ks = st.sampled_from([-2, -1, 0, 1, 2])
    values = [v + k * delta for v, k in zip(star.values, draw(st.lists(
        ks, min_size=len(star.values), max_size=len(star.values))))]
    tail = star.tail + draw(ks) * delta
    y = canonicalize(star.cuts, values, tail, x.alpha)
    return (x, y, delta) if draw(st.booleans()) else (y, x, delta)


@SETTINGS
@given(shifted_pairs())
def test_maximal_distance_on_shifted_stars(case):
    x, y, delta = case
    assert maximal_distance(x, y, delta) == slow_maximal_distance(x, y, delta)


@SETTINGS
@given(case=shifted_pairs(big_dens=True), pair=step_pairs(big_dens=True, max_pieces=5),
       delta=st.sampled_from([F(1, 2), F(1, 999979)]))
def test_maximal_distance_with_coprime_large_denominators(case, pair, delta):
    x, y, d = case
    assert maximal_distance(x, y, d) == slow_maximal_distance(x, y, d)
    x, y = pair
    assert maximal_distance(x, y, delta) == slow_maximal_distance(x, y, delta)


@SETTINGS
@given(step_functions(max_pieces=12))
def test_rearrangement_matches_sort(x):
    rr = rearrangement(x)
    star = sorted_star(x)
    assert rr.star == star
    assert rr.star_at_infinity == (abs(x.tail) if x.alpha == INF else star.tail)
    li = rr.level_integral
    assert li.cuts == star.cuts and li.final_slope == star.tail and li.jump0 == 0
    total, prev = F(0), F(0)
    for c, v in zip(star.cuts, star.values):
        total += v * (c - prev)
        prev = c
        assert li.value_at(c) == total


@SETTINGS
@given(step_functions(max_pieces=10, big_dens=True))
def test_rearrangement_with_coprime_large_denominators(x):
    assert rearrangement(x).star == sorted_star(x)


def test_rearrangement_named_edge_cases():
    # alpha = 1 with a nonzero tail that is not the smallest value
    x = canonicalize([F(1, 4), F(1, 2)], [-3, 1], 2, 1)
    assert rearrangement(x).star == canonicalize([F(1, 4), F(3, 4)], [3, 2], 1, 1)
    # [0, inf) with a plateau that absorbs smaller pieces; equal values merge
    y = canonicalize([1, 2, 4], [-5, 1, 5], 2, INF)
    assert rearrangement(y).star == canonicalize([3], [5], 2, INF)
    assert rearrangement(constant(0, INF)).star == constant(0, INF)


# -- the int-pair summation kernel ---------------------------------------------


def pieces(f: StepFunction):
    """(start, end, value) of every piece; the last end is alpha."""
    return zip((F(0), *f.cuts), (*f.cuts, f.alpha), (*f.values, f.tail))


def slow_integral(f: StepFunction, a, b):
    """int_a^b f clipped piece by piece; None when it diverges."""
    total = F(0)
    for s, e, v in pieces(f):
        lo, hi = max(s, a), min(e, b)
        if hi == INF:
            if v != 0:
                return None
        elif hi > lo:
            total += v * (hi - lo)
    return total


def slow_exceedance(f: StepFunction, lam):
    total = F(0)
    for s, e, v in pieces(f):
        if abs(v) > lam:
            if e == INF:
                return INF
            total += e - s
    return total


def slow_product_integral(f: StepFunction, g: StepFunction):
    """int f*g over the merged pieces, by evaluating both at each start."""
    bounds = [F(0), *sorted({*f.cuts, *g.cuts}), f.alpha]
    total = F(0)
    for s, e in zip(bounds, bounds[1:]):
        p = at(f, s) * at(g, s)
        if e == INF:
            return total if p == 0 else INF if p > 0 else None
        total += p * (e - s)
    return total


def slow_cumulative(u: StepFunction, v: StepFunction):
    """The first merged cut where int_0^t (u - v) > 0; else, past the last
    cut, the first of its thirds towards 1 that violates, or halfway from
    the crossing to 1, on [0, 1), and one past the crossing on [0, inf)."""
    cs = sorted({*u.cuts, *v.cuts})
    for c in cs:
        if slow_integral(u, 0, c) > slow_integral(v, 0, c):
            return False, c
    last = cs[-1] if cs else F(0)
    d, m = slow_integral(u, 0, last) - slow_integral(v, 0, last), u.tail - v.tail
    if u.alpha != INF:
        if slow_integral(u, 0, 1) > slow_integral(v, 0, 1):
            for t in (last + (1 - last) / 3, last + 2 * (1 - last) / 3):
                if slow_integral(u, 0, t) > slow_integral(v, 0, t):
                    return False, t
            return False, (last - d / m + 1) / 2
    elif m > 0:
        return False, last - d / m + 1
    return True, None


def kernel_points(f: StepFunction, draw):
    """Two points a <= b of [0, alpha], b = INF allowed on [0, inf)."""
    top = 40 if f.alpha == INF else 1
    pool = [F(0), *f.cuts, *([] if f.alpha == INF else [F(1)])]
    point = st.one_of(st.sampled_from(pool), st.builds(F, st.integers(0, 48 * top), st.just(48)))
    a, b = sorted([draw(point), draw(point)])
    if f.alpha == INF and draw(st.booleans()):
        b = INF
    return a, b


@SETTINGS
@given(f=step_functions(), data=st.data())
def test_integrate_matches_piece_loop(f, data):
    a, b = kernel_points(f, data.draw)
    expected = slow_integral(f, a, b)
    if expected is None:
        with pytest.raises(InfiniteIntegralError):
            integrate(f, a, b)
    else:
        got = integrate(f, a, b)
        assert type(got) is F and got == expected


@SETTINGS
@given(f=step_functions(big_dens=True, max_pieces=6), data=st.data())
def test_integrate_with_coprime_large_denominators(f, data):
    a, b = kernel_points(f, data.draw)
    expected = slow_integral(f, a, b)
    if expected is not None:
        assert integrate(f, a, b) == expected


@SETTINGS
@given(f=step_functions(), data=st.data())
def test_exceedance_measure_matches_piece_loop(f, data):
    levels = sorted({abs(v) for v in (*f.values, f.tail)})
    lam = data.draw(st.one_of(st.sampled_from(levels), rationals(signed=False)))
    assert exceedance_measure(f, lam) == slow_exceedance(f, lam)


@SETTINGS
@given(step_pairs())
def test_integral_product_matches_piece_loop(pair):
    f, g = pair
    expected = slow_product_integral(f, g)
    if expected is None:
        with pytest.raises(InfiniteIntegralError):
            _integral_product(f, g)
    else:
        assert _integral_product(f, g) == expected


@st.composite
def dominated_pairs(draw):
    """Nonnegative (u, v): free pairs, and u = v/2 + q, whose running
    integral often overtakes v's only on the final piece."""
    u, v = draw(step_pairs(signed=False))
    if draw(st.booleans()):
        u = v.scale(F(1, 2)) + constant(draw(st.sampled_from([F(1, 8), F(1, 4), F(1, 2)])),
                                         v.alpha)
    return u, v


@SETTINGS
@given(dominated_pairs())
def test_cumulative_dominated_verdict_and_witness(pair):
    u, v = pair
    holds, witness = plc_dominated_by(u, v)
    assert (holds, witness) == slow_cumulative(u, v)
    if not holds:
        assert slow_integral(u, 0, witness) > slow_integral(v, 0, witness)


@SETTINGS
@given(step_functions())
def test_l1_and_linf_norms_match_piece_loop(x):
    l1 = slow_integral(abs(x), 0, x.alpha)
    assert norm(SpaceSpec("L1", alpha=x.alpha), x) == (INF if l1 is None else l1)
    linf = norm(SpaceSpec("Linf", alpha=x.alpha), x)
    assert linf == max(abs(v) for _, _, v in pieces(x)) and reduced(linf)


@pytest.mark.parametrize("alpha", [INF, F(1)])
def test_linf_of_equal_magnitudes_with_both_signs(alpha):
    v = F(999979, 999983)
    linf = SpaceSpec("Linf", alpha=alpha)
    for vals, tail in (([v, -v], F(0)), ([-v, v], -v), ([-v, F(1, 2)], v), ([], -v)):
        x = canonicalize([F(1, 3), F(1, 2)][:len(vals)], vals, tail, alpha)
        assert norm(linf, x) == v
    assert norm(linf, canonicalize([F(1, 2)], [-F(3)], F(-2), alpha)) == 3
    assert norm(linf, constant(0, alpha)) == 0


# -- + and - on int pairs ---------------------------------------------------------


@st.composite
def sum_pairs(draw):
    """Operands of + and -: free pairs, pairs that cancel to 0 on some or all
    pieces (g = f, g = -f, or g = +-f piece by piece), pairs whose sum's last
    value equals its tail, and pairs with denominators near 10**40."""
    f, g = draw(step_pairs())
    shape = draw(st.sampled_from(
        ["free", "cancel", "same", "negated", "signs", "tail", "huge"]))
    vals = (*f.values, f.tail)
    if shape == "cancel":  # g = -f on the pieces drawn, so f + g is 0 there
        keep = draw(st.lists(st.booleans(), min_size=len(vals), max_size=len(vals)))
        other = [-v if k else v + 1 for v, k in zip(vals, keep)]
        g = canonicalize(f.cuts, other[:-1], other[-1], f.alpha)
    elif shape == "same":  # f - f and f + f
        g = f
    elif shape == "negated":  # f + (-f)
        g = -f
    elif shape == "signs":  # f + g is 0 where the sign is -1, f - g where it is 1
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(vals), max_size=len(vals)))
        other = [s * v for v, s in zip(vals, signs)]
        g = canonicalize(f.cuts, other[:-1], other[-1], f.alpha)
    elif shape == "tail" and f.cuts:  # f + g ends on f's last value
        other = [F(0)] * len(f.cuts) + [f.values[-1] - f.tail]
        g = canonicalize(f.cuts, other[:-1], other[-1], f.alpha)
    elif shape == "huge":
        dens = st.integers(10**40, 10**40 + 10**6)
        bump = lambda v: v + F(draw(st.integers(-10**6, 10**6)), draw(dens))
        f = canonicalize(f.cuts, [bump(v) for v in f.values], bump(f.tail), f.alpha)
        g = canonicalize(g.cuts, [bump(v) for v in g.values], bump(g.tail), g.alpha)
    return f, g


def piecewise_sum(f, g, sign):
    """(cuts, values, tail) of f + sign*g by Fraction arithmetic on every
    piece of the sorted union of cuts."""
    cuts = sorted({*f.cuts, *g.cuts})
    return slow_merge(cuts, [at(f, t) + sign * at(g, t) for t in [F(0), *cuts]])


@SETTINGS
@given(sum_pairs())
def test_sum_and_difference_match_a_fraction_loop(pair):
    f, g = pair
    for h, sign in ((f + g, 1), (f - g, -1)):
        ref = piecewise_sum(f, g, sign)
        assert fields(h) == ref and hash(h) == hash(StepFunction(f.alpha, *ref))
        assert all(map(reduced, (*h.cuts, *h.values, h.tail)))
    assert f - f == constant(0, f.alpha) == f + -f


# -- grouped rearrangement, bucketed totals, injective maps -----------------------


@st.composite
def grouped_pieces(draw):
    """Raw (cuts, values, tail, alpha) whose few |values| recur, with both
    signs, on pieces of many lengths: cuts over one shared denominator, over
    mixed denominators up to 8, or over distinct primes above 10**6, on both
    domains.  On [0, inf) the tail is often one of the magnitudes, absorbing
    the pieces at and below it."""
    alpha = draw(st.sampled_from([INF, F(1)]))
    shape = draw(st.sampled_from(["shared", "mixed", "coprime"]))
    if shape == "shared":  # k coprime to den: every cut keeps the denominator den
        den = draw(st.sampled_from([7, 12, 30, 101]))
        ks = st.integers(1, den - 1).filter(lambda k: gcd(k, den) == 1)
        unit = st.builds(F, ks, st.just(den))
    elif shape == "mixed":
        unit = st.integers(2, 8).flatmap(lambda d: st.builds(F, st.integers(1, d - 1), st.just(d)))
    else:
        unit = st.sampled_from(BIG_PRIMES).flatmap(
            lambda p: st.builds(F, st.integers(1, p - 1), st.just(p)))
    points = draw(st.lists(unit, min_size=3, max_size=24))  # in (0, 1)
    # cut i is i + points[i] on [0, inf): same denominators, increasing
    cuts = [i + u for i, u in enumerate(points)] if alpha == INF else sorted(set(points))
    mags = rationals(signed=False)
    if shape == "coprime":
        mags = st.builds(F, st.integers(0, 10**6), st.sampled_from(BIG_PRIMES))
    pool = draw(st.lists(mags, min_size=1, max_size=4))
    value = st.builds(lambda m, s: s * m, st.sampled_from(pool), st.sampled_from([1, -1]))
    values = draw(st.lists(value, min_size=len(cuts), max_size=len(cuts)))
    tail = draw(st.one_of(value, st.just(F(0))))
    return cuts, values, tail, alpha


def grouped_step_functions():
    return grouped_pieces().map(lambda raw: canonicalize(*raw))


def reduced(q) -> bool:
    return type(q) is F and q.denominator > 0 and gcd(q.numerator, q.denominator) == 1


@SETTINGS
@given(grouped_pieces())
def test_canonicalize_and_abs_merge_like_fraction_operators(raw):
    cuts, values, tail, _ = raw
    f = canonicalize(*raw)
    for h, vals in ((f, [*values, tail]), (abs(f), [abs(v) for v in (*values, tail)])):
        assert fields(h) == slow_merge(cuts, vals)
        assert all(map(reduced, (*h.cuts, *h.values, h.tail)))


@SETTINGS
@given(grouped_step_functions())
def test_grouped_rearrangement_matches_oracle_and_is_reduced(x):
    rr = rearrangement(x)
    star, li = rr.star, rr.level_integral
    assert star == _sorted_oracle_star(x)
    assert rr.star_at_infinity == star.tail == li.final_slope
    nodes, total, prev = [], F(0), F(0)
    for c, v in zip(star.cuts, star.values):
        total += v * (c - prev)
        nodes.append(total)
        prev = c
    assert li.cuts == star.cuts and list(li.node_values) == nodes
    assert all(map(reduced, (*star.cuts, *star.values, star.tail, *li.node_values)))


@SETTINGS
@given(f=grouped_step_functions(), data=st.data())
def test_grouped_totals_match_fraction_loops(f, data):
    a, b = kernel_points(f, data.draw)
    expected = slow_integral(f, a, b)
    if expected is not None:
        got = integrate(f, a, b)
        assert got == expected and reduced(got)
    levels = sorted({abs(v) for v in (*f.values, f.tail)})
    lam = data.draw(st.one_of(st.sampled_from(levels), rationals(signed=False)))
    measure = exceedance_measure(f, lam)
    assert measure == slow_exceedance(f, lam)
    assert measure == INF or reduced(measure)
    l1 = slow_integral(abs(f), 0, f.alpha)
    got = norm(SpaceSpec("L1", alpha=f.alpha), f)
    assert got == (INF if l1 is None else l1)
    assert got == INF or reduced(got)


@SETTINGS
@given(f=grouped_step_functions(), c=st.one_of(st.just(F(0)), rationals()))
def test_maps_match_a_fraction_loop(f, c):
    def mapped(op):
        return canonicalize(f.cuts, [op(v) for v in f.values], op(f.tail), f.alpha)

    for got, op in ((-f, lambda v: -v), (f.scale(c), lambda v: v * c),
                    (f * c, lambda v: v * c), (c * f, lambda v: v * c)):
        assert got == mapped(op)
        assert StepFunction(got.alpha, got.cuts, got.values, got.tail) == got  # canonical
    assert f * 0 == constant(0, f.alpha)
