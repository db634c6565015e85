"""Dense-grid oracles for the exact distances and the Marcinkiewicz norms.

In the style of ``gen._phi_grid_le``: the quantity is sampled on a uniform
grid t_j = j*h and compared with the exact value.  The rearrangements come
from the sort oracle ``gen._sorted_oracle_star`` and their running integrals
from plain Fraction sums written here, so no code of ``rearrange``,
``experiments`` or ``spaces`` is reused.

* ``maximal_distance`` and ``measure_distance``: on every piece between
  merged cuts the exceedance set is at most two intervals (for x** - y**,
  A/t + B is monotone there), and a grid counts the length of an interval
  up to h; so h * (count) lies within h * (2 * segments + 2) of the exact
  measure.  The count for x** - y** is done in integers: on a segment,
  |Phi_x - Phi_y|(t) = |a + b*t| and t_j = j*h, so the test
  |a + b*j*h| > delta*j*h becomes |A + B*j| > C*j after clearing
  denominators.  The named cases of ``test_walks`` are counted too; where
  the distance is infinite, every grid point on the ray past the last cut
  must exceed delta.
* Marcinkiewicz norms: a grid value never exceeds the exact supremum.  When
  every cut of x and of phi is a grid point, x*(inf) = 0 on [0, inf) and the
  grid reaches t = 1 on [0, 1), the supremum of phi * x** sits at a grid
  point (on each piece the objective is convex, or monotone for the
  hyperbola, and on the first and last pieces it is monotone towards a cut),
  so the grid maximum equals the norm.
* The hlp suite's oracle ``gen._phi_grid_le`` finds its first grid hit per
  segment in closed form; a point-by-point scan of the same grid over Phi
  summed here finds the same point.  It and the suite's witness check run
  with ``rearrange`` disabled, and the suite fails when the rearrangement
  drops a group of pieces.
"""

import math
import random
from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from rearrcalc import (
    INF,
    Hyperbolic,
    SpaceSpec,
    StepFunction,
    canonicalize,
    maximal_distance,
    measure_distance,
    norm,
)
from rearrcalc import gen, majorize, rearrange
from rearrcalc.gen import _sorted_oracle_star
from rearrcalc.stepfn import plc_from_nodes
from test_walks import MAXIMAL_CASES, at, rationals, step_functions

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
DELTAS = st.sampled_from([F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(5, 2)])


def phi_nodes(x: StepFunction):
    """[(cut, Phi_x(cut))] from t = 0 on and the star itself, from the sort
    oracle's star and Fraction sums."""
    star = _sorted_oracle_star(x)
    nodes, acc, prev = [(F(0), F(0))], F(0), F(0)
    for c, v in zip(star.cuts, star.values):
        acc += v * (c - prev)
        nodes.append((c, acc))
        prev = c
    return nodes, star


def phi_branch(nodes, star, t):
    """(a, b) with Phi_x = a + b*s on the star piece that ends at or past t > 0."""
    k = max(i for i, (c, _) in enumerate(nodes) if c < t)
    c, v = nodes[k]
    slope = star.values[k] if k < len(star.values) else star.tail
    return v - slope * c, slope


def phi_x(nodes, star, t):
    a, b = phi_branch(nodes, star, t)
    return a + b * t


def segments(cuts, horizon):
    """(lo, hi] pieces between the sorted cuts below the horizon."""
    ends = sorted({c for c in cuts if 0 < c < horizon} | {horizon})
    return list(zip([F(0), *ends], ends))


# -- in-measure distances -----------------------------------------------------


@st.composite
def zero_at_infinity_pairs(draw, big_dens=False):
    """(x, y, delta): signed step functions on one domain, x*(inf) = y*(inf) = 0
    on [0, inf).  Often y is x* with pieces lowered by delta or 2*delta, so
    that x* - y* = +-delta on a piece, where the exceedance set of
    x** - y** changes shape."""
    alpha = draw(st.sampled_from([INF, F(1)]))
    kw = dict(alpha=alpha, max_pieces=5 if big_dens else 6, big_dens=big_dens)
    x, y = draw(step_functions(**kw)), draw(step_functions(**kw))
    if alpha == INF:
        x, y = (canonicalize(f.cuts, f.values, 0, INF) for f in (x, y))
    delta = draw(DELTAS)
    if draw(st.booleans()):
        star = _sorted_oracle_star(x)
        ks = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=len(star.cuts),
                           max_size=len(star.cuts)))
        y = canonicalize(star.cuts, [v - k * delta for v, k in zip(star.values, ks)],
                         star.tail, alpha)
    return x, y, delta


def horizon_and_step(x, y, delta, nodes_x, nodes_y):
    """A grid horizon past every cut and, on [0, inf), past the last t with
    |x**(t) - y**(t)| = |Phi_x(inf) - Phi_y(inf)|/t > delta; and its step."""
    if x.alpha != INF:
        return F(1), F(1, 512)
    last = max(nodes_x[-1][0], nodes_y[-1][0])
    gap = abs(nodes_x[-1][1] - nodes_y[-1][1])
    return F(math.ceil(max(last, gap / delta)) + 1), F(1, 32)


def grid_counts(x, y, delta, horizon, h):
    """[(lo, hi, the number of grid points t_j in (lo, hi] with
    |x**(t_j) - y**(t_j)| > delta, the number of grid points there)] over the
    pieces between the joint nodes below the horizon, counted in integers."""
    (nx, sx), (ny, sy) = phi_nodes(x), phi_nodes(y)
    out = []
    for lo, hi in segments([c for c, _ in nx + ny], horizon):
        (ax, bx), (ay, by) = phi_branch(nx, sx, hi), phi_branch(ny, sy, hi)
        A, B, C = ax - ay, (bx - by) * h, delta * h
        d = math.lcm(A.denominator, B.denominator, C.denominator)
        A, B, C = int(A * d), int(B * d), int(C * d)
        js = range(int(lo / h) + 1, int(hi / h) + 1)
        out.append((lo, hi, sum(abs(A + B * j) > C * j for j in js), len(js)))
    return out


def assert_grid_agrees(x, y, delta, horizon, h):
    counts = grid_counts(x, y, delta, horizon, h)
    count = sum(c for _, _, c, _ in counts)
    exact = maximal_distance(x, y, delta)
    assert exact != INF
    assert abs(count * h - exact) <= h * (2 * len(counts) + 2), (count * h, exact)


@SETTINGS
@given(zero_at_infinity_pairs())
def test_maximal_distance_against_an_integer_grid_count(case):
    x, y, delta = case
    (nx, _), (ny, _) = phi_nodes(x), phi_nodes(y)
    assert_grid_agrees(x, y, delta, *horizon_and_step(x, y, delta, nx, ny))


@SETTINGS
@given(zero_at_infinity_pairs(big_dens=True))
def test_maximal_distance_grid_count_with_coprime_large_denominators(case):
    x, y, delta = case
    (nx, _), (ny, _) = phi_nodes(x), phi_nodes(y)
    assert_grid_agrees(x, y, delta, *horizon_and_step(x, y, delta, nx, ny))


@pytest.mark.parametrize("name", MAXIMAL_CASES)
def test_maximal_distance_named_cases_against_a_grid_count(name):
    x, y, delta, _ = MAXIMAL_CASES[name]
    if x.alpha != INF:
        assert_grid_agrees(x, y, delta, F(1), F(1, 512))
        return
    last = max(x.support_bound, y.support_bound)
    exact = maximal_distance(x, y, delta)
    if exact != INF:  # the set ends before last + exact
        assert_grid_agrees(x, y, delta, last + exact + 1, F(1, 32))
        return
    # every grid point on the ray past the last cut exceeds delta
    lo, hi, count, points = grid_counts(x, y, delta, last + 64, F(1, 32))[-1]
    assert (lo, hi) == (last, last + 64) and count == points


@SETTINGS
@given(zero_at_infinity_pairs())
def test_measure_distance_against_a_grid_count(case):
    f, g, delta = case
    last = max([F(0), *f.cuts, *g.cuts])
    horizon, h = (F(1), F(1, 512)) if f.alpha != INF else (F(math.floor(last)) + 2, F(1, 32))
    pieces = segments([*f.cuts, *g.cuts], horizon)
    n = int(horizon / h)
    mids = (h * j - h / 2 for j in range(1, n + 1))  # inside (0, horizon)
    count = sum(abs(at(f, t) - at(g, t)) > delta for t in mids)
    exact = measure_distance(f, g, delta)
    assert abs(count * h - exact) <= h * (2 * len(pieces) + 2), (count * h, exact)


# -- Marcinkiewicz norms -------------------------------------------------------


@st.composite
def aligned_cases(draw):
    """(x, phi): step function and fundamental function whose cuts are grid
    points (multiples of 1/4 on [0, inf), of 1/48 on [0, 1)); phi is
    piecewise-linear concave with jump0 >= 0 or the hyperbola."""
    alpha = draw(st.sampled_from([INF, F(1)]))
    unit = F(1, 4) if alpha == INF else F(1, 48)
    span = 24 if alpha == INF else 47

    def cuts(k):
        return [unit * i for i in sorted(set(draw(st.lists(st.integers(1, span), max_size=k))))]

    xcuts = cuts(6)
    values = draw(st.lists(rationals(12, 4), min_size=len(xcuts), max_size=len(xcuts)))
    tail = draw(rationals(12, 4)) if alpha != INF or draw(st.booleans()) else F(0)
    x = canonicalize(xcuts, values, tail, alpha)
    if draw(st.integers(0, 4)) == 0:
        return x, Hyperbolic(draw(rationals(6, 3, signed=False).filter(lambda q: q > 0)))
    pcuts = cuts(4)
    slopes = sorted(set(draw(st.lists(rationals(8, 4, signed=False),
                                      min_size=len(pcuts) + 1, max_size=len(pcuts) + 1))),
                    reverse=True)
    pcuts = pcuts[:len(slopes) - 1]
    jump0 = draw(st.sampled_from([F(0), F(1, 2), F(2)]))
    if jump0 == 0 and slopes[0] == 0:
        jump0 = F(1)
    nodes, v, prev = [], jump0, F(0)
    for c, m in zip(pcuts, slopes):
        v += m * (c - prev)
        nodes.append(v)
        prev = c
    return x, plc_from_nodes(pcuts, nodes, slopes[len(pcuts)], jump0, alpha)


def grid(x, phi):
    """Grid points in (0, horizon]: past every cut on [0, inf), up to 1 on [0, 1)."""
    if x.alpha != INF:
        return [F(j, 96) for j in range(1, 97)]
    last = max([F(0), *x.cuts, *getattr(phi, "cuts", ())])
    return [F(j, 8) for j in range(1, 8 * (math.floor(last) + 3) + 1)]


def phi_at(phi, t):
    if isinstance(phi, Hyperbolic):
        return t / (phi.c + t)
    return phi.value_at(t)


@SETTINGS
@given(aligned_cases())
def test_marcinkiewicz_norm_against_the_grid_maximum(case):
    x, phi = case
    nodes, star = phi_nodes(x)
    best = max(phi_at(phi, t) * phi_x(nodes, star, t) / t for t in grid(x, phi))
    exact = norm(SpaceSpec("Marcinkiewicz", phi, x.alpha), x)
    assert best <= exact
    if x.alpha != INF or star.tail == 0:
        assert best == exact


@SETTINGS
@given(aligned_cases())
def test_marcinkiewicz_star_norm_against_the_grid_maximum(case):
    x, phi = case
    star = _sorted_oracle_star(x)
    points = [t for t in grid(x, phi) if t < x.alpha]
    best = max(phi_at(phi, t) * at(star, t) for t in points)
    assert best <= norm(SpaceSpec("MarcinkiewiczStar", phi, x.alpha), x)


# -- the hlp suite's grid oracle -----------------------------------------------


def scan_phi_le(x, y, grid):
    """The first t_j = j*h, 0 < j <= grid, with Phi_x(t_j) > Phi_y(t_j), or
    None: every grid point in turn, on the horizon of ``gen._phi_grid_le``."""
    (nx, sx), (ny, sy) = phi_nodes(x), phi_nodes(y)
    horizon = max(nx[-1][0], ny[-1][0], F(1)) + 2 if x.alpha == INF else F(1)
    h = horizon / grid
    for j in range(1, grid + 1):
        if phi_x(nx, sx, h * j) > phi_x(ny, sy, h * j):
            return h * j
    return None


def slope_at(x, t):
    """x*(t-), the slope of Phi_x on the piece that ends at or past t > 0."""
    return phi_branch(*phi_nodes(x), t)[1]


# Phi_x - Phi_y is t on (0, 1], then 1 on (1, inf): a coarse grid first
# meets it where it is constant
FLAT_GAP = (canonicalize([F(1), F(5)], [F(3), F(1)], 0, INF),
            canonicalize([F(1), F(5)], [F(2), F(1)], 0, INF))


def hlp_pairs(alpha, count=30):
    """(x, y) pairs of the hlp suite's kinds on one domain: majorized pairs
    in both orders, unrelated pairs, x with itself, and on [0, inf) FLAT_GAP
    and pairs that share their last pieces."""
    rng = random.Random(0 if alpha == INF else 1)
    pairs = [FLAT_GAP] if alpha == INF else []
    for _ in range(count):
        y, x = gen.majorized_pair(rng, alpha)
        u, v = gen.rand_step(rng, alpha, max_pieces=8), gen.rand_step(rng, alpha, max_pieces=8)
        pairs += [(x, y), (y, x), (u, v), (u, u)]
        if alpha == INF:  # the same star past the first piece, a larger head
            star = _sorted_oracle_star(u)
            if star.cuts:
                pairs.append((canonicalize(star.cuts, [star.values[0] + 1, *star.values[1:]],
                                           star.tail, INF), star))
    return pairs


@pytest.mark.parametrize("alpha", [INF, F(1)], ids=["inf", "one"])
def test_phi_grid_le_finds_the_first_hit_of_a_point_by_point_scan(alpha):
    hits = flat_hits = 0
    for grid in (1, 2, 7, 64, 500):
        for x, y in hlp_pairs(alpha):
            hit = gen._phi_grid_le(x, y, grid)
            assert hit == scan_phi_le(x, y, grid), (x.to_json(), y.to_json(), grid)
            if hit is not None:
                hits += 1
                flat_hits += slope_at(x, hit) == slope_at(y, hit)
    # the corpus meets hits, and hits on segments where Phi_x - Phi_y is constant
    assert hits > 50 and flat_hits > 0


def test_phi_grid_le_on_a_constant_gap():
    x, y = FLAT_GAP
    assert gen._phi_grid_le(x, y, 1) == 7  # the one grid point, past the last cut
    assert gen._phi_grid_le(x, y, 7) == 1  # the first grid point t = 1 is a hit
    assert gen._phi_grid_le(x, y, 8) == F(7, 8)
    assert gen._phi_grid_le(y, x, 500) is None
    assert gen._phi_grid_le(x, x, 500) is None  # Phi_x - Phi_x = 0 on every segment


def test_the_hlp_oracle_and_witness_check_use_no_rearrangement(monkeypatch):
    pairs = hlp_pairs(INF, 10) + hlp_pairs(F(1), 10)
    hits = [gen._phi_grid_le(x, y, 64) for x, y in pairs]
    # what _hlp_problems(y, x) asks: y ≺ x, and x ≺ x
    verdicts = {(id(u), id(x)): majorize.hlp_compare(u, x)
                for x, y in pairs for u in (x, y)}
    problems = [gen._hlp_problems(y, x) for x, y in pairs]
    assert {holds for _, holds in problems} == {True, False}

    def broken(x):
        raise AssertionError("rearrange called")

    monkeypatch.setattr(rearrange, "_rearrange", broken)
    monkeypatch.setattr(majorize, "hlp_compare", lambda y, x: verdicts[id(y), id(x)])
    assert [gen._phi_grid_le(x, y, 64) for x, y in pairs] == hits
    assert [gen._hlp_problems(y, x) for x, y in pairs] == problems


def test_the_hlp_suite_catches_a_rearrangement_that_drops_a_group(monkeypatch):
    real = rearrange._sorted_star

    def drops_the_first_group(x):
        star = real(x)
        lengths = [c - p for p, c in zip((0, *star.cuts), star.cuts)]
        return canonicalize(list(accumulate(lengths[1:])), star.values[1:], star.tail,
                            star.alpha)

    rearrange._rearrange.cache_clear()
    monkeypatch.setattr(rearrange, "_sorted_star", drops_the_first_group)
    try:
        res = gen.run_hlp_suite(40, 0)
    finally:
        rearrange._rearrange.cache_clear()
    problems = [p for f in res.failures for p in f["problems"]]
    assert any(p.startswith("grid oracle found violation") or p == "witness does not witness"
               for p in problems), problems
