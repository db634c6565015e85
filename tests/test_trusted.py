"""Objects built on the trusted path are canonical, and hash like their equals.

Canonical-by-construction objects (``canonicalize``'s merge, the algebra on
canonical operands, ``window``, the rearrangement's star and level integral)
skip ``__post_init__``, and so does the flattening that splices a cut
list.  Each one is rebuilt here through the public constructor, which
coerces and validates everything, and must come back equal, with the same
exact types.  That constructor runs the same merge, so the canonical form
is also checked with Fraction comparisons of the test's own.  The Fractions the int-pair sums build from reduced pairs
must equal, and hash like, Fractions built the usual way.  The stored
slope function of a concave function is checked against the quotients of
its nodes.  A StepFunction's hash reads every field below 16 cuts and a
strided sample above; functions that differ only off the sample collide
and still get their own rearrangements.  The x = x* test runs once per instance, and on every
construction route the flag it keeps agrees with the definition; the star
of a rearrangement, a flattening and a concave function's slope are
flagged when they are built.  Every builder stores a function as the flat
int tuples of its pairs (cuts, then values with the tail last), and the
Fraction fields, stored by the builders that hold them or built on first
read, are the Fractions of those pairs; every consumer gives the same on a
copy that holds only the int tuples.
"""

import json
import sys
from fractions import Fraction as F
from itertools import chain

from hypothesis import given, settings, strategies as st

from rearrcalc import (
    INF,
    PiecewiseLinearConcave,
    StepFunction,
    block,
    box,
    canonicalize,
    constant,
    exceedance_measure,
    integrate,
    is_decreasing_rearrangement,
    rearrangement,
    stepfn,
)
from rearrcalc.errors import InfiniteIntegralError
from rearrcalc.gen import _sorted_oracle_star
from rearrcalc.majorize import _flatten, _require_star
from rearrcalc.rearrange import _rearrange
from rearrcalc.spaces import SpaceSpec, norm
from rearrcalc.stepfn import _frac, _sums, _total, _trusted, plc_from_nodes, refine
from test_walks import at, rationals, sorted_star, step_functions, window_ends

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


def assert_cuts_inside(cuts, alpha) -> None:
    """Cuts strictly increasing inside (0, alpha), by Fraction comparisons."""
    ends = (F(0), *cuts)
    assert all(a < b for a, b in zip(ends, ends[1:]))
    assert alpha == INF or not cuts or cuts[-1] < alpha


def revalidated(f: StepFunction) -> StepFunction:
    """f rebuilt through the validating constructor, with its field types
    and, independently of the constructor's merge, its canonical form checked."""
    assert f.alpha == INF or (type(f.alpha) is F and f.alpha == 1)
    assert type(f.cuts) is tuple and type(f.values) is tuple
    assert all(type(q) is F for q in (*f.cuts, *f.values, f.tail))
    assert_cuts_inside(f.cuts, f.alpha)
    assert all(a != b for a, b in zip(f.values, f.values[1:]))  # neighbours distinct
    assert not f.values or f.values[-1] != f.tail
    g = StepFunction(f.alpha, f.cuts, f.values, f.tail)
    assert g == f and hash(g) == hash(f)
    return g


def revalidated_plc(phi: PiecewiseLinearConcave) -> None:
    assert all(type(q) is F for q in (*phi.cuts, *phi.node_values, phi.final_slope, phi.jump0))
    rebuilt = PiecewiseLinearConcave(phi.alpha, phi.cuts, phi.node_values,
                                     phi.final_slope, phi.jump0)
    assert rebuilt == phi
    quotients, ps, pv = [], F(0), phi.jump0
    for s, v in zip(phi.cuts, phi.node_values):
        quotients.append((v - pv) / (s - ps))
        ps, pv = s, v
    assert list(phi.slope.values) == quotients
    assert (phi.slope.cuts, phi.slope.tail) == (phi.cuts, phi.final_slope)
    # canonical, independently of the constructor's merge: cuts inside the
    # domain, slopes nonnegative and strictly decreasing, no negative jump
    assert_cuts_inside(phi.cuts, phi.alpha)
    slopes = [*quotients, phi.final_slope]
    assert slopes[-1] >= 0 and all(a > b for a, b in zip(slopes, slopes[1:]))
    assert phi.jump0 >= 0


@st.composite
def raw_pieces(draw):
    """Raw canonicalize input whose values repeat, so the merge has work."""
    alpha = draw(st.sampled_from([INF, F(1)]))
    k = draw(st.integers(0, 10))
    if alpha == INF:
        cuts = sorted(set(draw(st.lists(rationals(40, 4, signed=False).filter(bool),
                                        max_size=k))))
    else:
        cuts = sorted(set(draw(st.lists(st.builds(F, st.integers(1, 23), st.just(24)),
                                        max_size=k))))
    value = st.sampled_from([F(-1), F(0), F(1, 2), F(1), F(2)])
    values = draw(st.lists(value, min_size=len(cuts), max_size=len(cuts)))
    return cuts, values, draw(value), alpha


@st.composite
def stars(draw):
    """x = x*: values strictly decreasing down to a tail >= 0."""
    alpha = draw(st.sampled_from([INF, F(1)]))
    values = sorted(set(draw(st.lists(rationals(24, 6, signed=False), max_size=9))),
                    reverse=True)
    tail, values = values[-1] if values else F(0), values[:-1]
    if alpha == INF:
        cuts, acc = [], F(0)
        for step in draw(st.lists(rationals(12, 4, signed=False).filter(bool),
                                  min_size=len(values), max_size=len(values))):
            acc += step
            cuts.append(acc)
    else:
        cuts = sorted(draw(st.sets(st.integers(1, 47), min_size=len(values),
                                   max_size=len(values))))
        cuts = [F(c, 48) for c in cuts]
    return canonicalize(cuts, values, tail, alpha)


def uncached_rearrangement(x: StepFunction):
    # the cache would hand back the result of an equal function seen earlier
    return _rearrange.__wrapped__(x)


def copy_of(f: StepFunction) -> StepFunction:
    """An equal but distinct object, through the JSON boundary."""
    g = StepFunction.from_json(json.loads(json.dumps(f.to_json())))
    assert g == f and g is not f
    return g


@SETTINGS
@given(raw_pieces())
def test_canonicalize_output_is_canonical(raw):
    cuts, values, tail, alpha = raw
    revalidated(canonicalize(cuts, values, tail, alpha))


@SETTINGS
@given(x=step_functions(), data=st.data())
def test_algebra_results_are_canonical(x, data):
    y = data.draw(step_functions(alpha=x.alpha))
    c = data.draw(rationals())
    for f in (x + y, x - y, x * y, abs(x), -x, x.scale(c), x * c, c * x,
              x.positive_part()):
        revalidated(f)
    revalidated(x.window(*window_ends(x, data.draw)))


@SETTINGS
@given(step_functions(max_pieces=12))
def test_rearrangement_of_any_function_is_canonical(x):
    rr = rearrangement(x)
    assert revalidated(rr.star) == sorted_star(x)
    revalidated_plc(rr.level_integral)
    assert rr.level_integral.cuts == rr.star.cuts
    assert rr.level_integral.slope.values == rr.star.values
    assert rr.level_integral.final_slope == rr.star.tail == rr.star_at_infinity


@SETTINGS
@given(stars())
def test_a_star_passes_through(x):
    rr = uncached_rearrangement(x)
    assert rr.star is x
    assert revalidated(rr.star) == sorted_star(x)
    revalidated_plc(rr.level_integral)
    assert rr.level_integral.slope.values == x.values


@SETTINGS
@given(step_functions(max_pieces=12))
def test_only_a_star_passes_through(x):
    assert (uncached_rearrangement(x).star is x) == (sorted_star(x) == x)


@SETTINGS
@given(stars())
def test_equal_functions_hash_equal_however_built(x):
    raw = x.to_json()
    by_json = StepFunction.from_json(json.loads(json.dumps(raw)))
    by_canonicalize = canonicalize(x.cuts, x.values, x.tail, x.alpha)
    by_arithmetic = by_json + constant(0, x.alpha)
    by_pass_through = uncached_rearrangement(copy_of(x)).star
    built = [by_json, by_canonicalize, by_arithmetic, by_pass_through]
    assert len({id(f) for f in built}) == len(built)
    for f in built:
        assert f == x and hash(f) == hash(x)


@SETTINGS
@given(step_functions(max_pieces=12))
def test_an_equal_distinct_function_hits_the_cache(x):
    first, second = copy_of(x), copy_of(x)
    assert first is not second and hash(first) == hash(second)
    rearrangement(first)
    before = _rearrange.cache_info()
    rr = rearrangement(second)
    after = _rearrange.cache_info()
    assert after.hits == before.hits + 1 and after.misses == before.misses
    assert rr.star == sorted_star(x)


@SETTINGS
@given(stars(), st.data())
def test_flatten_output_is_canonical(x, data):
    # 0 <= a < b < alpha, with a and b on x's cuts as often as between them
    end = x.alpha if x.alpha != INF else x.support_bound + 2
    points = st.one_of(st.sampled_from([F(0), *x.cuts]),
                       st.builds(lambda k: end * F(k, 64), st.integers(0, 63)))
    a, b = sorted(data.draw(st.sets(points, min_size=2, max_size=2)))
    phi = rearrangement(x).level_integral
    avg = (phi.value_at(b) - phi.value_at(a)) / (b - a)
    y = revalidated(_flatten(x, a, b, avg))
    assert y == x.window(0, a) + block(avg, a, b, x.alpha) + x.window(b, None)


@SETTINGS
@given(st.lists(st.tuples(st.integers(-10**20, 10**20), st.integers(1, 10**12)),
                max_size=12))
def test_int_pair_sums_are_exact_fractions(pairs):
    running = [_frac(n, d) for n, d in _sums(pairs)]
    expected, acc = [], F(0)
    for n, d in pairs:
        acc += F(n, d)
        expected.append(acc)
    assert running == expected
    assert all(type(q) is F and hash(q) == hash(e) for q, e in zip(running, expected))
    total = _total(pairs)
    assert type(total) is F and total == acc and hash(total) == hash(acc)


# -- the sampled hash and the memoized star test ------------------------------


def long_function(n=2000, alpha=INF, cuts_at=None, values_at=None):
    """n pieces with values 1, 2, 3, 1, 2, 3, ... over the cuts k/(n + 1),
    k = 1..n, scaled by n + 1 on [0, inf); ``cuts_at`` and ``values_at``
    map an index to a replacement."""
    scale = n + 1 if alpha == INF else 1
    cuts = [F(k, n + 1) * scale for k in range(1, n + 1)]
    values = [F(k % 3 + 1) for k in range(n)]
    for i, c in (cuts_at or {}).items():
        cuts[i] = c
    for i, v in (values_at or {}).items():
        values[i] = v
    return canonicalize(cuts, values, 0, alpha)


def test_functions_equal_on_the_hash_sample_get_their_own_rearrangements():
    x = long_function()
    stride = len(x.cuts) // 16 + 1
    assert stride > 1
    # index 1 is off the sample (0, stride, 2*stride, ...)
    others = [long_function(values_at={1: F(7)}),
              long_function(cuts_at={1: F(3, 2)}),
              long_function(cuts_at={1: F(3, 2)}, values_at={1: F(7)})]
    for y in others:
        assert len(y.cuts) == len(x.cuts)
        assert hash(y) == hash(x) and y != x
        _rearrange.cache_clear()
        stars = [rearrangement(x).star, rearrangement(y).star]
        assert _rearrange.cache_info().misses == 2
        assert stars == [_sorted_oracle_star(x), _sorted_oracle_star(y)]
        assert stars[0] != stars[1]
    # equal functions built two ways hash equal at this size too
    same = long_function() + constant(0, INF)
    assert same is not x and same == x and hash(same) == hash(x)


def test_short_functions_hash_every_field():
    for n in (1, 8, 15):
        for alpha in (INF, F(1)):
            x = long_function(n, alpha)
            assert len(x.cuts) == n
            step = x.cuts[0] / 2  # a cut moved by this stays inside its neighbours
            for i in range(n):
                moved = long_function(n, alpha, cuts_at={i: x.cuts[i] - step})
                other = long_function(n, alpha, values_at={i: F(9)})
                assert hash(moved) != hash(x) and hash(other) != hash(x)
            assert hash(canonicalize(x.cuts, x.values, 5, alpha)) != hash(x)


def counting_star_tests(monkeypatch, calls: list) -> None:
    """Append f to calls each time the star test reads f's value pairs; no
    other code reads them from inside ``is_decreasing_rearrangement``."""
    read = stepfn._value_pairs

    def counting(f, *step):
        if sys._getframe(1).f_code.co_name == "is_decreasing_rearrangement":
            calls.append(f)
        return read(f, *step)

    monkeypatch.setattr(stepfn, "_value_pairs", counting)


def test_star_test_runs_once_per_instance(monkeypatch):
    calls = []
    counting_star_tests(monkeypatch, calls)
    x = canonicalize([1, 2, 3], [5, 4, 2], 1, INF)
    _rearrange.cache_clear()
    assert _require_star(x, "x").star is x  # the star test, then the cache miss
    assert calls == [x]
    assert is_decreasing_rearrangement(x) and calls == [x]
    # not a star: the miss tests it, then sorts
    y = long_function(40)
    assert rearrangement(y).star == _sorted_oracle_star(y)
    assert not is_decreasing_rearrangement(y)
    assert calls == [x, y]


# -- the star flag on every construction route --------------------------------


def is_star_by_definition(f: StepFunction) -> bool:
    """f = f*: f equals the rearrangement of a plain sort of its pieces."""
    return sorted_star(f) == f


def flagged_at_birth(f: StepFunction) -> StepFunction:
    """f, which must carry the star flag before anything asks."""
    assert vars(f).get("_is_star") is True
    return f


@SETTINGS
@given(x=st.one_of(step_functions(max_pieces=10), stars(), stars().map(lambda f: -f)),
       data=st.data())
def test_the_star_flag_agrees_with_the_definition_on_every_route(x, data):
    routes = [
        StepFunction(x.alpha, x.cuts, x.values, x.tail),  # the public constructor
        flagged_at_birth(uncached_rearrangement(x).star),  # sorted, or passed through
        -x, x.scale(data.draw(rationals())), x + data.draw(step_functions(alpha=x.alpha)),
    ]
    star = routes[1]
    phi = uncached_rearrangement(star).level_integral
    assert phi.slope is star  # the pass-through: the trusted level integral's slope
    public = PiecewiseLinearConcave(phi.alpha, phi.cuts, phi.node_values, phi.final_slope)
    routes.append(flagged_at_birth(public.slope))
    # a flattening of the star over [a, b), with a and b on its cuts as
    # often as between them
    end = star.alpha if star.alpha != INF else star.support_bound + 2
    points = st.one_of(st.sampled_from([F(0), *star.cuts]),
                       st.builds(lambda k: end * F(k, 64), st.integers(0, 63)))
    a, b = sorted(data.draw(st.sets(points, min_size=2, max_size=2)))
    avg = (phi.value_at(b) - phi.value_at(a)) / (b - a)
    routes.append(flagged_at_birth(_flatten(star, a, b, avg)))
    for f in routes:
        expected = is_star_by_definition(f)
        assert is_decreasing_rearrangement(f) == expected
        assert vars(f)["_is_star"] == expected


# -- the stored form: flat int pairs, with the Fractions built on first read ---


def flat(qs) -> tuple:
    return (*chain.from_iterable(q.as_integer_ratio() for q in qs),)


def keeps_its_pairs(f: StepFunction) -> StepFunction:
    """f stores the int pairs of its cuts, and of its values with the tail
    last, as flat int tuples; its Fraction fields, stored by its builder or
    built on first read and then kept, are the Fractions of those pairs."""
    kept = vars(f)
    ints = kept["_cut_ints"], kept["_value_ints"]
    assert all(type(t) is tuple and all(type(i) is int for i in t) for t in ints)
    for name in ("cuts", "values", "tail"):
        first = getattr(f, name)
        assert kept[name] is first and getattr(f, name) is first
    assert type(f.tail) is F and all(type(q) is F for q in (*f.cuts, *f.values))
    assert ints == (flat(f.cuts), flat((*f.values, f.tail)))
    return f


def ints_only(f: StepFunction) -> StepFunction:
    """f's stored form in a trusted copy that holds no Fraction field yet."""
    g = _trusted(StepFunction, alpha=f.alpha, _cut_ints=f._cut_ints, _value_ints=f._value_ints)
    assert not {"cuts", "values", "tail"} & set(vars(g))
    return g


def diverging_as_none(op, *args):
    try:
        return op(*args)
    except InfiniteIntegralError:
        return None


@SETTINGS
@given(raw=raw_pieces(), data=st.data())
def test_every_builder_keeps_int_pairs_its_fractions_equal_and_readers_agree(raw, data):
    cuts, values, tail, alpha = raw
    f = keeps_its_pairs(canonicalize(cuts, values, tail, alpha))
    y = data.draw(step_functions(alpha=alpha))
    a, b = window_ends(f, data.draw)
    c = data.draw(rationals())
    width = data.draw(st.sampled_from([F(1, 3), F(1, 2), F(5, 2)]) if alpha == INF
                      else st.sampled_from([F(1, 3), F(1, 2)]))
    star = uncached_rearrangement(f).star
    end = star.alpha if star.alpha != INF else star.support_bound + 2
    phi = uncached_rearrangement(star).level_integral
    s0, s1 = end / 4, end / 2  # a flattening of the star over [s0, s1)
    routes = [StepFunction(f.alpha, f.cuts, f.values, f.tail),
              StepFunction.from_json(json.loads(json.dumps(f.to_json()))),
              box(c, width, alpha), constant(c, alpha), block(c, a, b, alpha),
              f + y, f - y, f * y, f * c, -f, abs(f), f.positive_part(), f.window(a, b),
              star, uncached_rearrangement(-f).star,
              _flatten(star, s0, s1, (phi.value_at(s1) - phi.value_at(s0)) / (s1 - s0))]
    if cuts:
        routes.append(plc_from_nodes(cuts, [c * 2 for c in cuts], 1, 0, alpha).slope)
    for g in routes:
        # fresh objects first, then read through the public constructor
        revalidated(keeps_its_pairs(g))
        # g(t) bisects the int pairs: at 0, at every cut and between cuts
        points = [F(0), *g.cuts, *((p + q) / 2 for p, q in zip((F(0), *g.cuts), g.cuts))]
        assert [g(t) for t in points] == [at(g, t) for t in points]
    lam = data.draw(rationals(signed=False))
    hi = alpha if b is None or b == INF else b
    readers = [is_decreasing_rearrangement, hash, lambda x: refine(x, y),
               lambda x: refine(y, x), _rearrange.__wrapped__, lambda x: x.window(a, b),
               lambda x: diverging_as_none(integrate, x, a, hi),
               lambda x: exceedance_measure(x, lam),
               lambda x: norm(SpaceSpec("L1", alpha=alpha), x),
               lambda x: norm(SpaceSpec("Linf", alpha=alpha), x),
               lambda x: x, repr, StepFunction.to_json]
    for read in readers:
        assert read(f) == read(ints_only(f))
