"""No Fraction operator runs per piece in the int-pair kernels.

``refine``, ``+`` and ``-``, ``x * c``, ``x * y``, ``abs``, the merge pass
behind ``window``, ``integrate`` and ``canonicalize``, the cut check of
every constructor, ``exceedance_measure``, the L-infinity norm, the
rearrangement's grouping, ``value_at`` and the star-pair consumers on
``stepfn``'s walk (``hlp_compare``, ``maximal_distance`` and both
Marcinkiewicz norms) read cuts and values as (numerator, denominator) int
pairs once and compare, add or multiply ints.  The tests here count the
Fraction operator calls they make on 2,000-piece operands: a constant
number, plus O(log n) for a bisection.  A domain endpoint is one of two
singletons, so no Fraction is compared with the float infinity either.
They also count the gcd calls of a cold rearrangement, which groups the
lengths of equal |values| over the lcm of their denominators.
Every builder stores a function as the flat int tuples of its pairs, 16
bytes a pair, so the kernels read none of an operand's pieces through
``Fraction.as_integer_ratio``, whichever builder made it, and ``==``
makes no Fraction call.  Results are compared with Fraction-operator
references in ``test_walks`` and with ``perfbench/reference.py`` in
``test_reference``.
"""

import math
import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from rearrcalc import (
    INF,
    PiecewiseLinearConcave,
    canonicalize,
    experiments,
    majorize,
    rearrange,
    spaces,
    stepfn,
)
from rearrcalc.majorize import hlp_compare
from rearrcalc.spaces import _KINDS, Hyperbolic, SpaceSpec, norm
from rearrcalc.stepfn import exceedance_measure, integrate

PIECES = 2000
#: the Fraction methods counted: comparisons, the four arithmetic operators,
#: abs and negation, and the ``numerator`` and ``denominator`` properties
COUNTED = ("__eq__", "_richcmp", "__add__", "__sub__", "__mul__", "__truediv__",
           "__abs__", "__neg__")


@pytest.fixture
def fraction_calls(monkeypatch):
    """Counts of the COUNTED Fraction methods and properties, from when it
    is cleared."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in COUNTED:
        monkeypatch.setattr(F, name, counting(name, vars(F)[name]))
    for name in ("numerator", "denominator"):
        monkeypatch.setattr(F, name, property(counting(name, vars(F)[name].fget)))
    return counts


def large_operand(rng, alpha):
    """Cuts k/8 on [0, inf) or k/(16n + 1) on [0, 1), so neighbours often
    share a denominator; values r/q with q <= 8, so |values| repeat."""
    den = 16 * PIECES + 1
    if alpha == INF:
        cuts = [F(k, 8) for k in sorted(rng.sample(range(1, 100 * PIECES), PIECES))]
    else:
        cuts = [F(k, den) for k in sorted(rng.sample(range(1, den), PIECES))]
    values = [F(rng.randint(-24, 24), rng.randint(1, 8)) for _ in cuts]
    return canonicalize(cuts, values, 0, alpha)


def raw_pieces(rng, alpha):
    """Breakpoints, values and tail for ``canonicalize``, as large_operand
    draws them, with runs of equal neighbours to merge."""
    x = large_operand(rng, alpha)
    values = [v for v in x.values for _ in (0, 1)][:len(x.cuts)]
    return list(x.cuts), values, x.tail


def long_star(alpha):
    """A star with PIECES strictly decreasing values and a positive tail, so
    its level integral has PIECES nodes and a positive final slope."""
    den = 1 if alpha == INF else PIECES + 1
    cuts = [F(k, den) for k in range(1, PIECES + 1)]
    return canonicalize(cuts, [F(PIECES + 1 - k, 3) for k in range(PIECES)], F(1, 7), alpha)


def plc_phi(alpha):
    """A concave polyline with a jump at 0, three cuts and a positive final slope."""
    cuts = (F(1, 3), F(1, 2), F(3, 4)) if alpha != INF else (F(3), F(40), F(900))
    slopes = (F(5), F(3), F(2), F(1, 2))
    nodes, v, prev = [], F(1, 4), F(0)
    for c, m in zip(cuts, slopes):
        v += m * (c - prev)
        nodes.append(v)
        prev = c
    return PiecewiseLinearConcave(alpha, cuts, nodes, slopes[-1], F(1, 4))


def cold(op):
    """op with an empty rearrangement cache, so every rearrangement runs."""
    def run():
        rearrange._rearrange.cache_clear()
        return op()
    return run


@pytest.mark.parametrize("alpha", [INF, F(1)])
def test_kernels_make_no_fraction_operator_call_per_piece(alpha, fraction_calls):
    rng = random.Random(2000)
    x, y = large_operand(rng, alpha), large_operand(rng, alpha)
    a, b = x.cuts[PIECES // 5], x.cuts[4 * PIECES // 5]
    linf = SpaceSpec("Linf", alpha=alpha)
    spaces = [SpaceSpec(kind, phi, alpha) for kind in ("Marcinkiewicz", "MarcinkiewiczStar")
              for phi in (plc_phi(alpha), Hyperbolic(F(7, 2)))]
    # bisect_left and bisect_right; each compare reads the other operand's
    # numerator and denominator too
    bisect_calls = 3 * 2 * PIECES.bit_length()
    lam = F(7, 3)
    cuts, values, tail = raw_pieces(rng, alpha)
    phi = rearrange.level_integral(long_star(alpha))
    at = [phi.cuts[PIECES // 3], (phi.cuts[PIECES // 2] + phi.cuts[PIECES // 2 + 1]) / 2,
          phi.cuts[-1] + F(1, 3) if alpha == INF else F(1)]
    ops = [("x + y", lambda: x + y, 16),
           ("x - y", lambda: x - y, 16),
           ("x * c", lambda: x * F(-5, 6), 16),
           ("x * y", lambda: x * y, 16),
           ("abs", lambda: abs(x), 16),
           ("canonicalize", lambda: canonicalize(cuts, values, tail, alpha), 16),
           ("exceedance_measure", lambda: exceedance_measure(x, lam), 16),
           ("window", lambda: x.window(a, b), 32 + bisect_calls),
           ("integrate", lambda: integrate(x, a, b), 32 + bisect_calls),
           ("norm Linf", lambda: norm(linf, x), 16),
           ("rearrangement", cold(lambda: rearrange.rearrangement(x)), 32),
           ("hlp_compare", cold(lambda: hlp_compare(y, x)), 64),
           ("maximal_distance", cold(lambda: experiments.maximal_distance(x, y, F(3, 2))), 64)]
    ops += [(f"norm {s.kind} {type(s.phi).__name__}", cold(lambda s=s: norm(s, x)),
             64 + bisect_calls) for s in spaces]
    # one bisection of phi's cuts, three counted calls per compare
    ops += [(f"value_at {t}", lambda t=t: phi.value_at(t), bisect_calls // 2) for t in at]
    for name, op, bound in ops:
        fraction_calls.clear()
        op()
        calls = sum(fraction_calls.values())
        assert calls <= bound, (name, dict(fraction_calls))
    assert 64 + bisect_calls < min(len(x.cuts), len(y.cuts)) // 10  # far below n
    assert len(phi.cuts) == PIECES


def test_no_fraction_is_compared_with_a_float_on_the_unit_interval(monkeypatch):
    """On [0, 1) every operand's alpha is the singleton 1, tested by
    identity, so no Fraction.__eq__ meets the float infinity."""
    rng = random.Random(2001)
    x = large_operand(rng, F(1))
    a, b = x.cuts[PIECES // 5], x.cuts[4 * PIECES // 5]
    spaces = [SpaceSpec(kind, None, F(1)) for kind in _KINDS[:3]]
    spaces += [SpaceSpec(kind, phi, F(1)) for kind in _KINDS[3:]
               for phi in (plc_phi(F(1)), Hyperbolic(F(7, 2)))]
    float_args = []
    eq = F.__eq__

    def recording(self, other):
        if isinstance(other, float):
            float_args.append(other)
        return eq(self, other)

    monkeypatch.setattr(F, "__eq__", recording)
    ops = [lambda: x.window(a, b), lambda: x.window(a), lambda: integrate(x, a, b),
           lambda: integrate(x, 0, 1), lambda: exceedance_measure(x, F(1, 2))]
    ops += [cold(lambda s=s: norm(s, x)) for s in spaces]
    for op in ops:
        op()
    assert float_args == []


@pytest.mark.parametrize("alpha", [INF, F(1)])
def test_a_cold_rearrangement_makes_fewer_gcd_calls_than_half_its_pieces(alpha, monkeypatch):
    x = large_operand(random.Random(7), alpha)
    calls = Counter()
    gcd = math.gcd

    def counting(*args):
        calls["gcd"] += 1
        return gcd(*args)

    # math.gcd itself (Fraction's constructor looks it up there) and the
    # modules' own bindings of it
    for owner in (math, stepfn, rearrange):
        monkeypatch.setattr(owner, "gcd", counting)
    rearrange._rearrange.cache_clear()
    rearrange.rearrangement(x)
    assert len(x.cuts) > 0.95 * PIECES
    assert calls["gcd"] < len(x.cuts) // 2


@pytest.mark.parametrize("alpha", [INF, F(1)])
def test_equality_of_step_functions_makes_no_fraction_call(alpha, fraction_calls):
    """``==`` compares the domains and the stored int tuples."""
    rng = random.Random(2004)
    x, y = large_operand(rng, alpha), large_operand(rng, alpha)
    pairs = [(x, canonicalize(x.cuts, x.values, x.tail, alpha)), (x + y, y + x),
             (x, x.window(0)), (abs(x), abs(-x))]
    values = list(x.values)
    values[PIECES // 2] += 1
    other = canonicalize(x.cuts, values, x.tail, alpha)
    fraction_calls.clear()
    for f, g in pairs:
        assert f is not g and f == g and not f != g
    assert x != other and x != y
    assert not fraction_calls, dict(fraction_calls)


@pytest.fixture
def ratio_calls(monkeypatch):
    """A count of the int-pair reads, ``_ratio``, through the binding of every
    module that reads pieces (``raising=False``: some bind none today)."""
    calls = Counter()
    ratio = stepfn._ratio

    def counting(q):
        calls["_ratio"] += 1
        return ratio(q)

    for module in (stepfn, rearrange, majorize, spaces, experiments):
        monkeypatch.setattr(module, "_ratio", counting, raising=False)
    return calls


@pytest.mark.parametrize("alpha", [INF, F(1)])
def test_kernels_read_no_piece_of_a_canonicalized_operand_again(alpha, ratio_calls):
    """Nor of an operand built by ``+``, ``abs``, ``window`` or the sorted
    rearrangement: every builder stores the int pairs."""
    rng = random.Random(2002)
    x, y = large_operand(rng, alpha), large_operand(rng, alpha)
    a, b = x.cuts[PIECES // 5], x.cuts[4 * PIECES // 5]
    ratio_calls.clear()  # the counter sees every read: canonicalize reads each piece
    canonicalize(x.cuts, x.values, x.tail, alpha)
    assert ratio_calls["_ratio"] > PIECES
    operands = [("canonicalize", x), ("x + y", x + y), ("abs", abs(x)),
                ("window", x.window(x.cuts[10], x.cuts[-10])),
                ("sorted star", cold(lambda: rearrange.rearrangement(x).star)())]
    ops = [("+ y", lambda u: u + y),
           ("rearrangement", lambda u: cold(lambda: rearrange.rearrangement(u))()),
           ("window", lambda u: u.window(a, b)),
           ("integrate", lambda u: integrate(u, a, b)),
           ("integrate to alpha", lambda u: integrate(u, a, alpha)),
           ("exceedance_measure", lambda u: exceedance_measure(u, F(7, 3))),
           ("norm L1", lambda u: norm(SpaceSpec("L1", alpha=alpha), u)),
           ("norm Linf", lambda u: norm(SpaceSpec("Linf", alpha=alpha), u)),
           ("hash", hash)]
    for built, u in operands:
        assert len(u.cuts) > 100, built  # the sorted star has about 125 distinct values
        for name, op in ops:
            ratio_calls.clear()
            op(u)
            assert ratio_calls["_ratio"] <= 8, (built, name)  # the scalars: bounds, tails, levels


@pytest.mark.parametrize("alpha", [INF, F(1)])
def test_kept_pairs_are_two_flat_int_tuples(alpha):
    """An n-cut function keeps 2n + 2(n + 1) ints, no spare slot and no
    pair tuple: a tuple of pairs would take four times the bytes."""
    x = large_operand(random.Random(2003), alpha)
    kept = [vars(x)["_cut_ints"], vars(x)["_value_ints"]]
    assert all(type(t) is tuple for t in kept)
    assert all(type(i) is int for t in kept for i in t)
    slots = sum(sys.getsizeof(t) - sys.getsizeof(()) for t in kept) // tuple.__itemsize__
    assert slots == 2 * (2 * len(x.cuts) + 1)


@pytest.mark.parametrize("alpha", [INF, F(1)])
def test_times_zero_is_the_zero_constant_without_a_gcd(alpha, monkeypatch):
    x = large_operand(random.Random(2005), alpha)
    calls = Counter()
    gcd = math.gcd

    def counting(*args):
        calls["gcd"] += 1
        return gcd(*args)

    for owner in (math, stepfn):
        monkeypatch.setattr(owner, "gcd", counting)
    zero = stepfn.constant(0, alpha)
    for product in (x * 0, 0 * x, x * F(0), x.scale(0)):
        assert product == zero and product.alpha is x.alpha
        assert product._cut_ints == () and product._value_ints == (0, 1)
    assert not calls, dict(calls)


def cold_star(alpha, tail=0):
    """A fresh star of PIECES pieces, so a rearrangement passes it through."""
    den = 1 if alpha == INF else PIECES + 1
    cuts = [F(k, den) for k in range(1, PIECES + 1)]
    return canonicalize(cuts, [F(PIECES + 1 - k, 3) for k in range(PIECES)], tail, alpha)


@pytest.mark.parametrize("alpha", [INF, F(1)])
def test_kernels_that_read_no_node_leave_the_level_integral_unbuilt(alpha):
    """The walk's consumers sum their own running integrals, so on fresh
    operands the level integral of the rearrangement result, stored as its
    slope function (the star) and jump0, never sums its nodes.  M_phi with a
    piecewise-linear phi reads Phi_x(inf) off the level integral's last
    pair on [0, inf), and ``majorant_pair`` reads the pass-through level
    integral of its star as int pairs: neither builds a node Fraction."""
    rng = random.Random(2006)
    plc = plc_phi(alpha)
    ops = [("hlp_compare", lambda x, y: hlp_compare(y, x)),
           ("maximal_distance", lambda x, y: experiments.maximal_distance(x, y, F(3, 2)))]
    ops += [(f"norm {kind} {type(phi).__name__}", lambda x, y, s=SpaceSpec(kind, phi, alpha):
             norm(s, x))
            for kind, phi in (("Marcinkiewicz", plc), ("MarcinkiewiczStar", plc),
                              ("MarcinkiewiczStar", Hyperbolic(F(7, 2))))]
    for name, op in ops:
        x, y = large_operand(rng, alpha), large_operand(rng, alpha)
        cold(lambda: op(x, y))()
        for u in (x, y):
            built = set(vars(rearrange.rearrangement(u).level_integral))
            if name == "norm Marcinkiewicz PiecewiseLinearConcave":
                assert not {"cuts", "node_values"} & built
            else:
                assert not {"_node_ints", "cuts", "node_values", "final_slope"} & built, name
    if alpha == INF:
        x = cold_star(INF)
        rearrange._rearrange.cache_clear()
        tau = x.cuts[PIECES // 3]
        eps = rearrange.level_integral(x).value_at(tau) / 5
        for t in (tau, x.cuts[PIECES // 2] + F(1, 3)):
            majorize.majorant_pair(x, t, eps)
        phi = rearrange.rearrangement(x).level_integral
        assert rearrange.rearrangement(x).star is x and len(phi._node_ints) == 2 * PIECES + 2
        assert not {"cuts", "node_values"} & set(vars(phi))


def test_flattenings_build_no_cut_fraction_of_their_star():
    """``_flatten`` bisects its star's cut pairs, so a flattening, on the
    sorted star of ``flatten_head`` or on ``majorant_pair``'s fresh operand,
    builds none of that star's cut Fractions."""
    rng = random.Random(2027)
    x = abs(large_operand(rng, INF))
    rearrange._rearrange.cache_clear()
    experiments.flatten_head(x, 40)
    star = rearrange.rearrangement(x).star
    assert star is not x and "cuts" not in vars(star)
    star = cold_star(INF)
    tau = star.support_bound / 3  # read off the last cut pair
    eps = rearrange.level_integral(star).value_at(tau) / 5
    majorize.majorant_pair(star, tau, eps)
    assert not {"cuts", "values"} & set(vars(star))
