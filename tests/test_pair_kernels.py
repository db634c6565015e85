"""No Fraction operator runs per piece in the int-pair kernels.

``refine``, ``+`` and ``-``, the merge pass behind ``window``,
``integrate``, ``abs`` and ``canonicalize``, the L-infinity norm, the
rearrangement's grouping and the star-pair consumers on ``stepfn``'s walk
(``hlp_compare``, ``maximal_distance`` and both Marcinkiewicz norms) read
cuts and values as (numerator, denominator) int pairs once and compare or
add ints.  The tests here count the Fraction operator calls they make on
2,000-piece operands: a constant number, plus O(log n) for a bisection.
They also count the gcd calls of a cold rearrangement, which groups the
lengths of equal |values| over the lcm of their denominators.  Results are
compared with Fraction-operator references in ``test_walks`` and with
``perfbench/reference.py`` in ``test_reference``.
"""

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from rearrcalc import INF, PiecewiseLinearConcave, canonicalize, experiments, rearrange, stepfn
from rearrcalc.majorize import hlp_compare
from rearrcalc.spaces import Hyperbolic, SpaceSpec, norm
from rearrcalc.stepfn import integrate

PIECES = 2000
#: the Fraction methods counted: comparisons, the four arithmetic operators
#: and the ``numerator`` and ``denominator`` properties
COUNTED = ("__eq__", "_richcmp", "__add__", "__sub__", "__mul__", "__truediv__")


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
    ops = [("x + y", lambda: x + y, 16),
           ("x - y", lambda: x - y, 16),
           ("window", lambda: x.window(a, b), 32 + bisect_calls),
           ("integrate", lambda: integrate(x, a, b), 32 + bisect_calls),
           ("norm Linf", lambda: norm(linf, x), 16),
           ("rearrangement", cold(lambda: rearrange.rearrangement(x)), 32),
           ("hlp_compare", cold(lambda: hlp_compare(y, x)), 64),
           ("maximal_distance", cold(lambda: experiments.maximal_distance(x, y, F(3, 2))), 64)]
    ops += [(f"norm {s.kind} {type(s.phi).__name__}", cold(lambda s=s: norm(s, x)),
             64 + bisect_calls) for s in spaces]
    for name, op, bound in ops:
        fraction_calls.clear()
        op()
        calls = sum(fraction_calls.values())
        assert calls <= bound, (name, dict(fraction_calls))
    assert 64 + bisect_calls < min(len(x.cuts), len(y.cuts)) // 10  # far below n


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
