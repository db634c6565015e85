"""Differential tests against ``perfbench/reference.py``.

The reference calls nothing in rearrcalc: it sorts the pieces of |x| by
value, sums Phi with Fraction operators and takes the norms' suprema over
their candidate points by the textbook definitions.  Here it checks the
rearrangement (star and Phi nodes), ``hlp_compare``, the five norms and
``maximal_distance`` on both domains, with repeated |values| over cuts of
coprime denominators (so a group of equal |values| sums lengths over the
lcm of their denominators), negative values and nonzero tails.  The file is
imported by path; nothing under ``perfbench/`` is changed by the tests.

The bit-growth case, 2,000 cuts i + 1 + 1/p_i with distinct primes
p_i > 10^6, is checked against ``gen._sorted_oracle_star``.
"""

import importlib.util
import random
from fractions import Fraction as F
from pathlib import Path

from hypothesis import given, settings, strategies as st

from rearrcalc import INF, PiecewiseLinearConcave, canonicalize, experiments, rearrange
from rearrcalc.gen import _sorted_oracle_star
from rearrcalc.majorize import hlp_compare
from rearrcalc.spaces import Hyperbolic, SpaceSpec, norm

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_reference", _PATH)
ref = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ref)

#: cut denominators: 1 for cuts at the integers (1 among them), and
#: coprime ones, so equal |values| sum lengths over their lcm
DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 11, 13)
#: a few magnitudes, so |values| repeat, taken with either sign
MAGNITUDES = (F(1, 3), F(1, 2), F(1), F(3, 2), F(5, 7), F(2))


@st.composite
def step_functions(draw, alpha):
    points = draw(st.lists(st.tuples(st.integers(1, 40), st.sampled_from(DENOMINATORS)),
                           max_size=12))
    top = 1 if alpha != INF else 40
    cuts = sorted({F(k % (q * top), q) for k, q in points} - {F(0)})
    values = [draw(st.sampled_from(MAGNITUDES)) * draw(st.sampled_from((1, -1)))
              for _ in cuts]
    tail = draw(st.sampled_from((F(0), F(0), *MAGNITUDES, -MAGNITUDES[0])))
    return canonicalize(cuts, values, tail, alpha)


@st.composite
def fundamental_functions(draw, alpha):
    if draw(st.booleans()):
        return Hyperbolic(F(draw(st.integers(1, 12)), draw(st.integers(1, 4))))
    slopes = sorted({F(draw(st.integers(1, 24)), 4) for _ in range(draw(st.integers(1, 4)))},
                    reverse=True)
    final = slopes.pop() if draw(st.booleans()) else F(0)
    top = 1 if alpha != INF else 30
    cuts = sorted({F(draw(st.integers(1, 8 * top - 1)), 8) for _ in slopes})[:len(slopes)]
    slopes = slopes[:len(cuts)]
    jump0 = F(draw(st.integers(0, 3)), 4)
    nodes, v, prev = [], jump0, F(0)
    for c, m in zip(cuts, slopes):
        v += m * (c - prev)
        nodes.append(v)
        prev = c
    return PiecewiseLinearConcave(alpha, cuts, nodes, final, jump0)


domains = st.sampled_from((INF, F(1)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rearrangement_matches_the_reference_sort(data):
    alpha = data.draw(domains)
    x = data.draw(step_functions(alpha))
    rearrange._rearrange.cache_clear()
    rr = rearrange.rearrangement(x)
    star = ref.sorted_star(ref.Step.of(x))
    assert ref.same_step(rr.star, star)
    li = rr.level_integral
    assert list(li.cuts) == star.cuts and list(li.node_values) == ref.Phi(star).nodes
    assert li.final_slope == star.tail == rr.star_at_infinity and li.jump0 == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hlp_compare_matches_the_reference_order(data):
    alpha = data.draw(domains)
    x, y = data.draw(step_functions(alpha)), data.draw(step_functions(alpha))
    c = F(data.draw(st.integers(1, 8)), 8)
    for lo, hi in ((y, x), (x, y), (x.scale(c), x), (abs(y).scale(c), y)):
        fl, fh = ref.phi_of(ref.Step.of(lo)), ref.phi_of(ref.Step.of(hi))
        verdict = hlp_compare(lo, hi)
        assert verdict.holds == ref.dominated(fl, fh, alpha)
        w = verdict.witness
        assert verdict.holds or (ref.in_domain(w, alpha) and fl.at(w) > fh.at(w))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_five_norms_match_the_reference(data):
    alpha = data.draw(domains)
    x = data.draw(step_functions(alpha))
    phi = data.draw(fundamental_functions(alpha))
    for kind in ("L1", "Linf", "L1plusLinf", "Marcinkiewicz", "MarcinkiewiczStar"):
        space = SpaceSpec(kind, phi if kind.startswith("M") else None, alpha)
        rearrange._rearrange.cache_clear()
        assert norm(space, x) == ref.norm(kind, space.phi, ref.Step.of(x)), kind


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_maximal_distance_matches_the_reference(data):
    alpha = data.draw(domains)
    x, y = data.draw(step_functions(alpha)), data.draw(step_functions(alpha))
    delta = F(data.draw(st.integers(1, 16)), data.draw(st.integers(1, 8)))
    for a, b in ((x, y), (x, x.scale(F(1, 2))), (abs(x), x)):
        expected = ref.maximal_distance(ref.Step.of(a), ref.Step.of(b), delta)
        assert experiments.maximal_distance(a, b, delta) == expected


def _primes_above(n: int, count: int) -> list[int]:
    """The first ``count`` primes above n (n > 2), by a segmented sieve over
    n.bit_length() * count numbers, which hold more than ``count`` primes."""
    span = n.bit_length() * count
    sieve = bytearray([1]) * span  # sieve[i]: n + 1 + i is prime
    for p in range(2, int((n + span) ** 0.5) + 1):
        start = -(n + 1) % p  # the first multiple of p at or above n + 1
        sieve[start::p] = bytes(len(range(start, span, p)))
    return [n + 1 + i for i, prime in enumerate(sieve) if prime][:count]


def test_the_bit_growth_case_matches_the_sort_oracle():
    # cut i is i + 1 + 1/p_i: every cut has its own prime denominator, so a
    # group's lengths share none and its lcm has one prime per piece
    primes = _primes_above(10**6, 2000)
    rng = random.Random(16)
    cuts = [i + 1 + F(1, p) for i, p in enumerate(primes)]
    values = [1]
    while len(values) < len(cuts):  # from {1, ..., 8}, each unlike the one before
        values.append(rng.choice([v for v in range(1, 9) if v != values[-1]]))
    x = canonicalize(cuts, values, 0, INF)
    assert len(primes) == len(x.cuts) == 2000
    rearrange._rearrange.cache_clear()
    rr = rearrange.rearrangement(x)
    assert rr.star == _sorted_oracle_star(x)
    assert rr.level_integral.node_values == tuple(ref.Phi(ref.Step.of(rr.star)).nodes)
