"""Decreasing rearrangement, level integral, maximal function."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rearrcalc import (
    INF,
    PiecewiseLinearConcave,
    PreconditionError,
    box,
    canonicalize,
    constant,
    equimeasurable,
    exceedance_measure,
    is_decreasing_rearrangement,
    level_integral,
    maximal_eval,
    rearrangement,
)
from rearrcalc.experiments import builtin_family, probe_koc
from rearrcalc.gen import _distribution_oracle, _sorted_oracle_star, rand_step
from rearrcalc.rearrange import _rearrange
from rearrcalc.spaces import SpaceSpec
from rearrcalc.stepfn import plc_from_nodes


def test_distribution_examples():
    x = box(1, 1)
    assert exceedance_measure(x, 0) == 1
    assert exceedance_measure(x, 1) == 0
    z = constant(0, INF)
    for lam in (0, 1, F(1, 3)):
        assert exceedance_measure(z, lam) == 0
    s = canonicalize([1, 3], [-2, 1], 0, INF)
    assert exceedance_measure(s, F(3, 2)) == 1


def test_rearrangement_sorts_pieces():
    x = canonicalize([1, 2], [1, 2], 0, INF)
    rr = rearrangement(x)
    assert rr.star == canonicalize([1, 2], [2, 1], 0, INF)
    assert rr.star_at_infinity == 0


def test_rearrangement_with_nonzero_tail():
    rr = rearrangement(constant(1, INF))
    assert rr.star == constant(1, INF)
    assert rr.star_at_infinity == 1

    # pieces below the tail level are absorbed by the plateau
    x = canonicalize([1, 2], [F(1, 2), 3], 1, INF)
    rr = rearrangement(x)
    assert rr.star == canonicalize([1], [3], 1, INF)
    assert rr.star_at_infinity == 1


def test_rearrangement_takes_absolute_value():
    x = canonicalize([1, 3], [-2, 1], 0, INF)
    assert rearrangement(x).star == canonicalize([1, 3], [2, 1], 0, INF)


def test_level_integral_examples():
    phi = level_integral(box(1, 1))
    assert phi.cuts == (F(1),)
    assert phi.node_values == (F(1),)
    assert phi.final_slope == 0
    assert phi.value_at(F(1, 2)) == F(1, 2)
    assert phi.value_at(7) == 1

    phi = level_integral(canonicalize([1, 3], [2, 1], 0, INF))
    assert phi.cuts == (F(1), F(3))
    assert phi.node_values == (F(2), F(4))
    assert phi.final_slope == 0

    assert level_integral(constant(0, INF)).value_at(9) == 0


def test_maximal_eval_examples():
    x = canonicalize([1, 3], [2, 1], 0, INF)
    assert maximal_eval(x, 2) == F(3, 2)
    assert maximal_eval(x, 4) == 1
    assert maximal_eval(constant(3, INF), 7) == 3
    assert maximal_eval(box(1, 1), F(1, 2)) == 1
    with pytest.raises(PreconditionError):
        maximal_eval(x, 0)


def test_maximal_saturates_on_unit_domain():
    x = box(2, F(1, 2), alpha=1)
    # integral over [0,1) is 1; for t >= 1 the average keeps the frozen mass
    assert maximal_eval(x, 1) == 1
    assert maximal_eval(x, 4) == F(1, 4)


def test_equimeasurable():
    a = canonicalize([1, 2], [1, 2], 0, INF)
    b = canonicalize([1, 2], [2, 1], 0, INF)
    assert equimeasurable(a, b)
    assert not equimeasurable(a, box(2, 2))


def test_star_against_sort_oracle_seeded():
    rng = random.Random(31)
    for _ in range(300):
        alpha = INF if rng.random() < 0.7 else F(1)
        x = rand_step(rng, alpha, max_pieces=8, nonzero_tail=True)
        star = rearrangement(x).star
        assert star == _sorted_oracle_star(x)
        # the star is equimeasurable with x and idempotent
        assert equimeasurable(star, x)
        assert rearrangement(star).star == star


def test_distribution_matches_star_at_all_levels():
    rng = random.Random(32)
    for _ in range(200):
        x = rand_step(rng, INF, max_pieces=6, nonzero_tail=True)
        star = rearrangement(x).star
        levels = {abs(v) for v in x.values} | {abs(x.tail), F(0)}
        for lam in levels:
            for level in (lam, lam + F(1, 7)):
                assert exceedance_measure(x, level) == exceedance_measure(star, level)
                assert exceedance_measure(x, level) == _distribution_oracle(star, level)


def _neighbour(v: F, den: int) -> F:
    """The fraction with denominator ``den`` nearest to v."""
    return F(round(v * den), den)


@st.composite
def _value_pools(draw):
    """Magnitudes that tie or nearly tie, in one of four denominator regimes."""
    regime = draw(st.sampled_from(["small", "near tie", "coprime 1e6", "1e40"]))
    if regime == "small":
        return draw(st.lists(st.builds(F, st.integers(0, 12), st.integers(1, 6)),
                             min_size=1, max_size=4))
    if regime == "near tie":  # p/q and p/q +- 1/M with M > 2^64
        base = draw(st.builds(F, st.integers(1, 12), st.integers(1, 6)))
        gap = F(1, draw(st.integers(2**64 + 1, 2**80)))
        return [base, base + gap, base - gap]
    scale = 10**6 if regime == "coprime 1e6" else 10**40
    dens = draw(st.lists(st.integers(scale - 1000, scale + 1000), min_size=2, max_size=4))
    base = F(draw(st.integers(1, 2 * scale)), dens[0])
    # the nearest fractions to base with the other denominators
    return [base, *(_neighbour(base, d) for d in dens[1:])]


@st.composite
def _tied_steps(draw):
    """Step functions whose |values| repeat with mixed signs, nearly tie, and,
    on [0, inf), sit at |tail| (absorbed) or just above it (kept)."""
    alpha = draw(st.sampled_from([INF, F(1)]))
    pool = draw(_value_pools())
    signed = st.builds(lambda v, s: v * s, st.sampled_from(pool), st.sampled_from([1, -1]))
    tail = draw(signed)
    values = draw(st.lists(signed, max_size=10))
    if alpha == INF and tail:
        above = abs(tail) + F(1, draw(st.integers(2, 2**80)))
        at_tail = st.sampled_from([tail, -tail, above, -above])
        values += draw(st.lists(at_tail, max_size=4))
        values = draw(st.permutations(values))
        cuts, acc = [], F(0)
        for _ in values:
            acc += draw(st.builds(F, st.integers(1, 12), st.integers(1, 4)))
            cuts.append(acc)
    else:
        values = values[:9]
        cuts = [F(k, 24) for k in sorted(draw(st.sets(st.integers(1, 23), min_size=len(values),
                                                       max_size=len(values))))]
    return canonicalize(cuts, values, tail, alpha)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tied_steps())
def test_rearrangement_against_fraction_sort_oracle(x):
    rr = rearrangement(x)
    star = _sorted_oracle_star(x)
    assert rr.star == star
    assert rr.star_at_infinity == star.tail
    # the level integral's nodes: Fraction running sums of value * length
    nodes, acc, prev = [], F(0), F(0)
    for cut, v in zip(star.cuts, star.values):
        acc += v * (cut - prev)
        nodes.append(acc)
        prev = cut
    assert rr.level_integral.cuts == star.cuts
    assert list(rr.level_integral.node_values) == nodes


@st.composite
def _routed_steps(draw):
    """(route, x) for each way a level integral is built: a sorted star on
    [0, inf), a star that passes through, a tail that absorbs pieces on
    [0, inf), and alpha = 1 (where the smallest value becomes the tail)."""
    route = draw(st.sampled_from(["sorted", "star", "absorbing tail", "alpha = 1"]))
    alpha = F(1) if route == "alpha = 1" else INF
    magnitudes = st.builds(F, st.integers(1, 30), st.integers(1, 6))
    values = draw(st.lists(magnitudes, min_size=1, max_size=10))
    tail = F(0)
    if route == "star":
        values = sorted(set(values), reverse=True)
        tail = draw(st.sampled_from([F(0), values[-1] / 2]))
    else:
        values = [v * draw(st.sampled_from([1, -1])) for v in values]
        if route == "absorbing tail":
            tail = draw(st.sampled_from(values)) * draw(st.sampled_from([1, -1]))
        elif route == "alpha = 1":
            tail = draw(magnitudes)
    if alpha == INF:
        cuts, acc = [], F(0)
        for _ in values:
            acc += draw(st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 4, 3, 8])))
            cuts.append(acc)
    else:
        ks = draw(st.sets(st.integers(1, 47), min_size=len(values), max_size=len(values)))
        cuts = [F(k, 48) for k in sorted(ks)]
    return route, canonicalize(cuts, values, tail, alpha)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_routed_steps())
def test_the_lazy_level_integral_equals_the_oracle_plc_on_every_route(case):
    route, x = case
    _rearrange.cache_clear()
    rr = rearrangement(x)
    assert (rr.star is x) == is_decreasing_rearrangement(x)
    assert route != "star" or rr.star is x
    phi = rr.level_integral
    # stored as its slope function, the star, and jump0: the nodes are
    # summed, and their Fractions built, on first read
    assert rr.level_integral is phi and phi.slope is rr.star and phi.jump0 == 0
    assert not {"_node_ints", "cuts", "node_values", "final_slope"} & set(vars(phi))
    # the oracle: a raw sort of x's pieces and cumulative Fraction sums
    star = _sorted_oracle_star(x)
    nodes, acc, prev = [], F(0), F(0)
    for cut, v in zip(star.cuts, star.values):
        acc += v * (cut - prev)
        nodes.append(acc)
        prev = cut
    oracle = plc_from_nodes(star.cuts, nodes, star.tail, 0, x.alpha)
    public = PiecewiseLinearConcave(x.alpha, star.cuts, nodes, star.tail)
    assert phi == oracle == public and hash(phi) == hash(oracle) == hash(public)
    assert (phi.cuts, phi.node_values, phi.final_slope, phi.jump0) == (
        tuple(star.cuts), tuple(nodes), star.tail, 0)
    assert [phi.value_at(c) for c in star.cuts] == nodes
    if nodes:  # scaled by 101/100: unequal, whichever way it was built
        moved = plc_from_nodes(star.cuts, [v * F(101, 100) for v in nodes],
                               star.tail * F(101, 100), 0, x.alpha)
        assert phi != moved and moved != phi


# -- the rearrangement cache: an entry count, least recently used out ---------


def test_the_cache_holds_at_most_its_entry_count():
    size = _rearrange.cache_info().maxsize
    xs = [box(v, 1) for v in range(1, size + 2)]
    _rearrange.cache_clear()
    for x in xs[:size]:
        rearrangement(x)
    first = rearrangement(xs[0])  # now the most recent; xs[1] is the least
    rearrangement(xs[size])  # one fresh operand past the count evicts xs[1]
    assert _rearrange.cache_info().currsize == size
    misses = _rearrange.cache_info().misses
    assert rearrangement(box(1, 1)) is first
    rearrangement(xs[1])
    assert _rearrange.cache_info().misses == misses + 1 == size + 2
    _rearrange.cache_clear()


def test_one_probe_rearranges_its_base_function_once():
    # lemma43_x looks x up for maximal_eval(x, n) and for hlp_compare(x_n, x)
    # at every n, between the rearrangements of the members x_n
    x = canonicalize(range(1, 10**4 + 1), [k % 7 + 1 for k in range(10**4)], 0, INF)
    _rearrange.cache_clear()
    for t in (1, 2, 5, 10**4, 10**5):
        maximal_eval(x, t)
    assert _rearrange.cache_info().misses == 1
    n_list = range(1, 25)
    report = probe_koc(x, builtin_family("lemma43_x", x), SpaceSpec("L1"), n_list, 1)
    assert len(report.records) == len(n_list)
    # the members box(x**(n), n) differ, and each is rearranged once
    assert _rearrange.cache_info().misses == 1 + len(n_list)
    _rearrange.cache_clear()
