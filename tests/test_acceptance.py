"""Acceptance criteria: exact checks with runtime budgets.

Every comparison is exact rational arithmetic (tolerance zero).  Each test
records a single summary line printed at the end of the run by conftest.
"""

import hashlib
import random
import subprocess
import sys
import time
from fractions import Fraction as F

from conftest import record_acceptance

from rearrcalc import (
    INF,
    Hyperbolic,
    SpaceSpec,
    box,
    builtin_family,
    constant,
    embeds_in_l1,
    flatten_head,
    fundamental_eval,
    hlp_compare,
    level_integral,
    maximal_eval,
    measure_distance,
    mphi_a_member,
    norm,
    rearrangement,
    sample_family_member,
)
from rearrcalc.gen import (
    majorized_pair,
    rand_phi,
    rand_star,
    rand_step,
    run_hardy_suite,
    run_prop32_suite,
    run_rearrange_suite,
)
from rearrcalc.majorize import family_contains, majorant_pair
from rearrcalc.rearrange import equimeasurable

L1 = SpaceSpec("L1", None, INF)
ALL_KINDS = ("L1", "Linf", "L1plusLinf", "Marcinkiewicz", "MarcinkiewiczStar")
BANACH_KINDS = ("L1", "Linf", "L1plusLinf", "Marcinkiewicz")


def test_acceptance_01_remark45_replication():
    t0 = time.perf_counter()
    family = builtin_family("remark45")
    base = box(1, 1)
    deltas = (F(1), F(1, 2), F(1, 10), F(1, 50))
    zero = constant(0, INF)
    for n in range(1, 51):
        x_n = family(n)
        assert norm(L1, x_n) == 1
        assert hlp_compare(x_n, base).holds
        star = rearrangement(x_n).star
        for delta in deltas:
            if n >= 1 / delta:
                assert measure_distance(star, zero, delta) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    record_acceptance(
        1, f"L1 norms all 1, x_n below x, in-measure decay exact, n=1..50 "
           f"({elapsed:.2f}s < 1s)")


def test_acceptance_02_example46_replication():
    t0 = time.perf_counter()
    phi = Hyperbolic(1)
    space = SpaceSpec("MarcinkiewiczStar", phi, INF)
    x = constant(1, INF)
    assert norm(space, x) == 1
    for n in range(1, 51):
        assert norm(space, box(1, F(1, n))) == F(1, n + 1)
    assert mphi_a_member(phi, x) is False
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    record_acceptance(
        2, f"base norm 1, head norms 1/(n+1) for n=1..50, membership false "
           f"({elapsed:.2f}s < 1s)")


def test_acceptance_03_prop32_covering_suite():
    t0 = time.perf_counter()
    result = run_prop32_suite(1000, 2026)
    elapsed = time.perf_counter() - t0
    assert result.ok, result.failures[:1]
    tags = result.stats["case_tags"]
    assert tags["affine_gap"] >= 50
    assert tags["affine_chord"] >= 50
    assert elapsed < 60.0
    record_acceptance(
        3, f"1000 instances x 5 members covered, tags {tags['affine_gap']}/"
           f"{tags['affine_chord']} ({elapsed:.1f}s < 60s)")


def test_acceptance_04_rearrangement_oracle():
    t0 = time.perf_counter()
    result = run_rearrange_suite(1000, 2027)
    elapsed = time.perf_counter() - t0
    assert result.ok, result.failures[:1]
    assert elapsed < 10.0
    record_acceptance(
        4, f"1000 functions match the sort oracle and distributions agree "
           f"({elapsed:.1f}s < 10s)")


def test_acceptance_05_maximal_function_properties():
    t0 = time.perf_counter()
    rng = random.Random(2028)
    lemma_eps = (F(1), F(1, 10), F(1, 100))
    for _ in range(1000):
        alpha = INF if rng.random() < 0.7 else F(1)
        x = rand_step(rng, alpha, max_pieces=6, nonzero_tail=(alpha == INF))
        y = rand_step(rng, alpha, max_pieces=4)
        star = rearrangement(x).star
        ts = sorted(
            F(rng.randint(1, 63), 64) if alpha == 1 else F(rng.randint(1, 96), 8)
            for _ in range(10)
        )
        prev = None
        for t in ts:
            xx = maximal_eval(x, t)
            assert star(t) <= xx
            if prev is not None and t != prev[0]:
                assert xx <= prev[1]
            prev = (t, xx)
            assert maximal_eval(x + y, t) <= xx + maximal_eval(y, t)
        cuts = rearrangement(x).star.cuts
        for a, b in zip(cuts, cuts[1:]):
            assert maximal_eval(x, b) <= maximal_eval(x, a)
        if x.tail == 0 and x.support_bound > 0:
            total = level_integral(x).value_at(x.support_bound)
            if total > 0:
                for eps in lemma_eps:
                    assert maximal_eval(x, total / eps) <= eps
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    record_acceptance(
        5, f"star vs maximal, monotone, subadditive, tail bound on 1000 x "
           f"x 10 t ({elapsed:.1f}s < 30s)")


def test_acceptance_06_space_layer_invariants():
    t0 = time.perf_counter()
    rng = random.Random(2029)

    # rearrangement invariance, the M >= M* comparison, and the lattice
    # property along |x| <= |y|
    for _ in range(500):
        alpha = INF if rng.random() < 0.6 else F(1)
        x = rand_step(rng, alpha, max_pieces=6, nonzero_tail=True)
        star = rearrangement(x).star
        shrunk = x * F(rng.randint(0, 8), 8)
        phi = rand_phi(rng, alpha)
        for kind in ALL_KINDS:
            sp = SpaceSpec(kind, phi if kind.startswith("M") else None, alpha)
            assert norm(sp, x) == norm(sp, star)
            assert norm(sp, shrunk) <= norm(sp, x)
        m = norm(SpaceSpec("Marcinkiewicz", phi, alpha), x)
        mstar = norm(SpaceSpec("MarcinkiewiczStar", phi, alpha), x)
        assert mstar <= m

    # every Banach kind sits inside the Marcinkiewicz space of its own
    # fundamental function, with embedding constant one
    for _ in range(500):
        alpha = INF if rng.random() < 0.6 else F(1)
        x = rand_step(rng, alpha, max_pieces=5, nonzero_tail=True)
        for kind in BANACH_KINDS:
            phi = rand_phi(rng, alpha) if kind == "Marcinkiewicz" else None
            sp = SpaceSpec(kind, phi, alpha)
            msp = SpaceSpec("Marcinkiewicz", sp.fundamental_function(), alpha)
            assert norm(msp, x) <= norm(sp, x)

    # majorization monotonicity on 500 pairs
    for _ in range(500):
        alpha = INF if rng.random() < 0.6 else F(1)
        y, x = majorized_pair(rng, alpha)
        assert norm(SpaceSpec("L1plusLinf", None, alpha), y) <= \
            norm(SpaceSpec("L1plusLinf", None, alpha), x)
        phi = rand_phi(rng, alpha)
        assert norm(SpaceSpec("Marcinkiewicz", phi, alpha), y) <= \
            norm(SpaceSpec("Marcinkiewicz", phi, alpha), x)

    # fundamental function agrees with the box norm, 100 points per space
    for kind in ALL_KINDS:
        for alpha in (INF, F(1)):
            phi = rand_phi(rng, alpha) if kind.startswith("M") else None
            sp = SpaceSpec(kind, phi, alpha)
            for k in range(1, 101):
                t = F(k, 101) if alpha == 1 else F(k, 7)
                assert fundamental_eval(sp, t) == norm(sp, box(1, t, alpha=alpha))

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    record_acceptance(
        6, f"invariance/lattice/M>=M* on 500 x, embeddings at constant 1 on "
           f"500 x, monotone on 500 pairs, box norms at 100 pts/space "
           f"({elapsed:.1f}s < 30s)")


def test_acceptance_07_flattened_heads():
    t0 = time.perf_counter()
    rng = random.Random(2030)
    for _ in range(200):
        x = abs(rand_step(rng, INF, max_pieces=6))
        if x.support_bound == 0:
            x = x + box(1, 1)
        phi = rand_phi(rng, INF, force_pl=True)
        space = SpaceSpec("Marcinkiewicz", phi, INF)
        star = rearrangement(x).star
        nodes = set(star.cuts)
        for n in range(1, 21):
            y = flatten_head(x, n)
            assert hlp_compare(y, x).holds
            for t in sorted(nodes | {F(n), F(n + 1)}):
                if t >= n:
                    assert maximal_eval(y, t) == maximal_eval(x, t)
            head = phi.value_at(n) * maximal_eval(x, n)
            bound = head + norm(space, star.window(n, None))
            assert norm(space, y) <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    record_acceptance(
        7, f"flatten_head below x, maximal agreement past n, norm bound on "
           f"200 x, n=1..20 ({elapsed:.1f}s < 30s)")


def test_acceptance_08_embedding_criterion():
    t0 = time.perf_counter()
    rng = random.Random(2031)
    witnessed = 0
    for _ in range(100):
        phi = rand_phi(rng, INF, force_pl=True)
        space = SpaceSpec("Marcinkiewicz", phi, INF)
        # independent slope oracle: difference quotient past the last node,
        # where any piecewise-linear phi is exactly affine
        horizon = (phi.cuts[-1] if phi.cuts else F(1)) + 1
        slope = (phi.value_at(2 * horizon) - phi.value_at(horizon)) / horizon
        assert embeds_in_l1(space) == (slope > 0)
        if slope == 0:
            t_x = F(rng.randint(1, 9), rng.randint(1, 4))
            limit = phi.value_at(horizon)
            start = int(horizon / t_x) + 1
            for n in range(start, start + 20):
                s_n = fundamental_eval(space, n * t_x) / n
                # the exact bound sequence limit/n dominates and decays to 0
                assert s_n == limit / n
            witnessed += 1
    # the non-embedding kinds with curved or kinked fundamental functions
    # admit the same witness with the exact bound 1/n
    hyp = SpaceSpec("Marcinkiewicz", Hyperbolic(3), INF)
    for space in (hyp, SpaceSpec("Linf", None, INF), SpaceSpec("L1plusLinf", None, INF)):
        assert not embeds_in_l1(space)
        prev = None
        for n in range(1, 21):
            s_n = fundamental_eval(space, F(n)) / n
            assert s_n <= F(1, n)
            if prev is not None:
                assert s_n <= prev
            prev = s_n
    assert embeds_in_l1(SpaceSpec("L1", None, INF))
    assert witnessed >= 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    record_acceptance(
        8, f"final-slope oracle agreement on 100 phi, {witnessed} decay "
           f"witnesses ({elapsed:.1f}s < 5s)")


def test_acceptance_09_hardy_suite():
    t0 = time.perf_counter()
    result = run_hardy_suite(1000, 2032)
    elapsed = time.perf_counter() - t0
    assert result.ok, result.failures[:1]
    assert elapsed < 10.0
    record_acceptance(
        9, f"1000 admissible triples pass, adversarial triples rejected "
           f"with exact witnesses ({elapsed:.1f}s < 10s)")


def test_acceptance_10_cli_determinism():
    commands = [
        ["replicate", "example46", "--n", "1..12", "--format", "json"],
        ["prop-test", "hlp", "--cases", "60", "--seed", "11"],
        ["sample-member",
         "--input",
         '{"x":{"alpha":"inf","breakpoints":["1/1","4/1"],'
         '"values":["2/1","1/1"],"tail":"0/1"},"tau":"2","eps":"1/5"}',
         "--seed", "5"],
        ["probe-lkm",
         "--input", '{"alpha":"inf","breakpoints":["1/1"],"values":["1/1"],"tail":"0/1"}',
         "--family", "remark45", "--space", '{"kind":"L1","alpha":"inf"}',
         "--n", "1..6"],
    ]
    digests = []
    for _ in range(3):
        h = hashlib.sha256()
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "rearrcalc", *argv],
                capture_output=True, check=True,
            )
            h.update(proc.stdout)
        digests.append(h.hexdigest())
    assert digests[0] == digests[1] == digests[2]
    # pinned: the same bytes on every run and across refactors
    assert digests[0] == (
        "5561475053cbb7aeb4c0c11bd58a2e2c33b238a850d2b863855e5bd4ec5e8dba")
    record_acceptance(
        10, f"3 identical SHA-256 runs over 4 commands ({digests[0][:12]}...)")


def test_acceptance_cross_checks():
    """Secondary exact spot checks reused by several criteria."""
    # the construction's two worked instances stay pinned
    tr = majorant_pair(box(1, 1), F(1, 2), F(1, 4))
    assert (tr.gamma, tr.beta, tr.xi) == (F(1, 4), F(2), F(3, 7))
    tr = majorant_pair(
        rearrangement(box(1, 1) + box(1, 4)).star, F(2), F(1, 5))
    assert (tr.gamma0, tr.gamma1, tr.beta1) == (F(1), F(4, 5), F(21, 5))
    # a sampled member is always validated by the family predicate
    y = sample_family_member(box(1, 1), F(1, 2), F(1, 4), 3)
    assert family_contains(y, box(1, 1), F(1, 2), F(1, 4))
    # stars produced anywhere are genuine rearrangements
    rng = random.Random(7)
    for _ in range(50):
        x = rand_star(rng, INF)
        assert equimeasurable(x, rearrangement(x).star)
