"""Sequence families, in-measure distances, and the probe drivers."""

import json
import random
import re
from fractions import Fraction as F

import pytest

from rearrcalc import (
    INF,
    DomainMismatchError,
    Hyperbolic,
    PiecewiseLinearConcave,
    PreconditionError,
    SpaceSpec,
    box,
    builtin_family,
    canonicalize,
    cli,
    constant,
    exceedance_measure,
    flatten_head,
    hlp_compare,
    maximal_distance,
    maximal_eval,
    measure_distance,
    norm,
    probe_koc,
    probe_lkm,
    rearrangement,
)
from rearrcalc.gen import rand_step

L1 = SpaceSpec("L1", None, INF)
X13 = canonicalize([1, 3], [2, 1], 0, INF)


def test_builtin_families():
    fam = builtin_family("remark45")
    assert fam(3) == box(F(1, 3), 3)
    assert hlp_compare(fam(3), box(1, 1)).holds

    heads = builtin_family("example46_heads")
    assert heads(4) == box(1, F(1, 4))
    assert hlp_compare(heads(4), constant(1, INF)).holds

    lx = builtin_family("lemma43_x", X13)
    assert lx(2) == box(F(3, 2), 2)

    ly = builtin_family("lemma43_y", X13, 1)
    assert ly(3) == box(F(1, 3), 3)

    fl = builtin_family("thm47_flatten", box(1, 1))
    assert fl(2) == box(F(1, 2), 2)

    with pytest.raises(PreconditionError):
        builtin_family("lemma43_y", X13)  # t_x missing
    with pytest.raises(PreconditionError):
        builtin_family("lemma43_y", X13, 5)  # x*(5) = 0
    with pytest.raises(PreconditionError):
        builtin_family("nope")
    with pytest.raises(PreconditionError):
        fam(0)


def test_lemma43_y_norm_closed_form():
    # the box member c*chi_[0,s) has Marcinkiewicz-type norm c*phi(s), so
    # the family value at n must equal x*(t_x) t_x phi(n t_x) / (n t_x)
    # exactly, and the sequence is nonincreasing because phi(t)/t is
    pl = PiecewiseLinearConcave(INF, (F(1), F(3)), (F(1), F(2)), F(0))
    for t_x in (F(1), F(1, 2)):
        star_tx = rearrangement(X13).star(t_x)
        ly = builtin_family("lemma43_y", X13, t_x)
        for phi in (Hyperbolic(1), pl):
            for kind in ("Marcinkiewicz", "MarcinkiewiczStar"):
                sp = SpaceSpec(kind, phi, INF)
                prev = None
                for n in range(1, 13):
                    want = star_tx * t_x * phi.value_at(n * t_x) / (n * t_x)
                    got = norm(sp, ly(n))
                    assert got == want
                    if prev is not None:
                        assert got <= prev
                    prev = got


def test_flatten_head_examples():
    assert flatten_head(box(1, 1), 4) == box(F(1, 4), 4)
    y2 = flatten_head(X13, 2)
    assert y2 == canonicalize([2, 3], [F(3, 2), 1], 0, INF)
    # the averaged head preserves the running integral from n onward
    for t in (2, 3, 5):
        assert maximal_eval(y2, t) == maximal_eval(X13, t)
    assert hlp_compare(y2, X13).holds
    with pytest.raises(PreconditionError):
        flatten_head(box(-1, 1), 2)
    with pytest.raises(PreconditionError):
        flatten_head(box(1, F(1, 2), alpha=1), 2)
    with pytest.raises(PreconditionError):
        flatten_head(box(1, 1), 0)


def test_measure_distance_examples():
    assert measure_distance(box(1, 1), box(1, 1), F(1, 2)) == 0
    assert measure_distance(box(F(1, 3), 3), box(1, 1), F(1, 2)) == 1
    assert measure_distance(constant(1, INF), constant(0, INF), F(1, 2)) == INF
    with pytest.raises(PreconditionError):
        measure_distance(box(1, 1), box(1, 1), 0)


def test_distance_to_zero_of_the_star_is_the_exceedance_measure():
    # probe_koc's in-measure diagnostic rests on x and x* being equimeasurable
    rng = random.Random(47)
    for i in range(300):
        alpha = INF if i % 2 else F(1)
        x = rand_step(rng, alpha, max_pieces=8, signed=True, nonzero_tail=True)
        zero = constant(0, alpha)
        star = rearrangement(x).star
        levels = {abs(v) for v in (*x.values, x.tail)} | {F(1, 10), F(1, 2), F(1)}
        for delta in sorted(levels - {0}):
            assert exceedance_measure(x, delta) == measure_distance(star, zero, delta)


def test_distances_reject_operands_on_different_domains():
    on_unit, on_ray = box(1, F(1, 2), alpha=1), box(1, 1)
    for distance in (measure_distance, maximal_distance):
        with pytest.raises(DomainMismatchError, match=re.escape("[0,1) vs [0,inf)")):
            distance(on_unit, on_ray, F(1, 2))
        with pytest.raises(DomainMismatchError, match=re.escape("[0,inf) vs [0,1)")):
            distance(on_ray, on_unit, F(1, 2))


def test_measure_distance_strictness_boundary():
    # the exceedance is strict, so a difference exactly at delta is invisible
    fam = builtin_family("remark45")
    star = rearrangement(box(1, 1)).star
    values = [measure_distance(rearrangement(fam(n)).star, star, F(1, 2))
              for n in range(1, 6)]
    assert values == [0, 0, 1, 1, 1]


def test_maximal_distance_hand_values():
    z = constant(0, INF)
    x = box(1, 1)
    # x**(t) = 1 on (0,1], then 1/t
    assert maximal_distance(x, z, 1) == 0
    assert maximal_distance(x, z, F(1, 2)) == 2
    assert maximal_distance(x, z, F(1, 10)) == 10
    # identical inputs at any delta
    assert maximal_distance(X13, X13, F(1, 7)) == 0
    # constants differ everywhere: infinite once delta is below the gap
    assert maximal_distance(constant(3, INF), constant(1, INF), 1) == INF
    assert maximal_distance(constant(3, INF), constant(1, INF), 2) == 0


def test_maximal_distance_agrees_with_pointwise_sampling():
    rng = random.Random(15)
    for _ in range(40):
        x = rand_step(rng, INF, max_pieces=4)
        y = rand_step(rng, INF, max_pieces=4)
        delta = F(rng.randint(1, 8), 8)
        d = maximal_distance(x, y, delta)
        # probe a lattice of points; every exceedance point must lie inside
        # a region accounted for by the exact measure, so a zero measure
        # means no probe may exceed delta
        if d == 0:
            for k in range(1, 60):
                t = F(k, 3)
                assert abs(maximal_eval(x, t) - maximal_eval(y, t)) <= delta


def test_probe_koc_remark45_failure():
    report = probe_koc(box(1, 1), builtin_family("remark45"), L1,
                       list(range(1, 11)), F(1, 100))
    assert report.verdict == "consistent_with_failure"
    assert all(r.norm == 1 for r in report.records)
    assert all(r.to_json()["hlp_holds"] is True for r in report.records)


def test_probe_koc_example46_success():
    space = SpaceSpec("MarcinkiewiczStar", Hyperbolic(1), INF)
    report = probe_koc(constant(1, INF), builtin_family("example46_heads"),
                       space, list(range(1, 11)), F(1, 10))
    assert report.verdict == "consistent_with_KOC"
    assert [r.norm for r in report.records] == [F(1, n + 1) for n in range(1, 11)]


def test_probe_koc_flattened_heads_with_flat_phi():
    phi = PiecewiseLinearConcave(INF, (F(1), F(3)), (F(1), F(2)), F(0))
    space = SpaceSpec("Marcinkiewicz", phi, INF)
    x = box(1, 1)
    report = probe_koc(x, builtin_family("thm47_flatten", x), space,
                       list(range(1, 16)), F(1, 2))
    assert report.verdict == "consistent_with_KOC"
    # phi(n) * x**(n) = 2/n for n >= 3 bounds the norms here
    for rec in report.records:
        if rec.n >= 3:
            assert rec.norm <= F(2, rec.n)


def test_probe_rejects_family_not_below_base():
    fam = builtin_family("remark45")
    with pytest.raises(PreconditionError):
        probe_koc(box(F(1, 2), 1), fam, L1, [1, 2], F(1, 10))


def test_probe_lkm_remark45_diagnostic():
    x = box(1, 1)
    report = probe_lkm(x, builtin_family("remark45"), L1, list(range(1, 9)))
    assert report.verdict == "consistent_with_failure"
    by_n = {r.n: r for r in report.records}
    for n in range(3, 9):
        assert by_n[n].norm_gap == 0
        assert dict(by_n[n].star_distances)[F(1, 2)] == 1


def test_probe_lkm_flattened_heads_l1_plus_linf():
    space = SpaceSpec("L1plusLinf", None, INF)
    report = probe_lkm(X13, builtin_family("thm47_flatten", X13), space,
                       [1, 2, 4, 8, 16])
    by_n = {r.n: r for r in report.records}
    assert by_n[4].norm == 1  # Phi_{y_4}(1) = 4/4
    assert by_n[8].norm == F(1, 2)
    assert by_n[16].norm == F(1, 4)


def test_probe_koc_inconclusive_notes():
    # x_n = x**(n) on [0, n) in L1 has norm Phi_x(n): 2, 3, 4, 4 along n = 1..4
    fam = builtin_family("lemma43_x", X13)
    diagnostic = ("; x*(inf) = 0/1; in-measure diagnostic: final x_n* not within "
                  "every delta of 0")
    report = probe_koc(X13, fam, L1, [1, 2, 3], 3)
    assert [r.norm for r in report.records] == [2, 3, 4]
    assert report.verdict == "inconclusive"
    assert report.notes == "no nonincreasing norm tail" + diagnostic
    report = probe_koc(X13, fam, L1, [1, 2, 3, 4], 3)
    assert [r.norm for r in report.records] == [2, 3, 4, 4]
    assert report.verdict == "inconclusive"
    assert report.notes == "final norm 4/1 not below tolerance 3/1" + diagnostic


def test_probe_lkm_vanishing_and_inconclusive_verdicts():
    x = box(1, 3)
    fam = builtin_family("thm47_flatten", x)
    report = probe_lkm(x, fam, L1, [1, 2, 3])
    assert report.verdict == "consistent_with_KOC"
    assert report.notes == "all star/maximal distances vanished at the final n; ||x|| = 3/1"
    assert all(r.norm_gap == 0 for r in report.records)
    report = probe_lkm(x, fam, L1, [1, 2, 3, 4])
    assert report.verdict == "inconclusive"
    assert report.notes == ("distances neither vanish at the final n nor stay bounded "
                            "below; ||x|| = 3/1")


def test_probe_report_serialization_round_trip():
    report = probe_koc(box(1, 1), builtin_family("remark45"), L1,
                       [1, 2, 3], F(1, 100))
    payload = report.to_json()
    text = json.dumps(payload, sort_keys=True)
    again = json.loads(text)
    assert again["verdict"] == "consistent_with_failure"
    assert [r["norm"] for r in again["records"]] == ["1/1", "1/1", "1/1"]

    table = report.to_table()
    lines = table.splitlines()
    assert lines[0].startswith("probe=")
    assert any("norm" in line for line in lines)

    # CSV goes through the CLI's generic renderer: one key,value line per leaf
    rows = cli._render(payload, "csv").splitlines()
    assert "verdict,consistent_with_failure" in rows
    assert [r for r in rows if r.startswith("records[2].norm,")] == ["records[2].norm,1/1"]


def test_probe_validates_n_list():
    fam = builtin_family("remark45")
    for bad in ([], [0], [2, 2], [3, 1], ["x"]):
        with pytest.raises(PreconditionError):
            probe_koc(box(1, 1), fam, L1, bad, F(1, 2))
