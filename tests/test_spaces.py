"""Space layer: norms, fundamental functions, embeddings, membership."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rearrcalc import (
    INF,
    Hyperbolic,
    ParseError,
    PiecewiseLinearConcave,
    PreconditionError,
    SpaceSpec,
    box,
    canonicalize,
    constant,
    embeds_in_l1,
    fundamental_eval,
    mphi_a_member,
    norm,
    rearrangement,
)
from rearrcalc import gen
from rearrcalc.gen import rand_phi, rand_step
from rearrcalc.spaces import _at_infinity, _marcinkiewicz

L1 = SpaceSpec("L1", None, INF)
HYP = Hyperbolic(1)
MSTAR_HYP = SpaceSpec("MarcinkiewiczStar", HYP, INF)


def test_l1_norm_of_spread_boxes():
    for n in (1, 2, 5, 10):
        assert norm(L1, box(F(1, n), n)) == 1
    assert norm(L1, constant(1, INF)) == INF
    assert norm(L1, constant(0, INF)) == 0


def test_linf_norm_is_star_at_origin():
    sp = SpaceSpec("Linf", None, INF)
    assert norm(sp, canonicalize([1, 3], [-2, 1], 0, INF)) == 2
    assert norm(sp, constant(F(1, 3), INF)) == F(1, 3)


def test_l1_plus_linf_norm_is_head_integral():
    sp = SpaceSpec("L1plusLinf", None, INF)
    x = canonicalize([1, 3], [2, 1], 0, INF)
    assert norm(sp, x) == 2  # integral of the star over [0, 1)
    assert norm(sp, constant(5, INF)) == 5


def test_mstar_hyperbolic_examples():
    assert norm(MSTAR_HYP, constant(1, INF)) == 1
    for n in range(1, 11):
        assert norm(MSTAR_HYP, box(1, F(1, n))) == F(1, n + 1)


def test_marcinkiewicz_hyperbolic_norm():
    # x = indicator of [0,1): Phi(t) = min(t,1); sup of Phi(t)/(1+t) over
    # nodes and limits is attained at t = 1
    m = SpaceSpec("Marcinkiewicz", HYP, INF)
    assert norm(m, box(1, 1)) == F(1, 2)
    # unbounded level integral: the t -> inf limit is the star's tail level
    assert norm(m, constant(2, INF)) == 2


def test_marcinkiewicz_pl_norm_hand_value():
    phi = PiecewiseLinearConcave(INF, (F(1), F(3)), (F(1), F(2)), F(0))
    m = SpaceSpec("Marcinkiewicz", phi, INF)
    x = canonicalize([1, 3], [2, 1], 0, INF)
    # sup of Phi_x(t) phi(t) / t sits at the node t = 3: 4 * 2 / 3
    assert norm(m, x) == F(8, 3)
    assert norm(m, box(1, 1)) == 1


def test_m_dominates_mstar_regression():
    # equality of the two Marcinkiewicz norms can fail strictly, so the
    # space layer must never substitute one for the other
    phi = PiecewiseLinearConcave(INF, (), (), F(1))  # phi(t) = t
    x = canonicalize([1, 2], [2, 1], 0, INF)
    m = norm(SpaceSpec("Marcinkiewicz", phi, INF), x)
    mstar = norm(SpaceSpec("MarcinkiewiczStar", phi, INF), x)
    assert m == 3
    assert mstar == 2
    assert m > mstar


def test_norms_are_rearrangement_invariant_seeded():
    rng = random.Random(6)
    for _ in range(100):
        alpha = INF if rng.random() < 0.6 else F(1)
        x = rand_step(rng, alpha, max_pieces=6, nonzero_tail=True)
        star = rearrangement(x).star
        for kind in ("L1", "Linf", "L1plusLinf", "Marcinkiewicz", "MarcinkiewiczStar"):
            phi = rand_phi(rng, alpha) if kind.startswith("M") else None
            sp = SpaceSpec(kind, phi, alpha)
            assert norm(sp, x) == norm(sp, star)


def test_norm_of_zero_is_zero_for_every_kind():
    for alpha in (INF, F(1)):
        zero = constant(0, alpha)
        for kind in ("L1", "Linf", "L1plusLinf", "Marcinkiewicz", "MarcinkiewiczStar"):
            phi = Hyperbolic(1) if kind.startswith("M") else None
            assert norm(SpaceSpec(kind, phi, alpha), zero) == 0


def test_norms_are_lattice_monotone_seeded():
    # |x| <= |y| pointwise must force norm(x) <= norm(y) in every kind
    rng = random.Random(13)
    for _ in range(100):
        alpha = INF if rng.random() < 0.6 else F(1)
        y = rand_step(rng, alpha, max_pieces=6, nonzero_tail=True)
        lo = F(rng.randint(0, 4), 8)
        x = y.window(lo, None) * F(rng.randint(0, 8), 8)
        for kind in ("L1", "Linf", "L1plusLinf", "Marcinkiewicz", "MarcinkiewiczStar"):
            phi = rand_phi(rng, alpha) if kind.startswith("M") else None
            sp = SpaceSpec(kind, phi, alpha)
            assert norm(sp, x) <= norm(sp, y)


def test_fundamental_eval_examples():
    phi = PiecewiseLinearConcave(INF, (F(1), F(3)), (F(1), F(2)), F(0))
    m = SpaceSpec("Marcinkiewicz", phi, INF)
    for t in (F(1, 2), 1, 2, 3, 10):
        assert fundamental_eval(m, t) == phi.value_at(t)
    sp = SpaceSpec("L1plusLinf", None, INF)
    assert fundamental_eval(sp, F(1, 2)) == F(1, 2)
    assert fundamental_eval(sp, 4) == 1
    assert fundamental_eval(L1, 7) == 7
    assert fundamental_eval(SpaceSpec("Linf", None, INF), 9) == 1
    with pytest.raises(PreconditionError):
        fundamental_eval(L1, 0)


def test_fundamental_matches_box_norm():
    rng = random.Random(40)
    for _ in range(60):
        alpha = INF if rng.random() < 0.5 else F(1)
        kind = rng.choice(
            ("L1", "Linf", "L1plusLinf", "Marcinkiewicz", "MarcinkiewiczStar")
        )
        phi = rand_phi(rng, alpha) if kind.startswith("M") else None
        sp = SpaceSpec(kind, phi, alpha)
        for _ in range(5):
            t = F(rng.randint(1, 15), 16) if alpha == 1 else F(rng.randint(1, 40), 4)
            assert fundamental_eval(sp, t) == norm(sp, box(1, t, alpha=alpha))


def test_embeds_in_l1_examples():
    assert not embeds_in_l1(SpaceSpec("Marcinkiewicz", HYP, INF))
    flat = PiecewiseLinearConcave(INF, (F(1), F(2)), (F(2), F(3)), F(0))
    rising = PiecewiseLinearConcave(INF, (F(1), F(2)), (F(2), F(3)), F(1, 3))
    assert not embeds_in_l1(SpaceSpec("Marcinkiewicz", flat, INF))
    assert embeds_in_l1(SpaceSpec("Marcinkiewicz", rising, INF))
    assert embeds_in_l1(L1)
    assert not embeds_in_l1(SpaceSpec("Linf", None, INF))
    assert not embeds_in_l1(SpaceSpec("L1plusLinf", None, INF))
    with pytest.raises(PreconditionError):
        embeds_in_l1(SpaceSpec("L1", None, 1))


def test_mphi_a_member_examples():
    assert mphi_a_member(HYP, box(1, 1))
    assert not mphi_a_member(HYP, constant(1, INF))
    assert mphi_a_member(HYP, constant(0, INF))
    # a jump at the origin kills the t -> 0 limit for any bounded nonzero x
    jumped = PiecewiseLinearConcave(INF, (F(1),), (F(2),), F(0), jump0=F(1))
    assert not mphi_a_member(jumped, box(1, 1))
    # positive final slopes make phi * x** blow up unless x = 0
    steep = PiecewiseLinearConcave(INF, (), (), F(1))
    assert not mphi_a_member(steep, constant(1, INF))
    assert mphi_a_member(steep, box(1, 1)) is False  # limit is Phi(inf) * 1 = 1


T_ON_ONE = PiecewiseLinearConcave(F(1), (), (), F(1))  # phi(t) = t on [0, 1)


def test_the_end_at_one_carries_the_tail():
    # x* = 1/2 on [0, 1/2), then 1/3: Phi_x(1/2) = 1/4, Phi_x(1) = 5/12, and
    # with phi(t) = t/(1+t) the end at 1 gives (5/12)/2 = 5/24 > (1/4)/(3/2)
    x = canonicalize([F(1, 2)], [F(1, 3)], F(1, 2), 1)
    assert norm(SpaceSpec("Marcinkiewicz", HYP, 1), x) == F(5, 24)
    # x* = 1 on [0, 1/2), then 3/4: Phi_x(1/2) = 1/2, Phi_x(1) = 7/8.  At the
    # cut 1/2 both objectives read 1/3 (hyperbola) and 1/2 (t); the end at 1
    # reads (7/8)/2 and (3/4)/2, then 7/8 and 3/4
    x = canonicalize([F(1, 2)], [1], F(3, 4), 1)
    for phi, m, mstar in ((HYP, F(7, 16), F(3, 8)), (T_ON_ONE, F(7, 8), F(3, 4))):
        assert norm(SpaceSpec("Marcinkiewicz", phi, 1), x) == m
        assert norm(SpaceSpec("MarcinkiewiczStar", phi, 1), x) == mstar


def test_the_limit_at_infinity_by_hand():
    five_then_three = canonicalize([1], [5], 3, INF)  # Phi_x(t) = 2 + 3t past 1
    # a positive tail and a positive final slope: both norms diverge
    rising = PiecewiseLinearConcave(INF, (F(1),), (F(2),), F(1, 2))
    for star in (False, True):
        assert _at_infinity(rising, rearrangement(five_then_three), star) is INF
        kind = "MarcinkiewiczStar" if star else "Marcinkiewicz"
        assert norm(SpaceSpec(kind, rising, INF), five_then_three) == INF
    # a positive tail and a flat phi: tail * phi(inf), for x* and x**
    min_one_t = PiecewiseLinearConcave(INF, (F(1),), (F(1),), F(0))
    for star in (False, True):
        assert _at_infinity(min_one_t, rearrangement(five_then_three), star) == 3
    indicator = PiecewiseLinearConcave(INF, (), (), F(0), jump0=F(1))
    for kind in ("Marcinkiewicz", "MarcinkiewiczStar"):  # no merged end: the limit alone
        assert norm(SpaceSpec(kind, indicator, INF), constant(2, INF)) == 2
    # tail 0 and a positive final slope: x** * phi tends to Phi_x(inf) * 1/2
    # (the intercept of Phi_x times the slope), x* * phi to 0
    boxed = rearrangement(box(2, 3))
    assert _at_infinity(rising, boxed, False) == 3
    assert _at_infinity(rising, boxed, True) == 0
    # the hyperbola: the tail, above the end at 1 (5/2 for both norms)
    assert _at_infinity(HYP, rearrangement(five_then_three), False) == 3
    for kind in ("Marcinkiewicz", "MarcinkiewiczStar"):
        assert norm(SpaceSpec(kind, HYP, INF), five_then_three) == 3


@st.composite
def _steps(draw, alpha):
    """Step functions on [0, alpha), nonzero tails included on both domains."""
    top = 1 if alpha is not INF else 10
    cuts = sorted({F(k, q) for k, q in draw(st.lists(st.tuples(st.integers(1, 60),
                                                               st.integers(1, 6)), max_size=8))
                   if F(k, q) < top})
    values = draw(st.lists(st.fractions(-3, 3, max_denominator=4),
                           min_size=len(cuts), max_size=len(cuts)))
    return canonicalize(cuts, values, draw(st.fractions(-3, 3, max_denominator=4)), alpha)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_classical_norms_are_marcinkiewicz_norms_of_their_fundamental_functions(data):
    # L1 = M_t, Linf = M_1 (phi the indicator of (0, alpha)), L1 + Linf = M_min(1,t)
    alpha = data.draw(st.sampled_from((INF, F(1))))
    x = data.draw(_steps(alpha))
    for kind in ("L1", "Linf", "L1plusLinf"):
        space = SpaceSpec(kind, None, alpha)
        assert norm(space, x) == _marcinkiewicz(space.fundamental_function(), x, False), kind


def test_space_spec_validation_and_json():
    with pytest.raises(PreconditionError):
        SpaceSpec("L2", None, INF)
    with pytest.raises(PreconditionError):
        SpaceSpec("Marcinkiewicz", None, INF)
    with pytest.raises(PreconditionError):
        SpaceSpec("L1", HYP, INF)
    with pytest.raises(PreconditionError):
        # not strictly increasing at the origin and no jump: not fundamental
        SpaceSpec(
            "Marcinkiewicz",
            PiecewiseLinearConcave(INF, (F(1),), (F(0),), F(0)),
            INF,
        )

    for sp in (
        L1,
        MSTAR_HYP,
        SpaceSpec(
            "Marcinkiewicz",
            PiecewiseLinearConcave(INF, (F(1), F(3)), (F(1), F(2)), F(0)),
            INF,
        ),
        SpaceSpec("L1plusLinf", None, 1),
    ):
        assert SpaceSpec.from_json(sp.to_json()) == sp

    with pytest.raises(ParseError):
        SpaceSpec.from_json({"kind": "L1", "alpha": "bogus"})
    with pytest.raises(ParseError):
        SpaceSpec.from_json({"alpha": "inf"})
    with pytest.raises(ParseError):
        SpaceSpec.from_json({"kind": "Marcinkiewicz", "alpha": "inf", "phi": {"c": "1"}})


def test_norm_respects_domain():
    with pytest.raises(PreconditionError):
        norm(L1, box(1, F(1, 2), alpha=1))


def test_spaces_suite_shrinks_against_the_draws_that_failed(monkeypatch):
    states = []

    def fails_always(space, x, y, rng):
        states.append(rng.getstate())
        return ["synthetic"]

    monkeypatch.setattr(gen, "_space_problems", fails_always)
    result = gen.run_spaces_suite(1, 5)
    assert result.failures[0]["problems"] == ["synthetic"]
    assert len(states) > 1  # detection, then the shrink predicate's calls
    assert all(s == states[0] for s in states)
