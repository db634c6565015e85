"""The loop the five property suites share: every failing property group is
shrunk, recorded with its own keys, and counts toward the cap of 5; a shrunk
case stays inside its suite's input class."""

import random
from fractions import Fraction

import pytest

from rearrcalc import gen, majorize, rearrange
from rearrcalc.stepfn import INF, StepFunction, canonicalize, integrate


def test_prop32_instance_meets_its_contract():
    for plateau in (False, True):
        for seed in range(1500):
            x, tau, eps = gen.prop32_instance(random.Random(seed), plateau)
            assert x.alpha == INF and x == rearrange.rearrangement(x).star
            assert rearrange.rearrangement(x).star_at_infinity == 0
            assert 0 < eps < rearrange.level_integral(x).value_at(tau)


def _shrink_candidates(value):
    """What gen.shrink_case tries in place of value."""
    if isinstance(value, StepFunction):
        dropped = [gen._drop_piece(value, i) for i in range(len(value.cuts))]
        return dropped + gen._rat_variants(value)
    return gen._simplify_rat(value)


# each check patched to always fail: (suite, {check name: what it returns},
# the keys of every record in order after "case" and "problems")
_FAILING = [
    ("rearrange", {"_rearrange_problems": ["synthetic"]}, [("x",)]),
    ("hlp", {"_hlp_problems": (["synthetic"], True)}, [("x", "y")]),
    ("hlp", {"_chain_problems": ["synthetic"]}, [("x", "y", "z")]),
    ("hlp", {"_hlp_problems": (["synthetic"], True), "_chain_problems": ["synthetic"]},
     [("x", "y", "z"), ("x", "y")]),
    ("prop32", {"_prop32_problems": (["synthetic"], "affine_gap")}, [("x", "tau", "eps")]),
    ("spaces", {"_space_problems": ["synthetic"]}, [("space", "x", "y")]),
    ("hardy", {"_hardy_problems": ["synthetic"]}, [("u", "v", "w")]),
]


@pytest.mark.parametrize("suite, patched, keys", _FAILING, ids=[
    "rearrange", "hlp-pair", "hlp-chain", "hlp-both", "prop32", "spaces", "hardy"])
def test_every_failure_is_shrunk_capped_and_keeps_its_keys(monkeypatch, suite, patched, keys):
    calls = []
    for name, returned in patched.items():
        def fails(*args, _returned=returned):
            calls.append(args)
            return _returned
        monkeypatch.setattr(gen, name, fails)
    res = gen.SUITES[suite](20, 3)
    assert not res.ok and len(res.failures) == 5
    # records come in case order; the groups of one case in the order yielded
    expected = [k for _ in range(5) for k in keys][:5]
    assert [tuple(f)[2:] for f in res.failures] == expected
    cases = [f["case"] for f in res.failures]
    assert cases == sorted(cases) and cases[-1] < 5
    for failure in res.failures:
        assert failure["problems"] == ["synthetic"]
        if suite == "prop32":
            # the instance keeps its contract, so the shrinker stops where
            # every candidate would leave it (x = x* > 0 needs a piece)
            case = {"x": StepFunction.from_json(failure["x"]),
                    "tau": Fraction(failure["tau"]), "eps": Fraction(failure["eps"])}
            assert gen._prop32_admissible(**case)
            for key, value in case.items():
                for candidate in _shrink_candidates(value):
                    assert not gen._prop32_admissible(**{**case, key: candidate})
            continue
        for key in failure:
            if key in ("case", "problems", "space"):
                continue
            value = failure[key]
            if isinstance(value, dict):
                # a check that always fails lets the shrinker drop every piece
                assert StepFunction.from_json(value).cuts == ()
            else:  # a rational, simplified to an integer
                assert value.endswith("/1")
    assert len(calls) > 5  # detection, then the shrink predicate's calls


def test_a_shrunk_hardy_triple_stays_admissible(monkeypatch):
    real = majorize.hardy_check

    def fails_from_three_cuts(u, v, w):
        return False if len(u.cuts) >= 3 else real(u, v, w)

    monkeypatch.setattr(majorize, "hardy_check", fails_from_three_cuts)
    res = gen.run_hardy_suite(40, 0)
    assert res.failures
    for failure in res.failures:
        u, v, w = (StepFunction.from_json(failure[k]) for k in ("u", "v", "w"))
        real(u, v, w)  # raises HypothesisError on a triple outside the lemma's hypotheses


def test_a_shrunk_prop32_instance_keeps_its_contract(monkeypatch):
    real = majorize.majorant_pair

    def raises_from_three_cuts(x, tau, eps):
        if len(x.cuts) >= 3:
            raise AssertionError("synthetic")
        return real(x, tau, eps)

    monkeypatch.setattr(majorize, "majorant_pair", raises_from_three_cuts)
    res = gen.run_prop32_suite(20, 0)
    assert res.failures
    for failure in res.failures:
        x = StepFunction.from_json(failure["x"])
        tau, eps = Fraction(failure["tau"]), Fraction(failure["eps"])
        # x = x* by the sorting oracle, x*(inf) = 0, and Phi_x(tau) as an integral of x
        assert x.alpha == INF and gen._sorted_oracle_star(x) == x and x.tail == 0
        assert 0 < eps < integrate(x, 0, tau)


def test_the_spaces_shrinker_replays_the_draws_of_the_failing_case(monkeypatch):
    draws = []

    def fails(space, x, y, rng):
        draws.append([rng.getrandbits(64) for _ in range(3)])
        return ["synthetic"]

    monkeypatch.setattr(gen, "_space_problems", fails)
    res = gen.run_spaces_suite(1, 5)
    assert len(res.failures) == 1
    # detection draws from the suite's rng, every shrink try from its saved state
    assert len(draws) > 1 and all(d == draws[0] for d in draws)


def test_dropping_any_piece_is_the_canonical_form_of_the_rest():
    rng = random.Random(30)
    for _ in range(400):
        alpha = INF if rng.random() < 0.5 else 1
        x = gen.rand_step(rng, alpha, nonzero_tail=True)
        for idx in range(len(x.cuts)):
            cuts, values = [], []
            for j, (s, e, v) in enumerate(x.pieces()):
                if j != idx and j < len(x.cuts):  # the piece past the last cut is the tail
                    cuts.append(Fraction(e))
                    values.append(Fraction(v))
            assert gen._drop_piece(x, idx) == canonicalize(cuts, values, x.tail, x.alpha)
