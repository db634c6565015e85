"""The loop the five property suites share: every failing property group is
shrunk, recorded with its own keys, and counts toward the cap of 5."""

import random

import pytest

from rearrcalc import gen, rearrange
from rearrcalc.stepfn import INF, StepFunction


def test_prop32_instance_meets_its_contract():
    for plateau in (False, True):
        for seed in range(1500):
            x, tau, eps = gen.prop32_instance(random.Random(seed), plateau)
            assert x.alpha == INF and x == rearrange.rearrangement(x).star
            assert rearrange.rearrangement(x).star_at_infinity == 0
            assert 0 < eps < rearrange.level_integral(x).value_at(tau)


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
