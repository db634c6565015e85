"""Core step-function layer: canonical form, algebra, integration, JSON."""

import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rearrcalc import (
    INF,
    DomainMismatchError,
    InfiniteIntegralError,
    ParseError,
    PiecewiseLinearConcave,
    PreconditionError,
    StepFunction,
    box,
    canonicalize,
    constant,
    exceedance_measure,
    integrate,
    parse_rat,
    rat,
    rat_str,
)
from rearrcalc.stepfn import _frac, plc_from_nodes


def test_rat_parsing_and_formatting():
    assert rat("3/4") == F(3, 4)
    assert rat(5) == F(5)
    assert rat(F(2, 6)) == F(1, 3)
    assert rat_str(F(-7, 2)) == "-7/2"
    assert rat_str(F(3)) == "3/1"
    assert parse_rat("-2/3") == F(-2, 3)
    with pytest.raises(ParseError):
        rat(0.5)
    for bad in ("", "1.5", "a/b", "1/0", 7, None, "1" * 5000):
        with pytest.raises(ParseError):
            parse_rat(bad)


def _int_of_digits(text: str) -> int:
    # int() of a digit string in chunks, each under the int-string limit
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    n = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return sign * n


def test_rat_str_prints_past_the_int_string_limit():
    rng = random.Random(5)
    digits = [str(rng.randint(1, 9))] + [str(rng.randint(0, 9)) for _ in range(8999)]
    texts = ["".join(digits), "9" * 5000, "1" + "0" * 5000, "1" + "0" * 4399 + "7",
             "4" * 4300, "12345"]
    for text in texts:
        for num in (text, "-" + text):
            assert rat_str(F(_int_of_digits(num), 7)) == f"{num}/7"
        assert rat_str(F(1, _int_of_digits(text))) == f"1/{text}"
    # parsing keeps the interpreter's limit: an overlong literal is rejected
    with pytest.raises(ParseError):
        parse_rat("1/" + "3" * 5000)


def test_canonicalize_merges_and_validates():
    f = canonicalize([1, 2, 3], [2, 2, 1], 0, INF)
    assert f.cuts == (F(2), F(3))
    assert f.values == (F(2), F(1))
    assert f.tail == 0

    g = canonicalize([1, 2], [3, 3], 3, INF)
    assert g == constant(3, INF)

    with pytest.raises(PreconditionError):
        canonicalize([2, 1], [1, 2], 0, INF)
    with pytest.raises(PreconditionError):
        canonicalize([1, 1], [1, 2], 0, INF)
    with pytest.raises(PreconditionError):
        canonicalize([F(1, 2), 2], [1, 2], 0, 1)  # cut beyond alpha = 1
    with pytest.raises(PreconditionError):
        StepFunction(INF, (F(1),), (F(2), F(3)), F(0))  # length mismatch


def test_evaluate_examples():
    assert box(1, 1)(F(1, 2)) == 1
    assert box(F(1, 3), 3)(5) == 0
    f = canonicalize([1, 3], [2, 1], 0, INF)
    assert [f(t) for t in (0, 1, 2, 3, 10)] == [2, 1, 1, 0, 0]
    with pytest.raises(PreconditionError):
        box(1, F(1, 2), alpha=1)(1)  # 1 is outside [0, 1)


def test_pointwise_algebra():
    assert box(1, 1) + box(1, 2) == canonicalize([1, 2], [2, 1], 0, INF)
    assert box(1, 1) - box(1, 2) == canonicalize([1, 2], [0, -1], 0, INF)
    assert box(2, 2) * box(3, 1) == box(6, 1)
    assert box(1, 1) - (box(1, 1) - box(1, 2)).positive_part() == box(1, 1)  # the min
    assert abs(box(-2, 1)) == box(2, 1)
    assert -box(-2, 1) == box(2, 1)
    mixed = canonicalize([1, 2], [1, -1], 0, INF)
    assert mixed.positive_part() == box(1, 1)
    assert box(1, 2).scale(F(3, 2)) == box(F(3, 2), 2)
    with pytest.raises(DomainMismatchError):
        box(1, 1) + box(1, F(1, 2), alpha=1)


def test_operators_match_pointwise_values():
    rng = random.Random(5)
    for alpha, unit, ts in ((INF, 1, [F(k, 2) for k in range(45)]),
                            (1, F(1, 20), [F(k, 45) for k in range(45)])):
        for _ in range(50):
            cuts = [c * unit for c in sorted(rng.sample(range(1, 20), 3))]
            values = [rng.randint(-4, 4) for _ in cuts]
            f = canonicalize(cuts, values, 0 if alpha is INF else rng.randint(-4, 4), alpha)
            g = box(rng.randint(1, 3), rng.randint(1, 10) * unit, alpha)
            for t in ts:
                assert (f + g)(t) == f(t) + g(t)
                assert (f - g)(t) == f(t) - g(t)
                assert (-f)(t) == -f(t)
                assert abs(f)(t) == abs(f(t))
                assert (f * 2)(t) == f.scale(F(2))(t) == 2 * f(t)
                assert (f * g)(t) == f(t) * g(t)
                assert (f - (f - g).positive_part())(t) == min(f(t), g(t))
            # every piece of f * 0 merges into the tail
            assert f * 0 == f.scale(0) == constant(0, alpha) and (f * 0).cuts == ()


def test_window_restriction():
    f = canonicalize([1, 3], [2, 1], 0, INF)
    assert f.window(0, 2) == canonicalize([1, 2], [2, 1], 0, INF)
    assert f.window(1, None) == canonicalize([1, 3], [0, 1], 0, INF)
    assert f.window(5, None) == constant(0, INF)


def test_integration():
    assert integrate(box(1, 1), 0, 1) == 1
    f = canonicalize([1, 3], [2, 1], 0, INF)
    assert integrate(f, 0, 2) == 3
    assert integrate(f, 0, INF) == 4
    assert integrate(f, F(1, 2), F(3, 2)) == F(3, 2)
    with pytest.raises(InfiniteIntegralError):
        integrate(constant(1, INF), 0, INF)
    with pytest.raises(PreconditionError):
        integrate(f, 2, 1)


def test_window_and_integration_bounds_on_both_domains():
    f = canonicalize([1, 3], [2, 1], 0, INF)
    g = canonicalize([F(1, 2)], [2], 1, 1)
    assert f.window(0, F(1)) == canonicalize([1], [2], 0, INF)
    assert f.window(0, float("inf")) == f.window(0, INF) == f
    # on [0, 1) an infinite end means the domain's end
    assert g.window(0, INF) == g.window(0, float("inf")) == g.window(0, F(1)) == g
    assert g.window(F(1, 4), 1) == canonicalize([F(1, 4), F(1, 2)], [0, 2], 1, 1)
    assert g.window(1) == g.window(F(1, 2), F(1, 2)) == constant(0, 1)
    assert integrate(g, 0, 1) == integrate(g, 0, F(1)) == F(3, 2)
    assert integrate(f, 1, float("inf")) == 2
    for end in (INF, float("inf"), F(3, 2)):
        with pytest.raises(PreconditionError, match="integration beyond the domain"):
            integrate(g, 0, end)
    with pytest.raises(PreconditionError, match="window end beyond the domain"):
        g.window(0, F(3, 2))
    with pytest.raises(PreconditionError, match=r"bad integration bounds \[-1, 1/1\]"):
        integrate(g, -1, 1)
    with pytest.raises(PreconditionError, match=r"bad integration bounds \[1, 1/2\]"):
        integrate(f, 1, F(1, 2))


def test_exceedance_measure():
    f = canonicalize([1, 3], [2, 1], 0, INF)
    assert exceedance_measure(f, 1) == 1
    assert exceedance_measure(f, F(1, 2)) == 3
    assert exceedance_measure(f, 2) == 0
    assert exceedance_measure(constant(1, INF), F(1, 2)) == INF
    assert exceedance_measure(constant(0, INF), 0) == 0
    g = canonicalize([1, 3], [-2, 1], 0, INF)
    assert exceedance_measure(g, F(3, 2)) == 1
    with pytest.raises(PreconditionError):
        exceedance_measure(f, F(-1))


def test_step_function_json_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        cuts = sorted(rng.sample(range(1, 40), rng.randint(0, 4)))
        vals = []
        prev = None
        for _ in cuts:
            v = F(rng.randint(-6, 6), rng.randint(1, 4))
            if v == prev:
                v += 1
            vals.append(v)
            prev = v
        tail = F(0) if not vals or vals[-1] != 0 else F(1)
        try:
            f = canonicalize(cuts, vals, tail, INF)
        except PreconditionError:
            continue
        assert StepFunction.from_json(f.to_json()) == f

    assert StepFunction.from_json(box(1, 1, alpha=1).to_json()) == box(1, 1, alpha=1)


def test_step_function_json_rejects_garbage():
    good = box(1, 1).to_json()
    for mutate in (
        lambda d: d.pop("alpha"),
        lambda d: d.update(alpha="2"),
        lambda d: d.update(breakpoints=[1]),
        lambda d: d.update(values=["1/1", "2/1"]),
        lambda d: d.update(tail="x"),
        # a string is not a list, even when its characters parse
        lambda d: d.update(breakpoints="1"),
        lambda d: d.update(values="1"),
    ):
        bad = {k: (list(v) if isinstance(v, list) else v) for k, v in good.items()}
        mutate(bad)
        with pytest.raises(ParseError):
            StepFunction.from_json(bad)
    with pytest.raises(ParseError):
        StepFunction.from_json("not a dict")


def test_plc_validation_and_evaluation():
    phi = PiecewiseLinearConcave(INF, (F(1), F(3)), (F(2), F(4)), F(0))
    assert phi.value_at(0) == 0
    assert phi.value_at(F(1, 2)) == 1
    assert phi.value_at(2) == 3
    assert phi.value_at(100) == 4
    assert phi.slope.values == (F(2), F(1))
    assert phi.final_branch() == (F(4), F(0))

    with pytest.raises(PreconditionError):
        # slopes increase: not concave
        PiecewiseLinearConcave(INF, (F(1), F(2)), (F(1), F(3)), F(0))
    with pytest.raises(PreconditionError):
        # final slope exceeds the last segment slope
        PiecewiseLinearConcave(INF, (F(1),), (F(1),), F(2))

    loaded = PiecewiseLinearConcave.from_json(phi.to_json())
    assert loaded == phi
    for key, text in (("breakpoints", "13"), ("node_values", "24")):
        with pytest.raises(ParseError):
            PiecewiseLinearConcave.from_json({**phi.to_json(), key: text})
    with pytest.raises(PreconditionError):
        plc_from_nodes([1, 1], [1, 2], 0)  # repeated cut
    with pytest.raises(PreconditionError):
        plc_from_nodes([1, 2], [1], 0)  # one node value short


def test_plc_jump_at_zero():
    phi = PiecewiseLinearConcave(INF, (F(2),), (F(3),), F(0), jump0=F(1))
    assert phi.value_at(0) == 0  # the value at 0; jump0 holds the right limit
    assert phi.jump0 == 1
    assert phi.value_at(1) == 2


def test_alpha_one_domain():
    f = box(2, F(1, 2), alpha=1)
    assert f.alpha == 1
    assert f(F(1, 4)) == 2
    assert integrate(f, 0, 1) == 1
    g = StepFunction.from_json(f.to_json())
    assert g == f and g.alpha == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-10**45, 10**45), st.integers(1, 10**45))
def test_frac_is_the_fraction_of_a_reduced_pair(n, d):
    g = math.gcd(n, d)
    n, d = n // g, d // g
    q, ref = _frac(n, d), F(n, d)
    assert type(q) is F
    assert q == ref and hash(q) == hash(ref) and str(q) == str(ref)
    assert (q.numerator, q.denominator) == (n, d)
    back = pickle.loads(pickle.dumps(q))
    assert type(back) is F and back == ref and str(back) == str(ref)
