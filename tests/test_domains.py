"""Every object's domain endpoint is one of two singletons, ``stepfn.INF`` or
``stepfn._ONE``: the public constructors normalize a caller's endpoint
(compared by ==), and every other route copies an operand's.  The kernels
test alpha by identity, so this is the invariant they rely on."""

from fractions import Fraction as F

import pytest

from rearrcalc import majorize, rearrange, stepfn
from rearrcalc.errors import PreconditionError
from rearrcalc.spaces import Hyperbolic, SpaceSpec
from rearrcalc.stepfn import (
    PiecewiseLinearConcave,
    StepFunction,
    box,
    canonicalize,
    constant,
    plc_from_nodes,
)

SINGLETONS = (stepfn.INF, stepfn._ONE)

#: fresh endpoint objects, none of them a singleton
FRESH = {"float inf": lambda: float("inf"), "int 1": lambda: 1, "Fraction 1": lambda: F(1)}


def _routes(alpha):
    """(route name, the alpha it gave) for every constructor route."""
    fresh = FRESH[alpha]
    assert fresh() is not stepfn.INF and fresh() is not stepfn._ONE
    x = StepFunction(fresh(), (F(1, 4), F(1, 2)), (F(-2), F(3)), F(1))
    y = canonicalize([F(1, 3)], [F(5)], 0, fresh())
    phi = PiecewiseLinearConcave(fresh(), (F(1, 4),), (F(1),), F(1))
    out = [("StepFunction", x), ("canonicalize", y), ("constant", constant(2, fresh())),
           ("box", box(1, F(1, 2), fresh())), ("PiecewiseLinearConcave", phi),
           ("plc_from_nodes", plc_from_nodes([F(1, 4)], [F(1)], 1, 0, fresh())),
           ("StepFunction.from_json", StepFunction.from_json(x.to_json())),
           ("PiecewiseLinearConcave.from_json", PiecewiseLinearConcave.from_json(phi.to_json())),
           ("SpaceSpec", SpaceSpec("L1", None, fresh())),
           ("SpaceSpec with phi", SpaceSpec("Marcinkiewicz", phi, fresh())),
           ("SpaceSpec with hyperbola", SpaceSpec("MarcinkiewiczStar", Hyperbolic(2), fresh())),
           ("SpaceSpec.from_json",
            SpaceSpec.from_json(SpaceSpec("Linf", None, fresh()).to_json())),
           ("x + y", x + y), ("x - y", x - y), ("-x", -x), ("x * c", x * F(2, 3)),
           ("x * 0", x * 0), ("x * y", x * y), ("abs", abs(x)),
           ("window", x.window(F(1, 8), F(3, 8))), ("window to the end", x.window(F(1, 8))),
           ("window, empty", x.window(F(1, 2), F(1, 4)))]
    rearrange._rearrange.cache_clear()
    rr = rearrange.rearrangement(x)
    out += [("rearrangement star", rr.star), ("level integral", rr.level_integral),
            ("level integral slope", rr.level_integral.slope),
            ("star pass-through", rearrange.rearrangement(rr.star).star),
            ("_flatten", majorize._flatten(rr.star, 0, F(1, 2), F(5, 2)))]
    return [(name, obj.alpha) for name, obj in out]


@pytest.mark.parametrize("alpha", list(FRESH))
def test_every_route_gives_a_singleton_alpha(alpha):
    want = stepfn.INF if alpha == "float inf" else stepfn._ONE
    for name, got in _routes(alpha):
        assert got is want, (name, got)
    assert stepfn._coerce_alpha(float("inf")) is stepfn.INF
    assert all(stepfn._coerce_alpha(s) is s for s in SINGLETONS)


@pytest.mark.parametrize("bad", [2, F(1, 2), "1", "inf", float("nan"), -float("inf"), None])
def test_a_space_on_a_bad_domain_keeps_its_message(bad):
    with pytest.raises(PreconditionError) as e:
        SpaceSpec("L1", None, bad)
    assert str(e.value) == "space domain endpoint must be 1 or inf"
