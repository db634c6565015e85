"""Exactly-computable symmetric function norms on step functions.

Five space kinds over a base interval [0, alpha):

* ``L1``            ||x|| = int |x| = Phi_x(alpha-)
* ``Linf``          ||x|| = ess sup |x| = x*(0+)
* ``L1plusLinf``    ||x|| = int_0^1 x* = Phi_x(1)  (the usual K-functional at 1)
* ``Marcinkiewicz``       ||x|| = sup_t x**(t) * phi(t)
* ``MarcinkiewiczStar``   ||x|| = sup_t x*(t) * phi(t)   (quasinorm)

phi is a fundamental function: either an increasing concave piecewise-linear
function positive on (0, alpha), or the rational hyperbola t/(c + t), c > 0.
Everything is exact.  Both Marcinkiewicz norms, for both kinds of phi, are
one pass (``_marcinkiewicz``): one int-pair candidate per merged end of x*
and phi (``stepfn``'s walk for a piecewise-linear phi, x*'s own cuts for the
hyperbola), then the end 1 on [0, 1), compared by cross-multiplication in
one ``_largest``; only the largest becomes a Fraction.  On [0, inf) one
helper, ``_at_infinity``, gives the limit at inf (+inf when it diverges);
the limit at 0+ never exceeds the first end.  L1 and Linf need no
rearrangement: L1 is the int-pair total of |value| times length, Linf the
largest |value|, found the same way.  L1 + Linf is Phi_x(1), read off the
level integral.
The fundamental function of every kind is the exact data of
:meth:`SpaceSpec.fundamental_function` (built once per kind and domain for
the classical kinds), which ``fundamental_eval`` and ``embeds_in_l1`` read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from typing import Optional, Union

from .errors import ParseError, PreconditionError
from .rearrange import RearrangementResult, rearrangement
from .stepfn import (
    INF,
    Ext,
    PiecewiseLinearConcave,
    StepFunction,
    _ONE,
    _ZERO,
    _coerce_alpha,
    _cut_pairs,
    _largest,
    _lengths,
    _pairs,
    _plc_at,
    _ratio,
    _record,
    _total,
    _value_pairs,
    _walk,
    alpha_str,
    parse_alpha,
    parse_rat,
    rat,
    rat_str,
)


@_record
class Hyperbolic:
    """The fundamental function phi(t) = t / (c + t) with rational c > 0."""

    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", rat(self.c))
        if self.c <= 0:
            raise PreconditionError(f"hyperbolic parameter must be positive, got {self.c}")

    def value_at(self, t) -> Fraction:
        t = rat(t)
        if t < 0:
            raise PreconditionError(f"t={t} < 0")
        return t / (self.c + t)

    def to_json(self) -> dict:
        return {"kind": "rational_hyperbolic", "c": rat_str(self.c)}


FundamentalFunction = Union[PiecewiseLinearConcave, Hyperbolic]


def _validate_fundamental(phi: FundamentalFunction, alpha: Ext) -> None:
    if isinstance(phi, Hyperbolic):
        return
    if not isinstance(phi, PiecewiseLinearConcave):
        raise PreconditionError(f"not a fundamental function: {phi!r}")
    if phi.alpha is not alpha:
        raise PreconditionError(
            f"fundamental function lives on [0,{alpha_str(phi.alpha)}), "
            f"space on [0,{alpha_str(alpha)})"
        )
    if phi.jump0 == 0 and phi.slope(0) <= 0:
        raise PreconditionError("fundamental function must be positive for t > 0")


_KINDS = ("L1", "Linf", "L1plusLinf", "Marcinkiewicz", "MarcinkiewiczStar")
_PHI_KINDS = ("Marcinkiewicz", "MarcinkiewiczStar")

# fundamental functions of the classical kinds, per (kind, alpha): t, the
# indicator of (0, alpha), and min(t, 1), which on [0, 1) is just t
_CLASSICAL_PHI = {
    ("L1", _ONE): PiecewiseLinearConcave(_ONE, (), (), _ONE),
    ("L1", INF): PiecewiseLinearConcave(INF, (), (), _ONE),
    ("Linf", _ONE): PiecewiseLinearConcave(_ONE, (), (), _ZERO, jump0=_ONE),
    ("Linf", INF): PiecewiseLinearConcave(INF, (), (), _ZERO, jump0=_ONE),
    ("L1plusLinf", _ONE): PiecewiseLinearConcave(_ONE, (), (), _ONE),
    ("L1plusLinf", INF): PiecewiseLinearConcave(INF, (_ONE,), (_ONE,), _ZERO),
}


@_record
class SpaceSpec:
    """A named symmetric space on [0, alpha), with phi for the M-kinds."""

    kind: str
    phi: Optional[FundamentalFunction] = None
    alpha: Ext = INF

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise PreconditionError(
                f"unknown space kind {self.kind!r}; expected one of {', '.join(_KINDS)}"
            )
        try:
            object.__setattr__(self, "alpha", _coerce_alpha(self.alpha))
        except PreconditionError:
            raise PreconditionError("space domain endpoint must be 1 or inf") from None
        if self.kind in _PHI_KINDS:
            if self.phi is None:
                raise PreconditionError(f"kind {self.kind} needs a fundamental function")
            _validate_fundamental(self.phi, self.alpha)
        elif self.phi is not None:
            raise PreconditionError(f"kind {self.kind} does not take a fundamental function")

    # fundamental function of the space itself, as exact data
    def fundamental_function(self) -> FundamentalFunction:
        if self.kind in _PHI_KINDS:
            return self.phi
        return _CLASSICAL_PHI[self.kind, self.alpha]

    def to_json(self) -> dict:
        out = {"kind": self.kind, "alpha": alpha_str(self.alpha)}
        if self.phi is not None:
            p = self.phi.to_json()
            if isinstance(self.phi, PiecewiseLinearConcave):
                p = {"kind": "piecewise_linear_concave", **p}
            out["phi"] = p
        return out

    @staticmethod
    def from_json(obj: dict) -> "SpaceSpec":
        if not isinstance(obj, dict):
            raise ParseError("space JSON must be an object")
        try:
            kind = obj["kind"]
            alpha = parse_alpha(obj.get("alpha", "inf"))
        except KeyError as e:
            raise ParseError(f"space JSON missing key {e.args[0]!r}") from None
        phi = None
        if "phi" in obj and obj["phi"] is not None:
            p = obj["phi"]
            if not isinstance(p, dict) or "kind" not in p:
                raise ParseError("phi JSON must be an object with a 'kind'")
            if p["kind"] == "rational_hyperbolic":
                try:
                    phi = Hyperbolic(parse_rat(p["c"]))
                except KeyError:
                    raise ParseError("rational_hyperbolic phi needs 'c'") from None
            elif p["kind"] == "piecewise_linear_concave":
                phi = PiecewiseLinearConcave.from_json(p)
            else:
                raise ParseError(f"unknown phi kind {p['kind']!r}")
        try:
            return SpaceSpec(kind, phi, alpha)
        except PreconditionError as e:
            raise ParseError(f"invalid space: {e}") from None


def _at_infinity(phi: FundamentalFunction, rr: RearrangementResult, star: bool) -> Ext:
    """lim of x*(t)*phi(t) (star) or x**(t)*phi(t) as t -> inf, for x with
    rearrangement rr on [0, inf).  Past the last cuts Phi_x(t) = a + tail*t
    and phi(t) = b + m*t, so the limit is tail*phi(inf) (INF when tail > 0
    and m > 0), plus a*m for x**; the hyperbola has phi(inf) = 1 and m = 0."""
    tail = rr.star_at_infinity
    if isinstance(phi, Hyperbolic):
        return tail
    b, m = phi.final_branch()
    if tail and m:
        return INF
    return tail * b if star else tail * b + rr.level_integral.final_branch()[0] * m


def _marcinkiewicz(phi: FundamentalFunction, x: StepFunction, star: bool) -> Ext:
    """sup_t x*(t)*phi(t) (star) or sup_t x**(t)*phi(t) over [0, alpha).

    One int-pair candidate per merged end e of x* and phi (then 1 when
    alpha = 1): v*phi(e), v the value of x* on the piece ending at e, or
    Phi_x(e)*phi(e)/e.  On a merged piece the first objective is
    nondecreasing; the second is A/t + B + C*t with A, C >= 0 for a PLC phi
    (convex) and a Moebius transform of an affine function for the hyperbola
    (monotone).  So the ends and the limit at inf suffice: at 0+ the
    objective is x*(0+)*phi(t), nondecreasing up to the first end or inf."""
    rr = rearrangement(x)
    if isinstance(phi, Hyperbolic):
        # the merged ends are x*'s cuts, where Phi_x has its nodes (the
        # pairs after jump0's); phi(e) = e / (c + e) = en cd / (cn ed + en cd)
        ends = list(_cut_pairs(rr.star))
        # x*'s values end with its tail, x*(1-) at the end 1
        factors = _value_pairs(rr.star) if star else _pairs(rr.level_integral._node_ints[2:])
        if x.alpha is not INF:
            ends.append((1, 1))
            if not star:
                factors = chain(factors, [_plc_at(rr.level_integral, 1, 1)])
        cn, cd = _ratio(phi.c)
        phis = ((en * cd, cn * ed + en * cd) for en, ed in ends)
    else:
        # phi - jump0 and Phi_x are the walk's running integrals of phi's
        # slope function and of x*
        ends, _, values, _, at_big, at_phi = _walk(rr.star, phi.slope)
        factors = values if star else at_big
        jn, jd = _ratio(phi.jump0)
        phis = ((jn * pd + pn * jd, jd * pd) for pn, pd in at_phi)
    divisors = repeat((1, 1)) if star else ends  # x**(e) = Phi_x(e) / e
    best = _largest((fn * pn * ed, fd * pd * en)
                    for (en, ed), (fn, fd), (pn, pd) in zip(divisors, factors, phis))
    if x.alpha is not INF:
        return best
    at_inf = _at_infinity(phi, rr, star)
    return INF if at_inf is INF else max(best, at_inf)


def norm(space: SpaceSpec, x: StepFunction) -> Ext:
    """||x|| in the given space, exactly (INF when x is not in the space)."""
    if x.alpha is not space.alpha:
        raise PreconditionError(
            f"x lives on [0,{alpha_str(x.alpha)}), space on [0,{alpha_str(space.alpha)})"
        )
    if space.kind == "L1":
        if x.alpha is INF and x.tail:
            return INF
        pieces = zip(_value_pairs(x), _lengths(_cut_pairs(x), x.alpha))
        return _total((abs(vn) * n, vd * d) for (vn, vd), (n, d) in pieces)
    if space.kind == "Linf":
        return _largest((abs(n), d) for n, d in _value_pairs(x))
    if space.kind == "L1plusLinf":
        # int_0^1 x*; value_at(1) is the left limit when alpha = 1
        return rearrangement(x).level_integral.value_at(_ONE)
    return _marcinkiewicz(space.phi, x, space.kind == "MarcinkiewiczStar")


def fundamental_eval(space: SpaceSpec, t) -> Fraction:
    """phi_E(t) = ||indicator of [0,t)|| for 0 < t < alpha."""
    t = rat(t)
    tn, td = _ratio(t)
    if tn <= 0 or (space.alpha is not INF and tn >= td):
        raise PreconditionError(f"need 0 < t < {alpha_str(space.alpha)}, got {t}")
    return space.fundamental_function().value_at(t)


def embeds_in_l1(space: SpaceSpec) -> bool:
    """Whether the space embeds in L1[0, b] for every finite b, i.e. whether
    lim_{t->inf} phi_E(t)/t > 0.  Defined for alpha = inf only."""
    if space.alpha is not INF:
        raise PreconditionError("the embedding criterion is about [0, inf) spaces")
    # lim phi(t)/t is the final slope of a PLC phi, and 0 for the hyperbola
    phi = space.fundamental_function()
    return isinstance(phi, PiecewiseLinearConcave) and phi.final_slope > 0


def mphi_a_member(phi: FundamentalFunction, x: StepFunction) -> bool:
    """Membership of x in the order-continuous part of the Marcinkiewicz
    space: x**(t)*phi(t) -> 0 both as t -> 0+ and t -> inf."""
    if x.alpha is not INF:
        raise PreconditionError("membership test is about [0, inf) spaces")
    _validate_fundamental(phi, INF)
    rr = rearrangement(x)
    if isinstance(phi, PiecewiseLinearConcave) and phi.jump0 and rr.star(0):
        return False  # the limit at 0+ is jump0 * x*(0+)
    return _at_infinity(phi, rr, False) == 0
