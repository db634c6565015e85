"""Hardy-Littlewood-Polya majorization and the two-majorant construction.

Write y ≺ x when int_0^t y* <= int_0^t x* for every t > 0.  This module
decides the relation exactly (with a rational witness on failure), decides
membership in the order-interval section

    M(x, tau, eps) = { y : y = y*, y ≺ x, Phi_y(tau) + eps <= Phi_x(tau) },

and constructs, for a nonincreasing x on [0, inf) with x*(inf) = 0 and
0 < eps < Phi_x(tau), a pair z, w of nonincreasing majorized functions whose
order intervals cover M(x, tau, eps):

    every y in M(x, tau, eps) satisfies y ≺ z or y ≺ w,

with z, w != x and z in M(x, tau - tau1, eps1), w in M(x, tau + tau1, eps1)
for the reported tau1, eps1.  The geometry: p = Phi_x(tau) - eps, gamma the
least t with Phi_x(t) = p, beta the least t > tau where the ray of slope
p/tau meets Phi_x again, and xi the slope of the chord of Phi_x over
[gamma, beta].  When the chord lies strictly below Phi_x somewhere inside
(case tag ``affine_gap``) a single averaging of x over [gamma, beta) gives
z = w.  When Phi_x is affine on [gamma, beta] (case tag ``affine_chord``)
the chord is lowered by eps' = min(eps, phi(0)/2), where phi(0) > 0 is the
chord's intercept, and the two crossings gamma1 < gamma0 and beta1 > beta of
the lowered chord with Phi_x give two genuinely different averagings, z over
[gamma1, tau) and w over [gamma, beta1).  All quantities are exact rationals
and are returned in a ConstructionTrace.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .errors import (
    EmptyFamilyError,
    HypothesisError,
    InfiniteIntegralError,
    PreconditionError,
)
from .rearrange import (
    RearrangementResult,
    _phi_saturated,
    level_integral,
    rearrangement,
)
from .stepfn import (
    INF,
    Ext,
    PiecewiseLinearConcave,
    StepFunction,
    _frac,
    _largest,
    _record,
    _require_same_domain,
    _trusted,
    _walk,
    canonicalize,
    integrate,
    is_decreasing_rearrangement,
    rat,
    rat_str,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@_record
class HlpVerdict:
    """Outcome of an exact ≺ comparison.

    When ``holds`` is False, ``witness`` is a rational t > 0 inside the
    domain with Phi_y(witness) > Phi_x(witness).
    """

    holds: bool
    witness: Optional[Fraction] = None

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "witness": None if self.witness is None else rat_str(self.witness),
        }


# -- the Hardy-Littlewood-Polya order ----------------------------------------


def plc_dominated_by(u: StepFunction, v: StepFunction):
    """Decide int_0^t u <= int_0^t v for every t in (0, alpha), that is, the
    piecewise-linear running integrals of u and v; returns (holds, witness).

    D(t) = int_0^t (u - v) is compared as the running integrals of u and v
    at the merged cuts of refine(u, v) (``stepfn``'s walk), not of the
    canonical u - v, whose merge drops the cuts a witness is read from.  D
    is linear between merged cuts, so a violation shows at the first cut
    with D > 0 or on the final piece; only the witness is a Fraction.
    """
    ends, _, _, _, at_u, at_v = _walk(u, v)
    last, a, b = (0, 1), (0, 1), (0, 1)  # the last end with D <= 0, u's and v's integrals there
    for end, (un, ud), (vn, vd) in zip(ends, at_u, at_v):
        if un * vd > vn * ud:  # D(end) > 0
            if u.alpha is INF or end != (1, 1):  # (1, 1) ends [0, 1)
                return False, _frac(*end)
            break
        last, a, b = end, (un, ud), (vn, vd)
    else:
        if u.alpha is not INF or u.tail <= v.tail:
            return True, None
    # past the last cut D is linear with slope m = u.tail - v.tail and
    # D(last) <= 0, so a rise above 0 starts at root = last - D(last)/m
    lo = _frac(*last)
    root = lo - (_frac(*a) - _frac(*b)) / (u.tail - v.tail)
    if u.alpha is INF:
        return False, root + 1
    return False, next(t for t in ((2 * lo + 1) / 3, (lo + 2) / 3, (root + 1) / 2) if t > root)


def hlp_compare(y: StepFunction, x: StepFunction) -> HlpVerdict:
    """Decide y ≺ x (int_0^t y* <= int_0^t x* for all t) exactly."""
    return HlpVerdict(*plc_dominated_by(rearrangement(y).star, rearrangement(x).star))


def _require_star(x: StepFunction, role: str) -> RearrangementResult:
    """rearrangement(x), once x is checked to be its own rearrangement."""
    if not is_decreasing_rearrangement(x):
        raise PreconditionError(
            f"{role} must be nonnegative and nonincreasing (equal to its "
            "own decreasing rearrangement)"
        )
    return rearrangement(x)


def family_contains(y: StepFunction, x: StepFunction, tau, eps) -> bool:
    """Membership of y in M(x, tau, eps); x must be nonincreasing."""
    _require_same_domain(y, x)
    tau, eps = rat(tau), rat(eps)
    if tau <= 0 or eps <= 0:
        raise PreconditionError(f"need tau > 0 and eps > 0, got tau={tau}, eps={eps}")
    phi_x = _require_star(x, "x").level_integral
    if not is_decreasing_rearrangement(y) or not plc_dominated_by(y, x)[0]:
        return False
    return _phi_saturated(level_integral(y), tau) + eps <= _phi_saturated(phi_x, tau)


# -- the construction --------------------------------------------------------


@_record
class ConstructionTrace:
    """Exact geometry of the two-majorant construction.

    Case tags: ``affine_gap`` when the chord of Phi_x over [gamma, beta]
    dips strictly below Phi_x inside (then z = w); ``affine_chord`` when
    Phi_x is affine there (then gamma0, gamma1, beta1 are set and z != w).
    z lies in M(x, tau - tau1, eps1) and w in M(x, tau + tau1, eps1); every
    member of M(x, tau, eps) is majorized by z or by w.
    """

    case_tag: str
    gamma: Fraction
    beta: Fraction
    xi: Fraction
    z: StepFunction
    w: StepFunction
    tau1: Fraction
    eps1: Fraction
    gamma0: Optional[Fraction] = None
    gamma1: Optional[Fraction] = None
    beta1: Optional[Fraction] = None

    def to_json(self) -> dict:
        opt = lambda v: None if v is None else rat_str(v)
        return {
            "case_tag": self.case_tag,
            "gamma": rat_str(self.gamma),
            "beta": rat_str(self.beta),
            "xi": rat_str(self.xi),
            "gamma0": opt(self.gamma0),
            "gamma1": opt(self.gamma1),
            "beta1": opt(self.beta1),
            "tau1": rat_str(self.tau1),
            "eps1": rat_str(self.eps1),
            "z": self.z.to_json(),
            "w": self.w.to_json(),
        }


def _crossing(phi: PiecewiseLinearConcave, a: Fraction, b: Fraction,
              start: Fraction, end: Optional[Fraction] = None) -> Fraction:
    """Least t > start where d(t) = phi(t) - (a + b*t) reaches 0, given
    d(start) != 0 and, when end is given, d(end) of the opposite sign or 0.

    d is linear between phi's nodes, so the crossing is interpolated on the
    first node interval where d reaches 0; a node or end where d = 0 comes
    back exactly.  Without an end, the search goes on along the final branch
    (the line must cross it).

    d is concave, so {d >= 0} is an interval and the first such node is
    found by bisection.  Falling (d(start) > 0), d <= 0 holds from the
    crossing on.  Rising (d(start) < 0), d increases at every node before
    the first with d >= 0 and decreases at every later node with d < 0, so
    "d >= 0, or phi's next slope is <= b" holds from that node on.  A node
    found by the second clause alone means d falls before it reaches 0, and
    then the final slope is <= b as well.
    """
    cuts, nodes, slopes = phi.cuts, phi.node_values, phi.slope.values
    n = len(cuts)
    d_start = phi.value_at(start) - (a + b * start)
    rising = d_start < 0

    def d(i: int) -> Fraction:
        return nodes[i] - (a + b * cuts[i])

    def met(i: int) -> bool:
        if not rising:
            return d(i) <= 0
        return d(i) >= 0 or (slopes[i + 1] if i + 1 < n else phi.final_slope) <= b

    k = bisect_right(cuts, start)
    stop = n if end is None else bisect_left(cuts, end, k)
    j = k + bisect_left(range(k, stop), True, key=met)
    if j < stop or end is not None:
        s, d_s = (cuts[j], d(j)) if j < stop else (end, phi.value_at(end) - (a + b * end))
        if (d_s >= 0) if rising else (d_s <= 0):
            t_prev, d_prev = (cuts[j - 1], d(j - 1)) if j > k else (start, d_start)
            return t_prev + d_prev * (s - t_prev) / (d_prev - d_s)
    af, bf = phi.final_branch()
    if end is not None or not (bf > b if rising else bf < b):
        raise PreconditionError("line never meets the function again")
    return (af - a) / (b - bf)


def _flatten(x: StepFunction, a, b, avg) -> StepFunction:
    """Replace x = x* on [a, b) by avg, its average there, which the caller
    knows (x**(b) when a = 0), for 0 <= a < b < alpha.  The result splices
    x's cut list: x's cuts below a, then a (when a > 0) and b, then x's cuts
    above b.  x is a star, so only the pieces of x that meet a and b can
    equal avg; there a or b is dropped, and the splice is canonical and
    again a star, built flagged as one."""
    a, b = rat(a), rat(b)
    cuts, values = x.cuts, (*x.values, x.tail)
    i, j = bisect_left(cuts, a), bisect_right(cuts, b)
    ka = int(a > 0 and values[i] != avg)  # 1: x's piece up to a stays
    kb = int(values[j] != avg)  # 1: x's piece from b stays
    spliced = [*values[:i + ka], avg, *values[j + 1 - kb:]]
    return _trusted(StepFunction, alpha=x.alpha,
                    cuts=(*cuts[:i], *[a][:ka], *[b][:kb], *cuts[j:]),
                    values=tuple(spliced[:-1]), tail=spliced[-1], _is_star=True)


def _section(x: StepFunction, tau, eps, role: str):
    """(tau, eps, Phi_x, Phi_x(tau)) once the preconditions shared by the
    construction and the sampler hold (see majorant_pair)."""
    tau, eps = rat(tau), rat(eps)
    if x.alpha is not INF:
        raise PreconditionError(f"{role} requires the domain [0, inf)")
    rr = _require_star(x, "x")
    if rr.star_at_infinity:
        raise PreconditionError(f"{role} requires x*(inf) = 0")
    if tau <= 0 or eps <= 0:
        raise PreconditionError(f"need tau > 0 and eps > 0, got tau={tau}, eps={eps}")
    phi = rr.level_integral
    phi_tau = phi.value_at(tau)
    if eps >= phi_tau:
        raise EmptyFamilyError(
            f"eps = {rat_str(eps)} >= Phi_x(tau) = {rat_str(phi_tau)}: "
            f"M(x, tau, eps) contains no nonzero member ({role} needs "
            "Phi_x(tau) - eps > 0)"
        )
    return tau, eps, phi, phi_tau


def majorant_pair(x: StepFunction, tau, eps) -> ConstructionTrace:
    """Construct the covering pair z, w for M(x, tau, eps) with full geometry.

    Preconditions: x on [0, inf) with x = x* and x*(inf) = 0; tau > 0;
    0 < eps < Phi_x(tau).  The ray and chord intersections used by the
    construction need the running integral to go flat eventually, which is
    exactly the half-line case with vanishing rearrangement at infinity;
    alpha = 1 inputs are rejected: on [0, 1) the ray of slope
    (Phi_x(tau) - eps)/tau need not meet Phi_x again.

    z and w are x averaged over [a, b), whose Phi_x values are known from
    how a and b are found (Phi_x(gamma) = p, Phi_x(beta) = p beta / tau,
    gamma1 and beta1 on the lowered chord).  Phi_z and Phi_w are Phi_x's
    chords there, and eps1 is read off them: z and w are never rearranged.
    """
    tau, eps, phi, phi_tau = _section(x, tau, eps, "construction")
    p = phi_tau - eps
    gamma = _crossing(phi, p, _ZERO, _ZERO)
    beta = _crossing(phi, _ZERO, p / tau, tau)
    xi = (p * beta / tau - p) / (beta - gamma)  # the chord of phi over [gamma, beta]
    chord_a = p - xi * gamma
    # does the chord dip strictly below phi inside?  phi lies above the
    # chord on [gamma, beta] and below phi's tangent from gamma, so it is
    # affine there exactly when that slope is xi.  A flattening is
    # (a, b, the average over [a, b), Phi_x(a)).
    if phi.slope(gamma) != xi:
        z_flat = w_flat = (gamma, beta, xi, p)
        tau1 = min(tau - gamma, beta - tau) / 2
        gamma0 = gamma1 = beta1 = None
        case_tag = "affine_gap"
    else:
        if chord_a <= 0:
            raise AssertionError("chord through the origin cannot be affine-coincident")
        # phi lies below the chord and first meets it at gamma0, a node or gamma
        gamma0 = _crossing(phi, chord_a, xi, _ZERO, gamma)
        low = chord_a - min(eps, chord_a / 2)  # the chord lowered by eps'
        gamma1 = _crossing(phi, low, xi, _ZERO, gamma0)
        beta1 = _crossing(phi, low, xi, beta)
        at_gamma1 = low + xi * gamma1
        z_flat = (gamma1, tau, (phi_tau - at_gamma1) / (tau - gamma1), at_gamma1)
        w_flat = (gamma, beta1, (low + xi * beta1 - p) / (beta1 - gamma), p)
        tau1 = min(tau - gamma1, beta1 - tau) / 2
        case_tag = "affine_chord"
        if not (0 < gamma1 < gamma0 <= gamma < beta < beta1):
            raise AssertionError("construction ordering violated")
    if not (0 < gamma < tau < beta):
        raise AssertionError("gamma < tau < beta violated")
    z = _flatten(x, *z_flat[:3])
    w = z if w_flat is z_flat else _flatten(x, *w_flat[:3])
    # Phi_x minus z's chord at tau - tau1 and w's at tau + tau1
    gap = lambda t, a, b, avg, at_a: phi.value_at(t) - at_a - avg * (t - a)
    eps1 = min(gap(tau - tau1, *z_flat), gap(tau + tau1, *w_flat))
    if not (0 < tau1 < tau and eps1 > 0):
        raise AssertionError("tau1/eps1 positivity violated")
    return ConstructionTrace(
        case_tag=case_tag, gamma=gamma, beta=beta, xi=xi, z=z, w=w,
        tau1=tau1, eps1=eps1, gamma0=gamma0, gamma1=gamma1, beta1=beta1,
    )


def sample_family_member(x: StepFunction, tau, eps, seed: int) -> StepFunction:
    """A deterministic pseudo-random member of M(x, tau, eps).

    Same preconditions as majorant_pair.  seed = 0 always returns the scaled
    copy ((Phi_x(tau) - eps)/Phi_x(tau)) * x; other seeds mix scaling,
    head-averaging, and independently drawn shapes fitted under x.
    """
    tau, eps, phi, phi_tau = _section(x, tau, eps, "sampling")
    rng = random.Random(seed)
    strategy = 0 if seed == 0 else rng.choice(["scale", "head", "shape"])
    if strategy == 0 or strategy == "scale":
        c = (phi_tau - eps) / phi_tau
        if strategy == "scale":
            c *= Fraction(rng.randint(1, 16), 16)
        return x.scale(c)
    if strategy == "head":
        bound = max(x.support_bound, tau, 1)
        r = Fraction(rng.randint(1, 4 * bound.numerator * bound.denominator),
                     2 * bound.denominator ** 2)
        avg = phi.value_at(r) / r
        y0 = _flatten(x, _ZERO, r, avg)
        m = avg * tau if tau < r else phi_tau  # Phi_y0(tau), the chord below r
        c = min(_ONE, (phi_tau - eps) / m) * Fraction(rng.randint(8, 16), 16)
        return y0.scale(c)
    # independently drawn nonincreasing shape v, scaled to fit under Phi_x.
    # Phi_v and Phi_x are 0 at 0, linear between merged cuts and flat past
    # the last one, so c*Phi_v <= Phi_x at every merged cut gives it
    # everywhere; the first and last merged cuts carry the head and
    # total-mass ratios.  Both are running integrals of stepfn's walk over
    # refine(x, v); the least ratio is found by cross-multiplication.
    k = rng.randint(1, 6)
    lengths = [Fraction(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(k)]
    drops = [Fraction(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(k)]
    values = list(accumulate(reversed(drops)))[::-1]  # v drops by drops[i] at cut i
    v = canonicalize(list(accumulate(lengths)), values, 0, INF)
    *_, at_x, at_v = _walk(x, v)  # Phi_x > 0 there: the least ratio is 1 / the largest inverse
    fit = 1 / _largest((bn * ad, bd * an) for (an, ad), (bn, bd) in zip(at_x, at_v))
    c = min(fit, (phi_tau - eps) / level_integral(v).value_at(tau))
    y = v.scale(c * Fraction(rng.randint(8, 16), 16))
    if not family_contains(y, x, tau, eps):
        raise AssertionError("fitted shape left M(x, tau, eps)")
    return y


# -- Hardy's lemma ------------------------------------------------------------


def _integral_product(f: StepFunction, g: StepFunction) -> Ext:
    """int_0^alpha f*g exactly; INF when the product has a positive tail on [0,inf)."""
    h = f * g
    if h.alpha is INF and h.tail:
        if h.tail < 0:
            raise InfiniteIntegralError("product integral diverges to -inf")
        return INF
    return integrate(h, 0, h.alpha)


def hardy_check(u: StepFunction, v: StepFunction, w: StepFunction) -> bool:
    """Verify the weighted-domination implication for one exact triple.

    Hypotheses: u, v >= 0 with int_0^t u <= int_0^t v for all t, and w
    nonnegative nonincreasing.  Violated hypotheses raise HypothesisError
    with an exact witness; otherwise returns int u*w <= int v*w (which the
    lemma guarantees, so a False return would expose an arithmetic bug).
    """
    _require_same_domain(u, v)
    _require_same_domain(u, w)
    if not u.is_nonnegative():
        raise HypothesisError("u must be nonnegative", None)
    if not v.is_nonnegative():
        raise HypothesisError("v must be nonnegative", None)
    if not is_decreasing_rearrangement(w):
        raise HypothesisError("w must be nonnegative and nonincreasing", None)
    holds, witness = plc_dominated_by(u, v)
    if not holds:
        raise HypothesisError(
            f"cumulative domination fails at t = {rat_str(witness)}: "
            "int_0^t u > int_0^t v", witness,
        )
    lhs = _integral_product(u, w)
    rhs = _integral_product(v, w)
    # lhs = INF needs u.tail, w.tail > 0; the domination gives v.tail >= u.tail: rhs = INF
    return rhs is INF or lhs <= rhs
