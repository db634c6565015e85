"""Independent exact references for checking rearrcalc outputs.

Nothing here calls rearrcalc.  A step function is read only through its data
fields (``alpha``, ``cuts``, ``values``, ``tail``), a concave
piecewise-linear function through ``cuts``, ``node_values``,
``final_slope`` and ``jump0``, and a hyperbolic fundamental function through
``c``.  Every routine works in exact ``Fraction`` arithmetic and follows the
textbook definitions (Bennett & Sharpley, *Interpolation of Operators*,
ch. 2): the decreasing rearrangement is a sort of the pieces of |x| by value,
its running integral Phi is a cumulative sum, and the suprema defining the
Marcinkiewicz norms are taken over the finitely many candidate points where
a piecewise convex or monotone objective can peak.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

INF = float("inf")
ZERO = Fraction(0)
ONE = Fraction(1)


class Step:
    """Raw step-function data: ``values[i]`` on [cuts[i-1], cuts[i]), then ``tail``."""

    __slots__ = ("alpha", "cuts", "values", "tail")

    def __init__(self, alpha, cuts, values, tail):
        self.alpha = alpha
        self.cuts = list(cuts)
        self.values = list(values)
        self.tail = tail

    @classmethod
    def of(cls, f) -> "Step":
        return cls(INF if f.alpha == INF else ONE, f.cuts, f.values, f.tail)

    def key(self):
        return (self.alpha, tuple(self.cuts), tuple(self.values), self.tail)

    def at(self, t: Fraction) -> Fraction:
        i = bisect_right(self.cuts, t)
        return self.values[i] if i < len(self.values) else self.tail


def canonical(alpha, cuts, values, tail) -> Step:
    """Merge equal neighbours; ``cuts`` must already increase strictly."""
    out_c, out_v = [], []
    for c, v in zip(cuts, values):
        if out_v and out_v[-1] == v:
            out_c[-1] = c
        else:
            out_c.append(c)
            out_v.append(v)
    while out_v and out_v[-1] == tail:
        out_c.pop()
        out_v.pop()
    return Step(alpha, out_c, out_v, tail)


def is_canonical(f) -> bool:
    cuts, values = list(f.cuts), list(f.values)
    if len(cuts) != len(values):
        return False
    if any(b <= a for a, b in zip([ZERO] + cuts, cuts)):
        return False
    if f.alpha != INF and cuts and cuts[-1] >= f.alpha:
        return False
    if any(a == b for a, b in zip(values, values[1:])):
        return False
    return not (values and values[-1] == f.tail)


def same_step(f, g: Step) -> bool:
    return Step.of(f).key() == g.key()


def sorted_star(x: Step) -> Step:
    """x* by sorting the finite pieces of |x| by value, largest first."""
    pieces, start = [], ZERO
    for c, v in zip(x.cuts, x.values):
        pieces.append((abs(v), c - start))
        start = c
    if x.alpha == INF:
        plateau = abs(x.tail)
        pieces = [(v, l) for v, l in pieces if v > plateau]
    else:
        pieces.append((abs(x.tail), ONE - start))
    pieces.sort(key=lambda p: p[0], reverse=True)
    cuts, values, acc = [], [], ZERO
    for v, l in pieces:
        acc += l
        cuts.append(acc)
        values.append(v)
    if x.alpha == INF:
        return canonical(INF, cuts, values, plateau)
    cuts.pop()  # the last sorted piece runs up to 1: it is the tail
    tail = values.pop()
    return canonical(ONE, cuts, values, tail)


class Phi:
    """Phi(t) = int_0^t star, from the star's data: nodes at its cuts."""

    __slots__ = ("star", "nodes")

    def __init__(self, star: Step):
        self.star = star
        acc, prev, nodes = ZERO, ZERO, []
        for c, v in zip(star.cuts, star.values):
            acc += v * (c - prev)
            nodes.append(acc)
            prev = c
        self.nodes = nodes

    def at(self, t: Fraction) -> Fraction:
        cuts = self.star.cuts
        i = bisect_right(cuts, t)
        base_t = cuts[i - 1] if i else ZERO
        base_v = self.nodes[i - 1] if i else ZERO
        slope = self.star.values[i] if i < len(cuts) else self.star.tail
        return base_v + slope * (t - base_t)


def phi_of(x: Step) -> Phi:
    return Phi(sorted_star(x))


def dominated(fy: Phi, fx: Phi, alpha) -> bool:
    """Phi_y <= Phi_x on (0, alpha): both are linear between their joint nodes."""
    points = sorted({*fy.star.cuts, *fx.star.cuts})
    if alpha != INF:
        points.append(ONE)
    if any(fy.at(t) > fx.at(t) for t in points):
        return False
    # past the last node both are affine with slope star(inf)
    return alpha != INF or fy.star.tail <= fx.star.tail


def is_star(f: Step) -> bool:
    """f = f* on [0, inf): nonnegative and nonincreasing (strictly, being canonical)."""
    return f.tail >= 0 and all(a > b for a, b in zip(f.values, f.values[1:] + [f.tail]))


def in_domain(t, alpha) -> bool:
    return t > 0 and (alpha == INF or t < alpha)


def integral(x: Step, a: Fraction, b) -> Fraction:
    """int_a^b x, summing the areas of the pieces; b may be INF (tail 0)."""
    total, start = ZERO, ZERO
    for c, v in zip(x.cuts + [x.alpha], x.values + [x.tail]):
        lo = max(start, a)
        hi = c if b == INF else min(c, b)
        if hi != INF and hi > lo:
            total += v * (hi - lo)
        start = c
    return total


# -- norms --------------------------------------------------------------------


def plc_at(phi, t: Fraction) -> Fraction:
    """Value of a concave piecewise-linear function given by its data, t > 0."""
    cuts, nodes = list(phi.cuts), list(phi.node_values)
    i = bisect_right(cuts, t)
    if i and cuts[i - 1] == t:
        return nodes[i - 1]
    if i < len(cuts):
        s0, v0 = (cuts[i - 1], nodes[i - 1]) if i else (ZERO, phi.jump0)
        return v0 + (nodes[i] - v0) * (t - s0) / (cuts[i] - s0)
    s0, v0 = (cuts[-1], nodes[-1]) if cuts else (ZERO, phi.jump0)
    return v0 + phi.final_slope * (t - s0)


def _fundamental(phi):
    """(value(t), limit at inf, final slope, jump at 0+, breakpoints)."""
    if hasattr(phi, "c"):
        c = phi.c
        return (lambda t: t / (c + t)), ONE, ZERO, ZERO, []
    limit = INF if phi.final_slope > 0 else (phi.node_values[-1] if phi.cuts else phi.jump0)
    return (lambda t: plc_at(phi, t)), limit, phi.final_slope, phi.jump0, list(phi.cuts)


def norm(kind: str, phi, x: Step):
    if kind == "L1":
        if x.alpha == INF and x.tail != 0:
            return INF
        return integral(Step(x.alpha, x.cuts, [abs(v) for v in x.values], abs(x.tail)),
                        ZERO, x.alpha)
    if kind == "Linf":
        return max(abs(v) for v in x.values + [x.tail])
    star = sorted_star(x)
    head = star.values[0] if star.values else star.tail
    big = Phi(star)
    if kind == "L1plusLinf":
        return big.at(ONE)
    value, limit, slope, jump0, phi_cuts = _fundamental(phi)
    if kind == "MarcinkiewiczStar":
        # x* is constant on [s, e) and phi increases: each piece peaks at e-
        best = ZERO
        for c, v in zip(star.cuts + [x.alpha], star.values + [star.tail]):
            if v != 0:
                top = (limit if x.alpha == INF else value(ONE)) if c == x.alpha else value(c)
                if top == INF:
                    return INF
                best = max(best, v * top)
        return best
    # Marcinkiewicz: sup_t Phi(t) phi(t) / t.  Between joint breakpoints the
    # objective is A/t + B + C t with A, C >= 0 (convex) for a piecewise-linear
    # phi, or a Moebius map of t (monotone) for the hyperbola: endpoints and
    # the limits at 0+ and at the right end of the domain suffice.
    points = sorted({*star.cuts, *(c for c in phi_cuts if c < x.alpha)})
    cands = [jump0 * head]
    cands += [big.at(t) * value(t) / t for t in points]
    if x.alpha != INF:
        cands.append(big.at(ONE) * value(ONE))
    elif hasattr(phi, "c"):
        cands.append(star.tail)  # Phi(t) / (c + t) -> x*(inf)
    elif star.tail > 0 and slope > 0:
        return INF
    else:
        # past every breakpoint Phi = a + b t and phi = c + d t with b * d = 0,
        # so Phi phi / t -> a d + b c
        last = points[-1] if points else ONE
        b, d = star.tail, slope
        a = big.at(last) - b * last
        c = value(last) - d * last
        cands.append(a * d + b * c)
    return max(cands)


# -- maximal-function distance ------------------------------------------------


def _linear_positive_length(p: Fraction, q: Fraction, lo: Fraction, hi):
    """Length of { t in (lo, hi) : p + q t > 0 }; INF when unbounded."""
    if q == 0:
        return (INF if hi == INF else hi - lo) if p > 0 else ZERO
    root = -p / q
    if q > 0:
        a, b = max(lo, root), hi
    else:
        a, b = lo, root if hi == INF else min(hi, root)
    if b == INF:
        return INF
    return b - a if b > a else ZERO


def maximal_distance(x: Step, y: Step, delta: Fraction):
    """mu{ t in (0, alpha) : |x**(t) - y**(t)| > delta }.

    On a segment (lo, hi) between joint nodes, t*(x** - y**)(t) = A + B t is
    affine, and |A/t + B| > delta splits into the two disjoint linear
    conditions A + (B - delta) t > 0 and A + (B + delta) t < 0.
    """
    fx, fy = phi_of(x), phi_of(y)
    ends = sorted({*fx.star.cuts, *fy.star.cuts}) + [x.alpha]
    total, lo = ZERO, ZERO
    for hi in ends:
        d0 = fx.at(lo) - fy.at(lo)
        slope = fx.star.at(lo) - fy.star.at(lo)
        a, b = d0 - slope * lo, slope
        for piece in (_linear_positive_length(a, b - delta, lo, hi),
                      _linear_positive_length(-a, -(b + delta), lo, hi)):
            if piece == INF:
                return INF
            total += piece
        lo = hi
    return total
