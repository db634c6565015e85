"""Sequence families and finite-evidence probes for order continuity.

A SequenceFamily is an indexed family n -> x_n of step functions; a probe
checks every x_n it records against a base point x, and a member with x_n
not ≺ x ends the probe with a PreconditionError.  probe_koc tracks norms
of x_n along an index list and reports whether the evidence is consistent
with the norms tending to 0 (K-order continuity at x); probe_lkm tracks
|x_n| -> |x| style convergence instead: exact in-measure distances between
rearrangements and between maximal functions, plus the norm gap.  Verdicts
are three-valued (consistent_with_KOC, consistent_with_failure,
inconclusive) and never claim more than the finitely many indices tested.

All distances are exact: for rearrangements the set {|x_n* - x*| > delta}
is a finite union of intervals of a step function.  For maximal functions,
``stepfn``'s walk over the two stars gives Phi_{x_n} and Phi_x at the
merged cuts as int pairs, and G = Phi_{x_n} - Phi_x is affine, of slope m,
on every merged piece.  As x_n** - x** = G(t)/t, the set
{|x_n** - x**| > delta} is the disjoint union of {G - delta t > 0} and
{-G - delta t > 0}.  On a piece each is decided by the signs of its affine
function at the piece's two ends, int cross-products of G, the end and
delta: both >= 0 and not both 0 counts the whole piece, both <= 0 none of
it, and only a sign change places a root.  On [0, 1) the end 1 closes the
last piece; on [0, inf) the last piece is a ray, infinite when its slope
m -+ delta is positive, or zero with a positive value at the last cut.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .errors import PreconditionError
from .majorize import _flatten, hlp_compare
from .rearrange import maximal_eval, rearrangement
from .spaces import SpaceSpec, norm
from .stepfn import (
    INF,
    Ext,
    StepFunction,
    _ZERO,
    _record,
    _require_same_domain,
    _total,
    _walk,
    box,
    exceedance_measure,
    ext_str,
    rat,
    rat_str,
)

DEFAULT_DELTAS = (Fraction(1), Fraction(1, 2), Fraction(1, 10))


@_record
class SequenceFamily:
    """An indexed family n -> x_n."""

    name: str
    generator: Callable[[int], StepFunction]

    def __call__(self, n: int) -> StepFunction:
        if not isinstance(n, int) or n < 1:
            raise PreconditionError(f"family index must be an integer >= 1, got {n!r}")
        return self.generator(n)


def flatten_head(x: StepFunction, n: int) -> StepFunction:
    """Average x* over [0, n): y_n = x**(n) on [0, n), x* beyond.

    x must be nonnegative on [0, inf).  The result is nonincreasing, equals
    x* past n, and satisfies y_n ≺ x (re-verified here on every call).
    """
    if x.alpha is not INF:
        raise PreconditionError("head flattening is defined on [0, inf)")
    if not x.is_nonnegative():
        raise PreconditionError("head flattening needs a nonnegative x")
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(f"head length must be an integer >= 1, got {n!r}")
    rr = rearrangement(x)
    y = _flatten(rr.star, _ZERO, n, rr.level_integral.value_at(n) / n)
    verdict = hlp_compare(y, x)
    if not verdict.holds:
        raise AssertionError(
            f"flattened head fails y ≺ x at t = {rat_str(verdict.witness)}"
        )
    return y


def builtin_family(name: str, x: Optional[StepFunction] = None, t_x=None) -> SequenceFamily:
    """Named families used by the replicate command and the probes.

    * ``remark45``:        x_n = (1/n) on [0, n), below x = indicator [0, 1)
    * ``example46_heads``: x_n = indicator of [0, 1/n), below x = 1 on [0, inf)
    * ``lemma43_y``:       y_n = (x*(t_x)/n) on [0, n*t_x)   (needs x, t_x)
    * ``lemma43_x``:       x_n = x**(n) on [0, n)            (needs x)
    * ``thm47_flatten``:   y_n = flatten_head(x, n)          (needs x)
    """
    if name == "remark45":
        return SequenceFamily(name, lambda n: box(Fraction(1, n), n))
    if name == "example46_heads":
        return SequenceFamily(name, lambda n: box(1, Fraction(1, n)))
    if name in ("lemma43_y", "lemma43_x", "thm47_flatten"):
        if x is None:
            raise PreconditionError(f"family {name} needs a base function x")
        if x.alpha is not INF:
            raise PreconditionError(f"family {name} is defined on [0, inf)")
        if name == "lemma43_x":
            return SequenceFamily(name, lambda n: box(maximal_eval(x, n), n))
        if name == "thm47_flatten":
            return SequenceFamily(name, lambda n: flatten_head(x, n))
        if t_x is None:
            raise PreconditionError("family lemma43_y needs the point t_x")
        t_x = rat(t_x)
        if t_x <= 0:
            raise PreconditionError(f"need t_x > 0, got {t_x}")
        v = rearrangement(x).star(t_x)
        if v <= 0:
            raise PreconditionError(
                f"family lemma43_y needs x*(t_x) > 0, got x*({rat_str(t_x)}) = 0"
            )
        return SequenceFamily(name, lambda n: box(v / n, n * t_x))
    raise PreconditionError(
        "unknown family name; expected remark45, example46_heads, "
        "lemma43_y, lemma43_x, or thm47_flatten"
    )


# -- exact in-measure distances ----------------------------------------------


def _positive(delta) -> Fraction:
    delta = rat(delta)
    if delta <= 0:
        raise PreconditionError(f"need delta > 0, got {delta}")
    return delta


def measure_distance(f: StepFunction, g: StepFunction, delta) -> Ext:
    """mu{ t : |f(t) - g(t)| > delta }, exactly; may be INF."""
    return exceedance_measure(f - g, _positive(delta))


def maximal_distance(x: StepFunction, y: StepFunction, delta) -> Ext:
    """mu{ t in (0, alpha) : |x**(t) - y**(t)| > delta }, exactly."""
    delta = _positive(delta)
    _require_same_domain(x, y)
    ends, lengths, xv, yv, at_x, at_y = _walk(rearrangement(x).star, rearrangement(y).star)
    en, ed = delta.as_integer_ratio()
    # (G - delta t) D and (-G - delta t) D at t = 0, then at each end, D > 0
    plus = minus = 0
    D = 1
    pieces = []  # int pairs of the lengths of the exceedance set
    for (n, d), (cn, cd), (an, ad), (bn, bd) in zip(lengths, ends, at_x, at_y):
        gd = ad * bd  # G at the end is (an bd - bn ad) / gd
        g, e, D_hi = (an * bd - bn * ad) * ed * cd, en * cn * gd, gd * ed * cd
        plus_hi, minus_hi = g - e, -g - e
        for lo, hi in ((plus, plus_hi), (minus, minus_hi)):
            if lo >= 0 and hi >= 0:
                if lo or hi:
                    pieces.append((n, d))
            elif lo > 0 or hi > 0:  # one root: (n/d) h(pos end) / (h(pos) - h(neg))
                u, w = lo * D_hi, hi * D
                pieces.append((n * u, d * (u - w)) if lo > 0 else (n * w, d * (w - u)))
        plus, minus, D = plus_hi, minus_hi, D_hi
    if x.alpha is INF:  # the ray from the last cut, slope m -+ delta
        (an, ad), (bn, bd) = xv[-1], yv[-1]
        mn, md = an * bd - bn * ad, ad * bd
        for h, sn in ((plus, mn * ed - en * md), (minus, -mn * ed - en * md)):
            if sn > 0 or (sn == 0 and h > 0):
                return INF
            if h > 0:  # root at h / (D |slope|) past the last cut
                pieces.append((h * md * ed, -sn * D))
    return _total(pieces)


# -- probes -------------------------------------------------------------------


@_record
class ProbeRecord:
    """Measurements at one index n, for a member x_n checked ≺ x."""

    n: int
    norm: Ext
    star_distances: tuple[tuple[Fraction, Ext], ...]
    maximal_distances: Optional[tuple[tuple[Fraction, Ext], ...]] = None
    norm_gap: Optional[Ext] = None

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "norm": ext_str(self.norm),
            "hlp_holds": True,
            "star_distance": {rat_str(d): ext_str(m) for d, m in self.star_distances},
        }
        if self.maximal_distances is not None:
            out["maximal_distance"] = {
                rat_str(d): ext_str(m) for d, m in self.maximal_distances
            }
        if self.norm_gap is not None:
            out["norm_gap"] = ext_str(self.norm_gap)
        return out


@_record
class ProbeReport:
    """Finite evidence from a probe run; serializes to JSON and a table."""

    probe: str
    family: str
    space: SpaceSpec
    n_list: tuple[int, ...]
    records: tuple[ProbeRecord, ...]
    verdict: str
    notes: str
    tolerance: Optional[Fraction] = None

    def to_json(self) -> dict:
        out = {
            "probe": self.probe,
            "family": self.family,
            "space": self.space.to_json(),
            "n": list(self.n_list),
            "records": [r.to_json() for r in self.records],
            "verdict": self.verdict,
            "notes": self.notes,
        }
        if self.tolerance is not None:
            out["tolerance"] = rat_str(self.tolerance)
        return out

    def to_table(self) -> str:
        deltas = [d for d, _ in self.records[0].star_distances] if self.records else []
        header = ["n", "norm", "hlp"]
        header += [f"d*[{rat_str(d)}]" for d in deltas]
        if self.records and self.records[0].maximal_distances is not None:
            header += [f"d**[{rat_str(d)}]" for d in deltas]
        if self.records and self.records[0].norm_gap is not None:
            header.append("norm_gap")
        rows = []
        for r in self.records:
            row = [str(r.n), ext_str(r.norm), "yes"]
            row += [ext_str(m) for _, m in r.star_distances]
            if r.maximal_distances is not None:
                row += [ext_str(m) for _, m in r.maximal_distances]
            if r.norm_gap is not None:
                row.append(ext_str(r.norm_gap))
            rows.append(row)
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        fmt = lambda row: "  ".join(c.rjust(w) for c, w in zip(row, widths))
        lines = [
            f"probe={self.probe} family={self.family} space={self.space.kind} "
            f"verdict={self.verdict}",
            fmt(header),
            fmt(["-" * w for w in widths]),
        ]
        lines += [fmt(r) for r in rows]
        lines.append(f"notes: {self.notes}")
        return "\n".join(lines)


def _members(x: StepFunction, family: SequenceFamily, space: SpaceSpec,
             n_list: tuple[int, ...]) -> Iterator[tuple[int, StepFunction, Ext]]:
    """(n, x_n, ||x_n||) along a validated n_list; raises at the first x_n not ≺ x."""
    for n in n_list:
        x_n = family(n)
        verdict = hlp_compare(x_n, x)
        if not verdict.holds:
            raise PreconditionError(
                f"family {family.name} leaves the order interval at n = {n}: "
                f"int_0^t x_n* > int_0^t x* at t = {rat_str(verdict.witness)}"
            )
        yield n, x_n, norm(space, x_n)


def probe_koc(x: StepFunction, family: SequenceFamily, space: SpaceSpec,
              n_list: Sequence[int], tolerance, deltas=DEFAULT_DELTAS) -> ProbeReport:
    """Track ||x_n|| along n_list for a family with every x_n ≺ x.

    Verdict: consistent_with_KOC when the norm sequence has a nonincreasing
    tail and ends below tolerance; consistent_with_failure when all norms
    stay >= tolerance (min reported); inconclusive otherwise.  Distances of
    x_n* to 0 at each delta are recorded as the in-measure diagnostic.
    """
    tolerance = rat(tolerance)
    if tolerance <= 0:
        raise PreconditionError(f"need tolerance > 0, got {tolerance}")
    n_list = _validated_n_list(n_list)
    deltas = tuple(rat(d) for d in deltas)
    # x_n and x_n* are equimeasurable: mu{x_n* > d} = mu{|x_n| > d}
    records = [
        ProbeRecord(n, norm_n, tuple((d, exceedance_measure(x_n, _positive(d)))
                                     for d in deltas))
        for n, x_n, norm_n in _members(x, family, space, n_list)
    ]
    norms = [r.norm for r in records]
    tail_start = len(norms) - 1
    while tail_start > 0 and norms[tail_start - 1] >= norms[tail_start]:
        tail_start -= 1
    last = norms[-1]
    low = min(norms)
    if last < tolerance and tail_start < len(norms) - 1:
        verdict = "consistent_with_KOC"
        notes = (
            f"norms nonincreasing from n={n_list[tail_start]} and final norm "
            f"{ext_str(last)} < tolerance {rat_str(tolerance)}"
        )
    elif low >= tolerance:
        verdict = "consistent_with_failure"
        notes = f"all norms >= {ext_str(low)} (lower bound over tested n)"
    else:
        verdict = "inconclusive"
        if tail_start >= len(norms) - 1:
            notes = "no nonincreasing norm tail"
        else:
            notes = (
                f"final norm {ext_str(last)} not below tolerance "
                f"{rat_str(tolerance)}"
            )
    notes += f"; x*(inf) = {rat_str(rearrangement(x).star_at_infinity)}"
    final_zero = all(m == 0 for _, m in records[-1].star_distances)
    notes += (
        "; in-measure diagnostic agrees (final x_n* within every delta of 0)"
        if final_zero
        else "; in-measure diagnostic: final x_n* not within every delta of 0"
    )
    return ProbeReport(
        probe="koc", family=family.name, space=space, n_list=n_list,
        records=tuple(records), verdict=verdict, notes=notes, tolerance=tolerance,
    )


def probe_lkm(x: StepFunction, family: SequenceFamily, space: SpaceSpec,
              n_list: Sequence[int], deltas=DEFAULT_DELTAS) -> ProbeReport:
    """Track x_n -> x evidence: exact star/maximal in-measure distances and
    the norm gap |  ||x_n|| - ||x||  | along n_list, for a family below x.

    Verdict: consistent_with_KOC when every recorded distance (star and
    maximal, each delta) is 0 at the final n; consistent_with_failure when
    some delta's distances over the second half of n_list are bounded below
    by a positive rational (reported); inconclusive otherwise.
    """
    n_list = _validated_n_list(n_list)
    deltas = tuple(rat(d) for d in deltas)
    if x.alpha is INF and rearrangement(x).star_at_infinity:
        raise PreconditionError("probe needs x*(inf) = 0 so distances can vanish")
    norm_x = norm(space, x)
    star_x = rearrangement(x).star
    records = []
    for n, x_n, norm_n in _members(x, family, space, n_list):
        star_n = rearrangement(x_n).star
        records.append(ProbeRecord(
            n, norm_n,
            tuple((d, measure_distance(star_n, star_x, d)) for d in deltas),
            tuple((d, maximal_distance(x_n, x, d)) for d in deltas),
            # both norms are finite: on [0, inf), x*(inf) = 0 (checked above) and
            # x_n ≺ x give x_n*(inf) = 0, and such step functions have finite norms
            abs(norm_n - norm_x),
        ))
    final = records[-1]
    all_final_zero = all(m == 0 for _, m in final.star_distances + final.maximal_distances)
    # lower bounds per distance column over the later half of the index list,
    # so a degenerate early entry (x_1 = x gives distance 0) cannot mask a trend
    half = records[len(records) // 2:]
    columns = zip(*((*r.star_distances, *r.maximal_distances) for r in half))
    positive_bounds = [lo for lo in (min(m for _, m in c) for c in columns) if lo > 0]
    if all_final_zero:
        verdict = "consistent_with_KOC"
        notes = "all star/maximal distances vanished at the final n"
    elif positive_bounds:
        verdict = "consistent_with_failure"
        notes = (
            f"some distance bounded below by {ext_str(min(positive_bounds))} "
            "over the later half of n"
        )
    else:
        verdict = "inconclusive"
        notes = "distances neither vanish at the final n nor stay bounded below"
    notes += f"; ||x|| = {ext_str(norm_x)}"
    return ProbeReport(
        probe="lkm", family=family.name, space=space, n_list=n_list,
        records=tuple(records), verdict=verdict, notes=notes, tolerance=None,
    )


def _validated_n_list(n_list: Sequence[int]) -> tuple[int, ...]:
    ns = tuple(n_list)
    if not ns:
        raise PreconditionError("n list must be nonempty")
    for n in ns:
        if not isinstance(n, int) or n < 1:
            raise PreconditionError(f"indices must be integers >= 1, got {n!r}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise PreconditionError("indices must be strictly increasing")
    return ns
