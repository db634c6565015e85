"""Exact step-function algebra over the rationals.

Functions live on a base interval [0, alpha) with alpha = 1 or alpha = +inf.
A step function is finitely piecewise constant with rational breakpoints and
values, identified up to a.e. equality; the canonical representative uses
right-open pieces [t_{i-1}, t_i), merges neighbouring pieces of equal value,
and stores the eventual value separately as ``tail``.  All arithmetic is
exact: scalars are ``fractions.Fraction``, and the single non-rational value
in the whole library is the sentinel ``INF`` returned by measures, norms and
integrals that diverge.  Floats are rejected everywhere else on purpose; feed
``Fraction``, ints, or "p/q" strings.

The module also provides :class:`PiecewiseLinearConcave` for the increasing
concave envelopes that arise as running integrals of decreasing step
functions, with the same canonical-representative discipline.  Its slopes
are one step function, ``slope`` (the segment slopes, then the final
slope), stored when it is built; it is canonical exactly when ``slope`` is
a star (nonnegative, strictly decreasing).  The one test for x = x* is
:func:`is_decreasing_rearrangement`: the PLC constructor, the
rearrangement's pass-through and the preconditions of ``majorize`` all
call it, and none of them rearranges to find out.

Binary kernels walk the common refinement once: :func:`refine` merges
two cut lists in one pass, the only walk over two cut lists, and returns
the merged cuts as Fractions and as int pairs and both operands' values
on each merged piece as int pairs; ``+``, ``-``, ``*`` and :func:`_walk`
read the lists they need.  Every kernel reads an operand's cuts and values
as int pairs once, through :func:`_cut_pairs` and :func:`_value_pairs`, and
compares, adds or multiplies ints.  ``canonicalize`` (so also
``StepFunction(...)``, :func:`box`, both ``from_json`` and a PLC's
``slope``) keeps the pairs it has read as two flat int tuples (see
:func:`_merged`), which the readers zip; other objects are read with
``Fraction.as_integer_ratio``.  The per-call paths do the same with their
scalars: the cut check of every constructor, the bounds of ``window`` and
:func:`integrate`, the level of :func:`exceedance_measure` (|v| > lam as
|vn| ld > ln vd) and :meth:`PiecewiseLinearConcave.value_at` (one pair,
one gcd); only a bisection of a cut list compares Fractions.  A reduced
pair becomes a Fraction through :func:`_frac`, which skips the gcd of
``Fraction.__new__``; it is the only code that sets Fraction's internal
slots, and the result is a plain Fraction.

A domain endpoint is one of two singletons, ``INF`` or ``_ONE``: the
constructors normalize a caller's endpoint with :func:`_coerce_alpha`, and
every other object copies an operand's.  So a field is tested by identity
(``x.alpha is INF``, ``f.alpha is not g.alpha``), which never asks a
Fraction to compare itself with the float infinity, while a caller's
argument (``_coerce_alpha``'s input, ``alpha_str``, the end ``b`` of
``window`` and ``integrate``) is still compared by ``==``.

Every integral and measure is one int-pair sum.  A length is an int pair,
reduced by gcd unless its cut shares the previous cut's denominator d,
which gives (cn - pn, d).  Value times length is a pair of int products,
and running sums add pairs with one ``math.gcd`` per step.  A total
(:func:`integrate`, :func:`exceedance_measure`, the L1 norm) adds
numerators per denominator, then the distinct denominators with one gcd
each (:func:`_total`).  The consumers of two stars share one walk,
:func:`_walk`: the pieces of ``refine`` as int pairs, their ends and
lengths, and the running integrals of both operands at the ends, each
summed only when read.  ``majorize``'s order test and shape fit, the
maximal distance of ``experiments`` and both Marcinkiewicz norms (phi
through its slope function) read it, compare candidates by int
cross-multiplication (:func:`_largest`) and build one Fraction per result.
Pairs beat one common denominator, which grows to thousands of bits on
coprime denominators.

Canonical form is decided once per type, by a merging builder:
:func:`canonicalize` and :func:`plc_from_nodes` coerce every scalar, check
the cuts (a PLC also its jump at 0, then that its merged slopes are a
star) and merge equal neighbours or collinear nodes.  The one code that
merges piece data into a StepFunction is :func:`_merged`, which takes the
values as int pairs, Fractions or both and builds the result with
:func:`_trusted`, which sets the fields without running ``__post_init__``;
``canonicalize``, a PLC's ``slope`` and the results of ``+ - *``, ``abs``,
``-``, ``scale``, ``positive_part`` and ``window`` on canonical operands
call it.  The public constructors ``StepFunction(...)`` and
``PiecewiseLinearConcave(...)`` run their builder and check only that
nothing merged; :func:`box`, :func:`block` and both ``from_json`` go
through a builder, and :func:`constant`, which has no cuts, is trusted.  So
are the flattenings of ``majorize`` and the rearrangement's star and level
integral (``rearrange``), which are canonical by construction.  The value
types are frozen records (:func:`_record`), built without importing
``dataclasses``, whose import alone took about 10 ms of each CLI command's
start.  A StepFunction keeps in its instance dict its hash, from the
numerators and denominators of its tail and of at most 16 evenly spaced
cuts and values (all below 16 cuts), and ``_is_star``, its x = x* test,
which the trusted stars (the sorted rearrangement, a flattening, a PLC's
``slope``) carry from birth.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import chain, compress, islice, starmap
from math import gcd
from operator import attrgetter, ne
from typing import Iterator, Union

from .errors import (
    DomainMismatchError,
    InfiniteIntegralError,
    ParseError,
    PreconditionError,
)

INF = float("inf")

#: A finite rational or +infinity.
Ext = Union[Fraction, float]

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: a Fraction's (numerator, denominator) pair, lowest terms, denominator > 0
_ratio = Fraction.as_integer_ratio

_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")


def rat(x) -> Fraction:
    """Coerce x to an exact Fraction; floats are rejected, by design."""
    if type(x) is Fraction:  # before isinstance(x, Fraction), which asks the ABC
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return parse_rat(x)
    raise ParseError(f"not an exact rational: {x!r} (floats are not accepted)")


def parse_rat(s: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction."""
    if not isinstance(s, str):
        raise ParseError(f"rational literal must be a string, got {s!r}")
    s = s.strip()
    if not _RAT_RE.match(s):
        raise ParseError(f"bad rational literal: {s!r} (want 'p' or 'p/q')")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ParseError(f"bad rational literal: {s!r} (zero denominator)") from None
    except ValueError:  # more digits than Python converts from a string
        raise ParseError(
            f"bad rational literal: {s[:20]}... ({len(s)} characters, too many digits)"
        ) from None


def _int_str(n: int) -> str:
    """Decimal digits of n, also past the interpreter's int-to-string limit."""
    limit = sys.get_int_max_str_digits()
    if not limit or n.bit_length() < 3 * limit:  # fewer than 3*limit bits: < limit digits
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    k = n.bit_length() * 3 // 20  # about half the digits (log10(2) > 3/10)
    hi, lo = divmod(n, 10**k)
    return _int_str(hi) + _int_str(lo).zfill(k)


def rat_str(q: Fraction) -> str:
    """Serialize a Fraction as "p/q" (always with the slash, e.g. "3/1")."""
    q = rat(q)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def ext_str(v: Ext) -> str:
    return "inf" if v == INF else rat_str(v)


def parse_alpha(s: str) -> Ext:
    if s == "inf":
        return INF
    if s == "1":
        return _ONE
    raise ParseError(f"bad domain endpoint: {s!r} (want '1' or 'inf')")


def alpha_str(alpha: Ext) -> str:
    return "inf" if alpha == INF else "1"


def _coerce_alpha(alpha) -> Ext:
    """The singleton INF or _ONE equal to a caller's endpoint (compared by ==)."""
    if alpha is INF or alpha is _ONE:
        return alpha
    if alpha == INF:
        return INF
    if alpha == 1:
        return _ONE
    raise PreconditionError(f"domain endpoint must be 1 or inf, got {alpha!r}")


def _end(b) -> Ext:
    """A caller's interval end: INF when it equals infinity (by ==, though
    never asking a Fraction, which is finite), else rat(b)."""
    return INF if type(b) is not Fraction and b == INF else rat(b)


def _check_cuts(cuts, alpha) -> list[int]:
    """The int pairs of Fraction cuts, flat (n0, d0, n1, d1, ...); the cuts
    must increase strictly inside (0, alpha), compared as int pairs; alpha
    is INF or _ONE."""
    ints = []
    pn, pd = 0, 1
    for c, (cn, cd) in zip(cuts, map(_ratio, cuts)):
        if cn * pd <= pn * cd:
            raise PreconditionError(f"cuts not strictly increasing at {c}")
        pn, pd = cn, cd
        ints += pn, pd
    if alpha is not INF and pn >= pd:  # cuts[-1] >= 1; 0 >= 1 without cuts
        raise PreconditionError(f"cut {cuts[-1]} outside [0,{alpha_str(alpha)})")
    return ints


def _rat_list(obj: dict, key: str) -> list[Fraction]:
    """obj[key] read as a JSON list of rational literals."""
    items = obj[key]
    if not isinstance(items, list):
        raise ParseError(f"{key!r} must be a JSON list, got {type(items).__name__}")
    return [parse_rat(c) for c in items]


def _trusted(cls, **fields):
    """An instance of a :func:`_record` class from fields already canonical:
    no coercion and no validation, so ``__post_init__`` does not run."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


def _record(cls):
    """cls as ``dataclass(frozen=True)`` makes it: ``__init__`` over the
    annotated fields (class attributes are defaults), then
    ``self.__post_init__()`` if defined; ``==`` and hash on the field tuple
    (unless cls defines ``__hash__``); ``Name(field=value, ...)`` repr; and
    AttributeError on assignment.  Instances keep a ``__dict__``."""
    names = tuple(cls.__annotations__)
    body = "".join(f"\n _set(self, {n!r}, {n})" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n self.__post_init__()"
    scope = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(names)}):{body}", scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__defaults__ = tuple(vars(cls)[n] for n in names if n in vars(cls))
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda obj: (get(obj),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __repr__(self):
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    cls.__eq__, cls.__repr__ = __eq__, __repr__
    cls.__setattr__ = cls.__delattr__ = _frozen
    if "__hash__" not in vars(cls):
        cls.__hash__ = lambda self: hash(fields(self))
    return cls


def _require_same_domain(f, g) -> None:
    if f.alpha is not g.alpha:
        raise DomainMismatchError(
            f"operands live on different domains: [0,{alpha_str(f.alpha)}) "
            f"vs [0,{alpha_str(g.alpha)})"
        )


@_record
class StepFunction:
    """Canonical finitely-piecewise-constant function on [0, alpha).

    ``values[i]`` is taken on [cuts[i-1], cuts[i]) (with cuts[-1] meaning 0),
    and ``tail`` on [cuts[-1], alpha).  Canonical form: cuts strictly
    increasing inside (0, alpha), neighbouring values distinct, and the last
    listed value distinct from the tail.  Construct arbitrary raw piece data
    through :func:`canonicalize`, which merges for you.
    """

    alpha: Ext
    cuts: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    tail: Fraction
    # the flat int pairs of the cuts and of the values then the tail, as
    # _merged keeps them in the instance dict; None where nothing was kept
    _cut_ints = _value_ints = None

    def __post_init__(self):
        f = canonicalize(self.cuts, self.values, self.tail, self.alpha)
        if len(f.cuts) != len(self.cuts):
            raise PreconditionError("not canonical: a value equals the next value or the "
                                    "tail (use canonicalize)")
        vars(self).update(vars(f))

    def __hash__(self) -> int:
        # Kept in the instance dict.  From the (numerator, denominator) pairs
        # of every s-th cut and value and of the tail (all below 16 cuts, at
        # most 16 above), so equal functions hash equal; functions that
        # differ only off the sample collide, costing the cache one compare,
        # never a wrong result.
        h = vars(self).get("_hash")
        if h is None:
            s = len(self.cuts) // 16 + 1
            pairs = (*_cut_pairs(self, s), *_value_pairs(self, s), _ratio(self.tail))
            h = vars(self)["_hash"] = hash((self.alpha, len(self.cuts), *pairs))
        return h

    # -- basic queries ----------------------------------------------------

    @property
    def support_bound(self) -> Fraction:
        """Least T with f constant (== tail) on [T, alpha)."""
        return self.cuts[-1] if self.cuts else _ZERO

    def pieces(self) -> Iterator[tuple[Fraction, Ext, Fraction]]:
        """Yield (start, end, value) triples covering [0, alpha); last end is alpha."""
        start = _ZERO
        for c, v in zip(self.cuts, self.values):
            yield start, c, v
            start = c
        yield start, self.alpha, self.tail

    def __call__(self, t) -> Fraction:
        t = rat(t)
        tn, td = _ratio(t)
        if tn < 0 or (self.alpha is not INF and tn >= td):
            raise PreconditionError(f"t={t} outside [0,{alpha_str(self.alpha)})")
        i = bisect_right(self.cuts, t)
        return self.values[i] if i < len(self.cuts) else self.tail

    def is_nonnegative(self) -> bool:
        return all(n >= 0 for n, _ in _value_pairs(self))

    # -- pointwise algebra -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return _pair_sum(self, other, 1)

    def __sub__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return _pair_sum(self, other, -1)

    def __neg__(self):
        return _merged(self.alpha, self.cuts, value_pairs=[(-n, d) for n, d in _value_pairs(self)])

    def __abs__(self):
        return _merged(self.alpha, self.cuts,
                       value_pairs=[(abs(n), d) for n, d in _value_pairs(self)])

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            cs, _, fv, gv = refine(self, other)
            return _merged(self.alpha, cs, value_pairs=[
                _reduced(an * bn, ad * bd) for (an, ad), (bn, bd) in zip(fv, gv)])
        cn, cd = _ratio(rat(other))  # c = 0 makes every pair (0, 1): all merge into the tail
        return _merged(self.alpha, self.cuts, value_pairs=[
            _reduced(n * cn, d * cd) for n, d in _value_pairs(self)])

    __rmul__ = __mul__

    def scale(self, c) -> "StepFunction":
        return self * rat(c)

    def positive_part(self) -> "StepFunction":
        return _merged(self.alpha, self.cuts, value_pairs=[
            p if p[0] > 0 else (0, 1) for p in _value_pairs(self)])

    def window(self, a, b=None) -> "StepFunction":
        """Return f * indicator of [a, b); b=None means b=alpha."""
        a, alpha = rat(a), self.alpha
        an, ad = _ratio(a)
        if an < 0:
            raise PreconditionError(f"window start {a} < 0")
        hi: Ext = alpha if b is None else _end(b)
        if hi is INF:
            hi = alpha
        hn, hd = (1, 0) if hi is INF else _ratio(hi)  # INF as 1/0
        if alpha is not INF and hn > hd:
            raise PreconditionError("window end beyond the domain")
        if hn * ad <= an * hd:  # hi <= a
            return constant(0, alpha)
        if hi is INF or (alpha is not INF and hn == hd):  # hi = alpha
            k, end, tail = len(self.cuts), [], self.tail
        else:
            k, end, tail = bisect_left(self.cuts, hi), [hi], _ZERO
        i = bisect_right(self.cuts, a)  # pieces i..k of f meet [a, hi)
        head = [a] if an > 0 else []  # a piece of 0 on [0, a)
        vals = (*self.values, self.tail)[i:k + len(end)]
        pairs = islice(_value_pairs(self), i, k + len(end))
        return _merged(self.alpha, head + list(self.cuts[i:k]) + end,
                       [_ZERO] * len(head) + [*vals, tail],
                       value_pairs=[(0, 1)] * len(head) + [*pairs, _ratio(tail)])

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "alpha": alpha_str(self.alpha),
            "breakpoints": [rat_str(c) for c in self.cuts],
            "values": [rat_str(v) for v in self.values],
            "tail": rat_str(self.tail),
        }

    @staticmethod
    def from_json(obj: dict) -> "StepFunction":
        if not isinstance(obj, dict):
            raise ParseError(f"step function JSON must be an object, got {type(obj).__name__}")
        try:
            alpha = parse_alpha(obj["alpha"])
            cuts = _rat_list(obj, "breakpoints")
            values = _rat_list(obj, "values")
            tail = parse_rat(obj["tail"])
        except KeyError as e:
            raise ParseError(f"step function JSON missing key {e.args[0]!r}") from None
        except TypeError as e:
            raise ParseError(f"malformed step function JSON: {e}") from None
        try:
            return canonicalize(cuts, values, tail, alpha)
        except PreconditionError as e:
            raise ParseError(f"invalid step function: {e}") from None


def refine(f: StepFunction, g: StepFunction):
    """Common refinement of two step functions: ``(cuts, ends, fv, gv)``,
    the merged cuts as Fractions and as (numerator, denominator) int pairs,
    and fv[k], gv[k], the int pairs of f and g on merged piece k (the last
    one ends at alpha).

    One linear walk over both cut lists, read as int pairs once up front;
    each step is one cross-multiplied int compare, and equal cuts advance
    both sides.
    """
    _require_same_domain(f, g)
    fc, gc = f.cuts, g.cuts
    fp, gp = list(_cut_pairs(f)), list(_cut_pairs(g))
    fvals, gvals = list(_value_pairs(f)), list(_value_pairs(g))
    n, m = len(fc), len(gc)
    cuts, ends, fv, gv = [], [], [], []
    i = j = 0
    while i < n and j < m:
        (an, ad), (bn, bd) = fp[i], gp[j]
        d = an * bd - bn * ad
        if d <= 0:
            cuts.append(fc[i])
            ends.append(fp[i])
        else:
            cuts.append(gc[j])
            ends.append(gp[j])
        fv.append(fvals[i])
        gv.append(gvals[j])
        i += d <= 0
        j += d >= 0
    # one side is on its last piece (the tail): the other side's remaining
    # cuts and values follow, each paired with that last value
    cuts += fc[i:]
    ends += fp[i:]
    fv += fvals[i:]
    gv += [gvals[j]] * (n - i)
    cuts += gc[j:]
    ends += gp[j:]
    gv += gvals[j:]
    fv += [fvals[n]] * (m - j)
    return cuts, ends, fv, gv


def _walk(u: StepFunction, v: StepFunction):
    """refine(u, v) as int pairs: the right ends of the finite pieces (then 1
    when alpha = 1), their lengths, u and v on every merged piece (the last
    one their tails), and iterators of int_0^end u and int_0^end v."""
    _, ends, uv, vv = refine(u, v)
    lengths = _lengths(ends, u.alpha)
    if u.alpha is not INF:
        ends.append((1, 1))
    return ends, lengths, uv, vv, _sums(_products(uv, lengths)), _sums(_products(vv, lengths))


def _largest(pairs) -> Fraction:
    """The largest of 0 and the int pairs (n, d), d > 0, compared by
    cross-multiplication, as one Fraction."""
    bn, bd = 0, 1
    for n, d in pairs:
        if n * bd > bn * d:
            bn, bd = n, d
    return Fraction(bn, bd)


def is_decreasing_rearrangement(f: StepFunction) -> bool:
    """f = f*: values strictly decreasing down to a tail >= 0, checked with
    int compares and without rearranging f.  The answer is kept in the
    instance dict as ``_is_star``, which the constructors of stars set."""
    known = vars(f).get("_is_star")
    if known is None:
        pairs = _value_pairs(f)
        pn, pd = next(pairs)
        known = False
        for n, d in pairs:  # the tail last
            if n * pd >= pn * d:
                break
            pn, pd = n, d
        else:
            known = pn >= 0
        vars(f)["_is_star"] = known
    return known


def _pair_sum(f: StepFunction, g: StepFunction, sign: int) -> StepFunction:
    """f + sign * g (sign = 1 or -1), trusted.  On each piece of
    refine(f, g) the value is the gcd-reduced int pair
    (an*bd + sign*bn*ad, ad*bd); equal neighbours merge by pair, and only
    the output gets Fractions."""
    cs, _, fv, gv = refine(f, g)
    pairs = []
    for (an, ad), (bn, bd) in zip(fv, gv):
        n, d = an * bd + sign * bn * ad, ad * bd
        c = gcd(n, d)
        pairs.append((n // c, d // c))
    return _merged(f.alpha, cs, value_pairs=pairs)


def canonicalize(breakpoints, values, tail, alpha=INF) -> StepFunction:
    """Build the canonical StepFunction from raw piece data.

    Piece i takes values[i] on [breakpoints[i-1], breakpoints[i]), and tail
    holds from the last breakpoint on.  Equal neighbouring pieces are merged;
    breakpoints must be strictly increasing inside (0, alpha).
    """
    alpha = _coerce_alpha(alpha)
    ts = [rat(t) for t in breakpoints]
    vs = [rat(v) for v in values] + [rat(tail)]
    if len(ts) != len(vs) - 1:
        raise PreconditionError(
            f"{len(ts)} breakpoints need {len(ts)} values, got {len(vs) - 1}"
        )
    return _merged(alpha, ts, vs, _check_cuts(ts, alpha))


def _merged(alpha, cuts, values=None, cut_ints=None, value_pairs=None) -> StepFunction:
    """The canonical StepFunction of checked piece data, trusted; the one
    code that merges piece data into a StepFunction.  cuts are Fractions
    increasing strictly inside (0, alpha); each piece has a value, the last
    being the tail, given as Fractions in values, as reduced int pairs in
    value_pairs, or both.  Equal neighbours, found by their int pairs, are
    merged, and the Fractions of the surviving pairs are built when no
    values are given.  Given the cuts' int pairs, flat (n0, d0, n1, d1, ...)
    in cut_ints, the result keeps the surviving pairs as the flat int tuples
    ``_cut_ints`` and ``_value_ints`` (the tail last): 16 bytes a pair,
    where a tuple of pair tuples takes 64.  The other callers (``+ - *``,
    ``abs``, ``positive_part``, ``window``) keep none: the tuples cost more
    to build than the reads they save."""
    if value_pairs is None:
        value_pairs = list(map(_ratio, values))
    keep = _kept(value_pairs)
    if not all(keep):
        cuts = [*compress(cuts, keep)]
        value_pairs = [*compress(value_pairs, keep), value_pairs[-1]]
        if values is not None:
            values = [*compress(values, keep), values[-1]]
        if cut_ints is not None:
            it = iter(cut_ints)
            cut_ints = [*chain.from_iterable(compress(zip(it, it), keep))]
    *values, tail = starmap(_frac, value_pairs) if values is None else values
    f = _trusted(StepFunction, alpha=alpha, cuts=tuple(cuts), values=tuple(values), tail=tail)
    if cut_ints is not None:
        kept = vars(f)
        kept["_cut_ints"] = tuple(cut_ints)
        kept["_value_ints"] = (*chain.from_iterable(value_pairs),)
    return f


def _cut_pairs(f: StepFunction, step: int = 1) -> Iterator[tuple[int, int]]:
    """The int pairs of f.cuts[::step]: from the ints its builder kept, else
    read from the Fractions."""
    ints = f._cut_ints
    if ints is None:
        return map(_ratio, f.cuts[::step])
    if step == 1:
        ints = iter(ints)
        return zip(ints, ints)
    return zip(ints[::2 * step], ints[1::2 * step])


def _value_pairs(f: StepFunction, step: int = 1) -> Iterator[tuple[int, int]]:
    """The int pairs of (*f.values, f.tail)[::step] (see _cut_pairs)."""
    ints = f._value_ints
    if ints is None:
        return map(_ratio, (*f.values, f.tail)[::step])
    if step == 1:
        ints = iter(ints)
        return zip(ints, ints)
    return zip(ints[::2 * step], ints[1::2 * step])


def _kept(pairs) -> list[bool]:
    """keep[k]: piece k's reduced int pair differs from piece k+1's, so cut k
    and value k survive the merge.  Build the kept tuples from lists or as
    ``(*compress(...),)``: ``tuple()`` of an iterator may keep spare slots."""
    return list(map(ne, pairs, islice(pairs, 1, None)))


def constant(c, alpha=INF) -> StepFunction:
    return _trusted(StepFunction, alpha=_coerce_alpha(alpha), cuts=(), values=(), tail=rat(c))


def box(height, width, alpha=INF) -> StepFunction:
    """height * indicator of [0, width)."""
    width = rat(width)
    if width <= 0:
        raise PreconditionError(f"box width must be positive, got {width}")
    alpha = _coerce_alpha(alpha)
    if width > alpha:
        raise PreconditionError(f"box width {width} beyond the domain")
    if width == alpha:
        return constant(height, alpha)
    return canonicalize([width], [height], 0, alpha)


def block(height, a, b, alpha=INF) -> StepFunction:
    """height * indicator of [a, b); b may be INF when alpha is INF."""
    return constant(height, alpha).window(a, b)


def integrate(f: StepFunction, a, b) -> Fraction:
    """Exact integral of f over [a, b] within [0, alpha].

    b may be INF (alpha=INF only); diverging integrals raise
    InfiniteIntegralError rather than returning a signed infinity.
    """
    a, hi = rat(a), _end(b)
    (an, ad), (hn, hd) = _ratio(a), (1, 0) if hi is INF else _ratio(hi)  # INF as 1/0
    if an < 0 or hn * ad < an * hd:
        raise PreconditionError(f"bad integration bounds [{a}, {ext_str(hi)}]")
    if f.alpha is not INF and hn > hd:
        raise PreconditionError("integration beyond the domain")
    if hi is INF and f.tail:
        raise InfiniteIntegralError(
            f"integral diverges: tail value {rat_str(f.tail)} on an infinite interval"
        )
    # pieces i..k of f meet [a, hi), read without building f.window(a, hi);
    # past the last cut on [0, inf) the tail is 0
    i = bisect_right(f.cuts, a)
    k = len(f.cuts) if hi is INF else bisect_left(f.cuts, hi)
    ends = [(an, ad), *islice(_cut_pairs(f), i, k)]
    if hi is not INF:
        ends.append((hn, hd))
    lengths = _lengths(ends, INF)[1:]  # from a on; INF: none past the last end
    return _total(_products(islice(_value_pairs(f), i, k + 1), lengths))


def exceedance_measure(f: StepFunction, lam) -> Ext:
    """mu{ t in [0, alpha) : |f(t)| > lam }, exactly; may be INF."""
    lam = rat(lam)
    ln, ld = _ratio(lam)
    if ln < 0:
        raise PreconditionError(f"level must be nonnegative, got {lam}")
    # |v| > lam as |vn| ld > ln vd
    if f.alpha is INF:
        tn, td = _ratio(f.tail)
        if abs(tn) * ld > ln * td:
            return INF
    lengths = _lengths(_cut_pairs(f), f.alpha)  # none for the tail on [0, inf)
    return _total(l for (vn, vd), l in zip(_value_pairs(f), lengths) if abs(vn) * ld > ln * vd)


# -- the int-pair summation kernel --------------------------------------------


def _lengths(cuts, alpha) -> list[tuple[int, int]]:
    """Int pairs (n, d) of the finite piece lengths that the cut pairs make
    in [0, alpha): one per cut, and 1 - cuts[-1] when alpha = 1.  Reduced,
    except (cn - pn, cd) for a cut over the previous cut's denominator."""
    out = []
    pn, pd = 0, 1
    for cn, cd in cuts:
        if cd == pd:
            out.append((cn - pn, cd))
        else:
            n, d = cn * pd - pn * cd, cd * pd
            g = gcd(n, d)
            out.append((n // g, d // g))
        pn, pd = cn, cd
    if alpha is not INF:
        out.append((pd - pn, pd))  # 1 - pn/pd, reduced as pn/pd is
    return out


def _products(values, lengths) -> Iterator[tuple[int, int]]:
    """Int pairs of value * length, for value and length int pairs."""
    return ((vn * n, vd * d) for (vn, vd), (n, d) in zip(values, lengths))


def _sums(pairs) -> Iterator[tuple[int, int]]:
    """Running sums of int pairs (n, d), d > 0, each reduced by gcd."""
    sn, sd = 0, 1
    for n, d in pairs:
        n, d = sn * d + n * sd, sd * d
        g = gcd(n, d)
        sn, sd = n // g, d // g
        yield sn, sd


def _frac(n: int, d: int, _new=object.__new__) -> Fraction:
    """The Fraction n/d of a pair already in lowest terms with d > 0, built
    without ``Fraction.__new__``, whose gcd would reduce it a second time.
    The only code that sets Fraction's internal slots."""
    q = _new(Fraction)
    q._numerator, q._denominator = n, d
    return q


def _reduced(n: int, d: int) -> tuple[int, int]:
    """The pair n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return n // g, d // g


def _total(pairs) -> Fraction:
    """The sum of int pairs (n, d), d > 0: numerators added as ints per
    denominator, then those sums with a gcd per step, as ``_sums`` adds."""
    sums = defaultdict(int)
    for n, d in pairs:
        sums[d] += n
    sn, sd = 0, 1
    for d, n in sums.items():
        n, d = sn * d + n * sd, sd * d
        g = gcd(n, d)
        sn, sd = n // g, d // g
    return _frac(sn, sd)


# -- increasing concave piecewise-linear functions --------------------------

_NOT_CONCAVE = ("slopes not nonnegative and strictly decreasing: not a "
                "nondecreasing concave function in canonical form")


@_record
class PiecewiseLinearConcave:
    """Nondecreasing concave piecewise-linear function on [0, alpha).

    Value 0 at t=0 with right-limit ``jump0`` >= 0, interior nodes at
    ``cuts`` with values ``node_values``, and slope ``final_slope`` from the
    last node on.  ``slope``, stored when it is built, is the slope function:
    the segment slopes, then final_slope.  Canonical form: ``slope`` is a
    star.  Merge raw node data with :func:`plc_from_nodes`.
    """

    alpha: Ext
    cuts: tuple[Fraction, ...]
    node_values: tuple[Fraction, ...]
    final_slope: Fraction
    jump0: Fraction = _ZERO

    def __post_init__(self):
        phi = plc_from_nodes(self.cuts, self.node_values, self.final_slope, self.jump0,
                             self.alpha)
        if len(phi.cuts) != len(self.cuts):  # a collinear node merged away
            raise PreconditionError(_NOT_CONCAVE)
        vars(self).update(vars(phi))

    def value_at(self, t) -> Fraction:
        """Exact value at t; t=alpha allowed for alpha=1 (the left limit)."""
        t = rat(t)
        tn, td = _ratio(t)
        if tn < 0 or (self.alpha is not INF and tn > td):
            raise PreconditionError(f"t={t} outside [0,{alpha_str(self.alpha)}]")
        if not tn:
            return _ZERO
        cuts = self.cuts
        i = bisect_right(cuts, t)
        if i:
            (sn, sd), bv = _ratio(cuts[i - 1]), self.node_values[i - 1]
        else:
            (sn, sd), bv = (0, 1), self.jump0
        mn, md = _ratio(self.slope.values[i] if i < len(cuts) else self.final_slope)
        if not mn or (sn == tn and sd == td):  # flat, or t is the node
            return bv
        # bv + m (t - s) as one pair: (bvn md td sd + bvd mn (tn sd - sn td)) / (bvd md td sd)
        bvn, bvd = _ratio(bv)
        d = md * td * sd
        return _frac(*_reduced(bvn * d + bvd * mn * (tn * sd - sn * td), bvd * d))

    def final_branch(self) -> tuple[Fraction, Fraction]:
        """(intercept, slope) of the affine branch valid from the last cut on."""
        m = self.final_slope
        if not self.cuts:
            return self.jump0, m
        return self.node_values[-1] - m * self.cuts[-1], m

    def to_json(self) -> dict:
        return {
            "alpha": alpha_str(self.alpha),
            "breakpoints": [rat_str(c) for c in self.cuts],
            "node_values": [rat_str(v) for v in self.node_values],
            "final_slope": rat_str(self.final_slope),
            "jump0": rat_str(self.jump0),
        }

    @staticmethod
    def from_json(obj: dict) -> "PiecewiseLinearConcave":
        if not isinstance(obj, dict):
            raise ParseError("piecewise-linear JSON must be an object")
        try:
            return plc_from_nodes(
                _rat_list(obj, "breakpoints"),
                _rat_list(obj, "node_values"),
                parse_rat(obj["final_slope"]),
                parse_rat(obj.get("jump0", "0/1")),
                parse_alpha(obj["alpha"]),
            )
        except KeyError as e:
            raise ParseError(f"piecewise-linear JSON missing key {e.args[0]!r}") from None
        except PreconditionError as e:
            raise ParseError(f"invalid piecewise-linear function: {e}") from None


def plc_from_nodes(cuts, node_values, final_slope, jump0=0, alpha=INF) -> PiecewiseLinearConcave:
    """Build a canonical PiecewiseLinearConcave, merging collinear nodes."""
    alpha = _coerce_alpha(alpha)
    cuts = [rat(c) for c in cuts]
    node_values = [rat(v) for v in node_values]
    final_slope = rat(final_slope)
    jump0 = rat(jump0)
    if len(cuts) != len(node_values):
        raise PreconditionError("cuts and node_values must have equal length")
    cut_ints = _check_cuts(cuts, alpha)  # also a cut that merges away; before any division
    if jump0 < 0:
        raise PreconditionError(f"jump at 0 must be nonnegative, got {jump0}")
    # a collinear node is a cut between equal neighbouring slopes
    slopes = [(v - pv) / (s - ps)
              for s, v, ps, pv in zip(cuts, node_values, [_ZERO, *cuts], [jump0, *node_values])]
    slope = _merged(alpha, cuts, [*slopes, final_slope], cut_ints)
    if not is_decreasing_rearrangement(slope):
        raise PreconditionError(_NOT_CONCAVE)
    value_of = dict(zip(cuts, node_values))
    return _trusted(PiecewiseLinearConcave, alpha=alpha, cuts=slope.cuts,
                    node_values=(*map(value_of.get, slope.cuts),), final_slope=final_slope,
                    jump0=jump0, slope=slope)
