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
a star (nonnegative, strictly decreasing).  A PLC is stored as ``slope``
and ``jump0`` only, which fix it, and ``==`` and the hash read them.  Its
node values are summed from them on first read, as the flat int pairs
``_node_ints`` (jump0 first) that ``value_at``, ``final_branch`` and the
crossings of ``majorize`` read (:func:`_plc_at`); its other Fraction
fields are built on first read too.  The one test for x = x* is
:func:`is_decreasing_rearrangement`: the PLC constructor, the
rearrangement's pass-through and the preconditions of ``majorize`` all
call it, and none of them rearranges to find out.

A StepFunction is stored as the int pairs of its cuts and of its values,
the tail last, in two flat int tuples (see :func:`_merged`); every builder
sets them, and ``==`` and the hash read them.  Its Fraction fields are
built from them on first read and kept, whatever built it; only the
public constructors store theirs at once, over the caller's raw fields.
Binary kernels walk the common refinement once: :func:`refine` merges two
cut lists in one pass, the only walk over two cut lists, and returns the
merged cuts and both operands' values on each merged piece as int pairs;
``+``, ``-``, ``*`` and :func:`_walk` read the lists they need.  Every
kernel reads an operand's pairs through :func:`_cut_pairs` and
:func:`_value_pairs`, which zip the stored ints, and compares, adds or
multiplies ints.  The per-call paths do the same with their scalars: the
cut check of every constructor, the bounds of ``window`` and
:func:`integrate`, their bisections and those of ``f(t)`` and of
``majorize``'s flattenings (:func:`_bisect`), the level of
:func:`exceedance_measure` (|v| > lam as |vn| ld > ln vd) and
:meth:`PiecewiseLinearConcave.value_at` (a bisection of the slope
function's cuts, then one pair and one gcd).  A reduced pair
becomes a Fraction through :func:`_frac`, which skips the gcd of
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
merges piece data into a StepFunction is :func:`_merged`, which takes flat
int pairs and builds the result with :func:`_trusted`, which sets the
fields without running ``__post_init__``; ``canonicalize``,
:func:`constant`, a PLC's ``slope`` and the results of ``+ - *``, ``abs``,
``-``, ``scale``, ``positive_part`` and ``window`` on canonical operands
call it.  The public constructors ``StepFunction(...)`` and
``PiecewiseLinearConcave(...)`` run their builder and check only that
nothing merged; :func:`box`, :func:`block` and both ``from_json`` go
through a builder.  The flattenings of ``majorize`` and the
rearrangement's star and level integral (``rearrange``) are canonical by
construction and trusted.  The value
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

#: what ``StepFunction ==`` compares: the domain and the two flat int tuples
_key = attrgetter("alpha", "_cut_ints", "_value_ints")

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
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before Python 3.10.7
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

    cls.__repr__ = __repr__
    cls.__setattr__ = cls.__delattr__ = _frozen
    if "__eq__" not in vars(cls):
        cls.__eq__ = __eq__
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
    through :func:`canonicalize`, which merges for you.  Stored as flat int
    pairs (see :func:`_merged`); the Fraction fields are built on first read.
    """

    alpha: Ext
    cuts: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    tail: Fraction

    def __post_init__(self):
        f = canonicalize(self.cuts, self.values, self.tail, self.alpha)
        if len(f.cuts) != len(self.cuts):
            raise PreconditionError("not canonical: a value equals the next value or the "
                                    "tail (use canonicalize)")
        vars(self).update(vars(f), values=f.values, tail=f.tail)  # and f.cuts, read above

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _key(self) == _key(other)
        return NotImplemented

    def __hash__(self) -> int:
        # Kept in the instance dict.  From the numerators and denominators of
        # every s-th cut and value and of the tail (all below 16 cuts, at
        # most 16 above), so equal functions hash equal; functions that
        # differ only off the sample collide, costing the cache one compare,
        # never a wrong result.
        h = vars(self).get("_hash")
        if h is None:
            c, v = self._cut_ints, self._value_ints
            s = 2 * (len(c) // 32 + 1)
            h = vars(self)["_hash"] = hash((self.alpha, len(c), c[::s], c[1::s], v[::s],
                                            v[1::s], v[-2:]))
        return h

    # -- basic queries ----------------------------------------------------

    @property
    def support_bound(self) -> Fraction:
        """Least T with f constant (== tail) on [T, alpha)."""
        return _frac(*self._cut_ints[-2:]) if self._cut_ints else _ZERO

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
        i = 2 * _bisect(bisect_right, self, tn, td)  # the tail's pair is the last
        return _frac(*self._value_ints[i:i + 2])

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
        return _merged(self.alpha, self._cut_ints,
                       [i for n, d in _value_pairs(self) for i in (-n, d)])

    def __abs__(self):
        return _merged(self.alpha, self._cut_ints,
                       [i for n, d in _value_pairs(self) for i in (abs(n), d)])

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            ends, fv, gv = refine(self, other)
            return _merged(self.alpha, [*chain.from_iterable(ends)], [*chain.from_iterable(
                _reduced(an * bn, ad * bd) for (an, ad), (bn, bd) in zip(fv, gv))])
        cn, cd = _ratio(rat(other))
        if not cn:
            return constant(0, self.alpha)
        return _merged(self.alpha, self._cut_ints, [*chain.from_iterable(
            _reduced(n * cn, d * cd) for n, d in _value_pairs(self))])

    __rmul__ = __mul__

    def scale(self, c) -> "StepFunction":
        return self * rat(c)

    def positive_part(self) -> "StepFunction":
        return _merged(self.alpha, self._cut_ints, [*chain.from_iterable(
            p if p[0] > 0 else (0, 1) for p in _value_pairs(self))])

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
        ci, vi = self._cut_ints, self._value_ints
        if hi is INF or (alpha is not INF and hn == hd):  # hi = alpha
            k, end, tail = len(ci) // 2, (), vi[-2:]
        else:
            k, end, tail = _bisect(bisect_left, self, hn, hd), (hn, hd), (0, 1)
        i = _bisect(bisect_right, self, an, ad)  # pieces i..k of f meet [a, hi)
        head, zero = ((an, ad), (0, 1)) if an > 0 else ((), ())  # a piece of 0 on [0, a)
        return _merged(alpha, head + ci[2 * i:2 * k] + end,
                       zero + vi[2 * i:2 * k + len(end)] + tail)

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


class _Field:
    """A field built on first read (a StepFunction's or a PLC's Fractions, a
    PLC's node pairs) and kept in the instance dict, where later reads find
    it first (a non-data descriptor; ``__getattr__`` would slow every
    attribute read)."""

    def __init__(self, name, build):
        self.name, self.build = name, build

    def __get__(self, f, cls=None):
        if f is None:
            return self
        q = vars(f)[self.name] = self.build(f)
        return q


def _fractions(ints) -> tuple[Fraction, ...]:
    return (*starmap(_frac, _pairs(ints)),)


# set after @_record, which reads class attributes as __init__ defaults
StepFunction.cuts = _Field("cuts", lambda f: _fractions(f._cut_ints))
StepFunction.values = _Field("values", lambda f: _fractions(f._value_ints[:-2]))
StepFunction.tail = _Field("tail", lambda f: _frac(*f._value_ints[-2:]))


def refine(f: StepFunction, g: StepFunction):
    """Common refinement of two step functions: ``(ends, fv, gv)``, the
    merged cuts as (numerator, denominator) int pairs, and fv[k], gv[k], the
    int pairs of f and g on merged piece k (the last one ends at alpha).

    One linear walk over both cut lists, read as int pairs once up front;
    each step is one cross-multiplied int compare, and equal cuts advance
    both sides.
    """
    _require_same_domain(f, g)
    fp, gp = list(_cut_pairs(f)), list(_cut_pairs(g))
    fvals, gvals = list(_value_pairs(f)), list(_value_pairs(g))
    n, m = len(fp), len(gp)
    ends, fv, gv = [], [], []
    i = j = 0
    while i < n and j < m:
        (an, ad), (bn, bd) = fp[i], gp[j]
        d = an * bd - bn * ad
        ends.append(fp[i] if d <= 0 else gp[j])
        fv.append(fvals[i])
        gv.append(gvals[j])
        i += d <= 0
        j += d >= 0
    # one side is on its last piece (the tail): the other side's remaining
    # cuts and values follow, each paired with that last value
    ends += fp[i:]
    fv += fvals[i:]
    gv += [gvals[j]] * (n - i)
    ends += gp[j:]
    gv += gvals[j:]
    fv += [fvals[n]] * (m - j)
    return ends, fv, gv


def _walk(u: StepFunction, v: StepFunction):
    """refine(u, v) as int pairs: the right ends of the finite pieces (then 1
    when alpha = 1), their lengths, u and v on every merged piece (the last
    one their tails), and iterators of int_0^end u and int_0^end v."""
    ends, uv, vv = refine(u, v)
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
    (an*bd + sign*bn*ad, ad*bd), and equal neighbours merge by pair."""
    ends, fv, gv = refine(f, g)
    ints = []
    for (an, ad), (bn, bd) in zip(fv, gv):
        n, d = an * bd + sign * bn * ad, ad * bd
        c = gcd(n, d)
        ints += n // c, d // c
    return _merged(f.alpha, [*chain.from_iterable(ends)], ints)


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
    return _merged(alpha, _check_cuts(ts, alpha), [*chain.from_iterable(map(_ratio, vs))])


def _merged(alpha, cut_ints, value_ints) -> StepFunction:
    """The canonical StepFunction of checked piece data, trusted; the one
    code that merges piece data into a StepFunction.  cut_ints and
    value_ints are flat int pairs (n0, d0, n1, d1, ...): the cuts, strictly
    increasing inside (0, alpha), and every piece's reduced value, the tail
    last.  Equal neighbours merge by pair, and the survivors are stored as
    the tuples ``_cut_ints`` and ``_value_ints``, 16 bytes a pair (a tuple of
    pair tuples takes 64); the Fraction fields are built from them on first
    read."""
    n, d = value_ints[::2], value_ints[1::2]
    keep = [*map(ne, zip(n, d), zip(n[1:], d[1:]))]  # pair k differs from pair k+1
    if not all(keep):
        cut_ints = [*chain.from_iterable(compress(_pairs(cut_ints), keep))]
        value_ints = [*chain.from_iterable(compress(zip(n, d), keep)), n[-1], d[-1]]
    return _trusted(StepFunction, alpha=alpha, _cut_ints=tuple(cut_ints),
                    _value_ints=tuple(value_ints))


def _pairs(ints) -> Iterator[tuple[int, int]]:
    """The pairs (n0, d0), (n1, d1), ... of flat ints n0, d0, n1, d1, ..."""
    it = iter(ints)
    return zip(it, it)


def _cut_pairs(f: StepFunction) -> Iterator[tuple[int, int]]:
    """The int pairs of f.cuts."""
    return _pairs(f._cut_ints)


def _value_pairs(f: StepFunction) -> Iterator[tuple[int, int]]:
    """The int pairs of f.values, then of f.tail."""
    return _pairs(f._value_ints)


def _bisect(bisect, f: StepFunction, n: int, d: int) -> int:
    """bisect (``bisect_left`` or ``bisect_right``) of n/d in f.cuts by the
    sign of cut - n/d, cn*d - n*cd; INF as 1/0 is past every cut."""
    ints = f._cut_ints
    return bisect(range(len(ints) // 2), 0, key=lambda i: ints[2 * i] * d - n * ints[2 * i + 1])


def constant(c, alpha=INF) -> StepFunction:
    return _merged(_coerce_alpha(alpha), (), _ratio(rat(c)))


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
    i = _bisect(bisect_right, f, an, ad)
    k = _bisect(bisect_left, f, hn, hd)  # all the cuts when hi is INF (1/0)
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
    denominator, then those sums through ``_sums``, a gcd per step."""
    sums = defaultdict(int)
    for n, d in pairs:
        sums[d] += n
    total = 0, 1
    for total in _sums(zip(sums.values(), sums)):
        pass
    return _frac(*total)


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
    star.  Merge raw node data with :func:`plc_from_nodes`.  Stored as
    ``slope`` and ``jump0``; the node values, as int pairs (``_node_ints``)
    and as Fractions, and the other Fraction fields are built on first read.
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
        vars(self).update(vars(phi), node_values=phi.node_values, final_slope=phi.final_slope)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.jump0 == other.jump0 and self.slope == other.slope
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.jump0, self.slope))

    def value_at(self, t) -> Fraction:
        """Exact value at t; t=alpha allowed for alpha=1 (the left limit)."""
        t = rat(t)
        tn, td = _ratio(t)
        if tn < 0 or (self.alpha is not INF and tn > td):
            raise PreconditionError(f"t={t} outside [0,{alpha_str(self.alpha)}]")
        return _frac(*_plc_at(self, tn, td))

    def final_branch(self) -> tuple[Fraction, Fraction]:
        """(intercept, slope) of the affine branch valid from the last cut on."""
        (bn, bd), (cn, cd) = self._node_ints[-2:], self.slope._cut_ints[-2:] or (0, 1)
        mn, md = self.slope._value_ints[-2:]
        return _frac(*_reduced(bn * md * cd - mn * cn * bd, bd * md * cd)), self.final_slope

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
    slopes = [*((v - pv) / (s - ps) for s, v, ps, pv in
                zip(cuts, node_values, [_ZERO, *cuts], [jump0, *node_values])), final_slope]
    slope = _merged(alpha, cut_ints, [*chain.from_iterable(map(_ratio, slopes))])
    if not is_decreasing_rearrangement(slope):
        raise PreconditionError(_NOT_CONCAVE)
    return _trusted(PiecewiseLinearConcave, alpha=alpha, slope=slope, jump0=jump0)


def _plc_at(phi: PiecewiseLinearConcave, tn: int, td: int) -> tuple[int, int]:
    """phi(tn/td) as a reduced pair, for tn/td in [0, alpha]: the node at or
    before t (jump0 at 0+) plus the slope there times the distance."""
    if not tn:
        return 0, 1
    slope = phi.slope
    i = _bisect(bisect_right, slope, tn, td)  # node i is phi at cut i - 1
    sn, sd = slope._cut_ints[2 * i - 2:2 * i] if i else (0, 1)
    bn, bd = phi._node_ints[2 * i:2 * i + 2]
    mn, md = slope._value_ints[2 * i:2 * i + 2]  # the final slope is its tail
    if not mn or (sn == tn and sd == td):  # flat, or t is the node
        return bn, bd
    # bn/bd + m (t - s) as one pair
    d = md * td * sd
    return _reduced(bn * d + bd * mn * (tn * sd - sn * td), bd * d)


def _sum_nodes(p: PiecewiseLinearConcave) -> tuple[int, ...]:
    """The flat int pairs of jump0, then of p at each cut: the running sums
    of jump0 and of each slope times its segment's length."""
    steps = _products(_value_pairs(p.slope), _lengths(_cut_pairs(p.slope), INF))
    return (*chain.from_iterable(_sums(chain([_ratio(p.jump0)], steps))),)


# set after @_record, as for StepFunction
PiecewiseLinearConcave.cuts = _Field("cuts", lambda p: p.slope.cuts)
PiecewiseLinearConcave.node_values = _Field("node_values", lambda p: _fractions(p._node_ints[2:]))
PiecewiseLinearConcave.final_slope = _Field("final_slope", lambda p: p.slope.tail)
PiecewiseLinearConcave._node_ints = _Field("_node_ints", _sum_nodes)
