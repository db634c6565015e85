"""No Fraction operator runs per piece in the int-pair kernels of ``stepfn``.

``refine``, ``+`` and ``-``, the merge pass behind ``window``,
``integrate``, ``abs`` and ``canonicalize``, and the L-infinity norm read
each operand's cuts and values as (numerator, denominator) int pairs once
and compare or add ints.  The test here counts the Fraction operator calls they make on 2,000-piece
operands: a constant number, plus O(log n) for ``window``'s bisection.
Their results are compared with Fraction-operator references in
``test_walks``.
"""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from rearrcalc import INF, canonicalize
from rearrcalc.spaces import SpaceSpec, norm
from rearrcalc.stepfn import integrate

PIECES = 2000


@pytest.fixture
def fraction_calls(monkeypatch):
    """Counts of Fraction ``__eq__``, ``_richcmp`` (behind < <= > >=) and the
    ``numerator`` and ``denominator`` properties, from when it is cleared."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(F, "__eq__", counting("__eq__", F.__eq__))
    monkeypatch.setattr(F, "_richcmp", counting("_richcmp", F._richcmp))
    for name in ("numerator", "denominator"):
        monkeypatch.setattr(F, name, property(counting(name, vars(F)[name].fget)))
    return counts


def large_operand(rng, alpha):
    den = 16 * PIECES + 1
    if alpha == INF:
        cuts = [F(k, 8) for k in sorted(rng.sample(range(1, 100 * PIECES), PIECES))]
    else:
        cuts = [F(k, den) for k in sorted(rng.sample(range(1, den), PIECES))]
    values = [F(rng.randint(-24, 24), rng.randint(1, 8)) for _ in cuts]
    return canonicalize(cuts, values, 0, alpha)


@pytest.mark.parametrize("alpha", [INF, F(1)])
def test_kernels_make_no_fraction_operator_call_per_piece(alpha, fraction_calls):
    rng = random.Random(2000)
    x, y = large_operand(rng, alpha), large_operand(rng, alpha)
    a, b = x.cuts[PIECES // 5], x.cuts[4 * PIECES // 5]
    linf = SpaceSpec("Linf", alpha=alpha)
    # bisect_left and bisect_right; each compare reads the other operand's
    # numerator and denominator too
    bisect_calls = 3 * 2 * PIECES.bit_length()
    for name, op, bound in (("x + y", lambda: x + y, 16),
                            ("x - y", lambda: x - y, 16),
                            ("window", lambda: x.window(a, b), 32 + bisect_calls),
                            ("integrate", lambda: integrate(x, a, b), 32 + bisect_calls),
                            ("norm Linf", lambda: norm(linf, x), 16)):
        fraction_calls.clear()
        op()
        calls = sum(fraction_calls.values())
        assert calls <= bound, (name, dict(fraction_calls))
    assert 32 + bisect_calls < min(len(x.cuts), len(y.cuts)) // 10  # far below n
