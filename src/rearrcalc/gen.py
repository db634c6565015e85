"""Seeded random generators, property suites, and a counterexample shrinker.

The suites here back both the test suite and the CLI ``prop-test`` command,
so they are deterministic functions of (cases, seed).  All five run on one
loop (``_suite``): each failing property group is shrunk and reported as a
JSON-ready dict holding its minimized inputs, and a suite stops at 5 such
records.  Shrinking is structural: drop pieces of the offending step
functions, then simplify the rationals, while the failure predicate keeps
failing.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Optional

from . import majorize, rearrange, spaces
from .errors import HypothesisError, RearrCalcError
from .stepfn import (
    INF,
    Ext,
    StepFunction,
    _ONE,
    _ZERO,
    box,
    canonicalize,
    constant,
    exceedance_measure,
    integrate,
    plc_from_nodes,
    rat_str,
)

_HLP_GRID = 10000  # grid points of the hlp suite's oracle
_PROP32_MEMBERS = 5  # family members the prop32 suite samples per case
_SHRINK_BUDGET = 400  # candidate tries per shrink
_MAX_FAILURES = 5  # a suite stops at this many recorded counterexamples
_BANACH = ("L1", "Linf", "L1plusLinf", "Marcinkiewicz")  # kinds with a triangle inequality


def _frac(rng: random.Random, max_num=24, max_den=8) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def _rand_cuts(rng: random.Random, k: int, alpha: Ext) -> list[Fraction]:
    """k increasing cuts on [0, inf); on [0, 1), the distinct ones of k draws."""
    if alpha == INF:
        return list(itertools.accumulate(_frac(rng) for _ in range(k)))
    return sorted({Fraction(rng.randint(1, 47), 48) for _ in range(k)})


def rand_step(rng: random.Random, alpha: Ext = INF, max_pieces: int = 12,
              signed: bool = True, nonzero_tail: bool = False) -> StepFunction:
    """A random canonical step function with small rational data."""
    cuts = _rand_cuts(rng, rng.randint(0, max_pieces), alpha)
    def value() -> Fraction:
        v = _frac(rng) if rng.random() < 0.9 else _ZERO
        return -v if signed and rng.random() < 0.4 else v
    values = [value() for _ in cuts]
    if alpha == INF:
        tail = value() if nonzero_tail and rng.random() < 0.5 else _ZERO
    else:
        tail = value()
    return canonicalize(cuts, values, tail, alpha)


def rand_star(rng: random.Random, alpha: Ext = INF, max_pieces: int = 8) -> StepFunction:
    """A random nonzero decreasing rearrangement (tail 0 when alpha = inf)."""
    k = rng.randint(1, max_pieces)
    drops = [_frac(rng, 12, 6) for _ in range(k)]
    values = list(itertools.accumulate(reversed(drops)))[::-1]  # drops by drops[i] at cut i
    cuts = _rand_cuts(rng, k, alpha)
    j = len(cuts)  # fewer than k only on [0, 1)
    return canonicalize(cuts, values[:j], values[j] if j < k else _ZERO, alpha)


def rand_phi(rng: random.Random, alpha: Ext = INF, force_pl: bool = False):
    """A random fundamental function (piecewise-linear concave or hyperbola)."""
    if not force_pl and rng.random() < 0.3:
        return spaces.Hyperbolic(_frac(rng, 12, 6))
    k = rng.randint(0, 4)
    jump0 = _frac(rng, 6, 6) if rng.random() < 0.3 else _ZERO
    drops = [_frac(rng, 6, 6) for _ in range(k + 1)]
    slopes = list(itertools.accumulate(reversed(drops)))[::-1]
    final = slopes[-1] if rng.random() < 0.3 else _ZERO
    # on [0, 1) the k <= 4 steps of at most 11/48 stay inside the domain
    steps = [_frac(rng, 8, 4) if alpha == INF else Fraction(rng.randint(1, 11), 48)
             for _ in range(k)]
    vals = itertools.accumulate((m * s for m, s in zip(slopes, steps)), initial=jump0)
    return plc_from_nodes(list(itertools.accumulate(steps)), list(vals)[1:],
                          final if k else slopes[0], jump0, alpha)


def rand_space(rng: random.Random, alpha: Ext = INF) -> spaces.SpaceSpec:
    kind = rng.choice(list(spaces._KINDS))
    if kind in spaces._PHI_KINDS:
        return spaces.SpaceSpec(kind, rand_phi(rng, alpha), alpha)
    return spaces.SpaceSpec(kind, None, alpha)


def prop32_instance(rng: random.Random, plateau: bool):
    """(x, tau, eps) on [0, inf) with x = x*, x*(inf)=0, 0 < eps < Phi_x(tau).

    plateau=True plants a long flat run of x around tau and chooses eps small
    enough that the construction meets its affine-chord case; plateau=False
    aims at the affine-gap case by putting the plateau first (the running
    integral is then strictly concave past it) or using a generic star.
    Both modes give 0 < eps < Phi_x(tau) by construction: tau > 0 lies inside
    the support of a positive x, and eps is a proper fraction of a positive
    part of Phi_x(tau).
    """
    if plateau:
        head = [_frac(rng, 12, 4) + 1 for _ in range(rng.randint(1, 3))]
        head.sort(reverse=True)
        v = _frac(rng, 6, 4)
        head = [h + v for h in head]
        a = list(itertools.accumulate(_frac(rng, 4, 4) for _ in head))
        start = a[-1]
        length = _frac(rng, 12, 2) + 4
        b = start + length
        x = canonicalize(a + [b], head + [v], 0, INF)
        tau = start + length * Fraction(rng.randint(1, 3), 4)
        phi = rearrange.level_integral(x)
        # keep the lowered level inside the plateau's affine stretch
        gap_cap = min(phi.value_at(tau) - phi.value_at(start), v * (b - start) / 4)
        return x, tau, gap_cap * Fraction(rng.randint(1, 7), 8)
    x = rand_star(rng, INF, max_pieces=6)
    tau = x.support_bound * Fraction(rng.randint(1, 7), 8)
    eps = rearrange.level_integral(x).value_at(tau) * Fraction(rng.randint(1, 7), 16)
    return x, tau, eps


def majorized_pair(rng: random.Random, alpha: Ext = INF):
    """(y, x) with y ≺ x by construction."""
    x = rand_step(rng, alpha, max_pieces=8)
    star = rearrange.rearrangement(x).star
    mode = rng.randrange(3)
    if mode == 0:
        c = Fraction(rng.randint(0, 16), 16)
        return star.scale(c), x
    if mode == 1 and alpha == INF and star.tail == 0 and star != constant(0, INF):
        phi = rearrange.level_integral(x)
        tau = max(star.support_bound, 1) * Fraction(rng.randint(1, 8), 8)
        phi_tau = phi.value_at(tau)
        if phi_tau > 0:
            eps = phi_tau * Fraction(rng.randint(1, 7), 8)
            y = majorize.sample_family_member(star, tau, eps, rng.getrandbits(31))
            return y, x
    # average the star over a random prefix: the running integral drops to
    # its chord there, so the result is majorized
    if star.support_bound > 0:
        r = star.support_bound * Fraction(rng.randint(1, 16), 8)
        if alpha != INF and r >= 1:
            r = (star.support_bound + 1) / 2
        return majorize._flatten(star, _ZERO, r, rearrange.maximal_eval(star, r)), x
    return star, x


# -- suites -------------------------------------------------------------------


class SuiteResult:
    def __init__(self, suite: str, cases: int, seed: int):
        self.suite, self.cases, self.seed = suite, cases, seed
        self.failures, self.stats = [], {}

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "seed": self.seed,
            "ok": self.ok,
            "stats": self.stats,
            "failures": self.failures,
        }


def _suite(name: str, cases: int, seed: int, checks, **stats) -> SuiteResult:
    """The loop every suite shares.

    checks(rng, i, stats) draws case i from the seeded rng and yields
    (problems, case, check) per property group: case maps names to the
    group's inputs and check(case) lists its problems (nothing for a case
    outside the suite's input class, so shrinking stays inside it).  A
    failing group is shrunk against check and recorded as {"case",
    "problems", then the case's entries in their own order}; the suite stops
    at _MAX_FAILURES records.
    """
    rng = random.Random(seed)
    res = SuiteResult(name, cases, seed)
    res.stats = stats
    for i in range(cases):
        for problems, case, check in checks(rng, i, stats):
            if not problems:
                continue
            case = shrink_case(case, check)
            res.failures.append({"case": i, "problems": problems, **{
                k: rat_str(v) if isinstance(v, Fraction) else v.to_json()
                for k, v in case.items()
            }})
            if len(res.failures) >= _MAX_FAILURES:
                return res
    return res


def _sorted_oracle_star(x: StepFunction) -> StepFunction:
    """Independent rearrangement oracle: raw sort of |x| piece data."""
    items = sorted(((abs(v), e - s) for s, e, v in x.pieces() if e != INF), reverse=True)
    if x.alpha == INF:  # |tail| is an infinite plateau that absorbs the rest
        tail = abs(x.tail)
        items = [(v, l) for v, l in items if v > tail]
    else:  # the smallest value is the tail, on the piece that ends at 1
        tail = items.pop()[0]
    cuts = itertools.accumulate(l for _, l in items)
    return canonicalize(list(cuts), [v for v, _ in items], tail, x.alpha)


def _distribution_oracle(star: StepFunction, lam: Fraction) -> Ext:
    """d(lam) read off a decreasing star in closed form: the whole domain when
    the tail exceeds lam, else the right end of its last leading piece above lam."""
    if star.tail > lam:
        return star.alpha
    k = 0
    while k < len(star.values) and star.values[k] > lam:
        k += 1
    return star.cuts[k - 1] if k else _ZERO


def _rearrange_problems(x: StepFunction) -> list[str]:
    problems = []
    star = rearrange.rearrangement(x).star
    if star != _sorted_oracle_star(x):
        problems.append("star != sorted oracle")
    levels = {abs(v) for v in (*x.values, x.tail)} | {_ZERO}
    levels |= {l + Fraction(1, 3) for l in list(levels)[:4]}
    for lam in levels:
        if exceedance_measure(x, lam) != _distribution_oracle(star, lam):
            problems.append(f"distribution mismatch at lam={rat_str(lam)}")
            break
    if not rearrange.equimeasurable(x, star):
        problems.append("x not equimeasurable with its star")
    if not majorize.is_decreasing_rearrangement(star):
        problems.append("star is not its own rearrangement")
    return problems


def run_rearrange_suite(cases: int, seed: int) -> SuiteResult:
    """Rearrangement vs an independent sorting oracle; distribution equality;
    equimeasurability; right-continuity flags of the star."""
    def checks(rng, i, stats):
        alpha = INF if rng.random() < 0.6 else _ONE
        x = rand_step(rng, alpha, nonzero_tail=True)
        yield _rearrange_problems(x), {"x": x}, lambda c: _rearrange_problems(c["x"])
    return _suite("rearrange", cases, seed, checks)


def _oracle_phi(x: StepFunction) -> tuple[tuple[Fraction, ...], list[tuple[Fraction, Fraction]]]:
    """Phi_x(t) = int_0^t x* from the sort oracle, as affine branches.

    Returns (cuts, branches): Phi_x(t) = a + b*t with (a, b) = branches[k]
    on the k-th piece (cuts[k-1], cuts[k]] of ``_sorted_oracle_star`` and,
    for k = len(cuts), past its last cut.  The slopes b are the star's values;
    the intercepts a are running Fraction sums from a = 0 on the first piece:
    Phi_x is continuous, so a grows by (b - b')*c where the slope drops from b
    to b' at the cut c.  Nothing of ``rearrange`` is used.
    """
    star = _sorted_oracle_star(x)
    slopes = [*star.values, star.tail]
    branches = [(_ZERO, slopes[0])]
    for c, v in zip(star.cuts, slopes[1:]):
        a, b = branches[-1]
        branches.append((a + (b - v) * c, v))
    return star.cuts, branches


def _oracle_phi_at(x: StepFunction, t: Fraction) -> Fraction:
    """Phi_x(t) for 0 < t < alpha, read off the branches of ``_oracle_phi``."""
    cuts, branches = _oracle_phi(x)
    a, b = branches[bisect_left(cuts, t)]
    return a + b * t


def _phi_grid_le(x: StepFunction, y: StepFunction, grid: int) -> Optional[Fraction]:
    """Dense-grid oracle for Phi_x <= Phi_y: the first grid point t_j = j*h,
    0 < j <= grid, with Phi_x(t_j) > Phi_y(t_j), or None when there is none.

    Phi_x and Phi_y are the branches of ``_oracle_phi``, so nothing of
    ``rearrange`` is used.  On each segment between the merged cuts both are
    affine, so the test at t_j is d + s*j > 0 with d and s exact and
    constant on the segment (n1 + n2*j > 0 once denominators are cleared).
    Its first hit there is found in closed form: the least j past -d/s when
    s > 0, else the segment's first grid index.  A call costs O(pieces), not
    O(grid), and checks the same predicate at the same grid points as a scan.
    """
    (cx, bx), (cy, by) = _oracle_phi(x), _oracle_phi(y)
    horizon = max([*cx, *cy, _ONE]) + 2 if x.alpha == INF else _ONE
    h = horizon / grid
    j_lo = 0  # grid points with t_j <= lo are already checked
    for hi in sorted({*cx, *cy}) + [horizon]:  # every cut lies below the horizon
        (ax, sx), (ay, sy) = bx[bisect_left(cx, hi)], by[bisect_left(cy, hi)]
        d, s = ax - ay, (sx - sy) * h
        j_hi = min(int(hi / h), grid)  # floor: last grid index inside (lo, hi]
        j = j_lo + 1 if s <= 0 else max(j_lo + 1, -d // s + 1)
        if j <= j_hi and d + s * j > 0:
            return h * j
        j_lo = j_hi
    return None


def _hlp_problems(y: StepFunction, x: StepFunction) -> tuple[list[str], bool]:
    """(problems found, whether hlp_compare says y ≺ x)."""
    problems = []
    verdict = majorize.hlp_compare(y, x)
    if verdict.holds:
        grid_hit = _phi_grid_le(y, x, _HLP_GRID)
        if grid_hit is not None:
            problems.append(f"grid oracle found violation at t={rat_str(grid_hit)}")
    else:
        w = verdict.witness
        if not (0 < w and (x.alpha == INF or w < x.alpha)):
            problems.append("witness outside the domain")
        elif _oracle_phi_at(y, w) <= _oracle_phi_at(x, w):
            problems.append("witness does not witness")
    if not majorize.hlp_compare(x, x).holds:
        problems.append("reflexivity fails")
    return problems, verdict.holds


def _chain_problems(x: StepFunction, y: StepFunction, z: StepFunction) -> list[str]:
    if majorize.hlp_compare(z, y).holds and not majorize.hlp_compare(z, x).holds:
        return ["transitivity fails along a chain"]
    return []


def run_hlp_suite(cases: int, seed: int) -> SuiteResult:
    """hlp_compare against a dense-grid oracle, witness validity, reflexivity,
    and transitivity along constructed chains."""
    def checks(rng, i, stats):
        alpha = INF if rng.random() < 0.6 else _ONE
        if rng.random() < 0.5:
            y, x = majorized_pair(rng, alpha)
        else:
            x = rand_step(rng, alpha, max_pieces=8)
            y = rand_step(rng, alpha, max_pieces=8)
        problems, holds = _hlp_problems(y, x)
        stats["holds"] += holds
        # transitivity along a constructed chain zz ≺ yy ≺ xx
        yy, xx = majorized_pair(rng, alpha)
        zz = rearrange.rearrangement(yy).star.scale(Fraction(rng.randint(0, 8), 8))
        yield (_chain_problems(xx, yy, zz), {"x": xx, "y": yy, "z": zz},
               lambda c: _chain_problems(c["x"], c["y"], c["z"]))
        yield problems, {"x": x, "y": y}, lambda c: _hlp_problems(c["y"], c["x"])[0]
    return _suite("hlp", cases, seed, checks, holds=0)


def run_prop32_suite(cases: int, seed: int) -> SuiteResult:
    """Construction invariants: trace geometry, memberships, z/w != x, and the
    covering property on sampled members."""
    def checks(rng, i, stats):
        x, tau, eps = prop32_instance(rng, plateau=bool(i % 2))
        member_seed = seed * 1000003 + i
        problems, tag = _prop32_problems(x, tau, eps, member_seed)
        if tag is not None:
            stats["case_tags"][tag] += 1
        yield problems, {"x": x, "tau": tau, "eps": eps}, lambda c: (
            _prop32_admissible(c["x"], c["tau"], c["eps"])
            and _prop32_problems(c["x"], c["tau"], c["eps"], member_seed)[0])
    return _suite("prop32", cases, seed, checks,
                  case_tags={"affine_gap": 0, "affine_chord": 0})


def _prop32_admissible(x: StepFunction, tau: Fraction, eps: Fraction) -> bool:
    """The contract of prop32_instance, which the shrinker keeps: x = x* on
    [0, inf), x*(inf) = 0 and 0 < eps < Phi_x(tau)."""
    return (x.alpha is INF and majorize.is_decreasing_rearrangement(x) and not x.tail
            and tau > 0 and 0 < eps < rearrange.level_integral(x).value_at(tau))


def _prop32_problems(x, tau, eps, member_seed: int) -> tuple[list[str], Optional[str]]:
    """(problems found, the construction's case tag or None if it raised)."""
    try:
        trace = majorize.majorant_pair(x, tau, eps)
        ys = [majorize.sample_family_member(x, tau, eps, member_seed + j)
              for j in range(_PROP32_MEMBERS)]
    except RearrCalcError as e:
        return [f"construction raised: {e}"], None
    except AssertionError as e:  # both check their own geometry and membership
        return [f"construction invariant broken: {e}"], None
    problems = []
    for g, label in ((trace.z, "z"), (trace.w, "w")):
        if not majorize.is_decreasing_rearrangement(g):
            problems.append(f"{label} is not nonincreasing")
        if g == x:
            problems.append(f"{label} equals x")
        if not majorize.hlp_compare(g, x).holds:
            problems.append(f"{label} not majorized by x")
    if not majorize.family_contains(trace.z, x, tau - trace.tau1, trace.eps1):
        problems.append("z not in M(x, tau - tau1, eps1)")
    if not majorize.family_contains(trace.w, x, tau + trace.tau1, trace.eps1):
        problems.append("w not in M(x, tau + tau1, eps1)")
    for j, y in enumerate(ys):
        if not majorize.family_contains(y, x, tau, eps):
            problems.append(f"sampled member {j} not in the family")
            continue
        if not (majorize.hlp_compare(y, trace.z).holds
                or majorize.hlp_compare(y, trace.w).holds):
            problems.append(f"sampled member {j} covered by neither z nor w")
    return problems, trace.case_tag


def run_spaces_suite(cases: int, seed: int) -> SuiteResult:
    """Norm axioms on random functions/spaces: rearrangement invariance,
    homogeneity, triangle (Banach kinds), fundamental-function consistency,
    lattice monotonicity under pointwise domination, majorization
    monotonicity, M* <= M, and embedding into M_{phi_E}."""
    def checks(rng, i, stats):
        alpha = INF if rng.random() < 0.6 else _ONE
        space = rand_space(rng, alpha)
        x = rand_step(rng, alpha, max_pieces=6, nonzero_tail=True)
        y = rand_step(rng, alpha, max_pieces=6)
        snapshot = rng.getstate()  # shrinking replays the draws that failed
        yield (_space_problems(space, x, y, rng), {"space": space, "x": x, "y": y},
               lambda c: _space_problems(c["space"], c["x"], c["y"], _replay(snapshot)))
    return _suite("spaces", cases, seed, checks)


def _replay(state: tuple) -> random.Random:
    """A fresh generator that draws on from a saved ``getstate()``."""
    rng = random.Random()
    rng.setstate(state)
    return rng


def _space_problems(space, x, y, rng) -> list[str]:
    problems = []
    star = rearrange.rearrangement(x).star
    nx = spaces.norm(space, x)
    if nx != spaces.norm(space, star):
        problems.append("norm not rearrangement invariant")
    c = Fraction(rng.randint(0, 12), rng.randint(1, 6))
    sx = spaces.norm(space, x.scale(c))
    if nx == INF:
        if c > 0 and sx != INF:
            problems.append("homogeneity fails at infinite norm")
        if c == 0 and sx != 0:
            problems.append("0 * x must have norm 0")
    elif sx != c * nx:
        problems.append("homogeneity fails")
    if space.kind in _BANACH:
        ny = spaces.norm(space, y)
        if nx != INF and ny != INF and spaces.norm(space, x + y) > nx + ny:
            problems.append("triangle inequality fails")
    if (nx == 0) != (x == constant(0, x.alpha)):
        problems.append("norm zero iff x zero fails")
    t = _frac(rng, 8, 8)
    while t >= space.alpha:
        t /= 2
    if t > 0:
        if spaces.norm(space, box(1, t, space.alpha)) != spaces.fundamental_eval(space, t):
            problems.append("fundamental mismatch with the indicator norm")
    # lattice property: |w| <= |x| pointwise forces norm(w) <= norm(x); min(a, b) = a - (a - b)^+
    w = x.window(t, None) if rng.random() < 0.5 else abs(x) - (abs(x) - abs(y)).positive_part()
    if spaces.norm(space, w) > nx:
        problems.append("norm not monotone under pointwise domination")
    # majorization monotonicity for the kinds where it is a theorem
    if space.kind in ("L1plusLinf", "Marcinkiewicz", "MarcinkiewiczStar"):
        z, xx = majorized_pair(rng, space.alpha)
        if not majorize.hlp_compare(z, xx).holds:
            problems.append("majorized_pair generator broke y ≺ x")
        elif space.kind != "MarcinkiewiczStar":
            if spaces.norm(space, z) > spaces.norm(space, xx):
                problems.append("norm not monotone under majorization")
    if space.kind in spaces._PHI_KINDS:
        m = spaces.SpaceSpec("Marcinkiewicz", space.phi, space.alpha)
        ms = spaces.SpaceSpec("MarcinkiewiczStar", space.phi, space.alpha)
        if spaces.norm(ms, x) > spaces.norm(m, x):
            problems.append("M* norm exceeds M norm")
    if space.kind in _BANACH:
        phi_e = space.fundamental_function()
        m = spaces.SpaceSpec("Marcinkiewicz", phi_e, space.alpha)
        if spaces.norm(m, x) > nx:
            problems.append("embedding into M_{phi_E} with constant 1 fails")
    return problems


def _hardy_triple(rng: random.Random, alpha: Ext):
    """(u, v, w) satisfying the hypotheses by construction."""
    v = rand_step(rng, alpha, max_pieces=6, signed=False)
    mode = rng.randrange(3)
    if mode == 0:
        u = v.scale(Fraction(rng.randint(0, 8), 8))
    elif mode == 1 and alpha == INF:
        # push mass to the right: u(t) = v(t - s) has smaller running integrals
        s = _frac(rng)
        cuts = [s] + [c + s for c in v.cuts]
        u = canonicalize(cuts, [_ZERO, *v.values], v.tail, INF)
    else:
        # mode 2, and mode 1 on [0, 1): u = (k/8) v with k <= 7, so Phi_u <= Phi_v
        u = v.scale(Fraction(rng.randint(0, 7), 8))
    w = rand_star(rng, alpha, max_pieces=5) if rng.random() < 0.8 else constant(
        _frac(rng), alpha
    )
    return u, v, w


def run_hardy_suite(cases: int, seed: int) -> SuiteResult:
    """Admissible triples must satisfy the product inequality; adversarial
    triples must be rejected with a verifiable witness."""
    def checks(rng, i, stats):
        alpha = INF if rng.random() < 0.6 else _ONE
        u, v, w = _hardy_triple(rng, alpha)
        bump = _frac(rng)
        yield (_hardy_problems(u, v, w, bump), {"u": u, "v": v, "w": w},
               lambda c: _hardy_admissible(c["u"], c["v"], c["w"])
               and _hardy_problems(c["u"], c["v"], c["w"], bump))
    return _suite("hardy", cases, seed, checks)


def _hardy_admissible(u: StepFunction, v: StepFunction, w: StepFunction) -> bool:
    """The hypotheses of Hardy's lemma, which _hardy_triple guarantees and
    the shrinker keeps: u, v >= 0, int_0^t u <= int_0^t v for every t, and
    w = w*."""
    return (u.is_nonnegative() and v.is_nonnegative()
            and majorize.is_decreasing_rearrangement(w) and majorize.plc_dominated_by(u, v)[0])


def _hardy_problems(u, v, w, bump: Fraction) -> list[str]:
    """Problems of the admissible triple (u, v, w) and of the violating one
    whose u is v plus bump on [0, bump)."""
    problems = []
    try:
        if not majorize.hardy_check(u, v, w):
            problems.append("product inequality fails on an admissible triple")
    except HypothesisError as e:
        problems.append(f"admissible triple rejected: {e}")
    # adversarial: add mass to the head of u so cumulative domination breaks
    alpha = v.alpha
    u_bad = v + (canonicalize([bump], [bump], 0, alpha) if alpha == INF or bump < 1
                 else constant(bump, alpha))
    try:
        majorize.hardy_check(u_bad, v, w)
        problems.append("violating triple accepted")
    except HypothesisError as e:
        if e.witness is not None:
            t = e.witness
            if integrate(u_bad, 0, t) <= integrate(v, 0, t):
                problems.append("hypothesis witness does not witness")
    return problems


SUITES: dict[str, Callable[[int, int], SuiteResult]] = {
    "rearrange": run_rearrange_suite,
    "hlp": run_hlp_suite,
    "prop32": run_prop32_suite,
    "spaces": run_spaces_suite,
    "hardy": run_hardy_suite,
}


# -- shrinking ----------------------------------------------------------------


def _drop_piece(x: StepFunction, idx: int) -> StepFunction:
    """x without its piece idx < len(x.cuts): the next piece reaches back."""
    return canonicalize(x.cuts[:idx] + x.cuts[idx + 1:], x.values[:idx] + x.values[idx + 1:],
                        x.tail, x.alpha)


def _simplify_rat(q: Fraction) -> list[Fraction]:
    outs = []
    for d in (1, 2, 4, 8):
        r = Fraction(round(q * d), d)
        if r != q:
            outs.append(r)
    return outs


def _rat_variants(x: StepFunction) -> list[StepFunction]:
    """One simplified rational at a time: cuts, then values, then the tail."""
    outs = []
    k = len(x.cuts)
    data = [*x.cuts, *x.values, x.tail]
    for j, q in enumerate(data):
        for r in _simplify_rat(q):
            d = data.copy()
            d[j] = r
            try:
                outs.append(canonicalize(d[:k], d[k:-1], d[-1], x.alpha))
            except RearrCalcError:
                continue
    return outs


def shrink_case(case: dict, still_fails: Callable[[dict], bool]) -> dict:
    """Greedy structural shrink of StepFunction/Fraction entries in a case."""
    case = dict(case)
    tries = 0
    improved = True
    while improved and tries < _SHRINK_BUDGET:
        improved = False
        for key, val in list(case.items()):
            if isinstance(val, StepFunction):
                candidates = [_drop_piece(val, i) for i in range(len(val.cuts))]
                candidates += _rat_variants(val)
            elif isinstance(val, Fraction):
                candidates = _simplify_rat(val)
            else:
                continue
            for cand in candidates:
                tries += 1
                if tries >= _SHRINK_BUDGET:
                    break
                trial = dict(case)
                trial[key] = cand
                try:
                    if still_fails(trial):
                        case = trial
                        improved = True
                        break
                except Exception:
                    continue
            if improved:
                break
    return case
