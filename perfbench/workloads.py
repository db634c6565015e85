"""The three workloads: seeded inputs, the operation each step runs, and its check.

A workload hands the runner one operation at a time as an ``Op``: ``call``
is the timed part and touches the program; ``check`` runs afterwards,
outside the timed region, and compares the output with ``reference`` (or,
for the CLI, with the first output of the same command).  Inputs come only
from the seed, through ``random.Random`` instances keyed by the seed and the
operation's index, so the same seed gives the same operations.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import reference as ref
import speed
from reference import INF, ONE, ZERO

PROGRAM_MODULES = ("stepfn", "rearrange", "majorize", "spaces", "experiments", "gen")
NORM_KINDS = ("L1", "Linf", "L1plusLinf", "Marcinkiewicz", "MarcinkiewiczStar")


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def subprocess_env(root: Path) -> dict:
    """Environment for child interpreters: the program comes from ``root/src``."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def load_program(keep: set) -> dict:
    """Import rearrcalc afresh: drop every module imported since ``keep`` was taken."""
    for name in [m for m in sys.modules if m not in keep]:
        del sys.modules[name]
    mods = {"rearrcalc": importlib.import_module("rearrcalc")}
    for m in PROGRAM_MODULES:
        mods[m] = importlib.import_module(f"rearrcalc.{m}")
    return mods


# -- seeded raw inputs ----------------------------------------------------------


def _value(rng: random.Random, signed: bool) -> Fraction:
    v = Fraction(rng.randint(1, 24), rng.randint(1, 8))
    return -v if signed and rng.random() < 0.4 else v


def rand_cuts(rng: random.Random, n: int, alpha) -> list:
    if alpha == INF:
        cuts, acc = [], ZERO
        for _ in range(n):
            acc += Fraction(rng.randint(1, 24), rng.randint(1, 8))
            cuts.append(acc)
        return cuts
    den = 16 * n + 1
    return [Fraction(k, den) for k in sorted(rng.sample(range(1, den), n))]


def rand_alpha(rng: random.Random):
    return INF if rng.random() < 0.6 else ONE


def polyline_nodes(cuts, slopes, jump0) -> list:
    """Node values of the polyline that starts at jump0 with these segment slopes."""
    nodes, v, prev = [], jump0, ZERO
    for c, m in zip(cuts, slopes):
        v += m * (c - prev)
        nodes.append(v)
        prev = c
    return nodes


def rat_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class Inputs:
    """Builds program inputs from seeded raw data through the program's constructors."""

    def __init__(self, mods: dict):
        self.stepfn = mods["stepfn"]
        self.spaces = mods["spaces"]

    def step(self, rng, n, alpha, signed=True, tail=None):
        cuts = rand_cuts(rng, n, alpha)
        values = [_value(rng, signed) for _ in cuts]
        if tail is None:
            tail = ZERO if alpha == INF else _value(rng, signed)
        return self.stepfn.canonicalize(cuts, values, tail, alpha)

    def star(self, rng, n):
        """Nonnegative, nonincreasing, tail 0 on [0, inf): x = x*."""
        cuts = rand_cuts(rng, n, INF)
        values = sorted({Fraction(rng.randint(1, 64 * n), 64) for _ in cuts}, reverse=True)
        return self.stepfn.canonicalize(cuts[: len(values)], values, 0, INF)

    def phi(self, rng, alpha):
        """A fundamental function: the hyperbola t/(c+t) or a concave polyline."""
        if rng.random() < 0.5:
            return self.spaces.Hyperbolic(Fraction(rng.randint(1, 12), rng.randint(1, 4)))
        k = rng.randint(1, 4)
        slopes = sorted({Fraction(rng.randint(1, 48), 8) for _ in range(k + 1)}, reverse=True)
        final = ZERO if rng.random() < 0.5 else slopes.pop()
        cuts = rand_cuts(rng, len(slopes), alpha)
        jump0 = ZERO if rng.random() < 0.5 else Fraction(rng.randint(1, 8), 4)
        nodes = polyline_nodes(cuts, slopes, jump0)
        return self.stepfn.PiecewiseLinearConcave(alpha, cuts, nodes, final, jump0)

    def space(self, rng, kind, alpha):
        phi = self.phi(rng, alpha) if kind in ("Marcinkiewicz", "MarcinkiewiczStar") else None
        return self.spaces.SpaceSpec(kind, phi, alpha)


def _points(rng, fs, alpha, count=160) -> list:
    """Seeded check points: random rationals in the domain plus sampled cuts."""
    top = ONE if alpha != INF else max([f.cuts[-1] for f in fs if f.cuts] + [ONE]) * 9 / 8
    pts = [top * Fraction(rng.randint(0, 10**6 - 1), 10**6) for _ in range(count)]
    for f in fs:
        if f.cuts:
            pts += rng.sample(list(f.cuts), min(32, len(f.cuts)))
    return pts


def membership(g: ref.Step, fx: ref.Phi, tau, eps) -> bool:
    """g in M(x, tau, eps) on [0, inf), where fx = Phi_x:
    g = g*, g ≺ x, and Phi_g(tau) + eps <= Phi_x(tau)."""
    if not ref.is_star(g):
        return False
    fg = ref.Phi(g)
    return ref.dominated(fg, fx, INF) and fg.at(tau) + eps <= fx.at(tau)


# -- kernels_large ----------------------------------------------------------------


class KernelsLarge:
    """Library kernels on fresh operands of a few thousand pieces, in-process.

    Each ``call`` looks its function up on the module when it runs, so that a
    tracer installed after the operation was built still sees the call.
    """

    name = "kernels_large"
    IN_PROCESS = True
    PIECES = 2000
    MIX = ("add", "window", "integrate", "rearrangement", "hlp_compare",
           *(f"norm.{k}" for k in NORM_KINDS), "majorant_pair", "maximal_distance")
    TRACE_OPS = len(MIX)
    # Operands never repeat, so an entry of the rearrangement cache is never
    # looked up again once its operation ends.  Clearing the cache between
    # operations (outside the timed region) keeps peak_rss_mb a measure of one
    # operation's working set instead of a count of operations completed.
    CLEAR_CACHE_BETWEEN_OPS = True

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def setup(self, mods: dict) -> None:
        self.mods = mods
        self.inputs = Inputs(mods)

    def close(self) -> None:
        pass

    @staticmethod
    def clock() -> speed.Clock:
        return speed.Clock()

    def op(self, i) -> Op:
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        kind = self.MIX[i % len(self.MIX)]
        # The discrete choices (domain, hlp pair type, tau and eps fractions...)
        # rotate with the cycle number instead of being drawn, so every run has
        # the same share of each and the seed moves only the values.
        cycle = i // len(self.MIX)
        build = getattr(self, "_" + kind.split(".")[0])
        return build(kind, rng, cycle)

    @staticmethod
    def _alpha(cycle: int):
        return INF if cycle % 5 < 3 else ONE

    def _add(self, kind, rng, cycle):
        alpha = self._alpha(cycle)
        x = self.inputs.step(rng, self.PIECES, alpha)
        y = self.inputs.step(rng, self.PIECES, alpha)
        pts = _points(rng, (x, y), alpha)

        def check(z):
            zs, xs, ys = ref.Step.of(z), ref.Step.of(x), ref.Step.of(y)
            return ref.is_canonical(z) and all(zs.at(t) == xs.at(t) + ys.at(t) for t in pts)

        return Op(kind, lambda: x + y, check)

    def _window(self, kind, rng, cycle):
        alpha = self._alpha(cycle)
        x = self.inputs.step(rng, self.PIECES, alpha)
        span = x.cuts[-1] if x.cuts else ONE
        a = span * Fraction(rng.randint(0, 400), 1000)
        b = None if cycle % 10 < 3 else a + span * Fraction(rng.randint(1, 600), 1000)
        hi = alpha if b is None else b
        pts = _points(rng, (x,), alpha) + [a] + ([b] if b is not None else [])

        def check(z):
            zs, xs = ref.Step.of(z), ref.Step.of(x)
            return ref.is_canonical(z) and all(
                zs.at(t) == (xs.at(t) if a <= t < hi else ZERO) for t in pts
            )

        return Op(kind, lambda: x.window(a, b), check)

    def _integrate(self, kind, rng, cycle):
        alpha = self._alpha(cycle)
        x = self.inputs.step(rng, self.PIECES, alpha)
        span = x.cuts[-1] if x.cuts else ONE
        a = span * Fraction(rng.randint(0, 500), 1000)
        if alpha == INF and cycle % 2 == 0:
            b = INF
        else:
            b = min(alpha, a + span * Fraction(rng.randint(1, 800), 1000))
        stepfn = self.mods["stepfn"]
        return Op(kind, lambda: stepfn.integrate(x, a, b),
                  lambda v: v == ref.integral(ref.Step.of(x), a, b))

    def _rearrangement(self, kind, rng, cycle):
        alpha = self._alpha(cycle)
        tail = _value(rng, True) if cycle % 5 == 0 else None  # on [0, inf)
        x = self.inputs.step(rng, self.PIECES, alpha, tail=tail)
        rearrange = self.mods["rearrange"]

        def check(rr):
            star = ref.sorted_star(ref.Step.of(x))
            phi = ref.Phi(star)
            li = rr.level_integral
            return (ref.same_step(rr.star, star) and list(li.cuts) == star.cuts
                    and list(li.node_values) == phi.nodes and li.final_slope == star.tail
                    and li.jump0 == 0 and rr.star_at_infinity == star.tail)

        return Op(kind, lambda: rearrange.rearrangement(x), check)

    def _hlp_compare(self, kind, rng, cycle):
        alpha = self._alpha(cycle)
        x = self.inputs.step(rng, self.PIECES, alpha)
        if cycle % 2 == 0:
            y = self._shuffled_scaled(rng, x)
        else:
            y = self.inputs.step(rng, self.PIECES, alpha)
        majorize = self.mods["majorize"]

        def check(verdict):
            fy, fx = ref.phi_of(ref.Step.of(y)), ref.phi_of(ref.Step.of(x))
            if verdict.holds != ref.dominated(fy, fx, alpha):
                return False
            w = verdict.witness
            return verdict.holds or (ref.in_domain(w, alpha) and fy.at(w) > fx.at(w))

        return Op(kind, lambda: majorize.hlp_compare(y, x), check)

    def _shuffled_scaled(self, rng, x):
        """c * x with its finite pieces shuffled: majorized by x for 0 < c <= 1."""
        xs = ref.Step.of(x)
        bounds = [ZERO] + xs.cuts + ([] if xs.alpha == INF else [ONE])
        pieces = [(b - a, v) for a, b, v in zip(bounds, bounds[1:], xs.values + [xs.tail])]
        rng.shuffle(pieces)
        c = Fraction(rng.randint(1, 16), 16)
        if xs.alpha == INF:
            tail = xs.tail * c
        else:
            tail = pieces.pop()[1] * c
        cuts, acc = [], ZERO
        for length, _ in pieces:
            acc += length
            cuts.append(acc)
        return self.inputs.stepfn.canonicalize(cuts, [v * c for _, v in pieces], tail, xs.alpha)

    def _norm(self, kind, rng, cycle):
        space_kind = kind.split(".", 1)[1]
        alpha = self._alpha(cycle)
        tail = _value(rng, True) if cycle % 5 == 0 else None  # on [0, inf)
        x = self.inputs.step(rng, self.PIECES, alpha, tail=tail)
        space = self.inputs.space(rng, space_kind, alpha)
        spaces = self.mods["spaces"]
        return Op(kind, lambda: spaces.norm(space, x),
                  lambda v: v == ref.norm(space_kind, space.phi, ref.Step.of(x)))

    def _majorant_pair(self, kind, rng, cycle):
        x = self.inputs.star(rng, self.PIECES)
        fx = ref.phi_of(ref.Step.of(x))
        tau = x.cuts[-1] * Fraction(1 + cycle % 7, 8)
        eps = fx.at(tau) * Fraction(1 + cycle % 15, 16)
        majorize = self.mods["majorize"]

        def check(tr):
            xs, z, w = ref.Step.of(x), ref.Step.of(tr.z), ref.Step.of(tr.w)
            return (0 < tr.gamma < tau < tr.beta and z.key() != xs.key() and w.key() != xs.key()
                    and membership(z, fx, tau - tr.tau1, tr.eps1)
                    and membership(w, fx, tau + tr.tau1, tr.eps1))

        return Op(kind, lambda: majorize.majorant_pair(x, tau, eps), check)

    def _maximal_distance(self, kind, rng, cycle):
        alpha = self._alpha(cycle)
        x = self.inputs.step(rng, self.PIECES, alpha)
        y = self.inputs.step(rng, self.PIECES, alpha)
        delta = Fraction(rng.randint(1, 32), 8)
        experiments = self.mods["experiments"]
        return Op(kind, lambda: experiments.maximal_distance(x, y, delta),
                  lambda v: v == ref.maximal_distance(ref.Step.of(x), ref.Step.of(y), delta))


# -- prop_suites ------------------------------------------------------------------


class PropSuites:
    """The five gen.SUITES, one suite call per operation, in-process."""

    name = "prop_suites"
    IN_PROCESS = True
    # cases per call: each call costs tens of milliseconds on a 2-core x86 VM
    CASES = {"rearrange": 24, "hlp": 4, "prop32": 3, "spaces": 12, "hardy": 24}
    MIX = tuple(CASES)
    TRACE_OPS = 5 * len(MIX)
    # Functions of at most 12 pieces, and suite calls do share some of them
    # (constants, boxes), so the cache stays as the program leaves it.
    CLEAR_CACHE_BETWEEN_OPS = False

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def setup(self, mods: dict) -> None:
        self.mods = mods

    def close(self) -> None:
        pass

    @staticmethod
    def clock() -> speed.Clock:
        return speed.Clock()

    def op(self, i) -> Op:
        suite = self.MIX[i % len(self.MIX)]
        cases = self.CASES[suite]
        seed = random.Random(f"{self.name}/{self.seed}/{i}").getrandbits(31)
        run = self.mods["gen"].SUITES[suite]

        def check(res) -> bool:
            if (res.suite, res.cases, res.seed, res.ok) != (suite, cases, seed, True):
                return False
            if suite == "prop32" and sum(res.stats["case_tags"].values()) != cases:
                return False
            if suite == "hlp" and not 0 <= res.stats["holds"] <= cases:
                return False
            return json.loads(json.dumps(res.to_json()))["ok"] is True

        return Op(f"suite.{suite}", lambda: run(cases, seed), check)


# -- cli_commands -----------------------------------------------------------------


def write_step(f: ref.Step) -> dict:
    return {"alpha": "inf" if f.alpha == INF else "1",
            "breakpoints": [rat_text(c) for c in f.cuts],
            "values": [rat_text(v) for v in f.values], "tail": rat_text(f.tail)}


def read_step(obj: dict) -> ref.Step:
    alpha = INF if obj["alpha"] == "inf" else ONE
    return ref.Step(alpha, map(Fraction, obj["breakpoints"]), map(Fraction, obj["values"]),
                    Fraction(obj["tail"]))


def read_ext(text: str):
    return INF if text == "inf" else Fraction(text)


class CliCommands:
    """``python -m rearrcalc`` subprocesses, one at a time, on generated input files."""

    name = "cli_commands"
    IN_PROCESS = False
    PIECES = 300
    REPLICATE = ("remark45", "example46", "prop32-case1", "prop32-case2", "lemma43", "thm47")
    TRACE_OPS = len(REPLICATE) + 6
    TIMEOUT_S = 60  # a command that hangs is killed and counted as failed
    CLEAR_CACHE_BETWEEN_OPS = False

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.python = sys.executable
        self.env = subprocess_env(root)
        self.work = None
        self.first: dict = {}  # command index -> sha256 of its first stdout

    def setup(self, mods=None) -> None:
        """Write the seeded input files and build the command list."""
        self.close()
        self.work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=self.root))
        rng = random.Random(f"{self.name}/{self.seed}")
        n = self.PIECES

        def raw_step(alpha, signed, tail=ZERO):
            cuts = rand_cuts(rng, n, alpha)
            return ref.canonical(alpha, cuts, [_value(rng, signed) for _ in cuts], tail)

        x = raw_step(INF, signed=False)  # nonnegative with x*(inf) = 0, for the probes
        star = ref.sorted_star(raw_step(INF, signed=False))
        fstar = ref.Phi(star)
        tau = star.cuts[-1] * Fraction(rng.randint(1, 7), 8)
        eps = fstar.at(tau) * Fraction(rng.randint(1, 15), 16)
        alpha = rand_alpha(rng)
        pair = {"x": raw_step(alpha, True, _value(rng, True) if alpha != INF else ZERO),
                "y": raw_step(alpha, True, _value(rng, True) if alpha != INF else ZERO)}
        slopes = sorted({Fraction(rng.randint(1, 48), 8) for _ in range(4)}, reverse=True)
        cuts = rand_cuts(rng, len(slopes), INF)
        space = {"kind": "Marcinkiewicz", "alpha": "inf",
                 "phi": {"kind": "piecewise_linear_concave", "alpha": "inf",
                         "breakpoints": [rat_text(c) for c in cuts],
                         "node_values": [rat_text(v) for v in polyline_nodes(cuts, slopes, ZERO)],
                         "final_slope": "0/1", "jump0": "0/1"}}
        files = {
            "x.json": write_step(x),
            "space.json": space,
            "pair.json": {k: write_step(f) for k, f in pair.items()},
            "mp.json": {"x": write_step(star), "tau": rat_text(tau), "eps": rat_text(eps)},
        }
        for name, obj in files.items():
            (self.work / name).write_text(json.dumps(obj))
        w = lambda name: str(self.work / name)
        k = rng.randint(8, 12)
        # probe-lkm, the slowest command, runs twice per cycle: the 90th
        # percentile then falls inside its block of latencies instead of on
        # the boundary between the two probe commands
        self.commands = [["replicate", t, "--n", f"1..{k}"] for t in self.REPLICATE] + [
            ["probe-koc", "--input", w("x.json"), "--family", "thm47_flatten",
             "--space", w("space.json"), "--n", "1..4", "--tolerance", "1/100"],
            ["probe-lkm", "--input", w("x.json"), "--family", "lemma43_x",
             "--space", w("space.json"), "--n", "1..4"],
            ["majorant-pair", "--input", w("mp.json")],
            ["probe-lkm", "--input", w("x.json"), "--family", "lemma43_x",
             "--space", w("space.json"), "--n", "1..4"],
            ["norm", "--input", w("x.json"), "--space", w("space.json")],
            ["hlp", "--input", w("pair.json")],
        ]
        self.inputs = {"x": x, "space": space, "pair": pair, "star": star, "tau": tau, "eps": eps}

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)
            self.work = None

    @staticmethod
    def clock() -> speed.Clock:
        return speed.Clock(speed.start_probe, speed.REF_START_S)

    def argv(self, i: int) -> list:
        return self.commands[i % len(self.commands)]

    def op(self, i, prefix=None) -> Op:
        j = i % len(self.commands)
        argv = (prefix or [self.python, "-m", "rearrcalc"]) + self.argv(i)
        return Op(self.argv(i)[0], lambda: subprocess.run(
            argv, env=self.env, cwd=self.root, capture_output=True, stdin=subprocess.DEVNULL,
            timeout=self.TIMEOUT_S,
        ), lambda proc: self._check(j, proc))

    def _check(self, j: int, proc) -> bool:
        """Exit 0 and the same stdout bytes as the command's first run, which is
        itself checked against the reference where the output is a number or verdict."""
        if proc.returncode != 0 or not proc.stdout:
            return False
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if j not in self.first:
            if not self._semantic_check(self.commands[j][0], proc.stdout):
                return False
            self.first[j] = digest
        return self.first[j] == digest

    def _semantic_check(self, command: str, stdout: bytes) -> bool:
        if command == "replicate" or command.startswith("probe-"):
            return True  # canned replications: exit 0 and determinism only
        out = json.loads(stdout)
        d = self.inputs
        if command == "norm":
            phi = SimpleNamespace(
                cuts=[Fraction(c) for c in d["space"]["phi"]["breakpoints"]],
                node_values=[Fraction(v) for v in d["space"]["phi"]["node_values"]],
                final_slope=ZERO, jump0=ZERO)
            return read_ext(out["norm"]) == ref.norm("Marcinkiewicz", phi, d["x"])
        if command == "hlp":
            fx, fy = ref.phi_of(d["pair"]["x"]), ref.phi_of(d["pair"]["y"])
            alpha = d["pair"]["x"].alpha
            for key, (fa, fb) in (("x_prec_y", (fx, fy)), ("y_prec_x", (fy, fx))):
                verdict = out[key]
                if verdict["holds"] != ref.dominated(fa, fb, alpha):
                    return False
                if not verdict["holds"]:
                    w = Fraction(verdict["witness"])
                    if not (ref.in_domain(w, alpha) and fa.at(w) > fb.at(w)):
                        return False
            return True
        tr = out["trace"]
        tau, eps = d["tau"], d["eps"]
        tau1, eps1 = Fraction(tr["tau1"]), Fraction(tr["eps1"])
        star = d["star"]
        z, w = read_step(tr["z"]), read_step(tr["w"])
        return (z.key() != star.key() and w.key() != star.key()
                and Fraction(tr["gamma"]) < tau < Fraction(tr["beta"])
                and membership(z, ref.Phi(star), tau - tau1, eps1)
                and membership(w, ref.Phi(star), tau + tau1, eps1))


WORKLOADS = {w.name: w for w in (KernelsLarge, PropSuites, CliCommands)}
