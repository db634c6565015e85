"""In-memory span tracer that wraps rearrcalc functions from the outside.

``Tracer.install(modules)`` replaces each traced function in every rearrcalc
module namespace (or class) that binds it, so calls between modules go
through the wrapper too: ``majorize.level_integral`` is wrapped as well as
``rearrange.level_integral``.  A span is (name, parent, start, end); spans are
kept in flat arrays and written out once, at the end.  A span's self time is
its duration minus the time covered by its direct children.

Scalar helpers (``rat``, ``parse_rat``, ``rat_str`` ...) are not spanned:
they run once per Fraction and cost less than a span, so their time stays
in the caller's self time.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

# span name -> (module, attribute path) of the function it wraps.  Several
# entries may share a span name: their calls and time are added up.
SPANS = {
    "stepfn.canonicalize": [("stepfn", "canonicalize")],
    "stepfn.add": [("stepfn", "StepFunction.__add__"), ("stepfn", "StepFunction.__sub__"),
                   ("stepfn", "StepFunction.__mul__")],
    "stepfn.window": [("stepfn", "StepFunction.window")],
    "stepfn.integrate": [("stepfn", "integrate")],
    "stepfn.exceedance_measure": [("stepfn", "exceedance_measure")],
    "stepfn.plc_value_at": [("stepfn", "PiecewiseLinearConcave.value_at")],
    "rearrange.rearrangement": [("rearrange", "rearrangement"), ("rearrange", "level_integral")],
    "rearrange.maximal_eval": [("rearrange", "maximal_eval")],
    "majorize.hlp_compare": [("majorize", "hlp_compare")],
    "majorize.plc_dominated_by": [("majorize", "plc_dominated_by")],
    "majorize.majorant_pair": [("majorize", "majorant_pair")],
    "majorize.sample_family_member": [("majorize", "sample_family_member")],
    "majorize.family_contains": [("majorize", "family_contains")],
    "majorize.hardy_check": [("majorize", "hardy_check")],
    "experiments.probe": [("experiments", "probe_koc"), ("experiments", "probe_lkm")],
    "experiments.maximal_distance": [("experiments", "maximal_distance")],
    "experiments.measure_distance": [("experiments", "measure_distance")],
    "experiments.flatten_head": [("experiments", "flatten_head")],
    "gen.generate": [("gen", n) for n in ("rand_step", "rand_star", "rand_phi", "rand_space",
                                           "prop32_instance", "majorized_pair", "_hardy_triple")],
    "gen.oracle": [("gen", n) for n in ("_sorted_oracle_star", "_distribution_oracle",
                                         "_phi_grid_le")],
    "gen.shrink_case": [("gen", "shrink_case")],
}

# spaces.norm gets one span name per space kind: spaces.norm.<kind>
NORM = ("spaces", "norm")

# reported as X.calls and X.self_s (the gen entries are reported differently)
REPORTED = [n for n in SPANS if not n.startswith("gen.")] + [
    f"spaces.norm.{k}"
    for k in ("L1", "Linf", "L1plusLinf", "Marcinkiewicz", "MarcinkiewiczStar")
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        """Open a span from the benchmark itself; close it with ``close``."""
        return self._open(self._id(name))

    def close(self, idx: int) -> None:
        self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_of):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every function named in SPANS wherever rearrcalc binds it."""
        targets = []  # (owner, attribute, span-id function of the call's args)
        for name, sites in SPANS.items():
            nid = self._id(name)
            for mod, path in sites:
                owner, attr = _resolve(modules[mod], path)
                targets.append((owner, attr, lambda args, nid=nid: nid))
        norm_ids = {}

        def norm_name(args):
            kind = args[0].kind
            if kind not in norm_ids:
                norm_ids[kind] = self._id(f"spaces.norm.{kind}")
            return norm_ids[kind]

        targets.append((modules[NORM[0]], NORM[1], norm_name))
        for owner, attr, name_of in targets:
            fn = owner.__dict__[attr]
            wrapped = self._wrap(fn, name_of)
            for host in [owner, *modules.values()]:
                for key, value in list(vars(host).items()):
                    if value is fn:
                        self._restore.append((host, key, value))
                        setattr(host, key, wrapped)
        cls = modules["stepfn"].StepFunction
        post_init = cls.__post_init__
        counts = self.counts

        def counting_post_init(obj):
            counts["stepfn.constructed"] += 1
            post_init(obj)

        self._restore.append((cls, "__post_init__", post_init))
        cls.__post_init__ = counting_post_init

    def uninstall(self) -> None:
        for host, key, value in reversed(self._restore):
            setattr(host, key, value)
        self._restore.clear()

    def aggregate(self) -> dict:
        """Per span name: {"calls": n, "self_s": seconds}."""
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict = {}
        for i, nid in enumerate(self.name):
            entry = out.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self.end[i] - self.start[i] - covered[i]
        return out

    def rows(self) -> list:
        """Every span as [name, parent, start_s, end_s], times relative to the first."""
        t0 = self.start[0] if self.start else 0.0
        return [
            [self.names[n], p, round(s - t0, 9), round(e - t0, 9)]
            for n, p, s, e in zip(self.name, self.parent, self.start, self.end)
        ]


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr
