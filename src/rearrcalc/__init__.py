"""Exact rearrangement and majorization calculus on rational step functions.

The package works entirely in exact arithmetic: scalars are
``fractions.Fraction``, the only non-rational value is the measure/norm
sentinel ``INF``.  Core objects are canonical ``StepFunction``s on [0, 1)
or [0, inf) and the piecewise-linear concave level integrals derived from
them; on top sit the Hardy-Littlewood-Polya order, Marcinkiewicz-type
norms, a two-majorant construction with a full geometric trace, and probe
drivers for order-continuity experiments.  The names from ``majorize`` and
``experiments`` (the order, the construction, the probes and the distances)
load on first use: importing the package imports neither module.
"""

from importlib import import_module

from .errors import (
    DomainMismatchError,
    EmptyFamilyError,
    HypothesisError,
    InfiniteIntegralError,
    ParseError,
    PreconditionError,
    RearrCalcError,
)
from .rearrange import (
    RearrangementResult,
    equimeasurable,
    level_integral,
    maximal_eval,
    rearrangement,
)
from .spaces import (
    Hyperbolic,
    SpaceSpec,
    embeds_in_l1,
    fundamental_eval,
    mphi_a_member,
    norm,
)
from .stepfn import (
    INF,
    PiecewiseLinearConcave,
    StepFunction,
    block,
    box,
    canonicalize,
    constant,
    exceedance_measure,
    integrate,
    is_decreasing_rearrangement,
    parse_rat,
    rat,
    rat_str,
)

__version__ = "0.1.0"

#: the names that import their module on first use, by module
_LAZY = {name: module for module, names in (
    ("experiments", "ProbeRecord ProbeReport SequenceFamily builtin_family flatten_head "
                    "maximal_distance measure_distance probe_koc probe_lkm"),
    ("majorize", "ConstructionTrace HlpVerdict family_contains hardy_check hlp_compare "
                 "majorant_pair sample_family_member"),
) for name in names.split()}

__all__ = [
    "INF",
    "DomainMismatchError",
    "EmptyFamilyError",
    "Hyperbolic",
    "HypothesisError",
    "InfiniteIntegralError",
    "ParseError",
    "PiecewiseLinearConcave",
    "PreconditionError",
    "RearrCalcError",
    "RearrangementResult",
    "SpaceSpec",
    "StepFunction",
    "block",
    "box",
    "canonicalize",
    "constant",
    "embeds_in_l1",
    "equimeasurable",
    "exceedance_measure",
    "fundamental_eval",
    "integrate",
    "is_decreasing_rearrangement",
    "level_integral",
    "maximal_eval",
    "mphi_a_member",
    "norm",
    "parse_rat",
    "rat",
    "rat_str",
    "rearrangement",
    *_LAZY,
    "__version__",
]


def __getattr__(name):
    if name in _LAZY:
        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})
