"""Exact rearrangement and majorization calculus on rational step functions.

The package works entirely in exact arithmetic: scalars are
``fractions.Fraction``, the only non-rational value is the measure/norm
sentinel ``INF``.  Core objects are canonical ``StepFunction``s on [0, 1)
or [0, inf) and the piecewise-linear concave level integrals derived from
them; on top sit the Hardy-Littlewood-Polya order, Marcinkiewicz-type
norms, a two-majorant construction with a full geometric trace, and probe
drivers for order-continuity experiments.  The names from ``experiments``
(the probes, families, distances and ``flatten_head``) load on first use:
importing the package does not import that module.
"""

from .errors import (
    DomainMismatchError,
    EmptyFamilyError,
    HypothesisError,
    InfiniteIntegralError,
    ParseError,
    PreconditionError,
    RearrCalcError,
)
from .majorize import (
    ConstructionTrace,
    HlpVerdict,
    family_contains,
    hardy_check,
    hlp_compare,
    majorant_pair,
    sample_family_member,
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

__all__ = [
    "INF",
    "ConstructionTrace",
    "DomainMismatchError",
    "EmptyFamilyError",
    "HlpVerdict",
    "Hyperbolic",
    "HypothesisError",
    "InfiniteIntegralError",
    "ParseError",
    "PiecewiseLinearConcave",
    "PreconditionError",
    "ProbeRecord",
    "ProbeReport",
    "RearrCalcError",
    "RearrangementResult",
    "SequenceFamily",
    "SpaceSpec",
    "StepFunction",
    "block",
    "box",
    "builtin_family",
    "canonicalize",
    "constant",
    "embeds_in_l1",
    "equimeasurable",
    "exceedance_measure",
    "family_contains",
    "flatten_head",
    "fundamental_eval",
    "hardy_check",
    "hlp_compare",
    "integrate",
    "is_decreasing_rearrangement",
    "level_integral",
    "majorant_pair",
    "maximal_distance",
    "maximal_eval",
    "measure_distance",
    "mphi_a_member",
    "norm",
    "parse_rat",
    "probe_koc",
    "probe_lkm",
    "rat",
    "rat_str",
    "rearrangement",
    "sample_family_member",
    "__version__",
]

_LAZY = {"ProbeRecord", "ProbeReport", "SequenceFamily", "builtin_family", "flatten_head",
         "maximal_distance", "measure_distance", "probe_koc", "probe_lkm"}


def __getattr__(name):
    if name in _LAZY:
        from . import experiments
        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})
