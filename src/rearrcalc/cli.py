"""Command-line interface.

Every operation of the library is reachable here.  Output is deterministic:
identical arguments (and seed) produce byte-identical bytes on stdout, in
``json`` (default), ``table``, or ``csv`` form.  Exit status: 0 on success
(including probes, whose verdict is part of the payload), 2 on parse errors,
3 on precondition violations, 4 when a property suite finds a counterexample
(the minimized counterexample is part of the JSON payload) or when a
construction fails its own invariant check (one line on stderr, with the
command line that reruns it on its inputs inlined as JSON; nothing on
stdout).  The handlers that use ``majorize``, ``experiments`` or ``gen``
import it when they run, so that no other command pays for that import.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .errors import ParseError, RearrCalcError
from .rearrange import maximal_eval, rearrangement
from .spaces import Hyperbolic, SpaceSpec, embeds_in_l1, fundamental_eval, norm
from .stepfn import (
    INF,
    PiecewiseLinearConcave,
    StepFunction,
    box,
    constant,
    canonicalize,
    ext_str,
    parse_rat,
    rat_str,
)

_EXIT_OK = 0
_EXIT_PARSE = 2
_EXIT_PRECONDITION = 3
_EXIT_PROPERTY = 4

#: the names of ``gen.SUITES``, without importing ``gen`` to build the parser
_SUITE_NAMES = ("rearrange", "hlp", "prop32", "spaces", "hardy")

#: the JSON that ``_load_json`` read in this ``main`` call, by source argument
_loaded: dict = {}
#: the options whose sources ``_rerun_line`` inlines
_INLINED = ("--input", "--space")


def _load_json(source: str):
    """Load JSON from an inline string, a file path, or '-' (stdin).

    Text starting with '{' or '[' (after whitespace) is inline JSON.  The
    result is kept in ``_loaded`` for :func:`_rerun_line`."""
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith(("{", "[")):
        text = source
    else:
        try:
            text = Path(source).read_text()
        except (OSError, ValueError) as e:  # ValueError: a NUL in the path, or not UTF-8
            raise ParseError(f"cannot read input {source!r}: {e}") from None
    try:
        _loaded[source] = obj = json.loads(text)
        return obj
    except json.JSONDecodeError as e:
        raise ParseError(f"input is not valid JSON: {e}") from None
    except RecursionError:
        raise ParseError("input is not valid JSON: nested too deeply") from None


def _rerun_line(argv) -> str:
    """The shell line that reruns ``main(argv)`` on the same input: the
    source of each ``--input`` or ``--space`` (a file, '-' or inline JSON,
    also as ``--input=source``) is inlined as compact JSON."""
    import shlex  # only this error path uses it

    def compact(source):
        return json.dumps(_loaded[source], separators=(",", ":"))

    out = []
    for prev, arg in zip([None, *argv], argv):
        flag, eq, source = arg.partition("=")
        if prev in _INLINED and arg in _loaded:
            arg = compact(arg)
        elif eq and flag in _INLINED and source in _loaded:
            arg = f"{flag}={compact(source)}"
        out.append(arg)
    return shlex.join(["python", "-m", "rearrcalc", *out])


def _load_step(source: str) -> StepFunction:
    return StepFunction.from_json(_load_json(source))


def _load_space(source: str) -> SpaceSpec:
    return SpaceSpec.from_json(_load_json(source))


_MAX_N_COUNT = 10_000


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            lo, hi = int(a), int(b)
            if lo < 1 or hi < lo:
                raise ValueError
            _check_n_count(hi - lo + 1)
            return tuple(range(lo, hi + 1))
        _check_n_count(text.count(",") + 1)
        ns = tuple(int(p) for p in text.split(","))
        if any(n < 1 for n in ns):
            raise ValueError
        return ns
    except ParseError:
        raise
    except ValueError:
        raise ParseError(
            f"bad --n value {text!r}: want N, A..B, or a comma list of integers >= 1"
        ) from None


def _check_n_count(count: int) -> None:
    if count > _MAX_N_COUNT:
        raise ParseError(f"--n lists {count} indices; at most {_MAX_N_COUNT} are allowed")


def _parse_deltas(text: str) -> tuple[Fraction, ...]:
    out = tuple(parse_rat(p) for p in text.split(","))
    if any(d <= 0 for d in out):
        raise ParseError(f"deltas must be positive, got {text!r}")
    return out


def _resolve_seed(args) -> int:
    env = os.environ.get("REARRCALC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(
                f"REARRCALC_SEED must be an integer, got {env!r}"
            ) from None
    return args.seed


# -- output rendering ---------------------------------------------------------


def _flatten_payload(prefix: str, obj, out: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten_payload(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten_payload(f"{prefix}[{i}]", v, out)
    else:
        if isinstance(obj, bool):
            text = "true" if obj else "false"
        elif obj is None:
            text = "null"
        else:
            text = str(obj)
        out.append((prefix, text))


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    rows: list[tuple[str, str]] = []
    _flatten_payload("", payload, rows)
    if fmt == "csv":
        return "\n".join(f"{k},{v}" for k, v in rows)
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _emit(args, payload: dict, table_text: str | None = None) -> int:
    if args.format == "json" or table_text is None:
        print(_render(payload, args.format))
    elif args.format == "table":
        print(table_text)
    else:
        print(_render(payload, "csv"))
    return _EXIT_OK


# -- subcommand handlers ------------------------------------------------------


def _cmd_rearrange(args) -> int:
    x = _load_step(args.input)
    rr = rearrangement(x)
    payload = {
        "x": x.to_json(),
        "star": rr.star.to_json(),
        "level_integral": rr.level_integral.to_json(),
        "star_at_infinity": rat_str(rr.star_at_infinity),
    }
    return _emit(args, payload)


def _cmd_maximal(args) -> int:
    x = _load_step(args.input)
    ts = [parse_rat(p) for p in args.t.split(",")]
    payload = {
        "x": x.to_json(),
        "values": [
            {"t": rat_str(t), "maximal": rat_str(maximal_eval(x, t))} for t in ts
        ],
    }
    return _emit(args, payload)


def _cmd_hlp(args) -> int:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or "x" not in obj or "y" not in obj:
        raise ParseError('hlp input must be {"x": <stepfn>, "y": <stepfn>}')
    from . import majorize
    x = StepFunction.from_json(obj["x"])
    y = StepFunction.from_json(obj["y"])
    payload = {
        "x_prec_y": majorize.hlp_compare(x, y).to_json(),
        "y_prec_x": majorize.hlp_compare(y, x).to_json(),
    }
    return _emit(args, payload)


def _cmd_norm(args) -> int:
    x = _load_step(args.input)
    space = _load_space(args.space)
    payload = {
        "space": space.to_json(),
        "x": x.to_json(),
        "norm": ext_str(norm(space, x)),
    }
    return _emit(args, payload)


def _cmd_fundamental(args) -> int:
    space = _load_space(args.space)
    ts = [parse_rat(p) for p in args.t.split(",")]
    payload = {
        "space": space.to_json(),
        "values": [
            {"t": rat_str(t), "phi": rat_str(fundamental_eval(space, t))} for t in ts
        ],
    }
    if space.alpha is INF:
        payload["embeds_in_L1"] = embeds_in_l1(space)
    return _emit(args, payload)


def _majorant_args(args):
    obj = _load_json(args.input)
    if not isinstance(obj, dict):
        raise ParseError('input must be {"x": <stepfn>, "tau": "p/q", "eps": "p/q"}')
    x = StepFunction.from_json(obj.get("x", obj if "alpha" in obj else None))

    def scalar(key: str):
        flag = getattr(args, key)
        if flag:
            return parse_rat(flag)
        if key not in obj:
            raise ParseError(f"input JSON missing key {key!r} (or pass --{key})")
        return parse_rat(obj[key])

    return x, scalar("tau"), scalar("eps")


def _majorant_payload(x: StepFunction, tau: Fraction, eps: Fraction) -> dict:
    from . import majorize
    return {
        "x": x.to_json(),
        "tau": rat_str(tau),
        "eps": rat_str(eps),
        "trace": majorize.majorant_pair(x, tau, eps).to_json(),
    }


def _cmd_majorant_pair(args) -> int:
    return _emit(args, _majorant_payload(*_majorant_args(args)))


def _cmd_sample_member(args) -> int:
    from . import majorize
    x, tau, eps = _majorant_args(args)
    seed = _resolve_seed(args)
    y = majorize.sample_family_member(x, tau, eps, seed)
    payload = {
        "x": x.to_json(),
        "tau": rat_str(tau),
        "eps": rat_str(eps),
        "seed": seed,
        "member": y.to_json(),
        "in_family": majorize.family_contains(y, x, tau, eps),
    }
    return _emit(args, payload)


def _cmd_flatten_head(args) -> int:
    from . import experiments
    x = _load_step(args.input)
    entries = []
    for n in _parse_n_list(args.n):
        y = experiments.flatten_head(x, n)
        # flatten_head has verified y ≺ x, and raises otherwise
        entries.append({"n": n, "y": y.to_json(), "hlp_holds": True})
    return _emit(args, {"x": x.to_json(), "flattened": entries})


def _probe_common(args):
    from . import experiments
    x = _load_step(args.input)
    space = _load_space(args.space)
    t_x = parse_rat(args.t_x) if args.t_x else None
    family = experiments.builtin_family(args.family, x, t_x)
    n_list = _parse_n_list(args.n)
    deltas = _parse_deltas(args.delta) if args.delta else experiments.DEFAULT_DELTAS
    return x, family, space, n_list, deltas


def _cmd_probe_koc(args) -> int:
    from . import experiments
    x, family, space, n_list, deltas = _probe_common(args)
    tolerance = parse_rat(args.tolerance)
    report = experiments.probe_koc(x, family, space, n_list, tolerance, deltas)
    return _emit(args, report.to_json(), report.to_table())


def _cmd_probe_lkm(args) -> int:
    from . import experiments
    x, family, space, n_list, deltas = _probe_common(args)
    report = experiments.probe_lkm(x, family, space, n_list, deltas)
    return _emit(args, report.to_json(), report.to_table())


def _cmd_prop_test(args) -> int:
    from . import gen
    if args.cases < 1:
        raise ParseError(f"--cases must be a positive integer, got {args.cases}")
    seed = _resolve_seed(args)
    result = gen.SUITES[args.suite](args.cases, seed)
    payload = result.to_json()
    summary = (
        f"suite={result.suite} cases={result.cases} seed={result.seed} "
        f"ok={_yes(result.ok)} failures={len(result.failures)}"
    )
    if not result.ok:
        summary += "\n" + _render({"failures": payload["failures"]}, "table")
    _emit(args, payload, summary)
    return _EXIT_OK if result.ok else _EXIT_PROPERTY


# -- replications -------------------------------------------------------------


def _columns(widths: tuple[int, ...], rows) -> list[str]:
    """Right-aligned fixed-width columns, two spaces apart."""
    return ["  ".join(str(c).rjust(w) for c, w in zip(row, widths)) for row in rows]


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _replicate_remark45(n_list):
    from . import experiments
    report = experiments.probe_koc(box(1, 1), experiments.builtin_family("remark45"),
                                   SpaceSpec("L1", None, INF), n_list, tolerance=Fraction(1, 100))
    return report.to_json(), report.to_table()


def _replicate_example46(n_list):
    from . import experiments
    space = SpaceSpec("MarcinkiewiczStar", Hyperbolic(Fraction(1)), INF)
    x = constant(1, INF)
    report = experiments.probe_koc(x, experiments.builtin_family("example46_heads"), space,
                                   n_list, tolerance=Fraction(1, 10))
    payload = report.to_json()
    payload["base_norm"] = ext_str(norm(space, x))
    return payload, f"base point norm = {payload['base_norm']}\n" + report.to_table()


_LEMMA43_X = canonicalize([1, 3], [2, 1], 0, INF)
_LEMMA43_SPACE = SpaceSpec(
    "Marcinkiewicz",
    PiecewiseLinearConcave(INF, (Fraction(1), Fraction(3)), (Fraction(1), Fraction(2)),
                           Fraction(0)),
    INF,
)


def _replicate_lemma43(n_list):
    from . import experiments, majorize
    x, space, t_x = _LEMMA43_X, _LEMMA43_SPACE, Fraction(1)
    fam_y = experiments.builtin_family("lemma43_y", x, t_x)
    fam_x = experiments.builtin_family("lemma43_x", x)
    rows = []
    for n in n_list:
        y_n, x_n = fam_y(n), fam_x(n)
        rows.append({
            "n": n,
            "norm_y": ext_str(norm(space, y_n)),
            "norm_x": ext_str(norm(space, x_n)),
            "y_hlp": majorize.hlp_compare(y_n, x).holds,
            "x_hlp": majorize.hlp_compare(x_n, x).holds,
        })
    payload = {
        "x": x.to_json(),
        "space": space.to_json(),
        "t_x": rat_str(t_x),
        "embeds_in_L1": embeds_in_l1(space),
        "rows": rows,
    }
    table = _columns((4, 10, 10, 6, 6), [
        ("n", "norm_y", "norm_x", "y_hlp", "x_hlp"),
        *((r["n"], r["norm_y"], r["norm_x"], _yes(r["y_hlp"]), _yes(r["x_hlp"]))
          for r in rows),
    ])
    return payload, "\n".join([f"embeds_in_L1 = {_yes(payload['embeds_in_L1'])}", *table])


def _replicate_thm47(n_list):
    from . import experiments
    x, space = _LEMMA43_X, _LEMMA43_SPACE
    star = rearrangement(x).star
    rows = []
    for n in n_list:
        head = fundamental_eval(space, n) * maximal_eval(x, n)
        tail_norm = norm(space, star.window(n, None))
        bound = head + tail_norm
        norm_y = norm(space, experiments.flatten_head(x, n))
        rows.append({
            "n": n,
            "norm_y": ext_str(norm_y),
            "head_term": rat_str(head),
            "tail_norm": ext_str(tail_norm),
            "bound": ext_str(bound),
            "within_bound": norm_y <= bound,
        })
    payload = {"x": x.to_json(), "space": space.to_json(), "rows": rows}
    table = _columns((4, 10, 10, 10, 10, 0), [
        ("n", "norm_y", "head_term", "tail_norm", "bound", "ok"),
        *((r["n"], r["norm_y"], r["head_term"], r["tail_norm"], r["bound"],
           _yes(r["within_bound"])) for r in rows),
    ])
    return payload, "\n".join(table)


# target -> fn(n_list) -> (payload, table text or None for the generic table)
_REPLICATIONS = {
    "remark45": _replicate_remark45,
    "example46": _replicate_example46,
    "prop32-case1": lambda n_list: (
        _majorant_payload(box(1, 1), Fraction(1, 2), Fraction(1, 4)), None),
    "prop32-case2": lambda n_list: (
        _majorant_payload(canonicalize([1, 4], [2, 1], 0, INF), Fraction(2), Fraction(1, 5)),
        None),
    "lemma43": _replicate_lemma43,
    "thm47": _replicate_thm47,
}


def _cmd_replicate(args) -> int:
    return _emit(args, *_REPLICATIONS[args.target](_parse_n_list(args.n)))


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rearrcalc",
        description="Exact rearrangement and majorization calculus on step functions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, input_help="step function JSON (inline, file path, or '-')"):
        sp.add_argument("--input", required=True, help=input_help)
        sp.add_argument("--format", choices=("json", "table", "csv"), default="json")

    sp = sub.add_parser("rearrange", help="decreasing rearrangement and level integral")
    common(sp)
    sp.set_defaults(handler=_cmd_rearrange)

    sp = sub.add_parser("maximal", help="maximal function x**(t)")
    common(sp)
    sp.add_argument("--t", required=True, help="rational t, or a comma list")
    sp.set_defaults(handler=_cmd_maximal)

    sp = sub.add_parser("hlp", help="Hardy-Littlewood-Polya comparison")
    common(sp, 'JSON {"x": <stepfn>, "y": <stepfn>}')
    sp.set_defaults(handler=_cmd_hlp)

    sp = sub.add_parser("norm", help="norm of x in a space")
    common(sp)
    sp.add_argument("--space", required=True, help="space JSON (inline or file)")
    sp.set_defaults(handler=_cmd_norm)

    sp = sub.add_parser("fundamental", help="fundamental function of a space")
    sp.add_argument("--space", required=True, help="space JSON (inline or file)")
    sp.add_argument("--t", required=True, help="rational t, or a comma list")
    sp.add_argument("--format", choices=("json", "table", "csv"), default="json")
    sp.set_defaults(handler=_cmd_fundamental)

    for name, handler in (
        ("majorant-pair", _cmd_majorant_pair),
        ("sample-member", _cmd_sample_member),
    ):
        sp = sub.add_parser(name, help=f"{name.replace('-', ' ')} for M(x, tau, eps)")
        common(sp, 'JSON {"x": <stepfn>, "tau": "p/q", "eps": "p/q"}')
        sp.add_argument("--tau", help="overrides tau from the input JSON")
        sp.add_argument("--eps", help="overrides eps from the input JSON")
        if name == "sample-member":
            sp.add_argument("--seed", type=int, default=0)
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("flatten-head", help="average x* over [0, n)")
    common(sp)
    sp.add_argument("--n", required=True, help="N or A..B")
    sp.set_defaults(handler=_cmd_flatten_head)

    for name, handler in (("probe-koc", _cmd_probe_koc), ("probe-lkm", _cmd_probe_lkm)):
        sp = sub.add_parser(name, help=f"{name} run over an index list")
        common(sp)
        sp.add_argument("--family", required=True,
                        choices=("remark45", "example46_heads", "lemma43_y",
                                 "lemma43_x", "thm47_flatten"))
        sp.add_argument("--t-x", dest="t_x", help="t_x for lemma43_y")
        sp.add_argument("--space", required=True)
        sp.add_argument("--n", required=True, help="N or A..B")
        sp.add_argument("--delta", help="comma list of positive rationals")
        if name == "probe-koc":
            sp.add_argument("--tolerance", required=True, help="positive rational")
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("replicate", help="canned replications")
    sp.add_argument("target", choices=tuple(_REPLICATIONS))
    sp.add_argument("--n", default="1..10", help="N or A..B (where applicable)")
    sp.add_argument("--format", choices=("json", "table", "csv"), default="table")
    sp.set_defaults(handler=_cmd_replicate)

    sp = sub.add_parser("prop-test", help="randomized property suites")
    sp.add_argument("suite", choices=_SUITE_NAMES)
    sp.add_argument("--cases", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("json", "table", "csv"), default="json")
    sp.set_defaults(handler=_cmd_prop_test)

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else _EXIT_PARSE
    try:
        return args.handler(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_PARSE
    except RearrCalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_PRECONDITION
    except AssertionError as e:  # a construction's own invariant check
        print(f"error: invariant broken: {e}; rerun: {_rerun_line(argv)}", file=sys.stderr)
        return _EXIT_PROPERTY
    finally:
        _loaded.clear()


if __name__ == "__main__":
    sys.exit(main())
