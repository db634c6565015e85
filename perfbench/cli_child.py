"""Run one rearrcalc CLI command under the tracer and report where its time went.

Usage: python cli_child.py REPORT.json -- <rearrcalc arguments>

The command's stdout is left untouched.  REPORT.json receives the import
time of ``rearrcalc.cli``, wall time per phase (parse: argparse and input
loading; render: output formatting and printing; compute: the rest of
``main``), the exit status, the span aggregate and the spans themselves.
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402

PARSE = ("_load_json", "_parse_n_list", "_parse_deltas", "parse_rat")
RENDER = ("_emit",)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: cli_child.py REPORT.json -- ARGS...", file=sys.stderr)
        return 2
    report_path, argv = sys.argv[1], sys.argv[3:]
    t0 = perf_counter()
    import rearrcalc.cli as cli
    from rearrcalc import experiments, gen, majorize, rearrange, spaces, stepfn
    import_s = perf_counter() - t0

    phases = {"parse": 0.0, "render": 0.0}
    depth = [0]

    def phase(name, fn):
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                phases[name] += perf_counter() - t
                depth[0] -= 1
        return wrapper

    for name in PARSE:
        setattr(cli, name, phase("parse", getattr(cli, name)))
    for name in RENDER:
        setattr(cli, name, phase("render", getattr(cli, name)))
    for cls in (stepfn.StepFunction, stepfn.PiecewiseLinearConcave, spaces.SpaceSpec):
        cls.from_json = staticmethod(phase("parse", cls.__dict__["from_json"].__func__))
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = phase("parse", parser.parse_args)
        return parser

    cli.build_parser = phase("parse", traced_build_parser)

    tracer = Tracer()
    tracer.install({"rearrcalc": sys.modules["rearrcalc"], "cli": cli, "stepfn": stepfn,
                    "rearrange": rearrange, "majorize": majorize, "spaces": spaces,
                    "experiments": experiments, "gen": gen})
    t = perf_counter()
    status = cli.main(argv)
    total = perf_counter() - t
    sys.stdout.flush()
    tracer.uninstall()
    info = rearrange._rearrange.cache_info()

    import json  # only now: rearrcalc.cli's own import of json is part of import_s

    report = {
        "exit": status,
        "import_s": import_s,
        "parse_s": phases["parse"],
        "render_s": phases["render"],
        "compute_s": total - phases["parse"] - phases["render"],
        "spans": tracer.aggregate(),
        "counts": dict(tracer.counts),
        "cache": [info.hits, info.misses],
        "rows": tracer.rows(),
    }
    Path(report_path).write_text(json.dumps(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
