"""rearrcalc benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): kernels_large, prop_suites, cli_commands.  Each
runs as a closed loop with one caller, pinned to one CPU: the next operation
starts when the previous one has returned and its output has been checked.

``--trace 0`` measures for S seconds and reports the end-to-end metrics.
Every time is scaled to a reference CPU speed (see speed.py); the raw wall
times are printed to stderr next to them.
``--trace 1`` replays a fixed list of the workload's operations, first
untraced and then traced, reports the per-layer metrics (so the counts repeat
exactly for a seed), and runs the scaling sweep.  Span self times there are
raw wall times.  Spans are written to ``.perfbench_out/`` at the root of the
checkout.

The last line of stdout is the result; a readable summary goes to stderr.
The program under test is imported from ``src/`` next to this directory and
never changed; the run fails with status 2 when ``src/rearrcalc`` is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import scaling  # noqa: E402
import speed  # noqa: E402
from spans import REPORTED, Tracer  # noqa: E402
from workloads import WORKLOADS, load_program, subprocess_env  # noqa: E402

SETUP_REPEATS = 5
INTERPRETER_STARTS = 5


def run_op(op, clock, failures: list) -> bool:
    """Time one operation on ``clock``; the check runs after the clock stops."""
    try:
        out = clock.run(op.call)
    except Exception:  # a failed operation is counted, and the loop goes on
        failures.append(f"{op.kind}: {traceback.format_exc()}")
        return False
    return check(op, out, failures)


def check(op, out, failures: list) -> bool:
    try:
        ok = bool(op.check(out))
    except Exception:
        failures.append(f"{op.kind} check: {traceback.format_exc()}")
        return False
    if not ok:
        failures.append(f"{op.kind}: output disagrees with its check")
    return ok


def measure_setup(wl, keep: set, failures: list):
    """Median over SETUP_REPEATS of: fresh import, input generation, one warm-up op."""
    clock, failed, state = wl.clock(), 0, {}

    def setup():
        state["mods"] = load_program(keep) if wl.IN_PROCESS else None
        wl.setup(state["mods"])
        state["op"] = wl.op(-1)
        return state["op"].call()

    for _ in range(SETUP_REPEATS):
        try:
            out = clock.run(setup)
        except Exception:
            failures.append(f"warm-up: {traceback.format_exc()}")
            failed += 1
            continue
        failed += not check(state["op"], out, failures)
    return clock, state.get("mods"), failed


def clear_cache(mods) -> None:
    if mods is not None:
        mods["rearrange"]._rearrange.cache_clear()


def timed(wl, mods, seconds: float, failures: list):
    clock, failed, i = wl.clock(), 0, 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        op = wl.op(i)
        if wl.CLEAR_CACHE_BETWEEN_OPS:
            clear_cache(mods)
        failed += not run_op(op, clock, failures)
        i += 1
    return clock, failed


def end_to_end(clock, setup_clock, in_process: bool) -> dict:
    """The metrics, and the same timings in raw wall time for the summary."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux

    def timings(lat, setup):
        return {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        }

    metrics = timings(clock.scaled, setup_clock.scaled)
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics, timings(clock.raw, setup_clock.raw)


def interpreter_start(env) -> float:
    """Median raw wall time of ``python -c pass`` with the CLI's environment: a reference."""
    samples = []
    for _ in range(INTERPRETER_STARTS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def traced(wl, mods, seed: int, failures: list):
    """Untraced then traced replay of the first TRACE_OPS operations, then the sweep."""
    n = wl.TRACE_OPS
    untraced, failed = wl.clock(), 0
    clear_cache(mods)
    for op in [wl.op(i) for i in range(n)]:
        if wl.CLEAR_CACHE_BETWEEN_OPS:
            clear_cache(mods)
        failed += not run_op(op, untraced, failures)
    if wl.IN_PROCESS:
        layer, spans_out, traced_clock, bad = traced_in_process(wl, mods, n, failures)
    else:
        layer, spans_out, traced_clock, bad = traced_cli(wl, n, failures)
    failed += bad
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{wl.name}-{seed}.json").write_text(json.dumps(spans_out))

    metrics = {}
    for name in REPORTED:
        entry = layer["spans"].get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    metrics["stepfn.constructed"] = (layer["counts"].get("stepfn.constructed", 0), "count")
    hits, misses = layer["cache"]
    lookups = hits + misses
    metrics["rearrange.cache_lookups"] = (lookups, "count")
    metrics["rearrange.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    spans = layer["spans"]
    metrics["gen.generate_s"] = (spans.get("gen.generate", {"self_s": 0.0})["self_s"], "s")
    metrics["gen.oracle_s"] = (spans.get("gen.oracle", {"self_s": 0.0})["self_s"], "s")
    metrics["gen.shrink_case.calls"] = (spans.get("gen.shrink_case", {"calls": 0})["calls"],
                                        "count")
    metrics["cli.interpreter_start_s"] = (interpreter_start(subprocess_env(ROOT)), "s")
    for phase in ("import", "parse", "compute", "render"):
        values = layer["cli"].get(phase)
        metrics[f"cli.{phase}_s"] = (statistics.median(values) if values else 0.0, "s")
    metrics["trace.untraced_ops_per_s"] = (n / sum(untraced.scaled), "1/s")
    metrics["trace.traced_ops_per_s"] = (n / sum(traced_clock.scaled), "1/s")
    sweep_mods = mods if mods is not None else load_program(set(sys.modules))
    for kernel, (exponent, seconds) in scaling.sweep(sweep_mods, seed).items():
        metrics[f"scaling.{kernel}.exponent"] = (exponent, "slope")
        metrics[f"scaling.{kernel}.s_at_max"] = (seconds, "s")
    return metrics, 2 * n, failed


def traced_in_process(wl, mods, n: int, failures: list):
    ops = [wl.op(i) for i in range(n)]  # built before the tracer goes in
    clear_cache(mods)
    cache = mods["rearrange"]._rearrange
    tracer, clock = Tracer(), wl.clock()
    outputs, hits, misses = [], 0, 0

    def traced_call(op):
        root = tracer.open(f"op.{op.kind}")
        try:
            return op.call()
        finally:
            tracer.close(root)

    tracer.install(mods)
    for op in ops:
        if wl.CLEAR_CACHE_BETWEEN_OPS:
            clear_cache(mods)
        before = cache.cache_info()  # per operation: cache_clear resets the totals
        try:
            outputs.append(clock.run(lambda: traced_call(op)))
        except Exception:
            outputs.append(None)
            failures.append(f"traced {op.kind}: {traceback.format_exc()}")
        after = cache.cache_info()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
    tracer.uninstall()
    failed = sum(out is None or not check(op, out, failures) for op, out in zip(ops, outputs))
    layer = {"spans": tracer.aggregate(), "counts": tracer.counts, "cache": (hits, misses),
             "cli": {}}
    spans_out = {"workload": wl.name, "fields": ["name", "parent", "start_s", "end_s"],
                 "spans": tracer.rows()}
    return layer, spans_out, clock, failed


def traced_cli(wl, n: int, failures: list):
    layer = {"spans": {}, "counts": {}, "cache": [0, 0], "cli": {}}
    commands, clock, failed = [], wl.clock(), 0
    for i in range(n):
        report = wl.work / f"report-{i}.json"
        op = wl.op(i, prefix=[sys.executable, str(HERE / "cli_child.py"), str(report), "--"])
        failed += not run_op(op, clock, failures)
        if not report.is_file():
            continue
        rep = json.loads(report.read_text())
        for name, entry in rep["spans"].items():
            acc = layer["spans"].setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
        for name, count in rep["counts"].items():
            layer["counts"][name] = layer["counts"].get(name, 0) + count
        layer["cache"] = [a + b for a, b in zip(layer["cache"], rep["cache"])]
        for phase in ("import", "parse", "compute", "render"):
            layer["cli"].setdefault(phase, []).append(rep[f"{phase}_s"])
        commands.append({"argv": wl.argv(i), "spans": rep["rows"]})
    spans_out = {"workload": wl.name, "fields": ["name", "parent", "start_s", "end_s"],
                 "commands": commands}
    return layer, spans_out, clock, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = ROOT / "src"
    if not (src / "rearrcalc" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'rearrcalc'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    speed.pin()
    keep = set(sys.modules)
    wl = WORKLOADS[args.workload](ROOT, args.seed)
    failures: list = []
    raw = {}
    try:
        setup_clock, mods, failed = measure_setup(wl, keep, failures)
        if args.trace:
            metrics, ops, bad = traced(wl, mods, args.seed, failures)
        else:
            clock, bad = timed(wl, mods, args.seconds, failures)
            metrics, raw = end_to_end(clock, setup_clock, wl.IN_PROCESS)
            ops = len(clock.scaled)
    finally:
        wl.close()
    attempted = SETUP_REPEATS + ops
    failed += bad
    for message in failures[:3]:
        print(message, file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{ops} ops (the latency sample count) + {SETUP_REPEATS} warm-ups, "
          f"failed {failed}, fail_ratio {failed / attempted:.4f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        wall = f"   (raw wall time {raw[name][0]:.6g})" if name in raw else ""
        print(f"  {name:40s} {value:14.6g} {unit}{wall}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
