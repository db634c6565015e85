"""CLI behavior: payloads, exit codes, determinism, round trips."""

import contextlib
import io
import json
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rearrcalc import StepFunction, cli, experiments, gen, majorize
from rearrcalc.gen import SuiteResult

BOX = '{"alpha":"inf","breakpoints":["1/1"],"values":["1/1"],"tail":"0/1"}'
L1 = '{"kind":"L1","alpha":"inf"}'


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rearrange_zero_function(capsys):
    code, out, _ = run_cli(
        capsys, "rearrange",
        "--input", '{"alpha":"inf","breakpoints":[],"values":[],"tail":"0"}',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["star"]["values"] == []
    assert payload["star"]["tail"] == "0/1"
    assert payload["level_integral"]["node_values"] == []
    assert payload["level_integral"]["final_slope"] == "0/1"


def test_rearrange_round_trips_emitted_functions(capsys):
    code, out, _ = run_cli(
        capsys, "rearrange",
        "--input", '{"alpha":"inf","breakpoints":["1","2"],"values":["1","2"],"tail":"0"}',
    )
    assert code == 0
    payload = json.loads(out)
    star = StepFunction.from_json(payload["star"])
    assert star.to_json() == payload["star"]
    assert [str(v) for v in star.values] == ["2", "1"]


def test_maximal_and_norm_commands(capsys):
    code, out, _ = run_cli(capsys, "maximal", "--input", BOX, "--t", "1/2,2")
    assert code == 0
    vals = json.loads(out)["values"]
    assert vals == [
        {"t": "1/2", "maximal": "1/1"},
        {"t": "2/1", "maximal": "1/2"},
    ]

    code, out, _ = run_cli(capsys, "norm", "--input", BOX, "--space", L1)
    assert code == 0
    assert json.loads(out)["norm"] == "1/1"


def test_hlp_command_reports_both_directions(capsys):
    pair = json.dumps({
        "x": json.loads(BOX),
        "y": {"alpha": "inf", "breakpoints": ["1/1"], "values": ["2/1"], "tail": "0/1"},
    })
    code, out, _ = run_cli(capsys, "hlp", "--input", pair)
    assert code == 0
    payload = json.loads(out)
    assert payload["x_prec_y"]["holds"] is True
    assert payload["y_prec_x"]["holds"] is False
    assert payload["y_prec_x"]["witness"] == "1/1"


def test_fundamental_command(capsys):
    code, out, _ = run_cli(
        capsys, "fundamental", "--space", '{"kind":"L1plusLinf","alpha":"inf"}',
        "--t", "1/2,3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [
        {"t": "1/2", "phi": "1/2"},
        {"t": "3/1", "phi": "1/1"},
    ]
    assert payload["embeds_in_L1"] is False


def test_fundamental_command_rejects_a_phi_cut_outside_the_domain(capsys):
    # on [0, 1): a node at 2 collinear with the rest (it would merge away),
    # one that is not, and one after a negative jump at 0 (the cut is
    # reported first) are the same parse error
    for cuts, nodes, jump0 in ((["1/2", "2"], ["1/2", "2"], "0"),
                               (["1/2", "2"], ["1/2", "3/2"], "0"),
                               (["2"], ["1"], "-1")):
        phi = {"kind": "piecewise_linear_concave", "alpha": "1", "breakpoints": cuts,
               "node_values": nodes, "final_slope": "1", "jump0": jump0}
        space = json.dumps({"kind": "Marcinkiewicz", "alpha": "1", "phi": phi})
        code, out, err = run_cli(capsys, "fundamental", "--space", space, "--t", "1/2")
        assert (code, out) == (2, "")
        assert err == "error: invalid piecewise-linear function: cut 2 outside [0,1)\n"


@pytest.mark.parametrize("phi_alpha, space_alpha, final, message", [
    ("inf", "1", "1", "fundamental function lives on [0,inf), space on [0,1)"),
    ("inf", "inf", "0", "fundamental function must be positive for t > 0"),  # phi = 0
])
def test_a_phi_that_is_not_a_fundamental_function_of_the_space(capsys, phi_alpha, space_alpha,
                                                                final, message):
    phi = {"kind": "piecewise_linear_concave", "alpha": phi_alpha, "breakpoints": [],
           "node_values": [], "final_slope": final}
    space = json.dumps({"kind": "Marcinkiewicz", "alpha": space_alpha, "phi": phi})
    code, out, err = run_cli(capsys, "fundamental", "--space", space, "--t", "1/2")
    assert (code, out, err) == (2, "", f"error: invalid space: {message}\n")


def test_majorant_pair_command_with_flag_overrides(capsys):
    code, out, _ = run_cli(
        capsys, "majorant-pair",
        "--input", json.dumps({"x": json.loads(BOX), "tau": "1/4", "eps": "1/8"}),
        "--tau", "1/2", "--eps", "1/4",
    )
    assert code == 0
    trace = json.loads(out)["trace"]
    assert trace["case_tag"] == "affine_gap"
    assert trace["gamma"] == "1/4"
    assert trace["beta"] == "2/1"


def test_sample_member_is_seed_deterministic(capsys):
    argv = ["sample-member",
            "--input", json.dumps({"x": json.loads(BOX), "tau": "1/2", "eps": "1/4"}),
            "--seed", "3"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["in_family"] is True


def test_seed_env_override(capsys, monkeypatch):
    argv = ["sample-member",
            "--input", json.dumps({"x": json.loads(BOX), "tau": "1/2", "eps": "1/4"}),
            "--seed", "3"]
    monkeypatch.setenv("REARRCALC_SEED", "0")
    _, out_env, _ = run_cli(capsys, *argv)
    # env seed 0 must reproduce the --seed 0 run, not the --seed 3 one
    monkeypatch.delenv("REARRCALC_SEED")
    _, out_zero, _ = run_cli(capsys, *argv[:-1] + ["0"])
    assert json.loads(out_env)["member"] == json.loads(out_zero)["member"]
    assert json.loads(out_env)["seed"] == 0


def test_flatten_head_command(capsys):
    code, out, _ = run_cli(capsys, "flatten-head", "--input", BOX, "--n", "2..4")
    assert code == 0
    rows = json.loads(out)["flattened"]
    assert [r["n"] for r in rows] == [2, 3, 4]
    assert rows[0]["y"]["values"] == ["1/2"]
    assert all(r["hlp_holds"] for r in rows)


def test_probe_commands(capsys):
    code, out, _ = run_cli(
        capsys, "probe-koc", "--input", BOX, "--family", "remark45",
        "--space", L1, "--n", "1..5", "--tolerance", "1/100",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "consistent_with_failure"

    code, out, _ = run_cli(
        capsys, "probe-lkm", "--input", BOX, "--family", "remark45",
        "--space", L1, "--n", "1..5", "--delta", "1/2,1/10",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["records"][-1]["star_distance"]["1/2"] == "1/1"


def test_replicate_remark45_table(capsys):
    code, out, _ = run_cli(capsys, "replicate", "remark45", "--n", "1..10")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and ln[0].isdigit() or ln[:2].strip().isdigit()]
    rows = [ln.split() for ln in out.splitlines()
            if ln.strip() and ln.strip()[0].isdigit()]
    assert len(rows) == 10
    assert all(r[1] == "1/1" for r in rows)
    assert all(r[2] == "yes" for r in rows)
    assert lines  # table produced


def test_replicate_example46_norm_column(capsys):
    code, out, _ = run_cli(capsys, "replicate", "example46", "--n", "1..10",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["base_norm"] == "1/1"
    norms = [r["norm"] for r in payload["records"]]
    assert norms == [f"1/{n + 1}" for n in range(1, 11)]
    assert payload["verdict"] == "consistent_with_KOC"


def test_replicate_prop32_cases(capsys):
    code, out, _ = run_cli(capsys, "replicate", "prop32-case1", "--format", "json")
    assert code == 0
    trace = json.loads(out)["trace"]
    assert trace["case_tag"] == "affine_gap"
    assert trace["xi"] == "3/7"
    assert trace["tau1"] == "1/8"
    assert trace["eps1"] == "1/14"

    code, out, _ = run_cli(capsys, "replicate", "prop32-case2", "--format", "json")
    assert code == 0
    trace = json.loads(out)["trace"]
    assert trace["case_tag"] == "affine_chord"
    assert trace["gamma0"] == "1/1"
    assert trace["gamma1"] == "4/5"
    assert trace["beta1"] == "21/5"


def test_replicate_lemma43_and_thm47(capsys):
    code, out, _ = run_cli(capsys, "replicate", "lemma43", "--n", "1..5",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["embeds_in_L1"] is False
    assert [r["norm_y"] for r in payload["rows"]] == ["1/1", "3/4", "2/3", "1/2", "2/5"]

    code, out, _ = run_cli(capsys, "replicate", "thm47", "--n", "1..5",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(r["within_bound"] for r in payload["rows"])
    assert payload["rows"][0]["bound"] == "7/2"


def test_prop_test_success_and_failure_exit_codes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "prop-test", "rearrange",
                           "--cases", "20", "--seed", "1")
    assert code == 0
    assert json.loads(out)["failures"] == []

    broken = SuiteResult("rearrange", 1, 1)
    broken.failures.append({"case": 0, "problems": ["synthetic"], "x": {}})

    monkeypatch.setitem(gen.SUITES, "rearrange", lambda cases, seed: broken)
    code, out, _ = run_cli(capsys, "prop-test", "rearrange",
                           "--cases", "1", "--seed", "1")
    assert code == 4
    assert json.loads(out)["failures"][0]["problems"] == ["synthetic"]
    expected = {
        "table": "suite=rearrange cases=1 seed=1 ok=no failures=1\n"
                 "failures[0].case         0\n"
                 "failures[0].problems[0]  synthetic\n",
        "csv": "suite,rearrange\ncases,1\nseed,1\nok,false\n"
               "failures[0].case,0\nfailures[0].problems[0],synthetic\n",
    }
    for fmt, text in expected.items():
        code, out, _ = run_cli(capsys, "prop-test", "rearrange",
                               "--cases", "1", "--seed", "1", "--format", fmt)
        assert (code, out) == (4, text)



def test_prop32_reports_broken_construction_invariants(capsys, monkeypatch):
    def broken(message):
        def raise_(*args):
            raise AssertionError(message)
        return raise_

    majorize = gen.majorize
    for name, message in (("majorant_pair", "gamma < tau < beta violated"),
                          ("sample_family_member", "fitted shape left M(x, tau, eps)")):
        with monkeypatch.context() as m:
            m.setattr(majorize, name, broken(message))
            code, out, err = run_cli(capsys, "prop-test", "prop32",
                                     "--cases", "2", "--seed", "1")
        assert code == 4 and "Traceback" not in err
        failure = json.loads(out)["failures"][0]
        assert failure["problems"] == [f"construction invariant broken: {message}"]
        StepFunction.from_json(failure["x"])  # the shrunk input, as JSON


@pytest.mark.parametrize("command, name", [
    ("majorant-pair", "majorant_pair"),
    ("sample-member", "sample_family_member"),
    ("flatten-head", "flatten_head"),
])
def test_broken_invariants_report_one_line_and_exit_4(capsys, monkeypatch, command, name):
    def broken(*args):
        raise AssertionError("synthetic invariant")

    # the handlers read their function off experiments or majorize when called
    monkeypatch.setattr(experiments if name == "flatten_head" else majorize, name, broken)
    if command == "flatten-head":
        argv = ["--input", BOX, "--n", "1..3"]
    else:
        argv = ["--input", json.dumps({"x": json.loads(BOX), "tau": "1/2", "eps": "1/4"})]
    code, out, err = run_cli(capsys, command, *argv)
    # the input comes back inlined as compact JSON, quoted for a shell
    compact = json.dumps(json.loads(argv[1]), separators=(",", ":"))
    rerun = shlex.join(["python", "-m", "rearrcalc", command, "--input", compact, *argv[2:]])
    assert (code, out, err) == (
        4, "", f"error: invariant broken: synthetic invariant; rerun: {rerun}\n")


def test_the_rerun_line_inlines_files_stdin_and_flag_forms(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise AssertionError("synthetic invariant")

    monkeypatch.setattr(cli, "norm", broken)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(json.loads(BOX), indent=2))
    monkeypatch.setattr(sys, "stdin", io.StringIO(L1))
    code, out, err = run_cli(capsys, "norm", f"--input={path}", "--space", "-")
    assert (code, out) == (4, "")
    line, rerun = err.rstrip("\n").split("; rerun: ")
    assert line == "error: invariant broken: synthetic invariant" and "\n" not in rerun
    argv = shlex.split(rerun)
    assert argv == ["python", "-m", "rearrcalc", "norm", f"--input={BOX}", "--space", L1]
    # the line reruns the same command on the same input, with no file or stdin
    assert run_cli(capsys, *argv[3:]) == (code, out, err)


def test_the_rerun_line_inlines_only_input_and_space(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise AssertionError("synthetic invariant")

    monkeypatch.setattr(experiments, "flatten_head", broken)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "1..3").write_text(BOX)  # a file spelled like the --n value
    code, out, err = run_cli(capsys, "flatten-head", "--input", "1..3", "--n", "1..3")
    assert (code, out) == (4, "")
    compact = json.dumps(json.loads(BOX), separators=(",", ":"))
    assert shlex.split(err.rstrip("\n").split("; rerun: ")[1]) == [
        "python", "-m", "rearrcalc", "flatten-head", "--input", compact, "--n", "1..3"]
    assert cli._loaded == {}  # main keeps no input once it returns


_NOT_CONCAVE = ("error: invalid piecewise-linear function: slopes not "
                "nonnegative and strictly decreasing: not a nondecreasing concave "
                "function in canonical form\n")


@pytest.mark.parametrize("nodes, final", [(["1", "3"], "0"),  # slopes 1 then 2
                                          (["1", "2"], "-1")])  # a negative final slope
def test_a_non_concave_phi_is_one_parse_error(capsys, nodes, final):
    phi = {"kind": "piecewise_linear_concave", "alpha": "inf", "breakpoints": ["1", "2"],
           "node_values": nodes, "final_slope": final}
    space = json.dumps({"kind": "Marcinkiewicz", "alpha": "inf", "phi": phi})
    for argv in (["norm", "--input", BOX, "--space", space],
                 ["fundamental", "--space", space, "--t", "1"]):
        assert run_cli(capsys, *argv) == (2, "", _NOT_CONCAVE)


def test_parse_and_precondition_exit_codes(capsys):
    code, _, err = run_cli(capsys, "rearrange", "--input", "{bad")
    assert code == 2 and err

    code, _, err = run_cli(capsys, "rearrange", "--input", '{"alpha":"inf"}')
    assert code == 2 and err

    code, _, err = run_cli(
        capsys, "majorant-pair",
        "--input", json.dumps({"x": json.loads(BOX), "tau": "1/2", "eps": "2/1"}),
    )
    assert code == 3 and "no nonzero member" in err

    code, _, err = run_cli(capsys, "flatten-head", "--input",
                           '{"alpha":"inf","breakpoints":["1"],"values":["-1"],"tail":"0"}',
                           "--n", "2")
    assert code == 3

    code, _, err = run_cli(capsys, "maximal", "--input", BOX, "--t", "zebra")
    assert code == 2

    # more digits than Python converts from a string: one line, exit 2
    long_cut = '{"alpha":"inf","breakpoints":["%s"],"values":["1"],"tail":"0"}' % ("1" * 5000)
    code, _, err = run_cli(capsys, "rearrange", "--input", long_cut)
    assert code == 2 and err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("n", ["1..10001", "1..1000000000", ",".join(["1"] * 10001)])
def test_index_lists_are_bounded(capsys, n):
    # rejected before any index is built: one line, exit 2, nothing on stdout
    code, out, err = run_cli(capsys, "replicate", "remark45", "--n", n)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "at most 10000" in err
    code, out, _ = run_cli(capsys, "flatten-head", "--input", BOX, "--n", n)
    assert (code, out) == (2, "")


def test_inline_json_list_is_parsed_not_read_as_a_path(capsys):
    code, out, err = run_cli(capsys, "rearrange", "--input", "[1]")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "must be an object" in err
    code, _, err = run_cli(capsys, "rearrange", "--input", "  [1")
    assert code == 2 and "not valid JSON" in err


def test_rearrange_prints_numbers_past_the_int_string_limit(capsys):
    # a legal input whose level integral has a 6,000-digit denominator
    nines, sevens = "9" * 3000, "7" * 3000
    source = json.dumps({"alpha": "inf", "breakpoints": [f"1/{sevens}"],
                         "values": [f"1/{nines}"], "tail": "0/1"})
    for fmt in ("json", "table", "csv"):
        code, out, err = run_cli(capsys, "rearrange", "--input", source, "--format", fmt)
        assert code == 0 and err == "" and f"1/{nines}" in out
    payload = json.loads(run_cli(capsys, "rearrange", "--input", source)[1])
    num, den = payload["level_integral"]["node_values"][0].split("/")
    assert num == "1" and len(den) == 6000
    # the digits read back, in chunks under the limit, to (10^3000 - 1)^2 * 7/9
    value = 0
    for i in range(0, len(den), 1000):
        value = value * 10**1000 + int(den[i:i + 1000])
    assert value == (10**3000 - 1) ** 2 * 7 // 9


def test_prop_test_rejects_nonpositive_case_counts(capsys):
    for cases in ("-5", "0"):
        code, out, err = run_cli(capsys, "prop-test", "hlp", "--cases", cases)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--cases must be a positive integer" in err


def test_majorant_input_reports_the_missing_key(capsys):
    scalars = {"tau": "1/2", "eps": "1/4"}
    for command in ("majorant-pair", "sample-member"):
        for missing, value in scalars.items():
            obj = {"x": json.loads(BOX), **scalars}
            del obj[missing]
            code, out, err = run_cli(capsys, command, "--input", json.dumps(obj))
            assert code == 2 and out == ""
            assert f"missing key '{missing}'" in err and "rational literal" not in err
            # the flag still stands in for the key
            code, _, _ = run_cli(capsys, command, "--input", json.dumps(obj),
                                 f"--{missing}", value)
            assert code == 0


def test_input_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "x.json"
    path.write_text(BOX)
    code, out1, _ = run_cli(capsys, "rearrange", "--input", str(path))
    assert code == 0

    monkeypatch.setattr(sys, "stdin", io.StringIO(BOX))
    code, out2, _ = run_cli(capsys, "rearrange", "--input", "-")
    assert code == 0
    assert out1 == out2

    code, _, err = run_cli(capsys, "rearrange", "--input", str(tmp_path / "nope.json"))
    assert code == 2 and err


def test_formats_table_and_csv(capsys):
    code, out, _ = run_cli(capsys, "norm", "--input", BOX, "--space", L1,
                           "--format", "table")
    assert code == 0
    assert "norm" in out and "1/1" in out

    code, out, _ = run_cli(capsys, "norm", "--input", BOX, "--space", L1,
                           "--format", "csv")
    assert code == 0
    assert "norm,1/1" in out.splitlines()


def test_cli_import_loads_only_what_every_command_needs():
    probe = ("import sys; before = set(sys.modules); import rearrcalc.cli; "
             "print(*set(sys.modules) - before)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "rearrcalc.cli" in loaded
    assert not loaded & {"rearrcalc.gen", "rearrcalc.experiments", "dataclasses"}


@pytest.mark.parametrize("argv", [
    ["norm", "--input", BOX, "--space", L1],
    ["rearrange", "--input", BOX],
    ["maximal", "--input", BOX, "--t", "1/2,2"],
    ["fundamental", "--space", L1, "--t", "1,2"],
])
def test_norm_rearrange_maximal_and_fundamental_leave_majorize_unloaded(argv):
    probe = ("import sys; from rearrcalc import cli; code = cli.main(sys.argv[1:]); "
             "print(code, *sorted(m for m in sys.modules if m.startswith('rearrcalc.')))")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split("\n")[-2].split()
    assert code == "0" and "rearrcalc.cli" in loaded
    assert not {"rearrcalc.majorize", "rearrcalc.experiments", "rearrcalc.gen"} & {*loaded}


def test_package_names_resolve_though_experiments_loads_lazily():
    import rearrcalc

    namespace = {}
    exec("from rearrcalc import *", namespace)
    for name in rearrcalc.__all__:
        assert getattr(rearrcalc, name) is namespace[name]
        assert name in dir(rearrcalc)
    assert rearrcalc.probe_koc is experiments.probe_koc
    with pytest.raises(AttributeError):
        rearrcalc.no_such_name
    assert cli._SUITE_NAMES == tuple(gen.SUITES)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rearrcalc", "rearrange", "--input", BOX],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["star"]["values"] == ["1/1"]


# -- malformed input fuzz -----------------------------------------------------

_LITERALS = ("1/2", "3", "-2/3", "0", "5/4", "-1")
#: stands for a list nested deeper than the interpreter's recursion limit
_DEEP = "<deep>"
#: what lands where a rational string or a list belongs
_MALFORMED = st.one_of(
    st.sampled_from(["1/0", "-3/0", "0/0", "1.5", "", "x", "1/-2", "inf", "1e3", "½"]),
    st.just(_DEEP), st.integers(-2, 2), st.floats(), st.none(), st.booleans(),
    st.lists(st.sampled_from(_LITERALS), max_size=2), st.just({"n": "1"}),
)


def _dumps(obj) -> str:
    return json.dumps(obj).replace(json.dumps(_DEEP), "[" * 5000 + "]" * 5000)


@st.composite
def _corrupted(draw, obj: dict, slots: tuple, list_keys: tuple = ()) -> dict:
    """obj with at most one defect: a key missing or extra, a malformed value
    in a rational slot or list entry, or a zero denominator."""
    mode = draw(st.sampled_from(["none", "missing", "extra", "slot", "entry", "zero"]))
    lists = [k for k in list_keys if obj.get(k)]
    if mode == "missing":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif mode == "extra":
        obj[draw(st.sampled_from(["extra", "Alpha", "x", "phi", "kind"]))] = draw(_MALFORMED)
    elif mode == "slot":
        obj[draw(st.sampled_from(slots))] = draw(_MALFORMED)
    elif mode in ("entry", "zero") and lists:
        items = obj[draw(st.sampled_from(lists))]
        bad = draw(_MALFORMED) if mode == "entry" else draw(st.sampled_from(["1/0", "-7/0"]))
        items[draw(st.integers(0, len(items) - 1))] = bad
    return obj


@st.composite
def _step_json(draw, star: bool = False) -> dict:
    """A step function's JSON whose cuts may be unsorted, repeated or outside
    [0, alpha), with at most one further defect; ``star`` draws x = x* on
    [0, inf) before the defects."""
    alpha = "inf" if star else draw(st.sampled_from(["1", "inf"]))
    inside = ["1/4", "1/2", "3/4"] if alpha == "1" else ["1/2", "1", "3", "7/2"]
    outside = ["0", "-1/3", "1", "3/2"] if alpha == "1" else ["0", "-2"]
    cuts = sorted(set(draw(st.lists(st.sampled_from(inside), max_size=3))), key=Fraction)
    fault = draw(st.sampled_from(["none", "unsorted", "duplicate", "outside"]))
    if fault == "unsorted" and len(cuts) > 1:
        cuts.reverse()
    elif fault == "duplicate" and cuts:
        cuts.insert(0, cuts[0])
    elif fault == "outside":
        cuts.insert(draw(st.integers(0, len(cuts))), draw(st.sampled_from(outside)))
    literal = st.sampled_from(_LITERALS)
    if star:
        values = ["7", "3", "5/4", "1/2", "1/3"][:len(cuts)]
        obj = {"alpha": alpha, "breakpoints": cuts, "values": values, "tail": "0"}
    else:
        obj = {"alpha": alpha, "breakpoints": cuts,
               "values": draw(st.lists(literal, min_size=len(cuts), max_size=len(cuts))),
               "tail": draw(literal)}
    return draw(_corrupted(obj, ("alpha", "breakpoints", "values", "tail"),
                           ("breakpoints", "values")))


@st.composite
def _space_json(draw) -> dict:
    alpha = draw(st.sampled_from(["1", "inf"]))
    kind = draw(st.sampled_from(["L1", "Linf", "L1plusLinf", "Marcinkiewicz",
                                 "MarcinkiewiczStar", "Lorentz"]))
    obj = {"kind": kind, "alpha": alpha}
    if kind == "Marcinkiewicz":
        cuts = ["1/2"] if alpha == "1" else ["1/2", "2"]
        phi = {"kind": "piecewise_linear_concave", "alpha": alpha, "breakpoints": cuts,
               "node_values": ["1", "2"][:len(cuts)], "final_slope": "1/4"}
        obj["phi"] = draw(_corrupted(phi, ("kind", "alpha", "breakpoints", "node_values",
                                           "final_slope", "jump0"),
                                     ("breakpoints", "node_values")))
    elif kind == "MarcinkiewiczStar":
        obj["phi"] = draw(_corrupted({"kind": "rational_hyperbolic", "c": "3/2"}, ("kind", "c")))
    return draw(_corrupted(obj, ("kind", "alpha", "phi")))


@st.composite
def _fuzz_argv(draw) -> list:
    command = draw(st.sampled_from(["rearrange", "hlp", "norm", "majorant-pair"]))
    if command == "rearrange":
        return [command, "--input", _dumps(draw(_step_json()))]
    if command == "norm":
        return [command, "--input", _dumps(draw(_step_json())),
                "--space", _dumps(draw(_space_json()))]
    if command == "hlp":
        obj = {"x": draw(_step_json()), "y": draw(_step_json())}
        slots = ("x", "y")
    else:
        scalar = st.sampled_from(["1/2", "2", "1/5", "0", "-1", "9"])
        x = draw(st.one_of(_step_json(), _step_json(star=True)))
        obj = {"x": x, "tau": draw(scalar), "eps": draw(scalar)}
        slots = ("x", "tau", "eps")
    return [command, "--input", _dumps(draw(_corrupted(obj, slots)))]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_fuzz_argv())
def test_malformed_input_ends_in_a_documented_exit_status(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1


def test_unreadable_or_deeply_nested_input_is_a_parse_error(tmp_path, capsys):
    # each of these once escaped as a traceback with exit status 1
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for source in (str(not_utf8), "x\x00.json", str(deep), "[" * 100_000):
        code, out, err = run_cli(capsys, "rearrange", "--input", source)
        assert (code, out) == (2, "") and err.count("\n") == 1, source[:20]
    code, _, err = run_cli(capsys, "norm", "--input", BOX, "--space", str(deep))
    assert code == 2 and err == "error: input is not valid JSON: nested too deeply\n"


# -- option and fundamental-function fuzz --------------------------------------

#: (well-formed, malformed) values of each option
_OPTION_VALUES = {
    "--t": (["1/2", "1/3,2/3"], ["3/2", "0", "-1", "1", "1/0", "x", "", "1,,2", "1.5"]),
    "--n": (["1", "1..3", "2,3"], ["0", "-1", "3..1", "1..", "..2", "x", "", "1..100000"]),
    "--delta": (["1/2", "1,1/10"], ["0", "-1", "1/0", "x", ",", ""]),
    "--tolerance": (["1/100", "1"], ["0", "-1/2", "1/0", "x", ""]),
    "--t-x": (["1", "1/2"], ["0", "-1", "99", "x", "1/0"]),
    "--seed": (["0", "7", "-3"], ["x", "1.5", "", "123456789012345678901234567890"]),
    "--family": (["remark45", "example46_heads", "lemma43_y", "lemma43_x", "thm47_flatten"],
                 ["nope"]),
}
_VALID_SPACES = [L1, json.dumps({"kind": "Marcinkiewicz", "alpha": "inf", "phi": {
    "kind": "piecewise_linear_concave", "alpha": "inf", "breakpoints": ["1"],
    "node_values": ["1"], "final_slope": "1/2"}})]

_VALID_STEPS = {
    "unit": json.dumps({"alpha": "1", "breakpoints": ["1/4", "1/2"],
                        "values": ["-2", "3"], "tail": "1/2"}),
    "star": json.dumps({"alpha": "inf", "breakpoints": ["1/2", "3"],
                        "values": ["3", "1/2"], "tail": "0"}),
}


@st.composite
def _bad_phi_space_json(draw) -> dict:
    """A Marcinkiewicz-type space whose fundamental function is not one: not
    concave, a negative jump at 0, the other domain, or a hyperbola with
    c <= 0."""
    alpha = draw(st.sampled_from(["1", "inf"]))
    cuts = ["1/4", "1/2"] if alpha == "1" else ["1/2", "2"]
    phi = {"kind": "piecewise_linear_concave", "alpha": alpha, "breakpoints": cuts,
           "node_values": ["1", "2"], "final_slope": "1/4"}
    fault = draw(st.sampled_from(["not_concave", "jump0", "alpha", "hyperbolic"]))
    if fault == "not_concave":
        phi["node_values"] = ["1", draw(st.sampled_from(["5", "1", "1/2"]))]
    elif fault == "jump0":
        phi["jump0"] = draw(st.sampled_from(["-1", "-1/3"]))
    elif fault == "alpha":
        phi["alpha"] = "inf" if alpha == "1" else "1"
    else:
        phi = {"kind": "rational_hyperbolic", "c": draw(st.sampled_from(["0", "-1/2", "0/5"]))}
    kind = draw(st.sampled_from(["Marcinkiewicz", "MarcinkiewiczStar"]))
    return {"kind": kind, "alpha": alpha, "phi": phi}


@st.composite
def _option_fuzz_argv(draw) -> list:
    command = draw(st.sampled_from(["maximal", "fundamental", "sample-member",
                                    "flatten-head", "probe-koc", "probe-lkm"]))

    def option(name):
        return [name, draw(st.sampled_from(_OPTION_VALUES[name][draw(st.booleans())]))]

    def space():
        if draw(st.booleans()):
            return draw(st.sampled_from(_VALID_SPACES))
        return _dumps(draw(st.one_of(_space_json(), _bad_phi_space_json())))

    if draw(st.booleans()):  # a well-formed x, so that the options are reached
        step = draw(st.sampled_from([BOX, _VALID_STEPS["unit"], _VALID_STEPS["star"]]))
    else:
        step = _dumps(draw(st.one_of(_step_json(), _step_json(star=True))))
    if command == "maximal":
        return [command, "--input", step, *option("--t")]
    if command == "fundamental":
        return [command, "--space", space(), *option("--t")]
    if command == "sample-member":
        scalar = st.sampled_from(["1/2", "2", "1/5", "0", "-1", "9"])
        obj = {"x": json.loads(_VALID_STEPS["star"]), "tau": draw(scalar),
               "eps": draw(scalar)}
        if draw(st.booleans()):
            obj = draw(_corrupted({**obj, "x": draw(_step_json(star=True))},
                                  ("x", "tau", "eps")))
        return [command, "--input", _dumps(obj), *option("--seed")]
    if command == "flatten-head":
        return [command, "--input", step, *option("--n")]
    argv = [command, "--input", step, "--space", space(), *option("--family"),
            *option("--n")]
    optional = ["--t-x", "--delta"] + (["--tolerance"] if command == "probe-koc" else [])
    for name in optional:
        if draw(st.booleans()):
            argv += option(name)
    if command == "probe-koc" and "--tolerance" not in argv:
        argv += ["--tolerance", "1/100"]
    return argv


def _assert_documented_exit(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code and not (code == 4 and argv[0] == "prop-test"):  # a suite prints its failures
        # argparse prints its usage lines before its one error line
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert out.getvalue() == "" and len(errors) == 1, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_option_fuzz_argv())
def test_malformed_options_and_phi_end_in_a_documented_exit_status(argv):
    _assert_documented_exit(argv)


@st.composite
def _lazy_command_argv(draw) -> list:
    """replicate and prop-test, the commands that import experiments and gen
    when they run, with small well-formed or malformed arguments."""
    def some(values):
        return draw(st.sampled_from(values))

    if draw(st.booleans()):
        argv = ["replicate", some([*cli._REPLICATIONS, "nope", ""])]
        if draw(st.booleans()):
            argv += ["--n", some(_OPTION_VALUES["--n"][draw(st.booleans())])]
    else:
        argv = ["prop-test", some([*cli._SUITE_NAMES, "nope"]),
                "--cases", some((["1", "3"], ["0", "-1", "x", "", "1.5"])[draw(st.booleans())])]
        if draw(st.booleans()):
            argv += ["--seed", some(_OPTION_VALUES["--seed"][draw(st.booleans())])]
    if draw(st.booleans()):
        argv += ["--format", some(["json", "table", "csv", "xml"])]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_lazy_command_argv())
def test_replicate_and_prop_test_end_in_a_documented_exit_status(argv):
    _assert_documented_exit(argv)
