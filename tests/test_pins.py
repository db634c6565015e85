"""Pinned outputs and the names the benchmark reaches from outside.

The replicate digests were recorded before the replicate handlers were
folded into one registry, and the prop-test digests before the
rearrangement moved to int-pair arithmetic; a refactor that changes any
byte of these outputs fails here, even when it changes them the same way
on every run.
"""

import ast
import hashlib
import importlib
import importlib.util
from pathlib import Path

import pytest

from rearrcalc import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# sha256 of stdout of `rearrcalc replicate <target> --n 1..12 --format <fmt>`
REPLICATE_DIGESTS = {
    "remark45": {
        "table": "1b3687506340df35f7295c08b9e64d4d2f643d9aafd9ae4e070c2216e9893451",
        "json": "772fba241e4c9b23d84b850fe937cc262f9ab6a34fe6074058d4cc4df4d02e15",
        "csv": "ff79fd2ea3b00674750abf958dc4d0af60ac38abb61c4ee10c19ac3640146bdf",
    },
    "example46": {
        "table": "33ca5a96427152ad93990db31b96803fb2e0796510780a43f33c5e34e8d755a7",
        "json": "09821d50add1983165a99073e21122eb1e565f25e0089b86b4d7830ee03c140b",
        "csv": "a21a9ec329143978629982172ecb3840f3f463cf399deb1dcf6d0dd54e30f661",
    },
    "prop32-case1": {
        "table": "e36dc29db000f896974f8c4a18d73fe764b36b3e0c09de0c9f2d91182a506a06",
        "json": "c3cc89a2a2631b4cb234e93eebe3ebe5ea9e88241778c78d4b7a23f8d566393b",
        "csv": "a2a7ca3f3d5222404c3cddd35d967f84fb3cde6a5cf8084d95f6722503737960",
    },
    "prop32-case2": {
        "table": "39912170786f4ef1ea4490f4170b8c10be6a4081b75aeb32d5c4efabe69b11ff",
        "json": "c474d5bfb23f73a72726c38c2114846b8bc94e2c79183542af74f504b23b5d4c",
        "csv": "6ecaee90a642c04320ae583be5964ba6b38ee91dc826c2b29899d7eebcc0d752",
    },
    "lemma43": {
        "table": "dd31ae7934810e5aa9283b56cb3a5549b3f51bdedc3f9902ad7100a21673f1e9",
        "json": "6f032433d927e1ef0306eee564cb3b59bde75c857bc2eff92057297b8f65dcaf",
        "csv": "ffd201a64d668095de71005239b36376ba3f21f3ff96cdc727482156d11c7654",
    },
    "thm47": {
        "table": "dfdf48c35df575c4203b7081f8e2f6bda1ed9f04f20477ae4625b40fc9cbce26",
        "json": "946921553f6e3ddd1d96f6e0fd49d9184fd4362522834352895fc07658ccdb78",
        "csv": "a1cd86c5550f202100aedf22e935c923146fa6dab1cbf4644f0f19c9d9ef083c",
    },
}


@pytest.mark.parametrize("target", sorted(REPLICATE_DIGESTS))
def test_replicate_stdout_digests(capsys, target):
    for fmt, digest in REPLICATE_DIGESTS[target].items():
        code = cli.main(["replicate", target, "--n", "1..12", "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (target, fmt)


# sha256 of stdout of `rearrcalc prop-test <suite> --cases 200 --seed 3`
PROP_TEST_DIGESTS = {
    "rearrange": "954a8500a8a4f98d05f133a8790f8d67749561d416ae0bd71bbde6acbbde3187",
    "hlp": "99898fe4eda3c5286693a5edf056fbed30a01c3ff18b871347757d141a3be2ef",
    "prop32": "336309aaa556b521485c78ebf2f8d8a655d780157034b1d710d9028c89d1fbaa",
    "spaces": "dadced30f103a61dcb4d8d145450ec6c4f561f069d187ff80940a8bc5d831d2e",
    "hardy": "8d62157bbfd0cf4d62e361b0d14eca33182a7bdc70d339cee3d780116727309b",
}


@pytest.mark.parametrize("suite", sorted(PROP_TEST_DIGESTS))
def test_prop_test_stdout_digests(capsys, suite):
    code = cli.main(["prop-test", suite, "--cases", "200", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PROP_TEST_DIGESTS[suite], suite


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli_child_names() -> list[str]:
    # read PARSE/RENDER without executing the script (it edits sys.path)
    tree = ast.parse((PERFBENCH / "cli_child.py").read_text())
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("PARSE", "RENDER") for t in node.targets
        ):
            names += ast.literal_eval(node.value)
    return names


def test_benchmark_hooks_resolve():
    spans = _load_spans()
    sites = [site for entries in spans.SPANS.values() for site in entries]
    sites.append(spans.NORM)
    for mod, path in sites:
        owner, attr = spans._resolve(importlib.import_module(f"rearrcalc.{mod}"), path)
        assert attr in vars(owner), f"{mod}.{path} is gone"
        assert callable(vars(owner)[attr]), f"{mod}.{path} is not callable"
    names = _cli_child_names()
    assert "_emit" in names and "_load_json" in names
    for name in (*names, "build_parser", "main"):
        assert callable(getattr(cli, name, None)), f"cli.{name} is gone"
    rearrange = importlib.import_module("rearrcalc.rearrange")
    assert callable(rearrange._rearrange.cache_clear)
    assert set(importlib.import_module("rearrcalc.gen").SUITES) == {
        "rearrange", "hlp", "prop32", "spaces", "hardy"}
