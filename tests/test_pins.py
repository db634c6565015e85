"""Pinned outputs and the names the benchmark reaches from outside.

The replicate digests were recorded before the replicate handlers were
folded into one registry, the prop-test digests before the
rearrangement moved to int-pair arithmetic, and the norm, fundamental and
probe digests before every step-function integral and measure moved onto
the int-pair summation kernel, the hlp digests before the
Hardy-Littlewood-Polya order moved from the level integrals onto the
stars' running sums, and the Marcinkiewicz-with-jump, sample-member and
flatten-head digests before the Marcinkiewicz norm, the shape fit and the
maximal distances moved from concave-function segments onto ``refine``'s
running sums, the rearrange digests before the rearrangement's sort
moved from cross-multiplied fraction compares onto int keys, and the
majorant-pair digests before the majorant crossings were bisected and the
flattening became a splice of cut lists, the collinear-phi norm and
fundamental digests and the "head" sample-member digest before a concave
function's slopes became one step function and the flattenings' level
integrals were read off Phi_x's chords, and the shared-denominator
rearrange, L1 and Marcinkiewicz norm digests before the rearrangement
grouped pieces by distinct value and summed their lengths per shared
denominator; a refactor
that changes any byte of these outputs fails here, even when it changes
them the same way on every run.
"""

import ast
import hashlib
import importlib
import importlib.util
import json
from fractions import Fraction
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


# inputs and spaces of the pinned norm, fundamental and probe commands
_X = {
    "unit": {"alpha": "1", "breakpoints": ["1/4", "1/2", "5/6"],
             "values": ["-3/2", "2", "1/3"], "tail": "-5/4"},
    "half": {"alpha": "inf", "breakpoints": ["1/3", "1", "5/2", "4"],
             "values": ["5/2", "-1", "3", "1/2"], "tail": "0"},
    "half_tail": {"alpha": "inf", "breakpoints": ["1/3", "1", "5/2", "4"],
                  "values": ["5/2", "-1", "3", "1/2"], "tail": "-1/5"},
}
_PHI = {
    "1": {"kind": "piecewise_linear_concave", "alpha": "1", "breakpoints": ["1/2"],
          "node_values": ["1"], "final_slope": "1/2"},
    "inf": {"kind": "piecewise_linear_concave", "alpha": "inf",
            "breakpoints": ["1/2", "2"], "node_values": ["1", "2"], "final_slope": "1/4"},
}
_HYPERBOLIC = {"kind": "rational_hyperbolic", "c": "3/2"}
#: fundamental functions with a jump at 0 and collinear runs of nodes, one
#: per domain: the nodes 1/4 and 3/4 (1/2 and 4 on [0, inf)) lie on the
#: line through their neighbours and are merged away
_PHI_COLLINEAR = {
    "1": {"kind": "piecewise_linear_concave", "alpha": "1",
          "breakpoints": ["1/4", "1/2", "3/4"], "node_values": ["5/4", "3/2", "13/8"],
          "final_slope": "1/2", "jump0": "1"},
    "inf": {"kind": "piecewise_linear_concave", "alpha": "inf",
            "breakpoints": ["1/2", "1", "2", "4"], "node_values": ["3/2", "2", "5/2", "3"],
            "final_slope": "1/4", "jump0": "1"},
}
#: fundamental functions with a jump at 0, one per domain
_PHI_JUMP = {
    "1": {"kind": "piecewise_linear_concave", "alpha": "1", "breakpoints": ["1/2"],
          "node_values": ["3/2"], "final_slope": "1/2", "jump0": "1"},
    "inf": {"kind": "piecewise_linear_concave", "alpha": "inf",
            "breakpoints": ["1/2", "2"], "node_values": ["3/2", "5/2"],
            "final_slope": "1/4", "jump0": "1"},
}


def _space(kind: str, alpha: str) -> str:
    space = {"kind": kind, "alpha": alpha}
    if kind == "Marcinkiewicz":
        space["phi"] = _PHI[alpha]
    elif kind == "MarcinkiewiczStar":
        space["phi"] = _HYPERBOLIC
    return json.dumps(space)


_KINDS = ("L1", "Linf", "L1plusLinf", "Marcinkiewicz", "MarcinkiewiczStar")


def _step(alpha, breakpoints, values, tail):
    return {"alpha": alpha, "breakpoints": breakpoints, "values": values, "tail": tail}


def _shared(alpha: str, den: int, last: int, tail: str) -> dict:
    """Cuts k/den for k < last, k a multiple of neither 4 nor den, all over
    the one prime denominator den, so pieces have lengths 1/den to 3/den;
    five magnitudes recur with both signs, so each |value| gathers pieces of
    several lengths."""
    cycle = ("3/4", "-1/2", "2", "-3/4", "1/2", "-2", "5/3", "-5/3", "3/4", "0", "-2")
    cuts = [f"{k}/{den}" for k in range(1, last) if k % 4 and k % den]
    return _step(alpha, cuts, [cycle[i % 11] for i in range(len(cuts))], tail)


#: shared-denominator inputs; on [0, inf) the tail -1/2 absorbs the pieces
#: at +-1/2 and 0
_SHARED = {"unit": _shared("1", 23, 23, "-3/4"), "half": _shared("inf", 7, 41, "-1/2")}


#: hlp inputs, name -> (x, y) as _step arguments; the comments give the
#: witnesses printed for x ≺ y and y ≺ x
_HLP_PAIRS = {
    # y ≺ x holds; x ≺ y fails at the node 1 on [0, inf)
    "holds": (("inf", ["1", "3"], ["3", "1"], "0"), ("inf", ["2"], ["3/2"], "0")),
    # x ≺ y holds; y ≺ x fails at the node 1/4 on [0, 1)
    "node unit": (("1", ["1/4", "1/2"], ["2", "1"], "0"), ("1", ["1/3"], ["1"], "3")),
    # signed values, both fail at nodes on [0, inf): 2 and 1
    "node half": (("inf", ["1/2", "5/2"], ["-1", "2"], "0"), ("inf", ["1"], ["5/2"], "0")),
    # y's larger tail: y ≺ x fails on the final branch, at root + 1 = 29
    "final half": (("inf", ["1", "4"], ["5", "1"], "1/3"), ("inf", ["2"], ["3/2"], "1/2")),
    # x ≺ y fails on the final branch at the first third, 2/3
    "first third": (("1", [], [], "1"), ("1", ["1/2"], ["1"], "0")),
    # y ≺ x fails on the final branch at the second third, 3/4
    "second third": (("1", ["1/4"], ["2"], "1/4"), ("1", [], [], "1")),
    # y ≺ x fails past both thirds, at (root + 1)/2 = 9/10
    "past thirds": (("1", ["1/5"], ["4"], "0"), ("1", [], [], "1")),
}
_DECREASING = json.dumps({"alpha": "inf", "breakpoints": ["1/2", "3/2", "4"],
                          "values": ["3", "2", "1/3"], "tail": "0"})
#: the prop32-case2 input: x = 2 on [0, 1), 1 on [1, 4), tau = 2, eps = 1/5
_PROP32_CASE2 = json.dumps({"x": _step("inf", ["1", "4"], ["2", "1"], "0"),
                            "tau": "2/1", "eps": "1/5"})

#: command name -> argv without --format
COMMANDS = {
    **{f"norm {kind} {x}": ["norm", "--input", json.dumps(_X[x]),
                            "--space", _space(kind, _X[x]["alpha"])]
       for kind in _KINDS for x in _X},
    **{f"fundamental {kind} {alpha}": ["fundamental", "--space", _space(kind, alpha),
                                       "--t", "1/3,1/2,3/4" if alpha == "1" else "1/3,1,5/2,7"]
       for kind in _KINDS for alpha in ("1", "inf")},
    "probe-koc L1": ["probe-koc", "--input", _DECREASING, "--family", "thm47_flatten",
                     "--space", _space("L1", "inf"), "--n", "1..8",
                     "--tolerance", "1/100"],
    "probe-lkm Marcinkiewicz": ["probe-lkm", "--input", _DECREASING,
                                "--family", "lemma43_x",
                                "--space", _space("Marcinkiewicz", "inf"), "--n", "1..8"],
    **{f"hlp {name}": ["hlp", "--input", json.dumps({"x": _step(*x), "y": _step(*y)})]
       for name, (x, y) in _HLP_PAIRS.items()},
    **{f"norm Marcinkiewicz jump0 {x}": [
        "norm", "--input", json.dumps(_X[x]),
        "--space", json.dumps({"kind": "Marcinkiewicz", "alpha": _X[x]["alpha"],
                               "phi": _PHI_JUMP[_X[x]["alpha"]]})]
       for x in _X},
    **{f"norm Marcinkiewicz collinear {x}": [
        "norm", "--input", json.dumps(_X[x]),
        "--space", json.dumps({"kind": "Marcinkiewicz", "alpha": _X[x]["alpha"],
                               "phi": _PHI_COLLINEAR[_X[x]["alpha"]]})]
       for x in _X},
    **{f"fundamental Marcinkiewicz collinear {alpha}": [
        "fundamental", "--space",
        json.dumps({"kind": "Marcinkiewicz", "alpha": alpha, "phi": _PHI_COLLINEAR[alpha]}),
        "--t", "1/3,1/2,3/4" if alpha == "1" else "1/3,1,5/2,7"]
       for alpha in ("1", "inf")},
    # seed 0 scales x; seeds 5, 6 and 10 fit a drawn shape under x; seed 7
    # averages x over a head [0, r) and scales it
    **{f"sample-member seed {seed}": ["sample-member", "--input", _PROP32_CASE2,
                                      "--seed", str(seed)]
       for seed in (0, 5, 6, 7, 10)},
    "flatten-head": ["flatten-head", "--input", _DECREASING, "--n", "1..4"],
    # the same x in both construction cases
    **{f"majorant-pair {case}": [
        "majorant-pair", "--input",
        json.dumps({"x": json.loads(_DECREASING), "tau": tau, "eps": eps})]
       for case, tau, eps in (("affine_gap", "2", "1/3"), ("affine_chord", "3", "1/4"))},
    **{f"norm {kind} shared {x}": ["norm", "--input", json.dumps(_SHARED[x]),
                                   "--space", _space(kind, _SHARED[x]["alpha"])]
       for kind in ("L1", "Marcinkiewicz") for x in _SHARED},
}

# sha256 of stdout in json, table and csv, in that order
COMMAND_DIGESTS = {
    "norm L1 unit": (
        "02b3c0bf59ba01cf4bd98ed46a6a9059948fbf04af10c4b3e65fb3d9eeb13f8d",
        "2595ab1f43f79a3523382531bb63102370084a092d85ca7d47c28ab0d17f940a",
        "c9dcccf8c60fcf8825d5fae121e5edd3a5ea18efd13a0381471be55ce934abf4",
    ),
    "norm L1 half": (
        "5dc95ae627fc50a82c528583e4e89bd7aa940e7f09485e07dd78059009193946",
        "924c947a7ff8a2890552feda9e14ffc2b3407b40f13fcba9680db5ec47a2444e",
        "4ceedd7130803aa6819af504cb3404c3b3a8bd536bf694588dfff98681252405",
    ),
    "norm L1 half_tail": (
        "ffa404e0fdc0fe93d7b9682c81c879dc7dcdcd332b9cf1f3c97b6fb73757f9a1",
        "a94f86038a3e288acf45b72f2dd7bc817b20f4f20155b18bd3afffe622b9add4",
        "d874530ea8c572bfc63a7759f85110a8ff1476130e07c8f54855be6e7b404a20",
    ),
    "norm Linf unit": (
        "a9ec3744e87cb3e9b7cac74194a38349f83167e079e626a59a4cb7b5e1865cf8",
        "ea3074872a3f20064b2f121d99799d70ccb65af12b02e6899ef0847dd8b63ac7",
        "e0263601e508957fef476526f1579a2f8e241f106548d5e8cea3b7c2bba4df30",
    ),
    "norm Linf half": (
        "3ff3c1058c035d75f611cc072abf67384104661c3a78c92ea4210a5bd4340415",
        "9499b523342e33f20597917d85a0f8b092553b72936e61414785fd5dcf9122c4",
        "144f6c608c774962b88634f8df73f71950813f2d3af73c5fda54999190b63837",
    ),
    "norm Linf half_tail": (
        "02ac48fd1fd878f3ad5f96e304b6f98ebb6f0eb9b98cc6d3d805d554bb24882a",
        "ef4e11ef6320a533b166e1619533f82220de406c2d814dfc7fd2ccb8130a9c1c",
        "6c9ce70553c9fb0126946cc722ac312c6c5aa116ba29f687d9477c063d5773dc",
    ),
    "norm L1plusLinf unit": (
        "e16e8a6ab1902c0c19d9592906bbced333bc0f6616132e83ee17e7474f3e0766",
        "739ffbda661f48d1a67fa9688f1f3d60982406bb5c10b5841b211a9320601515",
        "574111d4275c6e2da2d0b28db47a8f2d064c77e0873a3e48adbac30fe799f12e",
    ),
    "norm L1plusLinf half": (
        "b1c314b828b48cb8906639ed9d615bd0b2101f8b56e9a0ff9b080f8fd0b44e9f",
        "9d90f04c9932fb8f5ba89f03edc28bf132b93e0348f92349d764f51307577475",
        "c2569e09c34623b3133b68269637b67bc3aa94fa08b4357e0e4a8ee4e2c5ec0a",
    ),
    "norm L1plusLinf half_tail": (
        "e302e7d3d5a3781e4e20583f3c16aea184301fd1511edb3020dcfec58056df52",
        "2820cc61eb50c653f14df83749285ba5cfaf865b9618cae7cd042448f85398bf",
        "a2d965f718d47434baf3a0674a9623b41ee4bbcebde9bb56f35b311d178c99ed",
    ),
    "norm Marcinkiewicz unit": (
        "5b02dd2a4011c803af9ec17a3f7c0c519ccd50940e2bd15b37581d04c65f1abd",
        "2e176c5ea98f0ac917b57444e42d7d35f234dfd253794b082025824f6a95425f",
        "99274949012ecf8c7d307553465f02b09fd0a0b3092dbbfafb167c614e7ec907",
    ),
    "norm Marcinkiewicz half": (
        "8753104dc190874c6fdb6ba223d5a4adbb2a442a048094bd9ca1679e449d5e79",
        "b28da93f7375eddfda0cd3ee494f9fe6e41fdd435e7ba03b9b95b231fca16f75",
        "46c48342f1fac7724a77d914c61c914268b3e4743b590969631d231c64994b41",
    ),
    "norm Marcinkiewicz half_tail": (
        "3a795410b4808b286e0deb20fec70678098157f07509ab65bd40a2e6a3598693",
        "4ca778f18f219c80198566a5116a70d2c7ed6db251cf13d0b271376e5a825b85",
        "a905fa52d979594749888783bdc102b640504aa2d7f1c09e33b73c50542bb7a6",
    ),
    "norm MarcinkiewiczStar unit": (
        "fa9a11c282369d6ba64e78c2655b1225bda720fbf956efefea82f9ccbd026502",
        "9186cb6f8323df5c785a2c78bb7bbf66a71ef71cda88ba7cbaf2d8391c9b9e22",
        "dc49872ceb218cbccc67e28e41b9bbb0dd76c6111a9a5a99baff9f68700bcd42",
    ),
    "norm MarcinkiewiczStar half": (
        "adfd731eedf24056cea24646652e0113f1a3f61c6c96059f2b6e20ae6a8948db",
        "a9bb01ecd244262a141ad998ee2ffa17da5a2d7349be8017a68759bd95d0b058",
        "318a77dec3dfa411f5c50d36ab7ac37f4c8cccde59c6305d283bf77810dd0ccb",
    ),
    "norm MarcinkiewiczStar half_tail": (
        "5aca26318358143e3f1f04acc5c6a8cece4b12db68fb0a79c2dd2d10bf80bee3",
        "77474bb4c7e4b70c9f636f5e23b5e2781379eeebbaf38fa2ab256a259a715a07",
        "64e0e0466a59612f7ad412e07d8f57494a008fba98ff03c66ac5ec749eae7b35",
    ),
    "fundamental L1 1": (
        "f7c7c08a7a3a1001b076bf6d8cc36eb3d743c82a967cdf7e4c36a0cb7c681b0c",
        "2465be69b803b60a90550727708cb858ca0b634a4f40c793946415bb5c8d16f6",
        "8b7f8358c64b71c39ab19027f919ddfd98c838a2469ee285b0a9604b03e52eec",
    ),
    "fundamental L1 inf": (
        "3d7d11a2234cf2e383574514a9bc3057e751904a56baf9a8b90d2b39c7c2289f",
        "57c51de40acd7fe9707c17f22d040a2894cc62fb2225ccf73e7f8ca4bc417b2c",
        "f57a0301e1a9451f82fbff94cb1a43c29c5afc34ae430c7dc64ba19eff6b64e7",
    ),
    "fundamental Linf 1": (
        "7ac43b227f7c710b320fda9b55154448826182c48dc559571c30623f43f06358",
        "1e7c66409bd414f1cc220c5a346b033ab96415bc761d6bf6a9d948dda49a5a5f",
        "ca29a6dc0870ce72d1f1ad1d3cb6e9c58c65ece495e79b73e665610fccc76e65",
    ),
    "fundamental Linf inf": (
        "5b371ad0ff8f92328a589774277f5147ac7287f0ea04f903299a03f9c7744232",
        "02d0c05c20d74428dabac98d357f6d8941d7c34c58276f03558fd7eac2ff808a",
        "cd92b73d27d21f96973282b0091c162c729113b1e94b2b81922ef734882081cc",
    ),
    "fundamental L1plusLinf 1": (
        "a1c074b8ceea4cca4d97975d7e9ab98c5d4d2a12c12911208ba506148449edc8",
        "bd0fb7356182a6016325bd8eebcaa1df7ebb9190f074ebcf2f6f8e910dab9a16",
        "01022a4ca64ff9a6d5e91bee2c49803e70d6a31ae6c7af959d8b3099e9dd89c9",
    ),
    "fundamental L1plusLinf inf": (
        "137d5be00ba94030466cfca4d5eba84ad5629397262f938f004371c347f69877",
        "c65eac84f7d5f76b6f0ad192b8a4982d9c34522185b6613c31977232b69a4d9f",
        "6b38183bb4f21758198eaa8a6fc66f942e684e826fcb9d5b7b96663bcb6ba5fb",
    ),
    "fundamental Marcinkiewicz 1": (
        "860c8da0c54e7b7ee8012588b2ca88ae5237f34369d9bbdf5a0c8ef2f7ec3363",
        "34112818d2b875be2ce18f781bd7c4f23951b36493278d6dac09be222deefedb",
        "d9df431bfbe59b757d89316b3105f8533861f48a70770ceb25abd0a3249ad097",
    ),
    "fundamental Marcinkiewicz inf": (
        "f2bc2c90f27ed0435e706744fa6c6f68e8f6dff5a2ce18b2091fbbbffacff768",
        "905a0e788fb1e8c59482251ca7baa4ebd0cf9f546eb5ad76a980611bce80a963",
        "3a12b64c73a6bd088162f71cd79a80596abf1e1047b956781040ca13f5b219ea",
    ),
    "fundamental MarcinkiewiczStar 1": (
        "3e3ee1d32960d73b0427d0b0b220a655b096e22ec187e59701abbff934e4d6fd",
        "f2df6ae16d505e28e903ddb4f5783b69abe57d8a9cf41f84be14ca441b1e024a",
        "89a9ee2c714ab2a01c1750be320b041dd19be7132ec76e2730495a93a6345d90",
    ),
    "fundamental MarcinkiewiczStar inf": (
        "1dc71b51188651946f7d6564071b22c82fe5e710ad9fc5618fb4ddb027e9d240",
        "0ca5174468d9698f63d21dd756874da1f6061ca58456c309cedee7d8df890a46",
        "543f1e1616ed482efc1ff5fcb31c84dd6dd66301e7f7d60bb83b59c912730f1e",
    ),
    "probe-koc L1": (
        "e2bf38603825f77834802364f25dd695d052a70b9432e5665ef303245f06e2dd",
        "54bab5f70d344cae5233a11471d073b27a72e1a78e07ce9238dba2581a7a2bfc",
        "f632c4b426a1996065907caf6b5c2ff51ba32f6822192bbbbdc75e45b82b7889",
    ),
    "probe-lkm Marcinkiewicz": (
        "7444bbe53a57bc12cedbddf522dcbf009e5fd3cf63d0de822ac604e721062901",
        "b045f406d093d9b06f1db81b17991fe9488854734916664e3601c9a7f6930e2f",
        "b8e85e7ebc87d9641c4516242ae4717bfd8a5ea72895def24d1d53008f4a7c20",
    ),
    "hlp holds": (
        "31a495e649c93ce2bfa07a07e5ae660b14136f7b04032f8dd2660f8d7c3f26c9",
        "24aba903eea5400a83c3f643c4746d63ae48662a39a6c53c9a9d14d8a3149234",
        "6dccac9535907e07a90201792d7000479c275655a67b8cac40ab8e19c399f2cd",
    ),
    "hlp node unit": (
        "c6545d4b8c3cba4eeb5744b5d6844fa88d6f93ce4fc4f9259faf089666bf250c",
        "55ce3a66c48f3027192e417dc3032ec75e0959eb91b25cf058eb595f3e3324c0",
        "18d6247d2360d5335484f0b34bff8655945d50dcee094c10e0ce5c69131a5f98",
    ),
    "hlp node half": (
        "6ca1bb1887db51201c7297d67c8da9714f7c0e53b61e343e2d6d2356be73c78a",
        "48dd91ff0fa8c53d4972d161055faac3836d54753fc933e687dc66ddae00351a",
        "deda2ce2a93e92d21711a008496ffbaeaa38f254645504c7426dbc751046c286",
    ),
    "hlp final half": (
        "796477bd29f96373371d1be6cd8b8a524921a8e070baaba69baa0429983f00fd",
        "9fe56ae2d6f85dae9db7035232cf9d5040e5272f154e8d7cbbd0c0c71bad9e93",
        "8e1791bc819c71d4f42b6eaee5c1aeb4a13d5c34071229fea78ab0a8e51784ad",
    ),
    "hlp first third": (
        "b90ebcce862d62a961f9aa0d5a267f91a1ce7e4184e9a0b8582d4717839266f5",
        "2cd0ef27a7667a74c961068694b47a4a2d79e739a8ff4cb02538ab2d4d329587",
        "b819fdde85ac4c6115149e938b65a1fccdb3b2ef9e7f6fdde3d3d65efb8a32a8",
    ),
    "hlp second third": (
        "82a53ad6dcee42623666797f14a5755e44fa070353b18a1a8279e6c52632ff05",
        "563b11d8663a1871e3e73d044aab01fc1f527f7817ea67cc7cfdb20ea1ea342d",
        "3c1d41b5aae1df22c17656d619b5391a9eed1b8c875b6c9fae03c38e407c78b8",
    ),
    "hlp past thirds": (
        "39e7e5bc251242838070f11376360b0962a17207491a4b991a6709cc70331e43",
        "fcc767f9631d5248414268a9c8270783cc52b71d05c585a1d35993b2c5c1424f",
        "f77718e43beefa7fedcecb1dad32e14c7da615dfc9ec89828e0ec414f43f1a96",
    ),
    "norm Marcinkiewicz jump0 unit": (
        "604e1144234d89d579d8393198b1d7d1edb1822edf4747f97de9753caae2267e",
        "03ee93afd83168a9b3fbed8380d9b68c73aff111882978e288052e6c584428a1",
        "6e1f5cd1f71a3c84e286384bf9db080e690f0d51606b44b2dd93d637bee9ec63",
    ),
    "norm Marcinkiewicz jump0 half": (
        "e85fca181856e430916f628a30fb8f4749fea74e127f0907a80046b53ede137e",
        "32705dcb88facbd0a17b70a5bc99bd44b2e7d684e05fd967fc12dbc888051681",
        "4267f979081fb8925359ad3a44ee90a5f066c468f792c6ff2402ee7aef926998",
    ),
    "norm Marcinkiewicz jump0 half_tail": (
        "32a8cc2edd198466f122dd2433d54a54ff6f8502c00bad2b78f042b2c6f1bb38",
        "1b10dec9fd5c7a74e339023097503683ce787a217a535c1aae508a64dcd88c9e",
        "95bf20cc414b482ec62adf4847ab091b23d2db0e329ace6f8a93c244cec3f616",
    ),
    "sample-member seed 0": (
        "470798a032cfa2f48d0c71b5281f48250fb20bfb5abba04a7dea2baad561b725",
        "af07cb6ca805c7e56d2b09a80be8c9bfd850bbd7f8a1423b0f74aab399e0b9d4",
        "01c72975d2d53009b0c5fc06f17d0edca49508480ddb31c082e1cde1d64ba4f2",
    ),
    "sample-member seed 5": (
        "4487e4deac95d3cc6ebd382f11d7a2005f9da077bd757c023c6b354a982afc39",
        "24a037672c47309a661ffa94e50032b78ba5fea862ed2763f1ba18c0f7099bca",
        "5acf09835f683833c6c035ba8f926203671054dda84b680aa60f5d4648a13516",
    ),
    "sample-member seed 6": (
        "97f426c802722a99ac352b9c28da4fedc95b7c4a505655830adf5b6fcd9e8d7c",
        "2bf7e4f627eebb9a8ceea588bc21296cf0920ef6ec83f0e1e44363bf17ca191a",
        "9feb440ebd7cb7420830baf082333fec6f9691f645d1c02380e34b7c9da335b9",
    ),
    "norm Marcinkiewicz collinear unit": (
        "604e1144234d89d579d8393198b1d7d1edb1822edf4747f97de9753caae2267e",
        "03ee93afd83168a9b3fbed8380d9b68c73aff111882978e288052e6c584428a1",
        "6e1f5cd1f71a3c84e286384bf9db080e690f0d51606b44b2dd93d637bee9ec63",
    ),
    "norm Marcinkiewicz collinear half": (
        "00ff8be5705d7b4f9691ccf77e02714fbc5d541fbd28d717807fe73e06242ff5",
        "169d70f69f25ac40e9ada52a3406f793ef76f4c0601e60634cbf7a74ffd60c86",
        "181112b2e61e1972759287f068bbb46b2bd0e250ce4e534500325d1348b9b6c3",
    ),
    "norm Marcinkiewicz collinear half_tail": (
        "6300a07cddea729858a7054cf3c0bdf46bac1e259e28f5fc6ab1fb34b70ee4aa",
        "c82e54ff91c9b67b9e85d399caf439444af74c1b825e9fd7d3dab77ac02ea187",
        "467ea9e4c74ed15fd4a53e7543c61c7037c6e042eadc3760b2bd9fcb9e0964c3",
    ),
    "fundamental Marcinkiewicz collinear 1": (
        "d050cde7ed509548aeee51e654905ad877f9f991d40e0789ce0e6137c8631485",
        "6938d48945a026db591088fd7eda16def87124b98822ec9fc3da1942c57ddf19",
        "193ea4128c245f2a6c4451ffd2fb1546aae0de5851c79d8e69de834e01746139",
    ),
    "fundamental Marcinkiewicz collinear inf": (
        "c21c16770d5f4d31aed61a0c23bda02218771d512195ae76923de8f10e1f6b8d",
        "e2bf06e5889de126ee0af7d26d9a37964c939c457be04950086812239e94e692",
        "ad55575da3ac241ae64c27f4d6afbdb56e4541dfb6f7d2fb11e606674663e81c",
    ),
    "sample-member seed 7": (
        "c30d461fcce5b1ceeb9c9fef823e025278c6d3e7a11fe14285fd575eb7ef046c",
        "a87590729015244a3219c07bbae2e924429ab012bd945a9198fe8880117ce0c1",
        "cc144e68757e62ed566e507a1d4ed523f866aab53242d1e18634e4f2b3034de4",
    ),
    "sample-member seed 10": (
        "c28a0e4e0782484d269e0fde60c48f4c39c5f1cbbbf80bcc3ffd7935e1921e01",
        "299b99a05ad7257c602da045b63296152bb4280b609895fe49c72c3f7f826ae3",
        "84c3444b772e095a3206f238d0a39b11007243a21ec8367a9495666ebc8f3d3d",
    ),
    "flatten-head": (
        "fb10aefb50457cf9cf1ea33f86808379a0b9a8012d55e64aa17859dc193af4df",
        "6db712a08cca33c972cec9f4ee3451dd2ef4240823d9647f69c189e146b3bf8d",
        "4a1cb191d90d383605450047832641fb32ed58e841b811400bd1b0387e3523d0",
    ),
    "majorant-pair affine_gap": (
        "0f936fd1d58e50d852043abd5243f4d4c2b337145b4015ca744ab3b31d66d7e2",
        "9c4f9772e896379777c87589c6a14cf0ca8cdaf3e0955160c694055c65053055",
        "00e2631fc182e3e54a6eaebb236c065e728edb081511b25adddf4388b62fd8ea",
    ),
    "majorant-pair affine_chord": (
        "2cdb78b17d8fce7c37fd3c5724517f8e48c35c70f99f18f4e784fe9278c4b665",
        "2d10e6d46eee0ca0a8e89aa5979b068a53fc461945e4a8a8042b7e07f05b457c",
        "bd736edd5d4cdb808c08e74f96eec9fbb296eb6ee6439436703ea2a752fc7569",
    ),
    "norm L1 shared half": (
        "fe984be56b2589a8ec933365c01702001bad5c94a04c327fa1340ac07d140e50",
        "39d203c07eed423bc022a0f263a2da4bbd2ba45e7ffe9d525bf0cdea60008d06",
        "58a945c5a70ef055f5c8951af23c9a59af1887d933ca23bb38b56c827cc5e3f7",
    ),
    "norm L1 shared unit": (
        "7bbf26db74442b36fb9f4f8fb3f2491ab64a6eee07e5564d9d69536c70871b83",
        "1079c79f1dc88b195738def6a4c38cf626be15010f056bb39c52ab15218619ff",
        "4f324d17a7c28503c2027eb270c54b8893448e46686cf71e81128df800a4b234",
    ),
    "norm Marcinkiewicz shared half": (
        "784bdcc70b3036bfceaad08ec02c202e1581a4b0f37764b5948084b624825c8e",
        "aa2383b0c7b10981bec70815e392208bd6ed44a25105247d42026d6c3d93a641",
        "5693862d2218293a48247b7408fff649ae20df964f82c9500383007501b7f193",
    ),
    "norm Marcinkiewicz shared unit": (
        "f30ca8f3a8d0812de6751d8b7b33dd7aa1c0289ac6808d01aab476b85f79669e",
        "84a2454b9406359392bfff4dad68a82656945ffe4a1013d31935bbae686f0701",
        "e7d70cdc82204622868dd7317fa84f9204f686c354c185190bf23d0c0dcba80d",
    ),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_stdout_digests(capsys, name):
    for fmt, digest in zip(("json", "table", "csv"), COMMAND_DIGESTS[name]):
        code = cli.main([*COMMANDS[name], "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, fmt)


def _primes_above(n: int, count: int) -> list[int]:
    small = [p for p in range(2, 1200) if all(p % q for q in range(2, p))]
    out = []
    while len(out) < count:
        n += 1
        if all(n % p for p in small if p * p <= n):
            out.append(n)
    return out


def _coprime_unit_input() -> dict:
    """199 cuts k/200 on [0, 1); each value has its own prime denominator
    above 10^6, signs alternate, and every 17th value repeats its neighbour's
    magnitude so equal values merge."""
    values = []
    for i, p in enumerate(_primes_above(10**6, 200)):
        v = Fraction((i * 7919) % 10**6 + 1, p)
        if i % 17 == 16:
            v = abs(values[-1])
        values.append(-v if i % 2 else v)
    return _step("1", [f"{k}/200" for k in range(1, 200)],
                 [str(v) for v in values[:-1]], str(values[-1]))


def _rearrange_inputs() -> dict:
    m, m2 = 2**71 + 3, 3**45  # gaps of 1/m and 1/m2 are below 2^-70
    third, sevenths = Fraction(1, 3), Fraction(5, 7)
    near_tie = [third, -(third + Fraction(1, m)), third - Fraction(1, m), -third,
                sevenths + Fraction(1, m2), sevenths, -(sevenths - Fraction(1, m2)),
                third + Fraction(1, m)]
    return {
        "near ties": _step("1", [f"{k}/8" for k in range(1, 8)],
                           [str(v) for v in near_tie[:-1]], str(near_tie[-1])),
        "coprime unit": _coprime_unit_input(),
        # |tail| = 3/2: pieces at +-3/2 and below are absorbed, 3/2 + 2^-80 stays
        "plateau half": _step("inf", ["1/2", "1", "2", "5/2", "4", "9/2", "6", "13/2"],
                              ["3/2", "-3/2", "-7/4", "2", "-1/2",
                               str(Fraction(3, 2) + Fraction(1, 2**80)), "-5/2", "0"],
                              "-3/2"),
        "shared unit": _SHARED["unit"],
        "shared half": _SHARED["half"],
    }


# sha256 of stdout of `rearrcalc rearrange --input <file>` in json, table
# and csv, in that order
REARRANGE_DIGESTS = {
    "coprime unit": (
        "68151289df5f2323cf21bad57be8c8fbb869f1467be65230d8128494ee33364a",
        "233b41894bc5701e0e37c18597fe71ebf890aa2b65ea072a29947d43ba76575a",
        "d036b68e4e5a4268a07f08514886308bd1ec9003be268da72839c366164f9bd9",
    ),
    "near ties": (
        "0df1aca2e6bd4c4ada2959f2e5d42f3cc0df4c4882a9b179ffecd2c12ab742e8",
        "08eed434484734f279994e81d1e0cfc2fe936fd08ff1d885bda145c57054bcbd",
        "47a96082bf5d80d6916475e0a5eb4931189ec66f49089c02023ceee1187511d0",
    ),
    "plateau half": (
        "bd0156a02f8ba6efcf438105e3b7a7afd5950190800e6deadaeeddc6deb4dd32",
        "ea321540d056372126bca70f785fdb34ffb49d423c2540ab7a25866241b12695",
        "38887773aec55a240a7127c300a4611ee0fd3e41a36e77b59919e267faa7c28c",
    ),
    "shared unit": (
        "5f48189b6c61c02b5adfa70c27e73d18b2b183461844c3d0f4bf9823ae5a954f",
        "8998128ab8691a097ca488e6b32f8d245c03b476c6e95817654746d1c807027f",
        "39ff627b550ace93e52b5c912706cd5019dd88c0a9888753b5ab6c0018e3a1cb",
    ),
    "shared half": (
        "311e060adcec1f36b130cd51d1347aa92e56b930d9689694c5672a401848553c",
        "07be5c26428a22b9e46e8b0e6ba06c1f70935a40e113fda01f8348f36a6fb7a4",
        "b7fa517336955ac62c3a0d46e63de392bd2efbef2590ffb01529d0b6637ce583",
    ),
}


@pytest.mark.parametrize("name", sorted(REARRANGE_DIGESTS))
def test_rearrange_stdout_digests(tmp_path, capsys, name):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(_rearrange_inputs()[name]))
    for fmt, digest in zip(("json", "table", "csv"), REARRANGE_DIGESTS[name]):
        code = cli.main(["rearrange", "--input", str(path), "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, fmt)


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
    assert callable(rearrange._rearrange.__wrapped__)  # the tests' uncached rearrangement
    info = rearrange._rearrange.cache_info()  # the bench reads hits and misses
    assert isinstance(info.hits, int) and isinstance(info.misses, int)
    assert isinstance(info.maxsize, int) and isinstance(info.currsize, int)
    assert set(importlib.import_module("rearrcalc.gen").SUITES) == {
        "rearrange", "hlp", "prop32", "spaces", "hardy"}
