import contextlib
import io
import json
import os
import random
import string
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcharlab import cli
from qcharlab.cartan import build_cartan
from qcharlab.cli import _canonical_json, main
from qcharlab.conventions import CONVENTIONS_VERSION
from qcharlab.lweights import AMonomialVector, LaurentMonomial
from qcharlab.qchar import QChar

from helpers import (
    apply_s_word_inverse,
    factor_to_a,
    parse_dims_by_depth,
    perfbench_module,
    search_artifact_oracle,
)


def run(*argv):
    return main(list(argv))


def test_qchar_a1(tmp_path, capsys):
    out = tmp_path / "a1.json"
    assert run("qchar", "--type", "A1", "--node", "1", "--out", str(out)) == 0
    text = capsys.readouterr().out
    assert "monomials : 2" in text
    payload = json.loads(out.read_text())
    assert payload["conventions"] == CONVENTIONS_VERSION
    assert len(payload["entries"]) == 2


def test_qchar_a2(capsys):
    assert run("qchar", "--type", "A2", "--node", "1") == 0
    assert "monomials : 3" in capsys.readouterr().out


def test_unknown_type_is_usage_error(capsys):
    assert run("qchar", "--type", "X9", "--node", "1") == 1


def test_bad_flag_is_usage_error():
    assert run("qchar", "--type") == 1


def test_extremal_check_exit_codes(tmp_path):
    report = tmp_path / "report.json"
    assert run(
        "extremal-check", "--type", "G2", "--node", "1", "--report", str(report)
    ) == 0
    payload = json.loads(report.read_text())
    assert payload["violations"] == []
    assert payload["proven_subcases"] == {
        "simple_reflections": 0,
        "longest_element": 0,
    }
    assert run("extremal-check", "--type", "A2", "--node", "2") == 0


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
    run("qchar", "--type", "C2", "--node", "1", "--out", str(out1))
    run("qchar", "--type", "C2", "--node", "1", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run("extremal-check", "--type", "B2", "--node", "1", "--report", str(rep1))
    run("extremal-check", "--type", "B2", "--node", "1", "--report", str(rep2))
    assert rep1.read_bytes() == rep2.read_bytes()


def test_braid_orbit_word(capsys):
    assert run(
        "braid-orbit", "--type", "A2", "--node", "1", "--word", "1,2,1"
    ) == 0
    # the inverse image of the anchor under the longest word
    assert "Y[2,3]^-1" in capsys.readouterr().out


def test_braid_orbit_full_group(tmp_path):
    out = tmp_path / "orbit.json"
    assert run(
        "braid-orbit", "--type", "B2", "--node", "1", "--out", str(out)
    ) == 0
    payload = json.loads(out.read_text())
    assert len(payload["orbit"]) == 8


def test_braid_orbit_word_prints_what_the_generator_rule_gives(tmp_path, capsys):
    # random words, non-reduced ones included: the A-vector push prints and
    # writes what S_w^{-1} on Laurent monomials, then factored, gives
    rng = random.Random(7)
    out = tmp_path / "orbit.json"
    for label in ["A2", "B2", "G2", "C3", "D4", "F4"]:
        datum = build_cartan(label)
        for _ in range(12):
            node = rng.choice(datum.nodes)
            word = tuple(rng.choice(datum.nodes) for _ in range(rng.randint(0, 8)))
            text = ",".join(map(str, word))
            assert run("braid-orbit", "--type", label, "--node", str(node),
                       f"--word={text}", "--out", str(out)) == 0
            image = apply_s_word_inverse(datum, word, LaurentMonomial.y(node, 0))
            vec = factor_to_a(datum, node, image)
            assert capsys.readouterr().out == (
                f"braid orbit of Y[{node},0] in {label}\n"
                f"  w = {text or 'e':<16} S_w^-1(psi) = {image!r:<32} v = {vec!r}\n"
            )
            assert out.read_text() == _canonical_json({
                "type": label,
                "node": node,
                "orbit": [{
                    "word": list(word),
                    "monomial": image.to_pairs(),
                    "v": [[i, a, m] for (i, a), m in vec.items()],
                }],
                "conventions": CONVENTIONS_VERSION,
            })


@pytest.mark.parametrize("text", ["1,,2", ",", "1,"])
def test_braid_orbit_word_with_an_empty_part_is_a_usage_error(text, capsys):
    assert run("braid-orbit", "--type", "A2", "--node", "1", f"--word={text}") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: cannot parse word {text!r}\n"


def test_braid_orbit_empty_word_is_the_identity(capsys):
    assert run("braid-orbit", "--type", "A2", "--node", "1", "--word=") == 0
    assert capsys.readouterr().out == (
        "braid orbit of Y[1,0] in A2\n"
        f"  w = {'e':<16} S_w^-1(psi) = {'Y[1,0]':<32} v = AVec[1|0]\n"
    )


def test_braid_orbit_checks_the_weyl_cap_before_any_vertex(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("cone vertices built before the Weyl cap was checked")

    monkeypatch.setattr(cli, "cone_vertices", refuse)
    assert run("braid-orbit", "--type", "F4", "--node", "1", "--cap-w", "1151") == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "resource error: Weyl group of F4 exceeds cap 1151"


POINT_A1 = {
    "field": "F2",
    "type": "A1",
    "v": [[1, 1, 1]],
    "w": [[1, 0, 1]],
    "maps": [{"kind": "A", "from": [1, 0], "to": [1, 1], "matrix": [[1]]}],
}


def _workload_searches():
    """The argv of every search of the quiver-same-sign and quiver-mixed workloads."""
    workloads = perfbench_module("workloads").WORKLOADS
    return [op.args for name in ("quiver-same-sign", "quiver-mixed")
            for group in workloads[name]() for op in group
            if op.args[0] == "quiver-search"]


def test_every_workload_search_is_written_as_its_object_tree(tmp_path, capsys):
    # each point's text comes from one template per search; the object tree
    # of every point, dumped at once, is the oracle
    searches = _workload_searches()
    assert len(searches) == 153
    out = tmp_path / "search.json"
    for argv in searches:
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == search_artifact_oracle(argv), argv
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("--type", "B2", "--v", "1@(1,2),1@(2,2)", "--w", "1@(2,0)"),
    ("--type", "A2", "--v", "", "--w", "1@(1,0),1@(2,1)", "--theta=-1"),
    ("--type", "A2", "--v", "1@(1,1),1@(2,2)", "--w", "1@(1,0),1@(2,1)",
     "--field", "F3", "--theta=1,-2"),
], ids=["no theta", "empty v", "F3"])
def test_a_search_is_written_as_its_object_tree(tmp_path, argv):
    out = tmp_path / "search.json"
    assert run("quiver-search", *argv, "--out", str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert text == search_artifact_oracle(["quiver-search", *argv])
    # one verdict per point with a theta, "stable": [] without
    verdicts = 1 if any(arg.startswith("--theta") for arg in argv) else 0
    points = json.loads(text)["points"]
    assert points and all(len(point["stable"]) == verdicts for point in points)


# each fault a point file was once read past, with exit 0: an inexact value
# read as an int or a float, a rational string that is not "p/q", or a
# repeated slot overwritten.  The error must name the entry.
@pytest.mark.parametrize("field, v, w, value, named", [
    ("F2", [[1, 1, 1]], [[1, 0, 1]], 1.5, "1.5"),
    ("Q", [[1, 1, 1]], [[1, 0, 1]], 0.1, "0.1"),
    ("Q", [[1, 1, 1]], [[1, 0, 1]], " 1_0/+3", "1_0/+3"),
    ("F2", [[1, 1, 1.7]], [[1, 0, 1]], 1, "[1, 1, 1.7]"),
    ("F2", [[1, 1, 1]], [[1, 0, 1]], True, "True"),
    ("F2", [[1, 1, True]], [[1, 0, 1]], 1, "[1, 1, True]"),
    ("F2", [[1, 1, 1], [1, 1, 1]], [[1, 0, 1]], 1, "repeats the slot (1, 1)"),
    ("F2", [[1, 1, 1]], [[1, 0, 1], [1, 0, 1]], 1, "repeats the slot (1, 0)"),
], ids=["fraction over F2", "float over Q", "loose p/q over Q", "fractional dim",
        "true entry", "true dim", "repeated v slot", "repeated w slot"])
def test_point_file_with_an_inexact_value_is_usage_error(
        tmp_path, capsys, field, v, w, value, named):
    point = tmp_path / "point.json"
    point.write_text(json.dumps(dict(POINT_A1, field=field, v=v, w=w, maps=[
        dict(POINT_A1["maps"][0], matrix=[[value]])])))
    for command in (("quiver-check",), ("quiver-reflect", "--node", "1", "--theta=-1")):
        assert run(*command, str(point)) == 1, command
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err, command


def test_a_deeply_nested_point_file_is_usage_error(tmp_path, capsys):
    # json.load gives up on the nesting with a RecursionError
    point = tmp_path / "point.json"
    point.write_text("[" * 100_000 + "]" * 100_000)
    for command in (("quiver-check",), ("quiver-reflect", "--node", "1", "--theta=-1")):
        assert run(*command, str(point)) == 1, command
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot read point file {point}: "
                              "RecursionError(") and err.count("\n") == 1, command


@pytest.mark.parametrize("flag, slot", [("--v", "(1, 1)"), ("--w", "(1, 0)")])
def test_a_slot_repeated_in_a_dims_flag_is_usage_error(capsys, flag, slot):
    # as in a point file: a slot typed twice is not one slot of the summed dim
    dims = {"--v": "1@(1,1)", "--w": "1@(1,0)"}
    dims[flag] += "," + dims[flag]
    assert run("quiver-search", "--type", "A1", "--v", dims["--v"],
               "--w", dims["--w"]) == 1
    err = capsys.readouterr().err
    assert f"repeats the slot {slot}" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--v", "--w"])
@pytest.mark.parametrize("text", [",", "1@(1,1),", "1@(1,1),,1@(2,2)"])
def test_an_empty_part_in_a_dims_flag_is_usage_error(capsys, flag, text):
    dims = {"--v": "1@(1,1)", "--w": "1@(1,0)", flag: text}
    assert run("quiver-search", "--type", "A2", "--v", dims["--v"],
               "--w", dims["--w"], "--theta=-1") == 1
    err = capsys.readouterr().err
    assert err == f"usage error: empty dimension entry in {text!r}\n"


@pytest.mark.parametrize("flag", ["--v", "--w"])
@pytest.mark.parametrize("slot", [0, 2])
def test_a_number_past_the_int_digit_limit_in_a_dims_flag_is_usage_error(
        capsys, flag, slot):
    # int() refuses more than 4300 digits; the entry is still one n@(i,a)
    entry = ["1", "1", "0" if flag == "--w" else "1"]
    entry[slot] = "9" * 5000
    dims = {"--v": "1@(1,1)", "--w": "1@(1,0)",
            flag: "{}@({},{})".format(*entry)}
    assert run("quiver-search", "--type", "A2", "--v", dims["--v"],
               "--w", dims["--w"]) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: cannot parse dimension entry {dims[flag]!r}\n"


def test_blank_dims_are_no_entries():
    assert cli.parse_dims("") == cli.parse_dims("  ") == {}


def test_dims_split_as_by_parenthesis_depth():
    # parse_dims splits its text with one regex; on a fixed sample of texts,
    # entries and runs of stray characters joined by commas, it reads the
    # dims that splitting by parenthesis depth reads and refuses the texts
    # that it refuses
    rng = random.Random(0)

    def part():
        if rng.random() < 0.6:
            return f"{rng.randint(0, 3)}@( {rng.randint(1, 2)},{rng.randint(-2, 2)})"
        return "".join(rng.choice("1@(),- ") for _ in range(rng.randint(0, 6)))

    outcomes = Counter()
    for _ in range(4000):
        text = ",".join(part() for _ in range(rng.randint(1, 4)))
        try:
            dims = cli.parse_dims(text)
        except cli._UsageError:
            dims = None
        assert dims == parse_dims_by_depth(text), text
        outcomes["refused" if dims is None else len(dims)] += 1
    assert outcomes["refused"] and all(outcomes[n] for n in range(1, 5))


def test_quiver_search_over_q_is_usage_error(capsys):
    assert run("quiver-search", "--type", "A1", "--v", "1@(1,1)",
               "--w", "1@(1,0)", "--field", "Q") == 1
    err = capsys.readouterr().err
    assert "needs a finite field" in err and "Traceback" not in err


@pytest.mark.parametrize("theta", ["-1,-1", "-1,-1,-1"])
def test_theta_with_the_wrong_number_of_entries_is_usage_error(
        tmp_path, capsys, theta):
    # A1 takes 1 entry, A2 takes 1 or 2
    point = tmp_path / "point.json"
    point.write_text(json.dumps(POINT_A1))
    assert run("quiver-reflect", "--node", "1", f"--theta={theta}",
               str(point)) == 1
    assert run("quiver-search", "--type", "A2", "--v", "1@(1,1)",
               "--w", "1@(1,0)", f"--theta={theta},-1") == 1
    err = capsys.readouterr().err.splitlines()
    count = len(theta.split(","))
    assert err[0] == f"usage error: theta needs 1 entry, got {count}"
    assert err[1] == f"usage error: theta needs 1 or 2 entries, got {count + 1}"


@pytest.mark.parametrize("command", ["quiver-search", "quiver-reflect"])
def test_an_exponent_in_theta_is_usage_error(tmp_path, command):
    # Fraction("1e999999999") would compute 10**999999999 before any check,
    # so the refusal runs in a subprocess, where a run that never ends fails
    # on its timeout; decimals and p/q still parse
    point = tmp_path / "point.json"
    point.write_text(json.dumps(POINT_A1))
    argv = {
        "quiver-search": ("quiver-search", "--type", "A1", "--v", "1@(1,1)",
                          "--w", "1@(1,0)"),
        "quiver-reflect": ("quiver-reflect", str(point), "--node", "1"),
    }[command]
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "qcharlab.cli", *argv, "--theta=1e999999999"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=30)
    assert done.returncode == 1
    assert done.stderr == "usage error: cannot parse theta '1e999999999'\n"
    assert run(*argv, "--theta=-1.5") == run(*argv, "--theta=-3/2") == 0


def test_quiver_check(tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps(POINT_A1))
    assert run("quiver-check", str(point)) == 0


# POINT_A1 with a second slot and an arrow into it, which fails relation E4
POINT_A1_FAILING_E4 = dict(
    POINT_A1, v=[[1, 1, 1], [1, -1, 1]], maps=POINT_A1["maps"] + [
        {"kind": "arrow", "from": [1, 1], "to": [1, -1], "matrix": [[1]]}
    ])


def test_quiver_check_flags_violations(tmp_path, capsys):
    point = tmp_path / "bad.json"
    point.write_text(json.dumps(POINT_A1_FAILING_E4))
    assert run("quiver-check", str(point)) == 3
    assert "E4" in capsys.readouterr().out


def test_quiver_reflect(tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text(json.dumps(POINT_A1))
    out = tmp_path / "reflected.json"
    assert run(
        "quiver-reflect", "--node", "1", "--theta", "-1", str(point),
        "--out", str(out),
    ) == 0
    text = capsys.readouterr().out
    assert "new dims v: []" in text
    payload = json.loads(out.read_text())
    assert payload["v"] == [] and payload["theta_bar"] == ["1"]


def test_quiver_reflect_of_an_invalid_point_is_violation(tmp_path, capsys):
    point, out = tmp_path / "bad.json", tmp_path / "reflected.json"
    point.write_text(json.dumps(POINT_A1_FAILING_E4))
    assert run("quiver-reflect", "--node", "1", "--theta=-1", str(point),
               "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("violation: input point invalid: E4")
    assert not out.exists()


def test_quiver_reflect_unstable_is_violation(tmp_path, capsys):
    bad = dict(POINT_A1)
    bad["maps"] = []
    point = tmp_path / "unstable.json"
    point.write_text(json.dumps(bad))
    assert run("quiver-reflect", "--node", "1", "--theta", "-1", str(point)) == 3
    # theta as the --theta text writes it, not as a tuple of Fractions
    assert capsys.readouterr().err.splitlines() == [
        "violation: input point is not stable for -1"]


def test_quiver_reflect_theta_list(tmp_path, capsys):
    point = tmp_path / "b2.json"
    point.write_text(json.dumps({
        "field": "F2", "type": "B2", "v": [[1, 1, 1]], "w": [[1, 0, 1]],
        "maps": [{"kind": "A", "from": [1, 0], "to": [1, 1], "matrix": [[1]]}],
    }))
    assert run("quiver-reflect", "--node", "1", "--theta=-1,-2", str(point)) == 0
    assert "('1', '-3')" in capsys.readouterr().out


def test_quiver_reflect_over_q_needs_trusted(tmp_path, capsys):
    point = tmp_path / "q.json"
    rational = dict(POINT_A1)
    rational["field"] = "Q"
    point.write_text(json.dumps(rational))
    # stability is decided over Q too, so the point reflects with no flag,
    # and --trusted is an unknown flag
    assert run("quiver-reflect", "--node", "1", "--theta", "-1", str(point)) == 0
    assert "new dims v: []" in capsys.readouterr().out
    assert run("quiver-reflect", "--node", "1", "--theta", "-1", "--trusted",
               str(point)) == 1
    assert "--trusted" in capsys.readouterr().err


def test_quiver_search(tmp_path, capsys):
    out = tmp_path / "search.json"
    assert run(
        "quiver-search", "--type", "A2", "--v", "1@(1,1),1@(2,2)",
        "--w", "1@(1,0)", "--theta", "-1", "--out", str(out),
    ) == 0
    text = capsys.readouterr().out
    assert "points satisfying relations: 4" in text
    assert "theta-stable points        : 1" in text
    payload = json.loads(out.read_text())
    assert sum(1 for p in payload["points"] if all(p["stable"])) == 1


def test_search_cap_is_resource_error():
    assert run(
        "quiver-search", "--type", "A2", "--v", "3@(1,0),3@(1,2),3@(2,1)",
        "--w", "", "--cap-entries", "5",
    ) == 2


def test_config_file_supplies_flags(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# a run\ntype = A1\nnode = 1\n")
    assert run("qchar", "--config", str(config)) == 0
    assert "monomials : 2" in capsys.readouterr().out


def test_flags_override_config(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("type = A1\nnode = 1\n")
    assert run("qchar", "--type", "A2", "--config", str(config)) == 0
    assert "monomials : 3" in capsys.readouterr().out


def test_missing_type_is_usage_error():
    assert run("qchar", "--node", "1") == 1


def test_nonpositive_cap_is_usage_error():
    assert run("qchar", "--type", "A1", "--node", "1",
               "--cap-monomials", "0") == 1


_RUN_CAPS = ("cap_monomials", "cap_height", "cap_w")
# every subcommand that takes a cap: a name, its argv, artifact flag and caps
_CAPPED_COMMANDS = [
    # qchar builds no Weyl group, so it takes only the closure caps
    ("qchar", ("qchar", "--type", "A2", "--node", "1"), "--out",
     ("cap_monomials", "cap_height")),
    ("extremal-check", ("extremal-check", "--type", "A2", "--node", "1"),
     "--report", _RUN_CAPS),
    # braid-orbit computes no q-character, so it takes only the Weyl cap
    ("braid-orbit", ("braid-orbit", "--type", "A2", "--node", "1"), "--out",
     ("cap_w",)),
    ("braid-orbit-word", ("braid-orbit", "--type", "A2", "--node", "1",
                          "--word", "1"), "--out", ("cap_w",)),
    ("quiver-search", ("quiver-search", "--type", "A2", "--v", "1@(1,1)",
                       "--w", "1@(1,0)"), "--out", ("cap_entries",)),
]
# a config file gives the same caps as flags; quiver-search reads no config file.
# qchar and braid-orbit are also given the run caps they do not take, which
# they must refuse by name
_CAP_CASES = [
    pytest.param(command, out_flag, cap, source, cap in caps,
                 id=f"{name}-{cap}-{source}")
    for name, command, out_flag, caps in _CAPPED_COMMANDS
    for cap in (caps if name == "quiver-search" else _RUN_CAPS)
    for source in (("flag", "config") if cap in _RUN_CAPS else ("flag",))
]


@pytest.mark.parametrize("value", ["0", "-3", "x"])
@pytest.mark.parametrize("command, out_flag, cap, source, taken", _CAP_CASES)
def test_every_cap_must_be_a_positive_integer(tmp_path, capsys, command,
                                              out_flag, cap, source, taken,
                                              value):
    out = tmp_path / "artifact.json"
    flag = f"--{cap.replace('_', '-')}"
    argv = [*command, out_flag, str(out)]
    if source == "flag":
        argv += [flag, value]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"{cap} = {value}\n")
        argv += ["--config", str(config)]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    if taken:
        # the message names the flag, also when the value came from the file
        assert err.startswith(f"usage error: argument {flag}:")
    else:
        assert (flag if source == "flag" else repr(cap)) in err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["cap_monomials", "cap_height"])
def test_braid_orbit_takes_no_closure_setting(tmp_path, capsys, setting):
    # valid values, refused because braid-orbit computes no q-character
    out = tmp_path / "orbit.json"
    command = ("braid-orbit", "--type", "A2", "--node", "1", "--out", str(out))
    flag = f"--{setting.replace('_', '-')}"
    assert run(*command, flag, "64") == 1
    assert flag in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(f"{setting} = 64\n")
    assert run(*command, "--config", str(config)) == 1
    assert repr(setting) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, out_flag", [
    ("qchar", "--out"), ("extremal-check", "--report"), ("braid-orbit", "--out"),
], ids=["qchar", "extremal-check", "braid-orbit"])
def test_there_is_no_cache_dir_setting(tmp_path, capsys, command, out_flag):
    # every q-character is computed; no flag or config key names a cache
    cache, out = tmp_path / "cache", tmp_path / "artifact.json"
    argv = (command, "--type", "A2", "--node", "1", out_flag, str(out))
    assert run(*argv, "--cache-dir", str(cache)) == 1
    assert "--cache-dir" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(f"cache_dir = {cache}\n")
    assert run(*argv, "--config", str(config)) == 1
    assert "'cache_dir'" in capsys.readouterr().err
    assert not out.exists() and not cache.exists()


def test_qchar_takes_no_weyl_cap(tmp_path, capsys):
    # a valid value, refused because qchar builds no Weyl group
    out = tmp_path / "qchar.json"
    command = ("qchar", "--type", "A2", "--node", "1", "--out", str(out))
    assert run(*command, "--cap-w", "1") == 1
    assert "--cap-w" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text("cap_w = 1\n")
    assert run(*command, "--config", str(config)) == 1
    assert "'cap_w'" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("type = A2\nnode = 1\ncap_hieght = 1\n")
    assert run("qchar", "--config", str(config)) == 1
    assert "cap_hieght" in capsys.readouterr().err


def test_point_file_with_contradicting_maps_is_usage_error(tmp_path, capsys):
    # the A map stored at (1, 0) must end at (1, 0 + d_1) = (1, 1)
    bad = json.loads(json.dumps(POINT_A1))
    bad["maps"][0]["to"] = [1, 3]
    point = tmp_path / "bad.json"
    point.write_text(json.dumps(bad))
    assert run("quiver-check", str(point)) == 1
    assert "contradicts its key" in capsys.readouterr().err
    # an arrow whose "to" grade disagrees with its key (1, 1, 1)
    bad = json.loads(json.dumps(POINT_A1))
    bad["v"] = [[1, 1, 1], [1, -1, 1]]
    bad["maps"].append(
        {"kind": "arrow", "from": [1, 1], "to": [1, 0], "matrix": [[1]]}
    )
    point.write_text(json.dumps(bad))
    assert run("quiver-check", str(point)) == 1
    assert "contradicts its key" in capsys.readouterr().err
    # two maps stored under one key
    bad = json.loads(json.dumps(POINT_A1))
    bad["maps"].append(dict(bad["maps"][0], matrix=[[0]]))
    point.write_text(json.dumps(bad))
    assert run("quiver-check", str(point)) == 1
    assert "two A maps" in capsys.readouterr().err


def test_cap_diagnostics_go_to_stderr(tmp_path, capsys):
    out = tmp_path / "q.json"
    assert run("qchar", "--type", "A2", "--node", "1", "--cap-height", "1",
               "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("resource error: height cap 1")
    assert err[1] == "  height=2 monomials=2"
    assert not out.exists()


def test_running_out_of_memory_is_resource_error(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    point = tmp_path / "point.json"
    point.write_text(json.dumps(POINT_A1))
    out = tmp_path / "out.json"
    for kernel, argv in [
        ("fm_qchar", ("qchar", "--type", "A2", "--node", "1")),
        ("reflect", ("quiver-reflect", "--node", "1", "--theta=-1", str(point))),
    ]:
        monkeypatch.setattr(cli, kernel, exhausted)
        assert run(*argv, "--out", str(out)) == 2, kernel
        err = capsys.readouterr().err
        assert err == "resource error: out of memory\n", kernel
        assert not out.exists(), kernel


def test_weyl_cap_below_the_group_order_is_resource_error(tmp_path, capsys):
    report = tmp_path / "r.json"
    for command in (["extremal-check", "--report", str(report)], ["braid-orbit"]):
        assert run(*command, "--type", "F4", "--node", "1",
                   "--cap-w", "1151") == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "resource error: Weyl group of F4 exceeds cap 1151"
        assert err[1] == "  cap=1151"
    assert not report.exists()
    assert run("extremal-check", "--type", "F4", "--node", "1",
               "--cap-w", "1152") == 0


def test_default_weyl_cap_walks_e6_and_stops_at_e7(capsys):
    # the default cap is |W(E6)|
    assert run("extremal-check", "--type", "E6", "--node", "1") == 0
    assert "group order    : 51840" in capsys.readouterr().out
    assert run("braid-orbit", "--type", "E7", "--node", "7") == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "resource error: Weyl group of E7 exceeds cap 51840"


def test_extremal_check_prints_violations_and_exits_3(tmp_path, monkeypatch,
                                                      capsys):
    # the negative control of test_extremal: an A1 character with a monomial
    # injected, which s_1 pushes out of the cone
    real = cli.fm_qchar

    def corrupted(datum, node, *args, **kwargs):
        q = real(datum, node, *args, **kwargs)
        return QChar(datum, node, {**q.entries, AMonomialVector(node, {(1, 3): 1}): 1})

    monkeypatch.setattr(cli, "fm_qchar", corrupted)
    report = tmp_path / "report.json"
    assert run("extremal-check", "--type", "A1", "--node", "1",
               "--report", str(report)) == 3
    out = capsys.readouterr().out.splitlines()
    assert "  violations     : 1" in out
    assert out[-1] == "  VIOLATION word=[1] vector=AVec[1|(1,3):1] at ((1, 1),)"
    assert len(json.loads(report.read_text())["violations"]) == 1


def test_extremal_check_computes_the_qchar_once(tmp_path, monkeypatch):
    from qcharlab import qchar as qchar_module

    calls = []
    real = qchar_module.fm_qchar

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "fm_qchar", None) is real:
            monkeypatch.setattr(module, "fm_qchar", counting)
    assert run("extremal-check", "--type", "B2", "--node", "1",
               "--report", str(tmp_path / "report.json")) == 0
    assert len(calls) == 1


def test_config_file_caps_are_honoured(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("type = A2\nnode = 1\ncap_height = 1\n")
    assert run("qchar", "--config", str(config)) == 2
    assert "height cap 1" in capsys.readouterr().err
    # an explicit flag still wins over the file
    assert run("qchar", "--config", str(config), "--cap-height", "64") == 0
    config.write_text("type = A2\nnode = 1\ncap_w = many\n")
    assert run("qchar", "--config", str(config)) == 1


def test_qchar_writes_no_json_object_tree(tmp_path, monkeypatch):
    # the artifact is written from one canonical text, so json.dumps only
    # ever escapes the few strings around it
    handed = []
    real = json.dumps

    def recording(obj, *args, **kwargs):
        handed.append(type(obj))
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", recording)
    assert run("qchar", "--type", "B3", "--node", "1",
               "--out", str(tmp_path / "b3.json")) == 0
    assert handed and set(handed) == {str}


def test_a_config_file_does_not_leak_into_later_runs(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("type = A2\nnode = 1\ncap_height = 1\n")
    assert run("qchar", "--config", str(config)) == 2
    assert "height cap 1" in capsys.readouterr().err
    assert run("qchar", "--type", "A2", "--node", "1") == 0
    assert "monomials : 3" in capsys.readouterr().out


def test_a_bad_config_value_is_a_usage_error_under_a_flag_too(tmp_path, capsys):
    # the file's values are checked as flags are, whether or not a flag wins
    config = tmp_path / "run.cfg"
    config.write_text("type = A2\nnode = 1\ncap_height = 0\n")
    assert run("qchar", "--config", str(config), "--cap-height", "5") == 1
    assert "--cap-height" in capsys.readouterr().err


def test_the_parser_is_built_once_on_the_first_call(tmp_path):
    # not at import, where it would count as set-up time, and not per call
    script = (
        "from qcharlab import cli\n"
        "assert cli._build_parser.cache_info().misses == 0\n"
        "for node in ('1', '2'):\n"
        "    assert cli.main(['qchar', '--type', 'A2', '--node', node]) == 0\n"
        "assert cli._build_parser.cache_info().misses == 1\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory):
    # one python -S process: -S keeps site-packages off sys.path, so a
    # third-party import fails; the modules loaded after the import of
    # qcharlab.cli and after one run of main are read back as JSON
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        f"import json, sys; sys.path.insert(0, {src!r}); from qcharlab.cli import main\n"
        "imported = sorted(sys.modules)\n"
        "rc = main(['qchar', '--type', 'A2', '--node', '1'])\n"
        "print(json.dumps([imported, rc, sorted(sys.modules)]))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          cwd=tmp_path_factory.mktemp("imports"),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    imported, rc, ran = json.loads(done.stdout.splitlines()[-1])
    assert rc == 0
    return set(imported), set(ran)


def test_a_run_loads_only_the_standard_library(loaded_modules):
    _, ran = loaded_modules
    outside = sorted(name for name in ran if name.split(".")[0]
                     not in sys.stdlib_module_names | {"__main__", "qcharlab"})
    assert outside == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect(loaded_modules):
    # both are standard but cost start-up time
    imported, ran = loaded_modules
    assert {"dataclasses", "inspect"} & imported == set()
    assert {"dataclasses", "inspect"} & ran == set()


def test_a_run_loads_no_shutil(loaded_modules):
    # argparse's stock formatter imports shutil (bz2, lzma, fnmatch) for
    # the terminal width; the parser's own formatter reads it without
    _, ran = loaded_modules
    assert "shutil" not in ran


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_help_reads_as_with_the_stock_formatter(columns, monkeypatch, capsys):
    import argparse

    monkeypatch.setenv("COLUMNS", columns)
    parser, commands = cli._build_parser.__wrapped__()
    for name, stock in [(None, parser), *commands.items()]:
        with pytest.raises(SystemExit):
            main(["--help"] if name is None else [name, "--help"])
        stock.formatter_class = argparse.HelpFormatter
        assert capsys.readouterr().out == stock.format_help(), (columns, name)


@pytest.mark.parametrize("columns", [None, "0", "-3", "wide", "123"])
def test_the_help_width_is_the_one_shutil_reads(columns, monkeypatch):
    import shutil

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert cli._terminal_columns() == shutil.get_terminal_size().columns


def _records():
    from qcharlab.cartan import weyl_elements
    from qcharlab.extremal import ConeViolation, TheoremSummary
    from qcharlab.quiver import RelationViolation, SearchPoint

    datum = build_cartan("A2")
    return [
        (datum, "label"),
        (weyl_elements(datum)[1], "word"),
        (ConeViolation((1,), AMonomialVector(1, {}), (), ()), "vector"),
        (TheoremSummary("A2", 1, 3, 6, 6, [], 0, 0, 0), "violations"),
        (RelationViolation("E2", 1, 2, 3), "relation"),
        (SearchPoint(None, (True,)), "stable"),
    ]


@pytest.mark.parametrize("record, field", _records(),
                         ids=lambda r: r if isinstance(r, str) else type(r).__name__)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_bad_node_word_and_theta_are_usage_errors(tmp_path, capsys):
    assert run("qchar", "--type", "A2", "--node", "3") == 1
    assert run("braid-orbit", "--type", "A2", "--node", "1", "--word", "1,x") == 1
    assert run("braid-orbit", "--type", "A2", "--node", "1", "--word", "1,3") == 1
    point = tmp_path / "point.json"
    point.write_text(json.dumps(POINT_A1))
    assert run("quiver-reflect", "--node", "2", "--theta", "-1", str(point)) == 1
    assert run("quiver-reflect", "--node", "1", "--theta", "1/0", str(point)) == 1
    a2_point = tmp_path / "a2.json"
    a2_point.write_text(json.dumps(dict(POINT_A1, type="A2")))
    capsys.readouterr()
    # a theta on a root hyperplane (0, or -1 + 1 on alpha_1 + alpha_2), and
    # a nonnegative theta at the reflected node
    for argv in [
        ("quiver-reflect", "--node", "1", "--theta=1", str(point)),
        ("quiver-reflect", "--node", "1", "--theta=0", str(point)),
        ("quiver-reflect", "--node", "1", "--theta=1,-2", str(a2_point)),
        ("quiver-reflect", "--node", "1", "--theta=1,-1", str(a2_point)),
        ("quiver-reflect", "--node", "1", "--theta=-1,1", str(a2_point)),
        ("quiver-search", "--type", "A2", "--v", "1@(1,1)", "--w", "1@(1,0)",
         "--theta=-1,1"),
    ]:
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "Traceback" not in err, argv


_LETTERS = st.text(alphabet=string.ascii_letters, min_size=1, max_size=6)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers())


@st.composite
def _malformed_point(draw):
    """The text of a point file that is wrong in exactly one way."""
    point = json.loads(json.dumps(POINT_A1))
    fault = draw(st.sampled_from([
        "not json", "missing key", "scalar", "type", "field", "node",
        "negative dim", "dim entry", "shape", "matrix value", "map kind",
    ]))
    if fault == "not json":
        return draw(st.one_of(st.text(max_size=20), st.binary(max_size=20)))
    if fault == "missing key":
        del point[draw(st.sampled_from(["field", "type", "v", "w"]))]
    elif fault == "scalar":
        point[draw(st.sampled_from(["v", "w", "maps"]))] = draw(_SCALARS)
    elif fault == "type":
        point["type"] = draw(st.one_of(_LETTERS, _SCALARS))
    elif fault == "field":
        point["field"] = draw(st.one_of(_LETTERS.filter(lambda t: t != "Q"), _SCALARS))
    elif fault == "node":
        # POINT_A1 lives in type A1, whose only node is 1
        node = draw(st.integers(-3, 9).filter(lambda i: i != 1))
        where = draw(st.sampled_from(["v", "w", "maps"]))
        if where == "maps":
            point["maps"][0]["from"][0] = node
        else:
            point[where].append([node, 0, draw(st.integers(0, 2))])
    elif fault == "negative dim":
        point["v"][0][2] = draw(st.integers(max_value=-1))
    elif fault == "dim entry":
        point["v"][0] = draw(st.lists(st.integers(), max_size=5).filter(
            lambda entry: len(entry) != 3))
    elif fault == "shape":
        point["maps"][0]["matrix"] = draw(st.sampled_from(
            [[], [[]], [[1, 0]], [[1], [0]]]))
    elif fault == "matrix value":
        point["maps"][0]["matrix"] = [[draw(st.one_of(
            _LETTERS, st.none(), st.lists(st.integers(), max_size=2)))]]
    else:
        point["maps"][0]["kind"] = draw(_LETTERS.filter(
            lambda t: t not in ("arrow", "A", "B")))
    return json.dumps(point)


@st.composite
def _malformed_dims(draw):
    """A quiver-search type with --v/--w texts, one of them malformed."""
    label, rank = draw(st.sampled_from([("A2", 2), ("B2", 2), ("A3", 3)]))
    grade = st.integers(-4, 4)
    good = st.builds("{}@({},{})".format, st.integers(0, 2),
                     st.integers(1, rank), grade)
    bad = st.one_of(
        # no comma, so it can never be a whole n@(i,a) entry
        st.text(alphabet="0123456789@()- x", min_size=1, max_size=8).filter(
            str.strip),
        st.builds("{}@({},{})".format, st.integers(0, 2),
                  st.integers(-3, 9).filter(lambda i: not 1 <= i <= rank), grade),
    )
    chunks = draw(st.lists(good, max_size=3))
    chunks.insert(draw(st.integers(0, len(chunks))), draw(bad))
    malformed = ",".join(chunks)
    other = ",".join(draw(st.lists(good, max_size=2)))
    v, w = (malformed, other) if draw(st.booleans()) else (other, malformed)
    return label, v, w


def _run_quietly(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(*argv)
    assert "Traceback" not in err.getvalue()
    return code


@settings(deadline=None)
@given(text=_malformed_point(), command=st.sampled_from([
    ("quiver-check",),
    ("quiver-reflect", "--node", "1", "--theta", "-1"),
]))
def test_malformed_point_files_are_usage_errors(tmp_path_factory, text, command):
    path = tmp_path_factory.mktemp("point") / "point.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert _run_quietly(*command, str(path)) in (1, 2)


@settings(deadline=None)
@given(case=_malformed_dims())
def test_malformed_dims_are_usage_errors(case):
    label, v, w = case
    assert _run_quietly("quiver-search", "--type", label, "--v", v,
                        "--w", w) in (1, 2)


def _parses_as_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


# every subcommand, with the config keys it takes; the quiver ones take no
# --config at all.  The argv is complete but for --type/--node.
_CONFIG_TAKERS = {
    "qchar": (("qchar",), ("type", "node", "cap_monomials", "cap_height")),
    "extremal-check": (("extremal-check",), ("type", "node", "cap_monomials",
                                             "cap_height", "cap_w")),
    "braid-orbit": (("braid-orbit",), ("type", "node", "cap_w")),
    "quiver-check": (("quiver-check", "point.json"), ()),
    "quiver-reflect": (("quiver-reflect", "point.json", "--node", "1",
                        "--theta", "-1"), ()),
    "quiver-search": (("quiver-search", "--type", "A2", "--v", "1@(1,1)",
                       "--w", "1@(1,0)"), ()),
}
_CAPS = ("cap_monomials", "cap_height", "cap_w")
# one config line: no line breaks, so a drawn value never starts a new line
_LINE = st.text(alphabet=st.characters(blacklist_characters="\r\n",
                                       blacklist_categories=("Cs",)),
                max_size=12)


@st.composite
def _malformed_config(draw):
    """A subcommand's argv and a config file with one fault, as bytes."""
    command = draw(st.sampled_from(sorted(_CONFIG_TAKERS)))
    argv, takes = _CONFIG_TAKERS[command]
    values = {"type": "A2", "node": "1"}
    extra = []
    fault = draw(st.sampled_from(["json", "no equals", "bad bytes", "type",
                                  "node", "cap value", "key not taken"]))
    if fault == "json":
        obj = draw(st.dictionaries(st.sampled_from(["type", "node", *_CAPS]),
                                   st.one_of(_SCALARS, _LETTERS), max_size=3))
        text = json.dumps(obj, indent=draw(st.sampled_from([None, 2])))
        extra.extend(text.splitlines())
    elif fault == "no equals":
        extra.append(draw(_LINE.filter(
            lambda t: "=" not in t and t.strip()
            and not t.strip().startswith("#"))))
    elif fault == "bad bytes":
        extra.append(draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80"])))
    elif fault == "type":
        values["type"] = draw(st.one_of(
            _LETTERS, st.sampled_from(["A0", "E9", "G3", "A2.5", ""])))
    elif fault == "node":
        # A2 has nodes 1 and 2
        values["node"] = draw(st.one_of(
            st.integers().filter(lambda i: i not in (1, 2)).map(str),
            _LINE.filter(lambda t: not _parses_as_int(t))))
    elif fault == "cap value":
        values[draw(st.sampled_from(_CAPS))] = draw(st.one_of(
            st.integers(max_value=0).map(str),
            _LINE.filter(lambda t: not _parses_as_int(t))))
    else:
        others = [key for key in ("type", "node", *_CAPS)
                  if key not in takes]
        name = draw(st.one_of(st.sampled_from(others or ["cap_entries"]),
                              st.sampled_from(["cap_entries", "field", "word",
                                               "theta", "out"])))
        extra.append(f"{name.replace('_', draw(st.sampled_from(['_', '-'])))}"
                     f" = {draw(st.integers(1, 9))}")
    lines = [f"{key} = {value}" for key, value in values.items()]
    lines += draw(st.lists(st.sampled_from(["", "# a comment"]), max_size=2))
    for line in extra:
        lines.insert(draw(st.integers(0, len(lines))), line)
    data = b"".join((line if isinstance(line, bytes) else line.encode()) + b"\n"
                    for line in lines)
    return argv, data


@settings(deadline=None)
@given(case=_malformed_config())
def test_malformed_config_files_are_usage_errors(tmp_path_factory, case):
    argv, data = case
    path = tmp_path_factory.mktemp("config") / "run.cfg"
    path.write_bytes(data)
    assert _run_quietly(*argv, "--config", str(path)) == 1

