import contextlib
import hashlib
import io
import json
import os
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcharlab.cli import main
from qcharlab.conventions import CONVENTIONS_VERSION


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


# sha256 of qchar --out as written when the closure expanded every monomial;
# the key's third element holds any extra qchar arguments
QCHAR_ARTIFACTS = {
    ("C8", 3, ()): "81f8f640782dd002a960b1ff429e6daa5d6c5e36c5b7aa3f8eabf23060099c75",
    ("D8", 4, ()): "25021b5358c92d8ab5ccc5b245de8f4b5a6d22d1ca95bc3edae4bd6ce7d4bb93",
    ("E6", 4, ()): "e6808e64b854bc8fb082897b014a20b42916627c6a4b77d520d69ea7186a2091",
    ("E7", 6, ()): "9e5c4ee7a62f7d9ca79a13b152a6c7587ada5515168564d52f923ca26c94de75",
    ("E8", 1, ("--cap-height", "92")):
        "588c9eac8cdf694dee20e8d0398db57224b81838caa5bb82c6369c92ca76f873",
}
QCHAR_CASES = sorted(QCHAR_ARTIFACTS)


@pytest.mark.parametrize(
    "label,node,extra",
    QCHAR_CASES,
    ids=[f"{label}-{node}{''.join(extra)}" for label, node, extra in QCHAR_CASES],
)
def test_qchar_bytes_are_pinned(tmp_path, label, node, extra):
    out = tmp_path / "qchar.json"
    assert run(
        "qchar", "--type", label, "--node", str(node), *extra, "--out", str(out)
    ) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == QCHAR_ARTIFACTS[label, node, extra]


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


def test_corrupted_cache_is_resource_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert run(
        "qchar", "--type", "A2", "--node", "1", "--cache-dir", str(cache)
    ) == 0
    (cached,) = list(cache.iterdir())
    text = cached.read_text()
    assert '"mu":1' in text
    cached.write_text(text.replace('"mu":1', '"mu":2', 1))
    assert run(
        "qchar", "--type", "A2", "--node", "1", "--cache-dir", str(cache)
    ) == 2
    assert "cache" in capsys.readouterr().err


def test_cache_hit_preserves_output(tmp_path):
    cache = tmp_path / "cache"
    out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
    run("qchar", "--type", "B2", "--node", "2", "--cache-dir", str(cache),
        "--out", str(out1))
    run("qchar", "--type", "B2", "--node", "2", "--cache-dir", str(cache),
        "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


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


# sha256 of the B3 node 2 orbit as written when each image was pushed per word
B3_NODE_2_ORBIT = "9de2b4389c765d305f9516e8fa3cf9910ae23003ac0c2f783426a5ece884e413"


def test_braid_orbit_bytes_are_pinned(tmp_path):
    out = tmp_path / "orbit.json"
    assert run(
        "braid-orbit", "--type", "B3", "--node", "2", "--out", str(out)
    ) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == B3_NODE_2_ORBIT


POINT_A1 = {
    "field": "F2",
    "type": "A1",
    "v": [[1, 1, 1]],
    "w": [[1, 0, 1]],
    "maps": [{"kind": "A", "from": [1, 0], "to": [1, 1], "matrix": [[1]]}],
}


# sha256 of a B2 search with loops, arrows and A maps (16 points), and of
# two reflections from A2 node 1 whose images carry B maps and an arrow, as
# written when each map kind serialized its own grading
B2_SEARCH = "0cc171cca0aef76d8f6fc742a91f7ff71e4d9a008a58869b758e3f297ad6a73c"
A2_REFLECTED_AT_1 = "b51eb8b83037f34b66dfdd2fd45096e430c44e59a1b724d5fd9c2e64e68e7e86"
A2_REFLECTED_AT_1_2 = "cfc409653f82133be85af32cec4a857e28018982aec3dd7898bb19d259b8dc39"


def test_quiver_search_and_reflect_bytes_are_pinned(tmp_path):
    out = tmp_path / "search.json"
    assert run("quiver-search", "--type", "B2", "--v",
               "1@(1,2),1@(1,4),1@(2,2),1@(2,4)", "--w", "1@(2,0)",
               "--theta=-1,-1", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == B2_SEARCH
    point = tmp_path / "point.json"
    point.write_text(json.dumps(
        {"field": "F2", "type": "A2", "v": [], "w": [[1, 0, 1]], "maps": []}
    ))
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert run("quiver-reflect", "--node", "1", "--theta=-1,-1", str(point),
               "--out", str(once)) == 0
    assert hashlib.sha256(once.read_bytes()).hexdigest() == A2_REFLECTED_AT_1
    assert run("quiver-reflect", "--node", "2", "--theta=1,-2", str(once),
               "--out", str(twice)) == 0
    assert hashlib.sha256(twice.read_bytes()).hexdigest() == A2_REFLECTED_AT_1_2


def test_quiver_check(tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps(POINT_A1))
    assert run("quiver-check", str(point)) == 0


def test_quiver_check_flags_violations(tmp_path, capsys):
    bad = dict(POINT_A1)
    bad["v"] = [[1, 1, 1], [1, -1, 1]]
    bad["maps"] = POINT_A1["maps"] + [
        {"kind": "arrow", "from": [1, 1], "to": [1, -1], "matrix": [[1]]}
    ]
    point = tmp_path / "bad.json"
    point.write_text(json.dumps(bad))
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


def test_quiver_reflect_unstable_is_violation(tmp_path):
    bad = dict(POINT_A1)
    bad["maps"] = []
    point = tmp_path / "unstable.json"
    point.write_text(json.dumps(bad))
    assert run("quiver-reflect", "--node", "1", "--theta", "-1", str(point)) == 3


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
    assert run("quiver-reflect", "--node", "1", "--theta", "-1", str(point)) == 1
    assert run("quiver-reflect", "--node", "1", "--theta", "-1", "--trusted",
               str(point)) == 0


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


@pytest.mark.parametrize("setting", ["cache_dir", "cap_monomials", "cap_height"])
def test_braid_orbit_takes_no_closure_setting(tmp_path, capsys, setting):
    # valid values, refused because braid-orbit computes no q-character
    cache = tmp_path / "cache"
    value = str(cache) if setting == "cache_dir" else "64"
    out = tmp_path / "orbit.json"
    command = ("braid-orbit", "--type", "A2", "--node", "1", "--out", str(out))
    flag = f"--{setting.replace('_', '-')}"
    assert run(*command, flag, value) == 1
    assert flag in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(f"{setting} = {value}\n")
    assert run(*command, "--config", str(config)) == 1
    assert repr(setting) in capsys.readouterr().err
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


def test_cache_dir_env_override(tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("QCHARLAB_CACHE_DIR", str(cache))
    assert run("qchar", "--type", "A1", "--node", "1") == 0
    assert cache.exists() and list(cache.iterdir())


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("type = A2\nnode = 1\ncap_hieght = 1\n")
    assert run("qchar", "--config", str(config)) == 1
    assert "cap_hieght" in capsys.readouterr().err


def test_cache_dir_flag_then_config_then_env(tmp_path, monkeypatch):
    env, filed, flag = (tmp_path / name for name in ("env", "file", "flag"))
    monkeypatch.setenv("QCHARLAB_CACHE_DIR", str(env))
    config = tmp_path / "run.cfg"
    config.write_text(f"type = A1\nnode = 1\ncache_dir = {filed}\n")
    assert run("qchar", "--config", str(config)) == 0
    assert filed.exists() and not env.exists()
    assert run("qchar", "--config", str(config), "--cache-dir", str(flag)) == 0
    assert flag.exists() and not env.exists()
    config.write_text("type = A1\nnode = 1\n")
    assert run("qchar", "--config", str(config)) == 0
    assert env.exists()


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


# sha256 of the B3 node 2 report as the per-word replay verifier wrote it
B3_NODE_2_REPORT = "86faa0fbc32bbd699512010b22336a3deef02854520b88a438312d7409ee3cae"


def test_extremal_timing_goes_to_stderr_not_the_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run("extremal-check", "--type", "B3", "--node", "2",
               "--report", str(report)) == 0
    captured = capsys.readouterr()
    assert "verify time:" in captured.err
    assert "verify time" not in captured.out
    assert hashlib.sha256(report.read_bytes()).hexdigest() == B3_NODE_2_REPORT


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
    cache = ["--cache-dir", str(tmp_path / "cache")]
    reports = []
    # no cache, a cold cache, then a warm cache that computes nothing
    for extra, expected_calls in [([], 1), (cache, 2), (cache, 2)]:
        reports.append(tmp_path / f"report{len(reports)}.json")
        assert run("extremal-check", "--type", "B2", "--node", "1", *extra,
                   "--report", str(reports[-1])) == 0
        assert len(calls) == expected_calls
    assert len({report.read_bytes() for report in reports}) == 1


def test_config_file_caps_are_honoured(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("type = A2\nnode = 1\ncap_height = 1\n")
    assert run("qchar", "--config", str(config)) == 2
    assert "height cap 1" in capsys.readouterr().err
    # an explicit flag still wins over the file
    assert run("qchar", "--config", str(config), "--cap-height", "64") == 0
    config.write_text("type = A2\nnode = 1\ncap_w = many\n")
    assert run("qchar", "--config", str(config)) == 1


def test_failed_cache_write_leaves_no_file(tmp_path, monkeypatch):
    from qcharlab import cli

    writes = []

    class FailingHandle:
        """A file whose second write fails, after the first has landed."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, text):
            writes.append(text)
            if len(writes) == 2:
                raise OSError("disk full")
            return self.handle.write(text)

    def failing_open(path, mode="r", **kwargs):
        handle = open(path, mode, **kwargs)
        return FailingHandle(handle) if "w" in mode else handle

    cache = tmp_path / "cache"
    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert run("qchar", "--type", "A2", "--node", "1",
               "--cache-dir", str(cache)) == 2
    assert len(writes) == 2  # the write failed partway through the file
    assert list(cache.iterdir()) == []
    monkeypatch.undo()
    # the next run recomputes, writes the cache, and a third run reads it
    for _ in range(2):
        assert run("qchar", "--type", "A2", "--node", "1",
                   "--cache-dir", str(cache)) == 0
    assert len(list(cache.iterdir())) == 1


# sha256 of the cache file for F4 node 3, as written when the cache payload
# was encoded from a JSON object tree
F4_NODE_3_CACHE_FILE = (
    "qchar-7ef426ca711b1ce799eb5773.json",
    "305976037f17f15d5cd435cb2d309b373f6c4b3d1a0275952a67e5f6af9b9b94",
)
# the cache file for A2 node 1 as that encoder wrote it
A2_NODE_1_CACHE_FILE = (
    "qchar-170e219499c51389cbd0e798.json",
    '{"checksum":"857c43e8d4495566edc384df31860d8dc71b1c22a42829d88e02d666e85e0a21",'
    '"conventions":"qcharlab-conventions-1","payload":{"conventions":'
    '"qcharlab-conventions-1","entries":[{"mu":1,"v":[]},{"mu":1,"v":[[1,1,1]]},'
    '{"mu":1,"v":[[1,1,1],[2,2,1]]}],"node":1,"type":"A2"}}\n',
)


def _refuse_to_compute(monkeypatch):
    from qcharlab import cli

    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit computed the q-character")

    monkeypatch.setattr(cli, "fm_qchar", refuse)


def test_cache_file_bytes_are_pinned_and_read_back(tmp_path, monkeypatch):
    cache, out = tmp_path / "cache", tmp_path / "f4.json"
    assert run("qchar", "--type", "F4", "--node", "3",
               "--cache-dir", str(cache)) == 0
    name, digest = F4_NODE_3_CACHE_FILE
    assert [path.name for path in cache.iterdir()] == [name]
    assert hashlib.sha256((cache / name).read_bytes()).hexdigest() == digest
    _refuse_to_compute(monkeypatch)
    assert run("qchar", "--type", "F4", "--node", "3",
               "--cache-dir", str(cache), "--out", str(out)) == 0
    assert out.stat().st_size > 0


def test_an_older_cache_file_is_a_hit(tmp_path, monkeypatch):
    cache, out = tmp_path / "cache", tmp_path / "a2.json"
    cache.mkdir()
    name, text = A2_NODE_1_CACHE_FILE
    (cache / name).write_text(text)
    _refuse_to_compute(monkeypatch)
    assert run("qchar", "--type", "A2", "--node", "1",
               "--cache-dir", str(cache), "--out", str(out)) == 0
    # the artifact is the payload, which sits between "payload": and "}\n"
    assert out.read_text() == text[text.index('{"conventions"'):-2] + "\n"
    assert (cache / name).read_text() == text


def test_reordered_cache_entries_fail_the_checksum(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    name, text = A2_NODE_1_CACHE_FILE
    stored = json.loads(text)
    stored["payload"]["entries"].reverse()
    (cache / name).write_text(json.dumps(stored))
    assert run("qchar", "--type", "A2", "--node", "1",
               "--cache-dir", str(cache)) == 2
    assert "checksum mismatch" in capsys.readouterr().err


def test_qchar_writes_no_json_object_tree(tmp_path, monkeypatch):
    # the artifact and the cache file are written from one canonical text, so
    # json.dumps only ever escapes the few strings around it
    handed = []
    real = json.dumps

    def recording(obj, *args, **kwargs):
        handed.append(type(obj))
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", recording)
    for extra in ([], ["--cache-dir", str(tmp_path / "cache")]):
        assert run("qchar", "--type", "B3", "--node", "1", *extra,
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


def test_bad_node_word_and_theta_are_usage_errors(tmp_path):
    assert run("qchar", "--type", "A2", "--node", "3") == 1
    assert run("braid-orbit", "--type", "A2", "--node", "1", "--word", "1,x") == 1
    assert run("braid-orbit", "--type", "A2", "--node", "1", "--word", "1,3") == 1
    point = tmp_path / "point.json"
    point.write_text(json.dumps(POINT_A1))
    assert run("quiver-reflect", "--node", "2", "--theta", "-1", str(point)) == 1
    assert run("quiver-reflect", "--node", "1", "--theta", "1/0", str(point)) == 1


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
    "qchar": (("qchar",), ("type", "node", "cache_dir", "cap_monomials",
                           "cap_height")),
    "extremal-check": (("extremal-check",), ("type", "node", "cache_dir",
                                             "cap_monomials", "cap_height",
                                             "cap_w")),
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
        others = [key for key in ("type", "node", "cache_dir", *_CAPS)
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

