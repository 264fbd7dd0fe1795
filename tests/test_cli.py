import contextlib
import hashlib
import io
import json
import string
import sys

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

    real = cli._canonical_json

    def failing(obj):
        raise OSError("disk full")

    cache = tmp_path / "cache"
    monkeypatch.setattr(cli, "_canonical_json", failing)
    assert run("qchar", "--type", "A2", "--node", "1",
               "--cache-dir", str(cache)) == 2
    assert list(cache.iterdir()) == []
    monkeypatch.setattr(cli, "_canonical_json", real)
    # the next run recomputes, writes the cache, and a third run reads it
    for _ in range(2):
        assert run("qchar", "--type", "A2", "--node", "1",
                   "--cache-dir", str(cache)) == 0
    assert len(list(cache.iterdir())) == 1


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
