"""Every pinned CLI artifact: one table with one row per pinned run, and one runner.

A row is one `qcharlab` run, made in a fresh directory: its argv, the point
file it reads as ``point.json`` if any, and what the run must give. That is
the exit code, the sha256 or the text of each file written, the stdout (its
sha256 or text, or lines it must hold), the stderr substrings (never on
stdout), the files it must not write, and the values read off its ``--out``
file or stdout. Rows run ``cli.main`` in process; a row with a hash seed runs
``python -m qcharlab.cli`` under that ``PYTHONHASHSEED``.

A new pin is one row, whose digest is taken at the parent of the change
that adds it, before any source edit.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

import pytest

from qcharlab.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

Row = namedtuple(
    "Row", "id argv point exit files stdout stderr absent reads seed",
    defaults=(None, 0, {}, (), (), (), {}, None),
)
# a row's input: the stable point at ``index`` of row ``row``'s search, or
# with no index, the file row ``row`` wrote
From = namedtuple("From", "row index", defaults=(None,))
Outcome = namedtuple("Outcome", "code files stdout stderr")

# the values a row's ``reads`` name, each read off the run's outcome and
# its --out file, parsed
_READERS = {
    "points": lambda out, outcome: len(out["points"]),
    "stable": lambda out, outcome: sum(all(p["stable"]) for p in out["points"]),
    "map kinds": lambda out, outcome: sorted(
        {(m["kind"], m["to"][0]) for p in out["points"] for m in p["point"]["maps"]}),
    "theta_bar": lambda out, outcome: out["theta_bar"],
    "FAIL lines": lambda out, outcome: sum(
        line.startswith("  FAIL ") for line in outcome.stdout.splitlines()),
}

# qchar --out for A2 node 1, as written when the payload was encoded from a
# JSON object tree
A2_NODE_1_QCHAR = (
    '{"conventions":"qcharlab-conventions-1","entries":[{"mu":1,"v":[]},'
    '{"mu":1,"v":[[1,1,1]]},{"mu":1,"v":[[1,1,1],[2,2,1]]}],"node":1,'
    '"type":"A2"}\n'
)
# digests that more than one row pins
E8_NODE_1 = "588c9eac8cdf694dee20e8d0398db57224b81838caa5bb82c6369c92ca76f873"
C8_NODE_3 = "81f8f640782dd002a960b1ff429e6daa5d6c5e36c5b7aa3f8eabf23060099c75"
E6_NODE_4 = "e6808e64b854bc8fb082897b014a20b42916627c6a4b77d520d69ea7186a2091"


def _qchar(label, node, digest, *extra, seed=None):
    name = f"{label}-{node}.json"
    suffix = "".join(f"-{part.lstrip('-')}" for part in extra)
    if seed is not None:
        suffix += f"-seed{seed}"
    return Row(f"qchar-{label}-{node}{suffix}",
               ("qchar", "--type", label, "--node", str(node), *extra, "--out", name),
               files={name: digest}, seed=seed)


def _search(name, *argv, **expect):
    return Row(name, ("quiver-search", *argv, "--out", "search.json"), **expect)


def _reflect(name, point, node, theta, **expect):
    return Row(name, ("quiver-reflect", "point.json", "--node", str(node),
                      f"--theta={theta}", "--out", "reflected.json"),
               point=point, **expect)


ROWS = [
    # qchar --out as written when the closure expanded every monomial, when
    # the payload was an object tree, and when Y(v) was a dict regrouped into
    # one dict per node at every step with ibar read off one lowering per node
    _qchar("A2", 1, A2_NODE_1_QCHAR),
    # the benchmark's five qchar-closure cases, E8/1 also under a height cap
    # that does not trip
    _qchar("E8", 1, E8_NODE_1),
    _qchar("E8", 1, E8_NODE_1, "--cap-height", "92"),
    _qchar("C8", 3, C8_NODE_3),
    _qchar("E7", 6, "9e5c4ee7a62f7d9ca79a13b152a6c7587ada5515168564d52f923ca26c94de75"),
    _qchar("D8", 4, "25021b5358c92d8ab5ccc5b245de8f4b5a6d22d1ca95bc3edae4bd6ce7d4bb93"),
    _qchar("E6", 4, E6_NODE_4),
    # D5 node 4 and E6 node 1, whose mirrors map each node i to ibar != i
    _qchar("D5", 4, "69f3c6492ddef58136b2a6634ba2a42fcc82fb5c53e799f24add57e2af0240a3"),
    _qchar("E6", 1, "9893eead7c9b2bf854f98d5e6f88a94c8b26987f708e059a0b56fed88e5beb01"),
    _qchar("F4", 3, "bea4cbb1f5fd7a62ac6f731ae687c92b5094d8a2cf79e314fe3a4ab5d6310e3e"),
    # E7 node 5 (27,664 monomials) and E8 node 7 (30,380), as written when
    # every A-vector also kept a dict copy of its entries; the summary lines
    # are read off the character's rows
    _qchar("E7", 5, "9b9b88a1bb40fd11d29cd3c0043b171ae21de85c6518b3be5afe37e01bdecd92")._replace(
        stdout=("  monomials : 27664", "  max height: 75", "  total mu  : 36080")),
    _qchar("E8", 7, "e4b8d21b763c1269edb0a5f04a46934f27047d2b266f128590c50853fcc5a91f")._replace(
        stdout=("  monomials : 30380", "  max height: 114", "  total mu  : 34752")),
    # str hashes, and the order of any set or dict keyed by them, follow the
    # hash seed; the artifacts must not, whatever a kernel iterates
    *(_qchar(label, node, digest, seed=seed)
      for label, node, digest in (("E6", 4, E6_NODE_4), ("C8", 3, C8_NODE_3))
      for seed in (0, 1)),
    # E6 node 4 has height H = 42; the closure stops at 21 and mirrors the
    # rest, yet each cap must trip where a closure over every height trips it
    Row("qchar-E6-4-cap-height-41",
        ("qchar", "--type", "E6", "--node", "4", "--cap-height", "41", "--out", "capped.json"),
        exit=2, stderr=("(2924 monomials so far)",), absent=("capped.json",)),
    Row("qchar-E6-4-cap-monomials-2000",
        ("qchar", "--type", "E6", "--node", "4", "--cap-monomials", "2000",
         "--out", "capped.json"),
        exit=2, stderr=("at height 24",), absent=("capped.json",)),
    # braid orbits and cone reports as written when the cone vertices came
    # from the braid action on Laurent monomials, factored into A-monomials;
    # the A-vector push must write them unchanged
    Row("braid-orbit-G2-1", ("braid-orbit", "--type", "G2", "--node", "1", "--out", "g2-1.json"),
        files={"g2-1.json": "36512d4ab278add568c7f7fe7b26a03794d857094600a300cd3e81969fff107c"},
        stdout="a1cecfa3f44f02d82d17d2ea44c1bfebc4bfa79934181b8bd418bb4f069ad074"),
    Row("braid-orbit-F4-3", ("braid-orbit", "--type", "F4", "--node", "3", "--out", "f4-3.json"),
        files={"f4-3.json": "efbb931b924aeb358ceba120c35929653298f8238b0870c8f45c2c64c60de653"}),
    Row("braid-orbit-G2-2-word",
        ("braid-orbit", "--type", "G2", "--node", "2", "--word", "1,2,2,1,1",
         "--out", "g2-2-word.json"),
        files={"g2-2-word.json":
               "4c5a357e9f2039b105b62876bf6753e3109c3fb8680dd6a8dedee0d3d28676df"},
        stdout="ef73918362e28618a56717c96254ec2de4d8cfb7fa5eb22255dc1b6629c82459"),
    # B3 node 2 as written when each image was pushed per word
    Row("braid-orbit-B3-2", ("braid-orbit", "--type", "B3", "--node", "2", "--out", "orbit.json"),
        files={"orbit.json": "9de2b4389c765d305f9516e8fa3cf9910ae23003ac0c2f783426a5ece884e413"}),
    # F4/3 and the benchmark's other two cone-verify cases
    *(Row(f"extremal-check-{label}-{node}",
          ("extremal-check", "--type", label, "--node", str(node), "--report", "report.json"),
          files={"report.json": digest})
      for label, node, digest in (
          ("F4", 3, "50f4bdca7df0542722e436f940e92f858bbc1c1b5e27376a1c5fa17a59671b28"),
          ("C4", 2, "8dfe68e752bc75349152d3d69bf0409b03fde5eef5df5fba7e3ab1b89bbc4fb7"),
          ("D5", 1, "bf085f0db921fc74d891d889c307b15f00ee344f243071c93f5c26f56ffb00fa"))),
    # B3 node 2 as the per-word replay verifier wrote it; the timing goes to
    # stderr, not to the report or stdout
    Row("extremal-check-B3-2",
        ("extremal-check", "--type", "B3", "--node", "2", "--report", "report.json"),
        files={"report.json": "86faa0fbc32bbd699512010b22336a3deef02854520b88a438312d7409ee3cae"},
        stderr=("verify time:",)),
    # stability is decided over any field, so this must exit 0
    _reflect("reflect-Q-A1",
             {"field": "Q", "type": "A1", "v": [[1, 1, 1]], "w": [[1, 0, 1]],
              "maps": [{"kind": "A", "from": [1, 0], "to": [1, 1], "matrix": [["2/3"]]}]},
             1, -1, reads={"theta_bar": ["1"]},
             files={"reflected.json":
                    "49a8aacc306d88ca8143f279392ccb49a255301862c510b795cb69b8940d5983"}),
    # the one stable point of this search, reflected at node 1: its
    # theta_bar = s_1(-1,-1) = (1,-2) is mixed, so the output's check walks
    # one step from the transposed point. This search's digest, and that of
    # search-B2-F3, were taken when the table was made, so no row's artifact
    # goes unpinned
    _search("search-A2", "--type", "A2", "--v", "1@(1,1),1@(2,2)", "--w", "1@(1,0)",
            "--theta=-1", reads={"stable": 1},
            files={"search.json":
                   "474cec435e3384effb6e4daa8ff19a0ee966fe08e1da6f1b7adde68a12be10d9"}),
    _reflect("reflect-A2-transposed", From("search-A2", 0), 1, -1,
             reads={"theta_bar": ["1", "-2"]},
             files={"reflected.json":
                    "d309683a611b2922760bbd683ce5f164f80912d9b2112c74ffce6b5f90ea8052"}),
    # the second of the 4 stable points of 9, reflected at node 1: the output
    # holds the new loop (1,3) -> (1,1) and the framing A = [[2]], each read
    # off a kernel's free rows
    _search("search-B2-F3", "--type", "B2", "--v", "1@(1,1),1@(2,3)", "--w", "1@(1,0)",
            "--field", "F3", "--theta=-1", reads={"stable": 4, "points": 9},
            files={"search.json":
                   "b2a350beabd443aa65da02a3e54416d4b44fcf9ece7604188a4eb5180907a572"}),
    _reflect("reflect-B2-F3-loop", From("search-B2-F3", 1), 1, -1,
             files={"reflected.json":
                    "fa955120e12b2b5a453316b3a5872c5d61c67e3b19c9a3567fe9d6ca972fe167"}),
    # theta = s_2(-1,-1,-1) is decided on the transposed point, one reflection
    # from C+; GL_2(F2) acts freely on the stable points, one orbit of 6
    _search("search-A3-mixed", "--type", "A3", "--v", "1@(1,2),2@(2,1),1@(3,2)",
            "--w", "1@(2,0)", "--theta=-2,1,-2", reads={"stable": 6},
            files={"search.json":
                   "654620ec41f40584e414414f0ea520e23cff4e9c725cf025e83b6d38478b0a44"}),
    # theta = (-1, 2) is s_1 below C+ and l(w_0) - 1 = 2 above C-, so each
    # point takes one step from x itself, not from its transpose
    _search("search-A2-mixed-from-x", "--type", "A2", "--v", "1@(1,1),1@(2,0)",
            "--w", "1@(1,0),1@(2,1)", "--theta=-1,2", reads={"stable": 3, "points": 8},
            files={"search.json":
                   "b3b225422af754ba1e6dfc8d184b81ed99b6569a333c3db781e4affcf7b7cbea"}),
    # as written when every point's object tree was dumped at once: 64 points
    # at theta = -1, 18 of them stable (three free orbits of GL_2(F2)), and 27
    # points over F3 with no theta, each with "stable": []
    _search("search-A2-same-sign", "--type", "A2", "--v", "2@(1,1),1@(2,2)",
            "--w", "2@(1,0)", "--theta=-1",
            files={"search.json":
                   "7f0e5e4d09b4636e31218a9c6677faece5b14b3fd363acc82932bd2c8c1bff4f"}),
    _search("search-A2-F3", "--type", "A2", "--v", "1@(1,1),1@(2,2)",
            "--w", "1@(1,0),1@(2,1)", "--field", "F3",
            files={"search.json":
                   "534670b12ecb93f21593dda8ba6ca56686ced4f35a87cef60437e44bd2db6909"}),
    # no other pin covers p = 5 or p = 7; each search has as many stable points
    # as G_v(F_p) has elements: |GL_1(F5)|^2 and |GL_1(F7)|^3
    _search("search-A2-F5", "--type", "A2", "--v", "1@(1,1),1@(2,2)", "--w", "1@(1,0)",
            "--field", "F5", "--theta=1,-2", reads={"stable": 16, "points": 25},
            files={"search.json":
                   "e0338260f0cb0efe7685a851e4b48cda43f1180722265472d91d9c34b2bf44f0"}),
    _search("search-B2-F7", "--type", "B2", "--v", "1@(1,1),1@(1,5),1@(2,3)",
            "--w", "1@(1,0)", "--field", "F7", "--theta=-1,-1",
            reads={"stable": 216, "points": 343},
            files={"search.json":
                   "f61d7c0ea51bbb43ea52e27429b7ddc87613373d9297bc0f9324c82b21006876"}),
    # a B2 search with loops, arrows and A maps (16 points), and two
    # reflections from A2 node 1 whose images carry B maps and an arrow, as
    # written when each map kind serialized its own grading
    _search("search-B2-loops", "--type", "B2", "--v", "1@(1,2),1@(1,4),1@(2,2),1@(2,4)",
            "--w", "1@(2,0)", "--theta=-1,-1",
            files={"search.json":
                   "0cc171cca0aef76d8f6fc742a91f7ff71e4d9a008a58869b758e3f297ad6a73c"}),
    _reflect("reflect-A2-at-1",
             {"field": "F2", "type": "A2", "v": [], "w": [[1, 0, 1]], "maps": []},
             1, "-1,-1",
             files={"reflected.json":
                    "b51eb8b83037f34b66dfdd2fd45096e430c44e59a1b724d5fd9c2e64e68e7e86"}),
    _reflect("reflect-A2-at-1-2", From("reflect-A2-at-1"), 2, "1,-2",
             files={"reflected.json":
                    "cfc409653f82133be85af32cec4a857e28018982aec3dd7898bb19d259b8dc39"}),
    # a B2 search whose 16 points carry A maps, a loop, an arrow, and B maps at
    # both nodes (d_1 = 2, d_2 = 1), as written when each map kind was stored
    # under its own key
    _search("search-B2-every-kind", "--type", "B2", "--v", "1@(1,1),1@(1,3),1@(2,2)",
            "--w", "1@(1,0),1@(1,2),1@(2,4)", "--theta=-1",
            reads={"points": 16, "map kinds": [
                ("A", 1), ("B", 1), ("B", 2), ("arrow", 1)]},
            files={"search.json":
                   "cfb23a9db307bfc274135f5190e317d8c44a3ecb59a18a9b1f8c296f6a59b772"}),
    # an A2 point over F3 that breaks 8 relations: E1bis at node 2, grade 0,
    # three E2, two E4 and two E5; quiver-check prints each failure
    Row("check-A2-F3-failing", ("quiver-check", "point.json"),
        point={"field": "F3", "type": "A2",
               "v": [[1, 1, 1], [1, 3, 1], [2, 0, 1], [2, 2, 1]],
               "w": [[1, 0, 1], [1, 2, 1], [1, 4, 1], [2, 1, 1]],
               "maps": [
                   {"kind": "arrow", "from": [1, 1], "to": [2, 2], "matrix": [[1]]},
                   {"kind": "arrow", "from": [1, 3], "to": [1, 1], "matrix": [[1]]},
                   {"kind": "arrow", "from": [2, 0], "to": [1, 1], "matrix": [[2]]},
                   {"kind": "arrow", "from": [2, 2], "to": [1, 3], "matrix": [[2]]},
                   {"kind": "arrow", "from": [2, 2], "to": [2, 0], "matrix": [[1]]},
                   {"kind": "A", "from": [1, 0], "to": [1, 1], "matrix": [[2]]},
                   {"kind": "A", "from": [1, 2], "to": [1, 3], "matrix": [[2]]},
                   {"kind": "A", "from": [2, 1], "to": [2, 2], "matrix": [[1]]},
                   {"kind": "B", "from": [1, 1], "to": [1, 2], "matrix": [[2]]},
                   {"kind": "B", "from": [1, 3], "to": [1, 4], "matrix": [[1]]},
                   {"kind": "B", "from": [2, 0], "to": [2, 1], "matrix": [[2]]}]},
        exit=3, reads={"FAIL lines": 8},
        stdout="e1a67022da5093832c5eb58c9a52c9e6e1dcb733106c698006ea4e52590b8569"),
]
ROWS_BY_ID = {row.id: row for row in ROWS}


def _out_name(row):
    for flag in ("--out", "--report"):
        if flag in row.argv:
            return row.argv[row.argv.index(flag) + 1]
    return None


def _point_text(point):
    if not isinstance(point, From):
        return json.dumps(point)
    source = ROWS_BY_ID[point.row]
    data = _execute(source).files[_out_name(source)]
    if point.index is None:
        return data.decode("utf-8")
    stable = [p["point"] for p in json.loads(data)["points"] if all(p["stable"])]
    return json.dumps(stable[point.index])


def _execute(row):
    """Run ``row`` in a fresh directory; the outcome holds every file it wrote."""
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        if row.point is not None:
            (work / "point.json").write_text(_point_text(row.point), encoding="utf-8")
        if row.seed is None:
            out, err = io.StringIO(), io.StringIO()
            here = os.getcwd()
            os.chdir(work)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(list(row.argv))
            finally:
                os.chdir(here)
            out, err = out.getvalue(), err.getvalue()
        else:
            paths = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-m", "qcharlab.cli", *row.argv], cwd=work,
                env={**os.environ, "PYTHONPATH": paths, "PYTHONHASHSEED": str(row.seed)},
                capture_output=True, text=True, timeout=300)
            code, out, err = done.returncode, done.stdout, done.stderr
        files = {path.name: path.read_bytes() for path in work.iterdir()
                 if path.name != "point.json"}
    return Outcome(code, files, out, err)


def _agrees(data, expected):
    """A pin is the sha256 of the bytes or their whole text."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return expected in (hashlib.sha256(data).hexdigest(), data.decode("utf-8"))


def _check(row, outcome):
    assert outcome.code == row.exit, (outcome.code, outcome.stderr)
    for name, expected in row.files.items():
        assert name in outcome.files, f"{name} not written"
        assert _agrees(outcome.files[name], expected), name
    for name in row.absent:
        assert name not in outcome.files, f"{name} written"
    if isinstance(row.stdout, str):
        assert _agrees(outcome.stdout, row.stdout), outcome.stdout
    else:
        lines = outcome.stdout.splitlines()
        assert [line for line in row.stdout if line not in lines] == [], outcome.stdout
    for text in row.stderr:
        assert text in outcome.stderr and text not in outcome.stdout, text
    if row.reads:
        out = json.loads(outcome.files.get(_out_name(row), "null"))
    for key, expected in row.reads.items():
        assert _READERS[key](out, outcome) == expected, key


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_pin(row):
    _check(row, _execute(row))


def test_the_rows_have_distinct_ids():
    assert len(ROWS_BY_ID) == len(ROWS)


def _altered(row_id, change):
    """Row ``row_id`` with one pinned file's expectation passed through ``change``."""
    row = ROWS_BY_ID[row_id]
    (name, expected), = row.files.items()
    return row._replace(files={name: change(expected)})


@pytest.mark.parametrize("row", [
    # one hex digit of a digest, one character of a text, an exit code
    _altered("reflect-Q-A1", lambda digest: f"{int(digest[0], 16) ^ 1:x}{digest[1:]}"),
    _altered("qchar-A2-1", lambda text: text.replace('"A2"', '"A3"')),
    ROWS_BY_ID["qchar-A2-1"]._replace(exit=1),
], ids=["digest", "text", "exit code"])
def test_an_altered_row_fails(row):
    with pytest.raises(AssertionError):
        _check(row, _execute(row))
