"""Self-tests of the benchmark's reference values and checkers.

    python3 perfbench/selftest.py

Each checker must accept a real artifact of the program and reject the same
artifact with one deliberate corruption.  The artifacts come from small CLI
calls written under perfbench/out/selftest.
"""

import contextlib
import copy
import io
import json
import shutil
import sys
import unittest
from fractions import Fraction
from pathlib import Path

import checks
import reference
from workloads import KNOWN_FAILURES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
WORK = BENCH_DIR / "out" / "selftest"
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def run_cli(name, *argv, out_flag="--out"):
    """Run the qcharlab CLI quietly; returns the parsed artifact."""
    from qcharlab.cli import main

    path = WORK / f"{name}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, out_flag, str(path)])
    if code != 0:
        raise RuntimeError(f"qcharlab {' '.join(argv)} exited with {code}")
    return json.loads(path.read_text())


def setUpModule():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)


class ReferenceTest(unittest.TestCase):
    def test_weyl_group_orders(self):
        orders = {label: reference.weyl_order(label) for label in ("F4", "C4", "D5", "G2")}
        self.assertEqual(orders, {"F4": 1152, "C4": 384, "D5": 1920, "G2": 12})

    def test_vertex_counts(self):
        quotients = [reference.weyl_order(label) // reference.parabolic_order(label, node)
                     for label, node in (("F4", 1), ("C4", 2), ("D5", 1))]
        self.assertEqual(quotients, [24, 32, 10])

    def test_kirillov_reshetikhin_dimensions(self):
        dims = [reference.kr_dimension(label, node)
                for label, node in (("E8", 1), ("C8", 3), ("E7", 6), ("D8", 4))]
        self.assertEqual(dims, [3875 + 248 + 1, 6188, 1539 + 133 + 1, 1820 + 120 + 1])
        self.assertIsNone(reference.kr_dimension("E6", 4))

    def test_gl_orders(self):
        self.assertEqual([reference.gl_order(n) for n in (1, 2, 3)], [1, 6, 168])

    def test_reflected_dimensions_of_the_a3_case(self):
        image = reference.reflect_dimensions(
            "A3", 2, reference.parse_dims("1@(1,2),1@(2,1),1@(3,2)"), {(2, 0): 1})
        self.assertEqual(image, {(1, 2): 1, (2, 1): 2, (3, 2): 1})

    def test_reference_entries_are_characters(self):
        self.assertEqual(checks.check_reference_entries(), [])

    def test_known_failures_name_real_operations(self):
        ids = {op.id for build in WORKLOADS.values() for group in build() for op in group}
        self.assertLessEqual(KNOWN_FAILURES, ids)


class QCharCheckTest(unittest.TestCase):
    def setUp(self):
        self.obj = run_cli("d4", "qchar", "--type", "D4", "--node", "2")

    def test_accepts_the_program_output(self):
        self.assertEqual(checks.check_qchar(self.obj, "D4", 2), [])

    def test_rejects_one_multiplicity_bumped(self):
        bad = copy.deepcopy(self.obj)
        bad["entries"][len(bad["entries"]) // 2]["mu"] += 1
        self.assertTrue(checks.check_qchar(bad, "D4", 2))

    def test_rejects_a_missing_monomial(self):
        bad = copy.deepcopy(self.obj)
        del bad["entries"][-1]
        self.assertTrue(checks.check_qchar(bad, "D4", 2))

    def test_rejects_the_known_e6_fault(self):
        obj = run_cli("e6", "qchar", "--type", "E6", "--node", "4")
        self.assertTrue(checks.check_qchar(obj, "E6", 4))


class ExtremalCheckTest(unittest.TestCase):
    def setUp(self):
        self.obj = run_cli("b3", "extremal-check", "--type", "B3", "--node", "1",
                           out_flag="--report")

    def test_accepts_the_program_output(self):
        self.assertEqual(checks.check_extremal(self.obj, "B3", 1), [])

    def test_rejects_an_injected_violation(self):
        bad = copy.deepcopy(self.obj)
        bad["violations"].append({"word": [1], "vector": [], "image": [[1, -1, -1]],
                                  "positions": [[1, -1]]})
        self.assertTrue(checks.check_extremal(bad, "B3", 1))

    def test_rejects_a_short_group(self):
        bad = copy.deepcopy(self.obj)
        bad["group_order"] -= 1
        bad["checks"] -= bad["monomials"]
        self.assertTrue(checks.check_extremal(bad, "B3", 1))

    def test_rejects_a_lost_vertex(self):
        bad = copy.deepcopy(self.obj)
        del bad["vertices"][0]
        self.assertTrue(checks.check_extremal(bad, "B3", 1))


class QuiverCheckTest(unittest.TestCase):
    V = {(1, 1): 1, (2, 3): 1}
    W = {(1, 0): 1}
    THETA = (Fraction(-1), Fraction(-1))

    def setUp(self):
        self.obj = run_cli("search", "quiver-search", "--type", "B2",
                           "--v", "1@(1,1),1@(2,3)", "--w", "1@(1,0)", "--theta=-1")

    def test_accepts_the_program_output(self):
        self.assertEqual(checks.check_search(self.obj, "B2", self.V, self.W, 1), [])

    def test_rejects_one_stable_point_too_many(self):
        bad = copy.deepcopy(self.obj)
        unstable = [p for p in bad["points"] if not all(p["stable"])]
        unstable[0]["stable"] = [True]
        self.assertTrue(checks.check_search(bad, "B2", self.V, self.W, 1))

    def test_rejects_one_stable_point_too_few(self):
        bad = copy.deepcopy(self.obj)
        bad["points"] = [p for p in bad["points"] if not all(p["stable"])]
        self.assertTrue(checks.check_search(bad, "B2", self.V, self.W, 1))

    def test_reflection_checked_against_the_closed_form(self):
        stable = next(p["point"] for p in self.obj["points"] if all(p["stable"]))
        point = WORK / "point.json"
        point.write_text(json.dumps(stable))
        obj = run_cli("reflected", "quiver-reflect", "--node", "2", "--theta=-1",
                      str(point))
        self.assertEqual(checks.check_reflect(obj, "B2", 2, self.V, self.W, self.THETA), [])
        bad = copy.deepcopy(obj)
        bad["v"][0][2] += 1
        self.assertTrue(checks.check_reflect(bad, "B2", 2, self.V, self.W, self.THETA))
        bad = copy.deepcopy(obj)
        bad["theta_bar"] = list(reversed(bad["theta_bar"]))
        self.assertTrue(checks.check_reflect(bad, "B2", 2, self.V, self.W, self.THETA))


if __name__ == "__main__":
    unittest.main()
