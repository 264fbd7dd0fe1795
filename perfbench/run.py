"""Benchmark of the qcharlab CLI over four workloads.

    python3 perfbench/run.py --workload qchar-closure --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, one after another
    python3 perfbench/run.py --check-only     # every case once, checked, untimed

A run makes timed passes until ``--seconds`` have gone by (at least two).
Each pass is a fresh interpreter that imports qcharlab from ``src/`` and
calls ``qcharlab.cli.main`` once per operation of the workload; the
artifacts are checked here after the pass ends.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
See perfbench/README.md for the workloads and how to read the numbers.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import KNOWN_FAILURES, WORKLOADS, ordered_ops

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

MIN_PASSES = 2
SETUP_RUNS = 8
PASS_TIMEOUT_S = 150
# A pass runs "python -S" (no site hooks of the host Python) with bytecode
# cached under OUT, without these settings of the calling shell.
CLEARED_ENV = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "QCHARLAB_CACHE_DIR")

# (span name, metrics reported for it) on traced runs.
SPAN_METRICS = [
    ("cartan.weyl_elements", ("calls", "self_s")),
    ("braid.reflect_dimensions", ("calls", "self_s")),
    ("extremal.verify_theorem_main", ("self_s",)),
    ("extremal.cone_vertices", ("self_s",)),
    ("lweights.factor_to_a", ("self_s",)),
    ("braid.apply_s_word_inverse", ("self_s",)),
    ("qchar.fm_qchar", ("calls", "self_s")),
    ("qchar.sl2_expansion", ("calls", "self_s")),
    ("lweights.expand_to_y", ("calls", "self_s")),
    ("quiver.stability_check.same_sign", ("calls", "self_s")),
    ("quiver.stability_check.mixed", ("calls", "self_s")),
    ("quiver.reflect", ("calls", "self_s")),
    ("quiver.validate_relations", ("calls",)),
    ("linalg.rref", ("calls", "self_s")),
    ("linalg.kernel_basis", ("self_s",)),
    ("linalg.solve_exact", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("cli.load_or_compute_qchar", ("self_s",)),
]


class BenchError(Exception):
    """The benchmark itself could not run (not a fault of an operation)."""


class Pass:
    """One fresh-interpreter pass over a list of operations, then its checks."""

    def __init__(self, workdir, ops, traced):
        self.workdir = workdir
        self.ops = ops
        self.traced = traced

    def _plan(self):
        out_of = {op.id: str(self.workdir / f"op{k}.json") for k, op in enumerate(self.ops)}
        plan_ops = []
        for k, op in enumerate(self.ops):
            argv = list(op.args)
            point = None
            if op.source:
                point = str(self.workdir / f"op{k}.point.json")
                argv.append(point)
            argv += [op.out_flag, out_of[op.id]]
            plan_ops.append({"id": op.id, "argv": argv, "point": point,
                             "source": out_of[op.source] if op.source else None})
        return {"trace": self.traced, "ops": plan_ops,
                "result": str(self.workdir / "result.json")}, out_of

    def run(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        plan, out_of = self._plan()
        plan_path = self.workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
        env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
        env["PYTHONHASHSEED"] = "0"  # the same set and dict orders in every pass
        with open(self.workdir / "stdout.txt", "wb") as out, \
                open(self.workdir / "stderr.txt", "wb") as err:
            argv = [sys.executable, "-S", str(BENCH_DIR / "passrun.py"), str(SRC),
                    str(plan_path)]
            spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(argv + [str(spawn_ns)], stdout=out,
                                    stderr=err, env=env, cwd=str(self.workdir))
            try:
                code = proc.wait(timeout=PASS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"a pass ran past {PASS_TIMEOUT_S} s")
        if code != 0:
            tail = (self.workdir / "stderr.txt").read_text(errors="replace")[-2000:]
            raise BenchError(f"pass exited with code {code}:\n{tail}")
        self.result = json.loads((self.workdir / "result.json").read_text())
        self._check(out_of)
        return self

    def _check(self, out_of):
        """Check every artifact; fills failures and the counts ratios need."""
        self.failures = {}
        self.extremal_checks = 0
        self.relation_points = 0
        by_id = {op.id: op for op in self.ops}
        for record in self.result["ops"]:
            op = by_id[record["id"]]
            if record["rc"] != 0:
                problems = [record["error"] or f"exit code {record['rc']}"]
            else:
                try:
                    with open(out_of[op.id], encoding="utf-8") as handle:
                        obj = json.load(handle)
                    problems = op.check(obj)
                    self.extremal_checks += obj.get("checks", 0)
                    self.relation_points += len(obj.get("points", []))
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable or malformed artifact: {exc!r}"]
            if problems:
                self.failures[op.id] = problems

    def span_totals(self):
        """{span name: [calls, self_s]} summed over parents."""
        totals = {}
        for _, name, calls, _, self_s in self.result["trace"]:
            row = totals.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        return totals

    def search_assignments(self):
        return sum(calls for parent, name, calls, _, _ in self.result["trace"]
                   if parent == "quiver.exhaustive_search"
                   and name == "quiver.validate_relations")


def bare_setup():
    """Set-up time of one fresh interpreter that imports qcharlab and stops."""
    return Pass(OUT / "setup", [], traced=False).run().result["adj_setup_s"]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traced, untraced):
    """Per-layer metrics: counts from the first traced pass (they repeat
    exactly), self times as medians over traced passes, each rescaled by its
    pass's speed factor as adj_wall_s is."""
    first = traced[0]
    totals = [p.span_totals() for p in traced]
    speed = [p.result["adj_wall_s"] / p.result["wall_s"] if p.result["wall_s"] else 1.0
             for p in traced]
    metrics = {}
    for name, kinds in SPAN_METRICS:
        if "calls" in kinds:
            metrics[f"{name}.calls"] = (totals[0].get(name, [0, 0.0])[0], "count")
        if "self_s" in kinds:
            metrics[f"{name}.self_s"] = (statistics.median(
                t.get(name, [0, 0.0])[1] * f for t, f in zip(totals, speed)), "s")
    calls = {name: row[0] for name, row in totals[0].items()}
    stability = (calls.get("quiver.stability_check.same_sign", 0)
                 + calls.get("quiver.stability_check.mixed", 0))
    metrics["extremal.reflections_per_check"] = (
        _ratio(calls.get("braid.reflect_dimensions", 0), first.extremal_checks), "ratio")
    metrics["quiver.search_yield"] = (
        _ratio(first.relation_points, first.search_assignments()), "ratio")
    metrics["linalg.rref_per_stability_check"] = (
        _ratio(calls.get("linalg.rref", 0), stability), "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.result["adj_wall_s"] for p in traced)
        / statistics.median(p.result["adj_wall_s"] for p in untraced) - 1.0, "ratio")
    return metrics


def run_workload(workload, seed, seconds, trace):
    """Timed passes of one workload; returns (passes, metrics)."""
    ops = ordered_ops(workload, seed)
    workdir = OUT / workload
    setups = [] if trace else [bare_setup() for _ in range(SETUP_RUNS)]
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        traced = bool(trace) and len(passes) % 2 == 1
        passes.append(Pass(workdir, ops, traced).run())
        p = passes[-1]
        print(f"  pass {len(passes)}{' traced' if traced else ''}: "
              f"wall {p.result['wall_s']:.3f} s (adjusted {p.result['adj_wall_s']:.3f} s), "
              f"setup {p.result['setup_s']:.4f} s (adjusted {p.result['adj_setup_s']:.4f} s), "
              f"rss {p.result['rss_kb'] / 1024:.1f} MB, "
              f"failed {len(p.failures)}/{len(ops)}", flush=True)
    untraced = [p for p in passes if not p.traced]
    if trace:
        metrics = layer_metrics([p for p in passes if p.traced], untraced)
    else:
        setups += [p.result["adj_setup_s"] for p in passes]
        metrics = {
            "adj_wall_s": (statistics.median(p.result["adj_wall_s"] for p in untraced), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p.result["rss_kb"] for p in untraced)
                            / 1024, "MB"),
        }
        print(f"  raw wall_s (median, not a metric): "
              f"{statistics.median(p.result['wall_s'] for p in untraced):.4f} s")
    print(f"  {len(passes)} passes in {time.monotonic() - start:.1f} s")
    return passes, metrics


def tally(workload, passes):
    """(attempted, failed, correct) over all passes; reports each failing op once."""
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    seen = {}
    for p in passes:
        for op_id, problems in p.failures.items():
            seen.setdefault(op_id, problems)
    unexpected = [op_id for op_id in seen if op_id not in KNOWN_FAILURES]
    for op_id, problems in seen.items():
        tag = "known fault" if op_id in KNOWN_FAILURES else "UNEXPECTED"
        print(f"  failed ({tag}): {op_id}: {'; '.join(problems)[:300]}")
    ids = {op.id for op in passes[0].ops}
    for op_id in sorted((KNOWN_FAILURES & ids) - set(seen)):
        print(f"  note: known failure now passes: {op_id}", file=sys.stderr)
    print(f"  {workload}: attempted {attempted}, failed {failed}")
    return attempted, failed, not unexpected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the groups of operations within a pass")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep making passes until this long has gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes")
    parser.add_argument("--check-only", action="store_true",
                        help="run every case once and check it, without timing")
    args = parser.parse_args(argv)

    if not (SRC / "qcharlab" / "__init__.py").is_file():
        print(f"no qcharlab package under {SRC}", file=sys.stderr)
        return 2
    problems = checks.check_reference_entries()
    if problems:
        print("reference data inconsistent: " + "; ".join(problems), file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total_attempted, total_failed, all_correct = 0, 0, True
    metrics = {}
    try:
        for name in names:
            print(f"{name}:", flush=True)
            if args.check_only:
                passes = [Pass(OUT / name, ordered_ops(name, args.seed), False).run()]
                found = {}
            else:
                passes, found = run_workload(name, args.seed, args.seconds, args.trace)
            attempted, failed, correct = tally(name, passes)
            total_attempted += attempted
            total_failed += failed
            all_correct = all_correct and correct
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, (value, unit) in found.items():
                print(f"  {metric:<40} {value:>14.6g} {unit}")
                metrics[prefix + metric] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": all_correct, "attempted": total_attempted,
                      "failed": total_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
