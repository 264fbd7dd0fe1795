"""One pass of a workload in a fresh interpreter.

    python3 -S passrun.py SRC PLAN SPAWN_NS

SRC is the directory holding the qcharlab package, PLAN a JSON file
written by run.py, SPAWN_NS the CLOCK_MONOTONIC time at which run.py
started this process.  The pass imports qcharlab (the end of set-up), then
calls ``qcharlab.cli.main`` once per planned operation, timing each call,
and reads its peak RSS after the last call.  It writes RESULT (named in the
plan) and checks nothing: run.py checks the artifacts after the clock.
"""

import gc
import json
import os
import resource
import signal
import sys
import time

# The probe loop's duration on the 2-vCPU VM this benchmark was tuned on,
# in its usual state; adjusted times read close to raw times there.
REFERENCE_PROBE_S = 0.0004
SETUP_PROBES = 20


class _Counter:
    def __init__(self):
        self.table = {}

    def get(self, key):
        return self.table.get(key, 0)


class SpeedProbe:
    """Samples the machine's speed while the program runs.

    Every PERIOD_S seconds of wall time a SIGALRM handler times a short,
    fixed loop of the kind of work qcharlab does: method calls, tuple keys,
    dict, set and list updates.  Samples taken while a call runs give the
    speed the call ran at: on a shared host that speed drifts by up to 1.7x
    over tens of seconds, far more than the spread a benchmark bound allows.
    """

    PERIOD_S = 0.05
    STEPS = 1000

    def __init__(self):
        self.active = False  # set while a call of the program runs
        self.samples = []
        self.spent = 0.0

    def loop(self):
        gc.disable()
        try:
            start = time.perf_counter()
            counter, seen, values = _Counter(), set(), []
            for i in range(self.STEPS):
                key = (i % 97, i & 3)
                counter.table[key] = counter.get(key) + i
                seen.add(key)
                values.append(key[0] * 3 - key[1])
            sorted(values[:200])
            return time.perf_counter() - start
        finally:
            gc.enable()

    def _tick(self, signum, frame):
        if self.active:
            seconds = self.loop()
            self.samples.append(seconds)
            self.spent += seconds

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    @staticmethod
    def speed(samples):
        """Mean speed relative to the reference: work in a stretch of time is
        proportional to 1/probe time."""
        return sum(REFERENCE_PROBE_S / s for s in samples) / len(samples)

    def adjust(self, wall_s):
        """Wall time of the calls less the probes, at the reference speed."""
        if not self.samples:
            return wall_s
        return (wall_s - self.spent) * self.speed(self.samples)


def _extract_point(search_out, point_path):
    """Write the first stable point of a search artifact as a point file."""
    try:
        with open(search_out, encoding="utf-8") as handle:
            points = json.load(handle)["points"]
    except (OSError, ValueError, KeyError) as exc:
        return f"no search artifact to reflect: {exc}"
    stable = [p["point"] for p in points if p["stable"] and all(p["stable"])]
    if not stable:
        return "the search found no stable point to reflect"
    with open(point_path, "w", encoding="utf-8") as handle:
        json.dump(stable[0], handle)
    return None


def main():
    src, plan_path, spawn_ns = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    import qcharlab.cli

    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - spawn_ns) / 1e9
    if not os.path.abspath(qcharlab.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"qcharlab imported from {qcharlab.__file__}, not {src}", file=sys.stderr)
        return 2
    # Set-up is rescaled by the speed measured right after it, as call time is.
    probe = SpeedProbe()
    setup_speed = probe.speed([probe.loop() for _ in range(SETUP_PROBES)])
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)

    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cli = sys.modules["qcharlab.cli"]

    ops = []
    probe.start()
    for op in plan["ops"]:
        error = _extract_point(op["source"], op["point"]) if op["source"] else None
        rc, seconds = None, 0.0
        if error is None:
            start = time.perf_counter()
            probe.active = True
            try:
                rc = cli.main(op["argv"])
            except Exception as exc:  # a traceback is a failed operation, not a crash
                error = f"{type(exc).__name__}: {exc}"
            finally:
                probe.active = False
            seconds = time.perf_counter() - start
        ops.append({"id": op["id"], "rc": rc, "seconds": seconds, "error": error})
    probe.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.flush()

    wall_s = sum(op["seconds"] for op in ops)
    result = {
        "setup_s": setup_s,
        "adj_setup_s": setup_s * setup_speed,
        "wall_s": wall_s,
        "adj_wall_s": probe.adjust(wall_s),
        "probes": len(probe.samples),
        "rss_kb": rss_kb,
        "ops": ops,
        "trace": tracer.rows() if tracer else None,
    }
    with open(plan["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
