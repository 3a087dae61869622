"""Closed-loop benchmark of the ropsum package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One process, one thread and one client: each operation is issued after
the previous one has answered, as a caller of the library or the CLI
waits.  The workloads are in ``workloads.py``; all inputs come from
``--seed``.

``--trace 0`` reports the end-to-end metrics.  After set-up and a warm-up,
it makes rounds of operations for about ``--seconds`` of timed operation
time (and at least 100 operations).  ``setup_s`` is the median import time
of the package in a fresh interpreter plus the median time of the
workload's precomputation, both repeated at the start, halfway through
and at the end.  The operation times and the import time behind these
metrics are in reference seconds (``speed.py``): the time measured, scaled
by the speed of the machine at that moment, as a fixed calibration run next
to it shows.  The times as measured are printed in a ``#`` line.

``--trace 1`` reports the per-layer metrics of ``spans.py`` over a fixed
number of rounds, so that call counts depend only on the seed, and writes
the spans to ``perfbench/out/``.

Every answer is checked outside the timed calls.  Lines starting with
``#`` describe the run and the machine; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from speed import IMPORT_PROBE, Speed, import_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100
# Timed operation time spent warming up before measuring.  Besides filling
# the package's caches, this lets the process's speed settle: on a small
# virtual machine the first second of a process runs measurably slower.
WARM_SECONDS = 1.5
IMPORT_REPS = 5
PACKAGE_MODULES = ("scalars", "mpoly", "rof", "recognize", "decompose", "oracle", "cli")

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import ropsum.cli\n"
    "t = time.perf_counter() - t\n"
    "assert ropsum.__file__.startswith(sys.argv[1]), ropsum.__file__\n"
    "print(t)\n"
)


def machine_info():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def fresh_interpreter(*args):
    """Seconds printed by a fresh interpreter running ``args``."""
    done = subprocess.run([sys.executable, "-I", "-c", *args],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def import_seconds():
    """Import time of the whole package in a fresh interpreter, as every CLI
    process pays it, as measured and in reference seconds."""
    measured = fresh_interpreter(_IMPORT_PROBE, str(SRC))
    return measured, import_reference(measured, fresh_interpreter(IMPORT_PROBE))


class Setup:
    """Repeated set-up measurements; ``rep`` is called at several points of
    a run so that one slow spell of the machine does not decide the median.

    The precomputation (``oracle.enumerate_rops``, seconds of building large
    sets) is kept as measured: scaled by the calibration samples around it
    or by the run's median sample, its spread over seeds was wider than
    unscaled in three five-seed trials of four."""

    def __init__(self, workload):
        self.workload = workload
        self.imports, self.prepares = [], []

    def rep(self):
        self.imports += [import_seconds() for _ in range(IMPORT_REPS)]
        start = time.perf_counter()
        state = self.workload.prepare()
        self.prepares.append(time.perf_counter() - start)
        if self.workload.state is None:
            self.workload.state = state

    def seconds(self):
        """Median import plus median precomputation, with the import in
        reference seconds and as measured."""
        prepare = statistics.median(self.prepares)
        return tuple(statistics.median(t[k] for t in self.imports) + prepare for k in (1, 0))


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None


def run_ops(ops, counts, latencies, tracer=None, first_id=0, speed=None, marks=None):
    """Issue the operations one after another, timing each call alone, and
    check each answer before the next call, as a caller consumes it.
    With ``speed``, appends to ``marks`` the calibration sample before each
    call.  Returns the answers' pass flags."""
    passed = []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_id + k
        if speed is not None:
            marks.append(speed.mark())
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a raising operation is a failed one
            result, error = None, exc
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.op = None
        problem = "raised %r" % error if error is not None else op.check(result)
        counts.attempted += 1
        if problem is not None:
            counts.failed += 1
            if counts.first_failure is None:
                counts.first_failure = "%s: %s" % (op.kind, problem)
        passed.append(problem is None)
    return passed


def warm_up(workload, rng, counts):
    latencies = []
    while sum(latencies) < WARM_SECONDS:
        run_ops(workload.round(rng, warm=True), counts, latencies)


def latency_metrics(latencies, passed):
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "ops_per_s": (passed / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
    }


def measure(workload, rng, seconds, counts, setup):
    """Whole rounds of operations until their timed time is nearest to
    ``seconds`` and they hold at least MIN_OPS operations, with a set-up
    repetition halfway.  Returns the metrics in reference seconds, the same
    as measured, and the number of operations."""
    speed = Speed()
    measured, marks, passed, rounds = [], [], 0, 0
    halfway = False
    while len(measured) < MIN_OPS or sum(measured) * (1 + 0.5 / max(rounds, 1)) < seconds:
        if not halfway and sum(measured) >= seconds / 2:
            speed.sample()
            setup.rep()
            halfway = True
        passed += sum(run_ops(workload.round(rng), counts, measured, speed=speed, marks=marks))
        rounds += 1
    speed.sample()
    latencies = [speed.reference(t, m) for t, m in zip(measured, marks)]
    return (latency_metrics(latencies, passed), latency_metrics(measured, passed),
            len(latencies))


def traced_run(workload, rng, counts, modules, header, path):
    """Per-layer metrics over a fixed number of rounds, so that call counts
    depend only on the seed.  Each operation runs twice, plainly and traced,
    alternating which goes first, to measure the tracing overhead."""
    tracer = spans.Tracer(modules)
    tracer.install()
    tracer.op = -1  # set-up spans (enumerate_rops) carry operation id -1
    try:
        workload.state = workload.prepare()
    finally:
        tracer.op = None
        tracer.restore()
    workload.prepare_checks()
    warm_up(workload, random.Random(rng.random()), counts)
    ops = [op for _ in range(workload.trace_rounds) for op in workload.round(rng)]
    plain, traced = [], []
    for k, op in enumerate(ops):
        for wrapped in ((False, True) if k % 2 == 0 else (True, False)):
            if not wrapped:
                run_ops([op], counts, plain)
                continue
            tracer.install()
            try:
                run_ops([op], counts, traced, tracer, k)
            finally:
                tracer.restore()
    overhead = sum(traced) / sum(plain) - 1
    header.append("operations %d, plain %.6f s, traced %.6f s" % (len(ops), sum(plain), sum(traced)))
    OUT.mkdir(exist_ok=True)
    tracer.write(path, header)
    return tracer.metrics(overhead), len(ops)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ropsum" / "__init__.py").is_file():
        print("no package at %s: run from the root of a ropsum checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    import ropsum

    if Path(ropsum.__file__).resolve().parent != SRC / "ropsum":
        print("imported ropsum from %s, not %s" % (ropsum.__file__, SRC), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r; one of %s" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    counts = Counts()
    info = machine_info()
    header = ["workload %s seed %d trace %d" % (args.workload, args.seed, args.trace),
              "machine " + json.dumps(info, sort_keys=True)]
    if args.trace:
        modules = {name: sys.modules["ropsum." + name] for name in PACKAGE_MODULES}
        path = OUT / ("spans-%s-seed%d.tsv.gz" % (args.workload, args.seed))
        metrics, samples = traced_run(workload, rng, counts, modules, header, path)
        header.append("spans written to %s" % path.relative_to(ROOT))
    else:
        setup = Setup(workload)
        setup.rep()
        workload.prepare_checks()
        warm_up(workload, random.Random(rng.random()), counts)
        values, measured, samples = measure(workload, rng, args.seconds, counts, setup)
        setup.rep()
        values["setup_s"], measured["setup_s"] = ((s, "s") for s in setup.seconds())
        header.append("as measured, not scaled: " + ", ".join(
            "%s %.6g %s" % (name, v, u) for name, (v, u) in measured.items()))
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

    header.append("timed operations %d, attempted %d, failed %d, failed_frac %.6f"
                  % (samples, counts.attempted, counts.failed, counts.failed / counts.attempted))
    if counts.first_failure:
        header.append("first failure: " + counts.first_failure)
    for line in header:
        print("# " + line)
    print(json.dumps({
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
