"""The machine's current speed, sampled between operations.

The small virtual machines this benchmark runs on share their cores with
other tenants, and the interpreter's speed moves by up to half within a
second and from one minute to the next.  Calls timed minutes apart then
differ by more than any change worth catching, and no median over one run
hides a slow minute.  Such a spell slows most pure-Python work alike, so a
fixed calibration loop run just before and just after some work measures
how fast the machine ran that work.  Of the loops tried (integer and
rational arithmetic on small objects, string handling, JSON, dictionaries
with tuple keys), the last followed the workloads' calls most closely
through the machine's swings: their times moved 0.86 to 1.05 times as much
as its time, where the arithmetic loop's moved 0.70 to 0.86.

``Speed`` runs the calibration loop between operations at least every
``EVERY`` seconds of wall time and converts each call's time to *reference
seconds*: the time the call would take on a machine where one calibration
loop takes ``REFERENCE_S``, at the mean of the samples just before and
just after the call.  On such a machine the two readings agree; on
a machine twice as slow a call takes twice as long and so does the loop,
and the reference time stays.  A change to the package moves its calls and
leaves the loop alone, so it shows in the reference time in full.

Importing the package in a fresh interpreter is mostly finding, reading
and unmarshalling files, which tracks the calibration loop poorly.  Its
yardstick is ``IMPORT_PROBE``: importing a fixed set of standard-library
modules that the package does not use, in another fresh interpreter, just
after.  ``import_reference`` converts with it.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Seconds one calibration loop takes on the reference machine; it is about
# what the loop takes on a 2-vCPU x86_64 VM with CPython 3.11 at its faster
# moments.
REFERENCE_S = 0.0035
# Wall seconds between calibration samples, and runs of the loop per sample.
EVERY = 0.2
REPS = 2

# Seconds IMPORT_PROBE takes on the reference machine.
IMPORT_REFERENCE_S = 0.05
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import asyncio, csv, email.parser, http.client, logging, xml.dom.minidom\n"
    "print(time.perf_counter() - t)\n"
)


def _loop():
    """Builds and probes a dictionary with tuple keys, twice; the dictionary
    is kept small, since it adds to the run's peak memory."""
    total = 0
    for _ in range(2):
        table = {}
        for i in range(6000):
            table[(i & 63, i >> 6)] = i
        for i in range(6000):
            total += table.get((i & 63, (i * 7) >> 6), 0)
    return total


def calibrate():
    """Seconds of the fastest of REPS calibration loops.  The collector is off
    meanwhile, so that garbage the operations left does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPS):
            start = perf_counter()
            _loop()
            took = perf_counter() - start
            best = took if best is None else min(best, took)
        return best
    finally:
        if enabled:
            gc.enable()


def import_reference(seconds, probe_seconds):
    """An import time in reference seconds, given the time IMPORT_PROBE took
    next to it."""
    return seconds * IMPORT_REFERENCE_S / probe_seconds


class Speed:
    """Calibration samples taken between the calls of a run."""

    def __init__(self):
        self.samples = []
        self.last = None

    def sample(self):
        self.samples.append(calibrate())
        self.last = perf_counter()

    def mark(self):
        """Called before each operation: samples if one is due, and returns
        the index of the sample that precedes the operation."""
        if self.last is None or perf_counter() - self.last >= EVERY:
            self.sample()
        return len(self.samples) - 1

    def reference(self, seconds, mark):
        """``seconds`` measured between samples ``mark`` and ``mark + 1`` in
        reference seconds.  Call ``sample`` once after the last operation."""
        around = (self.samples[mark] + self.samples[mark + 1]) / 2
        return seconds * REFERENCE_S / around
