"""Spans around calls into the package's modules, recorded from outside.

``Tracer.install`` wraps each traced function and rebinds every name that
refers to it: the defining module's global, each ``ropsum`` module that
imported it (``ropsum.decompose.verify_against``, ``ropsum.cli.is_rop``),
and the listed ``MultilinearPoly`` methods.  ``restore`` puts the originals
back.  A span is recorded only while an operation is active, and holds
its name, start, end, parent span and operation id; spans stay in memory
until ``write``.  ``FieldElem`` arithmetic is not wrapped: a wrapper per
scalar operation would cost more than the operation, so that time shows
as self time of the enclosing ``mpoly``/``rof`` spans.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter

FUNCTIONS = (
    ("scalars", ("sqrt_in_field", "parse_scalar")),
    ("mpoly", ("commutator", "linear_dependent")),
    ("rof", ("evaluate", "sum_evaluate", "verify_against", "parse_rof", "print_rof")),
    ("recognize", ("is_rop", "family4_decide", "sum2_refute")),
    ("decompose", ("generic", "pair_monomials", "symmetric_halves", "sympoly4")),
    ("oracle", ("enumerate_rops", "min_k", "pack")),
    ("cli", ("main", "parse_poly_text")),
)
# MultilinearPoly attribute -> span name
METHODS = (
    ("__init__", "mpoly.MultilinearPoly"),
    ("__add__", "mpoly.add"),
    ("mul_disjoint", "mpoly.mul_disjoint"),
    ("scale", "mpoly.scale"),
    ("partial", "mpoly.partial"),
    ("restrict", "mpoly.restrict"),
)
# The reported per-layer metrics: every stat of these spans ...
FULL = (
    "mpoly.MultilinearPoly", "mpoly.add", "mpoly.mul_disjoint", "mpoly.scale",
    "mpoly.partial", "mpoly.restrict",
    "rof.evaluate", "rof.sum_evaluate", "rof.verify_against",
    "recognize.is_rop", "recognize.family4_decide", "recognize.sum2_refute",
    "decompose.generic", "decompose.pair_monomials", "decompose.symmetric_halves",
    "decompose.sympoly4",
    "oracle.min_k",
    "scalars.sqrt_in_field", "scalars.parse_scalar",
    "cli.main", "cli.parse_poly_text",
)
# ... and only the busy time of these.
BUSY_ONLY = (
    "mpoly.commutator", "mpoly.linear_dependent", "rof.parse_rof", "rof.print_rof",
    "oracle.enumerate_rops", "oracle.pack",
)
# Counters derived from answers.
DERIVED = (
    "recognize.is_rop.positive_frac",
    "decompose.summands",
    "decompose.verify_share",
    "summands_per_op",
    "oracle.min_k.answers_k1",
    "oracle.min_k.answers_k2",
    "oracle.min_k.answers_k3",
    "oracle.min_k.answers_none",
)


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in FULL:
        out += [(name + ".calls", "count"), (name + ".busy_s", "s"),
                (name + ".self_s", "s"), (name + ".errors", "count")]
    out += [(name + ".busy_s", "s") for name in BUSY_ONLY]
    units = {"recognize.is_rop.positive_frac": "fraction", "decompose.verify_share": "fraction",
             "summands_per_op": "count"}
    out += [(name, units.get(name, "count")) for name in DERIVED]
    out.append(("trace_overhead_frac", "fraction"))
    return out


class Tracer:
    def __init__(self, package):
        """``package`` maps short module names (``"rof"``) to the modules."""
        self.package = package
        self.names = [name for _, name in METHODS]
        self.names += ["%s.%s" % (mod, fn) for mod, fns in FUNCTIONS for fn in fns]
        self.index = {name: i for i, name in enumerate(self.names)}
        self._patched = []
        self.op = None  # id of the active operation; None records nothing
        self._stack = []  # [span id, time covered by children] per open span
        self._active = [0] * len(self.names)
        # spans, one entry per span id
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        # aggregates
        self.calls = [0] * len(self.names)
        self.busy = [0.0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.errors = [0] * len(self.names)
        self.positives = 0
        self.answers = {1: 0, 2: 0, 3: 0, None: 0}
        self.summands = 0
        self.decompositions = 0
        self.decompose_busy = 0.0
        self.verify_in_decompose = 0.0
        self._decompose = {self.index["decompose." + fn] for fn in FUNCTIONS[4][1]}

    # -- installing -------------------------------------------------------

    def install(self):
        cls = self.package["mpoly"].MultilinearPoly
        for attr, name in METHODS:
            self._rebind(cls, attr, self._wrap(name, cls.__dict__[attr]))
        for mod, fns in FUNCTIONS:
            for fn in fns:
                original = getattr(self.package[mod], fn)
                wrapper = self._wrap("%s.%s" % (mod, fn), original)
                for module in self.package.values():
                    if module.__dict__.get(fn) is original:
                        self._rebind(module, fn, wrapper)

    def _rebind(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        idx = self.index[name]
        on_result = {
            "recognize.is_rop": self._on_is_rop,
            "oracle.min_k": self._on_min_k,
            "rof.verify_against": self._on_verify,
        }.get(name)
        if idx in self._decompose:
            on_result = self._on_decompose
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = len(tracer.span_name)
            stack = tracer._stack
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            outermost = tracer._active[idx] == 0
            tracer._active[idx] += 1
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[idx] += 1
                raise
            finally:
                end = perf_counter()
                duration = end - start
                tracer.span_end[sid] = end
                stack.pop()
                tracer._active[idx] -= 1
                if stack:
                    stack[-1][1] += duration
                tracer.calls[idx] += 1
                tracer.self_time[idx] += duration - frame[1]
                if outermost:
                    tracer.busy[idx] += duration
            if on_result is not None:
                on_result(result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_is_rop(self, result, duration):
        self.positives += result is not None

    def _on_min_k(self, result, duration):
        self.answers[result] += 1

    def _inside_decompose(self):
        return any(self._active[i] for i in self._decompose)

    def _on_verify(self, result, duration):
        if self._inside_decompose():
            self.verify_in_decompose += duration

    def _on_decompose(self, result, duration):
        # symmetric_halves hands odd n to pair_monomials: count the outer call
        if not self._inside_decompose():
            self.decompositions += 1
            self.summands += len(result)
            self.decompose_busy += duration

    # -- reporting --------------------------------------------------------

    def metrics(self, overhead_frac):
        values = {}
        for name in FULL + BUSY_ONLY:
            i = self.index[name]
            values[name + ".calls"] = self.calls[i]
            values[name + ".busy_s"] = self.busy[i]
            values[name + ".self_s"] = self.self_time[i]
            values[name + ".errors"] = self.errors[i]
        is_rop_calls = self.calls[self.index["recognize.is_rop"]]
        values["recognize.is_rop.positive_frac"] = self.positives / is_rop_calls if is_rop_calls else 0.0
        values["decompose.summands"] = self.summands
        values["decompose.verify_share"] = (
            self.verify_in_decompose / self.decompose_busy if self.decompose_busy else 0.0)
        values["summands_per_op"] = self.summands / self.decompositions if self.decompositions else 0.0
        for k, label in ((1, "k1"), (2, "k2"), (3, "k3"), (None, "none")):
            values["oracle.min_k.answers_" + label] = self.answers[k]
        values["trace_overhead_frac"] = overhead_frac
        return {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}

    def write(self, path, header_lines):
        """All spans as gzip-compressed tab-separated text, times in seconds
        from the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for line in header_lines:
                fh.write("# %s\n" % line)
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            names = self.names
            for sid in range(len(self.span_name)):
                fh.write("%d\t%s\t%.7f\t%.7f\t%d\t%d\n" % (
                    sid, names[self.span_name[sid]], self.span_start[sid] - origin,
                    self.span_end[sid] - origin, self.span_parent[sid], self.span_op[sid]))
