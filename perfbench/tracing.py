"""In-memory spans and call counters, installed by wrapping public functions.

Nothing in the package is edited: each wrapper replaces a module or class
attribute at the place the caller looks it up, and `Tracer.installed()`
puts every original back when the traced block ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

from choreocert import cli, convexity, dynamics, integrator, kernels, problems

# (owner, attribute, span name).  The owner is the namespace the caller reads
# the name from: `cli` imports the problem, rootfind, pointflow, certificate
# and convexity entry points by name, and `flow_to_section` is imported by
# name into `problems` and `convexity`.
SPANS = (
    (cli, "run_certification", "cli.run_certification"),
    (cli, "monodromy_preconditioner", "pointflow.monodromy_preconditioner"),
    (cli, "certify", "rootfind.certify"),
    (cli, "phi_point", "problems.phi_point"),
    (cli, "phi_jacobian", "problems.phi_jacobian"),
    (cli, "verify_convexity", "convexity.verify_convexity"),
    (cli, "reverify_document", "certificates.reverify_document"),
    (problems, "flow_to_section", "integrator.flow_to_section"),
    (convexity, "flow_to_section", "integrator.flow_to_section"),
    (integrator, "step", "integrator.step"),
    (dynamics.GravityField, "series", "dynamics.series"),
    (dynamics.GravityField, "eval", "dynamics.eval"),
    (dynamics.GravitySeries, "transition_layers", "dynamics.transition_layers"),
)

# Spans whose last return value is kept, for the microbenchmarks that need
# the objects a real run built.
KEEP = frozenset({"cli.run_certification", "convexity.verify_convexity"})

# Kernels are counted, not spanned: a span per kernel call costs more than
# many of the kernels themselves.
KERNELS = tuple(name for name, fn in vars(kernels).items()
                if inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == kernels.__name__)

NAME, START, END, PARENT = range(4)


class Tracer:
    """Spans [name, start, end, parent index] and per-name call counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(KERNELS, 0)
        self.last: dict = {}
        self._stack = [-1]

    def _spanned(self, name, fn):
        spans, stack, last, clock = self.spans, self._stack, self.last, time.perf_counter
        keep = name in KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
            if keep:
                last[name] = result
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself (an operation); yields its index."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield self._stack[-1]
        finally:
            self._stack.pop()
            rec[END] = time.perf_counter()

    @contextlib.contextmanager
    def installed(self):
        patches = [(owner, attr, self._spanned(name, getattr(owner, attr)))
                   for owner, attr, name in SPANS]
        patches += [(kernels, name, self._counted(name, getattr(kernels, name)))
                    for name in KERNELS]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class OpTrace:
    """The spans of one operation: the root at `spans[root]` and its subtree."""

    def __init__(self, spans: list[list], root: int, end: int, counts: dict):
        self.spans = spans[root:end]
        self.root = root
        self.counts = counts
        kids: dict[int, list] = {}
        for i, rec in enumerate(self.spans):
            if i:
                kids.setdefault(rec[PARENT] - root, []).append(i)
        self.children = kids
        self.self_time = [
            rec[END] - rec[START] - _covered(
                rec[START], rec[END],
                [(self.spans[k][START], self.spans[k][END]) for k in kids.get(i, ())])
            for i, rec in enumerate(self.spans)]

    @property
    def wall(self) -> float:
        return self.spans[0][END] - self.spans[0][START]

    def duration(self, i: int) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def named(self, name: str, under: str | None = None) -> list[int]:
        """Indices of spans called `name`, optionally inside a span called `under`."""
        return [i for i, rec in enumerate(self.spans)
                if rec[NAME] == name and (under is None or self.inside(i, under))]

    def inside(self, i: int, name: str) -> bool:
        p = self.spans[i][PARENT] - self.root
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT] - self.root
        return False

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.named(name))

    def self_by_layer(self) -> dict[str, float]:
        """Self time summed per layer (the span name's module prefix)."""
        out: dict[str, float] = {}
        for rec, own in zip(self.spans, self.self_time):
            layer = rec[NAME].split(".")[0]
            out[layer] = out.get(layer, 0.0) + own
        return out
