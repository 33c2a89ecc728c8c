"""Span recorder for the traced benchmark run.

Wraps the public functions of each ``fairdyn`` layer from outside the
library, records one span per call (name, start, end, parent span, job id)
in memory, and derives per-layer self time and call counts after the run.
A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = (
    "population",
    "policy",
    "metrics",
    "optimize",
    "dynamics",
    "scenarios",
    "causal",
    "cli",
)

# Methods traced besides the public module-level functions, as
# span name -> (module, class, attribute). The two scenario hooks are the
# callables that ``simulate`` receives from ``run_scenario``.
METHODS = {
    "population.GroupState.with_pmf": ("population", "GroupState", "with_pmf"),
    "policy.Policy.from_arrays": ("policy", "Policy", "from_arrays"),
    "policy.RandomizedThresholdPolicy.expand": (
        "policy",
        "RandomizedThresholdPolicy",
        "expand",
    ),
    "causal.CausalModel.validate": ("causal", "CausalModel", "validate"),
    "scenarios.pre_step": ("scenarios", "_ScenarioEngine", "pre_step"),
    "scenarios.policy_hook": ("scenarios", "_ScenarioEngine", "policy"),
}


def _joint_states(args, kwargs):
    model = args[0] if args else kwargs["m"]
    return math.prod(len(dom) for dom in model.domains.values())


def _bin_steps(args, kwargs):
    pop = args[0] if args else kwargs["pop"]
    return len(pop.grid.bin_scores) * len(pop.groups)


# Work counts computed from a traced call's arguments, as
# counter name -> (span name, function of (args, kwargs)).
COUNTERS = {
    "causal.joint_states": ("causal.joint_distribution", _joint_states),
    "dynamics.bin_steps": ("dynamics.step", _bin_steps),
}


class SpanRecorder:
    """In-memory spans, stored column-wise to keep the per-call cost low."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1

    def add(self, name, start, end, parent, job) -> int:
        """Append a finished span; used to build span trees by hand."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.jobs.append(job)
        return len(self.names) - 1

    def wrap(self, name, fn, counter=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, jobs, stack = self.parents, self.jobs, self.stack
        counts = self.counts
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            jobs.append(rec.job)
            ends.append(0.0)
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\n")
            for i, (n, s, e, p, j) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.jobs)
            ):
                fh.write(f"{i}\t{n}\t{s!r}\t{e!r}\t{p}\t{j}\n")


def self_times(rec: SpanRecorder) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span's own interval."""
    children = defaultdict(list)
    for i, p in enumerate(rec.parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(rec.starts, rec.ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=rec.starts.__getitem__):
            lo, hi = max(rec.starts[c], s), min(rec.ends[c], e)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((e - s) - covered)
    return out


def _traced_functions():
    """(span name, owner, attribute, original) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"fairdyn.{layer}")
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out.append((f"{layer}.{attr}", mod, attr, obj))
    for name, (layer, cls_name, attr) in METHODS.items():
        cls = getattr(importlib.import_module(f"fairdyn.{layer}"), cls_name)
        out.append((name, cls, attr, vars(cls)[attr]))
    return out


@contextlib.contextmanager
def traced(rec: SpanRecorder):
    """Install span wrappers at every binding of each traced callable.

    ``from .x import f`` copies a reference into the importing module, so
    the wrapper replaces the original wherever a ``fairdyn`` module (or the
    package itself) holds it, not only in the defining module.
    """
    by_counter = {span: (cname, fn) for cname, (span, fn) in COUNTERS.items()}
    wrappers = {}
    patches = {}
    for name, owner, attr, orig in _traced_functions():
        fn = orig.__func__ if isinstance(orig, staticmethod) else orig
        w = rec.wrap(name, fn, by_counter.get(name))
        wrappers[orig] = staticmethod(w) if isinstance(orig, staticmethod) else w
        patches[id(owner), attr] = (owner, attr, orig)
    for modname, mod in list(sys.modules.items()):
        if modname != "fairdyn" and not modname.startswith("fairdyn."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches[id(mod), attr] = (mod, attr, obj)
    patches = list(patches.values())
    try:
        for owner, attr, orig in patches:
            setattr(owner, attr, wrappers[orig])
        yield rec
    finally:
        for owner, attr, orig in patches:
            setattr(owner, attr, orig)
