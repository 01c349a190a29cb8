"""Spans around the public entry points of each layer, installed from
the benchmark's own files.

Only the traced run installs anything.  Spans are kept in memory (one
tuple each) and written out when the run ends; the cycle-loop stages,
which run once per simulated cycle, are accumulated per loop and laid
out as consecutive child spans of that loop when it returns, so a
20k-cycle cell adds five spans instead of 100k.

Processes forked by the farm inherit the wrappers; each forked child
appends its spans and counts to a file in the run's spool directory
when it exits, and :meth:`Tracer.absorb_spool` folds them back in.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

from measure import Span

perf = time.perf_counter

#: The five stage methods ``Machine._run_loop`` calls every cycle, with
#: the per-layer metric each one feeds.
STAGES = (
    ("_process_events", "core.events"),
    ("_commit", "core.commit"),
    ("_select", "core.select"),
    ("_rename", "core.rename"),
    ("_fetch", "core.fetch"),
)

#: ``SimStats`` counters reported under the ``rename`` layer.
RENAME_COUNTS = (
    ("rename_stall_regs", "rename.stall_regs_cycles"),
    ("inlined", "rename.inlined"),
    ("pri_early_frees", "rename.pri_early_frees"),
    ("er_early_frees", "rename.er_early_frees"),
)


def cell_identity(benchmark: str, seed: int, length: int, config) -> str:
    """What one simulation computed: the trace's identity plus the
    resolved machine config's digest."""
    from repro.config import config_digest

    return f"{benchmark}|s{seed}|n{length}|{config_digest(config)}"


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str, spool: Optional[str] = None) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: cell identity -> SimStats.to_dict() of every Machine run.
        self.cells: Dict[str, Dict] = {}
        #: Cell identities that produced two different results.
        self.divergent: List[str] = []
        #: ``cell_key`` of every cell a ``run_matrix`` call requested.
        self.cell_keys: List[str] = []
        self.spool = spool
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage_acc: Optional[Dict[str, float]] = None
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, parent: Optional[int], start: float,
            end: float) -> int:
        sid = next(self._ids)
        self.spans.append((sid, parent, name, start, end))
        return sid

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` and remember how to put it back."""
        original = owner.__dict__[attr]  # a class or a module
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------- core layer

    def install_core(self) -> None:
        """Spans around ``Machine`` construction, ``run``, ``warmup``,
        the cycle loop and its five stages, and ``_finalize`` — on the
        class, so every caller (run_one, Figure 9's ``simulate``, farm
        workers) is covered."""
        from repro.core.machine import Machine

        tracer = self
        orig_init = Machine.__init__
        orig_run = Machine.run
        orig_loop = Machine._run_loop

        def init(machine, *args, **kwargs):
            tracer.call("core.construct", orig_init, machine, *args, **kwargs)

        def run(machine, trace, *args, **kwargs):
            stats = tracer.call("core.run", orig_run, machine, trace,
                                *args, **kwargs)
            tracer.record_cell(cell_identity(
                trace.name, trace.seed, len(trace), machine.cfg), stats)
            return stats

        def run_loop(machine):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            acc = {metric: 0.0 for _, metric in STAGES}
            outer, tracer._stage_acc = tracer._stage_acc, acc
            start = perf()
            try:
                return orig_loop(machine)
            finally:
                end = perf()
                tracer._stage_acc = outer
                stack.pop()
                tracer.spans.append((sid, parent, "core.loop", start, end))
                at = start
                for _, metric in STAGES:
                    tracer.add(metric, sid, at, at + acc[metric])
                    at += acc[metric]

        self.patch(Machine, "__init__", init)
        self.patch(Machine, "run", run)
        self.patch(Machine, "_run_loop", run_loop)
        self.patch(Machine, "warmup", self.wrap("core.warmup", Machine.warmup))
        self.patch(Machine, "_finalize",
                   self.wrap("core.finalize", Machine._finalize))
        for method, metric in STAGES:
            self.patch(Machine, method,
                       self._stage(metric, Machine.__dict__[method]))

    def _stage(self, metric: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def stage(machine, *args):
            acc = tracer._stage_acc
            start = perf()
            try:
                return fn(machine, *args)
            finally:
                if acc is not None:
                    acc[metric] += perf() - start
        return stage

    def record_cell(self, identity: str, stats) -> None:
        data = stats.to_dict()
        seen = self.cells.get(identity)
        if seen is not None and seen != data:
            self.divergent.append(identity)
        self.cells[identity] = data
        self.counts["core.runs"] += 1
        self.counts["core.sim_cycles"] += stats.cycles
        self.counts["core.committed"] += stats.committed
        for field, metric in RENAME_COUNTS:
            self.counts[metric] += getattr(stats, field)

    # ------------------------------------------------ experiments layer

    def matrix(self, run_matrix: Callable) -> Callable:
        """``run_matrix`` inside an ``experiments.run_matrix`` span,
        recording the ``cell_key`` of every requested cell."""
        from repro.experiments import RunSpec, cell_key

        @functools.wraps(run_matrix)
        def traced(benchmarks, schemes, width=4, spec=None, *args, **kwargs):
            for benchmark in benchmarks:
                for scheme in schemes:
                    self.cell_keys.append(cell_key(
                        benchmark, scheme, width, spec or RunSpec()))
            return self.call("experiments.run_matrix", run_matrix,
                             benchmarks, schemes, width, spec,
                             *args, **kwargs)
        return traced

    def install_matrix(self) -> None:
        """Route the figure drivers' ``run_matrix`` calls through
        :meth:`matrix`."""
        from repro.experiments import figures

        self.patch(figures, "run_matrix", self.matrix(figures.run_matrix))

    # -------------------------------------------------- workloads layer

    def trace_cache(self):
        """A ``TraceCache`` whose misses run inside a
        ``workloads.generate`` span; pass it as ``traces=``."""
        from repro.experiments.runner import TraceCache

        class SpanTraceCache(TraceCache):
            get = _counting_get(self, TraceCache.get)

        return SpanTraceCache()

    def install_trace_cache_class(self) -> None:
        """Wrap ``TraceCache.get`` on the class itself, for processes the
        benchmark cannot hand a cache to (farm workers build their own)."""
        from repro.experiments.runner import TraceCache

        self.patch(TraceCache, "get",
                   _counting_get(self, TraceCache.__dict__["get"]))

    # ------------------------------------------------------ store layer

    def install_store(self) -> None:
        from repro.store import add_io_observer, remove_io_observer

        def observe(event: Dict) -> None:
            # Through self: a forked child swaps in a fresh Counter.
            self.counts["store." + event["op"]] += 1

        add_io_observer(observe)
        self._undo.append(lambda: remove_io_observer(observe))

    # ------------------------------------------------- forked children

    def install_fork_spool(self) -> None:
        """Make every multiprocessing child forked from here start with
        an empty record and append it to the spool when it exits."""
        os.makedirs(self.spool, exist_ok=True)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.cells = {}
        self.divergent = []
        self._local = threading.local()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        path = os.path.join(self.spool, f"{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "cells": self.cells,
                       "divergent": self.divergent}, handle)

    def absorb_spool(self) -> List[Dict]:
        """Read (and delete) every child record; returns them."""
        records = []
        for name in sorted(os.listdir(self.spool)):
            path = os.path.join(self.spool, name)
            with open(path) as handle:
                records.append(json.load(handle))
            os.remove(path)
        for record in records:
            self.counts.update(record["counts"])
            for identity, data in record["cells"].items():
                seen = self.cells.get(identity)
                if seen is not None and seen != data:
                    self.divergent.append(identity)
                self.cells[identity] = data
            self.divergent.extend(record["divergent"])
        return records


def _counting_get(t: Tracer, get: Callable) -> Callable:
    """``TraceCache.get`` that times generation (cache misses) under a
    ``workloads.generate`` span and counts generated instructions."""

    @functools.wraps(get)
    def traced_get(cache, benchmark, spec):
        # The cache holds one trace per (benchmark, spec workload knobs);
        # the first request for a key is the one that generates.
        seen = cache.__dict__.setdefault("perfbench_seen", set())
        key = (benchmark, spec.length, spec.warmup, spec.seed)
        if key in seen:
            return get(cache, benchmark, spec)
        seen.add(key)
        stack = t._stack()
        parent = stack[-1] if stack else None
        start = perf()
        trace = get(cache, benchmark, spec)
        t.add("workloads.generate", parent, start, perf())
        t.counts["workloads.traces"] += 1
        t.counts["workloads.instructions"] += (
            len(trace) + len(trace.warmup_ops))
        return trace
    return traced_get
