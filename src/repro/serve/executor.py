"""Batch execution of cold misses: dedup'd jobs hit the engines here.

The server's submit path answers cache hits itself; what reaches this
module is the deduplicated cold-miss stream, already grouped into
batches of jobs that share every trace-shaping knob
(:meth:`~repro.serve.jobs.JobSpec.batch_key`).  A batch runs on one of
two backends:

``scalar``
    One in-process simulation per job; jobs on the same benchmark share
    one generated trace.  The default.

``farm``
    Jobs are injected programmatically into the sweep farm
    (:func:`repro.farm.run_cells_farm`) as durable leases; completion
    callbacks fan results back per job.  Jobs carrying a ``regs``
    override run locally instead (a farm cell's config is derived from
    its (scheme, width, spec) key alone).

Every result carries cost accounting — cycles simulated, instructions
committed, wall seconds, backend, batch fan-in — which the server
journals, caches, and aggregates into ``/metrics``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.serve.jobs import JobSpec

#: Backend names the server accepts; the first is the default.
SERVE_BACKENDS = ("scalar", "farm")


@dataclass
class JobResult:
    """What one job's simulation produced."""

    status: str  # "ok" | "error"
    stats: Optional[Dict] = None
    error: Optional[Dict] = None
    cost: Dict = field(default_factory=dict)


def resolve_backend(requested: str) -> str:
    """Validate a backend name; returns it unchanged."""
    if requested not in SERVE_BACKENDS:
        raise ValueError(
            f"backend must be one of {SERVE_BACKENDS}, got {requested!r}")
    return requested


class _TraceCache:
    """One generated trace per (benchmark, length, warmup, seed): jobs
    in a batch share traces, and repeat batches re-use them."""

    def __init__(self, limit: int = 32) -> None:
        self._cache: Dict[Tuple, object] = {}
        self._limit = limit

    def get(self, spec: JobSpec):
        from repro.workloads import generate_trace

        key = (spec.benchmark, spec.length, spec.warmup, spec.seed)
        trace = self._cache.get(key)
        if trace is None:
            if len(self._cache) >= self._limit:
                self._cache.pop(next(iter(self._cache)))
            trace = generate_trace(spec.benchmark, spec.length,
                                   seed=spec.seed, warmup=spec.warmup)
            self._cache[key] = trace
        return trace


@dataclass
class FarmOptions:
    """How the ``farm`` backend drives :func:`repro.farm.run_cells_farm`
    for each batch (one broker round per batch)."""

    root: str
    workers: int = 2
    endpoint: Optional[str] = None
    retries: int = 2
    lease_ttl: float = 30.0
    heartbeat_interval: float = 1.0
    poll_interval: float = 0.1
    grace: float = 5.0


class BatchExecutor:
    """Runs batches of cold misses; stateless between batches except
    for the trace cache."""

    def __init__(self, backend: str = "scalar",
                 farm_options: Optional[FarmOptions] = None) -> None:
        self.backend = resolve_backend(backend)
        if self.backend == "farm" and farm_options is None:
            raise ValueError("backend='farm' needs FarmOptions")
        self.farm_options = farm_options
        self._traces = _TraceCache()

    # ------------------------------------------------------------ entry

    def run_batch(self, specs: List[JobSpec]) -> Dict[str, JobResult]:
        """Simulate every job in ``specs`` (all sharing a batch key);
        returns job-id -> :class:`JobResult`.  Never raises for a
        per-job failure — errors come back as structured results."""
        if not specs:
            return {}
        if self.backend == "farm":
            farmable = [s for s in specs if s.regs is None]
            local = [s for s in specs if s.regs is not None]
            out: Dict[str, JobResult] = {}
            if farmable:
                out.update(self._run_farm(farmable))
            if local:
                out.update(self._run_scalar(local))
            return out
        return self._run_scalar(specs)

    # ----------------------------------------------------------- scalar

    def _run_scalar(self, specs: List[JobSpec]) -> Dict[str, JobResult]:
        from repro.core.machine import Machine, SimulationError

        out: Dict[str, JobResult] = {}
        for spec in specs:
            trace = self._traces.get(spec)
            started = time.perf_counter()
            try:
                stats = Machine(spec.config()).run(
                    trace, max_cycles=spec.max_cycles)
                if (spec.max_cycles is not None
                        and stats.committed < len(trace)):
                    raise SimulationError(
                        f"cycle-limit watchdog: {spec.benchmark}/"
                        f"{spec.scheme} committed only {stats.committed}/"
                        f"{len(trace)} instructions in {spec.max_cycles} "
                        f"cycles")
                elapsed = time.perf_counter() - started
                out[spec.job_id()] = JobResult(
                    status="ok", stats=stats.to_dict(),
                    cost=_cost("scalar", stats.cycles, stats.committed,
                               elapsed, batch_jobs=1),
                )
            except Exception as exc:  # noqa: BLE001 — structured, never fatal
                elapsed = time.perf_counter() - started
                out[spec.job_id()] = JobResult(
                    status="error",
                    error={"error_type": type(exc).__name__,
                           "message": str(exc)},
                    cost=_cost("scalar", 0, 0, elapsed, batch_jobs=1),
                )
        return out

    # ------------------------------------------------------------- farm

    def _run_farm(self, specs: List[JobSpec]) -> Dict[str, JobResult]:
        from repro.experiments.runner import CellError
        from repro.farm import FarmSpec, run_cells_farm

        options = self.farm_options
        # All specs share a batch key, so one RunSpec and width fit all.
        run_spec = specs[0].run_spec()
        width = specs[0].width
        by_cell = {(s.benchmark, s.scheme): s for s in specs}
        farm = FarmSpec(
            root=options.root, workers=options.workers,
            endpoint=options.endpoint, lease_ttl=options.lease_ttl,
            heartbeat_interval=options.heartbeat_interval,
            poll_interval=options.poll_interval, grace=options.grace,
        )
        out: Dict[str, JobResult] = {}
        started = time.perf_counter()

        def on_cell_done(benchmark: str, scheme: str, cell) -> None:
            spec = by_cell[(benchmark, scheme)]
            elapsed = time.perf_counter() - started
            if isinstance(cell, CellError):
                out[spec.job_id()] = JobResult(
                    status="error",
                    error={"error_type": cell.error_type,
                           "message": cell.message, "kind": cell.kind},
                    cost=_cost("farm", 0, 0, elapsed,
                               batch_jobs=len(specs)))
            else:
                out[spec.job_id()] = JobResult(
                    status="ok", stats=cell.to_dict(),
                    cost=_cost("farm", cell.cycles, cell.committed,
                               elapsed, batch_jobs=len(specs)))

        run_cells_farm(
            sorted(by_cell), width, run_spec, farm, None, on_cell_done,
            retries=options.retries,
        )
        return out


def _cost(backend: str, cycles: int, instructions: int,
          wall_seconds: float, **extra) -> Dict:
    return {"backend": backend, "cycles": cycles,
            "instructions": instructions,
            "wall_seconds": round(wall_seconds, 6), **extra}


#: Signature of the server's completion callback, for reference:
#: ``on_job_done(job_id: str, result: JobResult) -> None``.
OnJobDone = Callable[[str, JobResult], None]
