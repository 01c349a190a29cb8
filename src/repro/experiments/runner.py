"""Experiment runner: scheme registry, trace caching, and sweep drivers.

The scheme names follow the paper's Figures 10 and 12 exactly:

============================  ==================================================
``base``                      conventional machine (free at redefiner commit)
``ER``                        prior-work early release (Moudgill counters/flags)
``PRI-refcount+ckptcount``    PRI, WAR via consumer refcounts, checkpoint
                              reference counting (the realistic design point)
``PRI-refcount+lazy``         PRI, consumer refcounts, lazy checkpoint patching
``PRI-ideal+ckptcount``       PRI, instantaneous payload-RAM update, ckpt counts
``PRI-ideal+lazy``            PRI, instantaneous payload-RAM update, lazy patch
``PRI+ER``                    PRI (refcount+ckptcount) combined with ER
``inf``                       unlimited physical registers (upper bound)
============================  ==================================================
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import (
    EFFECTIVELY_INFINITE_REGS,
    CheckpointPolicy,
    MachineConfig,
    WarPolicy,
    config_digest,
    eight_wide,
    four_wide,
)
from repro.core.machine import Machine, SimulationError, simulate
from repro.core.stats import SimStats
from repro.experiments.journal import SweepJournal, cell_key
from repro.farm.lease import FarmSpec
from repro.retry import backoff_delay
from repro.workloads import SPEC_FP, SPEC_INT, Trace, generate_trace

#: Ceiling (seconds) on the jittered exponential retry backoff.
BACKOFF_CAP = 30.0

#: Wall-clock grace an interrupted sweep gives in-flight cells to hand
#: over results already in the pipe before they are terminated.
_DRAIN_GRACE = 2.0


def _with_inf_regs(config: MachineConfig) -> MachineConfig:
    return dataclasses.replace(
        config,
        int_phys_regs=EFFECTIVELY_INFINITE_REGS,
        fp_phys_regs=EFFECTIVELY_INFINITE_REGS,
    )


#: Scheme name -> config transformer.
SCHEMES: Dict[str, Callable[[MachineConfig], MachineConfig]] = {
    "base": lambda c: c,
    "ER": lambda c: c.with_early_release(),
    "PRI-refcount+ckptcount": lambda c: c.with_pri(
        WarPolicy.REFCOUNT, CheckpointPolicy.CKPTCOUNT
    ),
    "PRI-refcount+lazy": lambda c: c.with_pri(WarPolicy.REFCOUNT, CheckpointPolicy.LAZY),
    "PRI-ideal+ckptcount": lambda c: c.with_pri(WarPolicy.IDEAL, CheckpointPolicy.CKPTCOUNT),
    "PRI-ideal+lazy": lambda c: c.with_pri(WarPolicy.IDEAL, CheckpointPolicy.LAZY),
    "PRI+ER": lambda c: c.with_pri(
        WarPolicy.REFCOUNT, CheckpointPolicy.CKPTCOUNT
    ).with_early_release(),
    "inf": _with_inf_regs,
}

#: The scheme series of Figures 10 and 12, in the paper's legend order.
FIGURE10_SCHEMES: Tuple[str, ...] = (
    "ER",
    "PRI-refcount+ckptcount",
    "PRI-refcount+lazy",
    "PRI-ideal+ckptcount",
    "PRI-ideal+lazy",
    "PRI+ER",
    "inf",
)

INT_BENCHMARKS: Tuple[str, ...] = tuple(p.name for p in SPEC_INT)
FP_BENCHMARKS: Tuple[str, ...] = tuple(p.name for p in SPEC_FP)


def width_config(width: int) -> MachineConfig:
    """The Table 1 machine for a given issue width."""
    if width == 4:
        return four_wide()
    if width == 8:
        return eight_wide()
    raise ValueError(f"no Table 1 machine with width {width}")


@dataclass
class RunSpec:
    """How much work each simulation does.

    The paper runs 100M instructions after 400M of fast-forward; a Python
    cycle simulator cannot, so the defaults are small and every driver
    takes a spec so callers can scale up.
    """

    length: int = 6000
    warmup: int = 20000
    seed: int = 1
    #: In-simulator deadlock watchdog: abort the cell (with
    #: :class:`SimulationError`) if it needs more than this many cycles,
    #: instead of silently truncating.  None = unbounded.
    max_cycles: Optional[int] = None
    #: Run every cell with the invariant auditor attached
    #: (:mod:`repro.audit`); bookkeeping corruption then fails the cell
    #: loudly instead of skewing its results.
    audit: bool = False
    #: Run every cell under the golden-model differential oracle
    #: (:mod:`repro.oracle`); a committed value, branch outcome, or
    #: memory effect that diverges from in-order execution fails the cell
    #: with a structured :class:`~repro.oracle.OracleDivergence`.
    oracle: bool = False
    #: Snapshot the full machine state every N cycles
    #: (:mod:`repro.core.snapshot`).  A cell that crashes mid-simulation
    #: (OOM kill, power loss, Ctrl-C) resumes from its last checkpoint on
    #: the next run instead of starting over; the checkpoint file is
    #: removed once the cell completes.  None disables checkpointing.
    checkpoint_every: Optional[int] = None
    #: Directory for checkpoint files (created on demand).  Defaults to
    #: ``.repro-checkpoints`` under the working directory.
    checkpoint_dir: Optional[str] = None


def resolve_config(scheme: str, width: int, spec: "RunSpec") -> MachineConfig:
    """The fully resolved machine config one cell simulates: the Table 1
    machine for ``width``, the scheme transformer, and the spec's audit /
    oracle overlays.  This single resolution path feeds both
    :func:`run_one` and the journal's cell keys, so a config change can
    never reuse a stale journal entry."""
    config = SCHEMES[scheme](width_config(width))
    if spec.audit:
        config = config.with_audit()
    if spec.oracle:
        config = config.with_oracle()
    return config


def checkpoint_path(benchmark: str, scheme: str, width: int, spec: RunSpec) -> str:
    """Where :func:`run_one` keeps this cell's mid-run snapshot.  The
    file name embeds the resolved config digest, so a stale checkpoint
    from a differently configured run is never even opened."""
    digest = config_digest(resolve_config(scheme, width, spec))
    directory = spec.checkpoint_dir or ".repro-checkpoints"
    return os.path.join(
        directory,
        f"{benchmark}-{scheme}-w{width}-n{spec.length}-s{spec.seed}"
        f"-{digest}.ckpt.json",
    )


def _run_checkpointed(
    config: MachineConfig,
    trace: Trace,
    path: str,
    spec: RunSpec,
    cycle_hook: Optional[Callable] = None,
    on_resume: Optional[Callable[[int], None]] = None,
) -> SimStats:
    """Run one cell with periodic snapshots, resuming from ``path`` when
    a compatible checkpoint survives a previous crashed attempt.

    ``cycle_hook(machine)`` is attached as an extra per-cycle hook —
    the sweep farm uses it for lease heartbeats, eviction checks, and
    fault injection.  ``on_resume(cycle)`` reports the cycle the run
    actually started from: 0 for a cold start, the checkpoint's cycle
    when a previous attempt's snapshot was restored.
    """
    from repro.core.snapshot import (  # lazy: optional machinery
        SnapshotError,
        load_snapshot,
        restore_snapshot,
        save_snapshot,
        take_snapshot,
    )

    from repro.store import ArtifactError, SchemaMismatch, quarantine_path

    machine = Machine(config)
    resumed = False
    if os.path.exists(path):
        try:
            restore_snapshot(machine, load_snapshot(path), trace)
            resumed = True
        except (SchemaMismatch, SnapshotError, KeyError, ValueError, OSError) as exc:
            # Stale or incompatible checkpoint: start the cell from
            # scratch (ArtifactError is a ValueError, so order matters —
            # corruption is handled below, incompatibility here).
            if isinstance(exc, ArtifactError) and not isinstance(exc, SchemaMismatch):
                # Corrupt bytes, not schema drift: move the evidence
                # aside so the next attempt does not trip over it again.
                quarantine_path(path)
            machine = Machine(config)

    interval = spec.checkpoint_every

    def hook(m) -> None:
        if interval and m.now % interval == 0:
            # save_snapshot is atomic and durable (repro.store): a crash
            # at any instant leaves the previous checkpoint intact.
            save_snapshot(take_snapshot(m), path)

    machine.add_cycle_hook(hook)
    if cycle_hook is not None:
        # After the checkpoint hook: a cycle_hook that raises (eviction,
        # injected fault) never skips a due snapshot at the same cycle.
        machine.add_cycle_hook(cycle_hook)
    if on_resume is not None:
        on_resume(machine.now if resumed else 0)
    if resumed:
        stats = machine.resume(max_cycles=spec.max_cycles)
    else:
        stats = machine.run(trace, max_cycles=spec.max_cycles)
    # Keep the checkpoint when the run stopped at the cycle limit short of
    # the commit target — the caller's watchdog will fail the cell, and
    # the next attempt resumes instead of restarting.
    if stats.committed >= len(trace) and os.path.exists(path):
        os.remove(path)
    return stats


class TraceCache:
    """The scope of reuse for one run: what every driver and
    :func:`run_matrix` call that is handed the same cache as
    ``traces=`` shares.

    It keeps one trace per (benchmark, spec workload knobs) and, besides,
    every finished cell's :class:`SimStats`, keyed by the sweep journal's
    :func:`~repro.experiments.journal.cell_key` (resolved config digest,
    width, length, warmup, seed, ``max_cycles`` and audit).  So Figures
    1, 8, 10 and 11 and Table 2, which request overlapping base / ER /
    PRI / PRI+ER cells, simulate each cell once per run.  Every hit
    hands out the same :class:`SimStats` object, so callers treat it as
    read-only.  Nothing evicts: make one cache per run, not one per
    process.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, int, int, int], Trace] = {}
        self._cells: Dict[str, SimStats] = {}

    def get(self, benchmark: str, spec: RunSpec) -> Trace:
        key = (benchmark, spec.length, spec.warmup, spec.seed)
        trace = self._cache.get(key)
        if trace is None:
            trace = generate_trace(
                benchmark, spec.length, seed=spec.seed, warmup=spec.warmup
            )
            self._cache[key] = trace
        return trace

    def cell(self, key: str) -> Optional[SimStats]:
        """The finished cell stored under ``key``, or None."""
        return self._cells.get(key)

    def store_cell(self, key: str, stats: SimStats) -> None:
        self._cells[key] = stats


def run_one(
    benchmark: str,
    scheme: str,
    width: int = 4,
    spec: Optional[RunSpec] = None,
    traces: Optional[TraceCache] = None,
) -> SimStats:
    """Simulate one (benchmark, scheme, width) cell.

    Honors ``spec.audit`` (attach the invariant auditor), ``spec.oracle``
    (attach the golden-model differential oracle), ``spec.max_cycles``
    (deadlock watchdog: a cell that fails to finish within the cycle
    budget raises :class:`SimulationError` rather than returning
    silently-truncated statistics), and ``spec.checkpoint_every``
    (periodic machine snapshots; a crashed cell resumes mid-simulation
    on the next attempt).
    """
    spec = spec or RunSpec()
    traces = traces if traces is not None else TraceCache()
    config = resolve_config(scheme, width, spec)
    trace = traces.get(benchmark, spec)
    if spec.checkpoint_every:
        path = checkpoint_path(benchmark, scheme, width, spec)
        stats = _run_checkpointed(config, trace, path, spec)
    else:
        stats = simulate(config, trace, max_cycles=spec.max_cycles)
    if spec.max_cycles is not None and stats.committed < len(trace):
        raise SimulationError(
            f"cycle-limit watchdog: {benchmark}/{scheme} committed only "
            f"{stats.committed}/{len(trace)} instructions in "
            f"{spec.max_cycles} cycles"
        )
    return stats


# ================================================================ cells


@dataclass
class CellError:
    """Structured record of one failed (benchmark, scheme) sweep cell."""

    benchmark: str
    scheme: str
    #: ``error`` — the simulation raised (deterministic, not retried);
    #: ``crash`` — the worker process died (signal/exit, retried);
    #: ``timeout`` — the cell exceeded its wall-clock budget (retried).
    kind: str
    error_type: str
    message: str
    attempts: int
    elapsed: float

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "CellError":
        return cls(**data)

    def __str__(self) -> str:
        return (
            f"{self.benchmark}/{self.scheme}: {self.kind} "
            f"[{self.error_type}] {self.message} "
            f"(attempt {self.attempts}, {self.elapsed:.1f}s)"
        )


MatrixCell = Union[SimStats, CellError]


class MatrixError(RuntimeError):
    """One or more sweep cells failed under ``on_error='raise'``.  The
    completed cells and the structured error records are attached, so a
    caller (or the journal) loses nothing."""

    def __init__(self, errors: List[CellError], results: Dict[str, Dict[str, MatrixCell]]):
        self.errors = errors
        self.results = results
        lines = "; ".join(str(e) for e in errors[:4])
        more = f" (+{len(errors) - 4} more)" if len(errors) > 4 else ""
        super().__init__(f"{len(errors)} sweep cell(s) failed: {lines}{more}")


def matrix_errors(results: Dict[str, Dict[str, MatrixCell]]) -> List[CellError]:
    """All error records in a matrix, in benchmark-major order."""
    return [
        cell
        for row in results.values()
        for cell in row.values()
        if isinstance(cell, CellError)
    ]


def _cell_entry(conn, cell_fn, benchmark, scheme, width, spec) -> None:
    """Worker-process entry: one cell, result or error over the pipe.
    A crash (signal, os._exit) simply never sends — the parent classifies
    it from the exit code."""
    try:
        stats = cell_fn(benchmark, scheme, width, spec, None)
        conn.send(("ok", stats))
    except BaseException as exc:  # noqa: BLE001 — must report, not die silently
        try:
            conn.send(("error", type(exc).__name__, str(exc)))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _Pending:
    benchmark: str
    scheme: str
    attempts: int = 0
    not_before: float = 0.0


@dataclass
class _Running:
    proc: object
    conn: object
    cell: _Pending
    deadline: Optional[float]
    started: float = field(default_factory=time.monotonic)


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _run_cells_isolated(
    cells: List[Tuple[str, str]],
    width: int,
    spec: RunSpec,
    jobs: int,
    cell_timeout: Optional[float],
    retries: int,
    retry_backoff: float,
    cell_fn: Callable,
    on_cell_done: Callable[[str, str, MatrixCell], None],
) -> None:
    """Run cells in per-cell worker processes with crash isolation.

    Each cell gets its own process, so a segfaulting or OOM-killed
    worker takes down exactly one cell; ``crash`` and ``timeout``
    failures are retried up to ``retries`` times with exponential
    backoff, deterministic simulation errors are not.
    """
    ctx = _mp_context()
    pending: List[_Pending] = [_Pending(b, s) for b, s in cells]
    running: Dict[object, _Running] = {}

    def finish(entry: _Running, kind: Optional[str] = None) -> None:
        elapsed = time.monotonic() - entry.started
        cell = entry.cell
        message = None
        try:
            if entry.conn.poll():
                message = entry.conn.recv()
        except (EOFError, OSError):
            message = None
        entry.conn.close()
        # A message always wins, even against a just-expired deadline:
        # the worker finished, so its result (or error) is real.
        if message is not None and message[0] == "ok":
            on_cell_done(cell.benchmark, cell.scheme, message[1])
            return
        if message is not None:
            error = CellError(
                cell.benchmark, cell.scheme, "error",
                message[1], message[2], cell.attempts, elapsed,
            )
            on_cell_done(cell.benchmark, cell.scheme, error)
            return
        if kind is None:
            kind = "crash"
        if kind == "timeout":
            error = CellError(
                cell.benchmark, cell.scheme, "timeout", "TimeoutError",
                f"cell exceeded its {cell_timeout:.1f}s wall-clock budget",
                cell.attempts, elapsed,
            )
        else:
            code = entry.proc.exitcode
            error = CellError(
                cell.benchmark, cell.scheme, "crash", f"exit({code})",
                f"worker process died with exit code {code} before "
                f"reporting a result",
                cell.attempts, elapsed,
            )
        if cell.attempts <= retries:
            # Jittered and capped: a mass failure (OOM storm, shared-host
            # stall) fans back in spread over [cap/2, cap) instead of
            # thundering back as one herd, and the delay can never grow
            # unbounded with the attempt count.
            cell.not_before = time.monotonic() + backoff_delay(
                cell.attempts, retry_backoff, cap=BACKOFF_CAP,
                token=f"{cell.benchmark}|{cell.scheme}",
            )
            pending.append(cell)
        else:
            on_cell_done(cell.benchmark, cell.scheme, error)

    try:
        while pending or running:
            now = time.monotonic()
            launched = False
            while len(running) < jobs and pending:
                index = next(
                    (i for i, c in enumerate(pending) if c.not_before <= now),
                    None,
                )
                if index is None:
                    break
                cell = pending.pop(index)
                cell.attempts += 1
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_cell_entry,
                    args=(child_conn, cell_fn, cell.benchmark, cell.scheme,
                          width, spec),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                deadline = now + cell_timeout if cell_timeout else None
                running[proc.sentinel] = _Running(proc, parent_conn, cell, deadline)
                launched = True
            if launched:
                continue
            if not running:
                # Everything pending is backing off: sleep until the first
                # retry is due.
                wake = min(c.not_before for c in pending)
                time.sleep(max(0.0, wake - time.monotonic()) + 0.001)
                continue
            timeout = 0.5
            deadlines = [r.deadline for r in running.values() if r.deadline]
            if deadlines:
                timeout = min(timeout, max(0.0, min(deadlines) - now))
            if pending:
                wake = min(c.not_before for c in pending)
                timeout = min(timeout, max(0.0, wake - now))
            ready = mp_connection.wait(list(running), timeout=timeout)
            for sentinel in ready:
                entry = running.pop(sentinel)
                entry.proc.join()
                finish(entry)
            now = time.monotonic()
            for sentinel, entry in list(running.items()):
                if entry.deadline is not None and now >= entry.deadline:
                    del running[sentinel]
                    entry.proc.terminate()
                    entry.proc.join(5)
                    if entry.proc.is_alive():
                        entry.proc.kill()
                        entry.proc.join(5)
                    finish(entry, kind="timeout")
    except KeyboardInterrupt:
        # Graceful drain: stop launching, give cells already in flight a
        # short grace to deliver finished results (which land in the
        # journal through on_cell_done as usual), then let the finally
        # clause terminate the rest and re-raise so the caller can print
        # the resume command.
        deadline = time.monotonic() + _DRAIN_GRACE
        while running and time.monotonic() < deadline:
            ready = mp_connection.wait(
                list(running), timeout=max(0.0, deadline - time.monotonic())
            )
            if not ready:
                break
            for sentinel in ready:
                entry = running.pop(sentinel)
                entry.proc.join()
                finish(entry)
        raise
    finally:
        for entry in running.values():
            entry.proc.terminate()
            entry.conn.close()


def run_matrix(
    benchmarks: Sequence[str],
    schemes: Sequence[str],
    width: int = 4,
    spec: Optional[RunSpec] = None,
    traces: Optional[TraceCache] = None,
    jobs: int = 1,
    *,
    on_error: str = "raise",
    cell_timeout: Optional[float] = None,
    retries: int = 0,
    retry_backoff: float = 0.5,
    journal: Optional[Union[str, SweepJournal]] = None,
    cell_fn: Optional[Callable] = None,
    farm: Optional[FarmSpec] = None,
    farm_progress: Optional[Callable] = None,
) -> Dict[str, Dict[str, MatrixCell]]:
    """Simulate a benchmark x scheme matrix; returns [benchmark][scheme].

    Execution is fault-tolerant at (benchmark, scheme) cell granularity:

    * ``jobs > 1`` runs each cell in its own worker process, so one
      crashing or hanging cell can never take down the sweep (the old
      pool-based runner died whole);
    * ``cell_timeout`` bounds each cell's wall-clock seconds (parallel
      path only — the serial path relies on ``spec.max_cycles``, the
      in-simulator watchdog, instead);
    * ``crash``/``timeout`` failures are retried up to ``retries`` times
      with exponential backoff (``retry_backoff * 2**attempt`` seconds);
      deterministic simulation errors are not retried;
    * ``journal`` (a path or a :class:`SweepJournal`) names an on-disk
      JSON journal: completed cells are
      restored from it instead of re-simulated, and every finished cell
      is persisted as it lands, so an interrupted sweep resumes;
    * ``on_error='record'`` leaves a structured :class:`CellError` in
      the matrix for each failed cell (see :func:`matrix_errors`);
      ``'raise'`` (default) raises :class:`MatrixError` — *after*
      finishing and journaling every other cell — with the partial
      results attached.

    ``traces`` (a :class:`TraceCache`) is the scope of reuse for one
    run.  Every requested cell is looked up in its cell memo first, on
    every path (serial, ``jobs > 1``, farm), before the journal and
    before anything is dispatched; every successful result is stored
    back, whichever path produced it (failed cells never are).  A memo
    hit missing from an open journal is written to it, so resume sees
    the same cells as without the memo.  Pass one cache to every driver
    of a run to simulate each cell once; ``None`` means a fresh cache
    for this call only.  Only the serial path reads the cache's traces:
    worker processes regenerate their own, since shipping whole traces
    to them costs more than regeneration.  Results are bit-identical
    between the paths: traces are deterministic in (benchmark, spec).

    ``cell_fn`` overrides the per-cell simulation callable (signature of
    :func:`run_one`); it exists for fault-injection tests and bypasses
    the cell memo, so every requested cell reaches it.

    ``farm`` (a :class:`~repro.farm.lease.FarmSpec`) hands execution to
    the fault-tolerant sweep farm (:mod:`repro.farm`): cells become
    durable lease records in a shared directory, stateless workers —
    broker-spawned locally, or attached from other shells/hosts with
    ``python -m repro.farm worker <root>`` — lease, heartbeat, and
    checkpoint them, and expired leases are reclaimed and resumed from
    the latest checkpoint rather than restarted.  The journal defaults
    to ``<farm.root>/journal.json`` and additionally carries the lease
    audit trail.  ``farm_progress(report, active_leases)`` is invoked
    periodically with the live :class:`~repro.farm.aggregate.FarmReport`.
    """
    if on_error not in ("raise", "record"):
        raise ValueError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    spec = spec or RunSpec()
    if traces is None:
        traces = TraceCache()
    user_cell_fn = cell_fn
    memo = cell_fn is None
    cell_fn = cell_fn or run_one
    if journal is None and farm is not None:
        journal = farm.paths.journal
    if journal is None or isinstance(journal, SweepJournal):
        sweep_journal = journal
    else:
        sweep_journal = SweepJournal(journal)

    results: Dict[str, Dict[str, MatrixCell]] = {b: {} for b in benchmarks}
    todo: List[Tuple[str, str]] = []
    keys: Dict[Tuple[str, str], str] = {}
    if memo or sweep_journal is not None:
        keys = {(b, s): cell_key(b, s, width, spec)
                for b in benchmarks for s in schemes}
    for benchmark in benchmarks:
        for scheme in schemes:
            key = keys.get((benchmark, scheme))
            done = traces.cell(key) if memo else None
            if done is not None:
                if sweep_journal is not None and sweep_journal.get(key) is None:
                    sweep_journal.record_ok(key, done)
            elif sweep_journal is not None:
                done = sweep_journal.get(key)
                if done is not None and memo:
                    traces.store_cell(key, done)
            if done is not None:
                results[benchmark][scheme] = done
            else:
                todo.append((benchmark, scheme))

    def on_cell_done(benchmark: str, scheme: str, cell: MatrixCell) -> None:
        results[benchmark][scheme] = cell
        key = keys.get((benchmark, scheme))
        if isinstance(cell, CellError):
            if sweep_journal is not None:
                sweep_journal.record_error(key, cell.to_dict())
            return
        if memo:
            traces.store_cell(key, cell)
        if sweep_journal is not None:
            sweep_journal.record_ok(key, cell)

    # ``jobs == 1`` without resilience options stays fully in-process
    # (fast unit tests, pdb-able); anything else gets per-cell worker
    # processes — the fork cost is trivial next to a simulation cell,
    # and only a separate process can survive a crashing or hanging cell.
    isolate = bool(todo) and (
        jobs > 1 or cell_timeout is not None or retries > 0
    )
    if farm is not None and todo:
        from repro.farm.broker import run_cells_farm  # lazy: reverse edge

        run_cells_farm(
            todo, width, spec, farm, sweep_journal, on_cell_done,
            cell_timeout=cell_timeout, retries=retries,
            retry_backoff=retry_backoff, cell_fn=user_cell_fn,
            on_progress=farm_progress,
        )
    elif isolate:
        _run_cells_isolated(
            todo, width, spec, jobs, cell_timeout, retries, retry_backoff,
            cell_fn, on_cell_done,
        )
    else:
        for benchmark, scheme in todo:
            started = time.monotonic()
            try:
                stats = cell_fn(benchmark, scheme, width, spec, traces)
            except Exception as exc:  # deterministic: no retry
                stats = CellError(
                    benchmark, scheme, "error", type(exc).__name__,
                    str(exc), 1, time.monotonic() - started,
                )
            on_cell_done(benchmark, scheme, stats)

    results = {
        b: {s: results[b][s] for s in schemes if s in results[b]}
        for b in benchmarks
    }
    errors = matrix_errors(results)
    if errors and on_error == "raise":
        raise MatrixError(errors, results)
    return results


def speedups_over_base(
    results: Dict[str, Dict[str, MatrixCell]]
) -> Dict[str, Dict[str, float]]:
    """Convert a matrix including 'base' into per-scheme IPC speedups.

    Failed cells (:class:`CellError` records) are skipped; a benchmark
    whose 'base' cell failed is dropped entirely."""
    out: Dict[str, Dict[str, float]] = {}
    for benchmark, row in results.items():
        base = row.get("base")
        if not isinstance(base, SimStats):
            continue
        base_ipc = base.ipc
        out[benchmark] = {
            scheme: (stats.ipc / base_ipc if base_ipc else 0.0)
            for scheme, stats in row.items()
            if scheme != "base" and isinstance(stats, SimStats)
        }
    return out
