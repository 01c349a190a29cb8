"""Job specs, cache keys, and the durable job journal.

A *job* is one simulation request: a (config, trace-spec) pair expressed
as the same knobs the sweep drivers take — benchmark, scheme, width, the
:class:`~repro.experiments.runner.RunSpec` workload fields, and an
optional PRF capacity override.  Its **key** is the existing sweep-cell
identity (:func:`~repro.experiments.journal.cell_key`): the workload
knobs plus a digest of the fully resolved
:class:`~repro.config.MachineConfig` — i.e. the config digest + trace
identity the snapshot layer has used since PR 3.  Two submissions whose
keys match are, by construction, the same simulation; the key is
therefore what the result cache is addressed by and what in-flight
deduplication collapses on.  The job **id** is the filename-safe hash of
the key (:func:`~repro.farm.lease.cid_of`), so resubmitting a job is
idempotent: you get the same id back.

The **job journal** (``jobs.json`` in the serve root) records every job
transition — ``queued`` → ``running`` → ``done`` | ``failed`` — as the
same checksummed v3-style lines the sweep journal uses
(:func:`~repro.store.integrity.append_checked_line`): one fsynced line
per transition, torn tails salvaged on load, any interior byte of
corruption a typed error.  A restarted server replays the journal and
re-enqueues every job whose latest state is non-terminal, so a SIGKILL
mid-queue loses no acknowledged submission.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig
from repro.isa.registers import NUM_INT_ARCH_REGS
from repro.rpc import BadRequest
from repro.store.errors import DigestMismatch, MalformedRecord
from repro.store.integrity import (
    append_checked_line,
    checked_line,
    read_checked_lines,
)
from repro.store.atomic import atomic_writer

#: ``format`` tag of the job-journal header record (fsck's sniffing key).
JOBS_FORMAT = "repro-serve-jobs"
JOBS_VERSION = 1

#: The job state machine, in lifecycle order.  ``queued`` — accepted and
#: journaled, waiting for the executor; ``running`` — handed to a
#: simulation backend; ``done`` — stats durably in the result cache;
#: ``failed`` — the simulation raised (terminal, but resubmittable).
JOB_STATES = ("queued", "running", "done", "failed")

#: Fields every journaled job record must carry (fsck validates them).
JOB_FIELDS = ("id", "key", "state", "ts")

#: Issue widths with a Table 1 machine.
_WIDTHS = (4, 8)


class JobError(BadRequest):
    """A submission that cannot become a job (unknown scheme, bad
    field, out-of-range workload knob).  Maps to HTTP 400."""


@dataclass(frozen=True)
class JobSpec:
    """One simulation request, fully normalized.

    ``regs`` overrides both physical register file capacities (the
    Figure 9 sweep axis).
    """

    benchmark: str
    scheme: str = "base"
    width: int = 4
    length: int = 6000
    warmup: int = 20000
    seed: int = 1
    max_cycles: Optional[int] = None
    regs: Optional[int] = None

    # ------------------------------------------------------- derivation

    def run_spec(self):
        """The :class:`~repro.experiments.runner.RunSpec` this job
        simulates under (audit/oracle off: the service serves plain
        measurement runs)."""
        from repro.experiments.runner import RunSpec  # lazy: heavy import

        return RunSpec(length=self.length, warmup=self.warmup,
                       seed=self.seed, max_cycles=self.max_cycles)

    def config(self) -> MachineConfig:
        """The fully resolved machine config, via the same single
        resolution path the sweep journal keys go through."""
        from repro.experiments.runner import resolve_config

        config = resolve_config(self.scheme, self.width, self.run_spec())
        if self.regs is not None:
            config = config.with_phys_regs(self.regs)
        return config

    def key(self) -> str:
        """The cache key: workload knobs + resolved-config digest
        (:func:`~repro.experiments.journal.cell_key` verbatim, so sweep
        journals and the result cache agree on simulation identity)."""
        from repro.experiments.journal import cell_key

        return cell_key(self.benchmark, self.scheme, self.width,
                        self.run_spec(), config=self.config())

    def job_id(self) -> str:
        from repro.farm.lease import cid_of

        return cid_of(self.key())

    def batch_key(self) -> Tuple:
        """Jobs sharing this tuple can run as one executor batch (same
        trace-shaping knobs and width; they differ only in benchmark,
        scheme, or PRF capacity — the axes one farm publish round can
        carry)."""
        return (self.width, self.length, self.warmup, self.seed,
                self.max_cycles)

    def to_dict(self) -> Dict:
        out = {
            "benchmark": self.benchmark, "scheme": self.scheme,
            "width": self.width, "length": self.length,
            "warmup": self.warmup, "seed": self.seed,
        }
        if self.max_cycles is not None:
            out["max_cycles"] = self.max_cycles
        if self.regs is not None:
            out["regs"] = self.regs
        return out


def parse_job(data: Dict) -> JobSpec:
    """Validate and normalize a submission body into a :class:`JobSpec`.

    Raises :class:`JobError` (HTTP 400 at the server) on anything the
    simulator would only reject later and deeper.
    """
    from repro.experiments.runner import (
        FP_BENCHMARKS,
        INT_BENCHMARKS,
        SCHEMES,
    )

    if not isinstance(data, dict):
        raise JobError("job must be a JSON object")
    unknown = set(data) - {
        "benchmark", "scheme", "width", "length", "warmup", "seed",
        "max_cycles", "regs",
    }
    if unknown:
        raise JobError(f"unknown job field(s): {sorted(unknown)}")
    benchmark = data.get("benchmark")
    known = set(INT_BENCHMARKS) | set(FP_BENCHMARKS)
    if benchmark not in known:
        raise JobError(
            f"unknown benchmark {benchmark!r} (one of {sorted(known)})")
    scheme = data.get("scheme", "base")
    if scheme not in SCHEMES:
        raise JobError(f"unknown scheme {scheme!r} (one of {sorted(SCHEMES)})")
    width = data.get("width", 4)
    if width not in _WIDTHS:
        raise JobError(f"width must be one of {_WIDTHS}, got {width!r}")

    def _int(name: str, default, minimum: int, maximum: int,
             optional: bool = False):
        value = data.get(name, default)
        if value is None and optional:
            return None
        if not isinstance(value, int) or isinstance(value, bool):
            raise JobError(f"{name} must be an integer, got {value!r}")
        if not minimum <= value <= maximum:
            raise JobError(
                f"{name} must be in [{minimum}, {maximum}], got {value}")
        return value

    return JobSpec(
        benchmark=benchmark, scheme=scheme, width=width,
        length=_int("length", 6000, 1, 2_000_000),
        warmup=_int("warmup", 20000, 0, 10_000_000),
        seed=_int("seed", 1, 0, 2**31 - 1),
        max_cycles=_int("max_cycles", None, 1, 2**31 - 1, optional=True),
        # Fewer registers than the architected state can never commit.
        regs=_int("regs", None, NUM_INT_ARCH_REGS, 65536, optional=True),
    )


# ============================================================== journal


def _header_record() -> Dict:
    return {"format": JOBS_FORMAT, "version": JOBS_VERSION}


class JobJournal:
    """Append-only, checksummed record of every job transition.

    The write path is the sweep journal's: one fsynced
    :func:`~repro.store.integrity.checked_line` per transition, a header
    record first, torn tails dropped (and compacted away) at load,
    interior damage a hard :class:`~repro.store.errors.DigestMismatch`
    pointing at ``python -m repro.store fsck --repair``.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: Every transition in append order (replay gives latest-wins).
        self.events: List[Dict] = []
        #: ``(line, reason)`` of a torn tail dropped at load, if any.
        self.salvaged: Optional[Tuple[int, str]] = None
        self._initialized = False
        if os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        result = read_checked_lines(path)
        if not result.records:
            if result.total_lines == 0 or (result.bad_line == 1
                                           and result.torn_tail):
                return  # nothing durably recorded yet: start fresh
            raise MalformedRecord(
                f"job journal header line is damaged ({result.bad_reason}); "
                f"run `python -m repro.store fsck --repair` or delete it",
                path=path, kind="serve-job-journal", line=result.bad_line,
            )
        header = result.records[0]
        if (not isinstance(header, dict)
                or header.get("format") != JOBS_FORMAT):
            raise MalformedRecord(
                "first record is not a serve-job-journal header",
                path=path, kind="serve-job-journal", line=1,
            )
        if header.get("version") != JOBS_VERSION:
            raise ValueError(
                f"job journal {path!r} has version {header.get('version')}, "
                f"expected {JOBS_VERSION}; delete it or move it aside"
            )
        if not result.clean and not result.torn_tail:
            raise DigestMismatch(
                f"job journal record is damaged before the final line "
                f"({result.bad_reason}); the valid prefix is salvageable "
                f"with `python -m repro.store fsck --repair`",
                path=path, kind="serve-job-journal", line=result.bad_line,
            )
        for record in result.records[1:]:
            if not isinstance(record, dict) or "job" not in record:
                raise MalformedRecord(
                    "job journal record lacks a job field",
                    path=path, kind="serve-job-journal",
                )
            self.events.append(record["job"])
        self._initialized = True
        if not result.clean:  # torn tail: drop it from disk too
            self.salvaged = (result.bad_line, result.bad_reason)
            self._rewrite()

    # --------------------------------------------------------- queries

    def latest(self) -> Dict[str, Dict]:
        """id -> the latest journaled record per job (replay order)."""
        out: Dict[str, Dict] = {}
        for event in self.events:
            out[event["id"]] = event
        return out

    # --------------------------------------------------------- updates

    def record(self, event: Dict, *, durable: bool = True) -> None:
        """Append one job transition.  ``event`` must carry at least
        :data:`JOB_FIELDS` and a known state."""
        missing = [f for f in JOB_FIELDS if f not in event]
        if missing:
            raise ValueError(f"job record lacks fields: {missing}")
        if event["state"] not in JOB_STATES:
            raise ValueError(f"unknown job state {event['state']!r}")
        self.events.append(event)
        if not self._initialized:
            self._rewrite()
            return
        append_checked_line(self.path, {"job": event}, durable=durable)

    def _rewrite(self) -> None:
        with atomic_writer(self.path) as handle:
            handle.write(checked_line(_header_record()))
            for event in self.events:
                handle.write(checked_line({"job": event}))
        self._initialized = True
