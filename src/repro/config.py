"""Machine configuration (the paper's Table 1).

Two reference models are provided:

* :func:`four_wide` — a conservative current-generation (2004) machine:
  4-wide fetch/issue/commit, 32-entry scheduler.
* :func:`eight_wide` — an aggressive future machine: 8-wide, 512-entry
  scheduler (effectively unbounded, matching the ROB).

Both use a 512-entry ROB, 256-entry LSQ, 64 INT + 64 FP physical
registers, a combined bimodal/gshare predictor with a 16-entry RAS and a
1k-entry 4-way BTB, and the paper's cache hierarchy (IL1 2 cycles, DL1 2,
L2 12, memory 150).  The PRI width threshold is 7 bits for the 4-wide
model and 10 bits for the 8-wide model.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict


class WarPolicy(enum.Enum):
    """How PRI avoids the register-file WAR hazard of Figure 6.

    ``REFCOUNT`` holds the physical register until every consumer that
    renamed against it has read it (realistic).  ``IDEAL`` models an
    instantaneous associative search/update of the payload RAM: stale
    pointers are patched in place and the register frees immediately
    (upper bound).  ``REPLAY`` is the detect-and-replay mechanism the
    paper mentions and dismisses as too costly; we implement it as an
    ablation: a consumer that reads a reallocated register is squashed
    and replayed through the map, paying a replay penalty.
    """

    REFCOUNT = "refcount"
    IDEAL = "ideal"
    REPLAY = "replay"


class CheckpointPolicy(enum.Enum):
    """How PRI keeps shadow-map checkpoints consistent (Section 3.2).

    ``CKPTCOUNT`` — each checkpoint holds a reference on every physical
    register it names; an inlined register cannot free until those
    checkpoints retire.  ``LAZY`` — checkpointed copies are patched lazily
    by background logic, so checkpoints never delay freeing.
    """

    CKPTCOUNT = "ckptcount"
    LAZY = "lazy"


@dataclass(frozen=True)
class PriConfig:
    """Physical-register-inlining knobs.

    ``int_width_bits`` is the number of *value* bits available in a map
    entry after the mode bit (7 for the 4-wide model's 8-bit identifiers,
    10 for the 8-wide model's 11-bit identifiers).  FP registers are
    inlined only when the whole 64-bit pattern is all zeroes or all ones.
    """

    enabled: bool = False
    int_width_bits: int = 7
    inline_fp: bool = True
    war_policy: WarPolicy = WarPolicy.REFCOUNT
    checkpoint_policy: CheckpointPolicy = CheckpointPolicy.CKPTCOUNT
    #: Future-work extension (paper Section 6): treat a load-immediate of
    #: a narrow value as a compiler dead-register hint and inline/free at
    #: rename rather than retire.
    inline_on_load_immediate: bool = False


@dataclass(frozen=True)
class AuditConfig:
    """Self-auditing machine invariants (see :mod:`repro.audit`).

    When enabled, an :class:`~repro.audit.InvariantAuditor` is attached
    to the machine and re-derives the register-reclamation bookkeeping
    from first principles — free-list conservation, refcount balance,
    map/checkpoint consistency — raising a structured
    :class:`~repro.audit.AuditError` on the first divergence instead of
    letting a bug silently corrupt results.
    """

    enabled: bool = False
    #: Cycles between periodic full audits (1 = every cycle; used by the
    #: fault-injection tests, far too slow for real sweeps).
    interval: int = 2048
    #: Also audit at every commit boundary (any cycle that commits at
    #: least one instruction).  Aggressive; off by default.
    check_commits: bool = False
    #: Run the end-of-run audit (PRF leak detection) from ``_finalize``.
    final: bool = True


@dataclass(frozen=True)
class OracleConfig:
    """Golden-model differential oracle (see :mod:`repro.oracle`).

    When enabled, a :class:`~repro.oracle.CommitOracle` is attached to the
    machine: a small in-order ISA-level functional model executes the same
    trace, and every retired instruction's destination value, branch
    outcome, and memory effect is compared against the out-of-order
    machine.  A divergence raises a structured
    :class:`~repro.oracle.OracleDivergence` instead of letting a value
    corruption (the Figure 6 WAR hazard) silently skew results.  This is
    the *value-level* counterpart to :class:`AuditConfig`'s structural
    invariants.
    """

    enabled: bool = False
    #: Cycles between full architectural-state comparisons (every logical
    #: register with no in-flight writer is checked against the golden
    #: model).  0 disables the periodic sweep; per-commit checks still run.
    interval: int = 512
    #: Also run the architectural comparison from ``_finalize``.
    final: bool = True


@dataclass(frozen=True)
class CacheConfig:
    """One cache level: size/assoc/line in bytes, hit latency in cycles."""

    size: int
    assoc: int
    line: int
    latency: int


@dataclass(frozen=True)
class MemoryConfig:
    """The paper's memory system (Table 1)."""

    il1: CacheConfig = CacheConfig(size=32 * 1024, assoc=2, line=32, latency=2)
    dl1: CacheConfig = CacheConfig(size=32 * 1024, assoc=4, line=16, latency=2)
    l2: CacheConfig = CacheConfig(size=512 * 1024, assoc=4, line=64, latency=12)
    memory_latency: int = 150


@dataclass(frozen=True)
class BranchConfig:
    """Combined bimodal/gshare predictor with selector (Table 1)."""

    bimodal_entries: int = 4096
    gshare_entries: int = 4096
    selector_entries: int = 4096
    history_bits: int = 12
    btb_entries: int = 1024
    btb_assoc: int = 4
    ras_entries: int = 16
    #: Minimum misprediction recovery, in cycles (Table 1: "at least 11").
    min_mispredict_penalty: int = 11


@dataclass(frozen=True)
class MachineConfig:
    """Full machine model.  See Table 1 of the paper."""

    name: str = "4-wide"
    width: int = 4
    rob_entries: int = 512
    lsq_entries: int = 256
    scheduler_entries: int = 32
    int_phys_regs: int = 64
    fp_phys_regs: int = 64
    #: Free-list allocation order (see :mod:`repro.rename.free_list`):
    #: ``ordered`` (lowest-numbered free register first — the default)
    #: or ``fifo`` (release-order recycling).  Allocation
    #: order is a modeling choice the paper leaves open; it does not
    #: change any scheme's timing except through which register numbers
    #: get reused (visible only in the REPLAY WAR policy's replay count
    #: and PRI's duplicate-dealloc accounting).
    alloc_policy: str = "ordered"
    max_checkpoints: int = 64
    #: Pipeline front end: Fetch, Decode, Rename (instruction renamed
    #: ``frontend_depth`` cycles after fetch).
    frontend_depth: int = 3
    #: Back-end depth between select and execute: Disp, Disp, RF, RF
    #: (Figure 5).  Operands are read ``rf_read_offset`` cycles after
    #: select; execution begins after ``exec_offset`` cycles.
    exec_offset: int = 4
    rf_read_offset: int = 3
    #: Cycles between completion (end of Exe) and the Retire stage where
    #: PRI's significance check runs and the map is written (Figure 5).
    retire_offset: int = 1
    #: Front-end redirect cost added after a mispredicted branch resolves;
    #: combined with the front-end and dispatch depths this yields the
    #: Table 1 "at least 11 cycles" recovery.
    mispredict_redirect: int = 4
    #: Penalty applied when the REPLAY WAR policy replays a consumer
    #: through the map (extension; see DESIGN.md §6).
    war_replay_penalty: int = 3
    #: Deadlock watchdog: abort with :class:`SimulationError` after this
    #: many cycles without a commit.
    deadlock_cycles: int = 100_000
    pri: PriConfig = field(default_factory=PriConfig)
    audit: AuditConfig = field(default_factory=AuditConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    #: Prior-work early release (Moudgill et al. [27]): complete flag +
    #: unmap flags + reader counter per physical register.
    early_release: bool = False
    branch: BranchConfig = field(default_factory=BranchConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    #: Loads are speculatively scheduled assuming a DL1 hit; dependents
    #: issued in the shadow of a miss are selectively replayed.
    speculative_scheduling: bool = True
    #: Testing/ablation knob: fetch never stalls on the IL1.  Useful for
    #: isolating back-end effects and for exact-timing unit tests.
    perfect_icache: bool = False
    #: Future-work extension (paper §6, refs [7]/[17]): delayed register
    #: allocation through virtual-physical registers.  Rename binds each
    #: destination to an unbounded *virtual* tag; a physical register is
    #: claimed only when the instruction issues, eliminating the
    #: allocate→write phase of register lifetime.  Consumers read through
    #: the virtual tag, so PRI's WAR policies are moot in this mode
    #: (inlined registers free immediately); combining it with ER is not
    #: supported.
    virtual_physical: bool = False

    def with_virtual_physical(self) -> "MachineConfig":
        """Copy of this config with delayed (virtual-physical) allocation."""
        return replace(self, virtual_physical=True)

    def with_pri(
        self,
        war_policy: WarPolicy = WarPolicy.REFCOUNT,
        checkpoint_policy: CheckpointPolicy = CheckpointPolicy.CKPTCOUNT,
        **overrides,
    ) -> "MachineConfig":
        """Copy of this config with PRI enabled under the given policies."""
        pri = replace(
            self.pri,
            enabled=True,
            war_policy=war_policy,
            checkpoint_policy=checkpoint_policy,
            **overrides,
        )
        return replace(self, pri=pri)

    def with_early_release(self) -> "MachineConfig":
        """Copy of this config with the ER scheme enabled."""
        return replace(self, early_release=True)

    def with_audit(self, **overrides) -> "MachineConfig":
        """Copy of this config with the invariant auditor enabled."""
        audit = replace(self.audit, enabled=True, **overrides)
        return replace(self, audit=audit)

    def with_oracle(self, **overrides) -> "MachineConfig":
        """Copy of this config with the golden-model oracle enabled."""
        oracle = replace(self.oracle, enabled=True, **overrides)
        return replace(self, oracle=oracle)

    def with_phys_regs(self, int_regs: int, fp_regs: int = None) -> "MachineConfig":
        """Copy with a different physical register file size (Figure 9)."""
        if fp_regs is None:
            fp_regs = int_regs
        return replace(self, int_phys_regs=int_regs, fp_phys_regs=fp_regs)

    def with_alloc_policy(self, policy: str) -> "MachineConfig":
        """Copy with a different free-list allocation policy."""
        return replace(self, alloc_policy=policy)


def four_wide() -> MachineConfig:
    """The paper's conservative 4-wide machine (Table 1, left column)."""
    return MachineConfig(
        name="4-wide",
        width=4,
        scheduler_entries=32,
        pri=PriConfig(enabled=False, int_width_bits=7),
    )


def eight_wide() -> MachineConfig:
    """The paper's aggressive 8-wide machine (Table 1, right column)."""
    return MachineConfig(
        name="8-wide",
        width=8,
        scheduler_entries=512,
        pri=PriConfig(enabled=False, int_width_bits=10),
    )


#: Figure 9's register-file sweep points.
PRF_SWEEP_SIZES = (40, 48, 56, 64, 72, 80, 96)

#: A register count large enough that the free list never empties in
#: practice; used for the "Inf Physical Register" upper-bound runs.
EFFECTIVELY_INFINITE_REGS = 4096


# ===================================================== serialization

def config_to_dict(config: MachineConfig) -> Dict:
    """Canonical JSON-serializable form of a :class:`MachineConfig`.

    Enums become their string values; nested dataclasses become nested
    dicts.  Inverse of :func:`config_from_dict`; the canonical rendering
    is what :func:`config_digest` hashes, so two configs digest equal iff
    every simulation-relevant field matches.
    """

    def convert(value):
        if isinstance(value, enum.Enum):
            return value.value
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {
                f.name: convert(getattr(value, f.name))
                for f in dataclasses.fields(value)
            }
        return value

    return convert(config)


def config_from_dict(data: Dict) -> MachineConfig:
    """Inverse of :func:`config_to_dict`.

    Unknown keys raise ``TypeError`` (a digest mismatch would have caught
    the incompatibility anyway); missing keys take the dataclass default,
    so older snapshots load under a newer schema when fields only grew.
    """
    payload = dict(data)
    pri = dict(payload.get("pri", {}))
    if "war_policy" in pri:
        pri["war_policy"] = WarPolicy(pri["war_policy"])
    if "checkpoint_policy" in pri:
        pri["checkpoint_policy"] = CheckpointPolicy(pri["checkpoint_policy"])
    payload["pri"] = PriConfig(**pri)
    payload["audit"] = AuditConfig(**payload.get("audit", {}))
    payload["oracle"] = OracleConfig(**payload.get("oracle", {}))
    payload["branch"] = BranchConfig(**payload.get("branch", {}))
    memory = dict(payload.get("memory", {}))
    for level in ("il1", "dl1", "l2"):
        if level in memory:
            memory[level] = CacheConfig(**memory[level])
    payload["memory"] = MemoryConfig(**memory)
    return MachineConfig(**payload)


def config_digest(config: MachineConfig, length: int = 12) -> str:
    """Short stable hex digest over every field of ``config``.

    Used by the sweep journal's cell keys (two cells with different
    machine configurations must never collide) and by snapshot/restore
    (a checkpoint must only restore into the machine that wrote it).
    """
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:length]
