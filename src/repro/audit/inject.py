"""Fault-injection harness: prove the auditor's invariants actually fire.

Each :class:`Fault` deliberately corrupts one piece of reclamation
bookkeeping mid-run — the same corruptions a buggy free-list manager,
refcount protocol, or checkpoint patcher would produce — and
:func:`run_with_fault` asserts that the auditor converts it into an
:class:`~repro.audit.auditor.AuditError` instead of letting the run
finish with silently corrupted results.

A fault's ``apply`` callback inspects the machine and returns a detail
string once it has corrupted state, or ``None`` when the machine is not
yet in a state where the fault is applicable (e.g. no outstanding
consumer references to drop); the harness retries every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.audit.auditor import AuditError
from repro.config import WarPolicy
from repro.core.machine import Machine, _VID_FLAG
from repro.core.regfile import RegState
from repro.isa.opcodes import RegClass
from repro.workloads.trace import Trace


class FaultNotCaught(AssertionError):
    """The injected corruption escaped the auditor — a real audit gap."""


@dataclass(frozen=True)
class Fault:
    """One injectable corruption.

    ``expect`` names the audit checks allowed to catch it; the harness
    (and the tests) verify the diagnostic's ``check`` field is one of
    them.
    """

    name: str
    description: str
    expect: Tuple[str, ...]
    apply: Callable[[Machine], Optional[str]]


def _first_free(rf) -> Optional[int]:
    for preg in range(rf.num_regs):
        if rf.state[preg] == RegState.FREE:
            return preg
    return None


# --------------------------------------------------------------- faults


def _double_free(m: Machine) -> Optional[str]:
    """A mapped, live register is pushed back onto the free list — the
    classic double-free a broken Section 3.2 duplicate-release guard
    would produce."""
    cls = RegClass.INT
    rf = m.rf[cls]
    for preg in m.maps[cls].pointers():
        if preg < _VID_FLAG and rf.state[preg] != RegState.FREE:
            rf.free_list._queue.append(preg)
            rf.free_list._free.add(preg)
            return f"pushed mapped int p{preg} back onto the free list"
    return None


def _free_list_leak(m: Machine) -> Optional[str]:
    """A free register silently vanishes from the free list (a lost
    enqueue), shrinking the effective register file forever."""
    rf = m.rf[RegClass.INT]
    preg = rf.free_list.allocate()
    if preg is None:
        return None
    return f"dropped free int p{preg} from the free list"


def _alloc_leak(m: Machine) -> Optional[str]:
    """A register is allocated and then abandoned — reachable from no
    map, ROB entry, or checkpoint.  This is the PRF leak the end-of-run
    audit exists for."""
    rf = m.rf[RegClass.INT]
    preg = rf.allocate(lreg=1, owner_seq=-2, cycle=m.now)
    if preg is None:
        return None
    return f"allocated int p{preg} and leaked it"


def _refcount_leak(m: Machine) -> Optional[str]:
    """A spurious consumer reference pins a register forever (the
    Moudgill-counter increment-without-decrement bug)."""
    rf = m.rf[RegClass.INT]
    allocated = rf.allocated_pregs()
    if not allocated:
        return None
    preg = allocated[0]
    m.refcounts[RegClass.INT].add_consumer(preg)
    return f"added a phantom consumer reference on int p{preg}"


def _refcount_drop(m: Machine) -> Optional[str]:
    """A consumer reference is dropped before the consumer read — the
    under-count that lets PRI free a register too early (Figure 6)."""
    counts = m.refcounts[RegClass.INT]
    rf = m.rf[RegClass.INT]
    for preg in range(rf.num_regs):
        if counts.consumers(preg) > 0:
            counts.drop_consumer(preg)
            return f"dropped a live consumer reference on int p{preg}"
    return None


def _stale_checkpoint(m: Machine) -> Optional[str]:
    """A live shadow-map entry is repointed at a freed register — the
    stale-checkpoint state a broken lazy patcher would leave behind."""
    cls = RegClass.INT
    rf = m.rf[cls]
    free = _first_free(rf)
    if free is None:
        return None
    for ckpt in m.ckpts.checkpoints():
        items = ckpt.pointer_items(cls)
        if not items:
            continue
        lreg, preg, _gen = items[0]
        ckpt.snapshots[cls][1][lreg] = free  # values array of (modes, values)
        return (
            f"checkpoint for branch #{ckpt.branch_seq}: repointed shadow "
            f"r{lreg} from p{preg} to free p{free}"
        )
    return None


def _map_corrupt(m: Machine) -> Optional[str]:
    """The current map is repointed at a freed register, so the next
    consumer of that logical register renames against garbage."""
    cls = RegClass.INT
    rf = m.rf[cls]
    free = _first_free(rf)
    if free is None:
        return None
    table = m.maps[cls]
    for lreg in range(table.num_logical):
        preg = table.pointer_of(lreg)
        if 0 <= preg < _VID_FLAG:
            table.set_pointer(lreg, free)
            return f"repointed map r{lreg} from p{preg} to free p{free}"
    return None


def _war_release(m: Machine) -> Optional[str]:
    """A register with outstanding counted consumers is reclaimed — the
    paper's Figure 6 WAR violation, injected directly into the free
    list instead of waiting for a buggy policy to produce it.  Not
    applicable under PRI's REPLAY policy, which legally lets consumers
    outlive the allocation (the auditor skips war-integrity there)."""
    if m.cfg.pri.enabled and m.cfg.pri.war_policy == WarPolicy.REPLAY:
        return None
    cls = RegClass.INT
    rf = m.rf[cls]
    counts = m.refcounts[cls]
    table = m.maps[cls]
    for preg in rf.allocated_pregs():
        if (
            counts.consumers(preg) > 0
            and counts.checkpoint_refs(preg) == 0
            and counts.er_checkpoint_refs(preg) == 0
            and table.pointer_of(rf.lreg[preg]) != preg
        ):
            rf.release(preg, m.now)
            return f"reclaimed int p{preg} under {counts.consumers(preg)} consumers"
    return None


#: Registry of injectable corruptions, keyed by fault name.
FAULTS: Dict[str, Fault] = {
    f.name: f
    for f in (
        Fault("double-free", "mapped register pushed onto the free list",
              ("free-list",), _double_free),
        Fault("free-list-leak", "free register dropped from the free list",
              ("free-list",), _free_list_leak),
        Fault("alloc-leak", "register allocated and abandoned (PRF leak)",
              ("conservation", "prf-leak"), _alloc_leak),
        Fault("refcount-leak", "phantom consumer reference added",
              ("refcount",), _refcount_leak),
        Fault("refcount-drop", "live consumer reference dropped early",
              ("refcount",), _refcount_drop),
        Fault("stale-checkpoint", "shadow-map entry repointed at a free register",
              ("checkpoint",), _stale_checkpoint),
        Fault("map-corrupt", "current map entry repointed at a free register",
              ("map",), _map_corrupt),
        Fault("war-release", "register reclaimed under outstanding consumers",
              ("war-integrity",), _war_release),
    )
}


# -------------------------------------------------------------- harness


def run_with_fault(
    config,
    trace: Trace,
    fault: Fault,
    at_cycle: int = 50,
    max_insts: Optional[int] = None,
    max_cycles: int = 50_000,
) -> AuditError:
    """Run ``trace`` with aggressive auditing, injecting ``fault`` at the
    first applicable cycle at or after ``at_cycle``.

    Returns the :class:`AuditError` the auditor raised; raises
    :class:`FaultNotCaught` if the corruption was applied but no audit
    fired by the end of the run (or the fault never became applicable).
    """
    config = config.with_audit(interval=1, check_commits=True)
    machine = Machine(config)
    applied: list = []

    def hook(m: Machine) -> None:
        if not applied and m.now >= at_cycle:
            detail = fault.apply(m)
            if detail is not None:
                applied.append((m.now, detail))

    machine.add_cycle_hook(hook)
    try:
        machine.run(trace, max_insts=max_insts, max_cycles=max_cycles)
    except AuditError as err:
        if not applied:
            raise  # the auditor fired on its own: a genuine machine bug
        if err.diagnostic["check"] not in fault.expect:
            raise FaultNotCaught(
                f"fault {fault.name!r} ({applied[0][1]}) was caught by "
                f"check {err.diagnostic['check']!r}, expected one of "
                f"{fault.expect}"
            ) from err
        return err
    if not applied:
        raise FaultNotCaught(
            f"fault {fault.name!r} never became applicable "
            f"(ran to cycle {machine.now})"
        )
    raise FaultNotCaught(
        f"fault {fault.name!r} ({applied[0][1]}, cycle {applied[0][0]}) "
        f"escaped the auditor: run finished cleanly at cycle {machine.now}"
    )
