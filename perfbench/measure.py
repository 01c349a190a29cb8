"""The benchmark's own arithmetic: percentiles, span self time, ratios
and output digests.

Everything here is pure (no imports from ``repro``), so the tests under
``perfbench/tests`` can pin it without running a simulation.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics §1).
TAIL_SAMPLES = 10


def min_samples(pct: float, tail: int = TAIL_SAMPLES) -> int:
    """Smallest sample count for which the ``pct`` percentile has at
    least ``tail`` samples strictly above its rank."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    # Samples beyond the nearest-rank index r = ceil(pct/100 * n) are
    # n - r; the smallest n with n - ceil(p n) >= tail.
    n = tail
    while n - math.ceil(pct / 100.0 * n) < tail:
        n += 1
    return n


def percentile(values: Sequence[float], pct: float,
               tail: int = TAIL_SAMPLES) -> float:
    """Nearest-rank percentile of ``values``.

    Raises ``ValueError`` when fewer than ``tail`` samples lie beyond the
    requested rank, so a p99 is never reported from a run too short to
    support it.  The median (pct=50) is exempt from the tail rule: it
    needs one sample."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if pct != 50 and n - rank < tail:
        raise ValueError(
            f"p{pct:g} needs at least {min_samples(pct, tail)} samples "
            f"({tail} beyond it); got {n}")
    return ordered[rank - 1]


def scale(before: float, after: float, nominal: float) -> float:
    """Factor that turns host seconds of work timed between two
    reference slices (``before`` and ``after``, host seconds each) into
    seconds on a host that runs a slice in ``nominal`` seconds.  The
    host's speed during the work is taken as the mean of the two slices
    around it (reference.py)."""
    if min(before, after, nominal) <= 0:
        raise ValueError("slice times must be positive")
    return nominal / ((before + after) / 2.0)


def median_by_part(timed: Iterable[Tuple[str, float]]) -> Dict[str, float]:
    """Part -> median of its timed passes (``(part, seconds)`` pairs)."""
    grouped: Dict[str, List[float]] = {}
    for part, seconds in timed:
        grouped.setdefault(part, []).append(seconds)
    return {part: statistics.median(values)
            for part, values in grouped.items()}


def rounds_for(seconds: float, nominal_round_s: float) -> int:
    """Rounds an untraced run times: ``seconds`` over the workload's
    nominal round time, at least one.  A constant of the workload, not
    a measurement, so every commit on every host times the same number
    of rounds for the same ``--seconds``."""
    if seconds <= 0 or nominal_round_s <= 0:
        raise ValueError("seconds and nominal round time must be positive")
    return max(1, round(seconds / nominal_round_s))


def unique_ratio(requested: int, unique: int) -> float:
    """Distinct cells over requested cells (1.0 = no duplicate work)."""
    if requested <= 0:
        raise ValueError("unique_ratio needs at least one requested cell")
    if not 0 <= unique <= requested:
        raise ValueError(f"unique={unique} outside [0, {requested}]")
    return unique / requested


def failed_frac(attempted: int, failed: int) -> float:
    if attempted <= 0:
        raise ValueError("failed_frac needs at least one attempted op")
    return failed / attempted


# ================================================================ spans

#: One span: (id, parent id or None, name, start, end).
Span = Tuple[int, Optional[int], str, float, float]


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> self time: its duration minus the part of its interval
    that its direct children cover (children clipped to the parent;
    overlapping children counted once)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    bounds = {sid: (start, end) for sid, _, _, start, end in spans}
    for sid, parent, _, start, end in spans:
        if parent is not None and parent in bounds:
            p_start, p_end = bounds[parent]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    return {
        sid: (end - start) - _covered(children.get(sid, []))
        for sid, _, _, start, end in spans
    }


def self_time_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, float] = {}
    for sid, _, name, _, _ in spans:
        out[name] = out.get(name, 0.0) + own[sid]
    return out


def total_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for _, _, name, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out


# ============================================================== digests


def digest(obj) -> str:
    """Stable sha256 of a JSON-able object (sorted keys, no spaces)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cells_digest(cells: Dict[str, Dict]) -> str:
    """One digest over every cell's ``SimStats.to_dict()``, keyed by
    cell identity."""
    return digest({key: digest(stats) for key, stats in cells.items()})


def check_pins(observed: Dict[str, object],
               pinned: Optional[Dict[str, object]]) -> List[str]:
    """Mismatches between observed outputs and the pinned ones, as
    human lines.  Only keys both sides have are compared: an untraced
    run observes fewer outputs than the traced run that wrote the pin."""
    if not pinned:
        return []
    return [
        f"{key}: expected {pinned[key]!r}, got {observed.get(key)!r}"
        for key in sorted(pinned)
        if key in observed and observed[key] != pinned[key]
    ]
