"""Diff two bench artifacts and gate on throughput regressions.

``compare_payloads`` is the pure decision function (tested directly);
the CLI in :mod:`repro.perf.__main__` wraps it with artifact loading.
A regression is a drop in a config's ``cycles_per_sec`` beyond the
threshold *fraction*: with a 15% threshold, a config must fall to
strictly below 85% of the baseline's throughput to fail, so an exact
15% drop still passes and any improvement always passes.  A config
present in the baseline but missing from the current run fails — a
silently dropped measurement must not read as "no regression".
Only :data:`METRIC` is compared; any other per-config entry (such as
the ``vector`` entry older schema-2 artifacts carry) is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

DEFAULT_THRESHOLD = 0.15

#: The throughput figure regressions are judged on.
METRIC = "cycles_per_sec"


def parse_threshold(text: str) -> float:
    """Accept ``"15%"`` or a bare fraction like ``"0.15"``."""
    raw = text.strip()
    if raw.endswith("%"):
        value = float(raw[:-1]) / 100.0
    else:
        value = float(raw)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"threshold must be in [0%, 100%), got {text!r}")
    return value


@dataclass
class CompareResult:
    """Outcome of one baseline-vs-current comparison."""

    threshold: float
    lines: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "ok" if self.ok else "REGRESSION"
        return (
            f"perf compare: {verdict} "
            f"(threshold {self.threshold * 100:.1f}%, "
            f"{len(self.failures)} failing config(s))"
        )


def compare_payloads(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> CompareResult:
    """Compare per-config throughput; populate human-readable lines."""
    result = CompareResult(threshold=threshold)
    if baseline.get("trace") != current.get("trace"):
        result.failures.append("trace")
        result.lines.append(
            f"trace mismatch: baseline measured {baseline.get('trace')}, "
            f"current measured {current.get('trace')} — not comparable"
        )
        return result
    base_configs = baseline.get("configs", {})
    cur_configs = current.get("configs", {})
    for name, base in sorted(base_configs.items()):
        cur = cur_configs.get(name)
        if cur is None:
            result.failures.append(name)
            result.lines.append(
                f"{name}: missing from current run (baseline "
                f"{base[METRIC]:,.0f} {METRIC})"
            )
            continue
        base_tp = base[METRIC]
        cur_tp = cur[METRIC]
        if base_tp <= 0:
            change = 0.0
        else:
            change = (cur_tp - base_tp) / base_tp
        line = (
            f"{name}: {base_tp:,.0f} -> {cur_tp:,.0f} {METRIC} "
            f"({change:+.1%})"
        )
        # Strictly-beyond-threshold fails; an exact-threshold drop and
        # every improvement pass.
        if change < -threshold:
            result.failures.append(name)
            line += f"  REGRESSION (limit -{threshold:.1%})"
        result.lines.append(line)
    for name in sorted(set(cur_configs) - set(base_configs)):
        result.lines.append(f"{name}: new config (no baseline) — informational")
    return result
