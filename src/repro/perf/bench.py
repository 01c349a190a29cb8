"""Run the throughput benchmark matrix and persist a bench artifact.

The measured configurations mirror ``benchmarks/test_simulator_throughput.py``
(the CI-visible throughput suite): the base Table 1 four-wide machine
and the PRI machine, on the same gzip trace.  Timing uses
best-of-``rounds`` wall clock including :class:`~repro.core.machine.Machine`
construction — exactly the shape the pytest benchmark times — so a
bench artifact and the benchmark suite agree on what "throughput"
means.

The artifact is a :mod:`repro.store` envelope (kind ``bench``, schema
:data:`BENCH_SCHEMA`), so corruption is detected at load time and
``python -m repro.store fsck`` can audit a tree of them.
"""

from __future__ import annotations

import datetime
import os
import platform
import subprocess
import time
from typing import Any, Dict, Optional, Tuple

from repro.config import four_wide
from repro.core.machine import Machine
from repro.store import (
    ArtifactError,
    ArtifactMeta,
    SchemaMismatch,
    read_json_artifact,
    write_json_artifact,
)
from repro.workloads import generate_trace

#: Envelope kind and payload schema version for bench artifacts.  Bump
#: the schema whenever a field changes meaning; ``compare`` refuses to
#: diff artifacts whose schema it does not understand.
BENCH_KIND = "bench"
BENCH_SCHEMA = 2

#: Schemas :func:`read_bench` understands.  Schema-2 artifacts written
#: by earlier versions may carry a per-config ``vector`` entry from a
#: since-removed backend; readers ignore it.  Schema 1 has none.
READABLE_SCHEMAS: Tuple[int, ...] = (1, 2)

#: The measured machine configurations, in report order.
BENCH_CONFIGS: Tuple[str, ...] = ("base", "pri")

#: The trace every config is timed on (mirrors the benchmark suite).
DEFAULT_TRACE = {"benchmark": "gzip", "length": 2000, "seed": 5, "warmup": 4000}

DEFAULT_ROUNDS = 5


def _config_for(name: str):
    if name == "base":
        return four_wide()
    if name == "pri":
        return four_wide().with_pri()
    raise ValueError(f"unknown bench config {name!r}")


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    if platform.system() == "Darwin":
        return usage // 1024
    return usage


def run_bench(
    rounds: int = DEFAULT_ROUNDS,
    trace_spec: Optional[Dict[str, Any]] = None,
    configs: Tuple[str, ...] = BENCH_CONFIGS,
) -> Dict[str, Any]:
    """Time each config and return a schema-``BENCH_SCHEMA`` payload.

    ``trace_spec`` overrides the measured trace (tests use a tiny one);
    the spec is recorded in the payload so ``compare`` can refuse to
    diff measurements of different workloads.
    """
    spec = dict(DEFAULT_TRACE, **(trace_spec or {}))
    trace = generate_trace(
        spec["benchmark"], spec["length"], seed=spec["seed"],
        warmup=spec["warmup"],
    )
    results: Dict[str, Dict[str, Any]] = {}
    for name in configs:
        cfg = _config_for(name)
        best = None
        stats = None
        for _ in range(max(1, rounds)):
            t0 = time.perf_counter()
            stats = Machine(cfg).run(trace)
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best = elapsed
        results[name] = {
            "seconds": best,
            "cycles": stats.cycles,
            "instrs": stats.committed,
            "cycles_per_sec": stats.cycles / best if best else 0.0,
            "instrs_per_sec": stats.committed / best if best else 0.0,
        }
    return {
        "schema": BENCH_SCHEMA,
        "created": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "peak_rss_kb": _peak_rss_kb(),
        "rounds": rounds,
        "trace": spec,
        "configs": results,
    }


def default_bench_path(directory: str = ".") -> str:
    """``BENCH_<date>.json`` in ``directory`` (the conventional name the
    CI baseline lookup globs for)."""
    return os.path.join(
        directory, f"BENCH_{datetime.date.today().isoformat()}.json"
    )


def latest_baseline(directory: str) -> Optional[str]:
    """The newest readable ``BENCH_*.json`` in ``directory``, by the
    payload's recorded ``created`` date (filename as the tiebreak), or
    None when the directory holds no readable bench artifact.

    This replaces the shell's ``ls | sort | tail -1``, which silently
    picks the wrong baseline the moment two files share a date suffix
    variant or names stop sorting chronologically — the *payload* date
    is the authoritative recency, and unreadable artifacts are skipped
    instead of crashing the comparison."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return None
    best: Optional[Tuple[str, str, str]] = None
    for name in names:
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(directory, name)
        try:
            payload, _ = read_bench(path)
        except (ArtifactError, OSError):
            continue  # damaged or foreign: never a baseline
        created = str(payload.get("created", ""))
        candidate = (created, name, path)
        if best is None or candidate > best:
            best = candidate
    return best[2] if best else None


def write_bench(path: str, payload: Dict[str, Any]) -> None:
    """Persist a bench payload as a checksummed store envelope."""
    write_json_artifact(path, BENCH_KIND, BENCH_SCHEMA, payload)


def read_bench(path: str) -> Tuple[Dict[str, Any], ArtifactMeta]:
    """Load and verify a bench artifact; raises the typed
    :class:`~repro.store.ArtifactError` family on damage or schema
    drift (no legacy plain-JSON fallback — bench files postdate the
    store).  Accepts every schema in :data:`READABLE_SCHEMAS`."""
    payload, meta = read_json_artifact(path, BENCH_KIND, allow_legacy=False)
    if meta.schema not in READABLE_SCHEMAS:
        raise SchemaMismatch(
            f"bench artifact {path} has schema {meta.schema}; this reader "
            f"understands {READABLE_SCHEMAS}",
            path=path, found=meta.schema, expected=BENCH_SCHEMA,
        )
    return payload, meta
