"""Simulator performance tracking: record and compare throughput.

The figure sweeps and the paper's tables all sit on top of the same
pure-Python cycle loop, so simulator throughput *is* experiment
turnaround.  This package makes that throughput a first-class,
regression-gated artifact:

* :mod:`repro.perf.bench` — run the standard benchmark matrix (the
  same machine configurations ``benchmarks/test_simulator_throughput.py``
  times) and emit a schema-versioned ``BENCH_<date>.json`` through the
  :mod:`repro.store` envelope: cycles/sec and instrs/sec per config,
  peak RSS, Python version, git SHA.
* :mod:`repro.perf.compare` — diff two bench artifacts and fail (exit
  non-zero) when any config's throughput regressed past a threshold.
  CI runs this against the committed baseline on every pull request.

CLI::

    python -m repro.perf bench                     # write BENCH_<date>.json
    python -m repro.perf bench --out bench.json
    python -m repro.perf compare BASELINE CURRENT --threshold 15%
"""

from repro.perf.bench import (
    BENCH_KIND,
    BENCH_SCHEMA,
    default_bench_path,
    read_bench,
    run_bench,
    write_bench,
)
from repro.perf.compare import CompareResult, compare_payloads, parse_threshold

__all__ = [
    "BENCH_KIND",
    "BENCH_SCHEMA",
    "CompareResult",
    "compare_payloads",
    "default_bench_path",
    "parse_threshold",
    "read_bench",
    "run_bench",
    "write_bench",
]
