"""Table drivers: the paper's Table 1 (machine configurations) and
Table 2 (benchmarks and base IPC)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.config import eight_wide, four_wide
from repro.experiments.figures import FigureResult
from repro.experiments.report import format_table
from repro.experiments.runner import (
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    RunSpec,
    TraceCache,
    run_matrix,
)
from repro.workloads import get_profile

_DEFAULT_WIDTHS = (4, 8)


def table1() -> FigureResult:
    """Render the machine configurations (Table 1)."""
    result = FigureResult("Table 1: machine configurations")
    rows = []
    for config in (four_wide(), eight_wide()):
        rows.append(
            (
                config.name,
                config.width,
                config.rob_entries,
                config.lsq_entries,
                config.scheduler_entries,
                config.int_phys_regs,
                config.fp_phys_regs,
                config.pri.int_width_bits,
            )
        )
    result.tables.append(
        format_table(
            "out-of-order execution",
            ("model", "width", "ROB", "LSQ", "sched", "intPR", "fpPR", "PRIbits"),
            rows,
        )
    )
    mem = four_wide().memory
    result.tables.append(
        format_table(
            "memory system (latency in cycles)",
            ("level", "size", "assoc", "line", "latency"),
            (
                ("IL1", mem.il1.size, mem.il1.assoc, mem.il1.line, mem.il1.latency),
                ("DL1", mem.dl1.size, mem.dl1.assoc, mem.dl1.line, mem.dl1.latency),
                ("L2", mem.l2.size, mem.l2.assoc, mem.l2.line, mem.l2.latency),
                ("memory", "-", "-", "-", mem.memory_latency),
            ),
        )
    )
    return result


def table2(
    spec: Optional[RunSpec] = None,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    traces: Optional[TraceCache] = None,
    jobs: int = 1,
    matrix_opts: Optional[Dict] = None,
) -> FigureResult:
    """Base IPC for every benchmark at each width, next to the paper's
    reported values (Table 2).  The base cells run through
    :func:`~repro.experiments.runner.run_matrix`, so ``jobs``,
    ``matrix_opts`` and ``traces`` mean what they do for the figure
    drivers."""
    spec = spec or RunSpec()
    traces = traces or TraceCache()
    benchmarks = INT_BENCHMARKS + FP_BENCHMARKS
    matrices = {
        width: run_matrix(benchmarks, ["base"], width, spec, traces, jobs=jobs,
                          **(matrix_opts or {}))
        for width in widths
    }
    result = FigureResult("Table 2: benchmark programs simulated (base IPC)")
    for suite, names in (("integer", INT_BENCHMARKS), ("floating point", FP_BENCHMARKS)):
        rows = []
        for name in names:
            profile = get_profile(name)
            cells = [name] + [matrices[width][name]["base"].ipc for width in widths]
            cells.extend([profile.paper_ipc_4w, profile.paper_ipc_8w])
            rows.append(cells)
        headers = (
            ["benchmark"]
            + [f"IPC({w}w)" for w in widths]
            + ["paper(4w)", "paper(8w)"]
        )
        result.tables.append(format_table(suite, headers, rows, floatfmt="{:.2f}"))
        result.data[suite] = rows
    return result
