"""Per-figure experiment drivers.

Each ``figureN`` function regenerates the data behind the paper's Figure
N — the same rows and series the paper plots — and returns a result
object whose ``render()`` produces a plain-text table.  Absolute numbers
come from the synthetic-trace substrate (see DESIGN.md §4); the shape is
what is being reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.lifetime import LifetimeBreakdown, breakdown_from_stats
from repro.analysis.significance import (
    fp_exponent_cdf,
    fp_significand_cdf,
    int_width_cdf,
)
from repro.config import PRF_SWEEP_SIZES
from repro.core.machine import simulate
from repro.experiments.report import (
    bar_chart,
    format_table,
    mean,
    stacked_bar_chart,
)
from repro.experiments.runner import (
    FIGURE10_SCHEMES,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    RunSpec,
    TraceCache,
    run_matrix,
    speedups_over_base,
    width_config,
)

_DEFAULT_WIDTHS: Tuple[int, ...] = (4, 8)


@dataclass
class FigureResult:
    """Generic container: a title plus one table per machine width."""

    title: str
    tables: List[str] = field(default_factory=list)
    data: Dict = field(default_factory=dict)

    def render(self) -> str:
        return "\n\n".join([self.title] + self.tables)


# ===================================================================
# Figure 1 — average register lifetime, base machine
# ===================================================================

def figure1(
    spec: Optional[RunSpec] = None,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
    traces: Optional[TraceCache] = None,
    jobs: int = 1,
    matrix_opts: Optional[Dict] = None,
) -> FigureResult:
    """Average physical register lifetime, split into alloc→write,
    write→last-read, last-read→release (stacked bars of Figure 1).

    ``matrix_opts`` forwards extra keyword arguments (``journal``,
    ``cell_timeout``, ``retries``, ``on_error``, ...) to
    :func:`~repro.experiments.runner.run_matrix`; the same applies to
    every other matrix-backed driver.  ``traces`` is the run's
    :class:`~repro.experiments.runner.TraceCache`: drivers handed the
    same cache simulate each shared cell once; ``None`` makes a fresh
    one for this call (shared by its widths)."""
    spec = spec or RunSpec()
    traces = traces or TraceCache()
    result = FigureResult(
        "Figure 1: average integer register lifetime (cycles), base machine"
    )
    for width in widths:
        rows = []
        breakdowns: List[LifetimeBreakdown] = []
        matrix = run_matrix(benchmarks, ["base"], width, spec, traces, jobs=jobs,
                            **(matrix_opts or {}))
        for benchmark in benchmarks:
            b = breakdown_from_stats(matrix[benchmark]["base"], benchmark)
            breakdowns.append(b)
            rows.append(
                (benchmark, b.alloc_to_write, b.write_to_last_read,
                 b.last_read_to_release, b.total)
            )
        rows.append(
            ("mean",
             mean([b.alloc_to_write for b in breakdowns]),
             mean([b.write_to_last_read for b in breakdowns]),
             mean([b.last_read_to_release for b in breakdowns]),
             mean([b.total for b in breakdowns]))
        )
        result.tables.append(
            format_table(
                f"width {width}",
                ("benchmark", "alloc->write", "write->last-read",
                 "last-read->release", "total"),
                rows,
                floatfmt="{:.1f}",
            )
        )
        result.tables.append(
            stacked_bar_chart(
                f"width {width} (cycles; stacked as in the paper's Figure 1)",
                [(b.label, (b.alloc_to_write, b.write_to_last_read,
                            b.last_read_to_release)) for b in breakdowns],
                ("alloc->write", "write->last-read", "last-read->release"),
            )
        )
        result.data[width] = breakdowns
    return result


# ===================================================================
# Figure 2 — operand significance CDFs
# ===================================================================

def figure2(
    length: int = 20000,
    seed: int = 1,
    int_benchmarks: Sequence[str] = INT_BENCHMARKS,
    fp_benchmarks: Sequence[str] = FP_BENCHMARKS,
) -> FigureResult:
    """Dynamic cumulative operand-width distributions (Figure 2)."""
    from repro.workloads import generate_trace

    result = FigureResult("Figure 2: operand significance")
    int_points = (1, 4, 7, 10, 16, 24, 32, 48, 64)
    rows = []
    cdfs: Dict[str, List[float]] = {}
    for name in int_benchmarks:
        trace = generate_trace(name, length, seed=seed, warmup=0)
        cdf = int_width_cdf(trace)
        cdfs[name] = cdf
        rows.append([name] + [cdf[b] for b in int_points])
    rows.append(["mean"] + [mean([cdfs[n][b] for n in int_benchmarks])
                            for b in int_points])
    result.tables.append(
        format_table(
            "integer operands: cumulative fraction representable in <= N bits",
            ["benchmark"] + [f"<={b}b" for b in int_points],
            rows,
        )
    )
    exp_rows, fp_data = [], {}
    for name in fp_benchmarks:
        trace = generate_trace(name, length, seed=seed, warmup=0)
        exp_cdf = fp_exponent_cdf(trace)
        sig_cdf = fp_significand_cdf(trace)
        fp_data[name] = (exp_cdf, sig_cdf)
        exp_rows.append((name, exp_cdf[0], exp_cdf[4], exp_cdf[8],
                         sig_cdf[0], sig_cdf[16], sig_cdf[32]))
    exp_rows.append(
        ("mean",
         mean([fp_data[n][0][0] for n in fp_benchmarks]),
         mean([fp_data[n][0][4] for n in fp_benchmarks]),
         mean([fp_data[n][0][8] for n in fp_benchmarks]),
         mean([fp_data[n][1][0] for n in fp_benchmarks]),
         mean([fp_data[n][1][16] for n in fp_benchmarks]),
         mean([fp_data[n][1][32] for n in fp_benchmarks]))
    )
    result.tables.append(
        format_table(
            "FP operands: exponent / significand significant-bit CDF",
            ("benchmark", "exp 0b", "exp<=4b", "exp<=8b",
             "sig 0b", "sig<=16b", "sig<=32b"),
            exp_rows,
        )
    )
    result.data = {"int": cdfs, "fp": fp_data}
    return result


# ===================================================================
# Figure 8 — lifetime reduction with PRI and PRI+ER
# ===================================================================

def figure8(
    spec: Optional[RunSpec] = None,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
    traces: Optional[TraceCache] = None,
    jobs: int = 1,
    matrix_opts: Optional[Dict] = None,
) -> FigureResult:
    """Register lifetime for base vs PRI vs PRI+ER (Figure 8)."""
    spec = spec or RunSpec()
    traces = traces or TraceCache()
    schemes = ("base", "PRI-refcount+ckptcount", "PRI+ER")
    labels = {"base": "base", "PRI-refcount+ckptcount": "PRI", "PRI+ER": "PRI+ER"}
    result = FigureResult(
        "Figure 8: average integer register lifetime (cycles) with PRI / PRI+ER"
    )
    for width in widths:
        matrix = run_matrix(benchmarks, schemes, width, spec, traces, jobs=jobs,
                            **(matrix_opts or {}))
        rows = []
        data = {}
        for benchmark in benchmarks:
            cells = [benchmark]
            for scheme in schemes:
                b = breakdown_from_stats(matrix[benchmark][scheme], benchmark)
                data.setdefault(benchmark, {})[labels[scheme]] = b
                cells.append(b.total)
            rows.append(cells)
        rows.append(
            ["mean"]
            + [mean([data[n][labels[s]].total for n in benchmarks]) for s in schemes]
        )
        result.tables.append(
            format_table(
                f"width {width} (total lifetime per scheme)",
                ["benchmark"] + [labels[s] for s in schemes],
                rows,
                floatfmt="{:.1f}",
            )
        )
        result.data[width] = data
    return result


# ===================================================================
# Figure 9 — register file size sensitivity
# ===================================================================

def figure9(
    spec: Optional[RunSpec] = None,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
    sizes: Sequence[int] = PRF_SWEEP_SIZES,
    traces: Optional[TraceCache] = None,
) -> FigureResult:
    """Base-machine speedup vs physical register count, normalized to the
    smallest size (Figure 9)."""
    spec = spec or RunSpec()
    traces = traces or TraceCache()
    result = FigureResult(
        f"Figure 9: register file sensitivity (speedup over PR={sizes[0]})"
    )
    for width in widths:
        rows = []
        data: Dict[str, Dict[int, float]] = {}
        for benchmark in benchmarks:
            trace = traces.get(benchmark, spec)
            ipcs = {}
            for size in sizes:
                config = width_config(width).with_phys_regs(size)
                ipcs[size] = simulate(config, trace).ipc
            norm = ipcs[sizes[0]]
            data[benchmark] = {s: (ipcs[s] / norm if norm else 0.0) for s in sizes}
            rows.append([benchmark] + [data[benchmark][s] for s in sizes])
        rows.append(
            ["mean"] + [mean([data[b][s] for b in benchmarks]) for s in sizes]
        )
        result.tables.append(
            format_table(
                f"width {width}",
                ["benchmark"] + [f"PR={s}" for s in sizes],
                rows,
            )
        )
        result.data[width] = data
    return result


# ===================================================================
# Figures 10 and 12 — scheme speedups (INT and FP)
# ===================================================================

def _scheme_speedup_figure(
    title: str,
    benchmarks: Sequence[str],
    spec: Optional[RunSpec],
    widths: Sequence[int],
    traces: Optional[TraceCache],
    jobs: int = 1,
    matrix_opts: Optional[Dict] = None,
) -> FigureResult:
    spec = spec or RunSpec()
    traces = traces or TraceCache()
    schemes = ("base",) + FIGURE10_SCHEMES
    result = FigureResult(title)
    for width in widths:
        matrix = run_matrix(benchmarks, schemes, width, spec, traces, jobs=jobs,
                            **(matrix_opts or {}))
        speedups = speedups_over_base(matrix)
        rows = []
        for benchmark in benchmarks:
            rows.append(
                [benchmark, matrix[benchmark]["base"].ipc]
                + [speedups[benchmark][s] for s in FIGURE10_SCHEMES]
            )
        rows.append(
            ["mean", mean([matrix[b]["base"].ipc for b in benchmarks])]
            + [mean([speedups[b][s] for b in benchmarks]) for s in FIGURE10_SCHEMES]
        )
        result.tables.append(
            format_table(
                f"width {width} (IPC speedup over base)",
                ["benchmark", "baseIPC"] + list(FIGURE10_SCHEMES),
                rows,
            )
        )
        result.tables.append(
            bar_chart(
                f"width {width}: mean speedup by scheme (bar length = gain over base)",
                [(s, mean([speedups[b][s] for b in benchmarks]))
                 for s in FIGURE10_SCHEMES],
                baseline=1.0,
            )
        )
        result.data[width] = {"matrix": matrix, "speedups": speedups}
    return result


def figure10(
    spec: Optional[RunSpec] = None,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
    traces: Optional[TraceCache] = None,
    jobs: int = 1,
    matrix_opts: Optional[Dict] = None,
) -> FigureResult:
    """PRI speedups for the SPECint suite (Figure 10)."""
    return _scheme_speedup_figure(
        "Figure 10: PRI speed-up, SPEC2000 integer", benchmarks, spec, widths,
        traces, jobs=jobs, matrix_opts=matrix_opts,
    )


def figure12(
    spec: Optional[RunSpec] = None,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = FP_BENCHMARKS,
    traces: Optional[TraceCache] = None,
    jobs: int = 1,
    matrix_opts: Optional[Dict] = None,
) -> FigureResult:
    """PRI speedups for the SPECfp suite (Figure 12)."""
    return _scheme_speedup_figure(
        "Figure 12: PRI speed-up, SPEC2000 floating point", benchmarks, spec,
        widths, traces, jobs=jobs, matrix_opts=matrix_opts,
    )


# ===================================================================
# Figure 11 — register file occupancy
# ===================================================================

def figure11(
    spec: Optional[RunSpec] = None,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
    traces: Optional[TraceCache] = None,
    jobs: int = 1,
    matrix_opts: Optional[Dict] = None,
) -> FigureResult:
    """Average integer PRF occupancy for base / ER / PRI / PRI+ER."""
    spec = spec or RunSpec()
    traces = traces or TraceCache()
    schemes = ("base", "ER", "PRI-refcount+ckptcount", "PRI+ER")
    labels = ("base", "ER", "PRI", "PRI+ER")
    result = FigureResult("Figure 11: average integer PRF occupancy (registers)")
    for width in widths:
        matrix = run_matrix(benchmarks, schemes, width, spec, traces, jobs=jobs,
                            **(matrix_opts or {}))
        rows = []
        data = {}
        for benchmark in benchmarks:
            occs = [matrix[benchmark][s].avg_occupancy("int") for s in schemes]
            data[benchmark] = dict(zip(labels, occs))
            rows.append([benchmark] + occs)
        rows.append(
            ["mean"]
            + [mean([data[b][lab] for b in benchmarks]) for lab in labels]
        )
        result.tables.append(
            format_table(
                f"width {width}", ["benchmark"] + list(labels), rows, floatfmt="{:.1f}"
            )
        )
        result.tables.append(
            bar_chart(
                f"width {width}: mean occupancy by scheme",
                [(lab, mean([data[b][lab] for b in benchmarks]))
                 for lab in labels],
                floatfmt="{:.1f}",
            )
        )
        result.data[width] = data
    return result
