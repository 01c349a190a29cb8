"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper-int --seed 1 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` runs one untraced round and one traced round and reports
the per-layer metrics plus the tracing overhead.  Every timed piece of
work sits between two reference slices (reference.py), which scale it
to a nominal host speed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

_T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")
OUT = os.path.join(ROOT, ".perfbench_out")

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("job_p50_ms", "ms"), ("job_p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
)

#: Per-layer metrics, in BENCHMARK.json order.  A workload reports 0
#: for a layer it does not exercise.
PER_LAYER = (
    "workloads.traces", "workloads.gen_s", "workloads.gen_us_per_instr",
    "core.runs", "core.construct_s", "core.warmup_s", "core.loop_s",
    "core.finalize_s", "core.events_s", "core.commit_s", "core.select_s",
    "core.rename_s", "core.fetch_s", "core.sim_cycles", "core.committed",
    "core.host_us_per_cycle", "core.host_us_per_instr",
    "rename.stall_regs_cycles", "rename.inlined", "rename.pri_early_frees",
    "rename.er_early_frees",
    "experiments.cells_requested", "experiments.cells_unique",
    "experiments.unique_ratio", "experiments.overhead_s",
    "store.fsync", "store.fsync_dir", "store.append", "store.write",
    "store.rename",
    "serve.submit_ms", "serve.wait_ms", "serve.rpcs_per_job",
    "serve.cache_hits", "serve.misses", "serve.inflight_dedup",
    "serve.simulations", "serve.batches", "serve.hit_ratio", "serve.sim_s",
    "serve.miss_overhead_ms", "serve.rpc_s",
    "farm.leases", "farm.reclaims", "farm.respawns", "farm.duplicates",
    "farm.worker_busy_frac", "farm.broker_s",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
    "trace.remainder_s", "host.slice_ms", "failed_frac",
)

#: Counts that must repeat exactly for a seed (pinned, and compared
#: between runs); every other count may move with host timing.
EXACT_COUNTS = (
    "core.sim_cycles", "core.committed", "rename.stall_regs_cycles",
    "rename.inlined", "rename.pri_early_frees", "rename.er_early_frees",
    "experiments.cells_requested", "experiments.cells_unique",
)
TIMING_DEPENDENT = (
    "serve.cache_hits", "serve.misses", "serve.inflight_dedup",
    "serve.simulations", "serve.batches", "serve.hit_ratio",
    "serve.rpcs_per_job", "store.*", "farm.leases", "farm.reclaims",
    "farm.respawns", "farm.duplicates",
)


def _process_age() -> float:
    """Seconds since this process started (Linux /proc), else since
    this module started executing."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(uptime - started, time.perf_counter() - _T0)
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _T0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _probe_setup(workload: str, seed: int) -> float:
    """Set the workload up in a fresh process; seconds until it is
    ready for its first timed op."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


class HostSpeed:
    """Reference slices (reference.py) between the timed pieces of a
    run: one before the first piece and one after each."""

    def __init__(self) -> None:
        import reference

        self.nominal = reference.NOMINAL_SLICE_S
        self.helper = reference.Helper()
        self.slices = [self.helper.slice_seconds()]

    def scale(self) -> float:
        """Scale for the piece timed since the last slice; takes the
        next slice, which is also the first of the next piece's two."""
        from measure import scale

        self.slices.append(self.helper.slice_seconds())
        return scale(self.slices[-2], self.slices[-1], self.nominal)

    def slice_ms(self) -> float:
        return 1000.0 * statistics.median(self.slices)

    def close(self) -> None:
        self.helper.close()


def _write_spans(tracer, workload: str, seed: int) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}-spans.json")
    with open(path, "w") as handle:
        json.dump([{"id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "run": tracer.run_id}
                   for sid, parent, name, start, end in tracer.spans],
                  handle)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-pins", action="store_true",
                        help="record this traced run's outputs as the "
                             "pins for its workload and seed")
    args = parser.parse_args(argv)
    if args.write_pins and args.trace != 1:
        parser.error("--write-pins needs --trace 1")

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads as wl
    from measure import cells_digest, check_pins, failed_frac

    classes = {cls.name: cls for cls in
               (wl.PaperInt, wl.PrfSweep, wl.ServeMix, wl.FarmSweep)}
    if args.workload not in classes:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(classes)}")
    make = classes[args.workload]

    if args.setup_probe:
        workload = make(args.seed)
        try:
            workload.setup()
            print("ready", flush=True)
        finally:
            workload.close()
        return 0

    with open(PINS) as handle:
        pins = json.load(handle)
    pinned = pins["workloads"].get(args.workload, {}).get(str(args.seed))
    run = _untraced(args, make) if args.trace == 0 else _traced(args, make)
    problems, observed = run.problems, {}
    if run.tracer is not None:
        tracer, metrics = run.tracer, run.metrics
        if tracer.cells:
            observed["cells"] = cells_digest(tracer.cells)
        if run.workload.requested is not None:
            for name in EXACT_COUNTS:
                observed[name] = metrics[name]
            expected = {
                "experiments.cells_requested": run.workload.requested,
                "experiments.cells_unique": run.workload.unique}
            problems.extend(f"{name}: {metrics[name]} != {value}"
                            for name, value in expected.items()
                            if metrics[name] != value)
        if tracer.divergent:
            problems.append(f"divergent cells: {tracer.divergent}")
    # Every pass of a run, traced or not, must compute the same outputs
    # as the first pass over the same part.
    for index, result in enumerate(run.passes):
        problems.extend(f"pass {index}: {p}" for p in result.problems)
        for key, value in result.outputs.items():
            if observed.setdefault(key, value) != value:
                problems.append(f"{key}: pass {index} differs from an "
                                "earlier pass")
    mismatches = check_pins(observed, pinned)
    problems.extend(mismatches)
    if args.write_pins:
        pins["workloads"].setdefault(args.workload, {})[str(args.seed)] = \
            observed
        with open(PINS, "w") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")

    attempted = sum(p.ops for p in run.passes)
    failed = count_failed([p.ops for p in run.passes],
                          [p.failed for p in run.passes], mismatches)
    failed = min(attempted, failed + run.check_failed)
    if problems and not failed:
        failed = 1  # a wrong output no single op owns
    metrics = run.metrics
    if args.trace:
        metrics["failed_frac"] = failed_frac(attempted, failed)
    correct = not problems
    # Human-readable summary first; the JSON object is the last line.
    pin_note = "checked against pins" if pinned else "not pinned for this seed"
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.passes)} pass(es), outputs {pin_note}")
    print(f"  failed_frac {failed_frac(attempted, failed):.6f} "
          f"({failed}/{attempted})")
    for note in run.notes:
        print(f"  {note}")
    for problem in problems[:20]:
        print(f"  PROBLEM {problem}")
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, layer_unit(name))}")
    if args.trace:
        print("  timing-dependent counts: " + ", ".join(TIMING_DEPENDENT))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": units.get(name, layer_unit(name))}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def count_failed(ops, failed, mismatches) -> int:
    """Failed ops of a run: any output that differs from its pin fails
    every op the run attempted; otherwise the per-pass failures."""
    return sum(ops) if mismatches else sum(failed)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us_per_cycle") or name.endswith("_us_per_instr"):
        return "us"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


@dataclass
class Run:
    workload: object
    passes: List
    metrics: Dict[str, float]
    problems: List[str] = field(default_factory=list)
    #: Ops the post-run checks found wrong.
    check_failed: int = 0
    notes: List[str] = field(default_factory=list)
    tracer: Optional[object] = None

    def check(self, workload) -> None:
        problems, failed = workload.check()
        self.problems.extend(problems)
        self.check_failed += failed


def _untraced(args, make) -> Run:
    """Time a fixed number of rounds, set by ``--seconds`` and the
    workload's nominal round time (never by measured speed), each pass
    and each set-up between two reference slices.  The set-up probes
    are spread between the passes, so a slow phase of the host at the
    start of the run does not take every set-up sample."""
    from measure import rounds_for, scale

    workload = make(args.seed)
    problems = []
    speed = None
    try:
        workload.setup()
        own_setup = _process_age()
        speed = HostSpeed()
        # This process's own set-up has a slice only after it.
        samples = [own_setup * scale(speed.slices[0], speed.slices[0],
                                     speed.nominal)]
        count = workload.round_size * rounds_for(
            args.seconds, workload.NOMINAL_ROUND_S)
        probes = workload.SETUP_SAMPLES - 1
        probe_after = [i * count // probes for i in range(probes)]
        passes = []
        for index in range(count):
            result = workload.run_pass(None)
            result.scale = speed.scale()
            passes.append(result)
            for _ in range(probe_after.count(index)):
                seconds = _probe_setup(workload.name, args.seed)
                samples.append(seconds * speed.scale())
    finally:
        workload.close()
        # Before the helper stops: it is not one of the workload's
        # processes, and a waited-for child counts in the peak.
        peak_rss = _peak_rss_mb()
        if speed is not None:
            speed.close()
    metrics = {"setup_s": statistics.median(samples)}
    try:
        metrics.update(workload.end_to_end(passes))
    except ValueError as exc:  # e.g. a percentile a short run cannot give
        problems.append(f"end-to-end metrics: {exc}")
    metrics["peak_rss_mb"] = peak_rss
    run = Run(workload, passes,
              {name: metrics[name] for name, _ in END_TO_END
               if name in metrics}, problems)
    run.notes.append(f"set-up samples, scaled (s): "
                     f"{[round(x, 4) for x in samples]}")
    run.notes.append(f"host: median reference slice {speed.slice_ms():.1f} "
                     f"ms (nominal {1000 * speed.nominal:g}"
                     f" ms); round in host seconds, unscaled "
                     f"{_unscaled_round(passes):.4f}")
    run.notes.append(f"latency samples: {workload.sample_counts()}")
    run.check(workload)
    return run


def _unscaled_round(passes) -> float:
    from measure import median_by_part

    return sum(median_by_part((p.part, p.seconds) for p in passes).values())


def _traced(args, make) -> Run:
    speed = HostSpeed()
    try:
        return _traced_rounds(args, make, speed)
    finally:
        speed.close()


def _traced_rounds(args, make, speed: HostSpeed) -> Run:
    import workloads as wl
    from tracing import Tracer

    # Untraced reference pass, so the overhead is measured in this run.
    reference = make(args.seed)
    try:
        reference.setup()
        speed.scale()  # a fresh slice right before the round
        untraced = []
        for _ in range(reference.round_size):
            untraced.append(reference.run_pass(None))
            untraced[-1].scale = speed.scale()
    finally:
        reference.close()

    workload = make(args.seed)
    tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}",
                    spool=os.path.join(wl.SCRATCH, f"spool-{os.getpid()}"))
    try:
        if workload.name == "serve-mix":
            workload.setup(traced=True)
        else:
            workload.setup()
            tracer.install_core()
            tracer.install_store()
            tracer.install_matrix()
            if workload.name == "farm-sweep":
                tracer.install_trace_cache_class()
                tracer.install_fork_spool()
        speed.scale()  # a fresh slice right before the traced round
        traced = []
        for _ in range(workload.round_size):
            traced.append(workload.run_pass(tracer))
            traced[-1].scale = speed.scale()
    finally:
        tracer.uninstall()
        workload.close()  # the traced server writes its store counts here
        if os.path.isdir(tracer.spool):
            os.rmdir(tracer.spool)
    metrics = dict.fromkeys(PER_LAYER, 0)
    layers = workload.layer_metrics(tracer, traced)
    unknown = set(layers) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"layer metrics missing from PER_LAYER: {unknown}")
    metrics.update(layers)
    for op in ("fsync", "fsync_dir", "append", "write", "rename"):
        metrics["store." + op] = tracer.counts["store." + op]
    metrics["trace.wall_s"] = sum(p.seconds for p in traced)
    metrics["trace.untraced_wall_s"] = sum(p.seconds for p in untraced)
    # Both rounds scaled to the nominal host, so a slow phase during
    # one of them is not read as tracing overhead.
    metrics["trace.overhead_s"] = (sum(p.scaled for p in traced)
                                   - sum(p.scaled for p in untraced))
    metrics["host.slice_ms"] = speed.slice_ms()
    run = Run(workload, untraced + traced, metrics, tracer=tracer)
    run.check(reference)
    run.check(workload)
    run.notes.append("spans written to "
                     + _write_spans(tracer, args.workload, args.seed))
    return run


if __name__ == "__main__":
    sys.exit(main())
