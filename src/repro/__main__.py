"""Top-level simulator CLI.

Run one benchmark under one scheme and print the statistics::

    python -m repro gzip                       # base 4-wide machine
    python -m repro gzip --scheme PRI+ER       # any Figure 10 scheme
    python -m repro mcf --width 8 --length 10000 --regs 96
    python -m repro gzip --regs 64,96,128,256  # PRF size sweep table
    python -m repro --list                     # available benchmarks

For the full table/figure harness use ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.machine import SimulationError, simulate
from repro.experiments.runner import SCHEMES, width_config
from repro.isa.registers import NUM_INT_ARCH_REGS
from repro.workloads import ALL_BENCHMARKS, generate_trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Simulate one benchmark profile on the paper's machine.",
    )
    parser.add_argument("benchmark", nargs="?", help="benchmark profile name")
    parser.add_argument("--scheme", default="base", choices=sorted(SCHEMES),
                        help="register reclamation scheme (default: base)")
    parser.add_argument("--width", type=int, choices=(4, 8), default=4)
    parser.add_argument("--length", type=int, default=6000,
                        help="timed instructions (default 6000)")
    parser.add_argument("--warmup", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--regs", default=None,
                        help="override the physical register count per "
                             "class; a comma-separated list sweeps the "
                             "sizes and prints one table row per size")
    parser.add_argument("--audit", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="attach the machine invariant auditor "
                             "(repro.audit): bookkeeping corruption aborts "
                             "the run with a structured diagnostic")
    parser.add_argument("--oracle", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="attach the golden-model differential oracle "
                             "(repro.oracle): any committed value, branch "
                             "outcome, or memory effect that diverges from "
                             "in-order execution aborts the run with a "
                             "structured OracleDivergence")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N",
                        help="snapshot the full machine state every N "
                             "cycles; an interrupted run resumes from its "
                             "last checkpoint on the next invocation")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="directory for checkpoint files "
                             "(default: .repro-checkpoints)")
    parser.add_argument("--max-cycles", type=int, default=None, metavar="N",
                        help="abort if the run needs more than N cycles")
    parser.add_argument("--list", action="store_true",
                        help="list benchmark profiles and exit")
    args = parser.parse_args(argv)

    if args.list:
        for profile in ALL_BENCHMARKS:
            print(f"{profile.name:10s} [{profile.suite}]  {profile.notes}")
        return 0
    if not args.benchmark:
        parser.error("benchmark name required (or --list)")

    try:
        reg_sizes = ([int(r) for r in str(args.regs).split(",")]
                     if args.regs is not None else [])
    except ValueError:
        parser.error(f"--regs must be an integer or a comma-separated "
                     f"list of integers, got {args.regs!r}")
    small = [size for size in reg_sizes if size < NUM_INT_ARCH_REGS]
    if small:
        parser.error(f"--regs must be at least {NUM_INT_ARCH_REGS} (the "
                     f"architected registers per class), got {small[0]}")

    config = SCHEMES[args.scheme](width_config(args.width))
    if len(reg_sizes) == 1:
        config = config.with_phys_regs(reg_sizes[0])
    if args.audit:
        config = config.with_audit()
    if args.oracle:
        config = config.with_oracle()

    print(f"generating {args.benchmark!r}: {args.length} timed + "
          f"{args.warmup} warmup instructions (seed {args.seed})")
    trace = generate_trace(args.benchmark, args.length, seed=args.seed,
                           warmup=args.warmup)

    if len(reg_sizes) > 1:
        return _run_sweep(args, config, trace, reg_sizes)
    start = time.time()
    try:
        stats = _simulate(args, config, trace)
    except SimulationError as err:
        print(f"simulation failed: {err}", file=sys.stderr)
        diagnostic = getattr(err, "diagnostic", None)
        if diagnostic:
            for key, value in diagnostic.items():
                print(f"  {key}: {value}", file=sys.stderr)
        return 1
    elapsed = time.time() - start
    if args.max_cycles is not None and stats.committed < len(trace):
        print(f"simulation failed: cycle watchdog: committed only "
              f"{stats.committed}/{len(trace)} instructions in "
              f"{args.max_cycles} cycles", file=sys.stderr)
        return 1

    print(f"scheme {args.scheme!r} on the {config.name} machine "
          f"({config.int_phys_regs} INT + {config.fp_phys_regs} FP regs)")
    print(stats.summary())
    life = stats.lifetime("int")
    print(f"branches: {stats.branches} committed, "
          f"{stats.mispredicts} mispredicts, {stats.squashed} ops squashed")
    print(f"register lifetime (INT): alloc->write {life.avg_alloc_to_write:.1f}, "
          f"write->last-read {life.avg_write_to_last_read:.1f}, "
          f"last-read->release {life.avg_last_read_to_release:.1f} cycles")
    if stats.inline_attempts:
        print(f"PRI: {stats.inline_attempts} narrow results at retire, "
              f"{stats.inlined} inlined ({stats.inline_waw_dropped} WAW-dropped), "
              f"{stats.pri_early_frees} early frees "
              f"({stats.pri_frees_deferred} deferred by references)")
    if stats.er_early_frees:
        print(f"ER: {stats.er_early_frees} early frees, "
              f"{stats.duplicate_deallocs} duplicate deallocations absorbed")
    if stats.audits:
        print(f"audit: {stats.audits} invariant audits, all clean")
    if stats.oracle_commits:
        print(f"oracle: {stats.oracle_commits} commits compared "
              f"({stats.oracle_dest_checks} destinations observable, "
              f"{stats.oracle_unobserved} already reclaimed), "
              f"{stats.oracle_arch_checks} architectural sweeps, all clean")
    print(f"[{elapsed:.1f}s, {stats.cycles / max(elapsed, 1e-9):,.0f} cycles/s]")
    return 0


def _simulate(args, config, trace):
    """One run of ``config`` on ``trace``, checkpointed if asked."""
    if not args.checkpoint_every:
        return simulate(config, trace, max_cycles=args.max_cycles)
    import os

    from repro.config import config_digest
    from repro.experiments.runner import RunSpec, _run_checkpointed

    spec = RunSpec(
        length=args.length, warmup=args.warmup, seed=args.seed,
        max_cycles=args.max_cycles,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
    )
    path = os.path.join(
        args.checkpoint_dir or ".repro-checkpoints",
        f"{args.benchmark}-{args.scheme}-w{args.width}"
        f"-n{args.length}-s{args.seed}"
        f"-{config_digest(config)}.ckpt.json",
    )
    return _run_checkpointed(config, trace, path, spec)


def _run_sweep(args, config, trace, reg_sizes) -> int:
    """Run one simulation per PRF size and print a row per size."""
    print(f"scheme {args.scheme!r} on the {config.name} machine, "
          f"{len(reg_sizes)} PRF sizes")
    print(f"{'PR':>6s} {'cycles':>9s} {'IPC':>6s} {'committed':>9s}")
    failures = 0
    start = time.time()
    for size in reg_sizes:
        try:
            stats = _simulate(args, config.with_phys_regs(size), trace)
        except SimulationError as err:
            failures += 1
            print(f"{size:>6d} failed: {err}", file=sys.stderr)
            continue
        if args.max_cycles is not None and stats.committed < len(trace):
            failures += 1
            print(f"{size:>6d} cycle watchdog: committed only "
                  f"{stats.committed}/{len(trace)} instructions",
                  file=sys.stderr)
            continue
        print(f"{size:>6d} {stats.cycles:>9d} {stats.ipc:>6.3f} "
              f"{stats.committed:>9d}")
    print(f"[{time.time() - start:.1f}s for {len(reg_sizes)} sizes]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
