"""Performance-tracking CLI.

::

    python -m repro.perf bench                          # BENCH_<date>.json
    python -m repro.perf bench --out bench.json --rounds 7
    python -m repro.perf compare BASELINE CURRENT --threshold 15%
    python -m repro.perf latest-baseline benchmarks     # newest by date

Exit status: 0 on success / no regression, 1 on a regression or an
unreadable artifact, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.perf.bench import (
    DEFAULT_ROUNDS,
    default_bench_path,
    latest_baseline,
    read_bench,
    run_bench,
    write_bench,
)
from repro.perf.compare import compare_payloads, parse_threshold
from repro.store import ArtifactError


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Record and compare simulator throughput benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser(
        "bench", help="run the throughput matrix and write a bench artifact"
    )
    bench.add_argument(
        "--out", default=None, metavar="FILE",
        help="output path (default: BENCH_<date>.json in the CWD)",
    )
    bench.add_argument(
        "--rounds", type=int, default=DEFAULT_ROUNDS,
        help=f"timing rounds per config, best kept (default {DEFAULT_ROUNDS})",
    )

    compare = sub.add_parser(
        "compare", help="diff two bench artifacts; non-zero on regression"
    )
    compare.add_argument("baseline", help="baseline BENCH_*.json")
    compare.add_argument("current", help="current BENCH_*.json")
    compare.add_argument(
        "--threshold", default="15%", metavar="PCT",
        help="allowed throughput drop, e.g. '15%%' or '0.15' (default 15%%)",
    )

    latest = sub.add_parser(
        "latest-baseline",
        help="print the newest readable BENCH_*.json by recorded date "
             "(replaces the 'ls | sort | tail -1' shell idiom)",
    )
    latest.add_argument(
        "directory", nargs="?", default="benchmarks",
        help="directory holding BENCH_*.json artifacts (default: "
             "benchmarks)",
    )

    args = parser.parse_args(argv)

    if args.command == "latest-baseline":
        path = latest_baseline(args.directory)
        if path is None:
            print(f"perf latest-baseline: no readable BENCH_*.json in "
                  f"{args.directory!r}", file=sys.stderr)
            return 1
        print(path)
        return 0

    if args.command == "bench":
        payload = run_bench(rounds=args.rounds)
        out = args.out or default_bench_path()
        write_bench(out, payload)
        print(f"wrote {out}")
        for name, cfg in sorted(payload["configs"].items()):
            print(
                f"  {name}: {cfg['cycles_per_sec']:,.0f} cycles/s, "
                f"{cfg['instrs_per_sec']:,.0f} instrs/s "
                f"({cfg['seconds'] * 1000:.1f} ms best of "
                f"{payload['rounds']})"
            )
        return 0

    try:
        limit = parse_threshold(args.threshold)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        baseline, _ = read_bench(args.baseline)
        current, _ = read_bench(args.current)
    except ArtifactError as exc:
        print(f"perf compare: unreadable bench artifact: {exc}",
              file=sys.stderr)
        return 1
    result = compare_payloads(baseline, current, threshold=limit)
    for line in result.lines:
        print(line)
    print(result.summary())
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
