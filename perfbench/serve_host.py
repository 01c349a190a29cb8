"""Run ``python -m repro.serve`` with the store I/O observer installed
and trace generation counted.

    python3 perfbench/serve_host.py COUNTS.json serve STATE --port 0

The counts (``store.<op>``, ``workloads.traces``, ``workloads.gen_s``)
are written to COUNTS.json on SIGUSR1 (so the benchmark can take a
baseline after set-up) and when the server exits.  Used only by the
traced serve-mix run; the untraced run starts the service module
directly.
"""

import json
import os
import signal
import sys
import time
from collections import Counter


def main() -> int:
    import repro.workloads
    from repro.serve.__main__ import main as serve_main
    from repro.store import add_io_observer

    path = sys.argv[1]
    counts: Counter = Counter()
    add_io_observer(lambda event: counts.update(("store." + event["op"],)))
    # The server's trace cache imports generate_trace from the package
    # at call time, so replacing the package attribute reaches it.
    generate = repro.workloads.generate_trace

    def counted_generate(*args, **kwargs):
        start = time.perf_counter()
        try:
            return generate(*args, **kwargs)
        finally:
            counts["workloads.traces"] += 1
            counts["workloads.gen_s"] += time.perf_counter() - start

    repro.workloads.generate_trace = counted_generate

    def dump(*_) -> None:
        with open(path + ".tmp", "w") as handle:
            json.dump(counts, handle)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, dump)
    try:
        return serve_main(sys.argv[2:])
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main())
