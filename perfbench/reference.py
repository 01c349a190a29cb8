"""A fixed slice of reference work that gauges the host's speed.

The development and benchmark hosts are shared, and their speed
drifts: the same Figure 9 pass takes anywhere from 0.8 to 1.7 s within
minutes, in phases from tens of milliseconds to about a minute long,
with the process on the CPU all the time (the host runs the same
instructions slower).  No choice of passes inside a run removes a phase
that covers the run.  So every timed piece of work is bracketed by two
slices of this reference work, and its time is scaled by how slow the
host ran the slices around it (:func:`measure.scale`).

A slice walks a linked list of 400,000 small objects laid out in a
shuffled order and counts into a dict: interpreter work over a working
set of about 25 MB, which the simulator's own speed follows more
closely than it follows a loop over a few kilobytes.  It imports
nothing from ``repro`` and must never change: a faster simulator makes
the passes faster and leaves the slices alone, which is what lets the
scaled times show the gain.

The slices run in a helper process (``python3 reference.py``), so the
list does not count toward the benchmark's own peak RSS.  The helper
reads one CPU number per line, runs a slice on that CPU, and answers
with the slice's host seconds.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

#: Seconds one slice takes on the nominal host.  Scaled times read as
#: host seconds on a host that runs a slice in exactly this long.
NOMINAL_SLICE_S = 0.15

#: Records in the list, and steps one slice walks.
RECORDS = 400_000
STEPS = 250_000


class _Record:
    __slots__ = ("key", "value", "next")


def build(records: int = RECORDS, seed: int = 1) -> _Record:
    """The list, linked in a shuffled order so that consecutive steps
    land far apart in memory; returns its head."""
    nodes = [_Record() for _ in range(records)]
    order = list(range(records))
    random.Random(seed).shuffle(order)
    for index, node in enumerate(nodes):
        node.key = index
        node.value = index * 7
        node.next = None
    for here, there in zip(order, order[1:]):
        nodes[here].next = nodes[there]
    return nodes[order[0]]


def walk(head: _Record, steps: int = STEPS) -> float:
    """One slice: host seconds to walk ``steps`` records from ``head``."""
    start = time.perf_counter()
    node = head
    total = 0
    counts: dict = {}
    for _ in range(steps):
        total += node.key ^ node.value
        bucket = node.key & 4095
        counts[bucket] = counts.get(bucket, 0) + 1
        node = node.next or head
    return time.perf_counter() - start


def current_cpu() -> int:
    """The CPU this process last ran on (Linux), else -1."""
    try:
        with open("/proc/self/stat") as handle:
            return int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return -1


class Helper:
    """The helper process, started and stopped by the benchmark."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("reference helper did not start")

    def slice_seconds(self) -> float:
        """One slice on the CPU this process last ran on."""
        self.proc.stdin.write(f"{current_cpu()}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("reference helper exited")
        return float(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    head = build()
    walk(head, RECORDS)  # touch every record once
    print("ready", flush=True)
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
        else set()
    for line in sys.stdin:
        cpu = int(line)
        if cpu in allowed:
            os.sched_setaffinity(0, {cpu})
        print(repr(walk(head)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
