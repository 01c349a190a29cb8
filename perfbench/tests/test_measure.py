"""The benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
import os

import pytest

import run
from measure import (
    cells_digest,
    check_pins,
    digest,
    failed_frac,
    median_by_part,
    min_samples,
    percentile,
    rounds_for,
    scale,
    self_time_by_name,
    self_times,
    unique_ratio,
)


# ---------------------------------------------------------- percentiles

def test_p99_needs_a_thousand_samples():
    assert min_samples(99) == 1000
    assert min_samples(90) == 100


def test_percentile_refuses_a_tail_shorter_than_ten():
    with pytest.raises(ValueError, match="1000 samples"):
        percentile(list(range(999)), 99)


def test_percentile_is_nearest_rank_with_ten_beyond():
    values = list(range(1, 1001))  # 1..1000
    p99 = percentile(values, 99)
    assert p99 == 990
    assert sum(1 for v in values if v > p99) == 10


def test_median_needs_one_sample():
    assert percentile([7.0], 50) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_percentile_of_pooled_passes_keeps_a_tail_no_pass_could_give():
    # Four passes of 250 jobs: no pass alone supports a p99, the pool
    # of 1,000 does, and a tail that only one pass met is kept.
    passes = [[1.0] * 250 for _ in range(4)]
    passes[2][:11] = [50.0] * 11
    for values in passes:
        with pytest.raises(ValueError, match="1000 samples"):
            percentile(values, 99)
    assert percentile([v for values in passes for v in values], 99) == 50.0


# ------------------------------------------------------- host speed

def test_scale_takes_the_mean_of_the_two_slices_around_the_work():
    # Slices of 0.2 s and 0.3 s on a host whose nominal slice is 0.1 s:
    # the host ran at 0.4 of nominal speed during the work.
    assert scale(0.2, 0.3, 0.1) == pytest.approx(0.4)
    assert 5.0 * scale(0.1, 0.1, 0.1) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        scale(0.0, 0.1, 0.1)


def test_a_slow_phase_scales_out_of_the_round():
    # The same work timed in a fast and in a twice-as-slow phase, each
    # between slices that saw the same slowdown, reads the same.
    fast = 1.5 * scale(0.1, 0.1, 0.1)
    slow = 3.0 * scale(0.2, 0.2, 0.1)
    assert fast == pytest.approx(slow)


def test_median_by_part():
    timed = [("gzip", 3.0), ("mcf", 10.0), ("gzip", 1.0), ("mcf", 12.0),
             ("gzip", 2.0)]
    assert median_by_part(timed) == {"gzip": 2.0, "mcf": 11.0}


def test_round_count_depends_only_on_seconds():
    assert rounds_for(20, 6.5) == 3
    assert rounds_for(20, 3.3) == 6
    assert rounds_for(1, 6.5) == 1
    with pytest.raises(ValueError):
        rounds_for(0, 6.5)


# ------------------------------------------------------------ self time

def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        (1, None, "driver", 0.0, 10.0),
        (2, 1, "cell", 1.0, 3.0),
        (3, 1, "cell", 2.0, 5.0),     # overlaps the first child
        (4, 1, "cell", 8.0, 12.0),    # runs past the parent: clipped
        (5, 2, "stage", 1.5, 2.5),    # grandchild: only its parent's
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[5] == pytest.approx(1.0)
    by_name = self_time_by_name(spans)
    assert by_name["cell"] == pytest.approx(1.0 + 3.0 + 4.0)


def test_consecutive_stage_spans_add_up_to_the_loop():
    # How the tracer lays out per-loop stage totals.
    loop = (1, None, "core.loop", 0.0, 1.0)
    stages = [(2, 1, "a", 0.0, 0.25), (3, 1, "b", 0.25, 0.75)]
    assert self_times([loop] + stages)[1] == pytest.approx(0.25)


# ---------------------------------------------------------------- ratios

def test_unique_ratio():
    assert unique_ratio(64, 32) == 0.5
    assert unique_ratio(28, 28) == 1.0
    with pytest.raises(ValueError):
        unique_ratio(0, 0)
    with pytest.raises(ValueError):
        unique_ratio(4, 5)


def test_wrong_digest_fails_every_op():
    stats = {"cycles": 100, "committed": 60}
    pinned = {"cells": cells_digest({"gzip|base": stats}),
              "text": digest(["figure"])}
    good = dict(pinned)
    assert check_pins(good, pinned) == []
    wrong = {"cells": cells_digest({"gzip|base": {**stats, "cycles": 101}}),
             "text": digest(["figure"])}
    mismatches = check_pins(wrong, pinned)
    assert len(mismatches) == 1 and mismatches[0].startswith("cells")
    ops = [64, 64]
    failed = run.count_failed(ops, [0, 0], mismatches)
    assert failed_frac(sum(ops), failed) == 1.0
    assert failed_frac(sum(ops), run.count_failed(ops, [0, 0], [])) == 0.0


def test_unpinned_keys_are_not_checked():
    assert check_pins({"text": "x"}, None) == []
    assert check_pins({"text": "x"}, {"cells": "y"}) == []


# ------------------------------------------------------ BENCHMARK.json

def test_benchmark_json_names_what_run_reports():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["end_to_end"]] == [
        name for name, _ in run.END_TO_END]
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    units = dict(run.END_TO_END)
    for metric in bench["end_to_end"]:
        assert metric["unit"] == units[metric["name"]]
    for metric in bench["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])
