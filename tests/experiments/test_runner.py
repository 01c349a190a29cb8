"""Experiment runner tests."""

import dataclasses

import pytest

from repro.core.machine import Machine
from repro.experiments import (
    SweepJournal,
    cell_key,
    figure1,
    figure8,
    figure10,
    figure11,
)
from repro.experiments import runner
from repro.experiments.runner import (
    CellError,
    FIGURE10_SCHEMES,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    SCHEMES,
    RunSpec,
    TraceCache,
    run_matrix,
    run_one,
    speedups_over_base,
    width_config,
)

_SPEC = RunSpec(length=400, warmup=800, seed=2)


class TestRegistry:
    def test_scheme_names_match_figure10_legend(self):
        assert set(FIGURE10_SCHEMES) | {"base"} == set(SCHEMES)

    def test_benchmark_lists(self):
        assert len(INT_BENCHMARKS) == 13
        assert len(FP_BENCHMARKS) == 14

    def test_width_config(self):
        assert width_config(4).width == 4
        assert width_config(8).scheduler_entries == 512
        with pytest.raises(ValueError):
            width_config(6)

    def test_scheme_transformers(self):
        base = width_config(4)
        assert SCHEMES["PRI-refcount+ckptcount"](base).pri.enabled
        assert SCHEMES["ER"](base).early_release
        assert not SCHEMES["ER"](base).pri.enabled
        both = SCHEMES["PRI+ER"](base)
        assert both.pri.enabled and both.early_release
        assert SCHEMES["inf"](base).int_phys_regs >= 1024


class TestRunning:
    def test_run_one(self):
        stats = run_one("gzip", "base", 4, _SPEC, TraceCache())
        assert stats.committed == 400
        assert stats.ipc > 0

    def test_trace_cache_reuses(self):
        cache = TraceCache()
        a = cache.get("gzip", _SPEC)
        b = cache.get("gzip", _SPEC)
        assert a is b
        c = cache.get("gzip", RunSpec(length=401, warmup=800, seed=2))
        assert c is not a

    def test_matrix_and_speedups(self):
        cache = TraceCache()
        matrix = run_matrix(["gzip"], ["base", "inf"], 4, _SPEC, cache)
        assert set(matrix) == {"gzip"}
        speedups = speedups_over_base(matrix)
        assert "inf" in speedups["gzip"]
        assert speedups["gzip"]["inf"] > 0.9


@pytest.fixture
def machine_runs(monkeypatch):
    """Counts in-process ``Machine.run`` calls."""
    calls = []
    original = Machine.run

    def counting_run(machine, trace, *args, **kwargs):
        calls.append(trace.name)
        return original(machine, trace, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counting_run)
    return calls


class TestCellMemo:
    """A ``TraceCache`` shared by the drivers of one run simulates each
    cell once."""

    def test_shared_cache_simulates_each_cell_once(self, machine_runs):
        drivers = (figure1, figure8, figure10, figure11)
        kwargs = dict(widths=(4,), benchmarks=("gzip",))
        shared = TraceCache()
        texts = [f(_SPEC, traces=shared, **kwargs).render() for f in drivers]
        # base, ER, four PRI variants, PRI+ER and inf.
        assert len(machine_runs) == 8
        fresh = [f(_SPEC, traces=TraceCache(), **kwargs).render()
                 for f in drivers]
        assert len(machine_runs) == 8 + 1 + 3 + 8 + 4
        assert texts == fresh

    def test_same_cell_is_a_hit(self, machine_runs):
        cache = TraceCache()
        first = run_matrix(["gzip"], ["base"], 4, _SPEC, cache)
        second = run_matrix(["gzip"], ["base"], 4, _SPEC, cache)
        assert len(machine_runs) == 1
        assert second["gzip"]["base"] is first["gzip"]["base"]

    @pytest.mark.parametrize("change", [
        {"audit": True},
        {"max_cycles": 10 ** 6},
        {"seed": 3},
        {"length": 401},
        {"width": 8},
    ], ids=lambda change: next(iter(change)))
    def test_cell_differing_in_one_knob_is_a_miss(self, machine_runs, change):
        cache = TraceCache()
        run_matrix(["gzip"], ["base"], 4, _SPEC, cache)
        width = change.get("width", 4)
        spec = dataclasses.replace(
            _SPEC, **{k: v for k, v in change.items() if k != "width"})
        assert cell_key("gzip", "base", width, spec) != cell_key(
            "gzip", "base", 4, _SPEC)
        run_matrix(["gzip"], ["base"], width, spec, cache)
        assert len(machine_runs) == 2

    def test_failed_cell_is_not_memoized(self, machine_runs):
        cache = TraceCache()
        spec = dataclasses.replace(_SPEC, max_cycles=50)
        for attempt in (1, 2):
            matrix = run_matrix(["gzip"], ["base"], 4, spec, cache,
                                on_error="record")
            assert isinstance(matrix["gzip"]["base"], CellError)
            assert len(machine_runs) == attempt

    def test_no_cache_means_a_fresh_one_per_call(self, machine_runs):
        run_matrix(["gzip"], ["base"], 4, _SPEC)
        run_matrix(["gzip"], ["base"], 4, _SPEC)
        assert len(machine_runs) == 2

    def test_cell_fn_bypasses_the_memo(self):
        calls = []

        def cell_fn(benchmark, scheme, width, spec, traces=None):
            calls.append(scheme)
            return run_one(benchmark, scheme, width, spec, traces)

        cache = TraceCache()
        run_matrix(["gzip"], ["base"], 4, _SPEC, cache)
        run_matrix(["gzip"], ["base"], 4, _SPEC, cache, cell_fn=cell_fn)
        assert calls == ["base"]

    def test_warm_cache_forks_no_worker(self, monkeypatch):
        cache = TraceCache()
        schemes = ["base", "ER"]
        cold = run_matrix(["gzip"], schemes, 4, _SPEC, cache, jobs=2)

        def no_fork():
            raise AssertionError("a warm cache forked a worker")

        monkeypatch.setattr(runner, "_mp_context", no_fork)
        warm = run_matrix(["gzip"], schemes, 4, _SPEC, cache, jobs=2)
        assert {s: warm["gzip"][s].to_dict() for s in schemes} == {
            s: cold["gzip"][s].to_dict() for s in schemes}

    def test_memo_hit_is_written_to_the_journal(self, tmp_path, machine_runs):
        cache = TraceCache()
        run_matrix(["gzip"], ["base"], 4, _SPEC, cache)
        path = str(tmp_path / "sweep.json")
        run_matrix(["gzip"], ["base"], 4, _SPEC, cache, journal=path)
        assert len(machine_runs) == 1
        key = cell_key("gzip", "base", 4, _SPEC)
        assert SweepJournal(path).get(key) is not None

    def test_journal_restore_fills_the_memo(self, tmp_path, machine_runs):
        path = str(tmp_path / "sweep.json")
        run_matrix(["gzip"], ["base"], 4, _SPEC, journal=path)
        cache = TraceCache()
        run_matrix(["gzip"], ["base"], 4, _SPEC, cache, journal=path)
        run_matrix(["gzip"], ["base"], 4, _SPEC, cache)
        assert len(machine_runs) == 1
