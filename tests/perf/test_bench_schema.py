"""Bench artifact schema: envelope round-trip, compare gating, and
corruption detection through the store's inject registry."""

import os

import pytest

from repro.perf import (
    BENCH_KIND,
    BENCH_SCHEMA,
    compare_payloads,
    parse_threshold,
    read_bench,
    run_bench,
    write_bench,
)
from repro.perf.__main__ import main as perf_main
from repro.store import CORRUPTIONS, ArtifactError, corrupt

#: A tiny workload so bench runs are test-speed.
TINY_TRACE = {"benchmark": "gzip", "length": 120, "seed": 3, "warmup": 60}


def _payload(**overrides):
    """A synthetic schema-1 payload (no simulation needed)."""
    base = {
        "schema": BENCH_SCHEMA,
        "created": "2026-08-06",
        "python": "3.11.7",
        "platform": "test",
        "git_sha": "deadbeef",
        "peak_rss_kb": 100000,
        "rounds": 3,
        "trace": dict(TINY_TRACE),
        "configs": {
            "base": {
                "seconds": 0.050, "cycles": 4000, "instrs": 2000,
                "cycles_per_sec": 80000.0, "instrs_per_sec": 40000.0,
            },
            "pri": {
                "seconds": 0.060, "cycles": 3900, "instrs": 2000,
                "cycles_per_sec": 65000.0, "instrs_per_sec": 33333.0,
            },
        },
    }
    base.update(overrides)
    return base


def _scaled(payload, factor, configs=None):
    """Copy with every config's throughput multiplied by ``factor``."""
    out = _payload()
    out["configs"] = {}
    for name, cfg in payload["configs"].items():
        if configs is not None and name not in configs:
            continue
        cfg = dict(cfg)
        cfg["cycles_per_sec"] *= factor
        cfg["instrs_per_sec"] *= factor
        out["configs"][name] = cfg
    return out


class TestRoundTrip:
    def test_run_bench_payload_round_trips(self, tmp_path):
        payload = run_bench(rounds=1, trace_spec=TINY_TRACE)
        path = str(tmp_path / "BENCH_test.json")
        write_bench(path, payload)
        loaded, meta = read_bench(path)
        assert loaded == payload
        assert meta.kind == BENCH_KIND
        assert meta.schema == BENCH_SCHEMA
        assert not meta.legacy

    def test_payload_fields(self):
        payload = run_bench(rounds=1, trace_spec=TINY_TRACE)
        assert payload["schema"] == BENCH_SCHEMA
        assert set(payload["configs"]) == {"base", "pri"}
        for cfg in payload["configs"].values():
            assert cfg["instrs"] == TINY_TRACE["length"]
            assert cfg["cycles_per_sec"] > 0
            assert cfg["instrs_per_sec"] > 0
        assert payload["python"].count(".") == 2
        assert payload["trace"] == TINY_TRACE

    def test_plain_json_rejected(self, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text('{"configs": {}}')
        with pytest.raises(ArtifactError):
            read_bench(str(path))


class TestCompare:
    def test_improvement_passes(self):
        base = _payload()
        result = compare_payloads(base, _scaled(base, 1.5), threshold=0.15)
        assert result.ok

    def test_small_drop_passes(self):
        base = _payload()
        result = compare_payloads(base, _scaled(base, 0.90), threshold=0.15)
        assert result.ok

    def test_exact_threshold_drop_passes(self):
        base = _payload()
        result = compare_payloads(base, _scaled(base, 0.85), threshold=0.15)
        assert result.ok, result.lines

    def test_beyond_threshold_fails(self):
        base = _payload()
        result = compare_payloads(base, _scaled(base, 0.80), threshold=0.15)
        assert not result.ok
        assert set(result.failures) == {"base", "pri"}

    def test_single_config_regression_fails(self):
        base = _payload()
        cur = _scaled(base, 1.0)
        cur["configs"]["pri"]["cycles_per_sec"] *= 0.5
        result = compare_payloads(base, cur, threshold=0.15)
        assert result.failures == ["pri"]

    def test_missing_config_fails(self):
        base = _payload()
        result = compare_payloads(
            base, _scaled(base, 1.0, configs={"base"}), threshold=0.15
        )
        assert result.failures == ["pri"]

    def test_new_config_is_informational(self):
        base = _scaled(_payload(), 1.0, configs={"base"})
        result = compare_payloads(base, _payload(), threshold=0.15)
        assert result.ok

    def test_different_trace_not_comparable(self):
        base = _payload()
        cur = _payload(trace=dict(TINY_TRACE, length=999))
        result = compare_payloads(base, cur, threshold=0.15)
        assert not result.ok

    def test_parse_threshold(self):
        assert parse_threshold("15%") == pytest.approx(0.15)
        assert parse_threshold("0.15") == pytest.approx(0.15)
        assert parse_threshold(" 7.5% ") == pytest.approx(0.075)
        with pytest.raises(ValueError):
            parse_threshold("150%")
        with pytest.raises(ValueError):
            parse_threshold("-1%")


class TestCLI:
    def test_compare_exit_codes(self, tmp_path, capsys):
        base_path = str(tmp_path / "base.json")
        good_path = str(tmp_path / "good.json")
        bad_path = str(tmp_path / "bad.json")
        base = _payload()
        write_bench(base_path, base)
        write_bench(good_path, _scaled(base, 1.1))
        write_bench(bad_path, _scaled(base, 0.5))
        assert perf_main(["compare", base_path, good_path]) == 0
        assert perf_main(["compare", base_path, bad_path,
                          "--threshold", "15%"]) == 1
        # A generous threshold lets the same drop through.
        assert perf_main(["compare", base_path, bad_path,
                          "--threshold", "0.99"]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_compare_unreadable_artifact_fails(self, tmp_path, capsys):
        base_path = str(tmp_path / "base.json")
        write_bench(base_path, _payload())
        missing = str(tmp_path / "nope.json")
        with pytest.raises(FileNotFoundError):
            perf_main(["compare", base_path, missing])


class TestCommittedBaselines:
    """``compare`` keeps reading the committed baselines: schema 1, and
    schema 2 whose per-config ``vector`` entries it ignores."""

    DIRECTORY = os.path.join(os.path.dirname(__file__), "..", "..",
                             "benchmarks")

    @pytest.fixture(scope="class")
    def fresh(self):
        # The committed baselines' own trace, so the two are comparable.
        return run_bench(rounds=1)

    @pytest.mark.parametrize("name", ["BENCH_2026-08-06.json",
                                      "BENCH_2026-08-08.json"])
    def test_fresh_artifact_compares(self, tmp_path, capsys, fresh, name):
        baseline_path = os.path.join(self.DIRECTORY, name)
        baseline, _ = read_bench(baseline_path)
        assert "vector" not in fresh["configs"]["base"]
        # The host's speed is not under test: only a total collapse fails.
        result = compare_payloads(baseline, fresh, threshold=0.99)
        assert result.ok, result.lines
        assert len(result.lines) == len(baseline["configs"])
        assert not any("vector" in line for line in result.lines)
        current = str(tmp_path / "current.json")
        write_bench(current, fresh)
        assert perf_main(["compare", baseline_path, current,
                          "--threshold", "0.99"]) == 0
        assert "perf compare: ok" in capsys.readouterr().out


class TestCorruption:
    """Every registered on-disk corruption must surface as a typed
    ArtifactError from read_bench, never as silently wrong numbers."""

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_detected(self, tmp_path, name):
        path = str(tmp_path / "BENCH_x.json")
        write_bench(path, _payload())
        if name == "tmp-leftover":
            pytest.skip("writer-leftover corruption targets a sibling file")
        try:
            corrupt(path, name)
        except ValueError:
            pytest.skip(f"{name} not applicable to this file size")
        with pytest.raises(ArtifactError):
            read_bench(path)
