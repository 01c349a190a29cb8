"""CLI entry point tests (python -m repro.experiments)."""

import pytest

from repro.experiments.__main__ import main


def test_requires_a_target(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_table_1(capsys):
    assert main(["--table", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "4-wide" in out and "8-wide" in out


def test_single_figure_tiny(capsys):
    code = main(["--figure", "1", "--length", "120", "--warmup", "300",
                 "--width", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "last-read->release" in out
    assert "width 8" not in out  # restricted to one width


def test_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["--figure", "3"])  # Figure 3 is a structural diagram


def test_figure_with_oracle_and_checkpoints(tmp_path, capsys):
    import os

    code = main(["--figure", "1", "--length", "120", "--warmup", "300",
                 "--width", "4", "--oracle",
                 "--checkpoint-every", "500",
                 "--checkpoint-dir", str(tmp_path)])
    assert code == 0
    assert "Figure 1" in capsys.readouterr().out
    assert not os.listdir(str(tmp_path)), "completed cells left checkpoints"


def test_incompatible_journal_is_reported(tmp_path, capsys):
    import json

    path = str(tmp_path / "sweep.json")
    with open(path, "w") as fh:
        json.dump({"version": 1, "cells": {}}, fh)
    code = main(["--figure", "1", "--length", "120", "--warmup", "300",
                 "--width", "4", "--journal", path])
    assert code == 1
    err = capsys.readouterr().err
    assert "version" in err


_TINY = ["--width", "4", "--length", "300", "--warmup", "600"]


def _without_timings(text):
    return [line for line in text.splitlines()
            if not (line.startswith("[table ") or line.startswith("[figure "))]


def test_one_invocation_matches_one_per_target(capsys):
    targets = [["--table", "2"], ["--figure", "1"], ["--figure", "8"],
               ["--figure", "10"], ["--figure", "11"]]
    assert main([arg for target in targets for arg in target] + _TINY) == 0
    together = capsys.readouterr().out
    apart = ""
    for target in targets:
        assert main(target + _TINY) == 0
        apart += capsys.readouterr().out
    assert _without_timings(together) == _without_timings(apart)


def test_table_2_cells_are_journaled(tmp_path, capsys):
    from repro.experiments import (
        FP_BENCHMARKS,
        INT_BENCHMARKS,
        RunSpec,
        SweepJournal,
        cell_key,
    )

    path = str(tmp_path / "sweep.json")
    assert main(["--table", "2", "--journal", path] + _TINY) == 0
    assert "Table 2" in capsys.readouterr().out
    journal = SweepJournal(path)
    spec = RunSpec(length=300, warmup=600)
    benchmarks = INT_BENCHMARKS + FP_BENCHMARKS
    assert len(benchmarks) == 27
    for benchmark in benchmarks:
        assert journal.get(cell_key(benchmark, "base", 4, spec)) is not None
