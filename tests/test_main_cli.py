"""Top-level CLI tests (python -m repro)."""

import pytest

from repro.__main__ import main
from repro.isa.registers import NUM_INT_ARCH_REGS


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "gzip" in out and "ammp" in out


def test_requires_benchmark():
    with pytest.raises(SystemExit):
        main([])


def test_basic_run(capsys):
    code = main(["gzip", "--length", "300", "--warmup", "600"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ipc=" in out
    assert "register lifetime" in out


def test_pri_run_reports_inlining(capsys):
    code = main(["gzip", "--scheme", "PRI-refcount+ckptcount",
                 "--length", "400", "--warmup", "800"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PRI:" in out and "inlined" in out


def test_regs_override(capsys):
    code = main(["gzip", "--length", "200", "--warmup", "400",
                 "--regs", "96"])
    assert code == 0
    assert "96 INT" in capsys.readouterr().out
    # The smallest PRF that holds the architected state still runs.
    code = main(["gzip", "--length", "200", "--warmup", "400",
                 "--regs", str(NUM_INT_ARCH_REGS)])
    assert code == 0
    assert f"{NUM_INT_ARCH_REGS} INT" in capsys.readouterr().out


def test_regs_sweep_prints_one_row_per_size(capsys):
    args = ["gzip", "--length", "200", "--warmup", "400"]
    assert main(args + ["--regs", "64,96,128"]) == 0
    out = capsys.readouterr().out
    rows = {}
    for line in out.splitlines():
        fields = line.split()
        if fields and fields[0] in ("64", "96", "128"):
            rows[fields[0]] = fields[1:]
    assert sorted(rows) == ["128", "64", "96"]
    # Each row is exactly what the single-size run reports.
    assert main(args + ["--regs", "96"]) == 0
    cycles, ipc, committed = rows["96"]
    assert (f"cycles={cycles} committed={committed} ipc={ipc}"
            in capsys.readouterr().out)


@pytest.mark.parametrize("regs", ["64,notanint",
                                  str(NUM_INT_ARCH_REGS - 1),
                                  f"64,{NUM_INT_ARCH_REGS - 1}"])
def test_bad_regs_rejected(regs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gzip", "--regs", regs])
    assert exc.value.code == 2
    assert "--regs" in capsys.readouterr().err


def test_unknown_scheme_rejected():
    with pytest.raises(SystemExit):
        main(["gzip", "--scheme", "magic"])


def test_oracle_run_reports_oracle_stats(capsys):
    code = main(["gzip", "--length", "300", "--warmup", "600", "--oracle"])
    assert code == 0
    out = capsys.readouterr().out
    assert "oracle:" in out and "all clean" in out
    assert "300 commits compared" in out


def test_no_oracle_is_default(capsys):
    code = main(["gzip", "--length", "300", "--warmup", "600",
                 "--no-oracle"])
    assert code == 0
    assert "oracle:" not in capsys.readouterr().out


def test_checkpointed_run(tmp_path, capsys):
    import os

    args = ["gzip", "--length", "300", "--warmup", "600",
            "--checkpoint-every", "200", "--checkpoint-dir", str(tmp_path)]
    assert main(args) == 0
    checkpointed = capsys.readouterr().out
    assert "ipc=" in checkpointed
    assert not os.listdir(str(tmp_path)), "completed run left a checkpoint"
    # identical to the plain run: checkpointing must not perturb results
    assert main(["gzip", "--length", "300", "--warmup", "600"]) == 0
    plain = capsys.readouterr().out
    line = next(l for l in checkpointed.splitlines() if "ipc=" in l)
    assert line in plain
