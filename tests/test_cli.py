"""Exit codes and file plumbing for the command-line interface."""

from __future__ import annotations

import csv
import json
import subprocess
import sys

import pytest

from ddakit.cli import main
from ddakit.reference import load_reference
from ddakit.sim.config import arena
from ddakit.sim.trace import EpisodeTrace


@pytest.fixture()
def cfg_path(tmp_path):
    cfg = arena().replacing(waves=2, wave_interval=60, window_len=120, max_ticks=20_000)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


def test_run_writes_a_trace(cfg_path, tmp_path, capsys):
    out = tmp_path / "episode.jsonl"
    code = main(
        ["run", "--config", cfg_path, "--bot", "medium", "--seed", "3",
         "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("run config=")
    trace = EpisodeTrace.load(out)
    assert trace.records_of_type("outcome")


def test_calibrate_run_report_pipeline(cfg_path, tmp_path, capsys):
    ref = tmp_path / "ref.json"
    trace = tmp_path / "run.jsonl"
    table = tmp_path / "rows.csv"

    assert main(
        ["calibrate", "--config", cfg_path, "--bot", "medium", "--runs", "3",
         "--seed", "7", "--out", str(ref)]
    ) == 0
    assert len(load_reference(ref).curves) == 5

    assert main(
        ["run", "--config", cfg_path, "--bot", "medium", "--model", "metrics",
         "--ref", str(ref), "--seed", "5", "--out", str(trace)]
    ) == 0
    loaded = EpisodeTrace.load(trace)
    assert loaded.records_of_type("assessment")

    assert main(["report", "--trace", str(trace), "--out", str(table)]) == 0
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(loaded.records_of_type("window"))
    assert "global_difficulty" in rows[0]

    out = capsys.readouterr().out
    assert "calibrated 5 variables" in out
    assert "windows" in out


def test_scripting_flags_reach_the_engine(cfg_path, tmp_path):
    ref = tmp_path / "ref.json"
    main(["calibrate", "--config", cfg_path, "--bot", "medium", "--runs", "2",
          "--seed", "1", "--out", str(ref)])
    out = tmp_path / "ds.jsonl"
    code = main(
        ["run", "--config", cfg_path, "--bot", "medium", "--model", "dscript",
         "--ref", str(ref), "--fitness", "maximize", "--regime", "topculling",
         "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    weights = EpisodeTrace.load(out).records_of_type("weights")
    assert len(weights) == 2  # one update per wave


def test_experiment_subcommand(cfg_path, tmp_path, capsys):
    spec = tmp_path / "exp.json"
    spec.write_text(json.dumps(
        {"config": cfg_path, "bots": ["medium"], "models": ["off"], "seeds": [1, 2]}
    ))
    out_dir = tmp_path / "grid"
    assert main(["experiment", "--spec", str(spec), "--out", str(out_dir)]) == 0
    assert (out_dir / "runs.csv").exists()
    assert (out_dir / "summary.csv").exists()
    assert "medium/off: runs=2" in capsys.readouterr().out


def test_config_problems_exit_two(cfg_path, tmp_path, capsys):
    assert main(
        ["run", "--config", str(tmp_path / "ghost.json"), "--bot", "medium"]
    ) == 2
    # A model without a reference is a usage problem, not a crash.
    assert main(
        ["run", "--config", cfg_path, "--bot", "medium", "--model", "metrics"]
    ) == 2
    err = capsys.readouterr().err
    assert "needs a reference file" in err


def test_reference_from_another_window_exits_two(cfg_path, tmp_path, capsys):
    ref = tmp_path / "ref.json"
    assert main(
        ["calibrate", "--config", cfg_path, "--bot", "medium", "--runs", "2",
         "--out", str(ref)]
    ) == 0
    code = main(
        ["run", "--config", cfg_path, "--bot", "medium", "--model", "metrics",
         "--ref", str(ref), "--window", "100"]
    )
    assert code == 2
    assert "reference window_len 120" in capsys.readouterr().err


def test_runtime_failures_exit_one(cfg_path, tmp_path, capsys):
    code = main(
        ["calibrate", "--config", cfg_path, "--bot", "medium", "--runs", "0",
         "--out", str(tmp_path / "ref.json")]
    )
    assert code == 1
    assert "n_runs" in capsys.readouterr().err


def test_argparse_usage_errors_exit_two(cfg_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["run"])  # missing required --config/--bot
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--config", cfg_path, "--bot", "medium", "--model", "magic"])
    assert excinfo.value.code == 2


def test_module_entry_point(cfg_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ddakit.cli", "run", "--config", cfg_path,
         "--bot", "medium", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("run config=")
