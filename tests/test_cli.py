"""One smoke test per CLI subcommand under the default config, read
from an INI file where the subcommand takes one."""

import csv
import hashlib

import pytest

from thetanav import cli
from thetanav.cli import main
from thetanav.config import RunConfig, save_config
from thetanav.harness import SeedOutcome, SweepResult

# SHA-256 of the seed-0 calibrate fit report, as its own writer wrote it
# before every table went through harness.write_csv.
FIT_REPORT_SHA256 = \
    "44f503caac6c74e45f6e1f830205745ce83d152cd53b1a216ccc04e524237eda"


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    """Run in ``tmp_path``, which holds the default config as run.ini."""
    monkeypatch.chdir(tmp_path)
    save_config(RunConfig(), tmp_path / "run.ini")


def test_calibrate(tmp_path, capsys):
    assert main(["calibrate", "--config", "run.ini", "--out", "fits.csv"]) == 0
    assert len((tmp_path / "fits.csv").read_text().splitlines()) == 129
    digest = hashlib.sha256((tmp_path / "fits.csv").read_bytes())
    assert digest.hexdigest() == FIT_REPORT_SHA256
    assert "wrote 128 unit fits" in capsys.readouterr().out


def test_compile_with_config_file(tmp_path, capsys):
    assert main(["compile", "--config", "run.ini",
                 "--target", "0.0024,0", "--out", "mux.txt"]) == 0
    assert (tmp_path / "mux.txt").read_text().startswith("muxtable-v1\n")
    assert "dropped groups" in capsys.readouterr().out


def test_track(tmp_path, capsys):
    assert main(["track", "--config", "run.ini", "--script", "path1_meander",
                 "--out", "run"]) == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "grids.csv", "manifest.ini", "runs.csv", "trail.csv",
        "warnings.txt"]
    assert "final location (0, -3) after 5 events" in capsys.readouterr().out


def test_field_map(tmp_path, capsys):
    assert main(["field-map", "--config", "run.ini", "--velocity", "0.25,0",
                 "--out", "map"]) == 0
    assert sorted(p.name for p in (tmp_path / "map").iterdir()) == [
        "first_fire.csv", "runs.csv"]
    assert "28 failed to compile" in capsys.readouterr().out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


SWEEP_HEADER = ["seed", "ok", "final_x", "final_y", "n_events", "cause"]


def test_sweep(tmp_path, capsys):
    assert main(["sweep", "--config", "run.ini", "--script", "path3_loop",
                 "--seeds", "2", "--out", "sweep.csv"]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[1].startswith("0,1,0,0,4,")
    assert "success fraction: 1.00" in capsys.readouterr().out
    # The rows the hand-quoted writer wrote before harness.write_csv.
    assert read_csv(tmp_path / "sweep.csv") == [
        SWEEP_HEADER,
        ["0", "1", "0", "0", "4", "reached target"],
        ["1", "1", "0", "0", "4", "reached target"]]


def test_sweep_csv_quotes_a_cause_with_commas_and_quotes(tmp_path,
                                                        monkeypatch):
    cause = 'ValueError: bad "a, b" pair, twice'
    outcomes = [SeedOutcome(seed=4, ok=False, final=None, cause=cause,
                            n_events=0),
                SeedOutcome(seed=5, ok=True, final=(-1, 2),
                            cause="reached target", n_events=3)]
    monkeypatch.setattr(cli, "sweep_seeds",
                        lambda *args: SweepResult(outcomes=outcomes))
    assert main(["sweep", "--script", "path3_loop", "--seeds", "2",
                 "--out", "out/sweep.csv"]) == 0
    assert read_csv(tmp_path / "out" / "sweep.csv") == [
        SWEEP_HEADER,
        ["4", "0", "", "", "0", cause],
        ["5", "1", "-1", "2", "3", "reached target"]]


@pytest.mark.parametrize("command", [
    ["calibrate", "--out", "nodir/sub/fits.csv"],
    ["compile", "--target", "0.0024,0", "--out", "nodir/sub/mux.txt"],
    ["sweep", "--script", "path3_loop", "--seeds", "1",
     "--out", "nodir/sub/sweep.csv"],
])
def test_out_file_into_a_missing_directory(tmp_path, command):
    # Each --out file's parent is made, as track and field-map make their
    # --out directory.
    assert main(command) == 0
    assert (tmp_path / command[-1]).read_text().strip()


def test_nodes(capsys):
    assert main(["nodes", "-M", "80", "-N", "2", "-K", "4"]) == 0
    out = capsys.readouterr().out
    assert "sharable nodes: 20" in out
    assert "total nodes for 4 network(s): 180 (vs 240 unshared)" in out


@pytest.mark.parametrize("command", [
    ["track", "--out", "run"],
    ["sweep", "--seeds", "1"],
])
def test_unknown_script_exits_1(command, capsys):
    assert main(command + ["--script", "nowhere"]) == 1
    assert "unknown script 'nowhere'" in capsys.readouterr().err


def test_invalid_config_file_exits_1(tmp_path, capsys):
    (tmp_path / "run.ini").write_text("[run]\npitch = -1\n")
    assert main(["track", "--config", "run.ini", "--script", "path3_loop",
                 "--out", "run"]) == 1
    assert "pitch and speed must be positive" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_field_map_bad_lengths_exit_1(tmp_path, capsys):
    assert main(["field-map", "--velocity", "0.25,0", "--out", "map",
                 "--session-ticks", "-3"]) == 1
    assert "session_ticks must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "map").exists()


@pytest.mark.parametrize("command, message", [
    (["sweep", "--script", "path3_loop", "--seeds", "1", "--seed", "-1",
      "--out", "sweep/sweep.csv"], "seed must be >= 0"),
    (["field-map", "--velocity", "5,0", "--out", "bad"],
     "velocity (5.0, 0.0) outside the linear range [-4.0, 4.0]"),
])
def test_a_refused_value_exits_1_and_writes_nothing(tmp_path, capsys,
                                                    command, message):
    assert main(command) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / command[-1].split("/")[0]).exists()


@pytest.mark.parametrize("command, stage, message", [
    (["field-map", "--velocity", "nan,0", "--out", "map"], "field_map",
     "velocity (nan, 0.0) is not finite"),
    (["compile", "--target", "0.0024,nan", "--out", "nodir/mux.txt"],
     "build_rig", "target (0.0024, nan) is not finite"),
])
def test_a_nan_input_exits_1_before_the_run(tmp_path, monkeypatch, capsys,
                                           command, stage, message):
    calls = []
    monkeypatch.setattr(cli, stage, lambda *args, **kwargs: calls.append(args))
    assert main(command) == 1
    assert message in capsys.readouterr().err
    assert calls == []
    # Not even the --out file's parent directory is made.
    assert not (tmp_path / command[-1].split("/")[0]).exists()
