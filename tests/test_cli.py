"""One smoke test per CLI subcommand under the default config, read
from an INI file where the subcommand takes one."""

import pytest

from thetanav import cli
from thetanav.cli import main
from thetanav.config import RunConfig, save_config


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    """Run in ``tmp_path``, which holds the default config as run.ini."""
    monkeypatch.chdir(tmp_path)
    save_config(RunConfig(), tmp_path / "run.ini")


def test_calibrate(tmp_path, capsys):
    assert main(["calibrate", "--config", "run.ini", "--out", "fits.csv"]) == 0
    assert len((tmp_path / "fits.csv").read_text().splitlines()) == 129
    assert "wrote 128 unit fits" in capsys.readouterr().out


def test_compile_with_config_file(tmp_path, capsys):
    assert main(["compile", "--config", "run.ini",
                 "--target", "0.0024,0", "--out", "mux.txt"]) == 0
    assert (tmp_path / "mux.txt").read_text().startswith("muxtable-v1\n")
    assert "dropped groups" in capsys.readouterr().out


def test_track(tmp_path, capsys):
    assert main(["track", "--config", "run.ini", "--script", "path1_meander",
                 "--out", "run"]) == 0
    assert (tmp_path / "run" / "manifest.ini").is_file()
    assert "final location (0, -3) after 5 events" in capsys.readouterr().out


def test_field_map(tmp_path, capsys):
    assert main(["field-map", "--config", "run.ini", "--velocity", "0.25,0",
                 "--stride", "1024", "--out", "map"]) == 0
    assert (tmp_path / "map" / "first_fire.csv").is_file()
    assert "28 failed to compile" in capsys.readouterr().out


def test_sweep(tmp_path, capsys):
    assert main(["sweep", "--config", "run.ini", "--script", "path3_loop",
                 "--seeds", "1", "--out", "sweep.csv"]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[1].startswith("0,1,0,0,4,")
    assert "success fraction: 1.00" in capsys.readouterr().out


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


@pytest.mark.parametrize("flags, message", [
    (["--stride", "-5"], "stride must be >= 1, got -5"),
    (["--stride", "0"], "stride must be >= 1, got 0"),
    (["--session-ticks", "-3"], "session_ticks must be >= 0, got -3"),
])
def test_field_map_bad_lengths_exit_1(tmp_path, capsys, flags, message):
    assert main(["field-map", "--velocity", "0.25,0", "--out", "map"]
                + flags) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "map").exists()


@pytest.mark.parametrize("stride", ["0", "-5"])
def test_field_map_bad_stride_fails_before_the_run(monkeypatch, capsys,
                                                    stride):
    calls = []
    monkeypatch.setattr(cli, "field_map",
                        lambda *args, **kwargs: calls.append(args))
    assert main(["field-map", "--velocity", "0.25,0", "--stride", stride,
                 "--out", "map"]) == 1
    assert f"stride must be >= 1, got {stride}" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command, stage, message", [
    (["field-map", "--velocity", "nan,0", "--out", "map"], "field_map",
     "velocity (nan, 0.0) is not finite"),
    (["compile", "--target", "0.0024,nan", "--out", "mux.txt"], "build_rig",
     "target (0.0024, nan) is not finite"),
])
def test_a_nan_input_exits_1_before_the_run(tmp_path, monkeypatch, capsys,
                                           command, stage, message):
    calls = []
    monkeypatch.setattr(cli, stage, lambda *args, **kwargs: calls.append(args))
    assert main(command) == 1
    assert message in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / command[-1]).exists()
