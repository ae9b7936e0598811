"""INI round trips of run configurations and manifests."""

from dataclasses import fields, is_dataclass, replace

import pytest

from thetanav.config import (
    PathScript,
    RunConfig,
    Segment,
    built_in_scripts,
    load_config,
    load_manifest,
    save_config,
)
from thetanav.theta_core import PopulationSpec, VelocityVector
from thetanav.vector_net import FilterParams

CHANGED = RunConfig(
    population=PopulationSpec(
        n_units=96, f_idle_mean=2100.5, f_idle_std=300.25, beta_mean=19.5,
        beta_std=3.0, dac_offset_std=0.01, response="sigmoid", seed=7),
    scan_clock_hz=9e6,
    calibration_clock_hz=5e6,
    calibration_window_s=0.15,
    filters=FilterParams(alpha1=1 / 8, alpha2=1 / 32, rise1=0.25, fall1=0.1,
                         rise2=0.6, fall2=0.4),
    tap_tolerance=0.05,
    drift_tolerance=0.3,
    min_active_groups=10,
    admission_r2=0.85,
    network_units=64,
    debounce_width=4,
    grid_size=13,
    pitch=0.003,
    speed=0.5,
    hold_ticks=12,
    settle_ticks=40,
    budget_factor=8.0,
    seed=3,
)


def test_every_field_changed():
    def leaves(obj, prefix=""):
        for f in fields(obj):
            value = getattr(obj, f.name)
            if is_dataclass(value):
                yield from leaves(value, prefix + f.name + ".")
            else:
                yield prefix + f.name, value

    default = dict(leaves(RunConfig()))
    changed = dict(leaves(CHANGED))
    assert default.keys() == changed.keys()
    assert [k for k in default if default[k] == changed[k]] == []


@pytest.mark.parametrize("seed", [3, None])
def test_round_trip(tmp_path, seed):
    config = replace(CHANGED, seed=seed)
    path = tmp_path / "run.ini"
    save_config(config, path)
    assert load_config(path) == config
    assert load_manifest(path) == (config, None)


def test_manifest_round_trip(tmp_path):
    scripts = list(built_in_scripts(0.25).values())
    scripts.append(PathScript(
        name="timed", expected_final=None,
        segments=(Segment(VelocityVector(0.1, -0.2), ticks=100),
                  Segment(VelocityVector(-0.3, 0.0)))))
    for script in scripts:
        path = tmp_path / f"{script.name}.ini"
        save_config(CHANGED, path, script)
        assert load_manifest(path) == (CHANGED, script)
        assert load_config(path) == CHANGED
        assert "[meta]" in path.read_text()


def test_missing_keys_take_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nspeed = 0.5\n\n[population]\nseed = 4\n")
    assert load_config(path) == RunConfig(
        speed=0.5, population=PopulationSpec(seed=4))


@pytest.mark.parametrize("text", [
    "[tracking]\nspeed = 0.5\n",
    "[run]\nsped = 0.5\n",
    "[population]\nresponse_mode = linear\n",
    "[run]\npopulation = 3\n",
    "[meta]\nversion = 0.1.0\nauthor = x\n",
    "[run]\nperiodic_reset_ticks = 500\n",   # a removed key
])
def test_unknown_section_or_key_raises(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_config(path)


def test_invalid_value_raises(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[population]\nresponse = cubic\n")
    with pytest.raises(ValueError):
        load_config(path)
