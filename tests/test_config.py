"""The rules every config value checks when it is made, and INI round
trips of run configurations and manifests."""

import re
from dataclasses import fields, is_dataclass, replace

import numpy
import pytest
import scipy

from thetanav import __version__
from thetanav.chip_io import MIN_ESTIMATE_WINDOW_S, ChipState, calibrate
from thetanav.config import (
    PathScript,
    RunConfig,
    Segment,
    built_in_scripts,
    load_config,
    load_manifest,
    save_config,
)
from thetanav.theta_core import (
    PopulationSpec,
    VelocityVector,
    sample_population,
)
from thetanav.vector_net import FilterParams

CHANGED = RunConfig(
    population=PopulationSpec(
        n_units=96, f_idle_mean=2100.5, f_idle_std=300.25, beta_mean=19.5,
        beta_std=3.0, dac_offset_std=0.01, response="sigmoid"),
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

SEGMENT = Segment(VelocityVector(0.25, 0.0))
LINEAR = "outside the linear range"
OFF_AXIS = "is off-axis: the cardinal networks track axis-aligned motion only"
POSITIVE = "pitch and speed must be positive"
TICKS = "hold_ticks and settle_ticks must be >= 0"
MEANS = "means must be positive"
STDS = "std values must be >= 0"
SCHMITT = "Schmitt thresholds need 0 <= fall < rise <= 1"
UNITS = "network_units must be a positive multiple of 4 and at most " \
    "population.n_units"
WINDOW = "calibration_window_s must be >= 0.1 s (the shortest frequency " \
    "estimate)"

# (valid value, fields that break one rule, the error message).
RULES = [
    (RunConfig(), {"pitch": 0.0}, POSITIVE),
    (RunConfig(), {"pitch": -0.0024}, POSITIVE),
    (RunConfig(), {"speed": 0.0}, POSITIVE),
    (RunConfig(), {"speed": 4.5}, "speed 4.5 " + LINEAR),
    (RunConfig(), {"grid_size": 10}, "grid_size must be odd and positive"),
    (RunConfig(), {"debounce_width": 0}, "debounce_width must be >= 1"),
    (RunConfig(), {"hold_ticks": -1}, TICKS),
    (RunConfig(), {"settle_ticks": -1}, TICKS),
    (RunConfig(), {"budget_factor": 0.0}, "budget_factor must be positive"),
    (RunConfig(), {"network_units": 0}, UNITS + " (128), got 0"),
    (RunConfig(), {"network_units": 81}, UNITS + " (128), got 81"),
    (RunConfig(), {"network_units": 132}, UNITS + " (128), got 132"),
    (RunConfig(), {"population": PopulationSpec(n_units=64)},
     UNITS + " (64), got 80"),
    # 128 calibration phases, and 9 tracking phases per pair of units.
    (RunConfig(), {"calibration_clock_hz": 1e6},
     "per-phase rate 7812.5 Hz <= 8000 Hz (128 phases"),
    (RunConfig(), {"scan_clock_hz": -1e7},
     "per-phase rate -27777.8 Hz <= 8000 Hz (360 phases"),
    (RunConfig(network_units=64, scan_clock_hz=2.8e6), {"network_units": 80},
     "per-phase rate 7777.8 Hz <= 8000 Hz (360 phases"),
    (RunConfig(), {"calibration_window_s": 0.05}, WINDOW + ", got 0.05"),
    (RunConfig(), {"calibration_window_s": 0.0999}, WINDOW + ", got 0.0999"),
    (PopulationSpec(), {"n_units": 0}, "n_units must be >= 1"),
    (PopulationSpec(), {"f_idle_mean": 0.0}, MEANS),
    (PopulationSpec(), {"beta_mean": -1.0}, MEANS),
    (PopulationSpec(), {"f_idle_std": -1.0}, STDS),
    (PopulationSpec(), {"dac_offset_std": -0.01}, STDS),
    (PopulationSpec(), {"response": "cubic"}, "unknown response mode 'cubic'"),
    (FilterParams(), {"alpha2": 1 / 16}, "need 0 < alpha2 < alpha1 < 1"),
    (FilterParams(), {"alpha1": 1.0}, "need 0 < alpha2 < alpha1 < 1"),
    (FilterParams(), {"fall1": 0.22}, SCHMITT),
    (FilterParams(), {"rise2": 1.5}, SCHMITT),
    (SEGMENT, {"velocity": VelocityVector(0.0, -4.5)}, LINEAR),
    (SEGMENT, {"ticks": -1}, "segment ticks must be >= 0"),
    (SEGMENT, {"velocity": VelocityVector(0.1, -0.2)},
     "segment velocity (0.1, -0.2) " + OFF_AXIS),
    (SEGMENT, {"velocity": VelocityVector(-1e-9, 0.25)}, OFF_AXIS),
    (SEGMENT, {"velocity": VelocityVector(0.0, 0.0)},
     "an until-pulse segment needs a non-zero velocity"),
    (PathScript("p", (SEGMENT,)), {"segments": ()},
     "a path script needs at least one segment"),
]


@pytest.mark.parametrize("valid, bad, message", RULES, ids=[
    f"{type(valid).__name__}-{bad}" for valid, bad, _ in RULES])
def test_every_rule_raises_where_the_value_is_made(valid, bad, message):
    kwargs = {f.name: getattr(valid, f.name) for f in fields(valid)}
    with pytest.raises(ValueError, match=re.escape(message)):
        type(valid)(**{**kwargs, **bad})
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(valid, **bad)


def test_shortest_calibration_window_calibrates():
    # Eight units on 8/n of the clock sample at the config's per-phase rate.
    config = RunConfig(calibration_window_s=MIN_ESTIMATE_WINDOW_S)
    chip = ChipState(sample_population(PopulationSpec(n_units=8), 0))
    clock = config.calibration_clock_hz * 8 / config.population.n_units
    assert len(calibrate(chip, clock, config.calibration_window_s)) == 8


def test_a_still_segment_must_be_timed():
    still = VelocityVector(0.0, 0.0)
    assert Segment(still, ticks=5).ticks == 5
    with pytest.raises(ValueError, match="non-zero velocity"):
        Segment(still)


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


@pytest.mark.parametrize("seed", [3, 0])
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
        segments=(Segment(VelocityVector(0.0, -0.2), ticks=100),
                  Segment(VelocityVector(-0.3, 0.0)))))
    for script in scripts:
        path = tmp_path / f"{script.name}.ini"
        save_config(CHANGED, path, script)
        assert load_manifest(path) == (CHANGED, script)
        assert load_config(path) == CHANGED
        assert "[meta]" in path.read_text()
        assert path.read_text().endswith(
            f"[meta]\nversion = {__version__}\nnumpy = {numpy.__version__}"
            f"\nscipy = {scipy.__version__}\n\n")


def test_an_off_axis_segment_in_a_manifest_raises(tmp_path):
    path = tmp_path / "run.ini"
    save_config(RunConfig(), path, built_in_scripts(0.25)["path2_detour"])
    text = path.read_text()
    assert "segments = 0.25:0.0:pulse;" in text
    path.write_text(text.replace("segments = 0.25:0.0:pulse;",
                                 "segments = 0.25:0.1:pulse;"))
    with pytest.raises(ValueError, match=re.escape(
            "segment velocity (0.25, 0.1) " + OFF_AXIS)):
        load_manifest(path)


def test_missing_keys_take_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nspeed = 0.5\nseed = 4\n\n"
                    "[population]\nbeta_std = 3.0\n")
    assert load_config(path) == RunConfig(
        speed=0.5, seed=4, population=PopulationSpec(beta_std=3.0))


@pytest.mark.parametrize("text", [
    "[tracking]\nspeed = 0.5\n",
    "[run]\nsped = 0.5\n",
    "[population]\nresponse_mode = linear\n",
    "[run]\npopulation = 3\n",
    "[meta]\nversion = 0.1.0\nauthor = x\n",
    "[run]\nperiodic_reset_ticks = 500\n",   # a removed key
    "[population]\nseed = 4\n",               # a removed key
])
def test_unknown_section_or_key_raises(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_config(path)


@pytest.mark.parametrize("value", ["3,-2,7", "3"])
def test_tuple_of_the_wrong_length_raises(tmp_path, value):
    path = tmp_path / "run.ini"
    save_config(RunConfig(), path, built_in_scripts(0.25)["path2_detour"])
    text = path.read_text()
    assert "expected_final = 3,-2\n" in text
    path.write_text(text.replace("expected_final = 3,-2\n",
                                 f"expected_final = {value}\n"))
    with pytest.raises(ValueError, match="expected 2 values"):
        load_manifest(path)


def test_invalid_value_raises(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[population]\nresponse = cubic\n")
    with pytest.raises(ValueError):
        load_config(path)
