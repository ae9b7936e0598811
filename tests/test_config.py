"""The rules every config value checks when it is made, and INI round
trips of run configurations and manifests."""

import math
import re
from dataclasses import fields, is_dataclass, replace

import numpy
import pytest
import scipy

from thetanav import __version__
from thetanav import chip_io, harness
from thetanav.chip_io import (
    CALIBRATION_CLOCK_HZ,
    CALIBRATION_WINDOW_S,
    MIN_ESTIMATE_WINDOW_S,
    NETWORK_UNITS,
    TAPS_PER_UNIT,
    ChipState,
    calibrate,
    phase_rate,
)
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
from thetanav.vector_net import STAGES, TargetLocation

from reference_models import filter_once

CHANGED = RunConfig(
    population=PopulationSpec(
        n_units=96, f_idle_mean=2100.5, f_idle_std=300.25, beta_mean=19.5,
        beta_std=3.0, dac_offset_std=0.01, response="sigmoid"),
    grid_size=13,
    pitch=0.003,
    speed=0.5,
    hold_ticks=12,
    seed=3,
)

SEGMENT = Segment(VelocityVector(0.25, 0.0))
LINEAR = "outside the linear range"
OFF_AXIS = "is off-axis: the cardinal networks track axis-aligned motion only"
POSITIVE = "pitch and speed must be positive and finite"
MEANS = "means must be positive and finite"
STDS = "std values must be >= 0 and finite"
UNITS = "population.n_units must be >= 80 (the network's units), got"
NAN, INF = math.nan, math.inf

# (valid value, fields that break one rule, the error message).
RULES = [
    (RunConfig(), {"pitch": 0.0}, POSITIVE),
    (RunConfig(), {"pitch": -0.0024}, POSITIVE),
    (RunConfig(), {"speed": 0.0}, POSITIVE),
    (RunConfig(), {"pitch": NAN}, POSITIVE),
    (RunConfig(), {"pitch": INF}, POSITIVE),
    (RunConfig(), {"speed": NAN}, POSITIVE),
    (RunConfig(), {"speed": 4.5}, "speed 4.5 " + LINEAR),
    (RunConfig(), {"speed": INF}, "speed inf " + LINEAR),
    (RunConfig(), {"grid_size": 10}, "grid_size must be odd and positive"),
    (RunConfig(), {"hold_ticks": -1}, "hold_ticks must be >= 0"),
    (RunConfig(), {"seed": -1}, "seed must be >= 0"),
    # Integer values refuse floats and bools where they are made, before
    # a run or a manifest can carry them.
    (RunConfig(), {"grid_size": 11.0}, "grid_size must be an int, got 11.0"),
    (RunConfig(), {"grid_size": True}, "grid_size must be an int, got True"),
    (RunConfig(), {"hold_ticks": 2.5}, "hold_ticks must be an int, got 2.5"),
    (RunConfig(), {"hold_ticks": True}, "hold_ticks must be an int, got True"),
    (RunConfig(), {"seed": 1.5}, "seed must be an int, got 1.5"),
    (RunConfig(), {"seed": True}, "seed must be an int, got True"),
    (RunConfig(), {"population": PopulationSpec(n_units=64)},
     UNITS + " 64"),
    # Calibration scans 768 phases, one tap of each unit.
    (RunConfig(), {"population": PopulationSpec(n_units=768)},
     "per-phase rate 7812.5 Hz <= 8000 Hz (768 phases"),
    (PopulationSpec(), {"n_units": 0}, "n_units must be >= 1"),
    (PopulationSpec(), {"n_units": 128.0},
     "n_units must be an int, got 128.0"),
    (PopulationSpec(), {"n_units": True}, "n_units must be an int, got True"),
    (PopulationSpec(), {"f_idle_mean": 0.0}, MEANS),
    (PopulationSpec(), {"beta_mean": -1.0}, MEANS),
    (PopulationSpec(), {"f_idle_mean": NAN}, MEANS),
    (PopulationSpec(), {"beta_mean": INF}, MEANS),
    (PopulationSpec(), {"f_idle_std": -1.0}, STDS),
    (PopulationSpec(), {"dac_offset_std": -0.01}, STDS),
    (PopulationSpec(), {"beta_std": NAN}, STDS),
    (PopulationSpec(), {"f_idle_std": INF}, STDS),
    (PopulationSpec(), {"response": "cubic"}, "unknown response mode 'cubic'"),
    (VelocityVector(0.25, 0.0), {"vx": NAN},
     "velocity (nan, 0.0) is not finite"),
    (VelocityVector(0.25, 0.0), {"vy": -INF}, "velocity (0.25, -inf) is not"),
    (TargetLocation(0.0024, 0.0), {"theta": NAN},
     "target (0.0024, nan) is not finite"),
    (TargetLocation(0.0024, 0.0), {"r": INF}, "target (inf, 0.0) is not"),
    (SEGMENT, {"velocity": VelocityVector(0.0, -4.5)}, LINEAR),
    (SEGMENT, {"ticks": -1}, "segment ticks must be >= 0"),
    (SEGMENT, {"ticks": 300.0}, "segment ticks must be an int, got 300.0"),
    (SEGMENT, {"ticks": True}, "segment ticks must be an int, got True"),
    (SEGMENT, {"velocity": VelocityVector(0.1, -0.2)},
     "segment velocity (0.1, -0.2) " + OFF_AXIS),
    (SEGMENT, {"velocity": VelocityVector(-1e-9, 0.25)}, OFF_AXIS),
    (SEGMENT, {"velocity": VelocityVector(0.0, 0.0)},
     "an until-pulse segment needs a non-zero velocity"),
    (PathScript("p", (SEGMENT,)), {"segments": ()},
     "a path script needs at least one segment"),
    (PathScript("p", (SEGMENT,)), {"expected_final": (0, 0, 0)},
     "expected_final must be None or two ints, got (0, 0, 0)"),
    (PathScript("p", (SEGMENT,)), {"expected_final": (1.0, 0)},
     "expected_final must be None or two ints"),
    (PathScript("p", (SEGMENT,)), {"expected_final": (True, False)},
     "expected_final must be None or two ints"),
    (PathScript("p", (SEGMENT,)), {"expected_final": "10"},
     "expected_final must be None or two ints"),
]


# The rules the fixed values keep, which config checks enforced when they
# were settings.
def stages_keep_the_schmitt_trigger_exact():
    return all(0 <= fall < rise <= 1 for _, _, rise, fall in STAGES.values())


def no_output_rises_before_tick_61():
    # All-ones frames raise a node first, since every filter weight is
    # >= 0; the settle window masked ticks 0..31, below both layers' rise.
    layer1 = filter_once(numpy.ones(100), 1)
    layer2 = filter_once(layer1.astype(float), 2)
    return layer1.argmax() == 7 and layer2.argmax() == 61


def layer2_rc_pole_sits_below_layer1():
    return 0 < STAGES[2][1] < STAGES[1][1] < 1


def network_units_fit_the_default_population():
    # Pairs of units, split evenly between the x and y axes.
    return NETWORK_UNITS % 4 == 0 and \
        0 < NETWORK_UNITS <= PopulationSpec().n_units


def calibration_scan_meets_nyquist():
    # One tap of each unit.
    return phase_rate(CALIBRATION_CLOCK_HZ, PopulationSpec().n_units) > 8000


def tracking_scan_meets_nyquist():
    # All taps of each pair's routable member and tap 0 of its partner.
    phases = (TAPS_PER_UNIT + 1) * NETWORK_UNITS // 2
    return phases == 360 and \
        phase_rate(harness.TRACK_CLOCK_HZ, phases) > 27_000


def calibration_window_allows_a_frequency_estimate():
    return CALIBRATION_WINDOW_S >= MIN_ESTIMATE_WINDOW_S


# (the type that held a setting now fixed, a value its check refused, the
# rule its constant keeps).  A file that sets the key is refused where the
# value used to be made.
FIXED = [
    ("RunConfig", {"debounce_width": 0}, lambda: harness.DEBOUNCE_WIDTH >= 1),
    ("RunConfig", {"settle_ticks": -1}, no_output_rises_before_tick_61),
    ("RunConfig", {"budget_factor": 0.0}, lambda: harness.BUDGET_FACTOR > 0),
    ("RunConfig", {"network_units": 0},
     network_units_fit_the_default_population),
    ("RunConfig", {"network_units": 81},
     network_units_fit_the_default_population),
    ("RunConfig", {"network_units": 132},
     network_units_fit_the_default_population),
    ("RunConfig", {"calibration_clock_hz": 1e6},
     calibration_scan_meets_nyquist),
    ("RunConfig", {"scan_clock_hz": -1e7}, tracking_scan_meets_nyquist),
    ("RunConfig", {"network_units": 80}, tracking_scan_meets_nyquist),
    ("RunConfig", {"calibration_window_s": 0.05},
     calibration_window_allows_a_frequency_estimate),
    ("RunConfig", {"calibration_window_s": 0.0999},
     calibration_window_allows_a_frequency_estimate),
    ("FilterParams", {"alpha2": 1 / 16}, layer2_rc_pole_sits_below_layer1),
    ("FilterParams", {"alpha1": 1.0}, layer2_rc_pole_sits_below_layer1),
    ("FilterParams", {"fall1": 0.22}, stages_keep_the_schmitt_trigger_exact),
    ("FilterParams", {"rise2": 1.5}, stages_keep_the_schmitt_trigger_exact),
]
SECTION = {"RunConfig": "run", "FilterParams": "filters"}
REFUSAL = {"RunConfig": "unknown key '{key}' in [run]",
           "FilterParams": "unknown section [filters]"}


@pytest.mark.parametrize("valid, bad, expected", RULES + FIXED, ids=[
    f"{valid if isinstance(valid, str) else type(valid).__name__}-{bad}"
    for valid, bad, _ in RULES + FIXED])
def test_every_rule_raises_where_the_value_is_made(tmp_path, valid, bad,
                                                   expected):
    if isinstance(valid, str):
        (key, value), = bad.items()
        path = tmp_path / "run.ini"
        path.write_text(f"[{SECTION[valid]}]\n{key} = {value}\n")
        with pytest.raises(ValueError, match=re.escape(
                REFUSAL[valid].format(key=key))):
            load_config(path)
        assert expected()
        return
    kwargs = {f.name: getattr(valid, f.name) for f in fields(valid)}
    with pytest.raises(ValueError, match=re.escape(expected)):
        type(valid)(**{**kwargs, **bad})
    with pytest.raises(ValueError, match=re.escape(expected)):
        replace(valid, **bad)


def test_shortest_calibration_window_calibrates(monkeypatch):
    # Eight units on 8/128 of the clock sample at the default per-phase rate.
    chip = ChipState(sample_population(PopulationSpec(n_units=8), 0))
    clock = CALIBRATION_CLOCK_HZ * 8 / PopulationSpec().n_units
    monkeypatch.setattr(chip_io, "CALIBRATION_CLOCK_HZ", clock)
    monkeypatch.setattr(chip_io, "CALIBRATION_WINDOW_S", MIN_ESTIMATE_WINDOW_S)
    assert len(calibrate(chip)) == 8


def test_a_still_segment_must_be_timed():
    still = VelocityVector(0.0, 0.0)
    assert Segment(still, ticks=5).ticks == 5
    with pytest.raises(ValueError, match="non-zero velocity"):
        Segment(still)


def test_a_script_built_from_lists_is_stored_as_tuples(tmp_path,
                                                      monkeypatch):
    script = PathScript("p", [SEGMENT, Segment(VelocityVector(0.0, 0.0), 5)],
                        expected_final=[0, 0])
    assert script == PathScript("p", (SEGMENT, Segment(
        VelocityVector(0.0, 0.0), 5)), (0, 0))
    path = tmp_path / "manifest.ini"
    save_config(RunConfig(), path, script)
    assert load_manifest(path) == (RunConfig(), script)
    # A run that ends on the expected cell scores as reached.
    monkeypatch.setattr(harness, "run_track",
                        lambda config, script: harness.TrackResult())
    (outcome,) = harness.sweep_seeds(RunConfig(), script, 1).outcomes
    assert outcome.ok and outcome.cause == "reached target"


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
    assert len(default) == 12
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
    "[run]\ntap_tolerance = 0.0625\n",        # a removed key
    "[filters]\nalpha1 = 0.0625\n",           # a removed section
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


def test_a_nan_segment_in_a_manifest_raises(tmp_path):
    path = tmp_path / "run.ini"
    save_config(RunConfig(), path, built_in_scripts(0.25)["path3_loop"])
    text = path.read_text()
    assert "segments = 0.25:0.0:pulse;" in text
    path.write_text(text.replace("segments = 0.25:0.0:pulse;",
                                 "segments = nan:0.0:pulse;"))
    with pytest.raises(ValueError, match=re.escape(
            "velocity (nan, 0.0) is not finite")):
        load_manifest(path)


def test_invalid_value_raises(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[population]\nresponse = cubic\n")
    with pytest.raises(ValueError):
        load_config(path)
