"""End-to-end contracts of the harness on the default config at seed 0:
tracking runs, the manifest round trip, field maps, and the compiler
against the paper's closed-form tap shift."""

import csv
import math

import numpy as np
import pytest

from thetanav import harness
from thetanav.config import RunConfig, built_in_scripts, load_manifest
from thetanav.theta_core import VelocityVector
from thetanav.vector_net import TAP_STEP, TargetLocation, compile_lookup

from reference_models import effective_params, phase_shift

CONFIG = RunConfig()
SCRIPTS = built_in_scripts(CONFIG.speed)

# Seed-0 outputs: (events, final, ticks).
GOLDEN = {
    "path1_meander": ([("S", 262), ("E", 469), ("S", 734), ("W", 982),
                       ("S", 1247)], (0, -3), 1250),
    "path2_detour": ([("E", 204), ("E", 411), ("S", 676), ("E", 883),
                      ("S", 1148)], (3, -2), 1151),
    "path3_loop": ([("E", 204), ("N", 353), ("W", 601), ("S", 866)],
                   (0, 0), 869),
}


def events_of(result):
    return [(ev.direction, ev.tick) for ev in result.events]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_track_seed0(rig, name):
    result = harness.run_track(CONFIG, SCRIPTS[name], rig=rig)
    events, final, ticks = GOLDEN[name]
    assert events_of(result) == events
    assert result.final == final == SCRIPTS[name].expected_final
    assert result.ticks == ticks


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_traces_share_the_trail_tick_axis(rig, name):
    result = harness.run_track(CONFIG, SCRIPTS[name], rig=rig)
    for d, trace in result.traces.items():
        assert trace.size == result.ticks, d
    for ev in result.events:
        assert result.traces[ev.direction][ev.tick] == 1
    # Every reset holds the outputs low for hold_ticks.
    for tick, _ in result.resets:
        for trace in result.traces.values():
            assert not trace[tick:tick + CONFIG.hold_ticks].any()


def test_emit_then_run_from_manifest_is_bit_exact(rig, tmp_path):
    script = SCRIPTS["path2_detour"]
    config = RunConfig(seed=0)
    result = harness.run_track(config, script, rig=rig)
    harness.emit(result, tmp_path, config, script)
    manifest = tmp_path / "manifest.ini"
    assert load_manifest(manifest) == (config, script)

    again = harness.run_from_manifest(manifest)
    assert events_of(again) == events_of(result)
    assert again.final == result.final
    assert again.ticks == result.ticks
    for d in result.traces:
        assert np.array_equal(again.traces[d], result.traces[d])

    rows = (tmp_path / "traces.csv").read_text().splitlines()
    assert len(rows) == 1 + result.ticks


def test_field_map_records_compile_failures(rig, tmp_path):
    result = harness.field_map(CONFIG, VelocityVector(0.25, 0.0), rig=rig)
    assert len(result.cells) == 121
    assert len(result.failed) == 28
    assert all(x != 0 and y != 0 for x, y in result.failed)
    assert all(result.first_fire[cell] is None for cell in result.failed)
    assert set(result.outputs) == set(result.cells) - set(result.failed)
    # The session still covers the farthest requested cell.
    assert result.session_ticks == math.ceil(
        1.5 * math.hypot(5, 5) * CONFIG.cell_seconds * rig.fs)

    harness.write_field_map_csv(result, tmp_path, stride=1024)
    with open(tmp_path / "first_fire.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "first_fire_tick", "compile_error"]
    failed = {(int(x), int(y)): cause for x, y, _, cause in rows[1:] if cause}
    assert failed == result.failed


def test_compile_lookup_matches_closed_form_phase_shift(rig):
    # For the pair the compiler corrects, the tap rounding residual is
    # the closed-form shift's distance to the nearest tap.
    fit = {f.unit: f for f in rig.fits}
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        target = TargetLocation(float(rng.uniform(0.0, 0.02)),
                                float(rng.uniform(-math.pi, math.pi)))
        mux = compile_lookup(rig.pairing, rig.fits, target, CONFIG.speed,
                             min_active_groups=0)
        x_active = abs(math.cos(target.theta)) >= abs(math.sin(target.theta))
        for g in range(rig.pairing.n_groups):
            pair = rig.pairing.group(g)[0 if x_active else 1]
            pref_a = pair.pref_a()
            cell = effective_params(fit[pair.unit_a], fit[pair.unit_b],
                                    pref_a, (-pref_a[0], -pref_a[1]))
            ps = phase_shift(target, cell, CONFIG.speed)
            worst = max(worst, abs(mux.residuals[g]
                                   - min(ps, TAP_STEP - ps)))
    assert worst <= 1e-9
