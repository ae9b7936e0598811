"""End-to-end contracts of the harness on the default config at seed 0:
tracking runs, the manifest round trip, field maps, and the compiler
against the paper's closed-form tap shift."""

import csv
import hashlib
import math
import re
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thetanav import harness, place_grid, vector_net
from thetanav.chip_io import PAIR_CODES, ChipState, calibrate
from thetanav.config import (
    PathScript,
    RunConfig,
    Segment,
    built_in_scripts,
    cardinal_velocity,
    load_manifest,
    save_config,
)
from thetanav.place_grid import DIRECTION_DELTA
from thetanav.theta_core import (VelocityVector, decode_velocity_code,
                                 sample_population)
from thetanav.vector_net import (
    TAP_STEP,
    CompileError,
    NodeBank,
    NodeLayout,
    TargetLocation,
    VectorNetwork,
    compile_lookup,
    serialize_mux,
)

from reference_models import (effective_params, fill_runs, occupancy,
                              phase_shift, read_runs_csv, routed_positions,
                              run_alone, run_from_manifest, session_frames,
                              write_grid_csv, write_traces_csv)

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


def leg(direction, ticks=None):
    return Segment(cardinal_velocity(direction, CONFIG.speed), ticks)


# Timed segments with pulses in mid-segment (E 900, W 476), segments that
# end exactly on their pulse (W 238, W 476) or one tick short of it
# (W 237), a zero-tick segment and both boundary warnings.
TIMED = PathScript(name="timed", segments=(
    leg("E", 900), leg("E", 100), leg("N", 0), leg("N"), leg("W", 238),
    leg("W", 237), leg("W", 476), leg("S", 5), leg("S")))
BOUNDARY = "segment {}: boundary reset without velocity change"
DISCARD = "segment {}: sub-cell displacement discarded on velocity change"


# Repeats of one heading: timed with the same ticks (E 300, E 300) and
# with other ticks (E 100 without a pulse, E 450), until-pulse after timed
# legs (E), and until-pulse after a timed leg without a pulse (N 50, N).
REPEATS = PathScript(name="repeats", segments=(
    leg("E", 100), leg("N"), leg("E", 300), leg("E", 300), leg("E", 450),
    leg("E"), leg("N", 50), leg("N")))


def events_of(result):
    return [(ev.direction, ev.tick) for ev in result.events]


# SHA-256 of the repr of the seed-0 rig's 128 UnitFits as plain tuples.
FITS_SHA256 = \
    "e2dfd0ea2a5fa2d4a6aa535eaf06e6a62f041f1edde99c4919173beb16f81877"


def test_calibration_seed0_bit_for_bit(rig):
    text = repr([tuple(fit) for fit in rig.fits])
    assert len(rig.fits) == 128
    assert hashlib.sha256(text.encode()).hexdigest() == FITS_SHA256


# SHA-256 of the repr of the 128 UnitFits as plain tuples followed by the
# chip's phases as float64 bytes after calibration, for population seeds
# 1 and 117 (a rig of held-out workload seed 1000 in perfbench).
CALIBRATION_SHA256 = {
    1: "421632e4c8f26c4583e39b7689c0fc9b28e36b0ad2108b30447a9d92336216c8",
    117: "8b3a0d80b163b4ab7c26848db9a5f9a1c1cbe217bb426561baac997b593c119d",
}


@pytest.mark.parametrize("seed", sorted(CALIBRATION_SHA256))
def test_calibration_bit_for_bit_beyond_seed0(seed):
    chip = ChipState(sample_population(CONFIG.population, seed))
    fits = calibrate(chip)
    text = repr([tuple(fit) for fit in fits])
    digest = hashlib.sha256(text.encode() + chip.phases.tobytes())
    assert digest.hexdigest() == CALIBRATION_SHA256[seed]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_track_seed0(rig, name):
    result = harness.run_track(CONFIG, SCRIPTS[name], rig=rig)
    events, final, ticks = GOLDEN[name]
    assert events_of(result) == events
    assert result.final == final == SCRIPTS[name].expected_final
    assert result.ticks == ticks


def test_timed_script_seed0(rig, tmp_path):
    result = harness.run_track(CONFIG, TIMED, rig=rig)
    assert events_of(result) == [
        ("E", 204), ("E", 411), ("E", 618), ("E", 825), ("N", 1206),
        ("W", 1454), ("W", 1949), ("W", 2197), ("S", 2477)]
    assert result.final == (1, 0)
    assert result.ticks == 2480
    for trace in result.traces.values():
        assert trace.size == result.ticks
    assert all(result.traces[ev.direction][ev.tick] for ev in result.events)
    assert result.resets == [
        (0, "trail_start"), (207, "vector_fire"), (414, "vector_fire"),
        (621, "vector_fire"), (828, "vector_fire"), (950, "velocity_change"),
        (1060, "velocity_change"), (1060, "velocity_change"),
        (1209, "vector_fire"), (1457, "vector_fire"),
        (1704, "velocity_change"), (1952, "vector_fire"),
        (2200, "vector_fire"), (2215, "velocity_change")]
    assert result.warnings == [
        BOUNDARY.format(1), DISCARD.format(1), DISCARD.format(2),
        BOUNDARY.format(3), DISCARD.format(3), BOUNDARY.format(6),
        DISCARD.format(6), BOUNDARY.format(8), DISCARD.format(8)]
    harness.emit(result, tmp_path, CONFIG, TIMED)
    assert (tmp_path / "warnings.txt").read_text().splitlines() \
        == result.warnings


# Too slow to reach a cell within the budget (a still until-pulse
# segment is refused by Segment itself).
CRAWL = PathScript(name="still",
                   segments=(Segment(VelocityVector(0.01, 0)),))


def observe(frames, networks):
    """Each network's outputs and first-run starts over ``frames``, a
    whole session from reset on every frame position, in one block."""
    layout = NodeLayout(networks.values())
    outputs = harness._observe(frames[:, layout.columns], networks,
                               NodeBank(layout))
    return outputs, {d: place_grid.debounce(out, harness.DEBOUNCE_WIDTH)
                     for d, out in outputs.items()}


def test_all_ones_frames_first_raise_each_network_at_tick_61(rig):
    # No input rises earlier, so no output is high before tick 61 of a
    # session from reset.
    frames = np.ones((200, rig.chip.enabled_phases), dtype=np.uint8)
    outputs, starts = observe(frames, rig.networks)
    for d, out in outputs.items():
        assert out.argmax() == 61 and out[61:].all(), d
        assert starts[d] == 61, d


def test_until_pulse_segment_times_out(rig):
    with pytest.raises(harness.SegmentTimeoutError, match=(
            r"^segment 0: no pulse within 2670 ticks "
            r"\(10x predicted arrival\)$")):
        harness.run_track(CONFIG, CRAWL, rig=rig)


def test_sweep_records_a_timeout():
    (outcome,) = harness.sweep_seeds(RunConfig(seed=0), CRAWL, 1).outcomes
    assert not outcome.ok and outcome.final is None
    assert outcome.cause.startswith("SegmentTimeoutError")


def raising_run_track(monkeypatch, exc):
    def run_track(config, script):
        raise exc
    monkeypatch.setattr(harness, "run_track", run_track)


def test_sweep_records_a_domain_error_as_a_failed_seed(monkeypatch):
    raising_run_track(monkeypatch, harness.SegmentTimeoutError("too slow"))
    outcomes = harness.sweep_seeds(RunConfig(seed=5), CRAWL, 2).outcomes
    assert outcomes == [
        harness.SeedOutcome(seed=s, ok=False, final=None,
                            cause="SegmentTimeoutError: too slow", n_events=0)
        for s in (5, 6)]


def test_sweep_propagates_a_programming_error(monkeypatch):
    raising_run_track(monkeypatch, TypeError("a bug"))
    with pytest.raises(TypeError, match="a bug"):
        harness.sweep_seeds(RunConfig(seed=0), CRAWL, 1)


def scan_lengths(monkeypatch):
    """Wrap the tracking scan and return the list of its lengths."""
    lengths = []
    original = harness.scan_frames

    def counted(chip, velocity, n, *args, **kwargs):
        lengths.append(n)
        return original(chip, velocity, n, *args, **kwargs)

    monkeypatch.setattr(harness, "scan_frames", counted)
    return lengths


def test_one_scan_per_segment(rig, monkeypatch):
    lengths = scan_lengths(monkeypatch)
    harness.run_track(CONFIG, TIMED, rig=rig)
    assert lengths == [900, 100, 0, 2670, 238, 237, 476, 5, 2670]
    # One scan per distinct session: the meander's S,E,S,W,S and the
    # detour's E,E,S,E,S replay their repeated headings.
    for name, scanned in (("path1_meander", [2670] * 3),
                          ("path2_detour", [2670] * 2),
                          ("path3_loop", [2670] * 4)):
        lengths.clear()
        harness.run_track(CONFIG, SCRIPTS[name], rig=rig)
        assert lengths == scanned, name


def observed_lengths(monkeypatch):
    """Wrap the node-bank pass and return the list of the lengths of the
    blocks it filters."""
    lengths = []
    original = harness._observe

    def counted(frames, networks, bank):
        lengths.append(len(frames))
        return original(frames, networks, bank)

    monkeypatch.setattr(harness, "_observe", counted)
    return lengths


def test_filtering_stops_at_the_first_prefix_with_a_pulse(rig, monkeypatch):
    lengths = observed_lengths(monkeypatch)
    harness.run_track(CONFIG, TIMED, rig=rig)
    assert lengths == [267, 100, 0, 267, 238, 237, 267, 5, 267]
    # One stream per distinct session, each ending with its first block,
    # at the predicted arrival.
    for name, filtered in (("path1_meander", [267] * 3),
                           ("path2_detour", [267] * 2),
                           ("path3_loop", [267] * 4)):
        lengths.clear()
        result = harness.run_track(CONFIG, SCRIPTS[name], rig=rig)
        assert result.diagnostics["arrival_ticks"] == 267
        assert lengths == filtered, name


def test_repeated_sessions_are_scanned_and_filtered_once(rig, monkeypatch):
    # The second E 300 and the last N (after the pulseless N 50) replay
    # stored sessions; E 100, E 300, E 450 and E differ in ticks, so each
    # is scanned and filtered.
    scanned = scan_lengths(monkeypatch)
    filtered = observed_lengths(monkeypatch)
    harness.run_track(CONFIG, REPEATS, rig=rig)
    assert scanned == [100, 2670, 300, 450, 2670, 50]
    assert filtered == [100, 267, 267, 267, 267, 50]


def test_runs_share_nothing_through_the_rig(rig, monkeypatch):
    # A field map between two runs leaves the rig's chip at other phases;
    # the second run scans its sessions again and gives every record the
    # first gave.
    def records(result):
        return (result.trail, result.resets, result.warnings, result.ticks,
                {d: t.tolist() for d, t in result.traces.items()})

    scanned = scan_lengths(monkeypatch)
    first = harness.run_track(CONFIG, REPEATS, rig=rig)
    harness.field_map(CONFIG, VelocityVector(0.0, -0.25),
                      targets=[(0, -1), (2, 3)], rig=rig)
    assert rig.chip.phases.any()
    scanned.clear()
    second = harness.run_track(CONFIG, REPEATS, rig=rig)
    assert scanned == [100, 2670, 300, 450, 2670, 50]
    assert records(second) == records(first)


def test_a_late_pulse_is_found_in_a_doubled_prefix(rig, monkeypatch):
    # At half speed southward the seed-0 pulse comes after the predicted
    # arrival: the first block has none, the second, which ends at twice
    # the arrival, has it, and the run keeps what observing the whole
    # scan at once gives.
    slow = cardinal_velocity("S", CONFIG.speed / 2)
    outputs, starts = observe(session_frames(rig, slow, 2670),
                              rig.networks)
    start = min(s for s in starts.values() if s is not None)
    assert 267 < start + harness.DEBOUNCE_WIDTH <= 534
    lengths = observed_lengths(monkeypatch)
    result = harness.run_track(
        CONFIG, PathScript(name="slow", segments=(Segment(slow),)), rig=rig)
    assert lengths == [267, 267]
    assert events_of(result) == [(d, CONFIG.hold_ticks + start)
                                 for d in DIRECTION_DELTA
                                 if starts[d] == start]
    hold = np.zeros(CONFIG.hold_ticks, np.uint8)
    for d, trace in result.traces.items():
        kept = outputs[d][:start + harness.DEBOUNCE_WIDTH]
        assert np.array_equal(trace, np.concatenate((hold, kept))), d


def test_a_segment_without_a_pulse_filters_its_whole_scan_last(
        rig, monkeypatch):
    # Blocks end at 267, 534, 1,068, 2,136 and the scan's 2,670, so each
    # tick of the scan is filtered once.
    lengths = observed_lengths(monkeypatch)
    with pytest.raises(harness.SegmentTimeoutError):
        harness.run_track(CONFIG, CRAWL, rig=rig)
    assert lengths == [267, 267, 534, 1068, 534]
    assert sum(lengths) == 2670


def test_the_cardinal_layout_is_built_once_per_rig(monkeypatch):
    calls = []
    original = vector_net._distinct

    def counted(keys):
        calls.append(len(keys))
        return original(keys)

    monkeypatch.setattr(vector_net, "_distinct", counted)
    rig = harness.build_rig(CONFIG)
    # The first-layer and the second-layer keys of the four networks.
    assert calls == [4, 4]
    calls.clear()
    for script in SCRIPTS.values():
        harness.run_track(CONFIG, script, rig=rig)
    assert calls == []


velocities = st.builds(VelocityVector, st.floats(-4, 4), st.floats(-4, 4))


@settings(max_examples=25, deadline=None)
@given(v=velocities, n=st.tuples(st.integers(0, 600), st.integers(0, 600)))
# Eastward at the configured speed the seed-0 E run starts at tick 194:
# a 196-tick prefix holds two of its samples, a 197-tick prefix confirms it.
@example(v=VelocityVector(0.25, 0.0), n=(196, 600))
@example(v=VelocityVector(0.25, 0.0), n=(197, 600))
def test_session_from_reset_is_a_prefix_and_repeats(rig, v, n):
    n1, n2 = sorted(n)
    short = session_frames(rig, v, n1)
    long = session_frames(rig, v, n2)
    assert np.array_equal(short, long[:n1])
    assert np.array_equal(session_frames(rig, v, n2), long)
    for d, net in rig.networks.items():
        assert np.array_equal(run_alone(net, short),
                              run_alone(net, long)[:n1]), d
    # Observing a prefix gives the whole session's bits up to its end and
    # the whole session's first run if it confirms within it.
    short_out, short_starts = observe(short, rig.networks)
    long_out, long_starts = observe(long, rig.networks)
    for d in rig.networks:
        assert np.array_equal(short_out[d], long_out[d][:n1]), d
        first = long_starts[d]
        confirmed = first is not None and first + harness.DEBOUNCE_WIDTH <= n1
        assert short_starts[d] == (first if confirmed else None), d


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

    again = run_from_manifest(manifest)
    assert events_of(again) == events_of(result)
    assert again.final == result.final
    assert again.ticks == result.ticks
    for d in result.traces:
        assert np.array_equal(again.traces[d], result.traces[d])

    _, ticks = read_runs_csv(tmp_path / "runs.csv", ["direction"])
    assert ticks == result.ticks


def test_run_from_a_config_without_a_script_raises(tmp_path):
    path = tmp_path / "run.ini"
    save_config(CONFIG, path)
    with pytest.raises(ValueError, match=re.escape(
            f"{path} has no [script] section")):
        run_from_manifest(path)


GRIDS_HEADER = ["move", "tick", "x", "y", "level"]


def csv_rows(path, header):
    """The rows under ``header`` of an all-integer CSV file."""
    with open(path, newline="") as fh:
        first, *rows = csv.reader(fh)
    assert first == header
    return [tuple(map(int, row)) for row in rows]


def sha256_of(paths):
    """SHA-256 of the files' bytes, concatenated in the given order."""
    return hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()


def test_emit_replaces_an_earlier_run(rig, tmp_path):
    # Two warnings and two moves, then none and five, then the first
    # again: each emit leaves exactly its own five files behind.
    warned = PathScript(name="warned", segments=(leg("E", 100), leg("E")))
    for script, n_warnings in ((warned, 2), (SCRIPTS["path3_loop"], 0),
                               (warned, 2)):
        result = harness.run_track(CONFIG, script, rig=rig)
        assert len(result.warnings) == n_warnings
        written = harness.emit(result, tmp_path, CONFIG, script)
        assert len(written) == 5
        assert sorted(tmp_path.iterdir()) == sorted(written)
        assert len((tmp_path / "warnings.txt").read_text().splitlines()) \
            == n_warnings
        rows = csv_rows(tmp_path / "grids.csv", GRIDS_HEADER)
        moves = {move for move, *_ in rows}
        assert moves == set(range(len(result.trail)))


def test_emit_overwrites_its_own_files_and_leaves_the_rest(rig, tmp_path):
    # A directory an older version wrote keeps that version's traces.csv.
    stale = tmp_path / "traces.csv"
    stale.write_text("tick,E,N,W,S\n0,0,0,0,0\n")
    (tmp_path / "trail.csv").write_text("stale\n")
    script = SCRIPTS["path3_loop"]
    result = harness.run_track(CONFIG, script, rig=rig)
    written = harness.emit(result, tmp_path, CONFIG, script)
    assert sorted(tmp_path.iterdir()) == sorted(written + [stale])
    assert stale.read_text() == "tick,E,N,W,S\n0,0,0,0,0\n"
    assert (tmp_path / "trail.csv").read_text().startswith("tick,")


# SHA-256 of each seed-0 run's grid_000.csv, grid_001.csv, ... (one
# activity matrix per trail row, written by write_grid_csv), concatenated
# in name order, as emit wrote them before grids.csv replaced them.
MEANDER_GRIDS_SHA256 = \
    "0e38ab46faa3e641a31c0b2c43c236caa7f669c333dad92c885d8c7520dc002e"
OLD_GRIDS_SHA256 = {
    "timed":
        "b9aefd3586dc4042cc1e30a2914aa96daf9b1d77ec0a9e524e455e76709fd0e2",
    "path1_meander": MEANDER_GRIDS_SHA256,
    "path2_detour":
        "0dd9e100c06d18c9dcf8083ef08696716c8811aafa4246445be09eaa3efe7031",
    "path3_loop":
        "899d8a591dbfe7d69cc30abd97be6e4bf44cb66e97cefe13bcbb8994511a0b18",
    "repeats":
        "e4a09e2477e7744fb920ea554c4c0fe48cb90d4795bb512837d838065bcbac23",
}


def test_emitted_grids_seed0_bit_for_bit(rig, tmp_path):
    # grids.csv loses nothing: grid_matrix of each move's rows, written
    # one matrix per file, rebuilds every old grid file of each run.
    scripts = {"timed": TIMED, **SCRIPTS, "repeats": REPEATS}
    for name, expected in OLD_GRIDS_SHA256.items():
        result = harness.run_track(CONFIG, scripts[name], rig=rig)
        harness.emit(result, tmp_path / name, CONFIG, scripts[name])
        rows = csv_rows(tmp_path / name / "grids.csv", GRIDS_HEADER)
        moves = defaultdict(list)
        for move, tick, x, y, level in rows:
            assert tick == result.trail[move][0]
            moves[move].append(((x, y), level))
        assert list(moves) == list(range(len(result.trail)))
        grid = tmp_path / "grid.csv"
        digest = hashlib.sha256()
        for levels in moves.values():
            write_grid_csv(grid, place_grid.grid_matrix(levels,
                                                        CONFIG.grid_size))
            digest.update(grid.read_bytes())
        assert digest.hexdigest() == expected, name


# The files emit and write_field_map_csv wrote before runs.csv replaced
# traces.csv, and which stay byte for byte: SHA-256 of the seed-0 TIMED
# run's trail.csv and warnings.txt followed by the first_fire.csv of the
# seed-0 full field map at velocity (0.25, 0).  Then the run's grids.csv
# and runs.csv and the map's runs.csv on their own; the map's runs.csv
# less its session row, its last line, is the one written before the
# session row was added.
EMITTED_SHA256 = \
    "97be1647c53b7341ec002bfa2e0131860eb52ffa1e92912659c700543654a942"
TIMED_GRIDS_CSV_SHA256 = \
    "86bc29a62abfa33340bf120423aff7adedf434a16bc80c16247fbf3dc04e4ab6"
TIMED_RUNS_CSV_SHA256 = \
    "211eca411a7633fe65e546a807b1e0bd92ed836931a88adc617ef84692526e16"
FIELD_MAP_RUNS_CSV_SHA256 = \
    "f78b02e4e8091753f3d2a5247a8fbbb682b79cf96cf48bfae282c61f6252f771"
OLD_FIELD_MAP_RUNS_CSV_SHA256 = \
    "26e6442b68ebff88c35f5f05aa46e9b8592ea16c0293e1bf3eb0d6ec509c3066"
UNCHANGED = ("trail.csv", "warnings.txt")


def test_emitted_files_seed0_bit_for_bit(rig, tmp_path):
    result = harness.run_track(CONFIG, TIMED, rig=rig)
    written = harness.emit(result, tmp_path / "timed", CONFIG, TIMED)
    assert [p.name for p in written] == [
        "manifest.ini", "trail.csv", "runs.csv", "grids.csv", "warnings.txt"]
    files = [p for p in written if p.name in UNCHANGED]
    mapped = harness.field_map(CONFIG, VelocityVector(0.25, 0.0), rig=rig)
    first_fire, runs = harness.write_field_map_csv(mapped, tmp_path / "map")
    assert sha256_of(files + [first_fire]) == EMITTED_SHA256
    assert sha256_of([tmp_path / "timed" / "grids.csv"]) \
        == TIMED_GRIDS_CSV_SHA256
    assert sha256_of([tmp_path / "timed" / "runs.csv"]) \
        == TIMED_RUNS_CSV_SHA256
    assert sha256_of([runs]) == FIELD_MAP_RUNS_CSV_SHA256
    *lines, session = runs.read_bytes().splitlines(keepends=True)
    assert session == b",,0,2829\r\n"
    assert hashlib.sha256(b"".join(lines)).hexdigest() \
        == OLD_FIELD_MAP_RUNS_CSV_SHA256


def emitted_digests(scripts, rig, outdir):
    """SHA-256 of the seed-0 trail.csv and warnings.txt of each script in
    turn, in name order within each, of their grids.csv files in turn and
    of their runs.csv files in turn."""
    files, grids, runs = [], [], []
    for script in scripts:
        result = harness.run_track(CONFIG, script, rig=rig)
        harness.emit(result, outdir / script.name, CONFIG, script)
        files += [outdir / script.name / name for name in UNCHANGED]
        grids.append(outdir / script.name / "grids.csv")
        runs.append(outdir / script.name / "runs.csv")
    return sha256_of(files), sha256_of(grids), sha256_of(runs)


# emitted_digests of the three built-in scripts in name order, and of
# REPEATS.
BUILT_IN_EMITTED_SHA256 = (
    "3060013ce4847821f6f593c60224b5b9462384dae65444053da962d6255c1e28",
    "21190cb837ddab36e5620d1fe0b0985f8e1fedfe322be80d31a5def0e2851d68",
    "623ecdea1608c917aab4b9f6de07371642976dd8a63751b2a91be00f1a99d761")
REPEATS_EMITTED_SHA256 = (
    "a3f0c9da3cd1fc3f28e7968998c06eda5cd284a6add8c84929d344de8f66d686",
    "19513004c12ff08e02158a106987ed343aefa75ffdd8ccb2971f478d509c8362",
    "02e15735d375af25b7b2c6524eda87ecd0470af3b72a1c8e90a810c11531a18c")


def test_emitted_built_in_scripts_seed0_bit_for_bit(rig, tmp_path):
    scripts = [SCRIPTS[name] for name in sorted(SCRIPTS)]
    assert emitted_digests(scripts, rig, tmp_path) == BUILT_IN_EMITTED_SHA256


def test_emitted_repeated_headings_seed0_bit_for_bit(rig, tmp_path):
    assert emitted_digests([REPEATS], rig, tmp_path) == REPEATS_EMITTED_SHA256


# SHA-256 of the traces.csv emit wrote for each seed-0 run before runs.csv
# replaced it: one tick,E,N,W,S row per tick.
OLD_TRACES_SHA256 = {
    "timed":
        "01316dbe8e28d2fee2b16329e5e1a06e71666c4f9511f29ad37a911d9ebe9bea",
    "path1_meander":
        "64aa613dd99029087324d56d4dad494e9b1dca8d149965c9dfb21276af4c5e52",
    "path2_detour":
        "8de164b72d0f9ebbd98d5174bdd3876fe1e0ed3c689af458ff3c80c36fd39ba6",
    "path3_loop":
        "1c82c28df13841e389c77466b7342f5ee47d884a8ab9566171dcc70a76e39f0b",
    "repeats":
        "982372c4bb7c7139005dc22130da12dccbccdbac01b4cc17b096ae58fd5e5258",
}


def test_runs_csv_rebuilds_the_old_traces_files(rig, tmp_path):
    # runs.csv loses nothing: each direction's runs filled into bits over
    # the session row's ticks, written one row a tick, rebuild every old
    # traces.csv of each run from the file alone.
    scripts = {"timed": TIMED, **SCRIPTS, "repeats": REPEATS}
    for name, expected in OLD_TRACES_SHA256.items():
        result = harness.run_track(CONFIG, scripts[name], rig=rig)
        harness.emit(result, tmp_path / name, CONFIG, scripts[name])
        runs, ticks = read_runs_csv(tmp_path / name / "runs.csv",
                                    ["direction"])
        # Directions in DIRECTIONS order, runs in tick order.
        assert list(runs) == [(d,) for d in DIRECTION_DELTA if (d,) in runs]
        assert all(r == sorted(r) for r in runs.values())
        traces = {d: fill_runs(runs.get((d,), ()), ticks)
                  for d in DIRECTION_DELTA}
        write_traces_csv(tmp_path / "traces.csv", traces, ticks)
        assert sha256_of([tmp_path / "traces.csv"]) == expected, name


def streams_of_length(n):
    return st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                    max_size=4)


@settings(max_examples=200, deadline=None)
@given(n_streams=st.integers(0, 300).flatmap(
    lambda n: st.tuples(st.just(n), streams_of_length(n))))
@example(n_streams=(0, []))
@example(n_streams=(0, [[], []]))
@example(n_streams=(5, [[1] * 5, [1] * 5]))
@example(n_streams=(7, [[1, 1, 0, 1, 0, 0, 1], [0] * 7]))   # both ends
def test_write_runs_csv_round_trips(tmp_path_factory, n_streams):
    # Reading a run list back rebuilds every stream and its length exactly.
    n, streams = n_streams
    path = tmp_path_factory.getbasetemp() / "runs.csv"
    keyed = {(i, f"s{i}"): np.array(bits, dtype=np.uint8)
             for i, bits in enumerate(streams)}
    assert harness.write_runs_csv(path, ("i", "name"), keyed, n) == path
    runs, ticks = read_runs_csv(path, ["i", "name"])
    assert ticks == n
    for (i, name), bits in keyed.items():
        rebuilt = fill_runs(runs.get((str(i), name), ()), ticks)
        assert rebuilt.tolist() == bits.tolist(), i


# SHA-256 of the seed-0 full field map's occupancy_<tick>.csv files at
# velocity (0.25, 0), concatenated in name order, as write_field_map_csv
# wrote them every 64 ticks (45 files; the old CLI default) and every
# tick (2,829 files) before runs.csv replaced them.
OLD_OCCUPANCY_SHA256 = {
    64: "4c09f1bc1a0d7e9bf28158d3a61f2a1805578fbcd4f96113ff8e5ec1dd1aca90",
    1: "c0f2d6e01c577ea5e8503dd2915e07ca14a2712ac0ccfc65b89d2a9f7bdaa288",
}


def test_runs_csv_rebuilds_the_old_occupancy_files(rig, tmp_path):
    # runs.csv loses nothing: each cell's runs filled into bits over the
    # session row's ticks rebuild its outputs exactly, and the occupancy of
    # those bits, written one matrix per file, every old occupancy file.
    mapped = harness.field_map(CONFIG, VelocityVector(0.25, 0.0), rig=rig)
    harness.write_field_map_csv(mapped, tmp_path)
    runs, n = read_runs_csv(tmp_path / "runs.csv", ["x", "y"])
    runs = {(int(x), int(y)): r for (x, y), r in runs.items()}
    # Cells in first_fire order, runs in tick order.
    assert list(runs) == [cell for cell in mapped.cells if cell in runs]
    assert all(cell_runs == sorted(cell_runs) for cell_runs in runs.values())
    assert n == mapped.session_ticks
    for cell, bits in mapped.outputs.items():
        assert np.array_equal(fill_runs(runs.get(cell, ()), n), bits), cell
    rebuilt = harness.FieldMapResult(
        session_ticks=n, first_fire=mapped.first_fire,
        outputs={cell: fill_runs(r, n) for cell, r in runs.items()})
    path = tmp_path / "occupancy.csv"
    for stride, expected in OLD_OCCUPANCY_SHA256.items():
        digest = hashlib.sha256()
        for tick in range(0, n, stride):
            write_grid_csv(path, occupancy(rebuilt, tick, CONFIG.grid_size))
            digest.update(path.read_bytes())
        assert digest.hexdigest() == expected, stride


def test_occupancy_puts_cell_x_y_at_row_half_minus_y_column_x_plus_half():
    bits = np.zeros(4, dtype=np.uint8)
    bits[2] = 1
    result = harness.FieldMapResult(
        session_ticks=4, first_fire={(2, -1): 2, (-1, 0): None},
        outputs={(2, -1): bits, (-1, 0): np.zeros(4, dtype=np.uint8)})
    expected = np.zeros((5, 5), dtype=int)
    expected[2 - (-1), 2 + 2] = 1
    assert np.array_equal(occupancy(result, 2, 5), expected)
    assert not occupancy(result, 1, 5).any()
    assert not occupancy(result, 4, 5).any()   # past the end of the session
    with pytest.raises(ValueError, match="tick -1"):
        occupancy(result, -1, 5)   # would read the last tick, bits[-1]


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

    harness.write_field_map_csv(result, tmp_path)
    with open(tmp_path / "first_fire.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "first_fire_tick", "compile_error"]
    failed = {(int(x), int(y)): cause for x, y, _, cause in rows[1:] if cause}
    assert failed == result.failed
    # A failed cell has no outputs, so no runs.
    runs, _ = read_runs_csv(tmp_path / "runs.csv", ["x", "y"])
    ran = {(int(x), int(y)) for x, y in runs}
    assert ran and not ran & set(result.failed)


def test_field_map_without_a_compiled_cell_decodes_no_columns(rig,
                                                              monkeypatch):
    shapes = []
    original = harness.scan_frames

    def recorded(*args, **kwargs):
        frames = original(*args, **kwargs)
        shapes.append(frames.shape)
        return frames

    monkeypatch.setattr(harness, "scan_frames", recorded)
    targets = [(-1, -1), (1, -1)]
    result = harness.field_map(CONFIG, VelocityVector(0.25, 0.0),
                               targets=targets, rig=rig)
    assert list(result.failed) == targets and result.outputs == {}
    assert result.first_fire == dict.fromkeys(targets)
    # The chip still ran the session: its phases moved on.
    assert shapes == [(result.session_ticks, 0)] and rig.chip.phases.any()


def test_field_map_compiles_each_repeated_target_once(rig, monkeypatch,
                                                    tmp_path):
    compiled = []
    original = harness.compile_lookup

    def counted(pairing, target, *args, **kwargs):
        compiled.append(target)
        return original(pairing, target, *args, **kwargs)

    monkeypatch.setattr(harness, "compile_lookup", counted)
    result = harness.field_map(CONFIG, VelocityVector(0.25, 0.0),
                               targets=[(1, 0), (1, 0), (0, 1), (1, 0)],
                               session_ticks=400, rig=rig)
    assert len(compiled) == 2
    assert result.cells == [(1, 0), (0, 1)]
    assert result.first_fire[(1, 0)] == 194
    harness.write_field_map_csv(result, tmp_path)
    with open(tmp_path / "first_fire.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [(int(x), int(y)) for x, y, _, _ in rows[1:]] == [(1, 0), (0, 1)]


def test_write_field_map_csv_replaces_an_earlier_map(tmp_path):
    # A map with a run, then one without: each write leaves exactly its
    # own two files behind.
    bits = np.zeros(256, dtype=np.uint8)
    bits[10:20] = 1
    for ff, out, n_runs in ((10, bits, 1), (None, 0 * bits, 0)):
        result = harness.FieldMapResult(
            session_ticks=256, first_fire={(0, 0): ff},
            outputs={(0, 0): out})
        written = harness.write_field_map_csv(result, tmp_path)
        assert [p.name for p in written] == ["first_fire.csv", "runs.csv"]
        assert sorted(tmp_path.iterdir()) == sorted(written)
        runs, ticks = read_runs_csv(tmp_path / "runs.csv", ["x", "y"])
        assert sum(map(len, runs.values())) == n_runs and ticks == 256


@pytest.mark.parametrize("seed", [0, 3])
def test_field_map_and_run_track_agree_on_the_first_pulse(rig, seed):
    # A one-cell field map over an until-pulse segment's session fires at
    # the tick the tracking run reports, less the hold that opens its trail.
    config = replace(CONFIG, seed=seed)
    if seed:
        rig = harness.build_rig(config)
    budget = math.ceil(harness.BUDGET_FACTOR
                       * math.ceil(config.cell_seconds * rig.fs))
    ticks = {}
    for d, delta in DIRECTION_DELTA.items():
        mapped = harness.field_map(config, cardinal_velocity(d, config.speed),
                                   targets=[delta], session_ticks=budget,
                                   rig=rig)
        script = PathScript(name=d, segments=(leg(d),))
        tracked = harness.run_track(config, script, rig=rig)
        ticks[d] = mapped.first_fire[delta]
        assert events_of(tracked) == [(d, ticks[d] + config.hold_ticks)]
    if seed == 0:
        assert ticks["E"] == 194


def test_compile_lookup_matches_closed_form_phase_shift(rig, monkeypatch):
    # For the pair the compiler corrects, the tap rounding residual is
    # the closed-form shift's distance to the nearest tap.
    fit = {f.unit: f for f in rig.fits}
    pairing = rig.pairing
    rng = np.random.default_rng(1)
    worst = 0.0
    monkeypatch.setattr(vector_net, "MIN_ACTIVE_GROUPS", 0)
    for _ in range(200):
        target = TargetLocation(float(rng.uniform(0.0, 0.02)),
                                float(rng.uniform(-math.pi, math.pi)))
        mux = compile_lookup(pairing, target, CONFIG.speed)
        x_active = abs(math.cos(target.theta)) >= abs(math.sin(target.theta))
        for g in range(pairing.n_groups):
            j = g if x_active else pairing.n_groups + g
            unit_a, unit_b = pairing.unit[:, j]
            code_a = PAIR_CODES[j // pairing.n_groups][0]
            pref_a = tuple(decode_velocity_code(c) for c in code_a)
            cell = effective_params(fit[unit_a], fit[unit_b],
                                    pref_a, (-pref_a[0], -pref_a[1]))
            ps = phase_shift(target, cell, CONFIG.speed)
            worst = max(worst, abs(mux.residuals[g]
                                   - min(ps, TAP_STEP - ps)))
    assert worst <= 1e-9


# SHA-256 of the lookup tables of the 121 default field-map cells of the
# seed-0 rig, row by row from (-5, -5): each cell's serialize_mux text, or
# "CompileError: <message>" and a newline for the 28 that do not compile.
FIELD_MUX_SHA256 = \
    "ffc49f75cb36fa0ff2dff18df3cdda3beb498a42599c236ff023e5aee78f8149"


def test_field_map_lookup_tables_seed0_bit_for_bit(rig):
    half = CONFIG.grid_size // 2
    texts = []
    for y in range(-half, half + 1):
        for x in range(-half, half + 1):
            target = TargetLocation.of_cell((x, y), CONFIG.pitch)
            try:
                texts.append(serialize_mux(rig.compile_target(target)))
            except CompileError as exc:
                texts.append(f"CompileError: {exc}\n")
    assert len(texts) == 121
    assert sum(t.startswith("CompileError") for t in texts) == 28
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == FIELD_MUX_SHA256


# SHA-256 of the compile residuals of the 121 default field-map cells,
# row by row from (-5, -5): each cell's repr(mux.residuals), or
# "CompileError: <message>", and a newline, per (population seed, speed).
# serialize_mux leaves the residuals out, so FIELD_MUX_SHA256 misses them.
RESIDUALS_SHA256 = {
    (0, 0.25):
        "adeed302a27835ec198388fafda3efa07528c84bae80588168d27412c26e3c07",
    (0, 1.0):
        "3d18383cdde1b7d954a56cf7f2db09f5a4a23f85039d5eae4ac69d88b16df7e7",
    (117, 0.25):
        "0ab0b4c09193d0f5ef69710dedfed95bc53dbf3e7f9655990ba62f1b43035e83",
    (117, 1.0):
        "39d58920dbe768795d95782e59b68d83c1a3fda443973890ce41dcf6540b2060",
}


@pytest.mark.parametrize("seed", [0, 117])
def test_field_map_compile_residuals_bit_for_bit(rig, seed):
    if seed != rig.config.seed:
        rig = harness.build_rig(replace(CONFIG, seed=seed))
    half = CONFIG.grid_size // 2
    digests = {}
    for speed in (0.25, 1.0):
        texts = []
        for y in range(-half, half + 1):
            for x in range(-half, half + 1):
                target = TargetLocation.of_cell((x, y), CONFIG.pitch)
                try:
                    mux = compile_lookup(rig.pairing, target, speed)
                    texts.append(repr(mux.residuals) + "\n")
                except CompileError as exc:
                    texts.append(f"CompileError: {exc}\n")
        digests[seed, speed] = hashlib.sha256(
            "".join(texts).encode()).hexdigest()
    assert digests == {key: digest for key, digest in RESIDUALS_SHA256.items()
                       if key[0] == seed}


# SHA-256 of the seed-0 full field map at velocity (0.25, 0): the output
# bits (uint8, one byte a tick) of each of the 93 compiled cells over the
# 2,829-tick session, concatenated in ``cells`` order.  It pins both node
# layers of the shared bank.
FIELD_MAP_BITS_SHA256 = \
    "fba772ad8e8eb4e77b1fe98578ea1c6ef30a1604c498d8fd636b786d5cfc3e53"


def test_field_map_output_bits_seed0_bit_for_bit(rig):
    result = harness.field_map(CONFIG, VelocityVector(0.25, 0.0), rig=rig)
    compiled = [c for c in result.cells if c in result.outputs]
    assert len(compiled) == 93 and result.session_ticks == 2829
    bits = b"".join(result.outputs[c].tobytes() for c in compiled)
    assert hashlib.sha256(bits).hexdigest() == FIELD_MAP_BITS_SHA256


def test_a_mux_routing_an_unscanned_partner_tap_does_not_compile(rig):
    # The tracking scan outputs only tap 0 of each pair's partner.
    mux = rig.networks["E"].mux
    partner, tap = mux.unit[1], mux.tap[1]
    assert tap == 0
    taps = mux.tap.copy()
    taps[1] = 3
    with pytest.raises(CompileError, match=re.escape(
            f"mux routes phase ({partner}, 3) that the scan does not output")):
        VectorNetwork(replace(mux, tap=taps), rig.frame_layout)


@pytest.mark.parametrize("seed", [0, 117])
def test_network_inputs_equal_the_per_slot_oracle(rig, seed):
    # The compiled cells' muxes, and two that route partner taps the
    # tracking scan does not output: one at the last slot, one at every
    # odd slot from slot 41, where the first such slot names the error.
    if seed != rig.config.seed:
        rig = harness.build_rig(replace(CONFIG, seed=seed))
    muxes = []
    for cell in [(1, 0), (0, 1), (-1, 0), (0, -1), (2, 3), (-4, 5), (5, -5),
                 (3, -1), (-2, -2), (4, 0)]:
        try:
            muxes.append(rig.compile_target(
                TargetLocation.of_cell(cell, CONFIG.pitch)))
        except CompileError:
            pass
    assert len(muxes) >= 6
    last, odd = muxes[0].tap.copy(), muxes[1].tap.copy()
    last[79] = 7
    odd[41::2] = 5
    muxes += [replace(muxes[0], tap=last), replace(muxes[1], tap=odd)]
    raised = 0
    for mux in muxes:
        try:
            want = routed_positions(mux, rig.frame_layout)
        except CompileError as exc:
            raised += 1
            with pytest.raises(CompileError) as got:
                VectorNetwork(mux, rig.frame_layout)
            assert str(got.value) == str(exc)
            continue
        net = VectorNetwork(mux, rig.frame_layout)
        assert net.input_pos.tolist() == want
        assert net.n_pairs == 40
    assert raised == 2


def test_rig_from_another_config_raises(rig):
    # The 0.0024-pitch rig under a 0.0048-pitch config would run the
    # wrong networks and end at a cell the manifest does not reproduce.
    other = replace(CONFIG, pitch=0.0048)
    with pytest.raises(ValueError, match="another config"):
        harness.run_track(other, SCRIPTS["path1_meander"], rig=rig)
    with pytest.raises(ValueError, match="another config"):
        harness.field_map(other, VelocityVector(0.25, 0.0), rig=rig)


@pytest.mark.parametrize("cell", [(-6, 0), (6, 0), (0, 6), (0, -6), (6, 6)])
def test_field_map_refuses_targets_off_the_grid(rig, monkeypatch, cell):
    compiled = []
    monkeypatch.setattr(harness, "compile_lookup",
                        lambda *args, **kwargs: compiled.append(args))
    with pytest.raises(ValueError, match=r"lie off the grid \(\|x\|, \|y\| <= 5\)"):
        harness.field_map(CONFIG, VelocityVector(-0.25, 0.0),
                          targets=[(0, 0), cell], rig=rig)
    assert compiled == []


@pytest.mark.parametrize("velocity", [VelocityVector(6.0, 0.0),
                                      VelocityVector(0.25, -4.5)])
def test_field_map_refuses_a_velocity_outside_the_linear_range(
        monkeypatch, velocity):
    calls = []
    for stage in ("build_rig", "compile_lookup"):
        monkeypatch.setattr(harness, stage,
                            lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=re.escape(
            f"velocity {tuple(velocity)} outside the linear range "
            f"[-4.0, 4.0]")):
        harness.field_map(CONFIG, velocity, targets=[(1, 0), (2, 0)])
    assert calls == []


# Counts that are not exactly an int: each would pass a range check and
# fail, or run, later.
NOT_INTS = [pytest.param(value, id=name) for name, value in (
    ("bool", True), ("float", 2.5), ("numpy_int", np.int64(3)), ("str", "3"))]


@pytest.mark.parametrize("ticks", NOT_INTS)
def test_field_map_refuses_a_non_int_session_before_compiling(
        rig, monkeypatch, ticks):
    compiled = []
    monkeypatch.setattr(harness, "compile_lookup",
                        lambda *args, **kwargs: compiled.append(args))
    with pytest.raises(ValueError, match="session_ticks must be an int"):
        harness.field_map(CONFIG, VelocityVector(0.25, 0.0), targets=[(1, 0)],
                          session_ticks=ticks, rig=rig)
    assert compiled == []


@pytest.mark.parametrize("n_seeds", NOT_INTS)
def test_sweep_refuses_a_non_int_seed_count_before_running(
        monkeypatch, n_seeds):
    runs = []
    monkeypatch.setattr(harness, "run_track",
                        lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ValueError, match="n_seeds must be an int"):
        harness.sweep_seeds(CONFIG, CRAWL, n_seeds)
    assert runs == []


def test_sweep_refuses_no_seeds_before_running(monkeypatch):
    runs = []
    monkeypatch.setattr(harness, "run_track",
                        lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ValueError, match="n_seeds must be >= 1, got 0"):
        harness.sweep_seeds(CONFIG, CRAWL, 0)
    assert runs == []
