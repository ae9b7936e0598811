"""Experiment orchestration: tracking runs, field maps, seed sweeps.

A tracking run wires the full pipeline together: sample a population,
calibrate it through the serial scan, admit and pair units, compile the
four cardinal vector-cell networks, then execute a path script.  Each
segment starts from a phase reset, so segments are independent
constant-velocity sessions; a debounced vector-cell pulse migrates the
place-cell bump and re-arms the reset, a velocity change re-arms it
without migrating.  A re-arm inside a segment starts the same session
again, so each segment is scanned once and replayed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import place_grid
from .chip_io import (
    ChipState,
    UnitFit,
    calibrate,
    program,
    scan_frames,
    select_units,
    tap0_bypass,
)
from .config import PathScript, RunConfig, load_manifest, save_config
from .place_grid import (
    CAUSE_VECTOR_FIRE,
    CAUSE_VELOCITY_CHANGE,
    PlaceGrid,
    PulseEvent,
    locate,
    reset_controller,
    write_grid_csv,
    write_trail_csv,
)
from .theta_core import VelocityVector, sample_population
from .vector_net import (
    CompileError,
    MuxTable,
    Pairing,
    TargetLocation,
    VectorNetwork,
    compile_lookup,
    pair_layer1,
)

DIRECTION_ORDER = ("E", "N", "W", "S")
DIRECTION_THETA = {"E": 0.0, "N": math.pi / 2, "W": math.pi, "S": -math.pi / 2}
ALL_TAPS = (1, 1, 1, 1, 1, 1, 1, 1)


class SegmentTimeoutError(RuntimeError):
    """No vector cell fired within the segment's tick budget."""


@dataclass
class TrackRig:
    """Calibrated chip plus the four compiled cardinal networks."""

    config: RunConfig
    chip: ChipState
    fits: list[UnitFit]
    admitted: list[UnitFit]
    pairing: Pairing
    frame_layout: dict[tuple[int, int], int]
    networks: dict[str, VectorNetwork]
    fs: float

    def compile_target(self, target: TargetLocation) -> MuxTable:
        return compile_lookup(
            self.pairing, self.fits, target, self.config.speed,
            tolerance=self.config.tap_tolerance,
            drift_tolerance=self.config.drift_tolerance,
            min_active_groups=self.config.min_active_groups)

    def network_for(self, mux: MuxTable) -> VectorNetwork:
        return VectorNetwork(mux, self.frame_layout, self.config.filters)


def build_rig(config: RunConfig) -> TrackRig:
    """Calibrate, admit, pair, program and compile the cardinal networks.

    The tracking scan enables all eight phase taps on each pair's
    routable member and tap 0 on its partner, so every cardinal lookup
    table can be served from one shared scan frame.
    """
    config.validate()
    population = sample_population(config.resolved_population())
    chip = ChipState(population)
    fits = calibrate(chip, config.calibration_clock_hz,
                     config.calibration_window_s)
    admitted = select_units(fits, config.admission_r2, config.network_units)
    pairing = pair_layer1(admitted, config.network_units)

    chip.hold()
    configs = []
    for p in pairing.pairs:
        configs.append((p.unit_a, p.code_a, ALL_TAPS))
        configs.append((p.unit_b, p.code_b, tap0_bypass()))
    program(chip, configs)
    frame_layout = {pt: i for i, pt in enumerate(chip.enabled_taps())}
    fs = config.scan_clock_hz / chip.enabled_phases

    rig = TrackRig(config=config, chip=chip, fits=fits, admitted=admitted,
                   pairing=pairing, frame_layout=frame_layout, networks={},
                   fs=fs)
    for direction in DIRECTION_ORDER:
        mux = rig.compile_target(
            TargetLocation(config.pitch, DIRECTION_THETA[direction]))
        rig.networks[direction] = rig.network_for(mux)
    return rig


@dataclass
class TrackResult:
    """Everything a tracking run produced.

    ``traces`` holds each direction's network output on the trail tick
    axis: reset holds read 0, so ``traces[d][tick]`` is the output at
    ``tick`` and every trace is ``ticks`` long.
    """

    events: list[PulseEvent] = field(default_factory=list)
    trail: list[tuple[int, str, int, int]] = field(default_factory=list)
    traces: dict[str, np.ndarray] = field(default_factory=dict)
    resets: list[tuple[int, str]] = field(default_factory=list)
    snapshots: list[np.ndarray] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    final: tuple[int, int] = (0, 0)
    ticks: int = 0
    diagnostics: dict = field(default_factory=dict)

    def check_invariants(self) -> None:
        counts = {d: 0 for d in DIRECTION_ORDER}
        for ev in self.events:
            counts[ev.direction] += 1
        expected = (counts["E"] - counts["W"], counts["N"] - counts["S"])
        if self.final != expected:
            raise AssertionError(
                f"displacement additivity violated: final {self.final}, "
                f"event counts give {expected}")


def _first_confirmed_pulse(outputs: dict[str, np.ndarray], width: int,
                           settle: int) -> tuple[Optional[int], list[str]]:
    """Earliest debounce-confirmed pulse across networks.

    Returns (run start tick, directions whose runs start there).  Output
    during the settle window after a reset release is ignored.  A run
    confirms at its width-th consecutive high sample, so runs starting
    later than the winner never reach confirmation before the reset.
    """
    starts: dict[str, int] = {}
    for direction, bits in outputs.items():
        masked = bits.copy()
        masked[:settle] = 0
        events = place_grid.debounce(masked, width)
        if events:
            starts[direction] = events[0]
    if not starts:
        return None, []
    first = min(starts.values())
    fired = [d for d in DIRECTION_ORDER if starts.get(d) == first]
    return first, fired


def _session(rig: TrackRig, velocity: VelocityVector, n: int) -> np.ndarray:
    """Scan frames of an n-tick constant-velocity session from reset."""
    rig.chip.hold()
    rig.chip.release()
    return scan_frames(rig.chip, velocity, n, rig.config.scan_clock_hz)


def run_track(config: RunConfig, script: PathScript,
              rig: Optional[TrackRig] = None) -> TrackResult:
    """Execute a path script and integrate vector-cell pulses on the grid.

    A reset zeroes every phase and filter, so every reset inside a
    segment starts the same session.  Each segment is scanned and
    filtered once from reset: for its ticks when timed, or for
    ``budget_factor`` times the predicted arrival when until-pulse,
    failing loudly without a pulse.  That session up to its first
    confirmed pulse is then replayed until the segment's ticks are
    spent, or once for an until-pulse segment: each repeat holds the
    outputs low for ``hold_ticks``, fires, and re-arms the reset.  A
    last repeat cut short of the pulse keeps its ticks and does not fire.
    """
    script.validate()
    if rig is None:
        rig = build_rig(config)
    grid = PlaceGrid(config.grid_size, config.grid_size)
    result = TrackResult()
    result.trail.append((0, "start", 0, 0))
    result.snapshots.append(grid.snapshot())
    traces: dict[str, list[np.ndarray]] = {d: [] for d in DIRECTION_ORDER}
    hold = np.zeros(config.hold_ticks, dtype=np.uint8)
    arrival_ticks = int(math.ceil(config.cell_seconds * rig.fs))
    budget = int(math.ceil(config.budget_factor * arrival_ticks))

    tick = 0
    prev_velocity = VelocityVector(0.0, 0.0)
    pulse_pending = False
    for seg_index, seg in enumerate(script.segments):
        cause = reset_controller(prev_velocity, seg.velocity, pulse_pending,
                                 trail_start=(seg_index == 0))
        if cause is None:
            # Same velocity and no pulse: still re-arm, segments are
            # defined to start from a known phase.
            cause = CAUSE_VELOCITY_CHANGE
            result.warnings.append(
                f"segment {seg_index}: boundary reset without velocity change")
        if cause == CAUSE_VELOCITY_CHANGE and prev_velocity.speed > 0:
            result.warnings.append(
                f"segment {seg_index}: sub-cell displacement discarded on "
                f"velocity change")
        result.resets.append((tick, cause))
        prev_velocity = seg.velocity

        n = budget if seg.until_pulse else seg.ticks
        frames = _session(rig, seg.velocity, n)
        outputs = {d: rig.networks[d].run(frames) for d in DIRECTION_ORDER}
        start, fired = _first_confirmed_pulse(
            outputs, config.debounce_width, config.settle_ticks)
        if start is None and seg.until_pulse:
            raise SegmentTimeoutError(
                f"segment {seg_index}: no pulse within {budget} "
                f"ticks ({config.budget_factor:g}x predicted arrival)")
        period = n if start is None else start + config.debounce_width
        remaining = period if seg.until_pulse else n
        pulse_pending = False
        while remaining > 0:
            if pulse_pending:
                result.resets.append((tick, CAUSE_VECTOR_FIRE))
            tick += config.hold_ticks
            kept = min(remaining, period)
            for d in DIRECTION_ORDER:
                traces[d].extend((hold, outputs[d][:kept]))
            pulse_pending = start is not None and kept == period
            if pulse_pending:
                for d in fired:
                    grid = _apply_event(grid, PulseEvent(d, tick + start),
                                        result)
            tick += kept
            remaining -= kept

    result.final = locate(grid)
    result.ticks = tick
    result.traces = {
        d: (np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8))
        for d, chunks in traces.items()
    }
    result.diagnostics = {
        "admitted_units": len(rig.admitted),
        "dropped_groups": {d: list(rig.networks[d].mux.dropped)
                           for d in DIRECTION_ORDER},
        "fs": rig.fs,
        "arrival_ticks": arrival_ticks,
    }
    result.check_invariants()
    return result


def _apply_event(grid: PlaceGrid, event: PulseEvent,
                 result: TrackResult) -> PlaceGrid:
    grid = place_grid.apply_pulse(grid, event)
    result.events.append(event)
    x, y = locate(grid)
    result.trail.append((event.tick, event.direction, x, y))
    result.snapshots.append(grid.snapshot())
    return grid


@dataclass
class FieldMapResult:
    """Per-cell vector-cell responses under one shared input.

    ``failed`` maps each cell whose lookup table did not compile to the
    cause; such a cell has ``first_fire`` None and no events or outputs.
    """

    velocity: VelocityVector
    session_ticks: int
    cells: list[tuple[int, int]]
    first_fire: dict[tuple[int, int], Optional[int]]
    events: dict[tuple[int, int], list[int]]
    outputs: dict[tuple[int, int], np.ndarray]
    grid_size: int
    failed: dict[tuple[int, int], str] = field(default_factory=dict)

    def occupancy(self, tick: int) -> np.ndarray:
        """Grid snapshot of which designated cells read high at a tick."""
        half = self.grid_size // 2
        occ = np.zeros((self.grid_size, self.grid_size), dtype=np.uint8)
        for (x, y), bits in self.outputs.items():
            if tick < bits.size and bits[tick]:
                occ[half - y, x + half] = 1
        return occ


def field_map(config: RunConfig, velocity: VelocityVector,
              targets: Optional[Sequence[tuple[int, int]]] = None,
              session_ticks: Optional[int] = None,
              rig: Optional[TrackRig] = None) -> FieldMapResult:
    """Recompile one network per designated grid cell and record when
    each fires during a single constant-velocity session from reset.

    Every cell's lookup table is compiled for the configured speed
    toward that cell; all cells then observe the same scanned input.  A
    cell whose table does not compile is recorded in ``failed``.
    """
    config.validate()
    if rig is None:
        rig = build_rig(config)
    half = config.grid_size // 2
    if targets is None:
        targets = [(x, y) for y in range(-half, half + 1)
                   for x in range(-half, half + 1)]
    max_r = max((math.hypot(x, y) for x, y in targets), default=0.0)
    if session_ticks is None:
        session_ticks = int(math.ceil(
            1.5 * max(max_r, 1.0) * config.cell_seconds * rig.fs))

    frames = _session(rig, velocity, session_ticks)

    result = FieldMapResult(velocity=velocity, session_ticks=session_ticks,
                            cells=list(targets), first_fire={}, events={},
                            outputs={}, grid_size=config.grid_size)
    for cell in targets:
        x, y = cell
        target = TargetLocation(config.pitch * math.hypot(x, y),
                                math.atan2(y, x))
        try:
            mux = rig.compile_target(target)
        except CompileError as exc:
            result.failed[cell] = str(exc)
            result.first_fire[cell] = None
            continue
        out = rig.network_for(mux).run(frames)
        out[:config.settle_ticks] = 0
        result.outputs[cell] = out
        evs = place_grid.debounce(out, config.debounce_width)
        result.events[cell] = evs
        result.first_fire[cell] = evs[0] if evs else None
    return result


@dataclass
class SeedOutcome:
    seed: int
    ok: bool
    final: Optional[tuple[int, int]]
    cause: str
    n_events: int


@dataclass
class SweepResult:
    outcomes: list[SeedOutcome]

    @property
    def success_fraction(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(1 for o in self.outcomes if o.ok) / len(self.outcomes)


def sweep_seeds(config: RunConfig, script: PathScript,
                n_seeds: int) -> SweepResult:
    """Run the script over n_seeds fresh populations and score how many
    reach the script's expected final cell.  Individual failures are
    recorded per seed, never fatal."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    base = config.seed if config.seed is not None else config.population.seed
    outcomes = []
    for i in range(n_seeds):
        seed = base + i
        seeded = replace(config, seed=seed)
        try:
            result = run_track(seeded, script)
        except Exception as exc:
            outcomes.append(SeedOutcome(seed=seed, ok=False, final=None,
                                        cause=f"{type(exc).__name__}: {exc}",
                                        n_events=0))
            continue
        if script.expected_final is None:
            ok, cause = True, "completed"
        else:
            ok = result.final == script.expected_final
            cause = "reached target" if ok else (
                f"ended at {result.final}, expected {script.expected_final}")
        outcomes.append(SeedOutcome(seed=seed, ok=ok, final=result.final,
                                    cause=cause, n_events=len(result.events)))
    return SweepResult(outcomes=outcomes)


def emit(result: TrackResult, outdir, config: RunConfig,
         script: PathScript) -> list[Path]:
    """Write the run to disk: manifest, trail, traces, grid snapshots and
    warnings (an empty file when there are none), replacing any earlier
    run's files in outdir.

    The manifest records the full configuration (seed included), the
    script and the package version; re-running from it reproduces the
    result bit for bit.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    manifest = outdir / "manifest.ini"
    save_config(config, manifest, script)
    written.append(manifest)

    trail_path = outdir / "trail.csv"
    write_trail_csv(trail_path, result.trail)
    written.append(trail_path)

    traces_path = outdir / "traces.csv"
    table = np.column_stack([np.arange(result.ticks)]
                            + [result.traces[d] for d in DIRECTION_ORDER])
    np.savetxt(traces_path, table, fmt="%d", delimiter=",", comments="",
               header="tick," + ",".join(DIRECTION_ORDER))
    written.append(traces_path)

    for stale in outdir.glob("grid_*.csv"):
        stale.unlink()
    for i, snap in enumerate(result.snapshots):
        snap_path = outdir / f"grid_{i:03d}.csv"
        write_grid_csv(snap_path, snap)
        written.append(snap_path)

    warn_path = outdir / "warnings.txt"
    warn_path.write_text("".join(w + "\n" for w in result.warnings))
    written.append(warn_path)
    return written


def run_from_manifest(path) -> TrackResult:
    """Re-run the tracking run whose manifest :func:`emit` wrote."""
    config, script = load_manifest(path)
    if script is None:
        raise ValueError(f"{path} has no [script] section")
    return run_track(config, script)


def write_field_map_csv(result: FieldMapResult, outdir,
                        stride: int = 64) -> list[Path]:
    """Occupancy matrices every ``stride`` ticks plus first-fire times,
    with the compile failure of each failed cell."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    ff_path = outdir / "first_fire.csv"
    with open(ff_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "first_fire_tick", "compile_error"])
        for cell in result.cells:
            ff = result.first_fire[cell]
            writer.writerow([cell[0], cell[1], "" if ff is None else ff,
                             result.failed.get(cell, "")])
    written.append(ff_path)
    for tick in range(0, result.session_ticks, stride):
        occ_path = outdir / f"occupancy_{tick:06d}.csv"
        write_grid_csv(occ_path, result.occupancy(tick))
        written.append(occ_path)
    return written
