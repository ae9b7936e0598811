"""Experiment orchestration: tracking runs, field maps, seed sweeps.

A tracking run wires the full pipeline together: sample a population,
calibrate it through the serial scan, admit and pair units, compile the
four cardinal vector-cell networks, then execute a path script.  Each
segment starts from a phase reset, so segments are independent
constant-velocity sessions; a debounced vector-cell pulse migrates the
place-cell bump and re-arms the reset, a velocity change re-arms it
without migrating.  A re-arm inside a segment starts the same session
again, so each segment's scan covers its tick budget once and is
replayed.  The causal filters read doubling prefixes of that scan and
stop at the first prefix that holds a confirmed pulse.
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
    PAIR_CODES,
    TAPS_PER_UNIT,
    ChipState,
    InsufficientUnitsError,
    UnitFit,
    calibrate,
    phase_rate,
    program,
    scan_frames,
    select_units,
    tap0_bypass,
)
from .config import PathScript, RunConfig, load_manifest, save_config
from .place_grid import (
    CAUSE_TRAIL_START,
    CAUSE_VECTOR_FIRE,
    CAUSE_VELOCITY_CHANGE,
    DIRECTION_DELTA,
    DIRECTIONS,
    OutOfBoundsError,
    PulseEvent,
)
from .theta_core import AliasingError, VelocityVector, sample_population
from .vector_net import (
    CompileError,
    MuxTable,
    NodeBank,
    Pairing,
    TargetLocation,
    VectorNetwork,
    compile_lookup,
    pair_layer1,
)

ALL_TAPS = (1,) * TAPS_PER_UNIT

# The tracking scan's clock (its 360 phases: each pair's routable member
# on all taps, the partner on tap 0), the high samples that confirm a
# pulse, the ticks every output reads low after a release, and the
# predicted arrivals an until-pulse segment waits before it fails.
TRACK_CLOCK_HZ = 10_000_000.0
DEBOUNCE_WIDTH = 3
SETTLE_TICKS = 32
BUDGET_FACTOR = 10.0


class SegmentTimeoutError(RuntimeError):
    """No vector cell fired within the segment's tick budget."""


# The errors a run raises when a population or a script cannot be tracked,
# which a seed sweep records as that seed's failure.
RUN_FAILURES = (SegmentTimeoutError, OutOfBoundsError, CompileError,
                InsufficientUnitsError, AliasingError)


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
        return compile_lookup(self.pairing, target, self.config.speed)

    def network(self, cell: tuple[int, int]) -> VectorNetwork:
        """Grid cell ``cell``'s network; CompileError if it does not compile."""
        target = TargetLocation.of_cell(cell, self.config.pitch)
        return VectorNetwork(self.compile_target(target), self.frame_layout)


def build_rig(config: RunConfig) -> TrackRig:
    """Calibrate, admit, pair, program and compile the cardinal networks.

    The tracking scan enables all eight phase taps on each pair's
    routable member and tap 0 on its partner, so every cardinal lookup
    table can be served from one shared scan frame.
    """
    population = sample_population(config.population, config.seed)
    chip = ChipState(population)
    fits = calibrate(chip)
    admitted = select_units(fits)
    pairing = pair_layer1(admitted)

    chip.hold()
    configs = []
    for j, (a, b) in enumerate(pairing.unit.T.tolist()):
        code_a, code_b = PAIR_CODES[j // pairing.n_groups]
        configs += [(a, code_a, ALL_TAPS), (b, code_b, tap0_bypass())]
    program(chip, configs)
    frame_layout = {pt: i for i, pt in enumerate(chip.enabled_taps())}
    fs = phase_rate(TRACK_CLOCK_HZ, chip.enabled_phases)

    rig = TrackRig(config=config, chip=chip, fits=fits, admitted=admitted,
                   pairing=pairing, frame_layout=frame_layout, networks={},
                   fs=fs)
    rig.networks = {d: rig.network(delta) for d, delta in DIRECTION_DELTA.items()}
    return rig


@dataclass
class TrackResult:
    """Everything a tracking run produced.

    ``trail`` is the one record of the bump's path: a (0, "start", 0, 0)
    row, then a (tick, direction, x, y) row per pulse with the bump's new
    cell; ``events``, ``final`` and the emitted grids are read from it.
    ``traces`` holds each direction's network output on the trail tick
    axis: reset holds and the settle window after each release read 0,
    so ``traces[d][tick]`` is the output at ``tick`` and every trace is
    ``ticks`` long.
    """

    trail: list[tuple[int, str, int, int]] = field(
        default_factory=lambda: [(0, "start", 0, 0)])
    traces: dict[str, np.ndarray] = field(default_factory=dict)
    resets: list[tuple[int, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    ticks: int = 0
    diagnostics: dict = field(default_factory=dict)

    @property
    def events(self) -> list[PulseEvent]:
        return [PulseEvent(d, tick) for tick, d, _, _ in self.trail[1:]]

    @property
    def final(self) -> tuple[int, int]:
        return self.trail[-1][2:]


def _session(rig: TrackRig, velocity: VelocityVector, n: int) -> np.ndarray:
    """Scan frames of an n-tick constant-velocity session from reset."""
    rig.chip.hold()
    rig.chip.release()
    return scan_frames(rig.chip, velocity, n, TRACK_CLOCK_HZ)


def _observe(frames: np.ndarray, networks: dict) -> tuple[dict, dict]:
    """Each network's output bits over ``frames``, a session from reset,
    read through one node bank and held low for ``SETTLE_TICKS`` after
    the release, and the start tick of its first ``DEBOUNCE_WIDTH``
    debounced run, None without one.  The filters are causal and start
    cleared, so over a prefix ``frames[:m]`` the bits are the session's
    first m, and the first run is the session's first run when
    ``start + DEBOUNCE_WIDTH <= m``, else None."""
    bank = NodeBank(frames, networks.values())
    outputs, starts = {}, {}
    for key, network in networks.items():
        out = outputs[key] = network.run(frames, bank)
        out[:SETTLE_TICKS] = 0
        starts[key] = place_grid.debounce(out, DEBOUNCE_WIDTH)
    return outputs, starts


def run_track(config: RunConfig, script: PathScript,
              rig: Optional[TrackRig] = None) -> TrackResult:
    """Execute a path script and move the place-cell bump one cell per
    vector-cell pulse, recording each move in the trail.

    A reset zeroes every phase and filter, so every reset inside a
    segment starts the same session.  Each segment's session is scanned
    once from reset: for its ticks when timed, or for ``BUDGET_FACTOR``
    times the predicted arrival when until-pulse, failing loudly without
    a pulse.  The four cardinal networks filter prefixes of that scan,
    the predicted arrival first and then twice the last prefix, and stop
    at the first prefix that holds a confirmed pulse or at the whole
    scan; a prefix's bits and confirmed runs are the whole scan's, so
    this changes no output.  The earliest first-run start is the
    pulse, fired by every direction whose first run starts there (a run
    confirms at its ``DEBOUNCE_WIDTH``-th high sample, so later runs
    never confirm before the reset).  The session up to that pulse is
    replayed until the segment's ticks are spent, or once for an
    until-pulse segment: each repeat holds the outputs low for
    ``hold_ticks``, fires, and re-arms the reset.  A last repeat cut
    short of the pulse keeps its ticks and does not fire.  A ``rig``
    built from another config raises ValueError.

    Each segment opens with a reset: ``trail_start`` first, then
    ``vector_fire`` after a pulse, else ``velocity_change``, which warns
    when the velocity is unchanged or a moving segment's sub-cell
    displacement is discarded.
    """
    if rig is None:
        rig = build_rig(config)
    elif rig.config != config:
        raise ValueError("the rig was built from another config")
    result = TrackResult()
    traces: dict[str, list[np.ndarray]] = {d: [] for d in DIRECTIONS}
    hold = np.zeros(config.hold_ticks, dtype=np.uint8)
    arrival_ticks = int(math.ceil(config.cell_seconds * rig.fs))
    budget = int(math.ceil(BUDGET_FACTOR * arrival_ticks))

    tick = 0
    prev_velocity = VelocityVector(0.0, 0.0)
    pulse_pending = False
    for seg_index, seg in enumerate(script.segments):
        if seg_index == 0:
            cause = CAUSE_TRAIL_START
        elif pulse_pending:
            cause = CAUSE_VECTOR_FIRE
        else:
            cause = CAUSE_VELOCITY_CHANGE
            if seg.velocity == prev_velocity:
                result.warnings.append(f"segment {seg_index}: boundary "
                                       f"reset without velocity change")
            if prev_velocity.speed > 0:
                result.warnings.append(
                    f"segment {seg_index}: sub-cell displacement discarded "
                    f"on velocity change")
        result.resets.append((tick, cause))
        prev_velocity = seg.velocity

        n = budget if seg.until_pulse else seg.ticks
        frames = _session(rig, seg.velocity, n)
        m = min(n, arrival_ticks)
        while True:
            outputs, starts = _observe(frames[:m], rig.networks)
            if m == n or any(s is not None for s in starts.values()):
                break
            m = min(2 * m, n)
        start = min((s for s in starts.values() if s is not None),
                    default=None)
        fired = [d for d in DIRECTIONS if starts[d] == start]
        if start is None and seg.until_pulse:
            raise SegmentTimeoutError(
                f"segment {seg_index}: no pulse within {budget} "
                f"ticks ({BUDGET_FACTOR:g}x predicted arrival)")
        period = n if start is None else start + DEBOUNCE_WIDTH
        remaining = period if seg.until_pulse else n
        pulse_pending = False
        while remaining > 0:
            if pulse_pending:
                result.resets.append((tick, CAUSE_VECTOR_FIRE))
            tick += config.hold_ticks
            kept = min(remaining, period)
            for d in DIRECTIONS:
                traces[d].extend((hold, outputs[d][:kept]))
            pulse_pending = start is not None and kept == period
            if pulse_pending:
                for d in fired:
                    cell = place_grid.apply_pulse(
                        result.final, PulseEvent(d, tick + start),
                        config.grid_size)
                    result.trail.append((tick + start, d, *cell))
            tick += kept
            remaining -= kept

    result.ticks = tick
    result.traces = {d: np.concatenate([np.zeros(0, np.uint8), *chunks])
                     for d, chunks in traces.items()}
    result.diagnostics = {
        "admitted_units": len(rig.admitted),
        "dropped_groups": {d: list(rig.networks[d].mux.dropped)
                           for d in DIRECTIONS},
        "fs": rig.fs,
        "arrival_ticks": arrival_ticks,
    }
    return result


@dataclass
class FieldMapResult:
    """Per-cell vector-cell responses under one shared input.

    ``first_fire`` holds every requested cell's first debounced pulse
    tick, None if it never fired or did not compile.  ``failed`` maps
    each cell whose lookup table did not compile to the cause; such a
    cell has no outputs.
    """

    velocity: VelocityVector
    session_ticks: int
    cells: list[tuple[int, int]]
    first_fire: dict[tuple[int, int], Optional[int]]
    outputs: dict[tuple[int, int], np.ndarray]
    grid_size: int
    failed: dict[tuple[int, int], str] = field(default_factory=dict)

    def occupancy(self, tick: int) -> np.ndarray:
        """Grid snapshot of which designated cells read high at a tick."""
        return place_grid.grid_matrix(
            ((cell, 1) for cell, bits in self.outputs.items()
             if tick < bits.size and bits[tick]), self.grid_size)


def field_map(config: RunConfig, velocity: VelocityVector,
              targets: Optional[Sequence[tuple[int, int]]] = None,
              session_ticks: Optional[int] = None,
              rig: Optional[TrackRig] = None) -> FieldMapResult:
    """Recompile one network per designated grid cell and record when
    each fires during a single constant-velocity session from reset.

    Every cell's lookup table is compiled for the configured speed
    toward that cell; all compiled cells then observe one session, as
    the cardinal networks do in :func:`run_track`, through one node bank
    that filters each node they share once.  A cell whose table does not
    compile is recorded in ``failed``.  A target off the grid, a
    negative ``session_ticks`` or a ``rig`` built from another config
    raises ValueError.
    """
    if session_ticks is not None and session_ticks < 0:
        raise ValueError(f"session_ticks must be >= 0, got {session_ticks}")
    half = config.grid_size // 2
    if targets is None:
        targets = [(x, y) for y in range(-half, half + 1)
                   for x in range(-half, half + 1)]
    outside = [c for c in targets if max(map(abs, c)) > half]
    if outside:
        raise ValueError(f"targets {outside} lie off the grid (|x|, |y| <= {half})")
    if rig is None:
        rig = build_rig(config)
    elif rig.config != config:
        raise ValueError("the rig was built from another config")
    max_r = max((math.hypot(x, y) for x, y in targets), default=0.0)
    if session_ticks is None:
        session_ticks = int(math.ceil(
            1.5 * max(max_r, 1.0) * config.cell_seconds * rig.fs))

    networks, failed = {}, {}
    for cell in targets:
        try:
            networks[cell] = rig.network(cell)
        except CompileError as exc:
            failed[cell] = str(exc)
    frames = _session(rig, velocity, session_ticks)
    outputs, starts = _observe(frames, networks)
    return FieldMapResult(velocity=velocity, session_ticks=session_ticks,
                          cells=list(targets),
                          first_fire={c: starts.get(c) for c in targets},
                          outputs=outputs, grid_size=config.grid_size,
                          failed=failed)


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
    """Run the script over the n_seeds fresh populations of seeds
    config.seed, config.seed + 1, ... and score how many reach the
    script's expected final cell.  A seed whose run raises one of
    ``RUN_FAILURES`` is recorded as failed; any other error propagates."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    outcomes = []
    for seed in range(config.seed, config.seed + n_seeds):
        seeded = replace(config, seed=seed)
        try:
            result = run_track(seeded, script)
        except RUN_FAILURES as exc:
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
    """Write the run to disk: manifest, trail, traces, grid matrices and
    warnings (an empty file when there are none), replacing any earlier
    run's files in outdir.  ``grid_<i>.csv`` is the activity matrix after
    the trail's first i moves, rebuilt from the trail.

    The manifest records the full configuration (seed included), the
    script and the package, numpy and scipy versions; re-running from it
    with those versions reproduces the result bit for bit.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    manifest = outdir / "manifest.ini"
    save_config(config, manifest, script)
    written.append(manifest)

    trail_path = outdir / "trail.csv"
    place_grid.write_trail_csv(trail_path, result.trail)
    written.append(trail_path)

    traces_path = outdir / "traces.csv"
    table = np.column_stack([np.arange(result.ticks)]
                            + [result.traces[d] for d in DIRECTIONS])
    np.savetxt(traces_path, table, fmt="%d", delimiter=",", comments="",
               header="tick," + ",".join(DIRECTIONS))
    written.append(traces_path)

    for stale in outdir.glob("grid_*.csv"):
        stale.unlink()
    path = [(x, y) for _, _, x, y in result.trail]
    for i in range(len(path)):
        snap_path = outdir / f"grid_{i:03d}.csv"
        place_grid.write_grid_csv(
            snap_path, place_grid.snapshot(path[:i + 1], config.grid_size))
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
    with the compile failure of each failed cell, replacing any earlier
    map's occupancy files in outdir.  A ``stride`` below 1 raises
    ValueError before any file is written."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in outdir.glob("occupancy_*.csv"):
        stale.unlink()
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
        place_grid.write_grid_csv(occ_path, result.occupancy(tick))
        written.append(occ_path)
    return written
