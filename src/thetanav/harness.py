"""Experiment orchestration: tracking runs, field maps, seed sweeps.

A tracking run wires the full pipeline together: sample a population,
calibrate it through the serial scan, admit and pair units, compile the
four cardinal vector-cell networks, then execute a path script.  Each
segment starts from a phase reset, so segments are independent
constant-velocity sessions; a debounced vector-cell pulse migrates the
place-cell bump and re-arms the reset, a velocity change re-arms it
without migrating.  A session from reset depends only on the rig, the
velocity and its length, so each distinct (velocity, ticks) session is
scanned and filtered once per run and replayed, by re-arms inside a
segment and by later segments alike.

Tracking sessions and field maps observe a session the same way: the
networks' node layout names the frame positions they read, the host
decodes only those (the chip still shifts out every enabled tap, which
sets the per-phase rate fs and the aliasing check), and the scan
streams through one cleared node bank on the layout in blocks that end
at a first block end, twice that and so on, stopping at the first block
end by which a pulse confirms, so each tick is filtered at most once.
A tracking session's first block ends at the predicted arrival, on the
cardinal networks' layout that the rig builds once; a field map's ends
at the whole session, on a layout of the cells it compiles.
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
from .config import PathScript, RunConfig, require_linear, save_config
from .place_grid import (
    CAUSE_TRAIL_START,
    CAUSE_VECTOR_FIRE,
    CAUSE_VELOCITY_CHANGE,
    DIRECTION_DELTA,
    DIRECTIONS,
    OutOfBoundsError,
    PulseEvent,
)
from .theta_core import (AliasingError, VelocityVector, require_int,
                         sample_population)
from .vector_net import (
    CompileError,
    MuxTable,
    NodeBank,
    NodeLayout,
    Pairing,
    TargetLocation,
    VectorNetwork,
    compile_lookup,
    pair_layer1,
)

ALL_TAPS = (1,) * TAPS_PER_UNIT

# The tracking scan's clock (its 360 phases: each pair's routable member
# on all taps, the partner on tap 0), the high samples that confirm a
# pulse, and the predicted arrivals an until-pulse segment waits before
# it fails.
TRACK_CLOCK_HZ = 10_000_000.0
DEBOUNCE_WIDTH = 3
BUDGET_FACTOR = 10.0


class SegmentTimeoutError(RuntimeError):
    """No vector cell fired within the segment's tick budget."""


# The errors a run raises when a population or a script cannot be tracked,
# which a seed sweep records as that seed's failure.
RUN_FAILURES = (SegmentTimeoutError, OutOfBoundsError, CompileError,
                InsufficientUnitsError, AliasingError)


@dataclass
class TrackRig:
    """Calibrated chip plus the four compiled cardinal networks.

    ``frame_layout`` is an int [n_units, 8] array of each (unit, tap)'s
    position within a tracking scan frame, -1 at a disabled tap.
    Construction compiles ``networks``, the cardinal networks by
    direction, and lays out their nodes once in ``layout``; every
    tracking session streams its scan through a cleared bank on it.
    """

    config: RunConfig
    chip: ChipState
    fits: list[UnitFit]
    pairing: Pairing
    frame_layout: np.ndarray
    fs: float
    networks: dict[str, VectorNetwork] = field(init=False)
    layout: NodeLayout = field(init=False)

    def __post_init__(self):
        self.networks = {d: self.network(delta)
                         for d, delta in DIRECTION_DELTA.items()}
        self.layout = NodeLayout(self.networks.values())

    def compile_target(self, target: TargetLocation) -> MuxTable:
        return compile_lookup(self.pairing, target, self.config.speed)

    def network(self, cell: tuple[int, int]) -> VectorNetwork:
        """Grid cell ``cell``'s network; CompileError if it does not compile."""
        target = TargetLocation.of_cell(cell, self.config.pitch)
        return VectorNetwork(self.compile_target(target), self.frame_layout)


def build_rig(config: RunConfig) -> TrackRig:
    """Calibrate, admit, pair, program and compile the cardinal networks,
    and lay out their nodes.

    The tracking scan enables all eight phase taps on each pair's
    routable member and tap 0 on its partner, so every cardinal lookup
    table can be served from one shared scan frame.
    """
    population = sample_population(config.population, config.seed)
    chip = ChipState(population)
    fits = calibrate(chip)
    pairing = pair_layer1(select_units(fits))

    chip.hold()
    configs = []
    for j, (a, b) in enumerate(pairing.unit.T.tolist()):
        code_a, code_b = PAIR_CODES[j // pairing.n_groups]
        configs += [(a, code_a, ALL_TAPS), (b, code_b, tap0_bypass())]
    program(chip, configs)
    frame_layout = np.full(chip.bypass.shape, -1)
    frame_layout[chip.bypass] = np.arange(chip.enabled_phases)
    fs = phase_rate(TRACK_CLOCK_HZ, chip.enabled_phases)

    return TrackRig(config=config, chip=chip, fits=fits, pairing=pairing,
                    frame_layout=frame_layout, fs=fs)


def _rig_for(config: RunConfig, rig: Optional[TrackRig]) -> TrackRig:
    """``rig``, or a rig built from ``config`` when none is given; a rig
    built from another config raises ValueError."""
    if rig is None:
        return build_rig(config)
    if rig.config != config:
        raise ValueError("the rig was built from another config")
    return rig


@dataclass
class TrackResult:
    """Everything a tracking run produced.

    ``trail`` is the one record of the bump's path: a (0, "start", 0, 0)
    row, then a (tick, direction, x, y) row per pulse with the bump's new
    cell; ``events``, ``final`` and ``grids.csv`` are read from it.
    ``traces`` holds each direction's network output on the trail tick
    axis, with the reset holds read as 0, so ``traces[d][tick]`` is the
    output at ``tick`` and every trace is ``ticks`` long; ``runs.csv``
    lists their high runs.
    ``diagnostics["arrival_ticks"]`` is the predicted ticks to cross a cell.
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


def _observe(frames: np.ndarray, networks: dict,
             bank: NodeBank) -> dict:
    """Each network's output bits over ``frames``, the next block of a
    session from reset, through ``bank``, a bank on a layout of
    ``networks`` that has filtered the session's earlier blocks (none
    when cleared).  The filters are causal and carry their state across
    blocks, so the bits are the session's over the block's ticks.  No
    output rises before tick 61 of a session, where all-ones frames
    first do: every filter weight is >= 0."""
    bank.extend(frames)
    return {key: net.run(frames, bank) for key, net in networks.items()}


def _first_pulse(chip: ChipState, layout: NodeLayout, networks: dict,
                 velocity: VelocityVector, n: int,
                 first_end: int) -> tuple[dict, dict, Optional[int]]:
    """Scan an n-tick session from reset on ``chip``, decoding only
    ``layout.columns``, and stream it through one cleared bank on
    ``layout``, the layout of ``networks``, in blocks that end at
    ``first_end`` (> 0 unless n is 0), twice that and so on, until the
    session so far holds a confirmed ``DEBOUNCE_WIDTH`` run or the scan
    ends; each tick is filtered once.  Returns each network's outputs
    and first-run start (or None) over the session up to the last
    block's end, and the earliest start, or None."""
    chip.hold()
    chip.release()
    frames = scan_frames(chip, velocity, n, TRACK_CLOCK_HZ, layout.columns)
    bank = NodeBank(layout)
    blocks = []
    begin, end = 0, min(n, first_end)
    while True:
        blocks.append(_observe(frames[begin:end], networks, bank))
        outputs = {key: np.concatenate([block[key] for block in blocks])
                   for key in networks}
        starts = {key: place_grid.debounce(out, DEBOUNCE_WIDTH)
                  for key, out in outputs.items()}
        start = min((s for s in starts.values() if s is not None),
                    default=None)
        if end == n or start is not None:
            return outputs, starts, start
        begin, end = end, min(2 * end, n)


def run_track(config: RunConfig, script: PathScript,
              rig: Optional[TrackRig] = None) -> TrackResult:
    """Execute a path script and move the place-cell bump one cell per
    vector-cell pulse, recording each move in the trail.

    A reset zeroes every phase and filter, so a session from reset
    depends only on the rig, the velocity and its length, and each
    distinct (velocity, ticks) session is scanned and filtered once per
    run: for its ticks when timed, or for ``BUDGET_FACTOR`` times the
    predicted arrival when until-pulse, failing loudly without a pulse.
    A later segment with the same velocity and ticks reuses that
    outcome; nothing is kept from one run to the next but the rig.  The
    scan decodes only the rig's cardinal layout's columns and streams
    through one cleared bank on that layout, in blocks that end at the
    predicted arrival and then at twice the last block's end, and stops
    at the first block end by which a pulse confirms or at the whole
    scan; the filters carry their state from block to block, so the bits
    and confirmed runs up to a block's end are the whole scan's and this
    changes no output.  The
    earliest first-run start is the pulse, fired by every direction
    whose first run starts there (a run confirms at its
    ``DEBOUNCE_WIDTH``-th high sample, so later runs never confirm
    before the reset).  The session up to that pulse is replayed until
    the segment's ticks are spent, or once for an until-pulse segment:
    each repeat holds the outputs low for ``hold_ticks``, fires, and
    re-arms the reset.  A last repeat cut
    short of the pulse keeps its ticks and does not fire.  A ``rig``
    built from another config raises ValueError.

    Every reset is recorded with its cause: ``trail_start`` for the
    first, ``vector_fire`` for one a pulse re-arms, else
    ``velocity_change``, which opens a segment after one that did not
    end on a pulse and warns when the velocity is unchanged or a moving
    segment's sub-cell displacement is discarded.
    """
    rig = _rig_for(config, rig)
    result = TrackResult()
    traces: dict[str, list[np.ndarray]] = {d: [] for d in DIRECTIONS}
    hold = np.zeros(config.hold_ticks, dtype=np.uint8)
    arrival_ticks = int(math.ceil(config.cell_seconds * rig.fs))
    budget = int(math.ceil(BUDGET_FACTOR * arrival_ticks))

    # Each distinct (velocity, n) session's outcome, kept for this run.
    observed: dict[tuple[VelocityVector, int], tuple] = {}

    tick = 0
    cause = CAUSE_TRAIL_START
    prev_velocity = VelocityVector(0.0, 0.0)
    for seg_index, seg in enumerate(script.segments):
        if cause == CAUSE_VELOCITY_CHANGE:
            if seg.velocity == prev_velocity:
                result.warnings.append(f"segment {seg_index}: boundary "
                                       f"reset without velocity change")
            if prev_velocity.speed > 0:
                result.warnings.append(
                    f"segment {seg_index}: sub-cell displacement discarded "
                    f"on velocity change")
        result.resets.append((tick, cause))
        cause = CAUSE_VELOCITY_CHANGE
        prev_velocity = seg.velocity

        n = budget if seg.until_pulse else seg.ticks
        key = (seg.velocity, n)
        if key not in observed:
            observed[key] = _first_pulse(rig.chip, rig.layout, rig.networks,
                                         seg.velocity, n, arrival_ticks)
        outputs, starts, start = observed[key]
        if start is None and seg.until_pulse:
            raise SegmentTimeoutError(
                f"segment {seg_index}: no pulse within {budget} "
                f"ticks ({BUDGET_FACTOR:g}x predicted arrival)")
        period = n if start is None else start + DEBOUNCE_WIDTH
        remaining = period if seg.until_pulse else n
        while remaining > 0:
            if cause == CAUSE_VECTOR_FIRE:
                result.resets.append((tick, cause))
                cause = CAUSE_VELOCITY_CHANGE
            tick += config.hold_ticks
            kept = min(remaining, period)
            for d in DIRECTIONS:
                traces[d].extend((hold, outputs[d][:kept]))
            if start is not None and kept == period:
                cause = CAUSE_VECTOR_FIRE
                for d in DIRECTIONS:
                    if starts[d] == start:
                        cell = place_grid.apply_pulse(
                            result.final, PulseEvent(d, tick + start),
                            config.grid_size)
                        result.trail.append((tick + start, d, *cell))
            tick += kept
            remaining -= kept

    result.ticks = tick
    result.traces = {d: np.concatenate([np.zeros(0, np.uint8), *chunks])
                     for d, chunks in traces.items()}
    result.diagnostics = {"arrival_ticks": arrival_ticks}
    return result


@dataclass
class FieldMapResult:
    """Per-cell vector-cell responses under one shared input.

    ``first_fire`` holds each distinct requested cell, in request order,
    with its first debounced pulse tick, None if it never fired or did
    not compile.  ``failed`` maps each cell whose lookup table did not
    compile to the cause; such a cell has no outputs.
    """

    session_ticks: int
    first_fire: dict[tuple[int, int], Optional[int]]
    outputs: dict[tuple[int, int], np.ndarray]
    grid_size: int
    failed: dict[tuple[int, int], str] = field(default_factory=dict)

    @property
    def cells(self) -> list[tuple[int, int]]:
        return list(self.first_fire)


def field_map(config: RunConfig, velocity: VelocityVector,
              targets: Optional[Sequence[tuple[int, int]]] = None,
              session_ticks: Optional[int] = None,
              rig: Optional[TrackRig] = None) -> FieldMapResult:
    """Recompile one network per designated grid cell and record when
    each fires during a single constant-velocity session from reset.

    Each distinct cell's lookup table is compiled once, for the
    configured speed toward that cell; all compiled cells then observe
    one session through the streaming path :func:`run_track` uses, on
    a node layout of their own whose first block is the whole session,
    so each node they share is filtered once in one pass and the host
    decodes only the frame positions they read, none when no cell
    compiles.  A cell whose table does not compile is recorded in
    ``failed``.  A velocity outside the linear range, a target off the
    grid, a ``session_ticks`` that is not an int >= 0 or a ``rig`` built
    from another config raises ValueError.
    """
    require_linear("velocity", velocity)
    if session_ticks is not None:
        require_int("session_ticks", session_ticks)
        if session_ticks < 0:
            raise ValueError(f"session_ticks must be >= 0, got {session_ticks}")
    half = config.grid_size // 2
    if targets is None:
        targets = [(x, y) for y in range(-half, half + 1)
                   for x in range(-half, half + 1)]
    targets = dict.fromkeys(targets)
    outside = [c for c in targets if max(map(abs, c)) > half]
    if outside:
        raise ValueError(f"targets {outside} lie off the grid (|x|, |y| <= {half})")
    rig = _rig_for(config, rig)
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
    outputs, starts, _ = _first_pulse(rig.chip, NodeLayout(networks.values()),
                                      networks, velocity, session_ticks,
                                      session_ticks)
    return FieldMapResult(session_ticks=session_ticks,
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
    ``RUN_FAILURES`` is recorded as failed; any other error propagates.
    An ``n_seeds`` that is not an int >= 1 raises ValueError."""
    require_int("n_seeds", n_seeds)
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


def write_csv(path, header: Sequence, rows) -> Path:
    """Write ``header`` and then ``rows`` to ``path`` as one CSV table in
    the default dialect, and return the path."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_runs_csv(path, keys: Sequence[str], streams: dict,
                   ticks: int) -> Path:
    """Write 0/1 ``streams`` (key tuple -> bits) as a run list: a ``*key,
    start, end`` row for each :func:`place_grid.high_runs` run of each
    stream (``end`` exclusive), streams in order, then the session row,
    empty key columns, 0 and ``ticks``, so each stream is high exactly
    on its runs within [0, ``ticks``).  ``keys`` names the key columns."""
    rows = [(*key, *run) for key, bits in streams.items()
            for run in place_grid.high_runs(bits).tolist()]
    rows.append(("",) * len(keys) + (0, ticks))
    return write_csv(path, (*keys, "start", "end"), rows)


def emit(result: TrackResult, outdir, config: RunConfig,
         script: PathScript) -> list[Path]:
    """Write the run's five files to outdir, made if missing:
    ``manifest.ini``, ``trail.csv``, ``runs.csv`` (the run list of each
    direction's trace, :func:`write_runs_csv`), ``grids.csv`` (for each
    trail row, the :func:`place_grid.activity` of the bump's path up to
    it, as move, tick, x, y, level rows) and ``warnings.txt`` (empty
    when there are none).  Each overwrites a file of its name; any other
    file in outdir, such as the ``traces.csv`` that versions before the
    run list wrote, is left as it is.

    The manifest records the full configuration (seed included), the
    script and the package, numpy and scipy versions; re-running from it
    with those versions reproduces the result bit for bit.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest, warnings = outdir / "manifest.ini", outdir / "warnings.txt"
    save_config(config, manifest, script)
    warnings.write_text("".join(w + "\n" for w in result.warnings))
    path = [(x, y) for _, _, x, y in result.trail]
    grids = ((move, tick, x, y, level)
             for move, (tick, *_) in enumerate(result.trail)
             for (x, y), level in place_grid.activity(path[:move + 1]))
    return [
        manifest,
        write_csv(outdir / "trail.csv",
                  ("tick", "direction", "bump_x", "bump_y"), result.trail),
        write_runs_csv(outdir / "runs.csv", ("direction",),
                       {(d,): result.traces[d] for d in DIRECTIONS},
                       result.ticks),
        write_csv(outdir / "grids.csv", ("move", "tick", "x", "y", "level"),
                  grids),
        warnings,
    ]


def write_field_map_csv(result: FieldMapResult, outdir) -> list[Path]:
    """Write the map to outdir: ``first_fire.csv``, each cell's first-fire
    tick with the compile failure of each failed cell, and ``runs.csv``,
    the :func:`write_runs_csv` run list of each compiled cell's outputs
    keyed by x, y, cells in ``first_fire`` order, over the session."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    first_fire = ((*cell, "" if ff is None else ff,
                   result.failed.get(cell, ""))
                  for cell, ff in result.first_fire.items())
    return [
        write_csv(outdir / "first_fire.csv",
                  ("x", "y", "first_fire_tick", "compile_error"), first_fire),
        write_runs_csv(outdir / "runs.csv", ("x", "y"),
                       {cell: result.outputs[cell] for cell in result.cells
                        if cell in result.outputs},   # a failed cell has none
                       result.session_ticks),
    ]
