"""Reference models the tests compare the simulator against.

``thetanav`` keeps one implementation per concept: the frequency law in
``theta_core.frequencies``, oscillator phase in ``ChipState``/
``scan_frames``, the interference node in ``filter_stage_batch``, tap
choice in ``compile_lookup``, and the place grid in the bump's path
(``place_grid.apply_pulse`` and ``activity``).  The models here state
the same physics the plain way (the law for one unit in plain numbers,
the scan's tap bits by float modulo, a trace's rising edges as matched
0 -> 1 sample pairs, calibration as one scanned session per code in
``calibrate_every_session``, each unit's line fitted by ``np.polyfit``
on its own samples in ``polyfit_unit``, one oscillator or one node stepped
a sample at a time, the 9-tap FIR as ``lfilter`` runs it in
``fir_lfilter``, the tap compiler one group and one tap at a time,
the paper's closed-form tap shift, the circular distance between two
phases with its wrap, the place grid as an activity matrix
that every pulse leaks, the Schmitt trigger as a forward fill of its
+/-1 threshold marks in ``schmitt_forward_fill`` and as the last rise
against the last fall in ``schmitt_two_index``, a whole session's scan
on every enabled tap in ``session_frames``, one filter layer over a
whole session in ``filter_once``, a node bank that filters a whole
session in one block in ``session_bank``, a trace's high runs found
one sample at a time in ``scan_runs``, a node layout that keys every
node and then prunes those no active group reads in
``layout_by_pruning``) so the tests can check the vectorized, streamed,
routed and time-domain code against them.  The inverses
of velocity decoding and lookup-table serialization live here too,
since only the round-trip tests need them, and so do the formats the
run lists replaced: ``write_grid_csv``, the writer of the
one-matrix-per-file grid format, with ``snapshot`` and ``occupancy``,
the matrices it wrote, and ``write_traces_csv``, the writer of the
one-row-per-tick ``traces.csv``.  ``read_runs_csv`` reads a run list
back and ``fill_runs`` turns runs back into bits, so the tests can
rebuild those files.  ``run_from_manifest`` replays a run from the
manifest ``emit`` wrote, as ``load_manifest`` then ``run_track``.
"""

import csv
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.signal import lfilter

from thetanav import chip_io
from thetanav.chip_io import (
    CAL_SWEEP,
    PAIR_CODES,
    TAPS_PER_UNIT,
    ChipState,
    DegenerateFitError,
    UnitFit,
    estimate_frequency,
    phase_rate,
    program,
    scan_frames,
    tap0_bypass,
)
from thetanav.config import load_manifest
from thetanav.harness import TRACK_CLOCK_HZ, TrackResult, run_track
from thetanav.place_grid import (
    BUMP_LEVEL,
    DIRECTION_DELTA,
    DIRECTIONS,
    LEAK_STEP,
    OutOfBoundsError,
    PulseEvent,
    activity,
    grid_matrix,
)
from thetanav.theta_core import (
    F_SWING_HZ,
    LINEAR,
    ZERO_VELOCITY_CODE,
    InvalidCodeError,
    ThetaPopulation,
    VelocityVector,
    decode_velocity_code,
    frequencies,
)
from thetanav.vector_net import (
    FIR_TAPS,
    MUX_FORMAT_VERSION,
    STAGES,
    TAP_STEP,
    CompileError,
    MuxTable,
    NodeBank,
    NodeLayout,
    StageState,
    TargetLocation,
    _distinct,
    filter_stage_batch,
)


def encode_velocity(value: int) -> int:
    """Inverse of ``decode_velocity_code`` for values in -7..7."""
    if not -7 <= value <= 7:
        raise InvalidCodeError(f"velocity value must be in -7..7, got {value}")
    return value + ZERO_VELOCITY_CODE


def make_population(f_idle, beta=1.0, dac_offset=(0.0, 0.0),
                    response=LINEAR) -> ThetaPopulation:
    """Population of one unit per idle frequency in ``f_idle``, every unit
    with gain ``beta`` and DAC offset ``dac_offset``."""
    n = len(f_idle)
    return ThetaPopulation(f_idle, [beta] * n, [dac_offset] * n, response)


def instantaneous_frequency(f_idle: float, beta: float,
                            v_pref: tuple[int, int],
                            dac_offset: tuple[float, float], response: str,
                            vx: float, vy: float) -> float:
    """What ``theta_core.frequencies`` gives for one unit with decoded
    preferred velocity ``v_pref`` at velocity (vx, vy), in plain numbers."""
    inner = (vx + dac_offset[0]) * v_pref[0] + (vy + dac_offset[1]) * v_pref[1]
    if response == LINEAR:
        f = f_idle + beta * inner
    else:
        f = f_idle + F_SWING_HZ * float(np.tanh(beta * inner / F_SWING_HZ))
    return max(f, 0.0)


def deserialize_mux(text: str) -> MuxTable:
    """Inverse of ``serialize_mux``."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != MUX_FORMAT_VERSION:
        raise ValueError(f"expected header {MUX_FORMAT_VERSION!r}")
    header: dict[str, float] = {}
    slots: list[tuple[int, int]] = []
    dropped: list[int] = []
    for ln in lines[1:]:
        if "=" in ln:
            key, val = ln.split("=", 1)
            header[key] = float(val)
        elif ln.startswith("drop,"):
            dropped.append(int(ln.split(",")[1]))
        else:
            slot, unit, tap = (int(x) for x in ln.split(","))
            if slot != len(slots):
                raise ValueError(f"slot {slot} out of order")
            slots.append((unit, tap))
    unit, tap = np.array(slots, dtype=int).reshape(-1, 2).T
    return MuxTable(
        unit=unit, tap=tap, dropped=dropped,
        target=TargetLocation(header["target_r"], header["target_theta"]),
        speed=header["speed"])


def circular_distance(a, b):
    """Elementwise distance in [0, 1/2] between phases a and b (cycles)."""
    d = np.abs(np.subtract(a, b)) % 1.0
    return np.minimum(d, 1.0 - d)


def advance(phase: float, f: float, dt: float) -> float:
    """One sample of the ideal phase accumulator, in cycles."""
    return (phase + f * dt) % 1.0


def tap_bit(phase: float, k: int) -> int:
    """Square-wave output of phase tap k, which leads tap 0 by k/8 cycle;
    high for the first half of each cycle."""
    return 1 if (phase + k / 8.0) % 1.0 < 0.5 else 0


def scan_frames_mod(chip: ChipState, v: VelocityVector, n_cycles: int,
                    clock_hz: float) -> np.ndarray:
    """What ``chip_io.scan_frames`` returns and carries for a programmed
    chip with at least one enabled tap, read the plain way: the whole
    [n_cycles, enabled] phase trajectory at once, its fractional part by
    float ``% 1.0``, and each bit as frac < 1/2.  Checks nothing."""
    dt = 1.0 / phase_rate(clock_hz, chip.enabled_phases)
    freqs = frequencies(chip.population, chip.v_pref, v)
    if chip.held:
        freqs = np.zeros_like(freqs)
    units, taps = np.nonzero(chip.bypass)
    cycles = np.arange(n_cycles)
    phase = (chip.phases[units][None, :]
             + freqs[units][None, :] * dt * cycles[:, None]
             + taps[None, :] / 8.0) % 1.0
    frames = (phase < 0.5).astype(np.uint8)
    if not chip.held:
        chip.phases = (chip.phases + freqs * dt * n_cycles) % 1.0
    return frames


def edge_count_frequency(trace: np.ndarray, fs: float) -> float:
    """Square-wave frequency of a 0/1 trace: its 0 -> 1 steps, matched
    sample by sample, over the trace's length in seconds."""
    t = np.asarray(trace).astype(np.uint8)
    edges = int(np.count_nonzero((t[1:] == 1) & (t[:-1] == 0)))
    return edges / (t.size / fs)


def calibrate_every_session(chip: ChipState) -> list[UnitFit]:
    """What ``chip_io.calibrate`` returns and leaves on the chip, with
    one session per code: each code of ``PAIR_CODES`` is programmed from
    a hold and its own nine steps scanned, whether or not an earlier
    code's session gave the same frames, and each unit's 36 samples are
    fitted by ``polyfit_unit``.  Reads the calibration clock and window
    from ``chip_io`` at call time."""
    samples: list[list[tuple[float, float]]] = [
        [] for _ in range(chip.n_units)]
    for codes in (member for pair in PAIR_CODES for member in pair):
        chip.hold()
        program(chip, [(u, codes, tap0_bypass()) for u in range(chip.n_units)])
        chip.release()
        fs = phase_rate(chip_io.CALIBRATION_CLOCK_HZ, chip.enabled_phases)
        n_cycles = int(np.ceil(chip_io.CALIBRATION_WINDOW_S * fs))
        pref = tuple(decode_velocity_code(c) for c in codes)
        for sweep_v in CAL_SWEEP:
            v = VelocityVector(sweep_v, 0.0) if pref[0] \
                else VelocityVector(0.0, sweep_v)
            frames = scan_frames(chip, v, n_cycles,
                                 chip_io.CALIBRATION_CLOCK_HZ)
            inner = v.vx * pref[0] + v.vy * pref[1]
            for unit_samples, trace in zip(samples, frames.T):
                unit_samples.append((inner, estimate_frequency(trace, fs)))
    return [polyfit_unit(unit_samples, unit=u)
            for u, unit_samples in enumerate(samples)]


def polyfit_unit(samples, unit: int = 0) -> UnitFit:
    """What ``chip_io.fit_unit(fit_design(p), f, unit)`` returns for the
    (inner product, frequency) pairs ``samples``, fitted by
    ``np.polyfit`` on the pairs' own arrays."""
    p = np.array([s[0] for s in samples], dtype=float)
    f = np.array([s[1] for s in samples], dtype=float)
    if not (np.isfinite(p).all() and np.isfinite(f).all()):
        raise DegenerateFitError("inner products and frequencies must be finite")
    if np.unique(p).size < 3:
        raise DegenerateFitError(
            "need >= 3 distinct inner-product values for a meaningful fit")
    beta_hat, f_idle_hat = np.polyfit(p, f, 1)
    resid = f - (f_idle_hat + beta_hat * p)
    ss_res = float(resid @ resid)
    ss_tot = float(((f - f.mean()) @ (f - f.mean())))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return UnitFit(unit=unit, f_idle_hat=float(f_idle_hat),
                   beta_hat=float(beta_hat), r2=float(r2))


def square_wave(f: float, fs: float, n: int,
                phase0: float = 0.0) -> np.ndarray:
    """Ideal 50% duty square wave sampled at fs, high in the first half
    of each cycle."""
    phase = (phase0 + f * np.arange(n) / fs) % 1.0
    return (phase < 0.5).astype(np.uint8)


def rc_step(y, x, alpha):
    """One leaky-accumulator update; exact for rational inputs."""
    return y + alpha * (x - y)


def fir_lfilter(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The FIR ``coeffs`` along the last axis of ``x`` from cleared
    state, as scipy's ``lfilter`` computes it."""
    return lfilter(coeffs, [1.0], x, axis=-1)


def schmitt_forward_fill(y: np.ndarray, rise: float, fall: float,
                         last=0) -> np.ndarray:
    """Schmitt trigger along the last axis from output ``last`` (0/1 per
    row, low by default): each sample is marked +1 at or above ``rise``
    and -1 at or below ``fall`` (the fall mark wins), the last mark so
    far is carried forward, and a row reads ``last`` before its first
    mark."""
    marks = np.zeros(y.shape, dtype=np.int8)
    marks[y >= rise] = 1
    marks[y <= fall] = -1
    idx = np.arange(y.shape[-1])
    nonzero = marks != 0
    latest = np.maximum.accumulate(np.where(nonzero, idx, -1), axis=-1)
    filled = np.take_along_axis(marks, np.maximum(latest, 0), axis=-1)
    before = np.where(np.asarray(last)[..., None] == 1, 1, -1)
    filled = np.where(latest >= 0, filled, before)
    return (filled == 1).astype(np.uint8)


def schmitt_two_index(y: np.ndarray, rise: float, fall: float,
                      last=0) -> np.ndarray:
    """Schmitt trigger along the last axis from output ``last`` (0/1 per
    row, low by default): high where the last sample at or above
    ``rise`` so far (counted from 1, 0 for none) is later than the last
    one at or below ``fall``, or where there is neither and ``last`` is
    high.  Exact for fall < rise."""
    idx = np.arange(1, y.shape[-1] + 1)
    up = np.maximum.accumulate((y >= rise) * idx, axis=-1)
    down = np.maximum.accumulate((y <= fall) * idx, axis=-1)
    neither = (up == 0) & (down == 0)
    return ((up > down) | (neither & (np.asarray(last)[..., None] == 1))
            ).astype(np.uint8)


@dataclass
class Node:
    """One interference node stepped a sample at a time: AND, 9-tap FIR
    delay line (newest sample first), RC accumulator and Schmitt output."""

    coeffs: np.ndarray
    alpha: float
    rise: float
    fall: float
    hist: np.ndarray = field(default_factory=lambda: np.zeros(FIR_TAPS))
    rc: float = 0.0
    out: int = 0

    @classmethod
    def for_layer(cls, layer: int) -> "Node":
        return cls(*STAGES[layer])

    def step(self, a: int, b: int) -> int:
        self.hist[1:] = self.hist[:-1]
        self.hist[0] = 1.0 if (a and b) else 0.0
        self.rc = rc_step(self.rc, float(self.coeffs @ self.hist), self.alpha)
        if self.rc >= self.rise:
            self.out = 1
        elif self.rc <= self.fall:
            self.out = 0
        return self.out


def session_frames(rig, velocity, n: int, columns=None) -> np.ndarray:
    """Scan frames of the rig's n-tick constant-velocity session from
    reset, on every enabled tap unless ``columns`` names the frame
    positions to decode."""
    rig.chip.hold()
    rig.chip.release()
    return scan_frames(rig.chip, velocity, n, TRACK_CLOCK_HZ, columns)


def filter_once(x: np.ndarray, layer: int) -> np.ndarray:
    """One layer's bits over ``x``, a [nodes, T] (or [T]) block of a
    whole session from cleared state, in one pass."""
    return filter_stage_batch(x, layer, StageState.cleared(x.shape[:-1]))[0]


def session_bank(frames: np.ndarray, networks) -> NodeBank:
    """A cleared node bank of ``networks`` extended once over the columns
    of ``frames``, a whole session from reset on every enabled tap, that
    the networks' layout reads; ``bank.frames`` holds those columns."""
    layout = NodeLayout(networks)
    return NodeBank(layout).extend(frames[:, layout.columns])


def run_alone(net, frames: np.ndarray) -> np.ndarray:
    """``net``'s output from a node bank of its own on ``frames``, a
    whole session from reset on every enabled tap."""
    bank = session_bank(frames, [net])
    return net.run(bank.frames, bank)


def run_per_sample(net, frames: np.ndarray) -> np.ndarray:
    """What ``VectorNetwork.run`` computes from a node bank, with every
    node of ``net`` stepped one sample at a time from cleared state."""
    half = net.n_pairs // 2
    l1 = [Node.for_layer(1) for _ in range(net.n_pairs)]
    l2 = [Node.for_layer(2) for _ in range(half)]
    out = []
    for frame in frames:
        bits = frame[net.input_pos]
        o1 = [node.step(bits[2 * j], bits[2 * j + 1])
              for j, node in enumerate(l1)]
        o2 = [node.step(o1[i], o1[half + i]) for i, node in enumerate(l2)]
        out.append(int(net.active.size > 0 and all(o2[i] for i in net.active)))
    return np.array(out, dtype=np.uint8)


def pair_beat_frequency(bits_a: np.ndarray, bits_b: np.ndarray,
                        fs: float) -> float:
    """Measured envelope frequency of an AND-interfered pair: the two bit
    streams through one first-layer node, rising edges per second."""
    x = (np.asarray(bits_a) & np.asarray(bits_b)).astype(float).reshape(1, -1)
    env = filter_once(x, 1)[0]
    edges = int(np.count_nonzero((env[1:] == 1) & (env[:-1] == 0)))
    return edges / (env.size / fs)


def compile_lookup_scalar(pairs, fits, target, speed, tolerance,
                          drift_tolerance, min_active_groups) -> MuxTable:
    """What ``vector_net.compile_lookup`` computes, one unit, group and tap
    at a time.  ``pairs`` lists (routable unit, tap-0 partner), the x-axis
    half first; an x pair's members prefer (+4, 0) and (-4, 0), a y pair's
    (0, +4) and (0, -4).  ``fits`` holds a UnitFit of every paired unit."""
    if speed <= 0:
        raise ValueError("speed must be positive")
    fit_by_unit = {f.unit: f for f in fits}
    n_x = len(pairs) // 2
    arrival_t = target.r / speed
    v = (speed * math.cos(target.theta), speed * math.sin(target.theta))
    x_active = abs(v[0]) >= abs(v[1])

    phases = {}
    for j, (unit_a, unit_b) in enumerate(pairs):
        pref_a = (4, 0) if j < n_x else (0, 4)
        for unit, pref in ((unit_a, pref_a), (unit_b, (-pref_a[0], -pref_a[1]))):
            fit = fit_by_unit[unit]
            f_hat = fit.f_idle_hat + fit.beta_hat * (v[0] * pref[0]
                                                     + v[1] * pref[1])
            phases[unit] = (f_hat * arrival_t) % 1.0

    taps = {unit: 0 for pair in pairs for unit in pair}
    dropped, residuals = [], []
    for g in range(n_x):
        xp, yp = pairs[g], pairs[n_x + g]
        active, idle = (xp, yp) if x_active else (yp, xp)
        required = (-((phases[active[0]] - phases[active[1]]) % 1.0)) % 1.0
        best_k, best_d = 0, circular_distance(0.0, required)
        for k in range(1, TAPS_PER_UNIT):
            d = circular_distance(k * TAP_STEP, required)
            if d < best_d:
                best_k, best_d = k, d
        taps[active[0]] = best_k
        residuals.append(best_d)
        idle_err = circular_distance(
            (phases[idle[0]] - phases[idle[1]]) % 1.0, 0.0)
        if best_d > tolerance or idle_err > drift_tolerance:
            dropped.append(g)

    if n_x - len(dropped) < min_active_groups:
        raise CompileError(
            f"only {n_x - len(dropped)} active groups after "
            f"dropping {len(dropped)}, need {min_active_groups}")
    slots = [(unit, taps[unit]) for pair in pairs for unit in pair]
    unit, tap = np.array(slots, dtype=int).T
    return MuxTable(unit=unit, tap=tap, dropped=dropped, target=target,
                    speed=speed, residuals=residuals)


def routed_positions(mux: MuxTable, frame_layout: np.ndarray) -> list[int]:
    """What ``VectorNetwork`` computes as ``input_pos``, one (unit, tap)
    slot at a time: CompileError at the first slot whose tap the scan
    does not output."""
    positions = []
    for slot in zip(mux.unit.tolist(), mux.tap.tolist()):
        position = int(frame_layout[slot])
        if position < 0:
            raise CompileError(
                f"mux routes phase {slot} that the scan does not output")
        positions.append(position)
    return positions


def layout_by_pruning(networks) -> SimpleNamespace:
    """What ``NodeLayout`` computes, in two passes: key the first-layer
    nodes of every group, dropped ones too, key the second-layer nodes
    of the active groups, then keep only the first-layer nodes those
    read and renumber them in order."""
    networks = list(networks)
    l1_inputs, l1_of = _distinct(
        [net.input_pos.reshape(-1, 2) for net in networks])
    l2_inputs, l2_of = _distinct(
        [np.column_stack((nodes[net.active],
                          nodes[net.n_pairs // 2 + net.active]))
         for net, nodes in zip(networks, l1_of)])
    read, l2_inputs = np.unique(l2_inputs, return_inverse=True)
    columns, l1_inputs = np.unique(l1_inputs[read], return_inverse=True)
    return SimpleNamespace(columns=columns,
                           l1_inputs=l1_inputs.reshape(-1, 2),
                           l2_inputs=l2_inputs.reshape(-1, 2),
                           l2_of=dict(zip(networks, l2_of)))


def run_from_manifest(path) -> TrackResult:
    """Re-run the tracking run whose manifest ``harness.emit`` wrote."""
    config, script = load_manifest(path)
    if script is None:
        raise ValueError(f"{path} has no [script] section")
    return run_track(config, script)


class PairingError(ValueError):
    """Two units' preferred velocities do not oppose."""


@dataclass(frozen=True)
class EffectiveCell:
    """Low-frequency component of an interfered pair: gains add, offsets
    subtract, and the preferred direction follows the positive member."""

    beta_eff: float
    f_off_eff: float
    theta_p: float
    members: tuple[int, int]
    v_pref_magnitude: float = 1.0


def effective_params(a, b, pref_a: tuple[float, float],
                     pref_b: tuple[float, float]) -> EffectiveCell:
    """Combine the fits of an opposing pair into one effective cell."""
    if pref_a[0] != -pref_b[0] or pref_a[1] != -pref_b[1]:
        raise PairingError(
            f"preferred directions must oppose, got {pref_a} vs {pref_b}")
    return EffectiveCell(
        beta_eff=a.beta_hat + b.beta_hat,
        f_off_eff=a.f_idle_hat - b.f_idle_hat,
        theta_p=math.atan2(pref_a[1], pref_a[0]),
        members=(a.unit, b.unit),
        v_pref_magnitude=math.hypot(*pref_a),
    )


def phase_shift(loc, cell: EffectiveCell, speed: float) -> float:
    """The paper's closed-form tap shift for a cell designated at ``loc``.

    The beat phase the cell accumulates while the agent travels straight
    to the target at ``speed``, turned into the forward shift that
    cancels it and reduced modulo the 1/8-cycle tap step.  The gain
    enters in cycles per spatial unit (per-Hz gain times preferred
    magnitude; one velocity code unit is one spatial unit per second).
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    gain_spatial = cell.beta_eff * cell.v_pref_magnitude
    acc = loc.r * (math.cos(loc.theta - cell.theta_p) * gain_spatial
                   + cell.f_off_eff / speed)
    return ((1.0 - (acc % 1.0)) % 1.0) % TAP_STEP


class PlaceGrid:
    """Center-origin activity grid with a unique bump, stepped one pulse
    at a time: what :func:`snapshot` rebuilds from the bump's path.

    Coordinates run -half..+half on both axes (11x11 by default).
    Activity levels live in {0, 5, 10}; exactly one cell holds 10.
    """

    def __init__(self, width: int = 11, height: int = 11):
        if width < 1 or height < 1 or width % 2 == 0 or height % 2 == 0:
            raise ValueError("grid dimensions must be odd and positive")
        self.width = width
        self.height = height
        self.activity = np.zeros((height, width), dtype=int)
        self.bump = (0, 0)
        self._set(self.bump, BUMP_LEVEL)

    def _index(self, pos: tuple[int, int]) -> tuple[int, int]:
        x, y = pos
        col = x + self.width // 2
        row = y + self.height // 2
        if not (0 <= col < self.width and 0 <= row < self.height):
            raise OutOfBoundsError(f"cell {pos} outside the grid")
        return row, col

    def _set(self, pos: tuple[int, int], level: int) -> None:
        self.activity[self._index(pos)] = level

    def level(self, pos: tuple[int, int]) -> int:
        return int(self.activity[self._index(pos)])

    def in_bounds(self, pos: tuple[int, int]) -> bool:
        x, y = pos
        return abs(x) <= self.width // 2 and abs(y) <= self.height // 2

    def check_invariants(self) -> None:
        levels = set(np.unique(self.activity).tolist())
        if not levels <= {0, LEAK_STEP, BUMP_LEVEL}:
            raise AssertionError(f"activity alphabet violated: {levels}")
        if int((self.activity == BUMP_LEVEL).sum()) != 1:
            raise AssertionError("unique-bump invariant violated")
        if self.level(self.bump) != BUMP_LEVEL:
            raise AssertionError("bump coordinate out of sync with activity")

    def snapshot(self) -> np.ndarray:
        """Activity matrix with row 0 at the top (positive y)."""
        return np.flipud(self.activity.copy())


def apply_pulse_to_grid(grid: PlaceGrid, event: PulseEvent) -> PlaceGrid:
    """Migrate the bump one cell in the pulse direction.

    The target neighbor takes level 10; every other active cell leaks by
    5 with a floor of 0, so the vacated cell reads 5 right after.  A
    migration off the grid raises with a diagnostic instead of clamping.
    """
    dx, dy = DIRECTION_DELTA[event.direction]
    target = (grid.bump[0] + dx, grid.bump[1] + dy)
    if not grid.in_bounds(target):
        raise OutOfBoundsError(
            f"pulse {event.direction} at tick {event.tick} would move the "
            f"bump from {grid.bump} to {target}, outside the "
            f"{grid.width}x{grid.height} grid")
    grid.activity = np.maximum(grid.activity - LEAK_STEP, 0)
    grid.bump = target
    grid._set(target, BUMP_LEVEL)
    grid.check_invariants()
    return grid


def snapshot(path, grid_size: int) -> np.ndarray:
    """Activity matrix after the bump walked ``path``: one move's
    ``grids.csv`` rows as a matrix."""
    return grid_matrix(activity(path), grid_size)


def occupancy(result, tick: int, grid_size: int) -> np.ndarray:
    """Grid snapshot, ``grid_size`` cells a side, of which designated
    cells of the field map ``result`` read high at a tick; none do past
    the session's end.  A tick below 0 raises ValueError."""
    if tick < 0:
        raise ValueError(f"tick {tick} is before the session's start")
    return grid_matrix(((cell, 1) for cell, bits in result.outputs.items()
                        if tick < bits.size and bits[tick]), grid_size)


def write_traces_csv(path, traces: dict, ticks: int) -> None:
    """The ``traces.csv`` that ``runs.csv`` replaced: a tick,E,N,W,S
    header, then each direction's output bit at each of ``ticks`` ticks,
    one row a tick."""
    row = "%d," * len(DIRECTIONS) + "%d\n"
    columns = [traces[d].tolist() for d in DIRECTIONS]
    Path(path).write_text("tick," + ",".join(DIRECTIONS) + "\n" + "".join(
        row % r for r in zip(range(ticks), *columns)))


def read_runs_csv(path, keys) -> tuple[dict, int]:
    """The runs of each key (a tuple of its key column strings) of a run
    list with key columns ``keys``, keys and runs in file order, and the
    session's ticks, which only its last row holds."""
    with open(path, newline="") as fh:
        header, *rows, session = csv.reader(fh)
    assert header == [*keys, "start", "end"]
    assert session[:-1] == [""] * len(keys) + ["0"]
    runs = defaultdict(list)
    for *key, start, end in rows:
        runs[tuple(key)].append((int(start), int(end)))
    return dict(runs), int(session[-1])


def write_grid_csv(path, matrix: np.ndarray) -> None:
    """One integer grid matrix as CSV, top row first: a ``grid_<i>.csv``
    or ``occupancy_<tick>.csv`` file of the old per-move and per-stride
    exports."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(matrix.tolist())


def scan_runs(bits) -> list[tuple[int, int]]:
    """(start, end) with end exclusive of every high run of ``bits``, found
    one sample at a time."""
    runs, start = [], None
    for tick, bit in enumerate(bits):
        if bit and start is None:
            start = tick
        elif not bit and start is not None:
            runs.append((start, tick))
            start = None
    if start is not None:
        runs.append((start, len(bits)))
    return runs


def fill_runs(runs, n: int) -> np.ndarray:
    """n uint8 bits, high on every [start, end) of ``runs`` and low
    elsewhere."""
    bits = np.zeros(n, dtype=np.uint8)
    for start, end in runs:
        bits[start:end] = 1
    return bits
