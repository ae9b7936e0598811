"""Interference network compiler and runtime for vector cells.

The network AND-interferes pairs of theta units whose preferred
velocities oppose, so pair gains add while idle-frequency offsets
subtract.  A first layer of 40 such pair nodes feeds a second layer of
20 nodes (one x-axis pair joined with one y-axis pair), and a final AND
over the active second-layer nodes yields the vector-cell output: high
when the displacement since the last phase reset matches the designated
target vector.

Each node is an AND gate followed by a 9-tap FIR, a one-pole RC stage
and a Schmitt trigger.  The compiler predicts every unit's phase at the
target arrival time from calibration fits and routes phase taps so that
the relevant pair envelopes align exactly when the agent arrives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.signal import lfilter

from .chip_io import InsufficientUnitsError, UnitFit
from .theta_core import decode_velocity_code

TAP_COUNT = 8
TAP_STEP = 1.0 / TAP_COUNT

# 9-tap window FIR per layer, both normalized to unit DC gain.  Layer 1
# uses a raised-cosine window for stronger carrier rejection; layer 2 a
# plain moving average.
FIR_TAPS = 9
FIR_LAYER1 = (np.hamming(FIR_TAPS) / np.hamming(FIR_TAPS).sum())
FIR_LAYER2 = np.full(FIR_TAPS, 1.0 / FIR_TAPS)

DEFAULT_TAP_TOLERANCE = 1.0 / 16.0
DEFAULT_DRIFT_TOLERANCE = 0.35
DEFAULT_MIN_ACTIVE_GROUPS = 12

MUX_FORMAT_VERSION = "muxtable-v1"


class CompileError(RuntimeError):
    """Lookup compilation left fewer active groups than required."""


class PairingError(ValueError):
    """Pair construction violated the opposite-direction contract."""


@dataclass(frozen=True)
class FilterParams:
    """Per-layer filter and binarization constants.

    The RC pole of layer 2 sits below layer 1's (alpha1 > alpha2).  The
    layer-1 Schmitt thresholds bracket half the filtered AND plateau of
    two square waves (which tops out at 0.5 before attenuation); layer 2
    sees already-binarized envelopes with a full 0..1 swing, so its
    thresholds straddle 0.5.
    """

    alpha1: float = 1.0 / 16.0
    alpha2: float = 1.0 / 64.0
    rise1: float = 0.22
    fall1: float = 0.08
    rise2: float = 0.55
    fall2: float = 0.45

    def validate(self) -> None:
        if not 0 < self.alpha2 < self.alpha1 < 1:
            raise ValueError("need 0 < alpha2 < alpha1 < 1")
        for rise, fall in ((self.rise1, self.fall1), (self.rise2, self.fall2)):
            if not 0 <= fall < rise <= 1:
                raise ValueError("Schmitt thresholds need 0 <= fall < rise <= 1")


DEFAULT_FILTERS = FilterParams()


@dataclass(frozen=True)
class TargetLocation:
    """Designated displacement in polar form: distance in spatial units
    and bearing in radians.  One spatial unit is the distance covered in
    one second at unit velocity-code speed."""

    r: float
    theta: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"distance must be >= 0, got {self.r}")


@dataclass(frozen=True)
class Pair:
    """One first-layer interference pair.  ``unit_a`` is the member
    programmed along the positive axis direction and carries the
    routable phase taps; ``unit_b`` opposes it and always uses tap 0."""

    unit_a: int
    unit_b: int
    axis: str
    code_a: tuple[int, int]
    code_b: tuple[int, int]

    def __post_init__(self):
        da = (decode_velocity_code(self.code_a[0]), decode_velocity_code(self.code_a[1]))
        db = (decode_velocity_code(self.code_b[0]), decode_velocity_code(self.code_b[1]))
        if da[0] != -db[0] or da[1] != -db[1]:
            raise PairingError(
                f"pair codes must decode to exact negations, got {da} vs {db}")

    def pref_a(self) -> tuple[int, int]:
        return (decode_velocity_code(self.code_a[0]),
                decode_velocity_code(self.code_a[1]))


@dataclass(frozen=True)
class Pairing:
    """First-layer pairing: x-axis pairs first, then y-axis pairs.
    Second-layer group i joins x-pair i with y-pair i."""

    pairs: tuple[Pair, ...]

    @property
    def n_x(self) -> int:
        return sum(1 for p in self.pairs if p.axis == "x")

    @property
    def n_groups(self) -> int:
        return min(self.n_x, len(self.pairs) - self.n_x)

    def group(self, i: int) -> tuple[Pair, Pair]:
        return self.pairs[i], self.pairs[self.n_x + i]

    def unit_ids(self) -> list[int]:
        out = []
        for p in self.pairs:
            out.extend((p.unit_a, p.unit_b))
        return out


@dataclass
class MuxTable:
    """Compiled phase-tap routing for one vector-cell network.

    ``slots`` lists (unit, tap) for the 80 network inputs in wiring
    order: slot 2j and 2j+1 feed first-layer node j.  ``dropped`` flags
    second-layer groups whose predicted alignment error at arrival
    exceeds tolerance; the output AND ignores them.
    """

    slots: list[tuple[int, int]]
    dropped: list[int]
    target: TargetLocation
    speed: float
    tolerance: float
    drift_tolerance: float
    residuals: list[float] = field(default_factory=list)

    @property
    def n_pairs(self) -> int:
        return len(self.slots) // 2

    @property
    def n_groups(self) -> int:
        return self.n_pairs // 2

    @property
    def active_groups(self) -> list[int]:
        return [g for g in range(self.n_groups) if g not in self.dropped]


def pair_layer1(admitted: Sequence[UnitFit], n_units: int = 80) -> Pairing:
    """Pair admitted units by closest fitted idle frequency.

    Takes the n_units lowest-idle-frequency admitted units, sorts them,
    and pairs adjacent entries so each pair's offset difference is
    small.  The lower half of the pairs is assigned to the x axis and
    the upper half to y, with opposite full-magnitude codes per pair.
    """
    if len(admitted) < n_units:
        raise InsufficientUnitsError(
            f"pairing needs {n_units} admitted units, got {len(admitted)}")
    if n_units % 4 != 0:
        raise ValueError("n_units must be a multiple of 4 (pairs per axis)")
    chosen = sorted(admitted, key=lambda f: f.f_idle_hat)[:n_units]
    n_pairs = n_units // 2
    n_x = n_pairs // 2
    pairs = []
    for j in range(n_pairs):
        a, b = chosen[2 * j], chosen[2 * j + 1]
        if j < n_x:
            codes = ((12, 8), (4, 8))
            axis = "x"
        else:
            codes = ((8, 12), (8, 4))
            axis = "y"
        pairs.append(Pair(unit_a=a.unit, unit_b=b.unit, axis=axis,
                          code_a=codes[0], code_b=codes[1]))
    return Pairing(pairs=tuple(pairs))


def circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def predicted_frequency(fit: UnitFit, pref: tuple[int, int],
                        v: tuple[float, float]) -> float:
    return fit.f_idle_hat + fit.beta_hat * (v[0] * pref[0] + v[1] * pref[1])


def compile_lookup(pairing: Pairing, fits: Iterable[UnitFit],
                   target: TargetLocation, speed: float,
                   tolerance: float = DEFAULT_TAP_TOLERANCE,
                   drift_tolerance: float = DEFAULT_DRIFT_TOLERANCE,
                   min_active_groups: int = DEFAULT_MIN_ACTIVE_GROUPS) -> MuxTable:
    """Compile the phase-tap lookup table for one designated target.

    Works in the time domain: the arrival time is target distance over
    speed, each unit's phase at arrival is predicted from its fitted
    frequency under straight motion toward the target, and the group
    whose axis matches the target bearing gets its positive member's tap
    advanced so the pair envelope peaks exactly at arrival.  Taps
    quantize to the nearest of eight steps, ties toward the lower index.

    The other pair in each group cannot be corrected (only one routable
    tap per group); a group is dropped when that pair's predicted
    envelope misalignment at arrival exceeds ``drift_tolerance``, or
    when the tap rounding residual exceeds ``tolerance``.  Compilation
    fails when fewer than ``min_active_groups`` groups survive.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    fit_by_unit = {f.unit: f for f in fits}
    arrival_t = target.r / speed
    v = (speed * math.cos(target.theta), speed * math.sin(target.theta))
    x_active = abs(v[0]) >= abs(v[1])

    phases: dict[int, float] = {}
    for p in pairing.pairs:
        pref_a = p.pref_a()
        pref_b = (-pref_a[0], -pref_a[1])
        for unit, pref in ((p.unit_a, pref_a), (p.unit_b, pref_b)):
            f_hat = predicted_frequency(fit_by_unit[unit], pref, v)
            phases[unit] = (f_hat * arrival_t) % 1.0

    taps = {unit: 0 for unit in pairing.unit_ids()}
    dropped: list[int] = []
    residuals: list[float] = []
    for g in range(pairing.n_groups):
        xp, yp = pairing.group(g)
        active, idle = (xp, yp) if x_active else (yp, xp)
        delta_active = (phases[active.unit_a] - phases[active.unit_b]) % 1.0
        required = (-delta_active) % 1.0
        best_k, best_d = 0, circular_distance(0.0, required)
        for k in range(1, TAP_COUNT):
            d = circular_distance(k * TAP_STEP, required)
            if d < best_d:
                best_k, best_d = k, d
        taps[active.unit_a] = best_k
        residuals.append(best_d)
        idle_err = circular_distance(
            (phases[idle.unit_a] - phases[idle.unit_b]) % 1.0, 0.0)
        if best_d > tolerance or idle_err > drift_tolerance:
            dropped.append(g)

    if pairing.n_groups - len(dropped) < min_active_groups:
        raise CompileError(
            f"only {pairing.n_groups - len(dropped)} active groups after "
            f"dropping {len(dropped)}, need {min_active_groups}")

    slots = []
    for p in pairing.pairs:
        slots.append((p.unit_a, taps[p.unit_a]))
        slots.append((p.unit_b, 0))
    return MuxTable(slots=slots, dropped=dropped, target=target, speed=speed,
                    tolerance=tolerance, drift_tolerance=drift_tolerance,
                    residuals=residuals)


def serialize_mux(mux: MuxTable) -> str:
    lines = [
        MUX_FORMAT_VERSION,
        f"target_r={mux.target.r!r}",
        f"target_theta={mux.target.theta!r}",
        f"speed={mux.speed!r}",
        f"tolerance={mux.tolerance!r}",
        f"drift_tolerance={mux.drift_tolerance!r}",
    ]
    for i, (unit, tap) in enumerate(mux.slots):
        lines.append(f"{i},{unit},{tap}")
    for g in sorted(mux.dropped):
        lines.append(f"drop,{g}")
    return "\n".join(lines) + "\n"


def deserialize_mux(text: str) -> MuxTable:
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
    return MuxTable(
        slots=slots, dropped=dropped,
        target=TargetLocation(header["target_r"], header["target_theta"]),
        speed=header["speed"], tolerance=header["tolerance"],
        drift_tolerance=header["drift_tolerance"])


def schmitt_batch(y: np.ndarray, rise: float, fall: float) -> np.ndarray:
    """Vectorized Schmitt trigger along axis 0, initial output low."""
    marks = np.zeros(y.shape, dtype=np.int8)
    marks[y >= rise] = 1
    marks[y <= fall] = -1
    idx = np.arange(y.shape[0]).reshape((-1,) + (1,) * (y.ndim - 1))
    nonzero = marks != 0
    last = np.maximum.accumulate(np.where(nonzero, idx, -1), axis=0)
    filled = np.take_along_axis(marks, np.maximum(last, 0), axis=0)
    filled = np.where(last >= 0, filled, -1)
    return (filled == 1).astype(np.uint8)


def _stage(layer: int, filters: FilterParams) -> tuple:
    """(FIR taps, RC alpha, Schmitt rise, Schmitt fall) of one layer."""
    if layer == 1:
        return FIR_LAYER1, filters.alpha1, filters.rise1, filters.fall1
    if layer == 2:
        return FIR_LAYER2, filters.alpha2, filters.rise2, filters.fall2
    raise ValueError(f"layer must be 1 or 2, got {layer}")


def filter_stage_batch(x: np.ndarray, layer: int,
                       filters: FilterParams = DEFAULT_FILTERS) -> np.ndarray:
    """One layer's nodes over a whole [T, nodes] block of AND outputs,
    from cleared state: the layer's 9-tap FIR, the leaky RC accumulator
    y += alpha * (fir - y), and the Schmitt trigger (rises at the rise
    threshold, falls at the fall threshold, starts low)."""
    coeffs, alpha, rise, fall = _stage(layer, filters)
    fir = lfilter(coeffs, [1.0], x, axis=0)
    rc = lfilter([alpha], [1.0, alpha - 1.0], fir, axis=0)
    return schmitt_batch(rc, rise, fall)


class VectorNetwork:
    """Runtime instance of one compiled vector-cell network.

    ``frame_layout`` maps (unit, tap) to its position within each scan
    frame; the multiplexer gathers the 80 routed inputs from there.
    ``run`` computes an entire constant-configuration session from
    cleared filter state in one vectorized pass per layer.
    """

    def __init__(self, mux: MuxTable,
                 frame_layout: dict[tuple[int, int], int],
                 filters: FilterParams = DEFAULT_FILTERS):
        filters.validate()
        self.mux = mux
        self.filters = filters
        try:
            self.input_pos = np.array([frame_layout[slot] for slot in mux.slots])
        except KeyError as exc:
            raise CompileError(
                f"mux routes phase {exc.args[0]} that the scan does not output")
        self.n_pairs = mux.n_pairs
        self.n_groups = mux.n_groups
        self.active = np.array(mux.active_groups, dtype=int)

    def run(self, frames: np.ndarray) -> np.ndarray:
        """Whole-session output bits for [T, frame] input, from cleared state."""
        if frames.shape[0] == 0:
            return np.zeros(0, dtype=np.uint8)
        routed = frames[:, self.input_pos]
        x1 = (routed[:, 0::2] & routed[:, 1::2]).astype(float)
        l1_bits = filter_stage_batch(x1, 1, self.filters)
        half = self.n_pairs // 2
        x2 = (l1_bits[:, :half] & l1_bits[:, half:half + self.n_groups]).astype(float)
        l2_bits = filter_stage_batch(x2, 2, self.filters)
        if self.active.size == 0:
            return np.zeros(frames.shape[0], dtype=np.uint8)
        return l2_bits[:, self.active].all(axis=1).astype(np.uint8)


def sharable_nodes(m: int, n: int) -> int:
    """Count of interference nodes reusable across same-basis networks.

    With one routable unit per 2^n-unit group, every node whose subtree
    excludes the routable unit has a fixed phase and can be shared:
    S = M * (1 - (N + 1) / 2^N), exact for M divisible by 2^N.
    """
    _validate_node_args(m, n)
    return m * (2 ** n - n - 1) // 2 ** n


def total_nodes(m: int, n: int, k: int) -> int:
    """Total nodes for k networks sharing their constant-phase nodes:
    Q = M * (1 + ((K - 1) * N - 1) / 2^N)."""
    _validate_node_args(m, n)
    if k < 1:
        raise ValueError(f"network count must be >= 1, got {k}")
    return m + m * ((k - 1) * n - 1) // 2 ** n


def _validate_node_args(m: int, n: int) -> None:
    if n < 1:
        raise ValueError(f"layer count must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"unit count must be >= 1, got {m}")
    if m % 2 ** n != 0:
        raise ValueError(f"unit count {m} not divisible by 2^{n}")
