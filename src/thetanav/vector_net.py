"""Interference network compiler and runtime for vector cells.

The network AND-interferes pairs of theta units whose preferred
velocities oppose, so pair gains add while idle-frequency offsets
subtract.  A first layer of 40 such pair nodes feeds a second layer of
20 nodes (one x-axis pair joined with one y-axis pair), and a final AND
over the active second-layer nodes yields the vector-cell output: high
when the displacement since the last phase reset matches the designated
target vector.

Each node is an AND gate followed by a 9-tap FIR, a one-pole RC stage
and a Schmitt trigger.  The pairing holds each pair's two units and
their calibration fits as [2, n] arrays; from them the compiler predicts
every unit's phase at the target arrival time at once and routes one of
eight phase taps per group, so the relevant pair envelopes align exactly
when the agent arrives.

A network runs only from a :class:`NodeBank` over one scan, shared by
every network that reads that scan, as the chip shares its nodes: the
bank filters each distinct first-layer node (two routed frame
positions) and each distinct second-layer node of an active group (two
first-layer nodes) once, and a network's output is the AND of its own
second-layer nodes in the bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.signal import lfilter

from .chip_io import (NETWORK_UNITS, PAIR_CODES, TAPS_PER_UNIT,
                      InsufficientUnitsError, UnitFit)
from .theta_core import decode_velocity_code

TAP_STEP = 1.0 / TAPS_PER_UNIT

# 9-tap window FIR per layer, both normalized to unit DC gain.  Layer 1
# uses a raised-cosine window for stronger carrier rejection; layer 2 a
# plain moving average.
FIR_TAPS = 9
FIR_LAYER1 = (np.hamming(FIR_TAPS) / np.hamming(FIR_TAPS).sum())
FIR_LAYER2 = np.full(FIR_TAPS, 1.0 / FIR_TAPS)

# (FIR taps, RC alpha, Schmitt rise, Schmitt fall) of each layer, with
# layer 2's RC pole below layer 1's.  The layer-1 thresholds bracket half
# the filtered AND plateau of two square waves (0.5 before attenuation);
# layer 2 sees binarized envelopes with a full 0..1 swing, so its
# thresholds straddle 0.5.  :func:`schmitt_batch` is exact as fall < rise.
STAGES = {
    1: (FIR_LAYER1, 1.0 / 16.0, 0.22, 0.08),
    2: (FIR_LAYER2, 1.0 / 64.0, 0.55, 0.45),
}

DEFAULT_TAP_TOLERANCE = 1.0 / 16.0
DEFAULT_DRIFT_TOLERANCE = 0.35
DEFAULT_MIN_ACTIVE_GROUPS = 12

# A node bank filters at most this many nodes in one pass (one network's
# first-layer width), which bounds the float work arrays of a large bank.
NODE_BLOCK = 40

MUX_FORMAT_VERSION = "muxtable-v1"


class CompileError(RuntimeError):
    """Lookup compilation left fewer active groups than required."""


@dataclass(frozen=True)
class TargetLocation:
    """Designated displacement in polar form: distance in spatial units
    and bearing in radians.  One spatial unit is the distance covered in
    one second at unit velocity-code speed."""

    r: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.theta)):
            raise ValueError(f"target ({self.r}, {self.theta}) is not finite")
        if self.r < 0:
            raise ValueError(f"distance must be >= 0, got {self.r}")

    @classmethod
    def of_cell(cls, cell: tuple[int, int], pitch: float) -> TargetLocation:
        """The displacement to grid cell (x, y), cells ``pitch`` apart."""
        x, y = cell
        return cls(pitch * math.hypot(x, y), math.atan2(y, x))


# The decoded chip_io.PAIR_CODES as [axis, member, component].
_PAIR_PREF = np.vectorize(decode_velocity_code)(PAIR_CODES)


@dataclass(frozen=True, eq=False)
class Pairing:
    """First-layer pairing of n pairs as read-only [2, n] arrays.

    ``unit`` holds each pair's routable member (row 0) and its tap-0
    partner (row 1); ``f_idle`` and ``beta`` are the members' fitted idle
    frequencies and gains.  Pairs 0..n/2-1 lie on the x axis and the rest
    on y; second-layer group i joins pair i with pair n/2 + i.
    """

    unit: np.ndarray
    f_idle: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        for name, dtype in (("unit", int), ("f_idle", float), ("beta", float)):
            values = np.array(getattr(self, name), dtype=dtype)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        shapes = {self.unit.shape, self.f_idle.shape, self.beta.shape}
        if shapes != {(2, 2 * self.n_groups)} or not self.n_groups:
            raise ValueError("unit, f_idle and beta must be [2, n], n even > 0")

    @property
    def n_groups(self) -> int:
        return self.unit.shape[-1] // 2


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


def pair_layer1(admitted: Sequence[UnitFit],
                n_units: int = NETWORK_UNITS) -> Pairing:
    """Pair admitted units by closest fitted idle frequency.

    Takes the n_units lowest-idle-frequency admitted units, sorts them
    stably, and pairs adjacent entries so each pair's offset difference
    is small; the lower entry is the routable member.  The lower half of
    the pairs lies on the x axis and the upper half on y.
    """
    if len(admitted) < n_units:
        raise InsufficientUnitsError(
            f"pairing needs {n_units} admitted units, got {len(admitted)}")
    chosen = sorted(admitted, key=lambda f: f.f_idle_hat)[:n_units]
    unit, f_idle, beta, _ = (np.reshape(column, (-1, 2)).T
                             for column in zip(*chosen))
    return Pairing(unit=unit, f_idle=f_idle, beta=beta)


def circular_distance(a, b):
    """Elementwise distance in [0, 1/2] between phases a and b (cycles)."""
    d = np.abs(np.subtract(a, b)) % 1.0
    return np.minimum(d, 1.0 - d)


def compile_lookup(pairing: Pairing, target: TargetLocation, speed: float,
                   tolerance: float = DEFAULT_TAP_TOLERANCE,
                   drift_tolerance: float = DEFAULT_DRIFT_TOLERANCE,
                   min_active_groups: int = DEFAULT_MIN_ACTIVE_GROUPS) -> MuxTable:
    """Compile the phase-tap lookup table for one designated target.

    Works in the time domain: the arrival time is target distance over
    speed, and every member's phase at arrival is predicted, as one [2, n]
    array, from its fit under straight motion toward the target.  In each
    group the pair on the bearing's axis (x when |vx| >= |vy|) gets its
    routable member's tap advanced so the pair envelope peaks exactly at
    arrival: the argmin of a [groups, 8] array of circular distances to
    the required shift, the lower tap index on a tie.

    The other pair in each group cannot be corrected (only one routable
    tap per group); a group is dropped when that pair's predicted
    envelope misalignment at arrival exceeds ``drift_tolerance``, or
    when the tap rounding residual exceeds ``tolerance``.  Compilation
    fails when fewer than ``min_active_groups`` groups survive.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    groups = pairing.n_groups
    arrival_t = target.r / speed
    v = (speed * math.cos(target.theta), speed * math.sin(target.theta))
    pref = np.repeat(_PAIR_PREF, groups, axis=0)   # [pair, member, component]
    inner = v[0] * pref[..., 0].T + v[1] * pref[..., 1].T
    phase = ((pairing.f_idle + pairing.beta * inner) * arrival_t) % 1.0
    delta = ((phase[0] - phase[1]) % 1.0).reshape(2, -1)   # [axis, group]
    on = 0 if abs(v[0]) >= abs(v[1]) else 1         # the bearing's axis

    required = (-delta[on]) % 1.0
    distance = circular_distance(np.arange(TAPS_PER_UNIT) * TAP_STEP,
                                 required[:, None])
    best = distance.argmin(axis=1)
    residuals = distance.min(axis=1)
    idle_err = circular_distance(delta[1 - on], 0.0)
    dropped = np.flatnonzero((residuals > tolerance)
                             | (idle_err > drift_tolerance)).tolist()

    if groups - len(dropped) < min_active_groups:
        raise CompileError(
            f"only {groups - len(dropped)} active groups after "
            f"dropping {len(dropped)}, need {min_active_groups}")

    tap = np.zeros((2, 2, groups), dtype=int)      # [member, axis, group]
    tap[0, on] = best
    slots = list(zip(pairing.unit.T.ravel().tolist(),
                     tap.reshape(2, -1).T.ravel().tolist()))
    return MuxTable(slots=slots, dropped=dropped, target=target, speed=speed,
                    tolerance=tolerance, drift_tolerance=drift_tolerance,
                    residuals=residuals.tolist())


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


def schmitt_batch(y: np.ndarray, rise: float, fall: float) -> np.ndarray:
    """Vectorized Schmitt trigger along axis 0, initial output low.

    The output at sample t is high when the last sample at or above
    ``rise`` up to t is later than the last sample at or below ``fall``.
    ``up`` and ``down`` hold those last sample indices, counted from 1
    so that 0 means "none yet", as running maxima of the marked indices.
    The form is exact because ``fall < rise`` in every layer of
    ``STAGES``: no sample is marked both ways, so the two indices are
    equal only while both read 0, before the first mark, where the
    output is low.  int32 indices hold for sessions below 2**31 samples.
    """
    idx = np.arange(1, y.shape[0] + 1, dtype=np.int32)
    idx = idx.reshape((-1,) + (1,) * (y.ndim - 1))
    up = np.maximum.accumulate((y >= rise) * idx, axis=0)
    down = np.maximum.accumulate((y <= fall) * idx, axis=0)
    return (up > down).astype(np.uint8)


def filter_stage_batch(x: np.ndarray, layer: int) -> np.ndarray:
    """One layer's nodes over a whole [T, nodes] block of AND outputs,
    from cleared state, with the layer's ``STAGES`` constants: the 9-tap
    FIR, the leaky RC accumulator y += alpha * (fir - y), and the Schmitt
    trigger (rises at the rise threshold, falls at the fall threshold,
    starts low)."""
    if layer not in STAGES:
        raise ValueError(f"layer must be 1 or 2, got {layer}")
    coeffs, alpha, rise, fall = STAGES[layer]
    fir = lfilter(coeffs, [1.0], x, axis=0)
    rc = lfilter([alpha], [1.0, alpha - 1.0], fir, axis=0)
    return schmitt_batch(rc, rise, fall)


class VectorNetwork:
    """Runtime instance of one compiled vector-cell network.

    ``frame_layout`` maps (unit, tap) to its position within each scan
    frame; the multiplexer gathers the 80 routed inputs from there, so
    first-layer node j ANDs frame positions ``input_pos[2j]`` and
    ``input_pos[2j + 1]``.  ``run`` computes an entire
    constant-configuration session from cleared filter state, reading
    the node bits from a :class:`NodeBank` shared with the other
    networks on the same scan.
    """

    def __init__(self, mux: MuxTable,
                 frame_layout: dict[tuple[int, int], int]):
        self.mux = mux
        try:
            self.input_pos = np.array([frame_layout[slot] for slot in mux.slots])
        except KeyError as exc:
            raise CompileError(
                f"mux routes phase {exc.args[0]} that the scan does not output")
        self.n_pairs = mux.n_pairs
        self.active = np.array([g for g in range(self.n_pairs // 2)
                                if g not in mux.dropped], dtype=int)

    def run(self, frames: np.ndarray, bank: NodeBank) -> np.ndarray:
        """Whole-session output bits for [T, frame] input, from cleared
        state: the AND of this network's active second-layer nodes in
        ``bank``, which must have been built on ``frames`` with it."""
        if bank.frames is not frames:
            raise ValueError("the node bank was built on other frames")
        columns = bank._columns[self]
        if columns.size == 0:
            return np.zeros(frames.shape[0], dtype=np.uint8)
        return bank.layer2[:, columns].all(axis=1).astype(np.uint8)


class NodeBank:
    """Bits of every distinct node of the networks that read one scan.

    A first-layer node is keyed by its two frame positions and a
    second-layer node by its two first-layer nodes; only second-layer
    nodes of active groups are kept, since dropped groups never reach
    the output AND.  Each distinct node is filtered once, from cleared
    state, in blocks of at most ``NODE_BLOCK`` nodes: the filters treat
    every column on its own, so the bits equal those of each network
    filtered alone.
    """

    def __init__(self, frames: np.ndarray, networks: Iterable[VectorNetwork]):
        networks = list(networks)
        self.frames = frames
        l1_inputs, l1_of = _distinct(
            [net.input_pos.reshape(-1, 2) for net in networks])
        l2_inputs, l2_of = _distinct(
            [np.column_stack((nodes[net.active],
                              nodes[net.n_pairs // 2 + net.active]))
             for net, nodes in zip(networks, l1_of)])
        self._columns = dict(zip(networks, l2_of))
        self.layer1 = _filter_nodes(frames, l1_inputs, 1)
        self.layer2 = _filter_nodes(self.layer1, l2_inputs, 2)


def _distinct(keys: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct rows of the [n, 2] arrays ``keys``, and the rows of
    each array as indices into them."""
    distinct, inverse = np.unique(
        np.concatenate([np.empty((0, 2), dtype=int)] + keys), axis=0,
        return_inverse=True)
    ends = np.cumsum([len(k) for k in keys])
    return distinct, np.split(inverse.reshape(-1), ends[:-1])


def _filter_nodes(source: np.ndarray, inputs: np.ndarray,
                  layer: int) -> np.ndarray:
    """[T, len(inputs)] bits of one layer's nodes, node k filtering the
    AND of ``source`` columns ``inputs[k]``."""
    bits = np.zeros((source.shape[0], len(inputs)), dtype=np.uint8)
    if source.shape[0] == 0:
        return bits   # lfilter refuses an empty signal
    for lo in range(0, len(inputs), NODE_BLOCK):
        a, b = inputs[lo:lo + NODE_BLOCK].T
        x = (source[:, a] & source[:, b]).astype(float)
        bits[:, lo:lo + NODE_BLOCK] = filter_stage_batch(x, layer)
    return bits


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
