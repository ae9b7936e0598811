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
every network that reads that scan, as the chip shares its nodes.  A
:class:`NodeLayout`, built once for a set of networks, holds each
distinct second-layer node of an active group (two first-layer nodes),
each distinct first-layer node those read (two routed frame positions)
and the frame positions those read, its ``columns``: the only taps a
scan for the networks decodes, as the paper's lookup-table mux reads
only the taps it routes.  The bank filters each node once over frames
that hold just those columns, carries the filter state from one block
of the session's frames to the next, and a network's output is the AND
of its own second-layer nodes in the bank.  The bank stores each
layer's bits node-major, as the scan stores its frames tap-major:
``bank.layer2.T[k]`` is node k's contiguous trace, so a node reads its
two inputs and a network its nodes as whole rows, and each filter stage
runs on a [nodes, T] block of those rows, time on the last axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

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

# A node bank filters at most this many node-ticks in one pass: one
# network's 40 first-layer nodes over the default field map's 2,829-tick
# session.  That bounds the float work arrays of a large bank, and a
# short session filters a whole layer in one pass.
NODE_TICK_BLOCK = 40 * 2829

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

# The phase, in cycles, that each of a unit's taps adds.
_TAP_PHASES = np.arange(TAPS_PER_UNIT) * TAP_STEP
_TAP_PHASES.flags.writeable = False


@functools.cache
def _member_pref(groups: int) -> np.ndarray:
    """The preferred velocity of each pair member of a pairing of
    ``groups`` groups, as read-only [component, member, pair] floats."""
    pref = np.repeat(_PAIR_PREF, groups, axis=0).T.astype(float)
    pref.flags.writeable = False
    return pref


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


@dataclass(frozen=True, eq=False)
class MuxTable:
    """Compiled phase-tap routing for one vector-cell network.

    Tap ``tap[i]`` of unit ``unit[i]`` (int [80] arrays) feeds network
    input i in wiring order: inputs 2j and 2j+1 feed first-layer node j.
    ``dropped`` flags second-layer groups whose predicted alignment error
    at arrival exceeds tolerance; the output AND ignores them.
    """

    unit: np.ndarray
    tap: np.ndarray
    dropped: list[int]
    target: TargetLocation
    speed: float
    tolerance: float
    drift_tolerance: float
    residuals: list[float] = field(default_factory=list)


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
    pref_x, pref_y = _member_pref(groups)
    inner = v[0] * pref_x + v[1] * pref_y
    phase = ((pairing.f_idle + pairing.beta * inner) * arrival_t) % 1.0
    delta = ((phase[0] - phase[1]) % 1.0).reshape(2, -1)   # [axis, group]
    on = 0 if abs(v[0]) >= abs(v[1]) else 1         # the bearing's axis

    # Circular distances: both operands lie in [0, 1], so |a - b| <= 1
    # needs no wrap (a gap of 1.0 folds to 0 either way).
    required = (-delta[on]) % 1.0
    gap = np.abs(_TAP_PHASES - required[:, None])
    distance = np.minimum(gap, 1.0 - gap)
    best = distance.argmin(axis=1)
    residuals = distance.min(axis=1)
    idle = delta[1 - on]
    idle_err = np.minimum(idle, 1.0 - idle)
    dropped = np.flatnonzero((residuals > tolerance)
                             | (idle_err > drift_tolerance)).tolist()

    if groups - len(dropped) < min_active_groups:
        raise CompileError(
            f"only {groups - len(dropped)} active groups after "
            f"dropping {len(dropped)}, need {min_active_groups}")

    tap = np.zeros((2, 2, groups), dtype=int)      # [member, axis, group]
    tap[0, on] = best
    return MuxTable(unit=pairing.unit.T.ravel(),
                    tap=tap.reshape(2, -1).T.ravel(),
                    dropped=dropped, target=target, speed=speed,
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
    for i, (unit, tap) in enumerate(zip(mux.unit.tolist(), mux.tap.tolist())):
        lines.append(f"{i},{unit},{tap}")
    for g in sorted(mux.dropped):
        lines.append(f"drop,{g}")
    return "\n".join(lines) + "\n"


def schmitt_batch(y: np.ndarray, rise: float, fall: float,
                  last=0) -> np.ndarray:
    """Vectorized Schmitt trigger along the last axis from output
    ``last`` (0/1 per row, low by default).

    The output at sample t is high when the last sample up to t at or
    above ``rise`` is later than the last one at or below ``fall``, or
    when there is neither and ``last`` is high.  So it can change only
    at the first sample of a run at or above ``rise`` (to 1) or of a
    run at or below ``fall`` (to 0): each row reads ``last`` up to its
    first run start, then each run start's kind up to the next.  One
    ``np.repeat`` over the node-major buffer paints every row from those
    few points; a run start of the kind already painted repaints the
    same value, so no run start needs dropping.  The form is exact
    because ``fall < rise`` in every layer of ``STAGES``: no sample
    starts runs of both kinds.
    """
    ticks = y.shape[-1]
    if not ticks:
        return np.zeros(y.shape, dtype=np.uint8)
    up = y >= rise
    down = y <= fall
    starts = np.empty(y.shape, dtype=bool)
    starts[..., 0] = up[..., 0] | down[..., 0]
    np.greater(up[..., 1:], up[..., :-1], out=starts[..., 1:])
    starts[..., 1:] |= down[..., 1:] > down[..., :-1]
    at = np.flatnonzero(starts)
    opening = np.empty(y.shape[:-1], dtype=np.uint8)
    opening[...] = last
    # A stable sort puts each row's opening before a run start at its
    # first sample, which then leaves the opening empty.
    edges = np.concatenate((np.arange(0, y.size, ticks), at, [y.size]))
    order = np.argsort(edges, kind="stable")
    edges = edges[order]
    values = np.concatenate((opening.ravel(), up.ravel()[at].view(np.uint8)))
    return np.repeat(values[order[:-1]],
                     edges[1:] - edges[:-1]).reshape(y.shape)


class StageState(NamedTuple):
    """One layer's filter state at the end of a block, node first: the
    node's last ``FIR_TAPS - 1`` inputs, oldest first (0 before the
    session), the RC filter's ``lfilter`` state and the Schmitt
    trigger's output."""

    inputs: np.ndarray
    rc: np.ndarray
    out: np.ndarray

    @classmethod
    def cleared(cls, nodes: tuple[int, ...]) -> StageState:
        """The state of nodes of shape ``nodes`` at a session's start."""
        return cls(np.zeros(nodes + (FIR_TAPS - 1,), dtype=np.uint8),
                   np.zeros(nodes + (1,)), np.zeros(nodes, dtype=np.uint8))


def filter_stage_batch(x: np.ndarray, layer: int, state: StageState,
                       work: np.ndarray | None = None):
    """One layer's nodes over a [nodes, T] block of 0/1 AND bits, time on
    the last axis, with the layer's ``STAGES`` constants: the 9-tap FIR,
    the leaky RC accumulator y += alpha * (fir - y), and the Schmitt
    trigger (rises at the rise threshold, falls at the fall threshold,
    starts low).

    The block continues the session whose earlier blocks left ``state``
    (``StageState.cleared`` before the first), and the call returns its
    bits and the state after it: the FIR reads the last 8 inputs before
    the block, the RC filter starts from ``lfilter``'s final state and
    the Schmitt trigger from the last output.  The bits equal those of
    the blocks filtered as one, bit for bit.

    ``work``, if given, is a C-contiguous float array of shape [nodes,
    T + FIR_TAPS - 1] that the FIR writes into (see ``_fir``).  A caller
    that filters many blocks passes one array for all of them, so each
    block reuses its pages rather than ones the allocator must map
    afresh."""
    if layer not in STAGES:
        raise ValueError(f"layer must be 1 or 2, got {layer}")
    if not x.shape[-1]:   # lfilter refuses an empty signal
        return np.zeros(x.shape, dtype=np.uint8), state
    coeffs, alpha, rise, fall = STAGES[layer]
    window = np.concatenate((state.inputs, x), axis=-1)
    rc, rc_state = lfilter([alpha], [1.0, alpha - 1.0],
                           _fir(window, coeffs, work), axis=-1, zi=state.rc)
    bits = schmitt_batch(rc, rise, fall, state.out)
    return bits, StageState(window[..., 1 - FIR_TAPS:], rc_state,
                            bits[..., -1])


def _fir(window: np.ndarray, coeffs: np.ndarray,
         out: np.ndarray | None = None) -> np.ndarray:
    """The 9-tap FIR ``coeffs`` along the last axis of a 0/1 ``window``
    whose rows each open with their ``FIR_TAPS - 1`` history samples
    (``StageState.inputs``), over the T samples after them: a [..., T]
    result whose sample t sums taps over window samples t..t + 8.  Each
    sample's last 9 bits form a code, bit i the sample i ticks back,
    that indexes a 512-entry table of tap sums added oldest sample
    first, the order ``np.convolve`` (which ``lfilter`` runs for a FIR)
    uses from T = 10, so from there the floats are ``lfilter``'s bit for
    bit on a row opening with cleared history.  Below T = 10
    ``np.convolve`` sums newest first, which can differ in the last bit,
    but on no 0/1 block that short does a node of either layer give
    another output.

    The codes are built by shifts over the flattened window, so a row's
    first 8 codes read the previous row's tail; those are the history
    columns' codes, which the result leaves out, so no code of a
    returned sample reads another row.  They index the table into the
    flat ``out``, a C-contiguous float array of the window's shape (a
    new one by default), and the result is its view past the history
    columns.  A non-contiguous ``out`` raises ValueError.  The codes of
    0/1 bits lie below 512, so clipping never binds; it only spares
    ``np.take`` its bounds check."""
    if out is None:
        out = np.empty(window.shape)
    elif out.shape != window.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous of shape {window.shape}")
    flat = window.reshape(-1)
    code = flat.astype(np.uint16)
    for shift in (1, 2, 4):   # code then holds the last 2 * shift samples
        code[shift:] |= code[:-shift] << shift
    code[8:] |= flat[:-8].astype(np.uint16) << 8
    np.take(_fir_table(tuple(coeffs)), code, mode="clip",
            out=out.reshape(-1))
    return out[..., FIR_TAPS - 1:]


@functools.cache
def _fir_table(coeffs: tuple[float, ...]) -> np.ndarray:
    """The FIR output of every window code, its taps summed one at a time
    from the oldest sample.  A 0 bit adds 0.0, which leaves a sum
    unchanged, so each entry is the sum of its taps in that order."""
    codes = np.arange(1 << FIR_TAPS)
    table = np.zeros(codes.size)
    for i in reversed(range(FIR_TAPS)):
        table = table + ((codes >> i) & 1) * coeffs[i]
    table.flags.writeable = False
    return table


class VectorNetwork:
    """Runtime instance of one compiled vector-cell network.

    ``frame_layout`` is an int [n_units, 8] array of each (unit, tap)'s
    position within each scan frame, negative where the scan does not
    output that tap; the multiplexer reads the 80 routed inputs'
    positions ``input_pos = frame_layout[mux.unit, mux.tap]``, so
    first-layer node j ANDs ``input_pos[2j]`` and ``input_pos[2j + 1]``,
    which a node bank reads from the columns of its layout that hold
    them.  A routed tap the scan does not output raises CompileError.
    ``run`` reads the output over a block of a constant-configuration
    session from reset from the node bits of a :class:`NodeBank` shared
    with the other networks on the same scan.
    """

    def __init__(self, mux: MuxTable, frame_layout: np.ndarray):
        self.mux = mux
        self.input_pos = frame_layout[mux.unit, mux.tap]
        if self.input_pos.min() < 0:
            i = np.argmax(self.input_pos < 0)
            raise CompileError(f"mux routes phase ({mux.unit[i]}, "
                               f"{mux.tap[i]}) that the scan does not output")
        self.n_pairs = mux.unit.size // 2
        self.active = np.delete(np.arange(self.n_pairs // 2), mux.dropped)

    def run(self, frames: np.ndarray, bank: NodeBank) -> np.ndarray:
        """Output bits over ``frames``, a block of a session from reset:
        the AND of this network's active second-layer nodes in ``bank``,
        a bank on a layout with this network that last filtered
        ``frames``; the AND of their node-major rows, as uint8 0/1.
        With no active group the output is all 0."""
        if bank.frames is not frames:
            raise ValueError("the node bank last filtered other frames")
        columns = bank.layout.l2_of[self]
        if columns.size == 0:
            return np.zeros(frames.shape[0], dtype=np.uint8)
        return np.bitwise_and.reduce(bank.layer2.T[columns], axis=0)


class NodeLayout:
    """Every distinct node of the networks that read one scan, and the
    frame positions those nodes read.

    Only active groups are laid out, since dropped groups never reach
    the output AND: a first-layer node is keyed by its two frame
    positions, an active group's x or y pair, and a second-layer node
    by the group's x and y first-layer nodes.  ``columns`` holds the
    sorted frame positions that the first-layer nodes read, the only
    ones a scan for these networks decodes (see
    ``chip_io.scan_frames``).  ``l1_inputs`` holds each first-layer
    node's two indices into ``columns``, ``l2_inputs`` each second-layer
    node's two first-layer nodes and ``l2_of`` each network's
    second-layer nodes.  The layout depends only on the networks, so one
    layout serves every session they observe.
    """

    def __init__(self, networks: Iterable[VectorNetwork]):
        networks = list(networks)
        l1_inputs, l1_of = _distinct(
            [net.input_pos.reshape(2, -1, 2)[:, net.active].reshape(-1, 2)
             for net in networks])
        l2_inputs, l2_of = _distinct(
            [nodes.reshape(2, -1).T for nodes in l1_of])
        self.columns, l1_inputs = np.unique(l1_inputs, return_inverse=True)
        self.l1_inputs = l1_inputs.reshape(-1, 2)
        self.l2_inputs = l2_inputs.reshape(-1, 2)
        self.l2_of = dict(zip(networks, l2_of))


class NodeBank:
    """Filter state of every node of a :class:`NodeLayout` over one
    session from reset, and the nodes' bits over its latest block.

    A bank starts cleared, as a session from reset does.  Each
    :meth:`extend` filters the session's next block of frames, whose
    columns hold the layout's ``columns``: each distinct node once, in
    blocks of at most ``NODE_TICK_BLOCK`` node-ticks, continuing each
    node's filters from where the last block left them.  The filters
    treat every column on its own, so the bits equal those of each
    network filtered alone in one pass on full frames, however the
    session is split into blocks.

    ``layer1`` and ``layer2`` are [T, node] arrays stored node-major,
    each the transpose of a [node, T] buffer, so ``layer2.T[k]`` is node
    k's trace over the block with no stride.
    """

    def __init__(self, layout: NodeLayout):
        self.layout = layout
        self.frames = None
        self._state = {
            1: StageState.cleared((len(layout.l1_inputs),)),
            2: StageState.cleared((len(layout.l2_inputs),)),
        }

    def extend(self, frames: np.ndarray) -> NodeBank:
        """Filter ``frames``, the session's next [T, column] block, into
        ``layer1`` and ``layer2``, the [T, node] bits of each layer,
        stored node-major."""
        columns = self.layout.columns
        if columns.shape != frames.shape[1:]:
            raise ValueError(f"column positions of shape {columns.shape} "
                             f"for frames of {frames.shape[1]} columns")
        self.layer1 = _filter_nodes(frames, self.layout.l1_inputs,
                                    self._state[1], 1)
        self.layer2 = _filter_nodes(self.layer1, self.layout.l2_inputs,
                                    self._state[2], 2)
        self.frames = frames
        return self


def _distinct(keys: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct rows of the [n, 2] arrays ``keys`` of indices >= 0, in
    lexicographic order, and the rows of each array as indices into them.
    Each row (a, b) is keyed as a * (max + 1) + b, which orders rows as
    ``np.unique(axis=0)`` does, at the cost of a 1-D ``np.unique``."""
    rows = np.concatenate([np.empty((0, 2), dtype=np.int64)] + keys)
    base = int(rows.max(initial=0)) + 1
    codes, inverse = np.unique(rows[:, 0] * base + rows[:, 1],
                               return_inverse=True)
    ends = np.cumsum([len(k) for k in keys])
    return (np.column_stack(np.divmod(codes, base)),
            np.split(inverse, ends[:-1]))


def _filter_nodes(source: np.ndarray, inputs: np.ndarray,
                  state: StageState, layer: int) -> np.ndarray:
    """[T, len(inputs)] bits of one layer's nodes over the next T ticks,
    node k filtering the AND of ``source`` columns ``inputs[k]`` from
    its entry in ``state``, which is advanced in place, in blocks of at
    most ``NODE_TICK_BLOCK`` node-ticks.

    The work is node-major throughout: node k's input is ``rows[a] &
    rows[b]`` of ``rows = source.T``, contiguous rows when ``source`` is
    itself node-major, as tap-major scan frames and a first layer's bits
    are; each block of nodes is filtered as a [nodes, T] block, its FIR
    written into one work array that every block reuses, and its rows
    stored as they come, so the result is the transpose of a
    [len(inputs), T] buffer and ``bits.T[k]`` is node k's trace."""
    ticks = source.shape[0]
    bits = np.empty((len(inputs), ticks), dtype=np.uint8)
    if ticks == 0:
        return bits.T
    rows = source.T
    block = max(1, NODE_TICK_BLOCK // ticks)
    work = np.empty((min(block, len(inputs)), ticks + FIR_TAPS - 1))
    for lo in range(0, len(inputs), block):
        nodes = slice(lo, lo + block)
        a, b = inputs[nodes].T
        bits[nodes], after = filter_stage_batch(
            rows[a] & rows[b], layer,
            StageState(*(part[nodes] for part in state)), work[:len(a)])
        for whole, part in zip(state, after):
            whole[nodes] = part
    return bits.T


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
