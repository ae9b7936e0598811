"""Reference models the tests compare the simulator against.

``thetanav`` keeps one implementation per concept: oscillator phase in
``ChipState``/``scan_frames``, the interference node in
``filter_stage_batch``, and tap choice in ``compile_lookup``.  The models
here state the same physics the plain way (one oscillator or one node
stepped a sample at a time, the paper's closed-form tap shift) so the
tests can check the vectorized and time-domain code against them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from thetanav.vector_net import (
    DEFAULT_FILTERS,
    FIR_LAYER1,
    FIR_LAYER2,
    FIR_TAPS,
    TAP_STEP,
    FilterParams,
    PairingError,
    filter_stage_batch,
)


def advance(phase: float, f: float, dt: float) -> float:
    """One sample of the ideal phase accumulator, in cycles."""
    return (phase + f * dt) % 1.0


def tap_bit(phase: float, k: int) -> int:
    """Square-wave output of phase tap k, which leads tap 0 by k/8 cycle;
    high for the first half of each cycle."""
    return 1 if (phase + k / 8.0) % 1.0 < 0.5 else 0


def square_wave(f: float, fs: float, n: int,
                phase0: float = 0.0) -> np.ndarray:
    """Ideal 50% duty square wave sampled at fs, high in the first half
    of each cycle."""
    phase = (phase0 + f * np.arange(n) / fs) % 1.0
    return (phase < 0.5).astype(np.uint8)


def rc_step(y, x, alpha):
    """One leaky-accumulator update; exact for rational inputs."""
    return y + alpha * (x - y)


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
    def for_layer(cls, layer: int,
                  filters: FilterParams = DEFAULT_FILTERS) -> "Node":
        if layer == 1:
            return cls(FIR_LAYER1, filters.alpha1, filters.rise1,
                       filters.fall1)
        return cls(FIR_LAYER2, filters.alpha2, filters.rise2, filters.fall2)

    def step(self, a: int, b: int) -> int:
        self.hist[1:] = self.hist[:-1]
        self.hist[0] = 1.0 if (a and b) else 0.0
        self.rc = rc_step(self.rc, float(self.coeffs @ self.hist), self.alpha)
        if self.rc >= self.rise:
            self.out = 1
        elif self.rc <= self.fall:
            self.out = 0
        return self.out


def run_per_sample(net, frames: np.ndarray) -> np.ndarray:
    """What ``VectorNetwork.run`` computes, with every node of ``net``
    stepped one sample at a time from cleared state."""
    l1 = [Node.for_layer(1, net.filters) for _ in range(net.n_pairs)]
    l2 = [Node.for_layer(2, net.filters) for _ in range(net.n_groups)]
    half = net.n_pairs // 2
    out = []
    for frame in frames:
        bits = frame[net.input_pos]
        o1 = [node.step(bits[2 * j], bits[2 * j + 1])
              for j, node in enumerate(l1)]
        o2 = [node.step(o1[i], o1[half + i]) for i, node in enumerate(l2)]
        out.append(int(net.active.size > 0 and all(o2[i] for i in net.active)))
    return np.array(out, dtype=np.uint8)


def pair_beat_frequency(bits_a: np.ndarray, bits_b: np.ndarray, fs: float,
                        filters: FilterParams = DEFAULT_FILTERS) -> float:
    """Measured envelope frequency of an AND-interfered pair: the two bit
    streams through one first-layer node, rising edges per second."""
    x = (np.asarray(bits_a) & np.asarray(bits_b)).astype(float).reshape(-1, 1)
    env = filter_stage_batch(x, 1, filters)[:, 0]
    edges = int(np.count_nonzero((env[1:] == 1) & (env[:-1] == 0)))
    return edges / (env.size / fs)


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
