"""Behavioral model of theta cells.

A theta cell oscillates at an idling frequency plus a gain times the inner
product of the agent velocity with the cell's preferred velocity.  This
module holds the static side of a population: velocity coding, parameter
sampling with analog mismatch, and the frequency law.  Phases, the eight
square-wave taps and the reset hold line live in ``chip_io.ChipState``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Valid 4-bit velocity codes are 1..15; code 8 encodes zero.  Code 0 would
# decode to -8, outside the supported [-7, 7] range, and is rejected.
ZERO_VELOCITY_CODE = 8
CODE_MIN, CODE_MAX = 1, 15

# Units sampled below this idle frequency are redrawn (a real unit always
# oscillates; the nominal band starts around 1.2 kHz).
F_IDLE_FLOOR_HZ = 100.0

# Default saturation half-swing for the sigmoid response mode, in Hz.  The
# slope at zero inner product equals the unit's linear gain regardless of
# swing; the magnitude matches the observed ~1.9 kHz full frequency range.
DEFAULT_F_SWING_HZ = 900.0

LINEAR = "linear"
SIGMOID = "sigmoid"


class InvalidCodeError(ValueError):
    """A 4-bit velocity code outside the valid 1..15 range."""


class AliasingError(ValueError):
    """Phase step f*dt at or above half a cycle per sample."""


def decode_velocity_code(code: int) -> int:
    """Decode a 4-bit preferred-velocity code to a signed velocity unit.

    Codes are signed and ascending with 8 as zero, so the value is
    ``code - 8``.  Code 0 is invalid (it would decode to -8, beyond the
    [-7, 7] maximum).
    """
    if not CODE_MIN <= code <= CODE_MAX:
        raise InvalidCodeError(f"velocity code must be in 1..15, got {code}")
    return code - ZERO_VELOCITY_CODE


@dataclass(frozen=True)
class VelocityVector:
    """Agent velocity in DAC code units.  Components are real valued; the
    chip takes the velocity as an analog broadcast, only preferred
    velocities are quantized.  Linear operation holds for |v| <= 4."""

    vx: float
    vy: float

    def __iter__(self):
        return iter((self.vx, self.vy))

    @property
    def speed(self) -> float:
        return float(np.hypot(self.vx, self.vy))


@dataclass(frozen=True)
class ThetaUnit:
    """Static parameters of one theta cell.

    ``v_pref_code`` holds the two programmed 4-bit codes (x, y).
    ``dac_offset`` models the residual zero-code error of the on-chip
    DACs as an additive perturbation of the input velocity.
    """

    f_idle: float
    beta: float
    v_pref_code: tuple[int, int] = (ZERO_VELOCITY_CODE, ZERO_VELOCITY_CODE)
    response: str = LINEAR
    dac_offset: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.f_idle <= 0:
            raise ValueError(f"f_idle must be positive, got {self.f_idle}")
        for c in self.v_pref_code:
            decode_velocity_code(c)
        if self.response not in (LINEAR, SIGMOID):
            raise ValueError(f"unknown response mode {self.response!r}")

    @property
    def v_pref(self) -> tuple[int, int]:
        """Decoded preferred velocity (signed units)."""
        return (decode_velocity_code(self.v_pref_code[0]),
                decode_velocity_code(self.v_pref_code[1]))

    def with_code(self, code: tuple[int, int]) -> "ThetaUnit":
        return replace(self, v_pref_code=(int(code[0]), int(code[1])))


@dataclass(frozen=True)
class PopulationSpec:
    """Sampling spec for a mismatched population of theta units."""

    n_units: int = 128
    f_idle_mean: float = 2023.771
    f_idle_std: float = 374.611
    beta_mean: float = 20.802
    beta_std: float = 3.688
    dac_offset_std: float = 0.0
    response: str = LINEAR
    seed: int = 0

    def __post_init__(self):
        if self.n_units < 1:
            raise ValueError("n_units must be >= 1")
        if self.f_idle_mean <= 0 or self.beta_mean <= 0:
            raise ValueError("means must be positive")
        if min(self.f_idle_std, self.beta_std, self.dac_offset_std) < 0:
            raise ValueError("std values must be >= 0")
        if self.response not in (LINEAR, SIGMOID):
            raise ValueError(f"unknown response mode {self.response!r}")


def _truncated_normal(rng: np.random.Generator, mean: float, std: float,
                      lower: float, n: int) -> np.ndarray:
    """Draw n values from Normal(mean, std) conditioned on > lower, by
    rejection.  Deterministic for a given generator state."""
    if std == 0.0:
        if mean <= lower:
            raise ValueError(f"degenerate spec: mean {mean} below floor {lower}")
        return np.full(n, mean)
    out = rng.normal(mean, std, size=n)
    bad = out <= lower
    while bad.any():
        out[bad] = rng.normal(mean, std, size=int(bad.sum()))
        bad = out <= lower
    return out


class ThetaPopulation:
    """A fixed collection of theta units."""

    def __init__(self, units: list[ThetaUnit]):
        if not units:
            raise ValueError("population needs at least one unit")
        self.units = list(units)

    def __len__(self) -> int:
        return len(self.units)


def sample_population(spec: PopulationSpec) -> ThetaPopulation:
    """Sample a mismatched population from truncated Gaussians.

    Idle frequencies truncate at >100 Hz, gains at >0.  DAC offsets are
    plain Gaussians around zero.  Identical specs (including seed) yield
    bit-identical populations.
    """
    rng = np.random.default_rng(spec.seed)
    f_idle = _truncated_normal(rng, spec.f_idle_mean, spec.f_idle_std,
                               F_IDLE_FLOOR_HZ, spec.n_units)
    beta = _truncated_normal(rng, spec.beta_mean, spec.beta_std, 0.0,
                             spec.n_units)
    if spec.dac_offset_std > 0:
        dac = rng.normal(0.0, spec.dac_offset_std, size=(spec.n_units, 2))
    else:
        dac = np.zeros((spec.n_units, 2))
    units = [
        ThetaUnit(f_idle=float(f_idle[i]), beta=float(beta[i]),
                  response=spec.response,
                  dac_offset=(float(dac[i, 0]), float(dac[i, 1])))
        for i in range(spec.n_units)
    ]
    return ThetaPopulation(units)


def instantaneous_frequency(unit: ThetaUnit, v: VelocityVector,
                            f_swing: float = DEFAULT_F_SWING_HZ) -> float:
    """Oscillation frequency of a unit at the given input velocity.

    Linear mode applies the affine law directly; sigmoid mode saturates
    the velocity term at +/- f_swing through a tanh, matching the
    measured response outside the linear range.  The result is clamped
    at zero so a deep negative inner product stalls rather than inverts
    the oscillator.
    """
    px, py = unit.v_pref
    ox, oy = unit.dac_offset
    inner = (v.vx + ox) * px + (v.vy + oy) * py
    if unit.response == LINEAR:
        f = unit.f_idle + unit.beta * inner
    else:
        f = unit.f_idle + f_swing * float(np.tanh(unit.beta * inner / f_swing))
    return max(f, 0.0)
