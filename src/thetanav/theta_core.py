"""Behavioral model of theta cells.

A theta cell oscillates at an idling frequency plus a gain times the inner
product of the agent velocity with the cell's preferred velocity.  This
module holds the static side of a population: velocity coding, parameter
sampling with analog mismatch, and the frequency law.  A population is
one set of per-unit arrays (idle frequency, gain, DAC offset) under one
response mode, and ``frequencies`` applies the law to all units at once.
Programmed preferred velocities, phases, the eight square-wave taps and
the reset hold line live in ``chip_io.ChipState``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Valid 4-bit velocity codes are 1..15; code 8 encodes zero.  Code 0 would
# decode to -8, outside the supported [-7, 7] range, and is rejected.
ZERO_VELOCITY_CODE = 8
CODE_MIN, CODE_MAX = 1, 15

# Units sampled below this idle frequency are redrawn (a real unit always
# oscillates; the nominal band starts around 1.2 kHz).
F_IDLE_FLOOR_HZ = 100.0

# Saturation half-swing of the sigmoid response mode, in Hz.  The slope at
# zero inner product equals the unit's linear gain regardless of swing; the
# magnitude matches the observed ~1.9 kHz full frequency range.
F_SWING_HZ = 900.0

LINEAR = "linear"
SIGMOID = "sigmoid"


class InvalidCodeError(ValueError):
    """A 4-bit velocity code outside the valid 1..15 range."""


class AliasingError(ValueError):
    """Phase step f*dt at or above half a cycle per sample."""


def require_int(name: str, value, minimum: int | None = None) -> None:
    """Refuse a value that is not exactly an int, or one below
    ``minimum`` when given: a float, a bool or a numpy integer would pass
    a range check and fail later."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


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

    def __post_init__(self):
        if not (math.isfinite(self.vx) and math.isfinite(self.vy)):
            raise ValueError(f"velocity ({self.vx}, {self.vy}) is not finite")

    def __iter__(self):
        return iter((self.vx, self.vy))

    @property
    def speed(self) -> float:
        return float(np.hypot(self.vx, self.vy))


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

    def __post_init__(self):
        require_int("n_units", self.n_units, 1)
        # Written so that a NaN fails each comparison.
        if not (0 < self.f_idle_mean < math.inf
                and 0 < self.beta_mean < math.inf):
            raise ValueError("means must be positive and finite")
        if not all(0 <= std < math.inf for std in (
                self.f_idle_std, self.beta_std, self.dac_offset_std)):
            raise ValueError("std values must be >= 0 and finite")
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


@dataclass(frozen=True, eq=False)
class ThetaPopulation:
    """Static parameters of n theta cells, one array entry per unit.

    ``f_idle`` [n] and ``beta`` [n] are each unit's idle frequency (Hz)
    and gain (Hz per velocity unit).  ``dac_offset`` [n, 2] models the
    residual zero-code error of each unit's two on-chip DACs as an
    additive perturbation of the input velocity.  ``response`` is the
    population's response mode.  The arrays are read-only copies; an
    array of another shape or with a non-finite entry, or an idle
    frequency at or below zero, raises ValueError.
    """

    f_idle: np.ndarray
    beta: np.ndarray
    dac_offset: np.ndarray
    response: str = LINEAR

    def __post_init__(self):
        n = np.size(self.f_idle)
        if n == 0:
            raise ValueError("population needs at least one unit")
        for name, shape in (("f_idle", (n,)), ("beta", (n,)),
                            ("dac_offset", (n, 2))):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
            if values.shape != shape:
                raise ValueError(f"{name} must have shape {shape} for {n} "
                                 f"units, got {values.shape}")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if not (self.f_idle > 0).all():
            raise ValueError(
                f"f_idle must be positive, got min {self.f_idle.min()}")
        if self.response not in (LINEAR, SIGMOID):
            raise ValueError(f"unknown response mode {self.response!r}")

    def __len__(self) -> int:
        return self.f_idle.size


def sample_population(spec: PopulationSpec, seed: int) -> ThetaPopulation:
    """Sample a mismatched population from truncated Gaussians.

    Idle frequencies truncate at >100 Hz, gains at >0.  DAC offsets are
    plain Gaussians around zero, exactly +0.0 at a zero std.  The same
    spec and seed yield bit-identical populations.
    """
    rng = np.random.default_rng(seed)
    f_idle = _truncated_normal(rng, spec.f_idle_mean, spec.f_idle_std,
                               F_IDLE_FLOOR_HZ, spec.n_units)
    beta = _truncated_normal(rng, spec.beta_mean, spec.beta_std, 0.0,
                             spec.n_units)
    dac = rng.normal(0.0, spec.dac_offset_std, size=(spec.n_units, 2))
    return ThetaPopulation(f_idle, beta, dac, spec.response)


def frequencies(population: ThetaPopulation, v_pref: np.ndarray,
                v: VelocityVector) -> np.ndarray:
    """Oscillation frequency [n] of every unit at input velocity ``v``,
    given the units' decoded preferred velocities ``v_pref`` [n, 2].

    Linear mode applies the affine law directly; sigmoid mode saturates
    the velocity term at +/- ``F_SWING_HZ`` through a tanh, matching the
    measured response outside the linear range.  The result is clamped
    at zero so a deep negative inner product stalls rather than inverts
    the oscillator.
    """
    offset = population.dac_offset
    inner = ((v.vx + offset[:, 0]) * v_pref[:, 0]
             + (v.vy + offset[:, 1]) * v_pref[:, 1])
    if population.response == LINEAR:
        f = population.f_idle + population.beta * inner
    else:
        f = population.f_idle + F_SWING_HZ * np.tanh(
            population.beta * inner / F_SWING_HZ)
    return np.maximum(f, 0.0)
