"""Bit-level emulation of the oscillator chip's host interface.

Covers programming of preferred-velocity codes and per-phase bypass bits,
the time-multiplexed scan of enabled phase taps (one frame of tap bits
per scan cycle), square-wave frequency estimation, per-unit linear fits,
and admission of well-behaved units for network construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .theta_core import (
    DEFAULT_F_SWING_HZ,
    AliasingError,
    ThetaPopulation,
    VelocityVector,
    instantaneous_frequency,
)

# The scan clock must exceed twice the top oscillation frequency times the
# number of enabled phases; the chip's usable band tops out near 4 kHz.
NYQUIST_F_MAX_HZ = 4000.0

DEFAULT_SCAN_CLOCK_HZ = 6_000_000.0
TAPS_PER_UNIT = 8

# Calibration sweeps program each axis at full linear magnitude and sweep
# the matching velocity component over the linear range in unit steps.
CAL_PREF_CODES = ((12, 8), (4, 8), (8, 12), (8, 4))
CAL_SWEEP = tuple(range(-4, 5))
MIN_ESTIMATE_WINDOW_S = 0.1


class NyquistError(ValueError):
    """Per-phase sample rate too low for the chip's frequency band."""


class NotProgrammedError(RuntimeError):
    """Scan requested on a chip that has not been programmed."""


class DegenerateFitError(ValueError):
    """Linear fit attempted on a design with no spread in inner products."""


class InsufficientUnitsError(RuntimeError):
    """Fewer admitted units than the interference network requires."""


@dataclass(frozen=True)
class ScanConfig:
    """Serial scan timing: shared clock and the enabled phase count."""

    clock_hz: float = DEFAULT_SCAN_CLOCK_HZ
    enabled_phases: int = 0

    @property
    def fs(self) -> float:
        """Per-phase sample rate in Hz."""
        if self.enabled_phases <= 0:
            raise ValueError("no enabled phases")
        return self.clock_hz / self.enabled_phases

    def validate(self) -> None:
        if self.enabled_phases > 0 and self.fs <= 2 * NYQUIST_F_MAX_HZ:
            raise NyquistError(
                f"per-phase rate {self.fs:.1f} Hz <= {2 * NYQUIST_F_MAX_HZ:.0f} Hz "
                f"({self.enabled_phases} phases at {self.clock_hz:.0f} Hz clock)")


class UnitFit(NamedTuple):
    """Per-unit calibration result from the linear frequency law fit."""

    unit: int
    f_idle_hat: float
    beta_hat: float
    r2: float


class FrequencyEstimate(NamedTuple):
    hz: float
    flatline: bool


class ChipState:
    """Programmable chip around a sampled population.

    This is the one model of oscillator phase: ``phases`` holds every
    unit's phase in cycles [0, 1) and ``held`` the clear line.  A fresh
    chip starts with the clear line held (all oscillators pinned at phase
    0) and nothing programmed.  Phases advance ideally during a scan:
    phase(c) = frac(phase0 + f * c / fs), one update per scan cycle, and
    tap k reads high while frac(phase + k/8) < 1/2.
    """

    def __init__(self, population: ThetaPopulation,
                 f_swing: float = DEFAULT_F_SWING_HZ):
        self.population = population
        self.n_units = len(population)
        self.units = list(population.units)
        self.bypass = np.zeros((self.n_units, TAPS_PER_UNIT), dtype=bool)
        self.phases = np.zeros(self.n_units)
        self.held = True
        self.programmed = False
        self.f_swing = f_swing

    @property
    def enabled_phases(self) -> int:
        return int(self.bypass.sum())

    def enabled_taps(self) -> list[tuple[int, int]]:
        """Enabled (unit, tap) pairs in shift order: unit-major, tap-minor."""
        units, taps = np.nonzero(self.bypass)
        return list(zip(units.tolist(), taps.tolist()))

    def hold(self) -> None:
        """Assert the clear line: phases to 0, oscillation frozen."""
        self.phases[:] = 0.0
        self.held = True

    def release(self) -> None:
        self.held = False

    def frequencies(self, v: VelocityVector) -> np.ndarray:
        return np.array([
            instantaneous_frequency(u, v, self.f_swing) for u in self.units
        ])


def program(chip: ChipState,
            configs: Iterable[tuple[int, tuple[int, int], Sequence[int]]]) -> ChipState:
    """Write preferred-velocity codes and bypass bits in shift order.

    Each config entry is (unit index, 4-bit code pair, 8 bypass bits).
    The chip must be in reset; the reset wipes the whole register chain,
    so units absent from configs end up with no enabled phases.  Entries
    replay in order, so a duplicated unit index keeps the last write,
    matching shift-register semantics.
    """
    if not chip.held:
        raise RuntimeError("programming requires the clear line held")
    chip.bypass[:] = False
    for unit_index, codes, bypass_bits in configs:
        if not 0 <= unit_index < chip.n_units:
            raise IndexError(
                f"unit index {unit_index} outside 0..{chip.n_units - 1}")
        if len(bypass_bits) != TAPS_PER_UNIT:
            raise ValueError("bypass config must give one bit per tap (8)")
        chip.units[unit_index] = chip.units[unit_index].with_code(codes)
        chip.bypass[unit_index] = [bool(b) for b in bypass_bits]
    chip.programmed = True
    return chip


def scan_frames(chip: ChipState, v: VelocityVector, n_cycles: int,
                clock_hz: float = DEFAULT_SCAN_CLOCK_HZ) -> np.ndarray:
    """Serial scan of the enabled phases for n_cycles scan cycles.

    Within a cycle, bits appear in unit-major tap-minor shift order and
    sample every enabled tap at the cycle instant; all oscillators then
    advance by one per-phase sample interval at their current frequency.
    Returns one frame per cycle as a [n_cycles, enabled_phases] uint8
    array; column i is the i-th enabled phase in shift order.
    """
    if not chip.programmed:
        raise NotProgrammedError("scan requires a programmed chip")
    n_enabled = chip.enabled_phases
    if n_enabled == 0 or n_cycles == 0:
        return np.zeros((n_cycles, n_enabled), dtype=np.uint8)
    cfg = ScanConfig(clock_hz=clock_hz, enabled_phases=n_enabled)
    cfg.validate()
    dt = 1.0 / cfg.fs
    freqs = chip.frequencies(v)
    if chip.held:
        freqs = np.zeros_like(freqs)
    fdt_max = float(freqs.max()) * dt
    if fdt_max >= 0.5:
        raise AliasingError(
            f"max f*dt = {fdt_max:.3f} >= 0.5 at {cfg.fs:.1f} Hz per phase")

    units, taps = np.nonzero(chip.bypass)
    tap_off = taps / 8.0
    cycles = np.arange(n_cycles)
    # [n_cycles, n_enabled] phase trajectory of each enabled tap.
    phase = (chip.phases[units][None, :]
             + freqs[units][None, :] * dt * cycles[:, None]
             + tap_off[None, :]) % 1.0
    frames = (phase < 0.5).astype(np.uint8)
    if not chip.held:
        chip.phases = (chip.phases + freqs * dt * n_cycles) % 1.0
    return frames


def estimate_frequency(trace: np.ndarray, fs: float) -> FrequencyEstimate:
    """Estimate square-wave frequency by rising-edge counting.

    Exact for clean square waves and free of spectral leakage.  Requires
    at least 100 ms of samples.  A constant trace estimates 0 Hz and is
    flagged as flatline.
    """
    trace = np.asarray(trace).astype(np.uint8)
    if trace.size < fs * MIN_ESTIMATE_WINDOW_S:
        raise ValueError(
            f"trace of {trace.size} samples is shorter than "
            f"{MIN_ESTIMATE_WINDOW_S * 1e3:.0f} ms at fs={fs:.1f} Hz")
    if trace.min() == trace.max():
        return FrequencyEstimate(0.0, True)
    edges = int(np.count_nonzero((trace[1:] == 1) & (trace[:-1] == 0)))
    window = trace.size / fs
    return FrequencyEstimate(edges / window, False)


def fit_unit(samples: Sequence[tuple[float, float]], unit: int = 0) -> UnitFit:
    """Ordinary least squares of measured frequency on inner product.

    Fits F = f_idle + beta * p and reports the coefficient of
    determination.  Needs at least three distinct inner products.
    """
    p = np.array([s[0] for s in samples], dtype=float)
    f = np.array([s[1] for s in samples], dtype=float)
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


def select_units(fits: Iterable[UnitFit], r2_threshold: float = 0.9,
                 min_units: int = 80) -> list[UnitFit]:
    """Admit units with r2 above threshold and positive fitted gain.

    Returns admitted fits sorted by fitted idle frequency.  Raises when
    fewer than min_units pass, since the interference network needs a
    full complement.
    """
    admitted = [f for f in fits if f.r2 > r2_threshold and f.beta_hat > 0]
    admitted.sort(key=lambda f: f.f_idle_hat)
    if len(admitted) < min_units:
        raise InsufficientUnitsError(
            f"only {len(admitted)} units admitted, need {min_units}")
    return admitted


def tap0_bypass() -> tuple[int, ...]:
    return (1, 0, 0, 0, 0, 0, 0, 0)


def calibrate(chip: ChipState, clock_hz: float = DEFAULT_SCAN_CLOCK_HZ,
              window_s: float = 0.12) -> list[UnitFit]:
    """Full calibration pipeline: program, scan, estimate, fit.

    Programs every unit's preferred velocity to each axis extreme in
    turn, sweeps the matching velocity component over the linear range,
    measures each unit's tap-0 frequency per velocity, and fits the
    linear frequency law per unit over all sweeps.
    """
    samples: dict[int, list[tuple[float, float]]] = {
        u: [] for u in range(chip.n_units)
    }
    for codes in CAL_PREF_CODES:
        chip.hold()
        program(chip, [(u, codes, tap0_bypass()) for u in range(chip.n_units)])
        chip.release()
        cfg = ScanConfig(clock_hz=clock_hz, enabled_phases=chip.enabled_phases)
        cfg.validate()
        n_cycles = int(np.ceil(window_s * cfg.fs))
        axis_is_x = codes[0] != 8
        pref = (codes[0] - 8, codes[1] - 8)
        for sweep_v in CAL_SWEEP:
            v = VelocityVector(sweep_v, 0.0) if axis_is_x else VelocityVector(0.0, sweep_v)
            frames = scan_frames(chip, v, n_cycles, clock_hz)
            traces = frames.T
            inner = v.vx * pref[0] + v.vy * pref[1]
            for u in range(chip.n_units):
                est = estimate_frequency(traces[u], cfg.fs)
                samples[u].append((inner, est.hz))
    return [fit_unit(samples[u], unit=u) for u in range(chip.n_units)]


def write_fit_report_csv(path, fits: Sequence[UnitFit]) -> None:
    """Calibration report: unit, f_idle_hat, beta_hat, r2."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "f_idle_hat", "beta_hat", "r2"])
        for f in fits:
            writer.writerow([f.unit, repr(f.f_idle_hat), repr(f.beta_hat),
                             repr(f.r2)])
