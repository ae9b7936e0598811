"""Bit-level emulation of the oscillator chip's host interface.

Covers programming of preferred-velocity codes and per-phase bypass bits,
the time-multiplexed scan of enabled phase taps (one frame of tap bits
per scan cycle), square-wave frequency estimation, per-unit linear fits,
and admission of well-behaved units for network construction.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .theta_core import (
    AliasingError,
    ThetaPopulation,
    VelocityVector,
    decode_velocity_code,
    frequencies,
)

# The scan clock must exceed twice the top oscillation frequency times the
# number of enabled phases; the chip's usable band tops out near 4 kHz.
NYQUIST_F_MAX_HZ = 4000.0

# Calibration scans tap 0 of every unit on this clock for this long per
# sweep velocity.  Admission takes a unit whose fit's r2 exceeds
# ADMISSION_R2; a vector-cell network reads 40 pairs of units.
CALIBRATION_CLOCK_HZ = 6_000_000.0
CALIBRATION_WINDOW_S = 0.12
ADMISSION_R2 = 0.9
NETWORK_UNITS = 80
TAPS_PER_UNIT = 8

# Programming codes (routable member, tap-0 partner) of an x pair and of
# a y pair: decoded, (+4, 0) against (-4, 0) and (0, +4) against (0, -4).
# Calibration programs all units with each in this order and sweeps the
# matching velocity component over the linear range in unit steps.
PAIR_CODES = (((12, 8), (4, 8)), ((8, 12), (8, 4)))
CAL_SWEEP = tuple(range(-4, 5))
MIN_ESTIMATE_WINDOW_S = 0.1

# A scan fills its tap-major traces in blocks of at most this many tap
# samples: whole traces, several to a block, or one trace's cycles in
# runs of this length.  That bounds its float and integer block buffers
# (0.5 MB and at most 0.25 MB) whatever the scan length.
SCAN_BLOCK = 1 << 16


class NyquistError(ValueError):
    """Per-phase sample rate too low for the chip's frequency band."""


class NotProgrammedError(RuntimeError):
    """Scan requested on a chip that has not been programmed."""


class DegenerateFitError(ValueError):
    """Linear fit attempted on a non-finite sample or on a design with no
    spread in inner products."""


class InsufficientUnitsError(RuntimeError):
    """Fewer admitted units than the interference network requires."""


def phase_rate(clock_hz: float, enabled_phases: int) -> float:
    """Per-phase sample rate in Hz of a serial scan of ``enabled_phases``
    taps on a shared ``clock_hz`` clock.  Raises NyquistError unless it
    exceeds twice the top of the chip's frequency band."""
    if enabled_phases <= 0:
        raise ValueError("no enabled phases")
    fs = clock_hz / enabled_phases
    if fs <= 2 * NYQUIST_F_MAX_HZ:
        raise NyquistError(
            f"per-phase rate {fs:.1f} Hz <= {2 * NYQUIST_F_MAX_HZ:.0f} Hz "
            f"({enabled_phases} phases at {clock_hz:.0f} Hz clock)")
    return fs


class UnitFit(NamedTuple):
    """Per-unit calibration result from the linear frequency law fit."""

    unit: int
    f_idle_hat: float
    beta_hat: float
    r2: float


class ChipState:
    """Programmable chip around a sampled population.

    This is the one model of oscillator phase.  Per-unit state is held
    in arrays over the population's n units: ``v_pref`` [n, 2] the
    decoded preferred velocities last programmed (0 before any write
    and for units the last write left out), ``bypass`` [n, 8] the
    enabled taps and ``phases`` [n] each phase in cycles [0, 1);
    ``held`` is the clear line.  A fresh chip starts with
    the clear line held (all oscillators pinned at phase 0) and nothing
    programmed.  Phases advance ideally during a scan at the frequencies
    ``theta_core.frequencies`` gives: phase(c) = frac(phase0 + f * c /
    fs), one update per scan cycle, and tap k reads high while
    frac(phase + k/8) < 1/2.

    ``scan_frames`` reads that bit without taking the fractional part:
    with x = phase0 + f * c / fs + k/8, frac(x) < 1/2 holds exactly when
    floor(2x) is even.  It sums 2x from the doubled terms, each exactly
    twice the rounded term of x, and skips a phase or tap term that is 0
    for every decoded tap, since y + 0.0 == y.  x >= 0 always, since
    ``frequencies`` clamps at 0 Hz and phases and tap offsets lie in
    [0, 1), so floor(2x) is the integer truncation of 2x; and f * dt <
    1/2 keeps 2x below n_cycles + 4, so a scan truncates into the
    narrowest integer type that holds that bound: int16 below 2**15 - 4
    cycles, int32 below 2**31 - 4 and int64 beyond.
    """

    def __init__(self, population: ThetaPopulation):
        self.population = population
        self.n_units = len(population)
        self.v_pref = np.zeros((self.n_units, 2), dtype=int)
        self.bypass = np.zeros((self.n_units, TAPS_PER_UNIT), dtype=bool)
        self.phases = np.zeros(self.n_units)
        self.held = True
        self.programmed = False

    @property
    def enabled_phases(self) -> int:
        return int(self.bypass.sum())

    def hold(self) -> None:
        """Assert the clear line: phases to 0, oscillation frozen."""
        self.phases[:] = 0.0
        self.held = True

    def release(self) -> None:
        self.held = False


def program(chip: ChipState,
            configs: Iterable[tuple[int, tuple[int, int], Sequence[int]]]) -> ChipState:
    """Write preferred-velocity codes and bypass bits in shift order.

    Each config entry is (unit index, 4-bit code pair, 8 bypass bits);
    a code outside 1..15 raises InvalidCodeError.
    The chip must be in reset; the reset wipes the whole register chain,
    so units absent from configs end up with zero preferred velocity and
    no enabled phases.  Entries
    replay in order, so a duplicated unit index keeps the last write,
    matching shift-register semantics.
    """
    if not chip.held:
        raise RuntimeError("programming requires the clear line held")
    chip.v_pref[:] = 0
    chip.bypass[:] = False
    for unit_index, codes, bypass_bits in configs:
        if not 0 <= unit_index < chip.n_units:
            raise IndexError(
                f"unit index {unit_index} outside 0..{chip.n_units - 1}")
        if len(bypass_bits) != TAPS_PER_UNIT:
            raise ValueError(f"bypass config needs {TAPS_PER_UNIT} bits")
        chip.v_pref[unit_index] = [decode_velocity_code(c) for c in codes]
        chip.bypass[unit_index] = [bool(b) for b in bypass_bits]
    chip.programmed = True
    return chip


def scan_frames(chip: ChipState, v: VelocityVector, n_cycles: int,
                clock_hz: float = CALIBRATION_CLOCK_HZ,
                columns: Optional[Sequence[int]] = None) -> np.ndarray:
    """Serial scan of the enabled phases for n_cycles scan cycles.

    Within a cycle, bits appear in unit-major tap-minor shift order and
    sample every enabled tap at the cycle instant; all oscillators then
    advance by one per-phase sample interval at their current frequency.
    Frame position i is the i-th enabled phase in shift order.  The host
    decodes only ``columns``, strictly increasing frame positions (every
    enabled tap by default), and returns one frame per cycle as a
    [n_cycles, len(columns)] uint8 array whose bits equal the full
    frames' ``[:, columns]``.  The chip still shifts every enabled tap
    out, so the per-phase rate fs, the aliasing check and the phase
    advance cover all enabled taps whatever ``columns`` holds, an empty
    list included.

    Raises AliasingError when an enabled unit steps f*dt >= 1/2 per
    sample or its f*dt is NaN; units with no enabled tap are not read
    and not checked.  ``columns`` out of order or outside the frame
    raises ValueError.

    The scan fills a tap-major [len(columns), n_cycles] buffer, one
    contiguous trace per decoded tap, and returns its transpose, so
    ``frames.T[i]`` is column i's trace with no stride.  It works in
    column blocks of at most ``SCAN_BLOCK`` samples, max(1, SCAN_BLOCK
    // n_cycles) traces each; a scan longer than ``SCAN_BLOCK`` cycles
    fills each trace in runs of ``SCAN_BLOCK`` cycles.  One float and
    one integer block buffer are allocated per scan and filled in place.
    Each decoded tap's 2x = 2f*dt * c + 2phase0 + 2k/8 is rounded in
    that order.  Doubling is exact in binary floating point, so every
    rounded term and sum is exactly twice that of x = f*dt * c + phase0
    + k/8.  The phase term is skipped when every decoded phase is 0, as
    in a session from reset, and the tap term when every decoded tap is
    tap 0, as in a calibration scan, since y + 0.0 == y for y >= 0; so a
    column's bits depend on its own terms alone, whichever other columns
    are decoded.  The bit is (int(2x) & 1) ^ 1, the parity form of
    frac(x) < 1/2 (see ``ChipState``), written straight into the traces.
    f*dt < 1/2 keeps 2x below n_cycles + 4, so the cast is to int16 for
    a scan shorter than 2**15 - 4 cycles, to int32 below 2**31 - 4 and
    to int64 beyond: the narrowest type that holds int(2x), whose mask
    streams the fewest bytes (on NumPy 2.4.6, x86_64, the int16 mask
    into uint8 ran at 0.10 ns/element against 0.23 for int32).

    The float block's rows are padded by one element when they are
    longer than a quarter of NumPy's ufunc buffer (``np.getbufsize()``,
    8192 elements by default), as in any scan of more than 2048 cycles.
    On NumPy 2.4.6, x86_64, the column broadcasts (the outer product
    and the ``[:, None]`` adds) ran at 0.5-1.3 ns/element into a
    C-contiguous [24, 2670] block, a tracking scan's, and at 0.21-0.33
    into the padded one; into rows of 2048 samples or fewer padding
    made them slower (the add 1.2 against 0.6 ns/element), so those
    rows stay contiguous, as does the integer block.
    """
    if not chip.programmed:
        raise NotProgrammedError("scan requires a programmed chip")
    n_enabled = chip.enabled_phases
    if columns is None:
        columns = np.arange(n_enabled)
    else:
        columns = np.asarray(columns, dtype=np.intp)
        if columns.ndim != 1 or (
                np.diff(columns, prepend=-1, append=n_enabled) <= 0).any():
            raise ValueError(f"columns must be increasing positions in a "
                             f"{n_enabled}-phase frame")
    if n_enabled == 0 or n_cycles == 0:
        return np.zeros((n_cycles, columns.size), dtype=np.uint8)
    fs = phase_rate(clock_hz, n_enabled)
    dt = 1.0 / fs
    freqs = frequencies(chip.population, chip.v_pref, v)
    if chip.held:
        freqs = np.zeros_like(freqs)
    units, taps = np.nonzero(chip.bypass)
    fdt = freqs[units] * dt
    fdt_max = float(fdt.max())
    if not fdt_max < 0.5:   # a NaN fails the comparison too
        raise AliasingError(
            f"max f*dt = {fdt_max:.3f} is not below 0.5 at {fs:.1f} Hz "
            f"per phase")

    units, taps = units[columns], taps[columns]
    fdt2 = 2.0 * fdt[columns]
    phase0 = 2.0 * chip.phases[units]
    phased = bool(phase0.any())
    tapped = bool(taps.any())
    tap_off = 2.0 * (taps / TAPS_PER_UNIT)
    traces = np.empty((columns.size, n_cycles), dtype=np.uint8)
    per_block = max(1, SCAN_BLOCK // n_cycles)
    span = min(n_cycles, SCAN_BLOCK)
    rows = min(per_block, columns.size)
    pad = int(span > np.getbufsize() // 4)
    x2_block = np.empty((rows, span + pad))[:, :span]
    int_block = np.empty((rows, span), np.int16 if n_cycles < 2**15 - 4
                         else np.int32 if n_cycles < 2**31 - 4 else np.int64)
    for lo in range(0, n_cycles, span):
        hi = min(lo + span, n_cycles)
        cycles = np.arange(lo, hi, dtype=float)
        for first in range(0, columns.size, per_block):
            last = min(first + per_block, columns.size)
            cols = slice(first, last)
            x2 = x2_block[:last - first, :hi - lo]
            parity = int_block[:last - first, :hi - lo]
            np.multiply.outer(fdt2[cols], cycles, out=x2)
            if phased:
                x2 += phase0[cols, None]
            if tapped:
                x2 += tap_off[cols, None]
            np.copyto(parity, x2, casting="unsafe")
            bits = traces[cols, lo:hi]
            np.bitwise_and(parity, 1, out=bits, casting="unsafe")
            bits ^= 1
    if not chip.held:
        chip.phases = (chip.phases + freqs * dt * n_cycles) % 1.0
    return traces.T


def estimate_frequency(trace: np.ndarray, fs: float) -> float:
    """Frequency in Hz of a 0/1 square-wave trace by rising-edge counting.

    Exact for clean square waves and free of spectral leakage.  Requires
    at least 100 ms of samples.  A constant trace has no rising edge and
    reads 0 Hz.
    """
    if trace.size < fs * MIN_ESTIMATE_WINDOW_S:
        raise ValueError(
            f"trace of {trace.size} samples is shorter than "
            f"{MIN_ESTIMATE_WINDOW_S * 1e3:.0f} ms at fs={fs:.1f} Hz")
    edges = int(np.count_nonzero(trace[1:] > trace[:-1]))
    return edges / (trace.size / fs)


def fit_unit(samples: Sequence[tuple[float, float]], unit: int = 0) -> UnitFit:
    """Ordinary least squares of measured frequency on inner product.

    Fits F = f_idle + beta * p and reports the coefficient of
    determination.  Needs finite samples and at least three distinct
    inner products.
    """
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


def select_units(fits: Iterable[UnitFit]) -> list[UnitFit]:
    """Admit units with r2 above ``ADMISSION_R2`` and positive fitted gain.

    Returns admitted fits sorted by fitted idle frequency.  Raises when
    fewer than ``NETWORK_UNITS`` pass, since the interference network
    needs a full complement.
    """
    admitted = [f for f in fits if f.r2 > ADMISSION_R2 and f.beta_hat > 0]
    admitted.sort(key=lambda f: f.f_idle_hat)
    if len(admitted) < NETWORK_UNITS:
        raise InsufficientUnitsError(
            f"only {len(admitted)} units admitted, need {NETWORK_UNITS}")
    return admitted


def tap0_bypass() -> tuple[int, ...]:
    return (1,) + (0,) * (TAPS_PER_UNIT - 1)


def calibrate(chip: ChipState) -> list[UnitFit]:
    """Full calibration pipeline: program, scan, estimate, fit.

    Programs every unit's preferred velocity to each axis extreme in
    turn, sweeps the matching velocity component over the linear range,
    measures each unit's tap-0 frequency per velocity from a scan of
    ``CALIBRATION_WINDOW_S`` on the ``CALIBRATION_CLOCK_HZ`` clock, and
    fits the linear frequency law per unit over all sweeps.  Each unit's
    trace is a contiguous row of the scan's ``frames.T``, so the edge
    count reads it without a stride.
    """
    samples: list[list[tuple[float, float]]] = [
        [] for _ in range(chip.n_units)]
    for codes in (member for pair in PAIR_CODES for member in pair):
        chip.hold()
        program(chip, [(u, codes, tap0_bypass()) for u in range(chip.n_units)])
        chip.release()
        fs = phase_rate(CALIBRATION_CLOCK_HZ, chip.enabled_phases)
        n_cycles = int(np.ceil(CALIBRATION_WINDOW_S * fs))
        pref = tuple(decode_velocity_code(c) for c in codes)
        for sweep_v in CAL_SWEEP:
            v = VelocityVector(sweep_v, 0.0) if pref[0] else VelocityVector(0.0, sweep_v)
            frames = scan_frames(chip, v, n_cycles, CALIBRATION_CLOCK_HZ)
            inner = v.vx * pref[0] + v.vy * pref[1]
            for unit_samples, trace in zip(samples, frames.T):
                unit_samples.append((inner, estimate_frequency(trace, fs)))
    return [fit_unit(unit_samples, unit=u)
            for u, unit_samples in enumerate(samples)]
