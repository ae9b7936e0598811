"""Bit-level emulation of the oscillator chip's host interface.

Covers programming of preferred-velocity codes and per-phase bypass bits,
the time-multiplexed scan of enabled phase taps (one frame of tap bits
per scan cycle), square-wave frequency estimation, per-unit linear fits,
and admission of well-behaved units for network construction.

The fits are ``np.polyfit``'s, split in two: ``fit_design`` runs the
steps that read only the inner products (``x = p + 0.0``, the finite
and distinct-value checks, ``rcond = len(x) * eps``, ``vander(x, 2)``
and its column scaling) once, and ``fit_unit`` runs the one step that
reads a unit's frequencies, ``lstsq(lhs, f, rcond)[0] / scale``, on the
same arrays polyfit would build, so each fit equals polyfit's bit for
bit.  Calibration fits its 128 units on one design, one ``lstsq`` each;
a single ``lstsq`` over all units' columns would round differently.
"""

from __future__ import annotations

import warnings
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


class FitDesign(NamedTuple):
    """``np.polyfit``'s set-up for inner products ``p``, made by
    ``fit_design``: ``lhs`` the column-scaled ``vander(p, 2)``, ``scale``
    its column norms and ``rcond``.  The arrays are read-only."""

    p: np.ndarray
    lhs: np.ndarray
    scale: np.ndarray
    rcond: float


def fit_design(p: Sequence[float]) -> FitDesign:
    """``np.polyfit``'s set-up for a line through inner products ``p``.

    Runs polyfit's own steps, in its order, once: ``x = p + 0.0``,
    ``rcond = len(x) * eps``, ``lhs = vander(x, 2)``, ``scale =
    sqrt((lhs * lhs).sum(0))`` and ``lhs /= scale``.  None of them reads
    a frequency, so ``fit_unit`` can fit every unit sampled at these
    inner products on one design.  Raises DegenerateFitError before any
    solver runs when ``p`` is not finite (LAPACK would print to stderr
    on a NaN) or holds fewer than three distinct values.
    """
    x = np.asarray(p, dtype=float) + 0.0
    if not np.isfinite(x).all():
        raise DegenerateFitError("inner products must be finite")
    if np.unique(x).size < 3:
        raise DegenerateFitError(
            "need >= 3 distinct inner-product values for a meaningful fit")
    rcond = len(x) * np.finfo(x.dtype).eps
    lhs = np.vander(x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    for array in (x, lhs, scale):
        array.flags.writeable = False
    return FitDesign(p=x, lhs=lhs, scale=scale, rcond=rcond)


def fit_unit(design: FitDesign, f: Sequence[float], unit: int = 0) -> UnitFit:
    """Ordinary least squares of measured frequency ``f`` on the inner
    products of ``design``.

    Fits F = f_idle + beta * p and reports the coefficient of
    determination.  Needs finite frequencies, one per inner product.
    The one step per unit is the call ``np.polyfit`` makes,
    ``np.linalg.lstsq(design.lhs, f, design.rcond)[0] / design.scale``,
    on the same arrays, so its coefficients equal ``np.polyfit(p, f,
    1)``'s bit for bit, and it warns as polyfit does when the design's
    rank is short.  A single ``lstsq`` over a matrix of many units'
    frequencies would not give those bits: for several right-hand sides
    LAPACK and BLAS take other kernels, whose sums round in another
    order (on NumPy 2.4.6, x86_64, one such solve over 32 default
    calibrations matched polyfit on 1,138 of 4,096 fits).
    """
    f = np.asarray(f, dtype=float)
    if not np.isfinite(f).all():
        raise DegenerateFitError("frequencies must be finite")
    coef, _, rank, _ = np.linalg.lstsq(design.lhs, f, design.rcond)
    if rank != 2:
        warnings.warn("fit may be poorly conditioned",
                      np.exceptions.RankWarning, stacklevel=2)
    beta_hat, f_idle_hat = coef / design.scale
    resid = f - (f_idle_hat + beta_hat * design.p)
    ss_res = float(resid @ resid)
    dev = f - f.mean()
    ss_tot = float(dev @ dev)
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


def _sweep_velocities(pref: tuple[int, int]) -> list[VelocityVector]:
    """The calibration sweep along the axis of decoded ``pref``."""
    return [VelocityVector(s, 0.0) if pref[0] else VelocityVector(0.0, s)
            for s in CAL_SWEEP]


def calibrate(chip: ChipState) -> list[UnitFit]:
    """Full calibration pipeline: program, scan, estimate, fit.

    Programs every unit's preferred velocity to each axis extreme in
    turn, sweeps the matching velocity component over the linear range,
    measures each unit's tap-0 frequency per velocity from a scan of
    ``CALIBRATION_WINDOW_S`` on the ``CALIBRATION_CLOCK_HZ`` clock, and
    fits the linear frequency law per unit over all sweeps.  Each unit's
    trace is a contiguous row of the scan's ``frames.T``, so the edge
    count reads it without a stride.

    A session is scanned once for every group of codes whose nine
    per-step ``frequencies`` vectors are equal byte for byte.  That is
    exact: a tap-0 session from ``hold()`` starts every phase at 0 on
    the same bypass bits, cycle count and clock, so its frames and end
    phases depend on the per-unit frequencies alone.  With zero DAC
    offsets, (8, 12) swept along y repeats (12, 8) swept along x, and
    (8, 4) repeats (4, 8); any non-zero offset separates them.  Groups
    run in the order of their last code, and each programs its last
    code, so the chip ends in the state the last code's own session
    leaves.  Each unit still gets one edge count per (code, step), and
    the counts fill a [n_units, 36] table whose columns run code-major,
    one per (code, step), so each unit's row is the samples a session
    per code gives.

    The inner product of a (code, step) is the same for every unit, so
    all 128 fits share one ``fit_design`` of the 36 inner products:
    ``np.polyfit``'s set-up (the float copy, the finite and distinct
    checks, ``rcond``, the Vandermonde matrix and its column scaling)
    runs once per call, and ``fit_unit`` makes polyfit's one ``lstsq``
    per unit on that unit's row, so the fits equal polyfit's bit for
    bit.  The units are not solved as one multi-column ``lstsq``, whose
    kernels round in another order (see ``fit_unit``).  The design is
    made after the scans: made before them, on NumPy 2.4.6, x86_64 with
    glibc's malloc, the scans' buffers took fresh pages on every scan
    (2,966 minor page faults per calibration against 471).
    """
    all_codes = [member for pair in PAIR_CODES for member in pair]
    prefs = [tuple(decode_velocity_code(c) for c in codes)
             for codes in all_codes]
    groups: dict[bytes, list[int]] = {}
    for k, pref in enumerate(prefs):
        v_pref = np.tile(pref, (chip.n_units, 1))
        key = b"".join(frequencies(chip.population, v_pref, v).tobytes()
                       for v in _sweep_velocities(pref))
        groups.setdefault(key, []).append(k)
    n_steps = len(CAL_SWEEP)
    hz = np.empty((chip.n_units, len(all_codes) * n_steps))
    for group in sorted(groups.values(), key=lambda g: g[-1]):
        chip.hold()
        program(chip, [(u, all_codes[group[-1]], tap0_bypass())
                       for u in range(chip.n_units)])
        chip.release()
        fs = phase_rate(CALIBRATION_CLOCK_HZ, chip.enabled_phases)
        n_cycles = int(np.ceil(CALIBRATION_WINDOW_S * fs))
        for j, v in enumerate(_sweep_velocities(prefs[group[-1]])):
            traces = scan_frames(chip, v, n_cycles, CALIBRATION_CLOCK_HZ).T
            for k in group:
                hz[:, k * n_steps + j] = [estimate_frequency(trace, fs)
                                          for trace in traces]
    design = fit_design([v.vx * pref[0] + v.vy * pref[1] for pref in prefs
                         for v in _sweep_velocities(pref)])
    return [fit_unit(design, f, unit=u) for u, f in enumerate(hz)]
