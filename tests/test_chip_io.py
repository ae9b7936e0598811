"""Host-interface emulation: programming, the serial scan, frequency
estimation, fits and unit admission."""

import copy
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from thetanav import chip_io
from thetanav.chip_io import (
    CAL_SWEEP,
    CALIBRATION_CLOCK_HZ,
    CALIBRATION_WINDOW_S,
    PAIR_CODES,
    SCAN_BLOCK,
    ChipState,
    DegenerateFitError,
    InsufficientUnitsError,
    NotProgrammedError,
    NyquistError,
    UnitFit,
    calibrate,
    estimate_frequency,
    fit_design,
    fit_unit,
    phase_rate,
    program,
    scan_frames,
    select_units,
    tap0_bypass,
)
from thetanav.harness import write_csv
from thetanav.theta_core import (
    LINEAR,
    SIGMOID,
    AliasingError,
    InvalidCodeError,
    PopulationSpec,
    ThetaPopulation,
    VelocityVector,
    decode_velocity_code,
    frequencies,
    sample_population,
)

from reference_models import (
    calibrate_every_session,
    edge_count_frequency,
    instantaneous_frequency,
    make_population,
    polyfit_unit,
    scan_frames_mod,
    tap_bit,
)

ALL8 = (1,) * 8


def make_chip(n_units=8, f_idle=2000.0, beta=20.0):
    return ChipState(make_population([f_idle] * n_units, beta))


class TestPhaseRate:
    def test_per_phase_rate(self):
        assert phase_rate(6e6, 220) == pytest.approx(27272.727272, rel=1e-9)

    def test_nyquist_rule(self):
        phase_rate(6e6, 220)
        with pytest.raises(NyquistError):
            phase_rate(6e6, 800)


class TestProgram:
    def test_full_network_enablement_counts(self):
        chip = make_chip(128)
        configs = []
        for u in range(80):
            bypass = ALL8 if u % 4 == 0 else tap0_bypass()
            configs.append((u, (12, 8), bypass))
        program(chip, configs)
        assert chip.enabled_phases == 60 + 8 * 20 == 220

    def test_empty_config_gives_zero_phases(self):
        chip = make_chip(4)
        program(chip, [])
        assert chip.programmed and chip.enabled_phases == 0
        assert scan_frames(chip, VelocityVector(0, 0), 5).size == 0

    def test_duplicate_index_last_write_wins(self):
        # Replaying the serialized sequence by hand for two writes to the
        # same unit: the second shift overwrites the registers.
        chip = make_chip(2)
        program(chip, [(1, (12, 8), ALL8), (1, (4, 8), tap0_bypass())])
        assert chip.v_pref[1].tolist() == [-4, 0]
        assert list(chip.bypass[1]) == [True] + [False] * 7

    def test_requires_reset(self):
        chip = make_chip(2)
        chip.release()
        with pytest.raises(RuntimeError):
            program(chip, [(0, (8, 8), tap0_bypass())])

    def test_bad_unit_index(self):
        chip = make_chip(2)
        with pytest.raises(IndexError):
            program(chip, [(2, (8, 8), tap0_bypass())])

    def test_code_zero_rejected(self):
        chip = make_chip(2)
        with pytest.raises(ValueError):
            program(chip, [(0, (0, 8), tap0_bypass())])

    def test_code_sixteen_rejected(self):
        chip = make_chip(2)
        with pytest.raises(InvalidCodeError):
            program(chip, [(0, (8, 16), tap0_bypass())])

    def test_reprogramming_wipes_previous_bypass(self):
        chip = make_chip(4)
        program(chip, [(u, (12, 8), ALL8) for u in range(4)])
        chip.hold()
        program(chip, [(0, (12, 8), tap0_bypass())])
        assert chip.enabled_phases == 1

    def test_reprogramming_wipes_previous_codes(self):
        chip = make_chip(4)
        program(chip, [(u, (15, 1), ALL8) for u in range(4)])
        chip.hold()
        program(chip, [(0, (12, 8), tap0_bypass())])
        assert chip.v_pref.tolist() == [[4, 0], [0, 0], [0, 0], [0, 0]]


class TestScan:
    def test_stream_length(self):
        chip = make_chip(128)
        configs = [(u, (12, 8), ALL8 if u % 4 == 0 else tap0_bypass())
                   for u in range(80)]
        program(chip, configs)
        chip.release()
        frames = scan_frames(chip, VelocityVector(0, 0), 2)
        assert frames.size == 440 and frames.shape == (2, 220)

    def test_all_held_reads_high_on_tap_zero(self):
        chip = make_chip(6)
        program(chip, [(u, (8, 8), tap0_bypass()) for u in range(6)])
        assert chip.held
        frames = scan_frames(chip, VelocityVector(2, 1), 10)
        assert frames.size == 60 and frames.min() == 1

    def test_edge_count_matches_frequency(self):
        chip = make_chip(1, f_idle=2000.0)
        program(chip, [(0, (8, 8), tap0_bypass())])
        chip.release()
        fs = 27272.7
        stream = scan_frames(chip, VelocityVector(0, 0), 27273,
                             clock_hz=fs)[:, 0]
        edges = int(np.count_nonzero((stream[1:] == 1) & (stream[:-1] == 0)))
        assert abs(edges - 2000) <= 1

    def test_unprogrammed_refused(self):
        chip = make_chip(2)
        with pytest.raises(NotProgrammedError):
            scan_frames(chip, VelocityVector(0, 0), 10)

    def test_nyquist_enforced(self):
        chip = make_chip(128)
        program(chip, [(u, (8, 8), ALL8) for u in range(128)])
        chip.release()
        with pytest.raises(NyquistError):
            scan_frames(chip, VelocityVector(0, 0), 4, clock_hz=6e6)

    def test_frames_equal_direct_tap_sampling(self):
        # Independent oracle: per enabled phase, advance a scalar
        # oscillator with the ideal phase law and read its tap.
        chip = ChipState(make_population([1500.0, 2000.0, 2700.0], 10.0))
        program(chip, [(0, (12, 8), ALL8), (1, (4, 8), tap0_bypass()),
                       (2, (12, 8), (1, 0, 1, 0, 1, 0, 1, 0))])
        chip.release()
        v = VelocityVector(1.5, 0.0)
        clock = 27272.7 * chip.enabled_phases
        n_cycles = 400
        freqs = frequencies(chip.population, chip.v_pref, v)
        enabled = np.argwhere(chip.bypass)   # shift order: unit-major

        frames = scan_frames(chip, v, n_cycles, clock_hz=clock)

        dt = chip.enabled_phases / clock
        for col, (u, k) in enumerate(enabled):
            expected = [tap_bit((freqs[u] * dt * c) % 1.0, k)
                        for c in range(n_cycles)]
            assert np.array_equal(frames[:, col], np.array(expected)), (u, k)

    def test_stale_fast_unit_does_not_raise(self):
        # Unit 1 was programmed fast (58 kHz at vx = 4), then left out of
        # the next write: it is neither read nor checked.
        chip = ChipState(make_population([2000.0, 2000.0], 2000.0))
        program(chip, [(0, (15, 8), tap0_bypass()),
                       (1, (15, 8), tap0_bypass())])
        chip.hold()
        program(chip, [(0, (8, 8), tap0_bypass())])
        chip.release()
        frames = scan_frames(chip, VelocityVector(4, 0), 10, clock_hz=2e4)
        assert frames.shape == (10, 1)

    def test_enabled_aliasing_unit_raises(self):
        chip = ChipState(make_population([2000.0, 10000.0]))
        program(chip, [(0, (8, 8), tap0_bypass()),
                       (1, (8, 8), tap0_bypass())])
        chip.release()
        with pytest.raises(AliasingError):
            scan_frames(chip, VelocityVector(0, 0), 10, clock_hz=3.6e4)

    def test_peak_memory_is_one_block_past_the_frames(self):
        chip = ChipState(sample_population(PopulationSpec(), 0))
        program(chip, [(u, (12, 8), tap0_bypass()) for u in range(128)])
        chip.release()
        tracemalloc.start()
        try:
            frames = scan_frames(chip, VelocityVector(1, 0), 20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert frames.shape == (20_000, 128)
        assert peak < frames.nbytes + 4_000_000

    def test_a_long_scan_holds_no_trace_length_buffer(self):
        # Past SCAN_BLOCK cycles a trace is filled in runs of SCAN_BLOCK
        # cycles, so no float or integer buffer spans the whole trace.
        chip = make_chip(1)
        program(chip, [(0, (12, 8), tap0_bypass())])
        chip.release()
        tracemalloc.start()
        try:
            frames = scan_frames(chip, VelocityVector(1, 0), 2**20,
                                 clock_hz=46_875.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert frames.shape == (2**20, 1)
        assert peak < frames.nbytes + 4 * SCAN_BLOCK * 8


# (f_idle, beta, x offset, y offset, x code, y code, bypass bits) of one
# unit.  Gains, offsets and speeds keep every frequency below 7.2 kHz and
# the per-phase rate is at least 16 kHz, so no draw aliases.
scan_unit = st.tuples(st.floats(1.0, 4000.0), st.floats(0.0, 50.0),
                      st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
                      st.integers(1, 15), st.integers(1, 15),
                      st.tuples(*[st.integers(0, 1)] * 8))
# Scan lengths at the edge of one column block holding every decoded
# trace: past it (block+1), the traces split over column blocks and the
# last block holds fewer; a one-trace scan then splits along the cycles.
BLOCK_EDGE = {"block-1": -1, "block": 0, "block+1": 1}
scan_length = st.one_of(st.sampled_from([0, 1, *BLOCK_EDGE]),
                        st.integers(2, 1500))
# 4096 Hz at 16384 Hz per phase steps exactly 1/4 cycle per sample, so
# taps 0 and 4 land on exactly 1/2.
HALF = [(4096.0, 0.0, 0.0, 0.0, 8, 8, (1, 0, 0, 0, 1, 0, 0, 0))]
# Tap 0 alone on every unit, as in a calibration scan, where the scan
# skips its tap term.
TAP0 = [(2000.0, 20.0, 0.0, 0.0, 12, 8, (1, 0, 0, 0, 0, 0, 0, 0)),
        (3100.0, 35.0, 0.2, -0.1, 8, 4, (1, 0, 0, 0, 0, 0, 0, 0))]
# Unit 0 clamps to 0 Hz at vx = -4.
STOPPED = [(100.0, 50.0, 0.0, 0.0, 15, 8, ALL8),
           (2000.0, 10.0, 0.0, 0.0, 8, 12, (0, 1, 0, 0, 1, 0, 0, 1))]
# One and three decoded traces for scans longer than SCAN_BLOCK cycles,
# which fill each trace in two runs of cycles, the last one cycle long.
ONE_TAP = [(2000.0, 20.0, 0.1, 0.0, 12, 8, (0, 0, 0, 1, 0, 0, 0, 0))]
THREE_TAPS = [(1500.0, 30.0, 0.0, 0.2, 8, 12, (1, 0, 0, 0, 0, 0, 1, 0)),
              (3100.0, 35.0, 0.2, -0.1, 8, 4, (1, 0, 0, 0, 0, 0, 0, 0))]

# Tap 7 alone stepping just under 1/2 cycle per sample at 16 kHz per
# phase.  A first scan of 2**15 - 5 cycles (the last with int16 parity)
# or 2**15 - 4 (the first with int32) leaves the phase at 0.988 or 0.488,
# so the second scan reaches 2x = 32764.7, near the int16 limit of 32767.
NEAR_HALF = [(7999.75, 0.0, 0.0, 0.0, 8, 8, (0, 0, 0, 0, 0, 0, 0, 1))]
# 32 decoded taps at 2,670 cycles, a tracking scan's length: one padded
# float block of 24 traces, then one of 8.  At NumPy's default buffer
# size, rows of 2,048 cycles are the longest the scan leaves unpadded and
# rows of 2,049 the shortest it pads.
TRACK_BLOCK = [(1200.0 + 700.0 * i, 20.0 + 5.0 * i, 0.1 * i - 0.1, 0.05,
                12 - i, 8 + i, ALL8) for i in range(4)]


def scan_chip(units, response: str, held: bool) -> ChipState:
    f_idle, beta, ox, oy, cx, cy, bypass = zip(*units)
    chip = ChipState(ThetaPopulation(f_idle, beta, list(zip(ox, oy)),
                                     response))
    if not any(map(any, bypass)):
        bypass = (ALL8,) + bypass[1:]
    program(chip, [(u, (x, y), bits)
                   for u, (x, y, bits) in enumerate(zip(cx, cy, bypass))])
    if not held:
        chip.release()
    return chip


@settings(max_examples=150, deadline=None)
@given(units=st.lists(scan_unit, min_size=1, max_size=16),
       response=st.sampled_from([LINEAR, SIGMOID]),
       v1=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
       v2=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
       fs=st.floats(16_000.0, 200_000.0), held=st.booleans(),
       n1=scan_length, n2=scan_length)
@example(units=HALF, response=LINEAR, v1=(0.0, 0.0), v2=(0.0, 0.0),
         fs=16_384.0, held=False, n1=9, n2=9)
@example(units=HALF, response=LINEAR, v1=(0.0, 0.0), v2=(0.0, 0.0),
         fs=16_384.0, held=True, n1=3, n2=3)
@example(units=STOPPED, response=SIGMOID, v1=(-4.0, 0.0), v2=(-4.0, 1.0),
         fs=16_000.0, held=False, n1="block", n2="block+1")
@example(units=TAP0, response=LINEAR, v1=(1.0, 0.0), v2=(-2.5, 3.0),
         fs=46_875.0, held=False, n1=1500, n2=1500)
@example(units=TAP0, response=SIGMOID, v1=(4.0, 0.0), v2=(0.0, -4.0),
         fs=46_875.0, held=False, n1="block+1", n2="block+1")
@example(units=ONE_TAP, response=LINEAR, v1=(1.0, 0.0), v2=(-2.5, 3.0),
         fs=46_875.0, held=False, n1=SCAN_BLOCK + 1, n2=SCAN_BLOCK + 1)
@example(units=THREE_TAPS, response=SIGMOID, v1=(2.0, -1.0),
         v2=(-3.0, 4.0), fs=46_875.0, held=False, n1=SCAN_BLOCK + 1,
         n2=SCAN_BLOCK + 1)
@example(units=NEAR_HALF, response=LINEAR, v1=(0.0, 0.0), v2=(0.0, 0.0),
         fs=16_000.0, held=False, n1=2**15 - 5, n2=2**15 - 5)
@example(units=NEAR_HALF, response=LINEAR, v1=(0.0, 0.0), v2=(0.0, 0.0),
         fs=16_000.0, held=False, n1=2**15 - 4, n2=2**15 - 4)
@example(units=TRACK_BLOCK, response=SIGMOID, v1=(1.0, 0.5),
         v2=(-2.0, 3.0), fs=46_875.0, held=False, n1=2670, n2=2670)
@example(units=TRACK_BLOCK, response=LINEAR, v1=(0.5, -1.0),
         v2=(3.0, 0.0), fs=46_875.0, held=False, n1=2048, n2=2049)
def test_scan_equals_the_modulo_oracle_bit_for_bit(units, response, v1, v2,
                                                   fs, held, n1, n2):
    chip = scan_chip(units, response, held)
    oracle = copy.deepcopy(chip)
    n_enabled = chip.enabled_phases
    clock = fs * n_enabled
    # The first scan starts from zero phases, where the scan skips its
    # phase term; without a hold, the second starts where the first left
    # the phases, which the HALF, STOPPED and TAP0 examples leave
    # nonzero, as do ONE_TAP and THREE_TAPS.  A block+1 scan ends on a
    # short column block in the reused buffers.
    for (vx, vy), length in ((v1, n1), (v2, n2)):
        v = VelocityVector(vx, vy)
        n_cycles = (SCAN_BLOCK // n_enabled + BLOCK_EDGE[length]
                    if length in BLOCK_EDGE else length)
        want = scan_frames_mod(oracle, v, n_cycles, clock)
        got = scan_frames(chip, v, n_cycles, clock)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert chip.phases.tolist() == oracle.phases.tolist()


def test_tap_on_exact_half_reads_low():
    chip = scan_chip(HALF, LINEAR, held=False)
    frames = scan_frames(chip, VelocityVector(0, 0), 5, clock_hz=2 * 16_384)
    assert frames.T.tolist() == [[1, 1, 0, 0, 1], [0, 0, 1, 1, 0]]


# The decoded frame positions of a scan that reads only some columns: the
# i-th enabled tap is decoded when keep[i] holds.
keep_columns = st.lists(st.booleans(), min_size=16 * 8, max_size=16 * 8)


def kept(keep, n_enabled: int) -> list[int]:
    return [i for i in range(n_enabled) if keep[i]]


@settings(max_examples=150, deadline=None)
@given(units=st.lists(scan_unit, min_size=1, max_size=16),
       response=st.sampled_from([LINEAR, SIGMOID]),
       v1=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
       v2=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
       fs=st.floats(16_000.0, 200_000.0), held=st.booleans(),
       n1=scan_length, n2=scan_length, keep=keep_columns)
# Tap 4 alone, where only the tap term is added.
@example(units=HALF, response=LINEAR, v1=(0.0, 0.0), v2=(0.0, 0.0),
         fs=16_384.0, held=False, n1=9, n2=9, keep=[False, True] * 64)
# Unit 0's taps alone: stopped at phase 0, so the second scan skips the
# phase term that the full scan adds for unit 1.
@example(units=STOPPED, response=SIGMOID, v1=(-4.0, 0.0), v2=(-4.0, 0.0),
         fs=16_000.0, held=False, n1="block", n2="block+1",
         keep=[True] * 8 + [False] * 120)
@example(units=TAP0, response=LINEAR, v1=(1.0, 0.0), v2=(-2.5, 3.0),
         fs=46_875.0, held=False, n1=1500, n2=1500,
         keep=[False, True] * 64)
def test_scan_of_some_columns_equals_the_full_scan_sliced(
        units, response, v1, v2, fs, held, n1, n2, keep):
    chip = scan_chip(units, response, held)
    full = copy.deepcopy(chip)
    n_enabled = chip.enabled_phases
    columns = kept(keep, n_enabled)
    clock = fs * n_enabled
    # Column blocks hold decoded traces only, so their edges move with
    # the decoded columns; fs, the aliasing check and the phase advance
    # go by every enabled tap.
    for (vx, vy), length in ((v1, n1), (v2, n2)):
        v = VelocityVector(vx, vy)
        n_cycles = (SCAN_BLOCK // max(1, len(columns)) + BLOCK_EDGE[length]
                    if length in BLOCK_EDGE else length)
        want = scan_frames(full, v, n_cycles, clock)[:, columns]
        got = scan_frames(chip, v, n_cycles, clock, columns)
        assert got.dtype == np.uint8 and got.shape == (n_cycles, len(columns))
        assert np.array_equal(got, want)
        assert chip.phases.tolist() == full.phases.tolist()


def test_scan_of_no_columns_still_advances_the_phases():
    chip = scan_chip(TAP0, LINEAR, held=False)
    full = copy.deepcopy(chip)
    v = VelocityVector(1.0, 0.0)
    frames = scan_frames(chip, v, 100, clock_hz=2 * 46_875.0, columns=[])
    assert frames.dtype == np.uint8 and frames.shape == (100, 0)
    scan_frames(full, v, 100, clock_hz=2 * 46_875.0)
    assert chip.phases.any()
    assert chip.phases.tolist() == full.phases.tolist()


def test_an_unread_aliasing_unit_still_raises():
    chip = ChipState(make_population([2000.0, 10000.0]))
    program(chip, [(0, (8, 8), tap0_bypass()),
                   (1, (8, 8), tap0_bypass())])
    chip.release()
    for columns in ([0], []):
        with pytest.raises(AliasingError):
            scan_frames(chip, VelocityVector(0, 0), 10, clock_hz=3.6e4,
                        columns=columns)


@pytest.mark.parametrize("columns", [[1, 0], [0, 0], [-1], [8], [[0, 1]]])
def test_scan_refuses_columns_out_of_order_or_outside_the_frame(columns):
    chip = make_chip(1)
    program(chip, [(0, (8, 8), ALL8)])
    with pytest.raises(ValueError, match="increasing positions"):
        scan_frames(chip, VelocityVector(0, 0), 4, clock_hz=1e6,
                    columns=columns)


class TestEstimateFrequency:
    FS = 27272.7

    def _wave(self, f, seconds):
        n = int(seconds * self.FS)
        return ((f * np.arange(n) / self.FS) % 1.0 < 0.5).astype(np.uint8)

    def test_nominal(self):
        hz = estimate_frequency(self._wave(2000.0, 1.0), self.FS)
        assert abs(hz - 2000.0) <= 1.0

    def test_flatline_flagged(self):
        # A constant trace has no rising edge and reads 0 Hz.
        for level in (0, 1):
            trace = np.full(4000, level, dtype=np.uint8)
            assert estimate_frequency(trace, self.FS) == 0.0

    def test_top_of_band(self):
        hz = estimate_frequency(self._wave(3000.0, 1.0), self.FS)
        assert abs(hz - 3000.0) <= 1.0

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            estimate_frequency(np.zeros(100, dtype=np.uint8), self.FS)


@st.composite
def zero_one_traces(draw):
    """A uint8 or bool 0/1 trace, as a row or as a column of a 2-D array,
    with a sample rate that leaves it at least 100 ms long."""
    bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=400))
    trace = np.array(bits, dtype=draw(st.sampled_from([np.uint8, np.bool_])))
    if draw(st.booleans()):
        trace = np.stack([trace] * 3, axis=1)[:, 1]
    return trace, draw(st.floats(1.0, 9.0 * trace.size))


@settings(max_examples=200, deadline=None)
@given(traced=zero_one_traces())
def test_estimate_frequency_equals_the_edge_count_oracle(traced):
    trace, fs = traced
    assert estimate_frequency(trace, fs) == edge_count_frequency(trace, fs)
    assert type(estimate_frequency(trace, fs)) is float
    assert estimate_frequency(np.full_like(trace, trace[0]), fs) == 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), code=st.sampled_from(
    [member for pair in PAIR_CODES for member in pair]),
    sweep_v=st.sampled_from(CAL_SWEEP))
def test_calibration_scan_columns_equal_the_oracle(seed, code, sweep_v):
    # Eight units on 8/128 of the clock, tap 0 each, as calibrate scans
    # them.  Each unit's trace is a contiguous row of frames.T, which
    # calibrate reads for speed; the same trace as a strided column of a
    # row-major copy reads the same.
    chip = ChipState(sample_population(PopulationSpec(n_units=8), seed))
    program(chip, [(u, code, tap0_bypass()) for u in range(8)])
    chip.release()
    clock = CALIBRATION_CLOCK_HZ * 8 / PopulationSpec().n_units
    fs = phase_rate(clock, 8)
    v = VelocityVector(sweep_v, 0.0) if code in PAIR_CODES[0] \
        else VelocityVector(0.0, sweep_v)
    frames = scan_frames(chip, v, int(np.ceil(CALIBRATION_WINDOW_S * fs)),
                         clock)
    for trace in frames.T:
        assert trace.flags.c_contiguous
        assert estimate_frequency(trace, fs) == edge_count_frequency(trace, fs)
    rows = np.ascontiguousarray(frames)
    for u in range(8):
        column = rows[:, u]
        assert not column.flags.contiguous
        assert estimate_frequency(column, fs) == \
            edge_count_frequency(column, fs)


class TestFitUnit:
    def test_exact_linear_recovery(self):
        p = [-16, -8, 0, 8, 16]
        fit = fit_unit(fit_design(p), [2000.0 + 20.0 * x for x in p], unit=3)
        assert fit.unit == 3
        assert fit.f_idle_hat == pytest.approx(2000.0)
        assert fit.beta_hat == pytest.approx(20.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_degenerate_design_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_design([4, 4, 4])

    @pytest.mark.parametrize("samples", [
        [(float("nan"), 1.0), (1.0, 2.0), (0.0, 1.0)],
        [(-1.0, 2000.0), (0.0, float("inf")), (1.0, 2020.0)],
    ])
    def test_non_finite_sample_rejected_before_the_solver(self, samples,
                                                          capfd):
        # np.unique counts a NaN as one more distinct value, and
        # LAPACK would fail on it, printing to stderr first.
        p, f = zip(*samples)
        with pytest.raises(DegenerateFitError, match="must be finite"):
            fit_unit(fit_design(p), f)
        assert capfd.readouterr() == ("", "")

    def test_sigmoid_sweep_r2_decreases_with_swing(self):
        p = np.arange(-16, 17)
        design = fit_design(p)
        r2 = []
        for f_swing in (600.0, 200.0, 60.0):
            f = 2000.0 + f_swing * np.tanh(20.0 * p / f_swing)
            r2.append(fit_unit(design, f).r2)
        assert all(x < 1.0 for x in r2)
        assert r2[0] > r2[1] > r2[2]

    def test_design_is_read_only(self):
        design = fit_design([-1, 0, 1])
        for array in (design.p, design.lhs, design.scale):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_rank_short_design_warns_as_polyfit_does(self):
        # Three distinct values one ulp apart scale to nearly equal
        # columns, so lstsq drops to rank 1.
        p = [1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51]
        f = [1.0, 2.0, 3.0]
        with pytest.warns(np.exceptions.RankWarning):
            want = polyfit_unit(list(zip(p, f)))
        with pytest.warns(np.exceptions.RankWarning):
            assert fit_unit(fit_design(p), f) == want


# The calibration's 36 inner products in code-major order: each code's
# decoded preferred velocity against the sweep along its own axis.
CALIBRATION_INNERS = [
    s * (pref[0] or pref[1])
    for pref in (tuple(map(decode_velocity_code, codes))
                 for pair in PAIR_CODES for codes in pair)
    for s in CAL_SWEEP]


def fit_outcome(fit, *args):
    """A fit's UnitFit and the categories of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fit(*args)
    return result, [w.category for w in caught]


@st.composite
def fit_cases(draw):
    """Inner products (3-40 ints or floats with repeats, or the
    calibration's own 36), frequencies on an exact line, constant or
    noisy, and a unit index."""
    kind = draw(st.sampled_from(["int", "float", "calibration"]))
    if kind == "calibration":
        p = list(CALIBRATION_INNERS)
    else:
        n = draw(st.integers(3, 40))
        element = (st.integers(-64, 64) if kind == "int" else
                   st.floats(-100.0, 100.0, allow_nan=False))
        values = draw(st.lists(element, min_size=3, max_size=n, unique=True))
        p = draw(st.permutations(
            values + draw(st.lists(st.sampled_from(values),
                                   min_size=n - len(values),
                                   max_size=n - len(values)))))
    f_idle = draw(st.floats(0.0, 4000.0))
    beta = draw(st.floats(-50.0, 50.0))
    shape = draw(st.sampled_from(["line", "constant", "noisy"]))
    if shape == "constant":
        f = [f_idle] * len(p)
    else:
        noise = ([0.0] * len(p) if shape == "line" else draw(st.lists(
            st.floats(-30.0, 30.0), min_size=len(p), max_size=len(p))))
        f = [f_idle + beta * x + e for x, e in zip(p, noise)]
    return p, f, draw(st.integers(0, 127))


@settings(max_examples=300, deadline=None)
@given(fit_cases())
@example(([-16, -8, 0, 8, 16], [2000.0 + 20.0 * x for x in (-16, -8, 0, 8, 16)],
          3))
@example(([0, 1, 1, 2, 2, 2], [7.5] * 6, 0))
def test_fit_on_a_shared_design_equals_polyfit(case):
    # The design's set-up and the one lstsq per unit give np.polyfit's
    # fits bit for bit, warnings included.
    p, f, unit = case
    assert fit_outcome(lambda: fit_unit(fit_design(p), f, unit)) == \
        fit_outcome(polyfit_unit, list(zip(p, f)), unit)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fit_and_polyfit_refuse_the_same_samples(capfd, data):
    # A non-finite inner product or frequency, or fewer than three
    # distinct inner products: both raise before any solver runs.
    bad = data.draw(st.sampled_from([None, float("nan"), float("inf"),
                                     -float("inf")]))
    n = data.draw(st.integers(3, 40))
    values = data.draw(st.lists(st.floats(-100.0, 100.0), min_size=1,
                                max_size=2 if bad is None else 3,
                                unique=True))
    p = data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    f = data.draw(st.lists(st.floats(0.0, 4000.0), min_size=n, max_size=n))
    if bad is not None:
        target = data.draw(st.sampled_from([p, f]))
        target[data.draw(st.integers(0, n - 1))] = bad
    capfd.readouterr()
    with pytest.raises(DegenerateFitError):
        polyfit_unit(list(zip(p, f)))
    with pytest.raises(DegenerateFitError):
        fit_unit(fit_design(p), f)
    assert capfd.readouterr() == ("", "")


def test_calibration_makes_every_edge_count_through_the_module_name(
        monkeypatch):
    # 4 codes x 9 sweep velocities x 128 units, each counted
    # through chip_io.estimate_frequency as a per-layer tracer would see
    # them, with the fits of an unwrapped calibration.
    population = sample_population(PopulationSpec(), 0)
    want = calibrate(ChipState(population))
    calls = []
    original = chip_io.estimate_frequency

    def counted(trace, fs):
        calls.append(trace.size)
        return original(trace, fs)

    monkeypatch.setattr(chip_io, "estimate_frequency", counted)
    assert calibrate(ChipState(population)) == want
    assert len(calls) == 4 * len(CAL_SWEEP) * 128 == 4608


def test_calibration_fits_every_unit_on_one_design_through_the_module_name(
        monkeypatch):
    # 128 chip_io.fit_unit calls, as a per-layer tracer would see them,
    # units 0..127 in order, all on the one design of the calibration's
    # 36 inner products, with the fits of an unwrapped calibration.
    population = sample_population(PopulationSpec(), 0)
    want = calibrate(ChipState(population))
    calls = []
    original = chip_io.fit_unit

    def counted(design, f, unit=0):
        calls.append((design, unit))
        return original(design, f, unit)

    monkeypatch.setattr(chip_io, "fit_unit", counted)
    assert calibrate(ChipState(population)) == want
    assert [unit for _, unit in calls] == list(range(128))
    design = calls[0][0]
    assert all(d is design for d, _ in calls)
    assert design.p.tolist() == CALIBRATION_INNERS


def chip_state(chip):
    return (chip.phases.tobytes(), chip.v_pref.dtype, chip.v_pref.tobytes(),
            chip.bypass.tobytes(), chip.held, chip.programmed)


@pytest.mark.parametrize("response", [LINEAR, SIGMOID])
@pytest.mark.parametrize("dac_offset_std", [0.0, 0.02, 0.1])
@pytest.mark.parametrize("seed", [0, 1, 117])
def test_calibration_equals_a_session_per_code(seed, dac_offset_std,
                                               response):
    # Scanning each distinct session once gives the fits and leaves the
    # chip state of scanning every code's session.
    population = sample_population(PopulationSpec(
        dac_offset_std=dac_offset_std, response=response), seed)
    chip, reference = ChipState(population), ChipState(population)
    assert calibrate(chip) == calibrate_every_session(reference)
    assert chip_state(chip) == chip_state(reference)


@pytest.mark.parametrize("dac_offset_std, scans", [(0.0, 18), (0.02, 36)])
def test_calibration_scans_each_distinct_session_once(monkeypatch,
                                                      dac_offset_std, scans):
    # With zero DAC offsets the y codes' sessions repeat the x codes'
    # bit for bit and are not scanned again; any offset separates them.
    # Every (code, step, unit) still gets its own edge count.
    population = sample_population(
        PopulationSpec(dac_offset_std=dac_offset_std), 0)
    shapes, counts = [], []
    scan, count = chip_io.scan_frames, chip_io.estimate_frequency

    def scanned(*args, **kwargs):
        frames = scan(*args, **kwargs)
        shapes.append(frames.shape)
        return frames

    def counted(trace, fs):
        counts.append(trace.size)
        return count(trace, fs)

    monkeypatch.setattr(chip_io, "scan_frames", scanned)
    monkeypatch.setattr(chip_io, "estimate_frequency", counted)
    calibrate(ChipState(population))
    assert shapes == [(5625, 128)] * scans
    assert counts == [5625] * 4608


class TestSelectUnits:
    def _fits(self, r2_values, beta=20.0):
        return [UnitFit(i, 2000.0 + i, beta, r2)
                for i, r2 in enumerate(r2_values)]

    def test_threshold_admission_count(self):
        r2 = [0.95] * 82 + [0.5] * 46
        admitted = select_units(self._fits(r2))
        assert len(admitted) == 82

    def test_zero_threshold_admits_all_positive_beta(self, monkeypatch):
        monkeypatch.setattr(chip_io, "ADMISSION_R2", 0.0)
        monkeypatch.setattr(chip_io, "NETWORK_UNITS", 8)
        fits = self._fits([0.2] * 8)
        admitted = select_units(fits)
        assert len(admitted) == 8

    def test_negative_beta_rejected(self, monkeypatch):
        monkeypatch.setattr(chip_io, "NETWORK_UNITS", 7)
        fits = self._fits([0.99] * 8)
        fits[3] = UnitFit(3, 2003.0, -1.0, 0.99)
        admitted = select_units(fits)
        assert len(admitted) == 7
        assert all(f.beta_hat > 0 for f in admitted)

    def test_boundary_insufficient(self):
        r2 = [0.95] * 79 + [0.1] * 49
        with pytest.raises(InsufficientUnitsError):
            select_units(self._fits(r2))

    def test_sorted_by_idle_frequency(self, monkeypatch):
        monkeypatch.setattr(chip_io, "NETWORK_UNITS", 4)
        fits = [UnitFit(i, f, 20.0, 0.99)
                for i, f in enumerate([2100.0, 1900.0, 2050.0, 1800.0])]
        admitted = select_units(fits)
        assert [f.f_idle_hat for f in admitted] == [1800.0, 1900.0, 2050.0, 2100.0]


class TestCalibratePipeline:
    def test_zero_mismatch_recovery(self, monkeypatch):
        monkeypatch.setattr(chip_io, "CALIBRATION_CLOCK_HZ", 8 * 46875.0)
        spec = PopulationSpec(n_units=8, f_idle_std=0.0, beta_std=0.0)
        chip = ChipState(sample_population(spec, 0))
        fits = calibrate(chip)
        for fit in fits:
            assert abs(fit.f_idle_hat - spec.f_idle_mean) <= 0.005 * spec.f_idle_mean
            assert abs(fit.beta_hat - spec.beta_mean) <= 0.005 * spec.beta_mean
            assert fit.r2 >= 0.999

    def test_mismatched_recovery_within_one_percent(self, monkeypatch):
        monkeypatch.setattr(chip_io, "CALIBRATION_CLOCK_HZ", 8 * 46875.0)
        spec = PopulationSpec(n_units=8)
        pop = sample_population(spec, 11)
        chip = ChipState(pop)
        fits = calibrate(chip)
        for f_idle, beta, fit in zip(pop.f_idle, pop.beta, fits):
            assert abs(fit.f_idle_hat - f_idle) <= 0.01 * f_idle
            assert abs(fit.beta_hat - beta) <= 0.01 * beta
            assert fit.r2 >= 0.99

    def test_measured_frequency_tracks_law_everywhere(self):
        spec = PopulationSpec(n_units=4)
        pop = sample_population(spec, 5)
        chip = ChipState(pop)
        program(chip, [(u, (12, 8), tap0_bypass()) for u in range(4)])
        chip.release()
        fs = 46875.0
        window = 0.2
        for vx in (-3.0, 0.5, 4.0):
            v = VelocityVector(vx, 0.0)
            frames = scan_frames(chip, v, int(window * fs), clock_hz=fs * 4)
            for u in range(4):
                hz = estimate_frequency(frames[:, u], fs)
                law = instantaneous_frequency(
                    pop.f_idle[u], pop.beta[u], tuple(chip.v_pref[u]),
                    tuple(pop.dac_offset[u]), pop.response, v.vx, v.vy)
                assert abs(hz - law) <= 2.0 / window


class TestCsvExports:
    def test_fit_report_file(self, tmp_path):
        fits = [UnitFit(0, 2000.0, 20.0, 0.999)]
        report_path = tmp_path / "fits.csv"
        write_csv(report_path, UnitFit._fields, fits)
        lines = report_path.read_text().strip().splitlines()
        assert lines[0] == "unit,f_idle_hat,beta_hat,r2"
        assert lines[1] == "0,2000.0,20.0,0.999"
