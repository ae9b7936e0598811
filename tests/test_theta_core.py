"""Oscillator-level contracts: coding, frequency law, phase stepping,
taps, reset, and population sampling.  Phase, taps and the reset line
are those of ``ChipState``, driven through ``scan_frames``."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thetanav.chip_io import ChipState, program, scan_frames, tap0_bypass
from thetanav.theta_core import (
    F_SWING_HZ,
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
    encode_velocity,
    instantaneous_frequency,
    make_population,
)

ALL8 = (1,) * 8
REST = VelocityVector(0, 0)


def released_chip(f_idles, phases=0.0, taps=tap0_bypass()):
    """Chip of zero-preference units (each runs at its idle frequency),
    every unit enabling ``taps``, released with the given phases."""
    chip = ChipState(make_population(f_idles))
    program(chip, [(u, (8, 8), taps) for u in range(len(f_idles))])
    chip.release()
    chip.phases[:] = phases
    return chip


def step(chip, fs, n=1):
    """Scan n cycles at per-phase rate fs; returns the frames."""
    return scan_frames(chip, REST, n, clock_hz=fs * chip.enabled_phases)


def taps_at(phase):
    """The eight tap bits of one oscillator at the given phase."""
    return step(released_chip([1000.0], phase, ALL8), 10_000.0)[0]


class TestDecodeVelocityCode:
    def test_zero_code(self):
        assert decode_velocity_code(8) == 0

    def test_positive_code(self):
        assert decode_velocity_code(12) == 4

    def test_code_zero_rejected(self):
        with pytest.raises(InvalidCodeError):
            decode_velocity_code(0)

    @pytest.mark.parametrize("code", range(1, 16))
    def test_round_trip(self, code):
        assert encode_velocity(decode_velocity_code(code)) == code


class TestSamplePopulation:
    def test_zero_variance_hits_means(self):
        spec = PopulationSpec(n_units=16, f_idle_std=0.0, beta_std=0.0,
                              dac_offset_std=0.0)
        pop = sample_population(spec, 1)
        assert (pop.f_idle == spec.f_idle_mean).all()
        assert (pop.beta == spec.beta_mean).all()
        assert (pop.dac_offset == 0.0).all()
        assert pop.dac_offset.shape == (16, 2)

    @pytest.mark.parametrize("n_units", [1, 8, 128])
    def test_a_zero_dac_std_draws_positive_zero_offsets(self, n_units):
        # The offsets are drawn at every std; at 0 each is +0.0, not -0.0.
        zeros = np.zeros((n_units, 2)).tobytes()
        for seed in range(50):
            pop = sample_population(PopulationSpec(n_units=n_units), seed)
            assert pop.dac_offset.tobytes() == zeros, seed

    def test_nominal_statistics(self):
        spec = PopulationSpec(n_units=128)
        pop = sample_population(spec, 42)
        f = pop.f_idle
        assert abs(f.mean() - spec.f_idle_mean) < 0.10 * spec.f_idle_mean
        assert abs(f.std(ddof=1) - spec.f_idle_std) < 0.25 * spec.f_idle_std
        assert f.min() > 100.0
        assert pop.beta.min() > 0.0

    def test_same_seed_bit_identical(self):
        spec = PopulationSpec(n_units=64, dac_offset_std=0.1)
        a = sample_population(spec, 7)
        b = sample_population(spec, 7)
        assert a.f_idle.tolist() == b.f_idle.tolist()
        assert a.beta.tolist() == b.beta.tolist()
        assert a.dac_offset.tolist() == b.dac_offset.tolist()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            sample_population(PopulationSpec(f_idle_mean=-5.0), 0)
        with pytest.raises(ValueError):
            sample_population(PopulationSpec(n_units=0), 0)


class TestThetaPopulation:
    @pytest.mark.parametrize("f_idle", [0.0, -1.0])
    def test_non_positive_idle_frequency_rejected(self, f_idle):
        with pytest.raises(ValueError, match="f_idle must be positive"):
            make_population([2000.0, f_idle])

    @pytest.mark.parametrize("f_idle, beta, dac_offset, match", [
        ([2000.0, 2000.0], [np.nan, 20.0], [[0.0, 0.0]] * 2,
         "beta must be finite"),
        ([2000.0, 2000.0], [20.0, 20.0], [[0.0, 0.0], [np.nan, 0.0]],
         "dac_offset must be finite"),
        ([2000.0, np.inf], [20.0, 20.0], [[0.0, 0.0]] * 2,
         "f_idle must be finite"),
        ([2000.0, 2000.0], [20.0], [[0.0, 0.0]] * 2,
         r"beta must have shape \(2,\) for 2 units, got \(1,\)"),
        ([2000.0, 2000.0], [20.0, 20.0], [[0.0, 0.0]],
         r"dac_offset must have shape \(2, 2\) for 2 units, got \(1, 2\)"),
    ], ids=["nan_beta", "nan_dac_offset", "inf_f_idle", "short_beta",
            "short_dac_offset"])
    def test_bad_array_rejected(self, f_idle, beta, dac_offset, match):
        with pytest.raises(ValueError, match=match):
            ThetaPopulation(f_idle, beta, dac_offset)

    def test_unknown_response_rejected(self):
        with pytest.raises(ValueError,
                           match="unknown response mode 'cubic'"):
            make_population([2000.0], response="cubic")

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="population needs"):
            make_population([])

    def test_arrays_are_read_only(self):
        pop = make_population([2000.0])
        with pytest.raises(ValueError):
            pop.f_idle[0] = 1.0


def law(f_idle, beta, v, code=(12, 8), response=LINEAR,
        dac_offset=(0.0, 0.0)):
    """``frequencies`` for one unit programmed with the 4-bit code pair."""
    pop = make_population([f_idle], beta, dac_offset, response)
    v_pref = np.array([[decode_velocity_code(c) for c in code]])
    return frequencies(pop, v_pref, v)[0]


class TestInstantaneousFrequency:
    def test_orthogonal_velocity_gives_idle(self):
        assert law(2000.0, 20.0, VelocityVector(0, 3)) == 2000.0

    def test_nominal_arithmetic(self):
        f = law(2023.771, 20.802, VelocityVector(4, 0))
        assert f == pytest.approx(2356.603, abs=1e-9)

    def test_sigmoid_saturates_above_zero(self):
        f = law(2023.771, 20.802, VelocityVector(-1000.0, 0),
                response=SIGMOID)
        assert f == pytest.approx(2023.771 - F_SWING_HZ, rel=1e-6)
        assert f > 0

    def test_linear_mode_is_affine_in_inner_product(self):
        f0 = law(1800.0, 17.5, VelocityVector(0, 0), code=(12, 4))
        f1 = law(1800.0, 17.5, VelocityVector(1, 0), code=(12, 4))
        slope = f1 - f0
        for vx in (-4, -2, 1, 3):
            f = law(1800.0, 17.5, VelocityVector(vx, 0), code=(12, 4))
            assert f == f0 + slope * vx

    def test_clamped_at_zero(self):
        assert law(500.0, 50.0, VelocityVector(-4, 0)) == 0.0

    def test_dac_offset_shifts_input(self):
        f = law(2000.0, 10.0, VelocityVector(0, 0), dac_offset=(0.5, 0.0))
        assert f == pytest.approx(2000.0 + 10.0 * 0.5 * 4)


# (f_idle, beta, x offset, y offset, x code, y code) of one unit.
unit_params = st.tuples(st.floats(1.0, 4000.0), st.floats(0.0, 200.0),
                        st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
                        st.integers(1, 15), st.integers(1, 15))
CLAMPS = [(500.0, 50.0, 0.0, 0.0, 12, 8), (500.0, 200.0, 0.0, 0.0, 12, 8)]


@settings(max_examples=200, deadline=None)
@given(units=st.lists(unit_params, min_size=1, max_size=8),
       response=st.sampled_from([LINEAR, SIGMOID]),
       vx=st.floats(-8.0, 8.0), vy=st.floats(-8.0, 8.0))
@example(units=CLAMPS, response=LINEAR, vx=-8.0, vy=0.0)
@example(units=CLAMPS, response=SIGMOID, vx=-8.0, vy=0.0)
def test_frequencies_equal_the_scalar_law_bit_for_bit(units, response,
                                                      vx, vy):
    f_idle, beta, ox, oy, cx, cy = zip(*units)
    pop = ThetaPopulation(f_idle, beta, list(zip(ox, oy)), response)
    v_pref = np.array([[decode_velocity_code(x), decode_velocity_code(y)]
                       for x, y in zip(cx, cy)])
    got = frequencies(pop, v_pref, VelocityVector(vx, vy))
    want = [instantaneous_frequency(f, b, (px, py), (x, y), response, vx, vy)
            for (f, b, x, y, _, _), (px, py) in zip(units, v_pref.tolist())]
    assert got.tolist() == want
    if units == CLAMPS:
        assert want == [0.0, 0.0]


class TestStep:
    def test_advance(self):
        chip = released_chip([2000.0])
        step(chip, 27272.7)
        assert chip.phases[0] == pytest.approx(0.073333, abs=1e-5)

    def test_held_stays_at_zero(self):
        chip = released_chip([3000.0])
        chip.hold()
        step(chip, 1e4, 10)
        assert chip.phases[0] == 0.0 and chip.held

    def test_wraparound(self):
        chip = released_chip([20.0], 0.999)
        step(chip, 1e4)
        assert chip.phases[0] == pytest.approx(0.001)

    def test_aliasing_rejected(self):
        with pytest.raises(AliasingError):
            step(released_chip([5000.0]), 9000.0)

    def test_nan_frequency_rejected_as_aliasing(self):
        # DAC offsets that overflow with opposite signs make the inner
        # product inf - inf, so the unit's frequency is NaN.
        chip = ChipState(make_population([2000.0], 20.0, (1e308, -1e308)))
        program(chip, [(0, (15, 15), tap0_bypass())])
        chip.release()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(AliasingError, match=r"f\*dt = nan"):
            step(chip, 1e5)

    def test_phase_stays_in_unit_interval(self):
        rng = np.random.default_rng(3)
        chip = released_chip(rng.uniform(1, 4000, 50).tolist())
        for _ in range(100):
            step(chip, 27272.7)
            assert ((0.0 <= chip.phases) & (chip.phases < 1.0)).all()


class TestTapOutput:
    def test_phase_zero_tap_zero_high(self):
        assert taps_at(0.0)[0] == 1

    def test_phase_half_tap_zero_low(self):
        assert taps_at(0.5)[0] == 0

    def test_tap_wraps(self):
        assert taps_at(0.9)[1] == 1

    def test_tap_leads_by_eighth_cycles(self):
        # Tap k at phase p equals tap 0 at phase p + k/8.
        for k in range(8):
            for p in (0.0, 0.1, 0.33, 0.49, 0.51, 0.77):
                assert taps_at(p)[k] == taps_at((p + k / 8) % 1.0)[0]

    def test_tap_index_checked(self):
        # A unit has taps 0..7 only: a ninth bypass bit is refused.
        chip = ChipState(make_population([1000.0]))
        with pytest.raises(ValueError):
            program(chip, [(0, (8, 8), (1,) * 9)])


class TestResetAll:
    def test_all_phases_zero_and_held(self):
        chip = released_chip([2000.0, 2000.0], [0.3, 0.7])
        chip.hold()
        assert (chip.phases == 0.0).all() and chip.held

    def test_deterministic_after_release(self):
        def run():
            chip = released_chip([2000.0] * 4, 0.5)
            chip.hold()
            chip.release()
            step(chip, 1e4, 100)
            return chip.phases.tolist()

        assert run() == run()

    def test_reset_reads_high_on_tap_zero(self):
        chip = released_chip([2000.0, 2000.0], [0.4, 0.9])
        chip.hold()
        assert (step(chip, 1e4)[0] == 1).all()


class TestDutyAndFrequency:
    FS = 27272.7

    def _trace(self, f, n):
        return step(released_chip([f]), self.FS, n)[:, 0]

    def test_duty_cycle_half_within_one_sample(self):
        f = 2000.0
        period = self.FS / f
        bits = self._trace(f, int(10 * period))
        # High samples per period stay within one sample of half thanks to
        # the ideal 50% duty convention.
        edges = np.nonzero((bits[1:] == 1) & (bits[:-1] == 0))[0] + 1
        for a, b in zip(edges[:-1], edges[1:]):
            high = bits[a:b].sum()
            assert abs(high - (b - a) / 2) <= 1.0

    def test_measured_frequency_matches_law(self):
        for f in (1206.0, 2023.771, 3066.0):
            window = 1.0
            bits = self._trace(f, int(window * self.FS))
            edges = int(np.count_nonzero((bits[1:] == 1) & (bits[:-1] == 0)))
            assert abs(edges / window - f) <= 2.0 / window

    def test_tap_lead_shows_in_cross_correlation(self):
        f, n = 2000.0, 4000
        frames = step(released_chip([f], taps=(1, 0, 1, 0, 0, 1, 0, 0)),
                      self.FS, n)
        taps = dict(zip((0, 2, 5), frames.T))
        ref = np.array(taps[0], dtype=float) - 0.5
        for k in (2, 5):
            sig = np.array(taps[k], dtype=float) - 0.5
            lags = np.arange(-40, 41)
            corr = np.array([np.dot(sig[40:-40], ref[40 + lag:n - 40 + lag])
                             for lag in lags])
            # The wave is periodic, so peaks repeat every period (which is
            # fractional in samples); the argmax must land within one
            # sample of the expected lead modulo the period.
            period = self.FS / f
            expected = k / 8 * period
            best = float(lags[int(np.argmax(corr))])
            offset = (best - expected) % period
            assert min(offset, period - offset) <= 1.0
