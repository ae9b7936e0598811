"""Host-interface emulation: programming, the serial scan, frequency
estimation, fits and unit admission."""

import numpy as np
import pytest

from thetanav.chip_io import (
    ChipState,
    DegenerateFitError,
    InsufficientUnitsError,
    NotProgrammedError,
    NyquistError,
    ScanConfig,
    UnitFit,
    calibrate,
    estimate_frequency,
    fit_unit,
    program,
    scan_frames,
    select_units,
    tap0_bypass,
    write_fit_report_csv,
)
from thetanav.theta_core import (
    PopulationSpec,
    ThetaPopulation,
    ThetaUnit,
    VelocityVector,
    instantaneous_frequency,
    sample_population,
)

from reference_models import tap_bit

ALL8 = (1,) * 8


def make_chip(n_units=8, f_idle=2000.0, beta=20.0, **unit_kwargs):
    units = [ThetaUnit(f_idle=f_idle, beta=beta, **unit_kwargs)
             for _ in range(n_units)]
    return ChipState(ThetaPopulation(units))


class TestScanConfig:
    def test_per_phase_rate(self):
        cfg = ScanConfig(clock_hz=6e6, enabled_phases=220)
        assert cfg.fs == pytest.approx(27272.727272, rel=1e-9)

    def test_nyquist_rule(self):
        ScanConfig(clock_hz=6e6, enabled_phases=220).validate()
        with pytest.raises(NyquistError):
            ScanConfig(clock_hz=6e6, enabled_phases=800).validate()


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
        assert chip.units[1].v_pref == (-4, 0)
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

    def test_reprogramming_wipes_previous_bypass(self):
        chip = make_chip(4)
        program(chip, [(u, (12, 8), ALL8) for u in range(4)])
        chip.hold()
        program(chip, [(0, (12, 8), tap0_bypass())])
        assert chip.enabled_phases == 1


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
        units = [ThetaUnit(f_idle=f, beta=10.0, v_pref_code=(12, 8))
                 for f in (1500.0, 2000.0, 2700.0)]
        chip = ChipState(ThetaPopulation(units))
        program(chip, [(0, (12, 8), ALL8), (1, (4, 8), tap0_bypass()),
                       (2, (12, 8), (1, 0, 1, 0, 1, 0, 1, 0))])
        chip.release()
        v = VelocityVector(1.5, 0.0)
        clock = 27272.7 * chip.enabled_phases
        n_cycles = 400
        freqs = chip.frequencies(v)
        enabled = chip.enabled_taps()

        frames = scan_frames(chip, v, n_cycles, clock_hz=clock)

        dt = chip.enabled_phases / clock
        for col, (u, k) in enumerate(enabled):
            expected = [tap_bit((freqs[u] * dt * c) % 1.0, k)
                        for c in range(n_cycles)]
            assert np.array_equal(frames[:, col], np.array(expected)), (u, k)


class TestEstimateFrequency:
    FS = 27272.7

    def _wave(self, f, seconds):
        n = int(seconds * self.FS)
        return ((f * np.arange(n) / self.FS) % 1.0 < 0.5).astype(np.uint8)

    def test_nominal(self):
        est = estimate_frequency(self._wave(2000.0, 1.0), self.FS)
        assert not est.flatline
        assert abs(est.hz - 2000.0) <= 1.0

    def test_flatline_flagged(self):
        est = estimate_frequency(np.zeros(4000, dtype=np.uint8), self.FS)
        assert est.hz == 0.0 and est.flatline

    def test_top_of_band(self):
        est = estimate_frequency(self._wave(3000.0, 1.0), self.FS)
        assert abs(est.hz - 3000.0) <= 1.0

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            estimate_frequency(np.zeros(100, dtype=np.uint8), self.FS)


class TestFitUnit:
    def test_exact_linear_recovery(self):
        p = [-16, -8, 0, 8, 16]
        samples = [(x, 2000.0 + 20.0 * x) for x in p]
        fit = fit_unit(samples, unit=3)
        assert fit.unit == 3
        assert fit.f_idle_hat == pytest.approx(2000.0)
        assert fit.beta_hat == pytest.approx(20.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_degenerate_design_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_unit([(4, 2080.0), (4, 2081.0), (4, 2079.0)])

    def test_sigmoid_sweep_r2_decreases_with_swing(self):
        p = np.arange(-16, 17)
        r2 = []
        for f_swing in (600.0, 200.0, 60.0):
            f = 2000.0 + f_swing * np.tanh(20.0 * p / f_swing)
            r2.append(fit_unit(list(zip(p, f))).r2)
        assert all(x < 1.0 for x in r2)
        assert r2[0] > r2[1] > r2[2]


class TestSelectUnits:
    def _fits(self, r2_values, beta=20.0):
        return [UnitFit(i, 2000.0 + i, beta, r2)
                for i, r2 in enumerate(r2_values)]

    def test_threshold_admission_count(self):
        r2 = [0.95] * 82 + [0.5] * 46
        admitted = select_units(self._fits(r2), 0.9)
        assert len(admitted) == 82

    def test_zero_threshold_admits_all_positive_beta(self):
        fits = self._fits([0.2] * 8)
        admitted = select_units(fits, 0.0, min_units=8)
        assert len(admitted) == 8

    def test_negative_beta_rejected(self):
        fits = self._fits([0.99] * 8)
        fits[3] = UnitFit(3, 2003.0, -1.0, 0.99)
        admitted = select_units(fits, 0.9, min_units=7)
        assert len(admitted) == 7
        assert all(f.beta_hat > 0 for f in admitted)

    def test_boundary_insufficient(self):
        r2 = [0.95] * 79 + [0.1] * 49
        with pytest.raises(InsufficientUnitsError):
            select_units(self._fits(r2), 0.9)

    def test_sorted_by_idle_frequency(self):
        fits = [UnitFit(i, f, 20.0, 0.99)
                for i, f in enumerate([2100.0, 1900.0, 2050.0, 1800.0])]
        admitted = select_units(fits, 0.9, min_units=4)
        assert [f.f_idle_hat for f in admitted] == [1800.0, 1900.0, 2050.0, 2100.0]


class TestCalibratePipeline:
    def test_zero_mismatch_recovery(self):
        spec = PopulationSpec(n_units=8, f_idle_std=0.0, beta_std=0.0, seed=0)
        chip = ChipState(sample_population(spec))
        fits = calibrate(chip, clock_hz=8 * 46875.0)
        for fit in fits:
            assert abs(fit.f_idle_hat - spec.f_idle_mean) <= 0.005 * spec.f_idle_mean
            assert abs(fit.beta_hat - spec.beta_mean) <= 0.005 * spec.beta_mean
            assert fit.r2 >= 0.999

    def test_mismatched_recovery_within_one_percent(self):
        spec = PopulationSpec(n_units=8, seed=11)
        pop = sample_population(spec)
        chip = ChipState(pop)
        fits = calibrate(chip, clock_hz=8 * 46875.0)
        for unit, fit in zip(pop.units, fits):
            assert abs(fit.f_idle_hat - unit.f_idle) <= 0.01 * unit.f_idle
            assert abs(fit.beta_hat - unit.beta) <= 0.01 * unit.beta
            assert fit.r2 >= 0.99

    def test_measured_frequency_tracks_law_everywhere(self):
        spec = PopulationSpec(n_units=4, seed=5)
        pop = sample_population(spec)
        chip = ChipState(pop)
        program(chip, [(u, (12, 8), tap0_bypass()) for u in range(4)])
        chip.release()
        fs = 46875.0
        window = 0.2
        for vx in (-3.0, 0.5, 4.0):
            v = VelocityVector(vx, 0.0)
            frames = scan_frames(chip, v, int(window * fs), clock_hz=fs * 4)
            for u in range(4):
                est = estimate_frequency(frames[:, u], fs)
                law = instantaneous_frequency(chip.units[u], v)
                assert abs(est.hz - law) <= 2.0 / window


class TestCsvExports:
    def test_fit_report_file(self, tmp_path):
        fits = [UnitFit(0, 2000.0, 20.0, 0.999)]
        report_path = tmp_path / "fits.csv"
        write_fit_report_csv(report_path, fits)
        lines = report_path.read_text().strip().splitlines()
        assert lines[0] == "unit,f_idle_hat,beta_hat,r2"
        assert lines[1] == "0,2000.0,20.0,0.999"
