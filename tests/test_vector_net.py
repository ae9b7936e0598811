"""Interference-network contracts: pairing, the closed-form effective
parameters and phase shift the compiler is checked against, lookup
compilation, node filtering, the runtime pipeline, and the node-sharing
arithmetic."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import lfilter

from thetanav.chip_io import PAIR_CODES, InsufficientUnitsError, UnitFit
from thetanav.theta_core import decode_velocity_code
from thetanav import vector_net
from thetanav.vector_net import (
    FIR_LAYER1,
    FIR_LAYER2,
    FIR_TAPS,
    STAGES,
    CompileError,
    Pairing,
    StageState,
    TargetLocation,
    VectorNetwork,
    compile_lookup,
    filter_stage_batch,
    pair_layer1,
    schmitt_batch,
    serialize_mux,
    sharable_nodes,
    total_nodes,
)

from reference_models import (
    EffectiveCell,
    Node,
    PairingError,
    advance,
    circular_distance,
    compile_lookup_scalar,
    deserialize_mux,
    effective_params,
    filter_once,
    fir_lfilter,
    pair_beat_frequency,
    phase_shift,
    rc_step,
    run_alone,
    run_per_sample,
    schmitt_forward_fill,
    schmitt_two_index,
    square_wave,
)


def fits_from(f_idles, betas, start_unit=0):
    return [UnitFit(start_unit + i, f, b, 0.999)
            for i, (f, b) in enumerate(zip(f_idles, betas))]


class TestPairLayer1:
    def test_four_unit_matching_beats_brute_force(self):
        # Oracle: enumerate all perfect matchings of 4 units and keep the
        # one minimizing the summed idle-frequency differences.
        f_idles = [100.0, 101.0, 200.0, 202.0]
        fits = fits_from(f_idles, [20.0] * 4)
        pairing = pair_layer1(fits, n_units=4)
        got = {frozenset(pair) for pair in pairing.unit.T.tolist()}

        best, best_cost = None, float("inf")
        units = list(range(4))
        for perm in itertools.permutations(units):
            m = {frozenset(perm[:2]), frozenset(perm[2:])}
            cost = sum(abs(f_idles[a] - f_idles[b]) for a, b in
                       (sorted(s) for s in m))
            if cost < best_cost:
                best, best_cost = m, cost
        assert got == best == {frozenset({0, 1}), frozenset({2, 3})}

    def test_identical_idles_all_zero_delta(self):
        fits = fits_from([1500.0] * 80, [20.0] * 80)
        pairing = pair_layer1(fits)
        for unit_a, unit_b in pairing.unit.T:
            assert unit_a != unit_b

    def test_structure_and_code_negation(self):
        rng = np.random.default_rng(0)
        fits = fits_from(rng.normal(2000, 300, 80).tolist(), [20.0] * 80)
        pairing = pair_layer1(fits)
        assert pairing.unit.shape == (2, 40)
        assert pairing.n_groups == 20     # 20 x pairs, then 20 y pairs
        used = pairing.unit.ravel().tolist()
        assert len(used) == len(set(used)) == 80
        for axis, (code_a, code_b) in enumerate(PAIR_CODES):
            pa = [decode_velocity_code(c) for c in code_a]
            pb = [decode_velocity_code(c) for c in code_b]
            assert abs(pa[0]) + abs(pa[1]) == 4
            assert pa == ([4, 0] if axis == 0 else [0, 4])
            assert pb == [-pa[0], -pa[1]]
        # Each member carries its own unit's fit.
        assert np.array_equal(
            pairing.f_idle, [[fits[u].f_idle_hat for u in row]
                             for row in pairing.unit])
        assert np.array_equal(
            pairing.beta, [[fits[u].beta_hat for u in row]
                           for row in pairing.unit])
        with pytest.raises(ValueError):
            pairing.unit[0, 0] = 1

    def test_adjacent_sorted_pairing_minimizes_offsets(self):
        rng = np.random.default_rng(3)
        f_idles = rng.normal(2000, 374, 80)
        fits = fits_from(f_idles.tolist(), [20.0] * 80)
        pairing = pair_layer1(fits)
        sorted_f = np.sort(f_idles)
        for j, (unit_a, unit_b) in enumerate(pairing.unit.T):
            fa = fits[unit_a].f_idle_hat
            fb = fits[unit_b].f_idle_hat
            assert {fa, fb} == {sorted_f[2 * j], sorted_f[2 * j + 1]}

    def test_insufficient_units(self):
        fits = fits_from([2000.0] * 79, [20.0] * 79)
        with pytest.raises(InsufficientUnitsError):
            pair_layer1(fits)

    @pytest.mark.parametrize("shape", [(2, 0), (2, 3), (1, 4), (4,),
                                       (2, 2, 2)])
    def test_pairing_needs_two_rows_of_whole_groups(self, shape):
        with pytest.raises(ValueError):
            Pairing(np.zeros(shape), np.ones(shape), np.ones(shape))
        with pytest.raises(ValueError):
            Pairing(np.zeros((2, 4)), np.ones(shape), np.ones((2, 4)))


class TestEffectiveParams:
    def test_reference_values(self):
        a = UnitFit(0, 10.0, 3.5, 1.0)
        b = UnitFit(1, 13.5, 4.9, 1.0)
        cell = effective_params(a, b, (1, 0), (-1, 0))
        assert cell.beta_eff == pytest.approx(8.4)
        assert cell.f_off_eff == pytest.approx(-3.5)
        assert cell.theta_p == 0.0

    def test_mirrored_pair_cancels_offset_exactly(self):
        for f_idle, beta in ((2000.0, 18.0), (1714.3, 25.5)):
            a = UnitFit(0, f_idle, beta, 1.0)
            b = UnitFit(1, f_idle, beta, 1.0)
            cell = effective_params(a, b, (0, 4), (0, -4))
            assert cell.f_off_eff == 0.0
            assert cell.beta_eff == 2 * beta

    def test_non_opposing_rejected(self):
        a = UnitFit(0, 2000.0, 20.0, 1.0)
        b = UnitFit(1, 2010.0, 20.0, 1.0)
        with pytest.raises(PairingError):
            effective_params(a, b, (4, 0), (0, -4))

    def test_simulated_beat_matches_effective_parameters(self):
        # The AND-interfered envelope of two real square waves must beat
        # at beta_eff * inner + f_off_eff.
        fs, dur = 27272.7, 10.0
        n = int(fs * dur)
        f_ref = 2023.771
        for p in (-12.0, 4.0, 16.0):
            f_a = f_ref + 10.0 + 3.5 * p
            f_b = f_ref + 13.5 - 4.9 * p
            predicted = abs(8.4 * p - 3.5)
            measured = pair_beat_frequency(
                square_wave(f_a, fs, n), square_wave(f_b, fs, n), fs)
            assert abs(measured - predicted) <= 0.02 * predicted


class TestPhaseShift:
    CELL = EffectiveCell(8.4, -3.5, 0.0, (0, 1), 1.0)

    def test_zero_distance(self):
        assert phase_shift(TargetLocation(0.0, 1.2), self.CELL, 2.0) == 0.0

    def test_reference_example(self):
        phi = phase_shift(TargetLocation(1.0, 0.0), self.CELL, 2.0)
        assert phi == pytest.approx(0.100, abs=1e-9)

    def test_cosine_null(self):
        # The result is cyclic with period 1/8; a float cos(pi/2) of
        # ~6e-17 may land the residual at 0.125 - eps, equivalent to 0.
        cell = EffectiveCell(8.4, 0.0, 0.0, (0, 1), 1.0)
        for r in (0.5, 1.0, 7.3):
            phi = phase_shift(TargetLocation(r, math.pi / 2), cell, 2.0)
            assert min(phi, 0.125 - phi) <= 1e-12

    def test_range_and_bearing_periodicity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            cell = EffectiveCell(float(rng.uniform(1, 60)),
                                 float(rng.uniform(-30, 30)),
                                 float(rng.uniform(-math.pi, math.pi)),
                                 (0, 1), float(rng.choice([1.0, 4.0])))
            loc = TargetLocation(float(rng.uniform(0, 10)),
                                 float(rng.uniform(-math.pi, math.pi)))
            speed = float(rng.uniform(0.05, 4.0))
            phi = phase_shift(loc, cell, speed)
            assert 0.0 <= phi < 0.125
            shifted = TargetLocation(loc.r, loc.theta + 2 * math.pi)
            assert phase_shift(shifted, cell, speed) == pytest.approx(
                phi, abs=1e-9)

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError):
            phase_shift(TargetLocation(1.0, 0.0), self.CELL, 0.0)


@pytest.mark.parametrize("cell, r, theta", [
    ((0, 0), 0.0, 0.0), ((1, 0), 0.5, 0.0), ((0, -1), 0.5, -math.pi / 2),
    ((-2, 0), 1.0, math.pi), ((3, 4), 2.5, math.atan2(4, 3))])
def test_target_of_cell(cell, r, theta):
    assert TargetLocation.of_cell(cell, 0.5) == TargetLocation(r, theta)


def synthetic_pairing(f_idles, betas):
    """Pairing of units 0..len(f_idles)-1: pair j joins unit 2j (routable)
    with unit 2j+1, the first half of the pairs on x, the rest on y."""
    return Pairing(unit=np.arange(len(f_idles)).reshape(-1, 2).T,
                   f_idle=np.reshape(f_idles, (-1, 2)).T,
                   beta=np.reshape(betas, (-1, 2)).T)


class TestCompileLookup:
    def test_zero_distance_all_taps_zero(self):
        pairing = synthetic_pairing(
            [2000, 2010, 1990, 2005, 2020, 1985, 2001, 1999], [20.0] * 8)
        mux = compile_lookup(pairing, TargetLocation(0.0, 0.0), 0.25,
                             min_active_groups=1)
        assert not mux.tap.any()
        assert mux.dropped == []

    def test_integer_accumulation_zero_residual(self):
        # Zero mismatch with the pair beat accumulating whole cycles by
        # arrival: every required shift is 0, every residual 0.
        beta = 64.0
        pairing = synthetic_pairing([2000.0] * 8, [beta] * 8)
        # x-pair beat = 2*beta*(4*speed) = 128 Hz at speed 0.25;
        # arrival time r/speed = 1/128 s gives exactly one beat cycle.
        mux = compile_lookup(pairing,
                             TargetLocation(0.25 / 128.0, 0.0), 0.25,
                             min_active_groups=1)
        assert not mux.tap.any()
        assert mux.residuals == [0.0, 0.0]
        assert mux.dropped == []

    def test_tie_at_half_tap_prefers_lower_index(self):
        # Group 0's x-pair accumulates 15/16 of a cycle by arrival, so
        # the required shift is exactly 1/16: equidistant from taps 0 and
        # 1; the lower index wins and the group stays at tolerance.
        pairing = synthetic_pairing(TIE_F_IDLES, TIE_BETAS)
        speed, r = 0.25, 0.25 / 128.0
        mux = compile_lookup(pairing, TargetLocation(r, 0.0), speed,
                             min_active_groups=1)
        taps = dict(zip(mux.unit.tolist(), mux.tap.tolist()))
        assert taps[0] == 0
        assert mux.residuals[0] == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert 0 not in mux.dropped

    def test_recompilation_bit_identical(self):
        rng = np.random.default_rng(9)
        pairing = synthetic_pairing(rng.normal(2000, 300, 16),
                                    rng.uniform(15, 25, 16))
        target = TargetLocation(0.012, 0.7)
        a = compile_lookup(pairing, target, 0.25, min_active_groups=1)
        b = compile_lookup(pairing, target, 0.25, min_active_groups=1)
        assert np.array_equal(a.unit, b.unit)
        assert np.array_equal(a.tap, b.tap)
        assert a.dropped == b.dropped
        assert a.residuals == b.residuals

    def test_drift_drop_and_group_floor(self):
        # A big y-pair offset leaves the idle side misaligned at arrival
        # (300 Hz over 9.6 ms accumulates 2.88 cycles, 0.12 off a whole).
        pairing = synthetic_pairing([2000.0, 2000.0, 2000.0, 2000.0,
                                     2300.0, 2000.0, 2000.0, 2000.0],
                                    [20.0] * 8)
        target = TargetLocation(0.0024, 0.0)
        mux = compile_lookup(pairing, target, 0.25,
                             drift_tolerance=0.05, min_active_groups=1)
        assert mux.dropped == [0]
        with pytest.raises(CompileError):
            compile_lookup(pairing, target, 0.25,
                           drift_tolerance=0.05, min_active_groups=2)

    def test_matches_waveform_oracle(self):
        # Brute-force oracle: step every unit's oscillator to the arrival
        # tick, read its phase, and re-derive the tap choice.
        rng = np.random.default_rng(17)
        f_idles = rng.normal(2000, 200, 16)
        betas = rng.uniform(18, 24, 16)
        pairing = synthetic_pairing(f_idles, betas)
        fs = 27777.0
        speed = 0.25
        for trial in range(6):
            r = float(rng.uniform(0.0005, 0.005))
            theta = float(rng.uniform(-math.pi, math.pi))
            mux = compile_lookup(pairing, TargetLocation(r, theta),
                                 speed, min_active_groups=1)
            taps = dict(zip(mux.unit.tolist(), mux.tap.tolist()))

            v = (speed * math.cos(theta), speed * math.sin(theta))
            n_ticks = round(r / speed * fs)
            phases = {}
            for unit in range(16):
                code = PAIR_CODES[unit // 2 // pairing.n_groups][unit % 2]
                pref = [decode_velocity_code(c) for c in code]
                f = f_idles[unit] + betas[unit] * (
                    v[0] * pref[0] + v[1] * pref[1])
                phase = 0.0
                for _ in range(n_ticks):
                    phase = advance(phase, f, 1.0 / fs)
                phases[unit] = phase
            x_active = abs(v[0]) >= abs(v[1])
            for g in range(pairing.n_groups):
                j = g if x_active else pairing.n_groups + g
                unit_a, unit_b = pairing.unit[:, j]
                delta = (phases[unit_a] - phases[unit_b]) % 1.0
                required = (-delta) % 1.0
                compiled_phase = taps[unit_a] / 8.0
                assert circular_distance(compiled_phase, required) \
                    <= 1.0 / 16.0 + 1e-6, (trial, g)


TIE_F_IDLES = [2040.0, 2000.0, 2000.0, 2000.0, 2000.0, 2000.0, 2000.0, 2000.0]
TIE_BETAS = [40.0, 40.0, 64.0, 64.0, 64.0, 64.0, 64.0, 64.0]


@st.composite
def compile_cases(draw):
    """A pairing of 1-20 groups over distinct unit ids with random fits
    (from a drawn seed), a target at distance 0 about one time in ten,
    and a drawn bearing, speed, tolerances and group floor (sometimes
    unreachable)."""
    groups = draw(st.integers(1, 20))
    n_units = 4 * groups
    units = draw(st.permutations(range(2 * n_units)))[:n_units]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f_idles = np.maximum(rng.normal(2000.0, 400.0, n_units), 100.0).tolist()
    betas = rng.uniform(0.0, 60.0, n_units).tolist()
    r = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 0.05))
    theta = draw(st.floats(-math.pi, math.pi, exclude_min=True))
    return (units, f_idles, betas, TargetLocation(r, theta),
            draw(st.floats(0.01, 4.0)), draw(st.floats(0.0, 0.2)),
            draw(st.floats(0.0, 0.5)), draw(st.integers(0, groups + 1)))


def tie_case(theta=0.0, r=0.25 / 128.0, speed=0.25):
    return (list(range(8)), TIE_F_IDLES, TIE_BETAS,
            TargetLocation(r, theta), speed, 1.0 / 16.0, 0.35, 0)


# At this speed and bearing pi/4, |vx| == |vy| exactly: the x pairs win.
AXIS_TIE_SPEED = 1.7870949042786577


@settings(max_examples=300, deadline=None)
@given(case=compile_cases())
@example(case=tie_case())
@example(case=tie_case(math.pi / 4))
@example(case=tie_case(-math.pi / 4))
@example(case=tie_case(3 * math.pi / 4))
@example(case=tie_case(-3 * math.pi / 4))
@example(case=tie_case(math.pi))
@example(case=tie_case(1.0, r=0.0))
@example(case=tie_case(math.pi / 4, r=0.003, speed=AXIS_TIE_SPEED))
def test_compile_equals_the_scalar_oracle_bit_for_bit(case):
    units, f_idles, betas, target, speed, tol, drift, floor = case
    pairs = list(zip(units[0::2], units[1::2]))
    fits = [UnitFit(u, f, b, 1.0) for u, f, b in zip(units, f_idles, betas)]
    pairing = Pairing(unit=np.transpose(pairs), f_idle=np.reshape(
        f_idles, (-1, 2)).T, beta=np.reshape(betas, (-1, 2)).T)
    try:
        want = compile_lookup_scalar(pairs, fits, target, speed, tol, drift,
                                     floor)
    except CompileError as exc:
        with pytest.raises(CompileError) as got:
            compile_lookup(pairing, target, speed, tol, drift, floor)
        assert str(got.value) == str(exc)
        return
    got = compile_lookup(pairing, target, speed, tol, drift, floor)
    assert np.array_equal(got.unit, want.unit)
    assert np.array_equal(got.tap, want.tap)
    assert got.dropped == want.dropped
    assert got.residuals == want.residuals
    for routed in (got.unit, got.tap):
        assert routed.dtype.kind == "i" and routed.shape == (len(units),)
    assert serialize_mux(got) == serialize_mux(want)


class TestMuxSerialization:
    def test_round_trip(self):
        pairing = synthetic_pairing(
            [2000, 2011, 1990, 2005, 2020, 1985, 2001, 1999], [20.0] * 8)
        mux = compile_lookup(pairing, TargetLocation(0.003, 1.1), 0.25,
                             min_active_groups=1)
        text = serialize_mux(mux)
        back = deserialize_mux(text)
        assert np.array_equal(back.unit, mux.unit)
        assert np.array_equal(back.tap, mux.tap)
        assert back.dropped == mux.dropped
        assert back.target == mux.target
        assert back.speed == mux.speed
        assert back.tolerance == mux.tolerance

    def test_header_checked(self):
        with pytest.raises(ValueError):
            deserialize_mux("something-else\n0,0,0\n")


class TestFilters:
    def test_fir_symmetric_unit_gain(self):
        for coeffs in (FIR_LAYER1, FIR_LAYER2):
            assert len(coeffs) == 9
            assert np.allclose(coeffs, coeffs[::-1])
            assert abs(coeffs.sum() - 1.0) <= 1e-9

    def test_rc_step_response_closed_form_exact(self):
        alpha = Fraction(1, 64)
        y = Fraction(0)
        for n in range(1, 200):
            y = rc_step(y, Fraction(1), alpha)
            assert y == 1 - (1 - alpha) ** n

    def test_rc_float_tracks_exact(self):
        alpha = 1.0 / 64.0
        y = 0.0
        for n in range(1, 500):
            y = rc_step(y, 1.0, alpha)
            assert abs(y - (1 - (1 - alpha) ** n)) <= 1e-12

    def test_rc_accumulator_stays_in_unit_interval(self):
        rng = np.random.default_rng(2)
        node = Node.for_layer(1)
        for _ in range(2000):
            node.step(int(rng.integers(2)), int(rng.integers(2)))
            assert 0.0 <= node.rc <= 1.0


def every_bit_sequence(t):
    """All 2**t 0/1 sequences of length t as the rows of a [2**t, t]
    uint8 block."""
    return np.array(list(itertools.product((0, 1), repeat=t)),
                    dtype=np.uint8)


def stage_lfilter(x, layer):
    """One layer's nodes over an [n, T] block with the FIR as ``lfilter``
    runs it."""
    coeffs, alpha, rise, fall = STAGES[layer]
    fir = fir_lfilter(x.astype(float), coeffs)
    return schmitt_batch(lfilter([alpha], [1.0, alpha - 1.0], fir, axis=-1),
                         rise, fall)


def assert_fir_matches_lfilter(bits, layer):
    # Each row opens with 8 zero columns, the cleared history.  From T =
    # 10 np.convolve sums oldest sample first, as the table does, so the
    # floats match bit for bit; below it the sums may differ in the last
    # bit, but the nodes' outputs may not.
    history = np.zeros(bits.shape[:-1] + (FIR_TAPS - 1,), dtype=bits.dtype)
    got = vector_net._fir(np.concatenate((history, bits), axis=-1),
                          STAGES[layer][0])
    want = fir_lfilter(bits.astype(float), STAGES[layer][0])
    assert got.dtype == want.dtype and got.shape == want.shape
    if bits.shape[-1] >= 10:
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(filter_once(bits, layer),
                          stage_lfilter(bits, layer))


@pytest.mark.parametrize("layer", sorted(STAGES))
@pytest.mark.parametrize("t", range(1, 14))
def test_fir_equals_lfilter_on_every_short_sequence(layer, t):
    assert_fir_matches_lfilter(every_bit_sequence(t), layer)


def test_fir_refuses_an_out_it_cannot_write_flat():
    # A reshape of a strided out would copy, and the FIR would be lost.
    window = np.ones((3, 20), dtype=np.uint8)
    for out in (np.empty((3, 40))[:, :20], np.empty((20, 3)).T,
                np.empty((3, 19))):
        with pytest.raises(ValueError):
            vector_net._fir(window, FIR_LAYER1, out)
    out = np.empty((3, 20))
    assert np.shares_memory(vector_net._fir(window, FIR_LAYER1, out), out)


@settings(max_examples=150, deadline=None)
@given(layer=st.sampled_from(sorted(STAGES)), t=st.integers(1, 3000),
       n=st.integers(1, 6), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
@example(layer=1, t=3000, n=6, density=0.5, seed=0)
@example(layer=1, t=9, n=1, density=1.0, seed=0)
@example(layer=2, t=10, n=1, density=1.0, seed=0)
def test_fir_equals_lfilter_on_random_blocks(layer, t, n, density, seed):
    bits = (np.random.default_rng(seed).random((t, n)) < density
            ).astype(np.uint8)
    assert_fir_matches_lfilter(bits.T, layer)


@st.composite
def split_blocks(draw):
    """An [n, T] 0/1 block, T up to 3,000, and the sorted ticks where a
    stream splits it: often inside the first 9 ticks, where the FIR
    window is still filling, and often repeated or adjacent, so some
    blocks hold 0 or 1 ticks."""
    t = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = (rng.random((draw(st.integers(1, 4)), t))
            < draw(st.floats(0.0, 1.0))).astype(np.uint8)
    cuts = draw(st.lists(st.one_of(st.integers(0, min(t, 9)),
                                   st.integers(0, t)), max_size=8))
    return bits, sorted(cuts + [c + 1 for c in cuts[:2] if c < t])


def filter_in_blocks(bits, layer, cuts):
    """One layer's bits over ``bits`` streamed in the blocks between
    ``cuts``, and the state after the last block."""
    state = StageState.cleared(bits.shape[:-1])
    parts = []
    for lo, hi in zip([0] + cuts, cuts + [bits.shape[-1]]):
        out, state = filter_stage_batch(bits[..., lo:hi], layer, state)
        parts.append(out)
    return np.concatenate(parts, axis=-1), state


@settings(max_examples=150, deadline=None)
@given(layer=st.sampled_from(sorted(STAGES)), case=split_blocks())
@example(layer=1, case=(np.ones((2, 3000), np.uint8), [0, 0, 1, 8, 9, 10]))
@example(layer=2, case=(np.ones((2, 3000), np.uint8), [0, 0, 1, 8, 9, 10]))
@example(layer=2, case=(np.ones((1, 1), np.uint8), [0, 1, 1]))
@example(layer=1, case=(np.zeros((3, 0), np.uint8), [0, 0]))
# After the cut at 150, rows 0 and 2 are all zeros with a history of
# ones, and row 1, all ones, lies between them in the flattened window.
@example(layer=1, case=(np.repeat([[1, 0], [1, 1], [1, 0]], 150, axis=1
                                  ).astype(np.uint8), [150]))
def test_streamed_filter_equals_one_pass(layer, case):
    bits, cuts = case
    streamed, state = filter_in_blocks(bits, layer, cuts)
    whole = filter_once(bits, layer)
    assert streamed.dtype == whole.dtype == np.uint8
    assert streamed.shape == whole.shape == bits.shape
    assert streamed.tobytes() == whole.tobytes()
    # The state carried through every block is the one a single block
    # leaves, down to the RC filter's last float.
    _, one_block = filter_in_blocks(bits, layer, [])
    for carried, single in zip(state, one_block):
        assert carried.dtype == single.dtype
        assert carried.tobytes() == single.tobytes()


@st.composite
def node_and_tick_splits(draw):
    """An [n, T] 0/1 block, n up to 6 and T up to 600, the sorted nodes
    where a bank splits it into groups and the sorted ticks where a
    stream splits it into blocks, both often repeated or at the ends."""
    n, t = draw(st.integers(1, 6)), draw(st.integers(0, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = (rng.random((n, t)) < draw(st.floats(0.0, 1.0))).astype(np.uint8)
    nodes = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    ticks = sorted(draw(st.lists(st.one_of(st.integers(0, min(t, 9)),
                                           st.integers(0, t)), max_size=5)))
    return bits, nodes, ticks


@settings(max_examples=100, deadline=None)
@given(layer=st.sampled_from(sorted(STAGES)), case=node_and_tick_splits())
@example(layer=1, case=(np.ones((3, 300), np.uint8), [1, 1, 3], [0, 9, 9]))
@example(layer=2, case=(np.eye(4, 200, 150, np.uint8), [2], [150, 151]))
@example(layer=2, case=(np.zeros((2, 0), np.uint8), [1], [0]))
def test_node_groups_streamed_with_carried_state_equal_each_node_alone(
        layer, case):
    # Each group of nodes is filtered over each block from its rows of a
    # state carried per node, its FIR written into one work array that
    # every group reuses, as a node bank streams a session.
    bits, node_cuts, tick_cuts = case
    state = StageState.cleared(bits.shape[:-1])
    parts = []
    for lo, hi in zip([0] + tick_cuts, tick_cuts + [bits.shape[-1]]):
        part = np.empty((len(bits), hi - lo), dtype=np.uint8)
        work = np.empty((len(bits), hi - lo + FIR_TAPS - 1))
        for a, b in zip([0] + node_cuts, node_cuts + [len(bits)]):
            part[a:b], after = filter_stage_batch(
                bits[a:b, lo:hi], layer,
                StageState(*(whole[a:b] for whole in state)), work[:b - a])
            for whole, rows in zip(state, after):
                whole[a:b] = rows
        parts.append(part)
    streamed = np.concatenate(parts, axis=-1)
    assert streamed.tobytes() == filter_once(bits, layer).tobytes()
    for node, row in zip(streamed, bits):
        assert node.tobytes() == filter_once(row, layer).tobytes()
    _, one_block = filter_in_blocks(bits, layer, [])
    for carried, single in zip(state, one_block):
        assert carried.tobytes() == single.tobytes()


@st.composite
def index_row_lists(draw):
    """A few [n, 2] arrays of indices >= 0, n from 0, with repeated rows."""
    rows = st.tuples(st.integers(0, 6), st.integers(0, 6))
    return [np.array(draw(st.lists(rows, max_size=12)),
                     dtype=np.int64).reshape(-1, 2)
            for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=200, deadline=None)
@given(keys=index_row_lists())
@example(keys=[np.empty((0, 2), dtype=np.int64)])
@example(keys=[np.array([[0, 9], [1, 0]]), np.array([[1, 0], [0, 0]])])
def test_distinct_equals_unique_rows(keys):
    distinct, of = vector_net._distinct(keys)
    want, inverse = np.unique(np.concatenate(keys), axis=0,
                              return_inverse=True)
    assert distinct.tolist() == want.tolist()
    assert np.concatenate(of).tolist() == inverse.reshape(-1).tolist()
    assert [len(k) for k in of] == [len(k) for k in keys]


@st.composite
def schmitt_cases(draw):
    """A [T] or [n, T] block, T from 0, with thresholds fall < rise drawn
    freely, many samples exactly at one of them, and each row's output
    ``last`` before the block."""
    fall, rise = sorted(draw(st.lists(
        st.floats(-2.0, 2.0, allow_nan=False), min_size=2, max_size=2,
        unique=True)))
    shape = draw(st.sampled_from([(), (1,), (3,)]))
    n = draw(st.integers(0, 40))
    values = draw(st.lists(
        st.one_of(st.sampled_from([rise, fall]),
                  st.floats(-3.0, 3.0, allow_nan=False)),
        min_size=n * math.prod(shape), max_size=n * math.prod(shape)))
    last = np.reshape(draw(st.lists(st.integers(0, 1), min_size=math.prod(
        shape), max_size=math.prod(shape))), shape).astype(np.uint8)
    return (np.reshape(np.array(values, dtype=float), shape + (n,)), rise,
            fall, last)


@settings(max_examples=300, deadline=None)
@given(case=schmitt_cases())
@example(case=(np.zeros(0), 0.6, 0.4, 1))                       # T = 0
@example(case=(np.zeros((2, 0)), 0.6, 0.4, [0, 1]))
@example(case=(np.full(1, 0.6), 0.6, 0.4, 0))                   # T = 1
@example(case=(np.full((2, 1), 0.4), 0.6, 0.4, [1, 0]))
@example(case=(np.array([[0.6, 0.5], [0.5, 0.6], [0.4, 0.4]]).T, 0.6, 0.4,
               [0, 1]))
@example(case=(np.array([0.6, 0.4, 0.6, 0.4]), 0.6, 0.4, 1))   # at rise, fall
@example(case=(np.array([[0.7, 0.6, 0.3, 0.4, 0.5]] * 2), 0.6, 0.4,
               [0, 1]))                                         # up, then down
@example(case=(np.array([[0.6, 0.5, 0.7, 0.5]] * 2), 0.6, 0.4,
               [0, 1]))                                         # up, middle, up
@example(case=(np.full((2, 5), 0.5), 0.6, 0.4, [1, 0]))        # all middle
@example(case=(np.tile([0.7, 0.5, 0.3, 0.5], 20_000), 0.6, 0.4, 0))
def test_schmitt_equals_the_forward_fill_oracle(case):
    y, rise, fall, last = case
    got = schmitt_batch(y, rise, fall, last)
    want = schmitt_forward_fill(y, rise, fall, last)
    assert got.dtype == want.dtype == np.uint8
    assert got.shape == want.shape == y.shape
    assert np.array_equal(got, want)
    # Painting from the run starts equals the last rise against the last
    # fall.
    assert np.array_equal(got, schmitt_two_index(y, rise, fall, last))


def test_schmitt_starts_low_and_holds_between_thresholds():
    y = np.array([0.5, 0.5, 0.6, 0.5, 0.41, 0.4, 0.5, 0.59, 0.6])
    want = np.array([0, 0, 1, 1, 1, 0, 0, 0, 1], dtype=np.uint8)
    assert np.array_equal(schmitt_batch(y, 0.6, 0.4), want)
    # Each row of a block is triggered on its own.
    block = np.vstack((y, y[::-1]))
    assert np.array_equal(schmitt_batch(block, 0.6, 0.4)[0], want)
    assert np.array_equal(schmitt_batch(block, 0.6, 0.4)[1],
                          [1, 1, 1, 0, 0, 0, 1, 1, 1])


class TestNodeStep:
    def test_constant_ones_crossing_matches_exact_recurrence(self):
        # Independent oracle in exact arithmetic: moving-average FIR fill
        # then RC rise, Schmitt crossing at 55/100.
        alpha = Fraction(1, 64)
        coeffs = [Fraction(1, 9)] * 9
        hist = [Fraction(0)] * 9
        y = Fraction(0)
        oracle_n = None
        for n in range(1, 600):
            hist = [Fraction(1)] + hist[:-1]
            fir = sum(c * h for c, h in zip(coeffs, hist))
            y = y + alpha * (fir - y)
            if y >= Fraction(55, 100):
                oracle_n = n
                break
        assert oracle_n is not None

        out = filter_once(np.ones((600, 1)).T, 2)[0]
        got_n = int(np.argmax(out)) + 1 if out.any() else None
        assert got_n == oracle_n
        # RC rise only begins once the 9-tap pipeline fills, so the
        # crossing must land past the idealized fill-plus-rise bound.
        assert got_n > 9

    def test_zero_input_flushes_low(self, monkeypatch):
        # With the fall threshold at 1e-4, a low output means the RC
        # accumulator has drained below it.
        monkeypatch.setitem(vector_net.STAGES, 1, STAGES[1][:3] + (1e-4,))
        x = np.concatenate((np.ones(200), np.zeros(400))).reshape(1, -1)
        out = filter_once(x, 1)[0]
        assert out[199] == 1
        assert out[-1] == 0

    def test_beat_toggles_at_difference_frequency(self):
        fs = 27272.7
        n = int(2.0 * fs)
        wa = square_wave(2000.0, fs, n)
        wb = square_wave(2050.0, fs, n)
        x = (wa & wb).astype(float).reshape(1, -1)
        outs = filter_once(x, 1)[0]
        rises = int(np.count_nonzero((outs[1:] == 1) & (outs[:-1] == 0)))
        assert abs(rises / 2.0 - 50.0) <= 1.0

    def test_bad_layer(self):
        for layer in (0, 3):
            with pytest.raises(ValueError):
                filter_stage_batch(np.ones((4, 1)).T, layer,
                                   StageState.cleared((1,)))


def small_network(seed=0, n_pairs=4):
    rng = np.random.default_rng(seed)
    pairing = synthetic_pairing(rng.normal(2000, 150, 2 * n_pairs),
                                rng.uniform(18, 24, 2 * n_pairs))
    mux = compile_lookup(pairing, TargetLocation(0.002, 0.3), 0.25,
                         min_active_groups=1)
    layout = np.arange(2 * n_pairs * 8).reshape(2 * n_pairs, 8)
    return VectorNetwork(mux, layout), 2 * n_pairs


class TestVectorNetwork:
    def test_all_zero_input_outputs_zero(self):
        net, n_units = small_network()
        frames = np.zeros((300, 8 * n_units), dtype=np.uint8)
        assert not run_alone(net, frames).any()

    def test_all_one_input_rises_after_both_stages(self):
        net, n_units = small_network()
        frames = np.ones((400, 8 * n_units), dtype=np.uint8)
        outs = run_alone(net, frames).tolist()
        assert outs[-1] == 1
        first = outs.index(1)
        # Layer-1 rise (fill + RC to 0.22) must precede the layer-2 rise.
        assert first > 9

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(5)
        net, n_units = small_network(seed=3)
        frames = rng.integers(0, 2, size=(500, 8 * n_units)).astype(np.uint8)
        batch = run_alone(net, frames)
        assert batch.any() and not batch.all()
        assert np.array_equal(batch,
                              run_per_sample(net, frames))

    def test_reset_clears_state(self):
        # Every session starts from cleared filter state: a session after
        # a saturating one reads exactly like a session on a fresh network.
        net, n_units = small_network()
        ones = np.ones((300, 8 * n_units), dtype=np.uint8)
        assert run_alone(net, ones)[-1] == 1
        rng = np.random.default_rng(8)
        frames = rng.integers(0, 2, size=(300, 8 * n_units)).astype(np.uint8)
        fresh, _ = small_network()
        assert run_alone(net, frames)[0] == 0
        assert np.array_equal(run_alone(net, frames), run_alone(fresh, frames))

    def test_missing_phase_rejected(self):
        pairing = synthetic_pairing([2000.0] * 8, [20.0] * 8)
        mux = compile_lookup(pairing, TargetLocation(0.002, 0.0), 0.25,
                             min_active_groups=1)
        layout = np.full((8, 8), -1)
        layout[:, 0] = np.arange(8)  # tap-0 only
        if mux.tap.any():
            with pytest.raises(CompileError):
                VectorNetwork(mux, layout)
        else:
            VectorNetwork(mux, layout)


class TestNodeAccounting:
    def test_reference_values(self):
        assert sharable_nodes(80, 2) == 20
        assert total_nodes(80, 2, 1) == 60
        assert total_nodes(80, 2, 4) == 180

    def test_single_layer_shares_nothing(self):
        for m in (2, 8, 64, 128):
            assert sharable_nodes(m, 1) == 0

    def test_closed_form_identity_over_grid(self):
        for n in (1, 2, 3, 4):
            for mult in (1, 2, 3, 5):
                m = mult * 2 ** n
                assert total_nodes(m, n, 1) == \
                    sharable_nodes(m, n) + m * n // 2 ** n

    @pytest.mark.parametrize("m,n,k", [(64, 3, 2), (80, 2, 4), (16, 2, 3),
                                       (32, 4, 2)])
    def test_structural_count_oracle(self, m, n, k):
        # Build the actual node graphs: layer-l node j of network w covers
        # units [j*2^l, (j+1)*2^l); one routable unit per 2^n block (the
        # last one).  Nodes whose unit range misses every routable unit
        # have fixed phase and are shared across networks.
        def covers_routable(j, layer):
            lo, hi = j * 2 ** layer, (j + 1) * 2 ** layer
            return any(lo <= u < hi for u in range(2 ** n - 1, m, 2 ** n))

        shared_ids = set()
        distinct = set()
        for w in range(k):
            for layer in range(1, n + 1):
                for j in range(m // 2 ** layer):
                    if covers_routable(j, layer):
                        distinct.add(("net", w, layer, j))
                    else:
                        shared_ids.add(("shared", layer, j))
        assert len(shared_ids) == sharable_nodes(m, n)
        assert len(shared_ids) + len(distinct) == total_nodes(m, n, k)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            sharable_nodes(81, 2)
        with pytest.raises(ValueError):
            total_nodes(20, 3, 2)
