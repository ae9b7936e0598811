"""Place-grid contracts: debouncing, bump migration, leakage, readout
and the reset controller."""

import numpy as np
import pytest

from thetanav.place_grid import (
    CAUSE_TRAIL_START,
    CAUSE_VECTOR_FIRE,
    CAUSE_VELOCITY_CHANGE,
    OutOfBoundsError,
    PlaceGrid,
    PulseEvent,
    apply_pulse,
    debounce,
    locate,
    reset_controller,
    write_grid_csv,
    write_trail_csv,
)


class TestDebounce:
    def test_run_below_width_discarded(self):
        bits = [0, 1, 1, 0, 0]
        assert debounce(bits, 3) == []

    def test_run_at_width_fires_once_at_start(self):
        bits = [0, 0, 1, 1, 1, 0]
        assert debounce(bits, 3) == [2]

    def test_glitch_then_pulse(self):
        # Hand enumeration: a 2-sample glitch at tick 1, then a 50-sample
        # pulse from tick 10; only the pulse survives width 3.
        bits = np.zeros(80, dtype=np.uint8)
        bits[1:3] = 1
        bits[10:60] = 1
        assert debounce(bits, 3) == [10]

    def test_idempotent_on_rerendered_events(self):
        rng = np.random.default_rng(8)
        width = 3
        bits = (rng.random(400) < 0.3).astype(np.uint8)
        events = debounce(bits, width)
        rendered = np.zeros_like(bits)
        for start in events:
            rendered[start:start + width] = 1
        assert debounce(rendered, width) == events

    def test_width_validated(self):
        with pytest.raises(ValueError):
            debounce([1, 0], 0)

    def test_run_touching_end_counts(self):
        assert debounce([0, 0, 1, 1, 1], 3) == [2]


class TestApplyPulse:
    def test_east_leaves_trailing_five(self):
        grid = PlaceGrid()
        apply_pulse(grid, PulseEvent("E", 0))
        assert locate(grid) == (1, 0)
        assert grid.level((1, 0)) == 10
        assert grid.level((0, 0)) == 5

    def test_closed_loop_returns_home(self):
        grid = PlaceGrid()
        for i, d in enumerate(("N", "E", "S", "W")):
            apply_pulse(grid, PulseEvent(d, i))
        assert locate(grid) == (0, 0)

    def test_boundary_raises(self):
        grid = PlaceGrid()
        for i in range(5):
            apply_pulse(grid, PulseEvent("E", i))
        assert locate(grid) == (5, 0)
        with pytest.raises(OutOfBoundsError):
            apply_pulse(grid, PulseEvent("E", 5))

    def test_tail_decays_to_zero_after_two_steps(self):
        grid = PlaceGrid()
        apply_pulse(grid, PulseEvent("E", 0))
        apply_pulse(grid, PulseEvent("E", 1))
        assert grid.level((0, 0)) == 0
        assert grid.level((1, 0)) == 5
        assert grid.level((2, 0)) == 10

    def test_invariants_under_random_walks(self):
        rng = np.random.default_rng(11)
        grid = PlaceGrid()
        dirs = np.array(["E", "N", "W", "S"])
        pos = (0, 0)
        counts = {d: 0 for d in dirs}
        for i in range(300):
            d = str(rng.choice(dirs))
            delta = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}[d]
            target = (pos[0] + delta[0], pos[1] + delta[1])
            if not grid.in_bounds(target):
                continue
            before = {c: grid.level(c) for c in
                      [(x, y) for x in range(-5, 6) for y in range(-5, 6)]}
            apply_pulse(grid, PulseEvent(d, i))
            grid.check_invariants()
            pos = target
            counts[d] += 1
            # Decay monotonicity: no cell gains activity except the bump.
            for c, lv in before.items():
                if c != pos:
                    assert grid.level(c) <= lv
        # Displacement additivity over the whole walk.
        assert locate(grid) == (counts["E"] - counts["W"],
                                counts["N"] - counts["S"])

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            PulseEvent("X", 0)


class TestLocate:
    def test_fresh_grid_at_origin(self):
        assert locate(PlaceGrid()) == (0, 0)

    def test_pulse_accounting(self):
        grid = PlaceGrid()
        for i, d in enumerate(("E", "E", "N")):
            apply_pulse(grid, PulseEvent(d, i))
        assert locate(grid) == (2, 1)

    def test_detour_sequence_endpoint(self):
        grid = PlaceGrid()
        for i, d in enumerate(("E", "E", "S", "E", "S")):
            apply_pulse(grid, PulseEvent(d, i))
        assert locate(grid) == (3, -2)


class TestResetController:
    def test_trail_start(self):
        assert reset_controller((0, 0), (0.25, 0), False, True) \
            == CAUSE_TRAIL_START

    def test_quiet_tick_not_asserted(self):
        assert reset_controller((0.25, 0), (0.25, 0), False, False) is None

    def test_velocity_change(self):
        assert reset_controller((0.25, 0), (0, 0.25), False, False) \
            == CAUSE_VELOCITY_CHANGE

    def test_pulse_outranks_velocity_change(self):
        assert reset_controller((0.25, 0), (0, 0.25), True, False) \
            == CAUSE_VECTOR_FIRE


class TestExports:
    def test_trail_csv(self, tmp_path):
        path = tmp_path / "trail.csv"
        write_trail_csv(path, [(0, "start", 0, 0), (42, "E", 1, 0)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tick,direction,bump_x,bump_y"
        assert lines[1] == "0,start,0,0"
        assert lines[2] == "42,E,1,0"

    def test_grid_csv_top_row_first(self, tmp_path):
        grid = PlaceGrid(5, 5)
        apply_pulse(grid, PulseEvent("N", 0))
        path = tmp_path / "grid.csv"
        write_grid_csv(path, grid.snapshot())
        rows = [r.split(",") for r in path.read_text().strip().splitlines()]
        # Bump at (0, 1): row index 1 from the top in a 5x5 grid.
        assert rows[1][2] == "10"
        assert rows[2][2] == "5"
