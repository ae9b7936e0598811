"""Place-grid contracts: high runs and debouncing, bump migration,
leakage and readout, with the grid rebuilt from the bump's path checked
against the activity-matrix model."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thetanav.harness import write_csv
from thetanav.place_grid import (
    DIRECTIONS,
    OutOfBoundsError,
    PulseEvent,
    apply_pulse,
    debounce,
    high_runs,
)

from reference_models import (PlaceGrid, apply_pulse_to_grid, fill_runs,
                              scan_runs, snapshot, write_grid_csv)


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.integers(0, 1), max_size=300))
@example(bits=[])
@example(bits=[0] * 7)
@example(bits=[1] * 7)
@example(bits=[1, 1, 0, 1, 0, 0, 1])   # runs touching both ends
def test_high_runs_match_the_run_scan(bits):
    runs = high_runs(bits)
    assert runs.shape == (len(scan_runs(bits)), 2)
    assert runs.tolist() == [list(run) for run in scan_runs(bits)]
    # Filling the runs rebuilds the bits exactly.
    assert fill_runs(runs.tolist(), len(bits)).tolist() == bits


class TestDebounce:
    def test_run_below_width_discarded(self):
        bits = [0, 1, 1, 0, 0]
        assert debounce(bits, 3) is None

    def test_run_at_width_fires_once_at_start(self):
        bits = [0, 0, 1, 1, 1, 0]
        assert debounce(bits, 3) == 2

    def test_glitch_then_pulse(self):
        # Hand enumeration: a 2-sample glitch at tick 1, then a 50-sample
        # pulse from tick 10; only the pulse survives width 3.
        bits = np.zeros(80, dtype=np.uint8)
        bits[1:3] = 1
        bits[10:60] = 1
        assert debounce(bits, 3) == 10

    def test_idempotent_on_rerendered_events(self):
        rng = np.random.default_rng(8)
        width = 3
        bits = (rng.random(400) < 0.3).astype(np.uint8)
        start = debounce(bits, width)
        assert start is not None
        rendered = np.zeros_like(bits)
        rendered[start:start + width] = 1
        assert debounce(rendered, width) == start

    def test_width_validated(self):
        with pytest.raises(ValueError):
            debounce([1, 0], 0)

    def test_run_touching_end_counts(self):
        assert debounce([0, 0, 1, 1, 1], 3) == 2


def walk(directions, size=11):
    """The bump's path (origin first) after one pulse per direction."""
    path = [(0, 0)]
    for tick, d in enumerate(directions):
        path.append(apply_pulse(path[-1], PulseEvent(d, tick), size))
    return path


def level(matrix, cell):
    """Activity of cell (x, y) in a top-row-first grid matrix."""
    half = matrix.shape[0] // 2
    return int(matrix[half - cell[1], cell[0] + half])


def locate(matrix):
    """Coordinates of the unique fully active cell."""
    (row,), (col,) = np.nonzero(matrix == 10)
    half = matrix.shape[0] // 2
    return (int(col) - half, half - int(row))


class TestApplyPulse:
    def test_east_leaves_trailing_five(self):
        path = walk("E")
        assert path[-1] == (1, 0)
        grid = snapshot(path, 11)
        assert locate(grid) == (1, 0)
        assert level(grid, (1, 0)) == 10
        assert level(grid, (0, 0)) == 5

    def test_closed_loop_returns_home(self):
        path = walk("NESW")
        assert path[-1] == (0, 0)
        assert locate(snapshot(path, 11)) == (0, 0)

    def test_boundary_raises(self):
        path = walk("EEEEE")
        assert locate(snapshot(path, 11)) == (5, 0)
        with pytest.raises(OutOfBoundsError, match=(
                r"^pulse E at tick 5 would move the bump from \(5, 0\) to "
                r"\(6, 0\), outside the 11x11 grid$")):
            apply_pulse(path[-1], PulseEvent("E", 5), 11)

    def test_tail_decays_to_zero_after_two_steps(self):
        grid = snapshot(walk("EE"), 11)
        assert level(grid, (0, 0)) == 0
        assert level(grid, (1, 0)) == 5
        assert level(grid, (2, 0)) == 10

    def test_invariants_under_random_walks(self):
        rng = np.random.default_rng(11)
        dirs = np.array(["E", "N", "W", "S"])
        path = [(0, 0)]
        counts = {d: 0 for d in dirs}
        for i in range(300):
            d = str(rng.choice(dirs))
            delta = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}[d]
            target = (path[-1][0] + delta[0], path[-1][1] + delta[1])
            if max(map(abs, target)) > 5:
                continue
            before = snapshot(path, 11)
            path.append(apply_pulse(path[-1], PulseEvent(d, i), 11))
            assert path[-1] == target
            counts[d] += 1
            grid = snapshot(path, 11)
            # Activity alphabet, unique bump, bump at the path's end.
            assert set(np.unique(grid).tolist()) <= {0, 5, 10}
            assert int((grid == 10).sum()) == 1
            assert level(grid, target) == 10
            # Decay monotonicity: no cell gains activity except the bump.
            gained = grid > before
            gained[5 - target[1], target[0] + 5] = False
            assert not gained.any()
        # Displacement additivity over the whole walk.
        assert locate(snapshot(path, 11)) == (counts["E"] - counts["W"],
                                              counts["N"] - counts["S"])

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            PulseEvent("X", 0)


@settings(max_examples=200, deadline=None)
@given(size=st.sampled_from([1, 3, 5, 7, 9, 11]),
       directions=st.lists(st.sampled_from(DIRECTIONS), max_size=40))
def test_snapshot_matches_the_activity_matrix_model(size, directions):
    # At every step the grid rebuilt from the path equals the matrix that
    # leaks every pulse, and an off-grid pulse raises the same message
    # in both and moves neither.
    grid = PlaceGrid(size, size)
    path = [(0, 0)]
    assert np.array_equal(snapshot(path, size), grid.snapshot())
    for tick, d in enumerate(directions):
        event = PulseEvent(d, tick)
        try:
            cell = apply_pulse(path[-1], event, size)
        except OutOfBoundsError as exc:
            with pytest.raises(OutOfBoundsError) as ref:
                apply_pulse_to_grid(grid, event)
            assert str(ref.value) == str(exc)
        else:
            apply_pulse_to_grid(grid, event)
            path.append(cell)
        assert grid.bump == path[-1]
        assert np.array_equal(snapshot(path, size), grid.snapshot())


class TestLocate:
    def test_fresh_grid_at_origin(self):
        assert locate(snapshot(walk(""), 11)) == (0, 0)

    def test_pulse_accounting(self):
        path = walk("EEN")
        assert path[-1] == locate(snapshot(path, 11)) == (2, 1)

    def test_detour_sequence_endpoint(self):
        path = walk("EESES")
        assert path[-1] == locate(snapshot(path, 11)) == (3, -2)


class TestExports:
    def test_trail_csv(self, tmp_path):
        path = tmp_path / "trail.csv"
        write_csv(path, ("tick", "direction", "bump_x", "bump_y"),
                  [(0, "start", 0, 0), (42, "E", 1, 0)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tick,direction,bump_x,bump_y"
        assert lines[1] == "0,start,0,0"
        assert lines[2] == "42,E,1,0"

    def test_grid_csv_top_row_first(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_grid_csv(path, snapshot(walk("N", 5), 5))
        rows = [r.split(",") for r in path.read_text().strip().splitlines()]
        # Bump at (0, 1): row index 1 from the top in a 5x5 grid.
        assert rows[1][2] == "10"
        assert rows[2][2] == "5"
