"""Place-cell grid: an activity bump migrated by vector-cell pulses.

The grid keeps exactly one cell at full activity (10).  A debounced
pulse from a directional vector-cell network gates the path cell toward
the matching neighbor: the neighbor takes the bump and every other
active cell leaks by 5, so the previous bump location trails at 5.  A
reset controller re-arms the oscillator phases at trail start, after
every pulse, and on velocity changes.  A re-arm zeroes every phase and
filter, so at an unchanged velocity it replays the session before it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

BUMP_LEVEL = 10
LEAK_STEP = 5

DIRECTION_DELTA = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}
DIRECTIONS = tuple(DIRECTION_DELTA)

CAUSE_TRAIL_START = "trail_start"
CAUSE_VECTOR_FIRE = "vector_fire"
CAUSE_VELOCITY_CHANGE = "velocity_change"


class OutOfBoundsError(RuntimeError):
    """Bump migration requested past the grid edge."""


@dataclass(frozen=True)
class PulseEvent:
    """One debounced vector-cell firing: direction plus the sample index
    of the first tick of the confirming high run."""

    direction: str
    tick: int

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")


class PlaceGrid:
    """Center-origin activity grid with a unique bump.

    Coordinates run -half..+half on both axes (11x11 by default).
    Activity levels live in {0, 5, 10}; exactly one cell holds 10.
    """

    def __init__(self, width: int = 11, height: int = 11):
        if width < 1 or height < 1 or width % 2 == 0 or height % 2 == 0:
            raise ValueError("grid dimensions must be odd and positive")
        self.width = width
        self.height = height
        self.activity = np.zeros((height, width), dtype=int)
        self.bump = (0, 0)
        self._set(self.bump, BUMP_LEVEL)

    def _index(self, pos: tuple[int, int]) -> tuple[int, int]:
        x, y = pos
        col = x + self.width // 2
        row = y + self.height // 2
        if not (0 <= col < self.width and 0 <= row < self.height):
            raise OutOfBoundsError(f"cell {pos} outside the grid")
        return row, col

    def _set(self, pos: tuple[int, int], level: int) -> None:
        self.activity[self._index(pos)] = level

    def level(self, pos: tuple[int, int]) -> int:
        return int(self.activity[self._index(pos)])

    def in_bounds(self, pos: tuple[int, int]) -> bool:
        x, y = pos
        return abs(x) <= self.width // 2 and abs(y) <= self.height // 2

    def check_invariants(self) -> None:
        levels = set(np.unique(self.activity).tolist())
        if not levels <= {0, LEAK_STEP, BUMP_LEVEL}:
            raise AssertionError(f"activity alphabet violated: {levels}")
        if int((self.activity == BUMP_LEVEL).sum()) != 1:
            raise AssertionError("unique-bump invariant violated")
        if self.level(self.bump) != BUMP_LEVEL:
            raise AssertionError("bump coordinate out of sync with activity")

    def snapshot(self) -> np.ndarray:
        """Activity matrix with row 0 at the top (positive y)."""
        return np.flipud(self.activity.copy())


def locate(grid: PlaceGrid) -> tuple[int, int]:
    """Coordinates of the unique fully active cell."""
    return grid.bump


def apply_pulse(grid: PlaceGrid, event: PulseEvent) -> PlaceGrid:
    """Migrate the bump one cell in the pulse direction.

    The target neighbor takes level 10; every other active cell leaks by
    5 with a floor of 0, so the vacated cell reads 5 right after.  A
    migration off the grid raises with a diagnostic instead of clamping.
    """
    dx, dy = DIRECTION_DELTA[event.direction]
    target = (grid.bump[0] + dx, grid.bump[1] + dy)
    if not grid.in_bounds(target):
        raise OutOfBoundsError(
            f"pulse {event.direction} at tick {event.tick} would move the "
            f"bump from {grid.bump} to {target}, outside the "
            f"{grid.width}x{grid.height} grid")
    grid.activity = np.maximum(grid.activity - LEAK_STEP, 0)
    grid.bump = target
    grid._set(target, BUMP_LEVEL)
    grid.check_invariants()
    return grid


def displacement(directions: Iterable[str]) -> tuple[int, int]:
    """Net cell displacement of one step per direction."""
    deltas = [DIRECTION_DELTA[d] for d in directions]
    return (sum(dx for dx, _ in deltas), sum(dy for _, dy in deltas))


def debounce(bits: Sequence[int], min_width: int) -> list[int]:
    """Start ticks of every maximal high run of at least min_width samples.

    Shorter runs are artifacts and are discarded.  Debouncing a stream
    rebuilt from the returned events (as min_width-wide pulses) returns
    the same events.
    """
    if min_width < 1:
        raise ValueError("min_width must be >= 1")
    bits = np.asarray(bits).astype(bool)
    if bits.size == 0:
        return []
    padded = np.concatenate(([False], bits, [False])).astype(np.int8)
    diff = np.diff(padded)
    starts = np.nonzero(diff == 1)[0]
    ends = np.nonzero(diff == -1)[0]
    return [int(s) for s, e in zip(starts, ends) if e - s >= min_width]


def reset_controller(prev_velocity, new_velocity, pulse_fired: bool,
                     trail_start: bool) -> Optional[str]:
    """Why the phase-reset line asserts at a segment boundary, or None.

    Asserts at trail start, when any vector cell fired, or when the
    commanded velocity changed; a simultaneous pulse and velocity change
    reports the pulse (vector_fire outranks velocity_change).  A reset
    zeroes the oscillator phases and clears the vector-network filters,
    so what follows depends only on the displacement since the reset.
    """
    if trail_start:
        return CAUSE_TRAIL_START
    if pulse_fired:
        return CAUSE_VECTOR_FIRE
    if tuple(prev_velocity) != tuple(new_velocity):
        return CAUSE_VELOCITY_CHANGE
    return None


def write_trail_csv(path, trail: Iterable[tuple[int, str, int, int]]) -> None:
    """Trail export: tick, event direction, bump x, bump y."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "direction", "bump_x", "bump_y"])
        for tick, direction, x, y in trail:
            writer.writerow([tick, direction, x, y])


def write_grid_csv(path, snapshot: np.ndarray) -> None:
    """One grid snapshot as a CSV matrix, top row first."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in snapshot:
            writer.writerow([int(v) for v in row])
