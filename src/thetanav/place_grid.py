"""Place-cell grid: an activity bump migrated by vector-cell pulses.

The grid keeps exactly one cell at full activity (10).  A debounced
pulse from a directional vector-cell network gates the path cell toward
the matching neighbor: the neighbor takes the bump and every other
active cell leaks by 5, so the previous bump location trails at 5 and
the one before is back at 0: :func:`activity` lists them from the
bump's path, whose next cell :func:`apply_pulse` gives.  A bit stream
reads as its :func:`high_runs`, which :func:`debounce` screens and the
exported ``runs.csv`` files list.

The phases re-arm at trail start, after every pulse and at every other
segment boundary, each with one of the ``CAUSE_*`` reasons below (see
``harness.run_track``).  A re-arm zeroes every phase and filter, so at
an unchanged velocity it replays the session before it.
"""

from __future__ import annotations

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


def apply_pulse(bump: tuple[int, int], event: PulseEvent,
                grid_size: int) -> tuple[int, int]:
    """The cell the bump moves to: one step from ``bump`` in the pulse
    direction.  A migration off the grid_size x grid_size grid raises
    with a diagnostic instead of clamping."""
    dx, dy = DIRECTION_DELTA[event.direction]
    target = (bump[0] + dx, bump[1] + dy)
    if max(map(abs, target)) > grid_size // 2:
        raise OutOfBoundsError(
            f"pulse {event.direction} at tick {event.tick} would move the "
            f"bump from {bump} to {target}, outside the "
            f"{grid_size}x{grid_size} grid")
    return target


def grid_matrix(levels: Iterable[tuple[tuple[int, int], int]],
                grid_size: int) -> np.ndarray:
    """Grid matrix with row 0 at the top (positive y): cell (x, y) sits at
    row half - y, column x + half; cells not in ``levels`` read 0."""
    half = grid_size // 2
    matrix = np.zeros((grid_size, grid_size), dtype=int)
    for (x, y), level in levels:
        matrix[half - y, x + half] = level
    return matrix


def activity(path: Sequence[tuple[int, int]]) -> list[tuple]:
    """(cell, level) of each active cell after the bump walked ``path``
    (its cells from the origin on): the bump at ``BUMP_LEVEL``, then the
    cell it just left, if any, at ``LEAK_STEP``."""
    return list(zip(reversed(path), (BUMP_LEVEL, LEAK_STEP)))


def displacement(directions: Iterable[str]) -> tuple[int, int]:
    """Net cell displacement of one step per direction."""
    deltas = [DIRECTION_DELTA[d] for d in directions]
    return (sum(dx for dx, _ in deltas), sum(dy for _, dy in deltas))


def high_runs(bits: Sequence[int]) -> np.ndarray:
    """[start, end) of every high run of ``bits`` in tick order, as an
    int [runs, 2] array."""
    padded = np.concatenate(([False], np.asarray(bits, dtype=bool), [False]))
    return np.flatnonzero(np.diff(padded)).reshape(-1, 2)


def debounce(bits: Sequence[int], min_width: int) -> Optional[int]:
    """Start tick of the first of :func:`high_runs` at least min_width
    samples long, or None when there is none.

    Shorter runs are artifacts and are discarded.  Debouncing a stream
    rebuilt from the returned start (as one min_width-wide pulse) returns
    the same start.
    """
    if min_width < 1:
        raise ValueError("min_width must be >= 1")
    runs = high_runs(bits)
    wide = runs[runs[:, 1] - runs[:, 0] >= min_width]
    return int(wide[0, 0]) if len(wide) else None
