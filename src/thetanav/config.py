"""Run configuration and path scripts, with INI-file round-tripping.

A RunConfig holds what varies from run to run: the population's
mismatch statistics and seed, the grid size and pitch, the speed and the
reset hold.  Module constants fix the rest: scan clocks, calibration
window, admission r2 and network size (``chip_io``, ``harness``),
filter stages, compile tolerances and group floor (``vector_net``),
debounce and segment budget (``harness``).  One velocity code unit
equals one spatial unit per second, so the time to cross one grid cell
is pitch / speed seconds.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import (Optional, Sequence, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np
import scipy

from . import __version__
from .chip_io import CALIBRATION_CLOCK_HZ, NETWORK_UNITS, phase_rate
from .place_grid import DIRECTION_DELTA, displacement
from .theta_core import PopulationSpec, VelocityVector, require_int

LINEAR_RANGE = 4.0


def require_linear(name: str, velocity: VelocityVector) -> None:
    """Refuse a velocity with a component outside the linear range."""
    if max(abs(velocity.vx), abs(velocity.vy)) > LINEAR_RANGE:
        raise ValueError(f"{name} {tuple(velocity)} outside the linear "
                         f"range [-{LINEAR_RANGE}, {LINEAR_RANGE}]")


# The [meta] keys of a run manifest.  Bit-for-bit replay rests on the
# float libraries as well as on the package.
META_KEYS = ("version", "numpy", "scipy")


@dataclass(frozen=True)
class Segment:
    """One scripted leg: a commanded velocity held either for a fixed
    number of scanned ticks or until the first vector-cell pulse.  The
    velocity lies on an axis: every pulse resets all phases, so the four
    cardinal networks lose any motion across the axis they fire on."""

    velocity: VelocityVector
    ticks: Optional[int] = None

    @property
    def until_pulse(self) -> bool:
        return self.ticks is None

    def __post_init__(self):
        require_linear("segment velocity", self.velocity)
        if self.velocity.vx != 0 and self.velocity.vy != 0:
            raise ValueError(
                f"segment velocity {tuple(self.velocity)} is off-axis: the "
                f"cardinal networks track axis-aligned motion only")
        if self.ticks is not None:
            require_int("segment ticks", self.ticks, 0)
        if self.until_pulse and self.velocity.speed == 0:
            # Nothing moves, so no vector cell can ever fire.
            raise ValueError("an until-pulse segment needs a non-zero velocity")


@dataclass(frozen=True)
class PathScript:
    """Named sequence of velocity segments, with the intended final grid
    cell when known (used by seed sweeps to score success).  Both are
    stored as tuples, whatever sequence they are given as."""

    name: str
    segments: tuple[Segment, ...]
    expected_final: Optional[tuple[int, int]] = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("a path script needs at least one segment")
        final = self.expected_final
        if final is not None:
            if not (isinstance(final, (tuple, list)) and len(final) == 2
                    and all(type(v) is int for v in final)):
                raise ValueError(
                    f"expected_final must be None or two ints, got {final!r}")
            object.__setattr__(self, "expected_final", tuple(final))


@dataclass(frozen=True)
class RunConfig:
    """What a run varies, including the seed.  Every check fails on NaN,
    and the integer fields refuse any other type, bools included."""

    population: PopulationSpec = field(default_factory=PopulationSpec)
    grid_size: int = 11
    pitch: float = 0.0024
    speed: float = 0.25
    hold_ticks: int = 10
    seed: int = 0

    def __post_init__(self):
        require_int("grid_size", self.grid_size)
        require_int("hold_ticks", self.hold_ticks, 0)
        require_int("seed", self.seed, 0)
        if not (0 < self.pitch < math.inf and self.speed > 0):
            raise ValueError("pitch and speed must be positive and finite")
        if self.speed > LINEAR_RANGE:
            raise ValueError(f"speed {self.speed} outside the linear range")
        if not (self.grid_size >= 1 and self.grid_size % 2 == 1):
            raise ValueError("grid_size must be odd and positive")
        if self.population.n_units < NETWORK_UNITS:
            raise ValueError(
                f"population.n_units must be >= {NETWORK_UNITS} (the "
                f"network's units), got {self.population.n_units}")
        phase_rate(CALIBRATION_CLOCK_HZ, self.population.n_units)  # tap-0 scan

    @property
    def cell_seconds(self) -> float:
        """Travel time across one grid cell at the configured speed."""
        return self.pitch / self.speed


def cardinal_velocity(direction: str, speed: float) -> VelocityVector:
    dx, dy = DIRECTION_DELTA[direction]
    return VelocityVector(speed * dx, speed * dy)


def _steps_script(name: str, directions: Sequence[str], speed: float) -> PathScript:
    segments = tuple(Segment(cardinal_velocity(d, speed)) for d in directions)
    return PathScript(name=name, segments=segments,
                      expected_final=displacement(directions))


def built_in_scripts(speed: float) -> dict[str, PathScript]:
    """The three shipped demonstration paths.

    The published record fixes only qualitative shapes and the detour
    endpoint [3, -2]; the exact velocity sequences here are best-effort
    reconstructions of those descriptions.
    """
    return {
        # Heading down the arena with side glances along the way.
        "path1_meander": _steps_script(
            "path1_meander", ("S", "E", "S", "W", "S"), speed),
        # Detour around an obstacle, ending at (3, -2).
        "path2_detour": _steps_script(
            "path2_detour", ("E", "E", "S", "E", "S"), speed),
        # A closed loop back to the start.
        "path3_loop": _steps_script(
            "path3_loop", ("E", "N", "W", "S"), speed),
    }


def _encode(value) -> str:
    """INI text of one field value: a segment list as ``vx:vy:ticks``
    legs joined by ``;`` (``pulse`` for until-pulse), a tuple as
    comma-separated items, anything else as its ``str``."""
    if isinstance(value, tuple) and value and isinstance(value[0], Segment):
        return ";".join(
            ":".join([repr(v) for v in seg.velocity]
                     + ["pulse" if seg.until_pulse else str(seg.ticks)])
            for seg in value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _decode(text: str, hint):
    """Inverse of :func:`_encode` for a field of type ``hint``."""
    if get_origin(hint) is Union:
        hint = next(a for a in get_args(hint) if a is not type(None))
    if hint == tuple[Segment, ...]:
        legs = [leg.split(":") for leg in text.split(";")]
        return tuple(Segment(VelocityVector(float(vx), float(vy)),
                             None if ticks == "pulse" else int(ticks))
                     for vx, vy, ticks in legs)
    if get_origin(hint) is tuple:
        items, types = text.split(","), get_args(hint)
        if len(items) != len(types):
            raise ValueError(f"expected {len(types)} values, got {text!r}")
        return tuple(t(v) for t, v in zip(types, items))
    return hint(text)


def _scalar_hints(cls) -> dict:
    """Field name to type for every field of ``cls`` that is not itself a
    dataclass (those get a section of their own)."""
    return {name: hint for name, hint in get_type_hints(cls).items()
            if not is_dataclass(hint)}


def _section(obj) -> dict[str, str]:
    """INI section of a dataclass: every scalar field that is set."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {name: _encode(v) for name, v in values.items()
            if v is not None and not is_dataclass(v)}


def _fields_from(cls, section) -> dict:
    hints = _scalar_hints(cls)
    for key in section:
        if key not in hints:
            raise ValueError(f"unknown key {key!r} in [{section.name}]")
    return {key: _decode(text, hints[key]) for key, text in section.items()}


def save_config(config: RunConfig, path,
                script: Optional[PathScript] = None) -> None:
    """Write ``config`` as INI: ``[population]`` for its population spec
    and ``[run]`` for the remaining fields; unset optional fields are
    left out.  With a script, the file is a run manifest and
    also gets ``[script]`` and ``[meta]`` (the package, numpy and scipy
    versions)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["population"] = _section(config.population)
    parser["run"] = _section(config)
    if script is not None:
        parser["script"] = _section(script)
        parser["meta"] = dict(zip(META_KEYS, (
            __version__, np.__version__, scipy.__version__)))
    with open(path, "w") as fh:
        parser.write(fh)


def load_manifest(path) -> tuple[RunConfig, Optional[PathScript]]:
    """Read a file written by :func:`save_config`: the config,
    plus the script when the file is a run manifest.  A missing key takes
    its default; an unknown section or key raises ValueError."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        parser.read_file(fh)
    kwargs: dict = {}
    script = None
    for name in parser.sections():
        section = parser[name]
        if name == "run":
            kwargs.update(_fields_from(RunConfig, section))
        elif name == "script":
            script = PathScript(**_fields_from(PathScript, section))
        elif name == "meta":
            if set(section) - set(META_KEYS):
                raise ValueError(f"unknown key in [meta]: {sorted(section)}")
        elif name == "population":
            kwargs[name] = PopulationSpec(**_fields_from(PopulationSpec,
                                                         section))
        else:
            raise ValueError(f"unknown section [{name}]")
    return RunConfig(**kwargs), script


def load_config(path) -> RunConfig:
    """The run configuration of an INI file or run manifest."""
    return load_manifest(path)[0]
