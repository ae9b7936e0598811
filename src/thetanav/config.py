"""Run configuration and path scripts, with INI-file round-tripping.

A RunConfig fully determines a tracking run: population statistics and
seed, scan clocks, filter constants, compile tolerances, debounce width,
grid geometry, pitch and speed.  One velocity code unit equals one
spatial unit per second, so the time to cross one grid cell is
pitch / speed seconds.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import (Optional, Sequence, Union, get_args, get_origin,
                    get_type_hints)

from . import __version__
from .theta_core import PopulationSpec, VelocityVector
from .vector_net import (
    DEFAULT_DRIFT_TOLERANCE,
    DEFAULT_MIN_ACTIVE_GROUPS,
    DEFAULT_TAP_TOLERANCE,
    FilterParams,
)

LINEAR_RANGE = 4.0


@dataclass(frozen=True)
class Segment:
    """One scripted leg: a commanded velocity held either for a fixed
    number of scanned ticks or until the first vector-cell pulse."""

    velocity: VelocityVector
    ticks: Optional[int] = None

    @property
    def until_pulse(self) -> bool:
        return self.ticks is None

    def validate(self) -> None:
        if max(abs(self.velocity.vx), abs(self.velocity.vy)) > LINEAR_RANGE:
            raise ValueError(
                f"segment velocity {tuple(self.velocity)} outside the "
                f"linear range [-{LINEAR_RANGE}, {LINEAR_RANGE}]")
        if self.ticks is not None and self.ticks < 0:
            raise ValueError("segment ticks must be >= 0")


@dataclass(frozen=True)
class PathScript:
    """Named sequence of velocity segments, with the intended final grid
    cell when known (used by seed sweeps to score success)."""

    name: str
    segments: tuple[Segment, ...]
    expected_final: Optional[tuple[int, int]] = None

    def validate(self) -> None:
        if not self.segments:
            raise ValueError("a path script needs at least one segment")
        for seg in self.segments:
            seg.validate()


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run, including the seed."""

    population: PopulationSpec = field(default_factory=PopulationSpec)
    scan_clock_hz: float = 10_000_000.0
    calibration_clock_hz: float = 6_000_000.0
    calibration_window_s: float = 0.12
    filters: FilterParams = field(default_factory=FilterParams)
    tap_tolerance: float = DEFAULT_TAP_TOLERANCE
    drift_tolerance: float = DEFAULT_DRIFT_TOLERANCE
    min_active_groups: int = DEFAULT_MIN_ACTIVE_GROUPS
    admission_r2: float = 0.9
    network_units: int = 80
    debounce_width: int = 3
    grid_size: int = 11
    pitch: float = 0.0024
    speed: float = 0.25
    hold_ticks: int = 10
    settle_ticks: int = 32
    budget_factor: float = 10.0
    seed: Optional[int] = None

    def validate(self) -> None:
        self.population.validate()
        self.filters.validate()
        if self.pitch <= 0 or self.speed <= 0:
            raise ValueError("pitch and speed must be positive")
        if self.speed > LINEAR_RANGE:
            raise ValueError(f"speed {self.speed} outside the linear range")
        if self.grid_size < 1 or self.grid_size % 2 == 0:
            raise ValueError("grid_size must be odd and positive")
        if self.debounce_width < 1:
            raise ValueError("debounce_width must be >= 1")
        if min(self.hold_ticks, self.settle_ticks) < 0:
            raise ValueError("hold_ticks and settle_ticks must be >= 0")
        if self.budget_factor <= 0:
            raise ValueError("budget_factor must be positive")

    def resolved_population(self) -> PopulationSpec:
        """Population spec with the run-level seed override applied."""
        if self.seed is None:
            return self.population
        return replace(self.population, seed=self.seed)

    @property
    def cell_seconds(self) -> float:
        """Travel time across one grid cell at the configured speed."""
        return self.pitch / self.speed


def cardinal_velocity(direction: str, speed: float) -> VelocityVector:
    return {
        "E": VelocityVector(speed, 0.0),
        "N": VelocityVector(0.0, speed),
        "W": VelocityVector(-speed, 0.0),
        "S": VelocityVector(0.0, -speed),
    }[direction]


def _steps_script(name: str, directions: Sequence[str], speed: float) -> PathScript:
    segments = tuple(Segment(cardinal_velocity(d, speed)) for d in directions)
    dx = directions.count("E") - directions.count("W")
    dy = directions.count("N") - directions.count("S")
    return PathScript(name=name, segments=segments, expected_final=(dx, dy))


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
        return tuple(t(v) for t, v in zip(get_args(hint), text.split(",")))
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
    """Write ``config`` as INI: one section per nested spec (``population``,
    ``filters``) and ``[run]`` for the remaining fields; unset optional
    fields are left out.  With a script, the file is a run manifest and
    also gets ``[script]`` and ``[meta]`` (the package version)."""
    parser = configparser.ConfigParser(interpolation=None)
    for f in fields(config):
        if is_dataclass(getattr(config, f.name)):
            parser[f.name] = _section(getattr(config, f.name))
    parser["run"] = _section(config)
    if script is not None:
        parser["script"] = _section(script)
        parser["meta"] = {"version": __version__}
    with open(path, "w") as fh:
        parser.write(fh)


def load_manifest(path) -> tuple[RunConfig, Optional[PathScript]]:
    """Read a file written by :func:`save_config`: the validated config,
    plus the script when the file is a run manifest.  A missing key takes
    its default; an unknown section or key raises ValueError."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        parser.read_file(fh)
    hints = get_type_hints(RunConfig)
    kwargs: dict = {}
    script = None
    for name in parser.sections():
        section = parser[name]
        if name == "run":
            kwargs.update(_fields_from(RunConfig, section))
        elif name == "script":
            script = PathScript(**_fields_from(PathScript, section))
            script.validate()
        elif name == "meta":
            if set(section) - {"version"}:
                raise ValueError(f"unknown key in [meta]: {sorted(section)}")
        elif is_dataclass(hints.get(name)):
            kwargs[name] = hints[name](**_fields_from(hints[name], section))
        else:
            raise ValueError(f"unknown section [{name}]")
    config = RunConfig(**kwargs)
    config.validate()
    return config, script


def load_config(path) -> RunConfig:
    """The run configuration of an INI file or run manifest."""
    return load_manifest(path)[0]
