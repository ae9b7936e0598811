"""Outside-in tracing of the simulator's public functions.

A traced benchmark run replaces each public function at the name its
caller looks up, times every call and counts the work it was given, then
puts every original back.  Names matter because ``harness`` binds
``scan_frames``, ``calibrate``, ``program``, ``compile_lookup``,
``select_units``, ``pair_layer1`` and ``sample_population`` with
``from ... import``: a tracking scan is seen at ``thetanav.harness``
while the calibration scans inside ``calibrate`` are seen at
``thetanav.chip_io``.  ``harness`` imports ``debounce`` and
``apply_pulse`` inside its functions, so those are seen at
``thetanav.place_grid``.

Spans nest: a span's self time is its duration minus the durations of
the traced spans directly inside it.  Totals are kept in memory, and
:meth:`Tracer.metrics` turns them into per-op figures.  A name the
program no longer has is left alone, and its metrics read 0.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from thetanav import chip_io, harness, place_grid, vector_net

# Every per-layer metric, in report order.  Names ending in ``.s`` or
# ``.self_s`` are seconds per op, ``.bytes`` bytes per op, the two
# ``_frac`` names are ratios and the rest are counts per op.
LAYER_METRICS = (
    "theta_core.sample_population.s",
    "chip_io.calibrate.s",
    "chip_io.scan_frames.cal.s",
    "chip_io.scan_frames.cal.samples",
    "chip_io.estimate_frequency.s",
    "chip_io.estimate_frequency.calls",
    "chip_io.fit_unit.s",
    "chip_io.program.s",
    "chip_io.select_units.s",
    "chip_io.scan_frames.track.s",
    "chip_io.scan_frames.track.samples",
    "harness.scan_used_frac",
    "vector_net.VectorNetwork.run.s",
    "vector_net.VectorNetwork.run.ticks",
    "vector_net.filter_stage_batch.l1.s",
    "vector_net.filter_stage_batch.l1.node_ticks",
    "vector_net.filter_stage_batch.l2.s",
    "vector_net.filter_stage_batch.l2.node_ticks",
    "vector_net.schmitt_batch.s",
    "vector_net.l1_unique_frac",
    "vector_net.compile_lookup.s",
    "vector_net.compile_lookup.calls",
    "vector_net.compile_lookup.failed",
    "vector_net.pair_layer1.s",
    "place_grid.debounce.s",
    "place_grid.debounce.calls",
    "place_grid.apply_pulse.s",
    "harness.emit.s",
    "harness.emit.bytes",
    "harness.emit.files",
    "harness.run_track.self_s",
    "harness.field_map.self_s",
    "harness.build_rig.self_s",
)


def layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith((".s", ".self_s")):
        return "s/op"
    if name.endswith(".bytes"):
        return "bytes/op"
    return "count/op"


class Tracer:
    """Wraps the simulator's public functions while in a ``with`` block."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []          # [span name, child seconds]
        self._patched: list[tuple] = []       # (owner, attribute, original)
        self._l1_frames = None
        self._l1_inputs: set = set()

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def install(self) -> None:
        span = self._patch
        span(harness, "sample_population", "theta_core.sample_population")
        span(harness, "calibrate", "chip_io.calibrate")
        span(chip_io, "scan_frames", "chip_io.scan_frames.cal",
             self._count_scan)
        span(chip_io, "estimate_frequency", "chip_io.estimate_frequency")
        span(chip_io, "fit_unit", "chip_io.fit_unit")
        span(chip_io, "program", "chip_io.program")
        span(harness, "program", "chip_io.program")
        span(harness, "select_units", "chip_io.select_units")
        span(harness, "scan_frames", "chip_io.scan_frames.track",
             self._count_scan)
        span(vector_net.VectorNetwork, "run", "vector_net.VectorNetwork.run",
             self._count_network_run)
        span(vector_net, "filter_stage_batch", _filter_stage_name,
             self._count_filter_stage)
        span(vector_net, "schmitt_batch", "vector_net.schmitt_batch")
        span(harness, "compile_lookup", "vector_net.compile_lookup")
        span(harness, "pair_layer1", "vector_net.pair_layer1")
        span(place_grid, "debounce", "place_grid.debounce")
        span(place_grid, "apply_pulse", "place_grid.apply_pulse")
        span(harness, "emit", "harness.emit", self._count_emit)
        span(harness, "run_track", "harness.run_track", self._count_track)
        span(harness, "field_map", "harness.field_map")
        span(harness, "build_rig", "harness.build_rig")

    def restore(self) -> None:
        """Put every wrapped attribute back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, name, count=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return   # the program no longer has this name; it reads 0
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, count))

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            self._stack.append([label, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(label, start)
                self.totals[label + ".failed"] += 1
                raise
            self._close(label, start)
            if count is not None:
                count(label, args, result)
            return result
        return traced

    def _close(self, label: str, start: float) -> None:
        duration = time.perf_counter() - start
        _, child = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        self.totals[label + ".s"] += duration
        self.totals[label + ".self_s"] += duration - child
        self.totals[label + ".calls"] += 1

    def _count_scan(self, label, args, frames) -> None:
        self.totals[label + ".samples"] += frames.size
        if label.endswith(".track") and any(
                span[0] == "harness.run_track" for span in self._stack):
            self.totals["track_ticks_scanned"] += frames.shape[0]

    def _count_track(self, label, args, result) -> None:
        self.totals["track_ticks_kept"] += result.traces["E"].size

    def _count_network_run(self, label, args, outputs) -> None:
        network, frames = args[0], args[1]
        self.totals[label + ".ticks"] += frames.shape[0]
        if not hasattr(network, "input_pos"):
            return
        # Networks that read the same scan could share layer-1 nodes with
        # the same routed inputs; count the distinct ones per scan.
        if frames is not self._l1_frames:
            self._flush_l1()
            self._l1_frames = frames
        self._l1_inputs.update(
            map(tuple, network.input_pos.reshape(-1, 2).tolist()))
        self.totals["l1_nodes"] += network.n_pairs

    def _flush_l1(self) -> None:
        self.totals["l1_unique"] += len(self._l1_inputs)
        self._l1_inputs = set()
        self._l1_frames = None

    def _count_filter_stage(self, label, args, outputs) -> None:
        self.totals[label + ".node_ticks"] += args[0].size

    def _count_emit(self, label, args, paths) -> None:
        self.totals[label + ".files"] += len(paths)
        self.totals[label + ".bytes"] += sum(p.stat().st_size for p in paths)

    def metrics(self, n_ops: int,
                time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Every name in LAYER_METRICS as (value, unit), per op of n_ops;
        times are multiplied by ``time_scale``."""
        self._flush_l1()
        values = {}
        for name in LAYER_METRICS:
            if name == "harness.scan_used_frac":
                value = _ratio(self.totals["track_ticks_kept"],
                               self.totals["track_ticks_scanned"])
            elif name == "vector_net.l1_unique_frac":
                value = _ratio(self.totals["l1_unique"],
                               self.totals["l1_nodes"])
            else:
                value = self.totals[name] / n_ops
                if layer_unit(name) == "s/op":
                    value *= time_scale
            values[name] = (float(value), layer_unit(name))
        return values


def _filter_stage_name(args, kwargs) -> str:
    layer = args[1] if len(args) > 1 else kwargs.get("layer", "")
    return f"vector_net.filter_stage_batch.l{layer}"


def _ratio(part: float, whole: float) -> float:
    """A layer that did no work reads 0."""
    return part / whole if whole else 0.0
