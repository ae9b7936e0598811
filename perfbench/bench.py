"""Workloads, metrics and output fingerprints of the thetanav benchmark.

Three closed-loop workloads, one client each, drive the public
``thetanav.harness`` API: ``track``, ``sweep`` and ``field_map`` (see
DESIGN.md for why each exists).  A workload seed picks the population
seeds from a pool of ``POOL`` seeds; ``golden.json`` holds the outputs
this pool gave when the benchmark was defined, so every op of every run
is checked against them.

Importing this module imports the simulator and starts nothing;
``run.py`` is the entry point.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from thetanav import harness
from thetanav.config import RunConfig, built_in_scripts
from thetanav.theta_core import VelocityVector
from thetanav.vector_net import CompileError, TargetLocation

import tracer

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("sim_ticks_per_s", "ticks/s"),
    ("peak_rss_mb", "MB"),
)
POOL = 128              # population seeds covered by golden.json
# Set-ups per run.  Track and field_map build one rig per population and
# spread their ops over the rigs, which also averages out how populations
# differ in ticks per track and in compile failures per field map.
SETUPS = 6
SWEEP_STRIDE = 32       # sweep run w starts at population seed 32 * w
SCRIPTS = ("path1_meander", "path2_detour", "path3_loop")
SWEEP_SCRIPT = "path3_loop"
FIELD_VELOCITY = VelocityVector(0.25, 0.0)
# Workload seed 1000 is held out: later claims must also hold on it, and
# nothing was tuned on it.  Its track and field_map populations (112-117)
# are outside those of seeds 0-9.
GOLDEN_PATH = Path(__file__).with_name("golden.json")


def rig_population_seeds(seed: int) -> list[int]:
    return [(SETUPS * seed + i) % POOL for i in range(SETUPS)]


def sweep_population_seed(seed: int, k: int) -> int:
    return (SWEEP_STRIDE * seed + k) % POOL


def seeded_config(population_seed: int) -> RunConfig:
    return replace(RunConfig(), seed=population_seed)


# --------------------------------------------------------------- fingerprints

def track_fingerprint(result) -> dict:
    return {"events": [[e.direction, e.tick] for e in result.events],
            "final": list(result.final), "ticks": result.ticks}


def sweep_fingerprint(outcome, result) -> dict:
    fp = {"final": None if outcome.final is None else list(outcome.final),
          "ok": outcome.ok, "n_events": outcome.n_events}
    if result is not None:
        fp.update(events=[[e.direction, e.tick] for e in result.events],
                  ticks=result.ticks)
    return fp


def field_map_fingerprint(result, failed: dict, cells) -> dict:
    """Failed cells, plus a hash of first_fire over every designated cell
    (a cell that did not compile reads ``compile_error``)."""
    lines = []
    for cell in cells:
        if cell in failed:
            value = "compile_error"
        else:
            value = str(result.first_fire[cell])
        lines.append(f"{cell[0]},{cell[1]},{value}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {"failed": sorted([list(c) for c in failed]),
            "first_fire_sha256": digest,
            "session_ticks": result.session_ticks}


def error_fingerprint(error: str) -> dict:
    return {"error": error.split(":", 1)[0]}


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def fingerprint_matches(golden: dict, key: tuple, fingerprint: dict) -> bool:
    """True when the fingerprint equals the golden entry at key."""
    expected = golden
    for part in key:
        if not isinstance(expected, dict) or part not in expected:
            return False
        expected = expected[part]
    return json.loads(json.dumps(fingerprint)) == expected


# -------------------------------------------------------------------- metrics

def tail_percentile(n: int) -> int:
    """Highest whole percentile q (at most 90) with at least ten of n
    samples above it, as ``numpy.percentile`` interpolates: ten lie above
    when q * (n - 1) / 100 < n - 10.  Below 20 samples not even the median
    has ten above, and the median is used."""
    if n < 2:
        return 50
    return max(50, min(90, (100 * (n - 10) - 1) // (n - 1)))


def fail_frac(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 0.0


def arrival_errors(events, resets, hold_ticks: int,
                   arrival_ticks: int) -> list[int]:
    """Per event, fire tick minus (last reset tick + hold) minus the
    predicted arrival, in ticks.  Uses events and resets only: trace
    indices leave out the reset holds and are not on this tick axis."""
    errors = []
    for _, tick in events:
        last_reset = max(t for t, _ in resets if t <= tick)
        errors.append(tick - (last_reset + hold_ticks) - arrival_ticks)
    return errors


def arrival_err_frac(errors: list[tuple[int, int]]) -> float:
    """Mean of |error| / predicted arrival over (error, arrival) ticks."""
    return statistics.fmean(abs(e) / arrival for e, arrival in errors)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ workloads

@dataclass
class OpRecord:
    """One timed op and what its outputs say."""

    key: tuple
    fingerprint: dict
    seconds: float = 0.0    # host seconds
    scale: float = 1.0      # reference seconds per host second, see Probe
    ticks: int = 0
    cells: int = 0
    failed_cells: int = 0
    success: Optional[bool] = None
    arrival_err_ticks: list = field(default_factory=list)
    arrival_ticks: int = 0
    causes: list = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def _track_events(result) -> list[tuple[str, int]]:
    return [(e.direction, e.tick) for e in result.events]


class RigWorkload:
    """Set-up ``prepare(i)`` builds the rig of population i; op k uses rig
    ``rig_index(k)``."""

    def __init__(self, seed: int, workdir: Path):
        self.population_seeds = rig_population_seeds(seed)
        self.workdir = workdir
        self.rigs = []

    def prepare(self, i: int) -> None:
        config = seeded_config(self.population_seeds[i])
        self.rigs.append((config.seed, config, harness.build_rig(config)))


class TrackWorkload(RigWorkload):
    """One op: ``run_track`` of one built-in script on a prebuilt rig,
    then ``emit`` into a fresh directory.  Ops cycle over the scripts,
    then over the run's populations."""

    name = "track"

    def rig_index(self, k: int) -> int:
        return (k // len(SCRIPTS)) % len(self.rigs)

    def op(self, k: int):
        s, config, rig = self.rigs[self.rig_index(k)]
        script = built_in_scripts(config.speed)[SCRIPTS[k % len(SCRIPTS)]]
        result = harness.run_track(config, script, rig=rig)
        harness.emit(result, self.workdir / f"op{k:06d}", config, script)
        return (script, config, result)

    def key(self, k: int) -> tuple:
        s = self.rigs[self.rig_index(k)][0]
        return ("track", str(s), SCRIPTS[k % len(SCRIPTS)])

    def record(self, k: int, raw) -> OpRecord:
        script, config, result = raw
        arrival = result.diagnostics["arrival_ticks"]
        return OpRecord(
            key=self.key(k), fingerprint=track_fingerprint(result),
            ticks=result.ticks, success=result.final == script.expected_final,
            arrival_err_ticks=arrival_errors(
                _track_events(result), result.resets, config.hold_ticks,
                arrival),
            arrival_ticks=arrival)


class SweepWorkload:
    """One op: ``sweep_seeds(replace(config, seed=s), path3_loop, 1)``,
    so each op samples, calibrates and builds a fresh rig."""

    name = "sweep"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self, i: int) -> None:
        self.config = RunConfig()
        self.script = built_in_scripts(self.config.speed)[SWEEP_SCRIPT]

    def op(self, k: int):
        captured: list = []
        with capture_run_track(captured):
            sweep = harness.sweep_seeds(
                replace(self.config, seed=sweep_population_seed(self.seed, k)),
                self.script, 1)
        return (sweep.outcomes[0], captured[-1] if captured else None)

    def key(self, k: int) -> tuple:
        return ("sweep", str(sweep_population_seed(self.seed, k)))

    def record(self, k: int, raw) -> OpRecord:
        outcome, result = raw
        rec = OpRecord(key=self.key(k),
                       fingerprint=sweep_fingerprint(outcome, result),
                       success=outcome.ok)
        if result is not None:
            rec.ticks = result.ticks
            rec.arrival_ticks = result.diagnostics["arrival_ticks"]
            rec.arrival_err_ticks = arrival_errors(
                _track_events(result), result.resets, self.config.hold_ticks,
                rec.arrival_ticks)
        else:
            rec.causes = [outcome.cause]
        return rec


@contextlib.contextmanager
def capture_run_track(sink: list):
    """Keep every TrackResult that ``harness.run_track`` returns, so the
    sweep can be fingerprinted; ``sweep_seeds`` looks the name up there."""
    original = harness.run_track

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    harness.run_track = keep
    try:
        yield
    finally:
        harness.run_track = original


def designated_cells(grid_size: int) -> list[tuple[int, int]]:
    half = grid_size // 2
    return [(x, y) for y in range(-half, half + 1)
            for x in range(-half, half + 1)]


def cell_target(config: RunConfig, cell: tuple[int, int]) -> TargetLocation:
    x, y = cell
    return TargetLocation(config.pitch * math.hypot(x, y), math.atan2(y, x))


def map_all_cells(config: RunConfig, rig) -> tuple:
    """Attempt every designated cell: a cell whose lookup does not compile
    is recorded with its cause, the rest are mapped by one field_map."""
    cells = designated_cells(config.grid_size)
    failed = {}
    for cell in cells:
        try:
            rig.compile_target(cell_target(config, cell))
        except CompileError as exc:
            failed[cell] = str(exc)
    ok_cells = [c for c in cells if c not in failed]
    result = harness.field_map(config, FIELD_VELOCITY, targets=ok_cells,
                               rig=rig)
    return result, failed, cells


class FieldMapWorkload(RigWorkload):
    """One op: the full 11x11 map at velocity (0.25, 0) on one rig; ops
    cycle over the run's populations."""

    name = "field_map"

    def rig_index(self, k: int) -> int:
        return k % len(self.rigs)

    def op(self, k: int):
        s, config, rig = self.rigs[self.rig_index(k)]
        return map_all_cells(config, rig)

    def key(self, k: int) -> tuple:
        return ("field_map", str(self.rigs[self.rig_index(k)][0]))

    def record(self, k: int, raw) -> OpRecord:
        result, failed, cells = raw
        return OpRecord(
            key=self.key(k),
            fingerprint=field_map_fingerprint(result, failed, cells),
            ticks=result.session_ticks, cells=len(cells),
            failed_cells=len(failed), causes=list(failed.values()))


WORKLOAD_TYPES = {w.name: w for w in
                  (TrackWorkload, SweepWorkload, FieldMapWorkload)}


# ---------------------------------------------------------------- host speed

# This box's speed drifts by up to 1.8x over minutes, in every process
# alike, so identical ops run 0.19-0.38 s.  Every timing is therefore
# taken next to a fixed probe that does not touch the simulator, and is
# reported in reference seconds: host seconds times PROBE_REF_S over the
# probe's current time.  PROBE_REF_S is the probe's median on the 2-core
# box the baseline was measured on, so there the two units agree.
PROBE_REF_S = 0.014


class Probe:
    """A fixed numpy, scipy and interpreter kernel of about 14 ms."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.phase = rng.random((2000, 360))
        self.rate = rng.random(360)
        self.bits = (rng.random((2000, 40)) < 0.5).astype(float)

    def _seconds(self) -> float:
        start = time.perf_counter()
        ((self.phase + 3.7 * self.rate) % 1.0 < 0.5).astype(np.uint8)
        fir = lfilter(np.full(9, 1.0 / 9), [1.0], self.bits, axis=0)
        lfilter([0.0625], [1.0, -0.9375], fir, axis=0)
        total = 0
        for i in range(20000):
            total += i * i
        return time.perf_counter() - start

    def scale(self) -> float:
        """Reference seconds per host second, from the faster of two runs."""
        return PROBE_REF_S / min(self._seconds(), self._seconds())


# --------------------------------------------------------------------- runner

@dataclass
class RunResult:
    ops: list           # every op, untraced and traced
    golden_ok: bool
    end_to_end: dict    # name -> (value, unit), from the untraced ops
    per_layer: dict     # name -> (value, unit), from the traced ops
    report: list


def measure(workload, probe: Probe, seconds: float,
            start: int = 0) -> list[OpRecord]:
    """Closed loop: the next op starts when the previous one returned,
    until ``seconds`` have passed (at least one op)."""
    ops = []
    begin = time.perf_counter()
    while not ops or time.perf_counter() - begin < seconds:
        k = start + len(ops)
        scale = probe.scale()
        t0 = time.perf_counter()
        try:
            raw = workload.op(k)
        except Exception as exc:   # a failed op is counted, not fatal
            elapsed = time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
            rec = OpRecord(key=workload.key(k),
                           fingerprint=error_fingerprint(error), error=error)
        else:
            elapsed = time.perf_counter() - t0
            rec = workload.record(k, raw)
        rec.seconds, rec.scale = elapsed, scale
        ops.append(rec)
    return ops


def end_to_end_metrics(ops: list, setup_s: float) -> dict:
    times = np.array([o.ref_seconds for o in ops])
    values = {
        "setup_s": setup_s,
        "op_p50_s": float(np.percentile(times, 50)),
        "op_tail_s": float(np.percentile(times, tail_percentile(len(ops)))),
        "ops_per_s": len(ops) / float(times.sum()),
        "sim_ticks_per_s": sum(o.ticks for o in ops) / float(times.sum()),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        import_s: float, workdir: Path) -> RunResult:
    """Set up, measure for ``seconds`` and check every op's outputs.

    ``setup_s`` is the time before the first timed op: the import, the
    SETUPS set-ups (counted at their median, so one slow build does not
    move it) and one untimed warm-up op, which lets lazy first-call work
    finish.  ``import_s`` is the host time the caller took to import the
    simulator.  Over fresh interpreters it varies by about 20% in a way
    no single probe follows, so it is rescaled by the run's median probe
    reading, which follows only the slow drift of the host's speed.

    With ``trace`` the first half of the time is measured untraced and
    the second half traced; the per-layer figures come from the traced
    half and the tracing overhead is the difference of the halves'
    median op latency.
    """
    probe = Probe()
    workload = WORKLOAD_TYPES[workload_name](seed, workdir)
    setups, scales = [], []
    for i in range(SETUPS):
        scales.append(probe.scale())
        t0 = time.perf_counter()
        workload.prepare(i)
        setups.append((time.perf_counter() - t0) * scales[-1])
    scales.append(probe.scale())
    t0 = time.perf_counter()
    workload.op(0)
    warm_up = (time.perf_counter() - t0) * scales[-1]

    per_layer = {}
    if trace:
        ops = measure(workload, probe, seconds / 2)
        with tracer.Tracer() as t:
            traced = measure(workload, probe, seconds / 2, start=len(ops))
        per_layer = t.metrics(len(traced), statistics.median(
            o.scale for o in traced))
        overhead = (statistics.median(o.ref_seconds for o in traced)
                    - statistics.median(o.ref_seconds for o in ops))
        per_layer["bench.trace_overhead_s"] = (overhead, "s")
    else:
        ops, traced = measure(workload, probe, seconds), []

    all_ops = ops + traced
    import_ref = import_s * statistics.median(
        scales + [o.scale for o in all_ops])
    setup_s = import_ref + SETUPS * statistics.median(setups) + warm_up

    golden = load_golden()
    golden_ok = all(fingerprint_matches(golden, o.key, o.fingerprint)
                    for o in all_ops)
    e2e = end_to_end_metrics(ops, setup_s)
    report = describe(workload, seed, all_ops, ops, e2e, golden_ok, golden)
    report.insert(1, f"  set-up: import {import_ref:.4f} s + {SETUPS} x "
                  "median of " + ", ".join(f"{t:.4f}" for t in setups)
                  + f" s + warm-up op {warm_up:.4f} s")
    return RunResult(ops=all_ops, golden_ok=golden_ok, end_to_end=e2e,
                     per_layer=per_layer, report=report)


def describe(workload, seed, all_ops, ops, e2e, golden_ok,
             golden) -> list[str]:
    """Human-readable report: every end-to-end metric with its unit."""
    n = len(ops)
    scales = [o.scale for o in ops]
    lines = [f"workload {workload.name} seed {seed}: {n} timed ops; times in "
             f"reference seconds, host speed x{statistics.median(scales):.3f}"
             f" (range {min(scales):.3f}-{max(scales):.3f})"]
    raw = np.array([o.seconds for o in ops])
    extra = {
        "op_p50_s": f"n={n}; host {np.percentile(raw, 50):.4f} s",
        "op_tail_s": f"p{tail_percentile(n)} of n={n}; host "
                     f"{np.percentile(raw, tail_percentile(n)):.4f} s",
    }
    for name, (value, unit) in e2e.items():
        lines.append(f"  {name:<18} {value:>12.6g} {unit:<8} "
                     f"{extra.get(name, '')}")
    if workload.name == "field_map":
        attempted = sum(o.cells for o in all_ops)
        failed = sum(o.failed_cells for o in all_ops)
        what = "cells"
    else:
        attempted, failed = len(all_ops), sum(o.error is not None
                                              for o in all_ops)
        what = "ops"
    lines.append(f"  {'fail_frac':<18} {fail_frac(attempted, failed):>12.6g} "
                 f"{'ratio':<8} {failed}/{attempted} {what}")
    if workload.name != "field_map":
        scored = [o.success for o in all_ops if o.success is not None]
        lines.append(f"  {'success_frac':<18} "
                     f"{sum(scored) / max(len(scored), 1):>12.6g} "
                     f"{'ratio':<8} final cell == expected_final")
        errors = [(e, o.arrival_ticks) for o in all_ops
                  for e in o.arrival_err_ticks]
        if errors:
            ticks = [e for e, _ in errors]
            lines.append(
                f"  {'arrival_err_frac':<18} {arrival_err_frac(errors):>12.6g} "
                f"{'ratio':<8} errors {min(ticks)}..{max(ticks)} ticks vs "
                f"predicted {errors[0][1]}")
    lines.append(f"  {'fingerprint_ok':<18} {int(golden_ok):>12d} {'flag':<8} "
                 f"{len(all_ops)} ops checked against golden.json")
    if workload.name == "field_map":
        per_population = {o.key[1]: o.failed_cells for o in all_ops}
        lines.append("  compile failures per population: " + ", ".join(
            f"{s}: {k}/{all_ops[0].cells}" for s, k in per_population.items()))
    causes = Counter(c for o in all_ops for c in o.causes)
    for cause, count in causes.most_common():
        lines.append(f"  failure cause x{count}: {cause}")
    for o in all_ops:
        if not fingerprint_matches(golden, o.key, o.fingerprint):
            lines.append(f"  MISMATCH {'/'.join(o.key)}: {o.fingerprint}")
            break
    return lines
