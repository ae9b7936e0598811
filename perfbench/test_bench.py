"""Tests of the benchmark itself: its metrics, fingerprints and tracer."""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import bench  # noqa: E402
import tracer  # noqa: E402
from thetanav import harness  # noqa: E402


@pytest.mark.parametrize("n", [21, 22, 30, 47, 99, 100, 101, 250, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    q = bench.tail_percentile(n)
    values = np.arange(n, dtype=float)
    assert np.count_nonzero(values > np.percentile(values, q)) >= 10
    assert q == 90 or np.count_nonzero(
        values > np.percentile(values, q + 1)) < 10


def test_tail_percentile_fixed_points():
    assert [bench.tail_percentile(n) for n in (5, 19, 30, 100, 5000)] == \
        [50, 50, 68, 90, 90]


def test_fail_frac_on_fixed_inputs():
    assert bench.fail_frac(121, 28) == 28 / 121
    assert bench.fail_frac(10, 0) == 0.0
    assert bench.fail_frac(0, 0) == 0.0


def test_arrival_err_frac_on_fixed_inputs():
    resets = [(0, "trail_start"), (265, "vector_fire"), (472, "vector_fire")]
    events = [("S", 262), ("E", 469), ("S", 734)]
    errors = bench.arrival_errors(events, resets, hold_ticks=10,
                                  arrival_ticks=267)
    assert errors == [-15, -73, -15]
    frac = bench.arrival_err_frac([(e, 267) for e in errors])
    assert frac == pytest.approx((15 + 73 + 15) / 3 / 267)


def _patch_sites():
    probe = tracer.Tracer()
    probe.install()
    sites = [(owner, attr) for owner, attr, _ in probe._patched]
    probe.restore()
    return sites + [(harness, "run_track")]


@pytest.fixture(scope="module")
def traced_sweep(tmp_path_factory):
    """One untraced and one traced sweep op, with every patched name's
    original recorded before the run."""
    originals = {(owner, attr): getattr(owner, attr)
                 for owner, attr in _patch_sites()}
    result = bench.run("sweep", seed=0, seconds=0, trace=True, import_s=0.0,
                       workdir=tmp_path_factory.mktemp("work"))
    return result, originals


def test_traced_run_restores_every_wrapper(traced_sweep):
    result, originals = traced_sweep
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_traced_run_reports_every_layer(traced_sweep):
    result, _ = traced_sweep
    assert result.golden_ok
    assert list(result.per_layer) == list(tracer.LAYER_METRICS) + [
        "bench.trace_overhead_s"]
    layers = {name: value for name, (value, _) in result.per_layer.items()}
    # 4 calibration codes x 9 sweep velocities x 128 units.
    assert layers["chip_io.estimate_frequency.calls"] == 4608
    assert layers["vector_net.compile_lookup.calls"] == 4
    # path3_loop keeps about 210 of the 2,670 ticks each segment scans.
    assert 0.05 < layers["harness.scan_used_frac"] < 0.15
    assert 0 < layers["vector_net.l1_unique_frac"] <= 1
    assert layers["harness.run_track.self_s"] > 0


def test_one_changed_event_tick_fails_the_fingerprint(traced_sweep):
    result, _ = traced_sweep
    op = result.ops[0]
    golden = bench.load_golden()
    assert bench.fingerprint_matches(golden, op.key, op.fingerprint)
    changed = copy.deepcopy(golden)
    entry = changed[op.key[0]][op.key[1]]
    entry["events"][1][1] += 1
    assert not bench.fingerprint_matches(changed, op.key, op.fingerprint)


def test_field_map_counts_compile_failures():
    workload = bench.FieldMapWorkload(seed=0, workdir=None)
    workload.prepare(0)
    with tracer.Tracer() as t:
        raw = workload.op(0)
    record = workload.record(0, raw)
    assert (record.cells, record.failed_cells) == (121, 28)
    assert len(raw[0].cells) == 121 - 28
    assert all("active groups" in cause for cause in record.causes)
    layers = t.metrics(1)
    assert layers["vector_net.compile_lookup.failed"] == (28, "count/op")
    assert layers["vector_net.compile_lookup.calls"][0] == 121 + 93
    assert bench.fingerprint_matches(bench.load_golden(), record.key,
                                     record.fingerprint)
