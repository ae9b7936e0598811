"""Rewrite golden.json: the outputs of every pool population seed.

    python3 perfbench/capture_golden.py

Run it only on a commit whose behaviour is the reference; every later
benchmark run is checked against the file it writes.  It takes about
three seconds per population seed on one core.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
from thetanav import harness  # noqa: E402
from thetanav.config import built_in_scripts  # noqa: E402


def _guarded(fingerprint_of):
    try:
        return fingerprint_of()
    except Exception as exc:   # the golden file records the failure itself
        return bench.error_fingerprint(f"{type(exc).__name__}: {exc}")


def capture_seed(s: int) -> tuple[dict, dict, dict]:
    config = bench.seeded_config(s)
    rig = harness.build_rig(config)
    scripts = built_in_scripts(config.speed)
    track = {
        name: _guarded(lambda: bench.track_fingerprint(
            harness.run_track(config, scripts[name], rig=rig)))
        for name in bench.SCRIPTS}
    field_map = _guarded(lambda: bench.field_map_fingerprint(
        *bench.map_all_cells(config, rig)))
    sink: list = []
    with bench.capture_run_track(sink):
        sweep = harness.sweep_seeds(config, scripts[bench.SWEEP_SCRIPT], 1)
    result = sink[-1] if sink else None
    return track, bench.sweep_fingerprint(sweep.outcomes[0], result), field_map


def main() -> int:
    golden = {"track": {}, "sweep": {}, "field_map": {}}
    for s in range(bench.POOL):
        track, sweep, field_map = capture_seed(s)
        golden["track"][str(s)] = track
        golden["sweep"][str(s)] = sweep
        golden["field_map"][str(s)] = field_map
        print(f"population seed {s}: {len(field_map.get('failed', []))} "
              f"cells fail to compile", flush=True)
    bench.GOLDEN_PATH.write_text(dump(golden))
    return 0


def dump(golden: dict) -> str:
    """JSON with one line per population seed, so diffs stay readable."""
    sections = []
    for name, entries in golden.items():
        rows = ",\n".join(
            f"  {json.dumps(s)}: {json.dumps(entry, sort_keys=True)}"
            for s, entry in entries.items())
        sections.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
