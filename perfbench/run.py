"""Run one thetanav benchmark workload and print its metrics.

    python3 perfbench/run.py --workload track --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the repository root; the simulator is imported from ``src/``.
Each workload runs in its own process (``all`` starts one per workload,
one after another), so peak memory is per workload.  Stdout holds a
report of every metric with its unit, the platform, and as its last line
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The exit code is 1 when an output differs from
``golden.json`` and 2 when the simulator sources are missing.
"""

import os

# Single-threaded numerics: cap BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("track", "sweep", "field_map")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a child process of its own, one at a time."""
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        worst = max(worst, done.returncode)
    return worst


def platform_line() -> str:
    import numpy
    import scipy
    return (f"platform: nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} machine={platform.machine()}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "thetanav" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC.name}/thetanav",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import bench
    import_s = time.perf_counter() - start
    if Path(bench.harness.__file__).resolve().parents[1] != SRC:
        print("perfbench: thetanav was not imported from src/",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = bench.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), import_s, workdir)
    finally:
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass   # another run still uses it

    for line in result.report:
        print(line)
    metrics = result.per_layer if args.trace else result.end_to_end
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:>14.6g} {unit}")
    print(platform_line())
    failed = sum(o.error is not None for o in result.ops)
    print(json.dumps({
        "correct": result.golden_ok,
        "attempted": len(result.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if result.golden_ok else 1


if __name__ == "__main__":
    sys.exit(main())
