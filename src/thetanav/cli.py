"""Command-line entry points for calibration, compilation, tracking,
field maps, seed sweeps and the node-count calculator."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .chip_io import ChipState, calibrate, write_fit_report_csv
from .config import PathScript, RunConfig, built_in_scripts, load_config
from .harness import (
    build_rig,
    emit,
    field_map,
    run_track,
    sweep_seeds,
    write_field_map_csv,
)
from .theta_core import VelocityVector, sample_population
from .vector_net import TargetLocation, serialize_mux, sharable_nodes, total_nodes


def _load_or_default(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def _script(args, config: RunConfig) -> PathScript:
    scripts = built_in_scripts(config.speed)
    if args.script not in scripts:
        raise ValueError(f"unknown script {args.script!r}; choose from "
                         f"{sorted(scripts)}")
    return scripts[args.script]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run configuration INI file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the population seed")


def cmd_calibrate(args) -> int:
    config = _load_or_default(args)
    population = sample_population(config.population, config.seed)
    chip = ChipState(population)
    fits = calibrate(chip)
    write_fit_report_csv(args.out, fits)
    print(f"wrote {len(fits)} unit fits to {args.out}")
    return 0


def cmd_compile(args) -> int:
    config = _load_or_default(args)
    r, theta = (float(x) for x in args.target.split(","))
    target = TargetLocation(r, theta)   # before the rig is built
    mux = build_rig(config).compile_target(target)
    Path(args.out).write_text(serialize_mux(mux))
    print(f"wrote lookup table for target (r={r}, theta={theta}) to "
          f"{args.out}; dropped groups: {mux.dropped}")
    return 0


def cmd_track(args) -> int:
    config = _load_or_default(args)
    script = _script(args, config)
    result = run_track(config, script)
    files = emit(result, args.out, config, script)
    print(f"final location {result.final} after {len(result.events)} events "
          f"in {result.ticks} ticks; wrote {len(files)} files to {args.out}")
    return 0


def cmd_field_map(args) -> int:
    config = _load_or_default(args)
    vx, vy = (float(x) for x in args.velocity.split(","))
    if args.stride < 1:   # before the rig is built and the session run
        raise ValueError(f"stride must be >= 1, got {args.stride}")
    result = field_map(config, VelocityVector(vx, vy),
                       session_ticks=args.session_ticks)
    files = write_field_map_csv(result, args.out, stride=args.stride)
    fired = sum(1 for v in result.first_fire.values() if v is not None)
    print(f"{fired}/{len(result.cells)} designated cells fired, "
          f"{len(result.failed)} failed to compile; wrote "
          f"{len(files)} files to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    config = _load_or_default(args)
    result = sweep_seeds(config, _script(args, config), args.seeds)
    for o in result.outcomes:
        status = "ok" if o.ok else "FAIL"
        print(f"seed {o.seed}: {status} ({o.cause}; {o.n_events} events)")
    print(f"success fraction: {result.success_fraction:.2f}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            fh.write("seed,ok,final_x,final_y,n_events,cause\n")
            for o in result.outcomes:
                fx, fy = o.final if o.final is not None else ("", "")
                fh.write(f"{o.seed},{int(o.ok)},{fx},{fy},{o.n_events},"
                         f"\"{o.cause}\"\n")
    return 0


def cmd_nodes(args) -> int:
    shared = sharable_nodes(args.M, args.N)
    total = total_nodes(args.M, args.N, args.K)
    unshared = args.K * total_nodes(args.M, args.N, 1)
    print(f"sharable nodes: {shared}")
    print(f"total nodes for {args.K} network(s): {total} "
          f"(vs {unshared} unshared)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetanav",
        description="Oscillator-interference localization simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit every unit's frequency law")
    _add_common(p)
    p.add_argument("--out", required=True, help="fit report CSV path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("compile", help="compile a lookup table for a target")
    _add_common(p)
    p.add_argument("--target", required=True,
                   help="target as 'r,theta' (spatial units, radians)")
    p.add_argument("--out", required=True, help="lookup table output path")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("track", help="run a path script on the place grid")
    _add_common(p)
    p.add_argument("--script", required=True,
                   help="path1_meander, path2_detour or path3_loop")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("field-map", help="map all designated cells' firing")
    _add_common(p)
    p.add_argument("--velocity", required=True, help="input velocity 'vx,vy'")
    p.add_argument("--session-ticks", type=int, default=None)
    p.add_argument("--stride", type=int, default=64,
                   help="ticks between occupancy matrices")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_field_map)

    p = sub.add_parser("sweep", help="score a script over many seeds")
    _add_common(p)
    p.add_argument("--script", required=True)
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--out", default=None, help="per-seed CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("nodes", help="sharable/total node calculator")
    p.add_argument("-M", type=int, required=True, help="theta cell count")
    p.add_argument("-N", type=int, required=True, help="layer count")
    p.add_argument("-K", type=int, default=1, help="network count")
    p.set_defaults(func=cmd_nodes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
