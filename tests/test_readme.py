"""README drift guard: its command-line examples parse with the CLI's
parser, its Outputs tables name exactly the files ``track`` and
``field-map`` write and each CSV's header, and every constant its
removed-key table names exists."""

import argparse
import importlib
import re
import shlex
from pathlib import Path

import pytest

from thetanav import cli, harness
from thetanav.config import RunConfig, built_in_scripts
from thetanav.theta_core import VelocityVector

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def examples():
    blocks = re.findall(r"```sh\n(.*?)```", README, flags=re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("thetanav ")]


def removed_key_constants():
    """``module.NAME`` of every backquoted name in the Constant column."""
    table = README.split("| Removed key |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|") for line in table.splitlines()[2:]]
    return [m for row in rows
            for m in re.findall(r"`(\w+)\.(\w+)", row[2])]


def test_every_subcommand_has_an_example():
    parser = cli.build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    shown = sorted(line.split()[1] for line in examples())
    assert shown == sorted(sub.choices)


@pytest.mark.parametrize("line", examples())
def test_every_cli_example_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_every_removed_key_constant_exists():
    names = removed_key_constants()
    assert len(names) >= 10
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"thetanav.{module}"),
                              name)]
    assert missing == []


def output_tables():
    """Each Outputs table as (file, columns) pairs, in README order."""
    section = README.split("## Outputs\n", 1)[1].split("\n## ", 1)[0]
    tables = re.findall(r"\| File \| Columns \| Rows \|\n\|.*\|\n((?:\|.*\n)+)",
                        section)
    return [re.findall(r"^\| `([\w.]+)` \| ([^|]*) \|", table, flags=re.M)
            for table in tables]


def test_outputs_tables_match_the_written_files(rig, tmp_path):
    config = RunConfig()
    script = built_in_scripts(config.speed)["path3_loop"]
    result = harness.run_track(config, script, rig=rig)
    track = harness.emit(result, tmp_path / "run", config, script)
    mapped = harness.field_map(config, VelocityVector(0.25, 0.0),
                               targets=[(1, 0)], rig=rig)
    field_map = harness.write_field_map_csv(mapped, tmp_path / "map")
    for table, written in zip(output_tables(), (track, field_map),
                              strict=True):
        assert [name for name, _ in table] == [p.name for p in written]
        for name, columns in table:
            if name.endswith(".csv"):
                text = (written[0].parent / name).read_text()
                assert f"`{text.splitlines()[0]}`" == columns, name
