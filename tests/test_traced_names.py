"""The benchmark's tracer wraps the simulator's functions by name and
reads 0 for a name the program no longer has; every name it asks for
must exist, or a per-layer metric silently stops measuring."""

import importlib.util
from pathlib import Path

from thetanav import harness
from thetanav.config import (PathScript, RunConfig, Segment,
                             built_in_scripts, cardinal_velocity)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer().Tracer()
    asked = []
    tracer._patch = lambda owner, attr, *args: asked.append((owner, attr))
    tracer.install()
    assert len(asked) == 20
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in asked if getattr(owner, attr, None) is None]
    assert missing == []


def test_traced_filter_node_ticks_equal_the_streamed_banks(rig, monkeypatch):
    # A tracking session streams its scan through the rig's cardinal
    # layout in blocks; the traced filter spans must count every node
    # of every block, so the node-tick metrics cannot silently read 0.
    blocks = []
    original = harness._observe

    def counted(frames, networks, bank):
        blocks.append(len(frames))
        return original(frames, networks, bank)

    monkeypatch.setattr(harness, "_observe", counted)
    config = RunConfig()
    slow = PathScript(name="slow", segments=(
        Segment(cardinal_velocity("S", config.speed / 2)),))
    with load_tracer().Tracer() as tracer:
        for script in (built_in_scripts(config.speed)["path1_meander"], slow):
            harness.run_track(config, script, rig=rig)
    metrics = tracer.metrics(n_ops=1)
    # The meander filters three first blocks, the slow leg two.
    assert blocks == [267] * 5
    ticks = sum(blocks)
    name = "vector_net.filter_stage_batch.l{}.node_ticks"
    assert metrics[name.format(1)] == (
        ticks * len(rig.layout.l1_inputs), "count/op")
    assert metrics[name.format(2)] == (
        ticks * len(rig.layout.l2_inputs), "count/op")
    assert metrics[name.format(2)][0] > 0
