"""Node sharing across networks that read one scan: a node bank gives
every network exactly the bits it computes alone, and filters each
distinct node once, dropped groups left out."""

import math

import numpy as np
import pytest

from thetanav import harness, vector_net
from thetanav.config import RunConfig, cardinal_velocity
from thetanav.theta_core import VelocityVector
from thetanav.vector_net import CompileError, NodeBank

from reference_models import run_per_sample

CONFIG = RunConfig()
FIELD_VELOCITY = VelocityVector(0.25, 0.0)


def field_networks(rig):
    """Every cell of the default field map whose lookup compiles."""
    half = CONFIG.grid_size // 2
    networks = []
    for y in range(-half, half + 1):
        for x in range(-half, half + 1):
            try:
                networks.append(rig.network((x, y)))
            except CompileError:
                pass
    return networks


def assert_bank_matches_each_network_alone(frames, networks):
    bank = NodeBank(frames, networks)
    for net in networks:
        shared = net.run(frames, bank)
        alone = net.run(frames, NodeBank(frames, [net]))
        assert shared.dtype == alone.dtype == np.uint8
        assert shared.tobytes() == alone.tobytes()
    return bank


@pytest.mark.parametrize("direction", ["E", "N"])
def test_cardinal_bank_matches_each_network_alone(rig, direction):
    frames = harness._session(
        rig, cardinal_velocity(direction, CONFIG.speed), 2670)
    networks = list(rig.networks.values())
    bank = assert_bank_matches_each_network_alone(frames, networks)
    assert rig.networks[direction].run(frames, bank).any()
    assert bank.layer1.shape[1] < sum(net.n_pairs for net in networks)


def test_field_map_bank_matches_each_network_alone(rig):
    networks = field_networks(rig)
    frames = harness._session(rig, FIELD_VELOCITY, 2829)
    bank = assert_bank_matches_each_network_alone(frames, networks)
    assert len(networks) == 93
    assert sum(net.run(frames, bank).any() for net in networks) > 0
    assert bank.layer1.shape[1] < sum(net.n_pairs for net in networks) / 8


def test_one_network_matches_the_per_sample_reference(rig):
    frames = harness._session(rig, cardinal_velocity("E", CONFIG.speed), 400)
    net = rig.networks["E"]
    out = net.run(frames, NodeBank(frames, [net]))
    assert out.any() and not out.all()
    assert np.array_equal(out, run_per_sample(net, frames))


def test_field_map_filters_each_distinct_node_once(rig, monkeypatch):
    stages = []
    original = vector_net.filter_stage_batch

    def recorded(x, layer):
        stages.append((layer, x.shape))
        return original(x, layer)

    monkeypatch.setattr(vector_net, "filter_stage_batch", recorded)
    targets = [(x, y) for x in range(5, -6, -1) for y in range(-5, 6)]
    result = harness.field_map(CONFIG, FIELD_VELOCITY, targets=targets,
                               rig=rig)

    ticks = {shape[0] for _, shape in stages}
    assert ticks == {result.session_ticks}
    # Blocks no wider than one network's layer 1 bound the work arrays.
    assert all(shape[1] <= 40 for _, shape in stages)
    l1_node_ticks = sum(math.prod(shape) for layer, shape in stages
                        if layer == 1)
    l2_nodes = sum(shape[1] for layer, shape in stages if layer == 2)
    # At most 8 taps on each of 40 pairs, however many cells are mapped.
    assert l1_node_ticks <= result.session_ticks * 8 * 40

    monkeypatch.undo()
    active, every = set(), set()
    for net in field_networks(rig):
        inputs = net.input_pos.reshape(-1, 2)
        half = net.n_pairs // 2
        for g in range(half):
            key = (tuple(inputs[g]), tuple(inputs[half + g]))
            every.add(key)
            if g in net.active:
                active.add(key)
    assert l2_nodes == len(active) < len(every)

    # Cells come back in the order they were asked for.
    assert list(result.first_fire) == targets
    compiled = [c for c in targets if c not in result.failed]
    assert list(result.outputs) == list(result.events) == compiled


def test_bank_refuses_other_frames(rig):
    frames = harness._session(rig, FIELD_VELOCITY, 50)
    net = rig.networks["E"]
    bank = NodeBank(frames, [net])
    with pytest.raises(ValueError, match="other frames"):
        net.run(frames.copy(), bank)


def test_bank_of_no_ticks_or_no_networks(rig):
    frames = harness._session(rig, FIELD_VELOCITY, 0)
    net = rig.networks["E"]
    assert net.run(frames, NodeBank(frames, [net])).shape == (0,)
    bank = NodeBank(harness._session(rig, FIELD_VELOCITY, 20), [])
    assert bank.layer1.shape == bank.layer2.shape == (20, 0)
