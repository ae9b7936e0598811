"""Node sharing across networks that read one scan: a node bank gives
every network exactly the bits it computes alone, filters each
distinct node once, dropped groups left out, and streamed over a
session in blocks gives the bits of one pass."""

import math

import numpy as np
import pytest

from thetanav import harness, vector_net
from thetanav.config import RunConfig, cardinal_velocity
from thetanav.theta_core import VelocityVector
from thetanav.vector_net import CompileError, NodeBank, NodeLayout

from reference_models import run_per_sample, session_bank

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
    bank = session_bank(frames, networks)
    for net in networks:
        shared = net.run(frames, bank)
        alone = net.run(frames, session_bank(frames, [net]))
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


def assert_routed_bank_equals_the_full_bank(rig, velocity, n, networks):
    columns = harness._routed_columns(networks)
    full = harness._session(rig, velocity, n)
    routed = harness._session(rig, velocity, n, columns)
    assert np.array_equal(routed, full[:, columns])
    full_bank = session_bank(full, networks)
    bank = session_bank(routed, networks, columns)
    assert np.array_equal(bank.layer1, full_bank.layer1)
    assert np.array_equal(bank.layer2, full_bank.layer2)
    for net in networks:
        assert np.array_equal(net.run(routed, bank),
                              net.run(full, full_bank))
    return columns


@pytest.mark.parametrize("direction", ["E", "N"])
def test_cardinal_bank_on_routed_columns_equals_the_full_bank(rig,
                                                              direction):
    columns = assert_routed_bank_equals_the_full_bank(
        rig, cardinal_velocity(direction, CONFIG.speed), 2670,
        list(rig.networks.values()))
    # The four cardinal networks read well under half the frame.
    assert len(columns) < len(rig.frame_layout) / 2


def test_field_map_bank_on_routed_columns_equals_the_full_bank(rig):
    networks = field_networks(rig)
    assert len(networks) == 93
    assert_routed_bank_equals_the_full_bank(rig, FIELD_VELOCITY, 2829,
                                            networks)


def test_bank_refuses_a_position_its_frames_do_not_hold(rig):
    net = rig.networks["E"]
    columns = np.unique(net.input_pos)
    frames = harness._session(rig, FIELD_VELOCITY, 50, columns)
    layout = NodeLayout([net], columns)
    NodeBank(layout).extend(frames)
    with pytest.raises(ValueError, match=rf"positions \[{columns[0]}\]"):
        NodeLayout([net], columns[1:])
    with pytest.raises(ValueError, match="frames of"):
        NodeBank(layout).extend(frames[:, 1:])


def test_one_network_matches_the_per_sample_reference(rig):
    frames = harness._session(rig, cardinal_velocity("E", CONFIG.speed), 400)
    net = rig.networks["E"]
    out = net.run(frames, session_bank(frames, [net]))
    assert out.any() and not out.all()
    assert np.array_equal(out, run_per_sample(net, frames))


def test_field_map_filters_each_distinct_node_once(rig, monkeypatch):
    stages = []
    original = vector_net.filter_stage_batch

    def recorded(x, layer, *state):
        stages.append((layer, x.shape))
        return original(x, layer, *state)

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
    assert list(result.outputs) == compiled


def test_a_session_no_longer_than_the_node_tick_block_filters_each_layer_once(
        rig, monkeypatch):
    layers = []
    original = vector_net.filter_stage_batch

    def recorded(x, layer, *state):
        layers.append(layer)
        assert x.size <= vector_net.NODE_TICK_BLOCK
        return original(x, layer, *state)

    monkeypatch.setattr(vector_net, "filter_stage_batch", recorded)
    columns = rig.layout.columns
    harness._observe(harness._session(rig, FIELD_VELOCITY, 267, columns),
                     rig.networks, NodeBank(rig.layout))
    assert layers == [1, 2]
    layers.clear()
    harness._observe(harness._session(rig, FIELD_VELOCITY, 2670, columns),
                     rig.networks, NodeBank(rig.layout))
    assert layers.count(1) > 1 and layers.count(2) > 1


def test_bank_refuses_other_frames(rig):
    frames = harness._session(rig, FIELD_VELOCITY, 50)
    net = rig.networks["E"]
    bank = session_bank(frames, [net])
    with pytest.raises(ValueError, match="other frames"):
        net.run(frames.copy(), bank)


def test_bank_of_no_ticks_or_no_networks(rig):
    frames = harness._session(rig, FIELD_VELOCITY, 0)
    net = rig.networks["E"]
    assert net.run(frames, session_bank(frames, [net])).shape == (0,)
    bank = session_bank(harness._session(rig, FIELD_VELOCITY, 20), [])
    assert bank.layer1.shape == bank.layer2.shape == (20, 0)


# Blocks that end at the predicted arrival, twice that and so on, as a
# tracking session streams them, with blocks of 0 and 1 ticks between.
STREAM_ENDS = [267, 534, 534, 1068, 1069, 2136, 2670]


@pytest.mark.parametrize("direction", ["E", "N"])
def test_streamed_cardinal_bank_equals_one_pass(rig, direction):
    frames = harness._session(rig, cardinal_velocity(direction, CONFIG.speed),
                              2670, rig.layout.columns)
    whole = NodeBank(rig.layout).extend(frames)
    bank = NodeBank(rig.layout)
    layer1, layer2, outputs = [], [], {d: [] for d in rig.networks}
    for lo, hi in zip([0] + STREAM_ENDS, STREAM_ENDS):
        block = frames[lo:hi]
        bank.extend(block)
        layer1.append(bank.layer1)
        layer2.append(bank.layer2)
        for d, net in rig.networks.items():
            outputs[d].append(net.run(block, bank))
    assert np.concatenate(layer1).tobytes() == whole.layer1.tobytes()
    assert np.concatenate(layer2).tobytes() == whole.layer2.tobytes()
    assert whole.layer1.shape == (2670, len(rig.layout.l1_inputs))
    for d, net in rig.networks.items():
        assert np.array_equal(np.concatenate(outputs[d]),
                              net.run(frames, whole)), d
    assert np.concatenate(outputs[direction]).any()
