"""Node sharing across networks that read one scan: a node layout keeps
each distinct node that reaches an output and the frame positions
those read, and a node bank on it gives every network exactly the bits
it computes alone, filters each distinct node once, dropped groups left
out, and streamed over a session in blocks gives the bits of one
pass."""

import math
from dataclasses import replace

import numpy as np
import pytest

from thetanav import harness, vector_net
from thetanav.config import RunConfig, cardinal_velocity
from thetanav.theta_core import VelocityVector
from thetanav.vector_net import (CompileError, NodeBank, NodeLayout,
                                 TargetLocation, VectorNetwork,
                                 compile_lookup)

from reference_models import (layout_by_pruning, run_alone, run_per_sample,
                              session_bank, session_frames)

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


def assert_node_major(bank, ticks):
    """Both layers keep their [T, node] shape over node-major storage:
    ``layer.T[k]`` is node k's trace, contiguous."""
    layout = bank.layout
    for layer, inputs in ((bank.layer1, layout.l1_inputs),
                          (bank.layer2, layout.l2_inputs)):
        assert layer.shape == (ticks, len(inputs))
        assert layer.dtype == np.uint8
        assert layer.T.flags.c_contiguous


def assert_bank_matches_each_network_alone(frames, networks):
    bank = session_bank(frames, networks)
    assert_node_major(bank, len(frames))
    for net in networks:
        shared = net.run(bank.frames, bank)
        alone = run_alone(net, frames)
        assert shared.dtype == alone.dtype == np.uint8
        assert shared.tobytes() == alone.tobytes()
    return bank


@pytest.mark.parametrize("direction", ["E", "N"])
def test_cardinal_bank_matches_each_network_alone(rig, direction):
    frames = session_frames(
        rig, cardinal_velocity(direction, CONFIG.speed), 2670)
    networks = list(rig.networks.values())
    bank = assert_bank_matches_each_network_alone(frames, networks)
    assert rig.networks[direction].run(bank.frames, bank).any()
    assert bank.layer1.shape[1] < sum(net.n_pairs for net in networks)


def test_field_map_bank_matches_each_network_alone(rig):
    networks = field_networks(rig)
    frames = session_frames(rig, FIELD_VELOCITY, 2829)
    bank = assert_bank_matches_each_network_alone(frames, networks)
    assert len(networks) == 93
    assert sum(net.run(bank.frames, bank).any() for net in networks) > 0
    assert bank.layer1.shape[1] < sum(net.n_pairs for net in networks) / 8


def assert_routed_bank_equals_the_full_bank(rig, velocity, n, networks):
    # The routed scan decodes the layout's columns of the full scan, and
    # the harness's one-block stream over it gives each network the bits
    # of a bank on those columns of the full frames.
    layout = NodeLayout(networks)
    full = session_frames(rig, velocity, n)
    routed = session_frames(rig, velocity, n, layout.columns)
    assert np.array_equal(routed, full[:, layout.columns])
    full_bank = session_bank(full, networks)
    assert np.array_equal(full_bank.frames, routed)
    keyed = dict(enumerate(networks))
    outputs, _, _ = harness._first_pulse(rig.chip, layout, keyed, velocity,
                                         n, n)
    for k, net in keyed.items():
        assert np.array_equal(outputs[k], net.run(full_bank.frames,
                                                  full_bank))
    return layout.columns


@pytest.mark.parametrize("direction", ["E", "N"])
def test_cardinal_bank_on_routed_columns_equals_the_full_bank(rig,
                                                              direction):
    columns = assert_routed_bank_equals_the_full_bank(
        rig, cardinal_velocity(direction, CONFIG.speed), 2670,
        list(rig.networks.values()))
    # The four cardinal networks read well under half the frame.
    assert len(columns) < rig.chip.enabled_phases / 2


def test_field_map_bank_on_routed_columns_equals_the_full_bank(rig):
    networks = field_networks(rig)
    assert len(networks) == 93
    assert_routed_bank_equals_the_full_bank(rig, FIELD_VELOCITY, 2829,
                                            networks)


def test_bank_refuses_a_position_its_frames_do_not_hold(rig):
    layout = NodeLayout([rig.networks["E"]])
    frames = session_frames(rig, FIELD_VELOCITY, 50, layout.columns)
    NodeBank(layout).extend(frames)
    with pytest.raises(ValueError, match="frames of"):
        NodeBank(layout).extend(frames[:, 1:])


def test_one_network_matches_the_per_sample_reference(rig):
    frames = session_frames(rig, cardinal_velocity("E", CONFIG.speed), 400)
    net = rig.networks["E"]
    out = run_alone(net, frames)
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

    # Each stage filters a node-major [nodes, T] block.
    ticks = {shape[1] for _, shape in stages}
    assert ticks == {result.session_ticks}
    # Blocks no wider than one network's layer 1 bound the work arrays.
    assert all(shape[0] <= 40 for _, shape in stages)
    l1_node_ticks = sum(math.prod(shape) for layer, shape in stages
                        if layer == 1)
    l2_nodes = sum(shape[0] for layer, shape in stages if layer == 2)
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
    harness._observe(session_frames(rig, FIELD_VELOCITY, 267, columns),
                     rig.networks, NodeBank(rig.layout))
    assert layers == [1, 2]
    layers.clear()
    harness._observe(session_frames(rig, FIELD_VELOCITY, 2670, columns),
                     rig.networks, NodeBank(rig.layout))
    assert layers.count(1) > 1 and layers.count(2) > 1


def test_bank_refuses_other_frames(rig):
    frames = session_frames(rig, FIELD_VELOCITY, 50)
    net = rig.networks["E"]
    bank = session_bank(frames, [net])
    with pytest.raises(ValueError, match="other frames"):
        net.run(bank.frames.copy(), bank)


def test_bank_of_no_ticks_or_no_networks(rig):
    frames = session_frames(rig, FIELD_VELOCITY, 0)
    net = rig.networks["E"]
    assert run_alone(net, frames).shape == (0,)
    assert_node_major(session_bank(frames, [net]), 0)
    bank = session_bank(session_frames(rig, FIELD_VELOCITY, 20), [])
    assert bank.layer1.shape == bank.layer2.shape == (20, 0)
    assert_node_major(bank, 20)


def test_a_network_with_no_active_group_reads_low(rig, monkeypatch):
    # A negative tap tolerance drops every group, since each residual is
    # >= 0; the network then keeps no node in a bank it shares.
    monkeypatch.setattr(vector_net, "TAP_TOLERANCE", -1.0)
    monkeypatch.setattr(vector_net, "MIN_ACTIVE_GROUPS", 0)
    mux = compile_lookup(rig.pairing, TargetLocation.of_cell((1, 0),
                                                            CONFIG.pitch),
                         CONFIG.speed)
    assert mux.dropped == list(range(rig.pairing.n_groups))
    empty = VectorNetwork(mux, rig.frame_layout)
    assert empty.active.size == 0
    frames = session_frames(rig, cardinal_velocity("E", CONFIG.speed), 400)
    networks = list(rig.networks.values()) + [empty]
    bank = assert_bank_matches_each_network_alone(frames, networks)
    assert bank.layout.l2_of[empty].size == 0
    out = empty.run(bank.frames, bank)
    assert out.dtype == np.uint8
    assert out.tobytes() == np.zeros(400, np.uint8).tobytes()
    assert np.array_equal(out, run_per_sample(empty, frames))
    assert rig.networks["E"].run(bank.frames, bank).any()


# Blocks that end at the predicted arrival, twice that and so on, as a
# tracking session streams them, with blocks of 0 and 1 ticks between.
STREAM_ENDS = [267, 534, 534, 1068, 1069, 2136, 2670]


@pytest.mark.parametrize("direction", ["E", "N"])
def test_streamed_cardinal_bank_equals_one_pass(rig, direction):
    frames = session_frames(rig, cardinal_velocity(direction, CONFIG.speed),
                            2670, rig.layout.columns)
    whole = NodeBank(rig.layout).extend(frames)
    bank = NodeBank(rig.layout)
    layer1, layer2, outputs = [], [], {d: [] for d in rig.networks}
    for lo, hi in zip([0] + STREAM_ENDS, STREAM_ENDS):
        block = frames[lo:hi]
        bank.extend(block)
        assert_node_major(bank, hi - lo)
        layer1.append(bank.layer1)
        layer2.append(bank.layer2)
        for d, net in rig.networks.items():
            outputs[d].append(net.run(block, bank))
    assert np.concatenate(layer1).tobytes() == whole.layer1.tobytes()
    assert np.concatenate(layer2).tobytes() == whole.layer2.tobytes()
    assert_node_major(whole, 2670)
    for d, net in rig.networks.items():
        assert np.array_equal(np.concatenate(outputs[d]),
                              net.run(frames, whole)), d
    assert np.concatenate(outputs[direction]).any()


@pytest.fixture(scope="module")
def cardinal_layouts(rig):
    """The cardinal node layouts of the rigs of population seeds 0-3."""
    rigs = [rig] + [harness.build_rig(RunConfig(seed=seed))
                    for seed in (1, 2, 3)]
    return [(r.layout, list(r.networks.values())) for r in rigs]


def test_layout_keeps_the_nodes_and_columns_a_kept_node_reads(
        cardinal_layouts):
    l1_counts, column_counts, routed = [], [], []
    for layout, networks in cardinal_layouts:
        # Every first-layer node feeds a kept second-layer node.
        assert np.array_equal(np.unique(layout.l2_inputs),
                              np.arange(len(layout.l1_inputs)))
        # The nodes read are the inputs of active groups, keyed by their
        # frame positions, and the columns are their positions.
        read, every = set(), set()
        for net in networks:
            inputs = net.input_pos.reshape(-1, 2)
            every |= set(map(tuple, inputs.tolist()))
            for g in net.active:
                read |= {tuple(inputs[g]), tuple(inputs[net.n_pairs // 2 + g])}
        nodes = layout.columns[layout.l1_inputs]
        assert sorted(map(tuple, nodes.tolist())) == sorted(read)
        assert np.array_equal(layout.columns, np.unique(sorted(read)))
        l1_counts.append(len(layout.l1_inputs))
        column_counts.append(len(layout.columns))
        routed.append((len(every), len(np.unique(sorted(every)))))
    assert l1_counts == [114, 107, 108, 110]
    assert column_counts == [154, 147, 148, 150]
    # Of the distinct first-layer nodes and the positions the networks route.
    assert routed == [(117, 157), (114, 154), (113, 153), (116, 156)]


def assert_same_layout(layout, reference):
    """Equal node and column arrays, dtype and order included."""
    for name in ("columns", "l1_inputs", "l2_inputs"):
        ours, theirs = getattr(layout, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name
    assert list(layout.l2_of) == list(reference.l2_of)
    for net, nodes in layout.l2_of.items():
        assert nodes.tobytes() == reference.l2_of[net].tobytes()


@pytest.mark.parametrize("seed", [0, 117])
def test_layout_equals_the_build_then_prune_reference(rig, seed):
    rig = rig if seed == 0 else harness.build_rig(RunConfig(seed=seed))
    cardinal = list(rig.networks.values())
    field = field_networks(rig)
    assert len(field) > 80
    # A network with every group dropped reads no node.
    mux = cardinal[0].mux
    every_group = list(range(mux.unit.size // 4))
    silent = VectorNetwork(replace(mux, dropped=every_group), rig.frame_layout)
    assert silent.active.size == 0
    for networks in (cardinal, field, cardinal + [silent], [silent]):
        assert_same_layout(NodeLayout(networks), layout_by_pruning(networks))
