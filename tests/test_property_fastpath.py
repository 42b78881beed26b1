"""Property tests for the per-hop fast path.

Three shortcuts on the path every simulated hop takes must never change
an answer:

* ``ChordNode.is_responsible`` computes the ownership arc inline instead
  of calling :func:`~repro.dht.idspace.id_in_interval`;
* ``Network.send`` memoises ``topology.latency_ms`` per link and applies
  the latency factor after the memo;
* ``Network.send`` consults the drop-fault machinery only when a fault
  is armed -- so a fault armed after traffic has started must still
  drop packets from then on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.chord import ChordNode
from repro.dht.idspace import ID_SPACE, id_in_interval
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.network import Network, SimNode
from repro.sim.topology import ConstantTopology, KingLikeTopology

ids64 = st.integers(0, ID_SPACE - 1)
#: ids hugging the wrap-around point, where the modular arithmetic bites
edge_ids = st.sampled_from([0, 1, 2, ID_SPACE - 2, ID_SPACE - 1, ID_SPACE // 2])
any_id = st.one_of(ids64, edge_ids)


def reference_is_responsible(node: ChordNode, key: int) -> bool:
    """The ownership rule as the interval helper states it."""
    if node.predecessor is None:
        return not node.successors or key == node.node_id
    return id_in_interval(key, node.predecessor[0], node.node_id, incl_right=True)


def bare_node(node_id: int) -> ChordNode:
    sim = Simulator()
    net = Network(sim, ConstantTopology(4, rtt=10.0))
    return ChordNode(0, node_id, net)


# ---------------------------------------------------------------------------
# is_responsible
# ---------------------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(
    node_id=any_id,
    pred_id=any_id,
    key=any_id,
    delta=st.integers(-3, 3),
    anchor=st.sampled_from(["key", "pred", "self"]),
    pred_is_self=st.booleans(),
)
def test_inline_is_responsible_matches_id_in_interval(
    node_id, pred_id, key, delta, anchor, pred_is_self
):
    if pred_is_self:
        pred_id = node_id
    # Probe the arc's endpoints and their neighbours, wrapping mod 2**64.
    if anchor == "pred":
        key = (pred_id + delta) % ID_SPACE
    elif anchor == "self":
        key = (node_id + delta) % ID_SPACE
    node = bare_node(node_id)
    node.predecessor = (pred_id, 1)
    assert node.is_responsible(key) is reference_is_responsible(node, key)
    assert node.is_responsible(key) is id_in_interval(
        key, pred_id, node_id, incl_right=True
    )


@settings(max_examples=100, deadline=None)
@given(node_id=any_id, key=any_id, has_successor=st.booleans())
def test_is_responsible_without_predecessor(node_id, key, has_successor):
    node = bare_node(node_id)
    node.predecessor = None
    node.successors = [((node_id + 5) % ID_SPACE, 1)] if has_successor else []
    expected = reference_is_responsible(node, key)
    assert node.is_responsible(key) is expected
    assert node.is_responsible(node_id) is True
    if not has_successor:
        assert expected is True


# ---------------------------------------------------------------------------
# Link-latency memo
# ---------------------------------------------------------------------------
class Recorder(SimNode):
    def __init__(self, addr, network):
        super().__init__(addr, network)
        self.received = []

    def handle_message(self, msg):
        self.received.append((self.sim.now, msg))


def make_net(topology):
    sim = Simulator()
    net = Network(sim, topology)
    nodes = [Recorder(i, net) for i in range(topology.size)]
    return sim, net, nodes


N = 12
KING = KingLikeTopology(N, seed=5)
pairs = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)).filter(
    lambda p: p[0] != p[1]
)
ops = st.one_of(
    st.tuples(st.just("send"), pairs),
    st.tuples(st.just("factor"), st.floats(0.1, 20.0, allow_nan=False)),
    st.tuples(st.just("clear"), st.none()),
)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(ops, min_size=1, max_size=40))
def test_latency_memo_is_bit_equal_and_composes_with_the_factor(steps):
    sim, net, nodes = make_net(KING)
    factor = 1.0
    for op, arg in steps:
        if op == "factor":
            net.set_latency_factor(arg)
            factor = arg
        elif op == "clear":
            net.clear_latency_factor()
            factor = 1.0
        else:
            src, dst = arg
            sent_at = sim.now
            net.send(Message(src=src, dst=dst, kind="t", payload=None, size_bytes=1))
            sim.run()
            arrived_at, msg = nodes[dst].received[-1]
            latency = KING.latency_ms(src, dst) * factor
            assert arrived_at == sent_at + latency
            assert msg.path_latency == latency
    for src, row in net._link_latency.items():
        for dst, memo in row.items():
            assert memo == KING.latency_ms(src, dst)


# ---------------------------------------------------------------------------
# Faults armed mid-run
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    warmup=st.lists(pairs, max_size=15),
    traffic=st.lists(pairs, min_size=1, max_size=30),
    kind=st.sampled_from(["loss", "partition", "asym"]),
    groups=st.lists(st.integers(0, 2), min_size=N, max_size=N),
    seed=st.integers(0, 2**16),
)
def test_fault_armed_after_traffic_still_drops(warmup, traffic, kind, groups, seed):
    sim, net, nodes = make_net(ConstantTopology(N, rtt=10.0))

    def send_all(batch):
        for src, dst in batch:
            net.send(Message(src=src, dst=dst, kind="t", payload=None, size_bytes=7))
        sim.run()

    # Healthy traffic first: every packet arrives.
    send_all(warmup)
    assert net.dropped == 0
    assert sum(len(n.received) for n in nodes) == len(warmup)

    # Arm the fault, then predict exactly which packets it drops.
    if kind == "loss":
        net.set_loss_rate(0.5, seed=seed)
        rng = np.random.default_rng(seed)
        expected = [bool(rng.random() < 0.5) for _ in traffic]
    elif kind == "partition":
        net.set_partition(dict(enumerate(groups)))
        expected = [groups[s] != groups[d] for s, d in traffic]
    else:
        src_set = {a for a in range(N) if groups[a] == 0}
        dst_set = {a for a in range(N) if groups[a] != 0}
        net.add_asym_cut(1, src_set, dst_set)
        expected = [s in src_set and d in dst_set for s, d in traffic]
    out_before = net.stats.total_bytes
    received_before = sum(len(n.received) for n in nodes)
    send_all(traffic)
    n_dropped = sum(expected)
    cause = "loss" if kind == "loss" else "partition"
    assert net.dropped == n_dropped
    assert net.stats.dropped_by_cause[cause] == n_dropped
    received = sum(len(n.received) for n in nodes) - received_before
    assert received == len(traffic) - n_dropped
    # Dropped packets were still transmitted: bytes are charged for all.
    assert net.stats.total_bytes - out_before == 7 * len(traffic)

    # Heal: the fast path is clean again and nothing more is dropped.
    net.clear_loss()
    net.clear_partition()
    net.remove_asym_cut(1)
    send_all(traffic)
    assert net.dropped == n_dropped
