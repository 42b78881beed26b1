"""Tests for the memory-accounting walk (repro.telemetry.memory)."""

import numpy as np
import pytest

from repro.core import (
    Attribute,
    HyperSubConfig,
    HyperSubSystem,
    Predicate,
    Scheme,
    Subscription,
)
from repro.telemetry import (
    REQUIRED_METRICS,
    deep_sizeof,
    measure_system,
    publish_memory,
    rss_bytes,
    telemetry_session,
)
from repro.telemetry.memory import (
    DEFAULT_MAX_OBJECTS,
    NODE_COMPONENTS,
    _sample_indices,
    _Walk,
)
from repro.telemetry.registry import MetricsRegistry


def make_scheme():
    return Scheme(
        "s",
        [Attribute("x", 0.0, 10_000.0), Attribute("y", 0.0, 10_000.0)],
    )


def make_system(num_nodes=40, subs=60, seed=3):
    system = HyperSubSystem(
        num_nodes=num_nodes, config=HyperSubConfig(seed=seed)
    )
    scheme = make_scheme()
    system.add_scheme(scheme)
    rng = np.random.default_rng(seed)
    for i in range(subs):
        low = rng.uniform(0, 9_000, 2)
        high = low + rng.uniform(10, 900, 2)
        system.subscribe(
            int(rng.integers(0, num_nodes)),
            Subscription(
                scheme,
                [
                    Predicate(f, float(lo), float(hi))
                    for f, lo, hi in zip(("x", "y"), low, high)
                ],
            ),
        )
    system.finish_setup()
    return system


def loaded_system(num_nodes=40, subs=60):
    """An installed system that has carried some event traffic."""
    from repro.core import Event

    system = make_system(num_nodes=num_nodes, subs=subs)
    for i, x in enumerate((500.0, 2_500.0, 5_000.0, 7_500.0, 9_000.0)):
        system.publish(i, Event(system.schemes["s"], {"x": x, "y": 10_000.0 - x}))
    system.run_until_idle()
    return system


# ---------------------------------------------------------------------------
# deep_sizeof
# ---------------------------------------------------------------------------
class TestDeepSizeof:
    def test_container_costs_more_than_its_shell(self):
        import sys

        payload = [list(range(100)) for _ in range(10)]
        assert deep_sizeof(payload) > sys.getsizeof(payload)

    def test_shared_objects_are_charged_once(self):
        big = list(range(10_000))
        walk = _Walk(DEFAULT_MAX_OBJECTS)
        first = deep_sizeof([big], walk)
        second = deep_sizeof([big], walk)
        # The second wrapper list is new, but ``big`` is already seen.
        assert second < first / 10

    def test_cycles_terminate(self):
        a = {}
        b = {"a": a}
        a["b"] = b
        assert deep_sizeof(a) > 0

    def test_numpy_views_charge_the_buffer(self):
        base = np.zeros(100_000, dtype=np.float64)
        view = base[10:]
        assert deep_sizeof(view) >= view.nbytes

    def test_budget_truncates_and_flags(self):
        walk = _Walk(max_objects=10)
        deep_sizeof([list(range(50)) for _ in range(50)], walk)
        assert walk.truncated

    def test_slots_objects_are_entered(self):
        class Slotted:
            __slots__ = ("table",)

            def __init__(self):
                self.table = list(range(1_000))

        import sys

        assert deep_sizeof(Slotted()) > sys.getsizeof(list(range(1_000)))


# ---------------------------------------------------------------------------
# _sample_indices
# ---------------------------------------------------------------------------
class TestSampleIndices:
    def test_small_populations_take_everything(self):
        assert _sample_indices(5, 128) == [0, 1, 2, 3, 4]

    def test_large_populations_are_capped_and_spread(self):
        idx = _sample_indices(10_000, 128)
        assert len(idx) == 128
        assert idx == sorted(idx)
        assert idx[0] == 0 and idx[-1] >= 9_000

    def test_indices_are_unique(self):
        idx = _sample_indices(130, 128)
        assert len(idx) == len(set(idx))


# ---------------------------------------------------------------------------
# measure_system / publish_memory
# ---------------------------------------------------------------------------
class TestMeasureSystem:
    def test_report_covers_every_component(self):
        system = make_system()
        report = measure_system(system)
        for name in NODE_COMPONENTS:
            assert name in report.components
        for name in ("sim_queue", "ingress_queues", "network_stats", "link_latency"):
            assert name in report.components
        assert report.total_bytes == sum(report.components.values())
        assert report.bytes_per_node > 0
        assert not report.truncated

    def test_network_stats_walks_the_live_counter_lists(self):
        import sys

        system = make_system(num_nodes=200, subs=40)
        stats = system.network.stats
        counters = (
            stats._in_bytes, stats._out_bytes, stats._in_msgs, stats._out_msgs
        )
        # Heavy traffic leaves one distinct number object per node in
        # every counter, referenced by that list alone.
        for table in counters:
            for i in range(len(table)):
                table[i] += 1_000_003 + i
        report = measure_system(system)
        # The walk must charge the list shells *and* every number in
        # them; ``nbytes`` of the arrays the ``in_/out_*`` properties
        # rebuild on read (8 B per node) would bill a fraction of that.
        floor = sum(
            sys.getsizeof(table) + sum(sys.getsizeof(x) for x in table)
            for table in counters
        )
        rebuilt = sum(
            arr.nbytes
            for arr in (
                stats.in_bytes, stats.out_bytes, stats.in_msgs, stats.out_msgs
            )
        )
        assert floor > 4 * rebuilt
        assert report.components["network_stats"] >= floor

    def test_sim_queue_walks_list_entries_and_their_messages(self):
        import sys

        from repro.sim.messages import Message

        system = make_system(num_nodes=20, subs=20)
        system.run_until_idle()
        base = measure_system(system).components["sim_queue"]
        payload = [i + 0.5 for i in range(2_000)]
        msg = Message(src=0, dst=1, kind="probe", payload=payload, size_bytes=1)
        live = system.sim.schedule(10.0, system.network._deliver, msg, 0.0)
        tomb = system.sim.schedule(20.0, system.network._deliver, msg, 0.0)
        tomb.cancel()
        assert all(isinstance(entry, list) for entry in system.sim._queue)
        grown = measure_system(system).components["sim_queue"] - base
        # Both entries' shells, plus the message their args reach.
        floor = sys.getsizeof(live) + sys.getsizeof(tomb) + deep_sizeof(payload)
        assert grown >= floor
        # ... and nothing beyond it: the entries' back-reference to the
        # simulator is never entered.
        assert grown < floor + 5_000

    def test_link_latency_memo_is_billed(self):
        system = loaded_system(num_nodes=20, subs=20)
        assert system.network._link_latency
        report = measure_system(system)
        assert report.components["link_latency"] >= 24 * sum(
            len(row) for row in system.network._link_latency.values()
        )

    def test_subscription_tables_dominate_an_installed_system(self):
        system = make_system(subs=200)
        report = measure_system(system)
        # Zones hold the rendezvous copies of every subscription: an
        # installed, idle system's footprint must be visibly there.
        assert report.components["zones"] > 0
        assert report.components["subscriptions"] > 0

    def test_sampling_reports_how_many_nodes_it_walked(self):
        system = make_system(num_nodes=40)
        full = measure_system(system)
        sampled = measure_system(system, node_sample=10)
        assert full.sampled_nodes == 40
        assert sampled.sampled_nodes == 10
        # Scaled estimate stays in the same ballpark as the full walk.
        assert sampled.total_bytes > 0

    def test_as_dict_is_json_safe(self):
        import json

        report = measure_system(make_system(num_nodes=20, subs=20))
        json.dumps(report.as_dict())

    def test_publish_memory_sets_the_gauges(self):
        system = make_system(num_nodes=20, subs=20)
        registry = MetricsRegistry()
        report = publish_memory(system, registry)
        assert registry.value("mem.bytes_per_node") == pytest.approx(
            report.bytes_per_node
        )
        assert registry.value("mem.total_bytes") == float(report.total_bytes)
        assert registry.value("mem.zones") == float(
            report.components["zones"]
        )

    def test_publish_memory_without_registry_or_session_raises(self):
        system = make_system(num_nodes=20, subs=20)
        assert system.telemetry is None
        with pytest.raises(ValueError):
            publish_memory(system)


class TestSessionIntegration:
    def test_sample_memory_is_a_noop_without_a_session(self):
        system = make_system(num_nodes=20, subs=20)
        assert system.sample_memory() is None

    def test_manifest_carries_bytes_per_node(self, tmp_path):
        from repro.telemetry.manifest import load_manifest, validate_manifest

        from repro.core import Event

        with telemetry_session(tmp_path, label="mem") as tel:
            system = make_system(num_nodes=20, subs=20)
            system.publish(
                0, Event(system.schemes["s"], {"x": 5.0, "y": 5.0})
            )
            system.run_until_idle()
            report = system.sample_memory()
            assert report is not None
        manifest = load_manifest(tmp_path / "manifest.json")
        assert validate_manifest(manifest) == []
        gauges = manifest["metrics"]["gauges"]
        assert gauges["mem.bytes_per_node"] > 0
        assert "mem.bytes_per_node" in REQUIRED_METRICS
        # finish_setup armed a sim-time series point too.
        assert tel.registry.series["mem.bytes_per_node"]


def test_rss_bytes_reports_something_plausible():
    rss = rss_bytes()
    assert rss is None or rss > 1_000_000  # a python process is >1MB
