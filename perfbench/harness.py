"""Workloads, seeded inputs and one measured repetition.

A repetition builds a fresh :class:`HyperSubSystem` from pre-generated
inputs and drives it only through its public API -- ``HyperSubSystem
(...)``, ``add_scheme``, ``subscribe``, ``finish_setup``,
``schedule_publish``, ``run``/``run_until_idle`` and ``on_deliver`` --
timing the setup phase and the event phase.  Every delivery is checked
against the brute-force oracle outside the timed regions.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

import numpy as np

from repro.core.config import HyperSubConfig
from repro.core.system import HyperSubSystem
from repro.sim.topology import KingLikeTopology
from repro.telemetry.memory import measure_system
from repro.workloads import WorkloadGenerator, default_paper_spec

from perfbench import oracle
from perfbench.tracer import GROUPS, Tracer, kind_group

#: durable-lossy: simulated drain tail after the last publish, the
#: slice the custody-drain loop advances by, and its hard cap
_DRAIN_TAIL_MS = 2_000.0
_DRAIN_SLICE_MS = 1_000.0
_DRAIN_CAP_MS = 600_000.0
#: G1 durable+fifo cell settings (experiments/guarantees.py)
_STABILIZE_MS = 500.0
_RPC_TIMEOUT_MS = 1_500.0
#: seed of the fixed deployment: latency model, node ids and installed
#: subscriptions (see :func:`make_inputs`)
DEPLOYMENT_SEED = 1
#: event ids whose spans the traced run records in full
_SPAN_SAMPLE = 20
#: a repetition publishes this many back-to-back segments on one
#: system; each segment's event phase is one timing sample
SEGMENTS = 4


@dataclass(frozen=True)
class Shape:
    """Input size of one workload at one scale."""

    nodes: int
    subs_per_node: int
    #: events per segment (a repetition publishes SEGMENTS of them)
    events: int
    #: fixed tail percentile (the highest with >= 10 deliveries beyond
    #: it at this size; a run with fewer fails its tail check)
    tail_pct: float
    #: distinct publishing nodes (0 = any node publishes)
    publishers: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Dict[str, Any]
    shapes: Dict[str, Shape]
    #: message-loss rate armed just before the first publish
    loss: float = 0.0

    @property
    def durable(self) -> bool:
        return self.config.get("delivery_mode") == "durable"

    @property
    def fifo(self) -> bool:
        return self.config.get("ordering") == "fifo"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper",
            why=(
                "Table-1 shape of all figures: 1740 nodes x10 subs, 4x350 events, "
                "defaults. Stresses routing, Algorithm-5, engine, network, "
                "matching; bypasses simulated install, reliability. Tail p99.99 of "
                "~170k"
            ),
            config={},
            shapes={
                "full": Shape(1740, 10, 350, 99.99),
                "tiny": Shape(60, 4, 20, 90.0),
            },
        ),
        Workload(
            name="install-dense",
            why=(
                "Writes beside reads: 150 nodes x100 subs, simulated install, 4x600 "
                "events. Stresses lookups, ps_register, cascade, put; 10x paper's "
                "subs per node; bypasses maintenance. Tail p99.99 of ~260k"
            ),
            config={"simulate_install": True},
            shapes={
                "full": Shape(150, 100, 600, 99.99),
                "tiny": Shape(40, 10, 20, 90.0),
            },
        ),
        Workload(
            name="durable-lossy",
            why=(
                "G1 durable+fifo cell at G1 quick scale: 150 nodes x8 subs, 5 "
                "publishers, 4x200 events, 2% loss, drains custody. Only load on "
                "reliability, durability, maintenance; bypasses cascade. Tail p99 of ~6k"
            ),
            config={
                "reliable_delivery": True,
                "retransmit_timeout_ms": 1_000.0,
                "max_retries": 2,
                "hop_failover": True,
                "failover_backoff_ms": 2_000.0,
                "delivery_mode": "durable",
                "ordering": "fifo",
                "durable_redelivery_ms": 2_000.0,
                "direct_rendezvous_levels": 21,
                "replication_factor": 1,
            },
            shapes={
                "full": Shape(150, 8, 200, 99.0, publishers=5),
                "tiny": Shape(40, 4, 30, 90.0, publishers=3),
            },
            loss=0.02,
        ),
    )
}


@dataclass
class Traffic:
    """One seeded segment of the event stream."""

    events: List[Any]
    publishers: List[int]
    #: publish times relative to the start of the segment (ms, increasing)
    offsets: List[float]
    loss_seed: int


@dataclass
class Inputs:
    """Everything a run needs: one deployment, one segmented stream."""

    workload: Workload
    shape: Shape
    #: the latency model; fixed, like the paper's one King dataset
    topology: Any
    scheme: Any
    subs: List[Any]
    sub_addr: List[int]
    segments: List[Traffic]
    #: every (event, subscription index) the oracle expects; events are
    #: numbered in publish order across the segments
    expected: Set[oracle.Pair]
    #: publisher of every event, in the same numbering
    publishers: List[int]
    #: event ids (1-based publish order) whose spans are kept in full
    span_sample: Set[int]


def make_inputs(workload: Workload, shape: Shape, seed: int) -> Inputs:
    """Generate every input before any system exists; the brute-force
    oracle runs here too.

    The *deployment* -- latency model, node ids (``HyperSubConfig.seed``),
    installed subscriptions and, where the workload restricts them, the
    publishing nodes -- is fixed per workload, like the paper's one King
    network with subscriptions initialised up front.
    The run's ``seed`` derives the *traffic*: event points, publishers,
    publish times and message-loss patterns of every segment.  Deriving
    the deployment from the seed too makes the deterministic outcomes
    swing between seeds by more than any usable bound: a few hot
    rendezvous placements carry most deliveries, and a few wide
    subscriptions dominate the summary-filter cascade.
    """
    spec = default_paper_spec(subs_per_node=shape.subs_per_node)
    sub_gen = WorkloadGenerator(spec, seed=DEPLOYMENT_SEED)
    subs = [sub_gen.subscription() for _ in range(shape.nodes * shape.subs_per_node)]
    event_seed, sched_seed = (
        int(x) % (2**31) for x in np.random.SeedSequence(seed).generate_state(2)
    )
    event_gen = WorkloadGenerator(spec, seed=event_seed)
    rng = np.random.default_rng(sched_seed)
    if shape.publishers:
        # the publishing nodes belong to the deployment, like the fixed
        # publishers of the G1 ordered cells; the seed picks who publishes
        # each event
        deployment_rng = np.random.default_rng(DEPLOYMENT_SEED)
        pool = [
            int(a)
            for a in deployment_rng.choice(shape.nodes, size=shape.publishers, replace=False)
        ]
    else:
        pool = list(range(shape.nodes))
    segments = []
    for _ in range(SEGMENTS):
        # Poisson arrivals conditioned on their count: ``events`` uniform
        # times in a window of ``events`` mean inter-arrival times, so
        # every segment's publish phase has the same simulated length.
        window = shape.events * spec.mean_interarrival_ms
        segments.append(
            Traffic(
                events=[event_gen.event() for _ in range(shape.events)],
                publishers=[pool[i] for i in rng.integers(0, len(pool), shape.events)],
                offsets=np.sort(rng.uniform(0.0, window, shape.events)).tolist(),
                loss_seed=int(rng.integers(0, 2**31)),
            )
        )
    events = [e for seg in segments for e in seg.events]
    sample = rng.choice(len(events), size=min(_SPAN_SAMPLE, len(events)), replace=False)
    return Inputs(
        workload=workload,
        shape=shape,
        topology=KingLikeTopology(shape.nodes, seed=DEPLOYMENT_SEED),
        scheme=sub_gen.scheme,
        subs=subs,
        sub_addr=[i // shape.subs_per_node for i in range(len(subs))],
        segments=segments,
        expected=oracle.expected_pairs(
            np.array([s.lows for s in subs]),
            np.array([s.highs for s in subs]),
            np.array([e.point for e in events]),
        ),
        publishers=[a for seg in segments for a in seg.publishers],
        span_sample={int(i) + 1 for i in sample},
    )


@dataclass
class Rep:
    """Measurements and verdict of one repetition."""

    setup_s: float
    #: wall time of each segment's event phase
    segment_s: List[float]
    verdict: oracle.Verdict
    delivery_digest: str
    #: (event index, subscription index) per delivery, in delivery order
    delivered: List[oracle.Pair]
    #: simulated latency of every delivery, publish to delivery (ms)
    latencies: List[float]
    #: deterministic simulated outcomes (digested; repeats must agree)
    outcome: Dict[str, float]
    #: heap walk of the loaded system; not in the outcome digest because
    #: object sharing with the interpreter's caches moves it by a few
    #: bytes between repetitions in one process
    mem_bytes_per_node: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def event_s(self) -> float:
        return sum(self.segment_s)

    @property
    def outcome_digest(self) -> str:
        return oracle.sha256_json(self.outcome)


def setup_system(inp: Inputs):
    """The measured setup phase: construction through ``finish_setup``."""
    cfg = HyperSubConfig(seed=DEPLOYMENT_SEED, **inp.workload.config)
    system = HyperSubSystem(config=cfg, topology=inp.topology)
    system.add_scheme(inp.scheme)
    subids = [
        system.subscribe(addr, sub) for addr, sub in zip(inp.sub_addr, inp.subs)
    ]
    system.finish_setup()
    return system, subids


def _quiesce_heap() -> None:
    """Collect the previous repetition's system, then move everything
    the harness holds (inputs, oracle sets, earlier results) out of the
    collector's reach, so the cyclic collector's passes during a timed
    phase walk the system under test, not the benchmark's own data."""
    gc.collect()
    gc.freeze()


def time_setup(inp: Inputs) -> float:
    """One setup-only repetition (extra samples for cheap setups)."""
    _quiesce_heap()
    t0 = time.perf_counter()
    system, _ = setup_system(inp)
    elapsed = time.perf_counter() - t0
    del system
    return elapsed


def _drain(system: HyperSubSystem, durable: bool, last_publish: float) -> None:
    """The measured event phase: run until the simulation drains (and,
    for durable delivery, until every custody log is empty)."""
    if not durable:
        system.run_until_idle()
        return
    system.run(until=last_publish + _DRAIN_TAIL_MS)
    deadline = system.sim.now + _DRAIN_CAP_MS
    while system.sim.now < deadline and any(
        n.durable.log for n in system.nodes if n.durable is not None
    ):
        system.run(until=system.sim.now + _DRAIN_SLICE_MS)
    system.stop_maintenance()
    system.stop_durable_redelivery()
    system.run_until_idle()


def run_rep(inp: Inputs, tracer: Optional[Tracer] = None) -> Rep:
    """Set up, then publish and drain every segment in turn on the same
    system, timing each; check every delivery afterwards."""
    wl, shape = inp.workload, inp.shape
    _quiesce_heap()
    t0 = time.perf_counter()
    if tracer is None:
        system, subids = setup_system(inp)
    else:
        system, subids = tracer.run_phase(
            "setup", "core.system.build", lambda: setup_system(inp)
        )
    setup_s = time.perf_counter() - t0

    sub_index = oracle.subs_index([(s.nid, s.iid) for s in subids])
    raw: List[tuple] = []
    system.on_deliver = lambda addr, eid, subid: raw.append((eid, subid.nid, subid.iid))
    processed0 = system.sim.processed
    rc0 = system.route_cache_stats()
    publish_times: List[float] = []
    segment_s: List[float] = []
    for seg in inp.segments:
        base = system.sim.now
        for offset, addr, event in zip(seg.offsets, seg.publishers, seg.events):
            system.schedule_publish(base + offset, addr, event)
        publish_times += [base + offset for offset in seg.offsets]
        if wl.durable:
            system.start_maintenance(
                stabilize_interval_ms=_STABILIZE_MS, rpc_timeout_ms=_RPC_TIMEOUT_MS
            )
            system.start_durable_redelivery()
        if wl.loss:
            system.network.set_loss_rate(wl.loss, seed=seg.loss_seed)
        drain = lambda: _drain(system, wl.durable, publish_times[-1])  # noqa: E731
        gc.collect()
        t1 = time.perf_counter()
        if tracer is None:
            drain()
        else:
            tracer.run_phase("event", "sim.engine", drain)
        segment_s.append(time.perf_counter() - t1)

    # -- oracle (untimed) ------------------------------------------------
    records = system.metrics.records
    eids = sorted(records)
    if [records[eid].publish_time for eid in eids] != publish_times:
        raise RuntimeError("published events do not match the schedule")
    first = eids[0]
    delivered = [(eid - first, sub_index.get((nid, iid), -1)) for eid, nid, iid in raw]
    verdict = oracle.check_deliveries(
        inp.expected, delivered, inp.publishers, check_fifo=wl.fifo
    )
    latencies = [d[3] for eid in eids for d in records[eid].deliveries]
    stats = system.network.stats
    install = system.install_traffic
    outcome = {
        "events": float(len(eids)),
        "deliveries": float(len(delivered)),
        "latency_sum_ms": float(sum(latencies)),
        "bytes": float(stats.total_bytes),
        "messages": float(stats.total_msgs),
        "install_bytes": float(
            sum(install.get(kind, [0, 0])[1] for kind in ("sub", "marker"))
        ),
    }
    mem = measure_system(system)
    rep = Rep(
        setup_s=setup_s,
        segment_s=segment_s,
        verdict=verdict,
        delivery_digest=oracle.delivery_digest(delivered),
        delivered=delivered,
        latencies=latencies,
        outcome=outcome,
        mem_bytes_per_node=float(mem.bytes_per_node),
    )
    if tracer is not None:
        rep.layers = system_layers(system, mem, rc0, processed0, len(raw))
    del system
    return rep


def outcomes(inp: Inputs, rep: Rep) -> Dict[str, float]:
    """The simulated-outcome metrics of one repetition."""
    tail, support = oracle.percentile_with_support(rep.latencies, inp.shape.tail_pct)
    return {
        "latency_p50_ms": float(np.median(rep.latencies)),
        "latency_tail_ms": tail,
        "tail_support": float(support),
        "deliveries": float(len(rep.latencies)),
        "kb_per_event": rep.outcome["bytes"] / 1024.0 / rep.outcome["events"],
        "install_kb_per_sub": rep.outcome["install_bytes"] / 1024.0 / len(inp.subs),
        "mem_bytes_per_node": rep.mem_bytes_per_node,
    }


def system_layers(system, mem, rc0, processed0: int, deliveries: int) -> Dict[str, float]:
    """Per-layer numbers read from the system after the event phase."""
    out: Dict[str, float] = {}
    stats = system.network.stats
    msgs = dict.fromkeys(GROUPS, 0.0)
    nbytes = dict.fromkeys(GROUPS, 0.0)
    for kind, n in stats.msgs_by_kind.items():
        msgs[kind_group(kind)] += n
    for kind, b in stats.bytes_by_kind.items():
        nbytes[kind_group(kind)] += b
    for g in GROUPS:
        out[f"sim.network.msgs.{g}"] = msgs[g]
        out[f"sim.network.bytes.{g}"] = nbytes[g]
    out["sim.network.dropped"] = float(stats.dropped)
    out["sim.engine.setup_dispatched"] = float(processed0)
    out["sim.engine.dispatched"] = float(system.sim.processed - processed0)
    rc1 = system.route_cache_stats()
    hits = rc1["hits"] - rc0["hits"]
    attempted = hits + rc1["misses"] - rc0["misses"]
    out["dht.route_cache.hit_ratio"] = hits / attempted if attempted else 0.0
    out["core.node.deliveries"] = float(deliveries)

    sizes = [len(r.store) for n in system.nodes for r in n.zone_repos.values()]
    out["core.zones.repos"] = float(len(sizes))
    out["core.zones.one_box_share"] = (
        sum(1 for s in sizes if s == 1) / len(sizes) if sizes else 0.0
    )
    out["core.zones.max_repo_boxes"] = float(max(sizes, default=0))
    install = system.install_traffic
    out["core.install.sub_registrations"] = float(install.get("sub", [0, 0])[0])
    out["core.install.marker_registrations"] = float(install.get("marker", [0, 0])[0])

    durable = stats.durable_counts
    out["core.durability.log_high_water"] = float(
        max(
            (n.durable.high_water for n in system.nodes if n.durable is not None),
            default=0,
        )
    )
    out["core.durability.truncated"] = float(durable.get("truncated", 0))
    out["core.durability.redelivered"] = float(durable.get("redelivered", 0))
    out["core.durability.retransmitted"] = float(stats.retransmissions)
    out["core.durability.ack_msgs"] = msgs["ack"]

    alive = max(mem.alive_nodes, 1)
    for comp in (
        "zones", "subscriptions", "overlay", "transport", "route_cache",
        "durable_log", "sim_queue",
    ):
        out[f"mem.{comp}"] = mem.components.get(comp, 0) / alive
    return out


def peak_rss_mb() -> float:
    """Process peak RSS (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
