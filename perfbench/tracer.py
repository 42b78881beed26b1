"""Layer tracer for the traced benchmark run.

The tracer wraps the public entry points of each layer *from the
outside*: class attributes of the simulator, network, overlay, node,
matching and system classes are replaced by timing wrappers while a
:class:`Tracer` is installed, and restored on :meth:`Tracer.uninstall`.
Nothing under ``src/`` knows it is being traced.

Every wrapped call is a span with a layer, a start, an end and a parent.
A layer's self time is its spans' duration minus the time their child
spans cover.  Pauses of the cyclic collector count as children of the
span they interrupt, so the self times of all layers, the collector's
pauses and the tracer's own bookkeeping add up exactly to the phase
span (the root span the benchmark opens around a phase).  Counters are
aggregated over every call; full span records are kept only for a
seeded sample of event ids and written out when the run ends.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.covering import CoveringStore
from repro.core.indexing import BandIndex, GridIndex
from repro.core.matching import BoxStore
from repro.core.node import PubSubNodeMixin
from repro.core.system import HyperSubSystem
from repro.dht.base import OverlayNode
from repro.dht.chord import ChordNode
from repro.sim.engine import Simulator
from repro.sim.network import Network

#: message kind -> one of the eight reporting groups (unknown -> other)
KIND_GROUPS: Dict[str, str] = {
    "ps_event": "event",
    "ps_event_ack": "ack",
    "ps_dack": "ack",
    "ps_busy": "ack",
    "ps_register": "install",
    "ps_unregister": "install",
    "ps_replica": "install",
    "dht_lookup_step": "lookup",
    "dht_lookup_reply": "lookup",
    "koorde_lookup": "lookup",
    "koorde_result": "lookup",
    "chord_get_state": "maintenance",
    "chord_state_reply": "maintenance",
    "chord_notify": "maintenance",
    "chord_ping": "maintenance",
    "chord_pong": "maintenance",
    "chord_leave": "maintenance",
    "ps_ae_digest": "repair",
    "ps_ae_state": "repair",
    "ps_ae_fill": "repair",
    "ps_handoff": "repair",
    "ps_resync": "repair",
    "ps_resync_state": "repair",
    "ps_load_probe": "load-balance",
    "ps_load_reply": "load-balance",
    "ps_migrate": "load-balance",
    "ps_migrate_ack": "load-balance",
}
GROUPS = (
    "event", "ack", "install", "lookup", "maintenance", "repair",
    "load-balance", "other",
)


def kind_group(kind: str) -> str:
    return KIND_GROUPS.get(kind, "other")


def _handle_layer(kind: str) -> str:
    """Span layer of ``handle_message`` for one message kind: lookup
    traffic belongs to the DHT's lookup layer, the rest to the node."""
    group = kind_group(kind)
    return "dht.lookup" if group == "lookup" else f"core.node.handle.{group}"


class _Acc:
    """Per-layer aggregate of one phase: calls and self time."""

    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Span stack, per-phase layer aggregates and a sampled span log.

    ``sample_events`` is the set of event ids whose spans are recorded
    in full; every other span only feeds the aggregates.
    """

    def __init__(self, sample_events: Set[int] = frozenset()) -> None:
        self.sample_events = set(sample_events)
        self.phases: Dict[str, Dict[str, _Acc]] = {}
        self.phase_span: Dict[str, float] = {}
        self.bookkeeping: Dict[str, float] = {}
        self.counters: Dict[str, Dict[str, float]] = {}
        self.spans: List[Dict[str, Any]] = []
        #: frames: [children_s, span_id, event_id, layer]
        self._stack: List[list] = []
        self._acc: Dict[str, _Acc] = {}
        self._cnt: Dict[str, float] = {}
        self._phase = ""
        self._bk = 0.0
        self._next_id = 0
        self._saved: List[Tuple[type, str, Any]] = []
        #: cyclic-collector pauses: running total, per-phase totals and
        #: the start of the pause in progress
        self._gc_s = 0.0
        self.gc_s: Dict[str, float] = {}
        self._gc_start = 0.0
        #: qualified name -> times scheduled, for callbacks no wrapper covers
        self.unwrapped: Dict[str, int] = {}

    # -- phases ----------------------------------------------------------
    def run_phase(self, phase: str, root_layer: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as a root span of ``phase``; several calls with
        one phase name add up."""
        self._phase = phase
        self._acc = self.phases.setdefault(phase, {})
        self._cnt = self.counters.setdefault(phase, {})
        self._bk = self.bookkeeping.get(phase, 0.0)
        self._stack = [[0.0, 0, None, "root"]]
        gc0 = self._gc_s
        t0 = time.perf_counter()
        try:
            return self._span(root_layer, None, fn, ())
        finally:
            elapsed = time.perf_counter() - t0
            self.phase_span[phase] = self.phase_span.get(phase, 0.0) + elapsed
            self.bookkeeping[phase] = self._bk
            self.gc_s[phase] = self.gc_s.get(phase, 0.0) + self._gc_s - gc0
            self._stack = []

    def _on_gc(self, phase: str, info: dict) -> None:
        """A collector pause is a child of whatever span is running, so
        no layer's self time includes it."""
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        self._gc_s += pause
        if self._stack:
            self._stack[-1][0] += pause

    def count(self, name: str, n: float = 1) -> None:
        self._cnt[name] = self._cnt.get(name, 0) + n

    def _span(self, layer: str, eid: Optional[int], fn, args, kwargs=None, msg=None):
        # Everything between entering and leaving this method except the
        # wrapped call itself is bookkeeping: charged to neither the
        # span nor its parent.  Collector pauses are taken out of both
        # (see _on_gc); no object is allocated while the new frame is on
        # the stack outside the wrapped call, so a pause there cannot
        # land on the wrong frame.
        t_in = time.perf_counter()
        gc_in = self._gc_s
        stack = self._stack
        if not stack:  # called outside any traced phase
            return fn(*args, **(kwargs or {}))
        parent = stack[-1]
        if msg is not None:
            payload = msg.payload
            if type(payload) is dict:
                eid = payload.get("event_id")
        if eid is None:
            eid = parent[2]
        if kwargs is None:
            kwargs = {}
        self._next_id += 1
        frame = [0.0, self._next_id, eid, layer]
        stack.append(frame)
        gc0 = self._gc_s
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            gc1 = self._gc_s
            stack.pop()
            acc = self._acc.get(layer)
            if acc is None:
                acc = self._acc[layer] = _Acc()
            acc.calls += 1
            acc.self_s += (t1 - t0) - frame[0]
            if eid is not None and eid in self.sample_events:
                self.spans.append(
                    {
                        "id": frame[1],
                        "parent": parent[1],
                        "layer": layer,
                        "phase": self._phase,
                        "event_id": eid,
                        "start": t0,
                        "end": t1,
                    }
                )
            t2 = time.perf_counter()
            gc_bk = (gc0 - gc_in) + (self._gc_s - gc1)
            self._bk += (t0 - t_in) + (t2 - t1) - gc_bk
            parent[0] += (t2 - t_in) - gc_bk
        return result

    # -- installation ----------------------------------------------------
    def _patch(self, cls: type, name: str, wrapper_factory) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        wrapper = wrapper_factory(original)
        wrapper.traced = True
        setattr(cls, name, wrapper)

    def _schedule_at(self, fn):
        """Count scheduled callbacks that no wrapper covers: their time
        would hide in the engine's self time."""
        tracer = self

        def schedule_at(sim, when, callback, *args):
            if not getattr(getattr(callback, "__func__", callback), "traced", False):
                name = getattr(callback, "__qualname__", repr(callback))
                tracer.unwrapped[name] = tracer.unwrapped.get(name, 0) + 1
            return fn(sim, when, callback, *args)

        return schedule_at

    def _plain(self, layer: str, counter: Optional[str] = None):
        def factory(fn):
            span = self._span
            tracer = self

            def wrapper(*args, **kwargs):
                if counter is not None:
                    tracer.count(counter)
                return span(layer, None, fn, args, kwargs)

            return wrapper

        return factory

    def _msg_span(self, layer: str, counter: Optional[str] = None):
        def factory(fn):
            span = self._span
            tracer = self

            def wrapper(obj, msg, *args):
                if counter is not None:
                    tracer.count(counter)
                return span(layer, None, fn, (obj, msg) + args, None, msg)

            return wrapper

        return factory

    def _handle(self, fn):
        span = self._span
        layers: Dict[str, str] = {}

        def wrapper(node, msg):
            layer = layers.get(msg.kind)
            if layer is None:
                layer = layers[msg.kind] = _handle_layer(msg.kind)
            return span(layer, None, fn, (node, msg), None, msg)

        return wrapper

    def _publish(self, fn):
        span = self._span

        def wrapper(system, addr, event):
            # Event ids are handed out sequentially by the system's
            # metrics; the id this publish will get tags its span.
            eid = system.metrics._next_event_id + 1
            return span("core.node.publish", eid, fn, (system, addr, event))

        return wrapper

    def _lookup(self, fn):
        span = self._span
        tracer = self

        def wrapper(node, key, callback):
            def on_result(result):
                tracer.count("dht.lookup.hops", result.hops)
                tracer.count("dht.lookup.done")
                return callback(result)

            tracer.count("dht.lookup.started")
            return span("dht.lookup", None, fn, (node, key, on_result))

        return wrapper

    def _matching(self, fn):
        """``match_point`` wrapper: boxes scanned and hit ratio.  Nested
        calls (a covering store querying its inner index) are passed
        through so one logical match counts once."""
        span = self._span
        tracer = self

        def wrapper(store, point):
            stack = tracer._stack
            if stack and stack[-1][3] == "core.matching.match_point":
                return fn(store, point)
            tracer.count("core.matching.match_point.boxes", len(store))
            result = span("core.matching.match_point", None, fn, (store, point))
            if result:
                tracer.count("core.matching.match_point.hits")
            return result

        return wrapper

    def _put(self, fn):
        span = self._span
        tracer = self

        def wrapper(store, *args):
            stack = tracer._stack
            if stack and stack[-1][3] == "core.matching.put":
                return fn(store, *args)
            return span("core.matching.put", None, fn, (store,) + args)

        return wrapper

    def install(self) -> None:
        """Wrap every traced entry point (class-level, reversible)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        p = self._patch
        p(Simulator, "run", self._plain("sim.engine"))
        p(Network, "send", self._msg_span("sim.network", "sim.network.sends"))
        p(Network, "_deliver", self._msg_span("sim.network"))
        p(OverlayNode, "handle_message", self._handle)
        p(OverlayNode, "lookup", self._lookup)
        p(OverlayNode, "_lookup_restart", self._plain("dht.lookup"))
        p(ChordNode, "next_hop_addr", self._plain("dht.next_hop"))
        p(ChordNode, "is_responsible", self._plain("dht.is_responsible"))
        for name in ("stabilize", "fix_fingers", "check_predecessor"):
            p(ChordNode, name, self._plain("dht.maintenance", "dht.maintenance.calls"))
        for name in ("_maintenance_tick", "_rpc_timeout"):
            p(ChordNode, name, self._plain("dht.maintenance"))
        # the system-level entry point is what the publish schedule calls
        p(HyperSubSystem, "publish", self._publish)
        p(Simulator, "schedule_at", self._schedule_at)
        # timer callbacks of the reliability/durability/repair machinery
        for name in (
            "_rel_retry", "_failover_resend", "_rel_busy_resend", "_dur_tick",
            "_flush_cascade", "_ae_tick", "promote_takeovers",
        ):
            p(PubSubNodeMixin, name, self._plain("core.node.timers"))
        for cls in (BoxStore, GridIndex, BandIndex, CoveringStore):
            if "match_point" in cls.__dict__:
                p(cls, "match_point", self._matching)
            if "put" in cls.__dict__:
                p(cls, "put", self._put)
        p(HyperSubSystem, "subscribe", self._plain("core.system.subscribe"))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    # -- results ---------------------------------------------------------
    def self_s(self, phase: str, layer: str) -> float:
        acc = self.phases.get(phase, {}).get(layer)
        return acc.self_s if acc is not None else 0.0

    def calls(self, phase: str, layer: str) -> int:
        acc = self.phases.get(phase, {}).get(layer)
        return acc.calls if acc is not None else 0

    def counter(self, phase: str, name: str) -> float:
        return self.counters.get(phase, {}).get(name, 0)

    def accounted_s(self, phase: str) -> float:
        """Sum of every layer's self time, tracer bookkeeping and
        collector pauses; equals :attr:`phase_span` up to float rounding."""
        return (
            sum(a.self_s for a in self.phases.get(phase, {}).values())
            + self.bookkeeping.get(phase, 0.0)
            + self.gc_s.get(phase, 0.0)
        )

    def write_spans(self, path) -> None:
        """Write the sampled span records as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def dispatch_us(traced: bool, n: int = 20_000) -> float:
    """Median engine cost (µs) of dispatching one no-op callback from a
    heap of ``n`` pending entries.

    ``traced=False`` is a bare :class:`Simulator` dispatch.  With
    ``traced=True`` the callback is wrapped like every traced entry
    point and the figure is the engine's *self* time per dispatch -- what
    a fully wrapped run should show.  Collection is paused so neither
    figure depends on how much heap earlier work left behind.
    """
    samples = []
    for _ in range(5):
        sim = Simulator()
        tracer = Tracer()
        fn = tracer._plain("trace.micro")(_noop) if traced else _noop
        for i in range(n):
            sim.schedule_at(float((i * 7919) % n), fn)
        gc.collect()
        gc.disable()
        try:
            if traced:
                tracer.run_phase("micro", "sim.engine", sim.run)
                samples.append(tracer.self_s("micro", "sim.engine") / n * 1e6)
            else:
                t0 = time.perf_counter()
                sim.run()
                samples.append((time.perf_counter() - t0) / n * 1e6)
        finally:
            gc.enable()
    samples.sort()
    return samples[len(samples) // 2]


def _noop() -> None:
    return None
