"""Chord (Stoica et al., SIGCOMM'01) with proximity neighbour selection.

Two construction modes:

* **Static** (:func:`build_chord_overlay`) -- every node's predecessor,
  successor list and finger table are computed from the global ring.
  This mirrors the paper's methodology ("the simulation starts by
  initializing subscriptions on each node ... after system
  stabilization, we schedule events"): measurements run on a stabilised
  overlay.
* **Dynamic** -- :meth:`ChordNode.join`, periodic
  :meth:`ChordNode.stabilize` / :meth:`ChordNode.fix_fingers`, graceful
  :meth:`ChordNode.leave` and crash-stop :meth:`ChordNode.fail`, used by
  the churn experiments (paper Section 6 lists churn behaviour as future
  work; we implement it as the extension).

Responsibility convention: a node owns key ``k`` iff
``k in (predecessor, self]`` on the clockwise ring, i.e. the node is
``successor(k)``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dht.base import OverlayNode
from repro.dht.idspace import (
    ID_BITS,
    ID_MASK,
    cw_distance,
    id_add,
    id_in_interval,
    id_sub,
    random_ids,
)
from repro.dht.pns import build_finger_table
from repro.dht.ring import SortedRing
from repro.sim.messages import CONTROL_BYTES, Message
from repro.sim.network import Network

_rpc_ids = itertools.count()

#: Default successor-list length (p2psim Chord default neighbourhood).
DEFAULT_SUCC_LIST = 8
#: Consecutive RPC timeouts before a neighbour is presumed dead.
DEFAULT_SUSPICION_THRESHOLD = 3


class _TrackedList(list):
    """A list that bumps its owner's routing epoch on every mutation.

    ``ChordNode.successors`` is mutated both by wholesale reassignment
    (caught by the property setter) and in place (``insert`` during
    stabilization, comprehension-filtered eviction...).  Routing the
    in-place mutators through the epoch keeps the sorted routing
    snapshot and every downstream next-hop cache honest without a
    dirty flag at each of the dozen call sites.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "OverlayNode", iterable=()) -> None:
        super().__init__(iterable)
        self._owner = owner

    def append(self, value) -> None:
        super().append(value)
        self._owner.bump_routing_epoch()

    def insert(self, index, value) -> None:
        super().insert(index, value)
        self._owner.bump_routing_epoch()

    def extend(self, iterable) -> None:
        super().extend(iterable)
        self._owner.bump_routing_epoch()

    def remove(self, value) -> None:
        super().remove(value)
        self._owner.bump_routing_epoch()

    def pop(self, index=-1):
        out = super().pop(index)
        self._owner.bump_routing_epoch()
        return out

    def clear(self) -> None:
        super().clear()
        self._owner.bump_routing_epoch()

    def sort(self, **kwargs) -> None:
        super().sort(**kwargs)
        self._owner.bump_routing_epoch()

    def reverse(self) -> None:
        super().reverse()
        self._owner.bump_routing_epoch()

    def __setitem__(self, index, value) -> None:
        super().__setitem__(index, value)
        self._owner.bump_routing_epoch()

    def __delitem__(self, index) -> None:
        super().__delitem__(index)
        self._owner.bump_routing_epoch()

    def __iadd__(self, other):
        result = super().__iadd__(other)
        self._owner.bump_routing_epoch()
        return result


class _TrackedDict(dict):
    """A dict that bumps its owner's routing epoch on every mutation
    (the finger-table counterpart of :class:`_TrackedList`)."""

    __slots__ = ("_owner",)

    def __init__(self, owner: "OverlayNode", mapping=()) -> None:
        super().__init__(mapping)
        self._owner = owner

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self._owner.bump_routing_epoch()

    def __delitem__(self, key) -> None:
        super().__delitem__(key)
        self._owner.bump_routing_epoch()

    def pop(self, *args):
        out = super().pop(*args)
        self._owner.bump_routing_epoch()
        return out

    def popitem(self):
        out = super().popitem()
        self._owner.bump_routing_epoch()
        return out

    def clear(self) -> None:
        super().clear()
        self._owner.bump_routing_epoch()

    def update(self, *args, **kwargs) -> None:
        super().update(*args, **kwargs)
        self._owner.bump_routing_epoch()

    def setdefault(self, key, default=None):
        out = super().setdefault(key, default)
        self._owner.bump_routing_epoch()
        return out


class ChordNode(OverlayNode):
    """One Chord participant."""

    suspicion_threshold = DEFAULT_SUSPICION_THRESHOLD

    def __init__(
        self,
        addr: int,
        node_id: int,
        network: Network,
        succ_list_len: int = DEFAULT_SUCC_LIST,
        stabilize_interval_ms: float = 500.0,
        rpc_timeout_ms: float = 2000.0,
    ) -> None:
        super().__init__(addr, node_id, network)
        self.succ_list_len = succ_list_len
        self.stabilize_interval_ms = stabilize_interval_ms
        self.rpc_timeout_ms = rpc_timeout_ms

        #: sorted routing snapshot (docs/PERFORMANCE.md): clockwise
        #: distances from this node and the matching (id, addr) entries,
        #: rebuilt lazily whenever ``routing_epoch`` moves past
        #: ``_snap_epoch``.  ``_closest_preceding`` bisects it instead of
        #: scanning and re-deduplicating fingers+successors per call.
        self._snap_rot: List[int] = []
        self._snap_entries: List[Tuple[int, int]] = []
        self._snap_epoch = -1

        self.predecessor: Optional[Tuple[int, int]] = None  # (id, addr)
        self.successors: List[Tuple[int, int]] = []  # clockwise order
        self.fingers: Dict[int, Tuple[int, int]] = {}
        #: called as fn(old_pred_id, new_pred_id) when the owned arc
        #: shrinks (a joiner slid in) or grows (takeover after failure)
        self.on_predecessor_change: Optional[
            Callable[[Optional[int], Optional[int]], None]
        ] = None

        self._next_fix_finger = 0
        self._pending_rpcs: Dict[int, dict] = {}
        self._running_maintenance = False
        #: consecutive unanswered RPCs per neighbour id.  A neighbour is
        #: evicted only after ``suspicion_threshold`` misses in a row:
        #: on lossy links a single timeout is far more likely a dropped
        #: packet than a death, and hair-trigger eviction makes the ring
        #: flap forever (a live successor gets dropped, re-learned via
        #: notify, dropped again...).
        self._suspicion: Dict[int, int] = {}
        #: piggybacked ring state absorbed from application traffic:
        #: sender id -> (sim time, sender predecessor, sender successor).
        #: When fresh, stabilize/check_predecessor skip their dedicated
        #: RPCs (the paper's Section 6 piggybacking direction).
        self._pb_info: Dict[int, Tuple[float, Optional[Tuple[int, int]], Optional[Tuple[int, int]]]] = {}

        self.register_handler("chord_get_state", self._on_get_state)
        self.register_handler("chord_state_reply", self._on_state_reply)
        self.register_handler("chord_notify", self._on_notify)
        self.register_handler("chord_leave", self._on_leave)
        self.register_handler("chord_ping", self._on_ping)
        self.register_handler("chord_pong", self._on_pong)

    # ------------------------------------------------------------------
    # Routing state: epoch-tracked containers
    # ------------------------------------------------------------------
    # Wholesale reassignment (``node.successors = [...]``) and in-place
    # mutation (``node.successors.insert(0, ...)``) both invalidate the
    # sorted routing snapshot; the property setters and the tracked
    # containers cover the two cases respectively.  The predecessor
    # pointer participates too: it defines ``is_responsible``, so any
    # next-hop cache keyed on the epoch must die when it moves.

    @property
    def predecessor(self) -> Optional[Tuple[int, int]]:
        return self._predecessor

    @predecessor.setter
    def predecessor(self, value: Optional[Tuple[int, int]]) -> None:
        self._predecessor = value
        self.bump_routing_epoch()

    @property
    def successors(self) -> List[Tuple[int, int]]:
        return self._successors

    @successors.setter
    def successors(self, value) -> None:
        self._successors = _TrackedList(self, value)
        self.bump_routing_epoch()

    @property
    def fingers(self) -> Dict[int, Tuple[int, int]]:
        return self._fingers

    @fingers.setter
    def fingers(self, value) -> None:
        self._fingers = _TrackedDict(self, value)
        self.bump_routing_epoch()

    # ------------------------------------------------------------------
    # Routing (OverlayNode interface)
    # ------------------------------------------------------------------
    def is_responsible(self, key: int) -> bool:
        pred = self._predecessor
        if pred is None:
            # Bootstrapping/single node: own everything we are asked about.
            return not self._successors or key == self.node_id
        # ``id_in_interval(key, pred, self, incl_right=True)``, inlined:
        # this runs once per SubID entry on every hop.
        pred_id = pred[0]
        if pred_id == self.node_id:
            return True  # own predecessor: the arc is the whole ring
        arc = (self.node_id - pred_id) & ID_MASK
        return 0 < ((key - pred_id) & ID_MASK) <= arc

    def next_hop_addr(self, key: int) -> Optional[int]:
        if self.is_responsible(key):
            return None
        if not self.successors:
            return None
        succ_id, succ_addr = self.successors[0]
        # A same-id rejoin can transiently hold *itself* as successor
        # (its join lookup resolved through the ring back to its own
        # address).  Forwarding to ourselves would loop at zero cost
        # forever, so a self-entry never routes; stabilization replaces
        # it within a round or two.
        if succ_addr != self.addr and id_in_interval(
            key, self.node_id, succ_id, incl_right=True
        ):
            return succ_addr
        best = self._closest_preceding(key)
        if best is not None:
            return best[1]
        return succ_addr if succ_addr != self.addr else None

    def _refresh_snapshot(self) -> None:
        """Rebuild the sorted routing snapshot from fingers+successors.

        Dedup precedence (fingers first) matches the historical
        ``routing_entries`` so the bisect router answers byte-identically
        to the linear scan it replaced.  Entries equal to this node are
        dropped: they can never make strict clockwise progress.
        """
        seen: Dict[int, int] = {}
        for ent_id, ent_addr in self._fingers.values():
            if ent_id != self.node_id:
                seen.setdefault(ent_id, ent_addr)
        for ent_id, ent_addr in self._successors:
            if ent_id != self.node_id:
                seen.setdefault(ent_id, ent_addr)
        me = self.node_id
        order = sorted((id_sub(ent_id, me), ent_id) for ent_id in seen)
        self._snap_rot = [rot for rot, _ in order]
        self._snap_entries = [(ent_id, seen[ent_id]) for _, ent_id in order]
        self._snap_epoch = self.routing_epoch

    def routing_snapshot(self) -> Tuple[List[int], List[Tuple[int, int]]]:
        """The (rotated distances, entries) pair, refreshed if stale.

        Exposed for benchmarks and property tests; both lists are owned
        by the node and must be treated as read-only.
        """
        if self._snap_epoch != self.routing_epoch:
            self._refresh_snapshot()
        return self._snap_rot, self._snap_entries

    def _closest_preceding(self, key: int) -> Optional[Tuple[int, int]]:
        """Routing entry with the largest clockwise progress toward ``key``.

        Only entries strictly inside ``(self, key)`` qualify, the classic
        Chord guarantee that routing never overshoots the home node.
        O(log f) bisect over the sorted snapshot, allocation-free per
        call; :meth:`_closest_preceding_linear` is the reference scan the
        property tests compare against.
        """
        if self._snap_epoch != self.routing_epoch:
            self._refresh_snapshot()
        rot = self._snap_rot
        if not rot:
            return None
        d = id_sub(key, self.node_id)
        # d == 0 (key == self) means the open arc (self, self): the whole
        # ring qualifies, i.e. every snapshot entry.
        idx = bisect_left(rot, d) if d else len(rot)
        if idx == 0:
            return None
        return self._snap_entries[idx - 1]

    def _closest_preceding_linear(self, key: int) -> Optional[Tuple[int, int]]:
        """Reference implementation: linear scan over raw routing state.

        Kept (not dead code) as the ground truth for the snapshot router:
        the property tests assert agreement on randomized rings and the
        bench harness measures the speedup against it.
        """
        seen: Dict[int, int] = {}
        for ent_id, ent_addr in self._fingers.values():
            seen.setdefault(ent_id, ent_addr)
        for ent_id, ent_addr in self._successors:
            seen.setdefault(ent_id, ent_addr)
        best: Optional[Tuple[int, int]] = None
        best_dist = -1
        for ent_id, ent_addr in seen.items():
            if id_in_interval(ent_id, self.node_id, key):
                d = cw_distance(self.node_id, ent_id)
                if d > best_dist:
                    best = (ent_id, ent_addr)
                    best_dist = d
        return best

    def routing_entries(self) -> List[Tuple[int, int]]:
        """Fingers plus successor list, deduplicated by id.

        Derived from the sorted snapshot (clockwise from this node), so
        anti-entropy and breaker callers no longer rebuild a dict per
        call.  Owned by the node -- treat as read-only.
        """
        if self._snap_epoch != self.routing_epoch:
            self._refresh_snapshot()
        return self._snap_entries

    def neighbor_addrs(self) -> List[int]:
        """Distinct neighbour addresses, memoised per routing epoch."""
        if self._neigh_epoch != self.routing_epoch:
            out: List[int] = []
            seen = set()
            for _id, a in self.routing_entries():
                if a != self.addr and a not in seen:
                    seen.add(a)
                    out.append(a)
            pred = self._predecessor
            if pred is not None and pred[1] not in seen and pred[1] != self.addr:
                out.append(pred[1])
            self._neigh_cache = out
            self._neigh_epoch = self.routing_epoch
        return self._neigh_cache

    # ------------------------------------------------------------------
    # Dynamic membership
    # ------------------------------------------------------------------
    def join(self, bootstrap: "ChordNode", done: Optional[Callable[[], None]] = None) -> None:
        """Join via ``bootstrap``: resolve our successor, start maintenance.

        The joining node has no routing state yet, so the successor
        lookup is delegated to the bootstrap node.
        """
        state = {"joined": False, "tries": 0}

        def _joined(result) -> None:
            if state["joined"]:
                return  # a retried lookup also completed
            state["joined"] = True
            ent = (result.home_id, result.home_addr)
            keep = [
                s for s in self.successors
                if s[0] not in (self.node_id, ent[0])
            ]
            if ent[1] == self.addr:
                # A same-id rejoin can capture its own walk: the ring
                # still routes our identifier to our (reused) address,
                # so the lookup teaches us nothing.  Any seeded
                # neighbor hint beats "ourselves"; with no hint either,
                # fall back to the bootstrap -- a live non-self entry
                # stabilization can walk to the true successor, where
                # installing ourselves would wedge the node for good.
                self.successors = (
                    keep[: self.succ_list_len]
                    if keep
                    else [(bootstrap.node_id, bootstrap.addr)]
                )
            else:
                self.successors = ([ent] + keep)[: self.succ_list_len]
            self.start_maintenance()
            if done is not None:
                done()

        def _attempt() -> None:
            # The iterative lookup has no transport-level recovery: one
            # lost step or reply stalls it forever, and a node whose
            # join never completes never starts maintenance -- the ring
            # cannot heal around it.  Retry until it lands (bounded).
            if state["joined"] or not self.alive() or not bootstrap.alive():
                return
            state["tries"] += 1
            bootstrap.lookup(self.node_id, _joined)
            if state["tries"] < 25:
                self.sim.schedule(2.0 * self.rpc_timeout_ms, _attempt)

        _attempt()

    def start_maintenance(self) -> None:
        """Begin periodic stabilize/fix-finger rounds (idempotent)."""
        if self._running_maintenance:
            return
        self._running_maintenance = True
        self.sim.schedule(self.stabilize_interval_ms, self._maintenance_tick)

    def stop_maintenance(self) -> None:
        self._running_maintenance = False

    def _maintenance_tick(self) -> None:
        if not self._running_maintenance or not self._alive:
            return
        self.stabilize()
        self.fix_fingers()
        self.check_predecessor()
        self.sim.schedule(self.stabilize_interval_ms, self._maintenance_tick)

    def check_predecessor(self) -> None:
        """Ping the predecessor; clear the pointer if it stopped answering.

        Without this, a stale predecessor pointer on a live node keeps
        being handed out during stabilization and its (dead) owner is
        re-adopted as a successor forever.
        """
        if self.predecessor is None:
            return
        if self._fresh_piggyback(self.predecessor[0]) is not None:
            return  # heard from them recently: alive, no ping needed
        rpc = next(_rpc_ids)
        self._pending_rpcs[rpc] = {"kind": "ping_pred", "pred": self.predecessor}
        self.send(
            Message(
                src=self.addr,
                dst=self.predecessor[1],
                kind="chord_ping",
                payload={"rpc": rpc, "origin": self.addr},
                size_bytes=CONTROL_BYTES,
            )
        )
        self.sim.schedule(self.rpc_timeout_ms, self._rpc_timeout, rpc)

    def _on_ping(self, msg: Message) -> None:
        self.send(
            Message(
                src=self.addr,
                dst=msg.payload["origin"],
                kind="chord_pong",
                payload={"rpc": msg.payload["rpc"]},
                size_bytes=CONTROL_BYTES,
            )
        )

    def _on_pong(self, msg: Message) -> None:
        state = self._pending_rpcs.pop(msg.payload["rpc"], None)
        if state is not None and state.get("pred") is not None:
            self._suspicion.pop(state["pred"][0], None)

    # ------------------------------------------------------------------
    # Piggybacked maintenance (Section 6 future work, implemented)
    # ------------------------------------------------------------------
    def absorb_piggyback(
        self,
        sender_id: int,
        sender_addr: int,
        sender_pred: Optional[Tuple[int, int]],
        sender_succ: Optional[Tuple[int, int]],
    ) -> None:
        """Harvest ring state riding on an application message.

        The message is proof of the sender's liveness, doubles as an
        implicit ``notify`` (the sender may be our rightful
        predecessor), and carries the data a ``stabilize`` RPC would
        have fetched if the sender is our successor.
        """
        self._pb_info[sender_id] = (self.sim.now, sender_pred, sender_succ)
        if sender_id != self.node_id and (
            self.predecessor is None
            or id_in_interval(sender_id, self.predecessor[0], self.node_id)
        ):
            self._set_predecessor((sender_id, sender_addr))

    def _fresh_piggyback(self, node_id: int):
        info = self._pb_info.get(node_id)
        if info is None or self.sim.now - info[0] > self.stabilize_interval_ms:
            return None
        return info

    def stabilize(self) -> None:
        """One stabilization round: reconcile with our first live successor.

        If the successor's state arrived piggybacked on recent
        application traffic, reconcile from that for free instead of
        issuing the dedicated RPC pair.
        """
        if not self.successors:
            return
        succ_id, succ_addr = self.successors[0]
        info = self._fresh_piggyback(succ_id)
        if info is not None:
            _t, pred, _succ = info
            if pred is not None and id_in_interval(pred[0], self.node_id, succ_id):
                self.successors.insert(0, tuple(pred))
                self.successors = self.successors[: self.succ_list_len]
            self.send(
                Message(
                    src=self.addr,
                    dst=self.successors[0][1],
                    kind="chord_notify",
                    payload={"id": self.node_id, "addr": self.addr},
                    size_bytes=CONTROL_BYTES,
                )
            )
            return
        rpc = next(_rpc_ids)
        self._pending_rpcs[rpc] = {"kind": "stabilize", "succ": (succ_id, succ_addr)}
        self.send(
            Message(
                src=self.addr,
                dst=succ_addr,
                kind="chord_get_state",
                payload={"rpc": rpc, "origin": self.addr},
                size_bytes=CONTROL_BYTES,
            )
        )
        self.sim.schedule(self.rpc_timeout_ms, self._rpc_timeout, rpc)

    def _rpc_timeout(self, rpc: int) -> None:
        state = self._pending_rpcs.pop(rpc, None)
        if state is None:
            return  # completed in time
        if state["kind"] == "stabilize":
            dead = state["succ"]
            misses = self._suspicion.get(dead[0], 0) + 1
            self._suspicion[dead[0]] = misses
            if misses < self.suspicion_threshold:
                return  # probably a lost packet; try again next round
            # Successor presumed dead: fail over to the next list entry.
            self._suspicion.pop(dead[0], None)
            kept = [s for s in self.successors if s != dead]
            if not kept:
                # Dropping the LAST successor is permanent
                # self-isolation (no stabilize, no fix_fingers -- see
                # evict_neighbor).  Under sustained loss a live node
                # can time out on every entry one by one, so re-seed
                # from any other peer we still know: stabilization
                # walks from an arbitrary live entry back to the true
                # successor.  With no alternative, keep the suspect --
                # retrying a corpse beats isolating ourselves.
                fallback = self._any_known_peer(exclude=dead[0])
                kept = [fallback] if fallback is not None else [dead]
            self.successors = kept
            self.fingers = {
                i: f for i, f in self.fingers.items() if f != dead
            }
            if self.predecessor == dead:
                self._set_predecessor(None)
        elif state["kind"] == "ping_pred":
            pred = state["pred"]
            misses = self._suspicion.get(pred[0], 0) + 1
            self._suspicion[pred[0]] = misses
            if misses < self.suspicion_threshold:
                return
            self._suspicion.pop(pred[0], None)
            if self.predecessor == pred:
                self._set_predecessor(None)

    def _on_get_state(self, msg: Message) -> None:
        self.send(
            Message(
                src=self.addr,
                dst=msg.payload["origin"],
                kind="chord_state_reply",
                payload={
                    "rpc": msg.payload["rpc"],
                    "pred": self.predecessor,
                    "succ_list": list(self.successors),
                    "node_id": self.node_id,
                    "addr": self.addr,
                },
                size_bytes=CONTROL_BYTES,
            )
        )

    def _on_state_reply(self, msg: Message) -> None:
        state = self._pending_rpcs.pop(msg.payload["rpc"], None)
        if state is None or state["kind"] != "stabilize":
            return
        succ_id, succ_addr = state["succ"]
        self._suspicion.pop(succ_id, None)  # they answered: alive
        pred = msg.payload["pred"]
        if pred is not None and id_in_interval(pred[0], self.node_id, succ_id):
            # A node slid in between us and our successor: adopt it.
            succ_id, succ_addr = pred
        chain = [(succ_id, succ_addr)] + [
            s for s in msg.payload["succ_list"] if s[0] != self.node_id
        ]
        dedup: List[Tuple[int, int]] = []
        seen = set()
        for ent in chain:
            ent = tuple(ent)
            if ent[0] not in seen and ent[0] != self.node_id:
                seen.add(ent[0])
                dedup.append(ent)  # already clockwise
        self.successors = dedup[: self.succ_list_len]
        if self.successors:
            self.send(
                Message(
                    src=self.addr,
                    dst=self.successors[0][1],
                    kind="chord_notify",
                    payload={"id": self.node_id, "addr": self.addr},
                    size_bytes=CONTROL_BYTES,
                )
            )

    def _on_notify(self, msg: Message) -> None:
        cand = (msg.payload["id"], msg.payload["addr"])
        if cand[0] == self.node_id:
            return
        if self.predecessor is None or id_in_interval(
            cand[0], self.predecessor[0], self.node_id
        ):
            self._set_predecessor(cand)

    def _set_predecessor(self, pred: Optional[Tuple[int, int]]) -> None:
        old = self.predecessor
        self.predecessor = pred
        if old != pred and self.on_predecessor_change is not None:
            self.on_predecessor_change(
                old[0] if old else None, pred[0] if pred else None
            )

    #: fingers refreshed per maintenance round; one is the classic
    #: textbook rate, but cycling a 64-entry table then takes
    #: 64 x stabilize_interval -- far too slow to purge dead fingers
    #: under bursty churn.
    fingers_per_fix = 4

    def fix_fingers(self) -> None:
        """Refresh a few fingers per round (round-robin over the table)."""
        if not self.successors:
            return
        for _ in range(self.fingers_per_fix):
            i = self._next_fix_finger
            self._next_fix_finger = (self._next_fix_finger + 1) % ID_BITS

            def _fixed(result, i=i) -> None:
                if result.home_id != self.node_id:
                    self.fingers[i] = (result.home_id, result.home_addr)

            self.lookup(id_add(self.node_id, 1 << i), _fixed)

    def _any_known_peer(
        self, exclude: Optional[int] = None
    ) -> Optional[Tuple[int, int]]:
        """Clockwise-nearest known peer (fingers + predecessor).

        Successor-list last-resort reseeding: any live entry lets
        stabilization converge (it repeatedly adopts succ.predecessor,
        walking back to the true successor), but the clockwise-nearest
        candidate converges fastest.
        """
        best: Optional[Tuple[int, int]] = None
        best_d = None
        cands = list(self.fingers.values())
        if self.predecessor is not None:
            cands.append(self.predecessor)
        for cand in cands:
            cand = tuple(cand)
            if cand[0] == self.node_id or cand[0] == exclude:
                continue
            d = cw_distance(self.node_id, cand[0])
            if best_d is None or d < best_d:
                best, best_d = cand, d
        return best

    def evict_neighbor(self, addr: int) -> None:
        """Drop every routing entry pointing at ``addr`` (presumed dead).

        Used by hop-failover: when event transport exhausts its retries
        against a hop, the sender has stronger evidence of death than a
        single maintenance timeout, so the corpse is purged immediately
        and the alternate finger/successor takes over routing.  A wrong
        call is harmless -- stabilization re-learns live neighbours --
        with one exception: the LAST successor is never evicted.  A node
        with an empty successor list cannot route, stabilize, or fix
        fingers, so that eviction would be permanent self-isolation,
        maintenance or not.  The evidence can also be wrong about *us*
        rather than the peer: a node whose own ingress queue is
        saturated sheds the acks its neighbours send back, and would
        otherwise purge its entire (live) routing table one give-up at
        a time.  Keeping one suspect is recoverable -- transport
        failover routes around it and stabilization replaces it;
        keeping none is not.
        """
        kept = [s for s in self.successors if s[1] != addr]
        if kept or not self.successors:
            self.successors = kept
        self.fingers = {i: f for i, f in self.fingers.items() if f[1] != addr}
        # The predecessor is deliberately NOT touched: it defines this
        # node's responsibility interval, and clearing it makes the node
        # disown its whole arc (``is_responsible`` falls back to the
        # bootstrap rule) -- a silent black hole for every key routed
        # here until some predecessor re-notifies, which never happens
        # if the eviction evidence was our own shed acks.  Dead
        # predecessors are ``check_predecessor``'s job: a direct ping
        # with a suspicion threshold, immune to self-inflicted give-ups.

    def leave(self) -> None:
        """Graceful departure: link predecessor and successor directly."""
        self.stop_maintenance()
        if self.successors and self.predecessor is not None:
            succ = self.successors[0]
            pred = self.predecessor
            self.send(
                Message(
                    src=self.addr,
                    dst=succ[1],
                    kind="chord_leave",
                    payload={"role": "pred", "neighbor": pred},
                    size_bytes=CONTROL_BYTES,
                )
            )
            self.send(
                Message(
                    src=self.addr,
                    dst=pred[1],
                    kind="chord_leave",
                    payload={"role": "succ", "neighbor": succ},
                    size_bytes=CONTROL_BYTES,
                )
            )
        self._alive = False

    def _on_leave(self, msg: Message) -> None:
        neighbor = tuple(msg.payload["neighbor"])
        if msg.payload["role"] == "pred":
            self._set_predecessor(neighbor)
        else:
            self.successors = [s for s in self.successors if s[1] != msg.src]
            if not self.successors or id_in_interval(
                neighbor[0], self.node_id, self.successors[0][0]
            ):
                self.successors.insert(0, neighbor)


def build_chord_overlay(
    network: Network,
    seed: int = 1,
    *,
    pns: bool = True,
    pns_samples: int = 16,
    succ_list_len: int = DEFAULT_SUCC_LIST,
    node_ids: Optional[List[int]] = None,
    node_factory: Optional[Callable[..., ChordNode]] = None,
) -> Tuple[List[ChordNode], SortedRing]:
    """Construct a fully-stabilised Chord overlay over a whole topology.

    Returns ``(nodes, ring)`` where ``nodes[addr]`` is the node at that
    network address and ``ring`` is the global id oracle (useful for
    tests and for static zone placement).

    ``node_factory`` lets higher layers substitute a subclass (the
    HyperSub node extends :class:`ChordNode`).
    """
    n = network.topology.size
    ids = node_ids if node_ids is not None else random_ids(n, seed)
    if len(ids) > n:
        raise ValueError("more ids than network addresses")
    # Fewer ids than addresses is allowed: the overlay occupies addresses
    # [0, len(ids)) and later joiners take the remaining ones.
    n = len(ids)
    ring = SortedRing((node_id, addr) for addr, node_id in enumerate(ids))

    factory = node_factory or ChordNode
    nodes: List[ChordNode] = [
        factory(addr, ids[addr], network, succ_list_len=succ_list_len)
        for addr in range(n)
    ]

    rng = np.random.default_rng(seed ^ 0xC0FFEE)
    for node in nodes:
        pred_id = ring.predecessor(node.node_id)
        node.predecessor = (pred_id, ring.addr(pred_id))
        node.successors = [
            (sid, ring.addr(sid))
            for sid in ring.successor_list(node.node_id, succ_list_len)
        ]
        node.fingers = build_finger_table(
            node.node_id,
            node.addr,
            ring,
            network.topology,
            pns=pns,
            pns_samples=pns_samples,
            rng=rng,
        )
    return nodes, ring
