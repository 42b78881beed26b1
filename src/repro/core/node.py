"""HyperSub node logic: Algorithms 2-5 plus the migration protocol.

:class:`PubSubNodeMixin` carries everything above the DHT:

* subscriber-side state (the user's own subscriptions, Algorithm 2);
* surrogate-side state: one :class:`ZoneRepo` per content zone this
  node is surrogate for ("content zones are managed individually, with
  the node regarded as a few virtual nodes"), each holding a
  :class:`~repro.core.matching.BoxStore`, a summary filter and the
  surrogate subscriptions pushed to child zones (Algorithm 3);
* event processing (Algorithm 5): match locally, merge matched SubIDs,
  group the remainder by next DHT hop, forward one aggregated message
  per link;
* dynamic subscription migration (Section 4): load probing, acceptor
  selection, per-arc migration, summarising surrogate subscriptions.

Concrete node classes bind the mixin to an overlay:
:class:`HyperSubChordNode` (the paper's configuration) and
:class:`HyperSubPastryNode` (the portability extension).
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.matching import BoxStore
from repro.core.subscription import SubID, Subscription
from repro.core.summary import boxes_equal, child_pieces, merge_box
from repro.core.overload import CircuitBreaker
from repro.core.subscheme import PubSubEntity
from repro.core.zones import ContentZone
from repro.dht.chord import ChordNode
from repro.dht.idspace import cw_distance, id_in_interval
from repro.dht.pastry import PastryNode
from repro.core.durability import DurableState
from repro.sim.messages import (
    AE_DIGEST_ENTRY_BYTES,
    CONTROL_BYTES,
    DEP_ENTRY_BYTES,
    DURABLE_META_BYTES,
    PIGGYBACK_BYTES,
    SUBID_BYTES,
    Message,
    event_message_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import HyperSubSystem

#: Route-cache miss sentinel: ``None`` is a valid cached answer ("this
#: node is responsible"), so absence needs its own marker.
_RC_MISS = object()


#: Wire size of one subscription box (two float64 bounds per dimension).
def subscription_wire_bytes(dims: int) -> int:
    return SUBID_BYTES + 16 * dims


def _store_checksum(store: BoxStore) -> int:
    """Order-independent fingerprint of a store's SubID set.

    XOR of per-id hashes: cheap, incremental-friendly, and two stores
    with equal counts and checksums are treated as identical by the
    anti-entropy digest exchange (collision odds are negligible for
    repair purposes, and a miss only costs one redundant diff round).
    """
    acc = 0
    for sid in store.subids():
        acc ^= hash((sid.nid, sid.iid)) & 0xFFFFFFFFFFFFFFFF
    return acc


class ZoneRepo:
    """Surrogate state for one content zone of one entity."""

    __slots__ = ("entity_key", "zone", "store", "sf", "pushed", "marker_iids", "kinds")

    def __init__(self, entity_key: str, zone: ContentZone, store: BoxStore) -> None:
        self.entity_key = entity_key
        self.zone = zone
        self.store = store
        #: summary filter: bounding box of everything registered here
        self.sf: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: last piece pushed to each child digit
        self.pushed: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: internal id of the surrogate subscription per child digit
        self.marker_iids: Dict[int, int] = {}
        #: provenance of each stored entry: "sub" | "marker" | "migr"
        self.kinds: Dict[SubID, str] = {}

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.entity_key, self.zone.code, self.zone.level)


class PubSubNodeMixin:
    """Pub/sub behaviour shared by every overlay binding.

    Requires the host class to be an :class:`~repro.dht.base.OverlayNode`
    (routing + messaging); call :meth:`_init_pubsub` after overlay init.
    """

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _init_pubsub(self, system: "HyperSubSystem") -> None:
        self.system = system
        self._iid_counter = 0
        self._marker_iid_counter = 1 << 48
        #: iid -> (entity_key, Subscription, zone) for the user's own subs
        self.own_subs: Dict[int, Tuple[str, Subscription, ContentZone]] = {}
        #: (entity_key, code, level) -> ZoneRepo
        self.zone_repos: Dict[Tuple[str, int, int], ZoneRepo] = {}
        #: rotated zone key -> repo keys reachable by direct rendezvous.
        #: Leaf repos always; shallow repos too when R > 0.  A list, not
        #: a single key: an ancestor's key equals its rightmost
        #: descendant leaf's key, so keys can legitimately collide.
        self.rendezvous_index: Dict[int, List[Tuple[str, int, int]]] = {}
        #: surrogate-subscription iid -> repo key it summarises
        self.marker_origin: Dict[int, Tuple[str, int, int]] = {}
        #: repos with pending (coalesced) cascade flushes, covering mode
        self._dirty_cascades: Dict[Tuple[str, int, int], ZoneRepo] = {}
        #: accepted-migration iid -> (scheme_name, BoxStore)
        self.migrated: Dict[int, Tuple[str, BoxStore]] = {}
        #: standby replicas of other primaries' zone repos
        #: (replication extension): repo key -> ZoneRepo
        self.standby_repos: Dict[Tuple[str, int, int], ZoneRepo] = {}
        #: rotated zone key -> standby repo keys (rendezvous takeover)
        self.standby_rendezvous: Dict[int, List[Tuple[str, int, int]]] = {}
        #: (origin nid, iid) -> standby repo key (marker takeover)
        self.standby_markers: Dict[Tuple[int, int], Tuple[str, int, int]] = {}
        #: (origin nid, iid) -> (scheme, BoxStore): migrated stores
        #: inherited from a gracefully departed predecessor
        self.standby_migrated: Dict[Tuple[int, int], Tuple[str, BoxStore]] = {}
        #: in-flight load-balancing round state
        self._lb_round: Optional[dict] = None
        self._lb_seq = 0
        #: per-destination throttle for piggybacked ring state: state
        #: changes slowly, so attaching it to every packet on a busy
        #: link wastes bytes; once per half-interval keeps it fresh.
        self._pb_last_sent: Dict[int, float] = {}
        #: reliable-transport state: outstanding event packets by seq
        self._rel_pending: Dict[int, dict] = {}
        self._rel_seq = 0
        #: transport incarnation.  Sequence numbers restart at 0 after a
        #: crash-rejoin; without an epoch in the dedup key, peers that
        #: heard rseq 1..j from the PREVIOUS incarnation would silently
        #: discard (while still acking!) the new incarnation's first j
        #: packets as duplicates.  ``HyperSubSystem.rejoin_node`` bumps it.
        self._rel_epoch = 0
        #: (sender addr, epoch, seq) already processed (dedup on ack loss)
        self._rel_seen: set = set()
        #: (event_id, iid) already handed to the application.  The
        #: packet-level dedup above is keyed on the packet's identity,
        #: which hop-failover deliberately *changes* (the SubIDs are
        #: re-grouped onto a fresh packet via an alternate route), so an
        #: ack-lost-then-failed-over packet arrives twice under two
        #: different keys.  Exactly-once at the application therefore
        #: needs this subscriber-side guard as well.
        self._delivered: set = set()
        #: relative node capacity (Section 4: "the value of the
        #: threshold factor delta for each node is based on the node's
        #: capacity"; the paper's runs assume 1.0 everywhere -- the
        #: heterogeneous evaluation it defers is experiment H1).
        self.capacity: float = 1.0
        #: per-destination circuit breaker (overload-protection
        #: extension); ``None`` when protection is off.
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(
                system.config.breaker_failure_threshold,
                system.config.breaker_open_ms,
            )
            if system.config.overload_protection
            else None
        )

        #: anti-entropy re-replication loop state (self-healing extension)
        self._ae_running = False

        #: custody-transfer log (delivery-guarantees extension); ``None``
        #: outside durable mode so the hot paths pay one attribute load.
        self.durable: Optional[DurableState] = (
            DurableState(system.config.durable_log_max_entries)
            if system.config.delivery_mode == "durable"
            else None
        )
        #: (stream, key nid) -> {kseq: parked packet} at match sites
        self._dur_parks: Dict[Tuple, Dict[int, Message]] = {}
        #: (stream, iid) -> {mseq: parked packet} at subscribers
        self._dur_sub_parks: Dict[Tuple, Dict[int, Message]] = {}
        #: causal sequencer: pseq-contiguous arrivals blocked on deps
        self._seq_blocked: Dict[int, tuple] = {}
        self._dur_running = False
        #: until this sim time, keys with no local repository are NOT
        #: vacuously acked -- a ring-stabilization grace extended after
        #: our own rejoin and after every predecessor change
        self._dur_vacuous_after = 0.0

        #: epoch-keyed next-hop cache (perf extension; the invalidation
        #: rule lives in dht/base.py and docs/PERFORMANCE.md)
        self._rc_enabled = system.config.route_cache
        self._rc_max = system.config.route_cache_size
        self._rc: Dict[int, Optional[int]] = {}
        self._rc_epoch = -1
        self.rc_hits = 0
        self.rc_misses = 0

        self.register_handler("ps_register", self._on_ps_register)
        self.register_handler("ps_replica", self._on_ps_replica)
        self.register_handler("ps_handoff", self._on_ps_handoff)
        self.register_handler("ps_resync", self._on_ps_resync)
        self.register_handler("ps_resync_state", self._on_ps_resync_state)
        self.register_handler("ps_ae_digest", self._on_ae_digest)
        self.register_handler("ps_ae_state", self._on_ae_state)
        self.register_handler("ps_ae_fill", self._on_ae_fill)
        # Arc handoff on membership change (Chord only): when a joiner
        # slides in as our new predecessor, the rendezvous repos whose
        # keys now fall in its arc must move to it.
        if hasattr(self, "on_predecessor_change"):
            self.on_predecessor_change = self._on_pred_change
        self.register_handler("ps_unregister", self._on_ps_unregister)
        self.register_handler("ps_event", self._on_ps_event)
        self.register_handler("ps_event_ack", self._on_ps_event_ack)
        self.register_handler("ps_dack", self._on_ps_dack)
        self.register_handler("ps_busy", self._on_ps_busy)
        self.register_handler("ps_storm", self._on_ps_storm)
        self.register_handler("ps_load_probe", self._on_load_probe)
        self.register_handler("ps_load_reply", self._on_load_reply)
        self.register_handler("ps_migrate", self._on_migrate)
        self.register_handler("ps_migrate_ack", self._on_migrate_ack)

    def _next_iid(self) -> int:
        self._iid_counter += 1
        return self._iid_counter

    def _next_marker_iid(self) -> int:
        """Mint a surrogate-subscription iid from its own namespace.

        Markers used to share ``_next_iid`` with real subscriptions,
        which made a subscription's identity depend on how many markers
        happened to be minted before it -- so any change in cascade
        timing (e.g. covering's coalesced flushes) relabelled every
        later subscription and broke digest comparisons across modes.
        The high offset keeps the two sequences disjoint.
        """
        self._marker_iid_counter += 1
        return self._marker_iid_counter

    # ------------------------------------------------------------------
    # Load (Section 4: "load on node is measured as the number of
    # subscriptions stored on the node")
    # ------------------------------------------------------------------
    def load(self) -> int:
        total = sum(len(r.store) for r in self.zone_repos.values())
        total += sum(len(store) for _s, store in self.migrated.values())
        return total

    def stored_subscription_count(self, kind: Optional[str] = None) -> int:
        """Count stored entries, optionally filtered by provenance."""
        if kind is None:
            return self.load()
        total = 0
        for repo in self.zone_repos.values():
            total += sum(1 for k in repo.kinds.values() if k == kind)
        if kind == "sub":
            total += sum(len(store) for _s, store in self.migrated.values())
        return total

    # ------------------------------------------------------------------
    # Algorithm 2: subscribe
    # ------------------------------------------------------------------
    def subscribe(self, sub: Subscription) -> SubID:
        """Register interest; returns the global subscription id."""
        entity = self.system.entity_for_subscription(sub)
        zone = entity.zone_of_subscription(sub)
        iid = self._next_iid()
        self.own_subs[iid] = (entity.key, sub, zone)
        subid = SubID(self.node_id, iid)
        self.system.metrics.count_subscription(sub.scheme_name)
        self._dispatch_register(entity, zone, subid, sub.lows, sub.highs, "sub")
        return subid

    def unsubscribe(self, subid: SubID) -> None:
        """Best-effort removal.

        The installed copy is removed from the (current) surrogate of
        the subscription's zone.  A copy that has since been *migrated*
        becomes a stale entry: deliveries targeting it find no local
        subscription here and are silently dropped, the standard
        eventual-consistency behaviour for this kind of system.
        """
        if subid.nid != self.node_id or subid.iid not in self.own_subs:
            raise KeyError(f"not our subscription: {subid}")
        entity_key, _sub, zone = self.own_subs.pop(subid.iid)
        entity = self.system.entity(entity_key)
        key = entity.rotated_key(zone)
        payload = {
            "entity": entity_key,
            "code": zone.code,
            "level": zone.level,
            "subid": (subid.nid, subid.iid),
        }
        if self.system.config.simulate_install:
            self.lookup(
                key,
                lambda res: self.send(
                    Message(
                        src=self.addr,
                        dst=res.home_addr,
                        kind="ps_unregister",
                        payload=payload,
                        size_bytes=CONTROL_BYTES + SUBID_BYTES,
                    )
                ),
            )
        else:
            home = self.system.node_at_home(key)
            home._unregister_local(entity_key, zone.code, zone.level, subid)

    # ------------------------------------------------------------------
    # Algorithm 3: registration on the surrogate (plus the cascade)
    # ------------------------------------------------------------------
    def _dispatch_register(
        self,
        entity: PubSubEntity,
        zone: ContentZone,
        subid: SubID,
        lows: np.ndarray,
        highs: np.ndarray,
        kind: str,
    ) -> None:
        """Deliver a registration to the zone's surrogate node.

        Fast path (default): resolve the surrogate from global knowledge
        and call it directly -- byte-identical placement, no simulated
        traffic.  Simulated path: ``lookup()`` then a ``ps_register``
        packet, Algorithm 2 verbatim.
        """
        stats = self.system.install_traffic.setdefault(kind, [0, 0])
        stats[0] += 1
        stats[1] += CONTROL_BYTES + subscription_wire_bytes(len(lows))
        key = entity.rotated_key(zone)
        if not self.system.config.simulate_install:
            home = self.system.node_at_home(key)
            home._register_local(entity.key, zone.code, zone.level, subid, lows, highs, kind)
            return
        payload = {
            "entity": entity.key,
            "code": zone.code,
            "level": zone.level,
            "subid": (subid.nid, subid.iid),
            "lows": lows.tolist(),
            "highs": highs.tolist(),
            "kind": kind,
        }
        size = CONTROL_BYTES + subscription_wire_bytes(len(lows))

        def _send(res) -> None:
            self.send(
                Message(
                    src=self.addr,
                    dst=res.home_addr,
                    kind="ps_register",
                    payload=payload,
                    size_bytes=size,
                )
            )

        self.lookup(key, _send)

    def _on_ps_register(self, msg: Message) -> None:
        p = msg.payload
        self._register_local(
            p["entity"],
            p["code"],
            p["level"],
            SubID(*p["subid"]),
            np.asarray(p["lows"], dtype=np.float64),
            np.asarray(p["highs"], dtype=np.float64),
            p["kind"],
        )

    def _get_repo(self, entity: PubSubEntity, zone: ContentZone) -> ZoneRepo:
        repo_key = (entity.key, zone.code, zone.level)
        repo = self.zone_repos.get(repo_key)
        if repo is None:
            repo = ZoneRepo(entity.key, zone, self.system.make_store(entity))
            self.zone_repos[repo_key] = repo
            direct = self.system.config.direct_rendezvous_levels
            if zone.is_leaf or zone.level < direct:
                self.rendezvous_index.setdefault(
                    entity.rotated_key(zone), []
                ).append(repo_key)
            if zone.level < direct:
                self.system.mark_shallow_occupied(repo_key)
        return repo

    def _register_local(
        self,
        entity_key: str,
        code: int,
        level: int,
        subid: SubID,
        lows: np.ndarray,
        highs: np.ndarray,
        kind: str,
    ) -> None:
        """Algorithm 3: store, refresh the summary filter, cascade."""
        entity = self.system.entity(entity_key)
        zone = ContentZone(code, level, entity.geometry)
        repo = self._get_repo(entity, zone)
        replaced = subid in repo.store
        repo.store.put(subid, lows, highs)
        repo.kinds[subid] = kind
        if self.system.config.replication_factor > 1:
            self._replicate(entity_key, code, level, subid, lows, highs, kind)
        if replaced and self.system.config.summary_mode == "shrink":
            # A surrogate-subscription update may *shrink* the box (the
            # parent's filter tightened); recompute instead of merging.
            self._refresh_summary(repo)
            return
        new_sf, changed = merge_box(repo.sf, (lows, highs))
        repo.sf = new_sf
        if not changed or zone.is_leaf:
            return
        if zone.level < self.system.config.direct_rendezvous_levels:
            # Shallow zones are visited directly by every event; their
            # filters need not cascade toward the leaves.
            return
        zbox = entity.zone_box_projected(zone)
        pieces = child_pieces(zone, new_sf, zbox, entity.dims)
        self._cascade_pieces(repo, entity, zone, pieces)

    def _cascade_pieces(
        self,
        repo: ZoneRepo,
        entity: PubSubEntity,
        zone: ContentZone,
        pieces: Dict[int, Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Cascade the repo's child pieces (Algorithm 3, step 3).

        Without covering the push is immediate: every filter change
        re-dispatches the changed pieces down the chain.  With
        ``covering`` the repo is marked dirty and coalesced instead --
        one flush per ``filter_flush_ms`` window pushes ONE aggregate
        surrogate subscription per child digit, absorbing every install
        that landed in the window (see :meth:`_flush_cascade`).
        """
        if self.system.config.covering:
            self._defer_cascade(repo)
            return
        self._push_pieces(repo, entity, zone, pieces)

    def _defer_cascade(self, repo: ZoneRepo) -> None:
        """Coalesce cascade work: dirty-mark the repo, flush later.

        Re-cascading per install is the dominant surrogate-registration
        cost -- a repo whose hull grows K times dispatches K marker
        replacements per child digit, each of which re-dirties the whole
        relay chain below it.  Batching to one flush per window makes
        the install cost per (repo, digit) ~one registration, at the
        price of a bounded filter-freshness lag (equivalent to the
        install-propagation delay the network already imposes).
        """
        if repo.key in self._dirty_cascades:
            return
        self._dirty_cascades[repo.key] = repo
        # Stagger flushes by zone level on a global slot grid: a repo's
        # filter includes its parent's surrogate box, and the parent is
        # one level shallower, so each sweep of the grid visits levels
        # shallow-to-deep (level L flushes only at slots congruent to
        # its cascade depth).  Every parent wave therefore lands
        # strictly before the child's flush of the same sweep -- one
        # deep flush absorbs both the repo's own installs and the whole
        # relay chain's markers (without the stagger, mid-chain repos
        # push once per upstream hop instead of once per sweep).
        cfg = self.system.config
        w = cfg.filter_flush_ms
        zone = repo.zone
        depth = max(1, zone.level - cfg.direct_rendezvous_levels + 1)
        period = max(depth, zone.geometry.max_level - cfg.direct_rendezvous_levels + 1)
        slot = int(self.sim.now // w)
        ahead = (depth - slot - 1) % period + 1  # next slot ≡ depth (mod period)
        self.sim.schedule_at((slot + ahead) * w, self._flush_cascade, repo.key)

    def _flush_cascade(self, repo_key: Tuple[str, int, int]) -> None:
        """Recompute and push the dirty repo's pieces from its current sf."""
        repo = self._dirty_cascades.pop(repo_key, None)
        if repo is None or not self._alive:
            return
        if self.zone_repos.get(repo_key) is not repo:
            return  # migrated away while dirty; the importer re-derives
        entity = self.system.entity(repo.entity_key)
        zone = repo.zone
        if repo.sf is None:
            pieces: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        else:
            zbox = entity.zone_box_projected(zone)
            pieces = child_pieces(zone, repo.sf, zbox, entity.dims)
        self._push_pieces(repo, entity, zone, pieces)

    def _push_pieces(
        self,
        repo: ZoneRepo,
        entity: PubSubEntity,
        zone: ContentZone,
        pieces: Dict[int, Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Dispatch the given child pieces as surrogate subscriptions.

        Each digit's piece is compared against the last push: unchanged
        pieces cost nothing, changed ones *replace* the child's marker
        box under the same stable iid (no re-cascade per install), and
        digits whose piece vanished (shrink mode) withdraw the marker.
        With covering, a piece still inside the last pushed box is also
        skipped -- the installed surrogate over-approximates and only
        adds false-positive event forwards, never deliveries.
        """
        covering = self.system.config.covering
        for digit in [d for d in repo.pushed if d not in pieces]:
            # The filter no longer reaches this child: withdraw the
            # surrogate subscription (grow-only mode never gets here --
            # pieces only ever gain digits).  The iid stays minted so a
            # later re-push reuses it (marker_origin stays resolvable).
            del repo.pushed[digit]
            marker_iid = repo.marker_iids.get(digit)
            if marker_iid is not None:
                self._dispatch_unregister(
                    entity, zone.child(digit), SubID(self.node_id, marker_iid)
                )
        for digit, piece in pieces.items():
            prev = repo.pushed.get(digit)
            if boxes_equal(prev, piece):
                continue
            if covering and prev is not None and bool(
                np.all(prev[0] <= piece[0]) and np.all(piece[1] <= prev[1])
            ):
                continue  # still covered by the installed surrogate
            repo.pushed[digit] = piece
            marker_iid = repo.marker_iids.get(digit)
            if marker_iid is None:
                marker_iid = self._next_marker_iid()
                repo.marker_iids[digit] = marker_iid
                self.marker_origin[marker_iid] = repo.key
                if self.system.config.replication_factor > 1:
                    # Standbys must be able to resolve our marker iids
                    # after a takeover (events climbing via children
                    # still carry the dead primary's node id).
                    k = self.system.config.replication_factor
                    for _sid, saddr in getattr(self, "successors", [])[: k - 1]:
                        self.system.nodes[saddr].register_standby_marker(
                            self.node_id, marker_iid, repo.key
                        )
            self._dispatch_register(
                entity,
                zone.child(digit),
                SubID(self.node_id, marker_iid),
                piece[0],
                piece[1],
                "marker",
            )

    def _refresh_summary(self, repo: ZoneRepo) -> None:
        """Recompute a tight summary filter and propagate shrinks.

        ``summary_mode="shrink"`` only: after a removal (unsubscribe,
        migration swap) or a surrogate-subscription replacement, the
        bounding box over the repo's live entries is the exact tight
        filter; when it changed, the child pieces are re-derived and the
        cascade re-pushed -- children whose piece shrank run the same
        recomputation on *their* repos, so shrinks propagate to the
        leaves.  Correctness: the recomputed sf still covers every live
        box by construction, so a shrink can only remove false-positive
        cascade hops, never a delivery (the property tests assert both).
        """
        if self.system.config.summary_mode != "shrink":
            return
        tight = repo.store.bounding_box()
        if boxes_equal(repo.sf, tight):
            return
        repo.sf = tight
        zone = repo.zone
        if zone.is_leaf or zone.level < self.system.config.direct_rendezvous_levels:
            return
        entity = self.system.entity(repo.entity_key)
        if tight is None:
            pieces: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        else:
            zbox = entity.zone_box_projected(zone)
            pieces = child_pieces(zone, tight, zbox, entity.dims)
        self._cascade_pieces(repo, entity, zone, pieces)

    def _dispatch_unregister(
        self, entity: PubSubEntity, zone: ContentZone, subid: SubID
    ) -> None:
        """Withdraw a registration from the zone's surrogate node
        (mirror of :meth:`_dispatch_register`, both install paths)."""
        stats = self.system.install_traffic.setdefault("unregister", [0, 0])
        stats[0] += 1
        stats[1] += CONTROL_BYTES + SUBID_BYTES
        key = entity.rotated_key(zone)
        if not self.system.config.simulate_install:
            home = self.system.node_at_home(key)
            home._unregister_local(entity.key, zone.code, zone.level, subid)
            return
        payload = {
            "entity": entity.key,
            "code": zone.code,
            "level": zone.level,
            "subid": (subid.nid, subid.iid),
        }
        self.lookup(
            key,
            lambda res: self.send(
                Message(
                    src=self.addr,
                    dst=res.home_addr,
                    kind="ps_unregister",
                    payload=payload,
                    size_bytes=CONTROL_BYTES + SUBID_BYTES,
                )
            ),
        )

    # ------------------------------------------------------------------
    # Replication extension: standby copies on the successor list
    # ------------------------------------------------------------------
    def _replicate(
        self,
        entity_key: str,
        code: int,
        level: int,
        subid: SubID,
        lows: np.ndarray,
        highs: np.ndarray,
        kind: str,
    ) -> None:
        """Mirror one accepted registration onto k-1 successors."""
        k = self.system.config.replication_factor
        replicas = getattr(self, "successors", [])[: k - 1]
        payload = {
            "entity": entity_key,
            "code": code,
            "level": level,
            "subid": (subid.nid, subid.iid),
            "lows": lows.tolist(),
            "highs": highs.tolist(),
            "kind": kind,
            "origin": self.node_id,
        }
        size = CONTROL_BYTES + subscription_wire_bytes(len(lows))
        for _succ_id, succ_addr in replicas:
            if self.system.config.simulate_install:
                self.send(
                    Message(
                        src=self.addr, dst=succ_addr, kind="ps_replica",
                        payload=payload, size_bytes=size,
                    )
                )
            else:
                self.system.nodes[succ_addr]._store_replica(
                    entity_key, code, level, subid, lows, highs, kind
                )

    def _on_ps_replica(self, msg: Message) -> None:
        p = msg.payload
        self._store_replica(
            p["entity"], p["code"], p["level"], SubID(*p["subid"]),
            np.asarray(p["lows"], dtype=np.float64),
            np.asarray(p["highs"], dtype=np.float64),
            p["kind"],
        )

    def _store_replica(
        self,
        entity_key: str,
        code: int,
        level: int,
        subid: SubID,
        lows: np.ndarray,
        highs: np.ndarray,
        kind: str,
    ) -> None:
        """Accept a standby copy.  Standbys never cascade or match until
        this node becomes responsible for the dead primary's arc."""
        entity = self.system.entity(entity_key)
        zone = ContentZone(code, level, entity.geometry)
        repo_key = (entity_key, code, level)
        repo = self.standby_repos.get(repo_key)
        if repo is None:
            repo = ZoneRepo(entity_key, zone, self.system.make_store(entity))
            self.standby_repos[repo_key] = repo
            direct = self.system.config.direct_rendezvous_levels
            if zone.is_leaf or zone.level < direct:
                self.standby_rendezvous.setdefault(
                    entity.rotated_key(zone), []
                ).append(repo_key)
        repo.store.put(subid, lows, highs)
        repo.kinds[subid] = kind

    def register_standby_marker(
        self, origin_nid: int, iid: int, repo_key: Tuple[str, int, int]
    ) -> None:
        self.standby_markers[(origin_nid, iid)] = repo_key

    # ------------------------------------------------------------------
    # Anti-entropy re-replication (self-healing extension)
    # ------------------------------------------------------------------
    def start_anti_entropy(self) -> None:
        """Begin periodic repair rounds (idempotent).

        Each round (a) promotes standby replicas whose rendezvous keys
        this node has become responsible for -- successor takeover after
        a crash -- into live repositories, and (b) reconciles every live
        repository with the *current* successor list by digest exchange,
        shipping only missing entries, so ``replication_factor`` copies
        are restored after churn reshuffles the ring.
        """
        if self._ae_running:
            return
        self._ae_running = True
        self.sim.schedule(
            self.system.config.anti_entropy_interval_ms, self._ae_tick
        )

    def stop_anti_entropy(self) -> None:
        self._ae_running = False

    def _ae_tick(self) -> None:
        if not self._ae_running or not self._alive:
            return
        self.promote_takeovers()
        self._ae_exchange()
        self.sim.schedule(
            self.system.config.anti_entropy_interval_ms, self._ae_tick
        )

    def promote_takeovers(self) -> None:
        """Turn standby replicas we now answer for into live repositories.

        A standby only *serves matches* while events route to us; it
        neither cascades nor re-replicates.  Once we are durably
        responsible for its key (the primary crashed and the arc is
        ours), promoting it restores the full surrogate role -- and the
        next digest exchange re-replicates it onto our own successors,
        closing the repair loop.  Promotion also makes rejoin resync
        work: the arc handoff to a re-joining predecessor only ships
        *live* repositories.
        """
        self._promote_standby_keys(self.is_responsible)

    def _promote_standby_keys(self, want) -> None:
        """Promote standby replicas whose rendezvous key satisfies ``want``."""
        direct = self.system.config.direct_rendezvous_levels
        for key in list(self.standby_rendezvous):
            if not want(key):
                continue
            for repo_key in self.standby_rendezvous.pop(key):
                repo = self.standby_repos.pop(repo_key, None)
                if repo is None or repo_key in self.zone_repos:
                    continue
                self.zone_repos[repo_key] = repo
                self.rendezvous_index.setdefault(key, []).append(repo_key)
                if repo.zone.level < direct:
                    self.system.mark_shallow_occupied(repo_key)

    def _ae_exchange(self) -> None:
        """Send one digest of every live repository to each standby peer."""
        k = self.system.config.replication_factor
        replicas = getattr(self, "successors", [])[: k - 1]
        if not replicas or not self.zone_repos:
            return
        digest = [
            [list(repo_key), len(repo.store), _store_checksum(repo.store)]
            for repo_key, repo in self.zone_repos.items()
        ]
        markers = [
            [iid, list(repo_key)] for iid, repo_key in self.marker_origin.items()
        ]
        size = (
            CONTROL_BYTES
            + AE_DIGEST_ENTRY_BYTES * len(digest)
            + SUBID_BYTES * len(markers)
        )
        payload = {
            "origin": self.addr,
            "origin_id": self.node_id,
            "repos": digest,
            "markers": markers,
        }
        tel = self.system.telemetry
        for _succ_id, succ_addr in replicas:
            if tel is not None and tel.tracing:
                tel.tracer.span(
                    "ae_digest",
                    t=self.sim.now,
                    node=self.addr,
                    dst=succ_addr,
                    repos=len(digest),
                    bytes=size,
                )
            self.send(
                Message(
                    src=self.addr,
                    dst=succ_addr,
                    kind="ps_ae_digest",
                    payload=payload,
                    size_bytes=size,
                )
            )

    def _on_ae_digest(self, msg: Message) -> None:
        """Standby side: report which repositories diverge and how."""
        p = msg.payload
        for iid, repo_key in p["markers"]:
            # Marker-id resolution must survive the primary's death even
            # on successors that joined the list after marker creation.
            self.register_standby_marker(p["origin_id"], iid, tuple(repo_key))
        diverged: List[dict] = []
        have_total = 0
        for repo_key_list, count, checksum in p["repos"]:
            repo_key = tuple(repo_key_list)
            if repo_key in self.zone_repos:
                # We serve this live (handoff/promotion raced the
                # primary's digest): never overwrite live state.
                continue
            local = self.standby_repos.get(repo_key)
            if (
                local is not None
                and len(local.store) == count
                and _store_checksum(local.store) == checksum
            ):
                continue
            have = (
                []
                if local is None
                else [[s.nid, s.iid] for s in local.store.subids()]
            )
            diverged.append({"repo": list(repo_key), "have": have})
            have_total += len(have)
        if not diverged:
            return
        self.send(
            Message(
                src=self.addr,
                dst=p["origin"],
                kind="ps_ae_state",
                payload={"origin": self.addr, "repos": diverged},
                size_bytes=CONTROL_BYTES
                + AE_DIGEST_ENTRY_BYTES * len(diverged)
                + SUBID_BYTES * have_total,
            )
        )

    def _on_ae_state(self, msg: Message) -> None:
        """Primary side: ship only the diff (missing boxes, stale ids)."""
        groups: List[dict] = []
        payload_bytes = 0
        for entry in msg.payload["repos"]:
            repo_key = tuple(entry["repo"])
            repo = self.zone_repos.get(repo_key)
            if repo is None:
                continue  # no longer ours (handed off meanwhile)
            have = {(nid, iid) for nid, iid in entry["have"]}
            fills = []
            for sid in repo.store.subids():
                if (sid.nid, sid.iid) in have:
                    continue
                lo, hi = repo.store.get_box(sid)
                fills.append(
                    (
                        (sid.nid, sid.iid),
                        lo.tolist(),
                        hi.tolist(),
                        repo.kinds.get(sid, "sub"),
                    )
                )
            drop = [
                [nid, iid]
                for nid, iid in have
                if SubID(nid, iid) not in repo.store
            ]
            if not fills and not drop:
                continue
            dims = self.system.entity(repo.entity_key).scheme.dimensions
            groups.append(
                {"repo": list(repo_key), "entries": fills, "drop": drop}
            )
            payload_bytes += len(fills) * subscription_wire_bytes(dims)
            payload_bytes += len(drop) * SUBID_BYTES
        if not groups:
            return
        tel = self.system.telemetry
        if tel is not None and tel.tracing:
            tel.tracer.span(
                "ae_fill",
                t=self.sim.now,
                node=self.addr,
                dst=msg.payload["origin"],
                repos=len(groups),
                bytes=CONTROL_BYTES + payload_bytes,
            )
        self.send(
            Message(
                src=self.addr,
                dst=msg.payload["origin"],
                kind="ps_ae_fill",
                payload={"groups": groups},
                size_bytes=CONTROL_BYTES + payload_bytes,
            )
        )

    def _on_ae_fill(self, msg: Message) -> None:
        """Standby side: absorb the diff."""
        for group in msg.payload["groups"]:
            entity_key, code, level = group["repo"]
            for (nid, iid), lows, highs, kind in group["entries"]:
                self._store_replica(
                    entity_key,
                    code,
                    level,
                    SubID(nid, iid),
                    np.asarray(lows, dtype=np.float64),
                    np.asarray(highs, dtype=np.float64),
                    kind,
                )
            repo = self.standby_repos.get((entity_key, code, level))
            if repo is None:
                continue
            for nid, iid in group["drop"]:
                sid = SubID(nid, iid)
                if sid in repo.store:
                    repo.store.remove(sid)
                    repo.kinds.pop(sid, None)

    # ------------------------------------------------------------------
    # Graceful departure (membership extension)
    # ------------------------------------------------------------------
    def leave_gracefully(self) -> None:
        """Transfer every surrogate responsibility to the successor and
        leave the ring.

        After departure our identifier's keys resolve to the successor,
        so (a) rendezvous repos become its standby repos (served through
        the takeover paths), (b) our surrogate-subscription ids -- still
        embedded in child zones across the network -- are mapped on the
        successor via ``register_standby_marker``, and (c) migrated
        stores we accepted are inherited likewise.  A real node would
        ship this as one bulk transfer; the ring unlink itself is
        Chord's graceful ``leave``.
        """
        succs = getattr(self, "successors", [])
        if succs:
            succ = self.system.nodes[succs[0][1]]
            for repo in self.zone_repos.values():
                for sid in list(repo.store.subids()):
                    lo, hi = repo.store.get_box(sid)
                    succ._store_replica(
                        repo.entity_key,
                        repo.zone.code,
                        repo.zone.level,
                        sid,
                        lo,
                        hi,
                        repo.kinds.get(sid, "sub"),
                    )
            for iid, repo_key in self.marker_origin.items():
                succ.register_standby_marker(self.node_id, iid, repo_key)
            for iid, (scheme_name, store) in self.migrated.items():
                succ.standby_migrated[(self.node_id, iid)] = (scheme_name, store)
        self.leave()

    # ------------------------------------------------------------------
    # Arc handoff on join (membership extension)
    # ------------------------------------------------------------------
    def _on_pred_change(
        self, old_id: Optional[int], new_id: Optional[int]
    ) -> None:
        """A joiner took over part of our arc: move its rendezvous state.

        Only *rendezvous-served* repos (leaves, and shallow zones under
        the direct radius) move -- they are matched strictly by key, and
        the key now resolves to the joiner.  Internal zones stay: their
        surrogate subscriptions in child zones carry OUR node id, which
        remains a valid address; new registrations for those zones
        simply accumulate at the joiner under its own markers.

        ``old_id is None`` is the crash-rejoin case: check-predecessor
        evicted the dead node's pointer, and the rejoining node (same
        identifier) is now notifying us.  The prior arc boundary is
        unknown, so everything outside our *new* responsibility ships to
        the predecessor -- which includes any repos promoted from
        standby during the takeover window.  Marker mappings for the
        moved repos travel along so the joiner can serve surrogate
        subscriptions that still carry its node id (its own volatile
        ``marker_origin`` died with it).
        """
        if self.durable is not None:
            # Any predecessor change -- not just our own rejoin -- means
            # this node's claim to its arc is in flux.  A saturated (but
            # alive) neighbor sheds maintenance pings exactly like a dead
            # one, so check-predecessor can route the arc of a live repo
            # owner to us; vacuously acking its keys (the "authoritatively
            # empty zone" path) would retire custody for subscriptions the
            # owner still serves.  Hold vacuous acks until the claim has
            # been stable for the grace window; custodians just redeliver.
            self._dur_vacuous_after = max(
                self._dur_vacuous_after,
                self.sim.now + self.system.config.durable_rejoin_grace_ms,
            )
        if new_id is None or old_id == new_id:
            return
        if old_id is None:
            moved = lambda k: not id_in_interval(  # noqa: E731
                k, new_id, self.node_id, incl_right=True
            )
        else:
            if not id_in_interval(new_id, old_id, self.node_id):
                return  # arc grew (failure takeover), nothing to ship
            moved = lambda k: id_in_interval(  # noqa: E731
                k, old_id, new_id, incl_right=True
            )
        # A standby whose key moves to the new predecessor would
        # otherwise be stuck for good: promotion requires *us* to answer
        # for the key, and the handoff below ships live repos only.  A
        # crash shorter than one anti-entropy interval (a flap) hits
        # exactly that window -- the takeover never ran a promotion
        # tick, the rejoiner returns to an empty arc, and every copy in
        # the system stays standby.  Promote such keys now so they ship.
        self._promote_standby_keys(moved)
        moved_keys = [k for k in self.rendezvous_index if moved(k)]
        if not moved_keys:
            return
        new_addr = self.predecessor[1]
        groups: List[dict] = []
        payload_bytes = 0
        moved_repo_keys: set = set()
        for key in moved_keys:
            for repo_key in self.rendezvous_index[key]:
                repo = self.zone_repos.pop(repo_key, None)
                if repo is None:
                    continue
                moved_repo_keys.add(repo_key)
                entity = self.system.entity(repo.entity_key)
                entries = []
                for sid in list(repo.store.subids()):
                    lo, hi = repo.store.get_box(sid)
                    entries.append(
                        (
                            (sid.nid, sid.iid),
                            lo.tolist(),
                            hi.tolist(),
                            repo.kinds.get(sid, "sub"),
                        )
                    )
                groups.append({"repo": list(repo_key), "entries": entries})
                payload_bytes += len(entries) * subscription_wire_bytes(
                    entity.scheme.dimensions
                )
            del self.rendezvous_index[key]

        # Crash-rejoin resync: the joiner's marker-served internal repos
        # (levels >= the direct radius, reached only through surrogate
        # subscriptions that carry its node id) are invisible to the
        # rendezvous handoff above.  Our standby replicas -- which we
        # kept serving during the takeover window via ``standby_markers``
        # -- are the surviving copies; ship them as no-cascade snapshots,
        # marker mappings included, so the joiner can answer its own
        # surrogate subscriptions again.  For a fresh joiner (an id never
        # seen before) there are no such markers and this adds nothing.
        markers = []
        snapshots: List[dict] = []
        snapshotted: set = set()
        for (nid, iid), repo_key in self.standby_markers.items():
            if repo_key in moved_repo_keys or nid == new_id:
                markers.append((nid, iid, list(repo_key)))
            if nid != new_id:
                continue
            if repo_key in moved_repo_keys or repo_key in snapshotted:
                continue
            repo = self.standby_repos.get(repo_key)
            if repo is None:
                continue
            snapshotted.add(repo_key)
            entries = []
            for sid in list(repo.store.subids()):
                lo, hi = repo.store.get_box(sid)
                entries.append(
                    (
                        (sid.nid, sid.iid),
                        lo.tolist(),
                        hi.tolist(),
                        repo.kinds.get(sid, "sub"),
                    )
                )
            snapshots.append({"repo": list(repo_key), "entries": entries})
            entity = self.system.entity(repo.entity_key)
            payload_bytes += len(entries) * subscription_wire_bytes(
                entity.scheme.dimensions
            )
        markers.extend(
            (self.node_id, iid, list(repo_key))
            for iid, repo_key in self.marker_origin.items()
            if repo_key in moved_repo_keys
        )
        dur_state = None
        if self.durable is not None:
            # Site-side ordering state travels with the keys: the new
            # owner must resume each per-key stream where we left it or
            # the sequence space would fork (duplicates / stalls).
            dur_state = self.durable.export_site_state(set(moved_keys))
            if not (dur_state["site_w"] or dur_state["mseq"]):
                dur_state = None
        if not groups and not snapshots and not markers and dur_state is None:
            return
        payload = {
            "groups": groups,
            "snapshots": snapshots,
            "markers": markers,
        }
        if dur_state is not None:
            payload["durable"] = dur_state
            payload_bytes += DURABLE_META_BYTES * (
                len(dur_state["site_w"]) + len(dur_state["mseq"])
            )
        self.send(
            Message(
                src=self.addr,
                dst=new_addr,
                kind="ps_handoff",
                payload=payload,
                size_bytes=CONTROL_BYTES
                + payload_bytes
                + SUBID_BYTES * len(markers),
            )
        )

    def _on_ps_handoff(self, msg: Message) -> None:
        for group in msg.payload["groups"]:
            entity_key, code, level = group["repo"]
            for (nid, iid), lows, highs, kind in group["entries"]:
                self._register_local(
                    entity_key,
                    code,
                    level,
                    SubID(nid, iid),
                    np.asarray(lows, dtype=np.float64),
                    np.asarray(highs, dtype=np.float64),
                    kind,
                )
        for group in msg.payload.get("snapshots", ()):
            # Marker-served internal repos restored after a crash-rejoin.
            # Installed verbatim -- the surrogate subscriptions pointing
            # at them already exist in the child zones, so cascading
            # again (as ``_register_local`` would) would mint duplicate
            # markers.
            entity_key, code, level = group["repo"]
            entity = self.system.entity(entity_key)
            zone = ContentZone(code, level, entity.geometry)
            repo = self._get_repo(entity, zone)
            for (nid, iid), lows, highs, kind in group["entries"]:
                lo = np.asarray(lows, dtype=np.float64)
                hi = np.asarray(highs, dtype=np.float64)
                sid = SubID(nid, iid)
                repo.store.put(sid, lo, hi)
                repo.kinds[sid] = kind
                repo.sf, _ = merge_box(repo.sf, (lo, hi))
        for nid, iid, repo_key in msg.payload.get("markers", ()):
            repo_key = tuple(repo_key)
            if nid == self.node_id:
                # Our own surrogate-subscription mapping, recovered after
                # a crash-rejoin wiped the volatile ``marker_origin``.
                self.marker_origin.setdefault(iid, repo_key)
            else:
                self.standby_markers[(nid, iid)] = repo_key
        dur_state = msg.payload.get("durable")
        if dur_state is not None and self.durable is not None:
            self.durable.absorb_site_state(dur_state)

    # ------------------------------------------------------------------
    # Restart resync (self-healing extension)
    # ------------------------------------------------------------------
    def request_resync(self) -> None:
        """Ask the last-known successors to return our arc after a restart.

        A crash shorter than every failure-detection timescale (a flap)
        is invisible to the membership layer: no predecessor ever
        changes, so neither the arc handoff nor anti-entropy promotion
        fires, and the restarted node answers for its keys with empty
        repositories while its old successors sit on standby copies
        forever.  The restarting node is the one peer that *knows* it
        lost state, so it solicits those standby holders directly.
        """
        k = self.system.config.replication_factor
        for _succ_id, succ_addr in getattr(self, "successors", [])[: k - 1]:
            self.send(
                Message(
                    src=self.addr,
                    dst=succ_addr,
                    kind="ps_resync",
                    payload={"origin": self.addr, "origin_id": self.node_id},
                    size_bytes=CONTROL_BYTES,
                )
            )

    def _on_ps_resync(self, msg: Message) -> None:
        """Ship every standby copy (and marker mapping) to a restarter.

        Over-shipping is deliberate: the receiver keeps everything as
        standby and lets promotion sort live from spare, so the sender
        needs no view of the restarter's exact arc boundaries.
        """
        p = msg.payload
        groups: List[dict] = []
        shipped: set = set()
        payload_bytes = 0
        for repo_key, repo in self.standby_repos.items():
            entity = self.system.entity(repo.entity_key)
            entries = []
            for sid in list(repo.store.subids()):
                lo, hi = repo.store.get_box(sid)
                entries.append(
                    (
                        (sid.nid, sid.iid),
                        lo.tolist(),
                        hi.tolist(),
                        repo.kinds.get(sid, "sub"),
                    )
                )
            groups.append({"repo": list(repo_key), "entries": entries})
            shipped.add(repo_key)
            payload_bytes += len(entries) * subscription_wire_bytes(
                entity.scheme.dimensions
            )
        markers = [
            (nid, iid, list(repo_key))
            for (nid, iid), repo_key in self.standby_markers.items()
            if nid == p["origin_id"] or repo_key in shipped
        ]
        if not groups and not markers:
            return
        self.send(
            Message(
                src=self.addr,
                dst=p["origin"],
                kind="ps_resync_state",
                payload={"groups": groups, "markers": markers},
                size_bytes=CONTROL_BYTES
                + payload_bytes
                + SUBID_BYTES * len(markers),
            )
        )

    def _on_ps_resync_state(self, msg: Message) -> None:
        # Repos serving our own surrogate subscriptions (marker-served
        # internal zones) are installed verbatim live, exactly like the
        # handoff snapshot path -- cascading again would mint duplicate
        # markers.  Everything else lands as standby; promotion turns
        # the keys we answer for live once the ring view settles.
        own = {
            tuple(repo_key)
            for nid, _iid, repo_key in msg.payload.get("markers", ())
            if nid == self.node_id
        }
        own.update(self.marker_origin.values())
        for group in msg.payload["groups"]:
            entity_key, code, level = group["repo"]
            repo_key = (entity_key, code, level)
            if repo_key in own:
                entity = self.system.entity(entity_key)
                zone = ContentZone(code, level, entity.geometry)
                repo = self._get_repo(entity, zone)
                for (nid, iid), lows, highs, kind in group["entries"]:
                    lo = np.asarray(lows, dtype=np.float64)
                    hi = np.asarray(highs, dtype=np.float64)
                    sid = SubID(nid, iid)
                    repo.store.put(sid, lo, hi)
                    repo.kinds[sid] = kind
                    repo.sf, _ = merge_box(repo.sf, (lo, hi))
            else:
                for (nid, iid), lows, highs, kind in group["entries"]:
                    self._store_replica(
                        entity_key,
                        code,
                        level,
                        SubID(nid, iid),
                        np.asarray(lows, dtype=np.float64),
                        np.asarray(highs, dtype=np.float64),
                        kind,
                    )
        for nid, iid, repo_key in msg.payload.get("markers", ()):
            repo_key = tuple(repo_key)
            if nid == self.node_id:
                self.marker_origin.setdefault(iid, repo_key)
            else:
                self.standby_markers[(nid, iid)] = repo_key
        self.promote_takeovers()
        # Our predecessor pointer may still be settling; retry promotion
        # once stabilization has had a couple of rounds (anti-entropy,
        # where enabled, keeps retrying every interval anyway).
        for mult in (2.0, 4.0):
            self.sim.schedule(
                mult * self.stabilize_interval_ms, self.promote_takeovers
            )

    def _on_ps_unregister(self, msg: Message) -> None:
        p = msg.payload
        self._unregister_local(p["entity"], p["code"], p["level"], SubID(*p["subid"]))

    def _unregister_local(
        self, entity_key: str, code: int, level: int, subid: SubID
    ) -> None:
        repo = self.zone_repos.get((entity_key, code, level))
        if repo is None or subid not in repo.store:
            return  # stale (e.g. the copy was migrated away)
        repo.store.remove(subid)
        repo.kinds.pop(subid, None)
        # Grow-only mode: summary filters never shrink (conservative
        # over-approximation).  Shrink mode recomputes the tight filter
        # and propagates the change down the cascade.
        self._refresh_summary(repo)

    # ------------------------------------------------------------------
    # Algorithms 4 & 5: publish and deliver
    # ------------------------------------------------------------------
    def publish(self, event) -> int:
        """Inject an event; returns its id for metric correlation.

        The event message starts at the publisher with one rendezvous
        entry per entity of the scheme and is routed recursively through
        the overlay's embedded tree (Algorithm 5 handles the rendezvous
        entry with the same grouping logic as every other SubID).
        """
        event_id = self.system.metrics.new_event(event, self.addr, self.sim.now)
        cfg = self.system.config
        durable = self.durable
        ordering = cfg.ordering if durable is not None else "none"
        payload = {
            "event_id": event_id,
            "scheme": event.scheme_name,
            "point": event.point,
        }
        span_extra: Dict[str, Any] = {}
        if ordering == "causal":
            # The event is funnelled through the scheme's sequencer,
            # which assigns its place in the total order and computes
            # the real rendezvous fan-out.  One "seq" custody entry
            # covers the whole publish until the sequencer acks.
            durable.pub_pseq += 1
            pseq = durable.pub_pseq
            deps = [
                [a, n]
                for a, n in sorted(durable.causal_ctx.items())
                if a != self.addr and n > durable.causal_sent.get(a, 0)
            ]
            for a, n in deps:
                durable.causal_sent[a] = n
            durable.causal_ctx[self.addr] = pseq
            durable.causal_sent[self.addr] = pseq
            seq_addr = self.system.sequencer_addr(event.scheme_name)
            payload["pub"] = self.addr
            payload["pseq"] = pseq
            payload["deps"] = deps
            ev = {
                "event_id": event_id,
                "scheme": event.scheme_name,
                "point": event.point,
                "rt": self.sim.now,
                "pub": self.addr,
                "pseq": pseq,
                "deps": deps,
            }
            meta = {"s": ["S", seq_addr], "k": pseq, "q": 1}
            self._dur_log("seq", ev, -1, None, meta)
            entries = [(-1, None, meta)]
            span_extra = {"pseq": pseq, "deps": deps}
        else:
            keys = self._event_target_keys(
                event.scheme_name, event.point, filter_leaf=ordering != "none"
            )
            if durable is None:
                entries = [(key, None) for key in keys]
            else:
                ev = {
                    "event_id": event_id,
                    "scheme": event.scheme_name,
                    "point": event.point,
                    "rt": self.sim.now,
                }
                entries = []
                if ordering == "none":
                    for key in keys:
                        meta: Dict[str, Any] = {}
                        self._dur_log("key", ev, key, None, meta)
                        entries.append((key, None, meta))
                else:  # publisher-FIFO: one sequenced stream per key
                    stream = ("P", self.addr)
                    for key in keys:
                        kq = durable.next_kseq(stream, key)
                        meta = {"s": list(stream), "k": kq}
                        self._dur_log("key", ev, key, None, meta)
                        entries.append((key, None, meta))
        payload["entries"] = entries
        root_span = None
        tel = self.system.telemetry
        if tel is not None:
            tel.registry.counter("events.published").inc()
            if tel.tracing:
                root_span = tel.tracer.span(
                    "publish",
                    t=self.sim.now,
                    node=self.addr,
                    event=event_id,
                    scheme=event.scheme_name,
                    entries=len(entries),
                    **span_extra,
                )
        root = Message(
            src=self.addr,
            dst=self.addr,
            kind="ps_event",
            payload=payload,
            size_bytes=0,
            root_time=self.sim.now,
            span_id=root_span,
        )
        self._process_event(root)
        return event_id

    def _event_target_keys(
        self, scheme_name: str, point, filter_leaf: bool = False
    ) -> List[int]:
        """Rendezvous keys an event visits, in climb order.

        With R > 0 the event also visits its shallow ancestors directly
        (they push no surrogate subscriptions).  Empty shallow zones are
        skipped via the occupancy directory -- matching the cascade
        design, where the climb only reaches zones that registered
        something below themselves.  ``filter_leaf`` extends the same
        occupancy skip to the leaf zone itself: ordered durable modes
        must not take custody for a key nobody can ever ack (the config
        forces the fully direct topology there, so leaves are tracked).
        """
        direct = self.system.config.direct_rendezvous_levels
        keys: List[int] = []
        seen_keys = set()
        for entity in self.system.entities_of(scheme_name):
            leaf = entity.zone_of_point(point)
            targets = []
            if not filter_leaf or self.system.shallow_occupied(
                (entity.key, leaf.code, leaf.level)
            ):
                targets.append(leaf)
            zone = leaf
            while zone.level > 0:
                zone = zone.parent()
                if zone.level < direct and self.system.shallow_occupied(
                    (entity.key, zone.code, zone.level)
                ):
                    targets.append(zone)
            for z in targets:
                key = entity.rotated_key(z)
                if key not in seen_keys:
                    seen_keys.add(key)
                    keys.append(key)
        return keys

    def _pb_due(self, dst_addr: int) -> bool:
        """Attach ring state only where it can replace maintenance RPCs.

        Piggybacked state helps the *receiver* skip (a) pinging its
        predecessor -- we must be that predecessor candidate, i.e. the
        receiver is our successor -- or (b) stabilizing with its
        successor -- we must be that successor, i.e. the receiver is
        our predecessor.  Other links gain nothing, and even on useful
        links once per half-interval keeps the state fresh.
        """
        useful = set()
        succs = getattr(self, "successors", None)
        if succs:
            useful.add(succs[0][1])
        pred = getattr(self, "predecessor", None)
        if pred is not None:
            useful.add(pred[1])
        if dst_addr not in useful:
            return False
        interval = getattr(self, "stabilize_interval_ms", 500.0) / 2.0
        last = self._pb_last_sent.get(dst_addr)
        if last is not None and self.sim.now - last < interval:
            return False
        self._pb_last_sent[dst_addr] = self.sim.now
        return True

    # ------------------------------------------------------------------
    # Reliable event transport (extension)
    # ------------------------------------------------------------------
    def _send_event_reliably(self, msg: Message) -> None:
        """Attach a sequence number, arm the retransmission timer."""
        self._rel_seq += 1
        seq = self._rel_seq
        msg.payload["rseq"] = seq
        if self._rel_epoch:
            msg.payload["repoch"] = self._rel_epoch
        state = {
            "dst": msg.dst,
            "payload": msg.payload,
            "size": msg.size_bytes,
            "hops": msg.hops,
            "path_latency": msg.path_latency,
            "root_time": msg.root_time,
            "retries": 0,
            "busy": 0,
            "span": msg.span_id,
        }
        self._rel_pending[seq] = state
        self.send(msg)
        # The timer handle is kept so a ps_busy NACK can cancel it and
        # reschedule with backoff (and so an ack kills the stub early).
        state["timer"] = self.sim.schedule(
            self.system.config.retransmit_timeout_ms, self._rel_retry, seq
        )

    def _rel_retry(self, seq: int) -> None:
        state = self._rel_pending.get(seq)
        if state is None:
            return  # acked in time
        if self.breaker is not None and self.breaker.record_failure(
            state["dst"], self.sim.now
        ):
            self._note_breaker_open(state["dst"])
        if state["retries"] >= self.system.config.max_retries:
            del self._rel_pending[seq]
            # Hop presumed dead.  With hop-failover the pending SubIDs
            # are re-grouped onto an alternate route; otherwise the
            # give-up is *counted* (NetworkStats.gave_up) -- the seed
            # dropped these silently, making exhausted hops invisible.
            if self.system.config.hop_failover:
                self._hop_failover(state)
            else:
                self._count_give_up(
                    state["payload"], span=state.get("span"), cause="retries"
                )
            return
        state["retries"] += 1
        self.network.stats.retransmissions += 1
        tel = self.system.telemetry
        if tel is not None and tel.tracing:
            tel.tracer.span(
                "retransmit",
                t=self.sim.now,
                node=self.addr,
                event=state["payload"]["event_id"],
                parent=state.get("span"),
                dst=state["dst"],
                attempt=state["retries"],
            )
        clone = Message(
            src=self.addr,
            dst=state["dst"],
            kind="ps_event",
            payload=state["payload"],
            size_bytes=state["size"],
            hops=state["hops"],
            path_latency=state["path_latency"],
            root_time=state["root_time"],
            span_id=state.get("span"),
        )
        # A retransmission is real traffic.
        self.system.metrics.on_event_message(
            state["payload"]["event_id"], state["size"]
        )
        self.send(clone)
        state["timer"] = self.sim.schedule(
            self.system.config.retransmit_timeout_ms, self._rel_retry, seq
        )

    def _count_give_up(
        self, payload: dict, span: Optional[int] = None, cause: str = "retries"
    ) -> None:
        """Account an abandoned event packet (it is real delivery risk).

        ``cause`` is one of :data:`repro.sim.stats.GIVE_UP_CAUSES`; the
        per-cause counters let the guarantees experiment attribute
        exactly which loss mechanism durable redelivery recovers.
        """
        entries = payload.get("entries", ())
        self.network.stats.record_give_up(cause, len(entries))
        self.system.metrics.on_give_up(payload["event_id"], len(entries))
        tel = self.system.telemetry
        if tel is not None and tel.tracing:
            tel.tracer.span(
                "give_up",
                t=self.sim.now,
                node=self.addr,
                event=payload["event_id"],
                parent=span,
                entries=len(entries),
                cause=cause,
            )

    # ------------------------------------------------------------------
    # Hop-failover rerouting (self-healing extension)
    # ------------------------------------------------------------------
    def _hop_failover(self, state: dict) -> None:
        """Retry exhaustion against one hop: evict the corpse, reroute.

        The dead address is purged from the local routing tables (the
        retry exhaustion is stronger death evidence than one maintenance
        timeout), then after ``failover_backoff_ms`` -- a beat for ring
        maintenance to converge around the failure -- the packet's
        SubIDs re-enter Algorithm 5 locally and are re-grouped onto the
        surviving fingers/successors.  Each packet lineage carries a
        failover budget (``fo``) so repeated dead hops terminate in a
        counted give-up instead of looping.
        """
        dead_addr = state["dst"]
        if hasattr(self, "evict_neighbor"):
            self.evict_neighbor(dead_addr)
        fo = state["payload"].get("fo")
        if fo is None:
            fo = self.system.config.failover_max_attempts
        if fo <= 0 or not self._alive:
            self._count_give_up(
                state["payload"], span=state.get("span"), cause="failover"
            )
            return
        tel = self.system.telemetry
        if tel is not None and tel.tracing:
            sid = tel.tracer.span(
                "failover",
                t=self.sim.now,
                node=self.addr,
                event=state["payload"]["event_id"],
                parent=state.get("span"),
                dead=dead_addr,
                budget=fo,
            )
            # Reroutes nest under the failover decision, keeping the
            # causal chain publish -> forward -> failover -> forward.
            state["span"] = sid
        self.sim.schedule(
            self.system.config.failover_backoff_ms,
            self._failover_resend,
            state,
            fo - 1,
        )

    def _failover_resend(self, state: dict, fo: int) -> None:
        if not self._alive:
            self._count_give_up(
                state["payload"], span=state.get("span"), cause="failover"
            )
            return
        p = state["payload"]
        payload = {
            "event_id": p["event_id"],
            "scheme": p["scheme"],
            "point": p["point"],
            "entries": list(p["entries"]),
            "fo": fo,
        }
        for extra in ("pub", "pseq", "deps"):
            # Durable ordered modes ride these on every packet; losing
            # them across a failover would strand the custody chain.
            if extra in p:
                payload[extra] = p[extra]
        # Re-enter Algorithm 5 at this node: responsibility may have
        # shifted to us meanwhile (takeover), in which case the entries
        # are served locally from standby replicas; otherwise they are
        # re-grouped by the repaired routing tables and forwarded.
        self._process_event(
            Message(
                src=self.addr,
                dst=self.addr,
                kind="ps_event",
                payload=payload,
                size_bytes=0,
                hops=state["hops"],
                path_latency=state["path_latency"],
                root_time=state["root_time"],
                span_id=state.get("span"),
            )
        )

    def _on_ps_event_ack(self, msg: Message) -> None:
        state = self._rel_pending.pop(msg.payload["rseq"], None)
        if state is None:
            return
        timer = state.get("timer")
        if timer is not None:
            # Kill the stub now instead of letting it no-op later: keeps
            # Simulator.live honest and the heap lean under load.
            timer.cancel()
        if self.breaker is not None:
            self.breaker.record_success(state["dst"])

    # ------------------------------------------------------------------
    # Overload protection (bounded-ingress extension; docs/FAULTS.md)
    # ------------------------------------------------------------------
    #: Message kinds that may be shed under overload.  Everything else
    #: (acks, anti-entropy, arc handoffs, migration, maintenance RPCs)
    #: is control traffic and outranks events, so the system can keep
    #: healing itself while saturated.
    _SHEDDABLE_KINDS = frozenset({"ps_event", "ps_storm"})

    def ingress_priority(self, msg: Message) -> int:
        if not self.system.config.overload_protection:
            return 1  # priority-blind FIFO: the unprotected baseline
        return 1 if msg.kind in self._SHEDDABLE_KINDS else 0

    def on_ingress_shed(self, msg: Message) -> None:
        """A packet was shed from our full ingress queue (admission
        control).  Shedding is never silent: a reliable event packet is
        NACKed with ``ps_busy`` (the sender's copy stays pending, backs
        off and retries), anything else that carried deliveries is
        accounted exactly like a transport give-up."""
        p = msg.payload if isinstance(msg.payload, dict) else None
        protected = self.system.config.overload_protection
        if protected:
            self.network.stats.shed += 1
        tel = self.system.telemetry
        if tel is not None and tel.tracing:
            event_id = p.get("event_id") if p is not None else None
            tel.tracer.span(
                "shed", t=self.sim.now, node=self.addr, event=event_id,
                parent=msg.span_id, msg_kind=msg.kind, src=msg.src,
            )
        if p is None:
            return
        rseq = p.get("rseq")
        if protected and rseq is not None and msg.src != self.addr:
            self.send(
                Message(
                    src=self.addr, dst=msg.src, kind="ps_busy",
                    payload={"rseq": rseq}, size_bytes=CONTROL_BYTES,
                )
            )
        elif rseq is None and "event_id" in p:
            # Fire-and-forget packet: nobody will retransmit it.
            self._count_give_up(p, span=msg.span_id, cause="shed")

    def _on_ps_busy(self, msg: Message) -> None:
        """Backpressure NACK: the next hop shed our packet (queue full).

        Unlike an ack timeout this is proof the hop is *alive*, so the
        retransmission consumes no retry budget; it is rescheduled with
        exponential backoff (doubling per consecutive busy, capped) so
        senders drain a saturated queue instead of hammering it.
        """
        seq = msg.payload["rseq"]
        state = self._rel_pending.get(seq)
        if state is None:
            return  # a duplicate was served meanwhile, or we gave up
        state["busy"] += 1
        self.network.stats.busy_backoffs += 1
        if self.breaker is not None and self.breaker.record_failure(
            msg.src, self.sim.now
        ):
            self._note_breaker_open(msg.src)
        timer = state.get("timer")
        if timer is not None:
            timer.cancel()
        cfg = self.system.config
        delay = min(
            cfg.retransmit_timeout_ms
            * (cfg.busy_backoff_factor ** state["busy"]),
            cfg.busy_backoff_max_ms,
        )
        tel = self.system.telemetry
        if tel is not None and tel.tracing:
            tel.tracer.span(
                "busy",
                t=self.sim.now,
                node=self.addr,
                event=state["payload"]["event_id"],
                parent=state.get("span"),
                dst=state["dst"],
                backoff_ms=delay,
            )
        state["timer"] = self.sim.schedule(delay, self._rel_busy_resend, seq)

    def _rel_busy_resend(self, seq: int) -> None:
        state = self._rel_pending.get(seq)
        if state is None:
            return  # acked while backing off (an earlier copy was served)
        if not self._alive:
            del self._rel_pending[seq]
            self._count_give_up(
                state["payload"], span=state.get("span"), cause="retries"
            )
            return
        clone = Message(
            src=self.addr,
            dst=state["dst"],
            kind="ps_event",
            payload=state["payload"],
            size_bytes=state["size"],
            hops=state["hops"],
            path_latency=state["path_latency"],
            root_time=state["root_time"],
            span_id=state.get("span"),
        )
        self.network.stats.retransmissions += 1
        self.system.metrics.on_event_message(
            state["payload"]["event_id"], state["size"]
        )
        self.send(clone)
        state["timer"] = self.sim.schedule(
            self.system.config.retransmit_timeout_ms, self._rel_retry, seq
        )

    def _note_breaker_open(self, dst: int) -> None:
        self.network.stats.breaker_opens += 1
        tel = self.system.telemetry
        if tel is not None and tel.tracing:
            tel.tracer.span(
                "breaker_open", t=self.sim.now, node=self.addr, dst=dst
            )

    def _route_around(self, key: int, hot: int) -> Optional[int]:
        """Open circuit to ``hot``: alternate routing entry for ``key``.

        Reuses the hop-failover machinery's route diversity: any entry
        strictly inside ``(self, key)`` still makes clockwise progress
        without overshooting the home node (Chord's guarantee), so the
        best such entry that avoids every open destination carries the
        traffic around the hot surrogate.  ``None`` when no alternate
        exists -- the caller then forwards to ``hot`` anyway, which
        doubles as the breaker's half-open probe.
        """
        entries = getattr(self, "routing_entries", None)
        if entries is None:  # pastry: no cw-progress certificate
            return None
        avoid = self.breaker.open_dsts(self.sim.now)
        avoid.add(hot)
        avoid.add(self.addr)
        best = None
        best_dist = -1
        for ent_id, ent_addr in entries():
            if ent_addr in avoid:
                continue
            if id_in_interval(ent_id, self.node_id, key):
                d = cw_distance(self.node_id, ent_id)
                if d > best_dist:
                    best = ent_addr
                    best_dist = d
        return best

    def _cached_next_hop(self, nid: int) -> Optional[int]:
        """``next_hop_addr`` memoised per routing epoch.

        The cache holds *routing-table answers only*: a flushed epoch is
        the sole invalidation rule (any finger/successor/predecessor
        mutation bumps it, see dht/base.py), so a hit is byte-identical
        to recomputing.  Breaker reroutes happen downstream of this call
        and are never written back -- an open circuit must not poison
        routing for the breaker's lifetime.
        """
        epoch = self.routing_epoch
        if epoch != self._rc_epoch:
            self._rc.clear()
            self._rc_epoch = epoch
        nh = self._rc.get(nid, _RC_MISS)
        if nh is not _RC_MISS:
            self.rc_hits += 1
            return nh
        self.rc_misses += 1
        nh = self.next_hop_addr(nid)
        if len(self._rc) >= self._rc_max:
            self._rc.clear()
        self._rc[nid] = nh
        return nh

    def _on_ps_storm(self, msg: Message) -> None:
        """Synthetic storm traffic (``FaultSchedule.storm``): its entire
        cost is the service time it consumed in the ingress queue."""

    def _on_ps_event(self, msg: Message) -> None:
        rseq = msg.payload.get("rseq")
        if rseq is not None:
            self.send(
                Message(
                    src=self.addr, dst=msg.src, kind="ps_event_ack",
                    payload={"rseq": rseq}, size_bytes=CONTROL_BYTES,
                )
            )
            key = (msg.src, msg.payload.get("repoch", 0), rseq)
            if key in self._rel_seen:
                return  # duplicate (our ack was lost): already processed
            self._rel_seen.add(key)
        pb = msg.payload.get("pb")
        if pb is not None and hasattr(self, "absorb_piggyback"):
            self.absorb_piggyback(
                pb["id"],
                pb["addr"],
                tuple(pb["pred"]) if pb["pred"] else None,
                tuple(pb["succ"]) if pb["succ"] else None,
            )
        self._process_event(msg)

    def _process_event(self, msg: Message) -> None:
        """Algorithm 5: one node's share of the dissemination tree."""
        p = msg.payload
        event_id = p["event_id"]
        point = p["point"]
        scheme_name = p["scheme"]
        if msg.hops > self.system.config.event_ttl_hops:
            # Transient routing loops are possible while the ring heals
            # around a crash; the TTL converts them into counted drops.
            self._count_give_up(p, span=msg.span_id, cause="ttl")
            return
        fo = p.get("fo")
        tel = self.system.telemetry
        prof = tel.profiler if tel is not None and tel.profiling else None
        my_addr = self.addr
        is_responsible = self.is_responsible
        route = self._cached_next_hop if self._rc_enabled else self.next_hop_addr
        breaker = self.breaker

        worklist = deque(p["entries"])
        groups: Dict[int, List[tuple]] = {}
        while worklist:
            ent = worklist.popleft()
            nid, iid = ent[0], ent[1]
            meta = ent[2] if len(ent) > 2 else None
            if meta is not None and "q" in meta:
                # Sequencer-bound entry (causal mode): routed by network
                # address, not by DHT id -- the sequencer is pinned.
                seq_addr = meta["s"][1]
                if seq_addr == my_addr:
                    worklist.extend(self._seq_ingest(p, meta, msg))
                else:
                    groups.setdefault(seq_addr, []).append(ent)
                continue
            if is_responsible(nid):
                if prof is not None:
                    t0 = perf_counter()
                if meta is not None:
                    more = self._durable_handle(p, nid, iid, meta, msg)
                else:
                    more = self._handle_local_entry(
                        event_id, scheme_name, point, nid, iid, msg
                    )
                if prof is not None:
                    prof.add("algo5.match", perf_counter() - t0)
                worklist.extend(more)
            else:
                if prof is not None:
                    t0 = perf_counter()
                nh = route(nid)
                if prof is not None:
                    prof.add("algo5.route", perf_counter() - t0)
                if nh is None or nh == my_addr:
                    # Unroutable (healing ring) or a degenerate self-hop
                    # -- a self-forward costs zero latency and no hops,
                    # i.e. an infinite loop at frozen simulated time.
                    # Drop the entry: durable custody redelivers it once
                    # the ring converges; best-effort never promised it.
                    continue
                if breaker is not None and not breaker.allow(nh, self.sim.now):
                    alt = self._route_around(nid, nh)
                    if alt is not None:
                        nh = alt
                groups.setdefault(nh, []).append(ent)

        piggyback = None
        if self.system.config.piggyback_maintenance and hasattr(self, "successors"):
            piggyback = {
                "id": self.node_id,
                "addr": self.addr,
                "pred": self.predecessor,
                "succ": self.successors[0] if self.successors else None,
            }
        for nh, ents in groups.items():
            size = event_message_bytes(len(ents))
            n_meta = sum(1 for e in ents if len(e) > 2)
            if n_meta:
                size += DURABLE_META_BYTES * n_meta
            payload = {
                "event_id": event_id,
                "scheme": scheme_name,
                "point": point,
                "entries": ents,
            }
            for extra in ("pub", "pseq", "deps"):
                if extra in p:
                    payload[extra] = p[extra]
            if "deps" in payload:
                size += DEP_ENTRY_BYTES * len(payload["deps"])
            if fo is not None:
                # Inherited failover budget: bounded per packet lineage.
                payload["fo"] = fo
            if piggyback is not None and self._pb_due(nh):
                payload["pb"] = piggyback
                size += PIGGYBACK_BYTES
            child = msg.child(self.addr, nh, "ps_event", payload, size)
            self.system.metrics.on_event_message(event_id, size)
            # One call site feeds both edge views: the EventRecord list
            # and the causal trace ("forward" spans) stay in lockstep.
            if tel is not None and tel.tracing:
                child.span_id = tel.tracer.span(
                    "forward",
                    t=self.sim.now,
                    node=self.addr,
                    event=event_id,
                    parent=msg.span_id,
                    src=self.addr,
                    dst=nh,
                    entries=len(ents),
                    bytes=size,
                )
            if self.system.tracing:
                self.system.metrics.on_event_edge(
                    event_id, self.addr, nh, len(ents)
                )
            if self.system.config.reliable_delivery:
                self._send_event_reliably(child)
            else:
                self.send(child)

    def _trace_match(self, event_id: int, msg: Message, n_matched: int) -> None:
        """Record one matching step in the causal trace (if active)."""
        tel = self.system.telemetry
        if tel is not None and tel.tracing and n_matched:
            tel.tracer.span(
                "match",
                t=self.sim.now,
                node=self.addr,
                event=event_id,
                parent=msg.span_id,
                entries=n_matched,
            )

    def _handle_local_entry(
        self,
        event_id: int,
        scheme_name: str,
        point: np.ndarray,
        nid: int,
        iid: Optional[int],
        msg: Message,
    ) -> List[Tuple[int, Optional[int]]]:
        """Process one SubID addressed to this node; return merged SubIDs."""
        if iid is None:
            # Rendezvous entry: match every repo reachable at this key
            # (the event's leaf, plus directly-visited shallow zones; an
            # ancestor's key may equal its rightmost leaf's key).
            matched: List[Tuple[int, Optional[int]]] = []
            for repo_key in self.rendezvous_index.get(nid, ()):
                repo = self.zone_repos[repo_key]
                entity = self.system.entity(repo.entity_key)
                if entity.scheme.name != scheme_name:
                    continue
                matched.extend(
                    (s.nid, s.iid) for s in repo.store.match_point(point)
                )
            if not matched:
                # Takeover path: we are responsible for this key but hold
                # no live repo -- a standby replica of the failed primary
                # serves the match instead (replication extension).
                for repo_key in self.standby_rendezvous.get(nid, ()):
                    if repo_key in self.zone_repos:
                        continue  # already served live above
                    repo = self.standby_repos[repo_key]
                    entity = self.system.entity(repo.entity_key)
                    if entity.scheme.name != scheme_name:
                        continue
                    matched.extend(
                        (s.nid, s.iid) for s in repo.store.match_point(point)
                    )
            self._trace_match(event_id, msg, len(matched))
            return matched

        # Local iid tables are only meaningful for OUR node id: being
        # *responsible* for nid is weaker than *being* nid -- after a
        # takeover we are responsible for a dead node's arc and its
        # SubIDs route here, but its iid values must never be confused
        # with our own (Algorithm 5 searches by the full SubID).
        if nid == self.node_id:
            if iid in self.own_subs:
                entity_key, sub, _zone = self.own_subs[iid]
                if sub.scheme_name != scheme_name:  # pragma: no cover - defensive
                    return []
                if (event_id, iid) in self._delivered:
                    return []  # failover redelivery under a fresh packet
                self._delivered.add((event_id, iid))
                latency_ms = self.sim.now - msg.root_time
                self.system.metrics.on_delivery(
                    event_id,
                    SubID(self.node_id, iid),
                    self.addr,
                    msg.hops,
                    latency_ms,
                )
                tel = self.system.telemetry
                if tel is not None:
                    tel.registry.counter("events.delivered").inc()
                    tel.registry.histogram("delivery.hops").observe(msg.hops)
                    tel.registry.histogram("delivery.latency_ms").observe(
                        latency_ms
                    )
                    if tel.tracing:
                        tel.tracer.span(
                            "deliver",
                            t=self.sim.now,
                            node=self.addr,
                            event=event_id,
                            parent=msg.span_id,
                            subid=[self.node_id, iid],
                            hops=msg.hops,
                            latency_ms=latency_ms,
                        )
                self.system.notify_application(
                    self.addr, event_id, SubID(self.node_id, iid)
                )
                return []

            repo_key = self.marker_origin.get(iid)
            if repo_key is not None:
                # A surrogate subscription fired in a child zone: match
                # the summarised repository (the climb toward the root).
                # After an arc handoff the live copy may have moved to
                # our predecessor; an anti-entropy standby answers then.
                repo = self.zone_repos.get(repo_key) or self.standby_repos.get(
                    repo_key
                )
                if repo is not None:
                    matched = [
                        (s.nid, s.iid) for s in repo.store.match_point(point)
                    ]
                    self._trace_match(event_id, msg, len(matched))
                    return matched

            entry = self.migrated.get(iid)
            if entry is not None:
                mig_scheme, store = entry
                if mig_scheme != scheme_name:
                    return []
                matched = [(s.nid, s.iid) for s in store.match_point(point)]
                self._trace_match(event_id, msg, len(matched))
                return matched

        # Takeover path: a surrogate subscription of a failed primary --
        # we are the successor of its id, so its marker entries route
        # here; serve the summarised repo from the standby replica.
        standby_key = self.standby_markers.get((nid, iid))
        if standby_key is not None and nid != self.node_id:
            # The replica may have been promoted to a live repo by
            # anti-entropy takeover; either copy answers the marker.
            repo = self.standby_repos.get(standby_key) or self.zone_repos.get(
                standby_key
            )
            if repo is not None:
                entity = self.system.entity(repo.entity_key)
                if entity.scheme.name == scheme_name:
                    return [
                        (s.nid, s.iid) for s in repo.store.match_point(point)
                    ]

        # Migrated store inherited from a gracefully departed node.
        inherited = self.standby_migrated.get((nid, iid))
        if inherited is not None and nid != self.node_id:
            mig_scheme, store = inherited
            if mig_scheme == scheme_name:
                return [(s.nid, s.iid) for s in store.match_point(point)]

        return []  # stale SubID (unsubscribed / departed): drop silently

    # ------------------------------------------------------------------
    # Durable delivery: custody transfer (delivery-guarantees extension)
    # ------------------------------------------------------------------
    def _dur_log(
        self,
        kind: str,
        ev: Dict[str, Any],
        nid: int,
        iid: Optional[int],
        meta: Dict[str, Any],
    ) -> None:
        """Take custody: log the obligation, stamp ``meta`` with it."""
        entry, evicted = self.durable.append(
            kind, ev, nid, iid, meta, self.sim.now
        )
        meta["t"] = [self.addr, entry.tok]
        self.network.stats.record_durable("appends")
        for old in evicted:
            self._dur_truncated(old)

    def _dur_truncated(self, entry) -> None:
        """Count + trace a budget eviction (a permanent, visible loss)."""
        self.network.stats.record_durable("truncated")
        tel = self.system.telemetry
        if tel is not None and tel.tracing:
            tel.tracer.span(
                "durable_truncate",
                t=self.sim.now,
                node=self.addr,
                event=entry.event["event_id"],
                entry_kind=entry.kind,
            )

    def _dur_ack(self, meta: Dict[str, Any], event_id: int) -> None:
        """Retire ``meta``'s custody entry at its custodian.

        Subscriber-level acks are deliberately unreliable control
        packets: a lost dack just means one more (idempotent)
        redelivery, which the duplicate path re-dacks.
        """
        t = meta.get("t")
        if t is None:  # pragma: no cover - defensive
            return
        cust, tok = t
        if cust == self.addr:
            if self.durable is not None and self.durable.ack(tok) is not None:
                self.network.stats.record_durable("acked")
            return
        self.system.metrics.on_event_message(event_id, CONTROL_BYTES)
        self.send(
            Message(
                src=self.addr,
                dst=cust,
                kind="ps_dack",
                payload={"tok": tok, "event": event_id},
                size_bytes=CONTROL_BYTES,
            )
        )

    def _on_ps_dack(self, msg: Message) -> None:
        if self.durable is None:  # pragma: no cover - defensive
            return
        if self.durable.ack(msg.payload["tok"]) is not None:
            self.network.stats.record_durable("acked")

    def _dur_event_fields(self, p: dict, msg: Message) -> Dict[str, Any]:
        """Event-constant fields a custody entry must replay verbatim."""
        ev = {
            "event_id": p["event_id"],
            "scheme": p["scheme"],
            "point": p["point"],
            "rt": msg.root_time,
        }
        for extra in ("pub", "pseq", "deps"):
            if extra in p:
                ev[extra] = p[extra]
        return ev

    def _dur_parked_msg(self, p: dict, ent: tuple, msg: Message) -> Message:
        """Wrap one out-of-order entry for later local re-processing."""
        payload = {
            "event_id": p["event_id"],
            "scheme": p["scheme"],
            "point": p["point"],
            "entries": [ent],
        }
        for extra in ("pub", "pseq", "deps"):
            if extra in p:
                payload[extra] = p[extra]
        return Message(
            src=self.addr,
            dst=self.addr,
            kind="ps_event",
            payload=payload,
            size_bytes=0,
            hops=msg.hops,
            path_latency=msg.path_latency,
            root_time=msg.root_time,
            span_id=msg.span_id,
        )

    def _dur_park(self, park: Dict[int, Message], seq: int, parked: Message) -> None:
        """Buffer an out-of-order packet, bounded by ``reorder_buffer_max``.

        On overflow the entry *furthest* from the watermark is dropped
        (never acked, so its custodian redelivers it once the gap
        heals); dropping the nearest would just re-open the same gap.
        """
        if seq in park:
            return  # duplicate of an already-parked sequence number
        if len(park) >= self.system.config.reorder_buffer_max:
            self.network.stats.record_durable("reorder_overflow")
            worst = max(park)
            if seq > worst:
                return  # the newcomer is the furthest: drop it instead
            del park[worst]
        park[seq] = parked

    def _durable_handle(
        self,
        p: dict,
        nid: int,
        iid: Optional[int],
        meta: Dict[str, Any],
        msg: Message,
    ) -> List[tuple]:
        """Consume one custody-tagged entry this node is responsible for."""
        if iid is None:
            if "k" in meta:
                return self._dur_key_ordered(p, nid, meta, msg)
            return self._dur_key_unordered(p, nid, meta, msg)
        return self._dur_sub_entry(p, nid, iid, meta, msg)

    def _dur_key_unordered(
        self, p: dict, nid: int, meta: Dict[str, Any], msg: Message
    ) -> List[tuple]:
        """Rendezvous matching with custody transfer, no ordering.

        Matching against a live repo, a standby takeover, or an
        authoritatively empty zone fully discharges the entry, so the
        incoming custody is acked.  One case must NOT ack: a node whose
        ring state is still stabilizing -- it just rejoined, or its
        predecessor changed (a storm-saturated neighbor sheds
        maintenance pings exactly like a dead one, handing us its live
        arc) -- can claim a wrapped ``(pred, self]`` interval through a
        stale predecessor pointer and "own" keys whose repositories
        live elsewhere; acking such a key with no local knowledge of it
        would retire custody for subscriptions the true owner still
        holds.  Within the grace window a key this node has no
        repository for stays silent, and the custodian simply
        redelivers after the ring has converged.
        """
        event_id = p["event_id"]
        if (
            self.sim.now < self._dur_vacuous_after
            and not self.rendezvous_index.get(nid)
            and not self.standby_rendezvous.get(nid)
        ):
            return []
        matched = self._handle_local_entry(
            event_id, p["scheme"], p["point"], nid, None, msg
        )
        out: List[tuple] = []
        if matched:
            ev = self._dur_event_fields(p, msg)
            for snid, siid in matched:
                m: Dict[str, Any] = {}
                self._dur_log("sub", ev, snid, siid, m)
                out.append((snid, siid, m))
        self._dur_ack(meta, event_id)
        return out

    def _dur_key_ordered(
        self, p: dict, nid: int, meta: Dict[str, Any], msg: Message
    ) -> List[tuple]:
        """Per-stream contiguous rendezvous matching (fifo / causal).

        Only the durable *owner* of the key may process: a successor
        that took over the arc would assign fresh (low) mseq values,
        which downstream watermarks would absorb as duplicates --
        silently losing the delivery.  A non-owner stays silent (no
        dack), so the custodian redelivers until the owner rejoins.
        """
        if not self.rendezvous_index.get(nid):
            return []
        stream = tuple(meta["s"])
        k = meta["k"]
        skey = (stream, nid)
        w = self.durable.site_w.get(skey, 0)
        if k <= w:
            self._dur_ack(meta, p["event_id"])  # duplicate redelivery
            return []
        if k > w + 1:
            park = self._dur_parks.setdefault(skey, {})
            self._dur_park(park, k, self._dur_parked_msg(p, (nid, None, meta), msg))
            return []
        # k == w + 1: in order -- match, take custody, advance, drain.
        matched = self._handle_local_entry(
            p["event_id"], p["scheme"], p["point"], nid, None, msg
        )
        out: List[tuple] = []
        if matched:
            ev = self._dur_event_fields(p, msg)
            for snid, siid in matched:
                mq = self.durable.next_mseq(stream, nid, (snid, siid))
                m = {"s": list(stream), "m": mq}
                self._dur_log("sub", ev, snid, siid, m)
                out.append((snid, siid, m))
        self.durable.site_w[skey] = k
        self._dur_ack(meta, p["event_id"])
        park = self._dur_parks.get(skey)
        if park:
            nxt = park.pop(k + 1, None)
            if not park:
                del self._dur_parks[skey]
            if nxt is not None:
                self._process_event(nxt)  # recursively continues the run
        return out

    def _dur_sub_entry(
        self, p: dict, nid: int, iid: int, meta: Dict[str, Any], msg: Message
    ) -> List[tuple]:
        """Consume a custody-tagged SubID entry (delivery or relay)."""
        event_id = p["event_id"]
        if nid == self.node_id and iid in self.own_subs:
            if "m" in meta:
                return self._dur_deliver_ordered(p, iid, meta, msg)
            self._dur_deliver_now(p, iid, meta, msg)
            return []
        # Relay consumption: a surrogate/migrated store we can serve
        # fully discharges the entry; so does a stale iid of our own
        # (unsubscribed -- nobody will ever want it again).  A foreign
        # SubID we merely route for (its node crashed) is NOT resolved:
        # stay silent and let the custodian redeliver after the rejoin.
        resolved = nid == self.node_id or (
            (nid, iid) in self.standby_markers
            or (nid, iid) in self.standby_migrated
        )
        if not resolved:
            return []
        matched = self._handle_local_entry(
            event_id, p["scheme"], p["point"], nid, iid, msg
        )
        out: List[tuple] = []
        if matched:
            ev = self._dur_event_fields(p, msg)
            for snid, siid in matched:
                m: Dict[str, Any] = {}
                self._dur_log("sub", ev, snid, siid, m)
                out.append((snid, siid, m))
        self._dur_ack(meta, event_id)
        return out

    def _dur_deliver_now(self, p: dict, iid: int, meta: Dict[str, Any], msg: Message) -> None:
        """Deliver to a local subscription and ack the custody entry."""
        self._handle_local_entry(
            p["event_id"], p["scheme"], p["point"], self.node_id, iid, msg
        )
        pub = p.get("pub")
        if pub is not None and self.durable is not None:
            # Causal context: remember the newest pseq seen from each
            # publisher so our next publish declares the dependency.
            ctx = self.durable.causal_ctx
            if p["pseq"] > ctx.get(pub, 0):
                ctx[pub] = p["pseq"]
        self._dur_ack(meta, p["event_id"])

    def _dur_deliver_ordered(
        self, p: dict, iid: int, meta: Dict[str, Any], msg: Message
    ) -> List[tuple]:
        """Deliver in per-stream mseq order (contiguity watermark)."""
        stream = tuple(meta["s"])
        m = meta["m"]
        skey = (stream, iid)
        w = self.durable.sub_w.get(skey, 0)
        if m <= w:
            self._dur_ack(meta, p["event_id"])  # duplicate redelivery
            return []
        if m > w + 1:
            park = self._dur_sub_parks.setdefault(skey, {})
            self._dur_park(
                park, m, self._dur_parked_msg(p, (self.node_id, iid, meta), msg)
            )
            return []
        self._dur_deliver_now(p, iid, meta, msg)
        self.durable.sub_w[skey] = m
        park = self._dur_sub_parks.get(skey)
        if park:
            nxt = park.pop(m + 1, None)
            if not park:
                del self._dur_sub_parks[skey]
            if nxt is not None:
                self._process_event(nxt)
        return []

    # -- causal sequencer ----------------------------------------------
    def _seq_ingest(self, p: dict, meta: Dict[str, Any], msg: Message) -> List[tuple]:
        """Admit one publisher packet into the scheme's total order."""
        d = self.durable
        pub, pseq = p["pub"], p["pseq"]
        if pseq <= d.seq_w.get(pub, 0):
            self._dur_ack(meta, p["event_id"])  # duplicate redelivery
            return []
        key = (pub, pseq)
        if key not in self._seq_blocked:
            self._seq_blocked[key] = (p, meta, msg)
        self._seq_drain()
        return []

    def _seq_drain(self) -> None:
        """Sequence every blocked packet whose prerequisites now hold.

        A packet is admitted when (a) it is the next pseq of its
        publisher -- publisher-FIFO inside the total order -- and (b)
        every declared dependency has already been sequenced.  Because
        a dependency can only be declared after its event was
        *delivered* (hence sequenced), (b) only bites when redelivery
        races reorder the streams.
        """
        d = self.durable
        progress = True
        while progress:
            progress = False
            for pub, pseq in sorted(self._seq_blocked):
                if pseq != d.seq_w.get(pub, 0) + 1:
                    continue
                p, meta, msg = self._seq_blocked[(pub, pseq)]
                deps = p.get("deps") or ()
                if any(d.seq_w.get(a, 0) < n for a, n in deps):
                    continue
                del self._seq_blocked[(pub, pseq)]
                d.seq_w[pub] = pseq
                self._seq_emit(p, msg)
                self._dur_ack(meta, p["event_id"])
                progress = True
                break  # watermark moved: restart the scan

    def _seq_emit(self, p: dict, msg: Message) -> None:
        """Fan a sequenced event out to its rendezvous keys.

        The sequencer is the custodian from here on: one "key" entry
        per target in the single ``("Q",)`` stream, whose per-key kseq
        embeds the total order downstream.
        """
        ev = self._dur_event_fields(p, msg)
        ev.pop("deps", None)  # satisfied here; don't ship them onward
        keys = self._event_target_keys(p["scheme"], p["point"], filter_leaf=True)
        if not keys:
            return  # nobody subscribed anywhere: fully discharged
        entries = []
        for key in keys:
            kq = self.durable.next_kseq(("Q",), key)
            m = {"s": ["Q"], "k": kq}
            self._dur_log("key", ev, key, None, m)
            entries.append((key, None, m))
        payload = {
            "event_id": p["event_id"],
            "scheme": p["scheme"],
            "point": p["point"],
            "pub": p["pub"],
            "pseq": p["pseq"],
            "entries": entries,
        }
        self._process_event(
            Message(
                src=self.addr,
                dst=self.addr,
                kind="ps_event",
                payload=payload,
                size_bytes=0,
                hops=msg.hops,
                path_latency=msg.path_latency,
                root_time=msg.root_time,
                span_id=msg.span_id,
            )
        )

    # -- redelivery ----------------------------------------------------
    def start_durable_redelivery(self) -> None:
        """Arm the periodic scan that re-sends unacked custody entries."""
        if self.durable is None or self._dur_running:
            return
        self._dur_running = True
        self.sim.schedule(
            self.system.config.durable_redelivery_ms, self._dur_tick
        )

    def stop_durable_redelivery(self) -> None:
        self._dur_running = False

    def _dur_tick(self) -> None:
        # Deliberately no re-arm once stopped or crashed: a dead
        # incarnation's timer must die with it or the simulation would
        # never drain (the rejoined incarnation arms its own).
        if not self._dur_running or not self._alive:
            return
        interval = self.system.config.durable_redelivery_ms
        for entry in self.durable.due(self.sim.now, interval):
            self._dur_redeliver(entry)
        self.sim.schedule(interval, self._dur_tick)

    def _dur_redeliver(self, entry) -> None:
        """Re-issue one unacked obligation from its logged state."""
        entry.last_sent = self.sim.now
        entry.attempts += 1
        self.network.stats.record_durable("redelivered")
        tel = self.system.telemetry
        if tel is not None and tel.tracing:
            tel.tracer.span(
                "durable_redeliver",
                t=self.sim.now,
                node=self.addr,
                event=entry.event["event_id"],
                entry_kind=entry.kind,
                attempt=entry.attempts,
            )
        payload = {k: v for k, v in entry.event.items() if k != "rt"}
        payload["entries"] = [entry.wire_entry()]
        # Replayed with the ORIGINAL root time: healing latency is real
        # end-to-end latency, not time-since-retry.
        self._process_event(
            Message(
                src=self.addr,
                dst=self.addr,
                kind="ps_event",
                payload=payload,
                size_bytes=0,
                root_time=entry.event.get("rt", self.sim.now),
            )
        )

    # ------------------------------------------------------------------
    # Section 4: dynamic subscription migration
    # ------------------------------------------------------------------
    def lb_start_round(self) -> None:
        """Begin one probe-and-migrate round (no-op if one is running)."""
        if self._lb_round is not None:
            return
        targets = self.neighbor_addrs()
        if not targets:
            return
        self._lb_seq += 1
        self._lb_round = {
            "seq": self._lb_seq,
            "pending": set(targets),
            "samples": [],  # (load, node_id, addr)
            "wave": 1,
            "probed": set(targets) | {self.addr},
        }
        for addr in targets:
            self._send_probe(addr)

    def _send_probe(self, addr: int) -> None:
        self.send(
            Message(
                src=self.addr,
                dst=addr,
                kind="ps_load_probe",
                payload={
                    "origin": self.addr,
                    "seq": self._lb_round["seq"],
                    "want_neighbors": self.system.config.migration_probe_level >= 2,
                },
                size_bytes=CONTROL_BYTES,
            )
        )

    def _on_load_probe(self, msg: Message) -> None:
        payload = {
            "seq": msg.payload["seq"],
            "load": self.load(),
            "capacity": self.capacity,
            "node_id": self.node_id,
            "addr": self.addr,
        }
        if msg.payload.get("want_neighbors"):
            payload["neighbors"] = self.neighbor_addrs()
        self.send(
            Message(
                src=self.addr,
                dst=msg.payload["origin"],
                kind="ps_load_reply",
                payload=payload,
                size_bytes=CONTROL_BYTES,
            )
        )

    def _on_load_reply(self, msg: Message) -> None:
        state = self._lb_round
        if state is None or msg.payload["seq"] != state["seq"]:
            return
        state["pending"].discard(msg.payload["addr"])
        state["samples"].append(
            (
                msg.payload["load"],
                msg.payload["node_id"],
                msg.payload["addr"],
                msg.payload.get("capacity", 1.0),
            )
        )
        if state["wave"] == 1 and "neighbors" in msg.payload:
            extra = [
                a
                for a in msg.payload["neighbors"]
                if a not in state["probed"]
            ]
            for addr in extra:
                state["probed"].add(addr)
                state["pending"].add(addr)
                self._send_probe(addr)
        if not state["pending"]:
            self._lb_decide()

    def _lb_decide(self) -> None:
        """Threshold check and acceptor selection (Section 4).

        Loads are normalised by capacity: a node is overloaded when its
        *per-unit-capacity* load exceeds the neighbourhood's
        per-unit-capacity average by the threshold factor, and acceptors
        are the neighbours with the most spare headroom.  With uniform
        capacities (the paper's runs) this reduces to the plain rule.
        """
        state = self._lb_round
        self._lb_round = None
        samples = state["samples"]
        if not samples:
            return
        total_load = sum(s[0] for s in samples)
        total_cap = sum(s[3] for s in samples)
        avg = total_load / max(total_cap, 1e-9)
        my_load = self.load() / max(self.capacity, 1e-9)
        delta = self.system.config.migration_delta
        if my_load <= avg * (1.0 + delta) or my_load == 0:
            return
        lighter = sorted(
            (s for s in samples if s[0] / max(s[3], 1e-9) < my_load),
            key=lambda s: s[0] / max(s[3], 1e-9),
        )
        if not lighter:
            return
        k = min(self.system.config.migration_max_acceptors, len(lighter))
        acceptors = lighter[:k]
        # "nodes N, A1, A2, ..., Ak lie in the clockwise order on the ring"
        acceptors.sort(key=lambda s: (s[1] - self.node_id) % (1 << 64))
        self._migrate_to(acceptors)

    def _migrate_to(self, acceptors: List[Tuple[int, int, int]]) -> None:
        """Partition stored real subscriptions by subscriber-id arcs.

        Subscriptions whose subscriber falls in [A_i, A_{i+1}) go to
        A_i; the final arc [A_k, N) also goes to A_k.  Subscribers in
        [N, A_1) stay local.  Entries are *copied* now and removed only
        when the acceptor acknowledges, so no event can miss them in
        transit.
        """
        ids = [a[1] for a in acceptors]  # samples are (load, id, addr, cap)
        arcs: List[Tuple[int, int]] = []  # (arc_left, arc_right) per acceptor
        for i in range(len(ids)):
            left = ids[i]
            right = ids[i + 1] if i + 1 < len(ids) else self.node_id
            arcs.append((left, right))

        for (_load, acc_id, acc_addr, _cap), (left, right) in zip(acceptors, arcs):
            groups: List[dict] = []
            payload_bytes = 0
            for repo in self.zone_repos.values():
                picked = [
                    sid
                    for sid in repo.store.subids()
                    if repo.kinds.get(sid) == "sub"
                    and id_in_interval(sid.nid, left, right, incl_left=True)
                ]
                if not picked:
                    continue
                entity = self.system.entity(repo.entity_key)
                entries = []
                for sid in picked:
                    lo, hi = repo.store.get_box(sid)
                    entries.append(((sid.nid, sid.iid), lo.tolist(), hi.tolist()))
                groups.append(
                    {
                        "repo": list(repo.key),
                        "scheme": entity.scheme.name,
                        "entries": entries,
                    }
                )
                payload_bytes += len(picked) * subscription_wire_bytes(
                    entity.scheme.dimensions
                )
            if not groups:
                continue
            size = CONTROL_BYTES + payload_bytes
            self.send(
                Message(
                    src=self.addr,
                    dst=acc_addr,
                    kind="ps_migrate",
                    payload={"origin": self.addr, "groups": groups},
                    size_bytes=size,
                )
            )

    def _on_migrate(self, msg: Message) -> None:
        """Acceptor side: store groups, summarise, acknowledge."""
        acks = []
        for group in msg.payload["groups"]:
            scheme_name = group["scheme"]
            dims = self.system.scheme(scheme_name).dimensions
            store = BoxStore(dims)
            for (nid, iid), lows, highs in group["entries"]:
                store.put(
                    SubID(nid, iid),
                    np.asarray(lows, dtype=np.float64),
                    np.asarray(highs, dtype=np.float64),
                )
            iid = self._next_iid()
            self.migrated[iid] = (scheme_name, store)
            bbox = store.bounding_box()
            acks.append(
                {
                    "repo": group["repo"],
                    "iid": iid,
                    "lows": bbox[0].tolist(),
                    "highs": bbox[1].tolist(),
                    "subids": [e[0] for e in group["entries"]],
                }
            )
        dims = max(len(a["lows"]) for a in acks)
        self.send(
            Message(
                src=self.addr,
                dst=msg.payload["origin"],
                kind="ps_migrate_ack",
                payload={"acceptor_id": self.node_id, "acks": acks},
                size_bytes=CONTROL_BYTES + len(acks) * subscription_wire_bytes(dims),
            )
        )

    def _on_migrate_ack(self, msg: Message) -> None:
        """Origin side: swap migrated entries for one summarising marker."""
        acc_id = msg.payload["acceptor_id"]
        for ack in msg.payload["acks"]:
            repo = self.zone_repos.get(tuple(ack["repo"]))
            if repo is None:  # pragma: no cover - defensive
                continue
            for nid, iid in ack["subids"]:
                sid = SubID(nid, iid)
                if sid in repo.store:
                    repo.store.remove(sid)
                    repo.kinds.pop(sid, None)
            marker = SubID(acc_id, ack["iid"])
            repo.store.put(
                marker,
                np.asarray(ack["lows"], dtype=np.float64),
                np.asarray(ack["highs"], dtype=np.float64),
            )
            repo.kinds[marker] = "migr"
            # The migration marker's bounding box may be tighter than
            # the departed subscriptions' contribution to the filter.
            self._refresh_summary(repo)


class HyperSubChordNode(PubSubNodeMixin, ChordNode):
    """The paper's configuration: HyperSub over Chord(-PNS)."""

    def __init__(self, addr: int, node_id: int, network, system=None, **kwargs) -> None:
        ChordNode.__init__(self, addr, node_id, network, **kwargs)
        self._init_pubsub(system)


class HyperSubPastryNode(PubSubNodeMixin, PastryNode):
    """Portability extension: identical pub/sub logic over Pastry."""

    def __init__(self, addr: int, node_id: int, network, system=None, **kwargs) -> None:
        PastryNode.__init__(self, addr, node_id, network, **kwargs)
        self._init_pubsub(system)
