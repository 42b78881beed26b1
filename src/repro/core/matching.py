"""Vectorised subscription stores.

Every content-zone repository keeps its registered boxes (real
subscriptions *and* surrogate subscriptions) in a :class:`BoxStore`:
bounds live in growing NumPy arrays so matching an event against a
repository is two broadcast comparisons instead of a Python loop --
the ``event_match`` of Algorithm 5 is the hottest operation in the
whole simulation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.subscription import SubID

_INITIAL_CAPACITY = 8


class BoxStore:
    """A mutable ``SubID -> hyper-rectangle`` map with point queries.

    ``put`` with an existing id replaces the box (surrogate-subscription
    updates); removed slots are tombstoned and recycled.
    """

    def __init__(self, dims: int) -> None:
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.dims = dims
        self._lows = np.empty((_INITIAL_CAPACITY, dims), dtype=np.float64)
        self._highs = np.empty((_INITIAL_CAPACITY, dims), dtype=np.float64)
        self._active = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self._subids: List[Optional[SubID]] = [None] * _INITIAL_CAPACITY
        self._slot_of: Dict[SubID, int] = {}
        self._free: List[int] = list(range(_INITIAL_CAPACITY - 1, -1, -1))
        self._size = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def index_size(self) -> int:
        """Physical boxes held by the matching index.

        Equal to ``len(self)`` for plain stores; the covering layer
        overrides it (aggregates store many members behind one box).
        """
        return self._size

    def __contains__(self, subid: SubID) -> bool:
        return subid in self._slot_of

    def subids(self) -> Iterator[SubID]:
        return iter(self._slot_of.keys())

    def get_box(self, subid: SubID) -> Tuple[np.ndarray, np.ndarray]:
        slot = self._slot_of[subid]
        return self._lows[slot].copy(), self._highs[slot].copy()

    # ------------------------------------------------------------------
    def _grow(self) -> None:
        old = len(self._active)
        new = old * 2
        for arr_name in ("_lows", "_highs"):
            old_arr = getattr(self, arr_name)
            new_arr = np.empty((new, self.dims), dtype=np.float64)
            new_arr[:old] = old_arr
            setattr(self, arr_name, new_arr)
        active = np.zeros(new, dtype=bool)
        active[:old] = self._active
        self._active = active
        self._subids.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def put(self, subid: SubID, lows: np.ndarray, highs: np.ndarray) -> None:
        """Insert or replace the box registered under ``subid``."""
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if lows.shape != (self.dims,) or highs.shape != (self.dims,):
            raise ValueError(f"box must have shape ({self.dims},)")
        # NaN never compares True, so ``highs < lows`` alone would let a
        # NaN box through: stored, it matches nothing yet poisons
        # ``bounding_box``/``merge_box`` (min/max propagate NaN into the
        # summary filter, killing the child-piece cascade).  ±inf stays
        # legal -- unspecified dimensions are the full attribute domain.
        if np.isnan(lows).any() or np.isnan(highs).any():
            raise ValueError("box bounds must not contain NaN")
        if np.any(highs < lows):
            raise ValueError("box has negative extent")
        slot = self._slot_of.get(subid)
        if slot is None:
            if not self._free:
                self._grow()
            slot = self._free.pop()
            self._slot_of[subid] = slot
            self._subids[slot] = subid
            self._active[slot] = True
            self._size += 1
        self._lows[slot] = lows
        self._highs[slot] = highs

    def _release_slot(self, slot: int) -> None:
        """Index-maintenance hook run before a slot is tombstoned.

        Subclasses with auxiliary structures (grid buckets, band
        bitsets) override this; both :meth:`remove` and
        :meth:`pop_matching` route through it.
        """

    def remove(self, subid: SubID) -> None:
        slot = self._slot_of.pop(subid)
        self._release_slot(slot)
        self._active[slot] = False
        self._subids[slot] = None
        self._free.append(slot)
        self._size -= 1

    def pop_matching(self, predicate) -> List[Tuple[SubID, np.ndarray, np.ndarray]]:
        """Remove and return entries whose subid satisfies ``predicate``.

        Used by the load balancer to extract the subscriptions whose
        subscribers fall in a migrated identifier arc.  Single pass over
        the slot table: bounds are copied straight from the slot and the
        entry is tombstoned in place, with no per-entry ``get_box`` /
        ``remove`` dict re-resolution (that double lookup dominated
        handoff cost at migration scale).
        """
        picked = [
            (sid, slot) for sid, slot in self._slot_of.items() if predicate(sid)
        ]
        if not picked:
            return []
        slots = [slot for _sid, slot in picked]
        # One fancy-indexed copy per bound array, not two row copies per
        # entry; each returned row is a view of that private copy.
        lows = self._lows[slots]
        highs = self._highs[slots]
        for sid, slot in picked:
            del self._slot_of[sid]
            self._release_slot(slot)
            self._subids[slot] = None
            self._free.append(slot)
        self._active[slots] = False
        self._size -= len(picked)
        return [(sid, lows[i], highs[i]) for i, (sid, _slot) in enumerate(picked)]

    # ------------------------------------------------------------------
    def match_point(self, point: np.ndarray) -> List[SubID]:
        """All subids whose box contains ``point`` (Algorithm 5's
        ``event_match``)."""
        if self._size == 0:
            return []
        point = np.asarray(point, dtype=np.float64)
        inside = (
            self._active
            & np.all(self._lows <= point, axis=1)
            & np.all(point <= self._highs, axis=1)
        )
        idx = np.nonzero(inside)[0]
        return [self._subids[i] for i in idx]  # type: ignore[misc]

    def match_box(self, lows: np.ndarray, highs: np.ndarray) -> List[SubID]:
        """All subids whose box intersects ``[lows, highs]`` (closed).

        One vectorised overlap test; the covering layer uses it to find
        fusion candidates (both containers and containees, which point
        probes cannot discover).
        """
        if self._size == 0:
            return []
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        inside = (
            self._active
            & np.all(self._lows <= highs, axis=1)
            & np.all(lows <= self._highs, axis=1)
        )
        return [self._subids[i] for i in np.nonzero(inside)[0]]  # type: ignore[misc]

    def bounding_box(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Smallest box covering every active entry, or ``None`` if empty."""
        if self._size == 0:
            return None
        lows = self._lows[self._active]
        highs = self._highs[self._active]
        return lows.min(axis=0), highs.max(axis=0)
