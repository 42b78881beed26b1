"""Brute-force delivery oracle and run digests.

An *operation* is one (event, subscription) delivery the oracle
expects.  It fails when its delivery is missing or duplicated, and --
on workloads that promise publisher-FIFO order -- when it arrives out
of publish order.  A delivery to a subscription whose box does not
contain the event is *spurious*: a correctness error, not a failed
operation.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

#: (event index, subscription index) -- both positions in the inputs
Pair = Tuple[int, int]


def expected_pairs(
    lows: np.ndarray, highs: np.ndarray, points: np.ndarray, chunk: int = 64
) -> Set[Pair]:
    """Every (event, subscription) whose box contains the event point.

    ``lows``/``highs`` are ``(subs, dims)``, ``points`` is
    ``(events, dims)``; boxes are closed on both sides, like
    ``Subscription.matches``.  Events are processed ``chunk`` at a time
    to keep the comparison tensors small.
    """
    out: Set[Pair] = set()
    for start in range(0, len(points), chunk):
        block = points[start : start + chunk, None, :]
        hit = np.all((lows[None] <= block) & (block <= highs[None]), axis=2)
        ev, sub = np.nonzero(hit)
        out.update(zip((ev + start).tolist(), sub.tolist()))
    return out


@dataclass
class Verdict:
    """Oracle outcome of one repetition."""

    attempted: int
    missing: int
    duplicate: int
    spurious: int
    fifo_violations: int

    @property
    def failed(self) -> int:
        return self.missing + self.duplicate + self.fifo_violations

    def as_dict(self) -> Dict[str, int]:
        return {
            "attempted": self.attempted,
            "missing": self.missing,
            "duplicate": self.duplicate,
            "spurious": self.spurious,
            "fifo_violations": self.fifo_violations,
            "failed": self.failed,
        }


def check_deliveries(
    expected: Set[Pair],
    delivered: Sequence[Pair],
    publisher_of: Sequence[int] = (),
    check_fifo: bool = False,
) -> Verdict:
    """Compare the delivery stream against the oracle.

    ``delivered`` lists (event, subscription) pairs in delivery order.
    With ``check_fifo``, each subscription must see each publisher's
    events in publish order (event indices are publish order); every
    delivery that arrives after a later event of the same publisher
    counts as one violation.
    """
    counts = Counter(delivered)
    got = set(counts)
    missing = len(expected - got)
    spurious = len(got - expected)
    duplicate = sum(n - 1 for n in counts.values() if n > 1)
    fifo = 0
    if check_fifo:
        high: Dict[Tuple[int, int], int] = {}
        for ev, sub in delivered:
            key = (sub, publisher_of[ev])
            if ev < high.get(key, -1):
                fifo += 1
            else:
                high[key] = ev
    return Verdict(
        attempted=len(expected),
        missing=missing,
        duplicate=duplicate,
        spurious=spurious,
        fifo_violations=fifo,
    )


def sha256_json(obj) -> str:
    """Digest of a JSON-serialisable value (floats in full ``repr``)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def delivery_digest(delivered: Iterable[Pair]) -> str:
    """Digest of the sorted delivery multiset."""
    return sha256_json(sorted(delivered))


def percentile_with_support(
    values: Sequence[float], pct: float
) -> Tuple[float, int]:
    """The ``pct`` percentile and how many samples lie strictly above it."""
    arr = np.asarray(values, dtype=np.float64)
    value = float(np.percentile(arr, pct))
    return value, int(np.count_nonzero(arr > value))


def subs_index(subids: List[Tuple[int, int]]) -> Dict[Tuple[int, int], int]:
    """``(nid, iid) -> subscription index`` for the installed subs."""
    index = {sid: i for i, sid in enumerate(subids)}
    if len(index) != len(subids):
        raise ValueError("subscription ids are not unique")
    return index
