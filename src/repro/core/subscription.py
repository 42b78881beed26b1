"""Subscriptions: conjunctions of range predicates (hyper-rectangles).

"A subscription is a conjunction of predicates on one or more
attributes, where each predicate specifies a constant value or a range
for an attribute. ... If a subscription does not specify any range over
an attribute, the boundary of the domain of this attribute is
considered as the interested range."  (Section 3.1)

A subscription with several predicates on the same attribute is split
into several subscriptions (:func:`normalize_predicates`), exactly as
the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.event import Event
from repro.core.scheme import Scheme, string_prefix_to_range


@dataclass(frozen=True)
class Predicate:
    """``low <= attribute <= high``; equality is ``low == high``."""

    attr: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(
                f"predicate on {self.attr!r}: high ({self.high}) < low ({self.low})"
            )

    @classmethod
    def eq(cls, attr: str, value: float) -> "Predicate":
        return cls(attr, float(value), float(value))

    @classmethod
    def between(cls, attr: str, low: float, high: float) -> "Predicate":
        return cls(attr, float(low), float(high))

    @classmethod
    def string_prefix(cls, attr: str, prefix: str) -> "Predicate":
        """Prefix predicate converted to a numeric range (Section 3.1)."""
        low, high = string_prefix_to_range(prefix)
        return cls(attr, low, high)


class SubID(NamedTuple):
    """Global subscription identifier: (subscriber nodeID, internal ID).

    The paper sizes this at 9 bytes on the wire (8B node id + 1B iid);
    rendezvous entries use ``iid = None`` ("the subid list is
    initialized as {(key(cz), NULL)}").  A named tuple: it hashes and
    orders as ``(nid, iid)`` and costs one small object per SubID.
    """

    nid: int
    iid: Optional[int]

    @property
    def is_rendezvous(self) -> bool:
        return self.iid is None


class Subscription:
    """A hyper-rectangle over a scheme's content space."""

    __slots__ = ("scheme_name", "lows", "highs", "specified")

    def __init__(self, scheme: Scheme, predicates: Sequence[Predicate]) -> None:
        seen: Dict[str, Predicate] = {}
        for p in predicates:
            if p.attr in seen:
                raise ValueError(
                    f"multiple predicates on {p.attr!r}: split the subscription "
                    "first (see normalize_predicates)"
                )
            seen[p.attr] = p
        lows = scheme.domain_lows()
        highs = scheme.domain_highs()
        specified = np.zeros(scheme.dimensions, dtype=bool)
        for name, p in seen.items():
            i = scheme.attr_index(name)
            attr = scheme.attributes[i]
            lo = max(p.low, attr.low)
            hi = min(p.high, attr.high)
            if hi < lo:
                raise ValueError(
                    f"predicate on {name!r} lies outside the attribute domain"
                )
            lows[i] = lo
            highs[i] = hi
            specified[i] = True
        lows.setflags(write=False)
        highs.setflags(write=False)
        specified.setflags(write=False)
        self.scheme_name = scheme.name
        self.lows = lows
        self.highs = highs
        self.specified = specified

    # ------------------------------------------------------------------
    @classmethod
    def from_box(
        cls,
        scheme: Scheme,
        lows: Sequence[float],
        highs: Sequence[float],
    ) -> "Subscription":
        """Construct directly from per-dimension bounds (workload path)."""
        preds = [
            Predicate(a.name, float(lo), float(hi))
            for a, lo, hi in zip(scheme.attributes, lows, highs)
        ]
        return cls(scheme, preds)

    @property
    def box(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.lows, self.highs

    def matches(self, event: Event) -> bool:
        """Does the event point fall inside this hyper-rectangle?"""
        if event.scheme_name != self.scheme_name:
            return False
        return bool(
            np.all(self.lows <= event.point) and np.all(event.point <= self.highs)
        )

    def num_specified(self) -> int:
        return int(self.specified.sum())

    def volume_fraction(self, scheme: Scheme) -> float:
        """Fraction of the content space this subscription covers."""
        dom = scheme.domain_highs() - scheme.domain_lows()
        frac = (self.highs - self.lows) / dom
        return float(np.prod(np.clip(frac, 0.0, 1.0)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"[{lo:g},{hi:g}]" for lo, hi in zip(self.lows, self.highs)
        )
        return f"Subscription({self.scheme_name!r}: {parts})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subscription)
            and self.scheme_name == other.scheme_name
            and np.array_equal(self.lows, other.lows)
            and np.array_equal(self.highs, other.highs)
        )

    def __hash__(self) -> int:
        return hash(
            (self.scheme_name, self.lows.tobytes(), self.highs.tobytes())
        )


def normalize_predicates(
    scheme: Scheme, predicates: Iterable[Predicate]
) -> List[Subscription]:
    """Split a predicate list into single-range-per-attribute subscriptions.

    "A subscription that needs to specify multiple predicates on the same
    attribute can be divided into multiple subscriptions."  Disjoint
    ranges on an attribute become the cross product of alternatives;
    overlapping ranges on the same attribute are intersected first.
    """
    by_attr: Dict[str, List[Predicate]] = {}
    for p in predicates:
        by_attr.setdefault(p.attr, []).append(p)

    # Merge overlapping ranges per attribute into disjoint alternatives.
    alternatives: List[List[Predicate]] = []
    for attr, plist in by_attr.items():
        plist = sorted(plist, key=lambda p: (p.low, p.high))
        merged: List[Predicate] = []
        for p in plist:
            if merged and p.low <= merged[-1].high:
                last = merged.pop()
                merged.append(Predicate(attr, last.low, max(last.high, p.high)))
            else:
                merged.append(p)
        alternatives.append(merged)

    subs: List[Subscription] = [Subscription(scheme, [])]
    for alts in alternatives:
        subs = [
            Subscription(
                scheme,
                _preds_of(existing, scheme) + [alt],
            )
            for existing in subs
            for alt in alts
        ]
    return subs


def _preds_of(sub: Subscription, scheme: Scheme) -> List[Predicate]:
    """Recover the specified predicates of a subscription."""
    out: List[Predicate] = []
    for i, a in enumerate(scheme.attributes):
        if sub.specified[i]:
            out.append(Predicate(a.name, float(sub.lows[i]), float(sub.highs[i])))
    return out
