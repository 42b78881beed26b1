"""Tests for events and subscriptions (the point/box data model)."""

import numpy as np
import pytest

from repro.core.event import Event
from repro.core.scheme import Attribute, Scheme
from repro.core.subscription import (
    Predicate,
    SubID,
    Subscription,
    normalize_predicates,
)


@pytest.fixture
def scheme():
    return Scheme(
        "s",
        [Attribute("x", 0, 100), Attribute("y", -50, 50), Attribute("z", 0, 10)],
    )


class TestEvent:
    def test_from_mapping(self, scheme):
        e = Event(scheme, {"x": 10, "y": 0, "z": 5})
        assert list(e.point) == [10.0, 0.0, 5.0]

    def test_from_sequence(self, scheme):
        e = Event(scheme, [10, 0, 5])
        assert e.value(scheme, "y") == 0.0

    def test_missing_attribute_rejected(self, scheme):
        with pytest.raises(ValueError, match="missing"):
            Event(scheme, {"x": 1, "y": 2})

    def test_unknown_attribute_rejected(self, scheme):
        with pytest.raises(ValueError, match="unknown"):
            Event(scheme, {"x": 1, "y": 2, "z": 3, "w": 4})

    def test_wrong_arity_rejected(self, scheme):
        with pytest.raises(ValueError):
            Event(scheme, [1, 2])

    def test_out_of_domain_rejected(self, scheme):
        with pytest.raises(ValueError):
            Event(scheme, {"x": 101, "y": 0, "z": 0})

    def test_point_is_immutable(self, scheme):
        e = Event(scheme, [1, 2, 3])
        with pytest.raises(ValueError):
            e.point[0] = 9

    def test_as_dict_roundtrip(self, scheme):
        e = Event(scheme, {"x": 10, "y": -5, "z": 1})
        assert e.as_dict(scheme) == {"x": 10.0, "y": -5.0, "z": 1.0}

    def test_equality_and_hash(self, scheme):
        a = Event(scheme, [1, 2, 3])
        b = Event(scheme, [1, 2, 3])
        assert a == b and hash(a) == hash(b)
        assert a != Event(scheme, [1, 2, 4])


class TestPredicate:
    def test_eq_constructor(self):
        p = Predicate.eq("x", 5)
        assert p.low == p.high == 5.0

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            Predicate("x", 5, 1)

    def test_string_prefix_predicate(self):
        p = Predicate.string_prefix("sym", "AB")
        assert p.low < p.high


class TestSubscription:
    def test_unspecified_attrs_default_to_domain(self, scheme):
        s = Subscription(scheme, [Predicate("x", 10, 20)])
        assert list(s.lows) == [10.0, -50.0, 0.0]
        assert list(s.highs) == [20.0, 50.0, 10.0]
        assert s.num_specified() == 1

    def test_matches_inclusive_bounds(self, scheme):
        s = Subscription(scheme, [Predicate("x", 10, 20)])
        assert s.matches(Event(scheme, {"x": 10, "y": 0, "z": 0}))
        assert s.matches(Event(scheme, {"x": 20, "y": 0, "z": 0}))
        assert not s.matches(Event(scheme, {"x": 21, "y": 0, "z": 0}))

    def test_cross_scheme_never_matches(self, scheme):
        other = Scheme("t", [Attribute("x", 0, 100)])
        s = Subscription(scheme, [])
        assert not s.matches(Event(other, {"x": 5}))

    def test_predicate_clipped_to_domain(self, scheme):
        s = Subscription(scheme, [Predicate("x", -5, 200)])
        assert s.lows[0] == 0 and s.highs[0] == 100

    def test_predicate_fully_outside_domain_rejected(self, scheme):
        with pytest.raises(ValueError):
            Subscription(scheme, [Predicate("x", 200, 300)])

    def test_duplicate_attr_predicates_rejected(self, scheme):
        with pytest.raises(ValueError, match="multiple predicates"):
            Subscription(scheme, [Predicate("x", 0, 1), Predicate("x", 2, 3)])

    def test_from_box(self, scheme):
        s = Subscription.from_box(scheme, [0, -10, 0], [50, 10, 5])
        assert s.matches(Event(scheme, {"x": 25, "y": 0, "z": 2}))

    def test_volume_fraction(self, scheme):
        s = Subscription(scheme, [Predicate("x", 0, 50)])
        assert s.volume_fraction(scheme) == pytest.approx(0.5)

    def test_equality_and_hash(self, scheme):
        a = Subscription(scheme, [Predicate("x", 1, 2)])
        b = Subscription(scheme, [Predicate("x", 1, 2)])
        assert a == b and hash(a) == hash(b)


class TestSubID:
    def test_rendezvous_flag(self):
        assert SubID(5, None).is_rendezvous
        assert not SubID(5, 1).is_rendezvous

    def test_ordering_and_hash(self):
        assert SubID(1, 2) == SubID(1, 2)
        assert len({SubID(1, 2), SubID(1, 2), SubID(1, 3)}) == 2

    def test_hash_and_order_are_the_tuples(self):
        # Set and dict iteration order -- and with them the delivery
        # digests -- depend on the hash staying hash((nid, iid)).
        for sid in (SubID(7, 3), SubID(2**63 + 5, 0), SubID(9, None)):
            assert hash(sid) == hash((sid.nid, sid.iid))
        subids = [SubID(3, 1), SubID(1, 9), SubID(3, 0), SubID(2, 4)]
        assert sorted(subids) == [
            SubID(1, 9), SubID(2, 4), SubID(3, 0), SubID(3, 1)
        ]
        assert SubID(1, 2) < SubID(1, 3) < SubID(2, 0)

    def test_fields_repr_and_immutability(self):
        sid = SubID(5, 2)
        assert (sid.nid, sid.iid) == (5, 2)
        assert repr(sid) == "SubID(nid=5, iid=2)"
        with pytest.raises(AttributeError):
            sid.nid = 6

    def test_pickle_round_trip(self):
        import pickle

        for sid in (SubID(5, 2), SubID(11, None)):
            back = pickle.loads(pickle.dumps(sid))
            assert back == sid and type(back) is SubID
            assert back.is_rendezvous is sid.is_rendezvous


class TestNormalizePredicates:
    def test_single_subscription_passthrough(self, scheme):
        subs = normalize_predicates(scheme, [Predicate("x", 1, 2)])
        assert len(subs) == 1
        assert subs[0].lows[0] == 1

    def test_disjoint_ranges_split(self, scheme):
        subs = normalize_predicates(
            scheme, [Predicate("x", 0, 10), Predicate("x", 20, 30)]
        )
        assert len(subs) == 2
        covered = sorted((s.lows[0], s.highs[0]) for s in subs)
        assert covered == [(0, 10), (20, 30)]

    def test_overlapping_ranges_merged(self, scheme):
        subs = normalize_predicates(
            scheme, [Predicate("x", 0, 15), Predicate("x", 10, 30)]
        )
        assert len(subs) == 1
        assert (subs[0].lows[0], subs[0].highs[0]) == (0, 30)

    def test_cross_product_of_attributes(self, scheme):
        subs = normalize_predicates(
            scheme,
            [
                Predicate("x", 0, 1),
                Predicate("x", 5, 6),
                Predicate("y", 0, 1),
                Predicate("y", 5, 6),
            ],
        )
        assert len(subs) == 4

    def test_match_semantics_preserved(self, scheme):
        """The union of split subscriptions matches exactly the events the
        original disjunction would."""
        preds = [Predicate("x", 0, 10), Predicate("x", 20, 30), Predicate("y", -10, 10)]
        subs = normalize_predicates(scheme, preds)
        for x, expected in [(5, True), (15, False), (25, True), (35, False)]:
            e = Event(scheme, {"x": x, "y": 0, "z": 0})
            assert any(s.matches(e) for s in subs) == expected
