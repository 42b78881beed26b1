"""Unit + property tests for the vectorised box store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import BoxStore
from repro.core.subscription import SubID


def box(lo, hi):
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


class TestBasics:
    def test_put_and_match(self):
        s = BoxStore(2)
        s.put(SubID(1, 1), *box([0, 0], [10, 10]))
        s.put(SubID(2, 1), *box([5, 5], [15, 15]))
        assert sorted(x.nid for x in s.match_point(np.array([7.0, 7.0]))) == [1, 2]
        assert [x.nid for x in s.match_point(np.array([1.0, 1.0]))] == [1]
        assert s.match_point(np.array([20.0, 20.0])) == []

    def test_bounds_are_inclusive(self):
        s = BoxStore(1)
        s.put(SubID(1, 1), *box([5], [10]))
        assert s.match_point(np.array([5.0]))
        assert s.match_point(np.array([10.0]))
        assert not s.match_point(np.array([10.0001]))

    def test_put_replaces(self):
        s = BoxStore(1)
        s.put(SubID(1, 1), *box([0], [1]))
        s.put(SubID(1, 1), *box([10], [11]))
        assert len(s) == 1
        assert not s.match_point(np.array([0.5]))
        assert s.match_point(np.array([10.5]))

    def test_remove(self):
        s = BoxStore(1)
        s.put(SubID(1, 1), *box([0], [1]))
        s.remove(SubID(1, 1))
        assert len(s) == 0
        assert not s.match_point(np.array([0.5]))
        with pytest.raises(KeyError):
            s.remove(SubID(1, 1))

    def test_slot_reuse_after_remove(self):
        s = BoxStore(1)
        for i in range(50):
            s.put(SubID(1, i), *box([i], [i + 0.5]))
        for i in range(0, 50, 2):
            s.remove(SubID(1, i))
        for i in range(100, 125):
            s.put(SubID(2, i), *box([i], [i + 0.5]))
        assert len(s) == 50
        assert s.match_point(np.array([100.2]))
        assert not s.match_point(np.array([0.2]))

    def test_growth_beyond_initial_capacity(self):
        s = BoxStore(2)
        for i in range(100):
            s.put(SubID(1, i), *box([i, i], [i + 1, i + 1]))
        assert len(s) == 100
        hits = s.match_point(np.array([50.5, 50.5]))
        assert [h.iid for h in hits] == [50]

    def test_get_box(self):
        s = BoxStore(2)
        s.put(SubID(3, 7), *box([1, 2], [3, 4]))
        lo, hi = s.get_box(SubID(3, 7))
        assert list(lo) == [1, 2] and list(hi) == [3, 4]

    def test_invalid_inputs(self):
        s = BoxStore(2)
        with pytest.raises(ValueError):
            s.put(SubID(1, 1), np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            s.put(SubID(1, 1), *box([5, 5], [1, 1]))
        with pytest.raises(ValueError):
            BoxStore(0)

    def test_bounding_box(self):
        s = BoxStore(2)
        assert s.bounding_box() is None
        s.put(SubID(1, 1), *box([0, 5], [1, 6]))
        s.put(SubID(1, 2), *box([10, 0], [11, 1]))
        lo, hi = s.bounding_box()
        assert list(lo) == [0, 0] and list(hi) == [11, 6]

    def test_bounding_box_ignores_removed(self):
        s = BoxStore(1)
        s.put(SubID(1, 1), *box([0], [1]))
        s.put(SubID(1, 2), *box([100], [101]))
        s.remove(SubID(1, 2))
        lo, hi = s.bounding_box()
        assert hi[0] == 1

    def test_nan_bounds_rejected(self):
        # NaN never compares True: a NaN box would match nothing while
        # poisoning the summary filter -- rejection must be by name.
        s = BoxStore(2)
        with pytest.raises(ValueError, match="NaN"):
            s.put(SubID(1, 1), *box([0, np.nan], [1, 1]))
        with pytest.raises(ValueError, match="NaN"):
            s.put(SubID(1, 1), *box([0, 0], [1, np.nan]))
        assert len(s) == 0
        assert s.bounding_box() is None

    def test_infinite_bounds_stay_legal(self):
        # ±inf means "unspecified dimension" -- the whole domain.
        s = BoxStore(2)
        s.put(SubID(1, 1), *box([-np.inf, 0], [np.inf, 1]))
        assert s.match_point(np.array([1e18, 0.5]))
        assert not s.match_point(np.array([0.0, 2.0]))

    def test_pop_matching(self):
        s = BoxStore(1)
        for i in range(10):
            s.put(SubID(i, 1), *box([i], [i + 1]))
        popped = s.pop_matching(lambda sid: sid.nid < 5)
        assert len(popped) == 5
        assert len(s) == 5
        assert all(sid.nid >= 5 for sid in s.subids())
        # The single pass must hand back the true bounds and release
        # the slots for reuse.
        assert sorted((sid.nid, lo[0], hi[0]) for sid, lo, hi in popped) == [
            (i, float(i), float(i + 1)) for i in range(5)
        ]
        s.put(SubID(99, 1), *box([50], [51]))
        assert s.match_point(np.array([50.5]))

    def test_pop_matching_bounds_outlive_slot_reuse(self):
        s = BoxStore(2)
        for i in range(6):
            s.put(SubID(i, 1), *box([i, -i], [i + 1, 0]))
        popped = s.pop_matching(lambda sid: sid.nid % 2 == 0)
        assert s.pop_matching(lambda sid: sid.nid > 100) == []
        # Refill the freed slots: the popped bounds must not move.
        for i in range(3):
            s.put(SubID(50 + i, 1), *box([70, 70], [80, 80]))
        assert [(sid.nid, list(lo), list(hi)) for sid, lo, hi in popped] == [
            (i, [float(i), float(-i)], [float(i + 1), 0.0]) for i in (0, 2, 4)
        ]
        assert not s.match_point(np.array([0.5, -0.5]))
        assert len(s) == 6

    def test_index_size_equals_len_for_plain_store(self):
        s = BoxStore(1)
        s.put(SubID(1, 1), *box([0], [1]))
        s.put(SubID(2, 1), *box([2], [3]))
        assert s.index_size() == len(s) == 2

    def test_match_box(self):
        s = BoxStore(2)
        s.put(SubID(1, 1), *box([0, 0], [10, 10]))
        s.put(SubID(2, 1), *box([20, 20], [30, 30]))
        hits = [x.nid for x in s.match_box(np.array([9.0, 9.0]), np.array([15.0, 15.0]))]
        assert hits == [1]
        # Closed intervals: touching edges overlap.
        hits = [x.nid for x in s.match_box(np.array([10.0, 10.0]), np.array([20.0, 20.0]))]
        assert sorted(hits) == [1, 2]
        assert s.match_box(np.array([11.0, 11.0]), np.array([19.0, 19.0])) == []


# ----------------------------------------------------------------------
# Property: BoxStore.match_point === brute-force containment
# ----------------------------------------------------------------------

entries = st.lists(
    st.tuples(
        st.integers(0, 1000),  # nid
        st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=2),
        st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=2),
    ),
    min_size=0,
    max_size=40,
)


@given(
    data=entries,
    point=st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=2),
    removals=st.sets(st.integers(0, 39)),
)
@settings(max_examples=200)
def test_match_equals_bruteforce(data, point, removals):
    store = BoxStore(2)
    reference = {}
    for i, (nid, a, b) in enumerate(data):
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        sid = SubID(nid, i)
        store.put(sid, lo, hi)
        reference[sid] = (lo, hi)
    for i in removals:
        sid = next((s for s in reference if s.iid == i), None)
        if sid is not None:
            store.remove(sid)
            del reference[sid]
    p = np.array(point)
    expected = sorted(
        (sid for sid, (lo, hi) in reference.items() if np.all(lo <= p) and np.all(p <= hi)),
        key=lambda s: (s.nid, s.iid),
    )
    got = sorted(store.match_point(p), key=lambda s: (s.nid, s.iid))
    assert got == expected


@given(
    data=entries,
    qa=st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=2),
    qb=st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=2),
)
@settings(max_examples=200)
def test_match_box_equals_bruteforce(data, qa, qb):
    store = BoxStore(2)
    reference = {}
    for i, (nid, a, b) in enumerate(data):
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        sid = SubID(nid, i)
        store.put(sid, lo, hi)
        reference[sid] = (lo, hi)
    qlo = np.minimum(qa, qb)
    qhi = np.maximum(qa, qb)
    expected = sorted(
        (
            sid
            for sid, (lo, hi) in reference.items()
            if np.all(lo <= qhi) and np.all(qlo <= hi)
        ),
        key=lambda s: (s.nid, s.iid),
    )
    got = sorted(store.match_box(qlo, qhi), key=lambda s: (s.nid, s.iid))
    assert got == expected
