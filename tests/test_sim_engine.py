"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim.engine import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "mid")
    sim.run()
    assert fired == ["early", "mid", "late"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(2.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]
    assert sim.now == 7.5


def test_nested_scheduling_relative_to_now():
    sim = Simulator()
    times = []

    def outer():
        times.append(sim.now)
        sim.schedule(2.0, inner)

    def inner():
        times.append(sim.now)

    sim.schedule(3.0, outer)
    sim.run()
    assert times == [3.0, 5.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5.0, lambda: None)


def test_cancellation_skips_callback():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    handle.cancel()
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.run() == 0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    executed = sim.run(until=5.0)
    assert executed == 1
    assert fired == ["a"]
    assert sim.now == 5.0  # clock advanced to the horizon
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_boundary_is_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "edge")
    sim.run(until=5.0)
    assert fired == ["edge"]


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_step_returns_false_when_idle():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.processed == 4


def test_run_until_idle_raises_on_runaway():
    sim = Simulator()

    def rescheduler():
        sim.schedule(1.0, rescheduler)

    sim.schedule(0.0, rescheduler)
    with pytest.raises(RuntimeError):
        sim.run_until_idle(max_events=50)


def test_zero_delay_events_run_after_current_callback():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, order.append, "chained")

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "second")
    sim.run()
    # Chained zero-delay event fires at the same time but later sequence.
    assert order == ["first", "second", "chained"]


def test_live_count_excludes_cancelled_stubs():
    """``pending`` counts raw heap entries (cancelled stubs included);
    ``live`` is the number of events that will actually fire."""
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending == 5
    assert sim.live == 5
    handles[0].cancel()
    handles[3].cancel()
    assert sim.pending == 5  # stubs stay in the heap until popped
    assert sim.live == 3


def test_live_count_decrements_as_events_fire():
    sim = Simulator()
    for i in range(3):
        sim.schedule(float(i + 1), lambda: None)
    sim.step()
    assert sim.live == 2
    sim.run()
    assert sim.live == 0
    assert sim.pending == 0


def test_cancel_after_fire_does_not_double_count():
    """Cancelling a handle whose event already executed must not drive
    ``live`` negative (late cancels are common for ack timers)."""
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.step()  # fires h
    h.cancel()
    h.cancel()
    assert sim.live == 1


def test_live_tracks_nested_scheduling():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: None))
    assert sim.live == 1
    sim.step()
    assert sim.live == 1  # the nested event replaced the fired one
    sim.run()
    assert sim.live == 0


# ---------------------------------------------------------------------------
# The heap entry is the handle: tombstone cancellation
# ---------------------------------------------------------------------------
def test_cancel_before_fire_decrements_live_once():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.live == 2
    h.cancel()
    assert sim.live == 1
    h.cancel()
    assert sim.live == 1
    assert sim.run() == 1
    assert sim.live == 0


def test_double_cancel_after_fire_leaves_live_alone():
    sim = Simulator()
    fired = []
    h = sim.schedule(1.0, fired.append, "x")
    sim.schedule(5.0, lambda: None)
    sim.run(until=2.0)
    assert fired == ["x"]
    assert sim.live == 1
    h.cancel()
    h.cancel()
    assert sim.live == 1
    assert sim.run() == 1
    assert sim.live == 0


def test_handle_reads_time_seq_and_cancelled():
    sim = Simulator()
    sim.schedule(0.5, lambda: None)
    sim.run()
    a = sim.schedule(2.0, lambda: None)
    b = sim.schedule_at(3.25, lambda: None)
    assert (a.time, a.seq) == (2.5, 1)
    assert (b.time, b.seq) == (3.25, 2)
    assert not a.cancelled and not b.cancelled
    b.cancel()
    assert b.cancelled and not a.cancelled
    sim.run()
    # Firing does not mark a handle cancelled; a late cancel still does.
    assert not a.cancelled
    a.cancel()
    assert a.cancelled
    assert (a.time, a.seq) == (2.5, 1)


def test_same_time_ties_fire_in_insertion_order_around_tombstones():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(4.0, fired.append, i) for i in range(8)]
    for i in (1, 4, 7):
        handles[i].cancel()
    sim.run()
    assert fired == [0, 2, 3, 5, 6]


def test_step_skips_tombstones():
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, "first")
    sim.schedule(2.0, fired.append, "second")
    first.cancel()
    assert sim.step() is True
    assert fired == ["second"]
    assert sim.now == 2.0
    assert sim.processed == 1
    only = sim.schedule(1.0, fired.append, "never")
    only.cancel()
    assert sim.step() is False
    assert sim.pending == 0 and sim.live == 0


def test_run_until_and_max_events_skip_tombstones():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(float(i + 1), fired.append, i) for i in range(6)]
    handles[0].cancel()
    handles[2].cancel()
    # Tombstones neither fire nor count against max_events.
    assert sim.run(max_events=2) == 2
    assert fired == [1, 3]
    handles[4].cancel()
    assert sim.run(until=5.5) == 0
    assert sim.now == 5.5
    assert sim.run(until=10.0) == 1
    assert fired == [1, 3, 5]
    assert sim.live == 0 and sim.pending == 0


def test_heap_entry_is_the_handle():
    """One object per scheduled event: the returned handle is the very
    entry the heap holds."""
    sim = Simulator()
    h = sim.schedule(1.0, print, "x")
    assert sim._queue == [h] and sim._queue[0] is h
