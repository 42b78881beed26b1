"""Deterministic discrete-event scheduler.

The simulator keeps a priority queue of ``[time, sequence, callback,
args, sim]`` entries (see :class:`EventHandle`).  Ties on time are
broken by insertion order, which makes every run fully deterministic
for a fixed seed and fixed call ordering -- the property every
experiment in this repository relies on.

Time is a ``float`` in **milliseconds**, matching the paper's reporting
units (latencies from the King dataset are millisecond RTTs).
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Any, Callable, Optional


class EventHandle(list):
    """A scheduled callback: the heap entry *is* the cancellation token.

    The entry is the list ``[time, seq, fn, args, sim]``.  Heap order
    compares ``(time, seq)`` only -- ``seq`` is unique, so ``fn`` is
    never compared.  Cancelling does not remove the entry (that would
    be O(n)); it clears ``fn``, leaving a tombstone that is skipped when
    popped.  ``sim`` is set while the event is still due and cleared
    when it fires or is cancelled, whichever comes first, so the owning
    simulator's live count (:attr:`Simulator.live`) drops exactly once.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self[2] = None
        sim = self[4]
        if sim is not None:
            self[4] = None
            sim._live -= 1


class RepeatingHandle:
    """Cancellation token for :meth:`Simulator.schedule_every`."""

    __slots__ = ("cancelled", "_inner")

    def __init__(self) -> None:
        self.cancelled = False
        self._inner: Optional[EventHandle] = None

    def cancel(self) -> None:
        """Stop future firings.  Idempotent."""
        self.cancelled = True
        if self._inner is not None:
            self._inner.cancel()


class Simulator:
    """A discrete-event simulation engine.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._queue: list[EventHandle] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._processed: int = 0
        self._live: int = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Raw heap size, *including* cancelled stubs (cancellation
        leaves the entry in place and skips it at pop).  For "how much
        work is actually left" use :attr:`live`."""
        return len(self._queue)

    @property
    def live(self) -> int:
        """Number of events still queued, excluding cancelled stubs.

        ``pending`` overstates remaining work whenever timers were
        cancelled (every acked reliable packet leaves one stub); this is
        the honest count for progress displays and telemetry sampling.
        """
        return self._live

    @property
    def processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` milliseconds of simulated time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        seq = self._seq
        handle = EventHandle((time, seq, fn, args, self))
        heapq.heappush(self._queue, handle)
        self._seq = seq + 1
        self._live += 1
        return handle

    def schedule_every(
        self,
        interval_ms: float,
        fn: Callable[..., Any],
        *args: Any,
        until: Optional[float] = None,
    ) -> RepeatingHandle:
        """Run ``fn(*args)`` every ``interval_ms``, first firing one
        interval from now.

        ``until`` bounds the series (no firing strictly after it), which
        keeps ``run_until_idle`` terminating; an unbounded series must be
        cancelled via the returned handle before draining the queue.
        Used by telemetry's periodic metric sampling and handy for any
        maintenance-style loop.
        """
        if interval_ms <= 0:
            raise ValueError(f"non-positive interval: {interval_ms!r}")
        handle = RepeatingHandle()

        def _tick() -> None:
            if handle.cancelled:
                return
            fn(*args)
            nxt = self._now + interval_ms
            if until is None or nxt <= until:
                handle._inner = self.schedule(interval_ms, _tick)

        first = self._now + interval_ms
        if until is None or first <= until:
            handle._inner = self.schedule(interval_ms, _tick)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns ``False`` when idle."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            fn = entry[2]
            if fn is None:
                continue
            entry[4] = None
            self._live -= 1
            self._now = entry[0]
            fn(*entry[3])
            self._processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time.
            The clock is advanced to ``until`` when the queue drains early.
        max_events:
            Safety valve; stop after executing this many callbacks.

        Returns the number of callbacks executed by this call.
        """
        queue = self._queue
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        limit = sys.maxsize if max_events is None else max_events
        executed = 0
        while queue and executed < limit:
            entry = queue[0]
            time = entry[0]
            if time > horizon:
                break
            pop(queue)
            fn = entry[2]
            if fn is None:
                continue
            entry[4] = None
            self._live -= 1
            self._now = time
            fn(*entry[3])
            self._processed += 1
            executed += 1
        if until is not None and until > self._now:
            self._now = until
        return executed

    def run_until_idle(self, max_events: int = 100_000_000) -> int:
        """Drain everything.  Raises if ``max_events`` is exceeded."""
        executed = self.run(max_events=max_events)
        if self._queue and executed >= max_events:
            raise RuntimeError(
                f"simulation did not converge within {max_events} events"
            )
        return executed
