"""Discrete-event kernel: virtual clock, event queue, seeded randomness.

A fan-out (schedule_each) is one queue entry that calls action(r) for
each receiver r, in list order, when it is due.  Each call counts as one
processed event and, with trace on, logs its own line just before it
runs.  The calls take the entry's place in the queue, so they run where
one event per receiver, scheduled back to back, would run.
"""

import heapq
import random


class SchedulingError(ValueError):
    pass


class EventHandle:
    """Returned by schedule(); lets the caller cancel a pending event."""

    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


def trace_line(t, node, kind, detail):
    return "%.4f,%s,%s,%s" % (t, node, kind, detail)


class Simulator:
    """Virtual-time event loop.

    Events at the same fire time run in insertion order.  All randomness
    for a run must come from self.rng so a seed reproduces the run.
    """

    def __init__(self, seed=0, trace=False):
        self.now = 0.0
        self.rng = random.Random(seed)
        self._queue = []
        self._seq = 0
        self.processed = 0
        self.trace = [] if trace else None

    def schedule(self, fire_time, action, node=None, kind="", detail=""):
        if fire_time < self.now:
            raise SchedulingError(
                "event at %.4f is before clock %.4f" % (fire_time, self.now))
        handle = EventHandle()
        heapq.heappush(self._queue,
                       (fire_time, self._seq, action, handle, node, kind, detail))
        self._seq += 1
        return handle

    def schedule_each(self, fire_time, receivers, action, kind="", detail=""):
        """One entry that calls action(r) for each receiver; it cannot be
        cancelled, and an empty receiver list schedules nothing."""
        if not receivers:
            return

        def each():
            trace = self.trace
            for r in receivers:
                if trace is not None and kind:
                    trace.append(trace_line(self.now, r, kind, detail))
                action(r)
            # run_until counts the entry itself as one event.
            self.processed += len(receivers) - 1
        self.schedule(fire_time, each)

    def schedule_in(self, delay, action, node=None, kind="", detail=""):
        return self.schedule(self.now + delay, action, node, kind, detail)

    def log(self, node, kind, detail=""):
        if self.trace is not None:
            self.trace.append(trace_line(self.now, node, kind, detail))

    def run_until(self, t_end):
        """Process every event due at or before t_end; returns the count."""
        if t_end < self.now:
            raise SchedulingError(
                "cannot run backward to %.4f from %.4f" % (t_end, self.now))
        queue, pop, trace = self._queue, heapq.heappop, self.trace
        start = self.processed
        while queue and queue[0][0] <= t_end:
            fire_time, _, action, handle, node, kind, detail = pop(queue)
            if handle.cancelled:
                continue
            self.now = fire_time
            if trace is not None and kind:
                trace.append(trace_line(fire_time, node, kind, detail))
            action()
            self.processed += 1
        self.now = t_end
        return self.processed - start
