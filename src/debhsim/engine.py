"""Discrete-event kernel: a virtual clock and an event queue.

The queue is keyed by fire time: a heap of the distinct pending times,
and for each time the list of its entries in insertion order.  Hop
latency and timeouts are model constants, so many entries share an
instant; scheduling at a queued instant appends to its list and touches
no heap.  run_until takes one instant at a time and runs its entries in
order; an entry scheduled at that instant while it runs starts a new
list there, which runs next.  Events therefore run in (fire time,
insertion) order, and each sets the clock from its own fire time, so an
entry at -0.0 in the instant of 0.0 still runs at -0.0.

A scheduled entry is its own handle: schedule() returns the queued list
[fire_time, action, node, kind, detail], and cancel(entry) clears its
action, so run_until drops it unrun and uncounted when it comes due.
Cancelling an entry that has already run, or twice, does nothing.

A fan-out (schedule_each) is one queue entry that calls action(r) for
each receiver r, in list order, when it is due.  Each call counts as one
processed event and, with trace on, logs its own line just before it
runs.  The calls take the entry's place in the queue, so they run where
one event per receiver, scheduled back to back, would run.

With trace on, every line of Simulator.trace is "%.4f,%s,%s,%s" % (now,
node, kind, detail), built in Simulator: by _line for a tagged event or a
log call, and by the fan-out for its receivers.  Lines cluster on a few
instants (the receivers of one fan-out, the sends of the handler a
reception runs), so _stamp_now formats the "%.4f," stamp once per
instant: it is reused while the clock equals the time it was last
formatted at.  A zero time is formatted afresh every time, since
0.0 == -0.0 but the two print as 0.0000 and -0.0000.
"""

import heapq


class SchedulingError(ValueError):
    pass


class Simulator:
    """Virtual-time event loop.

    Events run in fire time order, and those at one fire time in
    insertion order.  The loop draws no random numbers: a run's
    randomness is Simulation.rng.
    """

    def __init__(self, trace=False):
        self.now = 0.0
        # The heap of distinct pending fire times, and each one's entries.
        self._queue = []
        self._due = {}
        self.processed = 0
        self.trace = [] if trace else None
        # The time of the last trace stamp formatted, and that stamp.
        self._stamp_t = None
        self._stamp = ""

    def schedule(self, fire_time, action, node=None, kind="", detail=""):
        if fire_time < self.now:
            raise SchedulingError(
                "event at %.4f is before clock %.4f" % (fire_time, self.now))
        entry = [fire_time, action, node, kind, detail]
        instant = self._due.get(fire_time)
        if instant is None:
            self._due[fire_time] = [entry]
            heapq.heappush(self._queue, fire_time)
        else:
            instant.append(entry)
        return entry

    def cancel(self, entry):
        """Keep a scheduled entry from running."""
        entry[1] = None

    def schedule_each(self, fire_time, receivers, action, kind="", detail=""):
        """One entry that calls action(r) for each receiver; it cannot be
        cancelled, and an empty receiver list schedules nothing."""
        if not receivers:
            return

        def each():
            trace = self.trace
            if trace is None or not kind:
                for r in receivers:
                    action(r)
            else:
                stamp, tail = self._stamp_now(), f",{kind},{detail}"
                for r in receivers:
                    trace.append(f"{stamp}{r}{tail}")
                    action(r)
            # run_until counts the entry itself as one event.
            self.processed += len(receivers) - 1
        self.schedule(fire_time, each)

    def schedule_in(self, delay, action):
        return self.schedule(self.now + delay, action)

    def log(self, node, kind, detail=""):
        if self.trace is not None:
            self.trace.append(self._line(node, kind, detail))

    def _stamp_now(self):
        """The "%.4f," head of a trace line at the current time."""
        t = self.now
        if t != self._stamp_t or not t:
            self._stamp_t = t
            self._stamp = "%.4f," % t
        return self._stamp

    def _line(self, node, kind, detail):
        return f"{self._stamp_now()}{node},{kind},{detail}"

    def run_until(self, t_end):
        """Process every event due at or before t_end; returns the count."""
        if t_end < self.now:
            raise SchedulingError(
                "cannot run backward to %.4f from %.4f" % (t_end, self.now))
        queue, due, pop, trace, line = (self._queue, self._due, heapq.heappop,
                                        self.trace, self._line)
        start = self.processed
        while queue and queue[0] <= t_end:
            # Popping from the back of the reversed list frees each entry
            # as it runs.  Entries freed only with their whole instant
            # would let the cyclic collector run several times as often.
            instant = due.pop(pop(queue))
            instant.reverse()
            while instant:
                fire_time, action, node, kind, detail = instant.pop()
                if action is None:
                    continue
                self.now = fire_time
                if trace is not None and kind:
                    trace.append(line(node, kind, detail))
                action()
                self.processed += 1
        self.now = t_end
        return self.processed - start
