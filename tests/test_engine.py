"""Event kernel: ordering, cancellation, clock discipline."""

from functools import partial

import pytest
from hypothesis import example, given, strategies as st

from debhsim.engine import SchedulingError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, lambda: seen.append("c"))
    sim.schedule(1.0, lambda: seen.append("a"))
    sim.schedule(2.0, lambda: seen.append("b"))
    sim.run_until(10.0)
    assert seen == ["a", "b", "c"]
    assert sim.now == 10.0


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    seen = []
    for tag in range(8):
        sim.schedule(1.0, lambda t=tag: seen.append(t))
    sim.run_until(1.0)
    assert seen == list(range(8))


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    entry = sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.cancel(entry)
    processed = sim.run_until(5.0)
    assert fired == [2]
    assert processed == 1


def test_scheduling_in_the_past_is_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SchedulingError):
        sim.schedule(4.9, lambda: None)


def test_running_backward_is_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SchedulingError):
        sim.run_until(4.0)


def test_schedule_in_offsets_from_current_clock():
    sim = Simulator()
    stamps = []
    sim.schedule(2.0, lambda: sim.schedule_in(0.5, lambda: stamps.append(sim.now)))
    sim.run_until(10.0)
    assert stamps == [2.5]


def test_events_scheduled_while_running_still_fire():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(1.0, lambda: seen.append("chained"))

    sim.schedule(1.0, first)
    sim.run_until(1.0)
    assert seen == ["first", "chained"]


def test_events_beyond_the_horizon_wait():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append(1))
    sim.run_until(2.0)
    assert fired == []
    sim.run_until(3.0)
    assert fired == [1]


def test_trace_records_kind_tagged_events():
    sim = Simulator(trace=True)
    sim.schedule(1.0, lambda: None, node=7, kind="recv_data", detail="from=2")
    sim.schedule(1.5, lambda: None)  # untagged, not logged
    sim.run_until(2.0)
    assert sim.trace == ["1.0000,7,recv_data,from=2"]


def test_trace_disabled_by_default():
    sim = Simulator()
    assert sim.trace is None
    sim.log(1, "noop")  # must not blow up


@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
                max_size=40))
def test_arbitrary_schedules_fire_by_time_then_insertion(times):
    sim = Simulator()
    seen = []
    for i, t in enumerate(times):
        sim.schedule(t, lambda key=(t, i): seen.append(key))
    sim.run_until(100.0)
    assert seen == sorted(seen)


def test_each_receiver_of_a_fan_out_is_one_processed_event():
    sim = Simulator()
    seen = []
    sim.schedule_each(1.0, [4, 2, 9], seen.append)
    sim.schedule(2.0, lambda: seen.append("timer"))
    assert sim.run_until(5.0) == 4
    assert sim.processed == 4
    assert seen == [4, 2, 9, "timer"]


def test_traced_fan_out_logs_each_reception_just_before_its_call():
    sim = Simulator(trace=True)
    at_call = []
    sim.schedule_each(1.5, [3, 1], lambda r: at_call.append(list(sim.trace)),
                      kind="recv_rreq", detail="from=7")
    sim.run_until(2.0)
    assert at_call == [["1.5000,3,recv_rreq,from=7"],
                       ["1.5000,3,recv_rreq,from=7",
                        "1.5000,1,recv_rreq,from=7"]]
    assert sim.trace == at_call[-1]


def test_fan_out_to_no_receivers_pushes_nothing():
    sim = Simulator()
    sim.schedule_each(1.0, [], lambda r: None)
    assert sim._queue == []
    assert sim.run_until(2.0) == 0
    with pytest.raises(SchedulingError):
        sim.schedule_each(1.0, [1], lambda r: None)


_RECEIVERS = st.one_of(st.none(), st.lists(st.integers(0, 9), max_size=4))


def _calls(entries, follow_ups, fan_out):
    """Every call, in the order the engine makes it, of a schedule built
    from entries (time, receivers): receivers None is one plain event, a
    list is a fan-out.  A first-generation call schedules the follow-ups
    (delay, receivers) picked by its receiver, at delay 0 or later.  With
    fan_out False every list becomes one schedule() per receiver."""
    sim = Simulator()
    calls = []

    def add(t, receivers, tag):
        if receivers is None:
            sim.schedule(t, lambda: call(tag, None))
        elif fan_out:
            sim.schedule_each(t, receivers, lambda r: call(tag, r))
        else:
            for r in receivers:
                sim.schedule(t, lambda r=r: call(tag, r))

    def call(tag, r):
        calls.append((sim.now, tag, r))
        if len(tag) == 1 and follow_ups:
            picked = follow_ups[(r or 0) % len(follow_ups)]
            for i, (delay, receivers) in enumerate(picked):
                add(sim.now + delay, receivers, tag + (r, i))

    for i, (t, receivers) in enumerate(entries):
        add(t, receivers, (i,))
    processed = sim.run_until(10.0)
    assert processed == sim.processed == len(calls)
    return calls


@given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.0]), _RECEIVERS),
                max_size=12),
       st.lists(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0]),
                                   _RECEIVERS), max_size=3), max_size=3))
def test_fan_out_calls_run_where_one_event_per_receiver_would(entries,
                                                              follow_ups):
    assert (_calls(entries, follow_ups, fan_out=True)
            == _calls(entries, follow_ups, fan_out=False))


# Distinct times that print alike, and both zeros, which compare equal but
# print differently.
_TRACE_TIMES = st.sampled_from([0.0, -0.0, 0.5, 1.00001, 1.00002, 2.0])
_LOGS = st.lists(st.tuples(st.integers(0, 9), st.sampled_from(["send_rreq",
                                                               "note"]),
                           st.sampled_from(["", "to=3"])), max_size=3)
# Who cancels an entry: the test "before" or "after" the run, or each call
# of entry k (k modulo the entry count).
_CANCELS = st.lists(st.one_of(st.sampled_from(["before", "after"]),
                              st.integers(0, 11)), max_size=2)


@given(st.lists(st.tuples(_TRACE_TIMES, st.integers(0, 9),
                          st.sampled_from(["", "recv_data"]),
                          st.sampled_from(["", "from=2"]), _RECEIVERS, _LOGS,
                          _CANCELS),
                max_size=12))
@example([
    # Entry 0 is cancelled twice before the run; 1 by its own call, once
    # it has run; 2 by 1's call at 2's own instant, and again after the
    # run; 3 by 5's call, after 3 has run.
    (1.0, 1, "recv_data", "", None, [], ["before", "before"]),
    (1.0, 2, "recv_data", "", None, [], [1]),
    (1.0, 3, "recv_data", "", None, [], [1, "after"]),
    (0.5, 4, "recv_data", "", None, [], [5]),
    (2.0, 5, "recv_data", "", [6, 7], [], []),
    (1.5, 6, "", "", None, [(4, "note", "")], []),
])
def test_every_trace_line_prints_its_own_time(entries):
    """Entries (time, node, kind, detail, receivers, logs, cancels):
    receivers None is one event, a list is a fan-out; each call makes the
    handler's log calls at the entry's drawn time.  A plain event is
    cancelled once per item of its cancels, which may come before it
    runs, at its own instant, after it ran, or twice.  Exactly the
    uncancelled entries run, in (time, insertion) order, and only their
    calls are counted and traced."""
    sim = Simulator(trace=True)
    queued = [None] * len(entries)    # each plain event's queue entry
    cancels_by = [[] for _ in entries]
    for i, entry in enumerate(entries):
        for who in entry[6]:
            if isinstance(who, int):
                cancels_by[who % len(entries)].append(i)
    ran = []

    def handler(k, logs, node):
        ran.append((sim.now, k, node))
        for line in logs:
            sim.log(*line)
        for i in cancels_by[k]:
            if queued[i] is not None:
                sim.cancel(queued[i])

    sim.log(1, "start")
    for k, (t, node, kind, detail, receivers, logs, cancels) in enumerate(
            entries):
        call = partial(handler, k, logs)
        if receivers is None:
            queued[k] = sim.schedule(t, partial(call, node), node, kind,
                                     detail)
            for _ in range(cancels.count("before")):
                sim.cancel(queued[k])
        else:
            sim.schedule_each(t, receivers, call, kind, detail)
    processed = sim.run_until(3.0)
    for k, entry in enumerate(entries):
        if "after" in entry[6] and queued[k] is not None:
            sim.cancel(queued[k])
    assert sim.run_until(3.0) == 0
    sim.log(4, "end")

    # The same schedule, walked in (time, insertion) order.
    cancelled = {k for k, entry in enumerate(entries)
                 if "before" in entry[6] and entry[4] is None}
    expected_ran, expected = [], [(0.0, 1, "start", "")]
    for k in sorted(range(len(entries)), key=lambda k: (entries[k][0], k)):
        t, node, kind, detail, receivers, logs, _ = entries[k]
        if k in cancelled:
            continue
        for r in [node] if receivers is None else receivers:
            expected_ran.append((t, k, r))
            if kind:
                expected.append((t, r, kind, detail))
            expected.extend((t,) + line for line in logs)
            cancelled.update(i for i in cancels_by[k] if entries[i][4] is None)
    expected.append((3.0, 4, "end", ""))
    assert ran == expected_ran
    assert processed == sim.processed == len(expected_ran)
    assert sim.trace == ["%.4f,%s,%s,%s" % line for line in expected]


# First fire times: shared instants, and both zeros, which the queue files
# under one instant but which print differently.
_FIRST_TIMES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])
# What a call does: ("at", delay) schedules an entry that far after now:
# 0 joins the running instant, 0.5 and 1.0 mostly land on instants other
# entries share, a drawn delay mostly on one of its own.  ("cancel", k)
# cancels the k-th entry scheduled so far, modulo their count, whether it
# has run, is due at the running instant or later, or is cancelled.
_OPS = st.lists(st.one_of(
    st.tuples(st.just("at"), st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                       st.floats(0.01, 1.5))),
    st.tuples(st.just("cancel"), st.integers(0, 20))), max_size=3)
_HORIZONS = (0.0, 1.0, 10.0)


def _reference_run(first, programs):
    """The schedule walked by a scan for the least (fire time, insertion
    index) due: ((repr(now), index) per call, trace lines, calls per
    horizon).  Entry k runs programs[k % len(programs)] unless two
    generations of calls led to it; an even k is tagged."""
    entries, pending = [], []   # [time, index, generation, cancelled]
    ran, trace, counts = [], [], []

    def add(t, generation):
        entry = [t, len(entries), generation, False]
        entries.append(entry)
        pending.append(entry)

    for t in first:
        add(t, 0)
    for horizon in _HORIZONS:
        count = 0
        while any(e[0] <= horizon for e in pending):
            entry = min((e for e in pending if e[0] <= horizon),
                        key=lambda e: (e[0], e[1]))
            pending.remove(entry)
            t, k, generation, cancelled = entry
            if cancelled:
                continue
            count += 1
            ran.append((repr(t), k))
            if k % 2 == 0:
                trace.append("%.4f,%d,recv,at=%r" % (t, k, t))
            trace.append("%.4f,%d,note," % (t, k))
            if generation < 2:
                for op, arg in programs[k % len(programs)]:
                    if op == "at":
                        add(t + arg, generation + 1)
                    else:
                        entries[arg % len(entries)][3] = True
        counts.append(count)
    return ran, trace, counts


@given(st.lists(_FIRST_TIMES, max_size=8),
       st.lists(_OPS, min_size=1, max_size=4))
@example([0.0, -0.0], [[]])
@example([0.5, 1.0], [[("at", 0.0)]])
@example([1.0, 0.5, 0.5], [[("at", 0.5), ("cancel", 1)], [("at", 0.0)]])
def test_calls_run_by_fire_time_then_insertion_as_a_scan_would(first,
                                                               programs):
    """Entries that calls schedule at the running instant run in it, after
    the entries already there and before the next instant; each call
    sees its own entry's fire time as the clock."""
    sim = Simulator(trace=True)
    handles, generations, ran = [], [], []

    def add(t, generation):
        k = len(handles)
        handles.append(sim.schedule(t, partial(call, k), k,
                                    "" if k % 2 else "recv", "at=%r" % t))
        generations.append(generation)

    def call(k):
        ran.append((repr(sim.now), k))
        sim.log(k, "note")
        if generations[k] < 2:
            for op, arg in programs[k % len(programs)]:
                if op == "at":
                    add(sim.now + arg, generations[k] + 1)
                else:
                    sim.cancel(handles[arg % len(handles)])

    for t in first:
        add(t, 0)
    counts = [sim.run_until(horizon) for horizon in _HORIZONS]
    expected_ran, expected_trace, expected_counts = _reference_run(first,
                                                                   programs)
    assert ran == expected_ran
    assert counts == expected_counts
    assert sim.processed == len(expected_ran)
    assert sim.trace == expected_trace
