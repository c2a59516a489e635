"""Adjacency models: static meshes and the moving-node arena."""

import heapq
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from debhsim.topology import (GeometricTopology, StaticTopology,
                              UnknownNodeError, bfs_hops)


def _geo(seed=1, **kw):
    params = dict(nodes=range(1, 11), arena=(500.0, 500.0), range_m=150.0,
                  min_speed=2.0, max_speed=20.0, pause_s=5.0)
    params.update(kw)
    return GeometricTopology(rng=random.Random(seed), **params)


def _brute_neighbors(topo, node, now):
    # The reference: every other node, by the same rounded distance test.
    here = topo.position(node, now)
    return sorted(other for other in topo.nodes if other != node
                  and math.dist(here, topo.position(other, now))
                  <= topo.range_m)


def _assert_full_scan(topo, now):
    """has_link() and then neighbors() agree with the reference at `now`."""
    truth = {n: _brute_neighbors(topo, n, now) for n in topo.nodes}
    for node in topo.nodes:
        assert [v for v in topo.nodes
                if v != node and topo.has_link(node, v, now)] == truth[node]
    for node in topo.nodes:
        assert topo.neighbors(node, now) == truth[node]


def _placed(points, range_m):
    """An arena with node i+1 parked at points[i]: its leg starts and
    ends there."""
    topo = _geo(nodes=range(1, len(points) + 1), range_m=range_m)
    for node, point in zip(topo.nodes, points):
        k = topo._kin[node]
        k.start_pos = k.waypoint = point
    return topo


@st.composite
def _layouts(draw):
    range_m = draw(st.sampled_from([150.0, 100.0, 7.3, 1.0 / 3]))
    coord = st.one_of(
        st.floats(-4 * range_m, 8 * range_m),
        # Cell edges, and values either side of zero within an ulp of r.
        st.integers(-4, 8).map(lambda k: k * range_m),
        st.sampled_from([0.0, -0.0, -1e-17, 1e-17, -5e-324, 5e-324]),
    )
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    # Partners exactly range_m or the candidate reach away along an axis.
    for x, y in draw(st.lists(st.sampled_from(points), max_size=10)):
        d = draw(st.sampled_from([range_m, 1.25 * range_m]))
        points.append(draw(st.sampled_from([
            (x + d, y), (x - d, y), (x, y + d), (x, y - d)])))
    return range_m, points


def test_static_links_are_symmetric():
    topo = StaticTopology([1, 2, 3], [(1, 2)])
    assert topo.has_link(1, 2)
    assert topo.has_link(2, 1)
    assert not topo.has_link(1, 3)


def test_static_neighbors_are_sorted():
    topo = StaticTopology([1, 2, 3, 4], [(2, 4), (2, 1), (2, 3)])
    assert topo.neighbors(2) == [1, 3, 4]


def test_static_rejects_unknown_edge_endpoint():
    with pytest.raises(UnknownNodeError):
        StaticTopology([1, 2], [(1, 9)])


def test_static_rejects_self_edge():
    with pytest.raises(ValueError):
        StaticTopology([1, 2], [(1, 1)])


def test_static_rejects_unknown_node_queries():
    topo = StaticTopology([1, 2], [(1, 2)])
    with pytest.raises(UnknownNodeError):
        topo.neighbors(9)
    with pytest.raises(UnknownNodeError):
        topo.has_link(1, 9)


def test_bfs_hops_on_a_line():
    topo = StaticTopology([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    assert bfs_hops(topo, 1, 0.0) == {1: 0, 2: 1, 3: 2, 4: 3}


def test_bfs_hops_skips_unreachable_nodes():
    topo = StaticTopology([1, 2, 3], [(1, 2)])
    assert bfs_hops(topo, 1, 0.0) == {1: 0, 2: 1}


def test_positions_stay_inside_the_arena():
    topo = _geo()
    rng = random.Random(5)
    # Drive each node through several legs and sample along the way.
    for node in topo.nodes:
        t = 0.0
        for _ in range(20):
            for probe in (t, t + 0.5):
                x, y = topo.position(node, probe)
                assert 0.0 <= x <= 500.0
                assert 0.0 <= y <= 500.0
            nxt = topo.step(node, t, rng)
            assert nxt is not None
            t = max(nxt, t + 1e-9)


def test_leg_speed_stays_in_the_configured_band():
    topo = _geo()
    for node in topo.nodes:
        assert 2.0 <= topo._kin[node].speed <= 20.0


def test_travel_then_pause_then_new_leg():
    topo = _geo(seed=3)
    rng = random.Random(3)
    node = topo.nodes[0]
    k = topo._kin[node]
    arrive = k.arrive_time
    waypoint = k.waypoint
    # Arrival starts the pause and freezes the position.
    pause_end = topo.step(node, arrive, rng)
    assert pause_end == pytest.approx(arrive + 5.0)
    assert topo.position(node, arrive + 2.0) == waypoint
    # Pause end starts a fresh leg from the same spot.
    next_arrive = topo.step(node, pause_end, rng)
    assert next_arrive > pause_end
    assert topo._kin[node].start_pos == waypoint


def test_position_interpolates_linearly_along_a_leg():
    topo = _geo(seed=7)
    node = topo.nodes[0]
    k = topo._kin[node]
    mid = (k.leg_start + k.arrive_time) / 2.0
    x, y = topo.position(node, mid)
    assert x == pytest.approx((k.start_pos[0] + k.waypoint[0]) / 2.0)
    assert y == pytest.approx((k.start_pos[1] + k.waypoint[1]) / 2.0)


def test_geometric_links_are_symmetric_and_range_bound():
    topo = _geo(seed=9)
    for t in (0.0, 12.5, 40.0):
        for u in topo.nodes:
            for v in topo.nodes:
                if u == v:
                    continue
                assert topo.has_link(u, v, t) == topo.has_link(v, u, t)
                dist = math.dist(topo.position(u, t), topo.position(v, t))
                assert topo.has_link(u, v, t) == (dist <= 150.0)


def test_geometric_neighbors_match_has_link():
    topo = _geo(seed=11)
    for u in topo.nodes:
        listed = topo.neighbors(u, 3.0)
        assert listed == [v for v in topo.nodes
                          if v != u and topo.has_link(u, v, 3.0)]


def test_same_seed_pins_the_layout():
    a, b = _geo(seed=4), _geo(seed=4)
    c = _geo(seed=5)
    positions = lambda topo: [topo.position(n, 0.0) for n in topo.nodes]
    assert positions(a) == positions(b)
    assert positions(a) != positions(c)


def test_geometric_rejects_unknown_node():
    topo = _geo()
    with pytest.raises(UnknownNodeError):
        topo.position(99, 0.0)
    with pytest.raises(UnknownNodeError):
        topo.has_link(1, 99, 0.0)
    # An unknown id raises through position(), whether or not the window
    # still serves the query's time.
    topo.neighbors(1, 0.0)
    for now in (0.0, 1000.0):
        with pytest.raises(UnknownNodeError):
            topo.neighbors(99, now)
        with pytest.raises(UnknownNodeError):
            topo.has_link(99, 1, now)


@given(_layouts())
# Accepted at 150 + 1e-17 rounded to 150.
@example((150.0, [(0.0, 0.0), (0.0, -1e-17), (0.0, 150.0)]))
# A candidate at the reach 187.5 + 1e-17 rounded to 187.5, yet two cells
# apart (-1 and 1) if cells were exactly the reach wide.
@example((150.0, [(0.0, 0.0), (0.0, -1e-17), (0.0, 187.5)]))
def test_grid_neighbors_equal_a_full_scan_on_edges_and_off_arena(layout):
    range_m, points = layout
    topo = _placed(points, range_m)
    for node in topo.nodes:
        assert topo.neighbors(node, 0.0) == _brute_neighbors(topo, node, 0.0)
    # The sweep's candidates for each node are, by id, every node within
    # the reach, which a later query in the window may find in range.
    for node in topo.nodes:
        here = topo.position(node, 0.0)
        assert [other for other, *_ in topo._cand[node]] == [
            other for other in topo.nodes if other != node
            and math.dist(here, topo.position(other, 0.0)) <= topo._reach]


@given(seed=st.integers(0, 2 ** 16),
       now=st.floats(-300.0, 300.0),
       range_m=st.sampled_from([60.0, 150.0, 400.0]))
def test_grid_neighbors_equal_a_full_scan_while_moving(seed, now, range_m):
    # Times before the first leg ends, negative ones included, run legs
    # backward and put nodes off the arena.
    topo = _geo(seed=seed, nodes=range(1, 41), range_m=range_m)
    _assert_full_scan(topo, now)


@given(seed=st.integers(0, 2 ** 16),
       range_m=st.sampled_from([40.0, 90.0]),
       pause_s=st.sampled_from([0.0, 1.0, 30.0]),
       moves=st.lists(st.one_of(
           st.floats(0.0, 0.3), st.floats(0.0, 4.0),
           st.sampled_from(["next", "edge", "past"])), max_size=25))
# A node whose pause ends inside a window sets off faster than its last
# leg, and a link it makes flips there.
@example(seed=61574, range_m=90.0, pause_s=1.0,
         moves=[1.55, "edge", 10.86, "past", "edge"])
def test_neighbors_equal_a_full_scan_along_a_timeline(seed, range_m, pause_s,
                                                      moves):
    # Time runs forward as in a simulation: step() at each node's
    # transition times (arrive, pause, new leg), queries in between.
    # "next" queries at a transition's own instant, "edge" at the end of
    # the current window and "past" just after it.  The pauses give
    # every top speed a window can record: a node that stays paused past
    # the window's end, one whose leg or pause ends inside it, and one
    # still on its leg at the end.
    topo = _geo(seed=seed, nodes=range(1, 21),
                arena=(300.0, 300.0), range_m=range_m, min_speed=10.0,
                pause_s=pause_s)
    rng = random.Random(seed)
    due = [(0.0, n) for n in topo.nodes]
    now = 0.0
    for move in moves:
        edge = topo._t0 + topo._window_s
        if move == "next":
            now = max(now, due[0][0]) if due else now
        elif move in ("edge", "past"):
            now = max(now, edge if move == "edge"
                      else math.nextafter(edge, math.inf))
        elif isinstance(move, float):
            now += move
        # Transitions before `now`, then a query, then those at `now`.
        for last in (False, True):
            stepped = False
            while due and (due[0][0] <= now if last else due[0][0] < now):
                t, node = heapq.heappop(due)
                nxt = topo.step(node, t, rng)
                stepped = True
                if nxt > t:
                    heapq.heappush(due, (nxt, node))
            if stepped or not last:
                _assert_full_scan(topo, now)


def test_past_time_queries_follow_leg_changes():
    # Legs change as the clock runs; queries at the clock follow them.
    # Once a window has opened at a later time, t=0 is the past: a query
    # there raises rather than running the current legs backward.
    topo = _geo(seed=13)
    rng = random.Random(13)
    before = {n: topo.neighbors(n, 0.0) for n in topo.nodes}
    due = [(0.0, n) for n in topo.nodes]
    now = 0.0
    while now <= topo._window_s:  # no-op, arrive, new leg, arrive, ...
        now, node = heapq.heappop(due)
        heapq.heappush(due, (topo.step(node, now, rng), node))
    _assert_full_scan(topo, now)
    assert {n: _brute_neighbors(topo, n, now) for n in topo.nodes} != before
    assert topo._t0 == now
    for past in (lambda: topo.neighbors(topo.nodes[0], 0.0),
                 lambda: topo.has_link(topo.nodes[0], topo.nodes[1], 0.0)):
        with pytest.raises(ValueError, match="before the movement window"):
            past()


def test_a_leg_that_began_before_the_window_rebuilds_it():
    # A leg that began before the window is part of the positions the
    # window opens with.  A step() earlier than the window's start, out
    # of time order, raises and leaves the window as it stands.
    topo = _geo(seed=13)
    rng = random.Random(13)
    node = topo.nodes[0]
    pause_end = topo.step(node, topo._kin[node].arrive_time, rng)
    assert topo.step(node, pause_end, rng) > pause_end  # the new leg
    late = pause_end + 60.0
    _assert_full_scan(topo, late)
    assert topo._t0 == late
    with pytest.raises(ValueError, match="before the movement window"):
        topo.step(node, pause_end, rng)
    assert topo._t0 == late
    # The window's own start is still served, and steps go on from it.
    _assert_full_scan(topo, late)
    topo.step(node, late, rng)
    _assert_full_scan(topo, late)


def _count_positions(monkeypatch):
    calls = []
    position = GeometricTopology.position

    def counted(topo, node, now):
        calls.append(node)
        return position(topo, node, now)
    monkeypatch.setattr(GeometricTopology, "position", counted)
    return calls


def test_queries_at_one_instant_read_each_position_once(monkeypatch):
    topo = _geo(seed=3, nodes=range(1, 301), arena=(3162.0, 3162.0),
                range_m=250.0)
    calls = _count_positions(monkeypatch)
    for _ in range(3):
        for node in topo.nodes:
            topo.neighbors(node, 7.5)
            topo.has_link(node, topo.nodes[0], 7.5)
    assert len(calls) <= len(topo.nodes)


def _replay_to_first_leg_after_a_pause(topo, rng, before_step=None):
    """Step every node in time order up to and including the first step
    that ends a pause and starts a leg; returns its time.  before_step(t)
    runs just before that step."""
    due = [(0.0, n) for n in topo.nodes]
    while True:
        t, node = heapq.heappop(due)
        k = topo._kin[node]
        ends_pause = k.pause_until is not None and t >= k.pause_until
        if ends_pause and before_step is not None:
            before_step(t)
        heapq.heappush(due, (topo.step(node, t, rng), node))
        if ends_pause:
            assert k.pause_until is None and k.leg_start == t
            return t


def test_a_repeat_query_after_a_step_answers_as_a_fresh_topology(
        monkeypatch):
    # A step() that starts a leg leaves the node where it paused, so
    # neighbors(n, t) asked again after a step at t returns the list
    # built before it, and reads no position for it.
    topo = _geo(seed=5, pause_s=0.5)
    first = {}
    t = _replay_to_first_leg_after_a_pause(
        topo, random.Random(5),
        lambda t: first.update((n, topo.neighbors(n, t)) for n in topo.nodes))
    calls = _count_positions(monkeypatch)
    again = {n: topo.neighbors(n, t) for n in topo.nodes}
    assert calls == []
    monkeypatch.undo()
    assert all(again[n] is first[n] for n in topo.nodes)
    fresh = _geo(seed=5, pause_s=0.5)
    assert _replay_to_first_leg_after_a_pause(fresh, random.Random(5)) == t
    assert again == {n: fresh.neighbors(n, t) for n in fresh.nodes}
    assert any(again.values())


def test_queries_across_instants_read_only_candidate_positions(monkeypatch):
    # Within one window, an instant after its first reads each position
    # once, and only for queried nodes and those within range_m + skin
    # of one at the window's start.
    topo = _geo(seed=3, nodes=range(1, 301), arena=(3162.0, 3162.0),
                range_m=250.0)
    start, reach = 7.5, 250.0 * 1.25
    at_start = {n: topo.position(n, start) for n in topo.nodes}
    rng = random.Random(3)
    calls = _count_positions(monkeypatch)
    for i in range(40):
        now = start + 0.01 * i
        del calls[:]
        queried = rng.sample(topo.nodes, 20)
        for node in queried:
            topo.neighbors(node, now)
            topo.has_link(node, queried[0], now)
        if i:
            allowed = {n for q in queried for n in topo.nodes
                       if math.dist(at_start[q], at_start[n]) <= reach}
            assert len(calls) == len(set(calls))
            assert set(calls) <= allowed


def test_has_link_without_a_snapshot_reads_two_positions(monkeypatch):
    topo = _geo(seed=3, nodes=range(1, 301), arena=(3162.0, 3162.0),
                range_m=250.0)
    calls = _count_positions(monkeypatch)
    topo.has_link(1, 2, 4.0)
    topo.has_link(1, 2, 5.0)
    assert calls == [1, 2, 1, 2]


def test_a_held_list_ends_when_a_closing_pair_can_reach_range():
    # Node 1 stands paused for the whole window and node 2 drives at it
    # at 10 m/s from 155 m, so the pair's drift bound is 10 m/s, not
    # 2 * max_speed, and it comes within range_m = 150 at t = 0.5.  The
    # list built at t = 0 is held until the link can change, and no
    # longer.
    topo = _geo(nodes=range(1, 3))
    parked, driving = topo._kin[1], topo._kin[2]
    parked.start_pos = parked.waypoint = (1000.0, 200.0)
    parked.pause_until = 100.0
    driving.start_pos, driving.waypoint = (1155.0, 200.0), (0.0, 200.0)
    driving.speed, driving.leg_start = 10.0, 0.0
    driving.arrive_time, driving.pause_until = 115.5, None
    held = topo.neighbors(1, 0.0)
    assert held == [] and topo.neighbors(1, 0.25) is held
    assert topo.neighbors(1, 0.45) is held
    late = 0.6
    assert late < topo._window_s
    assert topo.neighbors(1, late) == [2] == _brute_neighbors(topo, 1, late)
    assert topo._t0 == 0.0


@pytest.mark.parametrize("paused", [False, True])
def test_a_node_that_sets_off_inside_a_window_is_bounded_by_max_speed(
        paused):
    # Node 2 stands paused past the window's end, 155 m from where node 1
    # stops at t = 0.2: node 1 is paused there until then, or crawls
    # into it at 2 m/s with no pause to follow.  Then it drives at node 2
    # at max_speed, so the pair comes within range_m = 150 at t = 0.45.
    # Node 1's top speed over the window is max_speed, not its last
    # leg's speed.
    topo = _geo(nodes=range(1, 3), pause_s=0.0)
    rng = random.Random(1)
    parked, mover = topo._kin[2], topo._kin[1]
    parked.start_pos = parked.waypoint = (1000.0, 200.0)
    parked.pause_until = 100.0
    mover.waypoint, mover.speed = (1155.0, 200.0), 2.0
    if paused:
        mover.start_pos, mover.pause_until = mover.waypoint, 0.2
    else:
        mover.start_pos, mover.leg_start = (1155.4, 200.0), 0.0
        mover.arrive_time, mover.pause_until = 0.2, None
    assert topo.neighbors(1, 0.0) == topo.neighbors(2, 0.0) == []
    for _ in range(1 if paused else 2):  # arrive, then end the pause
        topo.step(1, 0.2, rng)
    assert mover.pause_until is None and mover.leg_start == 0.2
    mover.waypoint, mover.speed = (0.0, 200.0), topo.max_speed
    mover.arrive_time = 0.2 + 1155.0 / topo.max_speed
    late = 0.6
    assert late < topo._window_s
    assert topo.has_link(1, 2, late)
    assert topo.neighbors(1, late) == [2] == _brute_neighbors(topo, 1, late)
    assert topo.neighbors(2, late) == [1]
    assert topo._t0 == 0.0


def _moving_pair(d0, apart):
    """Nodes 1 and 2 on one line d0 apart at t=0, each moving at
    max_speed, head-on or straight apart, for the whole window."""
    topo = _geo(nodes=range(1, 3))
    sign = 1.0 if apart else -1.0
    for node, x, step in ((1, 1000.0, -sign), (2, 1000.0 + d0, sign)):
        k = topo._kin[node]
        k.start_pos = (x, 200.0)
        k.waypoint = (x + step * 1000.0, 200.0)
        k.speed = topo.max_speed
        k.leg_start, k.arrive_time = 0.0, 1000.0 / topo.max_speed
        k.pause_until = None
    return topo


@pytest.mark.parametrize("apart", [False, True])
def test_links_that_cross_range_inside_a_window_match_a_full_scan(apart):
    # The pair's distance changes at exactly 2 * max_speed, the band's
    # own rate, and crosses range_m late in the window, where a band
    # narrower than 2 * max_speed * (now - t0) would settle it wrongly.
    # _geo's range_m is 150 and its max_speed 20.
    range_m, crossing = 150.0, 0.925
    skew = 2 * 20.0 * crossing
    topo = _moving_pair(range_m - skew if apart else range_m + skew, apart)
    window = topo._window_s
    assert crossing < window
    times = (0.0, crossing - 1e-3, crossing + 1e-3, window)
    for now in times:
        truth = {n: _brute_neighbors(topo, n, now) for n in topo.nodes}
        assert topo.has_link(1, 2, now) == (truth[1] == [2])
        assert topo.neighbors(1, now) == truth[1]
        assert topo.neighbors(2, now) == truth[2]
        assert topo.has_link(2, 1, now) == (truth[2] == [1])
    # One window served every query, and the link did flip in it.
    assert topo._t0 == 0.0
    linked = [_brute_neighbors(topo, 1, now) == [2] for now in times]
    assert linked == ([True, True, False, False] if apart
                      else [False, False, True, True])


def test_a_band_without_candidates_reads_no_position(monkeypatch):
    # Inside a window, a candidate whose distance at the window's start
    # lies farther than 2 * max_speed * (now - t0) from range_m is
    # settled by that distance alone.
    topo = _geo(seed=3, nodes=range(1, 301), arena=(3162.0, 3162.0),
                range_m=250.0)
    start, now = 7.5, 7.51
    band = 2 * topo.max_speed * (now - start)
    at_start = {n: topo.position(n, start) for n in topo.nodes}
    clear = [n for n in topo.nodes
             if all(abs(math.dist(at_start[n], at_start[o]) - 250.0)
                    > 2 * band for o in topo.nodes if o != n)]
    topo.neighbors(clear[0], start)
    calls = _count_positions(monkeypatch)
    found = {n: topo.neighbors(n, now) for n in clear}
    linked = {n: [o for o in topo.nodes if o != n and topo.has_link(n, o, now)]
              for n in clear[:10]}
    assert calls == []
    monkeypatch.undo()
    assert any(found.values())
    assert found == {n: _brute_neighbors(topo, n, now) for n in clear}
    assert linked == {n: found[n] for n in clear[:10]}
