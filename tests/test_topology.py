"""Adjacency models: static meshes and the moving-node arena."""

import math
import random

import pytest
from hypothesis import example, given, strategies as st

from debhsim.topology import (GeometricTopology, StaticTopology,
                              UnknownNodeError, bfs_hops)


def _geo(seed=1, mobile=True, **kw):
    params = dict(nodes=range(1, 11), arena=(500.0, 500.0), range_m=150.0,
                  min_speed=2.0, max_speed=20.0, pause_s=5.0)
    params.update(kw)
    return GeometricTopology(rng=random.Random(seed), mobile=mobile, **params)


def _brute_neighbors(topo, node, now):
    # The reference: every other node, by the same rounded distance test.
    here = topo.position(node, now)
    return sorted(other for other in topo.nodes if other != node
                  and math.dist(here, topo.position(other, now))
                  <= topo.range_m)


def _placed(points, range_m):
    """An immobile arena with node i+1 parked at points[i]."""
    topo = _geo(mobile=False, nodes=range(1, len(points) + 1),
                range_m=range_m)
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
    # Partners exactly range_m away along an axis.
    for x, y in draw(st.lists(st.sampled_from(points), max_size=10)):
        points.append(draw(st.sampled_from([
            (x + range_m, y), (x - range_m, y),
            (x, y + range_m), (x, y - range_m)])))
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


def test_static_nodes_never_move():
    topo = StaticTopology([1, 2], [(1, 2)])
    assert topo.step(1, 0.0, random.Random(0)) is None


def test_bfs_hops_on_a_line():
    topo = StaticTopology([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    assert bfs_hops(topo, 1) == {1: 0, 2: 1, 3: 2, 4: 3}


def test_bfs_hops_skips_unreachable_nodes():
    topo = StaticTopology([1, 2, 3], [(1, 2)])
    assert bfs_hops(topo, 1) == {1: 0, 2: 1}


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


def test_immobile_arena_keeps_positions_fixed():
    topo = _geo(seed=2, mobile=False)
    node = topo.nodes[0]
    assert topo.step(node, 0.0, random.Random(0)) is None
    assert topo.position(node, 0.0) == topo.position(node, 100.0)


def test_geometric_rejects_unknown_node():
    topo = _geo()
    with pytest.raises(UnknownNodeError):
        topo.position(99, 0.0)
    with pytest.raises(UnknownNodeError):
        topo.has_link(1, 99, 0.0)


@given(_layouts())
# Accepted at 150 + 1e-17 rounded to 150, yet two cells apart (-1 and 1)
# if cells were exactly range_m wide.
@example((150.0, [(0.0, 0.0), (0.0, -1e-17), (0.0, 150.0)]))
def test_grid_neighbors_equal_a_full_scan_on_edges_and_off_arena(layout):
    range_m, points = layout
    topo = _placed(points, range_m)
    for node in topo.nodes:
        assert topo.neighbors(node, 0.0) == _brute_neighbors(topo, node, 0.0)


@given(seed=st.integers(0, 2 ** 16),
       now=st.floats(-300.0, 300.0),
       range_m=st.sampled_from([60.0, 150.0, 400.0]))
def test_grid_neighbors_equal_a_full_scan_while_moving(seed, now, range_m):
    # Times before the first leg ends, negative ones included, run legs
    # backward and put nodes off the arena.
    topo = _geo(seed=seed, nodes=range(1, 41), range_m=range_m)
    for node in topo.nodes:
        truth = _brute_neighbors(topo, node, now)
        assert topo.neighbors(node, now) == truth
        assert [v for v in topo.nodes
                if v != node and topo.has_link(node, v, now)] == truth


def test_past_time_queries_follow_leg_changes():
    # Forger choice asks bfs_hops(..., now=0.0) mid-run; after legs change,
    # positions at t=0 change with them, so the snapshot must not survive.
    topo = _geo(seed=13)
    rng = random.Random(13)
    before = {n: topo.neighbors(n, 0.0) for n in topo.nodes}
    for node in topo.nodes:
        t = 0.0
        for _ in range(4):  # no-op, arrive, new leg, arrive
            t = topo.step(node, t, rng)
    truth = {n: _brute_neighbors(topo, n, 0.0) for n in topo.nodes}
    assert truth != before
    assert {n: topo.neighbors(n, 0.0) for n in topo.nodes} == truth


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


def test_has_link_without_a_snapshot_reads_two_positions(monkeypatch):
    topo = _geo(seed=3, nodes=range(1, 301), arena=(3162.0, 3162.0),
                range_m=250.0)
    calls = _count_positions(monkeypatch)
    topo.has_link(1, 2, 4.0)
    topo.has_link(1, 2, 5.0)
    assert calls == [1, 2, 1, 2]
