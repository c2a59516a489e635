"""Radio reachability: fixed adjacency or geometric with random waypoint."""

import math

# Grid cells are this factor wider than range_m.  The distance test is
# rounded, so with cells exactly range_m wide a pair it accepts can sit
# two cells apart when both coordinates lie within an ulp or so of cell
# edges (near zero, say).  This slack keeps every such pair in adjacent
# cells for coordinates under about 10**6 cells from the origin.
_CELL_SLACK = 1.0 + 1e-9


class UnknownNodeError(KeyError):
    pass


class StaticTopology:
    """Fixed symmetric adjacency; nodes never move."""

    mobile = False

    def __init__(self, nodes, edges):
        self.nodes = sorted(nodes)
        self._adj = {n: set() for n in self.nodes}
        for u, v in edges:
            if u not in self._adj or v not in self._adj:
                raise UnknownNodeError("edge (%s, %s) names an unknown node" % (u, v))
            if u == v:
                raise ValueError("self edge on %s" % u)
            self._adj[u].add(v)
            self._adj[v].add(u)

    def neighbors(self, node, now=None):
        if node not in self._adj:
            raise UnknownNodeError(node)
        return sorted(self._adj[node])

    def has_link(self, u, v, now=None):
        if u not in self._adj or v not in self._adj:
            raise UnknownNodeError((u, v))
        return v in self._adj[u]

    def step(self, node, now, rng):
        # Nothing moves; nothing to reschedule.
        return None


class _Kinematics:
    __slots__ = ("start_pos", "waypoint", "speed", "leg_start",
                 "arrive_time", "pause_until")

    def __init__(self):
        self.start_pos = (0.0, 0.0)
        self.waypoint = (0.0, 0.0)
        self.speed = 0.0
        self.leg_start = 0.0
        self.arrive_time = 0.0
        self.pause_until = None  # set while paused


class GeometricTopology:
    """Nodes in a rectangular arena, linked when within range_m.

    Random waypoint movement: pick a uniform point and a uniform speed,
    travel there in a straight line, pause, repeat.  Positions are
    interpolated analytically, so callers only need to invoke step() at
    the transition times it returns.

    Neighbour queries read a snapshot: every node's position at one
    instant plus a grid of cells about range_m wide, built on the first
    neighbors() call at a new `now`.  A query scans the 3x3 block of
    cells around the node, applies the same math.dist(...) <= range_m
    test to the same floats as a scan over all nodes would, and returns
    ids sorted, because broadcast scheduling follows that order.
    has_link() reads the snapshot only when it is for the same `now`.
    step() drops the snapshot whenever it changes a node's movement,
    since a leg change moves the node at past times too (position runs
    the current leg backward for times before it started).
    """

    mobile = True

    def __init__(self, nodes, arena, range_m, min_speed, max_speed,
                 pause_s, rng, mobile=True):
        self.nodes = sorted(nodes)
        self.arena = arena
        self.range_m = range_m
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.pause_s = pause_s
        self.mobile = mobile
        self._cell_w = range_m * _CELL_SLACK
        self._snap = None  # (now, {node: position}, {cell: [node, ...]})
        self._kin = {}
        # Draw order is fixed by sorted node id so a seed pins the layout.
        for n in self.nodes:
            k = _Kinematics()
            k.start_pos = self._draw_point(rng)
            k.waypoint = k.start_pos
            k.pause_until = 0.0
            self._kin[n] = k
        if mobile:
            for n in self.nodes:
                self._start_leg(n, 0.0, rng)

    def _draw_point(self, rng):
        return (rng.uniform(0.0, self.arena[0]), rng.uniform(0.0, self.arena[1]))

    def _start_leg(self, node, now, rng):
        k = self._kin[node]
        k.start_pos = self.position(node, now)
        k.waypoint = self._draw_point(rng)
        k.speed = rng.uniform(self.min_speed, self.max_speed)
        k.leg_start = now
        dist = math.dist(k.start_pos, k.waypoint)
        k.arrive_time = now + dist / k.speed
        k.pause_until = None
        self._snap = None
        return k.arrive_time

    def position(self, node, now):
        if node not in self._kin:
            raise UnknownNodeError(node)
        k = self._kin[node]
        if k.pause_until is not None:
            return k.waypoint
        span = k.arrive_time - k.leg_start
        if span <= 0.0 or now >= k.arrive_time:
            return k.waypoint
        frac = (now - k.leg_start) / span
        return (k.start_pos[0] + frac * (k.waypoint[0] - k.start_pos[0]),
                k.start_pos[1] + frac * (k.waypoint[1] - k.start_pos[1]))

    def step(self, node, now, rng):
        """Advance the node's movement state; returns next transition time."""
        if not self.mobile:
            return None
        k = self._kin[node]
        if k.pause_until is None and now >= k.arrive_time:
            k.start_pos = k.waypoint
            k.pause_until = now + self.pause_s
            self._snap = None
            return k.pause_until
        if k.pause_until is not None and now >= k.pause_until:
            return self._start_leg(node, now, rng)
        return k.arrive_time if k.pause_until is None else k.pause_until

    def _snapshot(self, now):
        snap = self._snap
        if snap is None or snap[0] != now:
            pos = {n: self.position(n, now) for n in self.nodes}
            cells = {}
            w = self._cell_w
            for n, (x, y) in pos.items():
                cells.setdefault((math.floor(x / w), math.floor(y / w)),
                                 []).append(n)
            snap = self._snap = (now, pos, cells)
        return snap

    def neighbors(self, node, now=0.0):
        if node not in self._kin:
            raise UnknownNodeError(node)
        _, pos, cells = self._snapshot(now)
        here = pos[node]
        w, range_m = self._cell_w, self.range_m
        cx, cy = math.floor(here[0] / w), math.floor(here[1] / w)
        out = []
        for i in (cx - 1, cx, cx + 1):
            for j in (cy - 1, cy, cy + 1):
                for other in cells.get((i, j), ()):
                    if other != node and math.dist(here, pos[other]) <= range_m:
                        out.append(other)
        out.sort()
        return out

    def has_link(self, u, v, now=0.0):
        if u not in self._kin or v not in self._kin:
            raise UnknownNodeError((u, v))
        snap = self._snap
        if snap is not None and snap[0] == now:
            here, there = snap[1][u], snap[1][v]
        else:
            here, there = self.position(u, now), self.position(v, now)
        return math.dist(here, there) <= self.range_m


def bfs_hops(topology, origin, now=0.0):
    """Hop distance from origin to every reachable node."""
    dist = {origin: 0}
    frontier = [origin]
    while frontier:
        nxt = []
        for u in frontier:
            for v in topology.neighbors(u, now):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist
