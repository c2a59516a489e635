"""Radio reachability: fixed adjacency or geometric with random waypoint."""

import math

# Grid cells are this factor wider than the candidate reach.  The
# distance test is rounded, so with cells exactly that wide a pair it
# accepts can sit two cells apart when both coordinates lie within an ulp
# or so of cell edges (near zero, say).  This slack keeps every such pair
# in adjacent cells for coordinates under about 10**6 cells from the
# origin.  Movement windows are shorter by the same factor, which leaves
# the skin a margin for rounded positions.
_CELL_SLACK = 1.0 + 1e-9

# The cells a grid cell meets besides itself, so that each pair of
# adjacent cells meets once.
_FORWARD = ((1, -1), (1, 0), (1, 1), (0, 1))


class UnknownNodeError(KeyError):
    pass


class StaticTopology:
    """Fixed symmetric adjacency; nodes never move.  neighbors() returns
    a list stored at construction, which callers must not mutate."""

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
        self._sorted = {n: sorted(adj) for n, adj in self._adj.items()}

    def neighbors(self, node, now=None):
        if node not in self._sorted:
            raise UnknownNodeError(node)
        return self._sorted[node]

    def has_link(self, u, v, now=None):
        if u not in self._adj or v not in self._adj:
            raise UnknownNodeError((u, v))
        return v in self._adj[u]


class _Kinematics:
    """One node's leg: from start_pos to waypoint at speed, leaving at
    leg_start and arriving at arrive_time, then paused until pause_until
    (None while travelling).  _start_leg sets every field."""

    __slots__ = ("start_pos", "waypoint", "speed", "leg_start",
                 "arrive_time", "pause_until")


class _Positions(dict):
    """Node positions at one instant, read on first access."""

    __slots__ = ("topology", "now")

    def __init__(self, topology, now):
        super().__init__()
        self.topology, self.now = topology, now

    def __missing__(self, node):
        pos = self[node] = self.topology.position(node, self.now)
        return pos


class GeometricTopology:
    """Nodes in a rectangular arena, linked when within range_m.

    Random waypoint movement: pick a uniform point and a uniform speed,
    travel there in a straight line, pause, repeat.  Positions are
    interpolated analytically, so callers only need to invoke step() at
    the transition times it returns.

    Neighbour queries read a movement window, a Verlet neighbour list
    with a skin.  Opening a window at t0 reads every node's position
    there, puts the nodes in a grid of cells about range_m + skin wide,
    and sweeps the grid once: each cell meets itself and its four
    forward cells (+1,-1), (+1,0), (+1,+1) and (0,+1), so each pair of
    nodes in adjacent cells is met once.  A pair within range_m + skin
    of each other at t0 goes on both nodes' candidate lists, which are
    sorted by id.  neighbors() returns the same ids, sorted, as a scan
    over all nodes by the test math.dist(...) <= range_m at the queried
    instant would, because broadcast scheduling follows that order.

    The skin is range_m / 4 and a window lasts W = skin / (2 * max_speed)
    = range_m / (8 * max_speed) seconds.  Under one movement state a node
    moves at most max_speed * |t - t0| between t0 and t, and across a
    step() its position is continuous from the change on, so the
    distance of two nodes at any now in [t0, t0 + W] differs from their
    distance d0 at t0 by at most 2 * max_speed * (now - t0) <= skin;
    nodes within range_m at now were within range_m + skin at t0.  A
    window therefore serves every query whose now lies in [t0, t0 + W].
    A later now opens a new window there.

    Callers query and step in time order, as the simulation clock runs:
    a step() leaves every position at its own instant where it was, and
    no query asks about an instant before it.  position() runs the
    current leg backward for times before it started, so the past is not
    served: a query or a step() earlier than the window's start raises
    ValueError.

    Each pair's drift bound is tighter than 2 * max_speed.  The window
    records each node's top speed over [t0, t0 + W]: 0 if it is paused
    past the window's end, its leg speed if it is travelling and
    arrive_time + pause_s falls after the end, and max_speed otherwise.
    A pair's distance at now then lies within the band s * (now - t0) of
    its d0, where s, the pair's drift bound, is the sum of the two top
    speeds.  The band decides most links without positions at now: a
    pair with d0 <= range_m - band is in range, and one with d0 >
    range_m + band is out.  So the sweep stores with each candidate the
    last instant its d0 decides it, t0 + (|d0 - range_m| - margin) / s,
    or the window's whole span if s is 0.  Only a pair past that instant
    gets the exact test on positions at now, which are memoised per
    instant.  has_link() uses the same band when the window serves its
    now, and otherwise reads at most two memoised positions; it never
    opens a window.  The margin, range_m * (_CELL_SLACK - 1), is far
    above the rounding of positions, distances and the band itself for
    coordinates and travel well under 10**6 range_m, so a decided pair
    gets the answer the exact test would give.

    neighbors() holds each list it builds with a span [since, until] and
    returns it, reading no position, to a query with since <= now <=
    until; a repeat query at one instant is the case now == since.
    until is the soonest instant one of the node's links can change: the
    window's end, a decided candidate's last decided instant, or now +
    (|d - range_m| - margin) / s for a candidate the exact test found at
    distance d.  Opening a window drops every held list.  Callers must
    not mutate a returned list.
    """

    def __init__(self, nodes, arena, range_m, min_speed, max_speed,
                 pause_s, rng):
        self.nodes = sorted(nodes)
        self.arena = arena
        self.range_m = range_m
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.pause_s = pause_s
        skin = range_m / 4
        self._window_s = skin / (2 * max_speed * _CELL_SLACK)
        self._reach = range_m + skin
        # The rounding margin of the band (see the class docstring).
        self._margin = range_m * (_CELL_SLACK - 1)
        self._cell_w = self._reach * _CELL_SLACK
        # The window: its start t0 and end (-inf before the first), and
        # at t0 the positions, each node's top speed and its candidates,
        # (id, linked while decided, last decided instant) triples.
        self._t0 = self._end = -math.inf
        self._pos0 = self._top = self._cand = None
        # node -> (since, until, list) for each list neighbors() holds.
        self._held = {}
        # Positions at the latest queried instant.
        self._memo = None
        self._kin = {}
        # Draw order is fixed by sorted node id so a seed pins the layout:
        # every placement first, then each node's first leg from it.
        for n in self.nodes:
            k = self._kin[n] = _Kinematics()
            k.waypoint = self._draw_point(rng)
        for n in self.nodes:
            self._start_leg(n, 0.0, rng)

    def _draw_point(self, rng):
        return (rng.uniform(0.0, self.arena[0]), rng.uniform(0.0, self.arena[1]))

    def _start_leg(self, node, now, rng):
        # A leg starts where the node stands: its placement, or the
        # waypoint it reached and paused at.
        k = self._kin[node]
        k.start_pos = k.waypoint
        k.waypoint = self._draw_point(rng)
        k.speed = rng.uniform(self.min_speed, self.max_speed)
        k.leg_start = now
        dist = math.dist(k.start_pos, k.waypoint)
        k.arrive_time = now + dist / k.speed
        k.pause_until = None
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
        if now < self._t0:
            raise _before_window(now, self._t0)
        k = self._kin[node]
        if k.pause_until is None and now >= k.arrive_time:
            k.pause_until = now + self.pause_s
            return k.pause_until
        if k.pause_until is not None and now >= k.pause_until:
            return self._start_leg(node, now, rng)
        return k.arrive_time if k.pause_until is None else k.pause_until

    def _open_window(self, now):
        pos0 = _Positions(self, now)
        pos0.update((n, self.position(n, now)) for n in self.nodes)
        end = now + self._window_s
        max_speed, pause_s = self.max_speed, self.pause_s
        top = {}
        for n, k in self._kin.items():
            if k.pause_until is not None:
                top[n] = 0.0 if k.pause_until > end else max_speed
            else:
                top[n] = (k.speed if k.arrive_time + pause_s > end
                          else max_speed)
        # Each cell lists (id, position, top speed) of the nodes in it.
        w = self._cell_w
        cells = {}
        for n, here in pos0.items():
            key = (math.floor(here[0] / w), math.floor(here[1] / w))
            cells.setdefault(key, []).append((n, here, top[n]))
        cand = {n: [] for n in self.nodes}
        reach, range_m, margin = self._reach, self.range_m, self._margin
        dist, inf = math.dist, math.inf
        for (cx, cy), members in cells.items():
            # The cell's own members, then those of its forward cells.
            block = members + [e for i, j in _FORWARD
                               for e in cells.get((cx + i, cy + j), ())]
            for i, (node, here, speed) in enumerate(members, 1):
                mine = cand[node]
                for other, there, pace in block[i:]:
                    d0 = dist(here, there)
                    if d0 <= reach:
                        s = speed + pace
                        decided = (now + (abs(d0 - range_m) - margin) / s
                                   if s else inf)
                        linked = d0 <= range_m
                        mine.append((other, linked, decided))
                        cand[other].append((node, linked, decided))
        for mine in cand.values():
            mine.sort()
        self._t0, self._end = now, end
        self._pos0, self._top, self._cand = pos0, top, cand
        self._held = {}
        self._memo = pos0

    def _serves(self, now):
        """Whether the window serves `now`: False after it, ValueError
        before it."""
        t0 = self._t0
        if t0 <= now <= self._end:
            return True
        if now < t0:
            raise _before_window(now, t0)
        return False

    def _at(self, now):
        """Positions at `now` under the current movement."""
        memo = self._memo
        if memo is None or memo.now != now:
            memo = self._memo = _Positions(self, now)
        return memo

    def neighbors(self, node, now):
        held = self._held.get(node)
        if held is not None and held[0] <= now <= held[1]:
            return held[2]
        if not self._serves(now):
            self._open_window(now)
        cand = self._cand.get(node)
        if cand is None:
            raise UnknownNodeError(node)
        range_m, margin, top = self.range_m, self._margin, self._top
        until = self._end
        found = []
        pos = None
        for other, linked, decided in cand:
            if now <= decided:
                if linked:
                    found.append(other)
                if decided < until:
                    until = decided
                continue
            if pos is None:
                pos = self._at(now)
                here, speed = pos[node], top[node]
            d = math.dist(here, pos[other])
            if d <= range_m:
                found.append(other)
            # s > 0 here: a still pair is decided for the whole window.
            change = now + (abs(d - range_m) - margin) / (speed + top[other])
            if change < until:
                until = change
        self._held[node] = (now, max(now, until), found)
        return found

    def has_link(self, u, v, now):
        range_m = self.range_m
        if self._serves(now):
            pos0, top = self._pos0, self._top
            d0 = math.dist(pos0[u], pos0[v])
            band = (top[u] + top[v]) * (now - self._t0) + self._margin
            if d0 <= range_m - band:
                return True
            if d0 > range_m + band:
                return False
        pos = self._at(now)
        return math.dist(pos[u], pos[v]) <= range_m


def _before_window(now, t0):
    return ValueError("time %r is before the movement window at %r; "
                      "the radio serves no past instant" % (now, t0))


def bfs_hops(topology, origin, now):
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
