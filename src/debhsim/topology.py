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
    with a skin.  A window holds every node's position at its start t0,
    a grid of cells about range_m + skin wide, and, built on a node's
    first query in the window, the ids within range_m + skin of that
    node at t0, sorted, each with its distance d0 at t0.  neighbors()
    returns the same ids, sorted, as a scan over all nodes by the test
    math.dist(...) <= range_m at the queried instant would, because
    broadcast scheduling follows that order.

    The skin is range_m / 4 and a window lasts W = skin / (2 * max_speed)
    = range_m / (8 * max_speed) seconds.  Under one movement state a node
    moves at most max_speed * |t - t0| between t0 and t, and across a
    step() its position is continuous from the change on, so the
    distance of two nodes at any now in [t0, t0 + W] differs from their
    d0 by at most the band 2 * max_speed * (now - t0) <= skin; nodes
    within range_m at now were within range_m + skin at t0.  A window
    therefore serves every query whose now lies in [t0, t0 + W].  A later
    now opens a new window there.

    Callers query and step in time order, as the simulation clock runs:
    a step() leaves every position at its own instant where it was, and
    no query asks about an instant before it.  position() runs the
    current leg backward for times before it started, so the past is not
    served: a query or a step() earlier than the window's start raises
    ValueError.

    The band decides most links without positions at now: a pair with
    d0 <= range_m - band is in range, and one with d0 > range_m + band
    is out.  Only a pair inside the band gets the exact test on
    positions at now, which are memoised per instant.  has_link() uses
    the same rule when the window serves its now, and otherwise reads
    at most two memoised positions; it never opens a window.  The band
    is widened by range_m * (_CELL_SLACK - 1), far above the rounding of
    positions, distances and the band itself for coordinates and travel
    well under 10**6 range_m, so a decided pair gets the answer the
    exact test would give.

    The lists neighbors() returns are memoised per instant too: a repeat
    query for a node at the latest queried instant returns the list the
    first one built, and reads no position.  Within one instant the
    window, its candidates and every position are fixed, a step()
    included, so the memo is exact.  Callers must not mutate a returned
    list.
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
        # How fast two nodes' distance can change, and the rounding
        # margin of the band (see the class docstring).
        self._drift = 2 * max_speed
        self._margin = range_m * (_CELL_SLACK - 1)
        self._cell_w = self._reach * _CELL_SLACK
        # The window: its start t0 (-inf before the first), positions
        # and cells at t0, and the candidate lists built so far, each
        # (id, distance at t0) pairs.
        self._t0 = -math.inf
        self._pos0 = self._cells = self._cand = None
        # Positions at the latest queried instant.
        self._memo = None
        # The lists neighbors() returned at its latest queried instant.
        self._found_at = None
        self._found = {}
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
        cells = {}
        w = self._cell_w
        for n, (x, y) in pos0.items():
            cells.setdefault((math.floor(x / w), math.floor(y / w)),
                             []).append(n)
        self._t0 = now
        self._pos0, self._cells, self._cand = pos0, cells, {}
        self._memo = pos0

    def _candidates(self, node):
        """(id, distance at t0) of each node within range_m + skin of the
        node at t0, sorted by id."""
        pos0, reach, w = self._pos0, self._reach, self._cell_w
        here = pos0[node]
        cx, cy = math.floor(here[0] / w), math.floor(here[1] / w)
        cells = self._cells
        cand = [(other, d0)
                for i in (cx - 1, cx, cx + 1) for j in (cy - 1, cy, cy + 1)
                for other in cells.get((i, j), ())
                if other != node
                and (d0 := math.dist(here, pos0[other])) <= reach]
        cand.sort()
        return cand

    def _band(self, now):
        """How far a distance at `now` may lie from its d0, rounding
        included, or None if `now` lies after the window (ValueError
        before it)."""
        t0 = self._t0
        if t0 <= now <= t0 + self._window_s:
            return self._drift * (now - t0) + self._margin
        if now < t0:
            raise _before_window(now, t0)
        return None

    def _at(self, now):
        """Positions at `now` under the current movement."""
        memo = self._memo
        if memo is None or memo.now != now:
            memo = self._memo = _Positions(self, now)
        return memo

    def neighbors(self, node, now):
        if now == self._found_at:
            found = self._found.get(node)
            if found is not None:
                return found
        else:
            self._found_at, self._found = now, {}
        band = self._band(now)
        if band is None:
            self._open_window(now)
            band = self._band(now)
        cand = self._cand.get(node)
        if cand is None:
            cand = self._cand[node] = self._candidates(node)
        range_m = self.range_m
        near, far = range_m - band, range_m + band
        found = []
        pos = None
        for other, d0 in cand:
            if d0 <= near:
                found.append(other)
            elif d0 <= far:
                if pos is None:
                    pos = self._at(now)
                    here = pos[node]
                if math.dist(here, pos[other]) <= range_m:
                    found.append(other)
        self._found[node] = found
        return found

    def has_link(self, u, v, now):
        range_m, band = self.range_m, self._band(now)
        if band is not None:
            pos0 = self._pos0
            d0 = math.dist(pos0[u], pos0[v])
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
