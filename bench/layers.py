"""The traced pass: spans around the calls into each debhsim layer.

`Tracer.install` wraps public functions of a freshly imported debhsim, at
the name each caller looks up, so nothing under `src/` changes.  Spans are
kept in memory as (name, start, end, parent) and written out at the end;
a span's self time is its duration minus the time its child spans cover.

Span names start with their layer: engine, topology, simulation, aodv
(routing), debh (defense), adversary, scenario, outputs.  `bench.pass` is
the root and holds whatever no wrapped call covers.
"""

import array
import json
import os
from collections import Counter
from time import perf_counter

# Honest receptions of these packet types are routing work; every other
# type (probes, replies, queries, reports, acks, alarms) is defense work.
ROUTING_PACKETS = ("Rreq", "Rrep", "Data")
PROBE_PACKETS = ("DataControl", "OrdinalProbe")

# Timers scheduled from aodv.py that belong to the defense, keyed by the
# method that schedules them.  Other timers take the layer of their module.
DEFENSE_TIMERS = {
    "Node._arm_watchdog",      # session watchdog
    "Node._continue_chain",    # probe reply timeout
    "Node._suspicion",         # next-hop query timeout
    "Node._begin_verify",      # verify timeout
}
MODULE_LAYERS = {
    "debhsim.aodv": "aodv",
    "debhsim.adversary": "adversary",
    "debhsim.simulation": "simulation",
}


def event_span_name(func):
    """Name of the span around one scheduled action, from where it was made."""
    where = func.__qualname__.split(".<locals>")[0]
    if where in DEFENSE_TIMERS:
        layer = "debh"
    else:
        layer = MODULE_LAYERS.get(func.__module__, "engine")
    return "%s.event.%s" % (layer, where)


class Tracer:
    """Records spans and the counters that need call arguments or results."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = [-1]
        self._event_ids = {}
        self.peak_queue = 0
        self.fanout = 0
        self.refused = 0
        self.probes = 0
        self.verdicts = Counter()
        self.configs = 0

    # ---- span recording ----

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid):
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(perf_counter())
        return sid

    def leave(self, sid):
        self.span_end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self.name_id(name)
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            sid = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(sid)
        return traced

    def _event(self, action):
        func = getattr(action, "__func__", action)
        nid = self._event_ids.get(func.__code__)
        if nid is None:
            nid = self._event_ids[func.__code__] = self.name_id(
                event_span_name(func))
        enter, leave = self.enter, self.leave

        def event():
            sid = enter(nid)
            try:
                action()
            finally:
                leave(sid)
        return event

    # ---- wrapping debhsim ----

    def install(self, dh):
        """Wrap the layer boundaries of the debhsim package `dh`."""
        adversary, aodv, engine = dh.adversary, dh.aodv, dh.engine
        scenario, simulation, topology = dh.scenario, dh.simulation, dh.topology
        sim_cls = engine.Simulator
        schedule = sim_cls.schedule
        sched_id = self.name_id("engine.schedule")
        enter, leave, event = self.enter, self.leave, self._event

        def traced_schedule(sim, fire_time, action, node=None, kind="", detail=""):
            action = event(action)
            sid = enter(sched_id)
            try:
                return schedule(sim, fire_time, action, node, kind, detail)
            finally:
                leave(sid)
                # Simulator exposes no queue length, so read its heap.
                if len(sim._queue) > self.peak_queue:
                    self.peak_queue = len(sim._queue)
        sim_cls.schedule = traced_schedule
        sim_cls.run_until = self.wrap("engine.run_until", sim_cls.run_until)

        node_cls, adv_cls = aodv.Node, adversary.AdversaryNode
        node_cls.receive = self._receive(node_cls.receive, honest=True)
        adv_cls.receive = self._receive(adv_cls.receive, honest=False)
        node_cls.discover = self.wrap("aodv.discover", node_cls.discover)
        node_cls.start_check = self.wrap("debh.start_check", node_cls.start_check)
        group = adversary.AdversaryGroup
        group.designated_forger = self.wrap("adversary.designated_forger",
                                            group.designated_forger)

        sim_cls = simulation.Simulation
        unicast = self.wrap("simulation.unicast", sim_cls.unicast)

        def traced_unicast(sim, sender, to, pkt, force=False):
            sent = unicast(sim, sender, to, pkt, force)
            if not sent:
                self.refused += 1
            if type(pkt).__name__ in PROBE_PACKETS:
                self.probes += 1
            return sent
        sim_cls.unicast = traced_unicast
        sim_cls.broadcast = self.wrap("simulation.broadcast", sim_cls.broadcast)

        for topo_cls in (topology.StaticTopology, topology.GeometricTopology):
            neighbors = self.wrap("topology.neighbors", topo_cls.neighbors)

            def traced_neighbors(topo, node, now=0.0, _neighbors=neighbors):
                out = _neighbors(topo, node, now)
                self.fanout += len(out)
                return out
            topo_cls.neighbors = traced_neighbors
            topo_cls.has_link = self.wrap("topology.has_link", topo_cls.has_link)
        adversary.bfs_hops = self.wrap("topology.bfs_hops", adversary.bfs_hops)

        adjudicate = self.wrap("debh.adjudicate", aodv.adjudicate)

        def traced_adjudicate(*args):
            condemned, safe = adjudicate(*args)
            if safe is not None:
                self.verdicts["safe"] += 1
            elif condemned:
                self.verdicts["condemned"] += 1
            return condemned, safe
        aodv.adjudicate = traced_adjudicate

        scenario.build_simulation = self.wrap("scenario.build_simulation",
                                              scenario.build_simulation)
        scenario.write_outputs = self.wrap("outputs.write_outputs",
                                           scenario.write_outputs)
        config_init = dh.ScenarioConfig.__init__

        def counted_init(cfg, *args, **kwargs):
            self.configs += 1
            config_init(cfg, *args, **kwargs)
        dh.ScenarioConfig.__init__ = counted_init

    def _receive(self, receive, honest):
        ids = {}
        enter, leave = self.enter, self.leave
        name_id = self.name_id

        def traced_receive(node, pkt, sender):
            key = (node.malicious, type(pkt))
            nid = ids.get(key)
            if nid is None:
                kind = type(pkt).__name__
                if not honest:
                    name = "adversary.recv." + kind
                elif node.malicious:
                    # The honest handling an attacker falls back to.
                    name = "adversary.relay." + kind
                elif kind in ROUTING_PACKETS:
                    name = "aodv.recv." + kind
                else:
                    name = "debh.recv." + kind
                nid = ids[key] = name_id(name)
            sid = enter(nid)
            try:
                return receive(node, pkt, sender)
            finally:
                leave(sid)
        return traced_receive

    # ---- results ----

    def summary(self):
        """Per span name: call count and self time in host seconds."""
        n = len(self.span_start)
        start, end, parent, name = (self.span_start, self.span_end,
                                    self.span_parent, self.span_name)
        child = array.array("d", [0.0]) * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            nid = name[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        forger = self._ids.get("adversary.designated_forger", -1)
        bfs = self._ids.get("topology.bfs_hops", -1)
        bfs_in_forger = sum(1 for i in range(n)
                            if name[i] == bfs and parent[i] >= 0
                            and name[parent[i]] == forger)
        return ({self.names[k]: v for k, v in calls.items()},
                {self.names[k]: v for k, v in self_s.items()},
                bfs_in_forger)

    def write(self, path):
        """Spans as four native-order arrays after a one-line JSON header."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": ["name:int32", "parent:int32",
                             "start:float64", "end:float64"]}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
