"""Wires topology, nodes, adversaries, and traffic into one seeded run."""

import random

from . import packets as pk
from .adversary import AdversaryGroup, AdversaryNode
from .aodv import FLOW_ATTEMPTS, Node
from .debh import format_audit_row
from .engine import Simulator
from .metrics import RunMetrics
from .topology import GeometricTopology, StaticTopology


# ("send_<type>", "recv_<type>") trace kinds of every packet type.
_TRACE_KINDS = {cls: ("send_" + cls.__name__.lower(),
                      "recv_" + cls.__name__.lower())
                for cls in Node._HANDLERS}


class Flow:
    """One source-to-destination conversation: find a route, check it
    when the defense is on, then send packets at the configured rate."""

    def __init__(self, sim, source, destination, start_t):
        self.sim = sim
        self.source = source
        self.destination = destination
        self.start_t = start_t
        self.sent = 0
        self.attempts = 0
        self.state = "idle"

    def start(self):
        self.state = "routing"
        self._get_route()

    def _get_route(self):
        self.attempts += 1
        if self.attempts > FLOW_ATTEMPTS:
            self.state = "failed"
            return
        node = self.sim.nodes[self.source]
        node.ensure_route(self.destination, self._on_route, self._on_fail,
                          tuple(sorted(node.banned)))

    def _on_route(self, route, t_request):
        if self.sim.cfg.defense == "debh":
            node = self.sim.nodes[self.source]
            node.start_check(self.destination, route, t_request, self._on_check)
        else:
            self._begin_sending()

    def _on_check(self, safe):
        if safe:
            self._begin_sending()
        else:
            self.state = "routing"
            self._get_route()

    def _on_fail(self, destination):
        self.state = "failed"

    def _begin_sending(self):
        self.state = "sending"
        self._send_next()

    def _send_next(self):
        if self.state != "sending":
            return
        if self.sent >= self.sim.cfg.packets_per_connection:
            self.state = "done"
            return
        data = pk.Data(self.source, self.destination)
        self.sent += 1
        self.sim.metrics.sent_by_source[self.source] += 1
        self.sim.nodes[self.source].handle_data(data, self.source)
        self.sim.engine.schedule_in(1.0 / self.sim.cfg.rate_pps,
                                    self._send_next)

    def route_lost(self):
        if self.state != "sending":
            return
        self.state = "routing"
        self._get_route()


class Simulation:
    """Owns the event loop and everything the nodes reach through it."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.engine = Simulator(trace=cfg.trace)
        # The run's one random stream, so a seed reproduces the run:
        # placement and flows draw first, then movement and nonces.
        self.rng = random.Random(cfg.seed)
        self.metrics = RunMetrics()
        self.audit_lines = []
        self.sessions_all = []
        self.sessions = {}            # nonce -> CheckSession

        node_ids = cfg.node_ids()
        # The most hops a relayed packet makes (Node._forward): a path
        # without a loop visits each node at most once.
        self.max_hops = len(node_ids) - 1
        if cfg.edges is not None:
            self.topology = StaticTopology(node_ids, cfg.edges)
        else:
            self.topology = GeometricTopology(
                node_ids, cfg.arena, cfg.range_m, cfg.min_speed,
                cfg.max_speed, cfg.pause_s, self.rng)

        self.groups = []
        owner = {}
        for members in cfg.attack_groups:
            group = AdversaryGroup(members, cfg.packets_per_connection,
                                   self.topology)
            self.groups.append(group)
            for m in group.members:
                owner[m] = group

        self.nodes = {}
        for nid in node_ids:
            if nid in owner:
                self.nodes[nid] = AdversaryNode(nid, self, owner[nid])
            else:
                self.nodes[nid] = Node(nid, self)

        if cfg.flows is not None:
            flow_specs = cfg.flows
        else:
            # Traffic endpoints are honest; draw them after the layout so
            # one seed pins both.
            honest = [n for n in node_ids if n not in owner]
            flow_specs = []
            for _ in range(cfg.connections):
                src, dst = self.rng.sample(honest, 2)
                flow_specs.append((src, dst, 0.0))
        self.flows = [Flow(self, s, d, t) for s, d, t in flow_specs]

    # ---- clock ----

    @property
    def now(self):
        return self.engine.now

    # ---- radio ----

    def unicast(self, sender, to, pkt, force=False):
        engine = self.engine
        if not force and not self.topology.has_link(sender, to, engine.now):
            return False
        kind = detail = ""
        if engine.trace is not None:
            send, kind = _TRACE_KINDS[type(pkt)]
            engine.log(sender, send, f"to={to}")
            detail = f"from={sender}"
        engine.schedule(engine.now + self.cfg.hop_latency,
                        lambda: self.nodes[to].receive(pkt, sender),
                        to, kind, detail)
        return True

    def broadcast(self, sender, pkt):
        """Flood pkt, a route request or an alarm, to every neighbour of
        sender, one hop_latency on.  A copy due at a node whose seen_floods
        holds the flood's (origin, broadcast_id) is dropped (RFC 3561 6.5):
        it counts as a processed event and writes its recv_* trace line,
        but reaches no handler.  Every other copy goes to Node.receive."""
        engine = self.engine
        neighbors = self.topology.neighbors(sender, engine.now)
        kind = detail = ""
        if engine.trace is not None:
            send, kind = _TRACE_KINDS[type(pkt)]
            engine.log(sender, send, f"fanout={len(neighbors)}")
            detail = f"from={sender}"
        nodes = self.nodes
        key = (pkt.origin, pkt.broadcast_id)

        def deliver(n):
            # Tested when the copy is due, not when it was sent.
            node = nodes[n]
            if key not in node.seen_floods:
                node.receive(pkt, sender)
        # One queue entry: its neighbours receive in sorted order, just
        # as one event per neighbour at one fire time would.
        engine.schedule_each(engine.now + self.cfg.hop_latency, neighbors,
                             deliver, kind, detail)

    # ---- check session bookkeeping ----

    def trusts(self, holder, subject):
        return subject in self.nodes[holder].trusted

    def audit(self, session, event, subject):
        self.audit_lines.append(format_audit_row(
            self.engine.now, session.source, session.path_number, event,
            subject, session.blackhole_queue, session.rrep_generator_queue))

    # ---- traffic bookkeeping ----

    def flow_route_lost(self, source, destination):
        for flow in self.flows:
            if flow.source == source and flow.destination == destination:
                flow.route_lost()

    # ---- movement ----

    def _mobility_step(self, node_id):
        t = self.topology.step(node_id, self.engine.now, self.rng)
        if t > self.cfg.duration_s:
            return
        self.engine.schedule(t, lambda: self._mobility_step(node_id),
                             node=node_id, kind="move")

    # ---- run ----

    def run(self):
        if self.cfg.edges is None:
            for nid in self.topology.nodes:
                self._mobility_step(nid)
        for flow in self.flows:
            self.engine.schedule(flow.start_t, flow.start)
        self.engine.run_until(self.cfg.duration_s)
        return self.metrics
