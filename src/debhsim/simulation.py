"""Wires topology, nodes, adversaries, and traffic into one seeded run."""

from . import packets as pk
from .adversary import AdversaryGroup, AdversaryNode
from .aodv import FLOW_ATTEMPTS, Node
from .debh import format_audit_row
from .engine import Simulator
from .metrics import RunMetrics
from .topology import GeometricTopology, StaticTopology


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

    def _on_route(self, rrep, t_request):
        if self.sim.cfg.defense == "debh":
            node = self.sim.nodes[self.source]
            node.start_check(self.destination, rrep, t_request, self._on_check)
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
        self.sim.schedule_in(1.0 / self.sim.cfg.rate_pps, self._send_next)

    def route_lost(self):
        if self.state != "sending":
            return
        self.state = "routing"
        self._get_route()


class Simulation:
    """Owns the event loop and everything the nodes reach through it."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.engine = Simulator(cfg.seed, trace=cfg.trace)
        self.metrics = RunMetrics()
        self.audit_lines = []
        self.sessions_all = []
        self.sessions = {}            # nonce -> CheckSession

        node_ids = cfg.node_ids()
        if cfg.edges is not None:
            self.topology = StaticTopology(node_ids, cfg.edges)
        else:
            self.topology = GeometricTopology(
                node_ids, cfg.arena, cfg.range_m, cfg.min_speed,
                cfg.max_speed, cfg.pause_s, self.engine.rng,
                mobile=cfg.mobility)

        self.groups = []
        owner = {}
        for members in cfg.attack_groups:
            group = AdversaryGroup(members, cfg.seq_inflation, cfg.one_victim,
                                   cfg.packets_per_connection)
            group.finalize(self.topology)
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
                src, dst = self.engine.rng.sample(honest, 2)
                flow_specs.append((src, dst, 0.0))
        self.flows = [Flow(self, s, d, t) for s, d, t in flow_specs]

    # ---- clock and randomness ----

    @property
    def now(self):
        return self.engine.now

    @property
    def rng(self):
        return self.engine.rng

    def schedule_in(self, delay, action):
        return self.engine.schedule_in(delay, action)

    # ---- radio ----

    def has_link(self, u, v):
        return self.topology.has_link(u, v, self.engine.now)

    def unicast(self, sender, to, pkt, force=False):
        engine = self.engine
        if not force and not self.topology.has_link(sender, to, engine.now):
            return False
        kind = detail = ""
        if engine.trace is not None:
            name = type(pkt).__name__.lower()
            engine.log(sender, "send_" + name, "to=%s" % to)
            kind, detail = "recv_" + name, "from=%s" % sender
        engine.schedule(engine.now + self.cfg.hop_latency,
                        lambda: self.nodes[to].receive(pkt, sender),
                        to, kind, detail)
        return True

    def broadcast(self, sender, pkt):
        engine = self.engine
        neighbors = self.topology.neighbors(sender, engine.now)
        kind = detail = ""
        if engine.trace is not None:
            name = type(pkt).__name__.lower()
            engine.log(sender, "send_" + name, "fanout=%d" % len(neighbors))
            kind, detail = "recv_" + name, "from=%s" % sender
        # One fire time: sequence numbers keep the sorted neighbour order.
        fire_time = engine.now + self.cfg.hop_latency
        schedule, nodes = engine.schedule, self.nodes
        for nb in neighbors:
            schedule(fire_time, lambda n=nb: nodes[n].receive(pkt, sender),
                     nb, kind, detail)
        return len(neighbors)

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
        t = self.topology.step(node_id, self.engine.now, self.engine.rng)
        if t is None or t <= self.engine.now or t > self.cfg.duration_s:
            return
        self.engine.schedule(t, lambda: self._mobility_step(node_id),
                             node=node_id, kind="move")

    # ---- run ----

    def run(self):
        if self.topology.mobile:
            for nid in self.topology.nodes:
                self._mobility_step(nid)
        for flow in self.flows:
            self.engine.schedule(flow.start_t, flow.start)
        self.engine.run_until(self.cfg.duration_s)
        return self.metrics
