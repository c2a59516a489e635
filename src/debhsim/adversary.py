"""Black hole nodes: forged route replies, silent data drops, cover claims."""

from . import packets as pk
from .aodv import Node
from .topology import bfs_hops


class AdversaryGroup:
    """Shared coordination state for one set of mutually aware attackers.

    Members know each other's placement, so the group can agree on a
    single reply forger per discovery and on which peer each member
    names when asked for its next hop.
    """

    def __init__(self, members, seq_inflation, one_victim, victim_quota):
        self.members = sorted(members)
        self.seq_inflation = seq_inflation
        self.one_victim = one_victim
        self.victim_quota = victim_quota
        self.engaged = {m: None for m in self.members}
        self.received = {}
        self.cover = {m: None for m in self.members}
        self.topology = None
        self._hops_cache = {}

    def finalize(self, topology):
        self.topology = topology
        for m in self.members:
            peers = [p for p in self.members if p != m]
            if peers:
                hops = bfs_hops(topology, m, 0.0)
                self.cover[m] = min(peers, key=lambda p: (hops.get(p, 1 << 30), p))

    def _hops_from(self, origin):
        if origin not in self._hops_cache:
            # t=0, not sim.now: ROADMAP item 2 moves it, changing outputs.
            self._hops_cache[origin] = bfs_hops(self.topology, origin, 0.0)
        return self._hops_cache[origin]

    def designated_forger(self, origin, destination):
        """The member who answers this discovery: the one farthest from
        the requester covers the rest; a member already baiting another
        victim stays quiet."""
        eligible = [m for m in self.members
                    if m != destination
                    and (not self.one_victim or self.engaged[m] in (None, origin))]
        if not eligible:
            return None
        hops = self._hops_from(origin)
        return max(eligible, key=lambda m: (hops.get(m, -1), m))

    def engage(self, member, victim):
        if self.one_victim:
            self.engaged[member] = victim

    def note_data(self, member, victim):
        key = (member, victim)
        self.received[key] = self.received.get(key, 0) + 1
        if (self.engaged.get(member) == victim
                and self.received[key] >= self.victim_quota):
            self.engaged[member] = None


class AdversaryNode(Node):
    """Relays control traffic like anyone else, lies about routes, and
    destroys every data-class packet it attracts: the payload, the data
    control probe and its reply."""

    malicious = True

    def __init__(self, node_id, sim, group):
        super().__init__(node_id, sim)
        self.group = group

    # ---- data-class traffic: destroyed ----

    def handle_data(self, data, sender):
        self.sim.metrics.malicious_drops += 1
        self.group.note_data(self.node_id, data.source)

    def handle_data_control(self, pkt, sender):
        """Destroyed: no reply, no trust entry, no further probe."""

    def handle_probe_reply(self, pkt, sender):
        """Destroyed: the probe it answers stays unanswered."""

    # ---- route discovery behavior ----

    def handle_rreq(self, rreq, sender):
        self._maybe_install(rreq.origin, sender, rreq.hop_count + 1,
                            rreq.origin_seq, rreq.origin)
        if self.node_id == rreq.destination:
            # Answer every copy so a reply survives on whatever branch
            # the requester still accepts.
            self._answer_as_destination(rreq, sender)
            return
        key = (rreq.origin, rreq.broadcast_id)
        if key in self.seen_floods:
            return
        self.seen_floods[key] = rreq.excluded
        if self.group.designated_forger(rreq.origin, rreq.destination) == self.node_id:
            self.forge_rrep(rreq, sender)
        self.sim.broadcast(self.node_id, rreq.hopped(rreq.hop_count + 1))

    def forge_rrep(self, rreq, sender):
        cover = self.group.cover[self.node_id]
        claimed_nhn = cover if cover is not None else rreq.destination
        rrep = pk.Rrep(rreq.origin, rreq.destination, rreq.broadcast_id,
                       rreq.dest_seq_known + self.group.seq_inflation, 1,
                       self.node_id, claimed_nhn, True)
        self.group.engage(self.node_id, rreq.origin)
        self.sim.metrics.forged_rreps += 1
        self.sim.unicast(self.node_id, sender, rrep)

    def handle_rrep(self, rrep, sender):
        # Relay without the honesty filters.
        if self.node_id != rrep.origin:
            self._relay_rrep(rrep, sender)

    # ---- cover stories ----

    def handle_nhn_query(self, pkt, sender):
        cover = self.group.cover[self.node_id]
        claimed = cover if cover is not None else pkt.target
        reply = pk.NhnReply(claimed, True, pkt.asker, pkt.random_number)
        self.sim.unicast(self.node_id, sender, reply, force=True)

    def handle_bch_query(self, pkt, sender):
        reply = pk.BchReply(self.node_id, pkt.subjects, pkt.asker,
                            pkt.path_number, pkt.random_number)
        self._forward_control(reply, pkt.asker)

    # ---- elimination ----

    def _apply_alarm(self, alarm):
        """handle_alarm still relays the alarm; its list goes unheeded."""
