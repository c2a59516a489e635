"""Black hole nodes: forged route replies, silent data drops, cover claims."""

from . import packets as pk
from .aodv import Node
from .topology import bfs_hops


class AdversaryGroup:
    """Shared coordination state for one set of mutually aware attackers.

    Members know each other's placement where the run starts, so the
    group can agree on a single reply forger per discovery and on which
    peer each member names when asked for its next hop.
    """

    def __init__(self, members, victim_quota, topology):
        self.members = sorted(members)
        self.victim_quota = victim_quota
        self.engaged = {m: None for m in self.members}
        self.received = {}
        # Hop counts from each member where the run starts.
        self.hops = {m: bfs_hops(topology, m, 0.0) for m in self.members}
        self.cover = {}
        for m, hops in self.hops.items():
            peers = [p for p in self.members if p != m]
            self.cover[m] = min(peers, default=None,
                                key=lambda p: (hops.get(p, 1 << 30), p))

    def designated_forger(self, origin, destination):
        """The member who answers this discovery: the one farthest from
        the requester covers the rest; a member already baiting another
        victim stays quiet.  Links are symmetric, so a member's hop count
        to the requester is the requester's to it."""
        eligible = [m for m in self.members
                    if m != destination and self.engaged[m] in (None, origin)]
        if not eligible:
            return None
        return max(eligible, key=lambda m: (self.hops[m].get(origin, -1), m))

    def engage(self, member, victim):
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
        self.relayed = set()          # (origin, bid) of route requests

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
        """Hear every copy: a route request goes in relayed, never in
        seen_floods, so the radio drops none.  Forge and relay once."""
        self._maybe_install(rreq.origin, sender, rreq.hop_count + 1,
                            rreq.origin_seq, rreq.origin, rreq.origin)
        if self.node_id == rreq.destination:
            # Answer every copy so a reply survives on whatever branch
            # the requester still accepts.
            self._answer_as_destination(rreq, sender)
            return
        key = (rreq.origin, rreq.broadcast_id)
        if key in self.relayed:
            return
        self.relayed.add(key)
        if self.group.designated_forger(rreq.origin, rreq.destination) == self.node_id:
            self.forge_rrep(rreq, sender)
        self.sim.broadcast(self.node_id, rreq.hopped(rreq.hop_count + 1))

    def forge_rrep(self, rreq, sender):
        cover = self.group.cover[self.node_id]
        claimed_nhn = cover if cover is not None else rreq.destination
        rrep = pk.Rrep(rreq.origin, rreq.destination, rreq.broadcast_id,
                       rreq.dest_seq_known + self.sim.cfg.seq_inflation, 1,
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
        reply = pk.NhnReply(claimed, True, pkt.random_number)
        self.sim.unicast(self.node_id, sender, reply, force=True)

    def handle_bch_query(self, pkt, sender):
        self._forward(pk.BchReply(pkt.subjects, pkt.asker, pkt.random_number),
                      pkt.asker)

    # ---- elimination ----

    def _apply_alarm(self, alarm):
        """handle_alarm still relays the alarm; its list goes unheeded."""
