"""Honest node behavior: route discovery, data forwarding, path checking."""

from dataclasses import dataclass

from . import packets as pk
from .debh import CheckSession, adjudicate, is_malicious, resolve_next_target
from .metrics import format_ids

# Floods a discovery repeats after its first before it fails (RFC 3561).
RREQ_RETRIES = 2
# Routes a flow asks for before it fails: each failed check or lost link
# asks again, and a flow that never gets a safe route must still end.
FLOW_ATTEMPTS = 8


@dataclass
class RoutingEntry:
    destination: int
    next_hop: int
    hop_count: int
    dest_seq: int
    generator: int
    generator_nhn: int = None
    generator_trust: bool = False
    fresh: bool = True


def select_best_rrep(candidates):
    """Freshest reply wins: highest dest_seq, then fewest hops, then
    the smaller generator id."""
    if not candidates:
        raise ValueError("no route reply candidates")
    return max(candidates,
               key=lambda r: (r.dest_seq, -r.hop_count, -r.generator))


class _Pending:
    """One in-flight route discovery at the source."""

    __slots__ = ("destination", "broadcast_id", "excluded", "dest_only",
                 "candidates", "timeout_handle", "retries_left", "on_route",
                 "on_fail", "t0")

    def __init__(self, destination, excluded, dest_only, on_route, on_fail, t0):
        self.destination = destination
        self.broadcast_id = 0         # set by each flood
        self.excluded = excluded
        self.dest_only = dest_only
        self.candidates = []          # (adjusted Rrep, sender)
        self.timeout_handle = None
        self.retries_left = RREQ_RETRIES
        self.on_route = on_route
        self.on_fail = on_fail
        self.t0 = t0


class Node:
    """A well-behaved network node."""

    malicious = False

    def __init__(self, node_id, sim):
        self.node_id = node_id
        self.sim = sim
        self.seq = 0
        self.next_bid = 0
        self.next_alarm_id = 0
        self.table = {}               # destination -> RoutingEntry
        self.seen_floods = {}         # (origin, bid) -> excluded tuple
        self.seen_alarms = set()
        self.banned = set()
        self.trusted = set()          # BCh table: probe handshake peers
        self.pending = {}             # destination -> _Pending
        self.probe_timers = {}        # nonce -> (probe, reply timer)
        self.pending_nhn = {}         # nonce -> (probe, next-hop query timer)

    # ---- routing table ----

    def fresh_route(self, destination):
        entry = self.table.get(destination)
        if entry is None or not entry.fresh:
            return None
        if entry.next_hop in self.banned:
            return None
        if not self.sim.has_link(self.node_id, entry.next_hop):
            entry.fresh = False
            return None
        return entry

    def _maybe_install(self, destination, next_hop, hop_count, dest_seq,
                       generator, generator_nhn=None, generator_trust=False):
        if destination == self.node_id:
            return
        cur = self.table.get(destination)
        if cur is not None and cur.fresh and (
                cur.dest_seq > dest_seq
                or (cur.dest_seq == dest_seq and cur.hop_count <= hop_count)):
            return
        self.table[destination] = RoutingEntry(
            destination, next_hop, hop_count, dest_seq, generator,
            generator_nhn, generator_trust)

    def _install_selected(self, rrep, sender):
        self.table[rrep.destination] = RoutingEntry(
            rrep.destination, sender, rrep.hop_count, rrep.dest_seq,
            rrep.generator, rrep.generator_nhn, rrep.generator_trust)

    # ---- route discovery ----

    def ensure_route(self, destination, on_route, on_fail, excluded=()):
        """Reuse a fresh route when one exists, otherwise discover."""
        entry = self.fresh_route(destination)
        if entry is not None:
            rrep = pk.Rrep(self.node_id, destination, 0, entry.dest_seq,
                           entry.hop_count, entry.generator,
                           entry.generator_nhn if entry.generator_nhn is not None
                           else entry.generator,
                           entry.generator_trust)
            on_route(rrep, self.sim.now)
            return
        self.discover(destination, excluded, on_route, on_fail)

    def discover(self, destination, excluded, on_route, on_fail,
                 dest_only=False):
        if destination == self.node_id:
            raise ValueError("node %s cannot discover itself" % self.node_id)
        if destination in self.pending:
            # A discovery for this destination is already running; the new
            # caller replaces the old consumer.
            old = self.pending[destination]
            old.on_route = on_route
            old.on_fail = on_fail
            return
        pend = _Pending(destination, tuple(excluded), dest_only, on_route,
                        on_fail, self.sim.now)
        self.pending[destination] = pend
        self._flood(pend)

    def _flood(self, pend):
        self.seq += 1
        self.next_bid += 1
        pend.broadcast_id = self.next_bid
        known = self.table.get(pend.destination)
        rreq = pk.Rreq(self.node_id, pend.destination, self.seq,
                       known.dest_seq if known else 0,
                       pend.broadcast_id, 0, pend.excluded, pend.dest_only)
        self.seen_floods[(self.node_id, pend.broadcast_id)] = pend.excluded
        self.sim.metrics.rreq_count_by_source[self.node_id] += 1
        self.sim.broadcast(self.node_id, rreq)
        pend.timeout_handle = self.sim.schedule_in(
            self.sim.cfg.discovery_timeout,
            lambda: self._discovery_timeout(pend.destination))

    def _discovery_timeout(self, destination):
        pend = self.pending.get(destination)
        if pend is None or pend.candidates:
            return
        if pend.retries_left > 0:
            pend.retries_left -= 1
            self._flood(pend)
            return
        del self.pending[destination]
        pend.on_fail(destination)

    def _finish_discovery(self, destination):
        pend = self.pending.pop(destination, None)
        if pend is None:
            return
        best = select_best_rrep([c[0] for c in pend.candidates])
        sender = next(s for r, s in pend.candidates if r is best)
        self._install_selected(best, sender)
        pend.on_route(best, pend.t0)

    # ---- receive dispatch ----

    # Packet type -> (handler name, field naming its addressee or None).
    # Handlers are looked up by name, so subclass overrides apply.
    _HANDLERS = {
        pk.Rreq: ("handle_rreq", None),
        pk.Rrep: ("handle_rrep", None),
        pk.Data: ("handle_data", None),
        pk.DataControl: ("handle_data_control", None),
        pk.OrdinalProbe: ("handle_ordinal_probe", None),
        pk.DataControlReply: ("handle_probe_reply", None),
        pk.Alarm: ("handle_alarm", None),
        pk.Ack: ("handle_ack", "source"),
        pk.SuspectReport: ("handle_suspect_report", "source"),
        pk.NoRouteReport: ("handle_no_route_report", "source"),
        pk.NhnQuery: ("handle_nhn_query", "addressee"),
        pk.NhnReply: ("handle_nhn_reply", "asker"),
        pk.BchQuery: ("handle_bch_query", "addressee"),
        pk.BchReply: ("handle_bch_reply", "asker"),
    }

    def receive(self, pkt, sender):
        handler, field = self._HANDLERS[type(pkt)]
        if field is not None:
            addressee = getattr(pkt, field)
            if addressee != self.node_id:
                self._forward_control(pkt, addressee)
                return
        getattr(self, handler)(pkt, sender)

    def _forward_control(self, pkt, addressee):
        entry = self.fresh_route(addressee)
        if entry is None:
            return False
        return self.sim.unicast(self.node_id, entry.next_hop, pkt)

    # ---- flooding ----

    def handle_rreq(self, rreq, sender):
        if sender in rreq.excluded or sender in self.banned:
            return
        key = (rreq.origin, rreq.broadcast_id)
        if key in self.seen_floods:
            return
        self.seen_floods[key] = rreq.excluded
        self._maybe_install(rreq.origin, sender, rreq.hop_count + 1,
                            rreq.origin_seq, rreq.origin)
        if self.node_id == rreq.destination:
            self._answer_as_destination(rreq, sender)
            return
        if self.sim.cfg.cache_reply and not rreq.dest_only:
            entry = self.fresh_route(rreq.destination)
            if entry is not None and entry.dest_seq >= rreq.dest_seq_known:
                rrep = pk.Rrep(rreq.origin, rreq.destination, rreq.broadcast_id,
                               entry.dest_seq, entry.hop_count, self.node_id,
                               entry.next_hop, entry.next_hop in self.trusted)
                self.sim.unicast(self.node_id, sender, rrep)
                return
        self.sim.broadcast(self.node_id, rreq.hopped(rreq.hop_count + 1))

    def _answer_as_destination(self, rreq, sender):
        """Reply as the destination with a sequence number fresher than
        any the requester knows."""
        self.seq = max(self.seq, rreq.dest_seq_known) + 1
        rrep = pk.Rrep(rreq.origin, self.node_id, rreq.broadcast_id,
                       self.seq, 0, self.node_id, self.node_id, True)
        self.sim.unicast(self.node_id, sender, rrep)

    def handle_rrep(self, rrep, sender):
        if sender in self.banned or rrep.generator in self.banned:
            return
        excluded = self.seen_floods.get((rrep.origin, rrep.broadcast_id))
        if excluded is None and rrep.origin != self.node_id:
            return
        if excluded and sender in excluded:
            return
        if self.node_id == rrep.origin:
            pend = self.pending.get(rrep.destination)
            if pend is None or pend.broadcast_id != rrep.broadcast_id:
                return
            if rrep.generator in pend.excluded or sender in pend.excluded:
                return
            pend.candidates.append(
                (rrep.hopped(rrep.hop_count + 1), sender))
            if len(pend.candidates) == 1:
                if pend.timeout_handle is not None:
                    pend.timeout_handle.cancel()
                self.sim.schedule_in(
                    self.sim.cfg.selection_window,
                    lambda: self._finish_discovery(rrep.destination))
            return
        self._relay_rrep(rrep, sender)

    def _relay_rrep(self, rrep, sender):
        """Install the advertised route and pass the reply one hop back."""
        effective_hop = rrep.hop_count + 1
        self._maybe_install(rrep.destination, sender, effective_hop,
                            rrep.dest_seq, rrep.generator, rrep.generator_nhn,
                            rrep.generator_trust)
        back = self.fresh_route(rrep.origin)
        if back is not None:
            self.sim.unicast(self.node_id, back.next_hop,
                             rrep.hopped(effective_hop))

    # ---- data plane ----

    def handle_data(self, data, sender):
        if self.node_id == data.destination:
            self.sim.metrics.delivered_by_source[data.source] += 1
            return
        entry = self.fresh_route(data.destination)
        if entry is None:
            self.receive(pk.NoRouteReport(
                data.destination, data.source, 0), self.node_id)
            return
        # fresh_route has just checked this link at this instant.
        self.sim.unicast(self.node_id, entry.next_hop, data)

    # ---- path checking: source side ----

    def start_check(self, destination, rrep, t0, on_done):
        sessions = self.sim.sessions_all
        session = CheckSession(self.node_id, destination, len(sessions) + 1,
                               t0, current_target=destination, on_done=on_done)
        sessions.append(session)
        self.sim.audit(session, "session", str(destination))
        self._start_path(session, rrep)
        return session

    def _start_path(self, session, rrep):
        session.take_route(rrep)
        session.nonce = self.sim.rng.getrandbits(64)
        self.sim.sessions[session.nonce] = session
        self.sim.audit(session, "route", str(rrep.generator))
        self._restart_path(session)

    def _restart_path(self, session):
        """Walk the current sub-path from the source.  After a link break
        the path number and nonce stay, suspicion state is untouched."""
        self._arm_watchdog(session)
        self._continue_chain(session.source, session.path_number, session.nonce,
                             session.current_target)

    def _arm_watchdog(self, session):
        if session.watchdog is not None:
            session.watchdog.cancel()
        session.watchdog = self.sim.schedule_in(
            self.sim.cfg.session_timeout,
            lambda: self._finish_session(session, aborted=True))

    # ---- path checking: chain walking (any node) ----

    def _continue_chain(self, source, path_number, nonce, target):
        """Probe the next hop toward target; a probe that awaits a reply
        is this node's record of the check."""
        entry = self.fresh_route(target)
        if entry is None:
            self.receive(pk.NoRouteReport(
                target, source, path_number, nonce), self.node_id)
            return
        nhn = entry.next_hop
        trusted = nhn in self.trusted
        probe = (pk.OrdinalProbe if trusted else pk.DataControl)(
            nhn, nonce, source, target, path_number)
        # A hand-made probe may carry a nonce that names no session.
        session = self.sim.sessions.get(nonce)
        if session is not None:
            self.sim.audit(session, "probe", "%s>%s" % (self.node_id, nhn))
        # fresh_route has just checked this link at this instant.
        self.sim.unicast(self.node_id, nhn, probe)
        if not trusted:
            if session is not None:
                session.dcp_count += 1
            timer = self.sim.schedule_in(
                self.sim.cfg.reply_timeout,
                lambda: self._probe_timeout(probe))
            self.probe_timers[nonce] = (probe, timer)

    def handle_data_control(self, pkt, sender):
        reply = pk.DataControlReply(pkt.random_number, pkt.path_number)
        # The handshake is atomic: a delivered probe always earns its
        # reply, link churn within the exchange is below model resolution.
        self.sim.unicast(self.node_id, sender, reply, force=True)
        self.trusted.add(sender)
        self.handle_ordinal_probe(pkt, sender)

    def handle_ordinal_probe(self, pkt, sender):
        if self.node_id == pkt.target:
            self.receive(pk.Ack(self.node_id, pkt.source, pkt.random_number,
                                pkt.path_number), self.node_id)
            return
        self._continue_chain(pkt.source, pkt.path_number, pkt.random_number,
                             pkt.target)

    def handle_probe_reply(self, pkt, sender):
        rec = self.probe_timers.get(pkt.random_number)
        if rec is not None:
            probe, timer = rec
            if sender == probe.nhn:
                del self.probe_timers[pkt.random_number]
                timer.cancel()
                self.trusted.add(sender)
                session = self.sim.sessions.get(pkt.random_number)
                if session is not None:
                    session.verified.add(sender)
            return
        # Reply that matches no outstanding nonce: if it came from a hop
        # we are probing on this path number, the echo was wrong and the
        # hop is suspect, reported to the probe's own source.
        for nonce, (probe, timer) in self.probe_timers.items():
            if probe.nhn == sender and probe.path_number == pkt.path_number:
                del self.probe_timers[nonce]
                timer.cancel()
                self.trusted.discard(sender)
                self._suspicion(probe)
                return

    def _probe_timeout(self, probe):
        self.probe_timers.pop(probe.random_number, None)
        self.trusted.discard(probe.nhn)
        self._suspicion(probe)

    def _suspicion(self, probe):
        """Ask the silent hop for its next hop, then report it."""
        query = pk.NhnQuery(self.node_id, probe.nhn, probe.target,
                            probe.random_number)
        if self.sim.unicast(self.node_id, probe.nhn, query):
            timer = self.sim.schedule_in(
                self.sim.cfg.query_timeout,
                lambda: self._nhn_query_timeout(probe))
            self.pending_nhn[probe.random_number] = (probe, timer)
        else:
            self._send_suspect_report(probe)

    def _nhn_query_timeout(self, probe):
        if self.pending_nhn.pop(probe.random_number, None) is not None:
            self._send_suspect_report(probe)

    def handle_nhn_query(self, pkt, sender):
        entry = self.fresh_route(pkt.target)
        nhn = entry.next_hop if entry is not None else None
        reply = pk.NhnReply(nhn, nhn in self.trusted, pkt.asker,
                            pkt.random_number)
        self.sim.unicast(self.node_id, sender, reply, force=True)

    def handle_nhn_reply(self, pkt, sender):
        rec = self.pending_nhn.get(pkt.random_number)
        if rec is None or sender != rec[0].nhn:
            return
        del self.pending_nhn[pkt.random_number]
        probe, timer = rec
        timer.cancel()
        self._send_suspect_report(probe, pkt.nhn, pkt.trust_for_nhn)

    def _send_suspect_report(self, probe, claimed_nhn=None,
                             claimed_trust=False):
        self.receive(pk.SuspectReport(
            self.node_id, probe.nhn, probe.source, probe.path_number,
            probe.random_number, claimed_nhn, claimed_trust), self.node_id)

    # ---- path checking: source reactions ----

    def _session_for(self, pkt, state="checking"):
        """The check pkt answers: this node's session, in state, on pkt's
        nonce and path number; None for any other."""
        session = self.sim.sessions.get(pkt.random_number)
        if (session is None or session.source != self.node_id
                or session.state != state
                or session.nonce != pkt.random_number
                or session.path_number != pkt.path_number):
            return None
        return session

    def handle_suspect_report(self, pkt, sender):
        session = self._session_for(pkt)
        if session is None:
            return
        session.verified.add(pkt.reporter)
        session.add_suspect(pkt.suspect)
        session.claims[pkt.suspect] = (pkt.claimed_nhn, pkt.claimed_trust)
        self.sim.audit(session, "suspect", str(pkt.suspect))
        target = resolve_next_target(session, pkt.suspect, pkt.claimed_nhn)
        session.path_number += 1
        session.current_target = target
        self.sim.audit(session, "reroute", str(target))
        self._rediscover(session, self._start_path)

    def handle_no_route_report(self, pkt, sender):
        if pkt.path_number == 0:
            # A relay lost its next hop; stop reusing the broken route.
            entry = self.table.get(pkt.unreachable)
            if entry is not None:
                entry.fresh = False
            self.sim.flow_route_lost(self.node_id, pkt.unreachable)
            return
        session = self._session_for(pkt)
        if session is None:
            return
        self.sim.audit(session, "no_route", str(pkt.unreachable))
        self._rediscover(session, self._heal_path)

    def _heal_path(self, session, rrep):
        """A broken link was healed by rediscovery; same path number."""
        session.take_route(rrep)
        self._restart_path(session)

    def _rediscover(self, session, on_route):
        """Find the current target around every suspect, then hand the
        route to on_route(session, rrep); finding none aborts the check."""
        self._arm_watchdog(session)

        def routed(rrep, t0):
            if session.state == "checking":
                on_route(session, rrep)
        # Only the target may answer: a relay's cached route can lead back
        # to a suspect or to a relay with no route on, and the check would
        # walk it again on every retry, re-arming its watchdog each time.
        self.discover(session.current_target, tuple(session.blackhole_queue),
                      routed, lambda dest: self._finish_session(session, aborted=True),
                      dest_only=True)

    def handle_ack(self, pkt, sender):
        session = self._session_for(pkt)
        if session is None:
            return
        session.acked.add(pkt.node_id)
        session.verified.add(pkt.node_id)
        self.sim.audit(session, "ack", str(pkt.node_id))
        if session.path_number == 1:
            self._finish_session(session)
            return
        self._begin_verify(session, pkt.node_id)

    def _begin_verify(self, session, target):
        session.state = "verifying"
        query = pk.BchQuery(self.node_id, target,
                            tuple(sorted(session.claims)), session.path_number,
                            session.nonce)
        self.sim.audit(session, "verify", str(target))
        if not self._forward_control(query, target):
            session.add_suspect(target)
            self._finish_session(session)
            return
        session.verify_timer = self.sim.schedule_in(
            self.sim.cfg.query_timeout,
            lambda: self._verify_timeout(session, target))

    def _verify_timeout(self, session, target):
        session.add_suspect(target)
        self._finish_session(session)

    def handle_bch_query(self, pkt, sender):
        trusted = tuple(s for s in pkt.subjects if s in self.trusted)
        reply = pk.BchReply(self.node_id, trusted, pkt.asker, pkt.path_number,
                            pkt.random_number)
        self._forward_control(reply, pkt.asker)

    def handle_bch_reply(self, pkt, sender):
        session = self._session_for(pkt, "verifying")
        if session is None:
            return
        session.verify_timer.cancel()
        target = pkt.node_id
        for claimant in sorted(session.claims):
            claimed_nhn, claimed_trust = session.claims[claimant]
            if claimant == target or claimed_nhn != target:
                continue
            if is_malicious(claimed_trust, claimant in pkt.trusted):
                session.add_suspect(claimant)
                self.sim.audit(session, "confirm", str(claimant))
        self._finish_session(session)

    def _finish_session(self, session, aborted=False):
        if session.state == "done":
            return
        session.state = "done"
        session.watchdog.cancel()
        if aborted and not session.blackhole_queue:
            session.verdict = []
            self.sim.audit(session, "abort", "-")
            session.on_done(False)
            return
        condemned, safe = adjudicate(session, self.sim.trusts)
        session.verdict = condemned
        if safe is not None:
            self.sim.audit(session, "safe", str(safe))
            self.sim.metrics.mark_secure_path(
                self.node_id, session.final_destination, session.started_at,
                self.sim.now, session.session_id)
        if condemned:
            self.sim.audit(session, "malicious", format_ids(condemned))
            self.sim.metrics.detected_malicious.update(condemned)
            self._broadcast_alarm(condemned)
        session.on_done(safe is not None)

    def _broadcast_alarm(self, malicious):
        self.next_alarm_id += 1
        alarm = pk.Alarm(self.node_id, self.next_alarm_id,
                         tuple(sorted(malicious)))
        self.seen_alarms.add((self.node_id, alarm.alarm_id))
        self._apply_alarm(alarm)
        self.sim.broadcast(self.node_id, alarm)

    # ---- elimination ----

    def handle_alarm(self, alarm, sender):
        key = (alarm.origin, alarm.alarm_id)
        if key in self.seen_alarms:
            return
        self.seen_alarms.add(key)
        self._apply_alarm(alarm)
        self.sim.broadcast(self.node_id, alarm)

    def _apply_alarm(self, alarm):
        for m in alarm.malicious:
            self.trusted.discard(m)
            self.banned.add(m)
        for entry in self.table.values():
            if (entry.next_hop in self.banned or entry.generator in self.banned
                    or entry.destination in self.banned):
                entry.fresh = False
