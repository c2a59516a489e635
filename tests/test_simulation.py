"""The assembled run: radio facade, audit stream, flows end to end."""

import collections
import sys
from dataclasses import replace

import pytest

from debhsim import packets as pk
from debhsim import simulation
from debhsim.debh import AUDIT_HEADER
from debhsim.engine import Simulator
from debhsim.scenario import (ScenarioConfig, build_simulation, run_scenario,
                              single_scenario, trust_decay_scenario,
                              write_outputs)
from debhsim.topology import GeometricTopology
from hops import paper30_run
from loss import lose_nth
from test_golden import GOLDEN, _benign, _digests, _paper30


def _sim(edges, flows=(), trace=False, **kw):
    cfg = ScenarioConfig(name="t", edges=tuple(edges),
                         flows=tuple(flows), connections=max(len(flows), 1),
                         trace=trace, **kw)
    return build_simulation(cfg)


def test_unicast_needs_a_link_unless_forced():
    sim = _sim([(1, 2), (3, 4)])
    hits = []
    sim.nodes[3].receive = lambda pkt, sender: hits.append((pkt, sender))
    pkt = pk.Ack(3, 0)
    assert not sim.unicast(1, 3, pkt)
    assert sim.unicast(1, 3, pkt, force=True)
    sim.engine.run_until(1.0)
    assert hits == [(pkt, 1)]


def test_unicast_delivers_after_one_hop_latency():
    sim = _sim([(1, 2)])
    stamps = []
    sim.nodes[2].receive = lambda pkt, sender: stamps.append(sim.now)
    sim.unicast(1, 2, pk.Ack(2, 0))
    sim.engine.run_until(1.0)
    assert stamps == [sim.cfg.hop_latency]


def test_broadcast_reaches_every_neighbor():
    sim = _sim([(1, 2), (1, 3), (1, 4), (2, 3)])
    heard = []
    for n in (2, 3, 4):
        sim.nodes[n].receive = lambda pkt, sender, n=n: heard.append(n)
    sim.broadcast(1, pk.Alarm(1, 1, ()))
    sim.engine.run_until(1.0)
    assert heard == [2, 3, 4]


def _count_handling(sim, name):
    """Wrap each node's handler called name on the instance; returns
    node id -> the senders of the copies it handled, in order."""
    handled = collections.defaultdict(list)
    for n, node in sim.nodes.items():
        def counted(pkt, sender, n=n, handle=getattr(node, name)):
            handled[n].append(sender)
            handle(pkt, sender)
        setattr(node, name, counted)
    return handled


def test_a_repeat_route_request_reaches_no_handler_at_an_honest_node():
    # Attacker 6 hears 2, 3 and 4; every other node hears at least two.
    sim = _sim([(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (2, 6), (3, 6),
                (4, 6)], trace=True, attack_mode="single",
               attack_groups=((6,),))
    handled = _count_handling(sim, "handle_rreq")
    sim.nodes[1].discover(4, (), lambda *a: None, lambda *a: None)
    # Before the selection window closes, every event is a reception.
    sim.engine.run_until(0.1)
    trace = sim.engine.trace
    copies = collections.Counter(line.split(",")[1] for line in trace
                                 if ",recv_rreq," in line)
    # The origin already holds its own flood; each other honest node
    # handles one copy of it however many it hears.
    assert all(copies[str(n)] > 1 for n in (1, 2, 3, 4, 6))
    assert {n: len(s) for n, s in handled.items()} == {2: 1, 3: 1, 4: 1,
                                                        6: copies["6"]}
    # Every copy is still one processed event and one trace line.
    fanouts = sum(int(line.rsplit("=", 1)[1]) for line in trace
                  if ",send_rreq," in line)
    assert sum(copies.values()) == fanouts
    assert sim.engine.processed == sum(",recv_" in line for line in trace)


@pytest.mark.parametrize("excluded, banned, senders", [
    ((), (), [2]),
    ((2,), (), [2, 3]),
    ((), (2,), [2, 3]),
], ids=["same-instant-repeat", "excluded-sender", "banned-sender"])
def test_the_first_allowed_copy_of_a_flood_is_handled(excluded, banned,
                                                      senders):
    # Copies from 2 and from 3 come due at 4 at one instant, 2's first.
    # A repeat is dropped when it is due, not when it was sent; a copy
    # refused for its sender does not mark the flood seen.
    sim = _sim([(1, 2), (1, 3), (2, 4), (3, 4)])
    sim.nodes[4].banned.update(banned)
    handled = _count_handling(sim, "handle_rreq")
    sim.nodes[1].discover(4, excluded, lambda *a: None, lambda *a: None)
    sim.engine.run_until(0.1)
    assert handled[4] == senders
    assert sim.nodes[4].table[1].next_hop == senders[-1]


def test_a_repeat_alarm_reaches_no_handler_at_any_node():
    # Attackers 5 and 6 are a clique; every node hears at least two.
    sim = _sim([(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 6), (4, 5),
                (4, 6), (5, 6)], trace=True, attack_mode="cooperative",
               attack_groups=((5, 6),))
    handled = _count_handling(sim, "handle_alarm")
    sim.nodes[1]._broadcast_alarm({5, 6})
    sim.engine.run_until(1.0)
    trace = sim.engine.trace
    copies = collections.Counter(line.split(",")[1] for line in trace
                                 if ",recv_alarm," in line)
    assert all(copies[str(n)] > 1 for n in sim.nodes)
    # The origin handles its own fresh alarm, every other node, honest
    # or not, its first copy.
    assert {n: len(s) for n, s in handled.items()} == {
        n: 1 for n in sim.nodes}
    assert [n for n, node in sim.nodes.items()
            if node.banned == {5, 6}] == [1, 2, 3, 4]
    # Every copy is still one processed event and one trace line.
    fanouts = sum(int(line.rsplit("=", 1)[1]) for line in trace
                  if ",send_alarm," in line)
    assert sum(copies.values()) == fanouts
    assert sim.engine.processed == sum(",recv_" in line for line in trace)


def test_an_alarm_after_a_discovery_is_a_new_flood():
    # Route requests and alarms draw their ids from one counter: an alarm
    # id that repeated the origin's last flood would be dropped as seen.
    sim = _sim([(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    origin = sim.nodes[1]
    origin.discover(4, (), lambda *a: None, lambda *a: None)
    sim.engine.run_until(1.0)
    assert all(n.seen_floods for n in sim.nodes.values())
    origin._broadcast_alarm({3})
    sim.engine.run_until(2.0)
    assert {n: node.banned for n, node in sim.nodes.items()} == {
        n: {3} for n in sim.nodes}


def _recorded_benign60(trace):
    """The benign60-s1 golden run, with the engine's schedule,
    schedule_each and log wrapped on the instance.  Returns the finished
    simulation, the (kind, detail) of every scheduled entry and the
    caller of every log."""
    sim = build_simulation(replace(_benign(60, 20), trace=trace))
    engine = sim.engine
    scheduled, logged = [], []
    schedule, log = engine.schedule, engine.log
    schedule_each = engine.schedule_each

    def recording_schedule(fire_time, action, node=None, kind="", detail=""):
        scheduled.append((kind, detail))
        return schedule(fire_time, action, node, kind, detail)

    def recording_schedule_each(fire_time, receivers, action, kind="",
                                detail=""):
        scheduled.append((kind, detail))
        return schedule_each(fire_time, receivers, action, kind, detail)

    def recording_log(node, kind, detail=""):
        logged.append(sys._getframe(1).f_code.co_name)
        return log(node, kind, detail)

    engine.schedule, engine.log = recording_schedule, recording_log
    engine.schedule_each = recording_schedule_each
    sim.run()
    return sim, scheduled, logged


def test_untraced_sends_build_no_trace_strings():
    sim, scheduled, logged = _recorded_benign60(trace=False)
    # Over receptions: a broadcast is one scheduled entry however many
    # neighbours receive it.
    assert sim.engine.processed > 5000 and sim.metrics.total_delivered() > 0
    # Movement steps pass the constant "move"; no send formats anything.
    assert {kind for kind, _ in scheduled} <= {"", "move"}
    assert {detail for _, detail in scheduled} == {""}
    assert logged == []
    assert sim.engine.trace is None


def test_traced_sends_log_and_keep_the_golden_outputs(tmp_path):
    sim, scheduled, logged = _recorded_benign60(trace=True)
    kinds = {kind for kind, _ in scheduled}
    assert {"recv_rreq", "recv_rrep", "recv_data", "move"} <= kinds
    assert {"broadcast", "unicast"} <= set(logged)
    assert sim.engine.trace
    write_outputs(sim, str(tmp_path))
    assert _digests(tmp_path) == GOLDEN["benign60-s1"]


def test_flows_at_both_zeros_keep_the_sign_of_their_send_time():
    # 0.0 == -0.0, yet the trace prints them apart: a flow started at
    # -0.0 writes its sends as -0.0000.
    sim = _sim([(1, 2), (2, 3)], flows=((1, 3, 0.0), (2, 3, -0.0)),
               trace=True)
    sim.run()
    zero = [line for line in sim.engine.trace
            if line.startswith(("0.0000,", "-0.0000,"))]
    assert zero == ["0.0000,1,send_rreq,fanout=1",
                    "-0.0000,2,send_rreq,fanout=2"]


def test_two_runs_of_one_config_draw_the_same_nonces():
    cfg = single_scenario(seed=42)
    a, b = run_scenario(cfg), run_scenario(cfg)
    assert len(a.sessions) > 1
    assert list(a.sessions) == list(b.sessions)
    # The nonces come from the run's own stream, seeded by the config.
    other = run_scenario(replace(cfg, seed=43))
    assert list(other.sessions) != list(a.sessions)


def test_session_ids_are_unique_and_ordered():
    sim = run_scenario(_paper30(0, "debh"))
    ids = [s.session_id for s in sim.sessions_all]
    assert len(ids) > 3
    assert ids == list(range(1, len(ids) + 1))
    # A session that left a path and never reached the next has no
    # nonce; every other is found under the nonce of its current path.
    between = [s for s in sim.sessions_all if s.nonce is None]
    assert between and all(s.path_number > 1 for s in between)
    assert all(sim.sessions[s.nonce] is s
               for s in sim.sessions_all if s.nonce is not None)


def test_audit_lines_match_the_header_shape():
    sim = run_scenario(single_scenario(seed=7))
    assert sim.audit_lines
    width = len(AUDIT_HEADER.split(","))
    for line in sim.audit_lines:
        parts = line.split(",")
        assert len(parts) == width
        float(parts[0])  # leading field is a timestamp
        assert parts[1] == "1"


def test_honest_network_delivers_everything():
    sim = _sim([(1, 2), (2, 3), (3, 4)], flows=((1, 4, 0.0),))
    sim.run()
    assert sim.metrics.total_sent() == 10
    assert sim.metrics.total_delivered() == 10
    assert sim.flows[0].state == "done"
    # The clean path was checked once and passed first time.
    (session,) = sim.sessions_all
    assert session.path_number == 1
    assert sim.metrics.detected_malicious == set()


def test_flow_gives_up_after_repeated_failures():
    sim = _sim([(1, 2), (3, 4)], flows=((1, 4, 0.0),), duration_s=120.0)
    sim.run()
    assert sim.flows[0].state == "failed"
    assert sim.metrics.total_sent() == 0


@pytest.mark.xfail(strict=True, reason="Flow.route_lost leaves the old "
                   "loop's next send queued, so a quick re-route runs two "
                   "send loops")
def test_a_resumed_flow_sends_at_its_rate():
    # Seed 0: flow 6>1 loses its route at 2.28 s and resumes at 2.56 s,
    # before the old loop's send at 2.78 s has run.
    sim = build_simulation(replace(_paper30(0, "debh"), trace=False))
    stretches = {}
    for flow in sim.flows:
        def wrap(flow=flow, send=flow._send_next, begin=flow._begin_sending):
            runs = stretches.setdefault((flow.source, flow.destination), [])

            def begin_sending():
                runs.append([])
                begin()

            def send_next():
                sent = flow.sent
                send()
                if flow.sent > sent:
                    runs[-1].append(sim.now)
            flow._begin_sending, flow._send_next = begin_sending, send_next
        wrap()
    sim.run()
    assert len(stretches[(6, 1)]) == 2
    gap = 1.0 / sim.cfg.rate_pps
    for runs in stretches.values():
        for sends in runs:
            for a, b in zip(sends, sends[1:]):
                assert b - a == pytest.approx(gap)


@pytest.mark.xfail(strict=True, reason="a check over a reused route gets no "
                   "ack: no flood ran, so the destination may have no route "
                   "back to the source")
def test_a_check_over_a_reused_route_is_acked():
    # 3 reuses the way back to 1 that it learned from 1's own flood; 1
    # never heard a request from 3, so today every check of 3>1 waits for
    # its watchdog and aborts, at 31, 61 and 91 s.
    sim = _sim([(1, 2), (1, 3), (1, 4)], flows=((1, 2, 0.0), (3, 1, 1.0)),
               duration_s=120.0, seed=0)
    sim.run()
    assert not [line for line in sim.audit_lines if ",abort," in line]
    assert sim.metrics.delivered_by_source[3] == 10


# Paper30 runs in which two nodes passed one packet back and forth before
# relays dropped a packet past node count - 1 hops.
@pytest.mark.parametrize("seed, defense, kind", [
    # Groups ((13, 25), (30, 27)): honest 16 and attacker 25 passed two of
    # 22's replies to 2 back and forth 9,828 times, and a hop count
    # reached 4,966.
    (25, "none", pk.Rrep),
    # One Ack between 17 and 20, 787 sends.
    (40, "debh", pk.Ack),
    # Between 7 and 22, 1,345 sends.
    (78, "debh", pk.SuspectReport),
    # 2,950 sends.
    (107, "none", pk.NoRouteReport),
], ids=lambda v: getattr(v, "__name__", v))
def test_no_packet_is_relayed_past_the_network_diameter(seed, defense, kind):
    # A simple path in a network of n nodes has at most n - 1 hops, so
    # only a loop can carry a packet further.
    sim, most = paper30_run(seed, defense)
    assert 0 < most[kind] <= len(sim.nodes) - 1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="honest 4 and "
                   "10 route to each other and pass one check's OrdinalProbe "
                   "chain back and forth 2,999 times from 0.88 s to 30.86 s; "
                   "a probe chain builds a new packet at each hop, so the "
                   "relay hop bound does not reach it (ROADMAP item 12)")
def test_no_probe_chain_circles():
    # Paper30 seed 95, cache_reply off.  One walk of a path without a loop
    # probes at most node count - 1 hops.
    sim = build_simulation(replace(_paper30(95, "debh"), trace=False))
    unicast = sim.unicast
    probes = collections.Counter()

    def recording(sender, to, pkt, force=False):
        if type(pkt) in (pk.OrdinalProbe, pk.DataControl):
            probes[pkt.random_number] += 1
        return unicast(sender, to, pkt, force)
    sim.unicast = recording
    sim.run()
    assert probes
    assert max(probes.values()) <= len(sim.nodes) - 1


_SILENCE_CONDEMNS = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="a verify timeout adds its "
    "target as a suspect, so one lost query or reply condemns honest 4 and "
    "0 of 10 packets arrive")


@pytest.mark.parametrize("kind", [
    pk.Ack, pk.SuspectReport, pk.NhnQuery, pk.NhnReply,
    pytest.param(pk.BchQuery, marks=_SILENCE_CONDEMNS),
    pytest.param(pk.BchReply, marks=_SILENCE_CONDEMNS),
], ids=lambda kind: kind.__name__)
def test_a_lost_control_packet_condemns_only_the_attacker(monkeypatch, kind):
    # Probes and their echoes stay out: the model makes that handshake
    # atomic.  A lost NhnQuery is the only way this run reaches the
    # prober's query timeout.
    lost = lose_nth(monkeypatch, kind)
    sim = run_scenario(single_scenario(0))
    assert len(lost) == 1
    assert sim.metrics.detected_malicious == {3}
    assert {s.state for s in sim.sessions_all} == {"done"}
    assert sim.metrics.total_delivered() == 10


def test_route_is_reused_across_conversations():
    sim = run_scenario(trust_decay_scenario())
    # Two flows, one discovery: the second ride shares the first route.
    assert sim.metrics.rreq_count_by_source == {1: 1}
    assert len(sim.sessions_all) == 2
    assert sim.metrics.total_delivered() == 20


def test_second_check_skips_probes_on_a_fully_trusted_path():
    sim = run_scenario(trust_decay_scenario())
    first, second = sim.sessions_all
    assert first.dcp_count > 0
    assert second.dcp_count == 0


def test_session_rows_collect_after_the_run():
    sim = run_scenario(single_scenario(seed=7))
    (session,) = sim.sessions_all
    assert (session.source, session.final_destination) == (1, 4)
    assert session.state == "done"
    assert sim.metrics.detected_malicious == {3}


def test_every_radio_query_reads_the_clock(monkeypatch):
    # An attacked mobile run: forger choice once asked t=0 hop counts
    # while the clock was ahead (27 such calls on this seed).
    engines, stale, calls = [], [], []

    def recording_simulator(*args, **kwargs):
        engines.append(Simulator(*args, **kwargs))
        return engines[-1]
    monkeypatch.setattr(simulation, "Simulator", recording_simulator)
    for name in ("neighbors", "has_link"):
        def checked(topo, *args, _query=getattr(GeometricTopology, name)):
            calls.append(args)
            if args[-1] != engines[-1].now:
                stale.append((args, engines[-1].now))
            return _query(topo, *args)
        monkeypatch.setattr(GeometricTopology, name, checked)
    sim = build_simulation(replace(_paper30(31, "debh"), trace=False))
    sim.run()
    assert len(calls) > 100 and sim.metrics.forged_rreps > 0
    assert stale == []


def test_nodes_without_a_pause_keep_moving():
    # With pause_s = 0 an arrival's pause ends at once, at the same
    # instant; the node must still set off on its next leg.
    sim = build_simulation(ScenarioConfig(name="t", pause_s=0.0,
                                          connections=0))
    steps = {n: 0 for n in sim.topology.nodes}
    step = sim.topology.step

    def counted(node, now, rng):
        steps[node] += 1
        return step(node, now, rng)
    sim.topology.step = counted
    sim.run()
    assert min(steps.values()) > 2
