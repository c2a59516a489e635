"""Route discovery, reply selection, forwarding, and recovery."""

import itertools
from dataclasses import replace

import pytest

from debhsim import packets as pk
from debhsim.aodv import Node, RoutingEntry, select_best_route
from debhsim.scenario import ScenarioConfig, build_simulation, run_scenario
from debhsim.topology import StaticTopology
from test_golden import _paper30


def _sim(edges, flows=(), groups=(), mode="none", **kw):
    cfg = ScenarioConfig(name="t", edges=tuple(edges),
                         attack_mode=mode, attack_groups=tuple(groups),
                         flows=tuple(flows), connections=max(len(flows), 1),
                         **kw)
    return build_simulation(cfg)


def _cut(sim, u, v):
    """Break the static link u-v from now on."""
    topo = sim.topology
    edges = [(a, b) for a in topo.nodes for b in topo.neighbors(a)
             if a < b and {a, b} != {u, v}]
    sim.topology = StaticTopology(topo.nodes, edges)


def _discover(sim, source, dest, excluded=(), horizon=5.0, **kw):
    got = {}
    sim.nodes[source].discover(dest, tuple(excluded),
                               lambda route, t0: got.update(route=route, t0=t0),
                               lambda d: got.update(failed=d), **kw)
    sim.engine.run_until(sim.engine.now + horizon)
    return got


def _floods_by(sim, node):
    return [line for line in sim.engine.trace
            if line.split(",")[1] == str(node) and ",send_rreq," in line]


def test_discovery_installs_a_route_at_the_source():
    sim = _sim([(1, 2), (2, 3)], trace=True)
    got = _discover(sim, 1, 3)
    assert got["route"].generator == 3
    entry = sim.nodes[1].table[3]
    assert (entry.next_hop, entry.hop_count, entry.generator) == (2, 2, 3)
    assert entry.fresh
    # The consumer gets the installed entry itself.
    assert got["route"] is entry
    # The reply stopped the retries, and the discovery's record is gone.
    assert len(_floods_by(sim, 1)) == 1
    assert sim.nodes[1].pending == {}


def test_relays_install_reverse_paths_during_the_flood():
    sim = _sim([(1, 2), (2, 3), (3, 4)])
    _discover(sim, 1, 4)
    # Every hop learned the way back to the requester.
    assert sim.nodes[2].table[1].next_hop == 1
    assert sim.nodes[3].table[1].next_hop == 2
    assert sim.nodes[4].table[1].next_hop == 3


def test_each_node_rebroadcasts_a_flood_once():
    sim = _sim([(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], trace=True)
    _discover(sim, 1, 5)
    sends = [line for line in sim.engine.trace if ",send_rreq," in line]
    by_node = {}
    for line in sends:
        node = line.split(",")[1]
        by_node[node] = by_node.get(node, 0) + 1
    # 4 hears two copies but forwards only the first.
    assert by_node["4"] == 1


def test_destination_answers_the_first_copy_only():
    sim = _sim([(1, 2), (1, 3), (2, 4), (3, 4)], trace=True)
    got = _discover(sim, 1, 4)
    assert got["route"].generator == 4
    replies = [line for line in sim.engine.trace
               if line.split(",")[1] == "4" and ",send_rrep," in line]
    assert len(replies) == 1


def test_destination_reply_outruns_any_sequence_it_was_told():
    sim = _sim([(1, 2), (2, 3)])
    # The source remembers a stale but inflated sequence number.
    sim.nodes[1].table[3] = RoutingEntry(3, 2, 1, 100, 3, 3, fresh=False)
    got = _discover(sim, 1, 3)
    assert got["route"].dest_seq == 101
    assert sim.nodes[3].seq == 101


def test_selection_prefers_seq_then_hops_then_lower_generator():
    def one(seq, hops, gen):
        return RoutingEntry(9, gen, hops, seq, gen, gen)

    def oracle(a, b):
        if a.dest_seq != b.dest_seq:
            return a if a.dest_seq > b.dest_seq else b
        if a.hop_count != b.hop_count:
            return a if a.hop_count < b.hop_count else b
        return a if a.generator < b.generator else b

    grid = [one(s, h, g) for s in (1, 2, 3) for h in (0, 1, 2) for g in (3, 4)]
    for a, b in itertools.permutations(grid, 2):
        assert select_best_route([a, b]) is oracle(a, b)
    # Among equal keys the earlier candidate wins.
    first, second = one(2, 1, 3), one(2, 1, 3)
    assert select_best_route([first, second]) is first
    assert select_best_route([second, first]) is second


def test_selection_rejects_an_empty_candidate_list():
    with pytest.raises(ValueError):
        select_best_route([])


def test_selected_reply_overwrites_whatever_the_source_had():
    sim = _sim([(1, 2), (2, 3)])
    sim.nodes[1].table[3] = RoutingEntry(3, 2, 1, 999, 7, 3)
    _discover(sim, 1, 3)
    entry = sim.nodes[1].table[3]
    # The old poison is gone and the real destination out-ran its number.
    assert entry.generator == 3
    assert entry.dest_seq == 1000


# Node 1 discovers 3 on the square 1-2-3-4, and the table entry below
# lands after the flood has read the table, as a relayed reply would
# install it: (entry, excluded, banned, whether the entry is kept).  The
# reply arrives through 2 with dest_seq 1.
@pytest.mark.parametrize("entry, excluded, banned, kept", [
    (RoutingEntry(3, 4, 1, 5, 3, 3), (), (), True),
    (RoutingEntry(3, 4, 1, 5, 3, 3), (4,), (), False),
    (RoutingEntry(3, 2, 1, 5, 4, 3), (4,), (), False),
    (RoutingEntry(3, 4, 1, 5, 3, 3), (), (4,), False),
    (RoutingEntry(3, 4, 1, 5, 3, 3, fresh=False), (), (), False),
    (RoutingEntry(3, 4, 1, 1, 3, 3), (), (), False),
], ids=["fresher", "excluded-next-hop", "excluded-generator",
        "banned-next-hop", "stale", "as-fresh"])
def test_a_discovery_never_downgrades_a_fresher_route(entry, excluded,
                                                      banned, kept):
    sim = _sim([(1, 2), (2, 3), (3, 4), (4, 1)])
    node = sim.nodes[1]
    node.banned.update(banned)
    got = {}
    node.discover(3, excluded, lambda route, t0: got.update(route=route),
                  lambda d: got.update(failed=d))
    node.table[3] = entry
    sim.engine.run_until(5.0)
    assert (got["route"] is entry) == kept
    assert node.table[3] is got["route"]
    if not kept:
        assert (got["route"].next_hop, got["route"].dest_seq) == (2, 1)


def test_paper30_seed_78_keeps_the_fresher_route(monkeypatch):
    # Groups ((27, 7), (4, 10)).  At 0.52 s node 13 ends a check's
    # discovery of 27 with replies of dest_seq 1 and 2, the second through
    # 22, while its table holds a fresh seq-4 route straight to 27.  Taking
    # the seq-2 route made 13 and 22 route to each other.
    finish = Node._finish_discovery
    finished = []

    def recording(node, pend):
        finish(node, pend)
        if (node.node_id, pend.destination) == (13, 27):
            route = node.table[27]
            finished.append((node.sim.now, route.next_hop, route.dest_seq))
    monkeypatch.setattr(Node, "_finish_discovery", recording)
    run_scenario(replace(_paper30(78, "debh"), trace=False))
    assert finished[0] == (pytest.approx(0.52), 27, 4)


def test_relay_keeps_the_fresher_entry():
    sim = _sim([(1, 2), (2, 3)])
    node = sim.nodes[2]
    node._maybe_install(9, 3, 2, 5, 9, 9)
    node._maybe_install(9, 1, 1, 4, 9, 9)     # lower seq loses
    assert node.table[9].next_hop == 3
    node._maybe_install(9, 1, 1, 5, 9, 9)     # same seq, fewer hops wins
    assert node.table[9].next_hop == 1
    node._maybe_install(9, 3, 5, 6, 9, 9)     # higher seq wins regardless
    assert node.table[9].next_hop == 3
    node.table[9].fresh = False
    node._maybe_install(9, 1, 9, 1, 9, 9)     # anything beats a stale entry
    assert node.table[9].next_hop == 1


def test_excluded_relay_is_cut_out_of_the_flood():
    sim = _sim([(1, 2), (2, 3)])
    got = _discover(sim, 1, 3, excluded=(2,), horizon=10.0)
    # 3 only hears floods through 2, so exclusion kills the discovery.
    assert got == {"failed": 3}
    assert not sim.nodes[3].seen_floods


def test_discovery_routes_around_an_excluded_relay():
    sim = _sim([(1, 2), (1, 3), (2, 4), (3, 4)])
    got = _discover(sim, 1, 4, excluded=(2,))
    assert "route" in got
    assert sim.nodes[1].table[4].next_hop == 3


def test_banned_generator_replies_are_discarded():
    sim = _sim([(1, 2), (2, 3)])
    sim.nodes[1].banned.add(3)
    got = _discover(sim, 1, 3, horizon=10.0)
    assert got == {"failed": 3}


def test_discovery_retries_before_giving_up():
    sim = _sim([(1, 2)], trace=True)
    fails = []
    sim.nodes[1].discover(9, (), lambda route, t0: fails.append(route),
                          fails.append)
    sim.engine.run_until(60.0)
    assert fails == [9]
    assert len(_floods_by(sim, 1)) == 3  # first try plus two retries
    assert sim.nodes[1].pending == {}


def test_ensure_route_reuses_a_fresh_entry_without_flooding():
    sim = _sim([(1, 2), (2, 3)])
    _discover(sim, 1, 3)
    before = sim.metrics.rreq_count_by_source.get(1, 0)
    got = {}
    sim.nodes[1].ensure_route(3, lambda route, t0: got.update(route=route),
                              lambda d: got.update(failed=d))
    assert got["route"] is sim.nodes[1].table[3]
    assert sim.metrics.rreq_count_by_source.get(1, 0) == before


def test_a_reused_reverse_route_names_its_generator_as_next_hop():
    sim = _sim([(1, 2), (2, 3)])
    _discover(sim, 1, 3)
    # 3 learned its way back to 1 from 1's flood, not from any reply.
    got = {}
    sim.nodes[3].ensure_route(1, lambda route, t0: got.update(route=route),
                              lambda d: got.update(failed=d))
    route = got["route"]
    assert route is sim.nodes[3].table[1]
    assert (route.next_hop, route.generator, route.generator_nhn,
            route.generator_trust) == (2, 1, 1, False)
    assert sim.metrics.rreq_count_by_source.get(3, 0) == 0


@pytest.mark.xfail(strict=True, reason="discover hands a running discovery "
                   "to its newest caller and drops the earlier one")
def test_a_discovery_answers_every_caller():
    sim = _sim([(1, 2), (2, 3)])
    got = []
    for caller in ("first", "second"):
        sim.nodes[1].discover(
            3, (), lambda route, t0, caller=caller: got.append(caller),
            got.append)
    sim.engine.run_until(5.0)
    assert got == ["first", "second"]


def test_a_relay_drops_a_reply_to_a_flood_it_never_saw():
    sim = _sim([(1, 2), (2, 3)], trace=True)
    sim.nodes[2].receive(pk.Rrep(1, 3, 7, 5, 0, 3, 3, True), 3)
    sim.engine.run_until(1.0)
    assert 3 not in sim.nodes[2].table
    assert not [line for line in sim.engine.trace if ",send_rrep," in line]


@pytest.mark.parametrize("make", [
    lambda hops: pk.Data(1, 3, hops),
    lambda hops: pk.Ack(3, 0, hops),
], ids=["Data", "Ack"])
def test_a_relay_counts_hops_and_drops_a_packet_at_the_bound(make):
    # On the line 1-2-3 no path without a loop is longer than 2 hops.
    sim = _sim([(1, 2), (2, 3)])
    sim.nodes[2].table[3] = RoutingEntry(3, 3, 1, 1, 3, 3)
    got = {1: [], 3: []}
    for n in got:
        sim.nodes[n].receive = lambda pkt, sender, n=n: got[n].append(pkt)
    sim.nodes[2].receive(make(1), 1)
    sim.nodes[2].receive(make(2), 1)
    sim.engine.run_until(1.0)
    assert sim.max_hops == 2
    # The packet at the bound goes silently: no report back to 1.
    assert got == {1: [], 3: [make(2)]}


def test_the_source_drops_a_reply_to_a_superseded_flood():
    sim = _sim([(1, 2), (2, 3)])
    node = sim.nodes[1]
    node.discover(3, (), lambda route, t0: None, lambda d: None)
    pend = node.pending[3]
    stale = pend.broadcast_id
    node._discovery_timeout(pend)           # the retry floods anew
    assert pend.broadcast_id != stale
    node.receive(pk.Rrep(1, 3, stale, 5, 0, 3, 3, True), 2)
    assert pend.candidates == []
    node.receive(pk.Rrep(1, 3, pend.broadcast_id, 5, 0, 3, 3, True), 2)
    assert [(r.next_hop, r.hop_count, r.generator)
            for r in pend.candidates] == [(2, 1, 3)]


@pytest.mark.parametrize("generator, sender", [(4, 2), (3, 4)],
                         ids=["generator", "sender"])
def test_the_source_drops_a_reply_from_an_excluded_node(generator, sender):
    sim = _sim([(1, 2), (2, 3), (1, 4), (4, 3)])
    node = sim.nodes[1]
    node.discover(3, (4,), lambda route, t0: None, lambda d: None)
    pend = node.pending[3]
    node.receive(pk.Rrep(1, 3, pend.broadcast_id, 5, 0, generator, generator,
                         True), sender)
    assert pend.candidates == []


def test_cached_reply_answers_for_a_known_destination():
    sim = _sim([(1, 2), (2, 3), (2, 4)], cache_reply=True)
    _discover(sim, 1, 3)
    # 2 now holds a fresh route to 3 and answers 4's discovery itself.
    got = _discover(sim, 4, 3)
    assert got["route"].generator == 2
    assert sim.nodes[3].seen_floods.get((4, 1)) is None
    # A check's re-discovery is the destination's to answer.
    got = _discover(sim, 4, 3, dest_only=True)
    assert got["route"].generator == 3


def test_data_flows_along_the_installed_route():
    sim = _sim([(1, 2), (2, 3)], flows=((1, 3, 0.0),), defense="none")
    sim.run()
    assert sim.metrics.total_sent() == 10
    assert sim.metrics.total_delivered() == 10


def test_flow_recovers_when_a_link_breaks():
    sim = _sim([(1, 2), (2, 5), (1, 3), (3, 5)], flows=((1, 5, 0.0),),
               defense="none")

    sim.engine.schedule(2.5, lambda: _cut(sim, 2, 5))
    sim.run()
    # One packet dies at the break; the rest re-route through 3.
    assert sim.metrics.total_sent() == 10
    assert sim.metrics.total_delivered() == 9
    assert sim.flows[0].state == "done"
    assert not sim.nodes[1].table[5].fresh or sim.nodes[1].table[5].next_hop == 3


def test_route_error_marks_the_sources_entry_stale():
    # A report without a nonce is the data plane's: it touches no check.
    sim, session, _ = _checked_line()
    source = sim.nodes[1]
    lost = []
    sim.flow_route_lost = lambda *pair: lost.append(pair)
    before = _check_state(sim, session)
    source.receive(pk.NoRouteReport(5, 1), 2)
    assert not source.table[5].fresh
    assert lost == [(1, 5)]
    assert _check_state(sim, session) == before


def _report_sink(sim, *nodes):
    """Collect (time, receiving node, report) for suspect reports."""
    reports = []
    for n in nodes:
        sim.nodes[n].handle_suspect_report = (
            lambda pkt, sender, n=n: reports.append((sim.now, n, pkt)))
    return reports


def test_mismatched_probe_reply_marks_the_hop_suspect():
    sim = _sim([(1, 2), (2, 3), (2, 4)])
    node = sim.nodes[2]
    node.table[1] = RoutingEntry(1, 1, 1, 1, 1, 1)
    node.table[4] = RoutingEntry(4, 4, 1, 1, 4, 4)
    reports = _report_sink(sim, 1, 4)
    timeouts = []
    timer = sim.engine.schedule_in(1.0, lambda: timeouts.append(sim.now))
    node.probe_timers[555] = (pk.DataControl(3, 555, 1, 5), timer)
    # The echo carries nonce 777; the probe sent nonce 555.
    node.handle_probe_reply(pk.DataControlReply(777), 3)
    assert node.probe_timers == {}
    assert 3 not in node.trusted
    sim.engine.run_until(sim.now + 2.0)
    # The mismatch took the probe's place: its timeout never runs.
    assert timeouts == []
    assert [(n, pkt) for _, n, pkt in reports] == [
        (1, pk.SuspectReport(2, 3, 1, 555, None, False, hop_count=1))]


def test_honest_node_reports_its_actual_next_hop():
    sim = _sim([(1, 2), (2, 3), (3, 4)], trace=True)
    _discover(sim, 2, 4)
    node = sim.nodes[2]
    node.trusted.add(3)
    node.handle_nhn_query(pk.NhnQuery(4, random_number=9), 1)
    sim.engine.run_until(sim.engine.now + 1.0)
    sends = [line for line in sim.engine.trace
             if line.split(",")[1] == "2" and ",send_nhnreply," in line]
    assert len(sends) == 1


def test_alarm_bans_nodes_and_invalidates_their_routes():
    sim = _sim([(1, 2), (2, 3), (2, 4)])
    _discover(sim, 1, 3)
    assert sim.nodes[1].table[3].fresh
    alarm = pk.Alarm(origin=4, broadcast_id=1, malicious=(3,))
    sim.nodes[1].receive(alarm, 2)
    assert 3 in sim.nodes[1].banned
    assert not sim.nodes[1].table[3].fresh
    assert 3 not in sim.nodes[1].trusted


def test_alarm_floods_once_per_id():
    sim = _sim([(1, 2), (2, 3)], trace=True)
    alarm = pk.Alarm(origin=3, broadcast_id=7, malicious=())
    # Two copies come due at 1 at one instant; the radio drops the second.
    sim.broadcast(2, alarm)
    sim.broadcast(2, alarm)
    sim.engine.run_until(1.0)
    sends = [line for line in sim.engine.trace
             if line.split(",")[1] == "1" and ",send_alarm," in line]
    assert len(sends) == 1


def test_a_repeated_suspect_report_for_a_resolved_path_is_ignored():
    sim = _sim([(1, 2), (2, 3), (3, 4)], defense="debh")
    route = _discover(sim, 1, 4)["route"]
    node = sim.nodes[1]
    session = node.start_check(4, route, sim.now, lambda safe: None)
    floods = sim.metrics.rreq_count_by_source[1]
    report = pk.SuspectReport(1, 2, 1, session.nonce, 3, True)
    node.receive(report, 1)
    node.receive(report, 1)
    events = [line.split(",")[3] for line in sim.audit_lines]
    assert events.count("reroute") == 1
    assert session.path_number == 2
    assert sim.metrics.rreq_count_by_source[1] == floods + 1


def _silent_hop(answer):
    """Line 1-2-3-4: node 2 probes 3 for a hand-made check by source 1,
    nonce 4242; 3 drops the probe and answers the next-hop query
    as answer says."""
    sim = _sim([(1, 2), (2, 3), (3, 4)])
    _discover(sim, 1, 4)
    hop = sim.nodes[3]

    def drop_probe(pkt, sender):
        if answer == "refused":
            _cut(sim, 2, 3)

    hop.handle_data_control = drop_probe
    if answer == "silent":
        hop.handle_nhn_query = lambda pkt, sender: None
    reports = _report_sink(sim, 1)
    t0 = sim.now
    sim.nodes[2]._continue_chain(1, 4242, 4)
    sim.engine.run_until(t0 + 2.0)
    return sim, t0, reports


# After the probe times out, the report waits for the query to time out,
# for the reply's round trip, or for nothing when the query is refused.
@pytest.mark.parametrize("answer, claims, wait", [
    ("silent", (None, False), lambda cfg: cfg.query_timeout),
    ("honest", (4, False), lambda cfg: 2 * cfg.hop_latency),
    ("refused", (None, False), lambda cfg: 0.0),
], ids=["query-times-out", "nhn-reply", "query-refused"])
def test_a_silent_hop_is_reported_once_by_its_prober(answer, claims, wait):
    sim, t0, reports = _silent_hop(answer)
    cfg = sim.cfg
    assert [(n, pkt) for _, n, pkt in reports] == [
        (1, pk.SuspectReport(2, 3, 1, 4242, *claims, hop_count=1))]
    sent = t0 + cfg.reply_timeout + wait(cfg)
    assert reports[0][0] == pytest.approx(sent + cfg.hop_latency)
    prober = sim.nodes[2]
    assert 3 not in prober.trusted
    assert prober.probe_timers == {} and prober.pending_nhn == {}


def test_a_chain_that_comes_back_supersedes_the_probe_it_sent():
    """Line 1-2-3-4: node 2 probes 3 twice for one nonce, as a chain that
    runs through 2 twice would; 3 drops the first probe and answers the
    second.  The first probe's reply timer must not suspect 3."""
    sim = _sim([(1, 2), (2, 3), (3, 4)])
    _discover(sim, 1, 4)
    hop = sim.nodes[3]
    answer = hop.handle_data_control
    hop.handle_data_control = lambda pkt, sender: setattr(
        hop, "handle_data_control", answer)
    reports = _report_sink(sim, 1)
    prober, t0, cfg = sim.nodes[2], sim.now, sim.cfg
    prober._continue_chain(1, 4242, 4)
    sim.engine.schedule(t0 + cfg.reply_timeout / 2,
                        lambda: prober._continue_chain(1, 4242, 4))
    sim.engine.run_until(t0 + 2 * cfg.reply_timeout + cfg.query_timeout)
    assert reports == []
    assert 3 in prober.trusted
    assert prober.probe_timers == {} and prober.pending_nhn == {}


def _checked_line():
    """Node 1 checks its route on line 1-2-3-4-5."""
    sim = _sim([(1, 2), (2, 3), (3, 4), (4, 5)], defense="debh")
    route = _discover(sim, 1, 5)["route"]
    done = []
    session = sim.nodes[1].start_check(5, route, sim.now, done.append)
    return sim, session, done


def test_a_suspect_report_for_another_nodes_session_is_ignored():
    sim, session, _ = _checked_line()
    rows = len(sim.audit_lines)
    floods = dict(sim.metrics.rreq_count_by_source)
    sim.nodes[5].receive(pk.SuspectReport(3, 2, 5, session.nonce, 3, True),
                         4)
    assert session.path_number == 1
    assert session.blackhole_queue == []
    assert sim.audit_lines[rows:] == []
    assert dict(sim.metrics.rreq_count_by_source) == floods


# A silent target and an unroutable one fail the verify the same way.
@pytest.mark.parametrize("failure", ["silent", "unroutable"])
def test_a_verify_failure_takes_one_path(failure):
    sim, session, done = _checked_line()
    source = sim.nodes[1]
    # Walk the path but hold back the Ack, so the test starts the verify.
    source.handle_ack = lambda pkt, sender: None
    sim.engine.run_until(sim.now + 1.0)
    if failure == "silent":
        sim.nodes[5].handle_bch_query = lambda pkt, sender: None
    else:
        source.table[5].fresh = False
    rows = len(sim.audit_lines)
    source._begin_verify(session)
    sim.engine.run_until(sim.now + sim.cfg.query_timeout)
    assert session.state == "done"
    assert session.blackhole_queue == [5]
    assert [line.split(",", 1)[1] for line in sim.audit_lines[rows:]] == [
        "1,1,verify,5,-,5", "1,1,malicious,5,5,5"]
    assert done == [False]


def test_a_bch_reply_for_another_nodes_session_is_ignored():
    sim, session, done = _checked_line()
    # 5 stays silent, so only the verify timeout can end the check.
    sim.nodes[5].handle_bch_query = lambda pkt, sender: None
    sim.nodes[1]._begin_verify(session)
    rows = len(sim.audit_lines)
    sim.nodes[5].receive(pk.BchReply((), 5, session.nonce), 4)
    assert session.state == "verifying"
    assert sim.audit_lines[rows:] == []
    assert done == []
    # The verify timer still runs and blames the silent target.
    sim.engine.run_until(sim.now + sim.cfg.query_timeout)
    assert session.state == "done"
    assert session.blackhole_queue == [5]


def _check_state(sim, session):
    """What a refused packet must leave as it was."""
    source = sim.nodes[session.source]
    return (len(sim.audit_lines), session.state, session.path_number,
            session.nonce, session.current_target, set(session.acked),
            set(session.verified), list(session.blackhole_queue),
            dict(source.pending), session.watchdog)


def test_leaving_a_path_retires_its_nonce():
    # Diamond 1-2-4, 1-3-4: a suspect on one branch leaves the other.
    sim = _sim([(1, 2), (2, 4), (1, 3), (3, 4)], defense="debh")
    route = _discover(sim, 1, 4)["route"]
    source = sim.nodes[1]
    session = source.start_check(4, route, sim.now, lambda safe: None)
    old = session.nonce
    source.receive(pk.SuspectReport(1, route.next_hop, 1, old, 4, True), 1)
    assert (session.path_number, session.nonce) == (2, None)
    before = _check_state(sim, session)
    # The path left still carries its nonce; nothing of it may answer.
    source.receive(pk.Ack(1, old), 1)
    source.receive(pk.NoRouteReport(4, 1, old), 1)
    assert _check_state(sim, session) == before
    # The rediscovery returns, and the next path draws a nonce of its own.
    sim.engine.run_until(sim.now + 2 * sim.cfg.selection_window)
    assert session.nonce not in (None, old)
    assert sim.sessions[old] is sim.sessions[session.nonce] is session
    events = [line.split(",")[3] for line in sim.audit_lines]
    assert events.count("route") == 2
    assert events.count("ack") == 1


def test_the_source_verifies_its_own_target():
    sim, session, _ = _checked_line()
    session.path_number = 2       # as if a reroute had kept target 5
    got = []
    sim.nodes[5].handle_bch_query = lambda pkt, sender: got.append(pkt)
    rows = len(sim.audit_lines)
    # An Ack names no sender, so whoever sends it through 3 cannot pick
    # the node the source verifies.
    sim.nodes[3].receive(pk.Ack(1, session.nonce), 4)
    sim.engine.run_until(sim.now + 8 * sim.cfg.hop_latency)
    assert [pkt.addressee for pkt in got] == [5]
    # The walk's own probes go on; its Ack comes too late to count.
    assert [line.split(",", 1)[1] for line in sim.audit_lines[rows:]
            if ",probe," not in line] == ["1,2,ack,5,-,5", "1,2,verify,5,-,5"]


def test_a_check_no_route_report_leaves_the_table_and_flows_alone():
    sim, session, _ = _checked_line()
    source = sim.nodes[1]
    lost = []
    sim.flow_route_lost = lambda *pair: lost.append(pair)
    entry = source.table[5]
    rows = len(sim.audit_lines)
    source.receive(pk.NoRouteReport(5, 1, session.nonce), 1)
    assert [line.split(",")[3:5] for line in sim.audit_lines[rows:]] == [
        ["no_route", "5"]]
    assert source.table[5] is entry and entry.fresh
    assert lost == []
