"""Route discovery, reply selection, forwarding, and recovery."""

import itertools

import pytest

from debhsim import packets as pk
from debhsim.aodv import RoutingEntry, select_best_rrep
from debhsim.scenario import ScenarioConfig, build_simulation


def _sim(edges, flows=(), groups=(), mode="none", **kw):
    nodes = tuple(sorted({n for e in edges for n in e}))
    cfg = ScenarioConfig(name="t", nodes=nodes, edges=tuple(edges),
                         attack_mode=mode, attack_groups=tuple(groups),
                         flows=tuple(flows), connections=max(len(flows), 1),
                         mobility=False, **kw)
    return build_simulation(cfg)


def _discover(sim, source, dest, excluded=(), horizon=5.0, **kw):
    got = {}
    sim.nodes[source].discover(dest, tuple(excluded),
                               lambda rrep, t0: got.update(rrep=rrep, t0=t0),
                               lambda d: got.update(failed=d), **kw)
    sim.engine.run_until(sim.engine.now + horizon)
    return got


def test_discovery_installs_a_route_at_the_source():
    sim = _sim([(1, 2), (2, 3)])
    got = _discover(sim, 1, 3)
    assert got["rrep"].generator == 3
    entry = sim.nodes[1].table[3]
    assert (entry.next_hop, entry.hop_count, entry.generator) == (2, 2, 3)
    assert entry.fresh


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
    assert got["rrep"].generator == 4
    replies = [line for line in sim.engine.trace
               if line.split(",")[1] == "4" and ",send_rrep," in line]
    assert len(replies) == 1


def test_destination_reply_outruns_any_sequence_it_was_told():
    sim = _sim([(1, 2), (2, 3)])
    # The source remembers a stale but inflated sequence number.
    sim.nodes[1].table[3] = RoutingEntry(3, 2, 1, 100, 3, fresh=False)
    got = _discover(sim, 1, 3)
    assert got["rrep"].dest_seq == 101
    assert sim.nodes[3].seq == 101


def test_selection_prefers_seq_then_hops_then_lower_generator():
    def one(seq, hops, gen):
        return pk.Rrep(1, 9, 1, seq, hops, gen, gen)

    def oracle(a, b):
        if a.dest_seq != b.dest_seq:
            return a if a.dest_seq > b.dest_seq else b
        if a.hop_count != b.hop_count:
            return a if a.hop_count < b.hop_count else b
        return a if a.generator < b.generator else b

    grid = [one(s, h, g) for s in (1, 2, 3) for h in (0, 1, 2) for g in (3, 4)]
    for a, b in itertools.permutations(grid, 2):
        assert select_best_rrep([a, b]) is oracle(a, b)


def test_selection_rejects_an_empty_candidate_list():
    with pytest.raises(ValueError):
        select_best_rrep([])


def test_selected_reply_overwrites_whatever_the_source_had():
    sim = _sim([(1, 2), (2, 3)])
    sim.nodes[1].table[3] = RoutingEntry(3, 2, 1, 999, 7)
    _discover(sim, 1, 3)
    entry = sim.nodes[1].table[3]
    # The old poison is gone and the real destination out-ran its number.
    assert entry.generator == 3
    assert entry.dest_seq == 1000


def test_relay_keeps_the_fresher_entry():
    sim = _sim([(1, 2), (2, 3)])
    node = sim.nodes[2]
    node._maybe_install(9, 3, 2, 5, 9)
    node._maybe_install(9, 1, 1, 4, 9)      # lower seq loses
    assert node.table[9].next_hop == 3
    node._maybe_install(9, 1, 1, 5, 9)      # same seq, fewer hops wins
    assert node.table[9].next_hop == 1
    node._maybe_install(9, 3, 5, 6, 9)      # higher seq wins regardless
    assert node.table[9].next_hop == 3
    node.table[9].fresh = False
    node._maybe_install(9, 1, 9, 1, 9)      # anything beats a stale entry
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
    assert "rrep" in got
    assert sim.nodes[1].table[4].next_hop == 3


def test_banned_generator_replies_are_discarded():
    sim = _sim([(1, 2), (2, 3)])
    sim.nodes[1].banned.add(3)
    got = _discover(sim, 1, 3, horizon=10.0)
    assert got == {"failed": 3}


def test_discovery_retries_before_giving_up():
    sim = _sim([(1, 2)], trace=True)
    got = _discover(sim, 1, 9, horizon=10.0)
    assert got == {"failed": 9}
    floods = [line for line in sim.engine.trace
              if line.split(",")[1] == "1" and ",send_rreq," in line]
    assert len(floods) == 3  # first try plus two retries


def test_ensure_route_reuses_a_fresh_entry_without_flooding():
    sim = _sim([(1, 2), (2, 3)])
    _discover(sim, 1, 3)
    before = sim.metrics.rreq_count_by_source.get(1, 0)
    got = {}
    sim.nodes[1].ensure_route(3, lambda rrep, t0: got.update(rrep=rrep),
                              lambda d: got.update(failed=d))
    assert got["rrep"].generator == 3
    assert sim.metrics.rreq_count_by_source.get(1, 0) == before


def test_cached_reply_answers_for_a_known_destination():
    sim = _sim([(1, 2), (2, 3), (2, 4)], cache_reply=True)
    _discover(sim, 1, 3)
    # 2 now holds a fresh route to 3 and answers 4's discovery itself.
    got = _discover(sim, 4, 3)
    assert got["rrep"].generator == 2
    assert sim.nodes[3].seen_floods.get((4, 1)) is None
    # A check's re-discovery is the destination's to answer.
    got = _discover(sim, 4, 3, dest_only=True)
    assert got["rrep"].generator == 3


def test_data_flows_along_the_installed_route():
    sim = _sim([(1, 2), (2, 3)], flows=((1, 3, 0.0),), defense="none")
    sim.run()
    assert sim.metrics.total_sent() == 10
    assert sim.metrics.total_delivered() == 10


def test_flow_recovers_when_a_link_breaks():
    sim = _sim([(1, 2), (2, 5), (1, 3), (3, 5)], flows=((1, 5, 0.0),),
               defense="none")

    def cut():
        sim.topology._adj[2].discard(5)
        sim.topology._adj[5].discard(2)

    sim.engine.schedule(2.5, cut)
    sim.run()
    # One packet dies at the break; the rest re-route through 3.
    assert sim.metrics.total_sent() == 10
    assert sim.metrics.total_delivered() == 9
    assert sim.flows[0].state == "done"
    assert not sim.nodes[1].table[5].fresh or sim.nodes[1].table[5].next_hop == 3


def test_route_error_marks_the_sources_entry_stale():
    sim = _sim([(1, 2), (2, 3)])
    node = sim.nodes[1]
    node.table[3] = RoutingEntry(3, 2, 2, 5, 3)
    node.handle_no_route_report(pk.NoRouteReport(3, 1, 0), 2)
    assert not node.table[3].fresh


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
    node.table[1] = RoutingEntry(1, 1, 1, 1, 1)
    node.table[4] = RoutingEntry(4, 4, 1, 1, 4)
    reports = _report_sink(sim, 1, 4)
    handle = sim.engine.schedule_in(1.0, lambda: None)
    node.probe_timers[555] = (pk.DataControl(3, 555, 1, 5, 1), handle)
    # The echo carries nonce 777; the probe sent nonce 555.
    node.handle_probe_reply(pk.DataControlReply(777, 1), 3)
    assert node.probe_timers == {}
    assert handle.cancelled
    assert 3 not in node.trusted
    sim.engine.run_until(sim.now + 2.0)
    assert [(n, pkt) for _, n, pkt in reports] == [
        (1, pk.SuspectReport(2, 3, 1, 1, 555, None, False))]


def test_honest_node_reports_its_actual_next_hop():
    sim = _sim([(1, 2), (2, 3), (3, 4)], trace=True)
    _discover(sim, 2, 4)
    node = sim.nodes[2]
    node.trusted.add(3)
    node.handle_nhn_query(pk.NhnQuery(1, 2, 4, random_number=9), 1)
    sim.engine.run_until(sim.engine.now + 1.0)
    sends = [line for line in sim.engine.trace
             if line.split(",")[1] == "2" and ",send_nhnreply," in line]
    assert len(sends) == 1


def test_alarm_bans_nodes_and_invalidates_their_routes():
    sim = _sim([(1, 2), (2, 3), (2, 4)])
    _discover(sim, 1, 3)
    assert sim.nodes[1].table[3].fresh
    alarm = pk.Alarm(origin=4, alarm_id=1, malicious=(3,))
    sim.nodes[1].receive(alarm, 2)
    assert 3 in sim.nodes[1].banned
    assert not sim.nodes[1].table[3].fresh
    assert 3 not in sim.nodes[1].trusted


def test_alarm_floods_once_per_id():
    sim = _sim([(1, 2), (2, 3)], trace=True)
    alarm = pk.Alarm(origin=3, alarm_id=7, malicious=())
    sim.nodes[1].receive(alarm, 2)
    sim.nodes[1].receive(alarm, 2)
    sim.engine.run_until(1.0)
    sends = [line for line in sim.engine.trace
             if line.split(",")[1] == "1" and ",send_alarm," in line]
    assert len(sends) == 1


def test_a_repeated_suspect_report_for_a_resolved_path_is_ignored():
    sim = _sim([(1, 2), (2, 3), (3, 4)], defense="debh")
    rrep = _discover(sim, 1, 4)["rrep"]
    node = sim.nodes[1]
    session = node.start_check(4, rrep, sim.now, lambda safe: None)
    floods = sim.metrics.rreq_count_by_source[1]
    report = pk.SuspectReport(1, 2, 1, session.path_number, session.nonce,
                              3, True)
    node.receive(report, 1)
    node.receive(report, 1)
    events = [line.split(",")[3] for line in sim.audit_lines]
    assert events.count("reroute") == 1
    assert session.path_number == 2
    assert sim.metrics.rreq_count_by_source[1] == floods + 1


def _silent_hop(answer):
    """Line 1-2-3-4: node 2 probes 3 for a hand-made check by source 1,
    path 2, nonce 4242; 3 drops the probe and answers the next-hop query
    as answer says."""
    sim = _sim([(1, 2), (2, 3), (3, 4)])
    _discover(sim, 1, 4)
    hop = sim.nodes[3]

    def drop_probe(pkt, sender):
        if answer == "refused":
            sim.topology._adj[2].discard(3)
            sim.topology._adj[3].discard(2)

    hop.handle_data_control = drop_probe
    if answer == "silent":
        hop.handle_nhn_query = lambda pkt, sender: None
    reports = _report_sink(sim, 1)
    t0 = sim.now
    sim.nodes[2]._continue_chain(1, 2, 4242, 4)
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
        (1, pk.SuspectReport(2, 3, 1, 2, 4242, *claims))]
    sent = t0 + cfg.reply_timeout + wait(cfg)
    assert reports[0][0] == pytest.approx(sent + cfg.hop_latency)
    prober = sim.nodes[2]
    assert 3 not in prober.trusted
    assert prober.probe_timers == {} and prober.pending_nhn == {}


def _checked_line():
    """Node 1 checks its route on line 1-2-3-4-5."""
    sim = _sim([(1, 2), (2, 3), (3, 4), (4, 5)], defense="debh")
    rrep = _discover(sim, 1, 5)["rrep"]
    done = []
    session = sim.nodes[1].start_check(5, rrep, sim.now, done.append)
    return sim, session, done


def test_a_suspect_report_for_another_nodes_session_is_ignored():
    sim, session, _ = _checked_line()
    rows = len(sim.audit_lines)
    floods = dict(sim.metrics.rreq_count_by_source)
    sim.nodes[5].receive(pk.SuspectReport(3, 2, 5, session.path_number,
                                          session.nonce, 3, True), 4)
    assert session.path_number == 1
    assert session.blackhole_queue == []
    assert sim.audit_lines[rows:] == []
    assert dict(sim.metrics.rreq_count_by_source) == floods


def test_a_bch_reply_for_another_nodes_session_is_ignored():
    sim, session, done = _checked_line()
    sim.nodes[1]._begin_verify(session, 5)
    rows = len(sim.audit_lines)
    sim.nodes[5].receive(pk.BchReply(4, (), 5, session.path_number,
                                     session.nonce), 4)
    assert session.state == "verifying"
    assert not session.verify_timer.cancelled
    assert sim.audit_lines[rows:] == []
    assert done == []
