"""Attacker behavior: forged replies, coordination, cover stories."""

from dataclasses import replace

from debhsim import packets as pk
from debhsim.adversary import AdversaryNode
from debhsim.aodv import Node, RoutingEntry
from debhsim.scenario import (ScenarioConfig, build_simulation,
                              cooperative_fixture, single_scenario)


def _fixture_sim(trace=False):
    return build_simulation(replace(cooperative_fixture(), trace=trace))


def _recorder(sim):
    calls = []

    def unicast(sender, to, pkt, force=False):
        calls.append((sender, to, pkt, force))
        return True

    sim.unicast = unicast
    return calls


def test_forged_reply_inflates_the_sequence_it_was_told():
    sim = build_simulation(single_scenario())
    # The requester remembers sequence 5 for the destination.
    sim.nodes[1].table[4] = RoutingEntry(4, 2, 2, 5, 4, fresh=False)
    got = {}
    sim.nodes[1].discover(4, (), lambda rrep, t0: got.update(rrep=rrep),
                          lambda d: got.update(failed=d))
    sim.engine.run_until(2.0)
    entry = sim.nodes[1].table[4]
    assert entry.dest_seq == 5 + 100
    assert entry.generator == 3
    assert sim.metrics.forged_rreps == 1


def test_forged_reply_beats_the_honest_one():
    sim = build_simulation(single_scenario())
    got = {}
    sim.nodes[1].discover(4, (), lambda rrep, t0: got.update(rrep=rrep),
                          lambda d: got.update(failed=d))
    sim.engine.run_until(2.0)
    assert got["rrep"].generator == 3
    assert got["rrep"].dest_seq == 100
    assert got["rrep"].generator_trust is True


def test_lone_attacker_names_the_destination_as_cover():
    sim = build_simulation(single_scenario())
    group = sim.groups[0]
    assert group.cover[3] is None
    calls = _recorder(sim)
    sim.nodes[3].forge_rrep(pk.Rreq(1, 4, 1, 0, 1), 2)
    (_, _, rrep, _), = calls
    assert rrep.generator_nhn == 4


def test_clique_covers_each_other_with_the_nearest_peer():
    sim = _fixture_sim()
    assert sim.groups[0].cover == {10: 14, 14: 10, 15: 10}


def test_designated_forger_is_farthest_from_the_requester():
    sim = _fixture_sim()
    group = sim.groups[0]
    # From node 1: 10 is two hops out, 14 and 15 are three; id breaks the tie.
    assert group.designated_forger(1, 3) == 15
    # The group never forges in the name of one of its own.
    assert group.designated_forger(1, 15) == 14


def test_engaged_member_leaves_other_victims_to_its_peers():
    sim = _fixture_sim()
    group = sim.groups[0]
    group.engage(15, 1)
    assert group.designated_forger(2, 3) == 14
    # Same victim again is still its business.
    assert group.designated_forger(1, 3) == 15


def test_engagement_is_freed_after_the_victim_quota():
    sim = _fixture_sim()
    group = sim.groups[0]
    group.engage(15, 1)
    for _ in range(group.victim_quota):
        group.note_data(15, 1)
    assert group.engaged[15] is None


def test_attacker_destroys_data_and_counts_the_drop():
    sim = _fixture_sim()
    node = sim.nodes[10]
    # A probe of 14 is outstanding, so an honest node would take 14's
    # reply as proof and trust it.
    handle = sim.engine.schedule_in(1.0, lambda: None)
    node.probe_timers[99] = (pk.DataControl(14, 99, 1, 3, 1), handle)
    queued = len(sim.engine._queue)
    node.receive(pk.Data(1, 3), 2)
    assert sim.metrics.malicious_drops == 1
    assert sim.groups[0].received[(10, 1)] == 1
    # Hop-check probes and their replies die silently too: nothing is
    # sent or scheduled, and no trust entry changes.
    node.receive(pk.DataControl(10, 98, 1, 3, 1), 2)
    node.receive(pk.DataControlReply(99, 1), 14)
    assert sim.metrics.malicious_drops == 1
    assert len(sim.engine._queue) == queued
    assert node.trusted == set()
    assert not handle.cancelled
    assert list(node.probe_timers) == [99]


def test_attacker_relays_ordinal_probes_like_an_honest_node():
    sim = _fixture_sim()
    calls = _recorder(sim)
    relayed = []
    for node in (sim.nodes[10], Node(10, sim)):
        node.table[3] = RoutingEntry(3, 14, 2, 1, 3)
        node.receive(pk.OrdinalProbe(10, 99, 1, 3, 1), 2)
        relayed.append((calls[:], {nonce: probe for nonce, (probe, _)
                                   in node.probe_timers.items()}))
        del calls[:]
    assert isinstance(sim.nodes[10], AdversaryNode)
    assert relayed[0] == relayed[1]
    ((sender, to, probe, force),), timers = relayed[0]
    assert (sender, to, force) == (10, 14, False)
    assert probe == pk.DataControl(14, 99, 1, 3, 1)
    # The probe it sent is its record of the check.
    assert timers == {99: probe}


def test_attack_without_defense_starves_the_flow():
    sim = build_simulation(single_scenario(defense="none"))
    sim.run()
    assert sim.metrics.total_sent() == 10
    assert sim.metrics.total_delivered() == 0
    assert sim.metrics.malicious_drops == 10


def test_greedy_destination_answers_every_flood_copy():
    nodes = (1, 2, 3, 4)
    cfg = ScenarioConfig(name="t", nodes=nodes,
                         edges=((1, 2), (2, 3), (1, 4), (4, 3)),
                         attack_mode="single", attack_groups=((3,),),
                         flows=(), connections=1, mobility=False, trace=True)
    sim = build_simulation(cfg)
    got = {}
    sim.nodes[1].discover(3, (), lambda rrep, t0: got.update(rrep=rrep),
                          lambda d: got.update(failed=d))
    sim.engine.run_until(2.0)
    replies = [line for line in sim.engine.trace
               if line.split(",")[1] == "3" and ",send_rrep," in line]
    assert len(replies) == 2
    assert got["rrep"].generator == 3


def test_attacker_claims_its_cover_when_asked_for_a_next_hop():
    sim = _fixture_sim()
    calls = _recorder(sim)
    sim.nodes[10].receive(pk.NhnQuery(2, 10, 3, random_number=42), 2)
    (sender, to, reply, force), = calls
    assert (sender, to, force) == (10, 2, True)
    assert reply.nhn == 14
    assert reply.trust_for_nhn is True
    assert reply.random_number == 42


def test_attacker_vouches_for_every_queried_subject():
    sim = _fixture_sim()
    node = sim.nodes[10]
    node.table[1] = RoutingEntry(1, 2, 1, 1, 1)
    calls = _recorder(sim)
    node.receive(pk.BchQuery(1, 10, (3, 14, 15), 2, random_number=42), 2)
    (_, _, reply, _), = calls
    assert reply.trusted == (3, 14, 15)


def test_attacker_relays_alarms_without_obeying_them():
    sim = _fixture_sim(trace=True)
    node = sim.nodes[10]
    node.receive(pk.Alarm(origin=1, alarm_id=9, malicious=(14,)), 2)
    sim.engine.run_until(1.0)
    assert node.banned == set()
    sends = [line for line in sim.engine.trace
             if line.split(",")[1] == "10" and ",send_alarm," in line]
    assert len(sends) == 1
