"""Check-session bookkeeping, next-target resolution, and verdict walking."""

from debhsim.aodv import RoutingEntry
from debhsim.debh import (AUDIT_HEADER, CheckSession, adjudicate,
                          format_audit_row, resolve_next_target)
from debhsim.metrics import format_ids


def _session(generator, generator_nhn, bq=(), source=1, dest=9):
    s = CheckSession(source, dest, session_id=1)
    s.route = RoutingEntry(dest, generator, 1, 5, generator, generator_nhn, True)
    s.blackhole_queue = list(bq)
    return s


def test_resolution_follows_the_suspects_claim():
    s = _session(generator=10, generator_nhn=14)
    assert resolve_next_target(s, suspect=3, claimed_nhn=6) == 6


def test_resolution_for_the_generator_uses_its_advertised_next_hop():
    s = _session(generator=10, generator_nhn=14)
    assert resolve_next_target(s, suspect=10, claimed_nhn=None) == 14


def test_resolution_replaces_claims_naming_the_generator():
    s = _session(generator=10, generator_nhn=14)
    assert resolve_next_target(s, suspect=2, claimed_nhn=10) == 14


def test_resolution_dead_ends_fall_back_to_the_destination():
    s = _session(generator=10, generator_nhn=14, bq=(7,), dest=9)
    assert resolve_next_target(s, suspect=3, claimed_nhn=None) == 9
    assert resolve_next_target(s, suspect=3, claimed_nhn=3) == 9
    assert resolve_next_target(s, suspect=3, claimed_nhn=1) == 9   # the source
    assert resolve_next_target(s, suspect=3, claimed_nhn=7) == 9   # already queued


def test_session_suspect_queue_dedups_but_generator_queue_does_not():
    s = _session(10, 14)
    s.add_suspect(10)
    s.add_suspect(10)
    s.add_generator(10)
    s.add_generator(10)
    assert s.blackhole_queue == [10]
    assert s.rrep_generator_queue == [10, 10]


def test_session_claim_lookup():
    s = CheckSession(1, 9, session_id=1)
    route = RoutingEntry(9, 10, 1, 5, 10, 14, True)
    s.take_route(route)
    assert s.route is route
    assert s.rrep_generator_queue == [10]
    assert s.claims[10] == (14, True)


def _judged(generators, claims, suspects=(), verified=(), acked=(),
            trusted=()):
    """Adjudicate a session with these queues and claimed next hops;
    trusted holds the (holder, subject) pairs where holder trusts subject."""
    s = CheckSession(1, 9, session_id=1)
    s.rrep_generator_queue = list(generators)
    s.claims = {g: (n, True) for g, n in claims.items()}
    s.blackhole_queue = list(suspects)
    s.verified = set(verified)
    s.acked = set(acked)
    return adjudicate(s, lambda holder, subject: (holder, subject) in trusted)


def test_adjudication_starts_from_the_suspect_queue():
    condemned, safe = _judged([], {}, suspects=[10, 14])
    assert condemned == [10, 14]
    assert safe is None


def test_adjudication_condemns_unverifiable_claims():
    condemned, safe = _judged([15], {15: 99})
    assert condemned == [15]
    assert safe is None


def test_adjudication_fells_generators_chained_to_condemned_nodes():
    condemned, safe = _judged([15, 14], {15: 10, 14: 15}, suspects=[10])
    # 15 claimed the queued suspect 10; 14 claimed the fallen 15.
    assert condemned == [10, 15, 14]
    assert safe is None


def test_adjudication_clears_a_generator_its_verified_hop_trusts():
    condemned, safe = _judged([3], {3: 4}, verified={4}, trusted={(4, 3)})
    assert condemned == []
    assert safe == 3


def test_adjudication_condemns_a_generator_its_verified_hop_disowns():
    condemned, safe = _judged([3], {3: 4}, verified={4}, trusted={(3, 4)})
    assert condemned == [3]
    assert safe is None


def test_adjudication_self_claim_cleared_only_by_ack():
    condemned, safe = _judged([8], {8: 8})
    assert condemned == [] and safe is None
    condemned, safe = _judged([8], {8: 8}, acked={8})
    assert condemned == [] and safe == 8


def test_adjudication_stops_at_the_first_safe_generator():
    condemned, safe = _judged([15, 3, 5], {15: 10, 3: 4, 5: 99},
                              suspects=[10], verified={4}, trusted={(4, 3)})
    # 5 is never judged because 3 ended the walk.
    assert condemned == [10, 15]
    assert safe == 3


def test_adjudication_skips_already_condemned_generators():
    condemned, safe = _judged([10, 10], {10: 14}, suspects=[10])
    assert condemned == [10]
    assert safe is None


def test_adjudication_does_not_mutate_the_suspect_queue():
    s = CheckSession(1, 9, session_id=1)
    s.take_route(RoutingEntry(9, 15, 1, 5, 15, 99, True))
    s.add_suspect(10)
    adjudicate(s, lambda holder, subject: False)
    assert s.blackhole_queue == [10]
    assert s.rrep_generator_queue == [15]


def test_queue_formatting():
    # Queues print in their own order, not sorted.
    assert format_ids([]) == "-"
    assert format_ids([14, 10]) == "14;10"


def test_audit_row_matches_the_header_shape():
    row = format_audit_row(1.2345, 1, 2, "probe", "1>2", [10], [])
    assert row == "1.2345,1,2,probe,1>2,10,-"
    assert row.count(",") == AUDIT_HEADER.count(",")
