"""Trust bookkeeping, next-target resolution, and verdict walking."""

from debhsim import packets as pk
from debhsim.debh import (AUDIT_HEADER, BchTable, CheckSession, TrustState,
                          adjudicate, format_audit_row, is_malicious,
                          resolve_next_target)
from debhsim.metrics import format_ids

T = TrustState.TRUSTED
U = TrustState.UNTRUSTED
N = TrustState.NULL


def test_is_malicious_truth_table():
    # Condemns exactly when the claimant vouches and the subject does not.
    expected = {
        (T, T): False, (T, U): True, (T, N): True,
        (U, T): False, (U, U): False, (U, N): False,
        (N, T): False, (N, U): False, (N, N): False,
    }
    for (a, b), want in expected.items():
        assert is_malicious(a, b) is want, (a, b)


def test_bch_entries_default_to_null():
    table = BchTable()
    assert table.get(7) is N
    assert table.entries() == {}


def test_bch_set_and_reset():
    table = BchTable()
    table.set_trusted(2)
    assert table.get(2) is T
    table.set_untrusted(2)
    assert table.get(2) is U
    table.set_null(2)
    assert table.get(2) is N


def test_bch_entries_returns_a_copy():
    table = BchTable()
    table.set_trusted(2)
    snapshot = table.entries()
    snapshot[2] = U
    assert table.get(2) is T


def _session(generator, generator_nhn, bq=(), source=1, dest=9):
    s = CheckSession(source, dest, session_id=1)
    s.current_rrep = pk.Rrep(source, dest, 1, 5, 1, generator, generator_nhn, T)
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
    rrep = pk.Rrep(1, 9, 1, 5, 1, 10, 14, T)
    s.take_route(rrep)
    assert s.current_rrep is rrep
    assert s.rrep_generator_queue == [10]
    assert s.claims[10] == (14, T)
    assert s.claim_of(10) == 14
    assert s.claim_of(99) is None


def _lookup(entries):
    return lambda holder, subject: entries.get((holder, subject), N)


def test_adjudication_starts_from_the_suspect_queue():
    condemned, safe = adjudicate(
        generator_queue=[], claim_of=lambda g: None, blackhole_queue=[10, 14],
        verified=set(), acked=set(), entry_lookup=_lookup({}))
    assert condemned == [10, 14]
    assert safe is None


def test_adjudication_condemns_unverifiable_claims():
    claims = {15: 99}
    condemned, safe = adjudicate(
        [15], claims.get, [], verified=set(), acked=set(),
        entry_lookup=_lookup({}))
    assert condemned == [15]
    assert safe is None


def test_adjudication_fells_generators_chained_to_condemned_nodes():
    claims = {15: 10, 14: 15}
    condemned, safe = adjudicate(
        [15, 14], claims.get, [10], verified=set(), acked=set(),
        entry_lookup=_lookup({}))
    # 15 claimed the queued suspect 10; 14 claimed the fallen 15.
    assert condemned == [10, 15, 14]
    assert safe is None


def test_adjudication_clears_a_generator_its_verified_hop_trusts():
    claims = {3: 4}
    condemned, safe = adjudicate(
        [3], claims.get, [], verified={4}, acked=set(),
        entry_lookup=_lookup({(4, 3): T}))
    assert condemned == []
    assert safe == 3


def test_adjudication_condemns_a_generator_its_verified_hop_disowns():
    claims = {3: 4}
    for entry in (U, N):
        condemned, safe = adjudicate(
            [3], claims.get, [], verified={4}, acked=set(),
            entry_lookup=_lookup({(4, 3): entry}))
        assert condemned == [3]
        assert safe is None


def test_adjudication_self_claim_cleared_only_by_ack():
    claims = {8: 8}
    condemned, safe = adjudicate(
        [8], claims.get, [], verified=set(), acked=set(),
        entry_lookup=_lookup({}))
    assert condemned == [] and safe is None
    condemned, safe = adjudicate(
        [8], claims.get, [], verified=set(), acked={8},
        entry_lookup=_lookup({}))
    assert condemned == [] and safe == 8


def test_adjudication_stops_at_the_first_safe_generator():
    claims = {15: 10, 3: 4, 5: 99}
    condemned, safe = adjudicate(
        [15, 3, 5], claims.get, [10], verified={4}, acked=set(),
        entry_lookup=_lookup({(4, 3): T}))
    # 5 is never judged because 3 ended the walk.
    assert condemned == [10, 15]
    assert safe == 3


def test_adjudication_skips_already_condemned_generators():
    claims = {10: 14}
    condemned, safe = adjudicate(
        [10, 10], claims.get, [10], verified=set(), acked=set(),
        entry_lookup=_lookup({}))
    assert condemned == [10]
    assert safe is None


def test_adjudication_does_not_mutate_the_suspect_queue():
    bq = [10]
    adjudicate([15], {15: 99}.get, bq, set(), set(), _lookup({}))
    assert bq == [10]


def test_queue_formatting():
    # Queues print in their own order, not sorted.
    assert format_ids([]) == "-"
    assert format_ids([14, 10]) == "14;10"


def test_audit_row_matches_the_header_shape():
    row = format_audit_row(1.2345, 1, 2, "probe", "1>2", [10], [])
    assert row == "1.2345,1,2,probe,1>2,10,-"
    assert row.count(",") == AUDIT_HEADER.count(",")
