"""Run counters and CSV shaping."""

import pytest

from debhsim.metrics import (CSV_HEADER, WRITE_BLOCK_LINES, MetricsError,
                             RunMetrics, claims, write_lines)
from debhsim.scenario import run_scenario, run_suite, single_scenario


def _filled():
    m = RunMetrics()
    m.rreq_count_by_source[1] += 2
    m.rreq_count_by_source[2] += 1
    m.sent_by_source[1] += 10
    m.delivered_by_source[1] += 8
    m.detected_malicious.update([5, 3])
    m.mark_secure_path(1, 4, 0.0, 0.64, session_id=1)
    return m


def test_counters_accumulate():
    m = _filled()
    assert m.rreq_count_by_source == {1: 2, 2: 1}
    assert m.total_sent() == 10
    assert m.total_delivered() == 8
    assert m.detected_malicious == {3, 5}
    # Sources with no traffic read as zero.
    assert m.sent_by_source[2] == 0 and m.delivered_by_source[9] == 0


def test_secure_path_delay_keeps_the_first_mark_per_pair():
    m = RunMetrics()
    m.mark_secure_path(1, 4, 0.0, 0.5, session_id=1)
    m.mark_secure_path(1, 4, 10.0, 11.0, session_id=2)
    assert m.secure_path_delay_s[(1, 4)] == pytest.approx(0.5)
    assert m.delay_for_source(1) == pytest.approx(0.5)
    assert m.delay_for_source(9) is None


def test_marking_the_same_session_twice_is_an_error():
    m = RunMetrics()
    m.mark_secure_path(1, 4, 0.0, 0.5, session_id=7)
    with pytest.raises(MetricsError):
        m.mark_secure_path(1, 4, 1.0, 2.0, session_id=7)


def test_csv_rows_one_per_source_in_id_order():
    m = _filled()
    rows = m.csv_rows("single", 7, [3, 5])
    assert [r[2] for r in rows] == ["1", "2"]
    assert rows[0] == ["single", "7", "1", "2", "0.6400", "3;5", "3;5", "10", "8"]
    # Source 2 never sent and never secured a path.
    assert rows[1] == ["single", "7", "2", "1", "-", "3;5", "3;5", "0", "0"]
    for row in rows:
        assert len(row) == len(CSV_HEADER.split(","))


def test_csv_placeholders_for_empty_sets():
    m = RunMetrics()
    m.rreq_count_by_source[1] += 1
    row = m.csv_rows("benign", 0, [])[0]
    assert row[4] == "-"   # no secure path delay
    assert row[5] == "-"   # nothing detected
    assert row[6] == "-"   # nothing planted


def test_csv_file_round_trip(tmp_path):
    m = _filled()
    path = tmp_path / "metrics.csv"
    write_lines(str(path), (",".join(r) for r in m.csv_rows("single", 7, [3, 5])),
                CSV_HEADER)
    assert path.read_text() == (CSV_HEADER + "\n"
                                "single,7,1,2,0.6400,3;5,3;5,10,8\n"
                                "single,7,2,1,-,3;5,3;5,0,0\n")
    write_lines(str(path), ["a", "b"])
    assert path.read_text() == "a\nb\n"


def test_no_lines_write_the_header_alone_or_nothing(tmp_path):
    path = tmp_path / "out"
    write_lines(str(path), [], CSV_HEADER)
    assert path.read_bytes() == (CSV_HEADER + "\n").encode()
    write_lines(str(path), [])
    assert path.read_bytes() == b""


def test_lines_past_one_block_are_written_whole(tmp_path):
    path = tmp_path / "out"
    lines = ["%d,x" % i for i in range(2 * WRITE_BLOCK_LINES + 1)]
    write_lines(str(path), iter(lines), "h")
    assert path.read_text() == "h\n" + "".join(line + "\n" for line in lines)


# In single_scenario(0), attacker 3 forges the reply, so it is both
# planted and checked, and the one session ends long before the run.

def test_claims_name_honest_condemned_and_missed_attackers():
    sim = run_scenario(single_scenario(0))
    assert claims(sim) == {"honest": [], "stale": [], "checked": [3],
                           "missed": []}
    sim.metrics.detected_malicious.add(2)
    assert claims(sim)["honest"] == [2]
    sim.metrics.detected_malicious.discard(3)
    assert claims(sim)["missed"] == [3]
    assert claims(sim)["checked"] == [3]


def test_a_session_is_stale_by_when_it_opened_not_when_its_route_was_asked():
    sim = run_scenario(single_scenario(0))
    (session,) = sim.sessions_all
    session.state = "checking"
    cutoff = sim.cfg.duration_s - sim.cfg.session_timeout
    session.started_at, session.opened_at = cutoff - 1.0, cutoff + 1.0
    assert claims(sim)["stale"] == []
    session.opened_at = cutoff - 1.0
    assert claims(sim)["stale"] == [session.session_id]


def test_claims_judge_a_suite_cell_whose_lines_went_to_its_files(tmp_path):
    _, _, sims = run_suite([0], tmp_path)
    cell = sims[(0, 0)]
    assert cell.audit_lines is None and cell.cfg.name == "single"
    assert claims(cell) == claims(run_scenario(cell.cfg))
