"""Golden-trace replay of the two shipped meshes, which only
`debhsim.replay` loads."""

import os
import subprocess
import sys

import pytest

from debhsim.replay import (COOPERATIVE_ROWS, DISTRIBUTED_ROWS, ReplayResult,
                            probe_rows, replay)
from debhsim.scenario import ConfigError


def test_cooperative_fixture_replays_exactly():
    result = replay("cooperative")
    assert result.ok, "\n".join(result.diffs)
    assert tuple(result.actual) == COOPERATIVE_ROWS


def test_distributed_fixture_replays_exactly():
    result = replay("distributed")
    assert result.ok, "\n".join(result.diffs)
    assert tuple(result.actual) == DISTRIBUTED_ROWS


def test_probe_rows_extracts_only_probe_events():
    lines = [
        "0.0400,1,1,session,3,-,-",
        "0.2400,1,1,probe,1>2,-,15",
        "0.3000,1,2,probe,2>10,10,15;14",
        "0.4000,1,2,suspect,10,10,15;14",
    ]
    assert probe_rows(lines) == [
        (1, 2, 1, (15,), ()),
        (2, 10, 2, (15, 14), (10,)),
    ]


def test_replay_rejects_unknown_fixture_names():
    with pytest.raises(ConfigError, match="fixture"):
        replay("bogus")


def test_diffs_call_out_row_and_final_mismatches():
    expected = ((1, 2, 1, (), ()),)
    actual = ((1, 3, 1, (), ()), (9, 9, 9, (), ()))
    result = ReplayResult("t", expected, actual,
                          {"path_number": 2}, {"path_number": 3})
    assert not result.ok
    joined = "\n".join(result.diffs)
    assert "row 1" in joined
    assert "row count: expected 1, got 2" in joined
    assert "unexpected" in joined
    assert "final path_number" in joined


def test_diffs_report_missing_rows():
    expected = ((1, 2, 1, (), ()), (2, 3, 1, (), ()))
    result = ReplayResult("t", expected, ((1, 2, 1, (), ()),), {}, {})
    assert any("missing" in d for d in result.diffs)


def test_matching_replay_reports_no_diffs():
    rows = ((1, 2, 1, (), ()),)
    result = ReplayResult("t", rows, rows, {"path_number": 1},
                          {"path_number": 1})
    assert result.ok and result.diffs == []


def test_replay_writes_outputs_when_asked(tmp_path):
    out = tmp_path / "replayout"
    replay("cooperative", out_dir=str(out))
    assert (out / "metrics.csv").exists()
    assert (out / "audit.log").exists()


def test_importing_the_package_loads_only_the_run_path():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, debhsim; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "debhsim.scenario" in loaded
    assert "debhsim.replay" not in loaded
    assert "debhsim.cli" not in loaded
