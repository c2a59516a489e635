"""Command line surface: exit codes and outputs."""

import re

import pytest

from debhsim.cli import _parse_seeds, main
from debhsim.replay import FIXTURES
from debhsim.scenario import cooperative_fixture


def _config(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return str(path)


SINGLE_INI = """
[scenario]
name = single
defense = debh

[mobility]
mobile = no

[attack]
mode = single
groups = 3

[traffic]
connections = 1
flows = 1>4

[topology]
1 2
2 3
2 4
"""


def test_seed_lists_parse_both_forms():
    assert _parse_seeds("0..3") == [0, 1, 2, 3]
    assert _parse_seeds("7") == [7]
    assert _parse_seeds("1,4,9") == [1, 4, 9]


def test_run_executes_a_config_and_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", _config(tmp_path, SINGLE_INI),
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "audit.log").exists()
    shown = capsys.readouterr().out
    assert "detected=3" in shown
    assert "planted=3" in shown


TIMING = re.compile(r"wall=\d+\.\d{3}s events=[1-9]\d* events/s=\d+\n")


def test_run_prints_one_timing_line_to_stderr_only(tmp_path, capsys):
    code = main(["run", "--config", _config(tmp_path, SINGLE_INI),
                 "--seed", "7"])
    assert code == 0
    shown = capsys.readouterr()
    assert TIMING.fullmatch(shown.err)
    assert "wall=" not in shown.out


def test_run_defense_override_disables_checking(tmp_path, capsys):
    code = main(["run", "--config", _config(tmp_path, SINGLE_INI),
                 "--seed", "7", "--defense", "none"])
    assert code == 0
    shown = capsys.readouterr().out
    assert "defense=none" in shown
    assert "delivered=0" in shown


def test_run_rejects_an_invalid_config(tmp_path, capsys):
    code = main(["run", "--config",
                 _config(tmp_path, "[scenario]\nnode_count = 0\n"),
                 "--seed", "0"])
    assert code == 1
    assert "node_count" in capsys.readouterr().err


def test_run_rejects_a_missing_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.ini"), "--seed", "0"])
    assert code == 1


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as err:
        main(["run"])  # --config and --seed are required
    assert err.value.code == 1


def test_unknown_fixture_name_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["replay", "--fixture", "bogus"])
    assert err.value.code == 1


def test_replay_passes_on_the_shipped_fixture(capsys):
    assert main(["replay", "--fixture", "cooperative"]) == 0
    assert "rows match" in capsys.readouterr().out


def test_replay_mismatch_exits_two(monkeypatch, capsys):
    doctored = ((9, 9, 9, (), ()),)
    monkeypatch.setitem(FIXTURES, "cooperative",
                        (cooperative_fixture, doctored, {"path_number": 99}))
    assert main(["replay", "--fixture", "cooperative"]) == 2
    shown = capsys.readouterr().out
    assert "MISMATCH" in shown


def test_suite_runs_and_writes_the_combined_csv(tmp_path, capsys):
    out = tmp_path / "suiteout"
    code = main(["suite", "--seeds", "0..1", "--out", str(out)])
    assert code == 0
    assert (out / "suite.csv").exists()
    shown = capsys.readouterr()
    assert "7 scenarios x 2 seeds" in shown.out
    assert "exact=True" in shown.out
    assert TIMING.fullmatch(shown.err)
