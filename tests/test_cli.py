"""Command line surface: exit codes and outputs."""

import pathlib
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
    assert sorted(p.name for p in out.iterdir()) == ["audit.log",
                                                     "metrics.csv"]
    shown = capsys.readouterr().out
    assert "detected=3" in shown
    assert "planted=3" in shown
    assert "wrote %s/metrics.csv and %s/audit.log\n" % (out, out) in shown


def test_run_with_trace_names_every_file_it_writes(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", _config(tmp_path, SINGLE_INI),
                 "--seed", "7", "--out", str(out), "--trace"])
    assert code == 0
    written = sorted(p.name for p in out.iterdir())
    assert written == ["audit.log", "events.trace", "metrics.csv"]
    assert (out / "events.trace").read_text().startswith("0.0")
    shown = capsys.readouterr().out
    assert ("wrote %s/metrics.csv, %s/audit.log and %s/events.trace\n"
            % (out, out, out)) in shown


def test_run_trace_without_out_is_a_usage_error(tmp_path, capsys):
    # Without --out nothing would write the trace the run formats.
    with pytest.raises(SystemExit) as err:
        main(["run", "--config", _config(tmp_path, SINGLE_INI),
              "--seed", "7", "--trace"])
    assert err.value.code == 1
    shown = capsys.readouterr()
    assert shown.err == "debhsim run: error: --trace needs --out\n"
    assert shown.out == ""


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


def test_malformed_seed_range_exits_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["suite", "--seeds", "1..x", "--out", str(tmp_path)])
    assert err.value.code == 1
    shown = capsys.readouterr()
    assert shown.err.startswith("debhsim suite: error: argument --seeds: ")
    assert "1..x" in shown.err
    assert "Traceback" not in shown.err


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


def test_suite_with_a_repeated_seed_exits_one(tmp_path, capsys):
    code = main(["suite", "--seeds", "1,1", "--out", str(tmp_path / "out")])
    assert code == 1
    shown = capsys.readouterr()
    assert "seeds: 1 appears twice" in shown.err
    assert "Traceback" not in shown.err
    assert shown.out == ""
    assert not (tmp_path / "out").exists()


def test_suite_prints_the_delivered_summary_line(tmp_path, capsys):
    code = main(["suite", "--seeds", "0..2", "--out", str(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  delivered mean=40.0 min=10 max=90" in lines


def test_run_rejects_a_self_edge(tmp_path, capsys):
    code = main(["run", "--config",
                 _config(tmp_path, "[topology]\n1 2\n2 2\n"), "--seed", "0"])
    assert code == 1
    shown = capsys.readouterr().err
    assert "self edge on 2" in shown
    assert "Traceback" not in shown


@pytest.mark.parametrize("text", [
    "[scenario]\nnode_count = 1\n",
    "[scenario]\nnode_count = 3\n[attack]\nmode = distributed\ngroups = 1;2\n",
], ids=["one-node", "one-honest-node"])
def test_run_rejects_random_flows_without_two_honest_nodes(tmp_path, capsys,
                                                          text):
    code = main(["run", "--config", _config(tmp_path, text), "--seed", "0"])
    assert code == 1
    shown = capsys.readouterr().err
    assert "two honest nodes" in shown
    assert "Traceback" not in shown


def test_readme_config_example_runs(tmp_path, capsys):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    code = main(["run", "--config", _config(tmp_path, example), "--seed", "7"])
    assert code == 0
    assert "planted=10;14;15" in capsys.readouterr().out
