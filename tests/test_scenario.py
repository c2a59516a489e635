"""Config parsing, validation, the standard scenario set, and outputs."""

import dataclasses
import gc
import os
import re
import types

import pytest

from debhsim.adversary import AdversaryGroup, AdversaryNode
from debhsim.aodv import Node
from debhsim.debh import AUDIT_HEADER
from debhsim.metrics import CSV_HEADER
from debhsim.scenario import (ConfigError, ScenarioConfig, build_simulation,
                              build_suite, cooperative_fixture,
                              cooperative_scenario, distributed_fixture,
                              load_config, parse_edge_lines, run_scenario,
                              run_suite, single_scenario, sweep_scenario,
                              trust_decay_scenario)
from debhsim.topology import GeometricTopology, StaticTopology


def _write(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return path


def test_empty_config_keeps_every_default(tmp_path):
    cfg = load_config(_write(tmp_path, ""))
    assert cfg == ScenarioConfig()
    assert cfg.node_count == 30
    assert cfg.arena == (1000.0, 1000.0)
    assert cfg.range_m == 200.0
    assert cfg.duration_s == 600.0
    assert (cfg.min_speed, cfg.max_speed, cfg.pause_s) == (2.0, 20.0, 15.0)
    assert (cfg.connections, cfg.packets_per_connection) == (10, 10)
    assert cfg.rate_pps == 2.0
    assert cfg.defense == "debh"
    assert cfg.attack_mode == "none"
    assert cfg.seed == 0


def test_full_config_parses_every_section(tmp_path):
    cfg = load_config(_write(tmp_path, """
[scenario]
name = demo
node_count = 16
arena_width = 800
arena_height = 600
range_m = 150
duration_s = 300
defense = none
cache_reply = yes

[mobility]
min_speed = 1
max_speed = 5
pause_s = 2

[attack]
mode = cooperative
groups = 10,14,15

[traffic]
connections = 4
packets_per_connection = 6
rate_pps = 1
flows = 1>4; 2>4@30

[topology]
1 2
2 4
2 10
10 14
10 15
14 15
"""))
    assert cfg.name == "demo"
    assert cfg.arena == (800.0, 600.0)
    assert cfg.defense == "none"
    assert cfg.cache_reply is True
    assert cfg.attack_mode == "cooperative"
    assert cfg.attack_groups == ((10, 14, 15),)
    assert cfg.flows == ((1, 4, 0.0), (2, 4, 30.0))
    assert cfg.edges == ((1, 2), (2, 4), (2, 10), (10, 14), (10, 15), (14, 15))
    assert cfg == ScenarioConfig(
        name="demo", node_count=16, arena=(800.0, 600.0), range_m=150.0,
        duration_s=300.0, defense="none", cache_reply=True,
        min_speed=1.0, max_speed=5.0, pause_s=2.0,
        attack_mode="cooperative", attack_groups=((10, 14, 15),),
        connections=4, packets_per_connection=6, rate_pps=1.0,
        flows=((1, 4, 0.0), (2, 4, 30.0)),
        edges=((1, 2), (2, 4), (2, 10), (10, 14), (10, 15), (14, 15)))


_TIMING = {"hop_latency": 0.01, "reply_timeout": 0.04, "selection_window": 0.2,
           "discovery_timeout": 1.0, "query_timeout": 0.5,
           "session_timeout": 30.0}


def test_unknown_key_is_rejected_by_name(tmp_path):
    # payload_bytes is not a setting: nothing would read it.  Protocol
    # timing is part of the model, so a [timing] section is refused too.
    keys = [("scenario", "node_cout"), ("traffic", "payload_bytes")]
    keys += [("timing", name + "_s") for name in _TIMING]
    # The seed is the run's argument, a forged reply's inflation is a
    # model constant, every attacker baits one victim at a time, and an
    # arena's nodes always move (a still network is a [topology] mesh).
    keys += [("scenario", "seed"), ("attack", "seq_inflation"),
             ("attack", "one_victim"), ("mobility", "mobile")]
    for section, key in keys:
        with pytest.raises(ConfigError, match=key):
            load_config(_write(tmp_path, "[%s]\n%s = 30\n" % (section, key)))


def test_protocol_timing_is_fixed_by_the_model():
    # So is the sequence number a forged reply adds.
    for name, value in {**_TIMING, "seq_inflation": 100}.items():
        with pytest.raises(TypeError):
            ScenarioConfig(**{name: value})
        assert getattr(ScenarioConfig(), name) == value


def test_a_built_config_cannot_be_changed():
    cfg = trust_decay_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 1
    # Nor can an instance shadow a timing constant: a 0.02 s reply
    # timeout would condemn honest node 2 on this attacker-free line.
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.reply_timeout = 0.02
    sim = run_scenario(cfg)
    assert sim.metrics.detected_malicious == set()
    assert sim.metrics.total_delivered() == 20


def test_unparseable_value_names_the_setting(tmp_path):
    with pytest.raises(ConfigError, match="node_count"):
        load_config(_write(tmp_path, "[scenario]\nnode_count = many\n"))


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_zero_nodes_rejected(tmp_path):
    with pytest.raises(ConfigError, match="node_count"):
        load_config(_write(tmp_path, "[scenario]\nnode_count = 0\n"))


def test_attack_mode_requires_groups(tmp_path):
    with pytest.raises(ConfigError, match="groups"):
        load_config(_write(tmp_path, "[attack]\nmode = single\n"))


def test_groups_require_an_attack_mode(tmp_path):
    with pytest.raises(ConfigError, match="groups"):
        load_config(_write(tmp_path, "[attack]\ngroups = 3\n"))


def test_flow_endpoints_must_be_honest():
    with pytest.raises(ConfigError, match="attacker"):
        dataclasses.replace(single_scenario(), flows=((1, 3, 0.0),))


def test_flow_endpoints_must_differ():
    with pytest.raises(ConfigError, match="source equals destination"):
        ScenarioConfig(flows=((1, 1, 0.0),))


def test_edge_lines_parse_and_reject_garbage():
    assert parse_edge_lines(["1 2", "", "# note", "3 4 # tail"]) == ((1, 2), (3, 4))
    with pytest.raises(ConfigError):
        parse_edge_lines(["1 2 3"])
    with pytest.raises(ConfigError):
        parse_edge_lines(["a b"])


def test_a_mesh_is_its_edge_endpoints():
    # node_count sizes a random-waypoint arena only; a mesh has no
    # isolated padding nodes.
    cfg = ScenarioConfig(node_count=30, edges=((1, 5), (5, 9)))
    assert cfg.node_ids() == (1, 5, 9)
    assert sorted(build_simulation(cfg).nodes) == [1, 5, 9]
    assert single_scenario().node_ids() == (1, 2, 3, 4)
    assert ScenarioConfig(node_count=3).node_ids() == (1, 2, 3)


def test_cooperative_group_must_be_mutually_in_range():
    cfg = ScenarioConfig(
        edges=((1, 3), (1, 4), (2, 3), (2, 4)),
        attack_mode="cooperative", attack_groups=((3, 4),),
        flows=(), connections=1)
    with pytest.raises(ConfigError, match="not in range"):
        build_simulation(cfg)


def test_single_mode_takes_one_attacker_per_group():
    with pytest.raises(ConfigError, match="single"):
        ScenarioConfig(attack_mode="single", attack_groups=((3, 4),))


# Setting name -> (fields that break it, the start of its error message).
_INVALID = {
    "arena": (dict(arena=(1000.0, 0.0)), "arena:"),
    "range_m": (dict(range_m=0.0), "range_m:"),
    "duration_s": (dict(duration_s=-1.0), "duration_s:"),
    "speeds": (dict(min_speed=5.0, max_speed=2.0), "min_speed/max_speed:"),
    "pause_s": (dict(pause_s=-1.0), "pause_s:"),
    "defense": (dict(defense="watchdog"), "defense:"),
    "attack.mode": (dict(attack_mode="grayhole"), "attack.mode:"),
    "empty group": (dict(attack_mode="distributed", attack_groups=((3,), ())),
                    "attack.groups: empty group"),
    "unknown member": (dict(attack_mode="single", attack_groups=((99,),)),
                       "attack.groups: node 99 is not in the network"),
    "repeated member": (dict(attack_mode="distributed",
                             attack_groups=((3, 4), (4, 5))),
                        "attack.groups: node 4 appears twice"),
    "cooperative size": (dict(attack_mode="cooperative", attack_groups=((3,),)),
                         "attack.groups: cooperative mode"),
    "flow endpoint": (dict(flows=((1, 99, 0.0),)),
                      "traffic.flows: endpoint not in the network"),
    "flow start": (dict(flows=((1, 2, -1.0),)),
                   "traffic.flows: negative start time"),
    "connections": (dict(connections=-1),
                    "traffic.connections: must not be negative"),
    "packets_per_connection": (dict(packets_per_connection=0),
                               "traffic.packets_per_connection:"),
    "rate_pps": (dict(rate_pps=0.0), "traffic.rate_pps:"),
}


@pytest.mark.parametrize("setting", sorted(_INVALID))
def test_an_invalid_setting_is_refused_by_name(setting):
    fields, message = _INVALID[setting]
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        ScenarioConfig(**fields)


def test_a_mesh_ignores_the_arena_and_its_movement():
    # A mesh never reads these, so values an arena refuses are accepted.
    unread = dict(arena=(1000.0, 0.0), range_m=0.0, min_speed=0.0,
                  max_speed=0.0, pause_s=-1.0)
    for setting in ("arena", "range_m", "speeds", "pause_s"):
        assert set(_INVALID[setting][0]) <= set(unread)
    cfg = ScenarioConfig(edges=((1, 2), (2, 3)), flows=((1, 3, 0.0),),
                         **unread)
    assert run_scenario(cfg).metrics.total_delivered() == 10


def test_a_bad_boolean_names_the_setting(tmp_path):
    with pytest.raises(ConfigError, match=re.escape("[scenario] cache_reply")):
        load_config(_write(tmp_path, "[scenario]\ncache_reply = maybe\n"))


def test_a_malformed_file_is_a_config_error(tmp_path):
    # A setting before any [section] header is not INI.
    with pytest.raises(ConfigError, match="^config file: "):
        load_config(_write(tmp_path, "node_count = 30\n"))


def test_planted_flattens_groups_sorted():
    cfg = distributed_fixture()
    assert cfg.planted() == [10, 12, 14, 16]


def test_suite_covers_the_reported_scenario_set():
    suite = build_suite()
    assert [cfg.name for cfg in suite] == [
        "single", "coop2", "coop3", "coop5", "coop7", "coop9", "distributed"]
    assert [len(cfg.planted()) for cfg in suite] == [1, 2, 3, 5, 7, 9, 4]


def test_cooperative_scenario_scales_with_k():
    cfg = cooperative_scenario(5)
    assert cfg.planted() == [8, 9, 10, 11, 12]
    assert len(cfg.flows) == 5
    # All attackers sit in one clique behind the shared relay.
    for a in cfg.planted():
        assert (6, a) in cfg.edges


def test_sweep_wiring_is_identical_for_every_k():
    base = sweep_scenario(2)
    for k in (3, 5, 7, 9):
        cfg = sweep_scenario(k)
        assert cfg.edges == base.edges
        assert cfg.node_ids() == base.node_ids()
        assert len(cfg.planted()) == k
    assert sweep_scenario(9).planted() == list(range(26, 35))


def test_fixture_meshes_load_from_package_data():
    coop = cooperative_fixture()
    assert (10, 14) in coop.edges and (10, 15) in coop.edges
    assert coop.planted() == [10, 14, 15]
    dist = distributed_fixture()
    assert dist.attack_groups == ((10, 14), (12, 16))


def test_trust_decay_scenario_rides_one_line_twice():
    cfg = trust_decay_scenario()
    assert cfg.flows == ((1, 5, 0.0), (1, 5, 60.0))


def test_run_scenario_writes_metrics_and_audit(tmp_path):
    out = tmp_path / "out"
    run_scenario(single_scenario(seed=7), str(out))
    metrics = (out / "metrics.csv").read_text().splitlines()
    audit = (out / "audit.log").read_text().splitlines()
    assert metrics[0] == CSV_HEADER
    assert len(metrics) == 2
    assert audit[0] == AUDIT_HEADER
    assert len(audit) > 1


def test_trace_output_is_optional(tmp_path):
    out = tmp_path / "out"
    run_scenario(dataclasses.replace(single_scenario(seed=7), trace=True),
                 str(out))
    assert (out / "events.trace").exists()


def test_a_static_run_writes_the_same_audit_and_trace_at_any_seed(tmp_path):
    # On a fixed mesh a run draws only check nonces, and no output shows
    # one, so the seed changes no audit or trace byte.
    for seed in (0, 14):
        cfg = dataclasses.replace(distributed_fixture(seed), trace=True)
        run_scenario(cfg, str(tmp_path / str(seed)))
    for name in ("audit.log", "events.trace"):
        first, other = ((tmp_path / str(seed) / name).read_bytes()
                        for seed in (0, 14))
        assert first == other
    assert len(first.splitlines()) > 100


def test_run_suite_orders_rows_by_scenario_then_seed(tmp_path):
    out = tmp_path / "suite"
    rows, summary, sims = run_suite([0, 1], str(out))
    names = [row[0] for row in rows]
    # Scenario blocks in suite order, never interleaved.
    blocks = []
    for name in names:
        if not blocks or blocks[-1] != name:
            blocks.append(name)
    assert blocks == ["single", "coop2", "coop3", "coop5", "coop7", "coop9",
                      "distributed"]
    assert (out / "suite.csv").exists()
    assert (out / "single-s0-metrics.csv").exists()
    assert (out / "distributed-s1-audit.log").exists()
    assert len(sims) == 14


def test_traced_suite_keeps_each_trace_in_its_file_only(tmp_path):
    out = tmp_path / "suite"
    _, _, sims = run_suite([0, 1], str(out), trace=True)
    assert len(sims) == 14
    for (_, seed), sim in sims.items():
        assert sim.engine.trace is None
        assert sim.audit_lines is None
        prefix = "%s-s%d-" % (sim.cfg.name, seed)
        assert (out / (prefix + "events.trace")).stat().st_size > 0
        audit = (out / (prefix + "audit.log")).read_text().splitlines()
        assert audit[0] == AUDIT_HEADER
        assert len(audit) > 1
    # With nothing written, the traces and audit lines stay on the sims.
    _, _, kept = run_suite([0, 1], None, trace=True)
    assert len(kept) == 14
    assert all(sim.engine.trace for sim in kept.values())
    assert all(sim.audit_lines for sim in kept.values())


def test_suite_sims_keep_their_record_but_not_their_network(tmp_path):
    _, _, sims = run_suite([0, 1], str(tmp_path / "suite"), trace=True)
    network = (Node, AdversaryNode, AdversaryGroup, StaticTopology,
               GeometricTopology)
    seen, stack, reached = set(), [sims], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (types.ModuleType, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, network):
            reached.append(type(obj).__name__)
        stack.extend(gc.get_referents(obj))
    assert reached == []
    for (_, seed), sim in sims.items():
        cfg = sim.cfg
        alone = run_scenario(cfg)
        assert sim.engine.processed == alone.engine.processed
        assert (sim.metrics.csv_rows(cfg.name, seed, cfg.planted())
                == alone.metrics.csv_rows(cfg.name, seed, cfg.planted()))
        assert ([f.state for f in sim.flows]
                == [f.state for f in alone.flows])
        assert ([s.state for s in sim.sessions_all]
                == [s.state for s in alone.sessions_all])


def test_run_suite_needs_at_least_one_seed():
    with pytest.raises(ConfigError):
        run_suite([])
