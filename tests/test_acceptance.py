"""End-to-end acceptance checks for the full detection pipeline.

Each test covers one headline claim and prints a single pass/fail line,
so a suite run doubles as the acceptance report.
"""

import functools

from debhsim import claims
from debhsim.debh import is_malicious
from debhsim.replay import replay
from debhsim.scenario import (benign_scenario, build_suite, distributed_fixture,
                              run_scenario, run_suite, single_scenario,
                              sweep_scenario, trust_decay_scenario,
                              write_outputs)
from test_golden import _paper30

def criterion(number, text):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("criterion %d: FAIL - %s" % (number, text))
                raise
            print("criterion %d: PASS - %s" % (number, text))
        return run
    return wrap


@criterion(1, "all seven scenarios detect exactly the planted attackers "
              "and end every check across ten seeds")
def test_criterion_1_detection_matches_planted_sets():
    expected_sizes = {"single": 1, "coop2": 2, "coop3": 3, "coop5": 5,
                      "coop7": 7, "coop9": 9, "distributed": 4}
    rows, summary, sims = run_suite(range(10))
    assert len(summary) == 7
    for entry in summary:
        assert entry["exact"], entry
        assert len(entry["planted"]) == expected_sizes[entry["scenario"]]
    for sim in sims.values():
        assert sorted(sim.metrics.detected_malicious) == sim.cfg.planted()
        assert claims(sim)["stale"] == []


@criterion(2, "both shipped meshes replay their frozen probe trajectories "
              "and final queues exactly")
def test_criterion_2_fixture_trajectories_replay_exactly():
    for name in ("cooperative", "distributed"):
        result = replay(name)
        assert result.ok, "%s:\n%s" % (name, "\n".join(result.diffs))
        assert len(result.actual) == len(result.expected)


@criterion(3, "one hundred seeded benign runs raise no verdicts and no "
              "re-routes")
def test_criterion_3_benign_networks_stay_quiet():
    for seed in range(100):
        sim = run_scenario(benign_scenario(seed=seed))
        assert not sim.metrics.detected_malicious, seed
        for session in sim.sessions_all:
            assert session.path_number == 1, (seed, session.source)


@criterion(4, "a repeated check needs strictly fewer hop probes, zero once "
              "the whole path is trusted")
def test_criterion_4_trust_makes_rechecks_cheaper():
    sim = run_scenario(trust_decay_scenario())
    first, second = sim.sessions_all
    assert first.dcp_count > 0
    assert second.dcp_count < first.dcp_count
    assert second.dcp_count == 0


@criterion(5, "undefended delivery decays as the clique grows while the "
              "defense keeps post-detection delivery at 100%")
def test_criterion_5_throughput_sweep_trends():
    ks = (2, 3, 5, 7, 9)
    undefended = []
    for k in ks:
        sim = run_scenario(sweep_scenario(k, defense="none"))
        undefended.append(sim.metrics.total_delivered())
    for a, b in zip(undefended, undefended[1:]):
        assert b <= a, undefended
    assert undefended[-1] < undefended[0], undefended
    for k in ks:
        sim = run_scenario(sweep_scenario(k))
        m = sim.metrics
        assert sorted(m.detected_malicious) == sim.cfg.planted()
        assert m.total_sent() > 0
        assert m.total_delivered() == m.total_sent()


@criterion(6, "discovery cost is one flood plus one per re-route, and "
              "exceeds the undefended cost under attack")
def test_criterion_6_discovery_cost_tracks_reroutes():
    for builder in (single_scenario, distributed_fixture):
        sim = run_scenario(builder(seed=0))
        (session,) = sim.sessions_all
        reroutes = session.path_number - 1
        assert sim.metrics.rreq_count_by_source[1] == 1 + reroutes
    dist = run_scenario(distributed_fixture(seed=0))
    assert dist.metrics.rreq_count_by_source[1] == 3
    defended = run_scenario(single_scenario(seed=0))
    undefended = run_scenario(single_scenario(seed=0, defense="none"))
    assert (defended.metrics.rreq_count_by_source[1]
            > undefended.metrics.rreq_count_by_source[1])


@criterion(7, "the pair verdict truth table holds and probe handshakes keep "
              "trust symmetric")
def test_criterion_7_trust_rules():
    # A claims trust in B, B returns it: condemn A?
    truth = {(True, True): False, (True, False): True,
             (False, True): False, (False, False): False}
    for (a, b), want in truth.items():
        assert is_malicious(a, b) is want, (a, b)
    # Mobile seed 65 under distributed attack condemns honest nodes 4 and
    # 25; the alarm drops everyone's trust in them, so nodes an alarm
    # named are left out of the symmetry check.
    configs = (build_suite(0) + [trust_decay_scenario(), _paper30(65, "debh")]
               + [benign_scenario(seed=s) for s in range(10)])
    trusted_pairs = 0
    for cfg in configs:
        sim = run_scenario(cfg)
        named = sim.metrics.detected_malicious
        honest = [n for n, node in sorted(sim.nodes.items())
                  if not node.malicious and n not in named]
        for i, a in enumerate(honest):
            for b in honest[i + 1:]:
                a_trusts_b = b in sim.nodes[a].trusted
                b_trusts_a = a in sim.nodes[b].trusted
                assert a_trusts_b == b_trusts_a, (cfg.name, cfg.seed, a, b)
                trusted_pairs += a_trusts_b
    assert trusted_pairs > 100


@criterion(8, "identical configuration and seed reproduce byte-identical "
              "outputs")
def test_criterion_8_outputs_are_deterministic(tmp_path):
    for builder in (single_scenario, distributed_fixture):
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / (builder.__name__ + attempt)
            sim = run_scenario(builder(seed=7))
            write_outputs(sim, str(out))
            outputs.append(((out / "metrics.csv").read_bytes(),
                            (out / "audit.log").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] and outputs[0][1]


@criterion(9, "after the alarm, twenty forged discoveries never plant a "
              "route through the condemned node")
def test_criterion_9_alarm_makes_forgeries_inert():
    sim = run_scenario(single_scenario())
    source = sim.nodes[1]
    assert sorted(sim.metrics.detected_malicious) == [3]
    assert 3 in source.banned
    forged_before = sim.metrics.forged_rreps
    for _ in range(20):
        source.table.pop(4, None)
        got = {}
        source.discover(4, (), lambda route, t0: got.update(route=route),
                        lambda d: got.update(failed=d))
        sim.engine.run_until(sim.engine.now + 2.0)
        assert got["route"].generator == 4
    # The attacker kept answering; nobody honest listened.
    assert sim.metrics.forged_rreps == forged_before + 20
    for node in sim.nodes.values():
        if node.malicious:
            continue
        for entry in node.table.values():
            if entry.fresh:
                assert entry.generator != 3
                assert entry.next_hop != 3
