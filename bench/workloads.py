"""The benchmark's workloads and the rule that decides whether a run failed.

Each workload drives debhsim through its public API only (`run_suite`,
`run_scenario`, `ScenarioConfig`).  One operation is one simulation run.
See NOTES.md for why each workload exists and which layers it stresses.
"""

import math
import os
import random
import time

# 15 seeds make 105 runs, so 10 lie beyond p90, and keep a pass near 2 s
# so that a run repeats it often.
SUITE_SEEDS = 15
PAPER30_SEEDS = 80
# Mobile distributed seed 65 condemns two honest nodes.  The paper30 window
# always contains it, so the failure count is exercised on every seed.
KNOWN_FALSE_POSITIVE_SEED = 65
MOBILE_NODES = 300
MOBILE_CONNECTIONS = 100
# The ladder rung is defined at simulation seed 1.  Its cost swings 4x
# between simulation seeds (1.7 s to 7.2 s over seeds 0..7), so a
# seed-dependent input would measure the seed rather than the code.
MOBILE_SIM_SEED = 1


class RunRecord:
    """What one simulation run leaves for the metrics and the failure rule."""

    def __init__(self, label, defense):
        self.label = label
        self.defense = defense
        self.failures = []
        self.events = 0
        self.rreq_floods = 0
        self.flows = 0
        self.flows_failed = 0
        self.sessions = 0
        self.sessions_done = 0
        self.path_numbers = 0
        self.secure_delays = []
        self.forged_rreps = 0
        self.data_drops = 0

    def absorb(self, sim, exact_detection):
        """Read the finished simulation and apply the failure rule."""
        m = sim.metrics
        self.events = sim.engine.processed
        self.rreq_floods = sum(m.rreq_count_by_source.values())
        self.flows = len(sim.flows)
        self.flows_failed = sum(f.state == "failed" for f in sim.flows)
        self.sessions = len(sim.sessions_all)
        self.sessions_done = sum(s.state == "done" for s in sim.sessions_all)
        self.path_numbers = sum(s.path_number for s in sim.sessions_all)
        self.secure_delays = list(m.secure_path_delay_s.values())
        self.forged_rreps = m.forged_rreps
        self.data_drops = m.malicious_drops
        self.failures.extend(failure_reasons(sim, exact_detection))

    def raised(self, exc):
        self.failures.append("raised %s: %s" % (type(exc).__name__, exc))


def failure_reasons(sim, exact_detection):
    """Why a finished run counts as failed; empty when it did not fail."""
    cfg = sim.cfg
    planted = set(cfg.planted())
    detected = set(sim.metrics.detected_malicious)
    reasons = []
    honest = sorted(detected - planted)
    if honest:
        reasons.append("condemned honest nodes %s" % honest)
    stale = [s.session_id for s in sim.sessions_all
             if s.state != "done"
             and cfg.duration_s - s.started_at > cfg.session_timeout]
    if stale:
        reasons.append("sessions %s never finished" % stale)
    if exact_detection and detected != planted:
        reasons.append("detected %s, planted %s"
                       % (sorted(detected), sorted(planted)))
    return reasons


class Timer:
    """Times each simulation run and each `build_simulation` call.

    It replaces `build_simulation` in `debhsim.scenario`, where
    `run_scenario` looks it up, and wraps `run_scenario` so the runs that
    `run_suite` makes are timed one by one.
    """

    def __init__(self, scenario):
        self.run_s = []
        self.build_s = []
        self._build = scenario.build_simulation
        self._run = scenario.run_scenario
        scenario.build_simulation = self._timed_build
        scenario.run_scenario = self.run_scenario

    def _timed_build(self, cfg):
        t0 = time.perf_counter()
        try:
            return self._build(cfg)
        finally:
            self.build_s.append(time.perf_counter() - t0)

    def run_scenario(self, cfg, out_dir=None):
        t0 = time.perf_counter()
        try:
            return self._run(cfg, out_dir)
        finally:
            self.run_s.append(time.perf_counter() - t0)


def suite_traced(dh, timer, seed, out_dir, size=SUITE_SEEDS):
    """`debhsim suite --trace --out`: the 7 static scenarios per seed."""
    seeds = list(range(seed, seed + size))
    try:
        _, _, sims = dh.run_suite(seeds, out_dir, defense="debh", trace=True)
    except Exception as exc:
        # run_suite gives no result once a cell raises, so every cell of
        # this call counts as failed.
        records = [RunRecord("suite-cell", "debh")
                   for _ in range(len(dh.scenario.build_suite()) * size)]
        for rec in records:
            rec.raised(exc)
        return records
    records = []
    for (_, s), sim in sorted(sims.items()):
        rec = RunRecord("%s-s%d" % (sim.cfg.name, s), "debh")
        rec.absorb(sim, exact_detection=True)
        records.append(rec)
    return records


def paper30_seeds(seed, size=PAPER30_SEEDS):
    """Consecutive simulation seeds from `seed % 66`, so that a full
    window always holds the known false positive."""
    start = seed % (KNOWN_FALSE_POSITIVE_SEED + 1)
    return list(range(start, start + size))


def paper30_config(dh, sim_seed, defense):
    pool = random.Random(sim_seed).sample(range(1, 31), 4)
    return dh.ScenarioConfig(
        name="paper30", seed=sim_seed, attack_mode="distributed",
        attack_groups=((pool[0], pool[1]), (pool[2], pool[3])),
        defense=defense)


def paper30_attack(dh, timer, seed, out_dir, size=PAPER30_SEEDS):
    """The paper's 30-node mobile setting under distributed attack; each
    seed runs with `debh` and then with `none`."""
    configs = [paper30_config(dh, s, d)
               for s in paper30_seeds(seed, size) for d in ("debh", "none")]
    return [_run_one(timer, cfg, out_dir) for cfg in configs]


def mobile300(dh, timer, seed, out_dir, size=MOBILE_NODES):
    """The benign 300-node ladder rung: mostly repeated RREQ floods."""
    side = 1000.0 * math.sqrt(size / 30)
    cfg = dh.ScenarioConfig(
        name="mobile%d" % size, node_count=size, arena=(side, side),
        connections=MOBILE_CONNECTIONS * size // MOBILE_NODES,
        seed=MOBILE_SIM_SEED)
    return [_run_one(timer, cfg, out_dir)]


def _run_one(timer, cfg, out_dir):
    label = "%s-s%d-%s" % (cfg.name, cfg.seed, cfg.defense)
    rec = RunRecord(label, cfg.defense)
    try:
        sim = timer.run_scenario(cfg, os.path.join(out_dir, label))
    except Exception as exc:
        rec.raised(exc)
    else:
        rec.absorb(sim, exact_detection=False)
    return rec


WORKLOADS = {
    "suite-traced": suite_traced,
    "paper30-attack": paper30_attack,
    "mobile-300": mobile300,
}
