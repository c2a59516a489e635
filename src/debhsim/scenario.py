"""Scenario configuration, the standard scenario set, and run orchestration."""

import configparser
import os
from dataclasses import dataclass, replace
from importlib import resources
from itertools import combinations
from typing import ClassVar

from .debh import AUDIT_HEADER
from .metrics import CSV_HEADER, write_lines
from .simulation import Simulation

DEFENSES = ("debh", "none")
ATTACK_MODES = ("none", "single", "cooperative", "distributed")


class ConfigError(ValueError):
    """A scenario parameter failed validation."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run needs; defaults are the standard parameter set.
    Checked when built; a variant is dataclasses.replace(cfg, seed=...)."""

    name: str = "default"
    node_count: int = 30          # ignored when edges are set
    arena: tuple = (1000.0, 1000.0)
    range_m: float = 200.0
    duration_s: float = 600.0
    min_speed: float = 2.0
    max_speed: float = 20.0
    pause_s: float = 15.0
    edges: tuple = None           # static mesh; its endpoints are the nodes
    attack_mode: str = "none"
    attack_groups: tuple = ()
    connections: int = 10
    packets_per_connection: int = 10
    rate_pps: float = 2.0
    flows: tuple = None           # ((source, dest, start_s), ...)
    defense: str = "debh"
    seed: int = 0
    cache_reply: bool = False
    trace: bool = False

    # Protocol timing is part of the model, not a setting: a silent hop is
    # condemned on a timeout, so each must outlast the round trip it awaits.
    hop_latency: ClassVar[float] = 0.01
    reply_timeout: ClassVar[float] = 0.04
    selection_window: ClassVar[float] = 0.2
    discovery_timeout: ClassVar[float] = 1.0
    query_timeout: ClassVar[float] = 0.5
    session_timeout: ClassVar[float] = 30.0
    # A forged reply claims the requester's known sequence plus this.
    seq_inflation: ClassVar[int] = 100

    def node_ids(self):
        if self.edges is not None:
            return tuple(sorted({n for e in self.edges for n in e}))
        return tuple(range(1, self.node_count + 1))

    def planted(self):
        return sorted({m for g in self.attack_groups for m in g})

    def __post_init__(self):
        if self.edges is None:
            # The arena and its movement apply only without a mesh.
            if self.node_count < 1:
                raise ConfigError("node_count: must be at least 1")
            if self.arena[0] <= 0 or self.arena[1] <= 0:
                raise ConfigError("arena: dimensions must be positive")
            if self.range_m <= 0:
                raise ConfigError("range_m: must be positive")
            if self.min_speed <= 0 or self.max_speed < self.min_speed:
                raise ConfigError("min_speed/max_speed: need 0 < min <= max")
            if self.pause_s < 0:
                raise ConfigError("pause_s: must not be negative")
        else:
            for u, v in self.edges:
                if u == v:
                    raise ConfigError("topology: self edge on %s" % u)
        if self.duration_s <= 0:
            raise ConfigError("duration_s: must be positive")
        if self.defense not in DEFENSES:
            raise ConfigError("defense: must be one of %s" % (DEFENSES,))
        if self.attack_mode not in ATTACK_MODES:
            raise ConfigError("attack.mode: must be one of %s" % (ATTACK_MODES,))
        if self.attack_mode == "none" and self.attack_groups:
            raise ConfigError("attack.groups: given but attack.mode is none")
        if self.attack_mode != "none" and not self.attack_groups:
            raise ConfigError("attack.groups: required for attack.mode %s"
                              % self.attack_mode)
        ids = set(self.node_ids())
        seen = set()
        for group in self.attack_groups:
            if not group:
                raise ConfigError("attack.groups: empty group")
            for m in group:
                if m not in ids:
                    raise ConfigError("attack.groups: node %s is not in the network" % m)
                if m in seen:
                    raise ConfigError("attack.groups: node %s appears twice" % m)
                seen.add(m)
            if self.attack_mode == "single" and len(group) != 1:
                raise ConfigError("attack.groups: single mode takes one node per group")
            if self.attack_mode == "cooperative" and len(group) < 2:
                raise ConfigError("attack.groups: cooperative mode needs at least two nodes")
        if self.flows is not None:
            for src, dst, start in self.flows:
                if src not in ids or dst not in ids:
                    raise ConfigError("traffic.flows: endpoint not in the network")
                if src == dst:
                    raise ConfigError("traffic.flows: source equals destination")
                if src in seen or dst in seen:
                    raise ConfigError("traffic.flows: endpoint %s is an attacker"
                                      % (src if src in seen else dst))
                if start < 0:
                    raise ConfigError("traffic.flows: negative start time")
        if self.connections < 0:
            raise ConfigError("traffic.connections: must not be negative")
        if self.flows is None and self.connections and len(ids - seen) < 2:
            raise ConfigError("traffic.connections: random flows need at "
                              "least two honest nodes")
        if self.packets_per_connection < 1:
            raise ConfigError("traffic.packets_per_connection: must be at least 1")
        if self.rate_pps <= 0:
            raise ConfigError("traffic.rate_pps: must be positive")


# ---- config file parsing ----

def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _parse_groups(text):
    groups = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            groups.append(tuple(int(m) for m in part.replace(",", " ").split()))
    return tuple(groups)


def _parse_flows(text):
    flows = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        start = 0.0
        if "@" in part:
            part, at = part.split("@", 1)
            start = float(at)
        src, dst = part.split(">", 1)
        flows.append((int(src), int(dst), start))
    return tuple(flows)


_SCHEMA = {
    ("scenario", "name"): ("name", str),
    ("scenario", "node_count"): ("node_count", int),
    ("scenario", "arena_width"): ("_arena_w", float),
    ("scenario", "arena_height"): ("_arena_h", float),
    ("scenario", "range_m"): ("range_m", float),
    ("scenario", "duration_s"): ("duration_s", float),
    ("scenario", "defense"): ("defense", str),
    ("scenario", "cache_reply"): ("cache_reply", _parse_bool),
    ("mobility", "min_speed"): ("min_speed", float),
    ("mobility", "max_speed"): ("max_speed", float),
    ("mobility", "pause_s"): ("pause_s", float),
    ("attack", "mode"): ("attack_mode", str),
    ("attack", "groups"): ("attack_groups", _parse_groups),
    ("traffic", "connections"): ("connections", int),
    ("traffic", "packets_per_connection"): ("packets_per_connection", int),
    ("traffic", "rate_pps"): ("rate_pps", float),
    ("traffic", "flows"): ("flows", _parse_flows),
}


def parse_edge_lines(lines):
    """One `u v` pair per line; blank lines and # comments are skipped."""
    edges = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError("topology: expected `u v`, got %r" % raw.strip())
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ConfigError("topology: non-integer node id in %r" % raw.strip())
    return tuple(edges)


def load_config(path):
    """Read a flat key-value config file; absent keys keep their defaults."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("config file: %s" % exc)
    parser = configparser.ConfigParser(allow_no_value=True, delimiters=("=",))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError("config file: %s" % exc)

    settings = {}
    for section in parser.sections():
        if section == "topology":
            settings["edges"] = parse_edge_lines(parser.options("topology"))
            continue
        for key, value in parser.items(section):
            spec = _SCHEMA.get((section, key))
            if spec is None:
                raise ConfigError("unknown setting [%s] %s" % (section, key))
            attr, convert = spec
            try:
                settings[attr] = convert(value)
            except (TypeError, ValueError):
                raise ConfigError("[%s] %s: cannot parse %r" % (section, key, value))
    width, height = ScenarioConfig.arena
    settings["arena"] = (settings.pop("_arena_w", width),
                         settings.pop("_arena_h", height))
    return ScenarioConfig(**settings)


# ---- building and running ----

def build_simulation(cfg):
    sim = Simulation(cfg)
    if cfg.attack_mode == "cooperative":
        # Colluding nodes must all hear each other where they stand.
        for group in sim.groups:
            for a, b in combinations(group.members, 2):
                if not sim.topology.has_link(a, b, 0.0):
                    raise ConfigError(
                        "attack.groups: cooperative nodes %s and %s "
                        "are not in range of each other" % (a, b))
    return sim


def run_scenario(cfg, out_dir=None):
    """Run one scenario; returns the finished Simulation."""
    sim = build_simulation(cfg)
    sim.run()
    if out_dir is not None:
        write_outputs(sim, out_dir)
    return sim


def _csv_lines(rows):
    return (",".join(row) for row in rows)


def write_outputs(sim, out_dir, prefix=""):
    """Write the run's metrics.csv, audit.log and, when traced,
    events.trace."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = sim.cfg
    path = os.path.join(out_dir, prefix)
    write_lines(path + "metrics.csv",
                _csv_lines(sim.metrics.csv_rows(cfg.name, cfg.seed, cfg.planted())),
                CSV_HEADER)
    write_lines(path + "audit.log", sim.audit_lines, AUDIT_HEADER)
    if sim.engine.trace is not None:
        write_lines(path + "events.trace", sim.engine.trace)


# ---- the standard scenarios ----

def single_scenario(seed=0, defense="debh"):
    """One attacker wedged beside the only relay between 1 and 4."""
    return ScenarioConfig(
        name="single", edges=((1, 2), (2, 3), (2, 4)),
        attack_mode="single", attack_groups=((3,),),
        flows=((1, 4, 0.0),),
        defense=defense, seed=seed)


def cooperative_scenario(k, seed=0, defense="debh"):
    """k sources share one relay toward the destination; a clique of k
    colluding nodes hangs off the same relay."""
    sources = list(range(1, k + 1))
    hub = k + 1
    dest = k + 2
    attackers = list(range(k + 3, 2 * k + 3))
    edges = [(s, hub) for s in sources]
    edges.append((hub, dest))
    edges.extend((hub, a) for a in attackers)
    edges.extend(combinations(attackers, 2))
    return ScenarioConfig(
        name="coop%d" % k, edges=tuple(edges),
        attack_mode="cooperative", attack_groups=(tuple(attackers),),
        flows=tuple((s, dest, 0.0) for s in sources),
        defense=defense, seed=seed)


def _fixture(name, attack_groups, flow, seed, defense):
    """A shipped mesh from package data, attacked in the mode it is named
    for, with one flow."""
    text = resources.files("debhsim").joinpath("data", name + ".topo").read_text()
    edges = parse_edge_lines(text.splitlines())
    return ScenarioConfig(
        name=name, edges=edges, attack_mode=name, attack_groups=attack_groups,
        flows=(flow,), defense=defense, seed=seed)


def cooperative_fixture(seed=0, defense="debh"):
    """The shipped clique-of-three mesh used by the replay command."""
    return _fixture("cooperative", ((10, 14, 15),), (1, 3, 0.0), seed, defense)


def distributed_fixture(seed=0, defense="debh"):
    """The shipped two-branch mesh with an attacker pair on each branch."""
    return _fixture("distributed", ((10, 14), (12, 16)), (1, 8, 0.0), seed,
                    defense)


def sweep_scenario(k, seed=0, defense="debh"):
    """Twelve sources, each with a private relay to one destination; the
    attacker clique (first k of nine fixed slots) hears every relay.
    The wiring never changes with k, only group membership does."""
    sources = list(range(1, 13))
    hubs = {s: 12 + s for s in sources}
    dest = 25
    pool = list(range(26, 35))
    edges = []
    for s in sources:
        edges.append((s, hubs[s]))
        edges.append((hubs[s], dest))
    for a in pool:
        edges.extend((a, hubs[s]) for s in sources)
    edges.extend(combinations(pool, 2))
    return ScenarioConfig(
        name="sweep%d" % k, edges=tuple(edges),
        attack_mode="cooperative", attack_groups=(tuple(pool[:k]),),
        flows=tuple((s, dest, 0.0) for s in sources),
        defense=defense, seed=seed)


def benign_scenario(seed=0):
    """Default mobile network with no attackers."""
    return ScenarioConfig(name="benign", seed=seed)


def trust_decay_scenario(seed=0):
    """A five-node line with the same conversation requested twice."""
    return ScenarioConfig(
        name="trustdecay", edges=((1, 2), (2, 3), (3, 4), (4, 5)),
        flows=((1, 5, 0.0), (1, 5, 60.0)), seed=seed)


def build_suite(seed=0, defense="debh"):
    """The seven standard scenarios, in report order."""
    return [
        single_scenario(seed, defense),
        cooperative_scenario(2, seed, defense),
        cooperative_scenario(3, seed, defense),
        cooperative_scenario(5, seed, defense),
        cooperative_scenario(7, seed, defense),
        cooperative_scenario(9, seed, defense),
        distributed_fixture(seed, defense),
    ]


def run_suite(seeds, out_dir=None, defense="debh", trace=False):
    """Run every suite scenario for every seed, writing each run's files
    as it finishes and suite.csv at the end.

    Returns (csv_rows, summary, sims): rows ordered by (scenario index,
    seed), a per-scenario summary of detection results, and the finished
    simulations keyed by (scenario index, seed).  A returned sim keeps
    its cfg, engine counters, metrics, flows and sessions_all.  Written
    to out_dir, its trace and audit lines live only in its files
    (engine.trace and audit_lines are None); with out_dir None they stay.
    Its network (nodes, topology, groups) is gone: use run_scenario to
    inspect nodes.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("seeds: need at least one")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError("seeds: %d appears twice" % seed)
    rows, summary, sims = [], [], {}
    suites = [build_suite(seed, defense) for seed in seeds]
    for index, cells in enumerate(zip(*suites)):
        detected_sets = []
        for seed, cfg in zip(seeds, cells):
            cfg = replace(cfg, trace=trace)
            sim = sims[(index, seed)] = run_scenario(cfg)
            if out_dir is not None:
                write_outputs(sim, out_dir, prefix="%s-s%d-" % (cfg.name, seed))
                # The files hold the trace and audit lines now; keeping
                # every cell's lines until the suite returns is most of
                # its peak memory.
                sim.engine.trace = sim.audit_lines = None
            rows += sim.metrics.csv_rows(cfg.name, seed, cfg.planted())
            detected_sets.append(sim.metrics.detected_malicious)
            # Only the running network reads these; a finished cell kept
            # whole would hold its nodes' tables until the suite returns.
            sim.nodes = sim.topology = sim.groups = sim.sessions = None
            sim.rng = None
        planted = set(cfg.planted())
        summary.append({
            "scenario": cfg.name,
            "planted": sorted(planted),
            "detected_counts": [len(d) for d in detected_sets],
            "exact": all(d == planted for d in detected_sets),
        })
    if out_dir is not None:
        write_lines(os.path.join(out_dir, "suite.csv"), _csv_lines(rows),
                    CSV_HEADER)
    return rows, summary, sims
