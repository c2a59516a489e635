"""Every small world, not a sample: each property is checked on every
connected labelled graph on 4 nodes, for two flow shapes, with no attacker
or one lone attacker at each node that is not a flow endpoint, under both
defenses, at seed 0 for 120 s.

Run as a script to check every world on n nodes instead (728 graphs at 5)
against the properties that hold at 4:

    PYTHONPATH=src python tests/test_small_worlds.py 5
"""

import functools
import itertools
import sys

import pytest

from debhsim import claims
from debhsim.scenario import DEFENSES, ScenarioConfig, run_scenario


def connected_graphs(n):
    """Every connected labelled graph on nodes 1..n, as edge tuples."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1, 1 << len(pairs)):
        edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
        reached, grew = {1}, True
        while grew:
            grew = False
            for u, v in edges:
                if (u in reached) != (v in reached):
                    reached.update((u, v))
                    grew = True
        if len(reached) == n:
            yield edges


def worlds(n):
    """(edges, flows, attacker or None) for every world on n nodes."""
    shapes = (((1, n, 0.0), (n, 1, 1.0)),   # a conversation both ways
              ((1, 2, 0.0), (3, 1, 1.0)))   # 3 answers over 1's reverse route
    for edges in connected_graphs(n):
        for flows in shapes:
            ends = {v for flow in flows for v in flow[:2]}
            for attacker in [None] + [v for v in range(1, n + 1) if v not in ends]:
                yield edges, flows, attacker


def _config(world, defense, cache_reply):
    edges, flows, attacker = world
    return ScenarioConfig(
        name="world", edges=edges, flows=flows,
        attack_mode="none" if attacker is None else "single",
        attack_groups=() if attacker is None else ((attacker,),),
        duration_s=120.0, defense=defense, cache_reply=cache_reply, seed=0)


# Each property takes the world's run per defense; soundness, termination
# and completeness read debhsim.claims.

def _sound(sims):
    """No honest node is condemned."""
    return not any(claims(sim)["honest"] for sim in sims.values())


def _terminates(sims):
    """Every session that had time to end has ended."""
    return not claims(sims["debh"])["stale"]


def _complete(sims):
    """Every attacker whose reply a session queued is condemned."""
    return not claims(sims["debh"])["missed"]


def _no_worse_than_none(sims):
    """Without an attacker, the check costs no delivery and no session
    ends through its watchdog."""
    debh = sims["debh"]
    if debh.cfg.planted():
        return True
    return (debh.metrics.total_delivered() >= sims["none"].metrics.total_delivered()
            and not any(",abort," in row for row in debh.audit_lines))


PROPERTIES = {"soundness": _sound, "termination": _terminates,
              "completeness": _complete, "differential": _no_worse_than_none}


@functools.lru_cache(maxsize=None)
def counterexamples(n, cache_reply):
    """For each property, the worlds on n nodes where it fails."""
    failed = {name: [] for name in PROPERTIES}
    for world in worlds(n):
        sims = {d: run_scenario(_config(world, d, cache_reply)) for d in DEFENSES}
        for name, holds in PROPERTIES.items():
            if not holds(sims):
                failed[name].append(world)
    return failed


_KNOWN = {
    ("soundness", True):
        "a cached reply condemns an honest relay: on the line 1-4-2-3 "
        "(edges 1 4 / 2 3 / 2 4) with attacker 4, honest node 2 answers "
        "3's request from its route through 4, and falls with 4",
    ("differential", False):
        "flows 1>2; 3>1@1: 3 reuses the reverse route from 1's flood, so "
        "1 has no route back for its Ack; debh delivers less than none and "
        "a watchdog aborts in 31 of 38 worlds",
    ("differential", True):
        "as without the cache, and relays answer from their own routes: "
        "debh delivers less than none and a watchdog aborts in 38 of 38 "
        "worlds",
}
CASES = [(name, cache) for name in PROPERTIES for cache in (False, True)]
HOLDING = [case for case in CASES if case not in _KNOWN]


@pytest.mark.parametrize("name,cache_reply", [
    pytest.param(*case, marks=pytest.mark.xfail(strict=True, reason=_KNOWN[case]))
    if case in _KNOWN else case
    for case in CASES])
def test_every_4_node_world(name, cache_reply):
    assert counterexamples(4, cache_reply)[name] == []


@pytest.mark.xfail(strict=True, reason=_KNOWN[("soundness", True)])
def test_the_smallest_unsound_world_condemns_only_its_attacker():
    world = (((1, 4), (2, 3), (2, 4)), ((1, 2, 0.0), (3, 1, 1.0)), 4)
    sim = run_scenario(_config(world, "debh", cache_reply=True))
    assert sim.metrics.detected_malicious == {4}


def main(n):
    failing = 0
    for name, cache_reply in HOLDING:
        bad = counterexamples(n, cache_reply)[name]
        failing += len(bad)
        print("%d nodes, cache_reply=%s, %s: %d failing worlds"
              % (n, cache_reply, name, len(bad)))
        for world in bad:
            print("  edges=%s flows=%s attacker=%s" % world)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
