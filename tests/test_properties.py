"""Whole-run properties on generated static meshes: one config gives the
same bytes every time, every check session ends, and probe handshakes
leave honest nodes trusting each other both ways or not at all."""

import dataclasses
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from debhsim import claims
from debhsim.scenario import DEFENSES, ScenarioConfig, run_scenario

OUTPUTS = ("metrics.csv", "audit.log", "events.trace")


def _mesh(edges, mode, groups, flows, **kw):
    return ScenarioConfig(name="mesh", edges=tuple(sorted(edges)),
                          attack_mode=mode, attack_groups=groups,
                          flows=tuple(flows), duration_s=120.0, trace=True,
                          **kw)


@st.composite
def _meshes(draw):
    """A connected mesh of 4 to 12 nodes, attackers placed one per group
    (single) or in groups (distributed), and flows between honest nodes."""
    n = draw(st.integers(4, 12))
    ids = list(range(1, n + 1))
    # A random tree keeps the mesh connected; extra edges add cycles.
    edges = {(draw(st.integers(1, v - 1)), v) for v in ids[1:]}
    pairs = [(u, v) for u in ids for v in ids if u < v]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    mode = draw(st.sampled_from(("none", "single", "distributed")))
    attackers = [] if mode == "none" else draw(st.lists(
        st.sampled_from(ids), min_size=1, max_size=n - 2, unique=True))
    size = 1 if mode == "single" else draw(st.integers(1, max(len(attackers), 1)))
    groups = tuple(tuple(attackers[i:i + size])
                   for i in range(0, len(attackers), size))
    honest = [v for v in ids if v not in attackers]
    flows = draw(st.lists(st.tuples(
        st.sampled_from(honest), st.sampled_from(honest),
        st.floats(0.0, 100.0)).filter(lambda f: f[0] != f[1]),
        min_size=1, max_size=3))
    return _mesh(edges, mode, groups, flows,
                 defense=draw(st.sampled_from(DEFENSES)),
                 cache_reply=draw(st.booleans()),
                 seed=draw(st.integers(0, 2 ** 16)))


def _outputs(cfg):
    with tempfile.TemporaryDirectory() as out:
        run_scenario(cfg, out)
        return {name: (Path(out) / name).read_bytes() for name in OUTPUTS}


@settings(max_examples=30, deadline=None)
@given(_meshes())
def test_one_config_writes_the_same_bytes_every_time(cfg):
    first = _outputs(cfg)
    assert _outputs(cfg) == first
    assert _outputs(dataclasses.replace(cfg)) == first


_STAR = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9),
         (1, 11), (1, 12), (3, 10))


@settings(max_examples=60, deadline=None)
@given(_meshes())
# Each check below once re-routed or healed forever, re-arming its
# watchdog every time: a relay answered the check's re-discovery from a
# cached route that led back through the suspect (the first two), or
# through a relay that had since lost its own route on (the third).
@example(_mesh(_STAR, "single", ((1,),), ((10, 2, 0.0),), cache_reply=True))
@example(_mesh(((1, 2), (1, 3), (1, 4), (1, 7), (2, 5), (2, 6)), "single",
               ((3,), (4,), (5,)), ((6, 7, 0.0),), cache_reply=True))
@example(_mesh(((1, 2), (1, 3), (1, 4), (1, 6), (1, 7), (1, 8), (2, 5), (3, 9)),
               "single", ((3,), (6,), (7,)), ((1, 2, 0.0), (5, 9, 0.0)),
               cache_reply=True))
def test_every_session_that_had_time_to_end_has_ended(cfg):
    assert claims(run_scenario(cfg))["stale"] == []


@settings(max_examples=40, deadline=None)
@given(_meshes())
def test_honest_nodes_trust_each_other_both_ways_or_not_at_all(cfg):
    sim = run_scenario(cfg)
    # An alarm drops its named nodes from every honest node's trust, but
    # not theirs from their peers', so only nodes no alarm named pair up.
    named = sim.metrics.detected_malicious
    honest = [n for n, node in sorted(sim.nodes.items())
              if not node.malicious and n not in named]
    one_way = [(a, b) for a in honest for b in honest
               if b in sim.nodes[a].trusted and a not in sim.nodes[b].trusted]
    assert one_way == []
