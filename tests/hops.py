"""How far relayed packets go, for tests only.  Run as a script, it checks
the hop bound and the defense's claims on the paper30 setting, each seed
with both defenses, and exits 1 if either fails:

    PYTHONPATH=src python tests/hops.py [first..last]

Every run must condemn the honest nodes HONEST_PIN names for it and no
others, leave no stale session, and condemn every planted node it checked.

Node._forward relays a packet along routes and drops it once it has made
node count - 1 hops, since no path without a loop is longer.  A reply's
hop count starts from the hops its generator advertised; any other
relayed packet counts its own sends.  Probe chains build a new packet at
each hop, so they stay outside the bound.
"""

import sys
from dataclasses import replace

from debhsim import claims, packets as pk
from debhsim.scenario import build_simulation
from test_golden import _paper30

# Seed 65's debh run condemns two honest nodes on silence (ROADMAP item 3a).
HONEST_PIN = {(65, "debh"): [4, 25]}

RELAYED = (pk.Rrep, pk.Data, pk.Ack, pk.SuspectReport, pk.NoRouteReport,
           pk.BchQuery, pk.BchReply)


def farthest(sim):
    """Wrap sim.unicast on the instance.  Returns a dict, filled as sim
    runs, of each relayed packet type's most hops when sent: a reply's
    hop_count, any other packet's count of sends of that very object."""
    unicast = sim.unicast
    most = dict.fromkeys(RELAYED, 0)
    sends = {}    # id -> [packet, sends]; holding the packet keeps ids unique

    def recording(sender, to, pkt, force=False):
        kind = type(pkt)
        if kind is pk.Rrep:
            most[kind] = max(most[kind], pkt.hop_count)
        elif kind in most:
            rec = sends.setdefault(id(pkt), [pkt, 0])
            rec[1] += 1
            most[kind] = max(most[kind], rec[1])
        return unicast(sender, to, pkt, force)
    sim.unicast = recording
    return most


def paper30_run(seed, defense):
    """Run one paper30 world untraced; returns (sim, farthest dict)."""
    sim = build_simulation(replace(_paper30(seed, defense), trace=False))
    most = farthest(sim)
    sim.run()
    return sim, most


def main(first, last):
    over, peak = [], dict.fromkeys(RELAYED, 0)
    broken, checked = [], 0
    for seed in range(first, last + 1):
        for defense in ("debh", "none"):
            sim, most = paper30_run(seed, defense)
            for kind, hops in most.items():
                peak[kind] = max(peak[kind], hops)
                if hops > len(sim.nodes) - 1:
                    over.append((seed, defense, kind.__name__, hops))
            found = claims(sim)
            checked += len(found["checked"])
            expected = {"honest": HONEST_PIN.get((seed, defense), []),
                        "stale": [], "missed": []}
            for name, ids in expected.items():
                if found[name] != ids:
                    broken.append((seed, defense, name, found[name], ids))
    print("paper30 seeds %d..%d, both defenses: %d runs and packet types "
          "past the bound" % (first, last, len(over)))
    print("  most hops: " + ", ".join(
        "%s %d" % (kind.__name__, hops) for kind, hops in peak.items()))
    for row in over:
        print("  seed %d %s: %s made %d hops" % row)
    print("  claims: %d checked attackers, %d run claims off their pin"
          % (checked, len(broken)))
    for row in broken:
        print("  seed %d %s: %s %s, pinned %s" % row)
    return 1 if over or broken else 0


if __name__ == "__main__":
    first, last = (sys.argv[1] if len(sys.argv) > 1 else "0..199").split("..")
    sys.exit(main(int(first), int(last)))
