"""How far relayed packets go, for tests only.  Run as a script, it checks
the hop bound and the defense's claims on the paper30 setting, each seed
with both defenses, and exits 1 if either fails:

    PYTHONPATH=src python tests/hops.py [first..last]

The range defaults to 0..999.  Every run must condemn the honest nodes
HONEST_PIN names for it and no others, leave no stale session, and
condemn every planted node it checked but those MISSED_PIN names for it.

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

# Runs that condemn honest nodes on silence: a verify timeout blames the
# verify target (ROADMAP item 3a).
HONEST_PIN = {(65, "debh"): [4, 25], (320, "debh"): [28],
              (518, "debh"): [16], (528, "debh"): [16], (669, "debh"): [24],
              (802, "debh"): [29], (871, "debh"): [24], (941, "debh"): [28],
              (944, "debh"): [10]}

# Runs that leave a checked planted node uncondemned (ROADMAP item 17).
MISSED_PIN = {
    # The attacker was the only generator, and the check aborted before
    # it had any evidence.
    (212, "debh"): [20], (544, "debh"): [9], (652, "debh"): [27],
    # The attacker was queued only as a sub-path's destination that
    # answered for itself, a self-claim with no ack, which adjudicate skips.
    (216, "debh"): [7], (258, "debh"): [3], (310, "debh"): [3],
    (468, "debh"): [7], (483, "debh"): [22], (935, "debh"): [22],
    (941, "debh"): [12], (959, "debh"): [7],
}

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
            run = (seed, defense)
            expected = {"honest": HONEST_PIN.get(run, []), "stale": [],
                        "missed": MISSED_PIN.get(run, [])}
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
    first, last = (sys.argv[1] if len(sys.argv) > 1 else "0..999").split("..")
    sys.exit(main(int(first), int(last)))
