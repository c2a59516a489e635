"""Packet loss for tests only: no config field or option names it.

A test loses a packet by wrapping Simulation.unicast through pytest's
monkeypatch, so the run draws nothing extra and no setting changes.
"""

from debhsim.simulation import Simulation


def lose_nth(monkeypatch, kind, n=1):
    """Lose the n-th unicast of packet type `kind` in flight: the send
    finds its link and returns True, but nothing arrives.  Returns the
    list that the lost packet is appended to."""
    unicast = Simulation.unicast
    sent, lost = [0], []

    def lossy(sim, sender, to, pkt, force=False):
        if type(pkt) is kind and (
                force or sim.topology.has_link(sender, to, sim.now)):
            sent[0] += 1
            if sent[0] == n:
                lost.append(pkt)
                return True
        return unicast(sim, sender, to, pkt, force)
    monkeypatch.setattr(Simulation, "unicast", lossy)
    return lost
