"""Attackers beyond the shipped black hole, for tests only.

Each is an AdversaryNode subclass; a test puts it in a run by replacing
debhsim.simulation.AdversaryNode, so no attack mode or setting names it.
"""

from debhsim import packets as pk
from debhsim.adversary import AdversaryNode
from debhsim.aodv import Node


class OnOffAttacker(AdversaryNode):
    """An honest Node until SWITCH_S, an AdversaryNode from then on: it
    earns trust in early checks and spends it later."""

    SWITCH_S = 30.0


def _by_phase(name):
    honest, attacker = getattr(Node, name), getattr(AdversaryNode, name)

    def method(self, *args):
        phase = honest if self.sim.now < self.SWITCH_S else attacker
        return phase(self, *args)
    return method


# Every method AdversaryNode overrides picks its phase by the clock.
for _name, _value in vars(AdversaryNode).items():
    if callable(_value) and _name != "__init__" and hasattr(Node, _name):
        setattr(OnOffAttacker, _name, _by_phase(_name))


class ProbeAwareAttacker(AdversaryNode):
    """Speaks the check: echoes a hop probe as an honest hop would, then
    forges the check target's Ack toward the source instead of probing on."""

    def handle_data_control(self, pkt, sender):
        self.sim.unicast(self.node_id, sender,
                         pk.DataControlReply(pkt.random_number), force=True)
        self._forward(pk.Ack(pkt.source, pkt.random_number), pkt.source)
