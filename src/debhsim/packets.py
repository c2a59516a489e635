"""Packet types exchanged between nodes.

Every packet is a slotted record: it has no __dict__, so setting an
undeclared attribute raises AttributeError.  Route requests and replies,
the only packets relayed hop by hop, copy themselves with hopped(), which
calls the constructor with every field."""

from dataclasses import dataclass


@dataclass(slots=True)
class Rreq:
    """Route request, flooded during discovery."""

    origin: int
    destination: int
    origin_seq: int
    dest_seq_known: int
    broadcast_id: int
    hop_count: int = 0
    # Nodes the source refuses to route through; honest nodes ignore
    # flood copies and replies arriving from these senders.
    excluded: tuple = ()
    # Only the destination may answer (RFC 3561's D flag), not a relay
    # from its cached route.
    dest_only: bool = False

    def hopped(self, hop_count):
        """Shallow copy with a new hop_count, as dataclasses.replace makes."""
        return Rreq(self.origin, self.destination, self.origin_seq,
                    self.dest_seq_known, self.broadcast_id, hop_count,
                    self.excluded, self.dest_only)


@dataclass(slots=True)
class Rrep:
    """Route reply, unicast back along the reverse path.

    generator is the node that produced the reply.  generator_nhn and
    generator_trust carry the generator's claimed next hop toward the
    destination and whether it claims to trust that hop; when the
    generator is the destination itself, generator_nhn is its own id.
    The source keeps them in the aodv.RoutingEntry that the check walks.
    """

    origin: int
    destination: int
    broadcast_id: int
    dest_seq: int
    hop_count: int
    generator: int
    generator_nhn: int
    generator_trust: bool = False

    def hopped(self, hop_count):
        """Shallow copy with a new hop_count, as dataclasses.replace makes."""
        return Rrep(self.origin, self.destination, self.broadcast_id,
                    self.dest_seq, hop_count, self.generator,
                    self.generator_nhn, self.generator_trust)


@dataclass(slots=True)
class Data:
    """Application payload, forwarded hop by hop."""

    source: int
    destination: int


@dataclass(slots=True)
class DataControl:
    """Hop check probe; black holes drop it because it is data-class."""

    nhn: int
    random_number: int
    source: int
    target: int
    path_number: int


@dataclass(slots=True)
class OrdinalProbe:
    """Same shape as DataControl but control-class; no reply expected.
    A class of its own because the event trace names packets by class."""

    nhn: int
    random_number: int
    source: int
    target: int
    path_number: int


@dataclass(slots=True)
class DataControlReply:
    random_number: int
    path_number: int


@dataclass(slots=True)
class Ack:
    """Sent by the session target back to the source: path reached."""

    node_id: int
    source: int
    random_number: int
    path_number: int


@dataclass(slots=True)
class SuspectReport:
    """A prober tells the source its next hop went silent."""

    reporter: int
    suspect: int
    source: int
    path_number: int
    random_number: int = 0
    claimed_nhn: int = None
    claimed_trust: bool = False


@dataclass(slots=True)
class NoRouteReport:
    """A chain node lost its route toward the session target."""

    unreachable: int
    source: int
    path_number: int
    random_number: int = 0


@dataclass(slots=True)
class NhnQuery:
    target: int
    random_number: int = 0


@dataclass(slots=True)
class NhnReply:
    nhn: int
    trust_for_nhn: bool
    random_number: int = 0


@dataclass(slots=True)
class BchQuery:
    asker: int
    addressee: int
    subjects: tuple
    path_number: int
    random_number: int = 0


@dataclass(slots=True)
class BchReply:
    """The subjects asked about that the replier trusts."""

    node_id: int
    trusted: tuple
    asker: int
    path_number: int
    random_number: int = 0


@dataclass(slots=True)
class Alarm:
    """Network-wide elimination broadcast naming confirmed black holes."""

    origin: int
    alarm_id: int
    malicious: tuple
