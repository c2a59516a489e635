"""Packet types exchanged between nodes."""

from dataclasses import dataclass


class _Hops:
    """Packets relayed hop by hop carry a hop_count."""

    def hopped(self, hop_count):
        """Shallow copy with a new hop_count, as dataclasses.replace makes."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.hop_count = hop_count
        return new


@dataclass
class Rreq(_Hops):
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


@dataclass
class Rrep(_Hops):
    """Route reply, unicast back along the reverse path.

    generator is the node that produced the reply.  generator_nhn and
    generator_trust carry the generator's claimed next hop toward the
    destination and whether it claims to trust that hop; when the
    generator is the destination itself, generator_nhn is its own id.
    """

    origin: int
    destination: int
    broadcast_id: int
    dest_seq: int
    hop_count: int
    generator: int
    generator_nhn: int
    generator_trust: bool = False


@dataclass
class Data:
    """Application payload, forwarded hop by hop."""

    source: int
    destination: int


@dataclass
class DataControl:
    """Hop check probe; black holes drop it because it is data-class."""

    nhn: int
    random_number: int
    source: int
    target: int
    path_number: int


@dataclass
class OrdinalProbe:
    """Same shape as DataControl but control-class; no reply expected.
    A class of its own because the event trace names packets by class."""

    nhn: int
    random_number: int
    source: int
    target: int
    path_number: int


@dataclass
class DataControlReply:
    random_number: int
    path_number: int


@dataclass
class Ack:
    """Sent by the session target back to the source: path reached."""

    node_id: int
    source: int
    random_number: int
    path_number: int


@dataclass
class SuspectReport:
    """A prober tells the source its next hop went silent."""

    reporter: int
    suspect: int
    source: int
    path_number: int
    random_number: int = 0
    claimed_nhn: int = None
    claimed_trust: bool = False


@dataclass
class NoRouteReport:
    """A chain node lost its route toward the session target."""

    unreachable: int
    source: int
    path_number: int
    random_number: int = 0


@dataclass
class NhnQuery:
    asker: int
    addressee: int
    target: int
    random_number: int = 0


@dataclass
class NhnReply:
    nhn: int
    trust_for_nhn: bool
    asker: int
    random_number: int = 0


@dataclass
class BchQuery:
    asker: int
    addressee: int
    subjects: tuple
    path_number: int
    random_number: int = 0


@dataclass
class BchReply:
    """The subjects asked about that the replier trusts."""

    node_id: int
    trusted: tuple
    asker: int
    path_number: int
    random_number: int = 0


@dataclass
class Alarm:
    """Network-wide elimination broadcast naming confirmed black holes."""

    origin: int
    alarm_id: int
    malicious: tuple
