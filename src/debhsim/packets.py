"""Packet types exchanged between nodes.

Every packet is a slotted record: it has no __dict__, so setting an
undeclared attribute raises AttributeError.  Two records are equal when
they have one type and equal fields; being mutable, they are unhashable.
Each is a plain class with a written-out constructor, so importing this
module generates no code.  A route request, the one flooded packet that
changes on its way, copies itself at each hop with hopped(), which calls
the constructor with every field.  A packet relayed along routes (a
route reply, data, and the check's acks, reports, queries and replies)
stays one object: Node._forward raises its hop_count at each hop and
drops it at the network's hop bound."""


class Record:
    """Base of the slotted records: equality and repr read __slots__."""

    __slots__ = ()
    __hash__ = None

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class Rreq(Record):
    """Route request, flooded during discovery.

    excluded names the nodes the source refuses to route through; honest
    nodes ignore flood copies and replies arriving from these senders.
    dest_only lets only the destination answer (RFC 3561's D flag), not
    a relay from its cached route."""

    __slots__ = ("origin", "destination", "origin_seq", "dest_seq_known",
                 "broadcast_id", "hop_count", "excluded", "dest_only")

    def __init__(self, origin, destination, origin_seq, dest_seq_known,
                 broadcast_id, hop_count=0, excluded=(), dest_only=False):
        self.origin = origin
        self.destination = destination
        self.origin_seq = origin_seq
        self.dest_seq_known = dest_seq_known
        self.broadcast_id = broadcast_id
        self.hop_count = hop_count
        self.excluded = excluded
        self.dest_only = dest_only

    def hopped(self, hop_count):
        """Shallow copy with a new hop_count."""
        return Rreq(self.origin, self.destination, self.origin_seq,
                    self.dest_seq_known, self.broadcast_id, hop_count,
                    self.excluded, self.dest_only)


class Rrep(Record):
    """Route reply, unicast back along the reverse path.

    generator is the node that produced the reply.  generator_nhn and
    generator_trust carry the generator's claimed next hop toward the
    destination and whether it claims to trust that hop; when the
    generator is the destination itself, generator_nhn is its own id.
    The source keeps them in the aodv.RoutingEntry that the check walks.
    hop_count is the generator's advertised distance plus the hops made.
    """

    __slots__ = ("origin", "destination", "broadcast_id", "dest_seq",
                 "hop_count", "generator", "generator_nhn", "generator_trust")

    def __init__(self, origin, destination, broadcast_id, dest_seq, hop_count,
                 generator, generator_nhn, generator_trust=False):
        self.origin = origin
        self.destination = destination
        self.broadcast_id = broadcast_id
        self.dest_seq = dest_seq
        self.hop_count = hop_count
        self.generator = generator
        self.generator_nhn = generator_nhn
        self.generator_trust = generator_trust


class Data(Record):
    """Application payload, forwarded hop by hop."""

    __slots__ = ("source", "destination", "hop_count")

    def __init__(self, source, destination, hop_count=0):
        self.source = source
        self.destination = destination
        self.hop_count = hop_count


class DataControl(Record):
    """Hop check probe; black holes drop it because it is data-class."""

    __slots__ = ("nhn", "random_number", "source", "target")

    def __init__(self, nhn, random_number, source, target):
        self.nhn = nhn
        self.random_number = random_number
        self.source = source
        self.target = target


class OrdinalProbe(Record):
    """Same shape as DataControl but control-class; no reply expected.
    A class of its own because the event trace names packets by class."""

    __slots__ = ("nhn", "random_number", "source", "target")

    def __init__(self, nhn, random_number, source, target):
        self.nhn = nhn
        self.random_number = random_number
        self.source = source
        self.target = target


class DataControlReply(Record):
    __slots__ = ("random_number",)

    def __init__(self, random_number):
        self.random_number = random_number


class Ack(Record):
    """Sent by the session target back to the source: path reached.  It
    names no sender: the source credits its session's current target."""

    __slots__ = ("source", "random_number", "hop_count")

    def __init__(self, source, random_number, hop_count=0):
        self.source = source
        self.random_number = random_number
        self.hop_count = hop_count


class SuspectReport(Record):
    """A prober tells the source its next hop went silent."""

    __slots__ = ("reporter", "suspect", "source", "random_number",
                 "claimed_nhn", "claimed_trust", "hop_count")

    def __init__(self, reporter, suspect, source, random_number,
                 claimed_nhn=None, claimed_trust=False, hop_count=0):
        self.reporter = reporter
        self.suspect = suspect
        self.source = source
        self.random_number = random_number
        self.claimed_nhn = claimed_nhn
        self.claimed_trust = claimed_trust
        self.hop_count = hop_count


class NoRouteReport(Record):
    """A node lost its route toward unreachable.  A chain node reports
    it with the check's nonce; a data relay sends no nonce, and its
    report is a route error for the data plane."""

    __slots__ = ("unreachable", "source", "random_number", "hop_count")

    def __init__(self, unreachable, source, random_number=None, hop_count=0):
        self.unreachable = unreachable
        self.source = source
        self.random_number = random_number
        self.hop_count = hop_count


class NhnQuery(Record):
    __slots__ = ("target", "random_number")

    def __init__(self, target, random_number):
        self.target = target
        self.random_number = random_number


class NhnReply(Record):
    __slots__ = ("nhn", "trust_for_nhn", "random_number")

    def __init__(self, nhn, trust_for_nhn, random_number):
        self.nhn = nhn
        self.trust_for_nhn = trust_for_nhn
        self.random_number = random_number


class BchQuery(Record):
    __slots__ = ("asker", "addressee", "subjects", "random_number",
                 "hop_count")

    def __init__(self, asker, addressee, subjects, random_number,
                 hop_count=0):
        self.asker = asker
        self.addressee = addressee
        self.subjects = subjects
        self.random_number = random_number
        self.hop_count = hop_count


class BchReply(Record):
    """The subjects asked about that the replier trusts.  It names no
    replier: the asker credits the target its session is verifying."""

    __slots__ = ("trusted", "asker", "random_number", "hop_count")

    def __init__(self, trusted, asker, random_number, hop_count=0):
        self.trusted = trusted
        self.asker = asker
        self.random_number = random_number
        self.hop_count = hop_count


class Alarm(Record):
    """Network-wide elimination broadcast naming confirmed black holes.
    Its broadcast_id is drawn from the origin's route request counter."""

    __slots__ = ("origin", "broadcast_id", "malicious")

    def __init__(self, origin, broadcast_id, malicious):
        self.origin = origin
        self.broadcast_id = broadcast_id
        self.malicious = malicious
