"""Packet types: every one has a handler in the node's dispatch table
and trace kinds named after it, every one (and the routing entry) is a
slotted record written out by hand, not a dataclass, and a flooded
request copies itself hop by hop."""

import copy
import dataclasses
import inspect

import pytest
from hypothesis import given, strategies as st

from debhsim import packets as pk
from debhsim.aodv import Node, RoutingEntry, _Pending
from debhsim.debh import CheckSession
from debhsim.simulation import _TRACE_KINDS

PACKET_TYPES = [cls for _, cls in inspect.getmembers(pk, inspect.isclass)
                if cls.__module__ == pk.__name__ and cls is not pk.Record]


def test_every_packet_type_has_a_handler():
    assert set(PACKET_TYPES) == set(Node._HANDLERS)
    for cls in PACKET_TYPES:
        handler, field = Node._HANDLERS[cls]
        assert callable(getattr(Node, handler)), cls
        if field is not None:
            assert field in cls.__slots__, cls
        name = cls.__name__.lower()
        assert _TRACE_KINDS[cls] == ("send_" + name, "recv_" + name)


@pytest.mark.parametrize("cls", PACKET_TYPES + [RoutingEntry],
                         ids=lambda cls: cls.__name__)
def test_records_are_slotted(cls):
    params = inspect.signature(cls).parameters
    # Equality and repr read __slots__, so every field is a constructor
    # argument, in slot order.
    assert tuple(params) == cls.__slots__
    required = sum(p.default is inspect.Parameter.empty
                   for p in params.values())
    record = cls(*range(required))
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.undeclared = 1
    assert record == cls(*range(required))
    with pytest.raises(TypeError):
        hash(record)


def test_records_compare_by_type_and_fields():
    probe = pk.DataControl(1, 2, 3, 4)
    assert probe != pk.OrdinalProbe(1, 2, 3, 4)
    assert probe != pk.DataControl(1, 2, 3, 5)
    assert repr(pk.Data(1, 2)) == "Data(source=1, destination=2, hop_count=0)"


def test_no_record_or_state_holder_is_a_dataclass():
    for cls in PACKET_TYPES + [RoutingEntry, _Pending, CheckSession]:
        assert not dataclasses.is_dataclass(cls), cls


def test_flood_packet_defaults():
    rreq = pk.Rreq(1, 4, 1, 0, 1)
    assert rreq.hop_count == 0
    assert rreq.excluded == ()


_ints = st.integers(-2**40, 2**40)
_ids = st.lists(st.integers(0, 300), max_size=6).map(tuple)
_RREQS = st.builds(pk.Rreq, _ints, _ints, _ints, _ints, _ints, _ints, _ids,
                   st.booleans())


@given(_RREQS, _ints)
def test_hopped_is_a_shallow_replace_of_the_hop_count(pkt, hop_count):
    before = copy.copy(pkt)
    new = pkt.hopped(hop_count)
    ref = copy.copy(pkt)
    ref.hop_count = hop_count
    assert type(new) is type(pkt)
    assert new == ref
    assert new is not pkt
    assert pkt == before
    # Shallow, like copy.copy: every other field is the very same object,
    # so the excluded tuple is shared, not copied.
    for name in type(pkt).__slots__:
        if name != "hop_count":
            assert getattr(new, name) is getattr(pkt, name)
            assert getattr(new, name) is getattr(ref, name)
    new.hop_count = hop_count + 1
    assert pkt == before
