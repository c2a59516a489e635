"""Packet types: every one has a handler in the node's dispatch table,
and relayed packets copy themselves hop by hop."""

import copy
import dataclasses
import inspect

from hypothesis import given, strategies as st

from debhsim import packets as pk
from debhsim.aodv import Node


def test_every_packet_type_has_a_handler():
    types = [cls for _, cls in inspect.getmembers(pk, inspect.isclass)
             if dataclasses.is_dataclass(cls) and cls.__module__ == pk.__name__]
    assert set(types) == set(Node._HANDLERS)
    for cls in types:
        handler, field = Node._HANDLERS[cls]
        assert callable(getattr(Node, handler)), cls
        if field is not None:
            assert field in {f.name for f in dataclasses.fields(cls)}, cls


def test_flood_packet_defaults():
    rreq = pk.Rreq(1, 4, 1, 0, 1)
    assert rreq.hop_count == 0
    assert rreq.excluded == ()


_ints = st.integers(-2**40, 2**40)
_ids = st.lists(st.integers(0, 300), max_size=6).map(tuple)
_HOPPED = st.one_of(
    st.builds(pk.Rreq, _ints, _ints, _ints, _ints, _ints, _ints, _ids),
    st.builds(pk.Rrep, _ints, _ints, _ints, _ints, _ints, _ints, _ints,
              st.booleans()),
)


@given(_HOPPED, _ints)
def test_hopped_is_a_shallow_replace_of_the_hop_count(pkt, hop_count):
    before = copy.copy(pkt)
    new = pkt.hopped(hop_count)
    ref = dataclasses.replace(pkt, hop_count=hop_count)
    assert type(new) is type(pkt)
    assert new == ref
    assert new is not pkt
    assert pkt == before
    # Shallow, like replace: every other field is the very same object,
    # so the excluded tuple is shared, not copied.
    for f in dataclasses.fields(pkt):
        if f.name != "hop_count":
            assert getattr(new, f.name) is getattr(pkt, f.name)
            assert getattr(new, f.name) is getattr(ref, f.name)
    new.hop_count = hop_count + 1
    assert pkt == before
