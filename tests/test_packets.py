"""Packet types: every one has a handler in the node's dispatch table."""

import dataclasses
import inspect

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
