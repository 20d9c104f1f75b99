"""Dispatch by table: every protocol role binds its ``HANDLERS`` once.

A delivery is one list lookup, ``_table[msg.mtype.index](msg)``; a type
no table entry claims raises the one shared unknown-type error, naming
the role and the type, at every role of every protocol.
"""

import pytest

from repro.config import ProtocolKind, SystemConfig
from repro.harness.runner import Machine
from repro.memory.directory import DirectoryModule
from repro.network.message import (Message, MessageType, bind_handlers,
                                   core_node, handler_names)
from repro.protocols.base import ProcessorEngine


def roles(machine):
    """Every role instance of a built machine: directories, engines and
    the central agent where the protocol has one."""
    agent = (getattr(machine.protocol, "arbiter", None)
             or getattr(machine.protocol, "vendor", None))
    return ([machine.directories[0], machine.protocol.engines[0]]
            + ([agent] if agent is not None else []))


@pytest.mark.parametrize("protocol", list(ProtocolKind))
class TestEveryRole:
    def _machine(self, protocol):
        config = SystemConfig(n_cores=4, seed=3, protocol=protocol)
        return Machine(config, next_spec=lambda c: None)

    def test_unknown_type_raises_the_shared_error(self, protocol):
        machine = self._machine(protocol)
        for role in roles(machine):
            declared = handler_names(type(role))
            unknown = next(t for t in MessageType if t.name not in declared)
            msg = Message(unknown, core_node(0), role.node)
            with pytest.raises(NotImplementedError) as info:
                role.handle_message(msg)
            text = str(info.value)
            assert type(role).__name__ in text and str(role.node) in text
            assert unknown.name in text

    def test_every_declared_type_reaches_its_method(self, protocol):
        machine = self._machine(protocol)
        for role in roles(machine):
            assert len(role._table) == len(MessageType)
            for mtype, method in handler_names(type(role)).items():
                bound = role._table[MessageType[mtype].index]
                assert bound == getattr(role, method), (role, mtype)


class TestMerge:
    def test_subclass_tables_extend_their_bases(self):
        class Dir(DirectoryModule):
            HANDLERS = {"G": "_on_g", "WRITEBACK": "_on_g"}

        names = handler_names(Dir)
        assert names["READ_REQ"] == "_handle_read"   # inherited
        assert names["G"] == names["WRITEBACK"] == "_on_g"   # overridden
        assert handler_names(DirectoryModule)["WRITEBACK"] == \
            "_handle_writeback"

    def test_replaced_table_stands_in_for_the_class_own(self):
        names = handler_names(ProcessorEngine,
                              {ProcessorEngine: {"FWD_READ": "_on_data"}})
        assert names == {"FWD_READ": "_on_data"}

    def test_a_misspelled_method_fails_at_bind(self):
        machine = Machine(SystemConfig(n_cores=4, seed=3),
                          next_spec=lambda c: None)
        with pytest.raises(AttributeError, match="_on_dta"):
            bind_handlers(machine.protocol.engines[0],
                          {"DATA_FROM_MEM": "_on_dta"})
