"""The teeth matrix: every seeded bug x every checking pass, pinned.

One registry (:mod:`repro.analysis.mutations`) holds every seeded bug as
a source transform of the real protocol file plus its pinned ``caught``
row.  Each cell runs one pass over one bug: flows/races must add exactly
the pinned finding keys to the unmutated tree's, explore/chaos must
report one of the pinned codes, and a pass the row omits must miss the
bug.  The binder tests pin how explore and chaos run a doctored file.
"""

import sys

import pytest

from repro.analysis.explore.scenarios import SCENARIOS, build_machine
from repro.analysis.mutations import (MUTATIONS, PASSES, STATIC_PASSES,
                                     Mutation)
from repro.core.directory_engine import ScalableBulkDirectory
from repro.network.message import Message, MessageType, dir_node
from teeth import assert_cell

#: a bug no machine runs has only static cells
CELLS = [(name, pass_name) for name, m in MUTATIONS.items()
         for pass_name in (PASSES if m.scenario else STATIC_PASSES)]


@pytest.mark.parametrize("name,pass_name", CELLS,
                         ids=[f"{n}-{p}" for n, p in CELLS])
def test_teeth_cell(name, pass_name):
    assert_cell(name, pass_name)


class TestRegistry:
    def test_unrunnable_bugs_pin_no_dynamic_cell(self):
        for m in MUTATIONS.values():
            assert set(m.caught) <= set(PASSES), m.name
            if m.scenario is None:
                assert not {"explore", "chaos"} & set(m.caught), m.name
            else:
                assert m.scenario in SCENARIOS, m.name

    def test_every_baseline_protocol_has_a_seeded_bug(self):
        protocols = {SCENARIOS[m.scenario].protocol
                     for m in MUTATIONS.values() if m.scenario}
        assert len(protocols) == 4


def _noop_edit(anchor):
    """A transform appending a no-op statement after ``anchor``."""
    return lambda src: src.replace(anchor, anchor + "        pass\n", 1)


class TestBinder:
    def test_binds_onto_instances_never_the_class(self):
        mutation = MUTATIONS["drop-commit-nack"]
        machine = build_machine(SCENARIOS["nack3"])
        mutation.apply(machine)
        real = ScalableBulkDirectory._on_bulk_inv_nack
        for directory in machine.directories:
            assert isinstance(directory, ScalableBulkDirectory)
            assert directory._on_bulk_inv_nack.__func__ is not real
            assert directory._on_bulk_inv_nack.__self__ is directory
        fresh = build_machine(SCENARIOS["nack3"]).directories[0]
        assert fresh._on_bulk_inv_nack.__func__ is real
        assert (sys.modules["repro.core.directory_engine"]
                .ScalableBulkDirectory is ScalableBulkDirectory)

    def test_rebinds_the_table_onto_doctored_methods(self):
        """The directory's table bound the real ``_on_bulk_inv_nack`` at
        build: a delivered BULK_INV_NACK must reach the doctored one."""
        machine = build_machine(SCENARIOS["nack3"])
        MUTATIONS["drop-commit-nack"].apply(machine)
        index = MessageType.BULK_INV_NACK.index
        for directory in machine.directories:
            handler = directory._table[index]
            assert handler == directory._on_bulk_inv_nack
            assert handler.__func__ is not \
                ScalableBulkDirectory._on_bulk_inv_nack

    def test_rebinds_the_table_from_a_doctored_handlers_literal(self):
        """delete-handler edits only ``HANDLERS``: after apply a G_SUCCESS
        hits the unknown-type error instead of the real handler."""
        machine = build_machine(SCENARIOS["cross3"])
        MUTATIONS["delete-handler"].apply(machine)
        directory = machine.directories[0]
        msg = Message(MessageType.G_SUCCESS, dir_node(1), directory.node,
                      ctag=("c", 0))
        with pytest.raises(NotImplementedError, match="G_SUCCESS"):
            directory.handle_message(msg)
        assert (build_machine(SCENARIOS["cross3"]).directories[0]
                ._table[MessageType.G_SUCCESS.index].__name__
                == "_on_g_success")

    def test_refuses_a_bug_no_built_object_runs(self):
        """A transform that only adds an unbuilt class changes nothing
        the machine runs."""
        with pytest.raises(ValueError, match="changes no method"):
            MUTATIONS["silent-handler"].apply(
                build_machine(SCENARIOS["cross3"]))

    @pytest.mark.parametrize("rel_path,anchor,scenario", [
        ("memory/directory.py", "        self._dispatch(msg)\n", "cross3"),
        ("baselines/tcc.py",
         "    def handle_message(self, msg: Message) -> None:\n", "tcc3"),
    ], ids=["directory", "tid-vendor"])
    def test_refuses_a_handler_the_network_captured(self, rel_path, anchor,
                                                    scenario):
        """``handle_message`` was registered as a bound method when the
        machine was built: rebinding it would leave the run unmutated."""
        mutation = Mutation("edit-handler", "touches handle_message",
                            rel_path, _noop_edit(anchor), scenario)
        with pytest.raises(ValueError, match="handle_message"):
            mutation.apply(build_machine(SCENARIOS[scenario]))
