"""Flow pass: automata, spec parsing, SB002-SB004/SB6xx rules, teeth."""

import pytest

from repro.analysis.cli import PASS_RULES
from repro.analysis.findings import repo_paths
from repro.analysis.flows import extract_flow_automaton, lint_flows, load_spec
from repro.analysis.flows.automaton import _scan_gaps, build_automaton
from repro.analysis.flows.rules import (_conformance, _dangling,
                                        _dead_handlers, _dispatch_gaps,
                                        _orphan_types, _reply_paths,
                                        _silent_mutations)
from repro.analysis.flows.specs import (MessageDecls, ParsedSpec, SpecError,
                                        parse_spec)
from repro.analysis.mutations import MUTATIONS
from repro.analysis.races.model import _extract_source
from repro.protocols.spec import ProtocolSpec

FAMILIES = ("scalablebulk", "bulksc", "tcc", "seq", "substrate")


def keys(findings):
    return {f.key for f in findings}


# ----------------------------------------------------------------------
# Toy two-role protocol: the extraction contract in miniature
# ----------------------------------------------------------------------
TOY_PATH = "src/repro/toy.py"
TOY_TYPES = ("PING", "PONG")

TOY = '''
class ToyEngine:
    def send_ping(self):
        self.network.unicast(MessageType.PING, self.node, dir_node(0),
                             ctag=1)

    def handle_protocol_message(self, msg):
        mtype = msg.mtype
        if mtype is MessageType.PONG:
            self._on_pong(msg)
        else:
            raise NotImplementedError(mtype)

    def _on_pong(self, msg):
        self.done = True


class ToyDirectory:
    def handle_protocol_message(self, msg):
        mtype = msg.mtype
        if mtype is MessageType.PING:
            self._on_ping(msg)

    def _on_ping(self, msg):
        self.network.unicast(MessageType.PONG, self.node, msg.src,
                             ctag=msg.ctag)
'''


def toy_automaton(source=TOY, types=TOY_TYPES):
    classes = _extract_source(TOY_PATH, source)
    gaps = _scan_gaps(TOY_PATH, source)
    return build_automaton("toy", types, classes, gaps)


def toy_spec(**overrides):
    fields = dict(
        family="toy",
        edges=(("core", "PING", "dir"), ("dir", "PONG", "core")),
        replies={"PING": ("PONG",)},
    )
    fields.update(overrides)
    return ParsedSpec(spec=ProtocolSpec(**fields), path=TOY_PATH, line=1)


class TestToyExtraction:
    def test_roles_and_handlers(self):
        auto = toy_automaton()
        assert "PONG" in auto.handled["core"]
        assert "PING" in auto.handled["dir"]
        assert auto.handled["dir"]["PING"].qualname == "ToyDirectory._on_ping"

    def test_root_send_and_reply_resolution(self):
        """send_ping is a root send (no trigger); the PONG reply to
        ``msg.src`` resolves to 'core' because only the core sends PING."""
        auto = toy_automaton()
        assert auto.edges() == {("core", "PING", "dir"),
                                ("dir", "PONG", "core")}
        assert not auto.unresolved()
        pong = next(s for s in auto.sends if s.mtype == "PONG")
        assert pong.triggers == ("PING",)

    def test_reactions_keyed_by_receiver_and_trigger(self):
        auto = toy_automaton()
        assert [s.mtype for s in auto.reactions[("dir", "PING")]] == ["PONG"]

    def test_dispatch_gap_found_only_where_else_is_missing(self):
        auto = toy_automaton()
        assert [g.qualname for g in auto.gaps] == \
            ["ToyDirectory.handle_protocol_message"]


class TestToyRules:
    def test_clean_toy_is_silent_except_the_gap(self):
        auto = toy_automaton()
        parsed = toy_spec()
        assert _dangling(auto, set()) == []
        assert _conformance(auto, parsed, set()) == []
        assert _reply_paths(auto, parsed) == []
        assert {f.code for f in _dispatch_gaps(auto)} == {"SB604"}

    def test_sb601_never_handled(self):
        source = TOY.replace("        if mtype is MessageType.PONG:\n"
                             "            self._on_pong(msg)\n"
                             "        else:\n", "        if True:\n")
        auto = toy_automaton(source)
        assert f"SB601 {TOY_PATH}::toy/PONG:never-handled" in \
            keys(_dangling(auto, set()))

    def test_sb601_never_sent(self):
        source = TOY.replace(
            "        self.network.unicast(MessageType.PING, self.node, "
            "dir_node(0),\n                             ctag=1)\n",
            "        pass\n")
        auto = toy_automaton(source)
        got = keys(_dangling(auto, set()))
        assert f"SB601 {TOY_PATH}::toy/PING:never-sent" in got

    def test_sb601_exempt_types_are_skipped(self):
        source = TOY.replace("        if mtype is MessageType.PONG:\n"
                             "            self._on_pong(msg)\n"
                             "        else:\n", "        if True:\n")
        auto = toy_automaton(source)
        assert _dangling(auto, exempt={"PONG", "PING"}) == []

    def test_sb602_undeclared_and_unimplemented(self):
        auto = toy_automaton()
        # spec claims PONG stays directory-internal: the real dir->core
        # reply is undeclared and the declared dir->dir edge unimplemented
        parsed = toy_spec(edges=(("core", "PING", "dir"),
                                 ("dir", "PONG", "dir")))
        got = keys(_conformance(auto, parsed, set()))
        assert f"SB602 {TOY_PATH}::toy/dir-PONG->core:undeclared" in got
        assert f"SB602 {TOY_PATH}::toy/dir-PONG->dir:unimplemented" in got

    def test_sb603_when_the_reply_disappears(self):
        source = TOY.replace(
            "        self.network.unicast(MessageType.PONG, self.node, "
            "msg.src,\n                             ctag=msg.ctag)\n",
            "        self.seen = True\n")
        auto = toy_automaton(source)
        parsed = toy_spec(edges=(("core", "PING", "dir"),
                                 ("dir", "PONG", "core")))
        got = keys(_reply_paths(auto, parsed))
        assert got == {f"SB603 {TOY_PATH}::toy/PING:no-reply-path"}

    def test_retry_edge_counts_as_a_reply(self):
        """A declared retry type reaching the requester keeps the
        conversation live even when the primary reply is missing."""
        source = TOY.replace(
            "MessageType.PONG, self.node, msg.src",
            "MessageType.NACK, self.node, msg.src")
        auto = toy_automaton(source, types=("PING", "PONG", "NACK"))
        parsed = toy_spec(
            edges=(("core", "PING", "dir"), ("dir", "PONG", "core"),
                   ("dir", "NACK", "core")),
            retries=("NACK",))
        assert _reply_paths(auto, parsed) == []


class TestCoverageRules:
    """SB002-SB004 over the same extracted model as the SB6xx rules."""

    def test_sb002_unreferenced_on_method(self):
        source = TOY + ("\n    def _on_stale(self, msg):\n"
                        "        self.stale = True\n")
        (toy_dir,) = [c for c in _extract_source(TOY_PATH, source)
                      if c.name == "ToyDirectory"]
        assert keys(_dead_handlers(toy_dir)) == {
            f"SB002 {TOY_PATH}::ToyDirectory._on_stale"}

    def test_sb003_silent_directory_handler(self):
        source = TOY.replace(
            "        self.network.unicast(MessageType.PONG, self.node, "
            "msg.src,\n                             ctag=msg.ctag)\n",
            "        self.seen = True\n")
        (toy_dir,) = [c for c in _extract_source(TOY_PATH, source)
                      if c.name == "ToyDirectory"]
        assert keys(_silent_mutations(toy_dir)) == {
            f"SB003 {TOY_PATH}::ToyDirectory._on_ping"}

    def test_sb003_inherited_call_counts_as_advancing_time(self):
        """A helper the class does not define (e.g. ``apply_commit`` on
        the substrate base) may send or schedule: no finding."""
        source = TOY.replace(
            "        self.network.unicast(MessageType.PONG, self.node, "
            "msg.src,\n                             ctag=msg.ctag)\n",
            "        self.seen = True\n        self.apply_commit(msg)\n")
        (toy_dir,) = [c for c in _extract_source(TOY_PATH, source)
                      if c.name == "ToyDirectory"]
        assert _silent_mutations(toy_dir) == []

    def test_sb003_ignores_core_handlers(self):
        (engine,) = [c for c in _extract_source(TOY_PATH, TOY)
                     if c.name == "ToyEngine"]
        assert engine.handlers["_on_pong"].writes
        assert _silent_mutations(engine) == []

    def test_sb004_orphan_vocabulary_and_piggyback(self):
        decls = MessageDecls(
            types={"PING": 1, "PONG": 2, "LOST": 3, "STRAY": 4, "FLAG": 5},
            piggybacked={"FLAG": ("PONG",)},
            families={"toy": ("PING", "PONG", "LOST")})
        anchors = {f.anchor for f in _orphan_types(
            decls, sent={"PING", "PONG", "STRAY"})}
        # LOST never flies; STRAY flies but no vocabulary claims it
        assert anchors == {"MessageType.LOST", "MessageType.STRAY"}
        carrier_gone = {f.anchor: f.message for f in _orphan_types(
            decls, sent={"PING", "LOST", "STRAY"})}
        assert "PONG, which is never sent" in carrier_gone["MessageType.FLAG"]
        standalone = {f.anchor: f.message for f in _orphan_types(
            decls, sent={"PING", "PONG", "LOST", "FLAG"})}
        assert set(standalone) == {"MessageType.FLAG", "MessageType.STRAY"}
        assert "standalone" in standalone["MessageType.FLAG"]

    def test_substrate_is_exempt_from_sb002(self):
        pkg_dir, _ = repo_paths()
        rel = "memory/directory.py"
        anchor = "    def handle_message(self, msg: Message) -> None:\n"
        source = (pkg_dir / rel).read_text()
        assert anchor in source, "substrate dispatch changed; update test"
        source = source.replace(
            anchor, "    def _on_unused(self, msg):\n        pass\n\n"
            + anchor)
        got = keys(lint_flows(source_overrides={rel: source}))
        assert not any(k.startswith("SB002") for k in got)


class TestSpecParsing:
    def test_every_family_declares_a_valid_spec(self):
        pkg_dir, _ = repo_paths()
        for family in FAMILIES:
            parsed = load_spec(family, pkg_dir)
            assert parsed is not None, family
            assert parsed.spec.family == family
            assert parsed.spec.edges

    def test_parsed_spec_matches_the_imported_object(self):
        from repro.core import directory_engine
        pkg_dir, _ = repo_paths()
        parsed = load_spec("scalablebulk", pkg_dir)
        assert parsed.spec == directory_engine.PROTOCOL_SPEC

    def test_missing_spec_returns_none(self):
        assert parse_spec(TOY_PATH, "x = 1\n") is None

    def test_non_literal_field_raises_spec_error(self):
        src = "PROTOCOL_SPEC = ProtocolSpec(family=NAME, edges=())\n"
        with pytest.raises(SpecError):
            parse_spec(TOY_PATH, src)

    def test_invalid_role_raises_spec_error(self):
        src = ("PROTOCOL_SPEC = ProtocolSpec(\n"
               "    family='toy', edges=(('core', 'PING', 'moon'),))\n")
        with pytest.raises(SpecError):
            parse_spec(TOY_PATH, src)

    def test_reply_type_must_appear_on_an_edge(self):
        src = ("PROTOCOL_SPEC = ProtocolSpec(\n"
               "    family='toy', edges=(('core', 'PING', 'dir'),),\n"
               "    replies={'PING': ('PONG',)})\n")
        with pytest.raises(SpecError):
            parse_spec(TOY_PATH, src)


class TestNominalTree:
    def test_every_family_automaton_fully_resolved(self):
        for family in FAMILIES:
            auto = extract_flow_automaton(family)
            assert auto.types, family
            assert auto.sends, family
            assert not auto.unresolved(), family
            assert not auto.gaps, family

    def test_nominal_tree_is_flow_clean(self):
        assert lint_flows() == []

    def test_findings_are_deterministic(self):
        first = [f.key for f in lint_flows()]
        second = [f.key for f in lint_flows()]
        assert first == second

    def test_missing_spec_is_reported(self):
        pkg_dir, _ = repo_paths()
        rel = "baselines/seq.py"
        source = (pkg_dir / rel).read_text().replace(
            "PROTOCOL_SPEC = ProtocolSpec", "_NOT_THE_SPEC = ProtocolSpec")
        got = keys(lint_flows(source_overrides={rel: source}))
        assert "SB602 src/repro/baselines/seq.py::seq:missing-spec" in got

    def test_unusable_spec_is_reported(self):
        pkg_dir, _ = repo_paths()
        rel = "baselines/seq.py"
        source = (pkg_dir / rel).read_text().replace(
            'family="seq"', "family=NAME")
        got = keys(lint_flows(source_overrides={rel: source}))
        assert "SB602 src/repro/baselines/seq.py::seq:invalid-spec" in got


#: the seeded bugs the flow pass is pinned to catch
FLOW_CAUGHT = sorted(n for n, m in MUTATIONS.items() if "flows" in m.caught)


class TestMutationTeeth:
    """The seeded protocol bugs' pinned flow keys cover every flow rule.
    That each bug adds exactly its pinned keys is the flows column of
    tests/test_teeth_matrix.py::test_teeth_cell."""

    def test_mutations_cover_every_rule(self):
        pinned = {key.split(" ", 1)[0] for name in FLOW_CAUGHT
                  for key in MUTATIONS[name].caught["flows"]}
        assert pinned == set(PASS_RULES["flows"])

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_transforms_fail_loudly_when_stale(self, name):
        with pytest.raises(ValueError):
            MUTATIONS[name].transform("def unrelated():\n    pass\n")
