"""Seeded protocol bugs: proof the flow pass has teeth.

Mirrors :mod:`repro.analysis.races.mutations`: each mutation is a small,
realistic string-level surgery on the *real* protocol source paired with
the exact finding keys the flow pass must produce.  The tests (and the
analysis-smoke CI job) apply each via ``source_overrides`` — nothing on
disk changes — and assert the expected keys appear and are *new*
relative to the nominal tree.  Every transform raises ``ValueError`` when
its anchor text is missing, so silent rot of a mutation is impossible.

Together the mutations cover every rule the pass owns:

* ``delete-handler`` — the directory stops dispatching ``G_SUCCESS``
  (SB601: sent but never handled);
* ``orphan-handler`` — the directory loses its ``G_FAILURE`` branch, so
  the failure multicast is never handled (SB601) and ``_on_g_failure``
  is dead code (SB002);
* ``silent-handler`` — a directory whose ``COMMIT_DONE`` handler only
  mutates state, advancing the protocol in zero time (SB003);
* ``ghost-type`` — a declared message type nothing sends (SB004);
* ``vocabulary-gap`` — ``COMMIT_DONE`` drops out of ``FAMILY_TYPES``:
  still sent and handled, but no flow rule sees it any more (SB004);
* ``undeclared-send`` — the directory leaks ``G_SUCCESS`` to the
  committing *processor*, an edge no spec declares (SB602);
* ``drop-reply`` — the TID vendor absorbs ``TID_REQ`` without ever
  granting (SB603: conversation deadlock);
* ``strip-dispatch-default`` — the directory's dispatch chain loses its
  terminal ``raise`` (SB604: unexpected types silently dropped).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

_SB_DIR = "core/directory_engine.py"
_TCC = "baselines/tcc.py"
_DECLS = "network/message.py"


@dataclass(frozen=True)
class FlowMutation:
    """One seeded bug: a source transform plus its expected findings."""

    name: str
    description: str
    rel_path: str                       #: package-relative file to doctor
    transform: Callable[[str], str]
    expected_keys: Tuple[str, ...]      #: finding keys that must appear


def _must_replace(src: str, old: str, new: str, what: str) -> str:
    out = src.replace(old, new, 1)
    if out == src:
        raise ValueError(f"{what}: anchor text not found")
    return out


def _delete_handler(src: str) -> str:
    """The directory's dispatch chain loses its ``G_SUCCESS`` branch: the
    grab-success multicast still flies but lands on ``raise``."""
    return _must_replace(
        src,
        "        elif mtype is MessageType.G_SUCCESS:\n"
        "            self._on_g_success(msg)\n",
        "",
        "delete-handler")


def _orphan_handler(src: str) -> str:
    """The directory's dispatch chain loses its ``G_FAILURE`` branch:
    the failure multicast lands on ``raise`` and its handler is dead."""
    return _must_replace(
        src,
        "        elif mtype is MessageType.G_FAILURE:\n"
        "            self._on_g_failure(msg)\n",
        "",
        "orphan-handler")


_SILENT_DIRECTORY = '''class SilentDirectory:
    def handle_protocol_message(self, msg: Message) -> None:
        if msg.mtype is MessageType.COMMIT_DONE:
            self._on_commit_done(msg)
        else:
            raise NotImplementedError(msg.mtype)

    def _on_commit_done(self, msg):
        self.cst.pop(msg.ctag, None)
        self.count = 1


'''


def _silent_handler(src: str) -> str:
    """A directory whose ``COMMIT_DONE`` handler releases its CST entry
    without sending or scheduling anything."""
    anchor = "class ScalableBulkDirectory("
    return _must_replace(src, anchor, _SILENT_DIRECTORY + anchor,
                         "silent-handler")


def _ghost_type(src: str) -> str:
    """A new ``MessageType`` member that no protocol ever sends."""
    anchor = 'COMMIT_RECALL = "commit_recall"'
    return _must_replace(src, anchor,
                         anchor + '\n    GHOST_MSG = "ghost_msg"',
                         "ghost-type")


def _vocabulary_gap(src: str) -> str:
    """``COMMIT_DONE`` drops out of ScalableBulk's ``FAMILY_TYPES``
    vocabulary while the code keeps sending and handling it."""
    return _must_replace(
        src,
        "        MessageType.COMMIT_DONE, MessageType.COMMIT_RECALL,\n",
        "        MessageType.COMMIT_RECALL,\n",
        "vocabulary-gap")


def _undeclared_send(src: str) -> str:
    """``_on_g_success`` leaks the directory-internal ``G_SUCCESS`` on to
    the committing processor — an edge no spec declares."""
    block = ("        entry.state = ChunkCommitState.CONFIRMED\n"
             "        self.apply_commit(entry.local_write_lines, "
             "entry.proc)\n")
    return _must_replace(
        src, block,
        block + ("        self.network.unicast(MessageType.G_SUCCESS, "
                 "self.node,\n"
                 "                             core_node(entry.proc), "
                 "ctag=msg.ctag)\n"),
        "undeclared-send")


def _drop_reply(src: str) -> str:
    """The TID vendor swallows ``TID_REQ``: the grant send disappears, so
    no conversation ever returns to the requesting processor."""
    return _must_replace(
        src,
        "        self.network.unicast(MessageType.TID_GRANT, self.node,\n"
        "                             core_node(proc), ctag=cid, tid=tid)\n",
        "",
        "drop-reply")


def _strip_dispatch_default(src: str) -> str:
    """The directory's dispatch chain loses its terminal ``raise``:
    unexpected message types are silently dropped."""
    return _must_replace(
        src,
        "        else:\n"
        "            raise NotImplementedError("
        "f\"unexpected {mtype} at directory\")\n",
        "",
        "strip-dispatch-default")


FLOW_MUTATIONS: Dict[str, FlowMutation] = {
    m.name: m for m in (
        FlowMutation(
            name="delete-handler",
            description="directory stops dispatching G_SUCCESS",
            rel_path=_SB_DIR,
            transform=_delete_handler,
            expected_keys=(("SB601 src/repro/core/directory_engine.py::"
                            "scalablebulk/G_SUCCESS:never-handled"),)),
        FlowMutation(
            name="orphan-handler",
            description="directory stops dispatching G_FAILURE",
            rel_path=_SB_DIR,
            transform=_orphan_handler,
            expected_keys=(
                ("SB601 src/repro/core/directory_engine.py::"
                 "scalablebulk/G_FAILURE:never-handled"),
                ("SB002 src/repro/core/directory_engine.py::"
                 "ScalableBulkDirectory._on_g_failure"))),
        FlowMutation(
            name="silent-handler",
            description="a directory handler mutates state silently",
            rel_path=_SB_DIR,
            transform=_silent_handler,
            expected_keys=(("SB003 src/repro/core/directory_engine.py::"
                            "SilentDirectory._on_commit_done"),)),
        FlowMutation(
            name="ghost-type",
            description="a declared message type is never sent",
            rel_path=_DECLS,
            transform=_ghost_type,
            expected_keys=(("SB004 src/repro/network/message.py::"
                            "MessageType.GHOST_MSG"),)),
        FlowMutation(
            name="vocabulary-gap",
            description="COMMIT_DONE missing from FAMILY_TYPES",
            rel_path=_DECLS,
            transform=_vocabulary_gap,
            expected_keys=(("SB004 src/repro/network/message.py::"
                            "MessageType.COMMIT_DONE"),)),
        FlowMutation(
            name="undeclared-send",
            description="directory leaks G_SUCCESS to the processor",
            rel_path=_SB_DIR,
            transform=_undeclared_send,
            expected_keys=(("SB602 src/repro/core/directory_engine.py::"
                            "scalablebulk/dir-G_SUCCESS->core:undeclared"),)),
        FlowMutation(
            name="drop-reply",
            description="TID vendor never answers TID_REQ",
            rel_path=_TCC,
            transform=_drop_reply,
            expected_keys=(("SB603 src/repro/baselines/tcc.py::"
                            "tcc/TID_REQ:no-reply-path"),)),
        FlowMutation(
            name="strip-dispatch-default",
            description="directory dispatch loses its terminal raise",
            rel_path=_SB_DIR,
            transform=_strip_dispatch_default,
            expected_keys=(("SB604 src/repro/core/directory_engine.py::"
                            "ScalableBulkDirectory.handle_protocol_message:"
                            "non-exhaustive"),)),
    )
}


def overrides_for(name: str, pkg_dir: Optional[Path] = None
                  ) -> Tuple[Dict[str, str], Tuple[str, ...]]:
    """(source_overrides, expected finding keys) for one mutation."""
    if pkg_dir is None:
        import repro
        pkg_dir = Path(repro.__file__).resolve().parent
    mutation = FLOW_MUTATIONS[name]
    source = (pkg_dir / mutation.rel_path).read_text()
    return ({mutation.rel_path: mutation.transform(source)},
            mutation.expected_keys)


__all__ = ["FLOW_MUTATIONS", "FlowMutation", "overrides_for"]
