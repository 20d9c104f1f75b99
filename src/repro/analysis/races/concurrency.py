"""Concurrent reachability over the handler causality graph (tentpole 2).

Which handler pairs can be *in flight for the same chunk* at the same
module?  The dispatch tables plus the send sites induce a causal graph:
``h`` sends message type ``m`` to role ``r`` ⇒ edges to every handler a
class of role ``r`` dispatches ``m`` to.  Two handlers at a module are
**ordered** when one dominates the other in that graph (every causal path
from the protocol roots to the second passes through the first at the
same module); otherwise they **may interleave** and any overlapping
state footprint is a race candidate.

The directory role is expanded into two abstract instances before the
dominator pass — ``L`` (the module under analysis) and ``O`` (any other
group member) — because a module's *own* ``commit_request`` handler and a
*predecessor's* ``g`` are different causal sources even though both are
"the dir role".  Without the split, the grab ring would appear to order
``commit_request`` before ``g`` at every member, which the NoC does not
guarantee (a member can receive the predecessor's ``g`` first; the CST
buffers for exactly this reason — see
:mod:`repro.validation.orderings`).

Messages between one (src, dst) pair ride one NoC flow and cannot
overtake each other, so consecutive sends *within a single handler* to
the same destination role are kept in program order: the second send
gets a causal edge from the handlers the first triggers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.races.model import ClassStateModel, StateModel

ROOT = ("R", "", "<root>")

Node = Tuple[str, str, str]  #: (instance "L"/"O"/"R", class, method)


@dataclass
class ConcurrencyModel:
    """Dominator + cycle facts over one family's causal graph."""

    family: str
    nodes: Set[Node] = field(default_factory=set)
    edges: Dict[Node, Set[Node]] = field(default_factory=dict)
    dominators: Dict[Node, Set[Node]] = field(default_factory=dict)
    sccs: List[FrozenSet[Node]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def ordered(self, cls: str, m1: str, m2: str) -> bool:
        """Is one of the two handlers causally ordered before the other
        at the module under analysis (instance ``L``)?"""
        a: Node = ("L", cls, m1)
        b: Node = ("L", cls, m2)
        if a not in self.nodes or b not in self.nodes:
            return True  # unreachable handlers cannot interleave
        return a in self.dominators.get(b, set()) \
            or b in self.dominators.get(a, set())

    def may_interleave(self, cls: str, m1: str, m2: str) -> bool:
        return not self.ordered(cls, m1, m2)

    def reentrant(self, cls: str, method: str) -> Optional[FrozenSet[Node]]:
        """The causal cycle through this handler, if any — the handler can
        fire again for the same chunk while its own downstream effects are
        still propagating."""
        for scc in self.sccs:
            for node in scc:
                if node[1] == cls and node[2] == method:
                    return scc
        return None


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------
def _instances_for(role: Optional[str]) -> Tuple[str, ...]:
    """Abstract instances a role contributes: the directory is split into
    this-module/other-module; cores and agents act as singletons."""
    return ("L", "O") if role == "dir" else ("L",)


def _send_targets(src_inst: str, src_role: Optional[str],
                  dest: str, classes: List[ClassStateModel]
                  ) -> List[Tuple[str, ClassStateModel]]:
    """Abstract instances a send can land on.

    A directory talking to "the dir role" reaches *other* members (ring
    successor, group multicast) — and, from an ``O`` instance, possibly
    the module under analysis.  A core or agent multicasting to the dir
    role reaches every member, ``L`` and ``O`` alike.
    """
    out: List[Tuple[str, ClassStateModel]] = []
    for cls in classes:
        if cls.role is None or not cls.handlers:
            continue
        if dest not in ("unknown", "reply") and cls.role != dest:
            continue
        if cls.role == "dir":
            if src_role == "dir":
                insts = ("L", "O") if src_inst == "O" else ("O",)
            else:
                insts = ("L", "O")
        else:
            insts = ("L",)
        for inst in insts:
            out.append((inst, cls))
    return out


def build_concurrency_model(model: StateModel) -> ConcurrencyModel:
    cm = ConcurrencyModel(family=model.family)
    classes = model.classes

    # nodes: every handler at every abstract instance of its role
    handlers_by_mtype: Dict[str, List[Tuple[str, ClassStateModel, str]]] = {}
    for cls in classes:
        for mtype, method in cls.dispatch.items():
            if method in cls.handlers:
                for inst in _instances_for(cls.role):
                    handlers_by_mtype.setdefault(mtype, []).append(
                        (inst, cls, method))
        for method in cls.handlers:
            for inst in _instances_for(cls.role):
                cm.nodes.add((inst, cls.name, method))
    cm.nodes.add(ROOT)
    cm.edges = {n: set() for n in cm.nodes}

    def link(src: Node, src_role: Optional[str], mtypes: Tuple[str, ...],
             dest: str) -> List[Node]:
        hit: List[Node] = []
        for inst, cls in _send_targets(src[0], src_role, dest, classes):
            for mtype in mtypes:
                method = cls.dispatch.get(mtype)
                if method is None or method not in cls.handlers:
                    continue
                tgt: Node = (inst, cls.name, method)
                cm.edges[src].add(tgt)
                hit.append(tgt)
        return hit

    for cls in classes:
        # root sends: protocol entry points outside any handler
        for site in cls.root_sends:
            link(ROOT, None, site.mtypes, site.dest)
        for method, handler in cls.handlers.items():
            for inst in _instances_for(cls.role):
                src: Node = (inst, cls.name, method)
                prev_hits: List[Node] = []
                prev_dest = ""
                for site in handler.sends:
                    hits = link(src, cls.role, site.mtypes, site.dest)
                    # same-flow FIFO: a later send to the same role follows
                    # the earlier one's consequences, not just the handler
                    if prev_dest == site.dest:
                        for upstream in prev_hits:
                            for tgt in hits:
                                if tgt != upstream:
                                    cm.edges[upstream].add(tgt)
                    prev_hits, prev_dest = hits, site.dest

    # handlers with no incoming edge are externally triggered: root them
    has_incoming: Set[Node] = set()
    for targets in cm.edges.values():
        has_incoming |= targets
    for node in cm.nodes:
        if node is not ROOT and node not in has_incoming:
            cm.edges[ROOT].add(node)

    cm.dominators = _dominators(cm.nodes, cm.edges)
    cm.sccs = _sccs(cm.nodes, cm.edges)
    return cm


# ----------------------------------------------------------------------
# Classic iterative dominators + Tarjan SCCs (graphs are tiny)
# ----------------------------------------------------------------------
def _dominators(nodes: Set[Node], edges: Dict[Node, Set[Node]]
                ) -> Dict[Node, Set[Node]]:
    preds: Dict[Node, Set[Node]] = {n: set() for n in nodes}
    for src, targets in edges.items():
        for tgt in targets:
            preds[tgt].add(src)
    # only ROOT-reachable nodes participate
    reach: Set[Node] = set()
    stack = [ROOT]
    while stack:
        cur = stack.pop()
        if cur in reach:
            continue
        reach.add(cur)
        stack.extend(edges.get(cur, ()))
    dom: Dict[Node, Set[Node]] = {n: (set(reach) if n is not ROOT else {ROOT})
                                  for n in reach}
    changed = True
    while changed:
        changed = False
        for node in reach:
            if node is ROOT:
                continue
            pred_doms = [dom[p] for p in preds[node] if p in reach]
            new = set.intersection(*pred_doms) if pred_doms else set()
            new.add(node)
            if new != dom[node]:
                dom[node] = new
                changed = True
    return dom


def _sccs(nodes: Set[Node], edges: Dict[Node, Set[Node]]
          ) -> List[FrozenSet[Node]]:
    """Tarjan, iterative; returns only non-trivial SCCs (cycles)."""
    index: Dict[Node, int] = {}
    low: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    out: List[FrozenSet[Node]] = []
    counter = [0]

    def strongconnect(v0: Node) -> None:
        work: List[Tuple[Node, List[Node]]] = [
            (v0, sorted(edges.get(v0, ())))]
        index[v0] = low[v0] = counter[0]
        counter[0] += 1
        stack.append(v0)
        on_stack.add(v0)
        while work:
            v, succs = work[-1]
            advanced = False
            while succs:
                w = succs.pop(0)
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, sorted(edges.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp: Set[Node] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                if len(comp) > 1 or v in edges.get(v, ()):
                    out.append(frozenset(comp))

    for node in sorted(nodes):
        if node not in index:
            strongconnect(node)
    out.sort(key=lambda c: sorted(c)[0])
    return out


__all__ = ["ConcurrencyModel", "Node", "ROOT", "build_concurrency_model"]
