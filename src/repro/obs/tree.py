"""Flight recorder: reconstruct the execution tree from an event stream.

The telemetry layer (PR 1) made explorations *countable*; this module
makes them *replayable as structure*.  Consuming the ``step`` / ``fork``
/ ``merge`` / ``path_end`` / ``defect`` / ``prune`` event stream — live
via the :class:`FlightRecorder` sink, or offline from a saved
``--telemetry-out`` JSONL file — it rebuilds the state-lineage tree of a
run:

* one :class:`TreeNode` per engine state id, with its pc range and step
  count,
* one edge per fork child, labelled with the branch-condition summary
  the engine recorded on the ``fork`` event,
* merge links (DAG edges) for states combined by the merging frontier,
* terminal status per node: how the path ended (``halted`` /
  ``depth-limit`` / ``loop-limit``), was pruned, or was merged away —
  plus any defects filed while the state ran.

The reconstruction is *exact* with respect to the run that produced the
events: leaves with a ``path_end`` status correspond one-to-one to
``ExplorationResult.paths`` and the defect set matches
``ExplorationResult.defects`` (asserted in ``tests/obs/test_tree.py``).

Renderers: :meth:`ExecutionTree.to_ascii` (terminal),
:meth:`ExecutionTree.to_dot` (Graphviz) and :meth:`ExecutionTree.to_json`
(machine-readable), surfaced by the ``repro tree`` subcommand.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from .events import (DEFECT, FORK, MERGE, PATH_END, PRUNE, SCHEMA_VERSION,
                     STEP, Event)

__all__ = ["TreeNode", "TreeEdge", "ExecutionTree", "FlightRecorder"]


class TreeEdge:
    """One parent -> child link in the execution tree."""

    __slots__ = ("parent", "child", "kind", "pc", "cond")

    def __init__(self, parent: int, child: int, kind: str, pc: int,
                 cond: str = ""):
        self.parent = parent
        self.child = child
        self.kind = kind            # 'fork' | 'indirect' | 'merge'
        self.pc = pc                # where the split/merge happened
        self.cond = cond            # branch-condition summary ('' if none)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {"parent": self.parent,
                                     "child": self.child,
                                     "kind": self.kind, "pc": self.pc}
        if self.cond:
            record["cond"] = self.cond
        return record

    def __repr__(self):
        return "<TreeEdge %d->%d %s @ %#x>" % (self.parent, self.child,
                                               self.kind, self.pc)


class TreeNode:
    """One engine state's lifetime: pc range, steps, how it ended."""

    __slots__ = ("state_id", "parent", "first_pc", "last_pc", "min_pc",
                 "max_pc", "steps", "status", "exit_code", "defects",
                 "merged_from", "merged_into", "children", "prune_reason")

    def __init__(self, state_id: int):
        self.state_id = state_id
        self.parent: Optional[int] = None
        self.first_pc: Optional[int] = None
        self.last_pc: Optional[int] = None
        self.min_pc: Optional[int] = None
        self.max_pc: Optional[int] = None
        self.steps = 0
        # 'live' until a terminal event arrives; then one of the
        # path_end statuses, 'pruned', or 'merged'.
        self.status = "live"
        self.exit_code: Optional[int] = None
        self.defects: List[Tuple[str, int]] = []     # (kind, pc)
        self.merged_from: List[int] = []
        self.merged_into: Optional[int] = None
        self.children: List[int] = []
        # Why a 'pruned' node died: 'max-states', 'trap', 'oob-store',
        # 'decode-error', ... (the engine's _PathEnd reasons).
        self.prune_reason: Optional[str] = None

    @property
    def ended(self) -> bool:
        """True when this node finished as a recorded path."""
        return self.status not in ("live", "pruned", "merged")

    def record_step(self, pc: int) -> None:
        self.steps += 1
        if self.first_pc is None:
            self.first_pc = pc
            self.min_pc = self.max_pc = pc
        else:
            self.min_pc = min(self.min_pc, pc)
            self.max_pc = max(self.max_pc, pc)
        self.last_pc = pc

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "id": self.state_id, "status": self.status,
            "steps": self.steps,
        }
        if self.parent is not None:
            record["parent"] = self.parent
        if self.first_pc is not None:
            record["pc"] = {"first": self.first_pc, "last": self.last_pc,
                            "min": self.min_pc, "max": self.max_pc}
        if self.exit_code is not None:
            record["exit_code"] = self.exit_code
        if self.defects:
            record["defects"] = [{"kind": kind, "pc": pc}
                                 for kind, pc in self.defects]
        if self.merged_from:
            record["merged_from"] = list(self.merged_from)
        if self.merged_into is not None:
            record["merged_into"] = self.merged_into
        if self.prune_reason is not None:
            record["prune_reason"] = self.prune_reason
        return record

    def label(self) -> str:
        """Short human-readable node description."""
        parts = ["s%d" % self.state_id]
        if self.first_pc is not None:
            if self.first_pc == self.last_pc and self.steps <= 1:
                parts.append("pc %#x" % self.first_pc)
            else:
                parts.append("pc %#x..%#x" % (self.first_pc, self.last_pc))
            parts.append("%d step%s" % (self.steps,
                                        "s" if self.steps != 1 else ""))
        status = self.status
        if self.exit_code is not None:
            status += "(%d)" % self.exit_code
        elif self.status == "pruned" and self.prune_reason:
            status += "(%s)" % self.prune_reason
        parts.append(status)
        for kind, pc in self.defects:
            parts.append("!%s@%#x" % (kind, pc))
        return " ".join(parts)

    def __repr__(self):
        return "<TreeNode %s>" % self.label()


class ExecutionTree:
    """The reconstructed state-lineage tree of one exploration."""

    def __init__(self, isa: str = "?"):
        self.isa = isa
        self.nodes: Dict[int, TreeNode] = {}
        self.edges: List[TreeEdge] = []
        self.events_consumed = 0
        # (parent, child) -> lineage edge, for dedup/enrichment: a prune
        # event's bare parent hint can precede the fork event that
        # carries the branch condition for the same pair.
        self._lineage: Dict[Tuple[int, int], TreeEdge] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "ExecutionTree":
        tree = cls()
        for event in events:
            tree.consume(event)
        return tree

    @classmethod
    def from_jsonl(cls, path: str) -> Tuple["ExecutionTree", List[str]]:
        """Rebuild a tree from a saved run file; returns (tree, reader
        warnings).  Raises :class:`~repro.obs.sinks.TelemetryError` on
        missing/empty/unparseable files."""
        from .sinks import load_run
        run = load_run(path)
        return cls.from_events(run.events), run.warnings

    def node(self, state_id: int) -> TreeNode:
        existing = self.nodes.get(state_id)
        if existing is None:
            existing = self.nodes[state_id] = TreeNode(state_id)
        return existing

    def consume(self, event: Event) -> None:
        """Fold one event into the tree (order-tolerant: a child's
        terminal event may arrive before the fork that names it)."""
        kind = event.kind
        if kind == STEP:
            if self.isa == "?":
                self.isa = event.isa
            self.node(event.state_id).record_step(event.pc)
        elif kind == FORK:
            self._consume_fork(event)
        elif kind == MERGE:
            self._consume_merge(event)
        elif kind == PATH_END:
            node = self.node(event.state_id)
            node.status = str(event.data.get("status", "halted"))
            code = event.data.get("exit_code")
            node.exit_code = code if isinstance(code, int) else None
        elif kind == DEFECT:
            self.node(event.state_id).defects.append(
                (str(event.data.get("defect_kind", "?")), event.pc))
        elif kind == PRUNE:
            node = self.node(event.state_id)
            if node.status == "live":
                node.status = "pruned"
                node.prune_reason = str(event.data.get("reason", "?"))
            # Dead fork branches never appear in a 'fork' event; the
            # prune event's parent hint is how they join the tree.
            parent_id = event.data.get("parent")
            if (node.parent is None and isinstance(parent_id, int)
                    and parent_id != event.state_id):
                parent = self.node(parent_id)
                node.parent = parent_id
                if event.state_id not in parent.children:
                    parent.children.append(event.state_id)
                self._add_lineage(parent_id, event.state_id, "fork",
                                  event.pc, "")
        else:
            return      # solver_check / decode_cache: not structural
        self.events_consumed += 1

    def _consume_fork(self, event: Event) -> None:
        parent_id = event.state_id
        parent = self.node(parent_id)
        children = event.data.get("children", ())
        conds = event.data.get("conds", ())
        edge_kind = "indirect" if event.data.get("indirect") else "fork"
        for position, child_id in enumerate(children):
            if child_id == parent_id:
                continue        # the parent itself continues down one arm
            child = self.node(child_id)
            if child.parent is None:
                child.parent = parent_id
            if child_id not in parent.children:
                parent.children.append(child_id)
            cond = str(conds[position]) if position < len(conds) else ""
            self._add_lineage(parent_id, child_id, edge_kind, event.pc,
                              cond)

    def _add_lineage(self, parent_id: int, child_id: int, kind: str,
                     pc: int, cond: str) -> None:
        """Record (or enrich) the single lineage edge parent -> child."""
        existing = self._lineage.get((parent_id, child_id))
        if existing is not None:
            if cond and not existing.cond:
                existing.cond = cond
                existing.kind = kind
                existing.pc = pc
            return
        edge = TreeEdge(parent_id, child_id, kind, pc, cond)
        self._lineage[(parent_id, child_id)] = edge
        self.edges.append(edge)

    def _consume_merge(self, event: Event) -> None:
        merged_id = event.state_id
        merged = self.node(merged_id)
        sources = list(event.data.get("merged_from", ()))
        merged.merged_from.extend(sources)
        for source_id in sources:
            if source_id == merged_id:
                continue        # duplicate-merge: survivor absorbs a twin
            source = self.node(source_id)
            source.merged_into = merged_id
            if source.status == "live":
                source.status = "merged"
            self.edges.append(TreeEdge(source_id, merged_id, "merge",
                                       event.pc))
        if merged.parent is None and sources:
            parent = next((s for s in sources if s != merged_id), None)
            if parent is not None:
                merged.parent = parent

    # -- queries ------------------------------------------------------------

    def roots(self) -> List[TreeNode]:
        return [node for node in self.nodes.values()
                if node.parent is None and node.merged_into is None
                and not node.merged_from]

    def leaves(self) -> List[TreeNode]:
        """Nodes that finished as recorded paths — these correspond
        one-to-one to ``ExplorationResult.paths``."""
        return [node for node in self.nodes.values() if node.ended]

    def defect_set(self) -> set:
        """``{(kind, pc)}`` across all nodes — matches the engine's
        deduplicated ``ExplorationResult.defects`` sites."""
        return {site for node in self.nodes.values()
                for site in node.defects}

    def stats(self) -> Dict[str, int]:
        by_status: Dict[str, int] = {}
        for node in self.nodes.values():
            by_status[node.status] = by_status.get(node.status, 0) + 1
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "leaves": len(self.leaves()),
            "defect_sites": len(self.defect_set()),
            "merges": sum(1 for e in self.edges if e.kind == "merge"),
            "pruned": by_status.get("pruned", 0),
            "live": by_status.get("live", 0),
        }

    # -- renderers ----------------------------------------------------------

    def to_json(self, indent: Optional[int] = None,
                schema: int = SCHEMA_VERSION) -> str:
        payload = {
            "schema": schema,
            "isa": self.isa,
            "stats": self.stats(),
            "nodes": [self.nodes[key].to_dict()
                      for key in sorted(self.nodes)],
            "edges": [edge.to_dict() for edge in self.edges],
        }
        return json.dumps(payload, indent=indent, sort_keys=False)

    _DOT_COLORS = {
        "halted": "palegreen", "depth-limit": "khaki",
        "loop-limit": "khaki", "pruned": "lightgray",
        "merged": "lightblue", "live": "white",
    }

    def to_dot(self) -> str:
        """Graphviz rendering; defective nodes are outlined in red."""
        lines = ["digraph exploration {",
                 '  rankdir=TB;',
                 '  node [shape=box, style=filled, fontname="monospace",'
                 ' fontsize=10];',
                 '  label="%s execution tree";' % _dot_escape(self.isa)]
        for key in sorted(self.nodes):
            node = self.nodes[key]
            color = self._DOT_COLORS.get(node.status, "white")
            attrs = ['fillcolor="%s"' % color,
                     'label="%s"' % _dot_escape(node.label())]
            if node.defects:
                attrs.append('color="red"')
                attrs.append("penwidth=2")
            lines.append("  s%d [%s];" % (node.state_id, ", ".join(attrs)))
        for edge in self.edges:
            attrs = []
            if edge.cond:
                attrs.append('label="%s"' % _dot_escape(edge.cond))
            if edge.kind == "merge":
                attrs.append('style="dashed"')
                attrs.append('color="blue"')
            elif edge.kind == "indirect":
                attrs.append('style="bold"')
            suffix = " [%s]" % ", ".join(attrs) if attrs else ""
            lines.append("  s%d -> s%d%s;" % (edge.parent, edge.child,
                                              suffix))
        lines.append("}")
        return "\n".join(lines)

    def to_ascii(self, max_nodes: int = 500) -> str:
        """Indented terminal rendering, parents before children."""
        lines: List[str] = ["%s execution tree  (%s)" % (
            self.isa, ", ".join("%s=%d" % kv
                                for kv in sorted(self.stats().items())))]
        edge_label: Dict[int, str] = {}
        for edge in self.edges:
            if edge.kind != "merge" and edge.cond:
                edge_label.setdefault(edge.child, edge.cond)
        emitted = 0
        seen = set()

        def walk(node: TreeNode, depth: int) -> None:
            nonlocal emitted
            if emitted >= max_nodes or node.state_id in seen:
                return
            seen.add(node.state_id)
            emitted += 1
            prefix = "  " * depth + ("+- " if depth else "")
            cond = edge_label.get(node.state_id, "")
            suffix = "  [%s]" % cond if cond else ""
            merge = ("  <= merge(%s)" % ",".join(
                "s%d" % s for s in node.merged_from)
                if node.merged_from else "")
            lines.append(prefix + node.label() + suffix + merge)
            for child_id in node.children:
                child = self.nodes.get(child_id)
                if child is not None:
                    walk(child, depth + 1)

        for root in sorted(self.roots(), key=lambda n: n.state_id):
            walk(root, 0)
        # Merge products and anything else unreachable from a root.
        for key in sorted(self.nodes):
            if key not in seen:
                walk(self.nodes[key], 0)
        if emitted >= max_nodes:
            lines.append("... (%d more nodes)" % (len(self.nodes) - emitted))
        return "\n".join(lines)

    def __repr__(self):
        stats = self.stats()
        return "<ExecutionTree %s: %d nodes, %d leaves>" % (
            self.isa, stats["nodes"], stats["leaves"])


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


class FlightRecorder:
    """An event sink that builds the execution tree *live*.

    Attach it like any other sink::

        obs = Obs()
        recorder = FlightRecorder()
        obs.add_sink(recorder)
        ...
        print(recorder.tree.to_ascii())

    Default-off like all sinks: the engine pays nothing unless one is
    attached.  Can be combined with a :class:`JsonlSink` so the same run
    is both persisted and inspectable in-process.
    """

    def __init__(self):
        self.tree = ExecutionTree()

    def emit(self, event: Event) -> None:
        self.tree.consume(event)

    def close(self) -> None:
        pass
