"""Interval (pre/post-order window) index for graph reachability queries.

The XPath-accelerator scheme: every node of a tree gets a *window*
``(pre, post)`` with ``pre < post``, children windows strictly nested
inside their parent's and disjoint from their siblings'.  Then

* *descendant(x)* is the set of nodes whose ``pre`` falls inside
  ``(x.pre, x.post)`` — one range scan over a pre-sorted list, exactly
  like an :class:`~repro.minidb.index.OrderedIndex` range probe;
* *ancestor(x)* walks left from ``x`` in pre order, skipping every
  non-ancestor *subtree* in a single bisect (the window-shrinking
  optimisation: a node whose window does not contain ``x.pre`` takes
  its whole subtree with it);
* *reachable(x)* on a general graph is the tree-descendant range scan
  plus a fixpoint over the *extra* (non-tree) edges, GRIPP-style.

The index is keyed ``(id_col, parent_col)``: each row contributes the
edge *parent → id*.  The first edge that introduces an id becomes its
tree edge; later in-edges are recorded as extra edges.  A node first
seen as a *parent* (a crawl seed, say) starts as a synthetic root and
is re-parented under its first real in-edge — unless that edge's
source is one of its own descendants (the cycle guard), in which case
the edge stays extra.

Maintenance is deliberately lazy: :meth:`insert` appends to an edge
log in O(1) — the crawl's bulk-insert hot path must not pay numbering
costs — and the first query after a batch folds the pending edges in
insertion order (*incremental renumbering*).  Windows are allocated
from gaps (each new child takes half the space left in its parent's
window) so a batch usually renumbers nothing; when a gap runs dry the
whole tree is renumbered with a large stride.  Python integers are
arbitrary-precision, so strides never overflow.

Rows are posted twice — under their exact ``(id, parent)`` key and under
their id — in the bare-int-or-ordered-set form of :mod:`~.index`: on
LINK, a key and most ids have one row, so both maps hold plain ints the
cyclic collector never visits.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, Optional, Sequence

from .errors import StorageError
from .index import HashIndex, Posting, post, rids_of, unpost
from .types import Schema

#: Stride between consecutive pre/post numbers after a full renumber:
#: every window keeps room for ~half a million in-place descendants.
RENUMBER_STRIDE = 1 << 20


class _Node:
    __slots__ = ("id", "parent", "pre", "post", "children", "synthetic")

    def __init__(self, node_id: Any, parent: Optional[Any], synthetic: bool = False):
        self.id = node_id
        self.parent = parent  # tree parent id, or None for a root
        self.pre = 0
        self.post = 0
        self.children: list[Any] = []
        self.synthetic = synthetic  # first seen as a parent only


class IntervalIndex(HashIndex):
    """Pre/post-order window index over an edge table.

    ``key_columns`` must be exactly ``(id_col, parent_col)``.  It is a
    hash index on the two columns (``search`` is an exact-key probe)
    plus the graph queries: :meth:`window`, :meth:`descendant_ids`,
    :meth:`ancestor_ids`, :meth:`reachable_ids`, :meth:`is_descendant`,
    and the rid-level :meth:`rids_for_ids` used by plan operators.
    """

    def __init__(self, name: str, schema: Schema, key_columns: Sequence[str]) -> None:
        if len(key_columns) != 2:
            raise StorageError(
                f"interval index {name!r} needs exactly (id, parent) key columns, "
                f"got {tuple(key_columns)!r}"
            )
        super().__init__(name, schema, key_columns)
        # Row postings per node id (all rows whose id_col equals the id).
        self._rows_by_id: dict[Any, Posting] = {}
        # Structural state, rebuilt lazily from the edge log.
        self._nodes: dict[Any, _Node] = {}
        self._roots: list[Any] = []
        self._extra: dict[Any, dict[Any, None]] = {}  # src -> {dst: None}
        self._pres: list[int] = []  # sorted pre numbers
        self._pre_ids: list[Any] = []  # ids parallel to _pres
        self._pending: list[tuple[Any, Any]] = []  # distinct edges not yet folded
        self._pre_dirty = False  # _pres/_pre_ids stale vs. _nodes
        self._rebuild_needed = False  # a delete invalidated the whole tree
        # Instrumentation.
        self.renumbers = 0
        self.range_scans = 0
        self.window_shrink_skips = 0

    # -- maintenance -------------------------------------------------------
    def insert_many(self, keys: Iterable[tuple], rids: Sequence[int]) -> None:
        self._note_order(rids)
        buckets = self._buckets
        rows_by_id = self._rows_by_id
        pending = self._pending
        added = 0
        for key, rid in zip(keys, rids):
            if key not in buckets:
                pending.append(key)
            if post(buckets, key, rid):
                post(rows_by_id, key[0], rid)
                added += 1
        self._entries += added

    def delete_key(self, key: tuple, rid: int) -> None:
        super().delete_key(key, rid)
        unpost(self._rows_by_id, key[0], rid)
        if key not in self._buckets:
            # The edge itself is gone: the tree shape may change, so the
            # next query replays the whole (surviving) edge log.
            self._rebuild_needed = True

    def clear(self) -> None:
        super().clear()
        for state in (self._rows_by_id, self._nodes, self._roots, self._extra,
                      self._pres, self._pre_ids, self._pending):
            state.clear()
        self._pre_dirty = False
        self._rebuild_needed = False

    # -- structural folding ------------------------------------------------
    def _ensure_numbered(self) -> None:
        """Fold pending edges (or replay everything after a delete)."""
        if self._rebuild_needed:
            self._nodes.clear()
            self._roots.clear()
            self._extra.clear()
            self._pending = list(self._buckets)
            self._rebuild_needed = False
            self._pre_dirty = True
        if self._pending:
            pending, self._pending = self._pending, []
            for child, parent in pending:
                self._add_edge(child, parent)
            self._pre_dirty = True
        if self._pre_dirty:
            nodes = sorted(self._nodes.values(), key=lambda n: n.pre)
            self._pres = [n.pre for n in nodes]
            self._pre_ids = [n.id for n in nodes]
            self._pre_dirty = False

    def _add_edge(self, child: Any, parent: Optional[Any]) -> None:
        if parent is not None and parent == child:
            return  # self-loop: structurally meaningless
        if parent is not None and parent not in self._nodes:
            # A parent seen before any of its own in-edges: a synthetic
            # root (crawl seed, or the taxonomy root's null parent id).
            self._make_node(parent, None, synthetic=True)
        node = self._nodes.get(child)
        if node is None:
            self._make_node(child, parent)
            return
        if parent is None:
            return  # already placed; an explicit root edge adds nothing
        if node.parent is None and node.synthetic and not self._is_descendant_id(parent, child):
            # First real in-edge for a synthetic root: adopt it as the
            # tree edge (unless the source is a descendant — the cycle
            # guard — in which case the edge stays extra below).
            node.synthetic = False
            self._reparent(node, parent)
            return
        self._extra.setdefault(parent, {})[child] = None

    def _make_node(self, node_id: Any, parent: Optional[Any], synthetic: bool = False) -> None:
        node = _Node(node_id, parent, synthetic)
        self._nodes[node_id] = node
        if parent is None:
            self._roots.append(node_id)
            anchor, limit = self._root_gap()
        else:
            parent_node = self._nodes[parent]
            parent_node.children.append(node_id)
            anchor, limit = self._child_gap(parent_node)
        if limit - anchor < 3:
            self._full_renumber()
            return
        self._assign_window(node, anchor, limit)

    def _root_gap(self) -> tuple[int, int]:
        """(anchor, limit) of the free space after the last root subtree."""
        if len(self._roots) > 1:
            last = self._nodes[self._roots[-2]]
            return last.post, last.post + 2 * RENUMBER_STRIDE
        return 0, 2 * RENUMBER_STRIDE

    def _child_gap(self, parent_node: _Node) -> tuple[int, int]:
        """(anchor, limit) of the free space before *parent_node*'s post."""
        if len(parent_node.children) > 1:
            anchor = self._nodes[parent_node.children[-2]].post
        else:
            anchor = parent_node.pre
        return anchor, parent_node.post

    def _assign_window(self, node: _Node, anchor: int, limit: int) -> None:
        """Give *node* half the gap ``(anchor, limit)``, exclusive."""
        avail = limit - anchor - 1
        node.pre = anchor + 1
        node.post = anchor + max(2, avail // 2)

    def _reparent(self, node: _Node, parent: Any) -> None:
        """Move a root subtree under *parent*, renumbering it into a gap."""
        self._roots.remove(node.id)
        node.parent = parent
        parent_node = self._nodes[parent]
        parent_node.children.append(node.id)
        anchor, limit = self._child_gap(parent_node)
        size = self._subtree_size(node)
        if limit - anchor - 1 < 2 * size + 1:
            self._full_renumber()
            return
        step = (limit - anchor - 1) // (2 * size)
        counter = anchor
        stack: list[tuple[_Node, bool]] = [(node, False)]
        while stack:
            current, done = stack.pop()
            if done:
                counter += step
                current.post = counter
                continue
            counter += step
            current.pre = counter
            stack.append((current, True))
            for child_id in reversed(current.children):
                stack.append((self._nodes[child_id], False))

    def _subtree_size(self, node: _Node) -> int:
        size = 0
        stack = [node]
        while stack:
            current = stack.pop()
            size += 1
            for child_id in current.children:
                stack.append(self._nodes[child_id])
        return size

    def _full_renumber(self) -> None:
        """Renumber every window with :data:`RENUMBER_STRIDE` gaps."""
        self.renumbers += 1
        counter = 0
        stack: list[tuple[_Node, bool]] = []
        for root_id in reversed(self._roots):
            stack.append((self._nodes[root_id], False))
        while stack:
            node, done = stack.pop()
            if done:
                counter += RENUMBER_STRIDE
                node.post = counter
                continue
            counter += RENUMBER_STRIDE
            node.pre = counter
            stack.append((node, True))
            for child_id in reversed(node.children):
                stack.append((self._nodes[child_id], False))
        self._pre_dirty = True

    def _is_descendant_id(self, node_id: Any, ancestor_id: Any) -> bool:
        node = self._nodes.get(node_id)
        ancestor = self._nodes.get(ancestor_id)
        if node is None or ancestor is None:
            return False
        return ancestor.pre < node.pre and node.post < ancestor.post

    # -- graph queries -----------------------------------------------------
    def window(self, node_id: Any) -> Optional[tuple[int, int]]:
        """The ``(pre, post)`` window of *node_id*, or None if unknown."""
        self._ensure_numbered()
        node = self._nodes.get(node_id)
        return (node.pre, node.post) if node is not None else None

    def is_descendant(self, node_id: Any, ancestor_id: Any) -> bool:
        """Whether *node_id* sits inside *ancestor_id*'s tree window."""
        self._ensure_numbered()
        return self._is_descendant_id(node_id, ancestor_id)

    def descendant_ids(self, node_id: Any, include_self: bool = False) -> list[Any]:
        """Tree descendants of *node_id* in pre (document) order.

        One range scan over the pre-sorted node list: every id whose
        ``pre`` lies strictly inside the node's window.
        """
        self._ensure_numbered()
        node = self._nodes.get(node_id)
        if node is None:
            return []
        self.range_scans += 1
        lo = bisect.bisect_right(self._pres, node.pre)
        hi = bisect.bisect_left(self._pres, node.post)
        result = self._pre_ids[lo:hi]
        if include_self:
            result = [node_id, *result]
        return result

    def descendant_count(self, node_id: Any, include_self: bool = False) -> int:
        """Subtree size under *node_id* in O(log n) — two bisects, no list.

        Used by the planner as a cardinality estimate before deciding
        whether an index-nested-loop join is worth its random probes.
        """
        self._ensure_numbered()
        node = self._nodes.get(node_id)
        if node is None:
            return 0
        lo = bisect.bisect_right(self._pres, node.pre)
        hi = bisect.bisect_left(self._pres, node.post)
        return hi - lo + (1 if include_self else 0)

    def ancestor_ids(self, node_id: Any) -> list[Any]:
        """Ancestors of *node_id*, nearest first (window-shrinking walk).

        Walks left in pre order; a candidate whose window does not
        contain the node is skipped together with its *entire subtree*
        in one bisect, so the walk touches O(depth + siblings) nodes.
        """
        self._ensure_numbered()
        node = self._nodes.get(node_id)
        if node is None:
            return []
        result = []
        target = node
        i = bisect.bisect_left(self._pres, target.pre) - 1
        while i >= 0:
            candidate = self._nodes[self._pre_ids[i]]
            if candidate.post > target.post:
                result.append(candidate.id)
                target = candidate
                i = bisect.bisect_left(self._pres, target.pre) - 1
            else:
                # Not an ancestor: its whole subtree precedes the target,
                # so shrink the search window past it in one jump.
                self.window_shrink_skips += 1
                i = bisect.bisect_left(self._pres, candidate.pre) - 1
        return result

    def reachable_ids(self, node_id: Any, include_self: bool = True) -> list[Any]:
        """Every id reachable from *node_id* over tree + extra edges.

        The tree part of each expansion is a window range scan; extra
        (non-tree) edges seed further expansions until fixpoint.
        Returns ids in first-discovery order.
        """
        self._ensure_numbered()
        if node_id not in self._nodes:
            return []
        seen: dict[Any, None] = {}
        stack = [node_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            block = self.descendant_ids(current, include_self=True)
            fresh = [i for i in block if i not in seen]
            for i in fresh:
                seen[i] = None
            for i in fresh:
                for extra_child in self._extra.get(i, ()):
                    if extra_child not in seen:
                        stack.append(extra_child)
        result = list(seen)
        if not include_self:
            result.remove(node_id)
        return result

    def rids_for_ids(self, ids: Iterable[Any]) -> Iterator[int]:
        """Record ids of rows whose id column is in *ids* (given order)."""
        rows_by_id = self._rows_by_id
        for node_id in ids:
            yield from rids_of(rows_by_id.get(node_id))

    def extra_edge_count(self) -> int:
        self._ensure_numbered()
        return sum(len(children) for children in self._extra.values())
