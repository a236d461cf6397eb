"""Graph index over an edge table: a first-in-edge forest plus extra edges.

The index is keyed ``(id_col, parent_col)``: each row contributes the
edge *parent → id*.  The first edge that introduces an id becomes its
tree edge; later in-edges are recorded as extra edges.  A node first
seen as a *parent* (a crawl seed, say) starts as a synthetic root and
is re-parented under its first real in-edge — unless that edge's
source is one of its own descendants (the cycle guard, a walk up the
parent pointers), in which case the edge stays extra.

Each node keeps its tree parent and its tree children in the order they
were attached, so

* *descendant(x)* is a preorder walk of ``x``'s subtree;
* *reachable(x)* on a general graph is a walk over tree and extra edges.

The module and class keep their interval names (and the index its
``kind="interval"``) from an earlier pre/post-window numbering of the
same tree, so stored catalogs and callers need no alias.

Maintenance is lazy, in two steps.  A table batch's rows stay pending
postings until the index is read (:meth:`Index.defer`), so a crawl that
never queries its graph pays for neither postings nor tree.  The fold
posts them and appends each new distinct edge to an edge log, and the
first graph query adds the logged edges to the forest in insertion
order.  A delete that removes an edge's last row makes the next query
rebuild the forest from the surviving edges.

Rows are posted once, under their exact ``(id, parent)`` key, in the
bare-int-or-ordered-set form of :mod:`~.index`.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from .errors import StorageError
from .index import HashIndex, post
from .types import Schema


class IntervalIndex(HashIndex):
    """Graph index over an edge table (named for its history; see the module notes).

    ``key_columns`` must be exactly ``(id_col, parent_col)``.  It is a
    hash index on the two columns (``search`` is an exact-key probe)
    plus the graph queries :meth:`descendant_ids` and
    :meth:`reachable_ids`.
    """

    def __init__(self, name: str, schema: Schema, key_columns: Sequence[str]) -> None:
        if len(key_columns) != 2:
            raise StorageError(
                f"interval index {name!r} needs exactly (id, parent) key columns, "
                f"got {tuple(key_columns)!r}"
            )
        super().__init__(name, schema, key_columns)
        # The forest, built lazily from the edge log.
        self._parents: dict[Any, Optional[Any]] = {}  # node -> tree parent (None: a root)
        self._children: dict[Any, list[Any]] = {}  # node -> tree children, attach order
        self._adoptable: set[Any] = set()  # synthetic roots: first seen as a parent
        self._extra: dict[Any, list[Any]] = {}  # src -> non-tree dsts
        self._unfolded: list[tuple[Any, Any]] = []  # distinct edges not in the forest yet
        self._rebuild_needed = False  # a delete invalidated the whole forest

    # -- maintenance -------------------------------------------------------
    def _post_many(self, keys: Iterable[tuple], rids: Sequence[int]) -> None:
        buckets = self._buckets
        unfolded = self._unfolded
        added = 0
        for key, rid in zip(keys, rids):
            if key not in buckets:
                unfolded.append(key)
            added += post(buckets, key, rid)
        self._entries += added

    def delete_key(self, key: tuple, rid: int) -> None:
        super().delete_key(key, rid)
        if key not in self._buckets:
            # The edge itself is gone: the tree shape may change, so the
            # next query replays the whole (surviving) edge log.
            self._rebuild_needed = True

    def clear(self) -> None:
        super().clear()
        for state in (self._parents, self._children, self._adoptable, self._extra,
                      self._unfolded):
            state.clear()
        self._rebuild_needed = False

    # -- structural folding ------------------------------------------------
    def _ensure_tree(self) -> None:
        """Fold pending postings, then add new edges (or replay everything after a delete)."""
        if self._pending:
            self._fold()
        if self._rebuild_needed:
            for state in (self._parents, self._children, self._adoptable, self._extra):
                state.clear()
            self._unfolded = list(self._buckets)
            self._rebuild_needed = False
        if self._unfolded:
            edges, self._unfolded = self._unfolded, []
            for child, parent in edges:
                self._add_edge(child, parent)

    def _add_edge(self, child: Any, parent: Optional[Any]) -> None:
        if parent == child:
            return  # self-loop: structurally meaningless
        parents = self._parents
        if parent is not None and parent not in parents:
            # A parent seen before any of its own in-edges: a synthetic
            # root (crawl seed, or the taxonomy root's null parent id).
            parents[parent] = None
            self._adoptable.add(parent)
        if child not in parents:
            self._attach(child, parent)
        elif parent is None:
            return  # already placed; an explicit root edge adds nothing
        elif child in self._adoptable and not self._is_below(parent, child):
            # First real in-edge for a synthetic root: adopt it as the
            # tree edge (unless the source is a descendant — the cycle
            # guard — in which case the edge stays extra).
            self._adoptable.discard(child)
            self._attach(child, parent)
        else:
            self._extra.setdefault(parent, []).append(child)

    def _attach(self, child: Any, parent: Optional[Any]) -> None:
        self._parents[child] = parent
        if parent is not None:
            self._children.setdefault(parent, []).append(child)

    def _is_below(self, node_id: Any, ancestor_id: Any) -> bool:
        """Whether *ancestor_id* is on *node_id*'s parent chain."""
        parents = self._parents
        node_id = parents[node_id]
        while node_id is not None:
            if node_id == ancestor_id:
                return True
            node_id = parents[node_id]
        return False

    # -- graph queries -----------------------------------------------------
    def descendant_ids(self, node_id: Any, include_self: bool = False) -> list[Any]:
        """Tree descendants of *node_id* in preorder, children in attach order."""
        self._ensure_tree()
        if node_id not in self._parents:
            return []
        children = self._children
        result = [node_id] if include_self else []
        stack = list(reversed(children.get(node_id, ())))
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(reversed(children.get(current, ())))
        return result

    def reachable_ids(self, node_id: Any, include_self: bool = True) -> list[Any]:
        """Every id reachable from *node_id* over tree and extra edges."""
        self._ensure_tree()
        if node_id not in self._parents:
            return []
        children, extra = self._children, self._extra
        seen = {node_id: None}
        stack = [node_id]
        while stack:
            current = stack.pop()
            for target in (*children.get(current, ()), *extra.get(current, ())):
                if target not in seen:
                    seen[target] = None
                    stack.append(target)
        if not include_self:
            del seen[node_id]
        return list(seen)
