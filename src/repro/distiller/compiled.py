"""Columnar distillation: LINK adjacency as arrays, HITS as matvecs.

The reference :func:`~repro.distiller.hits.weighted_hits` walks Python
edge lists and dicts per iteration.  This module keeps the crawl graph
in columnar form — parallel NumPy arrays over the non-nepotistic edges,
in LINK-heap append order — and runs each HITS half-step as a
``np.bincount`` scatter-add (a CSR matvec without leaving NumPy):

    a  <-  F^T  (h * w_fwd)        restricted to relevance > rho
    h  <-  B    (a * w_rev)

:class:`CompiledLinkGraph` supports exactly the two mutations the
crawler performs — appending new edges and patching weights in place,
each a column batch at a time — so
:class:`~repro.distiller.db_distiller.LinkDeltaCache` folds its deltas
into the compiled arrays instead of rebuilding them per distillation.
Scores agree with the reference implementation to 1e-9
(tests enforce this); the compiled results themselves are
deterministic functions of the edge list in append order.
"""

from __future__ import annotations

import math
from itertools import chain, compress, count, islice
from operator import ne
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .hits import DistillationResult
from .weights import Link

#: Array slot marking "no stored weight, fall back to endpoint relevance"
#: (the reference path's ``None`` weights).
_NO_WEIGHT = math.nan


def _grown(buffer: np.ndarray, used: int) -> np.ndarray:
    """A buffer of twice the capacity holding the first *used* entries."""
    bigger = np.zeros(2 * len(buffer), dtype=buffer.dtype)
    bigger[:used] = buffer[:used]
    return bigger


def _weights(values: Sequence[Optional[float]]) -> np.ndarray:
    """A weight column as floats, ``None`` ("no stored weight") as NaN."""
    if None in values:
        values = [_NO_WEIGHT if value is None else value for value in values]
    return np.array(values, dtype=np.float64)


class CompiledLinkGraph:
    """Columnar adjacency over the non-nepotistic crawl edges.

    Edges are kept in append order (the LINK heap's scan order), so the
    scatter-add accumulation visits contributions in the same sequence
    as the reference edge walk.  Oids are densified on first appearance;
    the dense index is append-stable, making compiled scores a pure
    function of the edge list regardless of when the graph was built
    (checkpoint resume rebuilds it from the recovered heap).

    The columns live in capacity-doubling NumPy buffers that
    ``add_columns`` and ``patch`` write in place, so a distillation
    pays for the edges that arrived or changed since the last one,
    never for the ones already compiled.  What HITS needs per *node* is
    kept the same way: which nodes are link sources (the uniform hub
    initialisation) and the dense relevance vector
    (:meth:`relevance_vector`).
    """

    _INITIAL_CAPACITY = 256

    def __init__(self) -> None:
        capacity = self._INITIAL_CAPACITY
        self._edges = 0
        self._src = np.zeros(capacity, dtype=np.int64)
        self._dst = np.zeros(capacity, dtype=np.int64)
        self._fwd = np.zeros(capacity, dtype=np.float64)
        self._rev = np.zeros(capacity, dtype=np.float64)
        self._index_of_oid: Dict[int, int] = {}
        #: Append-only; results of :func:`compiled_weighted_hits` share it.
        self._oids: List[int] = []
        self._is_source = np.zeros(capacity, dtype=np.bool_)
        self._source_count = 0
        self._rel = np.zeros(capacity, dtype=np.float64)
        #: Dense indexes below this hold the relevance of their oid as of
        #: the first ``_rel_seen`` entries of ``_rel_map``.
        self._rel_nodes = 0
        self._rel_seen = 0
        self._rel_map: Optional[Mapping[int, float]] = None

    def __len__(self) -> int:
        return self._edges

    def _densify(self, oid: int) -> int:
        index = self._index_of_oid.get(oid)
        if index is None:
            index = len(self._oids)
            self._index_of_oid[oid] = index
            self._oids.append(oid)
        return index

    def _reserve(self, edges: int, nodes: int) -> None:
        """Grow the edge buffers to hold *edges* and the node buffers *nodes*."""
        while edges > len(self._src):
            used = self._edges
            self._src = _grown(self._src, used)
            self._dst = _grown(self._dst, used)
            self._fwd = _grown(self._fwd, used)
            self._rev = _grown(self._rev, used)
        while nodes > len(self._is_source):
            used = len(self._is_source)
            self._is_source = _grown(self._is_source, used)
            self._rel = _grown(self._rel, used)

    def add(self, link: Link) -> int:
        """Append one edge and return its position (``-1``: dropped).

        Nepotistic edges are dropped: they never contribute.  This is
        the edge-at-a-time reference that :meth:`add_columns` must
        agree with; the crawl feeds the graph through the latter.
        """
        if link.is_nepotistic:
            return -1
        position = self._edges
        self._reserve(position + 1, len(self._oids) + 2)
        source = self._densify(link.oid_src)
        if not self._is_source[source]:
            self._is_source[source] = True
            self._source_count += 1
        self._src[position] = source
        self._dst[position] = self._densify(link.oid_dst)
        self._fwd[position] = _NO_WEIGHT if link.wgt_fwd is None else link.wgt_fwd
        self._rev[position] = _NO_WEIGHT if link.wgt_rev is None else link.wgt_rev
        self._edges = position + 1
        return position

    def extend(self, links: Iterable[Link]) -> None:
        for link in links:
            self.add(link)

    def add_columns(self, oid_src, sid_src, oid_dst, sid_dst, wgt_fwd, wgt_rev) -> List[int]:
        """Append a batch of LINK rows given as their six columns, in schema order.

        Equals :meth:`add` of each row in turn — same dropped nepotistic
        edges, same dense numbering (source before destination, edge by
        edge), bit-equal :meth:`arrays` — at one slice assignment per
        buffer.  Returns each row's edge position, ``-1`` for the ones
        dropped, for later :meth:`patch` calls.
        """
        keep = list(map(ne, sid_src, sid_dst))
        kept = sum(keep)
        if kept < len(keep):
            oid_src, oid_dst, wgt_fwd, wgt_rev = (
                list(compress(column, keep)) for column in (oid_src, oid_dst, wgt_fwd, wgt_rev)
            )
        base = self._edges
        positions = iter(range(base, base + kept))
        placed = [next(positions) if kept_row else -1 for kept_row in keep]
        if not kept:
            return placed
        # Oids stay Python ints (unsigned 64-bit hashes overflow a C long);
        # only their dense indexes go into arrays.
        endpoints = list(chain.from_iterable(zip(oid_src, oid_dst)))
        index_of = self._index_of_oid
        fresh = [oid for oid in dict.fromkeys(endpoints) if oid not in index_of]
        index_of.update(zip(fresh, count(len(self._oids))))
        self._oids.extend(fresh)
        self._reserve(base + kept, len(self._oids))
        dense = np.array([index_of[oid] for oid in endpoints], dtype=np.int64)
        stop = base + kept
        src = self._src[base:stop] = dense[0::2]
        self._dst[base:stop] = dense[1::2]
        self._fwd[base:stop] = _weights(wgt_fwd)
        self._rev[base:stop] = _weights(wgt_rev)
        self._is_source[src] = True
        self._source_count = int(np.count_nonzero(self._is_source[: len(self._oids)]))
        self._edges = stop
        return placed

    def patch(self, positions: Sequence[int], wgt_fwd, wgt_rev) -> None:
        """Overwrite the weights of the edges at *positions* in place."""
        positions = np.asarray(positions, dtype=np.int64)
        self._fwd[positions] = _weights(wgt_fwd)
        self._rev[positions] = _weights(wgt_rev)

    def arrays(self):
        """The (src, dst, fwd, rev, oids) columns: views of the live buffers.

        Valid until the next mutation.  ``oids`` stays a Python list: page
        oids are unsigned 64-bit URL hashes that can overflow a C long,
        and the kernels only ever use them to translate dense indexes
        back to dictionary keys.
        """
        edges = self._edges
        return (
            self._src[:edges],
            self._dst[:edges],
            self._fwd[:edges],
            self._rev[:edges],
            self._oids,
        )

    def uniform_hubs(self) -> np.ndarray:
        """HITS' start vector: 1/|sources| on every link source, else zero."""
        hubs = np.zeros(len(self._oids), dtype=np.float64)
        hubs[self._is_source[: len(self._oids)]] = 1.0 / self._source_count
        return hubs

    def relevance_vector(self, relevance: Mapping[int, float]) -> np.ndarray:
        """``relevance.get(oid, 0.0)`` per dense node, maintained incrementally.

        Handed the same ``dict`` as last time, only the nodes densified
        and the keys inserted since then are looked up — the crawl's
        relevance map grows by one key per visited page and a page is
        classified once, so a key's value is final.  Any other mapping
        (or a dict that shrank) is gathered in full.
        """
        nodes = len(self._oids)
        rel = self._rel
        first_unfilled = 0
        if (
            relevance is self._rel_map
            and type(relevance) is dict
            and len(relevance) >= self._rel_seen
        ):
            first_unfilled = self._rel_nodes
            # dicts iterate in insertion order: reversed, the new keys lead.
            index_of = self._index_of_oid.get
            fresh = len(relevance) - self._rel_seen
            for oid, value in islice(reversed(relevance.items()), fresh):
                index = index_of(oid)
                if index is not None:
                    rel[index] = value
        else:
            self._rel_map = relevance
        lookup = relevance.get
        oids = self._oids
        for index in range(first_unfilled, nodes):
            rel[index] = lookup(oids[index], 0.0)
        self._rel_nodes = nodes
        self._rel_seen = len(relevance)
        return rel[:nodes]


def compile_links(links: Iterable[Link]) -> CompiledLinkGraph:
    """Compile a full edge list in one go (what a delta-folded graph must equal)."""
    graph = CompiledLinkGraph()
    graph.extend(links)
    return graph


def compiled_weighted_hits(
    graph: CompiledLinkGraph,
    relevance: Mapping[int, float],
    rho: float = 0.1,
    max_iterations: int = 25,
    tolerance: float = 1e-9,
    use_relevance_weights: bool = True,
) -> DistillationResult:
    """Relevance-weighted HITS over a compiled graph (reference: ``weighted_hits``).

    Matches :func:`repro.distiller.hits.weighted_hits` to floating-point
    tolerance: same initialisation (uniform hubs over link sources), same
    per-half-step L1 normalisation, same convergence test on the hub
    vector, same relevance filter and ``None``-weight fallbacks.
    """
    src, dst, fwd, rev, oids = graph.arrays()
    if not len(src):
        nothing = np.zeros(0, dtype=np.float64)
        return DistillationResult.from_dense(oids, nothing, nothing, 0)
    n = len(oids)
    rel = graph.relevance_vector(relevance)
    hubs = graph.uniform_hubs()
    authorities = np.zeros(n, dtype=np.float64)

    # Forward edges: filtered once (the relevance threshold and weights do
    # not change across iterations), exactly as the reference pre-resolves.
    rel_dst = rel[dst]
    forward = rel_dst > rho
    f_src = src[forward]
    f_dst = dst[forward]
    if use_relevance_weights:
        f_fwd = fwd[forward]
        f_wgt = np.where(np.isnan(f_fwd), rel_dst[forward], f_fwd)
        r_wgt = np.where(np.isnan(rev), rel[src], rev)
    else:
        f_wgt = np.ones(len(f_src), dtype=np.float64)
        r_wgt = np.ones(len(src), dtype=np.float64)

    iterations_run = 0
    for _ in range(max_iterations):
        iterations_run += 1
        new_authorities = np.bincount(f_dst, weights=hubs[f_src] * f_wgt, minlength=n)
        total = new_authorities.sum()
        if total > 0:
            new_authorities /= total
        new_hubs = np.bincount(src, weights=new_authorities[dst] * r_wgt, minlength=n)
        total = new_hubs.sum()
        if total > 0:
            new_hubs /= total
        delta = np.abs(new_hubs - hubs).sum()
        hubs, authorities = new_hubs, new_authorities
        if delta < tolerance:
            break

    return DistillationResult.from_dense(oids, hubs, authorities, iterations_run)
