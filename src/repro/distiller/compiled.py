"""Columnar distillation: LINK adjacency as arrays, HITS as matvecs.

The reference :func:`~repro.distiller.hits.weighted_hits` walks Python
edge lists and dicts per iteration.  This module keeps the crawl graph
in columnar form — parallel NumPy arrays over the non-nepotistic edges,
in LINK-heap append order — and runs each HITS half-step as a
``np.bincount`` scatter-add (a CSR matvec without leaving NumPy):

    a  <-  F^T  (h * R[dst])
    h  <-  B    (a * R[src])

both over the *live* edges only, those into a page with relevance above
rho (paper §3.7): any other edge adds exactly 0.0 in either half-step,
so a distillation pays for its live edges, and not a bit of it changes.

The edge weights are the endpoints' relevance (paper §3.7, Figure 4):
E_F of an edge is R of the page it cites, E_B is R of the citing page.
The kernel reads them from the relevance map, so
:class:`CompiledLinkGraph` holds edges only and supports the one
mutation the crawler performs — appending new edges, a column batch at
a time.  On every edge a crawl keeps, those are the very floats LINK
stores as ``wgt_fwd``/``wgt_rev``: an edge passes the filter only into
a visited page, which is the one whose ``wgt_fwd`` the writer has
refreshed (and ``rho >= 0``, so an unvisited page's 0.0 never passes).
Scores agree with the reference implementation to 1e-9 (tests enforce
this); the compiled results themselves are deterministic functions of
the edge list in append order.
"""

from __future__ import annotations

from itertools import chain, compress, count, islice
from operator import ne
from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

from .hits import DistillationResult
from .weights import Link


def _grown(buffer: np.ndarray, used: int) -> np.ndarray:
    """A buffer of twice the capacity holding the first *used* entries."""
    bigger = np.zeros(2 * len(buffer), dtype=buffer.dtype)
    bigger[:used] = buffer[:used]
    return bigger


class CompiledLinkGraph:
    """Columnar adjacency over the non-nepotistic crawl edges.

    Edges are kept in append order (the LINK heap's scan order), so the
    scatter-add accumulation visits contributions in the same sequence
    as the reference edge walk.  Oids are densified on first appearance;
    the dense index is append-stable, making compiled scores a pure
    function of the edge list regardless of when the graph was built
    (checkpoint resume rebuilds it from the recovered heap).

    The two edge columns live in capacity-doubling NumPy buffers that
    ``add_columns`` writes in place, so a distillation pays for the
    edges that arrived since the last one, never for the ones already
    compiled.  What HITS needs per *node* is kept the same way: which
    nodes are link sources (the uniform hub initialisation) and the
    dense relevance vector (:meth:`relevance_vector`).
    """

    _INITIAL_CAPACITY = 256

    def __init__(self) -> None:
        capacity = self._INITIAL_CAPACITY
        self._edges = 0
        self._src = np.zeros(capacity, dtype=np.int64)
        self._dst = np.zeros(capacity, dtype=np.int64)
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
        while nodes > len(self._is_source):
            used = len(self._is_source)
            self._is_source = _grown(self._is_source, used)
            self._rel = _grown(self._rel, used)

    def add(self, link: Link) -> None:
        """Append one edge; a nepotistic one is dropped (it never contributes).

        This is the edge-at-a-time reference that :meth:`add_columns`
        must agree with; the crawl feeds the graph through the latter.
        The link's stored weights are not read.
        """
        if link.is_nepotistic:
            return
        position = self._edges
        self._reserve(position + 1, len(self._oids) + 2)
        source = self._densify(link.oid_src)
        if not self._is_source[source]:
            self._is_source[source] = True
            self._source_count += 1
        self._src[position] = source
        self._dst[position] = self._densify(link.oid_dst)
        self._edges = position + 1

    def extend(self, links: Iterable[Link]) -> None:
        for link in links:
            self.add(link)

    def add_columns(self, oid_src, sid_src, oid_dst, sid_dst) -> None:
        """Append a batch of LINK rows given as their first four columns.

        Equals :meth:`add` of each row in turn — same dropped nepotistic
        edges, same dense numbering (source before destination, edge by
        edge), bit-equal :meth:`arrays` — at one slice assignment per
        buffer.
        """
        keep = list(map(ne, sid_src, sid_dst))
        if not all(keep):
            oid_src, oid_dst = compress(oid_src, keep), compress(oid_dst, keep)
        # Oids stay Python ints (unsigned 64-bit hashes overflow a C long);
        # only their dense indexes go into arrays.
        endpoints = list(chain.from_iterable(zip(oid_src, oid_dst)))
        if not endpoints:
            return
        index_of = self._index_of_oid
        fresh = [oid for oid in dict.fromkeys(endpoints) if oid not in index_of]
        index_of.update(zip(fresh, count(len(self._oids))))
        self._oids.extend(fresh)
        base = self._edges
        stop = base + len(endpoints) // 2
        self._reserve(stop, len(self._oids))
        dense = np.array([index_of[oid] for oid in endpoints], dtype=np.int64)
        src = self._src[base:stop] = dense[0::2]
        self._dst[base:stop] = dense[1::2]
        self._is_source[src] = True
        self._source_count = int(np.count_nonzero(self._is_source[: len(self._oids)]))
        self._edges = stop

    def arrays(self):
        """The (src, dst, oids) columns: views of the live buffers.

        Valid until the next mutation.  ``oids`` stays a Python list: page
        oids are unsigned 64-bit URL hashes that can overflow a C long,
        and the kernels only ever use them to translate dense indexes
        back to dictionary keys.
        """
        edges = self._edges
        return self._src[:edges], self._dst[:edges], self._oids

    def cited_by(self, sources: Iterable[int]) -> List[int]:
        """The oids cited by *sources*, one per kept edge out of them.

        Grouped by source in the order given, each source's edges in
        append order: what a ``link_src`` probe of LINK per source
        yields once its nepotistic rows are dropped.  One mask over the
        ``src`` column selects the edges; a stable sort groups them.
        """
        index_of = self._index_of_oid
        dense = [index_of[oid] for oid in sources if oid in index_of]
        src, dst, oids = self.arrays()
        if not dense or not len(src):
            return []
        rank = np.full(len(oids), len(dense), dtype=np.int64)
        rank[dense] = np.arange(len(dense))
        edge_rank = rank[src]
        picked = np.flatnonzero(edge_rank < len(dense))
        picked = picked[np.argsort(edge_rank[picked], kind="stable")]
        return [oids[index] for index in dst[picked].tolist()]

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
    """Compile a full edge list in one go (what a row-fed graph must equal)."""
    graph = CompiledLinkGraph()
    graph.extend(links)
    return graph


def compiled_weighted_hits(
    graph: CompiledLinkGraph,
    relevance: Mapping[int, float],
    rho: float = 0.1,
    max_iterations: int = 25,
    tolerance: float = 1e-9,
) -> DistillationResult:
    """Relevance-weighted HITS over a compiled graph (reference: ``weighted_hits``).

    Matches :func:`repro.distiller.hits.weighted_hits` to floating-point
    tolerance over links whose weights follow the crawl's rule (E_F the
    cited page's relevance, E_B the citing page's, or ``None``): same
    initialisation (uniform hubs over link sources), same per-half-step
    L1 normalisation, same convergence test on the hub vector, same
    relevance filter.

    Both half-steps run over the *live* edges (into a page with relevance
    above *rho*), kept in append order.  Any other edge cites a page of
    authority exactly 0.0, so it would add ``0.0 * R`` to its hub bin: no
    partial sum changes, and the result is bit-equal to a backward step
    over every edge (the oracle in ``tests/distiller``).
    """
    src, dst, oids = graph.arrays()
    if not len(src):
        nothing = np.zeros(0, dtype=np.float64)
        return DistillationResult.from_dense(oids, nothing, nothing, 0)
    n = len(oids)
    rel = graph.relevance_vector(relevance)
    hubs = graph.uniform_hubs()
    authorities = np.zeros(n, dtype=np.float64)

    live = np.flatnonzero(rel[dst] > rho)
    src, dst = src[live], dst[live]
    f_wgt, r_wgt = rel[dst], rel[src]

    iterations_run = 0
    for _ in range(max_iterations):
        iterations_run += 1
        new_authorities = np.bincount(dst, weights=hubs[src] * f_wgt, minlength=n)
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
