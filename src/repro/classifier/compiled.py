"""Columnar NumPy scoring core: the classifier compiled into array kernels.

The reference classification path (:class:`~repro.classifier.model.
HierarchicalModel`) walks Python dicts per document, per taxonomy node,
per term.  This module *compiles* a trained model once into flat NumPy
structures and scores whole batches with vectorized kernels:

* one shared term-id → row mapping over the union of all feature sets,
  and one dense ``(n_terms, n_children_total)`` log-likelihood matrix
  covering every child of every internal node side by side.  Entry
  ``(t, j)`` is ``logtheta(child_j, t)`` when the statistic is stored,
  the smoothed ``-logdenom(child_j)`` when term *t* is a feature of
  child_j's node without a stored statistic — exactly the values the
  reference path looks up per (child, term) — and ``0.0`` when *t* is
  not a feature of that node (no contribution, as in the reference's
  feature filter);
* a batch of token-list documents packed once into a sparse COO
  doc-term batch: one ``np.fromiter`` maps every token to its matrix row
  through a per-model ``token → row`` memo (−1 outside the vocabulary; a
  token the memo lacks costs one :func:`term_id` and one tid → row probe,
  and the memo is cleared when it would pass ``_TOKEN_MEMO_SIZE``), then
  one sort of the batch's ``doc · V + row`` cells, each packed with its
  token position, counts every (document, term) pair.  Reordered by
  first occurrence, the triples are those of the documents'
  :func:`~repro.classifier.tokenizer.term_frequencies` dicts in their
  own order, tokens whose tids collide merged at the first of them; no
  per-page dict is built;
* the Equation-2 chain rule as a running ``(docs, classes)`` posterior
  matrix, from which Equation-3 relevance (sum over good classes) and
  the best leaf (argmax over leaves, first-winner tie-breaking like the
  reference ``max``) are read off with two reductions.

A call makes a fixed number of NumPy calls, whatever the count of
documents, child columns or nodes: the only Python-level work per token
is the memo lookup inside ``np.fromiter``, and the Python loops of
:meth:`posterior_matrix` run over the model's distinct fan-outs and
taxonomy levels only.  Its reductions:

* **per-(document, child) log-likelihood sums** — one ``np.bincount``
  over the flattened ``(document, child)`` cells.  It adds each cell's
  entries one after another in packing order, starting from 0, as a
  ``bincount`` per child column would;
* **per-node peaks** — one ``np.maximum.reduceat`` over the nodes'
  column starts (a max is exact in any order);
* **per-node softmax totals** — one ``exp`` over the whole score matrix,
  then, per distinct fan-out *w*, ``take(cols, axis=1).sum(axis=2)``
  over the ``(nodes, w)`` column matrix of the nodes with *w* children:
  a contiguous-row reduction, the one a per-node ``sum(axis=1)`` makes
  (pairwise from w = 9 on, sequential below);
* **chain rule** — one multiply per taxonomy level (a level's parents
  are final before it runs; an unmodelled parent stays 0).

So the posteriors equal, float for float, those of the loop form (one
``bincount`` per child column, one softmax pass per node), and a
document's row does not depend on the batch around it: a batch of one
reproduces a batch of K bit for bit (checkpoint/resume relies on this).
``np.add.reduceat`` (on either axis) and a matmul would also give the
per-document sums in one call, but both re-associate the additions and
so move posteriors in their last bits; they are not used.  Against the
single-document reference, which adds in another order, the tests
enforce 1e-9 on posteriors and relevance and identity of the best leaf.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Sequence

import numpy as np

from repro.taxonomy.tree import ROOT_CID, TopicTaxonomy
from repro.webgraph.vocabulary import term_id

from .model import _MIN_LOG, BatchClassification, HierarchicalModel

#: Entries a compiled model's token → feature-row memo may hold before it
#: is cleared (the bound of the URL and term-id caches).
_TOKEN_MEMO_SIZE = 1 << 17


class CompiledHierarchicalModel:
    """A trained :class:`HierarchicalModel` compiled for batch scoring.

    Compilation snapshots the model statistics *and* the taxonomy's
    good/leaf marking; the crawl engine builds one per crawl run, so
    re-marking good topics between crawls (§3.7) is picked up by the
    next run's compile.  The packer's token memo is the one thing a call
    changes, so an instance scores for one thread at a time.
    """

    def __init__(self, model: HierarchicalModel) -> None:
        self.model = model
        taxonomy: TopicTaxonomy = model.taxonomy
        # Shared vocabulary: the union of every node's feature set.
        tids = sorted({tid for node in model.nodes.values() for tid in node.feature_tids})
        term_row = self._row_of_tid = {tid: g for g, tid in enumerate(tids)}
        #: token → its feature row, or -1 outside the vocabulary: the
        #: packer's memo, cleared when it would pass ``_TOKEN_MEMO_SIZE``.
        self._row_of_token: Dict[str, int] = {}
        n_terms = len(tids)

        # Parent-before-child evaluation order, as in the reference path.
        nodes = [
            model.nodes[node.cid]
            for node in taxonomy.nodes()
            if not node.is_leaf and node.cid in model.nodes
        ]
        cids = [node.cid for node in taxonomy.nodes()]
        self._column_of_cid = {cid: col for col, cid in enumerate(cids)}
        self._n_classes = len(cids)
        self._root_col = self._column_of_cid[ROOT_CID]

        # One dense matrix over (shared term row, flattened child column):
        # each node owns a contiguous column slice [start, start + fan-out).
        fanouts = np.array([len(node.child_cids) for node in nodes], dtype=np.int64)
        starts = np.cumsum(fanouts) - fanouts
        n_children_total = int(fanouts.sum())
        vectors = np.zeros((n_terms, n_children_total), dtype=np.float64)
        logprior = np.zeros(n_children_total, dtype=np.float64)
        for node, start in zip(nodes, starts.tolist()):
            stop = start + len(node.child_cids)
            child_col = {cid: start + i for i, cid in enumerate(node.child_cids)}
            feature_rows = np.fromiter(
                (term_row[tid] for tid in sorted(node.feature_tids)),
                dtype=np.int64,
                count=len(node.feature_tids),
            )
            # Feature terms default to the smoothed -logdenom of each child;
            # stored (child, term) statistics override pointwise.  Terms
            # outside the node's feature set keep 0.0 (they contribute
            # nothing, matching the reference path's feature filter).
            defaults = np.array(
                [-node.logdenom[cid] for cid in node.child_cids], dtype=np.float64
            )
            if len(feature_rows):
                vectors[feature_rows, start:stop] = defaults
            feature_tids = node.feature_tids
            for (cid, tid), value in node.logtheta.items():
                if tid in feature_tids:
                    vectors[term_row[tid], child_col[cid]] = value
            logprior[start:stop] = [
                node.logprior.get(cid, 0.0) for cid in node.child_cids
            ]
        self._vectors = vectors
        self._logprior = logprior
        self._child_range = np.arange(n_children_total, dtype=np.int64)

        # The softmax plan: the node of every child column, each node's
        # first column, and per distinct fan-out w the (nodes, w) matrix
        # of their columns.
        self._node_starts = starts
        self._node_of_col = np.repeat(np.arange(len(nodes), dtype=np.int64), fanouts)
        self._fanout_groups = []
        for width in np.unique(fanouts).tolist():
            members = np.flatnonzero(fanouts == width)
            self._fanout_groups.append(
                (members, starts[members][:, None] + np.arange(width, dtype=np.int64))
            )
        # The chain-rule plan, one step per taxonomy depth: the child
        # columns of the depth's nodes, the posterior column of each one's
        # parent node, and their own posterior columns.
        node_class_col = np.array(
            [self._column_of_cid[node.cid] for node in nodes], dtype=np.int64
        )
        child_class_col = np.array(
            [self._column_of_cid[cid] for node in nodes for cid in node.child_cids],
            dtype=np.int64,
        )
        node_depth = np.array(
            [taxonomy.node(node.cid).depth() for node in nodes], dtype=np.int64
        )
        col_depth = node_depth[self._node_of_col]
        self._levels = []
        for depth in np.unique(node_depth).tolist():
            cols = np.flatnonzero(col_depth == depth)
            self._levels.append(
                (cols, node_class_col[self._node_of_col[cols]], child_class_col[cols])
            )

        leaves = taxonomy.leaves()
        self._leaf_cols = np.array(
            [self._column_of_cid[n.cid] for n in leaves], dtype=np.int64
        )
        self._leaf_cids = np.array([n.cid for n in leaves], dtype=np.int64)
        self._good_cols = np.array(
            [self._column_of_cid[n.cid] for n in taxonomy.good_nodes()], dtype=np.int64
        )

    # -- document packing ---------------------------------------------------------
    def _pack(self, documents: Sequence[Sequence[str]]):
        """COO doc-term batch restricted to the shared feature vocabulary.

        Each token is mapped to its feature row through the memo (a token
        it lacks costs one :func:`term_id` and one tid → row probe), then
        the batch's ``doc · V + row`` cells are counted by one sort.  In
        first-occurrence order they are the ``(doc, row, freq)`` triples of
        :func:`~repro.classifier.tokenizer.term_frequencies` filtered to the
        vocabulary, in that dict's order: a document's terms in the order
        they first appear, tokens whose tids collide merged at the first of
        them.  So packing is independent of how documents are grouped into
        batches.
        """
        n_vocab = len(self._row_of_tid)
        if not n_vocab:
            # No node has a feature: no entry survives the filter.
            none = np.empty(0, dtype=np.int64)
            return none, none, np.empty(0, dtype=np.float64)
        lengths = list(map(len, documents))
        try:
            rows = self._rows(documents, sum(lengths))
        except KeyError:
            self._memoise(documents)
            rows = self._rows(documents, sum(lengths))
        cells = np.repeat(np.arange(0, len(documents) * n_vocab, n_vocab), lengths)
        cells += rows
        if rows.min(initial=0) < 0:
            cells = cells[rows >= 0]
        # One sort of (cell, position) pairs, each packed into one int64
        # (K · V · n stays far below 2**63), runs equal cells together with
        # their first position leading.
        n = len(cells)
        keys = cells * n
        keys += np.arange(n)
        keys.sort()
        cells, positions = np.divmod(keys, max(n, 1))
        edges = np.empty(n + 1, dtype=bool)
        edges[0] = edges[n] = True
        np.not_equal(cells[1:], cells[:-1], out=edges[1:n])
        bounds = np.flatnonzero(edges)
        starts = bounds[:-1]
        order = np.argsort(positions[starts])
        doc_idx, term_row = np.divmod(cells[starts[order]], n_vocab)
        counts = bounds[1:] - starts
        return doc_idx, term_row, counts[order].astype(np.float64)

    def _rows(self, documents: Sequence[Sequence[str]], total: int) -> np.ndarray:
        """The memoised feature row of every token of the batch, in order."""
        return np.fromiter(
            map(self._row_of_token.__getitem__, chain.from_iterable(documents)), np.int64, total
        )

    def _memoise(self, documents: Sequence[Sequence[str]]) -> None:
        """Memoise the batch's tokens the memo lacks; clear it first if they would pass the bound."""
        memo = self._row_of_token
        tokens = list(dict.fromkeys(chain.from_iterable(documents)))
        fresh = [token for token in tokens if token not in memo]
        if len(memo) + len(fresh) > _TOKEN_MEMO_SIZE:
            memo.clear()
            fresh = tokens
        row_of = self._row_of_tid.get
        for token in fresh:
            memo[token] = row_of(term_id(token), -1)

    # -- scoring ------------------------------------------------------------------
    def posterior_matrix(self, documents: Sequence[Sequence[str]]) -> np.ndarray:
        """Pr[c | d] for every token-list document × taxonomy class (Equation 2)."""
        n_docs = len(documents)
        posteriors = np.zeros((n_docs, self._n_classes), dtype=np.float64)
        posteriors[:, self._root_col] = 1.0
        doc_idx, term_row, freqs = self._pack(documents)
        n_children = len(self._child_range)
        # Every entry's contribution to every child column, scatter-added
        # into its flattened (document, child) cell in packing order.
        weighted = self._vectors.take(term_row, axis=0)
        weighted *= freqs[:, None]
        cells = (doc_idx * n_children)[:, None] + self._child_range
        sums = np.bincount(
            cells.ravel(), weights=weighted.ravel(), minlength=n_docs * n_children
        )
        # Not in place: with no entries, bincount returns integer zeros.
        scores = sums.reshape(n_docs, n_children) + self._logprior
        # Softmax per node, in place, with the reference's -700 exponent floor.
        peaks = np.maximum.reduceat(scores, self._node_starts, axis=1)
        scores -= peaks.take(self._node_of_col, axis=1)
        conditionals = np.exp(np.maximum(scores, _MIN_LOG, out=scores), out=scores)
        totals = np.empty_like(peaks)
        for members, cols in self._fanout_groups:
            totals[:, members] = conditionals.take(cols, axis=1).sum(axis=2)
        conditionals /= totals.take(self._node_of_col, axis=1)
        for cols, parent_cols, child_cols in self._levels:
            parents = posteriors.take(parent_cols, axis=1)
            posteriors[:, child_cols] = parents * conditionals.take(cols, axis=1)
        return posteriors

    def classify_batch(self, documents: Sequence[Sequence[str]]) -> List[BatchClassification]:
        """Relevance and best leaf per token-list document.

        The oracle is ``HierarchicalModel.classify_batch`` over the
        documents' :func:`term_frequencies`, to 1e-9.
        """
        if not documents:
            return []
        posteriors = self.posterior_matrix(documents)
        if len(self._good_cols):
            relevance = posteriors[:, self._good_cols].sum(axis=1)
        else:
            relevance = np.zeros(len(documents), dtype=np.float64)
        best = self._leaf_cids[np.argmax(posteriors[:, self._leaf_cols], axis=1)]
        return list(map(BatchClassification, relevance.tolist(), best.tolist()))
