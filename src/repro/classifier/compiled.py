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
* a batch of documents packed once into a sparse COO doc-term batch;
  all per-(node, child) log-likelihood sums are produced by one fancy
  index plus one ``np.bincount`` scatter-add per child column (a
  CSR-style sparse × dense product without leaving NumPy);
* the Equation-2 chain rule as a running ``(docs, classes)`` posterior
  matrix, from which Equation-3 relevance (sum over good classes) and
  the best leaf (argmax over leaves, first-winner tie-breaking like the
  reference ``max``) are read off with two reductions.

Numerics: the kernels perform the same operations as the reference path
but accumulate in different association orders, so results agree to
floating-point tolerance rather than bit-for-bit — tests enforce 1e-9 on
posteriors, relevance, and best-leaf identity.  Within the compiled
model itself, scoring is deterministic and independent of batch
packing: every accumulation (``np.bincount``) visits a document's
entries in the document's own packing order, so a batch of one
reproduces a batch of K bit for bit (checkpoint/resume relies on this).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.taxonomy.tree import ROOT_CID, TopicTaxonomy

from .model import _MIN_LOG, BatchClassification, HierarchicalModel
from .tokenizer import TermFrequencies


class CompiledHierarchicalModel:
    """A trained :class:`HierarchicalModel` compiled for batch scoring.

    Compilation snapshots the model statistics *and* the taxonomy's
    good/leaf marking; the crawl engine builds one per crawl run, so
    re-marking good topics between crawls (§3.7) is picked up by the
    next run's compile.
    """

    def __init__(self, model: HierarchicalModel) -> None:
        self.model = model
        taxonomy: TopicTaxonomy = model.taxonomy
        # Shared vocabulary: the union of every node's feature set.
        tids = sorted({tid for node in model.nodes.values() for tid in node.feature_tids})
        self._term_row: Dict[int, int] = {tid: g for g, tid in enumerate(tids)}
        #: The same mapping as a sorted array: row g holds the g-th tid, so
        #: a searchsorted position *is* the matrix row (vectorized packing).
        self._sorted_tids = np.array(tids, dtype=np.int64)
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
        # each node owns a contiguous column slice [start, stop).
        n_children_total = sum(len(node.child_cids) for node in nodes)
        vectors = np.zeros((n_terms, n_children_total), dtype=np.float64)
        logprior = np.zeros(n_children_total, dtype=np.float64)
        #: per node: (column slice start, stop, posterior column of the
        #: node, posterior columns of its children).
        self._node_plan: List[tuple] = []
        start = 0
        for node in nodes:
            stop = start + len(node.child_cids)
            child_col = {cid: start + i for i, cid in enumerate(node.child_cids)}
            feature_rows = np.fromiter(
                (self._term_row[tid] for tid in sorted(node.feature_tids)),
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
                    vectors[self._term_row[tid], child_col[cid]] = value
            logprior[start:stop] = [
                node.logprior.get(cid, 0.0) for cid in node.child_cids
            ]
            self._node_plan.append(
                (
                    start,
                    stop,
                    self._column_of_cid[node.cid],
                    [self._column_of_cid[cid] for cid in node.child_cids],
                )
            )
            start = stop
        self._vectors = vectors
        self._logprior = logprior
        self._n_children_total = n_children_total

        leaves = taxonomy.leaves()
        self._leaf_cols = np.array(
            [self._column_of_cid[n.cid] for n in leaves], dtype=np.int64
        )
        self._leaf_cids = np.array([n.cid for n in leaves], dtype=np.int64)
        self._good_cols = np.array(
            [self._column_of_cid[n.cid] for n in taxonomy.good_nodes()], dtype=np.int64
        )

    # -- document packing ---------------------------------------------------------
    def _pack(self, documents: Sequence[TermFrequencies]):
        """COO doc-term batch restricted to the shared feature vocabulary.

        Vocabulary filtering runs as one ``searchsorted`` over the whole
        batch instead of a Python dict probe per term; a document's entries
        stay in its own dict-iteration order, so packing is independent of
        how documents are grouped into batches.
        """
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        n_vocab = len(self._sorted_tids)
        if n_vocab == 0:
            return empty
        tid_arrays = []
        freq_arrays = []
        lengths = []
        for document in documents:
            by_tid = document.by_tid
            count = len(by_tid)
            lengths.append(count)
            tid_arrays.append(np.fromiter(by_tid.keys(), np.int64, count))
            freq_arrays.append(np.fromiter(by_tid.values(), np.float64, count))
        if not tid_arrays:
            return empty
        tids = np.concatenate(tid_arrays)
        if not len(tids):
            return empty
        freqs = np.concatenate(freq_arrays)
        doc_idx = np.repeat(np.arange(len(documents), dtype=np.int64), lengths)
        positions = np.searchsorted(self._sorted_tids, tids)
        # Position n_vocab means "greater than every vocab tid"; clamp to a
        # safe row — the equality test below rejects it regardless.
        positions[positions == n_vocab] = 0
        valid = self._sorted_tids[positions] == tids
        return doc_idx[valid], positions[valid], freqs[valid]

    # -- scoring ------------------------------------------------------------------
    def posterior_matrix(self, documents: Sequence[TermFrequencies]) -> np.ndarray:
        """Pr[c | d] for every document × taxonomy class (Equation 2)."""
        n_docs = len(documents)
        posteriors = np.zeros((n_docs, self._n_classes), dtype=np.float64)
        posteriors[:, self._root_col] = 1.0
        if n_docs == 0:
            return posteriors
        doc_idx, term_row, freqs = self._pack(documents)
        n_children = self._n_children_total
        if len(term_row):
            # Per-entry contributions for every child of every node at
            # once: one fancy index plus one scatter-add per child column.
            weighted = self._vectors[term_row] * freqs[:, None]
            scores = np.empty((n_docs, n_children), dtype=np.float64)
            for j in range(n_children):
                scores[:, j] = np.bincount(
                    doc_idx, weights=weighted[:, j], minlength=n_docs
                )
            scores += self._logprior
        else:
            scores = np.broadcast_to(self._logprior, (n_docs, n_children)).copy()
        for start, stop, parent_col, child_cols in self._node_plan:
            node_scores = scores[:, start:stop]
            # Softmax with the same -700 exponent floor as the reference.
            peak = node_scores.max(axis=1, keepdims=True)
            exponentials = np.exp(np.maximum(node_scores - peak, _MIN_LOG))
            conditionals = exponentials / exponentials.sum(axis=1, keepdims=True)
            parent = posteriors[:, parent_col]
            posteriors[:, child_cols] = parent[:, None] * conditionals
        return posteriors

    def classify_batch(
        self, documents: Sequence[TermFrequencies]
    ) -> List[BatchClassification]:
        """Relevance and best leaf per document (the oracle: ``HierarchicalModel``, to 1e-9)."""
        if not documents:
            return []
        posteriors = self.posterior_matrix(documents)
        if len(self._good_cols):
            relevance = posteriors[:, self._good_cols].sum(axis=1)
        else:
            relevance = np.zeros(len(documents), dtype=np.float64)
        best = self._leaf_cids[np.argmax(posteriors[:, self._leaf_cols], axis=1)]
        return [
            BatchClassification(relevance=float(r), best_leaf_cid=int(b))
            for r, b in zip(relevance, best)
        ]
