"""The hierarchical naive-Bayes model and its in-memory classifier.

The model mirrors the paper's on-disk representation (§2.1.1):

* for every internal node c0, a feature set F(c0),
* for every child ci of c0 and every feature term with non-zero count in
  D(ci), ``logtheta(ci, t)``,
* per child, ``logdenom(ci)`` (log of the smoothing denominator) and
  ``logprior(ci)`` (log Pr[ci | c0]).

Classification follows Equation (2): the chain rule refines Pr[c | d]
from the root downward, and the soft-focus relevance (Equation 3) is the
sum of Pr[c | d] over the good classes.

The in-memory classifier here is numerically the reference
implementation; the DB-backed :mod:`single_probe` and :mod:`bulk_probe`
classifiers must agree with it (tests enforce this), differing only in
their I/O access paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence

from repro.core.caching import LRUCache
from repro.taxonomy.tree import ROOT_CID, TopicTaxonomy

from .tokenizer import TermFrequencies

#: Log-probability floor used when normalising (avoids exp underflow noise).
_MIN_LOG = -700.0

#: Per-node bound on the cached term vectors of the shared-work batch path.
#: Long crawls see an unbounded stream of distinct (mostly background)
#: terms; without a bound the cache grows with crawl length.  Eviction is
#: LRU (the same policy as the engine's outcome cache) and is harmless for
#: correctness: a recomputed vector is bit-identical to the evicted one.
TERM_VECTOR_CACHE_CAPACITY = 65536


@dataclass
class NodeModel:
    """Per-internal-node statistics: the paper's STAT_c0 table plus priors."""

    cid: int
    child_cids: list[int]
    feature_tids: set[int]
    logprior: Dict[int, float]
    logdenom: Dict[int, float]
    logtheta: Dict[tuple[int, int], float] = field(default_factory=dict)
    #: Lazily built per-term log-likelihood vectors (one float per child),
    #: shared across documents by the batch classification path.  Bounded
    #: LRU (see :data:`TERM_VECTOR_CACHE_CAPACITY`) so a long crawl's tail
    #: of rare terms cannot grow the cache without limit.
    _term_vectors: LRUCache = field(
        default_factory=lambda: LRUCache(TERM_VECTOR_CACHE_CAPACITY),
        compare=False,
        repr=False,
    )

    def class_conditional_loglikelihoods(self, document: TermFrequencies) -> Dict[int, float]:
        """log Pr[d | ci] up to an additive constant shared by all children.

        For a feature term with no stored (ci, t) entry the smoothed
        probability is 1/denom(ci), i.e. log θ = −logdenom(ci), exactly as
        in the SingleProbe pseudocode (Figure 2).
        """
        scores = {cid: 0.0 for cid in self.child_cids}
        for tid, freq in document.items():
            if tid not in self.feature_tids:
                continue
            for cid in self.child_cids:
                theta = self.logtheta.get((cid, tid))
                if theta is None:
                    scores[cid] -= freq * self.logdenom[cid]
                else:
                    scores[cid] += freq * theta
        return scores

    def conditional_posteriors(self, document: TermFrequencies) -> Dict[int, float]:
        """Pr[ci | c0, d] for every child ci, normalised over the children."""
        loglikes = self.class_conditional_loglikelihoods(document)
        scores = {
            cid: loglikes[cid] + self.logprior.get(cid, 0.0) for cid in self.child_cids
        }
        return normalize_log_scores(scores)

    # -- shared-work batch path ----------------------------------------------------
    def _term_vector(self, tid: int) -> tuple:
        """Per-child log θ for one feature term, cached across documents.

        Entry i is ``logtheta(child_i, tid)`` when stored, else the smoothed
        ``-logdenom(child_i)`` — the same values the reference path looks up
        per (child, term), folded into one tuple so scoring a batch pays the
        dictionary probes only once per distinct term.
        """
        vector = self._term_vectors.peek(tid)
        if vector is None:
            logtheta = self.logtheta
            vector = tuple(
                logtheta[(cid, tid)] if (cid, tid) in logtheta else -self.logdenom[cid]
                for cid in self.child_cids
            )
            self._term_vectors.put(tid, vector)
        return vector

    def conditional_posteriors_shared(self, document: TermFrequencies) -> Dict[int, float]:
        """Bit-for-bit equal to :meth:`conditional_posteriors`, via cached vectors.

        ``freq * (-logdenom)`` equals ``-(freq * logdenom)`` exactly in IEEE
        arithmetic and the accumulation visits terms and children in the
        same order, so the floats match the reference path bit for bit
        (tests enforce this).
        """
        totals = [0.0] * len(self.child_cids)
        feature_tids = self.feature_tids
        cache = self._term_vectors
        # Below capacity no eviction can occur, so read the backing dict
        # directly (seed-speed); at capacity, route through the LRU so
        # recently used vectors survive eviction.
        vectors = cache.raw if len(cache) < cache.capacity else cache
        for tid, freq in document.items():
            vector = vectors.get(tid)
            if vector is None:
                if tid not in feature_tids:
                    continue
                vector = self._term_vector(tid)
            totals = [total + freq * value for total, value in zip(totals, vector)]
        scores = {
            cid: totals[i] + self.logprior.get(cid, 0.0)
            for i, cid in enumerate(self.child_cids)
        }
        return normalize_log_scores(scores)


def normalize_log_scores(scores: Mapping[int, float]) -> Dict[int, float]:
    """Softmax-normalise a map of log scores into probabilities."""
    if not scores:
        return {}
    peak = max(scores.values())
    exponentials = {
        key: math.exp(max(value - peak, _MIN_LOG)) for key, value in scores.items()
    }
    total = sum(exponentials.values())
    return {key: value / total for key, value in exponentials.items()}


@dataclass(frozen=True)
class BatchClassification:
    """One document's outcome from :meth:`HierarchicalModel.classify_batch`."""

    relevance: float
    best_leaf_cid: int


@dataclass
class HierarchicalModel:
    """The trained classifier: one :class:`NodeModel` per internal taxonomy node."""

    taxonomy: TopicTaxonomy
    nodes: Dict[int, NodeModel]

    # -- inference ---------------------------------------------------------------
    def node_posteriors(
        self, document: TermFrequencies, restrict_to_paths: bool = False
    ) -> Dict[int, float]:
        """Pr[c | d] for every class (or only path/good-reachable classes).

        Implements the chain-rule recursion of Equation (2): the root has
        probability 1; each evaluated internal node distributes its
        probability over its children.
        """
        posteriors: Dict[int, float] = {ROOT_CID: 1.0}
        frontier_cids = (
            {n.cid for n in self.taxonomy.evaluation_frontier()}
            if restrict_to_paths
            else None
        )
        # Parent-before-child order (BFS cid assignment makes sorting by cid valid,
        # but walk the tree explicitly to be safe).
        for node in self.taxonomy.nodes():
            if node.is_leaf or node.cid not in self.nodes:
                continue
            if frontier_cids is not None and node.cid not in frontier_cids:
                continue
            parent_probability = posteriors.get(node.cid)
            if parent_probability is None or parent_probability <= 0.0:
                continue
            conditionals = self.nodes[node.cid].conditional_posteriors(document)
            for child_cid, probability in conditionals.items():
                posteriors[child_cid] = parent_probability * probability
        return posteriors

    def classify_batch(
        self, documents: Sequence[TermFrequencies]
    ) -> list["BatchClassification"]:
        """Score many documents in one pass, sharing per-node work.

        Each document's full posterior map is computed once (the chain rule
        of Equation 2) and both the soft-focus relevance and the best leaf
        are read off it, instead of the two independent recursions the
        reference accessors perform.  Per-node, per-term log-likelihood
        vectors are cached across the whole batch (and across batches) via
        :meth:`NodeModel._term_vector`.  Relevance and best-leaf values are
        bit-for-bit identical to :meth:`relevance` / :meth:`best_leaf`.
        """
        good = self.taxonomy.good_nodes()
        leaves = self.taxonomy.leaves()
        internal = [
            node
            for node in self.taxonomy.nodes()
            if not node.is_leaf and node.cid in self.nodes
        ]
        results = []
        for document in documents:
            posteriors: Dict[int, float] = {ROOT_CID: 1.0}
            for node in internal:
                parent_probability = posteriors.get(node.cid)
                if parent_probability is None or parent_probability <= 0.0:
                    continue
                conditionals = self.nodes[node.cid].conditional_posteriors_shared(document)
                for child_cid, probability in conditionals.items():
                    posteriors[child_cid] = parent_probability * probability
            relevance = (
                float(sum(posteriors.get(node.cid, 0.0) for node in good)) if good else 0.0
            )
            best_leaf = max(leaves, key=lambda n: posteriors.get(n.cid, 0.0)).cid
            results.append(
                BatchClassification(relevance=relevance, best_leaf_cid=best_leaf)
            )
        return results

    def relevance(self, document: TermFrequencies) -> float:
        """Soft-focus relevance R(d) = Σ_{good c} Pr[c | d] (Equation 3)."""
        good = self.taxonomy.good_nodes()
        if not good:
            return 0.0
        posteriors = self.node_posteriors(document, restrict_to_paths=True)
        return float(sum(posteriors.get(node.cid, 0.0) for node in good))

    def best_leaf(self, document: TermFrequencies) -> int:
        """The highest-posterior leaf class (used by the hard focus rule)."""
        posteriors = self.node_posteriors(document, restrict_to_paths=False)
        leaves = self.taxonomy.leaves()
        return max(leaves, key=lambda n: posteriors.get(n.cid, 0.0)).cid

    def hard_focus_accepts(self, document: TermFrequencies) -> bool:
        """Hard focus rule (§2.1.2): expand links only when the best leaf's
        good ancestor exists."""
        best = self.best_leaf(document)
        return self.taxonomy.good_ancestor_of(best) is not None

    # -- introspection --------------------------------------------------------------
    def internal_cids(self) -> list[int]:
        return sorted(self.nodes)

    def feature_count(self) -> int:
        return sum(len(node.feature_tids) for node in self.nodes.values())

    def parameter_count(self) -> int:
        return sum(len(node.logtheta) for node in self.nodes.values())
