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

The in-memory classifier here is the reference implementation, one
document at a time: the crawl scores with its columnar compilation
(:mod:`repro.classifier.compiled`), and it and the DB-backed
:mod:`single_probe` and :mod:`bulk_probe` classifiers must agree with
this one (tests enforce this), differing only in their arithmetic
order and I/O access paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence

from repro.taxonomy.tree import ROOT_CID, TopicTaxonomy

from .tokenizer import TermFrequencies

#: Log-probability floor used when normalising (avoids exp underflow noise).
_MIN_LOG = -700.0


@dataclass
class NodeModel:
    """Per-internal-node statistics: the paper's STAT_c0 table plus priors."""

    cid: int
    child_cids: list[int]
    feature_tids: set[int]
    logprior: Dict[int, float]
    logdenom: Dict[int, float]
    logtheta: Dict[tuple[int, int], float] = field(default_factory=dict)

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
    """One document's relevance and best leaf, as a batch classifier returns them."""

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

    def classify_batch(self, documents: Sequence[TermFrequencies]) -> list[BatchClassification]:
        """:meth:`relevance` and :meth:`best_leaf` of each document.

        The oracle of :meth:`CompiledHierarchicalModel.classify_batch
        <repro.classifier.compiled.CompiledHierarchicalModel.classify_batch>`,
        which the crawl runs; the two agree to 1e-9.
        """
        return [BatchClassification(self.relevance(d), self.best_leaf(d)) for d in documents]

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
