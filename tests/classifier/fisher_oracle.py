"""Fisher feature selection one term at a time: the bit-for-bit oracle of the matrix form.

:func:`repro.classifier.features.select_features` builds one terms ×
documents matrix per class and reduces its rows.  This is the same
computation as a Python list of relative frequencies per (class, term)
and two NumPy reductions per term, with :func:`oracle_train` the
trainer that ran on it.  Feature lists, per-term scores and every
``NodeModel`` statistic of the matrix form must equal these ones
exactly, which is what keeps goldens, checkpoints and figure pins stable
across the two.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.classifier.features import FeatureSelectionConfig
from repro.classifier.model import NodeModel
from repro.taxonomy.examples import ExampleStore
from repro.taxonomy.tree import TopicTaxonomy
from repro.webgraph.vocabulary import term_id


def fisher_scores(
    class_term_frequencies: Sequence[Dict[str, List[float]]],
    epsilon: float = 1e-9,
) -> Dict[str, float]:
    """Fisher discriminant score per term.

    ``class_term_frequencies[i]`` maps a term to the list of its relative
    frequencies in each document of class ``i`` (documents where the term
    does not occur contribute 0 and must be included by the caller).
    """
    terms: set[str] = set()
    for per_class in class_term_frequencies:
        terms.update(per_class)
    scores: Dict[str, float] = {}
    for term in terms:
        means = []
        variances = []
        for per_class in class_term_frequencies:
            values = np.asarray(per_class.get(term, [0.0]), dtype=float)
            means.append(float(values.mean()))
            variances.append(float(values.var()))
        means_arr = np.asarray(means)
        between = 0.0
        for i in range(len(means_arr)):
            for j in range(i + 1, len(means_arr)):
                between += float((means_arr[i] - means_arr[j]) ** 2)
        within = float(np.sum(variances)) + epsilon
        scores[term] = between / within
    return scores


def relative_frequencies(
    documents_per_child: Sequence[Sequence[Dict[str, int]]],
    config: FeatureSelectionConfig,
) -> List[Dict[str, List[float]]]:
    """The candidate terms' relative frequencies per class, as :func:`select_features` builds them.

    This is the argument :func:`select_features` hands :func:`fisher_scores`,
    so a test can read the oracle's per-term scores and class means.
    """
    document_frequency: Dict[str, int] = {}
    for child_docs in documents_per_child:
        for doc in child_docs:
            for term in doc:
                document_frequency[term] = document_frequency.get(term, 0) + 1
    candidates = {
        term
        for term, df in document_frequency.items()
        if df >= config.min_document_frequency
    }
    if not candidates:
        candidates = set(document_frequency)
    out: List[Dict[str, List[float]]] = []
    for child_docs in documents_per_child:
        per_class: Dict[str, List[float]] = {term: [] for term in candidates}
        for doc in child_docs:
            total = sum(doc.values()) or 1
            for term in candidates:
                per_class[term].append(doc.get(term, 0) / total)
        if not child_docs:
            for term in candidates:
                per_class[term].append(0.0)
        out.append(per_class)
    return out


def select_features(
    documents_per_child: Sequence[Sequence[Dict[str, int]]],
    config: FeatureSelectionConfig,
) -> List[str]:
    """Select F(c0) given each child's training documents (term->count maps).

    Returns the selected terms sorted by decreasing Fisher score.  When a
    child has no training documents it simply contributes nothing to the
    scatter computation (the trainer guards against fully-empty nodes).
    """
    # Document frequency filter.
    document_frequency: Dict[str, int] = {}
    for child_docs in documents_per_child:
        for doc in child_docs:
            for term in doc:
                document_frequency[term] = document_frequency.get(term, 0) + 1
    candidates = {
        term
        for term, df in document_frequency.items()
        if df >= config.min_document_frequency
    }
    if not candidates:
        # Degenerate training sets: fall back to every observed term.
        candidates = set(document_frequency)

    # Relative frequencies per class, aligned per document (zeros included).
    class_term_frequencies: List[Dict[str, List[float]]] = []
    for child_docs in documents_per_child:
        per_class: Dict[str, List[float]] = {term: [] for term in candidates}
        for doc in child_docs:
            total = sum(doc.values()) or 1
            for term in candidates:
                per_class[term].append(doc.get(term, 0) / total)
        if not child_docs:
            for term in candidates:
                per_class[term].append(0.0)
        class_term_frequencies.append(per_class)

    scores = fisher_scores(class_term_frequencies, config.epsilon)
    ranked = sorted(candidates, key=lambda term: (-scores.get(term, 0.0), term))
    return ranked[: config.max_features]


def oracle_train(
    taxonomy: TopicTaxonomy,
    examples: ExampleStore,
    config: Optional[FeatureSelectionConfig] = None,
) -> Dict[int, NodeModel]:
    """``ClassifierTrainer.train``'s node models, built on the per-term :func:`select_features`."""
    config = config or FeatureSelectionConfig()
    nodes: Dict[int, NodeModel] = {}
    for internal in taxonomy.internal_nodes():
        node_model = _train_node(taxonomy, examples, config, internal.cid)
        if node_model is not None:
            nodes[internal.cid] = node_model
    return nodes


def _train_node(
    taxonomy: TopicTaxonomy,
    examples: ExampleStore,
    config: FeatureSelectionConfig,
    cid: int,
) -> Optional[NodeModel]:
    node = taxonomy.node(cid)
    children = node.children
    # D(ci): term->count maps per document, for each child subtree.
    documents_per_child: List[List[Dict[str, int]]] = []
    modelled_children = []
    for child in children:
        docs = [
            doc.term_frequencies()
            for doc in examples.for_subtree(taxonomy, child.cid)
        ]
        if docs:
            modelled_children.append(child)
            documents_per_child.append(docs)
    if not modelled_children:
        return None

    features = select_features(documents_per_child, config)
    feature_set = set(features)
    feature_tids = {term_id(term) for term in features}

    # Vocabulary of D(c0): distinct terms across every child's documents.
    vocabulary: set[str] = set()
    for docs in documents_per_child:
        for doc in docs:
            vocabulary.update(doc)
    vocabulary_size = max(len(vocabulary), 1)

    total_documents = sum(len(docs) for docs in documents_per_child)
    logprior: Dict[int, float] = {}
    logdenom: Dict[int, float] = {}
    logtheta: Dict[tuple[int, int], float] = {}
    for child, docs in zip(modelled_children, documents_per_child):
        term_counts: Dict[str, int] = {}
        total_count = 0
        for doc in docs:
            for term, count in doc.items():
                total_count += count
                if term in feature_set:
                    term_counts[term] = term_counts.get(term, 0) + count
        denominator = vocabulary_size + total_count
        logdenom[child.cid] = math.log(denominator)
        logprior[child.cid] = math.log(len(docs) / total_documents)
        for term, count in term_counts.items():
            logtheta[(child.cid, term_id(term))] = math.log(
                (1 + count) / denominator
            )
    return NodeModel(
        cid=cid,
        child_cids=[child.cid for child in modelled_children],
        feature_tids=feature_tids,
        logprior=logprior,
        logdenom=logdenom,
        logtheta=logtheta,
    )
