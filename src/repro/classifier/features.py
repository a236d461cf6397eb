"""Feature selection per internal taxonomy node.

§2.1.1: "Of all the terms in the universe, a subset F(c0) is selected.
Intuitively, these are terms that provide the maximum discrimination
power between documents belonging to different subtrees of c0.  Because
training data is limited and noisy, accuracy may in fact be reduced by
including more terms."

The companion paper the authors cite (Chakrabarti et al., VLDB Journal
1998) uses a Fisher discriminant score; we implement the same idea: for
each candidate term, the ratio of between-class scatter of its relative
frequency to its within-class scatter.  Terms must also appear in at
least ``min_document_frequency`` training documents.

**The matrix form.**  One pass over each document's own terms gives
every entry a term column, and each child class becomes one
C-contiguous candidate-terms × documents matrix of relative
frequencies (a term a document lacks is a 0).  ``.mean(axis=1)`` and
``.var(axis=1)`` reduce each row with the same pairwise summation a 1-D
reduction of that row uses, so a term's class mean and variance are the
floats the per-term form computes.  ``between`` adds the squared
differences of the class means over the class pairs ``(i, j)``, ``i < j``,
in that order, and ``within`` is the row sum of a terms × classes
matrix of variances, plus ``epsilon``.

The squares go through :func:`math.pow`.  The per-term form squared
``np.float64`` scalars, which rounds through the C library's ``pow``,
and ``pow(d, 2)`` is not always ``d * d``: on glibc the two differ in
about 0.09 % of inputs, which is enough to move a score by one ulp and
an order of equal-looking terms with it.  (NumPy's array ``**`` and
``np.power`` square by multiplication, so they are ``d * d`` too.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Sequence

import numpy as np


@dataclass
class FeatureSelectionConfig:
    """Knobs for per-node feature selection."""

    #: Maximum number of feature terms retained per internal node.
    max_features: int = 600
    #: A term must occur in at least this many training documents (across
    #: all children of the node) to be considered.
    min_document_frequency: int = 2
    #: Small constant protecting the Fisher ratio from zero within-class scatter.
    epsilon: float = 1e-9


@dataclass
class FeatureSelection:
    """F(c0) and the counts Equation 1 needs, from one pass over D(c0)."""

    #: F(c0): the selected terms by decreasing Fisher score, ties by term.
    terms: List[str]
    #: Fisher score of every candidate term.
    scores: Dict[str, float]
    #: Per child: feature term -> its count over the child's documents, in
    #: order of first occurrence.  A feature the child never uses is absent.
    feature_counts: List[Dict[str, int]]
    #: Per child: the count of every term over the child's documents.
    total_counts: List[int]
    #: Distinct terms across every child's documents.
    vocabulary_size: int


def select_features(
    documents_per_child: Sequence[Sequence[Dict[str, int]]],
    config: FeatureSelectionConfig,
) -> FeatureSelection:
    """Select F(c0) given each child's training documents (term->count maps).

    When a child has no training documents it simply contributes nothing
    to the scatter computation (the trainer guards against fully-empty
    nodes).
    """
    # One pass over every document's own terms: a column per distinct
    # term, and each (term, count) entry in document order.
    column: Dict[str, int] = {}
    entry_terms: List[int] = []
    entry_counts: List[int] = []
    lengths: List[int] = []
    totals: List[int] = []
    doc_bounds = [0]
    for child_docs in documents_per_child:
        for doc in child_docs:
            entry_terms.extend([column.setdefault(term, len(column)) for term in doc])
            entry_counts.extend(doc.values())
            lengths.append(len(doc))
            totals.append(sum(doc.values()))
        doc_bounds.append(len(lengths))
    vocabulary = list(column)
    entry_term = np.array(entry_terms, dtype=np.intp)
    entry_count = np.array(entry_counts, dtype=np.int64)
    entry_doc = np.repeat(np.arange(len(lengths)), lengths)
    divisors = np.array(totals, dtype=np.int64)
    divisors[divisors == 0] = 1
    relative = entry_count / divisors[entry_doc]
    entry_bounds = np.cumsum([0] + lengths)[doc_bounds].tolist()
    # Per child: its documents [d0, d1) and its entries [e0, e1).
    spans = list(zip(doc_bounds, doc_bounds[1:], entry_bounds, entry_bounds[1:]))

    # Document frequency filter; degenerate training sets fall back to
    # every observed term.
    candidate = np.bincount(entry_term, minlength=len(vocabulary)) >= config.min_document_frequency
    if not candidate.any():
        candidate[:] = True
    n_candidates = int(candidate.sum())
    row = np.full(len(vocabulary), -1, dtype=np.intp)
    row[candidate] = np.arange(n_candidates)
    entry_row = row[entry_term]

    # Class means and variances: one candidate-terms × documents matrix
    # per child.  A child without documents has a single all-zero column.
    means: List[np.ndarray] = []
    variances: List[np.ndarray] = []
    for d0, d1, e0, e1 in spans:
        matrix = np.zeros((n_candidates, max(d1 - d0, 1)))
        kept = entry_row[e0:e1] >= 0
        matrix[entry_row[e0:e1][kept], entry_doc[e0:e1][kept] - d0] = relative[e0:e1][kept]
        means.append(matrix.mean(axis=1))
        variances.append(matrix.var(axis=1))
    between = np.zeros(n_candidates)
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            difference = (means[i] - means[j]).tolist()
            between += np.array(list(map(math.pow, difference, repeat(2.0))))
    within = (
        np.stack(variances, axis=1).sum(axis=1) if variances else np.zeros(n_candidates)
    ) + config.epsilon
    score = between / within

    candidates = [vocabulary[index] for index in np.flatnonzero(candidate).tolist()]
    ranked = sorted(zip((-score).tolist(), candidates))[: config.max_features]
    terms = [term for _, term in ranked]

    # Equation 1's counts per child, for the selected terms only.
    is_feature = np.zeros(len(vocabulary), dtype=bool)
    is_feature[[column[term] for term in terms]] = True
    feature_counts: List[Dict[str, int]] = []
    for _, _, e0, e1 in spans:
        kept = is_feature[entry_term[e0:e1]]
        used, first, inverse = np.unique(
            entry_term[e0:e1][kept], return_index=True, return_inverse=True
        )
        used = used.tolist()
        sums = np.bincount(inverse, weights=entry_count[e0:e1][kept]).tolist()
        feature_counts.append(
            {vocabulary[used[k]]: int(sums[k]) for k in np.argsort(first).tolist()}
        )
    return FeatureSelection(
        terms=terms,
        scores=dict(zip(candidates, score.tolist())),
        feature_counts=feature_counts,
        total_counts=[sum(totals[d0:d1]) for d0, d1, _, _ in spans],
        vocabulary_size=len(vocabulary),
    )
