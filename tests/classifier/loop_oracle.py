"""The compiled Eq. 2 kernel in its loop form: the bit-for-bit oracle of the columnar one.

:meth:`CompiledHierarchicalModel.posterior_matrix` packs a batch of token
lists with one sort and scores it with a fixed number of NumPy
calls.  This is the same computation from the documents'
:func:`term_frequencies` dicts, packed one document at a time, with one
``np.bincount`` per child column and one softmax pass per internal node,
over the compiled model's own matrices.  Every posterior float of the
columnar kernel must equal this one's (``np.array_equal``), which is
what keeps goldens, checkpoints and figure pins stable across the two.
"""

import numpy as np

from repro.classifier.model import _MIN_LOG


def vocabulary(compiled) -> np.ndarray:
    """The model's feature tids, sorted: the matrix row of a tid is its position."""
    tids = {tid for node in compiled.model.nodes.values() for tid in node.feature_tids}
    return np.array(sorted(tids), dtype=np.int64)


def loop_pack(compiled, documents):
    """COO doc-term batch of ``TermFrequencies``, one ``np.fromiter`` pair per document."""
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )
    vocab = vocabulary(compiled)
    if not len(vocab) or not documents:
        return empty
    tids = np.concatenate(
        [np.fromiter(d.by_tid.keys(), np.int64, len(d.by_tid)) for d in documents]
    )
    if not len(tids):
        return empty
    freqs = np.concatenate(
        [np.fromiter(d.by_tid.values(), np.float64, len(d.by_tid)) for d in documents]
    )
    lengths = [len(d.by_tid) for d in documents]
    doc_idx = np.repeat(np.arange(len(documents), dtype=np.int64), lengths)
    positions = np.searchsorted(vocab, tids)
    positions[positions == len(vocab)] = 0
    valid = vocab[positions] == tids
    return doc_idx[valid], positions[valid], freqs[valid]


def loop_posterior_matrix(compiled, documents) -> np.ndarray:
    """Pr[c | d] per ``TermFrequencies`` document × class: a loop per child column and per node."""
    model = compiled.model
    column = compiled._column_of_cid
    n_docs = len(documents)
    posteriors = np.zeros((n_docs, compiled._n_classes), dtype=np.float64)
    posteriors[:, compiled._root_col] = 1.0
    if n_docs == 0:
        return posteriors
    doc_idx, term_row, freqs = loop_pack(compiled, documents)
    n_children = compiled._vectors.shape[1]
    if len(term_row):
        weighted = compiled._vectors[term_row] * freqs[:, None]
        scores = np.empty((n_docs, n_children), dtype=np.float64)
        for j in range(n_children):
            scores[:, j] = np.bincount(doc_idx, weights=weighted[:, j], minlength=n_docs)
        scores += compiled._logprior
    else:
        scores = np.broadcast_to(compiled._logprior, (n_docs, n_children)).copy()
    start = 0
    for node in model.taxonomy.nodes():
        if node.is_leaf or node.cid not in model.nodes:
            continue
        child_cids = model.nodes[node.cid].child_cids
        stop = start + len(child_cids)
        node_scores = scores[:, start:stop]
        peak = node_scores.max(axis=1, keepdims=True)
        exponentials = np.exp(np.maximum(node_scores - peak, _MIN_LOG))
        conditionals = exponentials / exponentials.sum(axis=1, keepdims=True)
        parent = posteriors[:, column[node.cid]]
        posteriors[:, [column[cid] for cid in child_cids]] = parent[:, None] * conditionals
        start = stop
    return posteriors
