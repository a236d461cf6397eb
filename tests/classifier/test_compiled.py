"""Equivalence suite: the columnar NumPy scoring core vs. the reference path.

The compiled model, which the crawl scores with, must agree with the
single-document Eq. 2 reference (:class:`HierarchicalModel`) to 1e-9 on
posteriors and relevance and exactly on best-leaf identity — on the
trained test model, on randomized taxonomies, and on degenerate
documents (empty, featureless, unknown terms).  Within the compiled
model, scoring must not depend on how documents are grouped into
batches (checkpoint/resume relies on this).
"""

import math
import random

import pytest

from repro.classifier.compiled import CompiledHierarchicalModel
from repro.classifier.model import HierarchicalModel, NodeModel
from repro.classifier.tokenizer import TermFrequencies, term_frequencies
from repro.taxonomy.tree import TopicTaxonomy


def random_taxonomy(rng: random.Random) -> TopicTaxonomy:
    """A random 2-3 level topic tree."""
    spec = {}
    for t in range(rng.randint(2, 4)):
        children = {}
        for s in range(rng.randint(0, 3)):
            children[f"s{t}{s}"] = {}
        spec[f"t{t}"] = children
    return TopicTaxonomy.from_spec(spec)


def random_model(rng: random.Random) -> HierarchicalModel:
    """A random trained-model shape: features, priors, and statistics."""
    taxonomy = random_taxonomy(rng)
    tid_pool = [rng.randrange(1, 1 << 32) for _ in range(60)]
    nodes = {}
    for node in taxonomy.internal_nodes():
        children = node.children
        # Occasionally leave an internal node unmodelled (skipped by both paths).
        if rng.random() < 0.15 and not node.is_root:
            continue
        features = set(rng.sample(tid_pool, rng.randint(0, 25)))
        logdenom = {c.cid: math.log(rng.uniform(50, 500)) for c in children}
        priors = [rng.uniform(0.05, 1.0) for _ in children]
        total = sum(priors)
        logprior = {c.cid: math.log(p / total) for c, p in zip(children, priors)}
        logtheta = {}
        for c in children:
            for tid in features:
                if rng.random() < 0.5:
                    logtheta[(c.cid, tid)] = -rng.uniform(0.5, 8.0)
        nodes[node.cid] = NodeModel(
            cid=node.cid,
            child_cids=[c.cid for c in children],
            feature_tids=features,
            logprior=logprior,
            logdenom=logdenom,
            logtheta=logtheta,
        )
    leaf_paths = [n.path for n in taxonomy.leaves() if n.path]
    taxonomy.mark_good(rng.sample(leaf_paths, min(2, len(leaf_paths))))
    return HierarchicalModel(taxonomy=taxonomy, nodes=nodes)


def random_document(rng: random.Random, tid_pool) -> TermFrequencies:
    kind = rng.random()
    if kind < 0.1:
        return TermFrequencies({})  # empty document
    if kind < 0.2:
        # No feature overlap at all: unknown term ids only.
        return TermFrequencies({rng.randrange(1 << 33, 1 << 34): rng.randint(1, 5)})
    terms = rng.sample(tid_pool, rng.randint(1, min(20, len(tid_pool))))
    return TermFrequencies({tid: rng.randint(1, 7) for tid in terms})


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_on_random_models(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        compiled = CompiledHierarchicalModel(model)
        tid_pool = sorted(
            {tid for node in model.nodes.values() for tid in node.feature_tids}
        ) or [1, 2, 3]
        documents = [random_document(rng, tid_pool) for _ in range(40)]
        reference = model.classify_batch(documents)
        outcome = compiled.classify_batch(documents)
        for ref, got, document in zip(reference, outcome, documents):
            assert got.relevance == pytest.approx(ref.relevance, abs=1e-9)
            assert got.best_leaf_cid == ref.best_leaf_cid
            # Full posterior vectors agree too, not just their summaries.
            posteriors = model.node_posteriors(document)
            matrix = compiled.posterior_matrix([document])[0]
            for cid, col in compiled._column_of_cid.items():
                assert matrix[col] == pytest.approx(
                    posteriors.get(cid, 0.0), abs=1e-9
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_packing_invariance(self, seed):
        """A document scores bit-identically alone and inside any batch."""
        rng = random.Random(100 + seed)
        model = random_model(rng)
        compiled = CompiledHierarchicalModel(model)
        tid_pool = sorted(
            {tid for node in model.nodes.values() for tid in node.feature_tids}
        ) or [1, 2, 3]
        documents = [random_document(rng, tid_pool) for _ in range(17)]
        batched = compiled.classify_batch(documents)
        singles = [compiled.classify_batch([d])[0] for d in documents]
        for single, grouped in zip(singles, batched):
            assert single.relevance == grouped.relevance  # bitwise
            assert single.best_leaf_cid == grouped.best_leaf_cid


class TestTrainedModelEquivalence:
    def test_matches_reference_on_web_pages(self, small_web, trained_model):
        compiled = CompiledHierarchicalModel(trained_model)
        urls = list(small_web.pages)[:120]
        documents = [term_frequencies(small_web.page(u).tokens) for u in urls]
        reference = trained_model.classify_batch(documents)
        outcome = compiled.classify_batch(documents)
        for ref, got in zip(reference, outcome):
            assert got.relevance == pytest.approx(ref.relevance, abs=1e-9)
            assert got.best_leaf_cid == ref.best_leaf_cid

    def test_a_batch_of_one_matches_the_single_document_oracle(self, small_web, trained_model):
        compiled = CompiledHierarchicalModel(trained_model)
        document = term_frequencies(small_web.page(list(small_web.pages)[0]).tokens)
        [outcome] = compiled.classify_batch([document])
        assert outcome.relevance == pytest.approx(trained_model.relevance(document), abs=1e-9)
        assert outcome.best_leaf_cid == trained_model.best_leaf(document)

    def test_empty_batch(self, trained_model):
        assert CompiledHierarchicalModel(trained_model).classify_batch([]) == []
