"""Equivalence suite: the columnar NumPy scoring core vs. its two oracles.

The compiled model, which the crawl scores with, must agree with the
single-document Eq. 2 reference (:class:`HierarchicalModel`) to 1e-9 on
posteriors and relevance and exactly on best-leaf identity — on the
trained test model, on randomized taxonomies, and on degenerate
documents (empty, featureless, unknown terms).  Its posterior matrices
must equal, float for float, those of the same kernel written as a loop
per child column and per node (``loop_oracle.py``).  Within the compiled
model, scoring must not depend on how documents are grouped into
batches (checkpoint/resume relies on this).
"""

import math
import random

import numpy as np
import pytest

from repro.classifier.compiled import CompiledHierarchicalModel
from repro.classifier.model import HierarchicalModel, NodeModel
from repro.classifier.tokenizer import TermFrequencies, term_frequencies
from repro.taxonomy.tree import TopicTaxonomy
from tests.classifier.loop_oracle import loop_posterior_matrix

#: Taxonomy shapes the random models draw: a 2-3 level tree; the same
#: with one node of fan-out 9 or more (pairwise-summed softmax totals);
#: with a 4-level chain of internal nodes; and the chain with its second
#: node unmodelled, so modelled descendants sit below a zero posterior.
SHAPES = ("shallow", "wide", "deep", "gap")


def random_taxonomy(rng: random.Random, shape: str = "shallow") -> TopicTaxonomy:
    """A random topic tree of the given shape (see :data:`SHAPES`)."""
    spec = {}
    for t in range(rng.randint(2, 4)):
        children = {}
        for s in range(rng.randint(0, 3)):
            children[f"s{t}{s}"] = {}
        spec[f"t{t}"] = children
    if shape == "wide":
        spec["t0"] = {f"w{i}": {} for i in range(rng.randint(9, 14))}
    if shape in ("deep", "gap"):
        spec["t0"] = {"d1": {"d2": {"d3": {}, "e3": {}}, "e2": {}}, "e1": {}}
    return TopicTaxonomy.from_spec(spec)


def random_model(rng: random.Random, shape: str = "shallow") -> HierarchicalModel:
    """A random trained-model shape: features, priors, and statistics."""
    taxonomy = random_taxonomy(rng, shape)
    tid_pool = [rng.randrange(1, 1 << 32) for _ in range(60)]
    nodes = {}
    for node in taxonomy.internal_nodes():
        children = node.children
        if shape == "gap":
            unmodelled = node.path == "t0/d1"
        else:
            # Occasionally leave an internal node unmodelled (skipped by both paths).
            unmodelled = rng.random() < 0.15 and not node.is_root
        if unmodelled:
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


def pool_of(model: HierarchicalModel) -> list:
    """The model's feature tids (a stand-in pool when it has none)."""
    return sorted(
        {tid for node in model.nodes.values() for tid in node.feature_tids}
    ) or [1, 2, 3]


def assert_matches_oracles(model: HierarchicalModel, documents) -> None:
    """Compiled scoring of one batch vs. the loop kernel (bitwise) and Eq. 2 (1e-9).

    Full posterior vectors are compared with Eq. 2, not just their summaries.
    """
    compiled = CompiledHierarchicalModel(model)
    matrix = compiled.posterior_matrix(documents)
    assert matrix.shape == (len(documents), len(compiled._column_of_cid))
    assert np.array_equal(matrix, loop_posterior_matrix(compiled, documents))
    outcome = compiled.classify_batch(documents)
    assert len(outcome) == len(documents)
    for row, got, ref, document in zip(
        matrix, outcome, model.classify_batch(documents), documents
    ):
        assert got.relevance == pytest.approx(ref.relevance, abs=1e-9)
        assert got.best_leaf_cid == ref.best_leaf_cid
        posteriors = model.node_posteriors(document)
        for cid, col in compiled._column_of_cid.items():
            assert row[col] == pytest.approx(posteriors.get(cid, 0.0), abs=1e-9)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_on_random_models(self, seed, shape):
        rng = random.Random(seed)
        model = random_model(rng, shape)
        assert_matches_oracles(model, [random_document(rng, pool_of(model)) for _ in range(40)])

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(4))
    def test_batch_packing_invariance(self, seed, shape):
        """A document scores bit-identically alone and inside any batch."""
        rng = random.Random(100 + seed)
        model = random_model(rng, shape)
        compiled = CompiledHierarchicalModel(model)
        documents = [random_document(rng, pool_of(model)) for _ in range(17)]
        batched = compiled.classify_batch(documents)
        singles = [compiled.classify_batch([d])[0] for d in documents]
        for single, grouped in zip(singles, batched):
            assert single.relevance == grouped.relevance  # bitwise
            assert single.best_leaf_cid == grouped.best_leaf_cid
        assert np.array_equal(
            compiled.posterior_matrix(documents),
            np.vstack([compiled.posterior_matrix([d]) for d in documents]),
        )

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_loop_kernel_bitwise(self, seed, shape):
        rng = random.Random(200 + seed)
        model = random_model(rng, shape)
        compiled = CompiledHierarchicalModel(model)
        documents = [random_document(rng, pool_of(model)) for _ in range(60)]
        for size in (1, 7, 30):
            for i in range(0, len(documents), size):
                batch = documents[i : i + size]
                assert np.array_equal(
                    compiled.posterior_matrix(batch), loop_posterior_matrix(compiled, batch)
                )

    def test_shapes_draw_what_they_name(self):
        rng = random.Random(0)
        wide = random_model(rng, "wide")
        assert max(len(node.child_cids) for node in wide.nodes.values()) >= 9
        deep = random_model(rng, "deep")
        assert max(deep.taxonomy.node(cid).depth() for cid in deep.nodes) == 3
        gap = random_model(rng, "gap")
        assert gap.taxonomy.by_path("t0/d1").cid not in gap.nodes
        assert gap.taxonomy.by_path("t0/d1/d2").cid in gap.nodes


class TestEdgeCases:
    """Degenerate models and batches, each against both oracles."""

    def test_no_modelled_internal_node(self):
        model = random_model(random.Random(1))
        bare = HierarchicalModel(taxonomy=model.taxonomy, nodes={})
        rng = random.Random(2)
        assert_matches_oracles(bare, [random_document(rng, [5, 6, 7]) for _ in range(9)])

    def test_a_batch_of_empty_documents(self):
        model = random_model(random.Random(3), "deep")
        assert_matches_oracles(model, [TermFrequencies({}) for _ in range(5)])

    def test_empty_and_featureless_documents_keep_later_ones_aligned(self):
        rng = random.Random(4)
        model = random_model(rng, "wide")
        pool = pool_of(model)
        normal = [
            TermFrequencies({tid: rng.randint(1, 7) for tid in rng.sample(pool, 8)})
            for _ in range(4)
        ]
        empty = TermFrequencies({})
        featureless = TermFrequencies({(1 << 33) + 5: 3, (1 << 33) + 9: 1})
        documents = [
            empty, normal[0], featureless, empty, normal[1], normal[2],
            featureless, empty, normal[3],
        ]  # fmt: skip
        assert_matches_oracles(model, documents)
        compiled = CompiledHierarchicalModel(model)
        matrix = compiled.posterior_matrix(documents)
        for row, document in zip(matrix, documents):
            assert np.array_equal(row, compiled.posterior_matrix([document])[0])

    def test_no_term_in_the_vocabulary(self):
        rng = random.Random(5)
        model = random_model(rng, "gap")
        documents = [
            TermFrequencies({rng.randrange(1 << 33, 1 << 34): rng.randint(1, 5) for _ in range(6)})
            for _ in range(7)
        ]
        assert_matches_oracles(model, documents)

    def test_no_good_node(self):
        rng = random.Random(6)
        model = random_model(rng, "deep")
        model.taxonomy.mark_good([])
        assert not model.taxonomy.good_nodes()
        assert_matches_oracles(model, [random_document(rng, pool_of(model)) for _ in range(12)])

    def test_an_empty_batch(self):
        model = random_model(random.Random(7), "wide")
        compiled = CompiledHierarchicalModel(model)
        assert compiled.classify_batch([]) == model.classify_batch([]) == []
        assert np.array_equal(compiled.posterior_matrix([]), loop_posterior_matrix(compiled, []))
        assert compiled.posterior_matrix([]).shape == (0, len(compiled._column_of_cid))


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

    @pytest.mark.parametrize("size", [1, 7, 32])
    def test_matches_the_loop_kernel_bitwise_on_web_pages(self, small_web, trained_model, size):
        compiled = CompiledHierarchicalModel(trained_model)
        urls = list(small_web.pages)[:120]
        documents = [term_frequencies(small_web.page(u).tokens) for u in urls]
        for i in range(0, len(documents), size):
            batch = documents[i : i + size]
            assert np.array_equal(
                compiled.posterior_matrix(batch), loop_posterior_matrix(compiled, batch)
            )

    def test_a_batch_of_one_matches_the_single_document_oracle(self, small_web, trained_model):
        compiled = CompiledHierarchicalModel(trained_model)
        document = term_frequencies(small_web.page(list(small_web.pages)[0]).tokens)
        [outcome] = compiled.classify_batch([document])
        assert outcome.relevance == pytest.approx(trained_model.relevance(document), abs=1e-9)
        assert outcome.best_leaf_cid == trained_model.best_leaf(document)

    def test_empty_batch(self, trained_model):
        assert CompiledHierarchicalModel(trained_model).classify_batch([]) == []
