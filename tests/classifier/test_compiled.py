"""Equivalence suite: the columnar NumPy scoring core vs. its two oracles.

The compiled model, which the crawl scores with, takes token-list
documents.  It must agree with the single-document Eq. 2 reference
(:class:`HierarchicalModel`, over the documents' ``term_frequencies``)
to 1e-9 on posteriors and relevance and exactly on best-leaf identity —
on the trained test model, on randomized taxonomies, and on degenerate
documents (empty, featureless, unknown terms).  Its posterior matrices
must equal, float for float, those of the same kernel written as a loop
per child column and per node over the ``term_frequencies`` dicts
(``loop_oracle.py``).  Within the compiled
model, scoring must not depend on how documents are grouped into
batches (checkpoint/resume relies on this).
"""

import math
import random

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.classifier import compiled as compiled_module
from repro.classifier import tokenizer as tokenizer_module
from repro.classifier.compiled import CompiledHierarchicalModel
from repro.classifier.model import HierarchicalModel, NodeModel
from repro.classifier.tokenizer import term_frequencies
from repro.taxonomy.tree import TopicTaxonomy
from repro.webgraph.vocabulary import term_id
from tests.classifier.loop_oracle import loop_pack, loop_posterior_matrix

#: Taxonomy shapes the random models draw: a 2-3 level tree; the same
#: with one node of fan-out 9 or more (pairwise-summed softmax totals);
#: with a 4-level chain of internal nodes; and the chain with its second
#: node unmodelled, so modelled descendants sit below a zero posterior.
SHAPES = ("shallow", "wide", "deep", "gap")

#: The tokens random models draw their features from: a feature set is
#: the term ids of a sample of them.
TOKENS = [f"term{i}" for i in range(200)]


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
    tid_pool = [term_id(token) for token in rng.sample(TOKENS, 60)]
    nodes = {}
    for node in taxonomy.internal_nodes():
        children = node.children
        if shape == "gap":
            unmodelled = node.path == "t0/d1"
        else:
            # Occasionally leave an internal node unmodelled (skipped by both
            # paths), but never the root or the node a "wide" shape widens.
            unmodelled = rng.random() < 0.15 and not node.is_root
            unmodelled = unmodelled and not (shape == "wide" and node.path == "t0")
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


def unknown_token(rng: random.Random) -> str:
    """A token outside every random model's vocabulary."""
    return f"unknown{rng.randrange(1 << 20)}"


def random_document(rng: random.Random, token_pool) -> list:
    """A token list: each drawn term repeated, the occurrences shuffled."""
    kind = rng.random()
    if kind < 0.1:
        return []  # empty document
    if kind < 0.2:
        # No feature overlap at all: unknown tokens only.
        return [unknown_token(rng)] * rng.randint(1, 5)
    terms = rng.sample(token_pool, rng.randint(1, min(20, len(token_pool))))
    tokens = [term for term in terms for _ in range(rng.randint(1, 7))]
    tokens += [unknown_token(rng) for _ in range(rng.randint(0, 3))]
    rng.shuffle(tokens)
    return tokens


def pool_of(model: HierarchicalModel) -> list:
    """The tokens whose term ids are the model's features (a stand-in pool when it has none)."""
    features = {tid for node in model.nodes.values() for tid in node.feature_tids}
    return [token for token in TOKENS if term_id(token) in features] or ["x1", "x2", "x3"]


def assert_matches_oracles(model: HierarchicalModel, documents) -> None:
    """Compiled scoring of one batch vs. the loop kernel (bitwise) and Eq. 2 (1e-9).

    Full posterior vectors are compared with Eq. 2, not just their summaries.
    """
    compiled = CompiledHierarchicalModel(model)
    frequencies = [term_frequencies(document) for document in documents]
    matrix = compiled.posterior_matrix(documents)
    assert matrix.shape == (len(documents), len(compiled._column_of_cid))
    assert np.array_equal(matrix, loop_posterior_matrix(compiled, frequencies))
    outcome = compiled.classify_batch(documents)
    assert len(outcome) == len(documents)
    for row, got, ref, document in zip(
        matrix, outcome, model.classify_batch(frequencies), frequencies
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
                    compiled.posterior_matrix(batch),
                    loop_posterior_matrix(compiled, list(map(term_frequencies, batch))),
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
        assert_matches_oracles(bare, [random_document(rng, TOKENS[:3]) for _ in range(9)])

    def test_a_batch_of_empty_documents(self):
        model = random_model(random.Random(3), "deep")
        assert_matches_oracles(model, [[] for _ in range(5)])

    def test_empty_and_featureless_documents_keep_later_ones_aligned(self):
        rng = random.Random(4)
        model = random_model(rng, "wide")
        pool = pool_of(model)
        normal = [
            [token for token in rng.sample(pool, 8) for _ in range(rng.randint(1, 7))]
            for _ in range(4)
        ]
        empty = []
        featureless = ["unknown5"] * 3 + ["unknown9"]
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
            [unknown_token(rng) for _ in range(6) for _ in range(rng.randint(1, 5))]
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
        documents = [small_web.page(u).tokens for u in urls]
        reference = trained_model.classify_batch(list(map(term_frequencies, documents)))
        outcome = compiled.classify_batch(documents)
        for ref, got in zip(reference, outcome):
            assert got.relevance == pytest.approx(ref.relevance, abs=1e-9)
            assert got.best_leaf_cid == ref.best_leaf_cid

    @pytest.mark.parametrize("size", [1, 7, 32])
    def test_matches_the_loop_kernel_bitwise_on_web_pages(self, small_web, trained_model, size):
        compiled = CompiledHierarchicalModel(trained_model)
        urls = list(small_web.pages)[:120]
        documents = [small_web.page(u).tokens for u in urls]
        for i in range(0, len(documents), size):
            batch = documents[i : i + size]
            assert np.array_equal(
                compiled.posterior_matrix(batch),
                loop_posterior_matrix(compiled, list(map(term_frequencies, batch))),
            )

    def test_a_batch_of_one_matches_the_single_document_oracle(self, small_web, trained_model):
        compiled = CompiledHierarchicalModel(trained_model)
        tokens = small_web.page(list(small_web.pages)[0]).tokens
        document = term_frequencies(tokens)
        [outcome] = compiled.classify_batch([tokens])
        assert outcome.relevance == pytest.approx(trained_model.relevance(document), abs=1e-9)
        assert outcome.best_leaf_cid == trained_model.best_leaf(document)

    def test_empty_batch(self, trained_model):
        assert CompiledHierarchicalModel(trained_model).classify_batch([]) == []


#: Tokens hypothesis adds to a model's pool: outside every vocabulary.
UNKNOWN = ["unknown1", "unknown2", "unknown3"]


def batches_of(pool):
    """Batches of token lists over *pool* and unknown tokens: repeats, empties, any order."""
    return st.lists(st.lists(st.sampled_from(pool + UNKNOWN), max_size=30), max_size=12)


def assert_packs_like_the_oracle(compiled, documents) -> None:
    """The packed arrays, posteriors and outcomes equal the ``term_frequencies`` path's, bitwise."""
    frequencies = [term_frequencies(document) for document in documents]
    for got, want in zip(compiled._pack(documents), loop_pack(compiled, frequencies)):
        assert np.array_equal(got, want)
    expected = loop_posterior_matrix(compiled, frequencies)
    assert np.array_equal(compiled.posterior_matrix(documents), expected)
    good, leaves = compiled._good_cols, compiled._leaf_cols
    for outcome, row in zip(compiled.classify_batch(documents), expected):
        assert outcome.relevance == (float(row[good].sum()) if len(good) else 0.0)
        assert outcome.best_leaf_cid == compiled._leaf_cids[np.argmax(row[leaves])]


class TestTokenPacker:
    """Token lists packed through the memo and one sort vs. the
    per-document ``term_frequencies`` dicts (``loop_pack``), bitwise."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batches_pack_as_their_term_frequencies(self, data):
        shape = data.draw(st.sampled_from(SHAPES))
        model = random_model(random.Random(data.draw(st.integers(0, 40))), shape)
        compiled = CompiledHierarchicalModel(model)
        for _ in range(3):  # batches in sequence share the memo
            assert_packs_like_the_oracle(compiled, data.draw(batches_of(pool_of(model))))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_colliding_term_ids_merge_at_their_first_token(self, data):
        """Tokens hashed to one tid are one term, placed where the first of them appears."""
        model = random_model(random.Random(data.draw(st.integers(0, 40))))
        pool = pool_of(model)
        # Two tokens share an in-vocabulary term's id; two unknown ones share another.
        alias = {"twin0": pool[0], "twin1": pool[0], "twin2": "unknown1", "twin3": "unknown1"}
        with pytest.MonkeyPatch.context() as patch:
            for module in (compiled_module, tokenizer_module):
                patch.setattr(module, "term_id", lambda token: term_id(alias.get(token, token)))
            compiled = CompiledHierarchicalModel(model)
            for _ in range(2):
                assert_packs_like_the_oracle(compiled, data.draw(batches_of(pool + list(alias))))
            merged = term_frequencies(["twin1", pool[0], "twin0", "twin0"]).by_tid
            assert merged == {term_id(pool[0]): 4}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_memo_that_overflows_is_cleared_and_packs_the_same(self, data):
        model = random_model(random.Random(data.draw(st.integers(0, 40))), "wide")
        bound = data.draw(st.integers(1, 8))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compiled_module, "_TOKEN_MEMO_SIZE", bound)
            compiled = CompiledHierarchicalModel(model)
            widest = 0  # a batch's own tokens stay memoised, past the bound if need be
            for _ in range(4):
                documents = data.draw(batches_of(pool_of(model)))
                assert_packs_like_the_oracle(compiled, documents)
                widest = max(widest, len({token for document in documents for token in document}))
                assert len(compiled._row_of_token) <= max(bound, widest)

    def test_a_batch_whose_new_tokens_overflow_the_memo_clears_it(self):
        model = random_model(random.Random(9), "deep")
        pool = pool_of(model)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compiled_module, "_TOKEN_MEMO_SIZE", 4)
            compiled = CompiledHierarchicalModel(model)
            first, second = [pool[0], "unknown1", pool[0]], [pool[1], pool[0], "unknown2"]
            assert_packs_like_the_oracle(compiled, [first])
            assert set(compiled._row_of_token) == set(first)
            # Two new tokens fill the memo to its bound of 4.
            assert_packs_like_the_oracle(compiled, [second, first])
            assert set(compiled._row_of_token) == set(second) | set(first)
            # One more would pass it: the memo restarts from this batch's tokens.
            third = [["unknown3", pool[0]], first]
            assert_packs_like_the_oracle(compiled, third)
            assert set(compiled._row_of_token) == {"unknown3", pool[0], "unknown1"}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_batch_of_one_scores_as_a_batch_of_k(self, data):
        shape = data.draw(st.sampled_from(SHAPES))
        model = random_model(random.Random(data.draw(st.integers(0, 40))), shape)
        documents = data.draw(batches_of(pool_of(model)))
        batched, alone = CompiledHierarchicalModel(model), CompiledHierarchicalModel(model)
        assert batched.classify_batch(documents) == [
            alone.classify_batch([document])[0] for document in documents
        ]
        if documents:
            assert np.array_equal(
                batched.posterior_matrix(documents),
                np.vstack([alone.posterior_matrix([document]) for document in documents]),
            )
