"""Unit tests for the classifier building blocks: tokenizer, features, training, model."""

import functools
import math
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.classifier.features import FeatureSelectionConfig, select_features
from repro.classifier.model import normalize_log_scores
from repro.classifier.tokenizer import (
    STOPWORDS,
    term_frequencies,
    term_frequencies_by_term,
    tokenize_text,
)
from repro.classifier.training import ClassifierTrainer, TrainingConfig
from repro.taxonomy.examples import examples_from_documents
from repro.taxonomy.tree import TopicTaxonomy
from repro.webgraph.vocabulary import term_id
from tests.classifier.fisher_oracle import fisher_scores


@functools.cache
def crc32_collision():
    """Two distinct tokens that share a 32-bit term id.

    CRC32 detects small structured differences by design, so search
    random tokens (birthday bound ~80k draws over a 32-bit space).
    """
    rng = random.Random(0)
    seen = {}
    for _ in range(1 << 20):
        token = f"{rng.getrandbits(64):016x}"
        crc = zlib.crc32(token.encode()) & 0xFFFFFFFF
        if crc in seen and seen[crc] != token:
            return seen[crc], token
        seen[crc] = token
    raise AssertionError("no crc32 collision found in search budget")


class TestTokenizer:
    def test_tokenize_text_lowercases_and_drops_stopwords(self):
        tokens = tokenize_text("The Cyclist AND the Velodrome!")
        assert "the" not in tokens and "and" not in tokens
        assert "cyclist" in tokens and "velodrome" in tokens

    def test_short_tokens_dropped(self):
        assert tokenize_text("a b cd") == ["cd"]

    def test_term_frequencies_from_token_list(self):
        freqs = term_frequencies(["bike", "bike", "race"])
        assert freqs.by_tid[term_id("bike")] == 2
        assert freqs.length == 3
        assert len(freqs) == 2

    def test_term_frequencies_from_text(self):
        freqs = term_frequencies("bike bike race")
        assert freqs.by_tid[term_id("bike")] == 2

    def test_term_frequencies_by_term(self):
        assert term_frequencies_by_term(["x", "x", "y"]) == {"x": 2, "y": 1}

    def test_stopwords_are_lowercase(self):
        assert all(word == word.lower() for word in STOPWORDS)

    @given(st.lists(st.sampled_from(["bike", "race", "wheel", "song", "guitar", "zz9"]), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_unique_token_fast_path_matches_per_occurrence_hashing(self, tokens):
        """term_frequencies hashes each distinct token once; the result —
        values *and* insertion order — must equal hashing every occurrence."""
        from collections import Counter

        reference = dict(Counter(map(term_id, tokens)))
        assert term_frequencies(tokens).by_tid == reference
        assert list(term_frequencies(tokens).by_tid) == list(reference)

    def test_colliding_tids_sum_their_counts(self):
        """Distinct tokens sharing a 32-bit id must merge, not overwrite."""
        a, b = crc32_collision()
        freqs = term_frequencies([a, a, b])
        assert freqs.by_tid == {term_id(a): 3}


class TestFeatureSelection:
    def test_fisher_scores_prefer_discriminative_terms(self):
        class_a = {"shared": [0.1, 0.1], "only_a": [0.3, 0.25], "only_b": [0.0, 0.0]}
        class_b = {"shared": [0.1, 0.1], "only_a": [0.0, 0.0], "only_b": [0.3, 0.35]}
        scores = fisher_scores([class_a, class_b])
        assert scores["only_a"] > scores["shared"]
        assert scores["only_b"] > scores["shared"]

    def test_select_features_caps_count_and_orders_by_score(self):
        docs_a = [{"alpha": 5, "common": 3}, {"alpha": 4, "common": 2}]
        docs_b = [{"beta": 5, "common": 3}, {"beta": 6, "common": 2}]
        config = FeatureSelectionConfig(max_features=2, min_document_frequency=2)
        features = select_features([docs_a, docs_b], config).terms
        assert len(features) == 2
        assert set(features) == {"alpha", "beta"}

    def test_document_frequency_filter_falls_back_when_everything_is_rare(self):
        docs_a = [{"one": 1}]
        docs_b = [{"two": 1}]
        config = FeatureSelectionConfig(max_features=10, min_document_frequency=3)
        features = select_features([docs_a, docs_b], config).terms
        assert set(features) == {"one", "two"}

    def test_empty_child_contributes_zero_vectors(self):
        docs_a = [{"x": 2}, {"x": 1}]
        features = select_features(
            [docs_a, []], FeatureSelectionConfig(max_features=5, min_document_frequency=1)
        ).terms
        assert "x" in features


class TestNormalizeLogScores:
    def test_probabilities_sum_to_one(self):
        probs = normalize_log_scores({1: -1000.0, 2: -1001.0, 3: -950.0})
        assert sum(probs.values()) == pytest.approx(1.0)
        assert probs[3] > probs[1] > probs[2]

    def test_empty_input(self):
        assert normalize_log_scores({}) == {}

    @given(st.dictionaries(st.integers(0, 5), st.floats(-2000, 0), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_normalisation_property(self, scores):
        probs = normalize_log_scores(scores)
        assert sum(probs.values()) == pytest.approx(1.0)
        assert all(0.0 <= p <= 1.0 for p in probs.values())


class TestTraining:
    def build_tiny_model(self):
        taxonomy = TopicTaxonomy.from_spec({"cycling": {}, "music": {}})
        taxonomy.mark_good(["cycling"])
        store = examples_from_documents(
            taxonomy,
            [
                ("cycling", ["bike", "bike", "wheel"]),
                ("cycling", ["bike", "race"]),
                ("music", ["guitar", "guitar", "song"]),
                ("music", ["song", "stage"]),
            ],
        )
        # With four tiny documents the default document-frequency cut would
        # discard most terms; keep them all so the example is clear-cut.
        config = TrainingConfig(features=FeatureSelectionConfig(min_document_frequency=1))
        trainer = ClassifierTrainer(taxonomy, store, config)
        return taxonomy, trainer.train()

    def test_parameter_estimation_matches_equation_1(self):
        taxonomy, model = self.build_tiny_model()
        root = model.nodes[taxonomy.root.cid]
        cycling = taxonomy.by_path("cycling").cid
        # Vocabulary of D(root) = {bike, wheel, race, guitar, song, stage} = 6 terms.
        # Total term count in D(cycling) = 5; count(bike) = 3.
        expected_theta = (1 + 3) / (6 + 5)
        assert root.logtheta[(cycling, term_id("bike"))] == pytest.approx(math.log(expected_theta))
        assert root.logdenom[cycling] == pytest.approx(math.log(11))
        assert root.logprior[cycling] == pytest.approx(math.log(0.5))

    def test_priors_reflect_class_sizes(self):
        taxonomy = TopicTaxonomy.from_spec({"a": {}, "b": {}})
        taxonomy.mark_good(["a"])
        store = examples_from_documents(
            taxonomy,
            [("a", ["x"])] * 3 + [("b", ["y"])],
        )
        model = ClassifierTrainer(taxonomy, store).train()
        root = model.nodes[taxonomy.root.cid]
        assert root.logprior[taxonomy.by_path("a").cid] == pytest.approx(math.log(0.75))

    def test_classification_of_obvious_documents(self):
        taxonomy, model = self.build_tiny_model()
        bike_doc = term_frequencies(["bike", "wheel", "bike"])
        music_doc = term_frequencies(["guitar", "song"])
        assert model.relevance(bike_doc) > 0.9
        assert model.relevance(music_doc) < 0.1
        assert model.best_leaf(bike_doc) == taxonomy.by_path("cycling").cid
        assert model.hard_focus_accepts(bike_doc)
        assert not model.hard_focus_accepts(music_doc)

    def test_unknown_terms_fall_back_to_priors(self):
        taxonomy, model = self.build_tiny_model()
        unknown = term_frequencies(["zzz", "qqq"])
        assert model.relevance(unknown) == pytest.approx(0.5, abs=0.05)

    def test_colliding_feature_terms_sum_their_counts(self):
        """Two feature terms sharing a 32-bit id are one term to the classifier
        (``test_colliding_tids_sum_their_counts``), so Equation 1 counts them
        as one: their counts add up, and neither overwrites the other."""
        a, b = crc32_collision()
        taxonomy = TopicTaxonomy.from_spec({"x": {}, "y": {}})
        taxonomy.mark_good(["x"])
        store = examples_from_documents(
            taxonomy,
            [("x", [a, a, b, "bike"]), ("x", [a, "bike"]), ("y", ["song"]), ("y", ["song", b])],
        )
        config = TrainingConfig(features=FeatureSelectionConfig(min_document_frequency=1))
        root = ClassifierTrainer(taxonomy, store, config).train().nodes[taxonomy.root.cid]
        x, y = taxonomy.by_path("x").cid, taxonomy.by_path("y").cid
        tid = term_id(a)
        assert tid == term_id(b) and tid in root.feature_tids
        # Vocabulary {a, b, bike, song} = 4; D(x) has 6 terms, 3 of a and 1 of b.
        assert root.logtheta[(x, tid)] == math.log((1 + 3 + 1) / (4 + 6))
        assert root.logtheta[(y, tid)] == math.log((1 + 1) / (4 + 3))

    def test_nodes_without_examples_are_skipped(self):
        taxonomy = TopicTaxonomy.from_spec({"a": {"a1": {}, "a2": {}}, "b": {}})
        taxonomy.mark_good(["b"])
        store = examples_from_documents(taxonomy, [("b", ["x", "y"]), ("b", ["x"])])
        model = ClassifierTrainer(taxonomy, store).train()
        # Only the root can be modelled (child "a" has no examples at all).
        assert taxonomy.by_path("a").cid not in model.nodes
        root = model.nodes[taxonomy.root.cid]
        assert root.child_cids == [taxonomy.by_path("b").cid]

    def test_model_statistics_counters(self, trained_model):
        assert trained_model.parameter_count() > 0
        assert trained_model.feature_count() > 0
        assert trained_model.internal_cids()


class TestModelPosteriors:
    def test_posteriors_sum_to_one_per_level(self, trained_model, small_web):
        doc = term_frequencies(small_web.page(small_web.pages_of_topic("recreation/cycling")[0]).tokens)
        posteriors = trained_model.node_posteriors(doc)
        root_children = trained_model.taxonomy.root.children
        total = sum(posteriors.get(c.cid, 0.0) for c in root_children)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_relevance_between_zero_and_one(self, trained_model, small_web):
        for url in small_web.urls()[:30]:
            doc = term_frequencies(small_web.page(url).tokens)
            assert 0.0 <= trained_model.relevance(doc) <= 1.0 + 1e-12

    def test_relevance_separates_topics(self, trained_model, small_web):
        cycling = small_web.pages_of_topic("recreation/cycling")[5]
        music = small_web.pages_of_topic("arts/music")[5]
        cycling_doc = term_frequencies(small_web.page(cycling).tokens)
        music_doc = term_frequencies(small_web.page(music).tokens)
        assert trained_model.relevance(cycling_doc) > 0.9
        assert trained_model.relevance(music_doc) < 0.1
