"""The matrix form of Fisher feature selection against its per-term oracle, bit for bit.

:func:`select_features` reduces one terms × documents matrix per class;
``fisher_oracle.py`` keeps the per-term form it replaced.  Drawn
training sets must give the same feature list, the same score float for
every candidate term and the same Equation 1 counts, and the trainer
must build the oracle trainer's ``NodeModel`` statistics on the
benchmark webs.
"""

import math
import random

import numpy as np
import pytest

from repro import FocusSystem
from repro.classifier.features import FeatureSelectionConfig, select_features
from repro.experiments.workloads import CYCLING, build_crawl_web, crawl_focus_config
from tests.classifier import fisher_oracle
from tests.classifier.fisher_oracle import fisher_scores, oracle_train, relative_frequencies

SHAPES = ("plain", "empty_child", "empty_documents", "rare", "ties", "capped", "uncapped")
SEEDS = range(8)


def draw_case(rng: random.Random, shape: str):
    """Each child's documents (term -> count maps) and a config, drawn for *shape*."""
    n_children = rng.randint(2, 8)
    vocabulary = [f"t{i:03d}" for i in range(rng.randint(4, 90))]

    def document():
        terms = rng.sample(vocabulary, rng.randint(1, min(len(vocabulary), 30)))
        return {term: rng.randint(1, 9) for term in terms}

    documents_per_child = [
        [document() for _ in range(rng.randint(1, 14))] for _ in range(n_children)
    ]
    config = FeatureSelectionConfig(
        max_features=rng.randint(5, 80), min_document_frequency=rng.randint(1, 3)
    )
    if shape == "empty_child":
        documents_per_child[rng.randrange(n_children)] = []
    elif shape == "empty_documents":
        for docs in documents_per_child:
            docs.insert(rng.randint(0, len(docs)), {})
    elif shape == "rare":
        # No term in two documents: the document-frequency cut keeps
        # nothing and every observed term becomes a candidate.
        documents_per_child = [
            [
                {f"r{c}_{d}_{k}": rng.randint(1, 5) for k in range(rng.randint(1, 6))}
                for d in range(rng.randint(1, 5))
            ]
            for c in range(n_children)
        ]
        config.min_document_frequency = 2
    elif shape == "ties":
        # Twins occur in the same documents with the same counts, so their
        # scores are equal and only the term breaks the tie.
        for docs in documents_per_child:
            for doc in docs:
                if rng.random() < 0.5:
                    doc["twin_a"] = doc["twin_b"] = rng.randint(1, 9)
        documents_per_child[0][0]["twin_a"] = documents_per_child[0][0]["twin_b"] = 3
        documents_per_child[1][0]["twin_a"] = documents_per_child[1][0]["twin_b"] = 1
        config.max_features = 10_000
    elif shape == "capped":
        config.max_features = rng.randint(1, 4)
    elif shape == "uncapped":
        config.max_features = 10_000
    return documents_per_child, config


def all_cases():
    for shape in SHAPES:
        for seed in SEEDS:
            yield shape, draw_case(random.Random(f"{shape}-{seed}"), shape)


def oracle_scores(documents_per_child, config):
    return fisher_scores(relative_frequencies(documents_per_child, config), config.epsilon)


def class_means(documents_per_child, config):
    """The oracle's class means per candidate term (its ``means_arr``)."""
    per_class = relative_frequencies(documents_per_child, config)
    return {
        term: np.asarray([np.asarray(cls[term], dtype=float).mean() for cls in per_class])
        for term in per_class[0]
    }


class TestAgainstTheOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_features_scores_and_counts_match(self, shape, seed):
        documents_per_child, config = draw_case(random.Random(f"{shape}-{seed}"), shape)
        selection = select_features(documents_per_child, config)
        assert selection.terms == fisher_oracle.select_features(documents_per_child, config)
        expected = oracle_scores(documents_per_child, config)
        # float.hex: equal bits, not just equal values.
        assert {term: score.hex() for term, score in selection.scores.items()} == {
            term: score.hex() for term, score in expected.items()
        }
        features = set(selection.terms)
        for docs, counts, total in zip(
            documents_per_child, selection.feature_counts, selection.total_counts
        ):
            reference = {}
            for doc in docs:
                for term, count in doc.items():
                    if term in features:
                        reference[term] = reference.get(term, 0) + count
            assert list(counts.items()) == list(reference.items())
            assert total == sum(sum(doc.values()) for doc in docs)
        assert selection.vocabulary_size == len(
            {term for docs in documents_per_child for doc in docs for term in doc}
        )

    def test_cases_draw_what_they_name(self):
        children, empty_child, empty_document, fallback = set(), False, False, False
        tied, capped, uncapped, pow_is_not_a_product = False, False, False, False
        for shape, (documents_per_child, config) in all_cases():
            children.add(len(documents_per_child))
            empty_child |= any(not docs for docs in documents_per_child)
            empty_document |= any(doc == {} for docs in documents_per_child for doc in docs)
            frequency = {}
            for docs in documents_per_child:
                for doc in docs:
                    for term in doc:
                        frequency[term] = frequency.get(term, 0) + 1
            fallback |= max(frequency.values()) < config.min_document_frequency
            scores = oracle_scores(documents_per_child, config)
            selected = fisher_oracle.select_features(documents_per_child, config)
            if shape == "ties":
                twins = selected.index("twin_a"), selected.index("twin_b")
                tied |= scores["twin_a"] == scores["twin_b"] > 0 and twins[1] == twins[0] + 1
            capped |= config.max_features < len(scores)
            uncapped |= config.max_features > len(scores)
            for means in class_means(documents_per_child, config).values():
                for i in range(len(means)):
                    for j in range(i + 1, len(means)):
                        d = means[i] - means[j]
                        pow_is_not_a_product |= math.pow(d, 2) != d * d
        assert children == set(range(2, 9))
        assert empty_child and empty_document and fallback
        assert tied and capped and uncapped
        # A rewrite that squares by multiplication fails the cases above.
        assert pow_is_not_a_product

    def test_no_children_and_no_terms(self):
        config = FeatureSelectionConfig()
        for documents_per_child in ([], [[], []], [[{}], [{}, {}]]):
            selection = select_features(documents_per_child, config)
            assert selection.terms == fisher_oracle.select_features(documents_per_child, config)
            assert selection.scores == {} and selection.vocabulary_size == 0


class TestNodeModelsMatchTheOracleTrainer:
    @staticmethod
    def assert_same_nodes(model, oracle_nodes):
        assert list(model.nodes) == list(oracle_nodes)
        for cid, node in model.nodes.items():
            reference = oracle_nodes[cid]
            assert node.child_cids == reference.child_cids
            assert node.feature_tids == reference.feature_tids
            # Items, not dicts: insertion order decides how BLOB rows are laid out.
            assert list(node.logtheta.items()) == list(reference.logtheta.items())
            assert list(node.logdenom.items()) == list(reference.logdenom.items())
            assert list(node.logprior.items()) == list(reference.logprior.items())

    @pytest.mark.parametrize("seed", [7, 11])
    def test_benchmark_webs(self, seed):
        system = FocusSystem.from_web(build_crawl_web(seed, 1.0), [CYCLING], crawl_focus_config())
        model = system.train()
        self.assert_same_nodes(model, oracle_train(system.taxonomy, system.examples))

    def test_the_test_web(self, taxonomy, examples, trained_model):
        self.assert_same_nodes(trained_model, oracle_train(taxonomy, examples))
