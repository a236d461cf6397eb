"""classifier: hierarchical naive Bayes guiding the focused crawler (paper §2.1).

Four interchangeable classifiers are provided; they compute the same
relevance numbers and differ only in arithmetic order and in how they
touch storage:

* :class:`~repro.classifier.model.HierarchicalModel` — in-memory reference
  implementation, one document at a time.
* :class:`~repro.classifier.compiled.CompiledHierarchicalModel` — the
  same model compiled into columnar NumPy kernels; what the crawler runs.
* :class:`~repro.classifier.single_probe.SingleProbeClassifier` — the
  per-term index-probe access path of Figure 2 (modes "stat" and "blob").
* :class:`~repro.classifier.bulk_probe.BulkProbeClassifier` — the
  set-at-a-time join plan of Figure 3.
"""

from .bulk_probe import BulkProbeClassifier
from .compiled import CompiledHierarchicalModel
from .features import FeatureSelectionConfig, select_features
from .model import HierarchicalModel, NodeModel, normalize_log_scores
from .single_probe import (
    ClassificationResult,
    ProbeCost,
    SingleProbeClassifier,
    propagate_posteriors,
)
from .tokenizer import (
    STOPWORDS,
    TermFrequencies,
    term_frequencies,
    term_frequencies_by_term,
    tokenize_text,
)
from .training import (
    ClassifierTrainer,
    ModelInstaller,
    TrainingConfig,
    stat_table_name,
    sync_taxonomy_marks,
)

__all__ = [
    "BulkProbeClassifier",
    "ClassificationResult",
    "ClassifierTrainer",
    "CompiledHierarchicalModel",
    "FeatureSelectionConfig",
    "HierarchicalModel",
    "ModelInstaller",
    "NodeModel",
    "ProbeCost",
    "STOPWORDS",
    "SingleProbeClassifier",
    "TermFrequencies",
    "TrainingConfig",
    "normalize_log_scores",
    "propagate_posteriors",
    "select_features",
    "stat_table_name",
    "sync_taxonomy_marks",
    "term_frequencies",
    "term_frequencies_by_term",
    "tokenize_text",
]
