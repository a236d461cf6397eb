"""Training the hierarchical classifier and installing it in the database.

Training (§2.1.1) happens once per internal taxonomy node c0 and has
three steps — feature selection, parameter estimation (Equation 1), and
index construction.  The trainer produces an in-memory
:class:`~repro.classifier.model.HierarchicalModel`; the
:class:`ModelInstaller` then materialises the paper's tables:

* ``TAXONOMY(kcid, pcid, name, type, logprior, logdenom)``
* ``STAT_<c0>(kcid, tid, logtheta)`` — one table per internal node, used
  by the SQL SingleProbe variant and by BulkProbe's joins,
* ``BLOB(pcid, tid, stat)`` — the packed per-term record used by the
  BLOB SingleProbe variant,
* ``DOCUMENT(did, tid, freq)`` — populated at crawl/test time.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.minidb import Database, FLOAT, INTEGER, TEXT, BLOB as BLOB_TYPE, make_schema
from repro.taxonomy.examples import ExampleStore
from repro.taxonomy.tree import TopicTaxonomy
from repro.webgraph.vocabulary import term_id

from .features import FeatureSelectionConfig, select_features
from .model import HierarchicalModel, NodeModel

#: struct format for one child record inside a BLOB payload: (kcid, logtheta).
_BLOB_RECORD = struct.Struct("<Hd")


def stat_table_name(cid: int) -> str:
    """Name of the per-internal-node statistics table (the paper's STAT_c0)."""
    return f"STAT_{cid}"


@dataclass
class TrainingConfig:
    """Classifier training knobs."""

    features: FeatureSelectionConfig = field(default_factory=FeatureSelectionConfig)


class ClassifierTrainer:
    """Estimates the hierarchical naive-Bayes parameters from examples."""

    def __init__(
        self,
        taxonomy: TopicTaxonomy,
        examples: ExampleStore,
        config: Optional[TrainingConfig] = None,
    ) -> None:
        self.taxonomy = taxonomy
        self.examples = examples
        self.config = config or TrainingConfig()

    def train(self) -> HierarchicalModel:
        """Train every internal node that has at least one child with examples."""
        # Each example's term counts, built once and shared by every node
        # above it.  Keyed by identity: an ExampleDocument is not hashable.
        frequencies = {
            id(doc): doc.term_frequencies()
            for doc in self.examples.for_subtree(self.taxonomy, self.taxonomy.root.cid)
        }
        nodes: Dict[int, NodeModel] = {}
        for internal in self.taxonomy.internal_nodes():
            node_model = self._train_node(internal.cid, frequencies)
            if node_model is not None:
                nodes[internal.cid] = node_model
        return HierarchicalModel(self.taxonomy, nodes)

    # -- internals -----------------------------------------------------------------
    def _train_node(
        self, cid: int, frequencies: Dict[int, Dict[str, int]]
    ) -> Optional[NodeModel]:
        node = self.taxonomy.node(cid)
        # D(ci): term->count maps per document, for each child subtree.
        documents_per_child: List[List[Dict[str, int]]] = []
        modelled_children = []
        for child in node.children:
            docs = [
                frequencies[id(doc)]
                for doc in self.examples.for_subtree(self.taxonomy, child.cid)
            ]
            if docs:
                modelled_children.append(child)
                documents_per_child.append(docs)
        if not modelled_children:
            return None

        selection = select_features(documents_per_child, self.config.features)
        # Smoothing over the vocabulary of D(c0).
        vocabulary_size = max(selection.vocabulary_size, 1)
        total_documents = sum(len(docs) for docs in documents_per_child)
        logprior: Dict[int, float] = {}
        logdenom: Dict[int, float] = {}
        logtheta: Dict[tuple[int, int], float] = {}
        for child, docs, term_counts, total_count in zip(
            modelled_children,
            documents_per_child,
            selection.feature_counts,
            selection.total_counts,
        ):
            denominator = vocabulary_size + total_count
            logdenom[child.cid] = math.log(denominator)
            logprior[child.cid] = math.log(len(docs) / total_documents)
            # Feature terms that share a 32-bit id are one term to the
            # classifier, which sums their counts; so does Equation 1.
            tid_counts: Dict[int, int] = {}
            for term, count in term_counts.items():
                tid = term_id(term)
                tid_counts[tid] = tid_counts.get(tid, 0) + count
            for tid, count in tid_counts.items():
                logtheta[(child.cid, tid)] = math.log((1 + count) / denominator)
        return NodeModel(
            cid=cid,
            child_cids=[child.cid for child in modelled_children],
            feature_tids={term_id(term) for term in selection.terms},
            logprior=logprior,
            logdenom=logdenom,
            logtheta=logtheta,
        )


class ModelInstaller:
    """Materialises a trained model into minidb tables (the 'index construction' step)."""

    def __init__(self, database: Database) -> None:
        self.database = database

    # -- schema ------------------------------------------------------------------------
    def create_tables(self, model: HierarchicalModel) -> None:
        """Create TAXONOMY, BLOB, DOCUMENT, and one STAT table per internal node."""
        db = self.database
        if not db.has_table("TAXONOMY"):
            db.create_table(
                "TAXONOMY",
                make_schema(
                    ("kcid", INTEGER, False),
                    ("pcid", INTEGER),
                    ("name", TEXT),
                    ("type", TEXT),
                    ("logprior", FLOAT),
                    ("logdenom", FLOAT),
                    primary_key=["kcid"],
                ),
            )
            taxonomy = db.table("TAXONOMY")
            taxonomy.create_index("taxonomy_pcid", ["pcid"], kind="hash")
            # Graph index over the class tree, keyed (kcid, pcid):
            # descendant_of()/in_subtree() predicates and subtree
            # aggregations read one walk of the tree.
            taxonomy.create_index("taxonomy_tree", ["kcid", "pcid"], kind="interval")
        if not db.has_table("BLOB"):
            db.create_table(
                "BLOB",
                make_schema(
                    ("pcid", INTEGER, False),
                    ("tid", INTEGER, False),
                    ("stat", BLOB_TYPE),
                ),
            )
            db.table("BLOB").create_index("blob_key", ["pcid", "tid"], kind="hash")
        if not db.has_table("DOCUMENT"):
            db.create_table(
                "DOCUMENT",
                make_schema(
                    ("did", INTEGER, False),
                    ("tid", INTEGER, False),
                    ("freq", INTEGER, False),
                ),
            )
            document = db.table("DOCUMENT")
            document.create_index("document_did", ["did"], kind="hash")
            document.create_index("document_tid", ["tid"], kind="ordered")
        for cid in model.internal_cids():
            name = stat_table_name(cid)
            if not db.has_table(name):
                db.create_table(
                    name,
                    make_schema(
                        ("kcid", INTEGER, False),
                        ("tid", INTEGER, False),
                        ("logtheta", FLOAT, False),
                    ),
                )
                table = db.table(name)
                table.create_index(f"{name.lower()}_tid", ["tid"], kind="ordered")

    # -- population -------------------------------------------------------------------------
    def install(self, model: HierarchicalModel) -> None:
        """Create tables (if needed) and load the model's statistics into them."""
        self.create_tables(model)
        self._check_schema_order(model)
        self._populate_taxonomy(model)
        self._populate_statistics(model)

    def _check_schema_order(self, model: HierarchicalModel) -> None:
        """Rows below are built positionally for bulk loading; pin the order."""
        expected = {
            "TAXONOMY": ("kcid", "pcid", "name", "type", "logprior", "logdenom"),
            "BLOB": ("pcid", "tid", "stat"),
        }
        for cid in model.internal_cids():
            expected[stat_table_name(cid)] = ("kcid", "tid", "logtheta")
        for name, columns in expected.items():
            actual = tuple(self.database.table(name).schema.column_names)
            if actual != columns:
                raise ValueError(f"{name} schema order {actual} != {columns}")

    def _populate_taxonomy(self, model: HierarchicalModel) -> None:
        taxonomy_table = self.database.table("TAXONOMY")
        taxonomy_table.truncate()
        rows = []
        for node in model.taxonomy.nodes():
            parent_cid = node.parent.cid if node.parent is not None else None
            parent_model = (
                model.nodes.get(parent_cid) if parent_cid is not None else None
            )
            logprior = parent_model.logprior.get(node.cid) if parent_model else None
            logdenom = parent_model.logdenom.get(node.cid) if parent_model else None
            # Positional, in the order create_tables defines.
            rows.append(
                (
                    node.cid,
                    parent_cid,
                    node.name or "root",
                    node.mark.value,
                    logprior,
                    logdenom,
                )
            )
        taxonomy_table.insert_many(rows)

    def _populate_statistics(self, model: HierarchicalModel) -> None:
        blob_table = self.database.table("BLOB")
        blob_table.truncate()
        for cid, node_model in model.nodes.items():
            stat_table = self.database.table(stat_table_name(cid))
            stat_table.truncate()
            stat_rows = [
                (kcid, tid, value)
                for (kcid, tid), value in sorted(node_model.logtheta.items(), key=lambda kv: kv[0][1])
            ]
            stat_table.insert_many(stat_rows)
            blob_table.insert_many(self._blob_rows(cid, node_model))

    def _blob_rows(self, cid: int, node_model: NodeModel) -> List[tuple]:
        by_tid: Dict[int, List[tuple[int, float]]] = {}
        for (kcid, tid), value in node_model.logtheta.items():
            by_tid.setdefault(tid, []).append((kcid, value))
        rows = []
        for tid, records in by_tid.items():
            payload = b"".join(
                _BLOB_RECORD.pack(kcid, value) for kcid, value in sorted(records)
            )
            rows.append((cid, tid, payload))
        return rows

    @staticmethod
    def decode_blob(payload: bytes) -> List[tuple[int, float]]:
        """Unpack a BLOB payload into ``(kcid, logtheta)`` records."""
        if len(payload) % _BLOB_RECORD.size != 0:
            raise ValueError("corrupt BLOB payload")
        return [
            _BLOB_RECORD.unpack_from(payload, offset)
            for offset in range(0, len(payload), _BLOB_RECORD.size)
        ]


def sync_taxonomy_marks(database: Database, taxonomy: TopicTaxonomy) -> None:
    """Push the current good/path/null marks into the TAXONOMY table.

    The paper fixes the mutual-funds stagnation with a single UPDATE on
    the TAXONOMY table, and this is one: every changed mark is written
    by one all-or-nothing :meth:`Table.update_rows` batch.  Keeping marks
    in the table lets monitoring SQL join against them.
    """
    if not database.has_table("TAXONOMY"):
        return
    table = database.table("TAXONOMY")
    updates = []
    for rid, row in table.scan():
        mapping = table.schema.row_to_mapping(row)
        mark = taxonomy.node(mapping["kcid"]).mark.value
        if mapping["type"] != mark:
            updates.append((rid, {"type": mark}))
    table.update_rows(updates)
