"""Integration tests: the three classifier access paths agree and their tables are sane.

The in-memory model is the numerical reference; SingleProbe (both the
STAT and BLOB variants) and BulkProbe read the same statistics from the
database and must reproduce its relevance scores — they differ only in
I/O access pattern, which is the whole point of paper Figure 8.
"""

import pytest

from repro.classifier.bulk_probe import BulkProbeClassifier
from repro.classifier.single_probe import SingleProbeClassifier
from repro.classifier.tokenizer import term_frequencies
from repro.classifier.training import ModelInstaller, stat_table_name, sync_taxonomy_marks
from repro.minidb import Database
from repro.taxonomy.tree import NodeMark


@pytest.fixture(scope="module")
def test_documents(small_web):
    urls = (
        small_web.pages_of_topic("recreation/cycling")[:6]
        + small_web.pages_of_topic("arts/music")[:3]
        + small_web.pages_of_topic("", include_descendants=False)[:6]
    )
    return {did: term_frequencies(small_web.page(url).tokens) for did, url in enumerate(urls)}


class TestModelInstaller:
    def test_tables_created_and_populated(self, model_database, trained_model):
        assert model_database.has_table("TAXONOMY")
        assert model_database.has_table("BLOB")
        assert model_database.has_table("DOCUMENT")
        for cid in trained_model.internal_cids():
            assert model_database.has_table(stat_table_name(cid))
            assert len(model_database.table(stat_table_name(cid))) > 0
        assert len(model_database.table("TAXONOMY")) == len(trained_model.taxonomy)

    def test_taxonomy_rows_carry_marks_and_priors(self, model_database, taxonomy):
        rows = {r["kcid"]: r for r in model_database.sql("select * from TAXONOMY")}
        cycling = taxonomy.by_path("recreation/cycling")
        assert rows[cycling.cid]["type"] == "good"
        assert rows[cycling.cid]["logprior"] is not None
        assert rows[taxonomy.root.cid]["pcid"] is None

    def test_blob_payload_round_trip(self, model_database, trained_model):
        blob_table = model_database.table("BLOB")
        row = next(blob_table.rows_as_dicts())
        records = ModelInstaller.decode_blob(row["stat"])
        assert records and all(isinstance(kcid, int) for kcid, _ in records)
        node = trained_model.nodes[row["pcid"]]
        for kcid, logtheta in records:
            assert node.logtheta[(kcid, row["tid"])] == pytest.approx(logtheta)

    def test_decode_blob_rejects_corrupt_payload(self):
        with pytest.raises(ValueError):
            ModelInstaller.decode_blob(b"\x01\x02\x03")

    def test_sync_taxonomy_marks(self, trained_model):
        database = Database(buffer_pool_pages=256)
        ModelInstaller(database).install(trained_model)
        taxonomy = trained_model.taxonomy
        first_aid = taxonomy.by_path("health/first_aid")
        original_mark = first_aid.mark
        try:
            first_aid.mark = NodeMark.GOOD
            sync_taxonomy_marks(database, taxonomy)
            rows = {r["kcid"]: r["type"] for r in database.sql("select * from TAXONOMY")}
            assert rows[first_aid.cid] == "good"
        finally:
            first_aid.mark = original_mark


class TestBackendAgreement:
    def test_single_probe_blob_matches_memory(self, model_database, taxonomy, trained_model, test_documents):
        classifier = SingleProbeClassifier(model_database, taxonomy, mode="blob")
        for did, doc in test_documents.items():
            assert classifier.relevance(doc) == pytest.approx(trained_model.relevance(doc), abs=1e-9)

    def test_single_probe_stat_matches_memory(self, model_database, taxonomy, trained_model, test_documents):
        classifier = SingleProbeClassifier(model_database, taxonomy, mode="stat")
        for did, doc in test_documents.items():
            assert classifier.relevance(doc) == pytest.approx(trained_model.relevance(doc), abs=1e-9)

    def test_bulk_probe_matches_memory(self, trained_model, taxonomy, test_documents):
        database = Database(buffer_pool_pages=512)
        ModelInstaller(database).install(trained_model)
        bulk = BulkProbeClassifier(database, taxonomy)
        results = bulk.classify_documents(test_documents)
        assert set(results) == set(test_documents)
        for did, doc in test_documents.items():
            assert results[did].relevance == pytest.approx(trained_model.relevance(doc), abs=1e-6)

    def test_invalid_single_probe_mode(self, model_database, taxonomy):
        with pytest.raises(ValueError):
            SingleProbeClassifier(model_database, taxonomy, mode="hybrid")

    def test_single_probe_cost_accounting(self, trained_model, taxonomy, test_documents):
        database = Database(buffer_pool_pages=32)
        ModelInstaller(database).install(trained_model)
        bulk = BulkProbeClassifier(database, taxonomy)
        bulk.load_documents(test_documents)
        classifier = SingleProbeClassifier(database, taxonomy, mode="blob")
        database.clear_cache()
        database.reset_stats()
        classifier.classify_batch(list(test_documents))
        assert classifier.cost.documents == len(test_documents)
        assert classifier.cost.probes > 0
        assert classifier.cost.doc_scan_cost > 0
        assert classifier.cost.probe_cost > 0

    def test_bulk_probe_cost_accounting(self, trained_model, taxonomy, test_documents):
        database = Database(buffer_pool_pages=32)
        ModelInstaller(database).install(trained_model)
        bulk = BulkProbeClassifier(database, taxonomy)
        database.clear_cache()
        database.reset_stats()
        bulk.classify_documents(test_documents)
        assert bulk.cost.doc_scan_cost > 0
        assert bulk.cost.join_cost > 0

    def test_classify_batch_defaults_to_all_loaded_documents(self, trained_model, taxonomy, test_documents):
        database = Database(buffer_pool_pages=256)
        ModelInstaller(database).install(trained_model)
        bulk = BulkProbeClassifier(database, taxonomy)
        bulk.load_documents(test_documents)
        results = bulk.classify_batch()
        assert set(results) == set(test_documents)
