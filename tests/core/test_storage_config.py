"""StorageConfig: the consolidated storage policy, and the CrawlerConfig knobs folded into it."""

import dataclasses

import pytest

from repro.core.schema import create_focus_database
from repro.crawler.focused import CrawlerConfig
from repro.minidb import Database, StorageConfig


class TestStorageConfig:
    def test_defaults_and_validation(self):
        config = StorageConfig()
        assert config.buffer_pool_pages is None
        assert config.wal_fsync_batch == 0
        assert config.compact_every == 1
        assert config.compact_min_garbage_ratio == 0.5
        with pytest.raises(ValueError):
            StorageConfig(buffer_pool_pages=0)
        with pytest.raises(ValueError):
            StorageConfig(wal_fsync_batch=-1)
        with pytest.raises(ValueError):
            StorageConfig(compact_min_garbage_ratio=1.5)

    def test_pool_pages_defers_to_caller_default(self):
        assert StorageConfig().pool_pages(512) == 512
        assert StorageConfig(buffer_pool_pages=64).pool_pages(512) == 64

    def test_replace_returns_new_frozen_value(self):
        config = StorageConfig(wal_fsync_batch=8)
        bumped = config.replace(compact_every=3)
        assert bumped.wal_fsync_batch == 8
        assert bumped.compact_every == 3
        assert config.compact_every == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.wal_fsync_batch = 2

    def test_dict_round_trip(self):
        config = StorageConfig(
            buffer_pool_pages=128,
            wal_fsync_batch=4,
            compact_every=2,
            compact_min_garbage_ratio=0.25,
        )
        assert StorageConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            StorageConfig.from_dict({"wal_fsnc_batch": 1})

    def test_to_dict_refuses_fileops(self):
        class Ops:
            pass

        with pytest.raises(ValueError):
            StorageConfig(ops=Ops()).to_dict()


class TestDatabaseOpenShims:
    def test_storage_config_reaches_the_backend(self, tmp_path):
        database = Database.open(
            str(tmp_path / "db"),
            storage=StorageConfig(
                buffer_pool_pages=96,
                wal_fsync_batch=4,
                compact_every=3,
                compact_min_garbage_ratio=0.25,
            ),
        )
        try:
            assert database.buffer_pool.capacity_pages == 96
            assert database.backend.wal_fsync_batch == 4
            assert database.backend.compactor.compact_every == 3
            assert database.backend.compactor.min_garbage_ratio == 0.25
        finally:
            database.close()

    def test_close_marks_the_database_closed(self, tmp_path):
        database = Database.open(str(tmp_path / "db"))
        assert not database.closed
        database.close()
        assert database.closed


class TestCreateFocusDatabaseStorage:
    def test_memory_path_honours_storage_pool_pages(self):
        database = create_focus_database(
            buffer_pool_pages=512, storage=StorageConfig(buffer_pool_pages=64)
        )
        assert database.buffer_pool.capacity_pages == 64

    def test_durable_path_forwards_storage(self, tmp_path):
        database = create_focus_database(
            path=str(tmp_path / "crawl"),
            storage=StorageConfig(wal_fsync_batch=6),
        )
        try:
            assert database.backend.wal_fsync_batch == 6
        finally:
            database.close()


class TestCrawlerConfigStorage:
    def test_resolve_storage_prefers_explicit_config(self):
        storage = StorageConfig(wal_fsync_batch=9)
        config = CrawlerConfig(storage=storage, wal_fsync_batch=2)
        assert config.resolve_storage() is storage

    def test_resolve_storage_folds_legacy_knobs(self):
        """Only ``wal_fsync_batch`` is left to fold; compaction keeps its defaults."""
        resolved = CrawlerConfig(wal_fsync_batch=5).resolve_storage()
        assert resolved == StorageConfig(wal_fsync_batch=5)
