"""Durable storage: snapshot + WAL recovery, eviction flushes, I/O counters."""

import os
import zlib

import pytest

from repro.minidb import (
    Database,
    FLOAT,
    INTEGER,
    StorageConfig,
    TEXT,
    make_schema,
)
from repro.minidb.backend import WAL_FILE
from repro.minidb.errors import ConstraintError, StorageError
from repro.minidb.pages import RecordId
from fault_injection import hard_close, truncate_tail


def people_schema():
    return make_schema(
        ("oid", INTEGER, False),
        ("score", FLOAT),
        ("name", TEXT),
        primary_key=["oid"],
    )


def fill(table, start, count, tag="row"):
    return table.insert_many(
        [(oid, oid * 0.25, f"{tag}{oid}") for oid in range(start, start + count)]
    )


class TestRecovery:
    def test_wal_only_recovery_without_checkpoint(self, tmp_path):
        """A database that never checkpointed recovers everything from the log."""
        with Database.open(tmp_path / "db") as db:
            table = db.create_table("P", people_schema())
            table.create_index("p_name", ["name"], kind="hash")
            rids = fill(table, 0, 120)
            table.update_row(rids[3], {"score": 9.0})
            table.delete_row(rids[4])

        with Database.open(tmp_path / "db") as recovered:
            table = recovered.table("P")
            assert len(table) == 119
            assert table.get_by_key((3,))[1] == 9.0
            assert table.get_by_key((4,)) is None
            assert len(table.lookup("p_name", ("row7",))) == 1

    def test_snapshot_plus_wal_delta(self, tmp_path):
        """Post-checkpoint writes replay over the snapshot, not over nothing."""
        with Database.open(tmp_path / "db") as db:
            table = db.create_table("P", people_schema())
            fill(table, 0, 100)
            db.checkpoint()
            wal_before = os.path.getsize(tmp_path / "db" / WAL_FILE)
            fill(table, 100, 25, tag="late")
            table.update_rows([(rid, {"score": -1.0}) for rid in table.lookup_rids("P_pk", (0,))])
            assert os.path.getsize(tmp_path / "db" / WAL_FILE) > wal_before

        with Database.open(tmp_path / "db") as recovered:
            table = recovered.table("P")
            assert len(table) == 125
            assert table.get_by_key((0,))[1] == -1.0
            assert table.get_by_key((110,))[2] == "late110"

    def test_record_ids_stable_across_recovery(self, tmp_path):
        """Replayed inserts land on the same pages/slots, so saved rids stay valid."""
        with Database.open(tmp_path / "db") as db:
            rids = fill(db.create_table("P", people_schema()), 0, 80)
            saved = list(map(RecordId.decode, rids))

        with Database.open(tmp_path / "db") as recovered:
            table = recovered.table("P")
            recovered_rids = [rid for rid, _row in table.scan()]
            assert list(map(RecordId.decode, recovered_rids)) == saved
            # And the heap keeps appending exactly where it left off.
            more = fill(table, 80, 1)
            assert RecordId.decode(more[0]).page_no >= RecordId.decode(recovered_rids[-1]).page_no

    def test_truncate_and_reinsert_replay(self, tmp_path):
        with Database.open(tmp_path / "db") as db:
            table = db.create_table("SCORES", people_schema())
            fill(table, 0, 30)
            table.truncate()
            fill(table, 1000, 5, tag="fresh")

        with Database.open(tmp_path / "db") as recovered:
            table = recovered.table("SCORES")
            assert len(table) == 5
            assert table.get_by_key((1000,)) is not None
            assert table.get_by_key((0,)) is None

    def test_ddl_replay_and_constraints_survive(self, tmp_path):
        with Database.open(tmp_path / "db") as db:
            table = db.create_table("P", people_schema())
            fill(table, 0, 10)
            db.create_table("OTHER", make_schema(("k", INTEGER, False)))
            db.drop_table("OTHER")

        with Database.open(tmp_path / "db") as recovered:
            assert recovered.table_names() == ["P"]
            with pytest.raises(ConstraintError):
                recovered.table("P").insert((3, 0.0, "dup"))

    def test_torn_wal_tail_recovers_prefix(self, tmp_path):
        with Database.open(tmp_path / "db") as db:
            fill(db.create_table("P", people_schema()), 0, 50)

        truncate_tail(tmp_path / "db" / WAL_FILE, 5)

        with Database.open(tmp_path / "db") as recovered:
            # The single bulk insert was the torn record: nothing to replay,
            # but the catalog (logged earlier) is intact.
            table = recovered.table("P")
            assert len(table) == 0
            fill(table, 0, 3)
            assert len(table) == 3

    def test_torn_wal_header_recovers_the_snapshot(self, tmp_path):
        """A kill inside the checkpoint's WAL reset can leave an empty
        wal.dat; the snapshot already holds everything, so the reopen must
        recover rather than refuse."""
        with Database.open(tmp_path / "db") as db:
            fill(db.create_table("P", people_schema()), 0, 60)
            db.checkpoint()

        wal_path = tmp_path / "db" / WAL_FILE
        truncate_tail(wal_path, os.path.getsize(wal_path))

        with Database.open(tmp_path / "db") as recovered:
            assert len(recovered.table("P")) == 60

    def test_replay_wal_false_pins_to_snapshot(self, tmp_path):
        with Database.open(tmp_path / "db") as db:
            table = db.create_table("P", people_schema())
            fill(table, 0, 40)
            db.checkpoint()
            fill(table, 40, 40)

        with Database.open(tmp_path / "db", replay_wal=False) as pinned:
            assert len(pinned.table("P")) == 40
        # The discarded tail stays discarded on the next (replaying) open.
        with Database.open(tmp_path / "db") as again:
            assert len(again.table("P")) == 40

    def test_pre_compaction_snapshot_format_still_opens(self, tmp_path):
        """PR-2-era snapshots store bare offsets (no frame lengths, no
        segment epoch); the opener recovers the lengths from the frame
        headers so an in-place upgrade needs no migration step."""
        from repro.minidb.backend import SNAPSHOT_FILE
        from repro.minidb.wal import dump_record, load_record, read_frame_at, write_frame

        with Database.open(tmp_path / "db") as db:
            fill(db.create_table("P", people_schema()), 0, 80)
            db.checkpoint()

        snapshot_path = tmp_path / "db" / SNAPSHOT_FILE
        with open(snapshot_path, "rb") as fh:
            meta = load_record(read_frame_at(fh, 0))
        meta.pop("segment_epoch")
        directory = load_record(zlib.decompress(meta["directory"]))
        meta["directory"] = {key: offset for key, (offset, _length) in directory.items()}
        with open(snapshot_path, "wb") as fh:
            write_frame(fh, dump_record(meta))

        with Database.open(tmp_path / "db") as recovered:
            table = recovered.table("P")
            assert len(table) == 80
            assert table.get_by_key((42,))[2] == "row42"
            # And the recovered sizes feed the live/dead accounting.
            assert recovered.io_snapshot()["segment_bytes_live"] > 0

    def test_uncompressed_directory_still_opens(self, tmp_path):
        """Snapshots used to hold the page directory as a plain dict of
        ``(offset, length)`` entries; they open as they are."""
        from repro.minidb.backend import SNAPSHOT_FILE
        from repro.minidb.wal import dump_record, load_record, read_frame_at, write_frame

        with Database.open(tmp_path / "db") as db:
            fill(db.create_table("P", people_schema()), 0, 80)
            db.checkpoint(app_state="kept")

        snapshot_path = tmp_path / "db" / SNAPSHOT_FILE
        with open(snapshot_path, "rb") as fh:
            meta = load_record(read_frame_at(fh, 0))
        meta["directory"] = load_record(zlib.decompress(meta["directory"]))
        with open(snapshot_path, "wb") as fh:
            write_frame(fh, dump_record(meta))

        with Database.open(tmp_path / "db") as recovered:
            assert recovered.app_state() == "kept"
            assert recovered.table("P").get_by_key((42,))[2] == "row42"
            recovered.checkpoint()
        with Database.open(tmp_path / "db") as again:
            assert len(again.table("P")) == 80

    def test_app_state_rides_the_snapshot(self, tmp_path):
        with Database.open(tmp_path / "db") as db:
            db.create_table("P", people_schema())
            assert db.app_state() is None
            db.checkpoint(app_state={"round": 7, "note": "mid-crawl"})

        with Database.open(tmp_path / "db") as recovered:
            assert recovered.app_state() == {"round": 7, "note": "mid-crawl"}


class TestFrames:
    """Opaque payloads in the segment file, published with the checkpoint."""

    def test_frames_ride_the_checkpoint_and_survive_a_reopen(self, tmp_path):
        with Database.open(tmp_path / "db") as db:
            fill(db.create_table("P", people_schema()), 0, 40)
            db.checkpoint(app_state=[1], frames={1: ("base", list(range(500)))})
            db.checkpoint(app_state=[1, 2], frames={2: ("delta", {"k": 1.5})})
            assert db.read_frame(2) == ("delta", {"k": 1.5})

        with Database.open(tmp_path / "db") as recovered:
            assert recovered.app_state() == [1, 2]
            assert recovered.read_frame(1) == ("base", list(range(500)))
            assert recovered.read_frame(2) == ("delta", {"k": 1.5})
            # Frames are not pages: the pool's page accounting ignores them.
            assert recovered.buffer_pool.total_pages() == recovered.total_pages()

    def test_frames_are_only_appended(self, tmp_path):
        """A written frame number is refused, before or after a reopen; a
        frame a crash left unpublished is not written."""
        db = Database.open(tmp_path / "db")
        db.checkpoint(frames={1: "one", 2: "two"})
        with pytest.raises(StorageError, match="frame 2 is already written"):
            db.checkpoint(frames={2: "two again"})
        with pytest.raises(StorageError, match="no live frame 3"):
            db.read_frame(3)
        db.backend.put_frame(3, b"unpublished")
        hard_close(db)

        with Database.open(tmp_path / "db") as recovered:
            assert [recovered.read_frame(n) for n in (1, 2)] == ["one", "two"]
            with pytest.raises(StorageError, match="frame 1 is already written"):
                recovered.checkpoint(frames={1: "one again"})
            recovered.checkpoint(frames={3: "three"})
            assert recovered.read_frame(3) == "three"

    def test_frames_survive_compaction_without_moving_its_schedule(self, tmp_path):
        """Live frames are copied by the rewrite; the garbage ratio that
        schedules a rewrite weighs page images only."""
        storage = StorageConfig(compact_every=1, compact_min_garbage_ratio=0.5)
        with Database.open(tmp_path / "db", page_size=512, storage=storage) as db:
            table = db.create_table("P", people_schema())
            fill(table, 0, 60)
            big = bytes(200_000)
            db.checkpoint(frames={1: big})
            db.checkpoint(frames={2: big})
            assert db.backend.compactions_run == 0
            # Live frames far larger than every page together do not hide
            # superseded page images: once those outweigh the live pages,
            # the checkpoint compacts.
            for round_no in range(3):
                table.update_rows(
                    [(rid, {"score": float(round_no)}) for rid, _row in table.scan()]
                )
                db.checkpoint()
            assert db.backend.compactions_run >= 1
            assert db.read_frame(1) == db.read_frame(2) == big

        with Database.open(tmp_path / "db", storage=storage) as recovered:
            assert recovered.read_frame(1) == recovered.read_frame(2) == big
            assert len(recovered.table("P")) == 60

    def test_in_memory_databases_keep_no_frames(self):
        with pytest.raises(StorageError, match="keep no frames"):
            Database().read_frame(1)


class TestEvictionAndCounters:
    def test_evicted_pages_round_trip_through_segments(self, tmp_path):
        with Database.open(tmp_path / "db", buffer_pool_pages=2) as db:
            table = db.create_table("P", people_schema())
            fill(table, 0, 400)  # many pages through a 2-frame pool
            assert db.stats.evictions > 0
            # Every row is readable back through segment-file loads.
            assert sorted(row[0] for row in table.rows()) == list(range(400))
            snap = db.io_snapshot()
            assert snap["pages_flushed"] > 0
            assert snap["wal_bytes_written"] > 0

    def test_page_accounting_does_not_double_count_resident_pages(self, tmp_path):
        """Loading a page leaves its durable image in the directory; the
        pool must not count it as both resident and on disk."""
        with Database.open(tmp_path / "db", buffer_pool_pages=2) as db:
            table = db.create_table("P", people_schema())
            fill(table, 0, 400)
            list(table.rows())  # cycle every page back through the pool
            heap_pages = table.page_count
            assert db.buffer_pool.total_pages() == heap_pages
            assert db.buffer_pool.disk_pages == heap_pages - db.buffer_pool.resident_pages

    def test_memory_database_reports_zero_durability_counters(self):
        db = Database(buffer_pool_pages=8)
        table = db.create_table("P", people_schema())
        fill(table, 0, 50)
        snap = db.io_snapshot()
        assert snap["wal_bytes_written"] == 0.0
        assert snap["pages_flushed"] == 0.0

    def test_memory_database_cannot_checkpoint(self):
        db = Database()
        with pytest.raises(StorageError, match="in-memory"):
            db.checkpoint()

    def test_checkpoint_trims_recovery_to_the_delta(self, tmp_path):
        """After a checkpoint the WAL holds only post-checkpoint work."""
        with Database.open(tmp_path / "db") as db:
            table = db.create_table("P", people_schema())
            fill(table, 0, 200)
            db.checkpoint()

        wal_size = os.path.getsize(tmp_path / "db" / WAL_FILE)
        with Database.open(tmp_path / "db") as recovered:
            fill(recovered.table("P"), 200, 1)
        # One replayed... none: open replays an (empty) WAL then appends one
        # insert record; the file stayed near its post-reset size.
        assert os.path.getsize(tmp_path / "db" / WAL_FILE) < wal_size + 4096

    def test_indexes_rebuilt_from_one_scan_after_recovery(self, tmp_path):
        with Database.open(tmp_path / "db") as db:
            table = db.create_table("P", people_schema())
            table.create_index("p_name", ["name"], kind="hash")
            table.create_index("p_score", ["score"], kind="ordered")
            fill(table, 0, 150)
            db.checkpoint()

        with Database.open(tmp_path / "db") as recovered:
            table = recovered.table("P")
            assert set(table.indexes) == {"p_name", "p_score"}
            assert len(table.lookup("p_name", ("row42",))) == 1
            hits = list(table.indexes["p_score"].range_search(low=(0.0,), high=(1.0,)))
            assert len(hits) == 5  # scores 0.0, 0.25, 0.5, 0.75, 1.0
