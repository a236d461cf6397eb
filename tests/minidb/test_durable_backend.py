"""Durable storage: snapshot + WAL recovery, eviction flushes, I/O counters."""

import os
import sys

import pytest

from repro.minidb import (
    Database,
    FLOAT,
    INTEGER,
    TEXT,
    make_schema,
)
from repro.minidb.backend import SNAPSHOT_FILE, SNAPSHOT_FORMAT, WAL_FILE
from repro.minidb.errors import ConstraintError, StorageError
from repro.minidb.pages import RecordId
from repro.minidb.wal import dump_record, load_record, read_frame_at, write_frame
from fault_injection import truncate_tail


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

    @pytest.mark.parametrize("found", [None, 1, SNAPSHOT_FORMAT - 1, SNAPSHOT_FORMAT + 1])
    def test_a_snapshot_of_another_format_is_refused_untouched(self, tmp_path, found):
        """A snapshot without this build's format number (every one written
        before snapshots were numbered) or with another (format 1's
        directory could address frames) is refused by name, before the
        open fences, truncates or creates a file."""
        with Database.open(tmp_path / "db") as db:
            fill(db.create_table("P", people_schema()), 0, 80)
            db.checkpoint()
            fill(db.table("P"), 80, 10)

        snapshot_path = tmp_path / "db" / SNAPSHOT_FILE
        with open(snapshot_path, "rb") as fh:
            meta = load_record(read_frame_at(fh, 0))
        del meta["format"]
        if found is not None:
            meta["format"] = found
        with open(snapshot_path, "wb") as fh:
            write_frame(fh, dump_record(meta))
        (tmp_path / "db" / "segments.000009.dat").write_bytes(b"stale")
        before = {entry.name: entry.read_bytes() for entry in (tmp_path / "db").iterdir()}

        named = "an unversioned" if found is None else f"a format {found}"
        with pytest.raises(
            StorageError, match=f"{named} minidb snapshot; this build reads format {SNAPSHOT_FORMAT}"
        ):
            Database.open(tmp_path / "db")
        assert {entry.name: entry.read_bytes() for entry in (tmp_path / "db").iterdir()} == before

    def test_every_snapshot_names_its_format(self, tmp_path):
        """The first checkpoint and one after a reopen both write this
        build's format number and the segment epoch into the record."""

        def snapshot_meta():
            with open(tmp_path / "db" / SNAPSHOT_FILE, "rb") as fh:
                return load_record(read_frame_at(fh, 0))

        with Database.open(tmp_path / "db") as db:
            fill(db.create_table("P", people_schema()), 0, 40)
            db.checkpoint()
        first = snapshot_meta()
        assert (first["format"], first["segment_epoch"]) == (SNAPSHOT_FORMAT, 0)

        with Database.open(tmp_path / "db") as db:
            fill(db.table("P"), 40, 10)
            db.checkpoint()
        again = snapshot_meta()
        assert (again["format"], again["segment_epoch"]) == (SNAPSHOT_FORMAT, 0)
        assert again["epoch"] > first["epoch"]
        with Database.open(tmp_path / "db") as db:
            assert len(db.table("P")) == 50

    def test_app_state_rides_the_snapshot(self, tmp_path):
        with Database.open(tmp_path / "db") as db:
            db.create_table("P", people_schema())
            assert db.app_state() is None
            db.checkpoint(app_state={"round": 7, "note": "mid-crawl"})

        with Database.open(tmp_path / "db") as recovered:
            assert recovered.app_state() == {"round": 7, "note": "mid-crawl"}

    def test_a_state_this_build_cannot_load_is_refused_by_name(self, tmp_path, monkeypatch):
        """The store opens without unpickling the ``app_state``; reading a
        state whose class is gone raises a StorageError naming the store,
        not the unpickler's ModuleNotFoundError."""
        module_dir = tmp_path / "modules"
        module_dir.mkdir()
        (module_dir / "throwaway_state.py").write_text("class State:\n    round = 3\n")
        monkeypatch.syspath_prepend(str(module_dir))
        import throwaway_state

        with Database.open(tmp_path / "db") as db:
            fill(db.create_table("P", people_schema()), 0, 20)
            db.checkpoint(app_state=throwaway_state.State())
        monkeypatch.delitem(sys.modules, "throwaway_state")
        (module_dir / "throwaway_state.py").unlink()

        with Database.open(tmp_path / "db") as recovered:
            assert len(recovered.table("P")) == 20
            with pytest.raises(StorageError, match="cannot load") as refused:
                recovered.app_state()
        assert str(tmp_path / "db") in str(refused.value)


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
