"""Write-ahead log framing: round trips, torn tails, and epoch fencing."""

import pytest

from repro.minidb.errors import StorageError
from repro.minidb.testing import FaultInjector, SimulatedCrash, flip_byte, truncate_tail
from repro.minidb.wal import (
    WAL_HEADER_SIZE,
    WriteAheadLog,
    dump_record,
    read_frame_at,
    scan_frames,
    write_frame,
)

RECORDS = [
    ("insert", "CRAWL", [(1, "http://a", 0.5)]),
    ("update", "CRAWL", [((0, 0), {"relevance": 0.25})]),
    ("delete", "LINK", [(0, 3)]),
    ("truncate", "HUBS"),
]


class TestWriteAheadLog:
    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.dat")
        for record in RECORDS:
            wal.append(record)
        assert wal.records_written == len(RECORDS)
        assert wal.bytes_written > 0
        wal.close()

        reopened = WriteAheadLog(tmp_path / "wal.dat")
        assert reopened.replay() == RECORDS
        reopened.close()

    def test_replay_is_repeatable(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.dat")
        for record in RECORDS:
            wal.append(record)
        assert wal.replay() == RECORDS
        assert wal.replay() == RECORDS  # replay does not consume
        wal.close()

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "wal.dat"
        wal = WriteAheadLog(path)
        for record in RECORDS:
            wal.append(record)
        wal.close()

        # Chop the file mid-way through the last record's payload — the
        # torn tail a crash during append leaves behind.
        truncate_tail(path, 3)

        reopened = WriteAheadLog(path)
        assert reopened.replay() == RECORDS[:-1]
        # The tail was cut off, so appends go to a clean end of file.
        reopened.append(("truncate", "AUTH"))
        assert reopened.replay() == RECORDS[:-1] + [("truncate", "AUTH")]
        reopened.close()

    def test_corrupt_record_marks_the_tail(self, tmp_path):
        path = tmp_path / "wal.dat"
        wal = WriteAheadLog(path)
        offsets = []
        for record in RECORDS:
            offsets.append(wal.bytes_written)
            wal.append(record)
        wal.close()

        # Flip a byte inside the *second* record's payload: everything
        # from there on is unrecoverable, only the prefix survives.
        flip_byte(path, WAL_HEADER_SIZE + offsets[1] + 10)

        reopened = WriteAheadLog(path)
        assert reopened.replay() == RECORDS[:1]
        reopened.close()

    def test_partial_header_only(self, tmp_path):
        """A crash mid-way through a frame *header* write leaves a tail too
        short to even carry a length field."""
        path = tmp_path / "wal.dat"
        injector = FaultInjector()
        wal = WriteAheadLog(path, ops=injector)
        wal.append(RECORDS[0])
        injector.crash_at = injector.op_count  # the next frame's header write
        with pytest.raises(SimulatedCrash):
            wal.append(RECORDS[1])
        wal._fh.close()

        reopened = WriteAheadLog(path)
        assert reopened.replay() == RECORDS[:1]
        reopened.close()

    def test_epoch_mismatch_discards_the_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.dat")
        for record in RECORDS:
            wal.append(record)
        # A snapshot from a newer generation fences off these records.
        assert wal.replay(expected_epoch=1) == []
        assert wal.epoch == 1
        assert wal.replay(expected_epoch=1) == []
        wal.close()

    def test_reset_clears_and_stamps(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.dat")
        wal.append(RECORDS[0])
        wal.reset(7)
        assert wal.epoch == 7
        assert wal.replay(expected_epoch=7) == []
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal.dat")
        assert reopened.epoch == 7
        reopened.close()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "wal.dat"
        path.write_bytes(b"not a wal file at all")
        with pytest.raises(StorageError, match="bad magic"):
            WriteAheadLog(path)

    @pytest.mark.parametrize("torn_length", [0, 3, 10])
    def test_torn_header_reinitialises_as_empty_log(self, tmp_path, torn_length):
        """A crash during create/reset can tear the header itself; the log
        holds no records in those windows, so it reopens empty (epoch 0)."""
        path = tmp_path / "wal.dat"
        wal = WriteAheadLog(path)
        wal.append(RECORDS[0])
        wal.close()
        with open(path, "r+b") as fh:
            fh.truncate(torn_length)

        reopened = WriteAheadLog(path)
        assert reopened.epoch == 0
        assert reopened.replay() == []
        reopened.append(RECORDS[1])
        assert reopened.replay() == [RECORDS[1]]
        reopened.close()


class TestGroupCommit:
    """WAL fsync batching: ``fsync_batch=N`` coalesces N appends per fsync."""

    def test_default_never_fsyncs_on_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.dat")
        for record in RECORDS:
            wal.append(record)
        assert wal.syncs_performed == 0
        wal.close()

    def test_fsync_per_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.dat", fsync_batch=1)
        for record in RECORDS:
            wal.append(record)
        assert wal.syncs_performed == len(RECORDS)
        wal.close()

    def test_batch_coalesces_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.dat", fsync_batch=3)
        for _ in range(7):
            wal.append(RECORDS[0])
        # 7 appends at batch 3 -> fsyncs after the 3rd and 6th.
        assert wal.syncs_performed == 2
        wal.close()
        # close() fsyncs the un-batched tail so no record is left exposed.
        assert wal.syncs_performed == 3

    def test_explicit_sync_resets_the_batch(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.dat", fsync_batch=4)
        wal.append(RECORDS[0])
        wal.append(RECORDS[1])
        wal.sync()
        wal.append(RECORDS[2])
        assert wal.syncs_performed == 1  # batch restarted after sync
        wal.close()

    def test_grouped_records_survive_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.dat", fsync_batch=8)
        for record in RECORDS:
            wal.append(record)
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal.dat", fsync_batch=8)
        assert reopened.replay() == RECORDS
        reopened.close()

    def test_database_reports_wal_fsyncs(self, tmp_path):
        from repro.minidb import FLOAT, INTEGER, Database, StorageConfig, make_schema

        db = Database.open(str(tmp_path / "db"), storage=StorageConfig(wal_fsync_batch=2))
        table = db.create_table(
            "T", make_schema(("k", INTEGER, False), ("v", FLOAT), primary_key=["k"])
        )
        for k in range(5):
            table.insert((k, float(k)))
        snapshot = db.io_snapshot()
        assert snapshot["wal_fsyncs"] >= 2
        assert snapshot["wal_bytes_written"] > 0
        db.close()

    def test_memory_database_reports_zero_fsyncs(self):
        from repro.minidb import Database

        assert Database().io_snapshot()["wal_fsyncs"] == 0.0


class TestFrames:
    def test_frame_round_trip_by_offset(self, tmp_path):
        path = tmp_path / "frames.dat"
        payloads = [dump_record(("page", i, list(range(i)))) for i in range(5)]
        with open(path, "w+b") as fh:
            offsets = [write_frame(fh, payload) for payload in payloads]
        with open(path, "rb") as fh:
            for offset, payload in zip(offsets, payloads):
                assert read_frame_at(fh, offset) == payload

    def test_read_frame_at_detects_damage(self, tmp_path):
        path = tmp_path / "frames.dat"
        with open(path, "w+b") as fh:
            write_frame(fh, b"payload-bytes")
        with open(path, "r+b") as fh:
            fh.seek(10)
            fh.write(b"\x00")
        with open(path, "rb") as fh:
            with pytest.raises(StorageError, match="corrupt frame"):
                read_frame_at(fh, 0)

    def test_scan_frames_reports_good_end(self, tmp_path):
        path = tmp_path / "frames.dat"
        with open(path, "w+b") as fh:
            write_frame(fh, b"one")
            end = write_frame(fh, b"two") + 8 + len(b"two")
            fh.write(b"\x99\x00")  # torn header
        with open(path, "rb") as fh:
            scan = scan_frames(fh, 0)
        assert scan.payloads == [b"one", b"two"]
        assert scan.torn
        assert scan.good_end == end
