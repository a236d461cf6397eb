"""Segment-file compaction: reclamation, policy, and crash-recovery torture.

Three layers of assurance, cheapest first:

* behavioural tests — compaction reclaims dead images, honours its
  policy knobs, never resurrects deleted data, and keeps record ids
  bit-stable across the rewrite;
* an exhaustive **crash walk** — a seeded workload runs up to a
  compacting checkpoint, and then the checkpoint is re-run once per
  I/O point with a crash injected exactly there; after every single
  crash the database must reopen to the identical logical state
  (same rows, same rids, deleted rows still deleted) and keep working;
* a seeded **crawl-level property** — a durable focused crawl is
  crashed at injected I/O points *inside a mid-crawl compaction*,
  resumed, and must reproduce the uninterrupted crawl bit for bit.

Seeds come from ``REPRO_TORTURE_SEEDS`` (comma-separated) so the CI
``compaction-torture`` job can sweep a matrix; the default keeps the
tier-1 run cheap.
"""

import os
import random
import shutil

import pytest

from repro.core.checkpoint import CheckpointManager
from repro.core.config import FocusConfig
from repro.core.schema import create_focus_database
from repro.core.system import FocusSystem
from repro.crawler.focused import CrawlerConfig
from repro.minidb import Database, FLOAT, INTEGER, TEXT, StorageConfig, make_schema
from repro.minidb.backend import SNAPSHOT_FILE, SNAPSHOT_FORMAT, segment_file_name
from repro.minidb.compactor import Compactor
from repro.minidb.errors import StorageError
from repro.minidb.pages import rid_fields
from repro.minidb.wal import load_record, read_frame_at
from fault_injection import FaultInjector, SimulatedCrash, hard_close

TORTURE_SEEDS = [
    int(seed) for seed in os.environ.get("REPRO_TORTURE_SEEDS", "0").split(",")
]


def rows_schema():
    return make_schema(
        ("k", INTEGER, False),
        ("score", FLOAT),
        ("tag", TEXT),
        primary_key=["k"],
    )


def table_state(database, name="T"):
    """Everything recovery must preserve: rids and rows, bit for bit."""
    table = database.table(name)
    return [(rid_fields(rid), row) for rid, row in table.scan()]


def segment_files(path):
    return sorted(name for name in os.listdir(path) if name.startswith("segments"))


def open_compacting(path, ops=None, ratio=0.05, every=1, page_size=512, pool=4):
    return Database.open(
        str(path),
        buffer_pool_pages=pool,
        page_size=page_size,
        storage=StorageConfig(
            ops=ops, compact_every=every, compact_min_garbage_ratio=ratio
        ),
    )


class TestCompaction:
    def fill_with_garbage(self, db, rewrites=3):
        table = db.create_table("T", rows_schema())
        table.insert_many([(k, float(k), f"row{k}") for k in range(120)])
        db.checkpoint()
        for round_no in range(rewrites):
            table.update_rows(
                [
                    (rid, {"score": row[1] + 1.0})
                    for rid, row in table.scan()
                    if row[0] % 2 == round_no % 2
                ]
            )
        return table

    def test_compaction_reclaims_dead_bytes(self, tmp_path):
        with open_compacting(tmp_path / "db", every=0) as db:
            self.fill_with_garbage(db)
            db.checkpoint()
            bloated = db.io_snapshot()
            assert bloated["segment_bytes_dead"] > 0
            assert bloated["compactions_run"] == 0

        with open_compacting(tmp_path / "db") as db:
            db.checkpoint()
            snap = db.io_snapshot()
            assert snap["compactions_run"] == 1
            assert snap["bytes_reclaimed"] > 0
            assert snap["segment_bytes_dead"] == 0
            # The acceptance bound: a compacted segment holds (almost)
            # nothing but live images.
            assert snap["segment_bytes_total"] <= 1.2 * snap["segment_bytes_live"]
            assert snap["segment_bytes_total"] < bloated["segment_bytes_total"]

    def test_compacted_database_recovers_identically(self, tmp_path):
        with open_compacting(tmp_path / "db") as db:
            table = self.fill_with_garbage(db)
            table.create_index("t_tag", ["tag"], kind="hash")
            expected = table_state(db)
            db.checkpoint()
            assert db.backend.compactions_run == 1
            assert table_state(db) == expected  # the rewrite is invisible

        with Database.open(str(tmp_path / "db"), buffer_pool_pages=4) as recovered:
            assert table_state(recovered) == expected
            assert len(recovered.table("T").lookup("t_tag", ("row7",))) == 1
            # And the database keeps working: insert, re-checkpoint, reopen.
            recovered.table("T").insert((1000, 0.0, "late"))
            recovered.checkpoint()
        with Database.open(str(tmp_path / "db")) as again:
            assert again.table("T").get_by_key((1000,)) is not None

    def test_stale_segment_files_are_fenced(self, tmp_path):
        with open_compacting(tmp_path / "db") as db:
            self.fill_with_garbage(db)
            db.checkpoint()
            db.checkpoint()
            epoch = db.backend.segment_epoch
        assert segment_files(tmp_path / "db") == [segment_file_name(epoch)]

    def test_a_compacting_checkpoint_names_the_format_and_the_new_epoch(self, tmp_path):
        """The snapshot that publishes a compacted segment carries this
        build's format number and that segment's epoch, which the next
        open reads without a default."""
        with open_compacting(tmp_path / "db") as db:
            self.fill_with_garbage(db)
            expected = table_state(db)
            db.checkpoint()
            epoch = db.backend.segment_epoch
        assert epoch > 0
        with open(tmp_path / "db" / SNAPSHOT_FILE, "rb") as fh:
            meta = load_record(read_frame_at(fh, 0))
        assert (meta["format"], meta["segment_epoch"]) == (SNAPSHOT_FORMAT, epoch)
        with Database.open(str(tmp_path / "db")) as recovered:
            assert recovered.backend.segment_epoch == epoch
            assert table_state(recovered) == expected

    def test_deleted_rows_do_not_resurrect(self, tmp_path):
        with open_compacting(tmp_path / "db") as db:
            table = self.fill_with_garbage(db)
            doomed = [rid for rid, row in table.scan() if row[0] < 30]
            for rid in doomed:
                table.delete_row(rid)
            db.checkpoint()

        with Database.open(str(tmp_path / "db")) as recovered:
            table = recovered.table("T")
            assert len(table) == 90
            for key in range(30):
                assert table.get_by_key((key,)) is None

    def test_truncated_table_pages_are_dropped_from_the_segment(self, tmp_path):
        with open_compacting(tmp_path / "db") as db:
            table = self.fill_with_garbage(db)
            live_before = db.backend.segment_bytes_live
            table.truncate()
            assert db.backend.segment_bytes_live < live_before
            db.checkpoint()
            assert db.io_snapshot()["segment_bytes_dead"] == 0

        with Database.open(str(tmp_path / "db")) as recovered:
            assert len(recovered.table("T")) == 0

    def test_failed_snapshot_publish_does_not_truncate_live_data(self, tmp_path):
        """A checkpoint whose snapshot publish raises a *live-process* error
        (disk full, not a crash) leaves the segment epoch ahead of the
        snapshot epoch; the next compaction must not collide with — and
        'w+b'-truncate — the segment file it is reading from."""
        from repro.minidb.wal import FileOps

        class FlakyOps(FileOps):
            def __init__(self):
                self.fail_next_replace = False

            def replace(self, src, dst):
                if self.fail_next_replace:
                    self.fail_next_replace = False
                    raise OSError("no space left on device")
                super().replace(src, dst)

        ops = FlakyOps()
        db = open_compacting(tmp_path / "db", ops=ops)
        table = self.fill_with_garbage(db)
        expected = table_state(db)
        ops.fail_next_replace = True
        with pytest.raises(OSError, match="no space"):
            db.checkpoint()  # compacted, then failed to publish
        assert table_state(db) == expected  # the failed publish lost nothing
        # The process survives and keeps writing; the new garbage makes
        # the next checkpoint compact *again* — the rewrite target must
        # not collide with the current (unpublished-epoch) segment file.
        table.update_rows([(rid, {"score": -1.0}) for rid, _ in table.scan()])
        expected = table_state(db)
        db.checkpoint()
        assert db.backend.compactions_run >= 1
        assert table_state(db) == expected
        db.close()
        with Database.open(str(tmp_path / "db")) as recovered:
            assert table_state(recovered) == expected

    def test_damaged_live_image_aborts_cleanly(self, tmp_path):
        """A CRC-damaged live frame aborts the rewrite before anything is
        published, without leaking the half-written epoch-stamped file."""
        from fault_injection import flip_byte

        db = open_compacting(tmp_path / "db")
        self.fill_with_garbage(db)
        # Damage one live image in place (offset of some directory entry).
        entry = next(iter(db.backend._directory.values()))
        db.backend._segments.flush()
        flip_byte(tmp_path / "db" / segment_files(tmp_path / "db")[0], entry[0] + 10)
        before = segment_files(tmp_path / "db")
        with pytest.raises(StorageError, match="corrupt frame"):
            db.checkpoint()
        assert segment_files(tmp_path / "db") == before  # no stray new file
        db.close()

    def test_missing_segment_file_is_refused(self, tmp_path):
        with open_compacting(tmp_path / "db") as db:
            self.fill_with_garbage(db)
            db.checkpoint()
            epoch = db.backend.segment_epoch
        os.remove(tmp_path / "db" / segment_file_name(epoch))
        with pytest.raises(StorageError, match="missing segment file"):
            Database.open(str(tmp_path / "db"))


class TestPolicy:
    def test_low_garbage_ratio_skips_the_rewrite(self, tmp_path):
        with open_compacting(tmp_path / "db", ratio=0.9) as db:
            db.create_table("T", rows_schema()).insert_many(
                [(k, 0.0, "x") for k in range(50)]
            )
            db.checkpoint()
            db.checkpoint()
            assert db.backend.compactions_run == 0
            assert db.backend.segment_epoch == 0

    def test_compact_every_rate_limits_consideration(self):
        compactor = Compactor(compact_every=3, min_garbage_ratio=0.0)
        verdicts = [compactor.due(live_bytes=100, dead_bytes=100) for _ in range(7)]
        assert verdicts == [False, False, True, False, False, True, False]

    def test_zero_disables(self):
        compactor = Compactor(compact_every=0)
        assert not compactor.due(live_bytes=0, dead_bytes=10**9)

    def test_knob_validation(self):
        with pytest.raises(StorageError, match="compact_every"):
            Compactor(compact_every=-1)
        with pytest.raises(StorageError, match="garbage_ratio"):
            Compactor(min_garbage_ratio=1.5)

    def test_empty_segment_is_never_compacted(self):
        compactor = Compactor(compact_every=1, min_garbage_ratio=0.0)
        assert not compactor.due(live_bytes=0, dead_bytes=0)


#: The ``app_state`` before and after the tortured checkpoint of the crash walk.
OLD_STATE = {"saves": 1}
NEW_STATE = {"saves": 2}


class TestCrashWalk:
    """Crash at *every* I/O point of a compacting checkpoint and recover.

    The checkpoint also replaces the ``app_state``: whichever side of the
    snapshot rename the crash falls on, recovery pinned to the snapshot
    (``replay_wal=False``, how a crawl resumes) finds the old rows and
    ``app_state`` or the new ones, never a mix.
    """

    def run_workload(self, path, seed, crash_offset=None):
        """Deterministic (per seed) dirty workload + the checkpoint under test.

        Returns ``(injector, database, (old_state, expected_state), points)``
        where *expected_state* is the logical table state the recovery
        must reproduce, *old_state* the one the earlier checkpoint
        published and *points* the number of I/O ops the tortured
        checkpoint performed (only meaningful on an uncrashed run).
        """
        rng = random.Random(seed)
        injector = FaultInjector()
        db = open_compacting(path, ops=injector)
        table = db.create_table("T", rows_schema())
        table.insert_many([(k, float(k), f"r{k}") for k in range(100)])
        # An earlier, undisturbed checkpoint generation.
        db.checkpoint(app_state=OLD_STATE)
        old = table_state(db)
        rids = [rid for rid, _row in table.scan()]
        for rid in rng.sample(rids, 40):
            table.update_row(rid, {"score": rng.random()})
        for rid in rng.sample(rids, 15):
            table.delete_row(rid)
        table.insert_many([(200 + k, 0.5, "late") for k in range(10)])
        expected = table_state(db)
        start = injector.op_count
        if crash_offset is not None:
            injector.crash_at = start + crash_offset
        crashed = False
        try:
            # The tortured (compacting) checkpoint.
            db.checkpoint(app_state=NEW_STATE)
        except SimulatedCrash:
            crashed = True
        assert crashed == (crash_offset is not None)
        return injector, db, (old, expected), injector.op_count - start

    @pytest.mark.parametrize("seed", TORTURE_SEEDS)
    def test_recovery_from_every_io_point(self, tmp_path, seed):
        # Dry run: count the checkpoint's I/O points and pin the expected
        # state; the checkpoint must actually have compacted, or the walk
        # would torture the wrong code path.
        injector, db, (_old, expected), points = self.run_workload(tmp_path / "dry", seed)
        assert db.backend.compactions_run == 1
        assert table_state(db) == expected
        assert db.app_state() == NEW_STATE
        assert points > 20  # flush + rewrite + snapshot + WAL + fence
        db.close()

        states = []
        for crash_offset in range(points):
            path = tmp_path / f"crash-{crash_offset}"
            _, crashed_db, (old, expected), _ = self.run_workload(
                path, seed, crash_offset=crash_offset
            )
            hard_close(crashed_db)
            # Pinned to the snapshot, on a copy: the open discards the WAL.
            pinned_path = tmp_path / f"pinned-{crash_offset}"
            shutil.copytree(path, pinned_path)
            with Database.open(str(pinned_path), replay_wal=False) as pinned:
                state = pinned.app_state()
                assert (table_state(pinned), state) in ((old, OLD_STATE), (expected, NEW_STATE)), (
                    f"seed {seed}: rows and app_state disagree after I/O point {crash_offset}"
                )
                states.append(state)

            with open_compacting(path, ratio=0.0) as recovered:
                assert table_state(recovered) == expected, (
                    f"seed {seed}: state diverged after crash at I/O point "
                    f"{crash_offset}"
                )
                assert len(segment_files(path)) == 1  # stale files fenced
                assert recovered.app_state() == state
                # The survivor is fully operational: more writes, another
                # compacting checkpoint, and the garbage is gone again.
                recovered.table("T").insert((500 + crash_offset, 1.0, "post"))
                recovered.checkpoint(app_state=state)
                snap = recovered.io_snapshot()
                assert snap["segment_bytes_total"] <= 1.2 * snap["segment_bytes_live"]
                assert recovered.app_state() == state
        # Old before the snapshot rename, new from it on.
        assert states[0] == OLD_STATE and states[-1] == NEW_STATE
        assert states == sorted(states, key=lambda state: state["saves"])


GOOD = "recreation/cycling"
MAX_PAGES = 90
CHECKPOINT_EVERY = 25
FETCH_FAILURE_SEED = 3


def crawl_config(garbage_ratio=0.0):
    return CrawlerConfig(
        max_pages=MAX_PAGES,
        distill_every=30,
        checkpoint_every=CHECKPOINT_EVERY,
        engine="batched",
        batch_size=4,
        # By default compact at every checkpoint regardless of garbage: the
        # torture wants the maximum number of compaction windows to crash
        # inside.
        storage=StorageConfig(compact_every=1, compact_min_garbage_ratio=garbage_ratio),
    )


@pytest.fixture(scope="module")
def torture_system(small_web):
    config = FocusConfig(good_topics=(GOOD,), examples_per_leaf=12, seed_count=8)
    system = FocusSystem.from_web(small_web, [GOOD], config)
    system.train()
    return system


@pytest.fixture(scope="module")
def reference_crawl(torture_system):
    """The uninterrupted crawl every crashed-and-resumed run must equal."""
    return torture_system.crawl(
        crawler_config=crawl_config(), fetch_failure_seed=FETCH_FAILURE_SEED
    )


def torture_database(directory, injector, garbage_ratio=0.0):
    """A durable crawl database whose file I/O runs through *injector*."""
    return create_focus_database(
        buffer_pool_pages=512,
        path=str(directory),
        storage=crawl_config(garbage_ratio).storage.replace(ops=injector),
    )


def durable_crawl(system, directory, database, garbage_ratio=0.0):
    """A checkpointed crawl on an externally built (injected) database."""
    return system.crawl(
        crawler_config=crawl_config(garbage_ratio),
        fetch_failure_seed=FETCH_FAILURE_SEED,
        database=database,
        checkpoint_dir=str(directory),
    )


def compaction_crash_points(events):
    """Pick the I/O indexes to torture: a mid-crawl compaction window.

    The window of compaction epoch *e* runs from the first write into
    ``segments.<e>.dat`` to the ``remove`` of the superseded file; it
    spans the rewrite, the snapshot publish, the WAL reset, and the
    fence — every phase of the atomic-swap protocol.  One index per
    distinct operation kind plus the window's first/last write keeps
    each seed affordable while still crossing the commit point.
    """
    epochs = sorted(
        {
            os.path.basename(event.path)
            for event in events
            if os.path.basename(event.path).startswith("segments.")
            and os.path.basename(event.path) != "segments.dat"
        }
    )
    assert len(epochs) >= 3, f"expected several compactions, saw {epochs}"
    target = epochs[len(epochs) // 2]  # a mid-crawl compaction
    start = next(
        e.index for e in events if os.path.basename(e.path) == target
    )
    end = next(
        e.index for e in events if e.index > start and e.kind == "remove"
    )
    window = events[start : end + 1]
    picks = {start, end}
    writes = [e.index for e in window if e.kind == "write"]
    picks.add(writes[len(writes) // 2])
    for kind in ("fsync", "replace", "truncate"):
        first = next((e.index for e in window if e.kind == kind), None)
        if first is not None:
            picks.add(first)
    return sorted(picks)


class TestCrawlTorture:
    """ISSUE 5 acceptance: a crawl killed at any injected I/O point inside
    a compaction recovers and resumes bit-identically."""

    @pytest.mark.parametrize("seed", TORTURE_SEEDS)
    def test_crash_inside_compaction_resumes_bit_identically(
        self, torture_system, reference_crawl, tmp_path, seed
    ):
        # Dry run: enumerate the durable crawl's I/O points undisturbed.
        dry = FaultInjector()
        database = torture_database(tmp_path / "dry", dry)
        result = durable_crawl(torture_system, tmp_path / "dry", database)
        assert result.trace.fetched_urls == reference_crawl.trace.fetched_urls
        assert database.backend.compactions_run >= 3
        database.close()

        rng = random.Random(seed)
        crash_points = compaction_crash_points(dry.events)
        # Seeds beyond the first shift the sampled window writes around.
        if seed:
            lo, hi = min(crash_points), max(crash_points)
            crash_points = sorted({lo, hi, *rng.sample(range(lo, hi + 1), 4)})

        for crash_at in crash_points:
            directory = tmp_path / f"crash-{crash_at}"
            injector = FaultInjector(crash_at=crash_at)
            doomed = torture_database(directory, injector)
            with pytest.raises(SimulatedCrash):
                durable_crawl(torture_system, directory, doomed)
            hard_close(doomed)  # release the dead process's handles, no I/O

            resumed = torture_system.crawl(resume_from=str(directory))
            assert resumed.pages_fetched() == MAX_PAGES
            assert resumed.trace.fetched_urls == reference_crawl.trace.fetched_urls
            assert (
                resumed.trace.relevance_series()
                == reference_crawl.trace.relevance_series()
            )  # bit for bit
            assert resumed.trace.failed_urls == reference_crawl.trace.failed_urls
            assert len(resumed.database.table("CRAWL")) == len(
                reference_crawl.database.table("CRAWL")
            )
            assert len(resumed.database.table("LINK")) == len(
                reference_crawl.database.table("LINK")
            )
            resumed.database.close()

    @pytest.mark.parametrize("seed", TORTURE_SEEDS)
    def test_crash_inside_plain_and_compacting_checkpoints_resumes_bit_identically(
        self, torture_system, reference_crawl, tmp_path, monkeypatch, seed
    ):
        """A mid-crawl save of each kind, crashed inside.

        A plain save and a compacting one that rewrites the segment file:
        wherever the crash lands, the resume reads the previous save or
        the new one, and the crawl it continues is the uninterrupted crawl.
        """
        # Some checkpoints compact, most do not: on this crawl the saves are
        # four plain ones and a compacting one.
        ratio = 0.4
        save = CheckpointManager.save
        windows = []

        def logging_save(manager):
            backend = manager.database.backend
            start, compactions = dry.op_count, backend.compactions_run
            save(manager)
            kind = "compacting" if backend.compactions_run > compactions else "plain"
            windows.append((kind, start, dry.op_count))

        dry = FaultInjector()
        database = torture_database(tmp_path / "dry", dry, ratio)
        monkeypatch.setattr(CheckpointManager, "save", logging_save)
        result = durable_crawl(torture_system, tmp_path / "dry", database, ratio)
        monkeypatch.setattr(CheckpointManager, "save", save)
        assert result.trace.fetched_urls == reference_crawl.trace.fetched_urls
        database.close()

        rng = random.Random(seed)
        crash_points = []
        # windows[0] is the initial save of an empty crawl: skip it.
        for wanted in ("plain", "compacting"):
            start, end = next((lo, hi) for kind, lo, hi in windows[1:] if kind == wanted)
            rename = next(
                e.index for e in dry.events[start:end] if e.kind == "replace"
            )
            # Tier-1 (seed 0): the first I/O, either side of the commit
            # point, the last I/O.  A torture seed walks every index of
            # the two short windows and samples the long compacting one.
            picks = {start, rename - 1, rename, end - 1}
            if seed and wanted.startswith("compacting"):
                picks |= set(rng.sample(range(start, end), 6))
            elif seed:
                picks = set(range(start, end))
            crash_points.extend(sorted(picks))

        reference_rows = {
            name: len(reference_crawl.database.table(name))
            for name in ("CRAWL", "LINK", "HUBS", "AUTH")
        }
        for crash_at in crash_points:
            directory = tmp_path / f"crash-{crash_at}"
            injector = FaultInjector(crash_at=crash_at)
            doomed = torture_database(directory, injector, ratio)
            with pytest.raises(SimulatedCrash):
                durable_crawl(torture_system, directory, doomed, ratio)
            hard_close(doomed)

            resumed = torture_system.crawl(resume_from=str(directory))
            assert resumed.pages_fetched() == MAX_PAGES
            assert resumed.trace.fetched_urls == reference_crawl.trace.fetched_urls
            assert (
                resumed.trace.relevance_series()
                == reference_crawl.trace.relevance_series()
            )  # bit for bit
            assert resumed.trace.failed_urls == reference_crawl.trace.failed_urls
            assert {
                name: len(resumed.database.table(name)) for name in reference_rows
            } == reference_rows
            resumed.database.close()

    def test_post_compaction_segment_bound_on_a_real_crawl(
        self, torture_system, tmp_path
    ):
        """The rewrite-heavy acceptance bound: after a compacting crawl the
        segment file is (within 20%) nothing but live pages."""
        database = torture_database(tmp_path / "crawl", FaultInjector())
        result = durable_crawl(torture_system, tmp_path / "crawl", database)
        database.checkpoint(app_state=database.app_state())
        snap = database.io_snapshot()
        assert snap["compactions_run"] >= 3
        assert snap["bytes_reclaimed"] > 0
        assert snap["segment_bytes_total"] <= 1.2 * snap["segment_bytes_live"]
        database.close()
        assert result.pages_fetched() == MAX_PAGES

