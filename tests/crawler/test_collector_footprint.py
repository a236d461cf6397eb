"""What a crawl leaves for the cyclic collector: no container per stored row.

minidb's record ids are ints, and a key with one row posts the bare id
(:mod:`repro.minidb.pages`, :mod:`repro.minidb.index`).  The collector
never tracks an int, nor a dict whose keys are all ints, so the crawl
tables' addresses and postings cost it nothing.  A record-id type that
is a tuple subclass (a NamedTuple) is tracked for life, one per row, and
so is every dict keyed by it: these checks fail the moment one creeps
back, in a memory store, a durable one, and one resumed after a kill.

Nor does a crawl leave one per row it has not written yet.  Between two
syncs the LINK rows wait as six column lists of ints and floats, and the
changed CRAWL rows as the frontier entries themselves: a row tuple or a
change dict per buffered row would be a container for each, alive until
the next sync, and so would a full collection drawn into the crawl.
"""

import gc

import pytest

from repro.core.config import FocusConfig, JobSpec
from repro.core.system import FocusSystem
from repro.crawler.focused import CrawlerConfig
from repro.crawler.frontier import FrontierEntry
from repro.minidb.pages import RecordId
from repro.webgraph.fetch import Fetcher

GOOD = "recreation/cycling"
TABLES = ("CRAWL", "LINK", "HUBS", "AUTH")


class KillSwitch(Exception):
    """Stands in for SIGKILL: aborts the crawl at a fetch."""


@pytest.fixture(scope="module")
def system(small_web):
    config = FocusConfig(good_topics=(GOOD,), examples_per_leaf=12, seed_count=8)
    system = FocusSystem.from_web(small_web, [GOOD], config)
    system.train()
    return system


def spec(checkpoint_dir=None):
    config = CrawlerConfig(max_pages=120, distill_every=40, checkpoint_every=30, batch_size=4)
    return JobSpec(max_pages=120, crawler=config, checkpoint_dir=checkpoint_dir)


def postings(table):
    """Every posting of every index on *table*: one per key.

    A secondary index posts its rows when it is first read; ``len`` is
    such a read, so the pending ones are counted too.
    """
    for index in (table._pk_index, *table.indexes.values()):
        if index is not None:
            assert len(index) == len(table)
            yield from index._buckets.values()


def assert_no_container_per_row(handle):
    gc.collect()
    live = gc.get_objects()
    assert not [obj for obj in live if isinstance(obj, RecordId)]
    entries = [obj for obj in live if isinstance(obj, FrontierEntry)]
    assert entries and {type(entry.rid) for entry in entries} <= {int, type(None)}
    for name in TABLES:
        seen = list(postings(handle.database.table(name)))
        assert seen, name
        tracked = [p for p in seen if type(p) is not int and (type(p) is not dict or gc.is_tracked(p))]
        assert not tracked, (name, tracked[:3])


def below(roots):
    """Every object reachable from *roots* that is not an int, float, str, None or a class."""
    seen, stack, found = set(map(id, roots)), list(roots), []
    while stack:
        for child in gc.get_referents(stack.pop()):
            if isinstance(child, (int, float, str, type(None), type)):
                continue
            if id(child) not in seen:
                seen.add(id(child))
                found.append(child)
                stack.append(child)
    return found


def test_the_write_buffers_hold_no_container_per_buffered_row(system):
    config = CrawlerConfig(max_pages=300, distill_every=20, batch_size=4)
    handle = system.start(JobSpec(crawler=config))
    while handle.trace.distillations < 3:
        handle.step(1)
    engine, frontier = handle.crawler.engine, handle.crawler.frontier
    # Nothing written since seeding: every row below is buffered.
    assert len(handle.database.table("LINK")) == 0
    writer = engine._link_writer
    assert len(writer.columns[0]) > 100
    buffers = [value for name, value in vars(writer).items() if name != "table"]
    assert {id(obj) for obj in below(buffers)} == set(map(id, writer.columns))
    assert frontier._changed and len(frontier._pending_new) > 100
    assert {type(obj) for obj in below([frontier._changed, frontier._pending_new])} == {
        FrontierEntry
    }
    handle.close()


def test_memory_store(system):
    handle = system.start(spec())
    handle.run()
    assert_no_container_per_row(handle)
    handle.close()


def test_durable_store_and_its_resume_after_a_kill(system, tmp_path, monkeypatch):
    handle = system.start(spec(str(tmp_path / "whole")))
    handle.run()
    assert_no_container_per_row(handle)
    handle.close()

    real_fetch, calls = Fetcher.fetch, []

    def killing(self, url):
        calls.append(url)
        if len(calls) > 70:
            raise KillSwitch(url)
        return real_fetch(self, url)

    monkeypatch.setattr(Fetcher, "fetch", killing)
    doomed = system.start(spec(str(tmp_path / "killed")))
    with pytest.raises(KillSwitch):
        doomed.run()
    monkeypatch.undo()
    resumed = system.resume(str(tmp_path / "killed"))
    resumed.run()
    assert_no_container_per_row(resumed)
    resumed.close()
