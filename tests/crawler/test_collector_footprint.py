"""What a crawl leaves for the cyclic collector: no container per stored row.

minidb's record ids are ints, and a key with one row posts the bare id
(:mod:`repro.minidb.pages`, :mod:`repro.minidb.index`).  The collector
never tracks an int, nor a dict whose keys are all ints, so the crawl
tables' addresses and postings cost it nothing.  A record-id type that
is a tuple subclass (a NamedTuple) is tracked for life, one per row, and
so is every dict keyed by it: these checks fail the moment one creeps
back, in a memory store, a durable one, and one resumed after a kill.
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
