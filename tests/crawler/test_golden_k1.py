"""The K=1 crawl, frozen: digests recorded from the deleted serial loop.

Until PR 14 ``CrawlEngine`` held a second, one-URL-at-a-time crawl loop
(``_run_serial``) that every bit-identity pin compared the round kernel
against.  That loop is gone — ``batch_size=1`` is the kernel at round
size 1 — so its behaviour lives on here as data: for each case below the
parent commit's serial loop (python backend) produced the digests in
``GOLDEN``, and the kernel must reproduce them down either fetch path:
inline (the simulated transport settles every outcome at ``prepare``)
and drained (a latency transport that owes a wait on every fetch and
never times out).  ``GOLDEN_K8`` holds the same cases at round size 8.

A digest covers one artefact of the crawl: the fetched URL sequence, the
relevance of every visit, the failed URLs, the distillation count, and
the sorted rows of CRAWL, LINK, HUBS and AUTH.  URLs, failures and
counts are pinned exactly.  Floats are rounded to 9 decimals before they
are digested: two Eq. 2 or HITS kernels that sum in different orders
differ near 1e-17, which must not move a digest, while any difference a
reader of the crawl could see still does.  Bit-determinism of the
floats on one host is pinned by the kill/resume and stepped-vs-run
tests.
"""

from hashlib import blake2b

import pytest

from repro.classifier.tokenizer import term_frequencies
from repro.classifier.training import ModelInstaller
from repro.core.schema import create_focus_database
from repro.crawler.engine import CrawlerConfig
from repro.crawler.focused import FocusedCrawler
from repro.webgraph.fetch import Fetcher

GOOD = "recreation/cycling"

#: name -> (simulate_failures, CrawlerConfig keywords).  Between them:
#: every focus mode, with and without distillation, with and without the
#: simulated transient-failure stream.
CASES = {
    "soft-distill-failures": (True, dict(max_pages=120, distill_every=50)),
    "soft-nodistill-failures": (True, dict(max_pages=80, distill_every=0)),
    "soft-distill-clean": (False, dict(max_pages=100, distill_every=30)),
    "hard-nodistill-clean": (False, dict(max_pages=60, distill_every=0, focus_mode="hard")),
    "hard-distill-failures": (True, dict(max_pages=90, distill_every=40, focus_mode="hard")),
    "none-nodistill-failures": (True, dict(max_pages=70, distill_every=0, focus_mode="none")),
    "none-distill-clean": (False, dict(max_pages=70, distill_every=25, focus_mode="none")),
}

#: The URL, failure and distillation digests were recorded at commit
#: 86959cd from ``CrawlEngine._run_serial``; the float-bearing ones
#: (``relevance`` and the four tables) were re-recorded over 9-decimal
#: floats at commit 99f7bd0, from the python scoring path.
GOLDEN = {
    "soft-distill-failures": {
        "urls": "91c5acbe252af23b",
        "relevance": "20e419afab10baac",
        "failed": "0a738dedbf9a0a16",
        "distillations": 2,
        "CRAWL": "8d8834b1fddf59fc",
        "LINK": "8d98ce85f5970e79",
        "HUBS": "6d9b645d275c3c8e",
        "AUTH": "2df3e4d3b6821300",
    },
    "soft-nodistill-failures": {
        "urls": "3bf897bc857b1e8f",
        "relevance": "599449d322175cd3",
        "failed": "6fc9988d8f7495f5",
        "distillations": 0,
        "CRAWL": "b508e781912f9d7d",
        "LINK": "ad1ff7901aff6e70",
        "HUBS": "e4a6a0577479b2b4",
        "AUTH": "e4a6a0577479b2b4",
    },
    "soft-distill-clean": {
        "urls": "92e9b83657add946",
        "relevance": "656fc3e702cda115",
        "failed": "170fd60874485927",
        "distillations": 3,
        "CRAWL": "6433d02bee5a4465",
        "LINK": "5ecf038354664a1f",
        "HUBS": "0a8dc68efc8f4d7c",
        "AUTH": "a4a0fa339b26e542",
    },
    "hard-nodistill-clean": {
        "urls": "c9821c6bb4e259d0",
        "relevance": "6596f3dc62d08b89",
        "failed": "142794723c4c00df",
        "distillations": 0,
        "CRAWL": "64e0f9b24a1db2b8",
        "LINK": "616f8e3aa4c5f0b9",
        "HUBS": "e4a6a0577479b2b4",
        "AUTH": "e4a6a0577479b2b4",
    },
    "hard-distill-failures": {
        "urls": "8ee4d2535cb43a34",
        "relevance": "8541dbade692868a",
        "failed": "6fc9988d8f7495f5",
        "distillations": 2,
        "CRAWL": "c413cfee910a0c56",
        "LINK": "64e4f3b8d6af3118",
        "HUBS": "1a1211508407efb7",
        "AUTH": "ea0a88dff5db1c12",
    },
    "none-nodistill-failures": {
        "urls": "f9504edd4f6e0056",
        "relevance": "9c5e6525b4cb048c",
        "failed": "29cf32005d24261d",
        "distillations": 0,
        "CRAWL": "2a1d295e784993b7",
        "LINK": "dee8e55cc685e4be",
        "HUBS": "e4a6a0577479b2b4",
        "AUTH": "e4a6a0577479b2b4",
    },
    "none-distill-clean": {
        "urls": "f9504edd4f6e0056",
        "relevance": "9c5e6525b4cb048c",
        "failed": "05e24b8b4588ac55",
        "distillations": 2,
        "CRAWL": "30d1a94dd4d6bb6a",
        "LINK": "dee8e55cc685e4be",
        "HUBS": "01415021d5c6ffc4",
        "AUTH": "5ab9fc30a64292d0",
    },
}


#: The same cases at round size 8, recorded at commit 99f7bd0 (python
#: scoring path, floats to 9 decimals).
GOLDEN_K8 = {
    "soft-distill-failures": {
        "urls": "bd349f3e2fef84be",
        "relevance": "8bc1b897219edc76",
        "failed": "3b82c41eeab3a531",
        "distillations": 2,
        "CRAWL": "2993d6c22d4f25f8",
        "LINK": "045810e966ec4526",
        "HUBS": "21c332ff28d2604d",
        "AUTH": "f27df8e52e19a35f",
    },
    "soft-nodistill-failures": {
        "urls": "486c35c720c52cd7",
        "relevance": "24f5cccaec8ef669",
        "failed": "3b82c41eeab3a531",
        "distillations": 0,
        "CRAWL": "6b02f7fb89f89bc9",
        "LINK": "222947cf49e703f2",
        "HUBS": "e4a6a0577479b2b4",
        "AUTH": "e4a6a0577479b2b4",
    },
    "soft-distill-clean": {
        "urls": "70c3774794496380",
        "relevance": "52d69a27fc0e0ee8",
        "failed": "f56d6f3bb5470fb6",
        "distillations": 3,
        "CRAWL": "ea31fd9c7c7dbfc4",
        "LINK": "b15279a8339faa40",
        "HUBS": "580a481444fc654b",
        "AUTH": "a3a5ac0c7f6e4787",
    },
    "hard-nodistill-clean": {
        "urls": "9d53734e69dc89dd",
        "relevance": "e12cf0d0cefc6818",
        "failed": "142794723c4c00df",
        "distillations": 0,
        "CRAWL": "96893005dee5c458",
        "LINK": "4380cfd5cc3fef30",
        "HUBS": "e4a6a0577479b2b4",
        "AUTH": "e4a6a0577479b2b4",
    },
    "hard-distill-failures": {
        "urls": "aef3d1422bb23d32",
        "relevance": "bd47f125dc83c91a",
        "failed": "3b82c41eeab3a531",
        "distillations": 2,
        "CRAWL": "76697e693efe8559",
        "LINK": "727ec8945e428cba",
        "HUBS": "50618e5bb4625fa8",
        "AUTH": "08c9d72e36b925c6",
    },
    "none-nodistill-failures": {
        "urls": "5bc1ca55a69edf53",
        "relevance": "6e268ef2ff9c06a6",
        "failed": "dcd6288f89ead8f5",
        "distillations": 0,
        "CRAWL": "50d3df328f12adcb",
        "LINK": "dee8e55cc685e4be",
        "HUBS": "e4a6a0577479b2b4",
        "AUTH": "e4a6a0577479b2b4",
    },
    "none-distill-clean": {
        "urls": "f9504edd4f6e0056",
        "relevance": "9c5e6525b4cb048c",
        "failed": "05e24b8b4588ac55",
        "distillations": 2,
        "CRAWL": "b867291b2013df53",
        "LINK": "dee8e55cc685e4be",
        "HUBS": "aded2e0313cc4031",
        "AUTH": "427fc51c283ccda4",
    },
}


def digest(items) -> str:
    state = blake2b(digest_size=8)
    for item in items:
        state.update(repr(item).encode())
        state.update(b"\n")
    return state.hexdigest()


def run_case(name, small_web, trained_model, taxonomy, **overrides):
    simulate_failures, kwargs = CASES[name]
    database = create_focus_database(buffer_pool_pages=512)
    ModelInstaller(database).install(trained_model)
    small_web.servers.reseed(0)
    fetcher = Fetcher(small_web, failure_seed=0, simulate_failures=simulate_failures)
    config = CrawlerConfig(**{**kwargs, **overrides})
    crawler = FocusedCrawler(fetcher, trained_model, taxonomy, database, config)
    crawler.add_seeds(small_web.keyword_seed_pages(GOOD, count=8))
    trace = crawler.crawl()
    return database, trace


def rounded(value):
    """A float as pinned: 9 decimals, so summation order below 1e-9 cannot show."""
    return round(float(value), 9) if isinstance(value, float) else value


def crawl_digests(database, trace) -> dict:
    facts = {
        "urls": digest(trace.fetched_urls),
        "relevance": digest(map(rounded, trace.relevance_series())),
        "failed": digest(trace.failed_urls),
        "distillations": trace.distillations,
    }
    for table in ("CRAWL", "LINK", "HUBS", "AUTH"):
        rows = database.table(table).rows()
        facts[table] = digest(sorted(tuple(map(rounded, row)) for row in rows))
    return facts


@pytest.mark.parametrize("name", sorted(CASES))
def test_k1_kernel_reproduces_the_serial_loop(name, small_web, trained_model, taxonomy):
    database, trace = run_case(name, small_web, trained_model, taxonomy)
    assert crawl_digests(database, trace) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_k8_kernel_reproduces_the_recorded_crawl(name, small_web, trained_model, taxonomy):
    database, trace = run_case(
        name, small_web, trained_model, taxonomy, engine="batched", batch_size=8
    )
    assert crawl_digests(database, trace) == GOLDEN_K8[name]


#: Every fetch owes a short wait and none times out: the crawl is the
#: simulated one, and every round drains through the asyncio pipeline.
DRAINED = dict(
    transport="latency",
    transport_options={"mean_latency_ms": 0.2, "timeout_rate": 0.0, "seed": 5},
)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(engine="batched", batch_size=1),
        dict(engine="batched", batch_size=1, **DRAINED),
        # The inert prefetch and fetch_mode flags, as older configs still carry them.
        dict(batch_size=1, fetch_mode="async", prefetch=True, **DRAINED),
    ],
    ids=["batched-k1", "async-k1", "prefetch-k1"],
)
def test_every_spelling_of_k1_is_the_same_crawl(
    overrides, small_web, trained_model, taxonomy, drained_rounds
):
    name = "soft-distill-failures"
    database, trace = run_case(name, small_web, trained_model, taxonomy, **overrides)
    assert crawl_digests(database, trace) == GOLDEN[name]
    if "transport" in overrides:
        assert drained_rounds and set(drained_rounds) == {1}
    else:
        assert drained_rounds == []


@pytest.mark.parametrize("name", ["soft-distill-failures", "hard-nodistill-clean"])
def test_every_visit_matches_the_single_document_oracle(name, small_web, trained_model, taxonomy):
    """The digests hold floats to 9 decimals; the oracle holds each one to 1e-9."""
    _, trace = run_case(name, small_web, trained_model, taxonomy)
    assert digest(trace.fetched_urls) == GOLDEN[name]["urls"]
    for visit in trace.visits:
        document = term_frequencies(small_web.page(visit.url).tokens)
        assert visit.relevance == pytest.approx(trained_model.relevance(document), abs=1e-9)
        assert visit.best_leaf_cid == trained_model.best_leaf(document)


#: Where every row lives, recorded at commit 52d9301 (row-tuple pages):
#: (overrides, {table: digest of (page_no, slot, key columns) in heap
#: scan order}, {table: (page_count, row_count)}, {score table: digest of
#: its rows sorted, floats unrounded}).  Pages hold column
#: chunks since then; placement — which is arithmetic on row sizes, slot
#: overhead and tombstone reuse — must not have noticed.  HUBS and AUTH
#: rows are written in the order the distiller hands scores over; the
#: k1 and k8 rows of those two tables were re-recorded at commit 99f7bd0
#: from its numpy path, the one scoring path left (k8-hard always ran it).
#: The CRAWL rows of all three cases were re-recorded when the engine
#: stopped flushing after every round: a row is now inserted once, at its
#: final width (a page visited before its first flush is inserted
#: visited), and hub boosts are buffered instead of written one by one,
#: so CRAWL pages fill differently (k1 needs a 15th page).  Every
#: content digest, and the LINK, HUBS and AUTH placement, held.
#: The HUBS and AUTH placement was re-recorded when the engine stopped
#: writing scores at every distillation: they are written at a sync (a
#: ``checkpoint_every`` boundary, the crawl's end, an outside reader), so
#: fewer rewrites leave fewer tombstones to reuse.  Their contents did not
#: move: the sorted-row digests beside them were recorded from the engine
#: that wrote at every distillation, and CRAWL and LINK placement held.
#: The CRAWL placement was re-recorded when the engine stopped writing at
#: a distillation: CRAWL is written at a sync only, so more rows are
#: inserted at their final width and fewer grow in place, and the pages
#: fill differently.  The extents held (the same page and row counts), as
#: did every content digest and the LINK, HUBS and AUTH placement.
PLACEMENT = {
    "k1": (
        "soft-distill-failures",
        {},
        {
            "CRAWL": "d520a0c1e554296f",
            "LINK": "42ce9ea720c21d27",
            "HUBS": "7ca7824f9c017a4c",
            "AUTH": "f83cc2b92910521f",
        },
        {"CRAWL": (15, 478), "LINK": (18, 1295), "HUBS": (1, 67), "AUTH": (1, 62)},
        {"HUBS": "915ab7cbd28d08ef", "AUTH": "43bf2397f6cf2048"},
    ),
    "k8": (
        "soft-distill-failures",
        dict(engine="batched", batch_size=8),
        {
            "CRAWL": "1fe135220a9bb626",
            "LINK": "156fd694ca8297d8",
            "HUBS": "24f3a467698ed004",
            "AUTH": "1d011c3b70f0a071",
        },
        {"CRAWL": (15, 486), "LINK": (19, 1313), "HUBS": (1, 69), "AUTH": (1, 61)},
        {"HUBS": "01c74357b82c7cf8", "AUTH": "ca0ccd9e2b9d8dfc"},
    ),
    "k8-hard": (
        "hard-distill-failures",
        dict(engine="batched", batch_size=8),
        {
            "CRAWL": "48f03af037e3086d",
            "LINK": "aae547cea9943eb6",
            "HUBS": "55f6252d839f3232",
            "AUTH": "bca1c330b6102c65",
        },
        {"CRAWL": (7, 218), "LINK": (14, 987), "HUBS": (1, 58), "AUTH": (1, 48)},
        {"HUBS": "01e177b639d284bf", "AUTH": "1f1a8a13e454b739"},
    ),
}


@pytest.mark.parametrize("case", sorted(PLACEMENT))
def test_every_row_lands_on_its_recorded_page_and_slot(case, small_web, trained_model, taxonomy):
    name, overrides, placement, extents, contents = PLACEMENT[case]
    database, _trace = run_case(name, small_web, trained_model, taxonomy, **overrides)
    for table_name, content in contents.items():
        assert content == digest(sorted(database.table(table_name).rows())), table_name
    for table_name in ("CRAWL", "LINK", "HUBS", "AUTH"):
        table = database.table(table_name)
        key_width = 3 if table_name == "LINK" else 1
        assert placement[table_name] == digest(
            (*table.heap.locate(rid), *row[:key_width]) for rid, row in table.scan()
        ), table_name
        assert (table.page_count, len(table)) == extents[table_name]
