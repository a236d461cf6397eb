"""The K=1 crawl, frozen: digests recorded from the deleted serial loop.

Until PR 14 ``CrawlEngine`` held a second, one-URL-at-a-time crawl loop
(``_run_serial``) that every bit-identity pin compared the round kernel
against.  That loop is gone — ``engine="serial"`` is the kernel at round
size 1 — so its behaviour lives on here as data: for each case below the
parent commit's serial loop (python backend) produced the digests in
``GOLDEN``, and the kernel must reproduce them bit for bit down either
fetch path: inline (the simulated transport settles every outcome at
``prepare``) and drained (a latency transport that owes a wait on every
fetch and never times out).

A digest covers one artefact of the crawl: the fetched URL sequence, the
``repr`` of every relevance float, the failed URLs, the distillation
count, and the sorted rows of CRAWL, LINK, HUBS and AUTH.  The numpy
backend is 1e-9-equivalent rather than bit-equal, so it is compared to
the (just pinned) python run: same URLs, floats to tolerance.
"""

from hashlib import blake2b

import pytest

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

#: Recorded at commit 86959cd from ``CrawlEngine._run_serial``.
GOLDEN = {
    "soft-distill-failures": {
        "urls": "91c5acbe252af23b",
        "relevance": "bb045f19abeb691b",
        "failed": "0a738dedbf9a0a16",
        "distillations": 2,
        "CRAWL": "5351fb57335eaa49",
        "LINK": "42c30b12d6ae6320",
        "HUBS": "c3358cd479d31b5b",
        "AUTH": "30c99e91dc6c2657",
    },
    "soft-nodistill-failures": {
        "urls": "3bf897bc857b1e8f",
        "relevance": "24f5dd3cc62f3852",
        "failed": "6fc9988d8f7495f5",
        "distillations": 0,
        "CRAWL": "cb0cf2808c01906b",
        "LINK": "393c177537e06f7f",
        "HUBS": "e4a6a0577479b2b4",
        "AUTH": "e4a6a0577479b2b4",
    },
    "soft-distill-clean": {
        "urls": "92e9b83657add946",
        "relevance": "8b7012288a695cf1",
        "failed": "170fd60874485927",
        "distillations": 3,
        "CRAWL": "c1076b1ae153ad00",
        "LINK": "e1aa745e0cad4a93",
        "HUBS": "5053e68e01aebba2",
        "AUTH": "1c8bd41047ae485f",
    },
    "hard-nodistill-clean": {
        "urls": "c9821c6bb4e259d0",
        "relevance": "b6e55ee707d33f14",
        "failed": "142794723c4c00df",
        "distillations": 0,
        "CRAWL": "eb55895eb265d694",
        "LINK": "cf9153fb37007dc0",
        "HUBS": "e4a6a0577479b2b4",
        "AUTH": "e4a6a0577479b2b4",
    },
    "hard-distill-failures": {
        "urls": "8ee4d2535cb43a34",
        "relevance": "c506a782cb767ba3",
        "failed": "6fc9988d8f7495f5",
        "distillations": 2,
        "CRAWL": "6adace9cb6302e8d",
        "LINK": "1b95ea508091b1d9",
        "HUBS": "5e2ffb27cbdc9b84",
        "AUTH": "78d42da7476c6e52",
    },
    "none-nodistill-failures": {
        "urls": "f9504edd4f6e0056",
        "relevance": "5be5f8f7ba19a159",
        "failed": "29cf32005d24261d",
        "distillations": 0,
        "CRAWL": "9315ebbe8abaa9ce",
        "LINK": "176c47027d86c947",
        "HUBS": "e4a6a0577479b2b4",
        "AUTH": "e4a6a0577479b2b4",
    },
    "none-distill-clean": {
        "urls": "f9504edd4f6e0056",
        "relevance": "5be5f8f7ba19a159",
        "failed": "05e24b8b4588ac55",
        "distillations": 2,
        "CRAWL": "db4f12b2b2c33ff0",
        "LINK": "176c47027d86c947",
        "HUBS": "b42d25a098dab155",
        "AUTH": "74f3c83cb05cf8a7",
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
    config = CrawlerConfig(**{"score_backend": "python", **kwargs, **overrides})
    crawler = FocusedCrawler(fetcher, trained_model, taxonomy, database, config)
    crawler.add_seeds(small_web.keyword_seed_pages(GOOD, count=8))
    trace = crawler.crawl()
    return database, trace


def crawl_digests(database, trace) -> dict:
    facts = {
        "urls": digest(trace.fetched_urls),
        "relevance": digest(trace.relevance_series()),
        "failed": digest(trace.failed_urls),
        "distillations": trace.distillations,
    }
    for table in ("CRAWL", "LINK", "HUBS", "AUTH"):
        facts[table] = digest(sorted(database.table(table).rows()))
    return facts


@pytest.mark.parametrize("name", sorted(CASES))
def test_k1_kernel_reproduces_the_serial_loop(name, small_web, trained_model, taxonomy):
    database, trace = run_case(name, small_web, trained_model, taxonomy)
    assert crawl_digests(database, trace) == GOLDEN[name]


#: Every fetch owes a short wait and none times out: the crawl is the
#: simulated one, and every round drains through the asyncio pipeline.
DRAINED = dict(
    transport="latency",
    transport_options={"mean_latency_ms": 0.2, "timeout_rate": 0.0, "seed": 5},
)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(engine="serial", batch_size=8),
        dict(engine="batched", batch_size=1),
        dict(engine="batched", batch_size=1, **DRAINED),
        # The inert prefetch and fetch_mode flags, as older configs still carry them.
        dict(engine="serial", fetch_mode="async", prefetch=True, **DRAINED),
    ],
    ids=["serial-ignores-batch-size", "batched-k1", "async-k1", "prefetch-k1"],
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
def test_numpy_backend_matches_to_tolerance(name, small_web, trained_model, taxonomy):
    _, python_trace = run_case(name, small_web, trained_model, taxonomy)
    _, numpy_trace = run_case(name, small_web, trained_model, taxonomy, score_backend="numpy")
    assert digest(numpy_trace.fetched_urls) == GOLDEN[name]["urls"]
    assert numpy_trace.failed_urls == python_trace.failed_urls
    assert numpy_trace.distillations == python_trace.distillations
    for got, want in zip(numpy_trace.relevance_series(), python_trace.relevance_series()):
        assert got == pytest.approx(want, abs=1e-9)


#: Where every row lives, recorded at commit 52d9301 (row-tuple pages):
#: (overrides, {table: digest of (page_no, slot, key columns) in heap
#: scan order}, {table: (page_count, row_count)}).  Pages hold column
#: chunks since then; placement — which is arithmetic on row sizes, slot
#: overhead and tombstone reuse — must not have noticed.
PLACEMENT = {
    "k1": (
        "soft-distill-failures",
        {},
        {
            "CRAWL": "8f0dc45b49b14a63",
            "LINK": "42ce9ea720c21d27",
            "HUBS": "711794e63ea86bcf",
            "AUTH": "69330ca0fc034348",
        },
        {"CRAWL": (14, 478), "LINK": (18, 1295), "HUBS": (1, 67), "AUTH": (1, 62)},
    ),
    "k8": (
        "soft-distill-failures",
        dict(engine="batched", batch_size=8),
        {
            "CRAWL": "8e958256839169e3",
            "LINK": "156fd694ca8297d8",
            "HUBS": "56a092f18a291526",
            "AUTH": "606cc93fb8675099",
        },
        {"CRAWL": (15, 486), "LINK": (19, 1313), "HUBS": (1, 69), "AUTH": (1, 61)},
    ),
    "k8-numpy": (
        "hard-distill-failures",
        dict(engine="batched", batch_size=8, score_backend="numpy"),
        {
            "CRAWL": "d7fab28caa59fb5c",
            "LINK": "aae547cea9943eb6",
            "HUBS": "ffce6bbbb4355b1f",
            "AUTH": "30a8c19888e89b6f",
        },
        {"CRAWL": (7, 218), "LINK": (14, 987), "HUBS": (1, 58), "AUTH": (1, 48)},
    ),
}


@pytest.mark.parametrize("case", sorted(PLACEMENT))
def test_every_row_lands_on_its_recorded_page_and_slot(case, small_web, trained_model, taxonomy):
    name, overrides, placement, extents = PLACEMENT[case]
    database, _trace = run_case(name, small_web, trained_model, taxonomy, **overrides)
    for table_name in ("CRAWL", "LINK", "HUBS", "AUTH"):
        table = database.table(table_name)
        key_width = 3 if table_name == "LINK" else 1
        assert placement[table_name] == digest(
            (*table.heap.locate(rid), *row[:key_width]) for rid, row in table.scan()
        ), table_name
        assert (table.page_count, len(table)) == extents[table_name]
