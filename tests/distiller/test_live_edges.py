"""The distiller's kernel over live edges against the all-edge kernel it replaced.

:func:`compiled_weighted_hits` runs both HITS half-steps over the *live*
edges only, those into a page with relevance above rho.  The kernel
before that ran the backward half-step over every edge; its body lives
on here as the oracle (:func:`all_edge_hits`).  An edge that is not live
adds exactly 0.0 to a hub bin, so the two must agree to the bit: equal
``tobytes()`` of hubs and authorities and equal iteration counts

(a) at every distillation of drawn crawls: K of 1, 8 and 32, soft and
    hard focus, and one crawl killed and resumed;
(b) over drawn graphs where no edge is live, where every edge is live,
    and where some relevance equals rho exactly.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.distiller.db_distiller as db_distiller
from repro.core.config import FocusConfig
from repro.core.system import FocusSystem
from repro.crawler.engine import CrawlerConfig
from repro.distiller.compiled import CompiledLinkGraph, compiled_weighted_hits
from repro.webgraph.fetch import Fetcher

GOOD = "recreation/cycling"


def all_edge_hits(graph, relevance, rho=0.1, max_iterations=25, tolerance=1e-9):
    """The kernel's all-edge body: the forward step over live edges, the
    backward step over every edge.  Its own relevance gather and hub
    start, so it shares nothing with the kernel but the graph's arrays."""
    src, dst, oids = graph.arrays()
    n = len(oids)
    if not len(src):
        return np.zeros(0), np.zeros(0), 0
    rel = np.array([relevance.get(oid, 0.0) for oid in oids], dtype=np.float64)
    sources = np.unique(src)
    hubs = np.zeros(n, dtype=np.float64)
    hubs[sources] = 1.0 / len(sources)
    authorities = np.zeros(n, dtype=np.float64)

    rel_dst = rel[dst]
    forward = rel_dst > rho
    f_src = src[forward]
    f_dst = dst[forward]
    f_wgt = rel_dst[forward]
    r_wgt = rel[src]

    iterations_run = 0
    for _ in range(max_iterations):
        iterations_run += 1
        new_authorities = np.bincount(f_dst, weights=hubs[f_src] * f_wgt, minlength=n)
        total = new_authorities.sum()
        if total > 0:
            new_authorities /= total
        new_hubs = np.bincount(src, weights=new_authorities[dst] * r_wgt, minlength=n)
        total = new_hubs.sum()
        if total > 0:
            new_hubs /= total
        delta = np.abs(new_hubs - hubs).sum()
        hubs, authorities = new_hubs, new_authorities
        if delta < tolerance:
            break
    return hubs, authorities, iterations_run


def assert_bit_equal(result, graph, relevance, **kwargs):
    hubs, authorities, iterations = all_edge_hits(graph, relevance, **kwargs)
    _oids, result_hubs, result_authorities = result.dense
    assert result_hubs.tobytes() == hubs.tobytes()
    assert result_authorities.tobytes() == authorities.tobytes()
    assert result.iterations == iterations


# -- (a) every distillation of drawn crawls ---------------------------------------------
MAX_PAGES = 120


class KillSwitch(Exception):
    """Stands in for SIGKILL: aborts the crawl at a chosen fetch."""


@pytest.fixture(scope="module")
def system(small_web):
    config = FocusConfig(good_topics=(GOOD,), examples_per_leaf=12, seed_count=8)
    focus = FocusSystem.from_web(small_web, [GOOD], config)
    focus.train()
    return focus


@pytest.fixture
def checked_kernel(monkeypatch):
    """Check every call of the crawl's kernel against the oracle; count them."""
    kernel = db_distiller.compiled_weighted_hits
    calls = []

    def checked(graph, relevance, rho, max_iterations):
        result = kernel(graph, relevance, rho, max_iterations)
        assert_bit_equal(result, graph, relevance, rho=rho, max_iterations=max_iterations)
        live = int(np.count_nonzero(graph.relevance_vector(relevance)[graph.arrays()[1]] > rho))
        calls.append((len(graph), live))
        return result

    monkeypatch.setattr(db_distiller, "compiled_weighted_hits", checked)
    return calls


def drawn_config(k, focus, seed):
    rng = random.Random(seed)
    config = CrawlerConfig(
        max_pages=MAX_PAGES,
        focus_mode=focus,
        distill_every=rng.choice([10, 20, 30]),
        checkpoint_every=25,
        batch_size=k,
    )
    return config, rng.randrange(100)


class TestEveryDistillationOfACrawl:
    @pytest.mark.parametrize("k", [1, 8, 32])
    @pytest.mark.parametrize("focus", ["soft", "hard"])
    def test_live_edges_score_like_every_edge(self, system, checked_kernel, k, focus):
        config, failure_seed = drawn_config(k, focus, seed=k * 10 + len(focus))
        result = system.crawl(crawler_config=config, fetch_failure_seed=failure_seed)
        assert result.trace.distillations == len(checked_kernel) >= 3
        edges, live = checked_kernel[-1]
        # The case the kernel is for: some edges carry weight, some do not.
        assert 0 < live < edges

    def test_a_killed_and_resumed_crawl(self, system, checked_kernel, tmp_path, monkeypatch):
        config, failure_seed = drawn_config(8, "hard", seed=5)
        uninterrupted = system.crawl(crawler_config=replace(config), fetch_failure_seed=failure_seed)
        expected = uninterrupted.trace.last_distillation
        checked_kernel.clear()

        real_fetch = Fetcher.fetch
        calls = {"n": 0}

        def killing(self, url):
            calls["n"] += 1
            if calls["n"] > 70:
                raise KillSwitch
            return real_fetch(self, url)

        monkeypatch.setattr(Fetcher, "fetch", killing)
        with pytest.raises(KillSwitch):
            system.crawl(
                crawler_config=replace(config), fetch_failure_seed=failure_seed,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        killed = len(checked_kernel)
        monkeypatch.setattr(Fetcher, "fetch", real_fetch)
        resumed = system.crawl(resume_from=str(tmp_path / "crawl"))
        try:
            assert 0 < killed < len(checked_kernel)
            last = resumed.trace.last_distillation
            assert last.dense[1].tobytes() == expected.dense[1].tobytes()
            assert last.dense[2].tobytes() == expected.dense[2].tobytes()
        finally:
            resumed.database.close()


# -- (b) drawn graphs -------------------------------------------------------------------
RHO = 0.1

#: Relevance values per setting: none above rho, all above it, and a mix
#: that holds rho itself (an edge into such a page is not live).
SETTINGS = {
    "no-edge-live": [0.0, 0.05, RHO],
    "every-edge-live": [0.25, 0.5, 1.0],
    "some-at-rho": [0.0, RHO, 0.3, 0.9],
}


@st.composite
def graphs(draw, setting):
    nodes = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1), st.booleans())
    edges = draw(st.lists(pairs, min_size=1, max_size=40))
    values = st.sampled_from(SETTINGS[setting])
    relevance = {oid: draw(values) for oid in range(nodes)}
    if setting == "some-at-rho":
        relevance[draw(st.integers(0, nodes - 1))] = RHO
    return edges, relevance, draw(st.integers(1, 25))


def compiled(edges):
    """A graph of *edges* given as (src, dst, nepotistic): sid 0 for a
    nepotistic destination, else its own server."""
    graph = CompiledLinkGraph()
    graph.add_columns(
        [src for src, _dst, _nep in edges],
        [0] * len(edges),
        [dst for _src, dst, _nep in edges],
        [0 if nep else dst + 1 for _src, dst, nep in edges],
    )
    return graph


class TestDrawnGraphs:
    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_live_edges_score_like_every_edge(self, setting, data):
        edges, relevance, iterations = data.draw(graphs(setting))
        graph = compiled(edges)
        result = compiled_weighted_hits(graph, relevance, rho=RHO, max_iterations=iterations)
        assert_bit_equal(result, graph, relevance, rho=RHO, max_iterations=iterations)
        if setting == "no-edge-live" and len(graph):
            assert not result.dense[2].any()
