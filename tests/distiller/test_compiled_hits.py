"""Equivalence suite: columnar distillation vs. the reference edge walk.

``compiled_weighted_hits`` over a :class:`CompiledLinkGraph` must agree
with :func:`repro.distiller.hits.weighted_hits` to 1e-9 on hub and
authority scores — including ``None``-weight fallbacks, nepotistic-edge
exclusion, the relevance threshold, and the iteration count — and the
delta-folded graph maintained by :class:`LinkDeltaCache` must agree with
a from-scratch rebuild.
"""

import random

import numpy as np
import pytest

from repro.core.schema import create_focus_database
from repro.distiller.compiled import (
    CompiledLinkGraph,
    compile_links,
    compiled_weighted_hits,
)
from repro.distiller.db_distiller import IncrementalDistiller, LinkDeltaCache
from repro.distiller.hits import weighted_hits
from repro.distiller.weights import Link


def random_links(rng: random.Random, n_nodes: int, n_edges: int) -> list[Link]:
    links = []
    for _ in range(n_edges):
        src, dst = rng.randrange(n_nodes), rng.randrange(n_nodes)
        links.append(
            Link(
                oid_src=src,
                sid_src=src % 5,
                oid_dst=dst,
                sid_dst=dst % 5,
                wgt_fwd=None if rng.random() < 0.1 else rng.random(),
                wgt_rev=None if rng.random() < 0.1 else rng.random(),
            )
        )
    return links


def assert_results_match(reference, outcome):
    assert set(outcome.hub_scores) == set(reference.hub_scores)
    assert set(outcome.authority_scores) == set(reference.authority_scores)
    for oid, score in reference.hub_scores.items():
        assert outcome.hub_scores[oid] == pytest.approx(score, abs=1e-9)
    for oid, score in reference.authority_scores.items():
        assert outcome.authority_scores[oid] == pytest.approx(score, abs=1e-9)
    assert outcome.iterations == reference.iterations


class TestCompiledWeightedHits:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_on_random_graphs(self, seed):
        rng = random.Random(seed)
        links = random_links(rng, rng.randint(2, 50), rng.randint(1, 250))
        relevance = {
            oid: rng.random() for oid in range(50) if rng.random() < 0.8
        }
        for iterations in (0, 1, 5, 25):
            reference = weighted_hits(
                links, relevance, rho=0.1, max_iterations=iterations
            )
            outcome = compiled_weighted_hits(
                compile_links(links), relevance, rho=0.1, max_iterations=iterations
            )
            assert_results_match(reference, outcome)

    def test_unweighted_ablation_mode(self):
        rng = random.Random(99)
        links = random_links(rng, 20, 120)
        relevance = {oid: rng.random() for oid in range(20)}
        reference = weighted_hits(links, relevance, use_relevance_weights=False)
        outcome = compiled_weighted_hits(
            compile_links(links), relevance, use_relevance_weights=False
        )
        assert_results_match(reference, outcome)

    def test_empty_and_all_nepotistic_graphs(self):
        assert compiled_weighted_hits(CompiledLinkGraph(), {}).iterations == 0
        nepotistic = [
            Link(oid_src=1, sid_src=7, oid_dst=2, sid_dst=7, wgt_fwd=1.0, wgt_rev=1.0)
        ]
        outcome = compiled_weighted_hits(compile_links(nepotistic), {1: 1.0, 2: 1.0})
        assert outcome.hub_scores == {} and outcome.authority_scores == {}

    def test_update_patches_weights_in_place(self):
        graph = CompiledLinkGraph()
        link = Link(oid_src=1, sid_src=1, oid_dst=2, sid_dst=2, wgt_fwd=0.2, wgt_rev=0.4)
        position = graph.add(link)
        graph.patch([position], [0.9], [None])
        _src, _dst, fwd, rev, _oids = graph.arrays()
        assert fwd[0] == 0.9 and np.isnan(rev[0])  # None: "no stored weight"
        # A nepotistic edge is never compiled: there is no position to patch.
        assert graph.add(Link(oid_src=1, sid_src=1, oid_dst=3, sid_dst=1)) == -1
        assert len(graph) == 1


class TestDeltaFoldedGraph:
    def _crawl_tables(self):
        database = create_focus_database(buffer_pool_pages=256)
        return database, database.table("LINK")

    def _insert(self, table, links):
        return table.insert_many(
            [
                (
                    link.oid_src,
                    link.sid_src,
                    link.oid_dst,
                    link.sid_dst,
                    link.wgt_fwd,
                    link.wgt_rev,
                )
                for link in links
            ]
        )

    def test_incremental_fold_matches_full_rebuild(self):
        rng = random.Random(7)
        database, table = self._crawl_tables()
        cache = LinkDeltaCache(table)
        relevance = {oid: rng.random() for oid in range(40)}
        all_links = []
        for _round in range(5):
            batch = random_links(rng, 40, rng.randint(5, 60))
            rids = self._insert(table, batch)
            all_links.extend(batch)
            # Patch a few weights in place, as the crawl's E_F refresh does.
            for rid, link in list(zip(rids, batch))[:3]:
                table.update_column("wgt_fwd", [(rid, 0.5)])
                cache.note_updated([rid])
                all_links[all_links.index(link)] = Link(
                    oid_src=link.oid_src,
                    sid_src=link.sid_src,
                    oid_dst=link.oid_dst,
                    sid_dst=link.sid_dst,
                    wgt_fwd=0.5,
                    wgt_rev=link.wgt_rev,
                )
            cache.refresh()
            reference = compiled_weighted_hits(compile_links(all_links), relevance)
            outcome = compiled_weighted_hits(cache.graph, relevance)
            assert_results_match(reference, outcome)
        assert len(cache) == len(all_links)

    def test_restore_rebuilds_identical_graph(self):
        rng = random.Random(11)
        database, table = self._crawl_tables()
        cache = LinkDeltaCache(table)
        self._insert(table, random_links(rng, 30, 80))
        cache.refresh()
        state = cache.state_snapshot()
        relevance = {oid: rng.random() for oid in range(30)}
        reference = compiled_weighted_hits(cache.graph, relevance)

        restored = LinkDeltaCache(table)
        restored.restore_state(state)
        restored.refresh()
        outcome = compiled_weighted_hits(restored.graph, relevance)
        assert outcome.hub_scores == reference.hub_scores  # bit for bit
        assert outcome.authority_scores == reference.authority_scores

    def test_incremental_distiller_matches_the_reference_edge_walk(self):
        rng = random.Random(13)
        database, table = self._crawl_tables()
        links = random_links(rng, 25, 120)
        self._insert(table, links)
        relevance = {oid: rng.random() for oid in range(25)}
        reference = weighted_hits(links, relevance, rho=0.1, max_iterations=5)
        assert_results_match(reference, IncrementalDistiller(database).run(relevance))

    def test_an_empty_graph_gives_an_empty_array_backed_result(self):
        result = compiled_weighted_hits(CompiledLinkGraph(), {})
        assert result.dense is not None and result.iterations == 0
        assert result.hub_scores == {} and result.authority_scores == {}
        assert result.top_hubs(5) == []
