"""Equivalence suite: columnar distillation vs. the reference edge walk.

``compiled_weighted_hits`` over a :class:`CompiledLinkGraph` must agree
with :func:`repro.distiller.hits.weighted_hits` to 1e-9 on hub and
authority scores — including ``None`` weights, nepotistic-edge
exclusion, the relevance threshold, and the iteration count — and the
row-fed graph of :class:`IncrementalDistiller` must agree with one
built from a LINK scan.

The kernel takes both edge weights from the relevance map, so the links
here carry the weights a crawl writes (E_F the cited page's relevance
if it is visited, else the citing page's; E_B the citing page's) or
``None``; the reference's arbitrary-weight path is checked against the
SQL distillers in ``test_distiller.py``.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core.schema import create_focus_database
from repro.distiller.compiled import (
    CompiledLinkGraph,
    compile_links,
    compiled_weighted_hits,
)
from repro.distiller.db_distiller import IncrementalDistiller
from repro.distiller.hits import weighted_hits
from repro.distiller.weights import Link


def random_links(
    rng: random.Random, n_nodes: int, n_edges: int, relevance: dict
) -> list[Link]:
    """Random edges weighted by the crawl's rule over *relevance*, a tenth ``None``."""
    links = []
    for _ in range(n_edges):
        src, dst = rng.randrange(n_nodes), rng.randrange(n_nodes)
        backward = relevance.get(src, 0.0)
        forward = relevance.get(dst, backward)
        links.append(
            Link(
                oid_src=src,
                sid_src=src % 5,
                oid_dst=dst,
                sid_dst=dst % 5,
                wgt_fwd=None if rng.random() < 0.1 else forward,
                wgt_rev=None if rng.random() < 0.1 else backward,
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
        relevance = {
            oid: rng.random() for oid in range(50) if rng.random() < 0.8
        }
        links = random_links(rng, rng.randint(2, 50), rng.randint(1, 250), relevance)
        for iterations in (0, 1, 5, 25):
            reference = weighted_hits(
                links, relevance, rho=0.1, max_iterations=iterations
            )
            outcome = compiled_weighted_hits(
                compile_links(links), relevance, rho=0.1, max_iterations=iterations
            )
            assert_results_match(reference, outcome)

    def test_empty_and_all_nepotistic_graphs(self):
        assert compiled_weighted_hits(CompiledLinkGraph(), {}).iterations == 0
        nepotistic = [
            Link(oid_src=1, sid_src=7, oid_dst=2, sid_dst=7, wgt_fwd=1.0, wgt_rev=1.0)
        ]
        outcome = compiled_weighted_hits(compile_links(nepotistic), {1: 1.0, 2: 1.0})
        assert outcome.hub_scores == {} and outcome.authority_scores == {}

    def test_the_graph_holds_edges_only(self):
        """Stored weights are not compiled: scores follow the relevance map."""
        rng = random.Random(5)
        relevance = {oid: rng.random() for oid in range(20)}
        links = random_links(rng, 20, 120, relevance)
        stored = [replace(link, wgt_fwd=rng.random(), wgt_rev=rng.random()) for link in links]
        graph, other = compile_links(links), compile_links(stored)
        for column, other_column in zip(graph.arrays()[:2], other.arrays()[:2]):
            np.testing.assert_array_equal(column, other_column)
        assert graph.arrays()[2] == other.arrays()[2]
        assert compiled_weighted_hits(graph, relevance) == compiled_weighted_hits(other, relevance)
        # A nepotistic edge is never compiled.
        single = CompiledLinkGraph()
        single.add(Link(oid_src=1, sid_src=1, oid_dst=2, sid_dst=2, wgt_fwd=0.2, wgt_rev=0.4))
        single.add(Link(oid_src=1, sid_src=1, oid_dst=3, sid_dst=1))
        assert len(single) == 1 and single.arrays()[2] == [1, 2]


class TestRowFedGraph:
    def _crawl_tables(self):
        database = create_focus_database(buffer_pool_pages=256)
        return database, database.table("LINK")

    @staticmethod
    def _rows(links):
        return [
            (link.oid_src, link.sid_src, link.oid_dst, link.sid_dst, link.wgt_fwd, link.wgt_rev)
            for link in links
        ]

    @staticmethod
    def _endpoints(rows):
        """The four endpoint columns of LINK *rows*, as a crawl hands them to its graph."""
        return list(zip(*rows))[:4]

    def test_row_fed_graph_matches_full_rebuild(self):
        rng = random.Random(7)
        database, table = self._crawl_tables()
        distiller = IncrementalDistiller(database)
        relevance = {oid: rng.random() for oid in range(40)}
        all_links = []
        for _round in range(5):
            rows = self._rows(random_links(rng, 40, rng.randint(5, 60), relevance))
            table.insert_many(rows)
            distiller.graph.add_columns(*self._endpoints(rows))
            all_links.extend(Link(*row) for row in rows)
            reference = compiled_weighted_hits(compile_links(all_links), relevance)
            outcome = distiller.run(relevance, max_iterations=25)
            assert_results_match(reference, outcome)
            rebuilt = IncrementalDistiller(database).run(relevance, max_iterations=25)
            assert rebuilt == outcome  # bit for bit
        assert len(distiller.graph) == sum(not link.is_nepotistic for link in all_links)

    def test_a_graph_built_from_the_table_mid_way_keeps_up(self):
        """What a resume does: build from the recovered table, then take rows."""
        rng = random.Random(11)
        database, table = self._crawl_tables()
        relevance = {oid: rng.random() for oid in range(30)}
        fed = IncrementalDistiller(database)
        rows = self._rows(random_links(rng, 30, 80, relevance))
        table.insert_many(rows)
        fed.graph.add_columns(*self._endpoints(rows))
        resumed = IncrementalDistiller(database)
        rows = self._rows(random_links(rng, 30, 80, relevance))
        table.insert_many(rows)
        fed.graph.add_columns(*self._endpoints(rows))
        resumed.graph.add_columns(*self._endpoints(rows))
        outcome = resumed.run(relevance)
        reference = fed.run(relevance)
        assert outcome.hub_scores == reference.hub_scores  # bit for bit
        assert outcome.authority_scores == reference.authority_scores

    def test_incremental_distiller_matches_the_reference_edge_walk(self):
        rng = random.Random(13)
        database, table = self._crawl_tables()
        relevance = {oid: rng.random() for oid in range(25)}
        links = random_links(rng, 25, 120, relevance)
        table.insert_many(self._rows(links))
        reference = weighted_hits(links, relevance, rho=0.1, max_iterations=5)
        assert_results_match(reference, IncrementalDistiller(database).run(relevance))

    def test_an_empty_graph_gives_an_empty_array_backed_result(self):
        result = compiled_weighted_hits(CompiledLinkGraph(), {})
        assert result.dense is not None and result.iterations == 0
        assert result.hub_scores == {} and result.authority_scores == {}
        assert result.top_hubs(5) == []
