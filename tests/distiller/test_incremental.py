"""Tests for delta-mode distillation (LinkDeltaCache / IncrementalDistiller)."""

import pytest

from repro.core.schema import create_focus_database
from repro.distiller.db_distiller import IncrementalDistiller, LinkDeltaCache
from repro.distiller.hits import weighted_hits
from repro.distiller.weights import Link


def link_row(src, dst, fwd=0.8, rev=0.9, sid_src=None, sid_dst=None):
    return {
        "oid_src": src,
        "sid_src": sid_src if sid_src is not None else src * 10,
        "oid_dst": dst,
        "sid_dst": sid_dst if sid_dst is not None else dst * 10,
        "wgt_fwd": fwd,
        "wgt_rev": rev,
    }


def full_links(database):
    table = database.table("LINK")
    return [
        Link(
            oid_src=row["oid_src"],
            sid_src=row["sid_src"],
            oid_dst=row["oid_dst"],
            sid_dst=row["sid_dst"],
            wgt_fwd=row["wgt_fwd"],
            wgt_rev=row["wgt_rev"],
        )
        for row in database.table("LINK").rows_as_dicts()
    ] if table else []


def graph_edges(cache):
    """The cache's folded graph as ``(oid_src, oid_dst, wgt_fwd, wgt_rev)``, in edge order."""
    src, dst, fwd, rev, oids = cache.graph.arrays()
    return [
        (oids[s], oids[d], float(f), float(r))
        for s, d, f, r in zip(src.tolist(), dst.tolist(), fwd, rev)
    ]


class TestLinkDeltaCache:
    def test_folds_only_new_rows(self):
        database = create_focus_database(buffer_pool_pages=128)
        table = database.table("LINK")
        cache = LinkDeltaCache(table)
        table.insert_many([link_row(1, 2), link_row(2, 3)])
        cache.refresh()
        assert len(cache) == len(cache.graph) == 2
        table.insert_many([link_row(3, 4)])
        cache.refresh()
        assert len(cache) == 3
        assert [edge[:2] for edge in graph_edges(cache)] == [(1, 2), (2, 3), (3, 4)]

    def test_notes_in_place_weight_updates(self):
        database = create_focus_database(buffer_pool_pages=128)
        table = database.table("LINK")
        cache = LinkDeltaCache(table)
        rids = table.insert_many([link_row(1, 2, fwd=0.1), link_row(2, 3, fwd=0.2)])
        cache.refresh()
        table.update_rows([(rids[0], {"wgt_fwd": 0.95})])
        cache.note_updated([rids[0]])
        cache.refresh()
        by_edge = {edge[:2]: edge for edge in graph_edges(cache)}
        assert by_edge[(1, 2)][2] == 0.95
        assert by_edge[(2, 3)][2] == 0.2

    def test_cache_order_matches_table_scan_order(self):
        database = create_focus_database(buffer_pool_pages=128)
        table = database.table("LINK")
        cache = LinkDeltaCache(table)
        for i in range(40):
            table.insert_many([link_row(i, i + 1)])
            cache.refresh()
        cache.refresh()
        cached = [edge[:2] for edge in graph_edges(cache)]
        scanned = [(link.oid_src, link.oid_dst) for link in full_links(database)]
        assert cached == scanned


class TestIncrementalDistiller:
    def test_agrees_with_full_recomputation_to_1e9(self):
        database = create_focus_database(buffer_pool_pages=256)
        table = database.table("LINK")
        distiller = IncrementalDistiller(database, rho=0.1, max_iterations=5)
        relevance = {}
        # Grow the graph in three waves, distilling after each, with an
        # in-place weight refresh in between (as the crawler does).
        rng_edges = [(i, (i * 7) % 23 + 1) for i in range(1, 60)]
        waves = [rng_edges[:20], rng_edges[20:40], rng_edges[40:]]
        rid_of_first_wave = None
        for wave_index, wave in enumerate(waves):
            rids = table.insert_many(
                link_row(src, dst, fwd=0.5 + 0.01 * src, rev=0.4 + 0.01 * dst)
                for src, dst in wave
                if src != dst
            )
            if wave_index == 0:
                rid_of_first_wave = rids[0]
            for src, dst in wave:
                relevance[src] = 0.6
                relevance[dst] = 0.7
            if wave_index == 1 and rid_of_first_wave is not None:
                table.update_rows([(rid_of_first_wave, {"wgt_fwd": 0.99})])
                distiller.note_updated([rid_of_first_wave])
            incremental = distiller.run(dict(relevance))
            full = weighted_hits(
                full_links(database), relevance=dict(relevance), rho=0.1, max_iterations=5
            )
            assert set(incremental.hub_scores) == set(full.hub_scores)
            for oid, score in full.hub_scores.items():
                assert incremental.hub_scores[oid] == pytest.approx(score, abs=1e-9)
            for oid, score in full.authority_scores.items():
                assert incremental.authority_scores[oid] == pytest.approx(score, abs=1e-9)

    def test_empty_table_runs_clean(self):
        database = create_focus_database(buffer_pool_pages=64)
        distiller = IncrementalDistiller(database)
        result = distiller.run({})
        assert result.hub_scores == {} and result.authority_scores == {}
