"""Tests for delta-mode distillation (IncrementalDistiller's row-fed graph)."""

import pytest

from repro.core.schema import create_focus_database
from repro.distiller.db_distiller import IncrementalDistiller
from repro.distiller.hits import weighted_hits
from repro.distiller.weights import Link


def link_row(src, dst, fwd=0.8, rev=0.9, sid_src=None, sid_dst=None):
    return (
        src,
        sid_src if sid_src is not None else src * 10,
        dst,
        sid_dst if sid_dst is not None else dst * 10,
        fwd,
        rev,
    )


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


def graph_edges(distiller):
    """The distiller's graph as ``(oid_src, oid_dst)``, in edge order."""
    src, dst, oids = distiller.graph.arrays()
    return [(oids[s], oids[d]) for s, d in zip(src.tolist(), dst.tolist())]


def insert(table, distiller, rows):
    """What a crawl's sync does: insert the rows, and the graph takes their endpoint columns."""
    table.insert_many(rows)
    distiller.graph.add_columns(*list(zip(*rows))[:4])


class TestRowFedGraph:
    """A graph fed the rows each flush inserts equals one built from a LINK scan."""

    def test_folds_only_new_rows(self):
        database = create_focus_database(buffer_pool_pages=128)
        table = database.table("LINK")
        distiller = IncrementalDistiller(database)
        insert(table, distiller, [link_row(1, 2), link_row(2, 3)])
        assert len(distiller.graph) == 2
        insert(table, distiller, [link_row(3, 4), link_row(4, 5, sid_src=7, sid_dst=7)])
        assert graph_edges(distiller) == [(1, 2), (2, 3), (3, 4)]  # nepotistic dropped
        assert graph_edges(IncrementalDistiller(database)) == graph_edges(distiller)

    def test_in_place_weight_updates_leave_the_graph_alone(self):
        database = create_focus_database(buffer_pool_pages=128)
        table = database.table("LINK")
        distiller = IncrementalDistiller(database)
        rows = [link_row(1, 2, fwd=0.1), link_row(2, 3, fwd=0.2)]
        insert(table, distiller, rows)
        relevance = {1: 0.5, 2: 0.6, 3: 0.7}
        before = distiller.run(relevance)
        rid = next(iter(table.lookup_rids("link_dst", (2,))))
        table.update_column("wgt_fwd", [(rid, 0.95)])
        assert distiller.run(relevance) == before  # weights come from the map

    def test_graph_order_matches_table_scan_order(self):
        database = create_focus_database(buffer_pool_pages=128)
        table = database.table("LINK")
        distiller = IncrementalDistiller(database)
        for i in range(0, 600, 3):
            rows = [link_row(i, i + 1), link_row(i + 1, i + 2), link_row(i + 2, i)]
            insert(table, distiller, rows)
        assert table.heap.page_count > 1
        scanned = [(link.oid_src, link.oid_dst) for link in full_links(database)]
        assert graph_edges(distiller) == scanned
        assert graph_edges(IncrementalDistiller(database)) == scanned


def relevance_of(oid):
    return 0.05 + (oid * 37 % 100) / 100


class TestIncrementalDistiller:
    def test_agrees_with_full_recomputation_to_1e9(self):
        database = create_focus_database(buffer_pool_pages=256)
        table = database.table("LINK")
        distiller = IncrementalDistiller(database, rho=0.1, max_iterations=5)
        relevance = {}
        # Grow the graph in three waves of visits, distilling after each,
        # with the crawl's weights: rows written with what is known at
        # their flush, and ``wgt_fwd`` refreshed when a destination is
        # visited (as BufferedLinkWriter does).
        edges = [(i, (i * 7) % 23 + 1) for i in range(1, 60)]
        waves = [edges[:20], edges[20:40], edges[40:]]
        for wave in waves:
            visited = [src for src, _dst in wave if src not in relevance]
            relevance.update((oid, relevance_of(oid)) for oid in visited)
            rows = [
                link_row(src, dst, fwd=relevance.get(dst, relevance[src]), rev=relevance[src])
                for src, dst in wave
                if src != dst
            ]
            insert(table, distiller, rows)
            for oid in visited:
                rids = table.lookup_rids("link_dst", (oid,))
                table.update_column("wgt_fwd", [(rid, relevance[oid]) for rid in rids])
            incremental = distiller.run(dict(relevance))
            full = weighted_hits(
                full_links(database), relevance=dict(relevance), rho=0.1, max_iterations=5
            )
            assert full.hub_scores and full.authority_scores
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
