"""Relational schemata for the Focus system (paper Figure 1).

The crawl state lives in five tables shared by the crawler, the
classifier, and the distiller:

* ``CRAWL(oid, url, sid, relevance, numtries, serverload, lastvisited,
  kcid, status)`` — one row per known URL; ``relevance`` holds the soft
  focus R(u) (a probability in [0, 1]; the paper stores its logarithm),
  ``numtries`` the fetch attempts, ``serverload`` the lazily updated
  count of pages fetched from the same server, ``lastvisited`` the crawl
  tick of the last successful fetch, ``kcid`` the best-matching leaf
  class, and ``status`` one of ``frontier``/``visited``/``dead``.
* ``LINK(oid_src, sid_src, oid_dst, sid_dst, wgt_fwd, wgt_rev)`` — the
  crawl graph with relevance-derived edge weights.
* ``HUBS(oid, score)`` and ``AUTH(oid, score)`` — distillation scores.
* ``FAILED(url)`` — one row per failed fetch attempt, in attempt order
  (no index: a resume reads it back with one heap-order scan).

The classifier's own tables (``TAXONOMY``, ``DOCUMENT``, ``STAT_<c0>``,
``BLOB``) are created by
:class:`repro.classifier.training.ModelInstaller`.
"""

from __future__ import annotations

from typing import Optional

from repro.minidb import Database, FLOAT, INTEGER, StorageConfig, TEXT, make_schema

#: Allowed values of CRAWL.status.
CRAWL_STATUSES = ("frontier", "visited", "dead")


def create_crawl_tables(database: Database) -> None:
    """Create CRAWL, LINK, HUBS, AUTH and FAILED (idempotent)."""
    if not database.has_table("CRAWL"):
        database.create_table(
            "CRAWL",
            make_schema(
                ("oid", INTEGER, False),
                ("url", TEXT, False),
                ("sid", INTEGER),
                ("relevance", FLOAT),
                ("numtries", INTEGER),
                ("serverload", INTEGER),
                ("lastvisited", INTEGER),
                ("kcid", INTEGER),
                ("status", TEXT),
                primary_key=["oid"],
            ),
        )
        crawl = database.table("CRAWL")
        crawl.create_index("crawl_status", ["status"], kind="hash")
        crawl.create_index("crawl_sid", ["sid"], kind="hash")
    if not database.has_table("LINK"):
        database.create_table(
            "LINK",
            make_schema(
                ("oid_src", INTEGER, False),
                ("sid_src", INTEGER),
                ("oid_dst", INTEGER, False),
                ("sid_dst", INTEGER),
                ("wgt_fwd", FLOAT),
                ("wgt_rev", FLOAT),
            ),
        )
        link = database.table("LINK")
        link.create_index("link_src", ["oid_src"], kind="hash")
        link.create_index("link_dst", ["oid_dst"], kind="hash")
        # Graph index over the crawl graph: each row is the edge
        # oid_src -> oid_dst, keyed (id, parent).  Backs the
        # reachable_from() SQL predicate with a walk over its adjacency
        # instead of per-hop hash-index probes.
        link.create_index("link_graph", ["oid_dst", "oid_src"], kind="interval")
    for score_table in ("HUBS", "AUTH"):
        if not database.has_table(score_table):
            database.create_table(
                score_table,
                make_schema(
                    ("oid", INTEGER, False),
                    ("score", FLOAT),
                    primary_key=["oid"],
                ),
            )
    if not database.has_table("FAILED"):
        database.create_table("FAILED", make_schema(("url", TEXT, False)))


def create_focus_database(
    buffer_pool_pages: int = 2048,
    path: Optional[str] = None,
    storage: Optional[StorageConfig] = None,
) -> Database:
    """A database with the crawl tables created.

    With *path* the database is durable (segment file + WAL at that
    directory) and an existing directory is recovered, so crawls survive
    restarts; without it the store is in-memory, as in the seed.

    Durability policy comes in as one
    :class:`~repro.minidb.StorageConfig` via ``storage=`` (its
    ``buffer_pool_pages``, when set, wins over the positional default).
    """
    if path is not None:
        database = Database.open(path, buffer_pool_pages=buffer_pool_pages, storage=storage)
    else:
        pages = (storage or StorageConfig()).pool_pages(buffer_pool_pages)
        database = Database(buffer_pool_pages=pages)
    create_crawl_tables(database)
    return database
