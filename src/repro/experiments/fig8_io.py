"""Figure 8 — I/O performance of the database-resident classifier and distiller.

Four panels are reproduced:

* **8(a)** classification running time: ``SingleProbe`` over the per-node
  STAT tables ("SQL"), ``SingleProbe`` over the packed BLOB table
  ("BLOB"), and ``BulkProbe`` ("CLI"), with the per-variant cost broken
  down into document scanning, statistics probing / joining, and CPU.
* **8(b)** memory scaling: how each variant's cost responds to the
  buffer-pool size.
* **8(c)** output-size scaling: BulkProbe cost against |children|·|docs|.
* **8(d)** distillation running time: per-edge index-lookup distillation
  vs. the set-oriented join plan of Figure 4.

Absolute 1999 milliseconds are meaningless here; the comparable quantity
is the *simulated I/O cost* maintained by the minidb buffer pool
(physical reads/writes plus a small charge per logical page access),
reported as "relative time" exactly as the paper does.  Wall-clock time
is also recorded for reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.classifier.bulk_probe import BulkProbeClassifier
from repro.classifier.single_probe import SingleProbeClassifier
from repro.classifier.tokenizer import TermFrequencies, term_frequencies
from repro.classifier.training import ClassifierTrainer, ModelInstaller
from repro.core.schema import create_crawl_tables
from repro.distiller.db_distiller import IndexLookupDistiller, JoinDistiller
from repro.distiller.hits import weighted_hits
from repro.distiller.weights import Link
from repro.minidb import Database
from repro.taxonomy.examples import generate_examples
from repro.taxonomy.tree import TopicTaxonomy
from repro.webgraph.graph import SyntheticWebBuilder, WebGraph

from .workloads import CYCLING, distillation_web_config, io_web_config


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------


@dataclass
class ClassifierFixture:
    """A trained classifier installed in a database, plus a test batch."""

    database: Database
    taxonomy: TopicTaxonomy
    web: WebGraph
    documents: Dict[int, TermFrequencies]

    def reset_measurement(self) -> None:
        """Cold-start the cache and zero the I/O counters before a run."""
        self.database.clear_cache()
        self.database.reset_stats()


def build_classifier_fixture(
    n_documents: int = 150,
    buffer_pool_pages: int = 64,
    seed: int = 7,
    examples_per_leaf: int = 40,
    max_features: int = 4000,
) -> ClassifierFixture:
    """Build the Figure 8(a–c) fixture: model tables plus a loaded DOCUMENT table.

    ``max_features`` is raised well beyond the crawling default so the
    per-node statistics tables are large relative to the buffer pool, as
    the paper's Yahoo!-scale models were.
    """
    from repro.classifier.features import FeatureSelectionConfig
    from repro.classifier.training import TrainingConfig

    web = SyntheticWebBuilder(io_web_config(seed)).build()
    taxonomy = TopicTaxonomy.from_topic_tree(web.topic_tree)
    taxonomy.mark_good([CYCLING])
    examples = generate_examples(taxonomy, web, per_leaf=examples_per_leaf, seed=seed + 1)
    training = TrainingConfig(features=FeatureSelectionConfig(max_features=max_features))
    model = ClassifierTrainer(taxonomy, examples, training).train()

    database = Database(buffer_pool_pages=buffer_pool_pages)
    ModelInstaller(database).install(model)

    rng = np.random.default_rng(seed + 2)
    urls = web.urls()
    chosen = rng.choice(len(urls), size=min(n_documents, len(urls)), replace=False)
    documents = {
        did: term_frequencies(web.page(urls[i]).tokens) for did, i in enumerate(chosen)
    }
    # The DOCUMENT table is populated once — the paper counts it as part of
    # ordinary keyword indexing, shared by every variant.
    BulkProbeClassifier(database, taxonomy).load_documents(documents)
    return ClassifierFixture(database=database, taxonomy=taxonomy, web=web, documents=documents)


# ---------------------------------------------------------------------------
# Figure 8(a): classification running time by variant
# ---------------------------------------------------------------------------


@dataclass
class VariantMeasurement:
    """One bar of Figure 8(a)."""

    variant: str
    documents: int
    wall_seconds: float
    doc_scan_cost: float
    probe_cost: float
    total_io_cost: float
    relevance_by_did: Dict[int, float] = field(repr=False, default_factory=dict)


def measure_classifier_variant(fixture: ClassifierFixture, variant: str) -> VariantMeasurement:
    """Measure one classification variant over the fixture's batch.

    ``variant`` is ``"sql"`` (SingleProbe over STAT), ``"blob"``
    (SingleProbe over BLOB), or ``"bulk"`` (BulkProbe, the paper's CLI bar).
    """
    fixture.reset_measurement()
    dids = sorted(fixture.documents)
    start = time.perf_counter()
    if variant in ("sql", "blob"):
        classifier = SingleProbeClassifier(
            fixture.database, fixture.taxonomy, mode="stat" if variant == "sql" else "blob"
        )
        results = classifier.classify_batch(dids)
        doc_scan = classifier.cost.doc_scan_cost
        probe = classifier.cost.probe_cost
    elif variant == "bulk":
        classifier = BulkProbeClassifier(fixture.database, fixture.taxonomy)
        results = classifier.classify_batch(dids)
        doc_scan = classifier.cost.doc_scan_cost
        probe = classifier.cost.join_cost
    else:
        raise ValueError(f"unknown classifier variant {variant!r}")
    wall = time.perf_counter() - start
    total = fixture.database.stats.simulated_cost()
    return VariantMeasurement(
        variant=variant,
        documents=len(dids),
        wall_seconds=wall,
        doc_scan_cost=doc_scan,
        probe_cost=probe,
        total_io_cost=total,
        relevance_by_did={did: result.relevance for did, result in results.items()},
    )


@dataclass
class ClassifierComparisonResult:
    """Figure 8(a): all three bars plus agreement checks."""

    measurements: Dict[str, VariantMeasurement]

    def speedup(self, slow: str = "sql", fast: str = "bulk") -> float:
        return self.measurements[slow].total_io_cost / max(
            self.measurements[fast].total_io_cost, 1e-12
        )

    def max_relevance_disagreement(self) -> float:
        variants = list(self.measurements.values())
        worst = 0.0
        baseline = variants[0].relevance_by_did
        for other in variants[1:]:
            for did, value in baseline.items():
                worst = max(worst, abs(value - other.relevance_by_did[did]))
        return worst


def run_classifier_comparison(
    fixture: Optional[ClassifierFixture] = None,
    n_documents: int = 150,
    buffer_pool_pages: int = 64,
    seed: int = 7,
) -> ClassifierComparisonResult:
    fixture = fixture or build_classifier_fixture(n_documents, buffer_pool_pages, seed)
    measurements = {
        variant: measure_classifier_variant(fixture, variant)
        for variant in ("sql", "blob", "bulk")
    }
    return ClassifierComparisonResult(measurements=measurements)


# ---------------------------------------------------------------------------
# Figure 8(b): memory (buffer-pool) scaling
# ---------------------------------------------------------------------------


@dataclass
class MemoryScalingPoint:
    buffer_pool_pages: int
    single_probe_cost: float
    bulk_probe_cost: float


def run_memory_scaling(
    pool_sizes: Sequence[int] = (16, 32, 64, 128, 256, 512),
    n_documents: int = 120,
    seed: int = 7,
) -> List[MemoryScalingPoint]:
    """Sweep the buffer-pool size and measure SingleProbe (BLOB) vs BulkProbe."""
    fixture = build_classifier_fixture(n_documents, max(pool_sizes), seed)
    points: List[MemoryScalingPoint] = []
    for pool in pool_sizes:
        fixture.database.resize_buffer_pool(pool)
        single = measure_classifier_variant(fixture, "blob")
        bulk = measure_classifier_variant(fixture, "bulk")
        points.append(
            MemoryScalingPoint(
                buffer_pool_pages=pool,
                single_probe_cost=single.total_io_cost,
                bulk_probe_cost=bulk.total_io_cost,
            )
        )
    fixture.database.resize_buffer_pool(max(pool_sizes))
    return points


# ---------------------------------------------------------------------------
# Figure 8(c): output-size scaling of BulkProbe
# ---------------------------------------------------------------------------


@dataclass
class OutputScalingPoint:
    documents: int
    children: int
    output_size: int
    bulk_cost: float


def run_output_scaling(
    document_counts: Sequence[int] = (25, 50, 100, 200),
    buffer_pool_pages: int = 256,
    seed: int = 7,
) -> List[OutputScalingPoint]:
    """Measure BulkProbe cost against |children| × |documents| (Figure 8c)."""
    points: List[OutputScalingPoint] = []
    fixture = build_classifier_fixture(max(document_counts), buffer_pool_pages, seed)
    all_dids = sorted(fixture.documents)
    bulk = BulkProbeClassifier(fixture.database, fixture.taxonomy)
    frontier = fixture.taxonomy.evaluation_frontier()
    for count in document_counts:
        subset = {did: fixture.documents[did] for did in all_dids[:count]}
        bulk.load_documents(subset)
        for node in frontier:
            children = len(fixture.taxonomy.node(node.cid).children)
            fixture.reset_measurement()
            start_cost = fixture.database.stats.simulated_cost()
            bulk.bulk_conditional_log_likelihoods(node.cid)
            cost = fixture.database.stats.simulated_cost() - start_cost
            points.append(
                OutputScalingPoint(
                    documents=count,
                    children=children,
                    output_size=count * children,
                    bulk_cost=cost,
                )
            )
    # Restore the full batch for any later use of the fixture.
    bulk.load_documents(fixture.documents)
    return points


def output_scaling_correlation(points: Iterable[OutputScalingPoint]) -> float:
    """Pearson correlation between output size and BulkProbe cost (≈ linear ⇒ close to 1)."""
    points = list(points)
    sizes = np.array([p.output_size for p in points], dtype=float)
    costs = np.array([p.bulk_cost for p in points], dtype=float)
    if len(points) < 2 or sizes.std() == 0 or costs.std() == 0:
        return 0.0
    return float(np.corrcoef(sizes, costs)[0, 1])


# ---------------------------------------------------------------------------
# Figure 8(d): distillation, index lookups vs. joins
# ---------------------------------------------------------------------------


@dataclass
class DistillationFixture:
    """Two identical crawl-graph databases, one per distiller variant."""

    join_db: Database
    lookup_db: Database
    links: List[Link]
    relevance: Dict[int, float]


def build_distillation_fixture(
    seed: int = 7,
    buffer_pool_pages: int = 64,
    relevant_relevance: float = 0.9,
    background_relevance: float = 0.05,
) -> DistillationFixture:
    """Materialise a crawl graph (CRAWL + weighted LINK) into two databases."""
    web = SyntheticWebBuilder(distillation_web_config(seed)).build()
    relevant = web.relevant_pages([CYCLING])

    def relevance_of(url: str) -> float:
        return relevant_relevance if url in relevant else background_relevance

    links: List[Link] = []
    relevance: Dict[int, float] = {}
    crawl_rows = []
    for url in web.urls():
        page = web.page(url)
        relevance[page.oid] = relevance_of(url)
        crawl_rows.append(
            {
                "oid": page.oid,
                "url": url,
                "sid": page.sid,
                "relevance": relevance_of(url),
                "numtries": 1,
                "serverload": 0,
                "lastvisited": 1,
                "kcid": None,
                "status": "visited",
            }
        )
        for target in page.out_links:
            if not web.has_page(target):
                continue
            destination = web.page(target)
            links.append(
                Link(
                    oid_src=page.oid,
                    sid_src=page.sid,
                    oid_dst=destination.oid,
                    sid_dst=destination.sid,
                    wgt_fwd=relevance_of(target),
                    wgt_rev=relevance_of(url),
                )
            )

    def build_db() -> Database:
        database = Database(buffer_pool_pages=buffer_pool_pages)
        create_crawl_tables(database)
        database.table("CRAWL").insert_many(crawl_rows)
        database.table("LINK").insert_many(
            {
                "oid_src": link.oid_src,
                "sid_src": link.sid_src,
                "oid_dst": link.oid_dst,
                "sid_dst": link.sid_dst,
                "wgt_fwd": link.wgt_fwd,
                "wgt_rev": link.wgt_rev,
            }
            for link in links
        )
        return database

    return DistillationFixture(
        join_db=build_db(), lookup_db=build_db(), links=links, relevance=relevance
    )


@dataclass
class DistillationMeasurement:
    variant: str
    iterations: int
    wall_seconds: float
    scan_cost: float
    lookup_cost: float
    update_cost: float
    join_cost: float
    total_io_cost: float
    top_hub_oids: List[int]


@dataclass
class DistillationComparisonResult:
    join: DistillationMeasurement
    lookup: DistillationMeasurement

    def speedup(self) -> float:
        return self.lookup.total_io_cost / max(self.join.total_io_cost, 1e-12)

    def rankings_agree(self, k: int = 10) -> bool:
        return set(self.join.top_hub_oids[:k]) == set(self.lookup.top_hub_oids[:k])


def run_distillation_comparison(
    fixture: Optional[DistillationFixture] = None,
    iterations: int = 3,
    rho: float = 0.1,
    seed: int = 7,
) -> DistillationComparisonResult:
    """Figure 8(d): run both distiller variants over identical crawl graphs."""
    fixture = fixture or build_distillation_fixture(seed=seed)
    measurements = {}
    for variant, database in (("join", fixture.join_db), ("lookup", fixture.lookup_db)):
        database.clear_cache()
        database.reset_stats()
        distiller_cls = JoinDistiller if variant == "join" else IndexLookupDistiller
        distiller = distiller_cls(database, rho=rho)
        start = time.perf_counter()
        result = distiller.run(iterations=iterations)
        wall = time.perf_counter() - start
        measurements[variant] = DistillationMeasurement(
            variant=variant,
            iterations=iterations,
            wall_seconds=wall,
            scan_cost=distiller.cost.scan_cost,
            lookup_cost=distiller.cost.lookup_cost,
            update_cost=distiller.cost.update_cost,
            join_cost=distiller.cost.join_cost,
            total_io_cost=database.stats.simulated_cost(),
            top_hub_oids=[oid for oid, _ in result.top_hubs(20)],
        )
    return DistillationComparisonResult(join=measurements["join"], lookup=measurements["lookup"])


def reference_distillation(fixture: DistillationFixture, iterations: int = 3, rho: float = 0.1):
    """The in-memory reference scores for the fixture (used by agreement tests)."""
    return weighted_hits(fixture.links, fixture.relevance, rho=rho, max_iterations=iterations)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def print_report(
    comparison: ClassifierComparisonResult,
    memory_points: Sequence[MemoryScalingPoint],
    output_points: Sequence[OutputScalingPoint],
    distillation: DistillationComparisonResult,
) -> List[str]:
    """All four Figure 8 panels as printable rows."""
    lines = ["# Figure 8(a): classification relative time (simulated I/O cost)"]
    lines.append(f"{'variant':>8}  {'doc scan':>9}  {'probe/join':>10}  {'total':>10}  {'wall s':>8}")
    for name, label in (("sql", "SQL"), ("blob", "BLOB"), ("bulk", "CLI")):
        m = comparison.measurements[name]
        lines.append(
            f"{label:>8}  {m.doc_scan_cost:>9.1f}  {m.probe_cost:>10.1f}"
            f"  {m.total_io_cost:>10.1f}  {m.wall_seconds:>8.3f}"
        )
    lines.append(f"bulk vs SQL speedup: {comparison.speedup('sql', 'bulk'):.1f}x")

    lines.append("")
    lines.append("# Figure 8(b): memory scaling (cost vs buffer pool pages)")
    lines.append(f"{'pages':>7}  {'SingleProbe':>12}  {'BulkProbe':>10}")
    for point in memory_points:
        lines.append(
            f"{point.buffer_pool_pages:>7}  {point.single_probe_cost:>12.1f}  {point.bulk_probe_cost:>10.1f}"
        )

    lines.append("")
    lines.append("# Figure 8(c): BulkProbe cost vs output size |children|x|docs|")
    lines.append(f"{'output':>8}  {'cost':>10}")
    for point in sorted(output_points, key=lambda p: p.output_size):
        lines.append(f"{point.output_size:>8}  {point.bulk_cost:>10.2f}")
    lines.append(f"correlation(output size, cost) = {output_scaling_correlation(output_points):.3f}")

    lines.append("")
    lines.append("# Figure 8(d): distillation relative time")
    lines.append(f"{'variant':>8}  {'scan':>8}  {'lookup':>8}  {'update':>8}  {'join':>8}  {'total':>9}  {'wall s':>8}")
    for m in (distillation.lookup, distillation.join):
        lines.append(
            f"{m.variant:>8}  {m.scan_cost:>8.1f}  {m.lookup_cost:>8.1f}  {m.update_cost:>8.1f}"
            f"  {m.join_cost:>8.1f}  {m.total_io_cost:>9.1f}  {m.wall_seconds:>8.3f}"
        )
    lines.append(f"join vs lookup speedup: {distillation.speedup():.1f}x")
    return lines
