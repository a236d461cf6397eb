"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's figures and quantify how much each design
ingredient contributes:

* soft vs. hard focus rule (the paper states hard focus tends to stagnate),
* relevance-weighted vs. unweighted HITS edges (prestige leakage to
  universally popular off-topic pages),
* frontier ordering components (aggressive discovery vs. pure relevance
  vs. breadth-first).
"""

import pytest

from repro.crawler.focused import CrawlerConfig
from repro.crawler.policies import aggressive_discovery, breadth_first, relevance_only
from repro.distiller.hits import weighted_hits

CRAWL_PAGES = 400


@pytest.mark.benchmark(group="ablation-focus-rule")
@pytest.mark.parametrize("focus_mode", ["soft", "hard", "none"])
def test_ablation_focus_rule(benchmark, crawl_workload, focus_mode):
    """Soft focus should match or beat hard focus on harvest without stagnating."""
    system = crawl_workload.system
    seeds = system.default_seeds()
    config = CrawlerConfig(max_pages=CRAWL_PAGES, focus_mode=focus_mode, distill_every=200)

    result = benchmark.pedantic(
        lambda: system.crawl(max_pages=CRAWL_PAGES, seeds=seeds, crawler_config=config,
                             focused=focus_mode != "none"),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["focus_mode"] = focus_mode
    benchmark.extra_info["harvest_rate"] = round(result.harvest_rate(), 4)
    benchmark.extra_info["pages_fetched"] = result.pages_fetched()
    benchmark.extra_info["stagnated"] = result.trace.stagnated
    if focus_mode == "soft":
        assert not result.trace.stagnated
        assert result.harvest_rate() > 0.25


@pytest.mark.benchmark(group="ablation-edge-weights")
def test_ablation_relevance_weighted_edges(benchmark, crawl_workload):
    """Relevance weighting must demote off-topic 'popular site' authorities."""
    system = crawl_workload.system
    web = crawl_workload.web
    result = system.crawl(max_pages=CRAWL_PAGES)
    crawler = result.crawler
    links = crawler._links_from_table()
    relevance = crawler.engine.relevance_map()
    popular_oids = {web.page(u).oid for u in web.urls() if web.page(u).is_popular}

    def run_both():
        weighted = weighted_hits(links, relevance, rho=0.05, max_iterations=10)
        unweighted = weighted_hits(
            links, relevance, rho=0.05, max_iterations=10, use_relevance_weights=False
        )
        return weighted, unweighted

    weighted, unweighted = benchmark.pedantic(run_both, rounds=1, iterations=1)

    def popular_mass(distillation):
        return sum(
            score for oid, score in distillation.authority_scores.items() if oid in popular_oids
        )

    weighted_mass = popular_mass(weighted)
    unweighted_mass = popular_mass(unweighted)
    benchmark.extra_info["popular_authority_mass_weighted"] = round(weighted_mass, 5)
    benchmark.extra_info["popular_authority_mass_unweighted"] = round(unweighted_mass, 5)
    # Prestige leaks to off-topic popular pages without relevance weighting.
    assert weighted_mass <= unweighted_mass + 1e-9


@pytest.mark.benchmark(group="ablation-frontier")
@pytest.mark.parametrize(
    "ordering_name", ["aggressive_discovery", "relevance_only", "breadth_first"]
)
def test_ablation_frontier_ordering(benchmark, crawl_workload, ordering_name):
    """Compare crawl orderings; relevance-driven orderings must beat breadth-first."""
    orderings = {
        "aggressive_discovery": aggressive_discovery(),
        "relevance_only": relevance_only(),
        "breadth_first": breadth_first(),
    }
    system = crawl_workload.system
    seeds = system.default_seeds()
    config = CrawlerConfig(
        max_pages=CRAWL_PAGES, ordering=orderings[ordering_name], distill_every=200
    )
    result = benchmark.pedantic(
        lambda: system.crawl(max_pages=CRAWL_PAGES, seeds=seeds, crawler_config=config),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["ordering"] = ordering_name
    benchmark.extra_info["harvest_rate"] = round(result.harvest_rate(), 4)
    if ordering_name != "breadth_first":
        assert result.harvest_rate() > 0.25
