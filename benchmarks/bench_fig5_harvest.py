"""Figure 5 benchmark: harvest rate of the focused crawler vs. the unfocused baseline.

Regenerates both panels of paper Figure 5.  The timed quantity is one
full crawl; the harvest-rate series and averages are attached as
``extra_info`` and asserted to have the paper's shape (the focused
crawler sustains its harvest rate, the unfocused baseline decays).

The focused panel honours the ``--batch`` sweep option, so the batched
engine's harvest can be compared against serial::

    pytest benchmarks/bench_fig5_harvest.py --batch 8
"""

import pytest

from repro.core import metrics


@pytest.mark.benchmark(group="fig5-harvest")
def test_fig5_focused_crawl_harvest(
    benchmark, crawl_workload, bench_crawl_pages, engine_crawler_config
):
    BENCH_CRAWL_PAGES = bench_crawl_pages
    system = crawl_workload.system
    seeds = system.default_seeds()

    def run_focused():
        return system.crawl(
            max_pages=BENCH_CRAWL_PAGES, seeds=seeds, crawler_config=engine_crawler_config
        )

    result = benchmark.pedantic(run_focused, rounds=1, iterations=1)
    harvest = result.harvest_rate()
    tail = metrics.average_harvest_rate(result.trace, skip_first=BENCH_CRAWL_PAGES // 2)
    benchmark.extra_info["pages_fetched"] = result.pages_fetched()
    benchmark.extra_info["average_harvest_rate"] = round(harvest, 4)
    benchmark.extra_info["tail_harvest_rate"] = round(tail, 4)
    benchmark.extra_info["ground_truth_precision"] = round(result.ground_truth_precision(), 4)
    benchmark.extra_info["batch_size"] = engine_crawler_config.batch_size
    # Paper: "on an average, every second page is relevant" — we accept the
    # same order of magnitude at simulation scale.
    assert harvest > 0.25
    assert tail > 0.15


@pytest.mark.benchmark(group="fig5-harvest")
def test_fig5_unfocused_crawl_decays(benchmark, crawl_workload, bench_crawl_pages):
    BENCH_CRAWL_PAGES = bench_crawl_pages
    system = crawl_workload.system
    seeds = system.default_seeds()

    def run_unfocused():
        return system.crawl(max_pages=BENCH_CRAWL_PAGES, seeds=seeds, focused=False)

    result = benchmark.pedantic(run_unfocused, rounds=1, iterations=1)
    series = metrics.harvest_series(result.trace, window=100)
    early = series[min(99, len(series) - 1)][1]
    late = metrics.average_harvest_rate(result.trace, skip_first=BENCH_CRAWL_PAGES // 2)
    benchmark.extra_info["average_harvest_rate"] = round(result.harvest_rate(), 4)
    benchmark.extra_info["harvest_at_100"] = round(early, 4)
    benchmark.extra_info["tail_harvest_rate"] = round(late, 4)
    # Paper: the standard crawler "is completely lost within the next hundred
    # page fetches: the relevance goes quickly toward zero."
    assert early > 0.4          # it starts out fine (same seeds)...
    assert late < early * 0.6   # ...and then loses its way.


@pytest.mark.benchmark(group="fig5-harvest")
def test_fig5_stagnation_fix(benchmark):
    """The §3.7 mutual-funds anecdote: marking the parent topic good recovers the crawl."""
    from repro.experiments.fig5_harvest import run_stagnation_experiment

    result = benchmark.pedantic(
        lambda: run_stagnation_experiment(seed=7, scale=0.3, max_pages=250),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["harvest_before_fix"] = round(result.before_harvest, 4)
    benchmark.extra_info["harvest_after_fix"] = round(result.after_harvest, 4)
    benchmark.extra_info["dominant_topic_before_fix"] = result.before_dominant_topic
    assert result.improved
