"""Smoke and shape tests for the experiment harness (scaled-down parameters).

The benchmarks in ``benchmarks/`` run the full-size experiments; these
tests run miniature versions so the whole pipeline — workload building,
crawling, measurement, report printing — is exercised in the unit-test
suite within a few tens of seconds.
"""

import numpy as np
import pytest

from repro.experiments import fig5_harvest, fig6_coverage, fig7_distance, fig8_io, workloads
from repro.experiments import runner
from repro.experiments.runner import run_experiments


@pytest.fixture(scope="module")
def tiny_workload():
    return workloads.build_crawl_workload(seed=3, scale=0.25, max_pages=250)


class TestWorkloads:
    def test_crawl_web_config_scales(self):
        small = workloads.crawl_web_config(scale=0.2)
        full = workloads.crawl_web_config(scale=1.0)
        assert small.background_pages < full.background_pages
        assert small.topic_page_overrides[workloads.CYCLING] < full.topic_page_overrides[workloads.CYCLING]

    def test_workload_builds_trained_system(self, tiny_workload):
        assert tiny_workload.system.model is not None
        assert len(tiny_workload.web) > 500
        assert tiny_workload.good_topic == workloads.CYCLING


class TestFig5:
    def test_harvest_experiment_shape(self, tiny_workload):
        result = fig5_harvest.run_harvest_experiment(
            workload=tiny_workload, max_pages=250, window=50
        )
        # The focused crawler must beat the unfocused baseline overall and
        # especially over the tail of the crawl (the paper's Figure 5 claim).
        assert result.focused_average > result.unfocused_average
        assert result.tail_advantage() > 1.5
        report = fig5_harvest.print_report(result, every=50)
        assert any("average" in line for line in report)

    def test_stagnation_experiment_improves_after_fix(self):
        result = fig5_harvest.run_stagnation_experiment(seed=5, scale=0.25, max_pages=150)
        assert result.improved
        assert result.after_harvest > result.before_harvest


class TestFig6:
    def test_coverage_experiment_shape(self, tiny_workload):
        result = fig6_coverage.run_coverage_experiment(
            workload=tiny_workload, reference_pages=220, test_pages=220, seed_size=10
        )
        assert 0.3 < result.final_url_coverage <= 1.0
        assert result.final_server_coverage >= result.final_url_coverage * 0.8
        coverages = [p.url_coverage for p in result.points]
        assert coverages == sorted(coverages)
        assert fig6_coverage.print_report(result)

    def test_db_reference_set_equals_trace_reference_set(self, tiny_workload):
        # The experiment reads the relevant set from the CRAWL table; the
        # trace-walk twin must produce the exact same URLs (visit-time
        # relevance is what the store records).
        from repro.core import metrics

        result = fig6_coverage.run_coverage_experiment(
            workload=tiny_workload, reference_pages=150, test_pages=60, seed_size=10
        )
        threshold = float(np.exp(-1.0))
        from_trace = metrics.relevant_reference_set(
            result.reference_result.trace, threshold
        )
        from_db = metrics.relevant_reference_set_db(
            result.reference_result.database, threshold
        )
        assert from_db == from_trace
        assert len(from_db) == result.reference_relevant_urls


class TestFig7:
    def test_distance_experiment_shape(self, tiny_workload):
        result = fig7_distance.run_distance_experiment(
            workload=tiny_workload, max_pages=250, top_authorities=50
        )
        assert sum(result.histogram.values()) == 50
        # At this miniature scale the community is small, so we only check
        # that exploration went beyond the seeds themselves; the full-size
        # Figure 7 shape (distances of 4+ links) is asserted by
        # benchmarks/bench_fig7_distance.py.
        assert result.max_distance >= 2
        assert result.mass_beyond_two >= 0.0
        assert result.top_hubs
        assert fig7_distance.print_report(result)


class TestFig8:
    @pytest.fixture(scope="class")
    def classifier_fixture(self):
        return fig8_io.build_classifier_fixture(n_documents=40, buffer_pool_pages=48, seed=5)

    def test_bulk_probe_beats_single_probe(self, classifier_fixture):
        comparison = fig8_io.run_classifier_comparison(fixture=classifier_fixture)
        assert comparison.speedup("sql", "bulk") > 1.5
        assert comparison.max_relevance_disagreement() < 1e-6
        sql = comparison.measurements["sql"]
        assert sql.probe_cost > 0 and sql.doc_scan_cost > 0

    def test_memory_scaling_shape(self):
        points = fig8_io.run_memory_scaling(pool_sizes=(16, 64, 256), n_documents=30, seed=5)
        assert len(points) == 3
        single = [p.single_probe_cost for p in points]
        bulk = [p.bulk_probe_cost for p in points]
        # SingleProbe keeps improving with memory; BulkProbe needs little.
        assert single[0] > single[-1]
        assert bulk[0] >= bulk[-1]
        assert single[-1] > bulk[-1]

    def test_output_scaling_roughly_linear(self):
        points = fig8_io.run_output_scaling(document_counts=(10, 30, 60), seed=5)
        assert fig8_io.output_scaling_correlation(points) > 0.6

    def test_distillation_join_beats_lookups(self):
        fixture = fig8_io.build_distillation_fixture(seed=5, buffer_pool_pages=48)
        comparison = fig8_io.run_distillation_comparison(fixture=fixture, iterations=2)
        assert comparison.speedup() > 1.5
        assert comparison.rankings_agree(k=5)
        reference = fig8_io.reference_distillation(fixture, iterations=2)
        top_reference = {oid for oid, _ in reference.top_hubs(5)}
        assert top_reference == set(comparison.join.top_hub_oids[:5])


class TestRunner:
    def test_runner_produces_report_lines(self):
        lines = run_experiments(["stagnation"], seed=5, scale=0.2)
        assert any("stagnation" in line or "harvest" in line for line in lines)

    def test_command_line_without_arguments_runs_everything(self, monkeypatch):
        calls = []
        monkeypatch.setattr(runner, "run_experiments", lambda *args: calls.append(args) or [])
        assert runner.main([]) == 0
        assert runner.main(["fig8", "--scale", "0.5"]) == 0
        assert calls == [(runner.ALL_EXPERIMENTS, 7, 1.0), (["fig8"], 7, 0.5)]

    def test_command_line_refuses_an_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["fig9"])
        assert exit_info.value.code == 2
        assert "unknown experiment 'fig9'" in capsys.readouterr().err
