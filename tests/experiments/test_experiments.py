"""Smoke and shape tests for the experiment harness (scaled-down parameters).

The benchmarks in ``benchmarks/`` run the full-size experiments; these
tests run miniature versions so the whole pipeline — workload building,
crawling, measurement, report printing — is exercised in the unit-test
suite within a few tens of seconds.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import fig5_harvest, fig6_coverage, fig7_distance, fig8_io, workloads
from repro.classifier.bulk_probe import DOCLEN_SQL, PARTIAL_SQL
from repro.classifier.training import stat_table_name
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


def _nine(value):
    """A float as pinned: 9 decimals, summation-order noise dropped."""
    return round(float(value), 9)


def _series_digest(points):
    """sha256 over the ``repr`` of a series of tuples, every float to 9 decimals."""
    rounded = [
        tuple(_nine(value) if isinstance(value, float) else value for value in point)
        for point in points
    ]
    return hashlib.sha256(repr(rounded).encode()).hexdigest()


class TestFig5:
    """Figure 5's shape, and the series it reads at these sizes (pinned at commit 99f7bd0)."""

    @pytest.fixture(scope="class")
    def harvest(self, tiny_workload):
        return fig5_harvest.run_harvest_experiment(
            workload=tiny_workload, max_pages=250, window=50
        )

    @pytest.fixture(scope="class")
    def stagnation(self):
        return fig5_harvest.run_stagnation_experiment(seed=5, scale=0.25, max_pages=150)

    def test_harvest_experiment_shape(self, harvest):
        result = harvest
        # The focused crawler must beat the unfocused baseline overall and
        # especially over the tail of the crawl (the paper's Figure 5 claim).
        assert result.focused_average > result.unfocused_average
        assert result.tail_advantage() > 1.5
        report = fig5_harvest.print_report(result, every=50)
        assert any("average" in line for line in report)

    def test_harvest_series_are_pinned(self, harvest):
        assert (len(harvest.focused_series), len(harvest.unfocused_series)) == (250, 250)
        assert _series_digest(harvest.focused_series) == (
            "cbd68fa7a8cfed7f9c79dd683c778071d016d55034d43af88b65095105ec7589"
        )
        assert _series_digest(harvest.unfocused_series) == (
            "082dbf1ddb43632d22adba2038658600503d1288f4bb635d3adc168b2e3e236c"
        )
        averages = (
            harvest.focused_average,
            harvest.unfocused_average,
            harvest.focused_tail_average,
            harvest.unfocused_tail_average,
        )
        assert tuple(map(_nine, averages)) == (0.534614125, 0.36106629, 0.452643246, 0.192051944)

    def test_stagnation_experiment_improves_after_fix(self, stagnation):
        assert stagnation.improved
        assert stagnation.after_harvest > stagnation.before_harvest

    def test_stagnation_episode_is_pinned(self, stagnation):
        assert (
            _nine(stagnation.before_harvest),
            stagnation.before_dominant_topic,
            _nine(stagnation.after_harvest),
        ) == (0.460541979, "mutual_funds", 0.576285625)


class TestFig6:
    @pytest.fixture(scope="class")
    def coverage(self, tiny_workload):
        return fig6_coverage.run_coverage_experiment(
            workload=tiny_workload, reference_pages=220, test_pages=220, seed_size=10
        )

    def test_coverage_experiment_shape(self, coverage):
        result = coverage
        assert 0.3 < result.final_url_coverage <= 1.0
        assert result.final_server_coverage >= result.final_url_coverage * 0.8
        coverages = [p.url_coverage for p in result.points]
        assert coverages == sorted(coverages)
        assert fig6_coverage.print_report(result)

    def test_coverage_curve_is_pinned(self, coverage):
        """Pinned at commit 99f7bd0: counts exactly, coverages to 9 decimals."""
        points = [(p.pages_crawled, p.url_coverage, p.server_coverage) for p in coverage.points]
        assert (len(points), coverage.reference_relevant_urls) == (220, 114)
        assert _series_digest(points) == (
            "5df0964ad66d92dbfbbfcf3b9f6a1c76bcc9d0c0c9c3e191a3fc023fd62ee125"
        )
        assert (_nine(coverage.final_url_coverage), _nine(coverage.final_server_coverage)) == (
            0.973684211,
            1.0,
        )

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
    @pytest.fixture(scope="class")
    def distance(self, tiny_workload):
        return fig7_distance.run_distance_experiment(
            workload=tiny_workload, max_pages=250, top_authorities=50
        )

    def test_distance_experiment_shape(self, distance):
        result = distance
        assert sum(result.histogram.values()) == 50
        # At this miniature scale the community is small, so we only check
        # that exploration went beyond the seeds themselves; the full-size
        # Figure 7 shape (distances of 4+ links) is asserted by
        # benchmarks/bench_fig7_distance.py.
        assert result.max_distance >= 2
        assert result.mass_beyond_two >= 0.0
        assert result.top_hubs
        assert fig7_distance.print_report(result)

    def test_distance_histogram_is_pinned(self, distance):
        """Pinned at commit 99f7bd0: the top-50 authorities by seed distance."""
        assert distance.histogram == {0: 9, 1: 19, 2: 6, 3: 4, 4: 1, 5: 1, 6: 9, 7: 1}
        assert (distance.max_distance, _nine(distance.mass_beyond_two)) == (7, 0.32)


def _cost(value):
    """A simulated-I/O cost as pinned: whole 0.01 units, float noise dropped."""
    return round(value, 6)


def _relevance_digest(relevance_by_did):
    """sha256 over the ``repr`` of every (did, relevance) pair, in did order."""
    return hashlib.sha256(repr(sorted(relevance_by_did.items())).encode()).hexdigest()


class TestFig8:
    """Figure 8's shapes, and the simulated I/O each panel reads at these sizes.

    The pins are exact: the buffer pool's cost model is deterministic, so
    a plan change that reads pages in another order shows up here first.
    """

    @pytest.fixture(scope="class")
    def classifier_fixture(self):
        return fig8_io.build_classifier_fixture(n_documents=40, buffer_pool_pages=48, seed=5)

    @pytest.fixture(scope="class")
    def classifier_comparison(self, classifier_fixture):
        return fig8_io.run_classifier_comparison(fixture=classifier_fixture)

    @pytest.fixture(scope="class")
    def memory_points(self):
        return fig8_io.run_memory_scaling(pool_sizes=(16, 64, 256), n_documents=30, seed=5)

    @pytest.fixture(scope="class")
    def output_points(self):
        return fig8_io.run_output_scaling(document_counts=(10, 30, 60), seed=5)

    @pytest.fixture(scope="class")
    def distillation_comparison(self):
        fixture = fig8_io.build_distillation_fixture(seed=5, buffer_pool_pages=48)
        comparison = fig8_io.run_distillation_comparison(fixture=fixture, iterations=2)
        return fixture, comparison

    def test_bulk_probe_beats_single_probe(self, classifier_comparison):
        comparison = classifier_comparison
        assert comparison.speedup("sql", "bulk") > 1.5
        assert comparison.max_relevance_disagreement() < 1e-6
        sql = comparison.measurements["sql"]
        assert sql.probe_cost > 0 and sql.doc_scan_cost > 0

    @pytest.mark.parametrize(
        "variant, total, doc_scan, probe",
        [
            ("sql", 1091.41, 77.72, 1012.58),
            ("blob", 190.36, 65.72, 123.53),
            ("bulk", 39.51, 0.0, 37.39),
        ],
    )
    def test_classifier_io_is_pinned(self, classifier_comparison, variant, total, doc_scan, probe):
        measured = classifier_comparison.measurements[variant]
        assert (
            _cost(measured.total_io_cost),
            _cost(measured.doc_scan_cost),
            _cost(measured.probe_cost),
        ) == (total, doc_scan, probe)

    def test_bulk_relevances_are_pinned(self, classifier_comparison):
        bulk = classifier_comparison.measurements["bulk"].relevance_by_did
        assert len(bulk) == 40
        assert _relevance_digest(bulk) == (
            "1137c30911745b0de9bcb4a81eb7b45f120a7a31208bb4be4143dd08096f42dc"
        )

    def test_explain_shows_figure_3_plan(self, classifier_fixture):
        root = classifier_fixture.taxonomy.root.cid
        partial = PARTIAL_SQL.format(stat=stat_table_name(root))
        plan = classifier_fixture.database.explain(partial, {"c0": root})
        assert list(plan.lines) == [
            "Project([did, kcid, lpr1])",
            "  GroupByAggregate(keys=[did, kcid] aggs=[sum->__agg0])",
            f"    Filter((col('T.pcid') = lit({root})))",
            "      HashJoin(col('S.kcid')=col('T.kcid'))",
            "        HashJoin(col('S.tid')=col('D.tid'))",
            "          TableScan(S)",
            "          TableScan(D)",
            "        TableScan(T)",
        ]

    def test_explain_of_doclen_counts_the_subquery_values(self, classifier_fixture):
        database = classifier_fixture.database
        stat = stat_table_name(classifier_fixture.taxonomy.root.cid)
        lines = [row["plan"] for row in database.sql(f"explain {DOCLEN_SQL.format(stat=stat)}")]
        feature_tids = len(database.sql(f"select distinct tid from {stat}"))
        assert lines == [
            "Project([did, len])",
            "  GroupByAggregate(keys=[did] aggs=[sum->__agg0])",
            f"    Filter(col('tid') IN <{feature_tids} values>)",
            "      TableScan(DOCUMENT)",
        ]

    def test_memory_scaling_shape(self, memory_points):
        points = memory_points
        assert len(points) == 3
        single = [p.single_probe_cost for p in points]
        bulk = [p.bulk_probe_cost for p in points]
        # SingleProbe keeps improving with memory; BulkProbe needs little.
        assert single[0] > single[-1]
        assert bulk[0] >= bulk[-1]
        assert single[-1] > bulk[-1]

    def test_memory_scaling_io_is_pinned(self, memory_points):
        assert [
            (p.buffer_pool_pages, _cost(p.single_probe_cost), _cost(p.bulk_probe_cost))
            for p in memory_points
        ] == [(16, 552.64, 53.59), (64, 128.64, 22.59), (256, 124.04, 22.59)]

    def test_output_scaling_roughly_linear(self, output_points):
        assert fig8_io.output_scaling_correlation(output_points) > 0.6

    def test_output_scaling_io_is_pinned(self, output_points):
        assert [
            (p.documents, p.children, p.output_size, _cost(p.bulk_cost)) for p in output_points
        ] == [
            (10, 7, 70, 12.36),
            (10, 4, 40, 9.91),
            (30, 7, 210, 15.66),
            (30, 4, 120, 13.21),
            (60, 7, 420, 20.72),
            (60, 4, 240, 18.27),
        ]

    def test_distillation_join_beats_lookups(self, distillation_comparison):
        fixture, comparison = distillation_comparison
        assert comparison.speedup() > 1.5
        assert comparison.rankings_agree(k=5)
        reference = fig8_io.reference_distillation(fixture, iterations=2)
        top_reference = {oid for oid, _ in reference.top_hubs(5)}
        assert top_reference == set(comparison.join.top_hub_oids[:5])

    def test_distillation_io_is_pinned(self, distillation_comparison):
        _fixture, comparison = distillation_comparison
        breakdown = {
            m.variant: tuple(
                _cost(c)
                for c in (m.scan_cost, m.lookup_cost, m.update_cost, m.join_cost, m.total_io_cost)
            )
            for m in (comparison.join, comparison.lookup)
        }
        assert breakdown == {
            "join": (0.0, 1035.035795, 119.15, 678.194205, 2055.77),
            "lookup": (489.18, 27363.26, 0.06, 0.0, 28074.05),
        }


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
