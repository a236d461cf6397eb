"""Smoke test of the benchmark suite: every workload at a tenth of its size.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it with
``python -m pytest benchmarks/suite/test_suite_smoke.py``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path.insert(0, str(SUITE))

import metrics  # noqa: E402  (needs the path entry above)

MANIFEST = metrics.load_manifest()
WORKLOADS = [workload["name"] for workload in MANIFEST["workloads"]]


def run_quick(workload: str, trace: int, out: Path) -> tuple[dict, dict]:
    done = subprocess.run(
        [
            sys.executable, str(SUITE / "run.py"), "--quick", "--workload", workload,
            "--seed", "11", "--trace", str(trace), "--out", str(out),
        ],  # fmt: skip
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if done.returncode == 3:
        pytest.skip(f"{workload}: invalid_on_host ({done.stderr.strip()})")
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(entry["value"]), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload: str, tmp_path: Path) -> None:
    result, detail = run_quick(workload, 0, tmp_path)
    assert_metrics(result, MANIFEST["end_to_end"])
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, f"{name} must never be 0"
    assert detail["samples"]["failed_checks"] == []
    assert detail["host"]["seed"] == 11 and detail["host"]["nproc"] >= 1
    # Only the service has clients beside its crawls; nothing stands in for them elsewhere.
    clients = {"service.read_p50_ms", "service.read_p95_ms", "service.job_latency_p50_s"}
    assert set(detail["samples"]["also"]) == (clients if workload == "service_mix" else set())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_close_the_time_budget(workload: str, tmp_path: Path) -> None:
    result, detail = run_quick(workload, 1, tmp_path)
    assert_metrics(result, MANIFEST["per_layer"])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    samples = detail["samples"]
    # Stage times plus the unattributed share add up to the wall they were taken from.
    wall = statistics.median(samples["raw"]["run_s"])
    stages = sum(values[f"crawler.stage_{stage}_s"] for stage in ("fetch", "classify", "write", "distill"))
    assert stages + values["crawler.other_share"] * wall == pytest.approx(wall, rel=0.01)
    assert samples["negative_self_times"] == 0
    assert samples["spans_kept"] > 0 and samples["spans_dropped"] == 0
    spans = tmp_path / f"{workload}.seed11.spans.jsonl"
    header = json.loads(spans.read_text().splitlines()[0])
    assert header["kept"] == samples["spans_kept"]
    assert values["crawler.rounds"] > 0 and values["trace.overhead_ratio"] > 0


def test_manifest_matches_the_suite() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import workloads

    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert run.default_seconds() == MANIFEST["run_seconds"]
    assert [w["why"] for w in MANIFEST["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == list(
        metrics.PER_LAYER
    )
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def test_stop_processes_leaves_none_behind() -> None:
    """A spawned worker an exception left alive, and the resource tracker spawning starts."""
    import multiprocessing
    import time
    from multiprocessing import resource_tracker

    import run

    worker = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,), daemon=True)
    worker.start()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None and worker.is_alive()
    run.stop_processes()
    assert not worker.is_alive() and multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ProcessLookupError):  # ended and waited for: no such process any more
        os.kill(tracker, 0)


def result_set(values: dict[str, list[float]]) -> dict:
    """A result set with one workload and the given runs of each metric."""
    runs = max(len(series) for series in values.values())
    return {
        "runs": [
            {
                "seed": index,
                "workloads": {
                    "crawl_mem": {
                        "metrics": {
                            name: {"value": series[index], "unit": ""}
                            for name, series in values.items()
                        }
                    }
                }
            }
            for index in range(runs)
        ]
    }


def test_compare_verdicts() -> None:
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    before = result_set({"pages_per_s": steady, "service.read_p95_ms": [10, 15, 5, 20, 10]})
    after = result_set(
        {"pages_per_s": [value * 0.7 for value in steady], "service.read_p95_ms": [11, 16, 6, 21, 11]}
    )
    verdicts = {row["metric"]: row["verdict"] for row in metrics.compare(before, after, MANIFEST)}
    assert verdicts == {"pages_per_s": "regressed", "service.read_p95_ms": "unresolved"}
    same = {row["metric"]: row["verdict"] for row in metrics.compare(before, before, MANIFEST)}
    assert same["pages_per_s"] == "ok"
    # Wide spread, but every run of "after" beats every run of "before": resolved.
    faster = result_set({"service.read_p95_ms": [1, 2, 1, 2, 1]})
    assert metrics.compare(before, faster, MANIFEST)[0]["verdict"] == "ok"


def test_compare_pairs_deterministic_metrics_by_seed() -> None:
    """Their spread over seeds is not noise, and any difference at all is a verdict."""
    by_seed = {
        "harvest_rate": [0.2, 0.4, 0.6, 0.8, 1.0],
        "minidb.wal_bytes_per_page": [1400.0, 1450.0, 1500.0, 1550.0, 1600.0],
    }

    def verdicts(**changed: list) -> dict:
        rows = metrics.compare(result_set(by_seed), result_set({**by_seed, **changed}), MANIFEST)
        return {row["metric"]: row["verdict"] for row in rows}

    assert set(verdicts().values()) == {"ok"}
    # A loss far inside the 25 % that medians over different seeds are allowed.
    assert verdicts(harvest_rate=[0.2, 0.4, 0.6, 0.8, 0.999])["harvest_rate"] == "regressed"
    assert verdicts(harvest_rate=[0.2, 0.4, 0.6, 0.8, 1.001])["harvest_rate"] == "changed"
    sizes = "minidb.wal_bytes_per_page"
    assert verdicts(**{sizes: [1400.0, 1450.0, 1500.0, 1550.0, 1610.0]})[sizes] == "changed"
    assert verdicts(**{sizes: [1400.0, 1450.0, 1500.0, 1550.0, 1650.0]})[sizes] == "regressed"


def test_compare_exit_code(tmp_path: Path) -> None:
    import run

    before = result_set({"harvest_rate": [0.5, 0.6, 0.7], "pages_per_s": [100.0, 101.0, 99.0]})
    drifted = result_set({"harvest_rate": [0.5, 0.6, 0.7001], "pages_per_s": [100.0, 101.0, 99.0]})
    paths = []
    for name, content in (("a", before), ("b", drifted)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(content))
    assert run.run_compare(str(paths[0]), str(paths[0])) == 0
    assert run.run_compare(str(paths[0]), str(paths[1])) == 1
