"""Metric definitions, the host block, and the comparison gate.

``BENCHMARK.json`` at the repository root is the contract later changes
are judged by; the tables here are the same names in code, so the suite
can check that every run prints every one of them.  ``compare`` is the
one function that applies the bounds to two result sets.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = ROOT / "BENCHMARK.json"

#: (name, unit, better, bound) — printed by every workload with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pages_per_s", "pages/s", "higher", 0.25),
    ("harvest_rate", "ratio", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: Same seed, same value: ``compare`` pairs their runs by seed, and a pair
#: that differs at all is at least ``changed``.
DETERMINISTIC = ("harvest_rate", "minidb.wal_bytes_per_page", "minidb.disk_bytes_per_page")

#: The share by which a seed pair of ``harvest_rate`` may get worse before
#: it is a regression.  Its 25 % in ``END_TO_END`` is for a reader who
#: compares medians over *different* seeds (the contract's driver): that
#: bound only has to clear the spread between seeds.
PAIRED_BOUNDS = {"harvest_rate": 1e-9}

#: Per-layer metrics the suite's own gate bounds although the contract
#: gives per-layer metrics none: they are end-to-end costs of one workload
#: (zero elsewhere, so they cannot sit in ``END_TO_END``).
LAYER_BOUNDS = {
    "minidb.wal_bytes_per_page": 0.02,
    "minidb.disk_bytes_per_page": 0.02,
    "service.read_p50_ms": 0.25,
    "service.read_p95_ms": 0.25,
    "service.job_latency_p50_s": 0.20,
}

#: (name, unit, better) — printed by every workload in a traced run; a
#: layer the workload does not execute reads 0.
PER_LAYER = (
    ("trace.overhead_ratio", "ratio", "lower"),
    # classifier
    ("classifier.tokenize_s", "s", "lower"),
    ("classifier.classify_s", "s", "lower"),
    ("classifier.docs", "count", "lower"),
    ("classifier.us_per_doc", "us", "lower"),
    ("classifier.cache_hit_ratio", "ratio", "higher"),
    ("classifier.train_s", "s", "lower"),
    # distiller
    ("distiller.hits_s", "s", "lower"),
    ("distiller.runs", "count", "lower"),
    ("distiller.edges", "count", "lower"),
    ("distiller.ns_per_edge_iter", "ns", "lower"),
    # crawler: engine stages, rounds, frontier, pipeline, shard fleet
    ("crawler.stage_fetch_s", "s", "lower"),
    ("crawler.stage_classify_s", "s", "lower"),
    ("crawler.stage_write_s", "s", "lower"),
    ("crawler.stage_distill_s", "s", "lower"),
    ("crawler.other_share", "ratio", "lower"),
    ("crawler.rounds", "count", "lower"),
    ("crawler.round_p50_ms", "ms", "lower"),
    ("crawler.round_p95_ms", "ms", "lower"),
    ("crawler.frontier_push_s", "s", "lower"),
    ("crawler.frontier_pop_s", "s", "lower"),
    ("crawler.frontier_pushes", "count", "lower"),
    ("crawler.frontier_pops", "count", "lower"),
    ("crawler.fetch_overlap_ratio", "ratio", "higher"),
    ("crawler.prefetch_stale_ratio", "ratio", "lower"),
    ("crawler.spawn_s", "s", "lower"),
    ("crawler.handoff_s", "s", "lower"),
    ("crawler.handoff_msgs", "count", "lower"),
    # webgraph: transports, web build, parsers
    ("webgraph.fetch_s", "s", "lower"),
    ("webgraph.fetch_calls", "count", "lower"),
    ("webgraph.fetch_failed", "count", "lower"),
    ("webgraph.injected_latency_s", "s", "lower"),
    ("webgraph.straggler_rounds", "count", "lower"),
    ("webgraph.build_s", "s", "lower"),
    ("webgraph.parse_html_us_per_kb", "us", "lower"),
    ("webgraph.cassette_decode_mb_s", "MB/s", "higher"),
    # minidb: write path, buffer pool
    ("minidb.insert_s", "s", "lower"),
    ("minidb.insert_rows", "count", "lower"),
    ("minidb.update_s", "s", "lower"),
    ("minidb.update_rows", "count", "lower"),
    ("minidb.lookup_s", "s", "lower"),
    ("minidb.lookups", "count", "lower"),
    ("minidb.buffer_hit_ratio", "ratio", "higher"),
    ("minidb.pages_read", "count", "lower"),
    # minidb: durability
    ("minidb.wal_append_s", "s", "lower"),
    ("minidb.wal_sync_s", "s", "lower"),
    ("minidb.wal_bytes", "bytes", "lower"),
    ("minidb.wal_fsyncs", "count", "lower"),
    ("minidb.pages_flushed", "count", "lower"),
    ("minidb.checkpoints", "count", "lower"),
    ("minidb.checkpoint_pause_s", "s", "lower"),
    ("minidb.checkpoint_pause_max_ms", "ms", "lower"),
    ("minidb.segment_bytes_live", "bytes", "lower"),
    ("minidb.segment_bytes_dead", "bytes", "lower"),
    ("minidb.bytes_reclaimed", "bytes", "higher"),
    ("minidb.compactions", "count", "lower"),
    ("minidb.wal_bytes_per_page", "bytes", "lower"),
    ("minidb.disk_bytes_per_page", "bytes", "lower"),
    ("minidb.recovery_s", "s", "lower"),
    # minidb: reads
    ("minidb.sql_agg_ms", "ms", "lower"),
    ("minidb.sql_reach_ms", "ms", "lower"),
    ("minidb.sql_join_ms", "ms", "lower"),
    ("minidb.sql_harvest_ms", "ms", "lower"),
    ("minidb.plan_compile_us", "us", "lower"),
    # core: job lifecycle
    ("core.start_s", "s", "lower"),
    ("core.resume_s", "s", "lower"),
    ("core.checkpoint_save_s", "s", "lower"),
    # service
    ("service.step_s", "s", "lower"),
    ("service.steps", "count", "lower"),
    ("service.read_direct_p50_ms", "ms", "lower"),
    ("service.http_overhead_ms", "ms", "lower"),
    ("service.reads_per_s", "1/s", "higher"),
    ("service.pool_waits", "count", "lower"),
    ("service.pool_peak_inflight", "count", "lower"),
    ("service.client_think_ms", "ms", "lower"),
    # service: what its clients saw (untraced repeats)
    ("service.read_p50_ms", "ms", "lower"),
    ("service.read_p95_ms", "ms", "lower"),
    ("service.job_latency_p50_s", "s", "lower"),
)


# -- statistics ---------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[min(len(ordered) - 1, int(fraction * len(ordered)))])


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else 0.0


# -- host ---------------------------------------------------------------------------
def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def git_sha() -> str:
    """HEAD of the repository, or ``unknown`` (the driver's checkout is no repository)."""
    # The ceiling keeps git from looking for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def host_block(seed: int, repeats: int, sizes: Dict[str, Any], cleared: Dict[str, str]) -> dict:
    import numpy

    return {
        "nproc": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "seed": seed,
        "repeats": repeats,
        "sizes": sizes,
        "cleared_env": cleared,
        "argv": sys.argv[1:],
    }


# -- the gate -----------------------------------------------------------------------
def load_manifest(path: Path = MANIFEST) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _bounds(manifest: dict) -> Dict[str, tuple]:
    """``metric -> (better, bound)`` for every metric the gate judges."""
    bounds = {m["name"]: (m["better"], m["bound"]) for m in manifest["end_to_end"]}
    for metric in manifest["per_layer"]:
        if metric["name"] in LAYER_BOUNDS:
            bounds[metric["name"]] = (metric["better"], LAYER_BOUNDS[metric["name"]])
    return bounds


def _values(result_set: dict, workload: str, metric: str) -> Dict[Any, float]:
    """``seed -> value`` over the runs of a result set (run index where no seed is recorded)."""
    values = {}
    for index, run in enumerate(result_set["runs"]):
        entry = run["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if entry is not None:
            values[run.get("seed", index)] = entry["value"]
    return values


def _worse(sign: float, was: float, now: float) -> float:
    """By what share of *was* the value got worse (*sign* +1: lower is better)."""
    return sign * (now - was) / abs(was) if was else float("inf")


def compare(before: dict, after: dict, manifest: Optional[dict] = None) -> List[dict]:
    """Judge *after* against *before*: one row per (metric, workload).

    ``regressed``: the median got worse by more than the metric's bound.
    ``unresolved``: either side's run-to-run spread is wider than the
    bound (or a side has fewer than three runs, so its spread is unknown
    and a worse median proves nothing) — unless every run of *after*
    reads better than every run of *before*.  ``ok`` otherwise.  A metric
    declared deterministic is a function of the seed, so its runs are
    paired by seed and its spread is not noise: ``regressed`` if the worst
    pair got worse by more than the bound (``PAIRED_BOUNDS`` overrides it),
    ``changed`` if any pair differs at all, ``ok`` only if every pair is
    identical.
    """
    manifest = manifest or load_manifest()
    rows = []
    for workload in (w["name"] for w in manifest["workloads"]):
        for metric, (better, bound) in _bounds(manifest).items():
            by_seed_old = _values(before, workload, metric)
            by_seed_new = _values(after, workload, metric)
            old, new = list(by_seed_old.values()), list(by_seed_new.values())
            if not old or not new:
                continue
            old_mid, new_mid = median(old), median(new)
            if not old_mid and not new_mid:
                continue  # a layer this workload does not execute
            sign = 1.0 if better == "lower" else -1.0
            worse_by = _worse(sign, old_mid, new_mid)
            widest = max(spread(old), spread(new))
            pairs = [(by_seed_old[seed], by_seed_new[seed]) for seed in by_seed_old if seed in by_seed_new]
            if metric in DETERMINISTIC and pairs:
                bound = PAIRED_BOUNDS.get(metric, bound)
                worse_by = max(_worse(sign, was, now) for was, now in pairs)
                if worse_by > bound:
                    verdict = "regressed"
                else:
                    verdict = "ok" if all(was == now for was, now in pairs) else "changed"
            elif widest > bound and not (
                max(new) < min(old) if better == "lower" else min(new) > max(old)
            ):
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "unresolved" if min(len(old), len(new)) < 3 else "regressed"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "before": old_mid,
                    "after": new_mid,
                    "worse_by": worse_by,
                    "bound": bound,
                    "spread": widest,
                    "verdict": verdict,
                }
            )
    return rows


def format_compare(rows: Sequence[dict]) -> str:
    lines = [
        f"{'workload':<15}{'metric':<28}{'before':>14}{'after':>14}{'worse by':>10}"
        f"{'bound':>8}{'spread':>8}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<15}{row['metric']:<28}{row['before']:>14.6g}{row['after']:>14.6g}"
            f"{row['worse_by']:>+10.1%}{row['bound']:>8.2g}{row['spread']:>8.1%}  {row['verdict']}"
        )
    return "\n".join(lines)
