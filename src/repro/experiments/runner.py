"""Run every experiment and print the paper-style report.

Usage (after ``pip install -e .``)::

    python -m repro.experiments.runner            # everything
    python -m repro.experiments.runner fig5 fig8  # a subset

The same entry points are used by the pytest benchmarks in
``benchmarks/``; this module just strings them together and prints the
rows each figure reports.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Iterable, List

from . import fig5_harvest, fig6_coverage, fig7_distance, fig8_io
from .workloads import build_crawl_workload

ALL_EXPERIMENTS = ("fig5", "fig6", "fig7", "fig8", "stagnation")


def run_experiments(
    names: Iterable[str] = ALL_EXPERIMENTS,
    seed: int = 7,
    scale: float = 1.0,
) -> List[str]:
    """Run the named experiments and return the combined report lines."""
    names = list(names)
    lines: List[str] = []
    shared_workload = None
    if any(name in names for name in ("fig5", "fig6", "fig7")):
        shared_workload = build_crawl_workload(seed=seed, scale=scale)

    if "fig5" in names:
        start = time.perf_counter()
        result = fig5_harvest.run_harvest_experiment(workload=shared_workload)
        lines.extend(fig5_harvest.print_report(result))
        lines.append(f"(fig5 ran in {time.perf_counter() - start:.1f}s)")
        lines.append("")
    if "stagnation" in names:
        start = time.perf_counter()
        result = fig5_harvest.run_stagnation_experiment(seed=seed, scale=min(scale, 0.6))
        lines.append("# §3.7 stagnation scenario (mutual funds)")
        lines.append(
            f"before fix: harvest {result.before_harvest:.3f}, dominated by {result.before_dominant_topic!r}"
        )
        lines.append(f"after marking the parent topic good: harvest {result.after_harvest:.3f}")
        lines.append(f"(stagnation ran in {time.perf_counter() - start:.1f}s)")
        lines.append("")
    if "fig6" in names:
        start = time.perf_counter()
        result = fig6_coverage.run_coverage_experiment(workload=shared_workload)
        lines.extend(fig6_coverage.print_report(result))
        lines.append(f"(fig6 ran in {time.perf_counter() - start:.1f}s)")
        lines.append("")
    if "fig7" in names:
        start = time.perf_counter()
        result = fig7_distance.run_distance_experiment(workload=shared_workload)
        lines.extend(fig7_distance.print_report(result))
        lines.append(f"(fig7 ran in {time.perf_counter() - start:.1f}s)")
        lines.append("")
    if "fig8" in names:
        start = time.perf_counter()
        comparison = fig8_io.run_classifier_comparison(seed=seed)
        memory_points = fig8_io.run_memory_scaling(seed=seed)
        output_points = fig8_io.run_output_scaling(seed=seed)
        distillation = fig8_io.run_distillation_comparison(seed=seed)
        lines.extend(fig8_io.print_report(comparison, memory_points, output_points, distillation))
        lines.append(f"(fig8 ran in {time.perf_counter() - start:.1f}s)")
        lines.append("")
    return lines


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # No ``choices=``: some Python releases (3.11.7 among them) check an
    # empty ``nargs="*"`` positional against them and refuse to run with
    # no arguments at all.
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="{" + ",".join(ALL_EXPERIMENTS) + "}",
        help="which experiments to run (default: all)",
    )
    parser.add_argument("--seed", type=int, default=7, help="workload random seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale factor for the synthetic web (smaller = faster, less faithful)",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.experiments if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment {unknown[0]!r} (choose from {', '.join(ALL_EXPERIMENTS)})")
    for line in run_experiments(args.experiments or ALL_EXPERIMENTS, args.seed, args.scale):
        print(line)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
