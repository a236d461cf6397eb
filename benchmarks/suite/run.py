"""The repository benchmark: six crawl/service workloads, measured from outside.

One workload, as the driver of ``BENCHMARK.json`` runs it::

    python3 benchmarks/suite/run.py --workload crawl_mem --seed 7 --seconds 6 --trace 0

prints every end-to-end metric by name with its unit, then a host block,
then — as the last line — one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 1`` makes it a traced run that prints
the per-layer metrics instead.  Without ``--workload`` — or with
``--runs`` or ``--traced`` — every workload (or the one named) runs in a
child process of its own, once per seed and kind of run::

    python3 benchmarks/suite/run.py [--workload NAME] [--seed 7] [--runs 1] [--traced] [--out DIR]

and ``--compare A.json B.json`` applies the bounds of ``BENCHMARK.json``
to two such result sets.  See README.md beside this file.

Importing this module does nothing: the sharded workload's worker
processes are spawned, and a spawned child imports its parent's main
module.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]

#: Full set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: The fewest timed repeats a full-size run reports from.
MIN_REPEATS = 5
#: A traced run alternates untraced and traced repeats; the fewest of each.
MIN_TRACED = 2
#: Exit code of a workload this host cannot run as designed.
EXIT_INVALID_ON_HOST = 3
#: In the order they run (named here so that parsing arguments imports nothing).
WORKLOAD_NAMES = (
    "crawl_mem", "crawl_default", "crawl_latency", "crawl_durable", "service_mix", "crawl_sharded",
)  # fmt: skip


def clear_env() -> Dict[str, str]:
    """Remove every ``REPRO_*`` variable (they pick engine defaults) and say which."""
    return {key: os.environ.pop(key) for key in sorted(os.environ) if key.startswith("REPRO_")}


def import_suite():
    """Put the program and the suite on the path and import them."""
    for path in (str(ROOT / "src"), str(SUITE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import hostspeed
    import layers
    import metrics
    import trace as tracing
    import workloads

    return metrics, workloads, layers, tracing, hostspeed


def set_up(workload, web, args, setups: int, work: Path):
    """Set the program up *setups* times over the web; keep the last one armed."""
    import hostspeed
    import workloads

    phases = []
    ctx = armed = None
    for _ in range(setups):
        if armed is not None:
            workload.discard(armed)
            ctx = armed = None
            gc.collect()
        phase = hostspeed.Phase(workload.worker_pids)
        ctx = workloads.build_context(web, args.seed, args.quick, work, phase)
        armed = phase.chunk(lambda: workload.start(ctx))
        phases.append(phase)
    return ctx, armed, phases


def measure(workload, ctx, tracer, seconds: float, fewest: int):
    """Timed repeats until *seconds* have passed and *fewest* are in.

    A traced run follows every untraced repeat with a traced one, so the
    two kinds see the same stretch of host time.
    """
    import layers

    plain, traced, totals = [], [], []
    started = time.perf_counter()
    while len(plain) < fewest or time.perf_counter() - started < seconds:
        plain.append(workload.repeat(ctx, traced=False))
        if tracer:
            layers.install(tracer)
            tracer.run_id = len(traced) + 1
            try:
                traced.append(workload.repeat(ctx, traced=True))
            finally:
                tracer.uninstall()
            totals.append(tracer.take_totals())
    return plain, traced, totals


def stop_processes() -> None:
    """End and reap every process this one started, so that none outlives it.

    Shard workers are joined when their handle closes; one still alive
    here was left by an exception.  The resource tracker that
    ``multiprocessing`` starts beside the first spawned worker ends only
    when its pipe closes, by default at this process's exit — after it,
    as an orphan nobody waits for.  Closing the pipe here and waiting
    is what ``ResourceTracker._stop`` does.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for process in multiprocessing.active_children():
        process.terminate()
        process.join()
    resource_tracker._resource_tracker._stop()


def run_workload(args: argparse.Namespace) -> int:
    """Set up, warm up, measure, check and report one workload in this process."""
    # A terminated run leaves through the ``finally`` below like any other.
    signal.signal(signal.SIGTERM, lambda _number, _frame: sys.exit(143))
    cleared = clear_env()
    metrics, workloads, layers, tracing, hostspeed = import_suite()
    workload = workloads.WORKLOADS[args.workload]
    reason = workload.invalid_on_host()
    if reason is not None:
        print(f"{workload.name}: invalid_on_host ({reason})", file=sys.stderr)
        return EXIT_INVALID_ON_HOST

    setups = 1 if args.quick else SETUPS
    if args.trace:
        fewest = 1 if args.quick else MIN_TRACED
    else:
        fewest = args.repeats or (2 if args.quick else MIN_REPEATS)
    work = workloads.WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    armed = None
    try:
        if tracer:
            layers.install(tracer)  # set-up is traced too: web build, training, job creation
        web = workloads.build_web(args.seed, args.quick)
        ctx, armed, setup_phases = set_up(workload, web, args, setups, work)
        gc.collect()
        rss_after_setup = hostspeed.resident_mb()
        setup_totals = {}
        if tracer:
            setup_totals = tracer.take_totals()
            tracer.uninstall()
            tracer.spans.clear()
        warm, armed = armed, None
        workload.warm_up(ctx, warm)
        del warm  # or the warm-up's store stays alive and counts in peak_rss_mb
        plain, traced, totals = measure(workload, ctx, tracer, args.seconds, fewest)

        # -- check -------------------------------------------------------------------
        repeats = plain + traced
        checks = [check for repeat in repeats for check in repeat.checks]
        checks += workload.final_checks(ctx, repeats)
        failed_checks = [name for name, passed in checks if not passed]
        attempted = len(checks) + sum(
            repeat.budget
            + len(repeat.reads)
            + max(len(repeat.job_latencies_s) + repeat.jobs_failed, 1)
            for repeat in repeats
        )
        failed = len(failed_checks) + sum(
            max(repeat.budget - repeat.pages, 0) + repeat.bad_reads + repeat.jobs_failed
            for repeat in repeats
        )

        # -- report ------------------------------------------------------------------
        clients = layers.client_metrics(plain)
        peak_rss = max(repeat.run.peak_rss_mb for repeat in plain)
        slices = [ms for repeat in plain for ms in repeat.run.slices]
        samples = {
            "repeats": len(plain),
            "traced_repeats": len(traced),
            "reads": sum(len(repeat.reads) for repeat in plain),
            "job_latencies": sum(len(repeat.job_latencies_s) for repeat in plain),
            "setups": len(setup_phases),
            "pages_per_s": [repeat.pages_per_s for repeat in plain],
            # Resident MiB: once set up (inputs, trained system, armed job),
            # at most during a timed job (workers included), and the
            # process's high-water mark, set-up's transients included.
            "rss_mb": {
                "after_setup": rss_after_setup,
                "job_peak": peak_rss,
                "high_water": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            },
            # As measured, before the host's speed is scaled out (hostspeed.py).
            "raw": {
                "setup_s": [phase.wall_s for phase in setup_phases],
                "run_s": [repeat.run.wall_s for repeat in plain],
                "run_cpu_s": [repeat.run.cpu_s for repeat in plain],
                "run_stolen_s": [repeat.run.stolen_s for repeat in plain],
                "pages_per_s": [repeat.pages / repeat.run.wall_s for repeat in plain],
                "run_scale": [repeat.run.scale for repeat in plain],
                "slice_ms": metrics.median(slices) * 1e3,
            },
            "stages": [repeat.stages for repeat in plain],
            "digest": plain[0].digest,
            "failed_ops_ratio": failed / attempted,
            "failed_checks": failed_checks,
        }
        if tracer:
            probes = {}
            if workload.name == "crawl_mem":
                probes["parse_html_us_per_kb"] = layers.probe_parse_html(ctx)
                probes["cassette_decode_mb_s"] = layers.probe_cassette_decode(
                    ctx, ctx.sizes["pages"]["crawl_mem"] // 4
                )
            round_ms = [
                (end - start) * 1e3
                for name, start, end, _parent, _id, _run in tracer.spans
                if name == "crawler.round"
            ]
            values = layers.layer_metrics(
                plain, traced, totals, round_ms, setup_totals, setups, probes, workload.straggler_ms
            )
            table = [(name, unit, values[name]) for name, unit, _better in metrics.PER_LAYER]
            samples["negative_self_times"] = sum(
                1 for own in tracer.self_times().values() if own < -1e-9
            )
            samples["spans_kept"] = len(tracer.spans)
            samples["spans_dropped"] = tracer.dropped
            if args.out:
                out = Path(args.out)
                out.mkdir(parents=True, exist_ok=True)
                tracer.write(str(out / f"{workload.name}.seed{args.seed}.spans.jsonl"), totals)
        else:
            values = {
                "setup_s": metrics.median([phase.scaled_s for phase in setup_phases]),
                "pages_per_s": metrics.median(samples["pages_per_s"]),
                "harvest_rate": metrics.median([repeat.harvest for repeat in plain]),
                "peak_rss_mb": peak_rss,
            }
            table = [(name, unit, values[name]) for name, unit, _better, _bound in metrics.END_TO_END]
            # What the workload's clients saw is measured in every run, traced
            # or not; the result line of an untraced run has no place for it.
            units = {name: unit for name, unit, _better in metrics.PER_LAYER}
            samples["also"] = {
                name: {"value": value, "unit": units[name]} for name, value in clients.items() if value
            }

        for name, unit, value in table:
            print(f"{workload.name:<15}{name:<34}{value:>18.6f} {unit}")
        for name, entry in samples.get("also", {}).items():
            print(f"{workload.name:<15}{name:<34}{entry['value']:>18.6f} {entry['unit']}")
        print(
            f"{workload.name:<15}samples: {len(plain)} repeats, {samples['reads']} reads, "
            f"{samples['job_latencies']} job latencies, {len(setup_phases)} set-ups; failed_ops_ratio "
            f"{failed / attempted:.6f}; as measured {metrics.median(samples['raw']['pages_per_s']):.1f} "
            f"pages/s with the calibration slice at {samples['raw']['slice_ms']:.2f} ms "
            f"(reference {hostspeed.REFERENCE_S * 1e3:.2f}); resident {rss_after_setup:.1f} MiB "
            f"once set up, {peak_rss:.1f} at most during a job"
        )
        host = metrics.host_block(args.seed, len(plain), ctx.sizes, cleared)
        print(json.dumps({"host": host, "samples": samples}))
        print(
            json.dumps(
                {
                    "correct": not failed,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {name: {"value": value, "unit": unit} for name, unit, value in table},
                }
            )
        )
        if failed_checks:
            print(f"{workload.name}: failed output checks: {failed_checks}", file=sys.stderr)
        return 1 if failed else 0
    finally:
        try:
            if armed is not None:
                workload.discard(armed)
        finally:
            stop_processes()
        shutil.rmtree(work, ignore_errors=True)
        try:
            workloads.WORK.rmdir()
        except OSError:
            pass  # another workload's child is still using it


# -- every workload, each in a child process -----------------------------------------
def child(workload: str, seed: int, trace: int, args: argparse.Namespace) -> Optional[dict]:
    """Run one workload in a child and parse what it printed; None if invalid on this host."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    if args.repeats:
        command += ["--repeats", str(args.repeats)]
    if args.out:
        command += ["--out", args.out]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode == EXIT_INVALID_ON_HOST:
        return None
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} printed no result (exit {done.returncode})")
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    result = json.loads(lines[-1])
    result.update(json.loads(lines[-2]))
    result["metrics"].update(result["samples"].get("also", {}))
    result["exit"] = done.returncode
    return result


def run_all(args: argparse.Namespace) -> int:
    runs = []
    status = 0
    for index in range(args.runs):
        seed = args.seed + index
        results: Dict[str, Any] = {}
        for name in [args.workload] if args.workload else WORKLOAD_NAMES:
            merged: Optional[dict] = None
            for trace in (0, 1) if args.traced else (0,):
                result = child(name, seed, trace, args)
                if result is None:
                    print(f"{name:<15}invalid_on_host")
                    results[name] = {"invalid_on_host": True}
                    break
                status = status or result["exit"]
                if merged is None:
                    merged = result
                else:
                    for metric, entry in result["metrics"].items():
                        merged["metrics"].setdefault(metric, entry)  # the untraced run's stands
                    merged["correct"] = merged["correct"] and result["correct"]
                    merged["traced_samples"] = result["samples"]
                results[name] = merged
        runs.append({"seed": seed, "workloads": results})
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "results.json"
        path.write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return status


def run_compare(before_path: str, after_path: str) -> int:
    sys.path.insert(0, str(SUITE))
    import metrics

    with open(before_path, encoding="utf-8") as handle:
        before = json.load(handle)
    with open(after_path, encoding="utf-8") as handle:
        after = json.load(handle)
    rows = metrics.compare(before, after)
    print(metrics.format_compare(rows))
    count = {
        verdict: sum(1 for row in rows if row["verdict"] == verdict)
        for verdict in ("regressed", "changed", "unresolved")
    }
    print(f"{len(rows)} pairs: " + ", ".join(f"{n} {verdict}" for verdict, n in count.items()))
    return 1 if count["regressed"] or count["changed"] else 0


def default_seconds() -> float:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOAD_NAMES, help="run this one workload in this process (default: all)"
    )
    parser.add_argument("--seed", type=int, default=7, help="every input is generated from it")
    parser.add_argument("--seconds", type=float, default=None, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: this run is traced")
    parser.add_argument("--traced", action="store_true", help="a traced run after each untraced one")
    parser.add_argument("--repeats", type=int, default=0, help="fewest timed repeats (default 5)")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--quick", action="store_true", help="a tenth of the size (smoke test)")
    parser.add_argument("--out", help="directory for results.json and span files")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="judge B against A")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else default_seconds()
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    try:
        if args.workload and args.runs == 1 and not args.traced:
            return run_workload(args)
        return run_all(args)
    except ImportError as error:
        print(f"cannot import the program or the suite from {ROOT}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
