"""Crawl as a service: submit concurrent crawl jobs over the HTTP API.

Run with::

    python examples/serve_crawls.py

The paper's closing argument is that focused crawling should run as a
shared, long-running service.  This example stands up the reproduction's
service — a :class:`~repro.JobManager` multiplexing jobs over one shared
fetch pool, behind a stdlib JSON HTTP server — and drives it purely over
the wire:

1. submit two crawl jobs (cycling and mutual funds) as JSON ``JobSpec``s;
2. poll their progress while they crawl side by side on the shared pipeline;
3. pause and resume one of them mid-crawl via the API;
4. print both harvest curves and the shared-pool statistics.

Every job is bit-identical to the same crawl run solo: concurrency and
pooling change only *when* pages arrive, never *which* pages.
"""

from __future__ import annotations

import json
import time
import urllib.request

from repro import CrawlService, FetchPolicy, FocusConfig, FocusSystem, JobManager, JobSpec

TERMINAL = ("completed", "exhausted", "cancelled", "failed")


def call(url: str, payload: dict | None = None) -> dict | list:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode() if payload is not None else None,
        method="POST" if payload is not None else "GET",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def main() -> None:
    print("Training the focus system (shared by every job on its topic)...")
    system = FocusSystem.bootstrap(FocusConfig(good_topics=["recreation/cycling"]))
    system.train()

    manager = JobManager(system, policy=FetchPolicy(max_inflight=8))
    with CrawlService(manager) as service:
        base = service.url
        print(f"service listening on {base}\n")

        # The mutual-funds job names a topic set the service has not seen:
        # its submit trains a classifier for it, which takes seconds and
        # stalls no other job.  Submitting it first keeps the two crawls
        # side by side for the rest of this script.
        funds = call(
            f"{base}/jobs",
            JobSpec(
                good_topics=("business/investment/mutual_funds",),
                max_pages=200,
                fetch_failure_seed=5,
                name="mutual-funds",
            ).to_dict(),
        )["id"]
        cycling = call(
            f"{base}/jobs",
            JobSpec(max_pages=300, fetch_failure_seed=3, name="cycling").to_dict(),
        )["id"]
        print(f"submitted jobs: {cycling} (cycling), {funds} (mutual funds)")

        paused = False
        while True:
            jobs = call(f"{base}/jobs")
            line = "  ".join(
                f"{job['name']}: {job['status']} {job['pages_fetched']}/{job['budget']}"
                for job in jobs
            )
            print(f"  {line}")
            progress = call(f"{base}/jobs/{cycling}")
            if (
                not paused
                and progress["status"] == "running"
                and progress["pages_fetched"] >= 100
            ):
                print(f"  -> pausing {cycling} mid-crawl, then resuming it")
                call(f"{base}/jobs/{cycling}/pause", {})
                call(f"{base}/jobs/{cycling}/resume", {})
                paused = True
            if all(job["status"] in TERMINAL for job in jobs):
                break
            time.sleep(0.05)

        print("\nHarvest curves (every 50 fetches):")
        for job_id, name in ((cycling, "cycling"), (funds, "mutual-funds")):
            series = call(f"{base}/jobs/{job_id}/harvest?window=50")
            points = "  ".join(
                f"{tick}:{rate:.2f}" for tick, rate in series if tick % 50 == 0
            )
            print(f"  {name:<13} {points}")

        for job_id, name in ((cycling, "cycling"), (funds, "mutual-funds")):
            result = call(f"{base}/jobs/{job_id}/result")
            print(
                f"\n{name}: {result['status']}, {result['pages_fetched']} pages, "
                f"harvest rate {result['harvest_rate']:.3f}, "
                f"latency {result['latency_s']:.2f}s"
            )

        pool = call(f"{base}/health")["pool"]
        print(
            f"\nshared pool: {pool['total_fetches']} fetches, "
            f"peak {pool['peak_inflight']} in flight "
            f"(cap {pool['max_inflight']}), {pool['waits']} waits"
        )


if __name__ == "__main__":
    main()
