"""Cancel the host's speed out of the timings.

The sandbox this suite runs in changes speed under it: the same
pure-Python loop takes 110 ms one second and 180 ms ten seconds later,
in regimes that last seconds, and processor time moves with wall time
(it is the core that slows, not the process that waits).  A 1.3 s crawl
repeated back to back then spreads by 25-45 %, which no regression bound
survives.  So every timed phase is cut into chunks, a fixed calibration
*slice* runs between chunks, and the phase's processor time is scaled by
how slow the slices ran against a fixed reference:

    reported = (wall - cpu - stolen) + cpu * REFERENCE_S / median(slice seconds)

Sleeping and waiting (``wall - cpu``) are left alone; a sleep-bound
workload is scaled little, a CPU-bound one fully.  The reported numbers
are therefore "seconds on a host whose slice takes ``REFERENCE_S``";
their ratios between two commits are what the gate compares, and those
are the same on a quiet host with or without the scaling.  Raw values
are printed beside the scaled ones.

*stolen* is the other way the host slows a run: for minutes at a time the
hypervisor keeps a runnable virtual processor off the real one.  The guest
counts that as neither processor time nor sleep, so a processor-bound
crawl showed 10-40 % of "waiting" that it never did.  The kernel reports
it (``steal`` in ``/proc/stat``); what accrued during the chunks, and at
most ``wall - cpu``, is taken out.

Four rules keep the accounting the same on every workload:

* a slice runs only *between* chunks, when nothing else of the workload
  is running (no thread, no worker process), so it neither competes with
  the work nor counts in ``cpu`` or ``wall``;
* ``cpu`` is the processor time of this process, all threads, during the
  chunks;
* work done in worker processes (the shard fleet) counts with the mean of
  the workers' processor time, read from ``/proc``: they run side by
  side, so one worker's time is what lies on the critical path, and the
  time the coordinator waits on pipes beyond it stays unscaled;
* stolen time is counted over all virtual processors, and an idle one has
  none stolen: a single process is charged all of it, a fleet of N
  workers, which keeps N processors busy, an Nth.

The slice is plain dict-and-integer bytecode because that is what the
program mostly executes; it tracked the crawl's slowdown to within 5 %
over 1.6x regime changes when a numpy kernel and an allocation-heavy
one did not.

A phase also samples resident memory at the end of every chunk: the
high-water mark of the process would include set-up's transients, which
on the short crawls are higher than anything the crawl reaches.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Callable, Dict, List, Sequence

#: Slice time the reports are scaled to (a quiet moment on the authoring host).
REFERENCE_S = 0.006
_SLICE_STEPS = 50_000
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def calibration_slice() -> float:
    """Run the fixed kernel; return the thread processor seconds it took."""
    started = time.thread_time()
    table: dict = {}
    for step in range(_SLICE_STEPS):
        table[step & 4095] = table.get(step & 1023, 0) + step
    return time.thread_time() - started


def stolen_s() -> float:
    """Seconds the hypervisor has kept runnable virtual processors waiting so far."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return int(handle.readline().split()[8]) * _TICK_S
    except (OSError, IndexError, ValueError):
        return 0.0


def process_cpu_s(pid: int) -> float:
    """User + system seconds of another process so far (0 if it cannot be read)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rpartition(")")[2].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def process_peak_rss_mb(pid: int) -> float:
    """High-water resident MiB of another process (0 if it cannot be read)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def resident_mb() -> float:
    """Resident MiB of this process now (its high-water mark where ``/proc`` is missing)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * _PAGE_MB
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """One timed phase: chunks of work with calibration slices between them."""

    def __init__(self, workers: Callable[[], Sequence[int]] = lambda: (), gap: int = 1) -> None:
        #: Pids of the worker processes doing this phase's work, as of now.
        self.workers = workers
        #: Slices taken between chunks: more for a phase of few chunks.
        self.gap = gap
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.stolen_s = 0.0
        self.slices: List[float] = []
        #: Highest resident size seen at the end of a chunk: this process
        #: now, plus the high-water marks of its workers.
        self.peak_rss_mb = 0.0

    def _worker_cpu(self) -> Dict[int, float]:
        return {pid: process_cpu_s(pid) for pid in self.workers()}

    def chunk(self, work: Callable[[], object]) -> object:
        """Time one chunk of work, with a slice before the first and after each."""
        if not self.slices:
            calibration_slice()  # the first one after other work runs cold
            self.slices += [calibration_slice() for _ in range(self.gap)]
        before = self._worker_cpu()
        wall, cpu, stolen = time.perf_counter(), time.process_time(), stolen_s()
        try:
            return work()
        finally:
            self.wall_s += time.perf_counter() - wall
            self.cpu_s += time.process_time() - cpu
            # A worker spawned inside the chunk starts from zero.
            after = self._worker_cpu()
            if after:
                self.cpu_s += sum(
                    seconds - before.get(pid, 0.0) for pid, seconds in after.items()
                ) / len(after)
            self.stolen_s += (stolen_s() - stolen) / max(len(after), 1)
            self.peak_rss_mb = max(
                self.peak_rss_mb, resident_mb() + sum(process_peak_rss_mb(pid) for pid in after)
            )
            self.slices += [calibration_slice() for _ in range(self.gap)]

    @property
    def scale(self) -> float:
        """Multiply a time measured in this phase by this to report it."""
        if not self.slices or self.wall_s <= 0.0:
            return 1.0
        # The median: a slice that a burst of stolen time lands on reads
        # many times too long, and would drag a mean with it.
        speed = REFERENCE_S / statistics.median(self.slices)
        cpu_s = min(self.cpu_s, self.wall_s)
        stolen_s = min(self.stolen_s, self.wall_s - cpu_s)
        return (self.wall_s - cpu_s - stolen_s + cpu_s * speed) / self.wall_s

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale
