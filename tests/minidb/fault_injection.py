"""Deterministic fault injection for the durable storage layer.

The durable backend's crash-safety claims used to be backed by a
handful of hand-written corruption tests — truncate this file here,
flip that byte there.  Compaction multiplies the number of interesting
crash windows (a half-written new segment, a published snapshot with
the stale file still on disk, a torn WAL reset...), and hand-picked
cases are exactly what misses them.

This module turns "crash at an arbitrary kill point" into an
enumerable, seedable property: a :class:`FaultInjector` implements the
:class:`~repro.minidb.wal.FileOps` seam that every mutating file
operation of :class:`~repro.minidb.backend.DurableBackend` and
:class:`~repro.minidb.wal.WriteAheadLog` goes through, assigns each
write / truncate / fsync / rename / remove a global **I/O index**, and
raises :class:`SimulatedCrash` when the index configured in
``crash_at`` is reached.  A test can therefore run a workload once to
*count* the I/O points of (say) a compacting checkpoint, then replay it
once per index, crashing at every single one and asserting the
recovery invariants each time.

The crash model is a process kill with the operating system surviving:

* files are opened unbuffered, so everything handed to the OS before
  the crash point persists — there is no user-space buffer whose loss
  the model would have to emulate;
* a crashed ``write`` tears: a prefix of the data reaches the file
  (half, by default — torn frames are the interesting recovery input),
  the rest never happens;
* after the crash every further mutating operation raises again — a
  dead process does not keep writing — so test code must release file
  handles with :func:`hard_close` instead of a normal ``close()``.

Byte-level corruption (CRC damage rather than crashes) goes through
:func:`flip_byte` / :func:`truncate_tail`, replacing the ad-hoc
file-poking the corruption tests used to hand-roll.

Only tests drive it, so it lives beside them; the library keeps just
the seam (``StorageConfig(ops=...)``).  Test modules in this directory
import it by name (``from fault_injection import FaultInjector``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import BinaryIO, List, Optional

from repro.minidb.wal import FileOps


class SimulatedCrash(Exception):
    """The process model died at an injected I/O point."""


@dataclass(frozen=True)
class IOEvent:
    """One counted (crashable) file operation."""

    index: int
    kind: str  # "write" | "truncate" | "fsync" | "replace" | "remove"
    path: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"#{self.index} {self.kind} {os.path.basename(self.path)}"


class FaultyFile:
    """A file handle whose mutations are routed through the injector."""

    def __init__(self, raw: BinaryIO, path: str, injector: "FaultInjector") -> None:
        self.raw = raw
        self.path = path
        self._injector = injector

    # -- counted mutations -------------------------------------------------
    def write(self, data: bytes) -> int:
        self._injector.hit("write", self.path, fh=self.raw, data=data)
        return self.raw.write(data)

    def truncate(self, size: Optional[int] = None) -> int:
        self._injector.hit("truncate", self.path)
        if size is None:
            return self.raw.truncate()
        return self.raw.truncate(size)

    # -- uncounted pass-throughs (reads and bookkeeping) -------------------
    def read(self, *args) -> bytes:
        return self.raw.read(*args)

    def seek(self, *args) -> int:
        return self.raw.seek(*args)

    def tell(self) -> int:
        return self.raw.tell()

    def flush(self) -> None:
        self.raw.flush()

    def fileno(self) -> int:
        return self.raw.fileno()

    def close(self) -> None:
        self.raw.close()

    @property
    def closed(self) -> bool:
        return self.raw.closed


class FaultInjector(FileOps):
    """A :class:`FileOps` that counts I/O points and crashes at one of them.

    ``crash_at`` is consulted live at every counted operation, so tests
    can arm it mid-workload (``injector.crash_at = injector.op_count + 3``)
    to target, e.g., the third I/O of the next checkpoint.  ``events``
    records every counted operation for enumeration and debugging.
    """

    def __init__(self, crash_at: Optional[int] = None, partial_writes: bool = True) -> None:
        #: Global I/O index to crash at (None = never).
        self.crash_at = crash_at
        #: Whether a crashed write tears (writes a prefix) or vanishes.
        self.partial_writes = partial_writes
        self.events: List[IOEvent] = []
        self.crashed = False

    @property
    def op_count(self) -> int:
        return len(self.events)

    def hit(
        self,
        kind: str,
        path: str,
        fh: Optional[BinaryIO] = None,
        data: Optional[bytes] = None,
    ) -> None:
        """Count one I/O point; crash if it is the armed one."""
        if self.crashed:
            raise SimulatedCrash("the process already crashed; no further I/O happens")
        event = IOEvent(index=len(self.events), kind=kind, path=os.fspath(path))
        self.events.append(event)
        if self.crash_at is not None and event.index == self.crash_at:
            self.crashed = True
            if kind == "write" and self.partial_writes and fh is not None and data and len(data) > 1:
                fh.write(data[: len(data) // 2])
                fh.flush()
            raise SimulatedCrash(f"injected crash at I/O point {event}")

    # -- FileOps interface -------------------------------------------------
    def open(self, path: str | os.PathLike, mode: str) -> FaultyFile:
        return FaultyFile(open(path, mode, buffering=0), os.fspath(path), self)

    def fsync(self, fh: BinaryIO) -> None:
        self.hit("fsync", getattr(fh, "path", "<anonymous>"))
        raw = getattr(fh, "raw", fh)
        raw.flush()
        os.fsync(raw.fileno())

    def replace(self, src: str | os.PathLike, dst: str | os.PathLike) -> None:
        self.hit("replace", os.fspath(dst))
        os.replace(src, dst)

    def remove(self, path: str | os.PathLike) -> None:
        self.hit("remove", os.fspath(path))
        os.remove(path)


def hard_close(database) -> None:
    """Release a crashed database's file handles without any further I/O.

    A killed process performs no orderly shutdown; ``Database.close()``
    would flush (and, with pending group-commit records, fsync) — I/O
    the dead process never did, which the injector rightly refuses.
    This closes the raw descriptors only, leaving the on-disk state
    exactly as the crash left it.
    """
    backend = database.backend
    for handle in (
        getattr(backend, "_segments", None),
        getattr(getattr(backend, "wal", None), "_fh", None),
    ):
        if handle is None:
            continue
        raw = getattr(handle, "raw", handle)
        if not raw.closed:
            raw.close()


def truncate_tail(path: str | os.PathLike, nbytes: int) -> None:
    """Chop *nbytes* off the end of a file — the torn tail a crash leaves."""
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(max(size - nbytes, 0))


def flip_byte(path: str | os.PathLike, offset: int, mask: int = 0xFF) -> None:
    """XOR the byte at *offset* with *mask* — CRC-detectable corruption."""
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        if not byte:
            raise ValueError(f"offset {offset} is past the end of {os.fspath(path)}")
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ mask]))
