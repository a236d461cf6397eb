"""Spans and counters recorded from outside the program.

The suite never edits ``src/``: a :class:`Tracer` replaces public
callables of ``repro.*`` with timing wrappers for the length of a traced
run and puts the originals back afterwards.  Each wrapped call is a span
(name, start, end, parent, run id); spans nest per thread, so a span's
*self time* is its duration minus the part its child spans cover.  Per
name the tracer keeps calls, total, self time and an optional unit count
(rows, edges, ...), and it keeps the span records themselves for the
coarse names so a trace file can be read round by round.

Coroutine functions are not wrapped: their time is waiting, which the
transports already count (``LatencyTransport.injected_s``).
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Span records kept in memory per traced run; totals keep counting past it.
SPAN_CAP = 400_000


class _Frame:
    __slots__ = ("span_id", "child_s")

    def __init__(self, span_id: int) -> None:
        self.span_id = span_id
        self.child_s = 0.0


class _ThreadState(threading.local):
    """Per-thread open-span stack and totals (merged when read)."""

    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        self.totals: Optional[Dict[str, list]] = None


class Tracer:
    """Wraps callables, records spans, restores the originals on :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.dropped = 0
        self.run_id = 0
        self._ids = itertools.count(1)
        self._state = _ThreadState()
        self._all_totals: List[Dict[str, list]] = []
        self._lock = threading.Lock()
        self._restore: List[tuple] = []

    # -- recording ------------------------------------------------------------------
    def _totals(self) -> Dict[str, list]:
        totals = self._state.totals
        if totals is None:
            totals = self._state.totals = {}
            with self._lock:
                self._all_totals.append(totals)
        return totals

    def _enter(self) -> _Frame:
        frame = _Frame(next(self._ids))
        self._state.stack.append(frame)
        return frame

    def _exit(self, name: str, frame: _Frame, start: float, units: int, keep: bool) -> None:
        end = time.perf_counter()
        stack = self._state.stack
        stack.pop()
        duration = end - start
        parent = 0
        if stack:
            stack[-1].child_s += duration
            parent = stack[-1].span_id
        totals = self._totals()
        record = totals.get(name)
        if record is None:
            record = totals[name] = [0, 0.0, 0.0, 0]
        record[0] += 1
        record[1] += duration
        record[2] += duration - frame.child_s
        record[3] += units
        if keep:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((name, start, end, parent, frame.span_id, self.run_id))
            else:
                self.dropped += 1

    def _wrapper(
        self,
        original: Callable,
        name: str,
        keep: bool,
        units: Optional[Callable[[tuple, dict], int]],
    ) -> Callable:
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter()
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                leave(name, frame, start, units(args, kwargs) if units else 0, keep)

        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    # -- installing -----------------------------------------------------------------
    def wrap_method(
        self,
        owner: type,
        attr: str,
        name: str,
        keep: bool = False,
        units: Optional[Callable[[tuple, dict], int]] = None,
    ) -> None:
        """Replace ``owner.attr`` (plain or static method) with a span wrapper."""
        raw = owner.__dict__[attr]
        function = raw.__func__ if isinstance(raw, staticmethod) else raw
        if inspect.iscoroutinefunction(function):
            raise TypeError(f"{owner.__name__}.{attr} is a coroutine function; not wrapped")
        traced = self._wrapper(function, name, keep, units)
        setattr(owner, attr, staticmethod(traced) if isinstance(raw, staticmethod) else traced)
        self._restore.append((owner, attr, raw))

    def wrap_function(
        self,
        function: Callable,
        name: str,
        keep: bool = False,
        units: Optional[Callable[[tuple, dict], int]] = None,
    ) -> None:
        """Replace a module-level function wherever a ``repro`` module holds it.

        ``from x import f`` copies the reference into the importing
        module, so the wrapper is installed in every loaded ``repro.*``
        namespace that names this object.
        """
        traced = self._wrapper(function, name, keep, units)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, traced)
                    self._restore.append((module, attr, function))

    def uninstall(self) -> None:
        """Put every original back (safe to call twice)."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- reading --------------------------------------------------------------------
    def take_totals(self) -> Dict[str, Dict[str, float]]:
        """The totals so far, then start them again from zero (spans stay)."""
        merged = self.totals()
        with self._lock:
            for totals in self._all_totals:
                totals.clear()
        return merged

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``name -> {calls, total_s, self_s, units}`` merged over threads."""
        merged: Dict[str, list] = {}
        with self._lock:
            per_thread = [dict(totals) for totals in self._all_totals]
        for totals in per_thread:
            for name, (calls, total, own, units) in totals.items():
                into = merged.setdefault(name, [0, 0.0, 0.0, 0])
                into[0] += calls
                into[1] += total
                into[2] += own
                into[3] += units
        return {
            name: {"calls": calls, "total_s": total, "self_s": own, "units": units}
            for name, (calls, total, own, units) in merged.items()
        }

    def self_times(self) -> Dict[int, float]:
        """Self time of every kept span: duration minus its kept children."""
        own = {span[4]: span[2] - span[1] for span in self.spans}
        for _name, start, end, parent, _span_id, _run in self.spans:
            if parent in own:
                own[parent] -= end - start
        return own

    def write(self, path: str, totals_per_run: List[Dict[str, Dict[str, float]]]) -> None:
        """One JSON object per line: a header, then the kept spans."""
        with open(path, "w", encoding="utf-8") as handle:
            header: Dict[str, Any] = {
                "fields": ["name", "start_s", "end_s", "parent", "id", "run"],
                "kept": len(self.spans),
                "dropped": self.dropped,
                "totals_per_run": totals_per_run,
            }
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
