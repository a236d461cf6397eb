#!/usr/bin/env python3
"""Reach census: the ``src/repro`` functions that no run of the repository enters.

A definition that no run enters is surface without a caller, test
infrastructure living in ``src/``, or a path some workload should take
and does not.  This script finds them.  It runs every example, every
experiment of ``repro.experiments.runner`` (at ``--scale 0.5``) and the
benchmark suite at ``--quick`` size with a traced repeat, each in a
fresh interpreter whose ``sitecustomize`` records the first entry into
every ``src/repro`` code object -- in every thread, and in every process
a drive spawns.  Then it lists the function definitions none of them
entered, by file, with the lines the outermost of them span::

    python benchmarks/reach.py                          # run the drives, check
    python benchmarks/reach.py --hits DIR               # keep the hit files in DIR
    python benchmarks/reach.py --hits DIR --no-run      # census from kept hit files

``reach_allowlist.txt`` names, one ``path::qualname`` a line, the
outermost definitions that are unreached on purpose, each under its
reason.  The exit status is 1 when a drive fails, when an unreached
definition is not named there, or when a named one is no longer an
outermost unreached definition (it was deleted or renamed, or a run
enters it now).  So the list can only shrink, and a new function finds
no wildcard to hide under.  The drives run one at a time and take about
three minutes on an otherwise idle 2-core host.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"

#: What the census runs, from the repository root.
DRIVES = [
    *[["examples/" + path.name] for path in sorted((ROOT / "examples").glob("*.py"))],
    ["-m", "repro.experiments.runner", "--scale", "0.5"],
    ["benchmarks/suite/run.py", "--quick", "--traced"],
]

#: The hook every drive's interpreter (and every process it spawns) imports
#: at start-up.  A global trace function that returns None sees each call
#: and traces no line; each code object is written once, as it is first
#: entered, so a process that is killed keeps what it reached.
HOOK = '''\
"""Reach-census hook (benchmarks/reach.py): log the first call into each code object."""
import os
import sys
import threading

_marker = os.sep + "repro" + os.sep
_seen = set()
_out = open(
    os.path.join(os.environ["REACH_CENSUS_DIR"], "%d.hits" % os.getpid()), "a", buffering=1
)


def _census(frame, event, arg):
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        if _marker in code.co_filename:
            _out.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))


sys.settrace(_census)
threading.settrace(_census)
'''


@dataclass(frozen=True)
class Definition:
    """One ``def`` under ``src/repro``."""

    path: str  # relative to the repository root
    qualname: str  # a repeated name (a property's setter) gets "#2", "#3", ...
    first: int  # the code object's first line: the first decorator's, or the def's
    last: int
    parent: Optional["Definition"]  # the enclosing def, if any

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """An interface declaration: docstring, ``...``, ``pass`` or ``raise NotImplementedError``."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    return all(
        isinstance(statement, ast.Pass)
        or (isinstance(statement, ast.Expr) and getattr(statement.value, "value", None) is Ellipsis)
        or (
            isinstance(statement, ast.Raise)
            and statement.exc is not None
            and "NotImplementedError" in ast.unparse(statement.exc)
        )
        for statement in body
    )


def definitions(path: Path) -> list[Definition]:
    """Every function definition in *path* that is not a stub, nested ones included."""
    relative = path.relative_to(ROOT).as_posix()
    found: list[Definition] = []
    seen: dict[str, int] = {}

    def visit(node: ast.AST, prefix: str, parent: Optional[Definition]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                seen[qualname] = seen.get(qualname, 0) + 1
                if seen[qualname] > 1:
                    qualname += f"#{seen[qualname]}"
                if is_stub(child):  # nothing to run: an override is what runs
                    continue
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                definition = Definition(relative, qualname, first, child.end_lineno, parent)
                found.append(definition)
                visit(child, qualname + ".", definition)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", parent)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(path.read_text(), str(path)), "", None)
    return found


def run_drives(hit_dir: Path) -> list[str]:
    """Run every drive under the hook; return the failures, described."""
    hook_dir = hit_dir / "hook"
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(ROOT / "src")])
    env["REACH_CENSUS_DIR"] = str(hit_dir)
    failures = []
    for number, drive in enumerate(DRIVES):
        command = [sys.executable, *drive]
        log = hit_dir / f"drive{number}.log"
        start = time.perf_counter()
        with open(log, "w") as out:
            code = subprocess.call(command, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        took = time.perf_counter() - start
        print(f"  {' '.join(drive):<55} exit {code}  {took:6.1f} s", flush=True)
        if code != 0:
            tail = log.read_text().splitlines()[-15:]
            failures.append(f"{' '.join(drive)} exited {code}:\n    " + "\n    ".join(tail))
    return failures


def reached(hit_dir: Path) -> set[tuple[str, int]]:
    """(path, first line) of every src/repro code object a drive entered."""
    hits = set()
    for hit_file in hit_dir.glob("*.hits"):
        for line in hit_file.read_text().splitlines():
            filename, _, lineno = line.rpartition("\t")
            if not lineno.isdigit():  # the torn last line of a killed process
                continue
            path = Path(filename)
            path = (path if path.is_absolute() else ROOT / path).resolve()
            if path.is_relative_to(PACKAGE):
                hits.add((path.relative_to(ROOT).as_posix(), int(lineno)))
    return hits


def load_allowlist(path: Path) -> dict[str, str]:
    """Definition key -> reason.

    A line ``> reason`` gives the reason of every ``path::qualname`` key
    below it, up to the next reason line; ``#`` starts a comment line.
    """
    keys: dict[str, str] = {}
    reason = ""
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(">"):
            reason = line[1:].strip()
        elif not reason:
            raise SystemExit(f"{path}:{number}: {line} has no reason above it")
        else:
            keys[line] = reason
    return keys


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--hits", help="directory for the hit files (default: a temporary one)")
    parser.add_argument("--no-run", action="store_true", help="census from the hit files in --hits")
    args = parser.parse_args(argv)
    if args.no_run and not args.hits:
        parser.error("--no-run needs --hits")

    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        hit_dir = Path(args.hits or scratch).resolve()
        failures = []
        if not args.no_run:
            hit_dir.mkdir(parents=True, exist_ok=True)
            for stale in hit_dir.glob("*.hits"):
                stale.unlink()
            print(f"reach census: {len(DRIVES)} drives", flush=True)
            failures = run_drives(hit_dir)
        hits = reached(hit_dir)

    every = [d for path in sorted(PACKAGE.rglob("*.py")) for d in definitions(path)]
    unreached = {d for d in every if (d.path, d.first) not in hits}
    # A definition inside an unreached one is implied by it.
    outermost = sorted(
        (d for d in unreached if d.parent not in unreached), key=lambda d: (d.path, d.first)
    )
    allowlist = load_allowlist(ALLOWLIST)
    new = [d for d in outermost if d.key not in allowlist]
    stale = sorted(set(allowlist) - {d.key for d in outermost})

    by_file: dict[str, list[Definition]] = {}
    for definition in outermost:
        by_file.setdefault(definition.path, []).append(definition)
    total = sum(d.lines for d in outermost)
    print(
        f"{len(every)} definitions under src/repro, {len(every) - len(unreached)} entered; "
        f"{len(outermost)} outermost unreached, spanning {total} lines"
    )
    for path, defs in sorted(by_file.items(), key=lambda item: -sum(d.lines for d in item[1])):
        print(f"  {sum(d.lines for d in defs):5d}  {path}")
        for d in defs:
            print(f"         {d.first:5d}-{d.last:<5d} {d.qualname}")
    for key in stale:
        print(f"ALLOWLISTED, not an outermost unreached definition (remove it): {key}")
    for definition in new:
        print(
            f"UNREACHED, not allowlisted: {definition.key} "
            f"(lines {definition.first}-{definition.last})"
        )
    for failure in failures:
        print(f"DRIVE FAILED: {failure}")
    return 1 if new or stale or failures else 0


if __name__ == "__main__":
    sys.exit(main())
