"""The reach census (``benchmarks/reach.py``) reads source, hit files and its allowlist right.

The census itself runs every example, experiment and benchmark workload
(minutes); these tests drive its parts on a small fake package instead,
and check that the committed allowlist still names code that exists.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", REPO / "benchmarks" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["reach"] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


reach = _load_reach()

SOURCE = '''\
class Store:
    def get(self):
        def helper():
            return 1
        return helper()

    @property
    def size(self):
        return 0

    @size.setter
    def size(self, value):
        self._size = value

    def interface(self):
        """Overridden."""
        raise NotImplementedError("subclass")


def unused():
    pass


def orphan():
    return 2
'''


@pytest.fixture()
def package(tmp_path, monkeypatch):
    """A repository root holding ``src/repro/store.py``; the census is pointed at it."""
    root = tmp_path.resolve()
    module = root / "src" / "repro" / "store.py"
    module.parent.mkdir(parents=True)
    module.write_text(SOURCE)
    monkeypatch.setattr(reach, "ROOT", root)
    monkeypatch.setattr(reach, "PACKAGE", root / "src" / "repro")
    return module


def write_hits(hit_dir: Path, *entries: tuple[Path, int]) -> None:
    hit_dir.mkdir(exist_ok=True)
    (hit_dir / "1.hits").write_text("".join(f"{path}\t{line}\n" for path, line in entries))


class TestSource:
    def test_stub_bodies_are_not_definitions(self, package):
        keys = [d.qualname for d in reach.definitions(package)]
        assert "Store.interface" not in keys
        assert "unused" not in keys
        assert "orphan" in keys

    def test_definitions_carry_nesting_repeats_and_decorator_lines(self, package):
        found = {d.qualname: d for d in reach.definitions(package)}
        assert list(found) == ["Store.get", "Store.get.helper", "Store.size", "Store.size#2", "orphan"]
        assert found["Store.get.helper"].parent is found["Store.get"]
        assert found["Store.get"].parent is None
        # A decorated def's code object starts at its first decorator.
        assert (found["Store.size"].first, found["Store.size"].last) == (7, 9)
        assert found["Store.size#2"].key == "src/repro/store.py::Store.size#2"
        assert found["orphan"].lines == 2


class TestHitsAndAllowlist:
    def test_hit_files_keep_package_code_and_skip_torn_lines(self, package, tmp_path):
        hit_dir = tmp_path / "hits"
        outside = tmp_path / "elsewhere" / "repro" / "other.py"
        write_hits(hit_dir, (package, 2), (outside, 1))
        with open(hit_dir / "2.hits", "w") as out:
            out.write(f"{package}\t3\n{package}\t")  # killed while writing its second hit
        assert reach.reached(hit_dir) == {("src/repro/store.py", 2), ("src/repro/store.py", 3)}

    def test_reasons_cover_the_keys_below_them(self, tmp_path):
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text("# comment\n\n> first\na::x\nb::z\n> second\nc::y\n")
        assert reach.load_allowlist(allowlist) == {"a::x": "first", "b::z": "first", "c::y": "second"}
        allowlist.write_text("a::x\n> late\n")
        with pytest.raises(SystemExit, match="allow.txt:1: a::x has no reason"):
            reach.load_allowlist(allowlist)

    def test_census_fails_on_an_unlisted_definition_and_on_a_stale_key(
        self, package, tmp_path, monkeypatch, capsys
    ):
        hit_dir = tmp_path / "hits"
        write_hits(hit_dir, (package, 2), (package, 3), (package, 7))  # get, helper, size
        allowlist = tmp_path / "allow.txt"
        monkeypatch.setattr(reach, "ALLOWLIST", allowlist)
        args = ["--hits", str(hit_dir), "--no-run"]

        allowlist.write_text("> setter\nsrc/repro/store.py::Store.size#2\n")
        assert reach.main(args) == 1
        out = capsys.readouterr().out
        assert "5 definitions under src/repro, 3 entered; 2 outermost unreached, spanning 5 lines" in out
        assert "   11-13    Store.size#2" in out  # every unreached definition is listed
        assert "UNREACHED, not allowlisted: src/repro/store.py::orphan (lines 24-25)" in out
        assert "not allowlisted: src/repro/store.py::Store.size" not in out

        allowlist.write_text("> setter and orphan\nsrc/repro/store.py::Store.size#2\nsrc/repro/store.py::orphan\n")
        assert reach.main(args) == 0
        assert "UNREACHED" not in capsys.readouterr().out

        # A key whose code is gone, or that a run now enters, fails too: the list only
        # shrinks.  A wildcard is no key: it names nothing, so it fails the same way.
        for stale in (
            "src/repro/old.py::gone",
            "src/repro/store.py::Store.get",
            "src/repro/store.py::*",
        ):
            allowlist.write_text(
                "> setter and orphan\nsrc/repro/store.py::Store.size#2\nsrc/repro/store.py::orphan\n"
                f"> stale\n{stale}\n"
            )
            assert reach.main(args) == 1
            out = capsys.readouterr().out
            assert f"ALLOWLISTED, not an outermost unreached definition (remove it): {stale}" in out
            assert "UNREACHED" not in out


def test_committed_allowlist_names_only_definitions_that_exist():
    """A key whose code was deleted or renamed is stale: the census would fail on it."""
    allowlist = reach.load_allowlist(reach.ALLOWLIST)
    assert allowlist
    for key in allowlist:
        path = REPO / key.partition("::")[0]
        assert path.is_file(), key
        assert key in {d.key for d in reach.definitions(path)}, key
