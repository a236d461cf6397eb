"""The consolidated public API surface: ``repro`` is the one import root."""

import ast
import dataclasses
import importlib.util
import pathlib
import re

import pytest

import repro
from repro.crawler import CrawlerConfig
from repro.crawler.engine import ENGINE_MODES

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
PACKAGE_DIR = pathlib.Path(repro.__file__).resolve().parent
#: Modules that start threads: the storage engine and the crawl core import neither.
THREAD_MODULES = ("threading", "concurrent.futures")


class TestPublicSurface:
    def test_every_all_name_resolves(self):
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert missing == []

    def test_all_is_sorted_and_unique(self):
        names = [name for name in repro.__all__ if name != "__version__"]
        assert names == sorted(set(names))

    def test_service_layer_is_exported(self):
        for name in ("JobManager", "CrawlService", "JobSpec", "CrawlHandle", "StorageConfig"):
            assert name in repro.__all__

    def test_query_layer_is_exported(self):
        for name in ("Database", "Plan", "ExplainResult"):
            assert name in repro.__all__

    def test_sql_is_the_one_read_surface(self):
        # The fluent Query builder and its Python expression DSL are gone:
        # every read is a Database.sql() statement.
        import repro.minidb as minidb

        assert not hasattr(repro, "Query")
        for name in ("Query", "col", "lit", "func", "and_", "or_", "not_", "in_set", "is_null"):
            assert not hasattr(minidb, name), name
        assert not hasattr(repro.Database, "query")
        assert importlib.util.find_spec("repro.minidb.query") is None


class TestExamplesImportOnlyThePublicSurface:
    def test_examples_exist(self):
        assert (EXAMPLES_DIR / "serve_crawls.py").is_file()

    def test_no_example_reaches_into_submodules(self):
        offenders = []
        for path in sorted(EXAMPLES_DIR.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    if module == "repro" or not module.startswith("repro"):
                        continue
                    offenders.append(f"{path.name}: from {module} import ...")
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.startswith("repro.") or alias.name == "repro":
                            offenders.append(f"{path.name}: import {alias.name}")
        assert offenders == []

    def test_examples_only_use_exported_names(self):
        exported = set(repro.__all__)
        offenders = []
        for path in sorted(EXAMPLES_DIR.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "repro":
                    for alias in node.names:
                        if alias.name not in exported:
                            offenders.append(f"{path.name}: {alias.name}")
        assert offenders == []


def imported_modules(tree):
    """Every absolute module name an AST imports, ``from a import b`` as ``a`` and ``a.b``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def named_uses(tree, name):
    """``(enclosing qualname, kind)`` of every ``.name`` attribute, annotated
    ``name`` field and ``"name"`` string constant in a module's AST."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr == name:
            found.append((scope, "attribute"))
        elif isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == name:
            found.append((scope, "field"))
        elif isinstance(node, ast.Constant) and node.value == name:
            found.append((scope, "string"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


class TestKnobs:
    def test_src_reads_no_env_variable(self):
        """Every ``REPRO_*`` name spelled as a whole string in ``src/``: the
        fetch path is picked by the transport, the shard count is the
        config's own and the crawl has one scoring kernel, none of them by
        an env default."""
        names = set()
        for path in sorted(PACKAGE_DIR.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value):
                        names.add(node.value)
        assert names == set()

    def test_crawler_config_fields_are_pinned(self):
        """Every ``CrawlerConfig`` field, in declaration order: a new knob
        is a visible diff here."""
        assert tuple(field.name for field in dataclasses.fields(CrawlerConfig)) == (
            "max_pages",
            "focus_mode",
            "ordering",
            "distill_every",
            "distill_iterations",
            "rho",
            "hub_boost_top_k",
            "hub_boost_priority",
            "max_retries",
            "stagnation_patience",
            "batch_size",
            "fetch_mode",  # inert; goes once ROADMAP 1A unbinds the suite
            "prefetch",  # inert; goes once ROADMAP 1A unbinds the suite
            "max_inflight",
            "per_server_inflight",
            "transport",
            "transport_options",
            "cassette_path",
            "cassette_mode",
            "cassette_strict",
            "engine",
            "shards",  # goes with sharding (ROADMAP 2)
            "shard_runner",  # goes with sharding (ROADMAP 2)
            "checkpoint_every",
            "checkpoint_interval_s",
            "score_backend",  # inert; goes once ROADMAP 1A unbinds the suite
            "wal_fsync_batch",  # legacy; goes once ROADMAP 1A unbinds the suite
            "storage",
        )

    def test_job_spec_fields_are_pinned(self):
        """Every ``JobSpec`` field, in declaration order: storage and the
        cassette live on the crawler config, and a new job knob is a
        visible diff here."""
        assert tuple(field.name for field in dataclasses.fields(repro.JobSpec)) == (
            "good_topics",
            "seeds",
            "max_pages",
            "focused",
            "fetch_failure_seed",
            "checkpoint_dir",
            "crawler",
            "fetch_budget",
            "name",
        )

    def test_engine_modes_are_pinned(self):
        """A round of one is ``batch_size=1``: no mode pins K."""
        assert ENGINE_MODES == ("auto", "batched", "sharded")

    def test_score_backend_is_only_declared_and_validated(self):
        """The inert field cannot select a scoring path again: ``src/`` names
        it only where ``CrawlerConfig`` declares it and where the engine
        refuses a value that was never valid."""
        uses = set()
        for path in sorted(PACKAGE_DIR.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            relative = path.relative_to(PACKAGE_DIR).as_posix()
            uses.update((relative, *use) for use in named_uses(tree, "score_backend"))
        assert uses == {
            ("crawler/engine.py", "CrawlerConfig", "field"),
            ("crawler/engine.py", "CrawlEngine.__init__", "attribute"),
        }

    def test_the_use_finder_sees_every_spelling(self):
        tree = ast.parse(
            "class C:\n"
            "    knob: str = 'a'\n"
            "    def f(self):\n"
            "        return self.knob, getattr(self, 'knob')\n"
        )
        assert sorted(named_uses(tree, "knob")) == [
            ("C", "field"),
            ("C.f", "attribute"),
            ("C.f", "string"),
        ]


class TestOneThreadOfControl:
    @pytest.mark.parametrize("package", ["minidb", "crawler"])
    def test_package_imports_no_thread_module(self, package):
        offenders = []
        for path in sorted((PACKAGE_DIR / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for name in imported_modules(tree):
                if any(name == banned or name.startswith(banned + ".") for banned in THREAD_MODULES):
                    offenders.append(f"{path.relative_to(PACKAGE_DIR)}: {name}")
        assert offenders == []
