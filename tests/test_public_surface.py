"""The consolidated public API surface: ``repro`` is the one import root."""

import ast
import importlib.util
import pathlib
import re

import pytest

import repro

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


class TestKnobs:
    def test_src_reads_exactly_one_env_variable(self):
        """Every ``REPRO_*`` name spelled as a whole string in ``src/``: the
        fetch path is picked by the transport and the shard count is the
        config's own, neither by an env default."""
        names = set()
        for path in sorted(PACKAGE_DIR.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value):
                        names.add(node.value)
        assert names == {"REPRO_SCORE_BACKEND"}


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
