"""Tests for topic trees and URL handling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.webgraph.topics import (
    DEFAULT_TOPIC_SPEC,
    build_tree,
    default_topic_tree,
    leaf_paths,
    sibling_paths,
)
from repro.webgraph.urls import (
    SyntheticUrl,
    host_of,
    make_url,
    normalize_url,
    resolve_url,
    server_sid,
    url_oid,
)


class TestTopicTree:
    def test_default_tree_structure(self):
        root = default_topic_tree()
        assert root.name == "root"
        assert {c.name for c in root.children} == set(DEFAULT_TOPIC_SPEC)
        assert "recreation/cycling" in leaf_paths(root)

    def test_find_and_path(self):
        root = default_topic_tree()
        node = root.find("business/investment/mutual_funds")
        assert node.path == "business/investment/mutual_funds"
        assert node.is_leaf
        assert root.find("") is root
        with pytest.raises(KeyError):
            root.find("no/such/topic")

    def test_ancestors_and_depth(self):
        root = default_topic_tree()
        node = root.find("health/first_aid")
        assert [a.name for a in node.ancestors()] == ["health", "root"]
        assert node.depth() == 2
        assert root.depth() == 0

    def test_walk_covers_all_nodes(self):
        root = build_tree({"a": {"b": {}, "c": {}}, "d": {}})
        names = [n.name for n in root.walk()]
        assert names == ["root", "a", "b", "c", "d"]

    def test_sibling_paths(self):
        root = default_topic_tree()
        siblings = sibling_paths(root, "recreation/cycling")
        assert "recreation/running" in siblings
        assert "recreation/cycling" not in siblings
        assert sibling_paths(root, "") == []

    def test_add_child(self):
        root = build_tree({})
        child = root.add_child("new")
        assert child.parent is root
        assert child.path == "new"


class TestUrls:
    def test_normalize_is_idempotent_and_canonical(self):
        url = "HTTP://Example.COM:80//a//b.html#frag"
        normalized = normalize_url(url)
        assert normalized == "http://example.com/a/b.html"
        assert normalize_url(normalized) == normalized

    def test_default_path(self):
        assert normalize_url("http://example.com") == "http://example.com/"

    def test_oid_and_sid_stability(self):
        assert url_oid("http://a.com/x") == url_oid("HTTP://A.com/x")
        assert url_oid("http://a.com/x") != url_oid("http://a.com/y")
        assert server_sid("http://a.com/x") == server_sid("a.com")
        assert 0 <= url_oid("http://a.com/") < 2**64

    def test_same_server_different_pages_share_sid(self):
        first = SyntheticUrl("cycling0.example.org", "a/1.html")
        second = SyntheticUrl("cycling0.example.org", "a/2.html")
        assert first.sid == second.sid
        assert first.oid != second.oid

    def test_host_of_and_make_url(self):
        url = make_url("srv.example.org", 3, "cycling")
        assert str(url) == "http://srv.example.org/cycling/3.html"
        assert host_of(str(url)) == "srv.example.org"

    @given(
        host=st.from_regex(r"[a-z]{1,10}\.example\.org", fullmatch=True),
        path=st.from_regex(r"[a-z0-9/]{0,20}", fullmatch=True),
    )
    @settings(max_examples=50, deadline=None)
    def test_normalization_idempotent_property(self, host, path):
        url = f"http://{host}/{path}"
        assert normalize_url(normalize_url(url)) == normalize_url(url)

    def test_fast_path_agrees_with_full_parse(self):
        """The already-canonical fast path must match urlsplit exactly."""
        from urllib.parse import urlsplit, urlunsplit

        def full_parse(url):
            parts = urlsplit(url.strip())
            scheme = (parts.scheme or "http").lower()
            netloc = parts.netloc.lower()
            if netloc.endswith(":80") and scheme == "http":
                netloc = netloc[: -len(":80")]
            path = parts.path or "/"
            while "//" in path:
                path = path.replace("//", "/")
            return urlunsplit((scheme, netloc, path, parts.query, ""))

        cases = [
            "http://a.example.com/page/1.html",
            "http://host/", "http://host", "HTTP://Host/Path",
            "http://host:80/x", "http://host:8080/x",
            "http://host/a//b", "http://host/a?q=1", "http://host/a#frag",
            " http://host/x ", "https://host/x", "http://user@host/x",
            "http://host/x%20y", "http://host/tr ailing",
            # urlsplit strips embedded tab/CR/LF; the fast path must defer.
            "http://a.com/x\ty", "http://a.com/x\ny", "http://a.com/x\ry",
            "http://a.com\t/x",
        ]
        for url in cases:
            assert normalize_url(url) == full_parse(url), url

    @pytest.mark.parametrize(
        "url",
        [
            "http://a.example.com/page/1.html", "HTTP://Host:80/Path#f", "http://host",
            " http://host/a//b ", "http://a.com/x\ty", "https://Host:443/x", "http://user@Host/x",
        ],
    )
    def test_resolve_url_is_normalize_oid_and_sid(self, url):
        """Hashed past their caches, the triple is still what the three functions give."""
        normalized = normalize_url(url)
        assert resolve_url(url) == (normalized, url_oid(normalized), server_sid(normalized))
        assert resolve_url(url) is resolve_url(url)
