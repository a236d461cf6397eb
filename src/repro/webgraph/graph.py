"""The synthetic distributed hypertext graph.

This module plays the role of the Web in the reproduction.  The paper
crawled the live 1999 Web; without network access we generate a web
whose *statistical structure* matches the two properties the paper's
architecture exploits (§2):

* **Radius-1 rule** — "Compared to an irrelevant page, a relevant page is
  more likely to cite another relevant page."  Topic pages here link to
  same-topic pages with probability ``p_same_topic`` (default ≈ 0.55),
  while background pages link to any given topic with only
  ``background_p_topic`` (default 0.03).
* **Radius-2 rule** — "if we are told that u does point to one page v of a
  given topic, this significantly inflates the probability that u has a
  link to another page of the same topic."  The paper measures ≈45 % for
  Yahoo! first-level topics.  We reproduce it two ways: link generation
  proceeds in *runs* (after emitting a same-topic link the next slot
  repeats the topic with probability ``radius2_continuation``), and a
  fraction of topic pages are *hubs* — bookmark-list pages with large,
  topically coherent out-link lists.

The generator also adds the nuisance structure the paper calls out:
universally popular off-topic sites that everyone links to (the
"Netscape and Free Speech Online" effect, which motivates relevance-
weighted distillation), plain background pages, dead links, and multiple
servers per topic (so the nepotism filter ``sid_src <> sid_dst`` and the
``serverload`` throttle have something to do).  A configurable co-topic
association (cycling → first aid) supports the §1 "citation sociology"
example.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from .documents import DocumentGenerator
from .servers import ServerPool, default_server_name
from .topics import TopicNode, default_topic_tree, sibling_paths
from .urls import make_url, normalize_url, server_sid, url_oid
from .vocabulary import Vocabulary


@dataclass
class WebPage:
    """One synthetic page: identity, ground truth, text, and out-links."""

    url: str
    server: str
    topic_path: str  # "" for background / popular pages
    tokens: list[str]
    out_links: list[str] = field(default_factory=list)
    is_hub: bool = False
    is_popular: bool = False
    #: Position of the page within its topic community (0-based); drives the
    #: link-locality structure that gives topic communities a large diameter.
    topic_index: int = 0

    @property
    def oid(self) -> int:
        return url_oid(self.url)

    @property
    def sid(self) -> int:
        return server_sid(self.server)


@dataclass
class WebConfig:
    """Parameters of the synthetic web generator.

    The defaults produce a web of roughly 2.5k–3k pages — large enough
    that an unfocused crawler drowns (Figure 5a) yet small enough that
    the full experiment suite runs in seconds.
    """

    seed: int = 7
    #: Number of content pages generated per leaf topic.
    pages_per_topic: int = 120
    #: Per-topic overrides of ``pages_per_topic`` (lets the good topic's
    #: community dwarf the crawl budget, as on the real web).
    topic_page_overrides: dict[str, int] = field(default_factory=dict)
    #: Number of off-topic background pages.
    background_pages: int = 700
    #: Fraction of each topic's pages that are hubs (bookmark lists).
    hub_fraction: float = 0.08
    #: Number of universally popular off-topic sites.
    popular_sites: int = 12
    #: Servers hosting each topic's pages (a minimum; see ``pages_per_server``).
    servers_per_topic: int = 4
    #: Servers hosting background pages (a minimum; see ``pages_per_server``).
    background_servers: int = 24
    #: Roughly how many pages live on one server.  Real web communities are
    #: spread over many sites, so the number of servers scales with the
    #: community size; this keeps the ``serverload`` crawl-ordering column
    #: a politeness tie-break rather than a dominant signal.
    pages_per_server: int = 12
    #: Mean out-degree of ordinary pages / hub pages / popular sites.
    out_degree_mean: float = 9.0
    hub_out_degree_mean: float = 28.0
    popular_out_degree_mean: float = 40.0
    #: Radius-1 locality: probability an ordinary topic page's link targets
    #: its own topic, a related (sibling) topic, a popular site, or the
    #: background web (the four must sum to <= 1; the remainder is background).
    p_same_topic: float = 0.52
    p_related_topic: float = 0.12
    p_popular: float = 0.12
    #: Probability that a *background* page links to any topic page at all.
    background_p_topic: float = 0.03
    #: Radius-2 run continuation probability (the paper's ≈45 %).
    radius2_continuation: float = 0.45
    #: Hub link mix: hubs devote most of their links to their own topic.
    hub_p_same_topic: float = 0.78
    hub_p_related: float = 0.08
    #: Same-topic link targets are drawn from a window of this many topic
    #: indices around the citing page (None = anywhere in the community).
    #: Localised linking gives each community a large diameter, which is
    #: what makes the paper's Figure 7 (authorities found many links from
    #: the seed set) reproducible at laptop scale.
    link_locality_window: Optional[int] = None
    #: Hubs use a window this many times larger than ordinary pages.
    hub_locality_multiplier: int = 4
    #: Keyword-search seeds are drawn from this leading fraction of the
    #: topic community (keyword engines surface the prominent, well-linked
    #: head of a community, not a uniform sample of it).
    seed_region_fraction: float = 1.0
    #: Fraction of generated links pointing at URLs that do not exist (404s).
    dead_link_fraction: float = 0.03
    #: Mean token count per page.
    mean_doc_length: int = 120
    #: Size of the shared background vocabulary and of each topic's block of
    #: characteristic terms.  Larger values make the classifier's statistics
    #: tables bigger, which is what the Figure 8 buffer-pool experiments need.
    vocabulary_background_size: int = 400
    vocabulary_terms_per_topic: int = 60
    #: Co-topic associations: pages of the key topic also link to the value
    #: topic with probability ``cotopic_prob`` (the citation-sociology signal).
    cotopic_links: dict[str, str] = field(
        default_factory=lambda: {"recreation/cycling": "health/first_aid"}
    )
    cotopic_prob: float = 0.18
    #: Per-server transient failure rate.
    server_failure_rate: float = 0.02


class WebGraph:
    """The generated hypertext: pages, servers, ground-truth topics, link structure."""

    def __init__(
        self,
        pages: Dict[str, WebPage],
        servers: ServerPool,
        topic_tree: TopicNode,
        vocabulary: Vocabulary,
        config: WebConfig,
    ) -> None:
        self.pages = pages
        self.servers = servers
        self.topic_tree = topic_tree
        self.vocabulary = vocabulary
        self.config = config
        self._by_topic: Dict[str, list[str]] = {}
        for url, page in pages.items():
            self._by_topic.setdefault(page.topic_path, []).append(url)
        self._in_links: Optional[Dict[str, list[str]]] = None

    def with_private_servers(self) -> "WebGraph":
        """A read-sharing view of this web with its own :class:`ServerPool` RNG.

        Pages, topic tree, and vocabulary are shared (crawls only read
        them); the server pool is cloned so this view's failure/latency
        stream is private.  The multi-tenant job manager gives each
        concurrent crawl such a view, keeping every job's draw sequence
        bit-identical to the same job run solo over the shared web.
        """
        import copy

        view = copy.copy(self)
        view.servers = self.servers.clone()
        return view

    # -- lookups ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.pages)

    def __contains__(self, url: str) -> bool:
        return normalize_url(url) in self.pages

    def page(self, url: str) -> WebPage:
        return self.pages[normalize_url(url)]

    def has_page(self, url: str) -> bool:
        return normalize_url(url) in self.pages

    def urls(self) -> list[str]:
        return list(self.pages)

    def out_links(self, url: str) -> list[str]:
        return list(self.page(url).out_links)

    def in_links(self, url: str) -> list[str]:
        if self._in_links is None:
            # Built aside and published whole: the web is shared by every
            # job of a system, and a half-filled map must never be read.
            in_links: Dict[str, list[str]] = {}
            for source, page in self.pages.items():
                for target in page.out_links:
                    in_links.setdefault(normalize_url(target), []).append(source)
            self._in_links = in_links
        return list(self._in_links.get(normalize_url(url), ()))

    def topic_of(self, url: str) -> str:
        return self.page(url).topic_path

    # -- ground truth ------------------------------------------------------------
    def pages_of_topic(self, topic_path: str, include_descendants: bool = True) -> list[str]:
        """URLs whose ground-truth topic is *topic_path* (or below it)."""
        if not include_descendants:
            return list(self._by_topic.get(topic_path, ()))
        out: list[str] = []
        prefix = topic_path + "/" if topic_path else ""
        for path, urls in self._by_topic.items():
            if path == topic_path or (prefix and path.startswith(prefix)):
                out.extend(urls)
        return out

    def relevant_pages(self, good_topics: Sequence[str]) -> set[str]:
        """Ground-truth relevant URLs w.r.t. a set of good topics (with subsumed topics)."""
        out: set[str] = set()
        for topic in good_topics:
            out.update(self.pages_of_topic(topic, include_descendants=True))
        return out

    def topic_census(self) -> dict[str, int]:
        return {path: len(urls) for path, urls in sorted(self._by_topic.items())}

    def hub_pages(self, topic_path: Optional[str] = None) -> list[str]:
        urls = (
            self.pages_of_topic(topic_path) if topic_path is not None else list(self.pages)
        )
        return [u for u in urls if self.pages[u].is_hub]

    # -- graph algorithms ----------------------------------------------------------
    def shortest_distances(self, start_urls: Iterable[str]) -> dict[str, int]:
        """BFS link distance from a start set to every reachable page (Figure 7)."""
        distances: dict[str, int] = {}
        queue: deque[str] = deque()
        for url in start_urls:
            normalized = normalize_url(url)
            if normalized in self.pages and normalized not in distances:
                distances[normalized] = 0
                queue.append(normalized)
        while queue:
            current = queue.popleft()
            for target in self.pages[current].out_links:
                normalized = normalize_url(target)
                if normalized in self.pages and normalized not in distances:
                    distances[normalized] = distances[current] + 1
                    queue.append(normalized)
        return distances

    # -- seed selection --------------------------------------------------------------
    def keyword_seed_pages(
        self,
        topic_path: str,
        count: int = 24,
        rng: Optional[np.random.Generator] = None,
        exclude: Iterable[str] = (),
    ) -> list[str]:
        """Simulate "result of topic distillation with keyword search" seeds (§3.4).

        The paper seeds its crawls with the output of keyword search plus
        topic distillation — i.e. a few dozen highly relevant pages,
        biased toward well-linked hubs.  We model that by sampling from
        the topic's pages with probability proportional to in-degree
        (hubs and popular authorities come first), which is what a
        keyword engine plus HITS would surface.
        """
        rng = rng if rng is not None else np.random.default_rng(self.config.seed + 1)
        excluded = {normalize_url(u) for u in exclude}
        candidates = [u for u in self.pages_of_topic(topic_path) if u not in excluded]
        if not candidates:
            return []
        fraction = self.config.seed_region_fraction
        if fraction < 1.0:
            # Keyword engines surface the prominent head of a community;
            # restricting seeds to it leaves most of the community several
            # links away (the Figure 7 setting).
            cutoff = max(
                count * 2,
                int(round(len(self.pages_of_topic(topic_path)) * fraction)),
            )
            regional = [u for u in candidates if self.pages[u].topic_index < cutoff]
            if len(regional) >= count:
                candidates = regional
        weights = np.array(
            [1.0 + len(self.in_links(u)) + (5.0 if self.pages[u].is_hub else 0.0) for u in candidates]
        )
        weights = weights / weights.sum()
        count = min(count, len(candidates))
        chosen = rng.choice(len(candidates), size=count, replace=False, p=weights)
        return [candidates[i] for i in chosen]

    def disjoint_seed_sets(
        self, topic_path: str, size: int = 20, rng: Optional[np.random.Generator] = None
    ) -> tuple[list[str], list[str]]:
        """Two disjoint seed sets S1, S2 for the coverage experiment (§3.5)."""
        rng = rng if rng is not None else np.random.default_rng(self.config.seed + 2)
        first = self.keyword_seed_pages(topic_path, size, rng)
        second = self.keyword_seed_pages(topic_path, size, rng, exclude=first)
        return first, second


class SyntheticWebBuilder:
    """Builds a :class:`WebGraph` from a :class:`WebConfig`."""

    def __init__(self, config: Optional[WebConfig] = None, seed: Optional[int] = None) -> None:
        if config is None:
            config = WebConfig(seed=seed if seed is not None else 7)
        elif seed is not None:
            config.seed = seed
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.topic_tree = default_topic_tree()

    # -- public API -------------------------------------------------------------
    def build(self, topic_tree: Optional[TopicNode] = None) -> WebGraph:
        """Generate the full synthetic web."""
        config = self.config
        if topic_tree is not None:
            self.topic_tree = topic_tree
        leaves = [leaf.path for leaf in self.topic_tree.leaves()]
        vocabulary = Vocabulary.build(
            leaves,
            background_size=config.vocabulary_background_size,
            terms_per_topic=config.vocabulary_terms_per_topic,
        )
        documents = DocumentGenerator(
            vocabulary, mean_length=config.mean_doc_length, rng=self.rng
        )
        servers = ServerPool(rng=self.rng)

        pages: Dict[str, WebPage] = {}
        topic_urls: Dict[str, list[str]] = {leaf: [] for leaf in leaves}
        background_urls: list[str] = []
        popular_urls: list[str] = []

        self._create_topic_pages(leaves, servers, documents, pages, topic_urls)
        self._create_background_pages(servers, documents, pages, background_urls)
        self._create_popular_pages(servers, documents, pages, popular_urls)
        self._wire_links(leaves, pages, topic_urls, background_urls, popular_urls)

        return WebGraph(pages, servers, self.topic_tree, vocabulary, config)

    # -- page creation --------------------------------------------------------------
    def _create_topic_pages(
        self,
        leaves: Sequence[str],
        servers: ServerPool,
        documents: DocumentGenerator,
        pages: Dict[str, WebPage],
        topic_urls: Dict[str, list[str]],
    ) -> None:
        config = self.config
        for leaf in leaves:
            slug = leaf.replace("/", "-")
            page_count = config.topic_page_overrides.get(leaf, config.pages_per_topic)
            server_count = max(
                config.servers_per_topic, page_count // config.pages_per_server
            )
            topic_servers = [
                servers.ensure(
                    default_server_name(slug, i), failure_rate=config.server_failure_rate
                ).name
                for i in range(server_count)
            ]
            n_hubs = max(1, int(round(page_count * config.hub_fraction)))
            # Hubs are spread through the community (every community region
            # has its bookmark pages), not clustered at the front.
            hub_stride = max(1, page_count // n_hubs)
            for index in range(page_count):
                server = topic_servers[int(self.rng.integers(len(topic_servers)))]
                url = str(make_url(server, index, slug))
                is_hub = index % hub_stride == 0 and index // hub_stride < n_hubs
                if is_hub:
                    doc = documents.generate_mixture(
                        {leaf: 1.0}, primary_topic=leaf, background_weight=1.2
                    )
                else:
                    doc = documents.generate(leaf)
                pages[normalize_url(url)] = WebPage(
                    url=normalize_url(url),
                    server=server,
                    topic_path=leaf,
                    tokens=doc.tokens,
                    is_hub=is_hub,
                    topic_index=index,
                )
                topic_urls[leaf].append(normalize_url(url))

    def _create_background_pages(
        self,
        servers: ServerPool,
        documents: DocumentGenerator,
        pages: Dict[str, WebPage],
        background_urls: list[str],
    ) -> None:
        config = self.config
        server_count = max(
            config.background_servers, config.background_pages // config.pages_per_server
        )
        hosts = [
            servers.ensure(
                default_server_name("web", i), failure_rate=config.server_failure_rate
            ).name
            for i in range(server_count)
        ]
        for index in range(config.background_pages):
            server = hosts[int(self.rng.integers(len(hosts)))]
            url = normalize_url(str(make_url(server, index, "misc")))
            doc = documents.generate_background()
            pages[url] = WebPage(url=url, server=server, topic_path="", tokens=doc.tokens)
            background_urls.append(url)

    def _create_popular_pages(
        self,
        servers: ServerPool,
        documents: DocumentGenerator,
        pages: Dict[str, WebPage],
        popular_urls: list[str],
    ) -> None:
        config = self.config
        for index in range(config.popular_sites):
            server = servers.ensure(
                f"popular{index}.example.com", failure_rate=config.server_failure_rate
            ).name
            url = normalize_url(str(make_url(server, 0, "home")))
            doc = documents.generate_background()
            pages[url] = WebPage(
                url=url, server=server, topic_path="", tokens=doc.tokens, is_popular=True
            )
            popular_urls.append(url)

    # -- link wiring ------------------------------------------------------------------
    def _wire_links(
        self,
        leaves: Sequence[str],
        pages: Dict[str, WebPage],
        topic_urls: Dict[str, list[str]],
        background_urls: list[str],
        popular_urls: list[str],
    ) -> None:
        config = self.config
        all_urls = list(pages)
        for url, page in pages.items():
            if page.topic_path:
                self._wire_topic_page(
                    page, leaves, topic_urls, background_urls, popular_urls
                )
            else:
                self._wire_background_page(
                    page, topic_urls, background_urls, popular_urls
                )
            self._maybe_break_links(page)
        # Guarantee distillation signal: every hub also receives a few
        # in-links from nearby pages of its own topic (bookmark pages are
        # well known *within their neighbourhood*; sampling the sources
        # globally would create shortcuts across the community and destroy
        # the long crawl distances of Figure 7).
        window = config.link_locality_window
        for leaf in leaves:
            community = topic_urls[leaf]
            hubs = [u for u in community if pages[u].is_hub]
            for hub in hubs:
                hub_index = pages[hub].topic_index
                if window is None:
                    neighbourhood = [u for u in community if not pages[u].is_hub]
                else:
                    neighbourhood = [
                        u
                        for u in community
                        if not pages[u].is_hub
                        and abs(pages[u].topic_index - hub_index) <= 2 * window
                    ]
                sources = self._sample(neighbourhood, min(6, len(neighbourhood)))
                for source in sources:
                    if hub not in pages[source].out_links and source != hub:
                        pages[source].out_links.append(hub)

    def _wire_topic_page(
        self,
        page: WebPage,
        leaves: Sequence[str],
        topic_urls: Dict[str, list[str]],
        background_urls: list[str],
        popular_urls: list[str],
    ) -> None:
        config = self.config
        leaf = page.topic_path
        related = sibling_paths(self.topic_tree, leaf)
        cotopic = config.cotopic_links.get(leaf)
        if page.is_hub:
            degree = max(6, int(self.rng.poisson(config.hub_out_degree_mean)))
            p_same, p_related = config.hub_p_same_topic, config.hub_p_related
        else:
            degree = max(2, int(self.rng.poisson(config.out_degree_mean)))
            p_same, p_related = config.p_same_topic, config.p_related_topic
        window = config.link_locality_window
        if window is not None and page.is_hub:
            window = window * config.hub_locality_multiplier
        links: list[str] = []
        previous_was_same = False
        for _ in range(degree):
            # Radius-2 rule: continue a same-topic run with extra probability.
            if previous_was_same and self.rng.random() < config.radius2_continuation:
                choice = "same"
            else:
                roll = self.rng.random()
                if roll < p_same:
                    choice = "same"
                elif roll < p_same + p_related:
                    choice = "related"
                elif roll < p_same + p_related + config.p_popular:
                    choice = "popular"
                else:
                    choice = "background"
            if choice == "same":
                target = self._sample_same_topic(page, topic_urls[leaf], window)
            else:
                target = self._pick_target(
                    choice, leaf, related, topic_urls, background_urls, popular_urls
                )
            previous_was_same = choice == "same"
            if target and target != page.url and target not in links:
                links.append(target)
        if cotopic and self.rng.random() < config.cotopic_prob:
            target = self._sample_prominent(topic_urls.get(cotopic, []))
            if target and target not in links:
                links.append(target)
        page.out_links = links

    def _wire_background_page(
        self,
        page: WebPage,
        topic_urls: Dict[str, list[str]],
        background_urls: list[str],
        popular_urls: list[str],
    ) -> None:
        config = self.config
        mean_degree = (
            config.popular_out_degree_mean if page.is_popular else config.out_degree_mean
        )
        degree = max(1, int(self.rng.poisson(mean_degree)))
        links: list[str] = []
        leaves = list(topic_urls)
        for _ in range(degree):
            roll = self.rng.random()
            if roll < config.background_p_topic and leaves:
                leaf = leaves[int(self.rng.integers(len(leaves)))]
                target = self._sample_prominent(topic_urls[leaf])
            elif roll < config.background_p_topic + config.p_popular:
                target = self._sample_one(popular_urls)
            else:
                target = self._sample_one(background_urls)
            if target and target != page.url and target not in links:
                links.append(target)
        page.out_links = links

    def _sample_same_topic(
        self, page: WebPage, community: Sequence[str], window: Optional[int]
    ) -> Optional[str]:
        """Pick a same-topic link target, optionally restricted to a locality window."""
        if not community:
            return None
        if window is None or window >= len(community):
            return self._sample_one(community)
        low = max(0, page.topic_index - window)
        high = min(len(community), page.topic_index + window + 1)
        return community[int(self.rng.integers(low, high))]

    def _pick_target(
        self,
        choice: str,
        leaf: str,
        related: Sequence[str],
        topic_urls: Dict[str, list[str]],
        background_urls: list[str],
        popular_urls: list[str],
    ) -> Optional[str]:
        if choice == "same":
            return self._sample_one(topic_urls[leaf])
        if choice == "related" and related:
            other = related[int(self.rng.integers(len(related)))]
            return self._sample_prominent(topic_urls.get(other, []))
        if choice == "popular":
            return self._sample_one(popular_urls)
        return self._sample_one(background_urls)

    def _sample_prominent(self, community: Sequence[str]) -> Optional[str]:
        """Pick a topic page biased toward the prominent head of its community.

        Cross-topic and background links on the real web overwhelmingly
        point at a community's well-known pages, not uniformly into its
        long tail; preserving that keeps deep community pages reachable
        only through the community itself (the Figure 7 effect).
        """
        if not community:
            return None
        index = int(len(community) * self.rng.beta(1.0, 8.0))
        return community[min(index, len(community) - 1)]

    def _maybe_break_links(self, page: WebPage) -> None:
        """Replace a fraction of links with dead URLs (404 targets).

        The dead path is derived from the stable 64-bit URL hash — the
        builtin ``hash`` is randomised per process (PYTHONHASHSEED), which
        would break the promise that webs are deterministic functions of
        the seed.
        """
        config = self.config
        for i, target in enumerate(page.out_links):
            if self.rng.random() < config.dead_link_fraction:
                page.out_links[i] = normalize_url(
                    f"http://{page.server}/dead/{url_oid(target) % 10_000}.html"
                )

    # -- sampling helpers ----------------------------------------------------------------
    def _sample_one(self, pool: Sequence[str]) -> Optional[str]:
        if not pool:
            return None
        return pool[int(self.rng.integers(len(pool)))]

    def _sample(self, pool: Sequence[str], k: int) -> list[str]:
        if not pool or k <= 0:
            return []
        k = min(k, len(pool))
        indices = self.rng.choice(len(pool), size=k, replace=False)
        return [pool[i] for i in indices]
