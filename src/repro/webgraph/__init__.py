"""webgraph: the synthetic distributed hypertext substrate.

Substitutes for the live Web the paper crawled.  The generated graph
obeys the radius-1 and radius-2 topical-locality rules the Focus
architecture exploits, includes hub/bookmark pages, universally popular
off-topic sites, background pages, multiple servers per topic, dead
links, and transient server failures — everything the crawler, the
classifier, and the distiller need to be exercised end to end.

Typical use::

    from repro.webgraph import SyntheticWebBuilder, Fetcher

    web = SyntheticWebBuilder(seed=7).build()
    fetcher = Fetcher(web)
    seeds = web.keyword_seed_pages("recreation/cycling")
    result = fetcher.fetch(seeds[0])
"""

from .documents import Document, DocumentGenerator
from .fetch import Fetcher, FetchResult, FetchStats, FetchStatus
from .graph import SyntheticWebBuilder, WebConfig, WebGraph, WebPage
from .servers import ServerPool, ServerProfile
from .transport import (
    TRANSPORTS,
    FetchTransport,
    HttpTransport,
    LatencyTransport,
    PendingFetch,
    SimulatedTransport,
    build_transport,
)
from .topics import (
    DEFAULT_TOPIC_SPEC,
    TopicNode,
    build_tree,
    default_topic_tree,
    leaf_paths,
    sibling_paths,
)
from .urls import SyntheticUrl, host_of, make_url, normalize_url, server_sid, url_oid
from .vocabulary import TermDistribution, Vocabulary, term_id, zipf_probabilities

__all__ = [
    "DEFAULT_TOPIC_SPEC",
    "Document",
    "DocumentGenerator",
    "Fetcher",
    "FetchResult",
    "FetchStats",
    "FetchStatus",
    "FetchTransport",
    "HttpTransport",
    "LatencyTransport",
    "PendingFetch",
    "ServerPool",
    "ServerProfile",
    "SimulatedTransport",
    "SyntheticUrl",
    "SyntheticWebBuilder",
    "TRANSPORTS",
    "TermDistribution",
    "TopicNode",
    "Vocabulary",
    "WebConfig",
    "WebGraph",
    "WebPage",
    "build_transport",
    "build_tree",
    "default_topic_tree",
    "host_of",
    "leaf_paths",
    "make_url",
    "normalize_url",
    "server_sid",
    "sibling_paths",
    "term_id",
    "url_oid",
    "zipf_probabilities",
]
