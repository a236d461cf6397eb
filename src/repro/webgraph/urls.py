"""URL synthesis, normalisation, and hashing for the synthetic web.

The paper's schema keys pages by a 64-bit hashed ``oid`` and servers by a
``sid`` (derived from the serving IP address).  We reproduce both: every
synthetic page gets a URL of the form ``http://<host>/<path>``; ``oid``
is a 64-bit hash of the normalised URL and ``sid`` a hash of the host.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from urllib.parse import urlsplit, urlunsplit

#: Cache capacity for the pure URL functions below.  A crawl touches the
#: same URLs dozens of times (frontier membership, link rows, hashing);
#: the caches turn those repeats into dict hits while staying bounded.
_URL_CACHE_SIZE = 1 << 17


def _hash64(text: str) -> int:
    """Stable 64-bit hash (first 8 bytes of blake2b)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@lru_cache(maxsize=_URL_CACHE_SIZE)
def normalize_url(url: str) -> str:
    """Canonicalise a URL: lowercase scheme/host, strip fragments, default paths.

    Normalisation matters because the crawl frontier must not treat
    ``http://example.com`` and ``http://example.com/`` as two pages.
    Already-canonical URLs (every synthetic URL, and any previous output
    of this function) are recognised with a few string checks and
    returned unchanged, skipping the urlsplit/urlunsplit round-trip;
    tests assert the fast path agrees with the full parse.
    """
    if url.startswith("http://") and url == url.lower():
        rest = url[7:]
        slash = rest.find("/")
        if (
            slash > 0
            and "?" not in rest
            and "#" not in rest
            and "//" not in rest[slash:]
            and not rest[:slash].endswith(":80")
            and not url[-1].isspace()
            # urlsplit removes tab/CR/LF anywhere in the URL, so their
            # presence must force the full parse.
            and "\t" not in url
            and "\n" not in url
            and "\r" not in url
        ):
            return url
    parts = urlsplit(url.strip())
    scheme = (parts.scheme or "http").lower()
    netloc = parts.netloc.lower()
    if netloc.endswith(":80") and scheme == "http":
        netloc = netloc[: -len(":80")]
    path = parts.path or "/"
    # Collapse duplicate slashes but preserve a trailing path.
    while "//" in path:
        path = path.replace("//", "/")
    return urlunsplit((scheme, netloc, path, parts.query, ""))


@lru_cache(maxsize=_URL_CACHE_SIZE)
def url_oid(url: str) -> int:
    """64-bit object id of a page URL (the paper's ``oid``)."""
    return _hash64(normalize_url(url))


@lru_cache(maxsize=_URL_CACHE_SIZE)
def host_of(url: str) -> str:
    normalized = normalize_url(url)
    if normalized.startswith("http://"):
        # Normalised form: netloc runs to the first slash after the scheme.
        return normalized[7:].split("/", 1)[0]
    return urlsplit(normalized).netloc


@lru_cache(maxsize=_URL_CACHE_SIZE)
def server_sid(url_or_host: str) -> int:
    """64-bit server id (the paper's ``sid``), derived from the host name.

    The paper notes DNS aberrations (load balancing, multi-homing) make
    IP-based sids imperfect but tolerable; host-name hashing has the same
    role here.
    """
    host = url_or_host if "/" not in url_or_host else host_of(url_or_host)
    return _hash64(host.lower())


@lru_cache(maxsize=_URL_CACHE_SIZE)
def resolve_url(url: str) -> tuple[str, int, int]:
    """A raw URL's ``(normalized, oid, sid)``, hashed past the caches above: this one holds them."""
    normalized = normalize_url(url)
    host = host_of.__wrapped__(normalized)
    return normalized, url_oid.__wrapped__(normalized), server_sid.__wrapped__(host)


@dataclass(frozen=True)
class SyntheticUrl:
    """A structured synthetic URL: ``http://{host}/{path}``."""

    host: str
    path: str

    def __str__(self) -> str:
        return f"http://{self.host}/{self.path}"

    @property
    def url(self) -> str:
        return str(self)

    @property
    def oid(self) -> int:
        return url_oid(self.url)

    @property
    def sid(self) -> int:
        return server_sid(self.host)


def make_url(server_name: str, page_index: int, topic_slug: str = "page") -> SyntheticUrl:
    """Generate a synthetic URL for the *page_index*-th page on *server_name*."""
    return SyntheticUrl(host=server_name, path=f"{topic_slug}/{page_index}.html")
