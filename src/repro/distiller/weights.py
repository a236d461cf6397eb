"""Relevance-weighted edge weights for topic distillation (paper §2.2.2).

Plain HITS treats every hyperlink as an equal endorsement, which lets
prestige leak between topics through universally popular pages.  The
paper specialises the forward and backward adjacency matrices:

* ``E_F[u, v] = relevance(v)`` — u's endorsement of v only counts to the
  extent v is on-topic (stops relevant hubs boosting irrelevant
  authorities such as Netscape);
* ``E_B[u, v] = relevance(u)`` — v only reflects prestige back onto
  on-topic hubs (stops relevant authorities boosting irrelevant
  bookmark files).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional


@dataclass(frozen=True, slots=True)
class Link:
    """One hyperlink in the crawl graph, as stored in the LINK table.

    Fields are in LINK schema order, so ``Link(*row)`` builds one from a
    heap row; slotted because a full-scan edge list holds one per row.
    """

    oid_src: int
    sid_src: int
    oid_dst: int
    sid_dst: int
    wgt_fwd: float = 1.0
    wgt_rev: float = 1.0

    @property
    def is_nepotistic(self) -> bool:
        """True when source and destination live on the same server."""
        return self.sid_src == self.sid_dst


def forward_weight(relevance_of_destination: Optional[float], default: float = 0.0) -> float:
    """E_F[u, v]: the probability u linked to v *because* v is on-topic."""
    if relevance_of_destination is None:
        return default
    return float(min(max(relevance_of_destination, 0.0), 1.0))


def backward_weight(relevance_of_source: Optional[float], default: float = 0.0) -> float:
    """E_B[u, v]: how much of v's prestige should reflect onto hub u."""
    if relevance_of_source is None:
        return default
    return float(min(max(relevance_of_source, 0.0), 1.0))


def assign_weights(
    links: Iterable[Link],
    relevance: Mapping[int, float],
    default_unknown: float = 0.0,
) -> list[Link]:
    """Return links re-weighted from a relevance map (oid -> R).

    Unvisited endpoints (no relevance yet) receive ``default_unknown``;
    the crawler refreshes weights as pages get classified.
    """
    out = []
    for link in links:
        out.append(
            Link(
                oid_src=link.oid_src,
                sid_src=link.sid_src,
                oid_dst=link.oid_dst,
                sid_dst=link.sid_dst,
                wgt_fwd=forward_weight(relevance.get(link.oid_dst), default_unknown),
                wgt_rev=backward_weight(relevance.get(link.oid_src), default_unknown),
            )
        )
    return out
