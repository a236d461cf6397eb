"""In-memory relevance-weighted HITS (the distillation reference implementation).

Kleinberg's mutual recursion, specialised as in paper §2.2:

    a(v) ← Σ_{(u,v)∈E} h(u) · E_F[u,v]     (only for v with relevance > ρ)
    h(u) ← Σ_{(u,v)∈E} a(v) · E_B[u,v]

with L1 normalisation after each half-step and same-server ("nepotism")
edges excluded.  This is the oracle: the crawl distils with the
columnar kernel of :mod:`repro.distiller.compiled`, which must agree
with it to 1e-9, and the DB-backed distillers in
:mod:`repro.distiller.db_distiller` must converge to the same scores.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .weights import Link


class DistillationResult:
    """Hub and authority scores keyed by page oid.

    Two backings, one interface.  :func:`weighted_hits` and the DB
    distillers hand over the score dicts they computed.  The columnar
    kernel hands over its dense vectors (:meth:`from_dense`) and the
    dicts are only built if someone reads them: the crawl loop stores
    and ranks straight from the arrays.
    """

    #: ``(oids, hubs, authorities)`` of a dense result: ``hubs[i]`` and
    #: ``authorities[i]`` score ``oids[i]``; zero means "no score".  *oids*
    #: is the graph's append-only node list and may be longer than the
    #: vectors (nodes densified after this run).
    dense: Optional[Tuple[Sequence[int], np.ndarray, np.ndarray]] = None

    def __init__(
        self,
        hub_scores: Optional[Dict[int, float]] = None,
        authority_scores: Optional[Dict[int, float]] = None,
        iterations: int = 0,
    ) -> None:
        self.hub_scores = {} if hub_scores is None else hub_scores
        self.authority_scores = {} if authority_scores is None else authority_scores
        self.iterations = iterations

    @classmethod
    def from_dense(
        cls,
        oids: Sequence[int],
        hubs: np.ndarray,
        authorities: np.ndarray,
        iterations: int,
    ) -> "DistillationResult":
        result = cls.__new__(cls)
        result.dense = (oids, hubs, authorities)
        result.iterations = iterations
        return result

    # cached_property is a non-data descriptor: dict-backed results carry
    # the dicts in __dict__ and never reach these.
    @cached_property
    def hub_scores(self) -> Dict[int, float]:
        oids, hubs, _authorities = self.dense
        return _nonzero_scores(oids, hubs)

    @cached_property
    def authority_scores(self) -> Dict[int, float]:
        oids, _hubs, authorities = self.dense
        return _nonzero_scores(oids, authorities)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistillationResult):
            return NotImplemented
        return (self.hub_scores, self.authority_scores, self.iterations) == (
            other.hub_scores, other.authority_scores, other.iterations
        )

    def __repr__(self) -> str:
        return (
            f"DistillationResult(hubs={len(self.hub_scores)}, "
            f"authorities={len(self.authority_scores)}, iterations={self.iterations})"
        )

    def top_hubs(self, k: int = 10) -> list[tuple[int, float]]:
        if self.dense is not None:
            return _top_dense(self.dense[0], self.dense[1], k)
        return sorted(self.hub_scores.items(), key=lambda kv: -kv[1])[:k]

    def top_authorities(self, k: int = 10) -> list[tuple[int, float]]:
        if self.dense is not None:
            return _top_dense(self.dense[0], self.dense[2], k)
        return sorted(self.authority_scores.items(), key=lambda kv: -kv[1])[:k]

    def hub_threshold(self, percentile: float = 0.9) -> float:
        """The score at the given percentile of hub scores (the paper's ψ)."""
        if not self.hub_scores:
            return 0.0
        values = sorted(self.hub_scores.values())
        index = min(int(percentile * len(values)), len(values) - 1)
        return values[index]


def _nonzero_scores(oids: Sequence[int], scores: np.ndarray) -> Dict[int, float]:
    return {oid: score for oid, score in zip(oids, scores.tolist()) if score != 0.0}


def _top_dense(oids: Sequence[int], scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """The k best non-zero scores, ties in dense order.

    A stable descending sort over the non-zero entries: exactly the order
    ``sorted(scores_dict.items(), key=lambda kv: -kv[1])[:k]`` gives, the
    dict being the non-zero entries in dense order.
    """
    nonzero = np.flatnonzero(scores)
    best = nonzero[np.argsort(-scores[nonzero], kind="stable")[:k]]
    return [(oids[index], score) for index, score in zip(best.tolist(), scores[best].tolist())]


def _normalize(scores: Dict[int, float]) -> None:
    total = sum(scores.values())
    if total <= 0:
        return
    for key in scores:
        scores[key] /= total


def weighted_hits(
    links: Iterable[Link],
    relevance: Mapping[int, float],
    rho: float = 0.1,
    max_iterations: int = 25,
    tolerance: float = 1e-9,
    exclude_nepotism: bool = True,
    use_relevance_weights: bool = True,
) -> DistillationResult:
    """Run relevance-weighted HITS over a link set.

    ``relevance`` maps oid -> R(page) for visited pages; unvisited
    endpoints default to 0 relevance and therefore neither receive nor
    reflect prestige (matching the Figure 4 SQL, which joins AUTH
    candidates against CRAWL).  With ``use_relevance_weights=False`` the
    computation degrades to classical HITS (used by the ablation bench).
    """
    edges = []
    for link in links:
        if exclude_nepotism and link.is_nepotistic:
            continue
        edges.append(link)
    if not edges:
        return DistillationResult(iterations=0)

    sources = {link.oid_src for link in edges}
    hubs: Dict[int, float] = {oid: 1.0 / len(sources) for oid in sources}
    authorities: Dict[int, float] = {}

    # The relevance filter and the forward weights do not change across
    # iterations, so resolve them once instead of per edge per iteration.
    forward_edges: list[tuple[int, int, float]] = []
    for link in edges:
        destination_relevance = relevance.get(link.oid_dst, 0.0)
        if destination_relevance <= rho:
            continue
        weight = (
            (link.wgt_fwd if link.wgt_fwd is not None else destination_relevance)
            if use_relevance_weights
            else 1.0
        )
        forward_edges.append((link.oid_src, link.oid_dst, weight))

    iterations_run = 0
    for iteration in range(max_iterations):
        iterations_run = iteration + 1
        # Authority update (forward direction, filtered by relevance > rho).
        new_authorities: Dict[int, float] = {}
        for oid_src, oid_dst, weight in forward_edges:
            contribution = hubs.get(oid_src, 0.0) * weight
            if contribution:
                new_authorities[oid_dst] = (
                    new_authorities.get(oid_dst, 0.0) + contribution
                )
        _normalize(new_authorities)

        # Hub update (backward direction).
        new_hubs: Dict[int, float] = {}
        for link in edges:
            authority_score = new_authorities.get(link.oid_dst, 0.0)
            if not authority_score:
                continue
            weight = (
                (link.wgt_rev if link.wgt_rev is not None else relevance.get(link.oid_src, 0.0))
                if use_relevance_weights
                else 1.0
            )
            contribution = authority_score * weight
            if contribution:
                new_hubs[link.oid_src] = new_hubs.get(link.oid_src, 0.0) + contribution
        _normalize(new_hubs)

        # Convergence check on the hub vector.
        delta = 0.0
        for oid in set(new_hubs) | set(hubs):
            delta += abs(new_hubs.get(oid, 0.0) - hubs.get(oid, 0.0))
        hubs, authorities = new_hubs, new_authorities
        if delta < tolerance:
            break

    return DistillationResult(
        hub_scores=hubs, authority_scores=authorities, iterations=iterations_run
    )
