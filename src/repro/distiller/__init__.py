"""distiller: relevance-weighted topic distillation (paper §2.2).

Identifies *hubs* (pages whose link lists lead to many relevant pages —
good crawl access points worth revisiting) and *authorities* (popular
relevant pages) over the growing crawl graph, with hyperlink weights
derived from the classifier's relevance judgements so prestige does not
leak to off-topic pages.
"""

from .compiled import CompiledLinkGraph, compile_links, compiled_weighted_hits
from .db_distiller import (
    DistillerCost,
    IncrementalDistiller,
    IndexLookupDistiller,
    JoinDistiller,
    LinkDeltaCache,
)
from .hits import DistillationResult, weighted_hits
from .weights import Link, assign_weights, backward_weight, forward_weight

__all__ = [
    "CompiledLinkGraph",
    "DistillationResult",
    "DistillerCost",
    "IncrementalDistiller",
    "IndexLookupDistiller",
    "JoinDistiller",
    "LinkDeltaCache",
    "Link",
    "assign_weights",
    "backward_weight",
    "compile_links",
    "compiled_weighted_hits",
    "forward_weight",
    "weighted_hits",
]
