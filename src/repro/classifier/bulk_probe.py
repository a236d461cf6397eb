"""BulkProbe: set-at-a-time classification expressed as relational joins.

This is the paper's Figure 3 access path ("CLI" in Figure 8a): instead of
probing the statistics index once per term per document, a whole batch of
documents is classified with three ``Database.sql()`` statements and one
in-memory join:

* PARTIAL: one inner join ``STAT_c0 ⋈ DOCUMENT ⋈ TAXONOMY`` grouped by
  (did, kcid) that computes ``Σ freq·(logtheta + logdenom)``,
* DOCLEN: a per-document feature-term length, ``DOCUMENT`` filtered by
  ``tid IN (SELECT tid FROM STAT_c0)``,
* COMPLETE: documents × children holding ``−len·logdenom``, and
* COMPLETE ⟕ PARTIAL on (did, kcid), so documents that share no feature
  term with a child still get scored.  Both sides are already query
  results in memory, so this join is a dictionary lookup and reads no
  page.

The planner runs PARTIAL as two hash joins, so its I/O is sequential in
the table sizes rather than random per term — the source of the ~10×
speed-up reported in Figure 8(a).  An earlier version ran the
STAT ⋈ DOCUMENT step as a sort-merge join; that sorted both inputs in
memory and read the same pages in a worse order, so the 40-document
Figure 8(a) fixture (48-page pool) charged the bulk bar 60.31 simulated
I/O units against the hash plan's 39.51, with bit-identical relevances.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.minidb import Database
from repro.taxonomy.tree import ROOT_CID, TopicTaxonomy

from .model import normalize_log_scores
from .single_probe import ClassificationResult, ProbeCost
from .tokenizer import TermFrequencies
from .training import stat_table_name

#: The children of ``:c0`` that carry a model.
CHILDREN_SQL = "select kcid, logdenom from TAXONOMY where pcid = :c0 and logdenom is not null"

#: Figure 3's PARTIAL(did, kcid, lpr1) for the children of ``:c0``; ``{stat}`` is STAT_c0.
PARTIAL_SQL = """
select did, S.kcid as kcid, sum(freq * (logtheta + T.logdenom)) as lpr1
from {stat} S, DOCUMENT D, TAXONOMY T
where S.tid = D.tid and S.kcid = T.kcid and T.pcid = :c0
group by did, S.kcid
"""

#: Figure 3's DOCLEN(did, len): each document's count of feature-term occurrences.
DOCLEN_SQL = """
select did, sum(freq) as len from DOCUMENT
where tid in (select tid from {stat})
group by did
"""


class BulkProbeClassifier:
    """Classifies batches of documents stored in the DOCUMENT table."""

    def __init__(self, database: Database, taxonomy: TopicTaxonomy) -> None:
        self.database = database
        self.taxonomy = taxonomy
        self.cost = ProbeCost()

    # -- document loading ------------------------------------------------------------
    def load_documents(self, documents: Mapping[int, TermFrequencies], truncate: bool = True) -> None:
        """Populate the DOCUMENT table with (did, tid, freq) rows.

        The paper notes this step is "part of standard keyword indexing
        anyway", so its cost is charged to doc scanning, not probing.
        """
        table = self.database.table("DOCUMENT")
        before = self.database.stats.copy()
        if truncate:
            table.truncate()
        rows = []
        for did, frequencies in documents.items():
            for tid, freq in frequencies.items():
                rows.append({"did": did, "tid": tid, "freq": freq})
        table.insert_many(rows)
        self.cost.doc_scan_cost += self.database.stats.diff(before).simulated_cost()

    # -- per-node bulk evaluation --------------------------------------------------------
    def bulk_conditional_log_likelihoods(self, c0_cid: int) -> Dict[tuple[int, int], float]:
        """log Pr[d | ci] for every document in DOCUMENT and child ci of c0.

        Returns a map from (did, kcid) to the (unnormalised) log likelihood,
        computed with the PARTIAL / DOCLEN / COMPLETE join plan of Figure 3.
        """
        db = self.database
        stat_name = stat_table_name(c0_cid)
        before = db.stats.copy()

        children = db.sql(CHILDREN_SQL, {"c0": c0_cid})
        if not children:
            return {}
        partial_rows = db.sql(PARTIAL_SQL.format(stat=stat_name), {"c0": c0_cid})
        doclen_rows = db.sql(DOCLEN_SQL.format(stat=stat_name))

        # COMPLETE(did, kcid, lpr2) = documents x children, -len * logdenom,
        # left outer joined with PARTIAL on (did, kcid): both sides are
        # already in memory, so the join is a dictionary lookup.
        lpr1 = {(row["did"], row["kcid"]): row["lpr1"] for row in partial_rows}
        loglikes = {
            (doc["did"], child["kcid"]): -doc["len"] * child["logdenom"]
            + (lpr1.get((doc["did"], child["kcid"])) or 0.0)
            for doc in doclen_rows
            for child in children
        }
        self.cost.join_cost += db.stats.diff(before).simulated_cost()
        return loglikes

    # -- batch classification --------------------------------------------------------------
    def classify_batch(
        self, dids: Optional[Iterable[int]] = None
    ) -> Dict[int, ClassificationResult]:
        """Classify every document currently in the DOCUMENT table.

        Evaluation proceeds over the path nodes in topological order, as
        the Figure 3 caption prescribes, accumulating Pr[c | d] by the
        chain rule and summing the good-node posteriors into R(d).
        """
        db = self.database
        if dids is None:
            dids = [row["did"] for row in db.sql("select distinct did from DOCUMENT")]
        dids = list(dids)
        posteriors: Dict[int, Dict[int, float]] = {did: {ROOT_CID: 1.0} for did in dids}

        priors: Dict[int, float] = {}
        for row in db.sql("select kcid, logprior from TAXONOMY"):
            priors[row["kcid"]] = row["logprior"] if row["logprior"] is not None else 0.0

        for node in self.taxonomy.evaluation_frontier():
            modelled_children = [row["kcid"] for row in db.sql(CHILDREN_SQL, {"c0": node.cid})]
            if not modelled_children:
                continue
            loglikes = self.bulk_conditional_log_likelihoods(node.cid)
            for did in dids:
                parent_probability = posteriors[did].get(node.cid, 0.0)
                if parent_probability <= 0.0:
                    continue
                scores = {}
                for kcid in modelled_children:
                    value = loglikes.get((did, kcid))
                    if value is not None:
                        scores[kcid] = value + priors.get(kcid, 0.0)
                if not scores:
                    # The document shares no feature term with this node:
                    # Figure 3's DOCLEN drops it, but the correct Bayes
                    # answer is to fall back to the class priors (what the
                    # in-memory and SingleProbe classifiers do implicitly).
                    scores = {kcid: priors.get(kcid, 0.0) for kcid in modelled_children}
                conditionals = normalize_log_scores(scores)
                for kcid, probability in conditionals.items():
                    posteriors[did][kcid] = parent_probability * probability

        good_cids = [node.cid for node in self.taxonomy.good_nodes()]
        results: Dict[int, ClassificationResult] = {}
        for did in dids:
            relevance = float(sum(posteriors[did].get(cid, 0.0) for cid in good_cids))
            results[did] = ClassificationResult(relevance=relevance, posteriors=posteriors[did])
            self.cost.documents += 1
        return results

    def classify_documents(
        self, documents: Mapping[int, TermFrequencies]
    ) -> Dict[int, ClassificationResult]:
        """Convenience: load a batch into DOCUMENT and classify it."""
        self.load_documents(documents)
        return self.classify_batch(list(documents))
