"""Context matching: compare groups only inside near-identical contexts.

A raw group comparison confounds satisfaction with what was searched
for.  The matched pipeline narrows the corpus to navigational queries
where every group is well represented, the user ended on the query's
dominant result, and the result page shown was the query's modal page.
Within such a cohort the information need and the page are held fixed,
so remaining metric differences are attributable to the users.

Stages (attrition is recorded after each):

1. keep navigational queries;
2. keep queries with at least `min_impressions_per_group` impressions
   from every group of the audited factor;
3. keep impressions whose final successful click is the query's dominant
   result;
4. keep impressions showing the query's modal result-page signature;
5. re-apply the stage-2 floor on the survivors.

The dominant result and modal signature are per-query statistics
computed on the stage-2 output, so stages 3 and 4 commute.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .aggregate import Factor, RawScores, query_averaged_scores
from .logmodel import Impression, ImpressionColumns, LogCorpus
from .metrics import DEFAULT_DWELL_THRESHOLD_S

DEFAULT_SERP_PREFIX = 8


@dataclass(frozen=True)
class MatchConfig:
    min_impressions_per_group: int = 10
    serp_prefix_len: int = DEFAULT_SERP_PREFIX
    navigational_share: float = 0.8   # click-concentration proxy threshold
    dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S


@dataclass(frozen=True)
class StageCount:
    stage: str
    impressions: int
    queries: int


@dataclass
class MatchedCohort:
    factor: Factor
    corpus: LogCorpus
    by_query: dict[str, list[int]]      # surviving rows of `corpus`
    attrition: list[StageCount] = field(default_factory=list)


def _most_common(values) -> str | None:
    """The most frequent value, ties to the smallest; None when empty."""
    counts = Counter(values)
    return min(counts, key=lambda v: (-counts[v], v), default=None)


def final_successful_click(imp: Impression,
                           dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                           ) -> str | None:
    """Result id of the last click with dwell above threshold, else None."""
    for c in reversed(imp.clicks):
        if not math.isnan(c.dwell_seconds) and c.dwell_seconds > dwell_threshold_s:
            return c.result_id
    return None


def serp_signature(results: list[str], prefix_len: int = DEFAULT_SERP_PREFIX) -> str:
    """Stable order-sensitive hash of the first `prefix_len` result ids.

    The prefix length is folded into the digest, so a complete short page
    never collides with a longer page's truncation of different length.
    """
    prefix = results[:prefix_len]
    payload = "\x1f".join([str(len(prefix))] + prefix)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def _final_clicks(corpus: LogCorpus, dwell_threshold_s: float) -> np.ndarray:
    """Each impression's final successful click as a result code (-1 when
    none), built once per corpus and threshold."""
    key = ("final_click", dwell_threshold_s)
    final = corpus._derived.get(key)
    if final is None:
        final = corpus._derived[key] = _final_click_column(
            corpus.columns, dwell_threshold_s)
    return final


def _final_click_column(cols: ImpressionColumns,
                        dwell_threshold_s: float) -> np.ndarray:
    """The column form of :func:`final_successful_click`: the last click
    whose dwell is above the threshold (NaN never is)."""
    clicks = np.flatnonzero(cols.click_dwell > dwell_threshold_s)
    rows = cols.click_row[clicks]                # ascending
    last = np.diff(rows, append=-1) != 0         # each row's last one
    final = np.full(len(cols), -1, dtype=np.int32)
    final[rows[last]] = cols.click_result[clicks[last]]
    final.setflags(write=False)
    return final


def _page_signatures(cols: ImpressionColumns, rows: list[int],
                     prefix_len: int) -> list[str]:
    """:func:`serp_signature` of each row's result page, hashed once per
    distinct page prefix (the only part the signature reads)."""
    offsets, result = cols.result_offsets.tolist(), cols.result.tolist()
    signature: dict[tuple[int, ...], str] = {}
    out = []
    for k in rows:
        page = result[offsets[k]:offsets[k + 1]]
        prefix = tuple(page[:prefix_len])
        sig = signature.get(prefix)
        if sig is None:
            sig = signature[prefix] = serp_signature(
                [cols.result_ids[c] for c in page], prefix_len)
        out.append(sig)
    return out


def navigational_queries_proxy(corpus: LogCorpus, cfg: MatchConfig) -> set[str]:
    """Queries whose final successful clicks concentrate on one result.

    Used when the corpus carries no explicit navigational labels: a query
    is treated as navigational when at least `navigational_share` of its
    final successful clicks land on a single result.
    """
    cols = corpus.columns
    final = _final_clicks(corpus, cfg.dwell_threshold_s)
    has = final >= 0
    keys, counts = np.unique(
        cols.query[has].astype(np.int64) * len(cols.result_ids) + final[has],
        return_counts=True)
    query = keys // len(cols.result_ids)
    top = np.zeros(len(cols.queries), dtype=np.int64)
    np.maximum.at(top, query, counts)
    total = np.bincount(query, weights=counts, minlength=len(cols.queries))
    return {cols.queries[q] for q in np.flatnonzero(top).tolist()
            if top[q] / total[q] >= cfg.navigational_share}


def match_contexts(corpus: LogCorpus, factor: Factor,
                   cfg: MatchConfig = MatchConfig(),
                   navigational: set[str] | None = None) -> MatchedCohort:
    """Run the five-stage matching pipeline; see the module docstring."""
    if cfg.min_impressions_per_group < 1:
        raise DataError("min_impressions_per_group must be >= 1")
    columns = corpus.columns
    group = factor.codes(corpus)
    n_groups = len(factor.groups())

    by_query: dict[str, list[int]] = {q: [] for q in columns.queries}
    for k, code in enumerate(columns.query.tolist()):
        by_query[columns.queries[code]].append(k)
    stages: dict[str, dict[str, list[int]]] = {"input": by_query}

    # stage 1: navigational queries only
    if navigational is None:
        navigational = navigational_queries_proxy(corpus, cfg)
    stages["navigational"] = by_query = {
        q: rows for q, rows in by_query.items() if q in navigational}

    # stage 2: every group sufficiently represented
    def meets_floor(rows: list[int]) -> bool:
        per_group = np.bincount(group[rows], minlength=n_groups)
        return bool(per_group.min() >= cfg.min_impressions_per_group)

    stages["min_impressions"] = by_query = {
        q: rows for q, rows in by_query.items() if meets_floor(rows)}

    # stages 3 and 4: per-impression predicates against stage-2 statistics
    final = _final_clicks(corpus, cfg.dwell_threshold_s).tolist()
    result_ids = columns.result_ids + [None]      # code -1 reads None
    stage2 = [k for rows in by_query.values() for k in rows]
    page_of = dict(zip(stage2, _page_signatures(columns, stage2,
                                                cfg.serp_prefix_len)))
    stage3 = stages["final_click"] = {}
    stage4 = stages["serp"] = {}
    for q, rows in by_query.items():
        finals = [result_ids[final[k]] for k in rows]
        dominant = _most_common(f for f in finals if f is not None)
        if dominant is None:
            continue
        pages = [page_of[k] for k in rows]
        modal = _most_common(pages)
        stage3[q] = [k for k, f in zip(rows, finals) if f == dominant]
        kept = [k for k, f, page in zip(rows, finals, pages)
                if f == dominant and page == modal]
        if kept:
            stage4[q] = kept

    # stage 5: the filters may have pushed a group back under the floor
    stages["min_impressions_recheck"] = by_query = {
        q: rows for q, rows in stage4.items() if meets_floor(rows)}

    attrition = [StageCount(stage, sum(len(rows) for rows in kept.values()),
                            len(kept)) for stage, kept in stages.items()]
    return MatchedCohort(factor=factor, corpus=corpus, by_query=by_query,
                         attrition=attrition)


def matched_raw_scores(cohort: MatchedCohort,
                       dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                       ) -> RawScores:
    """Query-averaged scores of the cohort's rows of the audited corpus,
    read query by query in sorted query order."""
    rows = [k for q in sorted(cohort.by_query) for k in cohort.by_query[q]]
    if not rows:
        raise DataError(
            "matched cohort is empty; nothing to score (no impressions "
            "survived the matching funnel; check the navigational list "
            "or lower the dominant-share cutoff)")
    return query_averaged_scores(cohort.corpus, cohort.factor,
                                 dwell_threshold_s, rows)

