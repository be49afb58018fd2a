"""Context matching: compare groups only inside near-identical contexts.

A raw group comparison confounds satisfaction with what was searched
for.  The matched pipeline narrows the corpus to navigational queries
where every group is well represented, the user ended on the query's
dominant result, and the result page shown was the query's modal page.
Within such a cohort the information need and the page are held fixed,
so remaining metric differences are attributable to the users.

Stages (attrition is recorded after each):

1. keep navigational queries;
2. keep queries with at least `min_impressions` impressions from every
   group of the audited factor;
3. keep impressions whose final successful click is the query's dominant
   result;
4. keep impressions showing the query's modal result page;
5. re-apply the stage-2 floor on the survivors.

The dominant result and modal page are per-query statistics computed on
the stage-2 output, so stages 3 and 4 commute.  A page is its prefix of
`serp_prefix` result ids.  Ties go to the smaller value: the smaller
result id, and the smaller result-id sequence, where a short page comes
before a longer page it begins.  Result codes follow text order (see
:class:`sataudit.logmodel.LogCorpus`), so both rules compare codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .aggregate import Factor, RawScores, query_averaged_scores
from .logmodel import LogCorpus
from .metrics import DEFAULT_DWELL_THRESHOLD_S

DEFAULT_MIN_IMPRESSIONS = 10    # per group of the audited factor
DEFAULT_SERP_PREFIX = 8
DEFAULT_NAV_SHARE = 0.8         # click-concentration proxy threshold


@dataclass(frozen=True)
class StageCount:
    stage: str
    impressions: int
    queries: int


@dataclass
class MatchedCohort:
    """``rows``: the surviving rows of `corpus`, in row order;
    ``attrition``: the impressions and queries left after each stage."""

    factor: Factor
    corpus: LogCorpus
    rows: np.ndarray
    attrition: list[StageCount] = field(default_factory=list)


def _final_click_column(corpus: LogCorpus,
                        dwell_threshold_s: float) -> np.ndarray:
    """Each row's final successful click as a result code, -1 when none:
    the last click whose dwell is above the threshold (NaN never is)."""
    clicks = np.flatnonzero(corpus.click_dwell > dwell_threshold_s)
    rows = corpus.click_row[clicks]              # ascending
    last = np.diff(rows, append=-1) != 0         # each row's last one
    final = np.full(len(corpus), -1, dtype=np.int32)
    final[rows[last]] = corpus.click_result[clicks[last]]
    final.setflags(write=False)
    return final


def _modal(mask: np.ndarray, query: np.ndarray,
           value: np.ndarray) -> np.ndarray:
    """Rows of `mask` holding their query's most common `value` (an int
    column, at least 0 on the masked rows); ties to the smallest."""
    n = int(value.max(initial=0)) + 1
    keys, counts = np.unique(query[mask].astype(np.int64) * n + value[mask],
                             return_counts=True)
    # keys run by query, then value; the stable sort keeps ties in order
    q, r = np.divmod(keys[np.lexsort((-counts, keys // n))], n)
    first = np.diff(q, prepend=-1) != 0
    modal = np.full(int(query.max(initial=-1)) + 1, -1, dtype=np.int64)
    modal[q[first]] = r[first]
    return mask & (value == modal[query])


def _page_ranks(corpus: LogCorpus, rows: np.ndarray,
                prefix_len: int) -> np.ndarray:
    """The rank of each row's page, its first `prefix_len` result codes,
    among the distinct pages of `rows` in lexicographic order; -1 pads a
    short page, so it ranks before a longer page it begins."""
    start = corpus.result_offsets[rows]
    length = np.minimum(corpus.result_offsets[rows + 1] - start, prefix_len)
    cols = np.arange(int(length.max(initial=1)))
    shown = cols < length[:, None]
    prefix = np.full(shown.shape, -1, dtype=np.int32)
    prefix[shown] = corpus.result[(start[:, None] + cols)[shown]]
    order = np.lexsort(prefix.T[::-1])      # the first column is primary
    pages = prefix[order]
    new = np.ones(len(rows), dtype=np.int64)
    new[1:] = (pages[1:] != pages[:-1]).any(axis=1)
    rank = np.empty(len(rows), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank


def navigational_queries_proxy(
        corpus: LogCorpus, nav_share: float = DEFAULT_NAV_SHARE,
        dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S) -> set[str]:
    """Queries whose final successful clicks concentrate on one result.

    Used when the corpus carries no explicit navigational labels: a query
    is treated as navigational when at least `nav_share` of its final
    successful clicks land on a single result.
    """
    final = corpus.derived("final_click", _final_click_column,
                           dwell_threshold_s)
    has, query = final >= 0, corpus.query
    # a query's top count: its rows holding its dominant final click,
    # picked by the rule that stage 3 applies
    top = np.bincount(query[_modal(has, query, final)],
                      minlength=len(corpus.queries))
    total = np.bincount(query[has], minlength=len(corpus.queries))
    return {corpus.queries[q] for q in np.flatnonzero(top).tolist()
            if top[q] / total[q] >= nav_share}


def match_contexts(corpus: LogCorpus, factor: Factor,
                   navigational: set[str] | None = None, *,
                   min_impressions: int = DEFAULT_MIN_IMPRESSIONS,
                   serp_prefix: int = DEFAULT_SERP_PREFIX,
                   nav_share: float = DEFAULT_NAV_SHARE,
                   dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                   ) -> MatchedCohort:
    """Run the five-stage matching pipeline; see the module docstring.

    Without `navigational` the click-concentration proxy picks the
    queries at `nav_share`; a page is its first `serp_prefix` results.
    """
    if min_impressions < 1:
        raise DataError("min_impressions must be >= 1")
    if serp_prefix < 1:
        raise DataError("serp_prefix must be >= 1")
    group, query = factor.codes(corpus), corpus.query
    n_groups, n_queries = len(factor.groups()), len(corpus.queries)

    def meets_floor(mask: np.ndarray) -> np.ndarray:
        per_group = np.bincount(
            query[mask].astype(np.int64) * n_groups + group[mask],
            minlength=n_queries * n_groups).reshape(n_queries, n_groups)
        return mask & (per_group.min(axis=1) >= min_impressions)[query]

    stages = {"input": np.ones(len(corpus), dtype=bool)}

    # stage 1: navigational queries only
    if navigational is None:
        navigational = navigational_queries_proxy(corpus, nav_share,
                                                  dwell_threshold_s)
    stages["navigational"] = np.array(
        [q in navigational for q in corpus.queries], dtype=bool)[query]

    # stage 2: every group sufficiently represented
    stages["min_impressions"] = stage2 = meets_floor(stages["navigational"])

    # stages 3 and 4: per-impression predicates against stage-2 statistics
    # of each query
    final = corpus.derived("final_click", _final_click_column,
                           dwell_threshold_s)
    stages["final_click"] = stage3 = _modal(stage2 & (final >= 0), query,
                                            final)
    rows = np.flatnonzero(stage2)
    page_rank = np.zeros(len(corpus), dtype=np.int64)
    page_rank[rows] = _page_ranks(corpus, rows, serp_prefix)
    stages["serp"] = stage3 & _modal(stage2, query, page_rank)

    # stage 5: the filters may have pushed a group back under the floor
    stages["min_impressions_recheck"] = kept = meets_floor(stages["serp"])

    attrition = [StageCount(stage, int(mask.sum()),
                            int(np.unique(query[mask]).size))
                 for stage, mask in stages.items()]
    return MatchedCohort(factor, corpus, np.flatnonzero(kept), attrition)


def matched_raw_scores(cohort: MatchedCohort,
                       dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                       ) -> RawScores:
    """Query-averaged scores of the cohort's rows of the audited corpus,
    read in row order."""
    if not cohort.rows.size:
        raise DataError(
            "matched cohort is empty; nothing to score (no impressions "
            "survived the matching funnel; check the navigational list "
            "or lower the dominant-share cutoff)")
    return query_averaged_scores(cohort.corpus, cohort.factor,
                                 dwell_threshold_s, cohort.rows)

