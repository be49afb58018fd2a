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
from dataclasses import dataclass, field

from .errors import DataError
from .aggregate import Factor, NormalizedScores, RawScores, normalize, \
    query_averaged_scores
from .logmodel import Impression, LogCorpus, CorpusMetadata
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
    by_query: dict[str, list[Impression]]
    attrition: list[StageCount] = field(default_factory=list)

    @property
    def impressions(self) -> list[Impression]:
        out = []
        for q in sorted(self.by_query):
            out.extend(self.by_query[q])
        return out

    def as_corpus(self) -> LogCorpus:
        imps = self.impressions
        return LogCorpus(imps, CorpusMetadata(accepted=len(imps)))


def final_successful_click(imp: Impression,
                           dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                           ) -> str | None:
    """Result id of the last click with dwell above threshold, else None."""
    for c in reversed(imp.clicks):
        if not math.isnan(c.dwell_seconds) and c.dwell_seconds > dwell_threshold_s:
            return c.result_id
    return None


def dominant_result(impressions: list[Impression],
                    dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                    ) -> str | None:
    """The result receiving the most final successful clicks.

    Ties break lexicographically on result id; None when no impression
    has a final successful click.
    """
    counts: dict[str, int] = {}
    for imp in impressions:
        rid = final_successful_click(imp, dwell_threshold_s)
        if rid is not None:
            counts[rid] = counts.get(rid, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda r: (-counts[r], r))


def serp_signature(results: list[str], prefix_len: int = DEFAULT_SERP_PREFIX) -> str:
    """Stable order-sensitive hash of the first `prefix_len` result ids.

    The prefix length is folded into the digest, so a complete short page
    never collides with a longer page's truncation of different length.
    """
    prefix = results[:prefix_len]
    payload = "\x1f".join([str(len(prefix))] + prefix)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def modal_signature(impressions: list[Impression], prefix_len: int) -> str | None:
    counts: dict[str, int] = {}
    for imp in impressions:
        sig = serp_signature(imp.results, prefix_len)
        counts[sig] = counts.get(sig, 0) + 1
    if not counts:
        return None
    # tie -> smallest hash, so the choice is deterministic
    return min(counts, key=lambda s: (-counts[s], s))


def navigational_queries_proxy(corpus: LogCorpus, cfg: MatchConfig) -> set[str]:
    """Queries whose final successful clicks concentrate on one result.

    Used when the corpus carries no explicit navigational labels: a query
    is treated as navigational when at least `navigational_share` of its
    final successful clicks land on a single result.
    """
    counts: dict[str, dict[str, int]] = {}
    for imp in corpus.impressions:
        rid = final_successful_click(imp, cfg.dwell_threshold_s)
        if rid is not None:
            by_result = counts.setdefault(imp.query_text, {})
            by_result[rid] = by_result.get(rid, 0) + 1
    out = set()
    for q, by_result in counts.items():
        total = sum(by_result.values())
        if total > 0 and max(by_result.values()) / total >= cfg.navigational_share:
            out.add(q)
    return out


def match_contexts(corpus: LogCorpus, factor: Factor,
                   cfg: MatchConfig = MatchConfig(),
                   navigational: set[str] | None = None) -> MatchedCohort:
    """Run the five-stage matching pipeline; see the module docstring."""
    if cfg.min_impressions_per_group < 1:
        raise DataError("min_impressions_per_group must be >= 1")
    groups = factor.groups()

    by_query: dict[str, list[Impression]] = {}
    for imp in corpus.impressions:
        by_query.setdefault(imp.query_text, []).append(imp)
    attrition = [StageCount("input", len(corpus.impressions), len(by_query))]

    # stage 1: navigational queries only
    if navigational is None:
        navigational = navigational_queries_proxy(corpus, cfg)
    by_query = {q: imps for q, imps in by_query.items() if q in navigational}
    attrition.append(StageCount(
        "navigational", sum(len(v) for v in by_query.values()), len(by_query)))

    # stage 2: every group sufficiently represented
    def meets_floor(imps: list[Impression]) -> bool:
        per_group: dict[object, int] = {}
        for imp in imps:
            g = factor.key(imp)
            per_group[g] = per_group.get(g, 0) + 1
        return all(per_group.get(g, 0) >= cfg.min_impressions_per_group
                   for g in groups)

    by_query = {q: imps for q, imps in by_query.items() if meets_floor(imps)}
    attrition.append(StageCount(
        "min_impressions", sum(len(v) for v in by_query.values()), len(by_query)))

    # stages 3 and 4: per-impression predicates against stage-2 statistics
    dominant = {q: dominant_result(imps, cfg.dwell_threshold_s)
                for q, imps in by_query.items()}
    modal = {q: modal_signature(imps, cfg.serp_prefix_len)
             for q, imps in by_query.items()}

    stage3: dict[str, list[Impression]] = {}
    for q, imps in by_query.items():
        if dominant[q] is None:
            continue
        kept = [imp for imp in imps
                if final_successful_click(imp, cfg.dwell_threshold_s) == dominant[q]]
        if kept:
            stage3[q] = kept
    attrition.append(StageCount(
        "final_click", sum(len(v) for v in stage3.values()), len(stage3)))

    stage4: dict[str, list[Impression]] = {}
    for q, imps in stage3.items():
        kept = [imp for imp in imps
                if serp_signature(imp.results, cfg.serp_prefix_len) == modal[q]]
        if kept:
            stage4[q] = kept
    attrition.append(StageCount(
        "serp", sum(len(v) for v in stage4.values()), len(stage4)))

    # stage 5: the filters may have pushed a group back under the floor
    stage5 = {q: imps for q, imps in stage4.items() if meets_floor(imps)}
    attrition.append(StageCount(
        "min_impressions_recheck",
        sum(len(v) for v in stage5.values()), len(stage5)))

    return MatchedCohort(factor=factor, by_query=stage5, attrition=attrition)


def matched_raw_scores(cohort: MatchedCohort,
                       dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                       ) -> RawScores:
    corpus = cohort.as_corpus()
    if not corpus.impressions:
        raise DataError(
            "matched cohort is empty; nothing to score (no impressions "
            "survived the matching funnel; check the navigational list "
            "or lower the dominant-share cutoff)")
    return query_averaged_scores(corpus, cohort.factor, dwell_threshold_s)


def matched_scores(cohort: MatchedCohort,
                   dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S,
                   reference: dict | None = None) -> NormalizedScores:
    """Query-averaged scores on the matched cohort.

    `reference` bounds (from the raw audit) put matched and raw scores on
    one scale; without it the cohort is normalized on its own.
    """
    return normalize(matched_raw_scores(cohort, dwell_threshold_s),
                     reference=reference)
