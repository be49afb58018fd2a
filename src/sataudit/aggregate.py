"""Group-level score aggregation and query population statistics.

Scores are query-averaged: for each (group, query) cell the metric is
averaged over the group's impressions of that query, and the group score
is the unweighted mean of those per-query means.  This keeps popular
queries from dominating the comparison.  Min-max normalization maps each
metric's group scores onto [0, 1]; a fitted normalization can be reused
as a reference scale so that score sets from different cohorts stay
comparable.
"""

from __future__ import annotations

import enum
import math
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .logmodel import AgeGroup, Gender, LogCorpus, first_appearance_codes
from .metrics import DEFAULT_DWELL_THRESHOLD_S, METRICS, MetricKind, \
    metric_table

logger = logging.getLogger(__name__)

GroupKey = AgeGroup | Gender


class Factor(enum.Enum):
    """The demographic axis an audit slices on."""

    AGE = "age"
    GENDER = "gender"

    def groups(self) -> list[GroupKey]:
        if self is Factor.AGE:
            return list(AgeGroup)
        return list(Gender)

    def codes(self, corpus: LogCorpus) -> np.ndarray:
        """Each impression's index into :meth:`groups`."""
        return getattr(corpus.columns, self.value)


@dataclass
class QueryCell:
    """Mean metrics for one (group, query) cell."""

    means: dict[MetricKind, float]
    n_impressions: int


@dataclass(frozen=True)
class GroupScore:
    raw: float
    normalized: float
    stderr: float
    n_queries: int
    n_impressions: int


@dataclass
class RawScores:
    """Query-averaged raw group scores, one entry per (metric, group)."""

    factor: Factor
    raw: dict[MetricKind, dict[GroupKey, float]]
    stderr: dict[MetricKind, dict[GroupKey, float]]
    n_queries: dict[GroupKey, int]
    n_impressions: dict[GroupKey, int]


@dataclass
class NormalizedScores:
    factor: Factor
    scores: dict[MetricKind, dict[GroupKey, GroupScore]]
    bounds: dict[MetricKind, tuple[float, float]]
    degenerate: set[MetricKind] = field(default_factory=set)

    def gap(self, metric: MetricKind) -> float:
        vals = [s.normalized for s in self.scores[metric].values()]
        return max(vals) - min(vals)


def group_query_table(corpus: LogCorpus, factor: Factor,
                      dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S,
                      rows: np.ndarray | None = None
                      ) -> dict[GroupKey, dict[str, QueryCell]]:
    """Per (group, query) mean metric vectors with impression counts.

    Only `rows` of the corpus are read when given, in that order.  Cells
    are numbered in first-appearance order and their sums add in row
    order, so the means do not depend on how they are stored.
    """
    rows = slice(None) if rows is None else np.asarray(rows, dtype=np.intp)
    metrics = metric_table(corpus, dwell_threshold_s)[rows]
    columns = corpus.columns
    n_queries = len(columns.queries)
    keys, codes = first_appearance_codes(
        factor.codes(corpus)[rows] * n_queries + columns.query[rows])
    counts = np.bincount(codes, minlength=len(keys))
    means = np.stack([np.bincount(codes, weights=metrics[:, k],
                                  minlength=len(keys))
                      for k in range(len(METRICS))], axis=1) / counts[:, None]
    groups = factor.groups()
    cells: dict[GroupKey, dict[str, QueryCell]] = {}
    for c, key in enumerate(keys.tolist()):
        g, q = divmod(key, n_queries)
        cells.setdefault(groups[g], {})[columns.queries[q]] = QueryCell(
            means={kind: float(means[c, k]) for k, kind in enumerate(METRICS)},
            n_impressions=int(counts[c]))
    return cells


def query_averaged_scores(corpus: LogCorpus, factor: Factor,
                          dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S,
                          rows: np.ndarray | None = None) -> RawScores:
    """Group scores as means over per-query means, with standard errors.

    `rows` is as in :func:`group_query_table`.  The standard error treats
    queries as the sampling unit.  Groups with no impressions are excluded
    with a warning.
    """
    table = group_query_table(corpus, factor, dwell_threshold_s, rows)
    missing = [g for g in factor.groups() if g not in table]
    if missing:
        logger.warning("scores for factor %s: no impressions for groups %s",
                       factor.value, [g.name for g in missing])
    raw: dict[MetricKind, dict[GroupKey, float]] = {m: {} for m in METRICS}
    stderr: dict[MetricKind, dict[GroupKey, float]] = {m: {} for m in METRICS}
    n_queries: dict[GroupKey, int] = {}
    n_impressions: dict[GroupKey, int] = {}
    for g in factor.groups():
        if g not in table:
            continue
        cells = table[g]
        n_q = len(cells)
        n_queries[g] = n_q
        n_impressions[g] = sum(c.n_impressions for c in cells.values())
        for kind in METRICS:
            vals = [c.means[kind] for c in cells.values()]
            mean = sum(vals) / n_q
            raw[kind][g] = mean
            if n_q > 1:
                var = sum((v - mean) ** 2 for v in vals) / (n_q - 1)
                stderr[kind][g] = math.sqrt(var / n_q)
            else:
                stderr[kind][g] = float("nan")
    if not n_queries:
        raise DataError("empty corpus: no group has any impressions")
    return RawScores(factor=factor, raw=raw, stderr=stderr,
                     n_queries=n_queries, n_impressions=n_impressions)


def normalize(scores: RawScores,
              reference: dict[MetricKind, tuple[float, float]] | None = None
              ) -> NormalizedScores:
    """Min-max normalize each metric's group scores onto [0, 1].

    With `reference` the affine map of a previously normalized score set
    is applied instead of refitting, which keeps two cohorts (for example
    all data versus a matched subset) on one comparable scale; values may
    then fall outside [0, 1].

    A metric with no real range maps every group to 0 and is flagged as
    degenerate.  Degenerate means the span is exactly zero, or (when
    fitting fresh bounds) smaller than twice the combined standard error
    of the extreme groups -- otherwise a factor whose groups genuinely
    agree would still be stretched onto [0, 1] and report a spurious
    full-scale gap.
    """
    groups = [g for g in scores.factor.groups() if g in scores.n_queries]
    if len(groups) < 2:
        raise DataError("normalization needs at least two non-empty groups")
    out: dict[MetricKind, dict[GroupKey, GroupScore]] = {}
    bounds: dict[MetricKind, tuple[float, float]] = {}
    degenerate: set[MetricKind] = set()
    for kind in METRICS:
        vals = scores.raw[kind]
        if reference is not None:
            lo, hi = reference[kind]
            span = hi - lo
            is_degenerate = span == 0
        else:
            g_lo = min(groups, key=lambda g: vals[g])
            g_hi = max(groups, key=lambda g: vals[g])
            lo, hi = vals[g_lo], vals[g_hi]
            span = hi - lo
            noise = 0.0
            for se in (scores.stderr[kind][g_lo], scores.stderr[kind][g_hi]):
                if not math.isnan(se):
                    noise += se * se
            is_degenerate = span == 0 or span <= 2.0 * math.sqrt(noise)
        bounds[kind] = (lo, hi)
        out[kind] = {}
        if is_degenerate:
            degenerate.add(kind)
            logger.warning("normalize: metric %s has no real range across "
                           "groups (span %g); emitting zeros", kind.value,
                           span)
        for g in groups:
            norm = 0.0 if is_degenerate else (vals[g] - lo) / span
            out[kind][g] = GroupScore(
                raw=vals[g], normalized=norm, stderr=scores.stderr[kind][g],
                n_queries=scores.n_queries[g],
                n_impressions=scores.n_impressions[g])
    return NormalizedScores(factor=scores.factor, scores=out, bounds=bounds,
                            degenerate=degenerate)


def query_kl(corpus: LogCorpus, group_a: GroupKey, group_b: GroupKey,
             factor: Factor, alpha: float = 0.5) -> float:
    """KL divergence D(P_a || P_b) between smoothed query distributions.

    Both distributions are additively smoothed with `alpha` over the
    union vocabulary of the two groups, so the divergence is finite even
    for disjoint query sets.  Natural log.
    """
    if alpha <= 0:
        raise DataError("smoothing alpha must be positive")
    columns, codes = corpus.columns, factor.codes(corpus)
    index = {g: k for k, g in enumerate(factor.groups())}
    ca, cb = (np.bincount(columns.query[codes == index.get(g, -1)],
                          minlength=len(columns.queries))
              for g in (group_a, group_b))
    if not ca.any() or not cb.any():
        raise DataError("query KL needs impressions from both groups")
    vocab = (ca > 0) | (cb > 0)
    v = int(vocab.sum())
    na = int(ca.sum()) + alpha * v
    nb = int(cb.sum()) + alpha * v
    kl = 0.0
    # terms add in query-code order, so the sum is the same in every run
    for a, b in zip(ca[vocab].tolist(), cb[vocab].tolist()):
        pa = (a + alpha) / na
        pb = (b + alpha) / nb
        kl += pa * math.log(pa / pb)
    return kl


def head_tail_classify(corpus: LogCorpus) -> dict[str, str]:
    """Partition queries into head / torso / tail by total traffic.

    Head is the top ceil(20%) of queries by impression count, tail the
    bottom floor(30%), torso the rest.  Ties break lexicographically on
    query text so the partition is deterministic.
    """
    columns = corpus.columns
    counts = dict(zip(columns.queries, np.bincount(
        columns.query, minlength=len(columns.queries)).tolist()))
    ordered = sorted(counts, key=lambda q: (-counts[q], q))
    n = len(ordered)
    n_head = math.ceil(0.2 * n)
    n_tail = math.floor(0.3 * n)
    classes = {}
    for i, q in enumerate(ordered):
        if i < n_head:
            classes[q] = "head"
        elif i >= n - n_tail:
            classes[q] = "tail"
        else:
            classes[q] = "torso"
    return classes
