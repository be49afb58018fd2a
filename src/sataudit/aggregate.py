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
        return getattr(corpus, self.value)


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
                      rows: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Per (group, query) cells as read-only arrays: each cell's index into
    the factor's groups, query code, impression count and ``(cells, 4)``
    mean metrics in ``METRICS`` order.

    Only `rows` of the corpus are read when given, in that order; the
    full-corpus table is kept on the corpus.  Cells are numbered in
    first-appearance order and their sums add in row order, so the means
    do not depend on how they are stored.
    """
    if rows is None:
        return corpus.derived("group_query_table", _cell_table, factor,
                              dwell_threshold_s)
    return _cell_table(corpus, factor, dwell_threshold_s, rows)


def _cell_table(corpus: LogCorpus, factor: Factor, dwell_threshold_s: float,
                rows: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    sel = slice(None) if rows is None else np.asarray(rows, dtype=np.intp)
    metrics = metric_table(corpus, dwell_threshold_s)[sel]
    n_queries = len(corpus.queries)
    keys, codes = first_appearance_codes(
        factor.codes(corpus)[sel] * n_queries + corpus.query[sel])
    counts = np.bincount(codes, minlength=len(keys))
    means = np.stack([np.bincount(codes, weights=metrics[:, k],
                                  minlength=len(keys))
                      for k in range(len(METRICS))], axis=1) / counts[:, None]
    table = (*np.divmod(keys, n_queries), counts, means)
    for a in table:
        a.setflags(write=False)
    return table


def query_averaged_scores(corpus: LogCorpus, factor: Factor,
                          dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S,
                          rows: np.ndarray | None = None) -> RawScores:
    """Group scores as means over per-query means, with standard errors.

    `rows` is as in :func:`group_query_table`.  A group's sums add its
    cells left to right in cell order, on every Python version.  The
    standard error treats queries as the sampling unit.  Groups with no
    impressions are excluded with a warning.
    """
    group, _, counts, means = group_query_table(corpus, factor,
                                                dwell_threshold_s, rows)
    groups = factor.groups()
    codes, cell = np.unique(group, return_inverse=True)
    present = [groups[g] for g in codes.tolist()]
    missing = [g.name for g in groups if g not in present]
    if missing:
        logger.warning("scores for factor %s: no impressions for groups %s",
                       factor.value, missing)
    if not present:
        raise DataError("empty corpus: no group has any impressions")
    n = np.bincount(cell)
    n_imp = np.bincount(cell, weights=counts).astype(int)
    scores = RawScores(factor=factor, raw={}, stderr={},
                       n_queries=dict(zip(present, n.tolist())),
                       n_impressions=dict(zip(present, n_imp.tolist())))
    for k, kind in enumerate(METRICS):
        # np.bincount adds each group's cells left to right, in cell order
        mean = np.bincount(cell, weights=means[:, k]) / n
        var = np.bincount(cell, weights=(means[:, k] - mean[cell]) ** 2) \
            / np.maximum(n - 1, 1)
        stderr = np.where(n > 1, np.sqrt(var / n), np.nan)
        scores.raw[kind] = dict(zip(present, mean.tolist()))
        scores.stderr[kind] = dict(zip(present, stderr.tolist()))
    return scores


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
    codes = factor.codes(corpus)
    index = {g: k for k, g in enumerate(factor.groups())}
    ca, cb = (np.bincount(corpus.query[codes == index.get(g, -1)],
                          minlength=len(corpus.queries))
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
    counts = dict(zip(corpus.queries, np.bincount(
        corpus.query, minlength=len(corpus.queries)).tolist()))
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
