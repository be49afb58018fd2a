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
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError
from .logmodel import AgeGroup, Gender, LogCorpus
from .metrics import DEFAULT_DWELL_THRESHOLD_S, METRICS, metric_table

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


@dataclass
class RawScores:
    """Query-averaged group scores: ``(metrics, groups)`` arrays ``raw`` and
    ``stderr`` (NaN for one query) and ``(groups,)`` counts, over the
    ``groups`` that have impressions, in factor order."""

    factor: Factor
    groups: list[GroupKey]
    raw: np.ndarray
    stderr: np.ndarray
    n_queries: np.ndarray
    n_impressions: np.ndarray


@dataclass
class NormalizedScores(RawScores):
    """Raw scores plus ``normalized`` on each metric's ``bounds``, which
    :func:`normalize` takes back as `reference`: ``(metrics, groups)`` and
    ``(metrics, 2)`` arrays; exactly 0 for a metric in ``degenerate``."""

    normalized: np.ndarray
    bounds: np.ndarray
    degenerate: np.ndarray

    @property
    def gaps(self) -> np.ndarray:
        """Each metric's largest minus smallest normalized group score."""
        return self.normalized.max(axis=1) - self.normalized.min(axis=1)


def group_query_table(corpus: LogCorpus, factor: Factor,
                      dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S,
                      rows: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Per (group, query) cells as read-only arrays: each cell's index into
    the factor's groups, query code, impression count and ``(cells, 4)``
    mean metrics in ``METRICS`` order.

    Only `rows` of the corpus are read when given, in that order; the
    full-corpus table is kept on the corpus.  Cells run by group code,
    then query code, however the impressions are stored or named, and
    each mean is an exact sum divided once.
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
    keys, codes = np.unique(
        factor.codes(corpus)[sel] * n_queries + corpus.query[sel],
        return_inverse=True)
    counts = np.bincount(codes, minlength=len(keys))
    # metrics are whole thirds (GU_LEVELS) or counts: sums of thirds are
    # exact, so each mean rounds once and cells of equal means tie
    means = np.stack([np.bincount(codes, weights=np.rint(3.0 * m),
                                  minlength=len(keys))
                      for m in metrics.T], axis=1) / (3 * counts[:, None])
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
    # np.bincount adds each group's cells left to right, in cell order
    raw = np.stack([np.bincount(cell, weights=m) for m in means.T]) / n
    var = np.stack([np.bincount(cell, weights=d) for d in
                    ((means - raw.T[cell]) ** 2).T]) / np.maximum(n - 1, 1)
    return RawScores(factor, present, raw,
                     np.where(n > 1, np.sqrt(var / n), np.nan), n,
                     np.bincount(cell, weights=counts).astype(int))


def normalize(scores: RawScores, reference: np.ndarray | None = None
              ) -> NormalizedScores:
    """Min-max normalize each metric's group scores onto [0, 1].

    With `reference`, the ``bounds`` of a previously normalized score set,
    its affine map is applied instead of refitting, which keeps two
    cohorts (for example all data versus a matched subset) on one
    comparable scale; values may then fall outside [0, 1].

    A metric with no real range maps every group to 0 and is flagged as
    degenerate.  Degenerate means the span is exactly zero, or (when
    fitting fresh bounds) smaller than twice the combined standard error
    of the extreme groups -- otherwise a factor whose groups genuinely
    agree would still be stretched onto [0, 1] and report a spurious
    full-scale gap.
    """
    if len(scores.groups) < 2:
        raise DataError("normalization needs at least two non-empty groups")
    raw = scores.raw
    if reference is not None:
        bounds = np.asarray(reference, dtype=float)
        span = bounds[:, 1] - bounds[:, 0]
        degenerate = span == 0
    else:
        # the first minimal and the first maximal group in factor order
        extremes = np.stack([raw.argmin(axis=1), raw.argmax(axis=1)], axis=1)
        bounds = np.take_along_axis(raw, extremes, axis=1)
        # a NaN standard error counts as 0
        se = np.nan_to_num(np.take_along_axis(scores.stderr, extremes, axis=1))
        span = bounds[:, 1] - bounds[:, 0]
        degenerate = (span == 0) | (span <= 2.0 * np.sqrt((se * se).sum(1)))
    for kind, flat, s in zip(METRICS, degenerate.tolist(), span.tolist()):
        if flat:
            logger.warning("normalize: metric %s has no real range across "
                           "groups (span %g); emitting zeros", kind.value, s)
    normalized = np.divide(raw - bounds[:, :1], span[:, None],
                           out=np.zeros_like(raw),
                           where=~degenerate[:, None])
    return NormalizedScores(
        **{f.name: getattr(scores, f.name) for f in fields(RawScores)},
        normalized=normalized, bounds=bounds, degenerate=degenerate)


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
