"""Group-level score aggregation.

Scores are query-averaged: for each (group, query) cell the metric is
averaged over the group's impressions of that query, and the group score
is the unweighted mean of those per-query means.  This keeps popular
queries from dominating the comparison.  A metric's group span, the
largest minus the smallest group score, stays on the metric's own scale,
so spans of different cohorts compare directly.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

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

    groups: list[GroupKey]
    raw: np.ndarray
    stderr: np.ndarray
    n_queries: np.ndarray
    n_impressions: np.ndarray


def query_group_counts(corpus: LogCorpus, factor: Factor,
                       rows: np.ndarray | None = None) -> np.ndarray:
    """Impressions per (query code, group index) as a ``(queries,
    groups)`` array, of the `rows` of the corpus (a mask or indices) when
    given."""
    sel = slice(None) if rows is None else rows
    n_groups = len(factor.groups())
    return np.bincount(
        corpus.query[sel].astype(np.int64) * n_groups
        + factor.codes(corpus)[sel],
        minlength=len(corpus.queries) * n_groups).reshape(-1, n_groups)


def row_ranks(table: np.ndarray) -> np.ndarray:
    """The rank of each row of a 2-D `table` among its distinct rows in
    lexicographic order (the first column is primary)."""
    order = np.lexsort(table.T[::-1])
    rows = table[order]
    new = np.ones(len(table), dtype=np.int64)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    rank = np.empty(len(table), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank


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
    return RawScores(present, raw, np.where(n > 1, np.sqrt(var / n), np.nan),
                     n, np.bincount(cell, weights=counts).astype(int))


def group_spans(scores: RawScores) -> tuple[np.ndarray, ...]:
    """Each metric's group span on its own scale, as ``(metrics,)``
    arrays: the largest minus the smallest group score, its standard
    error, and whether the span exceeds twice that error.

    The error combines the largest standard error among the groups tied
    at the minimum with the largest among those tied at the maximum, a
    NaN (one query) counting as 0, so no order of the groups moves it.
    A span within twice its error is not told apart from groups that
    genuinely agree.
    """
    if len(scores.groups) < 2:
        raise DataError("group spans need at least two non-empty groups")
    raw, se = scores.raw, np.nan_to_num(scores.stderr)
    lo, hi = raw.min(axis=1), raw.max(axis=1)
    se_lo = np.where(raw == lo[:, None], se, 0.0).max(axis=1)
    se_hi = np.where(raw == hi[:, None], se, 0.0).max(axis=1)
    span, span_stderr = hi - lo, np.sqrt(se_lo * se_lo + se_hi * se_hi)
    return span, span_stderr, span > 2.0 * span_stderr
