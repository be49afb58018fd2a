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

    def group_of(self, profile: np.ndarray) -> np.ndarray:
        """Each :attr:`LogCorpus.profile` code's index into :meth:`groups`."""
        return profile >> 1 if self is Factor.AGE else profile & 1


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
        + factor.group_of(corpus.profile)[sel],
        minlength=len(corpus.queries) * n_groups).reshape(-1, n_groups)


def distinct_rows(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the table of `columns` as a 2-D array in
    lexicographic order (the first column is primary) and how many rows
    equal each; no copy of the whole table is made."""
    order = np.lexsort(columns[::-1])
    new = np.zeros(len(order), dtype=bool)
    for column in columns:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    new[:1] = True
    first = np.flatnonzero(new)
    return (np.column_stack([column[order[first]] for column in columns]),
            np.diff(first, append=len(order)))


def count_table(corpus: LogCorpus,
                dwell_threshold_s: float | None = DEFAULT_DWELL_THRESHOLD_S,
                rows: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Impressions per (query, profile, topic, state) as arrays:
    ``(n, 4)`` keys (a query, :attr:`LogCorpus.profile` and topic code and
    a state), in lexicographic order so that a query's keys are one block;
    each key's count; and the states, the distinct rows of the metric
    table at `dwell_threshold_s` (with None, of the page click count) in
    lexicographic order.  Only `rows` of the corpus (a mask or indices)
    are counted when given; the full-corpus table is kept on the corpus."""
    if rows is None:
        return corpus.derived("count_table", _count_table, dwell_threshold_s)
    return _count_table(corpus, dwell_threshold_s, rows)


def _count_table(corpus: LogCorpus, dwell_threshold_s: float | None,
                 rows=slice(None)) -> tuple[np.ndarray, ...]:
    values = (corpus.click_count[:, None] if dwell_threshold_s is None
              else metric_table(corpus, dwell_threshold_s))[rows]
    # one sort of the rows, then each key's values ranked as a state
    rows, counts = distinct_rows(corpus.query[rows], corpus.profile[rows],
                                 corpus.topic[rows], *values.T)
    states, state = np.unique(rows[:, 3:], axis=0, return_inverse=True)
    return (np.column_stack([rows[:, :3].astype(np.int64), state.ravel()]),
            counts, states)


def group_query_table(corpus: LogCorpus, factor: Factor,
                      dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S,
                      rows: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Per (group, query) cells as arrays: each cell's index into the
    factor's groups, query code, impression count and ``(cells, 4)``
    mean metrics in ``METRICS`` order, from the :func:`count_table` of the
    corpus, or of its `rows` when given.  Cells run by group code, then
    query code, and each mean is an exact sum divided once."""
    keys, counts, states = count_table(corpus, dwell_threshold_s, rows)
    n_queries = len(corpus.queries)
    cells, cell = np.unique(factor.group_of(keys[:, 1]) * n_queries
                            + keys[:, 0], return_inverse=True)
    n = np.bincount(cell, weights=counts).astype(np.int64)
    # metrics are whole thirds (GU_LEVELS) or counts: sums of thirds are
    # exact, so each mean rounds once and cells of equal means tie
    thirds = np.rint(3.0 * states)[keys[:, 3]] * counts[:, None]
    means = np.stack([np.bincount(cell, weights=t) for t in thirds.T],
                     axis=1) / (3 * n[:, None])
    return (*np.divmod(cells, n_queries), n, means)


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
