"""Rank-based query difficulty, decorrelated from who issued the query.

Graded utility falls as queries get harder, but groups issue different
query mixes, so raw GU is a biased difficulty signal.  Instead, each
group's queries are ranked by that group's mean GU and converted to
fractional percentiles; a query's difficulty is one minus its mean
percentile over the groups that issued it, so 1 is hardest.  Because only
within-group ranks enter, the estimate is invariant under any strictly
increasing per-group transform of the GU values.

Percentiles use the midrank convention (rank - 0.5) / n with ties
averaged, which keeps estimates off the exact endpoints 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .aggregate import Factor, group_query_table
from .logmodel import LogCorpus
from .metrics import DEFAULT_DWELL_THRESHOLD_S, METRICS, MetricKind


@dataclass
class DifficultyTable:
    """Each query's difficulty in [0, 1], 1 hardest, over a corpus's query
    codes: ``values[q]`` belongs to ``queries[q]`` and is NaN for a query
    without an estimate."""

    queries: list[str]
    values: np.ndarray


def midrank(values: np.ndarray) -> np.ndarray:
    """1-based fractional ranks, ties receiving the mean of their ranks.

    Equal values are found with ``np.unique``, which would also tie NaNs
    together; the GU means ranked here are never NaN.
    """
    _, inverse, counts = np.unique(np.asarray(values, dtype=float),
                                   return_inverse=True, return_counts=True)
    # a run of c ties ending at sorted position e shares rank e - (c - 1) / 2
    return ((2 * np.cumsum(counts) - counts + 1) / 2)[inverse]


def rank_and_average(group: np.ndarray, query: np.ndarray, gu: np.ndarray,
                     n_queries: int) -> np.ndarray:
    """Difficulty of each of `n_queries` query codes from (group, query)
    cells holding a group's mean GU; NaN for a query in no cell.

    This is the rank-and-average stage on its own; transforms of any one
    group's values that preserve order leave the output bit-identical.
    A query's percentiles add in group-code order.
    """
    if len(group) == 0:
        raise DataError("difficulty estimation saw no (group, query) cells")
    pct = np.empty(len(gu))
    for g in np.unique(group).tolist():
        cells = group == g
        # ascending GU rank; lowest GU = hardest = difficulty percentile near 1
        pct[cells] = 1.0 - (midrank(gu[cells]) - 0.5) / cells.sum()
    order = np.argsort(group, kind="stable")
    sums = np.bincount(query[order], weights=pct[order], minlength=n_queries)
    counts = np.bincount(query, minlength=n_queries)
    return np.divide(sums, counts, out=np.full(n_queries, np.nan),
                     where=counts > 0)


def estimate_difficulty(corpus: LogCorpus, factor: Factor = Factor.AGE,
                        dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                        ) -> DifficultyTable:
    """Estimate per-query difficulty from a corpus; see module docstring."""
    group, query, _, means = group_query_table(corpus, factor,
                                               dwell_threshold_s)
    gu = means[:, METRICS.index(MetricKind.GRADED_UTILITY)]
    return DifficultyTable(corpus.queries, rank_and_average(
        group, query, gu, len(corpus.queries)))
