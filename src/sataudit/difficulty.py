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
from .aggregate import Factor, GroupKey, group_query_table
from .logmodel import LogCorpus
from .metrics import DEFAULT_DWELL_THRESHOLD_S, MetricKind


@dataclass
class DifficultyTable:
    factor: Factor
    difficulty: dict[str, float]                      # query -> [0, 1]
    per_group: dict[GroupKey, dict[str, float]]       # difficulty percentiles

    def __getitem__(self, query: str) -> float:
        return self.difficulty[query]

    def __contains__(self, query: str) -> bool:
        return query in self.difficulty


def midrank(values: np.ndarray) -> np.ndarray:
    """1-based fractional ranks, ties receiving the mean of their ranks."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def difficulty_from_group_scores(group_scores: dict[GroupKey, dict[str, float]],
                                 factor: Factor = Factor.AGE) -> DifficultyTable:
    """Difficulty table from per-group {query: mean GU} maps.

    This is the rank-and-average stage on its own; transforms of any one
    group's values that preserve order leave the output bit-identical.
    """
    if not group_scores:
        raise DataError("difficulty estimation needs at least one group")
    per_group: dict[GroupKey, dict[str, float]] = {}
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for g, by_query in group_scores.items():
        if not by_query:
            continue
        queries = sorted(by_query)
        gu = np.array([by_query[q] for q in queries], dtype=float)
        # ascending GU rank; lowest GU = hardest = difficulty percentile near 1
        pct = 1.0 - (midrank(gu) - 0.5) / len(queries)
        per_group[g] = dict(zip(queries, pct.tolist()))
        for q, p in per_group[g].items():
            sums[q] = sums.get(q, 0.0) + p
            counts[q] = counts.get(q, 0) + 1
    if not sums:
        raise DataError("difficulty estimation saw no queries")
    difficulty = {q: sums[q] / counts[q] for q in sums}
    return DifficultyTable(factor=factor, difficulty=difficulty,
                           per_group=per_group)


def estimate_difficulty(corpus: LogCorpus, factor: Factor = Factor.AGE,
                        dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                        ) -> DifficultyTable:
    """Estimate per-query difficulty from a corpus; see module docstring."""
    table = group_query_table(corpus, factor, dwell_threshold_s)
    group_scores = {
        g: {q: cell.means[MetricKind.GRADED_UTILITY]
            for q, cell in by_query.items()}
        for g, by_query in table.items()
    }
    return difficulty_from_group_scores(group_scores, factor)
