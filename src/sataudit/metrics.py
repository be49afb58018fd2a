"""Per-impression satisfaction metrics.

Four metrics are computed from a single impression:

* ``PCC`` -- page click count, the number of result clicks.
* ``SCC`` -- successful click count, clicks with dwell strictly above a
  threshold (30 seconds by default).
* ``REFORMULATION`` -- 1 if the query was reformulated in-session, else 0.
  Lower is better; the other three are higher-better.
* ``GRADED_UTILITY`` -- a four-level score combining the other signals:

  ====================================================  =====
  at least one successful click, PCC <= 2, no reform     +1
  at least one successful click otherwise                +1/3
  no successful click but at least one click             -1/3
  no clicks at all                                       -1
  ====================================================  =====
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .logmodel import Impression, ImpressionColumns, LogCorpus

DEFAULT_DWELL_THRESHOLD_S = 30.0

GU_LEVELS = (-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0)


class MetricKind(enum.Enum):
    GRADED_UTILITY = "graded_utility"
    REFORMULATION = "reformulation"
    PAGE_CLICK_COUNT = "page_click_count"
    SUCCESSFUL_CLICK_COUNT = "successful_click_count"

    @property
    def higher_is_better(self) -> bool:
        return self is not MetricKind.REFORMULATION


METRICS = (MetricKind.GRADED_UTILITY, MetricKind.REFORMULATION,
           MetricKind.PAGE_CLICK_COUNT, MetricKind.SUCCESSFUL_CLICK_COUNT)


@dataclass(frozen=True)
class MetricVector:
    """The four metric values for one impression.

    Values computed by :func:`metric_vector` satisfy the natural
    invariants (GU on its four-level grid, 0 <= SCC <= PCC, reformulation
    binary); the container itself stays permissive so callers can probe
    labelers with off-grid values.
    """

    graded_utility: float
    reformulation: int
    page_click_count: int
    successful_click_count: int

    def value(self, kind: MetricKind) -> float:
        return getattr(self, kind.value)


def page_click_count(imp: Impression) -> int:
    return len(imp.clicks)


def successful_click_count(imp: Impression,
                           dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S) -> int:
    """Clicks whose dwell strictly exceeds the threshold.

    Raises DataError when a click lacks dwell fidelity; clicks-only logs
    cannot support dwell-based metrics.
    """
    n = 0
    for c in imp.clicks:
        if math.isnan(c.dwell_seconds):
            raise DataError(
                f"impression {imp.impression_id}: dwell missing; "
                "successful clicks need dwell fidelity")
        if c.dwell_seconds > dwell_threshold_s:
            n += 1
    return n


def reformulation(imp: Impression) -> int:
    if imp.reformulated is None:
        raise DataError(
            f"impression {imp.impression_id}: reformulated flag unset; "
            "run ingest (which derives missing flags) first")
    return int(imp.reformulated)


def metric_vector(imp: Impression,
                  dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S) -> MetricVector:
    """All four metrics for one impression (single pass over clicks)."""
    pcc = page_click_count(imp)
    scc = successful_click_count(imp, dwell_threshold_s)
    reform = reformulation(imp)
    if pcc == 0:
        gu = -1.0
    elif scc == 0:
        gu = -1.0 / 3.0
    elif pcc <= 2 and reform == 0:
        gu = 1.0
    else:
        gu = 1.0 / 3.0
    return MetricVector(graded_utility=gu, reformulation=reform,
                        page_click_count=pcc, successful_click_count=scc)


def metric_table(corpus: LogCorpus,
                 dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                 ) -> np.ndarray:
    """Read-only (n, 4) array of every impression's metrics.

    Row k equals ``metric_vector`` of impression k, with columns in
    ``METRICS`` order.  The table is built once per dwell threshold from
    the corpus's click columns and kept on the corpus, so every estimator
    reads the same scores.
    """
    key = ("metric_table", dwell_threshold_s)
    table = corpus._derived.get(key)
    if table is None:
        table = corpus._derived[key] = _build_metric_table(
            corpus.columns, dwell_threshold_s)
    return table


def _build_metric_table(cols: ImpressionColumns,
                        dwell_threshold_s: float) -> np.ndarray:
    dwell, reform = cols.click_dwell, cols.reformulated
    # metric_vector's errors, for the first impression that has one
    no_dwell = cols.click_row[np.isnan(dwell)][:1]
    unset = np.flatnonzero(reform < 0)[:1]
    if no_dwell.size or unset.size:
        first = min(no_dwell.tolist() + unset.tolist())
        if no_dwell.size and no_dwell[0] == first:
            raise DataError(
                f"impression {cols.ids[first]}: dwell missing; "
                "successful clicks need dwell fidelity")
        raise DataError(
            f"impression {cols.ids[first]}: reformulated flag unset; "
            "run ingest (which derives missing flags) first")
    pcc = cols.click_count
    scc = np.bincount(cols.click_row[dwell > dwell_threshold_s],
                      minlength=len(cols))
    gu = np.select([pcc == 0, scc == 0, (pcc <= 2) & (reform == 0)],
                   [GU_LEVELS[0], GU_LEVELS[1], GU_LEVELS[3]],
                   default=GU_LEVELS[2])
    table = np.column_stack([gu, reform, pcc, scc]).astype(float)
    table.setflags(write=False)
    return table
