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

import numpy as np

from .errors import DataError
from .logmodel import LogCorpus, derive_reformulation_flags

DEFAULT_DWELL_THRESHOLD_S = 30.0

GU_LEVELS = (-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0)


class MetricKind(enum.Enum):
    GRADED_UTILITY = "graded_utility"
    REFORMULATION = "reformulation"
    PAGE_CLICK_COUNT = "page_click_count"
    SUCCESSFUL_CLICK_COUNT = "successful_click_count"


METRICS = (MetricKind.GRADED_UTILITY, MetricKind.REFORMULATION,
           MetricKind.PAGE_CLICK_COUNT, MetricKind.SUCCESSFUL_CLICK_COUNT)


def metric_table(corpus: LogCorpus,
                 dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                 ) -> np.ndarray:
    """Read-only (n, 4) array of every impression's metrics.

    Row k holds impression k's four metrics, as the module docstring
    defines them, in ``METRICS`` order.  The table is built once per dwell
    threshold from the corpus's click columns and kept on the corpus, so
    every estimator reads the same scores.  Its reformulation column is
    :func:`~sataudit.logmodel.derive_reformulation_flags`, built once per
    corpus: unset flags are filled from session context.  Raises
    DataError, naming the first impression that has one, for a click
    without dwell time.
    """
    return corpus.derived("metric_table", _build_metric_table,
                          dwell_threshold_s)


def _build_metric_table(corpus: LogCorpus,
                        dwell_threshold_s: float) -> np.ndarray:
    dwell = corpus.click_dwell
    no_dwell = corpus.click_row[np.isnan(dwell)][:1]
    if no_dwell.size:
        raise DataError(
            f"impression {corpus.ids[no_dwell[0]]}: dwell missing; "
            "successful clicks need dwell fidelity")
    reform = corpus.derived("reformulation", derive_reformulation_flags)
    pcc = corpus.click_count
    scc = np.bincount(corpus.click_row[dwell > dwell_threshold_s],
                      minlength=len(corpus))
    gu = np.select([pcc == 0, scc == 0, (pcc <= 2) & (reform == 0)],
                   [GU_LEVELS[0], GU_LEVELS[1], GU_LEVELS[3]],
                   default=GU_LEVELS[2])
    return np.column_stack([gu, reform, pcc, scc])     # float64, as gu is
