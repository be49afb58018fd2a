"""Scalar reference rules that tests compare the library's columns against.

Each works on one `corpus_builders.Impression` record at a time, the
plain way: the metric definitions of :mod:`sataudit.metrics`, the final
successful click that context matching keys on, and the NDJSON record
dict that :func:`sataudit.logmodel.emit` writes.  The last two compose
one cell's multilevel prediction at one difficulty, the scalar
reference for :func:`sataudit.multilevel.cell_curves`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from corpus_builders import Impression
from sataudit.errors import DataError
from sataudit.logmodel import AgeGroup, Gender
from sataudit.metrics import DEFAULT_DWELL_THRESHOLD_S, MetricKind
from sataudit.multilevel import MultilevelFit


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


def final_successful_click(imp: Impression,
                           dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                           ) -> str | None:
    """Result id of the last click with dwell above threshold, else None."""
    for c in reversed(imp.clicks):
        if not math.isnan(c.dwell_seconds) and c.dwell_seconds > dwell_threshold_s:
            return c.result_id
    return None


def impression_to_dict(imp: Impression) -> dict:
    return {
        "impression_id": imp.impression_id,
        "user_id": imp.user_id,
        "session_id": imp.session_id,
        "timestamp": imp.timestamp,
        "query_text": imp.query_text,
        "topic": imp.topic,
        "results": list(imp.results),
        "clicks": [{"result_id": c.result_id, "position": c.position,
                    "dwell_seconds": c.dwell_seconds,
                    "terminated_query": c.terminated_query}
                   for c in imp.clicks],
        "reformulated": imp.reformulated,
        "demographics": {"age": imp.demographics.age.name,
                         "gender": imp.demographics.gender.code},
    }


def cell_coefficients(fit: MultilevelFit, age: AgeGroup, gender: Gender,
                      topic: str) -> tuple[float, float, bool]:
    """Composed (intercept, slope) for a cell.

    The returned flag is False when the topic was not seen in training;
    topic and interaction contributions are then zero.
    """
    e = fit.effects
    a0, a1 = e.age[age]
    g0, g1 = e.gender[gender]
    seen = topic in e.topic
    t0, t1 = e.topic.get(topic, (0.0, 0.0))
    i0, i1 = e.interaction.get((age, gender, topic), (0.0, 0.0))
    return (e.mu0 + a0 + g0 + t0 + i0, e.mu1 + a1 + g1 + t1 + i1, seen)


def predict(fit: MultilevelFit, age: AgeGroup, gender: Gender, topic: str,
            difficulty: float) -> float:
    """Mean response for one cell at one difficulty (response scale)."""
    alpha, beta, _ = cell_coefficients(fit, age, gender, topic)
    return float(fit.family.linkinv(np.asarray(alpha + beta * difficulty)))
