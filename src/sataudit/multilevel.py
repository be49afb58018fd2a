"""Multilevel regression of satisfaction metrics on query difficulty.

Each demographic-by-topic cell (age x gender x topic) gets its own
intercept and slope against query difficulty; the mean response is the
inverse link of that cell-linear predictor.  Cell coefficients decompose
into a global part plus age, gender, topic, and age-gender-topic
interaction effects, each drawn from a mean-zero Gaussian prior, so the
fit is a MAP estimate: a GLM with a per-block ridge penalty.  The global
intercept and slope are unpenalized.

Family bindings follow the metric's support: graded utility is bounded,
so Gaussian with identity link; reformulation is binary, binomial with
logit link; the click counts are Poisson with log link.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .difficulty import DifficultyTable
from .glmfit import CellDesign, Convergence, Family, fit_penalized_glm
from .logmodel import AgeGroup, Gender, LogCorpus, first_appearance_codes
from .metrics import DEFAULT_DWELL_THRESHOLD_S, METRICS, MetricKind, \
    metric_table

PREDICTION_GRID = tuple(np.round(np.linspace(0.0, 1.0, 21), 10).tolist())

EMPIRICAL_BAYES_ROUNDS = 5

_AGES = list(AgeGroup)
_GENDERS = list(Gender)


def family_for_metric(metric: MetricKind) -> Family:
    if metric is MetricKind.GRADED_UTILITY:
        return Family.GAUSSIAN_IDENTITY
    if metric is MetricKind.REFORMULATION:
        return Family.BINOMIAL_LOGIT
    return Family.POISSON_LOG


@dataclass
class ObservationSet:
    """Column-oriented regression rows: one row per impression."""

    metric: MetricKind
    y: np.ndarray
    x: np.ndarray                  # query difficulty in [0, 1]
    age_idx: np.ndarray            # index into AgeGroup order
    gender_idx: np.ndarray
    topic_idx: np.ndarray
    topics: list[str]
    skipped: int = 0               # impressions without a difficulty value

    def __len__(self) -> int:
        return len(self.y)


@dataclass
class SecondLevelEffects:
    mu0: float
    mu1: float
    age: dict[AgeGroup, tuple[float, float]]
    gender: dict[Gender, tuple[float, float]]
    topic: dict[str, tuple[float, float]]
    interaction: dict[tuple[AgeGroup, Gender, str], tuple[float, float]]
    variances: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mu0": self.mu0,
            "mu1": self.mu1,
            "age": {a.name: list(v) for a, v in self.age.items()},
            "gender": {g.code: list(v) for g, v in self.gender.items()},
            "topic": {t: list(v) for t, v in sorted(self.topic.items())},
            "interaction": {
                f"{a.name}|{g.code}|{t}": list(v)
                for (a, g, t), v in sorted(
                    self.interaction.items(),
                    key=lambda kv: (kv[0][0].name, kv[0][1].code, kv[0][2]))},
            "variances": dict(sorted(self.variances.items())),
        }


@dataclass
class MultilevelFit:
    metric: MetricKind
    family: Family
    effects: SecondLevelEffects
    convergence: Convergence
    topics: list[str]
    dispersion: float | None = None
    n_observations: int = 0


def build_observations(corpus: LogCorpus, difficulty: DifficultyTable,
                       metric: MetricKind,
                       dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                       ) -> ObservationSet:
    """Regression rows for one metric; impressions whose query has no
    difficulty estimate are skipped and counted."""
    known = np.array([q in difficulty for q in corpus.queries], dtype=bool)
    x_of_query = np.array([difficulty.difficulty.get(q, 0.0)
                           for q in corpus.queries], dtype=float)
    rows = np.flatnonzero(known[corpus.query])
    topic_codes, topic_idx = first_appearance_codes(corpus.topic[rows])
    column = metric_table(corpus, dwell_threshold_s)[:, METRICS.index(metric)]
    return ObservationSet(
        metric=metric, y=column[rows], x=x_of_query[corpus.query[rows]],
        age_idx=corpus.age[rows], gender_idx=corpus.gender[rows],
        topic_idx=topic_idx,
        topics=[corpus.topics[t] for t in topic_codes.tolist()],
        skipped=len(corpus) - len(rows))


def _build_design(cells: np.ndarray, n_topics: int,
                  variances: dict[str, float]
                  ) -> tuple[CellDesign, dict[str, slice]]:
    """Cell-space design for the decomposition; `cells` is (C, 3) of
    (age_idx, gender_idx, topic_idx) rows and `variances` holds each
    block's prior variance."""
    n_cells = len(cells)
    blocks: dict[str, slice] = {}
    pos = 2
    for name, size in (("age", 4), ("gender", 2), ("topic", n_topics),
                       ("interaction", n_cells)):
        blocks[name] = slice(pos, pos + 2 * size)
        pos += 2 * size
    p = pos
    ma = np.zeros((n_cells, p))
    mb = np.zeros((n_cells, p))
    ma[:, 0] = 1.0
    mb[:, 1] = 1.0
    for c, (a, g, t) in enumerate(cells):
        for name, idx, size in (("age", a, 4), ("gender", g, 2),
                                ("topic", t, n_topics), ("interaction", c, n_cells)):
            start = blocks[name].start
            ma[c, start + 2 * idx] = 1.0
            mb[c, start + 2 * idx + 1] = 1.0
    penalty = np.zeros(p)
    for name, var in variances.items():
        penalty[blocks[name]] = 1.0 / var
    return CellDesign(intercept_map=ma, slope_map=mb, penalty=penalty), blocks


def _unpack(theta: np.ndarray, blocks: dict[str, slice], cells: np.ndarray,
            topics: list[str], variances: dict[str, float]) -> SecondLevelEffects:
    def pairs(name: str, size: int) -> list[tuple[float, float]]:
        seg = theta[blocks[name]]
        return [(float(seg[2 * i]), float(seg[2 * i + 1])) for i in range(size)]

    age = dict(zip(_AGES, pairs("age", 4)))
    gender = dict(zip(_GENDERS, pairs("gender", 2)))
    topic = dict(zip(topics, pairs("topic", len(topics))))
    inter = {}
    for (a, g, t), pair in zip(cells, pairs("interaction", len(cells))):
        inter[(_AGES[a], _GENDERS[g], topics[t])] = pair
    return SecondLevelEffects(mu0=float(theta[0]), mu1=float(theta[1]),
                              age=age, gender=gender, topic=topic,
                              interaction=inter, variances=variances)


def fit_multilevel(obs: ObservationSet, prior_variance: float = 1.0,
                   empirical_bayes: bool = False) -> MultilevelFit:
    """MAP fit of the multilevel model for one metric.

    `prior_variance` is the prior variance of every second-level block.
    Needs at least two distinct difficulty values; raises DataError
    otherwise and ConvergenceError when the optimizer budget runs out.
    With `empirical_bayes` the per-block prior variances are re-estimated
    from the fitted coefficients and the model refit, up to
    EMPIRICAL_BAYES_ROUNDS times.
    """
    if prior_variance <= 0:
        raise ConfigError("prior variance must be positive")
    if len(obs) == 0:
        raise DataError("no observations to fit")
    if len(np.unique(obs.x)) < 2:
        raise DataError("multilevel fit needs >= 2 distinct difficulty values")
    family = family_for_metric(obs.metric)

    # one code per (age, gender, topic) cell; its numeric order is the
    # lexicographic order of the triples
    n_topics = len(obs.topics)
    keys = (obs.age_idx.astype(np.int64) * 2 + obs.gender_idx) * n_topics \
        + obs.topic_idx
    codes, cell_of = np.unique(keys, return_inverse=True)
    age_gender, topic = np.divmod(codes, n_topics)
    cells = np.stack([age_gender // 2, age_gender % 2, topic], axis=1)

    variances = dict.fromkeys(("age", "gender", "topic", "interaction"),
                              prior_variance)
    rounds = EMPIRICAL_BAYES_ROUNDS if empirical_bayes else 0

    for round_no in range(rounds + 1):
        design, blocks = _build_design(cells, n_topics, variances)
        theta0 = np.zeros(design.intercept_map.shape[1])
        theta0[0] = family.link(float(np.mean(obs.y)))
        solution = fit_penalized_glm(obs.y, obs.x, cell_of, design, family,
                                     theta0=theta0)
        if round_no == rounds:
            break
        # each block's variance re-estimated from its fitted coefficients
        updated = {name: max(float(np.mean(np.square(
            solution.theta[blocks[name]]))), 1e-6) for name in variances}
        settled = all(abs(updated[name] - var) <= 1e-3 * var
                      for name, var in variances.items())
        variances = updated
        if settled:
            break

    effects = _unpack(solution.theta, blocks, cells, obs.topics, dict(variances))
    return MultilevelFit(metric=obs.metric, family=family, effects=effects,
                         convergence=solution.convergence, topics=list(obs.topics),
                         dispersion=solution.dispersion, n_observations=len(obs))


def cell_curves(fit: MultilevelFit) -> np.ndarray:
    """Mean response of every cell over PREDICTION_GRID.

    Shape (topics, ages, genders, grid points), topics in `fit.topics`
    order.  A cell's intercept and slope add the global, age, gender,
    topic and interaction parts in that order, which fixes the rounding
    of every value written; a cell without observations has no
    interaction and adds 0.
    """
    e = fit.effects
    topic_of = {t: i for i, t in enumerate(fit.topics)}
    inter = np.zeros((len(fit.topics), 4, 2, 2))
    for (a, g, t), pair in e.interaction.items():
        inter[topic_of[t], _AGES.index(a), _GENDERS.index(g)] = pair
    coef = (np.array([e.mu0, e.mu1])
            + np.array([e.age[a] for a in _AGES])[None, :, None]
            + np.array([e.gender[g] for g in _GENDERS])[None, None]
            + np.array([e.topic[t] for t in fit.topics])[:, None, None]
            + inter)
    grid = np.array(PREDICTION_GRID)
    return fit.family.linkinv(coef[..., :1] + coef[..., 1:] * grid)


def max_group_gap(fit: MultilevelFit) -> float:
    """Largest spread of predicted values across the age-gender cells.

    The maximum over topics and grid difficulties of (max - min) over
    the eight cells; feeds the pairwise labeling thresholds.
    """
    cells = cell_curves(fit).reshape(len(fit.topics), 8, -1)
    return float((cells.max(axis=1) - cells.min(axis=1)).max())
