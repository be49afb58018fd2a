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

from .errors import DataError
from .difficulty import DifficultyTable
from .glmfit import CellDesign, Convergence, Family, FitConfig, fit_penalized_glm
from .logmodel import AgeGroup, Gender, LogCorpus, first_appearance_codes
from .metrics import DEFAULT_DWELL_THRESHOLD_S, METRICS, MetricKind, \
    metric_table

PREDICTION_GRID = tuple(np.round(np.linspace(0.0, 1.0, 21), 10).tolist())

_AGES = list(AgeGroup)
_GENDERS = list(Gender)


def family_for_metric(metric: MetricKind) -> Family:
    if metric is MetricKind.GRADED_UTILITY:
        return Family.GAUSSIAN_IDENTITY
    if metric is MetricKind.REFORMULATION:
        return Family.BINOMIAL_LOGIT
    return Family.POISSON_LOG


@dataclass(frozen=True)
class PriorConfig:
    """Per-block prior variances for the second-level effects."""

    variance_age: float = 1.0
    variance_gender: float = 1.0
    variance_topic: float = 1.0
    variance_interaction: float = 1.0
    empirical_bayes: bool = False
    empirical_bayes_rounds: int = 5

    def __post_init__(self):
        for name in ("variance_age", "variance_gender", "variance_topic",
                     "variance_interaction"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def diffuse(cls, variance: float = 1e8) -> "PriorConfig":
        """Near-flat priors; the MAP estimate then tracks the MLE."""
        return cls(variance_age=variance, variance_gender=variance,
                   variance_topic=variance, variance_interaction=variance)


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
    columns = corpus.columns
    known = np.array([q in difficulty for q in columns.queries], dtype=bool)
    x_of_query = np.array([difficulty.difficulty.get(q, 0.0)
                           for q in columns.queries], dtype=float)
    rows = np.flatnonzero(known[columns.query])
    topic_codes, topic_idx = first_appearance_codes(columns.topic[rows])
    column = metric_table(corpus, dwell_threshold_s)[:, METRICS.index(metric)]
    return ObservationSet(
        metric=metric, y=column[rows], x=x_of_query[columns.query[rows]],
        age_idx=columns.age[rows], gender_idx=columns.gender[rows],
        topic_idx=topic_idx,
        topics=[columns.topics[t] for t in topic_codes.tolist()],
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


def fit_multilevel(obs: ObservationSet,
                   priors: PriorConfig = PriorConfig(),
                   config: FitConfig = FitConfig()) -> MultilevelFit:
    """MAP fit of the multilevel model for one metric.

    Needs at least two distinct difficulty values; raises DataError
    otherwise and ConvergenceError when the optimizer budget runs out.
    With `priors.empirical_bayes` the per-block prior variances are
    re-estimated from the fitted coefficients and the model refit, up to
    `empirical_bayes_rounds` times.
    """
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

    variances = {"age": priors.variance_age, "gender": priors.variance_gender,
                 "topic": priors.variance_topic,
                 "interaction": priors.variance_interaction}
    rounds = priors.empirical_bayes_rounds if priors.empirical_bayes else 0

    for round_no in range(rounds + 1):
        design, blocks = _build_design(cells, n_topics, variances)
        theta0 = np.zeros(design.intercept_map.shape[1])
        theta0[0] = family.link(float(np.mean(obs.y)))
        solution = fit_penalized_glm(obs.y, obs.x, cell_of, design, family,
                                     theta0=theta0, config=config)
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


@dataclass(frozen=True)
class GridPoint:
    metric: MetricKind
    topic: str
    age: AgeGroup
    gender: Gender
    difficulty: float
    value: float


def prediction_grid(fit: MultilevelFit, gender: Gender = Gender.MALE,
                    topics: list[str] | None = None,
                    grid: tuple[float, ...] = PREDICTION_GRID) -> list[GridPoint]:
    """Per-topic age curves over the difficulty grid, gender held fixed."""
    topics = fit.topics if topics is None else topics
    points = []
    for topic in topics:
        for age in _AGES:
            for d in grid:
                points.append(GridPoint(
                    metric=fit.metric, topic=topic, age=age, gender=gender,
                    difficulty=float(d),
                    value=predict(fit, age, gender, topic, float(d))))
    return points


def max_group_gap(fit: MultilevelFit,
                  grid: tuple[float, ...] = PREDICTION_GRID) -> float:
    """Largest spread of predicted values across the age-gender cells.

    The maximum over topics and grid difficulties of (max - min) over
    the eight cells; feeds the pairwise labeling thresholds.
    """
    delta = 0.0
    for topic in fit.topics:
        coefs = [cell_coefficients(fit, a, g, topic)[:2]
                 for a in _AGES for g in _GENDERS]
        for d in grid:
            vals = [float(fit.family.linkinv(np.asarray(al + be * d)))
                    for al, be in coefs]
            delta = max(delta, max(vals) - min(vals))
    return delta
