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

from dataclasses import dataclass

import numpy as np

from .aggregate import Factor, count_table
from .errors import ConfigError, DataError
from .difficulty import DifficultyTable
from .glmfit import CellDesign, Convergence, Family, fit_penalized_glm
from .logmodel import AgeGroup, Gender, LogCorpus
from .metrics import DEFAULT_DWELL_THRESHOLD_S, METRICS, MetricKind

PREDICTION_GRID = tuple(np.round(np.linspace(0.0, 1.0, 21), 10).tolist())

EMPIRICAL_BAYES_ROUNDS = 5

_AGES = [a.name for a in AgeGroup]
_GENDERS = [g.code for g in Gender]


def family_for_metric(metric: MetricKind) -> Family:
    if metric is MetricKind.GRADED_UTILITY:
        return Family.GAUSSIAN_IDENTITY
    if metric is MetricKind.REFORMULATION:
        return Family.BINOMIAL_LOGIT
    return Family.POISSON_LOG


@dataclass
class ObservationSet:
    """Regression rows; a row is `trials` impressions sharing its values."""

    metric: MetricKind
    y: np.ndarray
    trials: np.ndarray
    x: np.ndarray                  # query difficulty in [0, 1]
    age_idx: np.ndarray            # index into AgeGroup order
    gender_idx: np.ndarray
    topic_idx: np.ndarray
    topics: list[str]


@dataclass
class SecondLevelEffects:
    """The fitted global intercept and slope and the second-level blocks
    of the fitted coefficients, each row an (intercept, slope) pair:
    ``age`` (4, 2) in AgeGroup order, ``gender`` (2, 2) in Gender order,
    ``topic`` (topics, 2) and ``interaction`` (topics, 4, 2, 2) by topic,
    age and gender, topics in the fit's order.  An interaction cell
    without observations is NaN."""

    mu0: float
    mu1: float
    age: np.ndarray
    gender: np.ndarray
    topic: np.ndarray
    interaction: np.ndarray
    variances: dict[str, float]

    def to_dict(self, topics: list[str]) -> dict:
        """The effects keyed by name, `topics` naming the topic rows; an
        interaction is keyed ``age|gender|topic`` and listed only where
        the cell has observations."""
        seen = ~np.isnan(self.interaction[..., 0])
        return {
            "mu0": self.mu0, "mu1": self.mu1,
            "age": dict(zip(_AGES, self.age.tolist())),
            "gender": dict(zip(_GENDERS, self.gender.tolist())),
            "topic": dict(zip(topics, self.topic.tolist())),
            "interaction": {
                f"{_AGES[a]}|{_GENDERS[g]}|{topics[t]}": v
                for (t, a, g), v in zip(np.argwhere(seen).tolist(),
                                        self.interaction[seen].tolist())},
            "variances": self.variances,
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
    """Regression rows for one metric, one per count-table row, topics in
    text order; rows whose query has no difficulty estimate are left out."""
    if difficulty.queries != corpus.queries:
        raise DataError("the difficulty table is over another query list")
    keys, counts, states = count_table(corpus, dwell_threshold_s)
    known = ~np.isnan(difficulty.values)[keys[:, 0]]
    query, profile, topic, state = keys[known].T
    topic_codes, topic_idx = np.unique(topic, return_inverse=True)
    return ObservationSet(
        metric=metric, y=states[state, METRICS.index(metric)],
        trials=counts[known], x=difficulty.values[query],
        age_idx=Factor.AGE.group_of(profile),
        gender_idx=Factor.GENDER.group_of(profile), topic_idx=topic_idx,
        topics=[corpus.topics[t] for t in topic_codes.tolist()])


def _build_design(cells: tuple[np.ndarray, ...], n_topics: int,
                  variances: dict[str, float]
                  ) -> tuple[CellDesign, dict[str, slice]]:
    """Cell-space design for the decomposition; `cells` holds the cells'
    age, gender and topic indices and `variances` each block's prior
    variance."""
    n_cells = len(cells[0])
    blocks: dict[str, slice] = {}
    # each cell's intercept column in the global part and in every block;
    # its slope column is the next one
    columns = [np.zeros(n_cells, dtype=np.intp)]
    pos = 2
    for name, idx, size in zip(("age", "gender", "topic", "interaction"),
                               (*cells, np.arange(n_cells)),
                               (4, 2, n_topics, n_cells)):
        blocks[name] = slice(pos, pos + 2 * size)
        columns.append(pos + 2 * idx)
        pos += 2 * size
    columns = np.stack(columns, axis=1)
    ma, mb = np.zeros((2, n_cells, pos))
    np.put_along_axis(ma, columns, 1.0, axis=1)
    np.put_along_axis(mb, columns + 1, 1.0, axis=1)
    penalty = np.zeros(pos)
    for name, var in variances.items():
        penalty[blocks[name]] = 1.0 / var
    return CellDesign(intercept_map=ma, slope_map=mb, penalty=penalty), blocks


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
    if not len(obs.y):
        raise DataError("no observations to fit")
    if len(np.unique(obs.x)) < 2:
        raise DataError("multilevel fit needs >= 2 distinct difficulty values")
    family = family_for_metric(obs.metric)
    # binomial and Poisson rows carry their sum, Gaussian ones their value
    y = obs.y if family is Family.GAUSSIAN_IDENTITY else obs.y * obs.trials

    # one code per (age, gender, topic) cell; its numeric order is the
    # lexicographic order of the triples
    n_topics = len(obs.topics)
    shape = (4, 2, n_topics)
    codes, cell_of = np.unique(np.ravel_multi_index(
        (obs.age_idx, obs.gender_idx, obs.topic_idx), shape),
        return_inverse=True)
    cells = np.unravel_index(codes, shape)

    variances = dict.fromkeys(("age", "gender", "topic", "interaction"),
                              prior_variance)
    rounds = EMPIRICAL_BAYES_ROUNDS if empirical_bayes else 0

    for round_no in range(rounds + 1):
        design, blocks = _build_design(cells, n_topics, variances)
        theta0 = np.zeros(design.intercept_map.shape[1])
        theta0[0] = family.link(float(obs.trials @ obs.y / obs.trials.sum()))
        solution = fit_penalized_glm(y, obs.x, cell_of, design, family,
                                     trials=obs.trials, theta0=theta0)
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

    theta = solution.theta
    pairs = {name: theta[blocks[name]].reshape(-1, 2) for name in blocks}
    interaction = np.full((n_topics, 4, 2, 2), np.nan)
    interaction[cells[2], cells[0], cells[1]] = pairs.pop("interaction")
    effects = SecondLevelEffects(float(theta[0]), float(theta[1]), **pairs,
                                 interaction=interaction, variances=variances)
    return MultilevelFit(metric=obs.metric, family=family, effects=effects,
                         convergence=solution.convergence, topics=list(obs.topics),
                         dispersion=solution.dispersion,
                         n_observations=int(obs.trials.sum()))


def cell_curves(fit: MultilevelFit) -> np.ndarray:
    """Mean response of every cell over PREDICTION_GRID.

    Shape (topics, ages, genders, grid points), topics in `fit.topics`
    order.  A cell's intercept and slope add the global, age, gender,
    topic and interaction parts in that order, which fixes the rounding
    of every value written; a cell without observations has no
    interaction and adds 0.
    """
    e = fit.effects
    coef = (np.array([e.mu0, e.mu1]) + e.age[None, :, None]
            + e.gender[None, None] + e.topic[:, None, None]
            + np.nan_to_num(e.interaction))
    grid = np.array(PREDICTION_GRID)
    return fit.family.linkinv(coef[..., :1] + coef[..., 1:] * grid)


def max_group_gap(fit: MultilevelFit) -> float:
    """Largest spread of predicted values across the age-gender cells.

    The maximum over topics and grid difficulties of (max - min) over
    the eight cells; feeds the pairwise labeling thresholds.
    """
    cells = cell_curves(fit).reshape(len(fit.topics), 8, -1)
    return float((cells.max(axis=1) - cells.min(axis=1)).max())
