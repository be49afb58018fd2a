"""Multilevel satisfaction-vs-difficulty model: bindings, fits, predictions."""

from __future__ import annotations

import numpy as np
import pytest

from corpus_builders import corpus, dissatisfied, satisfied
from sataudit.aggregate import Factor
from sataudit.difficulty import DifficultyTable
from sataudit.errors import ConfigError, DataError
from sataudit.glmfit import Family
from sataudit.logmodel import AgeGroup, Gender
from sataudit.metrics import MetricKind
from sataudit.multilevel import (PREDICTION_GRID, ObservationSet, PriorConfig,
                                 build_observations, cell_coefficients,
                                 family_for_metric, fit_multilevel,
                                 max_group_gap, predict, prediction_grid)


def single_cell(metric: MetricKind, y, x) -> ObservationSet:
    n = len(y)
    return ObservationSet(
        metric=metric, y=np.asarray(y, dtype=float),
        x=np.asarray(x, dtype=float),
        age_idx=np.zeros(n, dtype=np.intp),
        gender_idx=np.zeros(n, dtype=np.intp),
        topic_idx=np.zeros(n, dtype=np.intp), topics=["t"])


def test_metric_family_bindings():
    assert family_for_metric(MetricKind.GRADED_UTILITY) is \
        Family.GAUSSIAN_IDENTITY
    assert family_for_metric(MetricKind.REFORMULATION) is \
        Family.BINOMIAL_LOGIT
    assert family_for_metric(MetricKind.PAGE_CLICK_COUNT) is \
        Family.POISSON_LOG
    assert family_for_metric(MetricKind.SUCCESSFUL_CLICK_COUNT) is \
        Family.POISSON_LOG


def test_prediction_grid_spans_unit_interval():
    assert len(PREDICTION_GRID) == 21
    assert PREDICTION_GRID[0] == 0.0 and PREDICTION_GRID[-1] == 1.0
    assert all(b > a for a, b in zip(PREDICTION_GRID, PREDICTION_GRID[1:]))


class TestPriorConfig:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ConfigError, match="variance_age"):
            PriorConfig(variance_age=0.0)
        with pytest.raises(ConfigError, match="variance_interaction"):
            PriorConfig(variance_interaction=-1.0)

    def test_diffuse_sets_every_block(self):
        p = PriorConfig.diffuse(1e6)
        assert (p.variance_age == p.variance_gender == p.variance_topic
                == p.variance_interaction == 1e6)


class TestBuildObservations:
    def test_rows_indices_and_skips(self):
        imps = [
            satisfied(query="known q", topic="news", age=AgeGroup.G3,
                      gender=Gender.FEMALE),
            dissatisfied(query="known q", topic="news", age=AgeGroup.G1,
                         gender=Gender.MALE),
            satisfied(query="unknown q", topic="sports"),
        ]
        table = DifficultyTable(factor=Factor.AGE,
                                difficulty={"known q": 0.3}, per_group={})
        obs = build_observations(corpus(imps), table,
                                 MetricKind.GRADED_UTILITY)
        assert len(obs) == 2 and obs.skipped == 1
        assert obs.y.tolist() == [1.0, -1.0 / 3.0]
        assert obs.x.tolist() == [0.3, 0.3]
        assert obs.age_idx.tolist() == [2, 0]
        assert obs.gender_idx.tolist() == [1, 0]
        assert obs.topic_idx.tolist() == [0, 0]
        assert obs.topics == ["news"]

    def test_topic_indices_follow_first_appearance(self):
        imps = [satisfied(query="qa", topic="b"), satisfied(query="qa", topic="a"),
                satisfied(query="qa", topic="b")]
        table = DifficultyTable(factor=Factor.AGE, difficulty={"qa": 0.5},
                                per_group={})
        obs = build_observations(corpus(imps), table, MetricKind.REFORMULATION)
        assert obs.topics == ["b", "a"]
        assert obs.topic_idx.tolist() == [0, 1, 0]

    def test_topics_follow_first_appearance_among_kept_rows(self):
        # the first impression's topic "z" belongs only to a query without
        # a difficulty value, so it must not take a topic index; "news"
        # first appears on an unrated query too, so among the kept rows
        # "sports" comes first
        imps = [satisfied(query="unrated", topic="z"),
                satisfied(query="unrated news", topic="news"),
                satisfied(query="q3", topic="sports", age=AgeGroup.G4),
                dissatisfied(query="unrated", topic="z"),
                satisfied(query="q2", topic="news"),
                dissatisfied(query="q2", topic="news", gender=Gender.FEMALE)]
        table = DifficultyTable(factor=Factor.AGE,
                                difficulty={"q2": 0.25, "q3": 0.75},
                                per_group={})
        obs = build_observations(corpus(imps), table,
                                 MetricKind.GRADED_UTILITY)
        assert obs.skipped == 3
        assert obs.topics == ["sports", "news"]
        assert obs.topic_idx.tolist() == [0, 1, 1]
        assert obs.x.tolist() == [0.75, 0.25, 0.25]
        assert obs.y.tolist() == [1.0, 1.0, -1.0 / 3.0]
        assert obs.age_idx.tolist() == [3, 0, 0]
        assert obs.gender_idx.tolist() == [0, 0, 1]


class TestFitValidation:
    def test_empty_observations(self):
        with pytest.raises(DataError, match="no observations"):
            fit_multilevel(single_cell(MetricKind.GRADED_UTILITY, [], []))

    def test_needs_two_distinct_difficulties(self):
        obs = single_cell(MetricKind.GRADED_UTILITY, [0.1] * 10, [0.5] * 10)
        with pytest.raises(DataError, match="distinct difficulty"):
            fit_multilevel(obs)


class TestSingleCellOracles:
    def test_gaussian_diffuse_fit_matches_ols(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=300)
        y = 0.5 - 0.4 * x + rng.normal(scale=0.2, size=300)
        fit = fit_multilevel(single_cell(MetricKind.GRADED_UTILITY, y, x),
                             priors=PriorConfig.diffuse())
        X = np.column_stack([np.ones(300), x])
        ols = np.linalg.solve(X.T @ X, X.T @ y)
        alpha, beta, seen = cell_coefficients(fit, AgeGroup.G1, Gender.MALE,
                                              "t")
        assert seen
        assert alpha == pytest.approx(ols[0], abs=1e-6)
        assert beta == pytest.approx(ols[1], abs=1e-6)
        assert fit.dispersion is not None
        assert fit.n_observations == 300

    def test_binomial_saturated_fit_recovers_cell_proportions(self):
        y = [1.0] * 30 + [0.0] * 70 + [1.0] * 60 + [0.0] * 40
        x = [0.2] * 100 + [0.8] * 100
        fit = fit_multilevel(single_cell(MetricKind.REFORMULATION, y, x),
                             priors=PriorConfig.diffuse())
        assert fit.family is Family.BINOMIAL_LOGIT
        assert fit.dispersion is None
        assert predict(fit, AgeGroup.G1, Gender.MALE, "t", 0.2) == \
            pytest.approx(0.30, abs=1e-5)
        assert predict(fit, AgeGroup.G1, Gender.MALE, "t", 0.8) == \
            pytest.approx(0.60, abs=1e-5)

    def test_poisson_saturated_fit_recovers_cell_means(self):
        y = [1.0, 2.0, 3.0, 2.0] + [0.0, 1.0, 1.0, 0.0]
        x = [0.0] * 4 + [1.0] * 4
        fit = fit_multilevel(
            single_cell(MetricKind.PAGE_CLICK_COUNT, y, x),
            priors=PriorConfig.diffuse())
        assert predict(fit, AgeGroup.G1, Gender.MALE, "t", 0.0) == \
            pytest.approx(2.0, abs=1e-5)
        assert predict(fit, AgeGroup.G1, Gender.MALE, "t", 1.0) == \
            pytest.approx(0.5, abs=1e-5)


def two_age_observations(gap: float = 1.0, n_per: int = 300,
                         seed: int = 5) -> ObservationSet:
    rng = np.random.default_rng(seed)
    n = 2 * n_per
    x = rng.uniform(size=n)
    age_idx = np.array([0] * n_per + [3] * n_per)
    y = 0.2 - 0.5 * x + gap * (age_idx == 3) + rng.normal(scale=0.1, size=n)
    return ObservationSet(
        metric=MetricKind.GRADED_UTILITY, y=y, x=x,
        age_idx=age_idx.astype(np.intp),
        gender_idx=np.zeros(n, dtype=np.intp),
        topic_idx=np.zeros(n, dtype=np.intp), topics=["t"])


class TestComposedPredictions:
    def test_unseen_topic_falls_back_to_shared_effects(self):
        fit = fit_multilevel(two_age_observations())
        a_seen, b_seen, seen = cell_coefficients(fit, AgeGroup.G1,
                                                 Gender.MALE, "t")
        a_new, b_new, new_seen = cell_coefficients(fit, AgeGroup.G1,
                                                   Gender.MALE, "elsewhere")
        assert seen and not new_seen
        e = fit.effects
        assert a_new == pytest.approx(
            e.mu0 + e.age[AgeGroup.G1][0] + e.gender[Gender.MALE][0])
        assert b_new == pytest.approx(
            e.mu1 + e.age[AgeGroup.G1][1] + e.gender[Gender.MALE][1])
        # the seen cell additionally carries topic and interaction parts
        assert (a_seen, b_seen) != (a_new, b_new)

    def test_predict_is_linkinv_of_composed_line(self):
        fit = fit_multilevel(two_age_observations())
        alpha, beta, _ = cell_coefficients(fit, AgeGroup.G4, Gender.MALE, "t")
        assert predict(fit, AgeGroup.G4, Gender.MALE, "t", 0.4) == \
            pytest.approx(alpha + 0.4 * beta)

    def test_prediction_grid_shape_and_consistency(self):
        fit = fit_multilevel(two_age_observations())
        points = prediction_grid(fit)
        assert len(points) == len(fit.topics) * 4 * len(PREDICTION_GRID)
        for p in points[::17]:
            assert p.gender is Gender.MALE
            assert p.value == predict(fit, p.age, p.gender, p.topic,
                                      p.difficulty)
        named = prediction_grid(fit, gender=Gender.FEMALE, topics=["zz"])
        assert len(named) == 4 * len(PREDICTION_GRID)
        assert all(p.topic == "zz" and p.gender is Gender.FEMALE
                   for p in named)

    def test_max_group_gap_matches_manual_scan(self):
        fit = fit_multilevel(two_age_observations(gap=0.8))
        manual = 0.0
        for topic in fit.topics:
            for d in PREDICTION_GRID:
                vals = [predict(fit, a, g, topic, d)
                        for a in AgeGroup for g in Gender]
                manual = max(manual, max(vals) - min(vals))
        got = max_group_gap(fit)
        assert got == pytest.approx(manual, abs=1e-12)
        assert got > 0.4   # the injected age gap survives shrinkage


def test_empirical_bayes_reestimates_block_variances():
    obs = two_age_observations(gap=1.5)
    fit = fit_multilevel(obs, priors=PriorConfig(empirical_bayes=True))
    assert fit.convergence.converged
    assert set(fit.effects.variances) == {"age", "gender", "topic",
                                          "interaction"}
    assert fit.effects.variances["age"] != 1.0


def test_effects_serialization_keys():
    fit = fit_multilevel(two_age_observations())
    d = fit.effects.to_dict()
    assert set(d) == {"mu0", "mu1", "age", "gender", "topic", "interaction",
                      "variances"}
    assert set(d["age"]) == {"G1", "G2", "G3", "G4"}
    assert set(d["gender"]) == {"M", "F"}
    assert set(d["topic"]) == {"t"}
    assert all(len(v) == 2 for v in d["age"].values())


def test_cells_are_the_observed_triples_in_lexicographic_order():
    # cell numbering fixes the design's column order, so it must stay
    # the sorted (age, gender, topic) order for fits to repeat exactly
    rng = np.random.default_rng(3)
    n = 300
    age = rng.integers(0, 4, n)
    topic = np.where(age == 3, 2, rng.integers(0, 2, n))   # G4 sees "c"
    obs = ObservationSet(
        metric=MetricKind.GRADED_UTILITY, y=rng.normal(size=n),
        x=rng.random(n), age_idx=age, gender_idx=rng.integers(0, 2, n),
        topic_idx=topic, topics=["a", "b", "c"])
    fit = fit_multilevel(obs)
    want = sorted(set(zip(age.tolist(), obs.gender_idx.tolist(),
                          topic.tolist())))
    assert list(fit.effects.interaction) == [
        (list(AgeGroup)[a], list(Gender)[g], obs.topics[t])
        for a, g, t in want]
