"""Multilevel satisfaction-vs-difficulty model: bindings, fits, predictions."""

from __future__ import annotations

import numpy as np
import pytest

from corpus_builders import corpus, dissatisfied, satisfied
from oracles import cell_coefficients, predict
from sataudit.aggregate import Factor
from sataudit.difficulty import DifficultyTable
from sataudit.errors import ConfigError, DataError
from sataudit.glmfit import Family
from sataudit.logmodel import AgeGroup, Gender
from sataudit.metrics import MetricKind
from sataudit.multilevel import (PREDICTION_GRID, ObservationSet,
                                 _build_design, build_observations,
                                 cell_curves, family_for_metric,
                                 fit_multilevel, max_group_gap)


def table_for(c, difficulty: dict[str, float]) -> DifficultyTable:
    """A difficulty table over `c`'s queries, NaN where `difficulty` has
    no value."""
    return DifficultyTable(Factor.AGE, c.queries, np.array(
        [difficulty.get(q, np.nan) for q in c.queries]))


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


class TestPriorVariance:
    def test_rejects_nonpositive_variance(self):
        for variance in (0.0, -1.0):
            with pytest.raises(ConfigError,
                               match="prior variance must be positive"):
                fit_multilevel(two_age_observations(),
                               prior_variance=variance)

    def test_variance_sets_every_block(self):
        fit = fit_multilevel(two_age_observations(), prior_variance=1e6)
        assert fit.effects.variances == {"age": 1e6, "gender": 1e6,
                                         "topic": 1e6, "interaction": 1e6}


class TestBuildObservations:
    def test_rows_indices_and_skips(self):
        imps = [
            satisfied(query="known q", topic="news", age=AgeGroup.G3,
                      gender=Gender.FEMALE),
            dissatisfied(query="known q", topic="news", age=AgeGroup.G1,
                         gender=Gender.MALE),
            satisfied(query="unknown q", topic="sports"),
        ]
        c = corpus(imps)
        obs = build_observations(c, table_for(c, {"known q": 0.3}),
                                 MetricKind.GRADED_UTILITY)
        assert len(obs) == 2 and obs.skipped == 1
        assert obs.y.tolist() == [1.0, -1.0 / 3.0]
        assert obs.x.tolist() == [0.3, 0.3]
        assert obs.age_idx.tolist() == [2, 0]
        assert obs.gender_idx.tolist() == [1, 0]
        assert obs.topic_idx.tolist() == [0, 0]
        assert obs.topics == ["news"]

    def test_topic_indices_follow_text_order(self):
        imps = [satisfied(query="qa", topic="b"), satisfied(query="qa", topic="a"),
                satisfied(query="qa", topic="b")]
        c = corpus(imps)
        obs = build_observations(c, table_for(c, {"qa": 0.5}),
                                 MetricKind.REFORMULATION)
        assert obs.topics == ["a", "b"]
        assert obs.topic_idx.tolist() == [1, 0, 1]

    def test_topics_of_kept_rows_follow_text_order(self):
        # the first impression's topic "z" belongs only to a query without
        # a difficulty value, so it must not take a topic index; among the
        # kept rows "sports" comes first, yet "news" takes index 0
        imps = [satisfied(query="unrated", topic="z"),
                satisfied(query="unrated news", topic="news"),
                satisfied(query="q3", topic="sports", age=AgeGroup.G4),
                dissatisfied(query="unrated", topic="z"),
                satisfied(query="q2", topic="news"),
                dissatisfied(query="q2", topic="news", gender=Gender.FEMALE)]
        c = corpus(imps)
        obs = build_observations(c, table_for(c, {"q2": 0.25, "q3": 0.75}),
                                 MetricKind.GRADED_UTILITY)
        assert obs.skipped == 3
        assert obs.topics == ["news", "sports"]
        assert obs.topic_idx.tolist() == [1, 0, 0]
        assert obs.x.tolist() == [0.75, 0.25, 0.25]
        assert obs.y.tolist() == [1.0, 1.0, -1.0 / 3.0]
        assert obs.age_idx.tolist() == [3, 0, 0]
        assert obs.gender_idx.tolist() == [0, 0, 1]

    def test_table_over_other_queries_is_a_data_error(self):
        a = corpus([satisfied(query="qa"), satisfied(query="qb")])
        b = corpus([satisfied(query="qa"), satisfied(query="qc")])
        with pytest.raises(DataError, match="another query list"):
            build_observations(b, table_for(a, {"qa": 0.5}),
                               MetricKind.GRADED_UTILITY)


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
                             prior_variance=1e8)
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
                             prior_variance=1e8)
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
            single_cell(MetricKind.PAGE_CLICK_COUNT, y, x), prior_variance=1e8)
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


def three_topic_observations(metric: MetricKind, seed: int = 11
                             ) -> ObservationSet:
    """Every age, gender and topic, but no (G4, F, "c") row, so that
    cell has no interaction effect."""
    rng = np.random.default_rng(seed)
    n = 2000
    age = rng.integers(0, 4, n)
    gender = rng.integers(0, 2, n)
    topic = rng.integers(0, 3, n)
    topic[(age == 3) & (gender == 1) & (topic == 2)] = 0
    x = rng.uniform(size=n)
    eta = 0.2 * age - 0.3 * gender + 0.1 * topic - 0.8 * x
    if metric is MetricKind.GRADED_UTILITY:
        y = eta + rng.normal(scale=0.2, size=n)
    elif metric is MetricKind.REFORMULATION:
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        y = rng.poisson(np.exp(eta)).astype(float)
    return ObservationSet(metric=metric, y=y, x=x, age_idx=age,
                          gender_idx=gender, topic_idx=topic,
                          topics=["a", "b", "c"])


class TestComposedPredictions:
    def test_predict_is_linkinv_of_composed_line(self):
        fit = fit_multilevel(two_age_observations())
        alpha, beta, _ = cell_coefficients(fit, AgeGroup.G4, Gender.MALE, "t")
        assert predict(fit, AgeGroup.G4, Gender.MALE, "t", 0.4) == \
            pytest.approx(alpha + 0.4 * beta)

    def test_prediction_grid_shape_and_consistency(self):
        fit = fit_multilevel(two_age_observations())
        curves = cell_curves(fit)
        assert curves.shape == (len(fit.topics), 4, 2, len(PREDICTION_GRID))
        for a, age in enumerate(AgeGroup):
            for d, x in enumerate(PREDICTION_GRID[::7]):
                assert curves[0, a, 0, 7 * d] == predict(
                    fit, age, Gender.MALE, "t", x)

    @pytest.mark.parametrize("metric", [
        MetricKind.GRADED_UTILITY, MetricKind.REFORMULATION,
        MetricKind.PAGE_CLICK_COUNT])
    def test_cell_curves_equal_the_scalar_oracle_exactly(self, metric):
        fit = fit_multilevel(three_topic_observations(metric))
        assert fit.family is family_for_metric(metric)
        # (topic, age, gender) of the one cell without observations
        assert np.isnan(fit.effects.interaction).any(axis=-1).nonzero() == \
            ([fit.topics.index("c")], [3], [1])
        curves = cell_curves(fit)
        want = [[[[predict(fit, age, gender, topic, x)
                   for x in PREDICTION_GRID]
                  for gender in Gender]
                 for age in AgeGroup]
                for topic in fit.topics]
        assert curves.tolist() == want

    def test_max_group_gap_matches_manual_scan(self):
        fit = fit_multilevel(two_age_observations(gap=0.8))
        got = max_group_gap(fit)
        assert got == manual_group_gap(fit)
        assert got > 0.4   # the injected age gap survives shrinkage

    def test_max_group_gap_scans_every_topic(self):
        fit = fit_multilevel(
            three_topic_observations(MetricKind.PAGE_CLICK_COUNT))
        assert max_group_gap(fit) == manual_group_gap(fit)


def manual_group_gap(fit) -> float:
    """The largest spread across the eight cells, one oracle call at a
    time."""
    manual = 0.0
    for topic in fit.topics:
        for d in PREDICTION_GRID:
            vals = [predict(fit, a, g, topic, d)
                    for a in AgeGroup for g in Gender]
            manual = max(manual, max(vals) - min(vals))
    return manual


def test_empirical_bayes_reestimates_block_variances():
    obs = two_age_observations(gap=1.5)
    fit = fit_multilevel(obs, empirical_bayes=True)
    assert fit.convergence.converged
    assert set(fit.effects.variances) == {"age", "gender", "topic",
                                          "interaction"}
    assert fit.effects.variances["age"] != 1.0


def test_effects_serialization_keys():
    fit = fit_multilevel(two_age_observations())
    d = fit.effects.to_dict(fit.topics)
    assert set(d) == {"mu0", "mu1", "age", "gender", "topic", "interaction",
                      "variances"}
    assert set(d["age"]) == {"G1", "G2", "G3", "G4"}
    assert set(d["gender"]) == {"M", "F"}
    assert set(d["topic"]) == {"t"}
    assert all(len(v) == 2 for v in d["age"].values())


def test_cells_are_the_observed_triples_in_lexicographic_order():
    # cell numbering fixes the design's column order, so it must stay
    # the sorted (age, gender, topic) order for fits to repeat exactly;
    # the fitted cells, read in that order, are the sorted observed triples
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
    seen = ~np.isnan(fit.effects.interaction[..., 0])
    assert list(zip(*seen.transpose(1, 2, 0).nonzero())) == want


def test_design_maps_equal_the_per_cell_loop():
    # each cell's row has a 1 in the global column and in its age, gender,
    # topic and own interaction columns: intercepts in the intercept map,
    # slopes one column on in the slope map
    rng = np.random.default_rng(8)
    n_topics = 5
    variances = {"age": 2.0, "gender": 0.5, "topic": 4.0, "interaction": 0.25}
    cells = np.array(sorted(set(zip(rng.integers(0, 4, 60).tolist(),
                                    rng.integers(0, 2, 60).tolist(),
                                    rng.integers(0, n_topics, 60).tolist()))))
    design, blocks = _build_design(tuple(cells.T), n_topics, variances)
    sizes = {"age": 4, "gender": 2, "topic": n_topics,
             "interaction": len(cells)}
    p = 2 + 2 * sum(sizes.values())
    ma, mb, penalty = np.zeros((len(cells), p)), np.zeros((len(cells), p)), \
        np.zeros(p)
    ma[:, 0] = mb[:, 1] = 1.0
    pos = 2
    for name, size in sizes.items():
        assert blocks[name] == slice(pos, pos + 2 * size)
        penalty[pos:pos + 2 * size] = 1.0 / variances[name]
        pos += 2 * size
    for c, (a, g, t) in enumerate(cells.tolist()):
        for name, idx in (("age", a), ("gender", g), ("topic", t),
                          ("interaction", c)):
            ma[c, blocks[name].start + 2 * idx] = 1.0
            mb[c, blocks[name].start + 2 * idx + 1] = 1.0
    assert design.intercept_map.tolist() == ma.tolist()
    assert design.slope_map.tolist() == mb.tolist()
    assert design.penalty.tolist() == penalty.tolist()
