"""The penalized cell-structured GLM fitter, checked against closed forms."""

from __future__ import annotations

import numpy as np
import pytest

from sataudit import glmfit
from sataudit.errors import ConvergenceError
from sataudit.glmfit import CellDesign, Family, fit_penalized_glm, sigmoid


def intercept_only(p: int = 1, penalty: float = 0.0) -> CellDesign:
    return CellDesign(intercept_map=np.eye(p), slope_map=np.zeros((p, p)),
                      penalty=np.full(p, penalty))


class TestSigmoidAndLinks:
    def test_sigmoid_midpoint_and_symmetry(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5
        eta = np.linspace(-8, 8, 33)
        np.testing.assert_allclose(sigmoid(eta) + sigmoid(-eta), 1.0,
                                   atol=1e-15)

    def test_binomial_mean_stays_inside_unit_interval(self):
        eta = np.array([-1000.0, -40.0, 0.0, 40.0, 1000.0])
        mu = Family.BINOMIAL_LOGIT.linkinv(eta)
        assert np.all(mu > 0.0) and np.all(mu < 1.0)
        assert np.all(np.diff(mu) >= 0)

    def test_poisson_mean_stays_positive_and_finite(self):
        eta = np.array([-1000.0, 0.0, 800.0])
        mu = Family.POISSON_LOG.linkinv(eta)
        assert np.all(mu > 0.0) and np.all(np.isfinite(mu))

    def test_gaussian_link_is_identity(self):
        eta = np.array([-3.0, 0.0, 7.5])
        np.testing.assert_array_equal(Family.GAUSSIAN_IDENTITY.linkinv(eta),
                                      eta)

    def test_link_inverts_linkinv(self):
        for fam in Family:
            for eta in (-2.0, -0.3, 0.0, 1.7):
                mu = fam.linkinv(np.array([eta]))[0]
                assert fam.link(mu) == pytest.approx(eta, abs=1e-9)


class TestCellDesignValidation:
    def test_map_shape_mismatch(self):
        with pytest.raises(ValueError, match="share a shape"):
            CellDesign(intercept_map=np.eye(2), slope_map=np.zeros((3, 2)),
                       penalty=np.zeros(2))

    def test_penalty_length_mismatch(self):
        with pytest.raises(ValueError, match="penalty length"):
            CellDesign(intercept_map=np.eye(2), slope_map=np.zeros((2, 2)),
                       penalty=np.zeros(3))


@pytest.fixture
def tight(monkeypatch):
    """Tolerances far below the defaults, for the closed-form oracles."""
    monkeypatch.setattr(glmfit, "GRADIENT_TOL", 1e-12)
    monkeypatch.setattr(glmfit, "OBJECTIVE_RTOL", 1e-15)


class TestClosedFormOracles:
    def test_flat_binomial_intercept_is_sample_logit(self, tight):
        sol = fit_penalized_glm(
            y=np.array([7.0]), x=np.zeros(1), cell=np.zeros(1, dtype=int),
            design=intercept_only(), family=Family.BINOMIAL_LOGIT,
            trials=np.array([10.0]))
        assert sol.theta[0] == pytest.approx(np.log(0.7 / 0.3), abs=1e-8)
        # a fit that returns has converged; one that does not raises
        assert sol.convergence.iterations >= 1

    def test_aggregated_binomial_matches_bernoulli_rows(self, tight):
        agg = fit_penalized_glm(
            y=np.array([7.0]), x=np.zeros(1), cell=np.zeros(1, dtype=int),
            design=intercept_only(), family=Family.BINOMIAL_LOGIT,
            trials=np.array([10.0]))
        y = np.array([1.0] * 7 + [0.0] * 3)
        rows = fit_penalized_glm(
            y=y, x=np.zeros(10), cell=np.zeros(10, dtype=int),
            design=intercept_only(), family=Family.BINOMIAL_LOGIT)
        assert rows.theta[0] == pytest.approx(agg.theta[0], abs=1e-9)

        # in every family a row of t trials fits like t rows of one: its
        # y is their sum (binomial, Poisson) or their shared value
        # (Gaussian), and the Gaussian dispersion counts each trial
        design = CellDesign(intercept_map=np.array([[1.0, 0.0]]),
                            slope_map=np.array([[0.0, 1.0]]),
                            penalty=np.zeros(2))
        x = np.array([0.1, 0.1, 0.4, 0.7, 0.9])
        t = np.array([3, 4, 2, 5, 1])
        for family, value in (
                (Family.BINOMIAL_LOGIT, [1.0, 0.0, 1.0, 0.0, 1.0]),
                (Family.POISSON_LOG, [2.0, 0.0, 1.0, 3.0, 4.0]),
                (Family.GAUSSIAN_IDENTITY, [0.5, -0.2, 0.1, -0.6, 0.3])):
            value = np.array(value)
            y = value if family is Family.GAUSSIAN_IDENTITY else t * value
            agg = fit_penalized_glm(y=y, x=x, cell=np.zeros(5, dtype=int),
                                    design=design, family=family, trials=t)
            rows = fit_penalized_glm(
                y=np.repeat(value, t), x=np.repeat(x, t),
                cell=np.zeros(t.sum(), dtype=int), design=design,
                family=family)
            np.testing.assert_allclose(agg.theta, rows.theta, rtol=0,
                                       atol=1e-9, err_msg=family.value)
            if family is Family.GAUSSIAN_IDENTITY:
                assert agg.dispersion == pytest.approx(rows.dispersion,
                                                       rel=1e-12)
            else:
                assert agg.dispersion is rows.dispersion is None

    def test_flat_poisson_intercept_is_log_rate(self, tight):
        sol = fit_penalized_glm(
            y=np.array([3.0, 5.0, 2.0]), x=np.zeros(3),
            cell=np.zeros(3, dtype=int), design=intercept_only(),
            family=Family.POISSON_LOG, trials=np.array([1.0, 1.0, 2.0]))
        assert sol.theta[0] == pytest.approx(np.log(10.0 / 4.0), abs=1e-8)

    def test_gaussian_line_matches_ols_and_profiles_dispersion(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(size=200)
        y = 0.8 - 1.1 * x + rng.normal(scale=0.3, size=200)
        design = CellDesign(intercept_map=np.array([[1.0, 0.0]]),
                            slope_map=np.array([[0.0, 1.0]]),
                            penalty=np.zeros(2))
        sol = fit_penalized_glm(y=y, x=x, cell=np.zeros(200, dtype=int),
                                design=design,
                                family=Family.GAUSSIAN_IDENTITY)
        X = np.column_stack([np.ones(200), x])
        ols = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(sol.theta, ols, atol=1e-8)
        resid = y - X @ ols
        assert sol.dispersion == pytest.approx(float(resid @ resid) / 200,
                                               rel=1e-6)

    def test_shared_coefficient_map(self):
        # cell 0 mean is a0, cell 1 mean is a0 + a1
        design = CellDesign(intercept_map=np.array([[1.0, 0.0], [1.0, 1.0]]),
                            slope_map=np.zeros((2, 2)), penalty=np.zeros(2))
        y = np.array([2.0] * 5 + [5.0] * 5)
        cell = np.array([0] * 5 + [1] * 5)
        sol = fit_penalized_glm(y=y, x=np.zeros(10), cell=cell, design=design,
                                family=Family.GAUSSIAN_IDENTITY)
        np.testing.assert_allclose(sol.theta, [2.0, 3.0], atol=1e-8)


class TestPenaltyAndErrors:
    def test_ridge_penalty_shrinks_toward_zero(self):
        kw = dict(y=np.array([9.0]), x=np.zeros(1),
                  cell=np.zeros(1, dtype=int), family=Family.BINOMIAL_LOGIT,
                  trials=np.array([10.0]))
        free = fit_penalized_glm(design=intercept_only(penalty=0.0), **kw)
        tight = fit_penalized_glm(design=intercept_only(penalty=100.0), **kw)
        assert 0.0 < tight.theta[0] < free.theta[0]

    def test_zero_observations_rejected(self):
        with pytest.raises(ValueError, match="zero observations"):
            fit_penalized_glm(y=np.zeros(0), x=np.zeros(0),
                              cell=np.zeros(0, dtype=int),
                              design=intercept_only(),
                              family=Family.BINOMIAL_LOGIT)

    def test_nonpositive_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            fit_penalized_glm(y=np.array([1.0]), x=np.zeros(1),
                              cell=np.zeros(1, dtype=int),
                              design=intercept_only(),
                              family=Family.BINOMIAL_LOGIT,
                              trials=np.array([0.0]))

    def test_exhausted_iteration_budget_raises(self, monkeypatch):
        monkeypatch.setattr(glmfit, "MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError) as exc:
            fit_penalized_glm(
                y=np.array([7.0]), x=np.zeros(1), cell=np.zeros(1, dtype=int),
                design=intercept_only(), family=Family.BINOMIAL_LOGIT,
                trials=np.array([10.0]), theta0=np.array([12.0]))
        err = exc.value
        assert err.iterations == 1
        assert err.gradient_norm > 0
        assert "did not converge" in str(err)
