"""Penalized GLM core shared by the multilevel and pair models.

Both models are generalized linear models whose rows fall into a modest
number of cells (covariate patterns): every observation in a cell shares
the same indicator features, only the continuous regressor and response
vary.  The fitter exploits that: per-iteration work is a handful of
O(n) reductions into per-cell sufficient statistics, and the Newton
system is assembled in cell space, so the full design matrix is never
materialized.

The objective is the negative log likelihood plus a diagonal Gaussian
log prior (a ridge penalty with per-coefficient precision; precision 0
leaves a coefficient unpenalized).  Newton steps with step halving keep
the objective non-increasing; convergence is declared when the relative
objective change drops below OBJECTIVE_RTOL or the gradient max-norm
below GRADIENT_TOL, within MAX_ITERATIONS Newton steps of at most
MAX_STEP_HALVINGS halvings each.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

_TINY = np.nextafter(0.0, 1.0)
_ONE_MINUS = np.nextafter(1.0, 0.0)
_MU_CAP = 1e300

MAX_ITERATIONS = 500
OBJECTIVE_RTOL = 1e-8
GRADIENT_TOL = 1e-6
MAX_STEP_HALVINGS = 40


def sigmoid(eta: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Family(enum.Enum):
    """Response family with its canonical link."""

    GAUSSIAN_IDENTITY = "gaussian_identity"
    BINOMIAL_LOGIT = "binomial_logit"
    POISSON_LOG = "poisson_log"

    def linkinv(self, eta: np.ndarray) -> np.ndarray:
        """Mean response for a linear predictor; range-safe.

        The logistic mean is clipped into the open interval (0, 1) and
        the Poisson mean to positive finite values, so saturation at the
        floating-point boundary never yields a degenerate mean.
        """
        eta = np.asarray(eta, dtype=float)
        if self is Family.GAUSSIAN_IDENTITY:
            return eta
        if self is Family.BINOMIAL_LOGIT:
            return np.clip(sigmoid(eta), _TINY, _ONE_MINUS)
        with np.errstate(over="ignore"):
            return np.clip(np.exp(eta), _TINY, _MU_CAP)

    def link(self, mu: float) -> float:
        if self is Family.GAUSSIAN_IDENTITY:
            return float(mu)
        if self is Family.BINOMIAL_LOGIT:
            p = min(max(mu, 1e-12), 1 - 1e-12)
            return float(np.log(p / (1 - p)))
        return float(np.log(max(mu, 1e-12)))


@dataclass
class CellDesign:
    """Cell-space design for a two-part (intercept, slope) linear predictor.

    Row c of `intercept_map` / `slope_map` lists which coefficients add
    into cell c's intercept / slope.  For observation i in cell c the
    linear predictor is ``intercept[c] + slope[c] * x[i]``.  Models with
    no continuous part use an all-zero slope map.
    """

    intercept_map: np.ndarray          # (C, P) 0/1
    slope_map: np.ndarray              # (C, P) 0/1
    penalty: np.ndarray                # (P,) prior precision, 0 = flat

    def __post_init__(self):
        self.intercept_map = np.asarray(self.intercept_map, dtype=float)
        self.slope_map = np.asarray(self.slope_map, dtype=float)
        self.penalty = np.asarray(self.penalty, dtype=float)
        if self.intercept_map.shape != self.slope_map.shape:
            raise ValueError("intercept and slope maps must share a shape")
        if self.penalty.shape != (self.intercept_map.shape[1],):
            raise ValueError("penalty length must match coefficient count")


@dataclass
class Convergence:
    """A fit's convergence; a fit that does not converge raises instead."""

    iterations: int
    objective: float
    gradient_norm: float


@dataclass
class GlmSolution:
    theta: np.ndarray
    convergence: Convergence
    dispersion: float | None = None    # gaussian only


def _nll(family: Family, y: np.ndarray, trials: np.ndarray, eta: np.ndarray,
         phi: float | None) -> float:
    if family is Family.GAUSSIAN_IDENTITY:
        n_eff = trials.sum()
        rss = float(trials @ (y - eta) ** 2)
        return 0.5 * rss / phi + 0.5 * n_eff * np.log(phi)
    if family is Family.BINOMIAL_LOGIT:
        return float(np.sum(trials * np.logaddexp(0.0, eta) - y * eta))
    with np.errstate(over="ignore"):
        mu = trials * np.exp(eta)
    return float(np.sum(mu - y * eta))


def fit_penalized_glm(y: np.ndarray, x: np.ndarray, cell: np.ndarray,
                      design: CellDesign, family: Family, *,
                      trials: np.ndarray | None = None,
                      theta0: np.ndarray | None = None) -> GlmSolution:
    """MAP fit of a penalized GLM over a cell-structured design.

    Parameters
    ----------
    y : per row of `trials` observations of one regressor and cell, their
        response sum (binomial, Poisson) or shared response (Gaussian).
    x : continuous regressor per row (zeros for slope-free models).
    cell : integer cell index per row, row into the design maps.
    design : cell-space design with the penalty (prior precision) vector.
    family : response family with canonical link.
    trials : optional positive observations per row, defaults to ones; a
        row of t trials fits like t rows of one, in every family.
    theta0 : optional starting coefficients.

    Raises ConvergenceError when the iteration budget is exhausted.
    For the Gaussian family the dispersion is profiled out by coordinate
    descent: exact solve in theta, then the closed-form variance update.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    cell = np.asarray(cell, dtype=np.intp)
    n = y.shape[0]
    n_cells, p = design.intercept_map.shape
    trials = np.ones(n) if trials is None else np.asarray(trials, dtype=float)
    if n == 0:
        raise ValueError("cannot fit on zero observations")
    if np.any(trials <= 0):
        raise ValueError("trials must be positive")

    ma, mb = design.intercept_map, design.slope_map
    lam = design.penalty
    theta = np.zeros(p) if theta0 is None else np.array(theta0, dtype=float)

    gaussian = family is Family.GAUSSIAN_IDENTITY
    phi = None
    if gaussian:
        ybar = float(trials @ y) / trials.sum()
        phi = max(float(trials @ (y - ybar) ** 2) / trials.sum(), 1e-12)

    def eta_of(th: np.ndarray) -> np.ndarray:
        alpha = ma @ th
        beta = mb @ th
        return alpha[cell] + beta[cell] * x

    def objective(th: np.ndarray, eta: np.ndarray, ph: float | None) -> float:
        return _nll(family, y, trials, eta, ph) + 0.5 * float(lam @ (th * th))

    eta = eta_of(theta)
    obj = objective(theta, eta, phi)
    grad_norm = np.inf
    converged = False
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        mu_unit = family.linkinv(eta)
        if gaussian:
            resid = trials * (y - eta) / phi
            w = trials / phi
        elif family is Family.BINOMIAL_LOGIT:
            resid = y - trials * mu_unit
            w = trials * mu_unit * (1.0 - mu_unit)
        else:
            resid = y - trials * mu_unit
            w = trials * mu_unit

        g0 = np.bincount(cell, weights=resid, minlength=n_cells)
        g1 = np.bincount(cell, weights=resid * x, minlength=n_cells)
        grad = -(ma.T @ g0 + mb.T @ g1) + lam * theta
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= GRADIENT_TOL:
            converged = True
            break

        s0 = np.bincount(cell, weights=w, minlength=n_cells)
        s1 = np.bincount(cell, weights=w * x, minlength=n_cells)
        s2 = np.bincount(cell, weights=w * x * x, minlength=n_cells)
        hess = (ma.T @ (s0[:, None] * ma) + ma.T @ (s1[:, None] * mb)
                + mb.T @ (s1[:, None] * ma) + mb.T @ (s2[:, None] * mb))
        hess[np.diag_indices_from(hess)] += lam
        try:
            direction = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(hess, -grad, rcond=None)[0]

        # step halving keeps the penalized objective non-increasing
        step = 1.0
        accepted = False
        plateau = 1e-13 * (1.0 + abs(obj))
        for _ in range(MAX_STEP_HALVINGS):
            cand = theta + step * direction
            cand_eta = eta_of(cand)
            cand_obj = objective(cand, cand_eta, phi)
            if np.isfinite(cand_obj) and cand_obj <= obj + plateau:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        theta, eta = cand, cand_eta
        new_obj = cand_obj

        if gaussian:
            phi = max(float(trials @ (y - eta) ** 2) / trials.sum(), 1e-12)
            new_obj = objective(theta, eta, phi)

        if abs(obj - new_obj) <= OBJECTIVE_RTOL * (abs(obj) + 1.0):
            obj = new_obj
            converged = True
            break
        obj = new_obj

    if not converged:
        raise ConvergenceError(
            f"penalized {family.value} fit did not converge",
            iterations=iterations, objective=obj, gradient_norm=grad_norm)

    return GlmSolution(
        theta=theta,
        convergence=Convergence(iterations=iterations, objective=float(obj),
                                gradient_norm=grad_norm),
        dispersion=phi)
