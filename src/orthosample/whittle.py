"""The AR(p) spectral model, its Whittle fit with sigma^2 profiled out, and
the orthogonal-sample covariance of its Whittle score.  ``ARModel`` is the
one model type: its order p fixes everything else about it."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .spectral import (DftGrid, InvalidInputError, OrthogonalSample, _ar_density, _check_shift,
                       _density_values, _integer, ar_spectral_density, ar_transfer,
                       grid_frequencies, shift_runs)
from .variance import CovMatrixEstimate, covariance_matrix_estimate

__all__ = ["ARModel", "WhittleFit", "ar_model", "whittle_fit", "whittle_score_variance"]


@dataclass(frozen=True)
class ARModel:
    """The AR(p) density f(omega; theta) = sigma^2 / (2 pi) *
    |1 - sum_m phi_m e^{i m omega}|^{-2} of theta = (phi_1..phi_p, sigma).

    The order ``p`` is the model's one value; its parameter count, box, name,
    density and gradient follow from it.  phi_m lies in the box
    |phi_m| <= 0.95 * C(p, m); sigma > 0 is unbounded.
    """

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", _integer(self.p, "AR order p"))
        if self.p < 1:
            raise ValueError("AR order must be >= 1")

    @property
    def param_dim(self) -> int:
        return self.p + 1

    @property
    def name(self) -> str:
        return f"ar{self.p}"

    @property
    def bounds(self) -> tuple:
        """One (lo, hi) pair per coordinate of theta."""
        p = self.p
        return tuple((-0.95 * comb(p, m), 0.95 * comb(p, m)) for m in range(1, p + 1)) + (
            (0.0, np.inf),)

    def density(self, omega, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        return ar_spectral_density(omega, th[:self.p], th[self.p])

    def gradient(self, omega, theta) -> np.ndarray:
        """The theta-gradient of the density, as a (p + 1, len(omega)) array."""
        th = np.asarray(theta, dtype=float)
        A = ar_transfer(omega, th[:self.p])
        f = _ar_density(A, th[self.p])
        rows = [2 * f * np.real(np.conj(A) * np.exp(1j * m * omega)) / np.abs(A) ** 2
                for m in range(1, self.p + 1)]
        return np.stack(rows + [2 * f / th[self.p]])

    def density_on_grid(self, T: int, theta) -> np.ndarray:
        """The density on the size-T grid, checked positive and finite."""
        return _density_values(self.density(grid_frequencies(T), theta),
                               f"{self.name} spectral density", theta)


def ar_model(p: int) -> ARModel:
    """The AR(p) model of theta = (phi_1..phi_p, sigma); ``p`` obeys the
    integer rule and must be >= 1."""
    return ARModel(p)


@dataclass(frozen=True)
class WhittleFit:
    """A Whittle fit; ``iterations`` counts the Newton steps taken and
    ``density`` holds the fitted density f(omega_k; theta_hat) on the grid."""

    theta_hat: np.ndarray
    objective_at_min: float
    iterations: int
    on_boundary: bool
    density: np.ndarray

    def __post_init__(self):
        self.theta_hat.setflags(write=False)
        self.density.setflags(write=False)


def whittle_fit(grid: DftGrid, model: ARModel, tol: float = 1e-6) -> WhittleFit:
    """Minimise the Whittle objective (1/T) sum_k (I_k / f_k + log f_k) of
    the AR(p) ``model`` over theta = (phi, sigma), phi on its box; any other
    object than an :class:`ARModel` is a TypeError naming its type.

    With I_k = |J_k|^2, A = A_phi(omega_k) and Q(phi) = mean(I |A|^2), the
    objective is 2 pi Q / sigma^2 + log sigma^2 - mean(log |A|^2) - log 2 pi.
    sigma is profiled out in closed form, sigma^2 = 2 pi Q(phi), leaving the
    one objective log Q - mean(log |A|^2) to minimise over phi.  Q is
    quadratic in phi, and its minimiser, the Yule-Walker solve on the circular
    periodogram autocovariances c_j = mean(I_k cos(j omega_k)), seeds Newton
    steps that are clipped into the box and halved until the objective does
    not rise.  Iteration stops once a step moves phi by less than ``tol``
    (Whittle 1953; Brockwell & Davis, Time Series: Theory and Methods,
    section 10.8).

    Every trial builds A from the rows E_m = e^{i m omega_k} formed once per
    fit, in the order of :func:`ar_transfer`, so no trial evaluates an
    exponential.  The fitted density f = sigma^2 / (2 pi) / |A(phi_hat)|^2 is
    formed once at the optimum, with :meth:`ARModel.density_on_grid`'s
    check, and returned as ``density``, bit for bit that method's values;
    ``objective_at_min`` is the Whittle objective computed from it.
    """
    if not isinstance(model, ARModel):
        raise TypeError(f"whittle_fit fits an ARModel, not {type(model).__name__}")
    p = model.p
    omega = grid.frequencies
    pgram = np.abs(grid.coeffs) ** 2
    lags = np.arange(1, p + 1)
    E = np.exp(1j * lags[:, None] * omega)  # e^{i m omega_k}, m = 1..p
    acov = np.array([np.mean(pgram * np.cos(j * omega)) for j in range(p + 1)])
    if not acov[0] > 0:
        raise InvalidInputError("periodogram is zero on the whole grid; nothing to fit")
    hess_q = 2 * acov[np.abs(lags[:, None] - lags[None, :])]
    lo, hi = np.array(model.bounds[:p]).T

    def profiled(phi):
        A = np.ones(omega.shape, dtype=complex)
        for c, e in zip(phi, E):
            A = A - c * e
        q = np.mean(pgram * np.abs(A) ** 2)
        h = np.mean(np.log(np.abs(A) ** 2))
        return np.log(q) - h, A, q

    def newton_step(A, q):
        grad_q = -2 * np.mean(pgram * np.real(np.conj(A) * E), axis=1)
        grad_h = -2 * np.mean(np.real(E / A), axis=1)
        hess_h = -2 * np.mean(np.real(E[:, None] * E[None, :] / A**2), axis=2)
        grad = grad_q / q - grad_h
        hess = hess_q / q - np.outer(grad_q, grad_q) / q**2 - hess_h
        return -np.linalg.solve(hess, grad)

    phi = np.clip(np.linalg.solve(hess_q, 2 * acov[1:]), lo, hi)
    value, A, q = profiled(phi)
    iterations = 0
    for _ in range(50):
        step = newton_step(A, q)
        for _ in range(30):
            trial = np.clip(phi + step, lo, hi)
            trial_value, trial_A, trial_q = profiled(trial)
            if trial_value <= value:
                break
            step = step / 2
        else:
            break
        moved = np.max(np.abs(trial - phi))
        phi, value, A, q = trial, trial_value, trial_A, trial_q
        iterations += 1
        if moved < tol:
            break

    theta = np.append(phi, np.sqrt(2 * np.pi * q))
    f = _density_values(_ar_density(A, theta[-1]), f"{model.name} spectral density", theta)
    on_boundary = bool(np.any(np.minimum(phi - lo, hi - phi) < 10 * tol))
    return WhittleFit(theta_hat=theta, objective_at_min=float(np.mean(pgram / f + np.log(f))),
                      iterations=iterations, on_boundary=on_boundary, density=f)


def whittle_score_variance(grid: DftGrid, model: ARModel, theta_hat,
                           M: int) -> CovMatrixEstimate:
    """Orthogonal-sample covariance Sigma-hat_M of the Whittle score at the
    fitted parameter.

    The density and its gradient are evaluated once on the grid; coordinate c
    of the score has the weight d/d theta_c [f^{-1}] = -grad_c f / f^2, and
    the p + 1 weights go through one :func:`shift_runs` pass.
    """
    T = grid.T
    M = _check_shift(T, M, "M", 1)
    th = np.asarray(theta_hat, dtype=float)
    f = model.density_on_grid(T, th)
    weights = (-model.gradient(grid_frequencies(T), th) / f**2).astype(complex)
    if not np.all(np.isfinite(weights)):
        raise InvalidInputError(f"weight 'score[{model.name}]' is non-finite on the "
                                f"size-{T} grid")
    runs = shift_runs(grid.coeffs[None], weights, M)[0]
    return covariance_matrix_estimate(
        [OrthogonalSample(base=complex(run[0]), shifted=run[1:], T=T) for run in runs])
