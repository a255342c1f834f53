"""The AR(p) spectral model, its Whittle fit with sigma^2 profiled out, and
the orthogonal-sample covariance of its Whittle score.  ``ARModel`` is the
one model type: its order p fixes everything else about it."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .spectral import (DegenerateDataError, DftGrid, InvalidInputError, _ar_density,
                       _check_shift, _density_values, _integer, ar_spectral_density,
                       ar_transfer, grid_constant, grid_frequencies, shift_runs)
from .variance import CovMatrixEstimate, _covariance_block

__all__ = ["ARModel", "WhittleFit", "ar_model", "whittle_fit", "whittle_score_variance"]


@dataclass(frozen=True)
class ARModel:
    """The AR(p) density f(omega; theta) = sigma^2 / (2 pi) *
    |1 - sum_m phi_m e^{i m omega}|^{-2} of theta = (phi_1..phi_p, sigma).

    The order ``p`` is the model's one value; its parameter count, box, name,
    density and gradient follow from it.  phi_m lies in the box
    |phi_m| <= 0.95 * C(p, m); sigma > 0 is unbounded.  A theta of any other
    length than p + 1 is an InvalidInputError naming the model.
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

    def _theta(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.p + 1,):
            raise InvalidInputError(f"{self.name} takes theta of {self.p + 1} coordinates "
                                    f"(phi_1..phi_p, sigma), not shape {th.shape}")
        return th

    def density(self, omega, theta) -> np.ndarray:
        th = self._theta(theta)
        return ar_spectral_density(omega, th[:self.p], th[self.p])

    def gradient(self, omega, theta) -> np.ndarray:
        """The theta-gradient of the density, as a (p + 1, len(omega)) array."""
        th = self._theta(theta)
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


@grid_constant
def _whittle_rows(T: int, p: int) -> np.ndarray:
    """The rows a size-T AR(p) Whittle fit reads, as one read-only (2p + 1, T)
    complex grid constant: e^{i m omega_k} for m = 1..p, then cos(j omega_k)
    for j = 0..p (imaginary part zero)."""
    omega = grid_frequencies(T)
    lags = np.arange(1, p + 1)
    E = np.exp(1j * lags[:, None] * omega)
    return np.concatenate([E, [np.cos(j * omega) for j in range(p + 1)]])


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
    section 10.8).  The fit is invariant to the data's scale; a periodogram
    whose mean lies outside [2^-400, 2^400] is rescaled by an exact power of
    four before the steps, so Q^2 in the Hessian stays finite, and sigma is
    scaled back by the power of two.  A mean that overflows a float, or that
    underflows below the normal floats (2^-1022), where the periodogram has
    lost its precision, is a DegenerateDataError naming the scale; a zero
    periodogram of constant data is an InvalidInputError.

    Every trial builds A from the rows E_m = e^{i m omega_k}, in the order
    of :func:`ar_transfer`, so no trial evaluates an exponential; those rows
    and cos(j omega_k) are a grid constant per (T, p).  The fitted density
    f = sigma^2 / (2 pi) / |A(phi_hat)|^2 is formed once at the optimum, with
    :meth:`ARModel.density_on_grid`'s check, and returned as ``density``, bit
    for bit that method's values; ``objective_at_min`` is the Whittle
    objective computed from it.
    """
    if not isinstance(model, ARModel):
        raise TypeError(f"whittle_fit fits an ARModel, not {type(model).__name__}")
    p, T = model.p, grid.T
    rows = _whittle_rows(T, p)
    E = rows[:p]  # e^{i m omega_k}, m = 1..p
    with np.errstate(over="ignore", invalid="ignore"):  # _scale_shift refuses an overflow
        pgram = np.abs(grid.coeffs) ** 2
        # each mean is a sum over T: np.mean's pairwise sum and division, bit for bit
        acov = np.array([np.add.reduce(pgram * c) / T for c in rows[p:].real])
    # Q scales with 4^-shift; the objective and phi do not
    shift = 0 if 2.0**-400 <= acov[0] <= 2.0**400 else _scale_shift(acov[0], grid)
    scaled, acov = np.ldexp(pgram, -2 * shift), np.ldexp(acov, -2 * shift)
    lags = np.arange(1, p + 1)
    hess_q = 2 * acov[np.abs(lags[:, None] - lags[None, :])]
    lo, hi = np.array(model.bounds[:p]).T

    def profiled(phi):
        A = 1 - phi[0] * E[0]
        for c, e in zip(phi[1:], E[1:]):
            A = A - c * e
        sq = np.abs(A) ** 2
        q = np.add.reduce(scaled * sq) / T
        return np.log(q) - np.add.reduce(np.log(sq)) / T, A, q

    def newton_step(A, q):
        grad_q = -2 * (np.add.reduce(scaled * np.real(np.conj(A) * E), axis=1) / T)
        grad_h = -2 * (np.add.reduce(np.real(E / A), axis=1) / T)
        hess_h = -2 * (np.add.reduce(np.real(E[:, None] * E[None, :] / A**2), axis=2) / T)
        grad = grad_q / q - grad_h
        hess = hess_q / q - grad_q[:, None] * grad_q[None, :] / q**2 - hess_h
        return -np.linalg.solve(hess, grad)

    phi = np.minimum(np.maximum(np.linalg.solve(hess_q, 2 * acov[1:]), lo), hi)
    value, A, q = profiled(phi)
    iterations = 0
    for _ in range(50):
        step = newton_step(A, q)
        for _ in range(30):
            trial = np.minimum(np.maximum(phi + step, lo), hi)
            trial_value, trial_A, trial_q = profiled(trial)
            if trial_value <= value:
                break
            step = step / 2
        else:
            break
        moved = np.abs(trial - phi).max()
        phi, value, A, q = trial, trial_value, trial_A, trial_q
        iterations += 1
        if moved < tol:
            break

    theta = np.append(phi, np.ldexp(np.sqrt(2 * np.pi * q), shift))
    f = _density_values(_ar_density(A, theta[-1]), f"{model.name} spectral density", theta)
    on_boundary = bool((np.minimum(phi - lo, hi - phi) < 10 * tol).any())
    return WhittleFit(theta_hat=theta,
                      objective_at_min=float(np.add.reduce(pgram / f + np.log(f)) / T),
                      iterations=iterations, on_boundary=on_boundary, density=f)


def _scale_shift(c0: float, grid: DftGrid) -> int:
    """The power of two whose square brings the periodogram mean ``c0``, out
    of [2^-400, 2^400], near 1.  A mean that is not a finite normal float is
    refused, naming the cause."""
    if 2.0**-1022 <= c0 < np.inf:
        return np.frexp(c0)[1] // 2
    if not c0 < np.inf:  # inf, or NaN from inf - inf
        raise DegenerateDataError("periodogram overflows a float: the data's scale is "
                                  "too large for a Whittle fit")
    if c0 > 0 or grid.coeffs.any():
        raise DegenerateDataError("periodogram underflows a float: the data's scale is "
                                  "too small for a Whittle fit")
    raise InvalidInputError("periodogram is zero on the whole grid; nothing to fit")


def whittle_score_variance(grid: DftGrid, model: ARModel, theta_hat,
                           M: int) -> CovMatrixEstimate:
    """Orthogonal-sample covariance Sigma-hat_M of the Whittle score at the
    fitted parameter.

    The density and its gradient are evaluated once on the grid; coordinate c
    of the score has the weight d/d theta_c [f^{-1}] = -grad_c f / f^2, and
    the p + 1 weights go through one :func:`shift_runs` pass.  Any other
    ``model`` than an :class:`ARModel` is a TypeError naming its type.
    """
    if not isinstance(model, ARModel):
        raise TypeError(f"whittle_score_variance takes an ARModel, not {type(model).__name__}")
    T = grid.T
    M = _check_shift(T, M, "M", 1)
    th = np.asarray(theta_hat, dtype=float)
    f = model.density_on_grid(T, th)
    weights = (-model.gradient(grid_frequencies(T), th) / f**2).astype(complex)
    if not np.all(np.isfinite(weights)):
        raise InvalidInputError(f"weight 'score[{model.name}]' is non-finite on the "
                                f"size-{T} grid")
    shifted = shift_runs(grid.coeffs[None], weights, M)[0, :, 1:]
    return CovMatrixEstimate(matrix=_covariance_block(shifted, T), M=M, T=T)
