"""Reference computations the tests check the library against: direct
O(T^2) sums and second implementations of what the library computes in its
own kernels.  Each holds only its arithmetic; none checks its input."""

import numpy as np

from orthosample.spectral import (WeightFunction, grid_frequencies, orthogonal_sample,
                                  weighted_average_run)
from orthosample.variance import covariance_matrix_estimate, variance_block


def quadratic_form_oracle(series, phi: WeightFunction, r: int) -> complex:
    """O(T^2) direct evaluation of the quadratic form representation of A(phi; r).

    A(phi; r) = (1/(2 pi T)) sum_{t,tau} Phi(t - tau) x_t x_tau e^{-i tau omega_r}
    with Phi(u) = (1/T) sum_k phi(omega_k) e^{i u omega_k}; the 1/(2 pi) carries
    the normalisation of the squared transform, and x is demeaned.
    """
    x = np.asarray(series, dtype=float)
    T = x.size
    x = x - x.mean()
    omega = grid_frequencies(T)
    w = phi.on_grid(T)
    u = np.arange(-(T - 1), T)  # all possible t - tau
    Phi = (w[None, :] * np.exp(1j * np.outer(u, omega))).sum(axis=1) / T
    t = np.arange(1, T + 1)
    mod = np.exp(-1j * t * omega[r - 1]) if r > 0 else np.ones(T)
    total = 0.0 + 0.0j
    for ti in range(T):
        total += x[ti] * np.sum(Phi[ti - np.arange(T) + (T - 1)] * x * mod)
    return complex(total / (2.0 * np.pi * T))


def circular_autocov(series, lag: int) -> float:
    """Circular sample autocovariance at ``lag`` under the spectral scaling.

    Returns (c~(j) + c~(T-j)) / (2 pi) with c~(j) = (1/T) sum_{t=1..T-j}
    x_t x_{t+j} on the demeaned series, computed by direct time-domain sums.
    Exactly equals the real part of A(e^{ij.}; 0) on the demeaned grid.
    """
    x = np.asarray(series, dtype=float)
    T = x.size
    x = x - x.mean()

    def ctilde(m: int) -> float:
        if m >= T:
            return 0.0
        return float(np.dot(x[: T - m], x[m:]) / T)

    return (ctilde(lag) + ctilde(T - lag)) / (2.0 * np.pi)


def constant_weight(c: complex = 1.0) -> WeightFunction:
    """phi(omega) = c."""
    return WeightFunction(lambda w: np.full_like(w, c, dtype=complex))


def kernel_weight(window, bandwidth: float, center: float) -> WeightFunction:
    """phi(omega) = W((omega - center)/b) / b, with omega - center wrapped
    into (-pi, pi]."""
    def ev(w):
        d = np.mod(w - center + np.pi, 2.0 * np.pi) - np.pi
        return window(d / bandwidth).astype(complex) / bandwidth
    return WeightFunction(ev)


def model_reciprocal_weight(j: int, density) -> WeightFunction:
    """phi(omega) = exp(i*j*omega) / g(omega), the goodness-of-fit weight."""
    return WeightFunction(lambda w: np.exp(1j * j * w) / np.asarray(density(w), dtype=float))


def variance_estimate_at(grid, phi: WeightFunction, r0: int, M: int) -> float:
    """V-hat_M(omega_{r0}) = (T/M) * sum_{s=r0+1..r0+M} |A(phi; s)|^2."""
    return float(variance_block(weighted_average_run(grid, phi, r0 + M)[r0 + 1:], grid.T))


def whittle_objective(grid, model, theta) -> float:
    """(1/T) sum_{k=1..T} (|J_k|^2 / f(omega_k; theta) + log f(omega_k; theta)),
    the Whittle objective a fit's ``objective_at_min`` is checked against."""
    f = model.density_on_grid(grid.T, theta)
    periodogram = np.abs(grid.coeffs) ** 2
    return float(np.mean(periodogram / f + np.log(f)))


def whittle_fit_reference(grid, model, tol: float = 1e-6) -> tuple:
    """(theta_hat, density, objective_at_min, iterations) of the profiled
    Whittle fit of ``whittle.whittle_fit``, in a second copy of its arithmetic
    written with np.mean, np.ones, np.clip and np.outer: its rows built fresh,
    its means by np.mean, its Newton steps and halvings in the same order,
    and the same power-of-four rescale outside [2^-400, 2^400]."""
    p, T = model.p, grid.T
    omega = grid_frequencies(T)
    lags = np.arange(1, p + 1)
    E = np.exp(1j * lags[:, None] * omega)
    pgram = np.abs(grid.coeffs) ** 2
    acov = np.array([np.mean(pgram * np.cos(j * omega)) for j in range(p + 1)])
    shift = 0 if 2.0**-400 <= acov[0] <= 2.0**400 else np.frexp(acov[0])[1] // 2
    scaled, acov = np.ldexp(pgram, -2 * shift), np.ldexp(acov, -2 * shift)
    hess_q = 2 * acov[np.abs(lags[:, None] - lags[None, :])]
    lo, hi = np.array(model.bounds[:p]).T

    def profiled(phi):
        A = np.ones(T, dtype=complex)
        for c, e in zip(phi, E):
            A = A - c * e
        sq = np.abs(A) ** 2
        q = np.mean(scaled * sq)
        return np.log(q) - np.mean(np.log(sq)), A, q

    def newton_step(A, q):
        grad_q = -2 * np.mean(scaled * np.real(np.conj(A) * E), axis=1)
        grad_h = -2 * np.mean(np.real(E / A), axis=1)
        hess_h = -2 * np.mean(np.real(E[:, None] * E[None, :] / A**2), axis=2)
        hess = hess_q / q - np.outer(grad_q, grad_q) / q**2 - hess_h
        return -np.linalg.solve(hess, grad_q / q - grad_h)

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
    theta = np.append(phi, np.ldexp(np.sqrt(2 * np.pi * q), shift))
    f = theta[-1] ** 2 / (2 * np.pi) / np.abs(A) ** 2
    return theta, f, float(np.mean(pgram / f + np.log(f))), iterations


def criterion_curves_reference(runs, T: int, members, p: int) -> np.ndarray:
    """The (R, |members|) criterion curves of ``selection._criteria`` for an
    (R, n) block of shift runs, in a second copy of its arithmetic: each
    variance window gathered by a fancy index from a sliding-window view of
    the cumsum, less the cumsum at r = 1..T/p gathered by a fancy index."""
    nr = T // p
    Ms = np.asarray(members)
    sq = np.abs(runs) ** 2
    csum = np.cumsum(sq, axis=-1)
    r = np.arange(1, nr + 1)
    windows = np.lib.stride_tricks.sliding_window_view(csum, nr, axis=-1)[:, Ms + 1]
    windows = (windows - csum[:, None, r]) * (T / Ms)[:, None]
    score = (T * sq[:, None, r] / windows - 1.0) ** 2
    return p / T * np.sum(score, axis=-1)


def kernel_spectral_estimate(grid, kernel, r: int = 0) -> np.ndarray:
    """The box-window estimate f_hat(omega_l; r) = sum_k w[(l - k) mod T]
    J_k conj(J_{k+r}) on the full grid, with the weights w of
    ``KernelSpec.weights``, by one circular convolution.  Index l - 1 holds
    omega_l."""
    u = grid.coeffs * np.conj(grid.shifted(r))
    return np.fft.ifft(np.fft.fft(u) * np.fft.fft(kernel.weights(grid.T)))


def l2_distance_stat(fx, fy, T: int, r: int = 0) -> tuple[float, float]:
    """The integrated squared distance of two estimates: for r = 0,
    (S, 0) with S = (2/T) sum_{j=1..T/2} |d_j|^2; for r > 0, the pair
    (2/T) sum_{j=1..T} (Re d_j)^2 and its imaginary analogue, d = fx - fy."""
    d = np.asarray(fx) - np.asarray(fy)
    if r == 0:
        return float(2.0 / T * np.sum(np.abs(d[:T // 2]) ** 2)), 0.0
    return float(2.0 / T * np.sum(d.real**2)), float(2.0 / T * np.sum(d.imag**2))


def score_covariance(grid, model, theta, M: int):
    """Sigma-hat_M of the Whittle score composed coordinate by coordinate: the
    covariance estimate of one orthogonal sample per score weight
    -grad_c f / f^2, each evaluated with its own density and gradient."""
    th = np.asarray(theta, dtype=float)

    def weight(c):
        return WeightFunction(
            lambda w: (-np.asarray(model.gradient(w, th))[c]
                       / np.asarray(model.density(w, th), dtype=float) ** 2).astype(complex))

    return covariance_matrix_estimate([orthogonal_sample(grid, weight(c), M)
                                       for c in range(model.param_dim)])
