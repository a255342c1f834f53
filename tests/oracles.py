"""Reference computations the tests check the library against: direct
O(T^2) sums and second implementations of what the library computes in its
own kernels.  Each holds only its arithmetic; none checks its input."""

import numpy as np

from orthosample.spectral import WeightFunction, grid_frequencies, weighted_average_run
from orthosample.variance import variance_block


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
