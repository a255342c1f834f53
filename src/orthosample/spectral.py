"""Frequency-grid DFT, weighted-average periodogram functionals and their
shifted ("orthogonal sample") versions.

Conventions used throughout the package:

* the frequency grid is ``omega_k = 2*pi*k/T`` for ``k = 1..T`` (not ``0..T-1``);
  internally a length-``T`` array stores the coefficient for grid point ``k`` at
  index ``k - 1``, so index ``T - 1`` holds the zero frequency ``omega_T = 2*pi``;
* the DFT is normalised by ``1/sqrt(2*pi*T)``;
* shifted indices ``k + r`` wrap modulo ``T`` back into ``1..T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "TimeSeries",
    "DftGrid",
    "WeightFunction",
    "OrthogonalSample",
    "as_series",
    "grid_frequencies",
    "ar_transfer",
    "ar_spectral_density",
    "dft",
    "weighted_average",
    "weighted_average_run",
    "orthogonal_sample",
    "quadratic_form_oracle",
    "circular_autocov",
    "lag_weight",
    "constant_weight",
    "kernel_weight",
    "model_reciprocal_weight",
]

DEFAULT_ORACLE_BOUND = 256


class InvalidInputError(ValueError):
    """Raised when an observation record is unusable (too short, non-finite)."""


class ShiftRangeError(ValueError):
    """Raised when a shift index r falls outside the allowed 0 <= r < T/2."""


TimeSeries = np.ndarray


def as_series(values) -> TimeSeries:
    """Validate and return a real observation record x_1..x_T.

    Requires a 1-D array with T >= 2 and all values finite.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise InvalidInputError(f"need a 1-D series, got an array of shape {x.shape}")
    if x.size < 2:
        raise InvalidInputError(f"need at least 2 observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("series contains non-finite values")
    return x


def grid_frequencies(T: int) -> np.ndarray:
    """Frequencies 2*pi*k/T for k = 1..T."""
    return 2.0 * np.pi * np.arange(1, T + 1) / T


def ar_transfer(omega, coeffs) -> np.ndarray:
    """A(omega) = 1 - sum_{m=1..p} phi_m e^{i m omega}, the AR(p) polynomial
    on the unit circle."""
    omega = np.asarray(omega, dtype=float)
    z = np.ones_like(omega, dtype=complex)
    for m, c in enumerate(np.asarray(coeffs, dtype=float), start=1):
        z = z - c * np.exp(1j * m * omega)
    return z


def ar_spectral_density(omega, coeffs, sigma: float) -> np.ndarray:
    """AR(p) spectral density sigma^2 / (2 pi) * |A(omega)|^{-2}."""
    return sigma**2 / (2 * np.pi) / np.abs(ar_transfer(omega, coeffs)) ** 2


@dataclass(frozen=True)
class DftGrid:
    """DFT coefficients J(omega_k) for k = 1..T, scaled by 1/sqrt(2*pi*T).

    ``coeffs[k - 1]`` is the coefficient at omega_k; ``demeaned`` records
    whether the sample mean was removed before transforming (in which case
    the zero-frequency coefficient, index T - 1, vanishes).
    """

    coeffs: np.ndarray
    demeaned: bool

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def T(self) -> int:
        return self.coeffs.shape[0]

    @property
    def frequencies(self) -> np.ndarray:
        return grid_frequencies(self.T)

    def shifted(self, r: int) -> np.ndarray:
        """Coefficients J(omega_{k+r}) for k = 1..T, indices wrapping mod T."""
        return np.roll(self.coeffs, -int(r))


def dft(series, demean: bool = True) -> DftGrid:
    """Transform x_1..x_T to (1/sqrt(2*pi*T)) * sum_t x_t exp(i*t*omega_k).

    Computed with an FFT of the exact length T (no padding), so it runs in
    O(T log T) for arbitrary T.
    """
    x = as_series(series)
    T = x.size
    if demean:
        x = x - x.mean()
    # sum_t x_t e^{i t omega_q} = e^{i omega_q} * T * ifft(x)[q], q = k mod T
    spec = T * np.fft.ifft(x)
    k = np.arange(1, T + 1)
    coeffs = np.exp(2j * np.pi * k / T) * spec[k % T]
    coeffs *= 1.0 / np.sqrt(2.0 * np.pi * T)
    return DftGrid(coeffs=coeffs, demeaned=demean)


@dataclass(frozen=True)
class WeightFunction:
    """An evaluable frequency weight omega -> phi(omega) on (0, 2*pi].

    ``evaluator`` must accept a numpy array of frequencies and return complex
    values; ``descriptor`` is a symbolic tag used in reports.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    descriptor: str = "custom"

    def __call__(self, omega):
        return np.asarray(self.evaluator(np.asarray(omega, dtype=float)))

    def on_grid(self, T: int) -> np.ndarray:
        vals = np.asarray(self(grid_frequencies(T)), dtype=complex)
        if vals.shape != (T,):
            vals = np.broadcast_to(vals, (T,)).astype(complex)
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError(
                f"weight {self.descriptor!r} is non-finite on the size-{T} grid"
            )
        return vals


def lag_weight(j: int) -> WeightFunction:
    """phi(omega) = exp(i*j*omega); picks out the lag-j autocovariance."""
    return WeightFunction(lambda w, j=j: np.exp(1j * j * w), descriptor=f"lag_exp[{j}]")


def constant_weight(c: complex = 1.0) -> WeightFunction:
    return WeightFunction(lambda w, c=c: np.full_like(w, c, dtype=complex),
                          descriptor=f"const[{c}]")


def _cyclic_distance(omega: np.ndarray, center: float) -> np.ndarray:
    """Signed distance omega - center wrapped into (-pi, pi]."""
    return np.mod(omega - center + np.pi, 2.0 * np.pi) - np.pi


def kernel_weight(window: Callable[[np.ndarray], np.ndarray], bandwidth: float,
                  center: float) -> WeightFunction:
    """phi(omega) = W((omega - center)/b) / b with cyclic frequency distance."""
    def ev(w, window=window, b=bandwidth, c=center):
        return window(_cyclic_distance(w, c) / b).astype(complex) / b
    return WeightFunction(ev, descriptor=f"kernel[b={bandwidth},center={center}]")


def model_reciprocal_weight(j: int, density: Callable[[np.ndarray], np.ndarray],
                            tag: str = "g") -> WeightFunction:
    """phi(omega) = exp(i*j*omega) / g(omega); residual covariance weight."""
    def ev(w, j=j, g=density):
        gv = np.asarray(g(w), dtype=float)
        if np.any(gv <= 0):
            raise InvalidInputError(f"model density {tag!r} is nonpositive on the grid")
        return np.exp(1j * j * w) / gv
    return WeightFunction(ev, descriptor=f"lag_exp[{j}]/{tag}")


@dataclass(frozen=True)
class OrthogonalSample:
    """A(phi; 0) together with the shifted functionals A(phi; r), r = 1..M."""

    base: complex
    shifted: np.ndarray
    T: int

    def __post_init__(self):
        self.shifted.setflags(write=False)
        if self.M < 1:
            raise ShiftRangeError("orthogonal sample needs M >= 1")
        if self.M >= self.T / 2:
            raise ShiftRangeError(f"M={self.M} must satisfy M < T/2 (T={self.T})")

    @property
    def M(self) -> int:
        return self.shifted.shape[0]


def _check_shift(T: int, r: int) -> int:
    r = int(r)
    if r < 0 or r >= T / 2:
        raise ShiftRangeError(f"shift r={r} out of range [0, T/2) for T={T}")
    return r


def weighted_average(grid: DftGrid, phi: WeightFunction, r: int = 0) -> complex:
    """A(phi; r) = (1/T) * sum_{k=1..T} phi(omega_k) J_k conj(J_{k+r})."""
    T = grid.T
    r = _check_shift(T, r)
    w = phi.on_grid(T)
    return complex(np.sum(w * grid.coeffs * np.conj(grid.shifted(r))) / T)


def weighted_average_run(grid: DftGrid, phi: WeightFunction, max_r: int) -> np.ndarray:
    """A(phi; r) for every r = 0..max_r in one O(T log T) pass.

    The run over shifts is a circular cross-correlation of phi(omega_k) J_k
    against J_k, evaluated with FFTs.
    """
    T = grid.T
    max_r = _check_shift(T, max_r)
    w = phi.on_grid(T) * grid.coeffs
    corr = np.fft.ifft(np.fft.fft(w) * np.conj(np.fft.fft(grid.coeffs)))
    # corr[m] = sum_k w_k conj(J_{k-m}); shift +r lives at index (-r) mod T
    idx = (-np.arange(0, max_r + 1)) % T
    return corr[idx] / T


def orthogonal_sample(grid: DftGrid, phi: WeightFunction, M: int) -> OrthogonalSample:
    """The orthogonal sample {A(phi; r)}_{r=1..M} plus the base statistic."""
    T = grid.T
    if M < 1:
        raise ShiftRangeError("M must be >= 1")
    _check_shift(T, M)
    run = weighted_average_run(grid, phi, M)
    return OrthogonalSample(base=complex(run[0]), shifted=run[1:].copy(), T=T)


def quadratic_form_oracle(series, phi: WeightFunction, r: int,
                          demean: bool = True,
                          oracle_bound: int = DEFAULT_ORACLE_BOUND) -> complex:
    """O(T^2) direct evaluation of the quadratic form representation of A(phi; r).

    A(phi; r) = (1/(2 pi T)) sum_{t,tau} Phi(t - tau) x_t x_tau e^{-i tau omega_r}
    with Phi(u) = (1/T) sum_k phi(omega_k) e^{i u omega_k}; the 1/(2 pi) carries
    the normalisation of the squared transform.  Test oracle only; refuses
    series longer than ``oracle_bound``.
    """
    x = as_series(series)
    T = x.size
    if T > oracle_bound:
        raise ShiftRangeError(
            f"oracle refuses T={T} > bound {oracle_bound}; it is O(T^2) test code"
        )
    r = _check_shift(T, r)
    if demean:
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
    Exactly equals the real part of A(e^{ij.}; 0) on the demeaned grid; the
    1/(2 pi) matches the normalisation of the squared transform.
    """
    x = as_series(series)
    T = x.size
    j = int(lag)
    if j < 0 or j >= T:
        raise ShiftRangeError(f"lag {j} out of range [0, T) for T={T}")
    x = x - x.mean()

    def ctilde(m: int) -> float:
        if m >= T:
            return 0.0
        return float(np.dot(x[: T - m], x[m:]) / T)

    return (ctilde(j) + ctilde(T - j)) / (2.0 * np.pi)
