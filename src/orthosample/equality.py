"""Two-sample test for equality of spectral densities.

The statistic is an integrated squared distance between smoothed spectral
estimates of the two series.  Its null distribution is calibrated from
shifted (orthogonal) copies of the same distance, with a power transform
chosen to symmetrise the draws before a t reference is applied.

Block contract: ``equality_block`` tests every pair of rows (X[i], Y[i]) of
two (R, T) blocks of series at once and returns a ``BlockReport`` whose
``tuning`` holds each row's exponent beta, z and draw moments;
``equality_test`` is its block of one.  A check that fails on any pair
fails the whole block with the single-pair test's exception.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import distributions as dist
from .htests import BlockReport, TestReport
from .spectral import (DegenerateDataError, InvalidInputError, _check_shift,
                       _circular_convolve, _dft_into, _real, _shift_chunks, as_block,
                       as_series, grid_constant)

__all__ = [
    "KernelSpec",
    "moment_estimates",
    "beta_hat",
    "equality_test",
    "equality_block",
    "default_M",
    "default_bandwidth",
]


@dataclass(frozen=True)
class KernelSpec:
    """Smoothing window for the averaged periodogram.

    The window is the box (flat) window W(x) = 1/2 on [-1, 1].
    ``bandwidth`` b is a fraction of the full frequency range, in (0, 1),
    so the window spans grid points within b*T of the target frequency;
    b * T >= 4 is required so each local average uses at least a handful
    of grid points.
    """

    bandwidth: float

    def __post_init__(self):
        if not 0.0 < _real(self.bandwidth, "bandwidth b") < 1.0:
            raise InvalidInputError("bandwidth must lie in (0, 1)")

    def weights(self, T: int) -> np.ndarray:
        """w[d] = W(delta_d / b) / (b T) over cyclic grid offsets, with
        delta_d = min(d, T - d) / T the offset as a fraction of the range;
        the weights sum to approximately one."""
        if self.bandwidth * T < 4:
            raise InvalidInputError(
                f"bandwidth {self.bandwidth} too small for T={T}: need b*T >= 4")
        d = np.arange(T)
        delta = np.minimum(d, T - d) / T
        w = np.where(np.abs(delta / self.bandwidth) <= 1.0, 0.5, 0.0)
        return w / (self.bandwidth * T)


@grid_constant
def _window_transform(kernel: KernelSpec, T: int) -> np.ndarray:
    """The FFT of ``kernel.weights(T)``: convolving with the weights is
    multiplying by it.  A read-only grid constant."""
    return np.fft.fft(kernel.weights(T))


def _half_range(diff: np.ndarray, T: int) -> np.ndarray:
    """The statistic S = (2/T) sum_{j=1..T/2} |d_j|^2 of the difference d of
    two unshifted estimates on the grid.  A real series' estimate is symmetric
    about frequency 0, so the half range covers each distinct value once."""
    return 2.0 / T * np.sum(np.abs(diff[..., :T // 2]) ** 2, axis=-1)


def _full_period(diff: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The null draws (S_R, S_I) = (2/T) sum_{j=1..T} (Re d_j)^2 and the
    imaginary analogue, of the difference d of two estimates at shift r > 0.

    For a real series J(omega_{-k}) = conj(J(omega_k)), so f_hat(omega_{-l}; r)
    = f_hat(omega_{l-r}; r): a shifted estimate is symmetric about -omega_r / 2,
    not about 0.  So the sum runs over one full period: the half range
    j = 1..T/2 would drop the values just below frequency 0 and count some
    near pi twice."""
    return (2.0 / T * np.sum(diff.real**2, axis=-1),
            2.0 / T * np.sum(diff.imag**2, axis=-1))


def moment_estimates(draws: np.ndarray):
    """(mean, variance, third central moment) of the null draws: arrays over
    the rows of an (R, n) block of draws, floats for one row."""
    draws = np.asarray(draws, dtype=float)
    dev = draws - draws.mean(axis=-1, keepdims=True)
    moments = draws.mean(axis=-1), np.mean(dev**2, axis=-1), np.mean(dev**3, axis=-1)
    return tuple(map(float, moments)) if draws.ndim == 1 else moments


def _pow(x, y) -> np.ndarray:
    """x ** y element by element, each a Python float power: numpy's ``**``
    rounds some powers differently, and every row must keep its bits.  A
    power too large for a float, where Python's raises OverflowError, is NaN:
    the row's p-value follows, and ``BlockReport`` refuses it."""
    x, y = np.broadcast_arrays(x, y)
    return np.array(list(map(_float_pow, x.ravel().tolist(), y.ravel().tolist()))).reshape(
        x.shape)


def _float_pow(x: float, y: float) -> float:
    try:
        return pow(x, y)
    except OverflowError:
        return math.nan


def beta_hat(mu, var, mu3):
    """Power-transform exponent 1 - mu * mu3 / (3 var^2), clamped to (0, 1]:
    an array over arrays of moments, a float for one set; one warning names
    the number of exponents clamped.  An exponent whose mu * mu3 or 3 var^2
    overflows a float is NaN, never clamped."""
    if np.any(np.asarray(var) <= 0):
        raise DegenerateDataError("zero variance in null draws; beta undefined")
    num, den = np.multiply(mu, mu3), 3.0 * _pow(var, 2.0)
    b = np.where(np.isfinite(num) & np.isfinite(den), 1.0 - num / den, np.nan)
    clamped = (b <= 0.0) | (b > 1.0)
    if np.any(clamped):
        warnings.warn(f"{np.count_nonzero(clamped)} of {b.size} transform exponents outside "
                      f"(0, 1], first {b[clamped][0]:.4g}; clamping", RuntimeWarning)
        b = np.clip(b, 1e-3, 1.0)
    return float(b) if b.ndim == 0 else b


def default_M(T: int) -> int:
    """Number of shifts used for the null draws: 6 at T=128, 12 at T=512 and
    18 at T=1024; at any other T, round(6 + 3 (log2(T) - 7)), clipped to
    [2, floor(T/2) - 1].  That line passes through the 128 and 512 entries
    but not the 1024 one (it gives 15 there), so the default is not
    monotone in T: 15 at T=1023, 18 at 1024, 15 at 1025 and 18 at 2048."""
    table = {128: 6, 512: 12, 1024: 18}
    if T in table:
        return table[T]
    m = int(round(6 + 6 * (np.log2(T) - 7) / 2))
    return max(2, min(m, int(T / 2) - 1))


def default_bandwidth(T: int) -> float:
    """Smoothing bandwidth: 0.15 for T < 512, 0.1 from T = 512 up."""
    return 0.15 if T < 512 else 0.1


def _check_beta(beta) -> float | str:
    """The exponent rule: beta is "estimate" or a real number in (0, 1], as a float."""
    if beta != "estimate" and not 0.0 < (beta := _real(beta, "beta")) <= 1.0:
        raise InvalidInputError(f"beta={beta} outside (0, 1]")
    return beta


def _shift_products(J: np.ndarray, rows: slice, rs: slice, swap: bool = False) -> np.ndarray:
    """J_k conj(J_{k+r}) for the shifts r in ``rs`` of the series in ``rows``,
    formed in the buffer of the conj, one block of :func:`_shift_chunks`.

    The explicit buffer keeps the bits from depending on the block's shape.
    ``swap`` multiplies as conj(J_{k+r}) J_k, which rounds differently in the
    last bits: it is what `J_k * conj(J_{k+r})` gave Y's products in one-row
    blocks from T = 2^14 (256 KiB) on, through numpy's temporary elision, and
    it is kept so those results keep their bits.
    """
    p = np.conj(J[rows, rs])
    if swap:
        return np.multiply(p, J[rows, :1], out=p)
    return np.multiply(J[rows, :1], p, out=p)


def equality_block(X, Y, b: float | None = None, M: int | None = None,
                   beta: float | str = "estimate") -> BlockReport:
    """:func:`equality_test` on every pair of rows (X[i], Y[i]) of two (R, T)
    blocks of series.  ``tuning`` holds the block's M and b and, per row,
    beta, z and the moments mu, var and mu3 of the null draws."""
    X, Y = as_block(X), as_block(Y)
    if X.shape != Y.shape:
        raise InvalidInputError(f"series blocks differ in shape: {X.shape} vs {Y.shape}")
    R, T = X.shape
    M = _check_shift(T, default_M(T) if M is None else M, "M", 1)
    beta = _check_beta(beta)
    kernel = KernelSpec(bandwidth=default_bandwidth(T) if b is None else b)
    fw = _window_transform(kernel, T)

    # the statistic (``_half_range``) and its draws (``_full_period``) from the difference
    # f_hat_x(.; r) - f_hat_y(.; r) of the smoothed estimates f_hat(omega_l; r) =
    # sum_k w[(l - k) mod T] J_k conj(J_{k+r}), with the weights w of ``KernelSpec.weights``,
    # one transform per shift for both series.  Row i of ``ext`` holds the DFT of X[i], row
    # R + i that of Y[i], each followed by its first M points, so J[i, r] = J_{k+r} of X[i]
    # (J[R + i, r] of Y[i]) is a window on the row.  The DFTs are written straight into it.
    ext = np.empty((2 * R, T + M), dtype=complex)
    _dft_into(ext[:, :T], X, Y)
    ext[:, T:] = ext[:, :M]
    J = sliding_window_view(ext, T, axis=-1)
    stat, sums = np.empty(R), np.empty((2, R, M + 1))
    for rows, rs in _shift_chunks(R, M + 1, T):
        u = _shift_products(J[:R], rows, rs)
        u -= _shift_products(J[R:], rows, rs, swap=T >= 2**14)
        diff = _circular_convolve(u, fw)
        if rs.start == 0:
            stat[rows] = _half_range(diff[:, 0], T)
        sums[:, rows, rs] = _full_period(diff, T)
    draws = sums[..., 1:].transpose(1, 2, 0).reshape(R, 2 * M)  # S_R(1), S_I(1), ...
    mu, var, mu3 = moment_estimates(draws)
    if np.any(var <= 0):  # e.g. X[i] == Y[i]: every draw is zero and no power is defined
        raise DegenerateDataError("zero variance in null draws; "
                                  + ("beta" if beta == "estimate" else "test") + " undefined")
    beta_used = beta_hat(mu, var, mu3) if beta == "estimate" else np.full(R, beta)

    # moments of the transformed statistic by a second-order expansion
    mu_b = _pow(mu, beta_used) + 0.5 * beta_used * (beta_used - 1.0) * _pow(
        mu, beta_used - 2.0) * var
    sd_b = beta_used * _pow(mu, beta_used - 1.0) * np.sqrt(var)
    if np.any(sd_b <= 0):
        raise DegenerateDataError("degenerate transformed scale; test undefined")
    z = (_pow(stat, beta_used) - mu_b) / sd_b
    law = dist.student_t(2 * M - 1)
    scale = np.sqrt(1.0 + 1.0 / (2.0 * M))
    return BlockReport(statistics=stat, p_values=np.array([law.sf(v) for v in z / scale]),
                       method="spectral_equality", null_ref=law,
                       tuning={"M": M, "b": kernel.bandwidth, "beta": beta_used,
                               "z": z, "mu": mu, "var": var, "mu3": mu3})


def equality_test(x, y, b: float | None = None, M: int | None = None,
                  beta: float | str = "estimate") -> TestReport:
    """Test H0: the two series have the same spectral density.

    ``beta`` is either a fixed exponent in (0, 1] or "estimate", in which
    case it is chosen from the skewness of the null draws.  The p-value is
    the right tail of a scaled t reference with 2M - 1 degrees of freedom.
    The block of one of :func:`equality_block`.
    """
    return equality_block(as_series(x)[None], as_series(y)[None], b, M, beta).report()
