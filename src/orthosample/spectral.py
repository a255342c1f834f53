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

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "InvalidInputError",
    "ShiftRangeError",
    "DegenerateDataError",
    "DftGrid",
    "WeightFunction",
    "OrthogonalSample",
    "as_series",
    "as_block",
    "grid_constant",
    "grid_frequencies",
    "ar_transfer",
    "ar_spectral_density",
    "dft",
    "dft_block",
    "weighted_average",
    "weighted_average_run",
    "shift_runs",
    "orthogonal_sample",
    "lag_weight",
]

# Complex points in a block of length-T rows transformed together (shift
# tables, equality-test shifts): 256 KB for the rows of several series, four
# times that for the rows of one.  At T = 2^14 a one-row FFT call costs about
# 1.5 times as much per row as a call of 2-8 rows, so there a block is four
# rows of one series; a row longer than four times the limit is its own block
# and needs no more memory than the single transform it replaces.  The DFT of
# a block takes its rows in chunks of at most this many points (one row when T
# exceeds it) through one work buffer, writing each chunk straight into its
# destination.
SHIFT_BLOCK_POINTS = 2**14
# A grid constant (an array that depends on T and the tuning, not on the
# data) is kept per process only up to this size, 2^17 complex points.
GRID_CONSTANT_BYTES = 2**21


class InvalidInputError(ValueError):
    """Raised when an observation record is unusable (too short, non-finite)."""


class ShiftRangeError(ValueError):
    """Raised when a count or order is not integral, a shift r, lag count L or
    orthogonal-sample size M falls outside its range [lo, T/2) (lo = 0 for r,
    1 for L and M), or a search set breaks its rule or has no feasible M."""


class DegenerateDataError(ValueError, ZeroDivisionError):
    """Raised when finite data leave a statistic undefined: a zero sample
    variance or normaliser, null draws without spread, a zero variance
    estimate or variance window, a rank-deficient covariance estimate, or a
    statistic, p-value, criterion or null draw that overflows a float.
    It is bad input (a ValueError) and a division by zero."""


def as_series(values) -> np.ndarray:
    """Validate and return a real observation record x_1..x_T.

    Requires a 1-D array with T >= 2 and all values finite.
    """
    return _checked(values, 1, "a 1-D series")


def as_block(values) -> np.ndarray:
    """Validate and return a block of R records of a common length T as an
    (R, T) array; each row must pass :func:`as_series`."""
    return _checked(values, 2, "an (R, T) block of series")


def _checked(values, ndim: int, what: str) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim != ndim:
        raise InvalidInputError(f"need {what}, got an array of shape {x.shape}")
    if x.shape[-1] < 2:
        raise InvalidInputError(f"need at least 2 observations, got {x.shape[-1]}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("series contains non-finite values")
    return x


def grid_constant(build):
    """Cache ``build``, a pure function of hashable arguments that returns an
    array, once per process.  Every array it returns is read-only.  The cache
    keeps the last array built, unless it is larger than
    ``GRID_CONSTANT_BYTES``: that one is returned but not kept.  ``cache``
    maps the kept argument tuple to its array."""
    cache = {}

    @functools.wraps(build)
    def constant(*key):
        value = cache.get(key)
        if value is None:
            value = build(*key)
            value.setflags(write=False)
            if value.nbytes <= GRID_CONSTANT_BYTES:
                cache.clear()
                cache[key] = value
        return value

    constant.cache = cache
    return constant


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
    return _ar_density(ar_transfer(omega, coeffs), sigma)


def _ar_density(A: np.ndarray, sigma: float) -> np.ndarray:
    """sigma^2 / (2 pi) * |A|^{-2} from the AR polynomial's values A."""
    return sigma**2 / (2 * np.pi) / np.abs(A) ** 2


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
        return np.roll(self.coeffs, -_integer(r, "shift r", self.T))


def dft(series, demean: bool = True) -> DftGrid:
    """Transform x_1..x_T to (1/sqrt(2*pi*T)) * sum_t x_t exp(i*t*omega_k).

    Computed with an FFT of the exact length T (no padding), so it runs in
    O(T log T) for arbitrary T.  The block of one of :func:`dft_block`.
    """
    return DftGrid(coeffs=dft_block(as_series(series)[None], demean)[0], demeaned=demean)


def dft_block(block, demean: bool = True) -> np.ndarray:
    """The DFT coefficients of every row of an (R, T) block of series, as an
    (R, T) array whose row i is ``dft(block[i], demean).coeffs``."""
    x = as_block(block)
    return _dft_into(np.empty(x.shape, dtype=complex), x, demean=demean)


def _dft_into(out: np.ndarray, *blocks: np.ndarray, demean: bool = True) -> np.ndarray:
    """Write :func:`dft_block` of the checked (R_i, T) ``blocks``, their rows in
    turn, into the rows of ``out``, an (sum R_i, T) complex array or slice.

    The phase is built once; the rows are transformed a chunk of at most
    ``SHIFT_BLOCK_POINTS`` points (at least one row) at a time in one work
    buffer.  A row's FFT and mean do not depend on the chunk, so neither do
    its bits.
    """
    T = out.shape[1]
    # sum_t x_t e^{i t omega_k} = e^{i omega_k} * T * ifft(x)[k mod T]; index k - 1
    # holds omega_k, so the ifft moves one place to the left
    phase = 2j * np.pi * np.arange(1, T + 1)
    phase /= T
    np.exp(phase, out=phase)
    scale = 1.0 / np.sqrt(2.0 * np.pi * T)
    reps = max(1, SHIFT_BLOCK_POINTS // T)
    buf = np.empty((min(reps, len(out)), T), dtype=complex)
    start = 0
    for rows in (x[i:i + reps] for x in blocks for i in range(0, len(x), reps)):
        u, dest = buf[:len(rows)], out[start:start + len(rows)]
        start += len(rows)
        if demean:
            np.subtract(rows, rows.mean(axis=1, keepdims=True), out=u)
        else:
            u[...] = rows
        np.fft.ifft(u, axis=-1, out=u)
        np.multiply(T, u[:, 1:], out=dest[:, :-1])
        np.multiply(T, u[:, :1], out=dest[:, -1:])
        np.multiply(phase, dest, out=dest)
        dest *= scale
    return out


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


def _density_values(values, name: str, theta=None) -> np.ndarray:
    """A spectral density's values as floats, after checking that every one
    is positive and finite; the error names the density (and its theta)."""
    g = np.asarray(values, dtype=float)
    if not ((g > 0) & (g < np.inf)).all():  # both comparisons are false at NaN
        at = "" if theta is None else f" at theta={theta}"
        raise InvalidInputError(f"{name} is not positive and finite on the grid{at}")
    return g


@dataclass(frozen=True)
class OrthogonalSample:
    """A(phi; 0) together with the shifted functionals A(phi; r), r = 1..M."""

    base: complex
    shifted: np.ndarray
    T: int

    def __post_init__(self):
        self.shifted.setflags(write=False)
        _check_shift(self.T, self.M, "M", 1)

    @property
    def M(self) -> int:
        return self.shifted.shape[0]


def _integer(value, name: str, T: int | None = None) -> int:
    """The integer rule of every count and order: an integral ``value`` (say
    5.0 or a numpy integer, not a bool) as an int, any other a ShiftRangeError naming it."""
    try:
        if int(value) == value and not isinstance(value, (bool, np.bool_)):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ShiftRangeError(f"{name}={value} is not an integer" + (f", for T={T}" if T else ""))


def _real(value, name: str) -> float:
    """The real-number rule of every real setting: a finite number, no bool, complex or string."""
    if isinstance(value, np.complexfloating):  # refused as a Python complex is, and shown as one
        value = complex(value)
    try:
        x = None if isinstance(value, (bool, np.bool_, str)) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = None
    if x is None:
        raise InvalidInputError(f"{name}={value!r} is not a real number")
    if not np.isfinite(x):
        raise InvalidInputError(f"{name}={value} is not finite")
    return x


def _check_shift(T: int, r: int, name: str = "shift r", lo: int = 0) -> int:
    """``r`` as an int, after the integer rule and the range rule lo <= r < T/2
    that every shift, lag L and orthogonal-sample size M obeys."""
    r = _integer(r, name, T)
    if r < lo or r >= T / 2:
        raise ShiftRangeError(f"{name}={r} out of range [{lo}, T/2) for T={T}")
    return r


def weighted_average(grid: DftGrid, phi: WeightFunction, r: int = 0) -> complex:
    """A(phi; r) = (1/T) * sum_{k=1..T} phi(omega_k) J_k conj(J_{k+r})."""
    T = grid.T
    r = _check_shift(T, r)
    w = phi.on_grid(T)
    return complex(np.sum(w * grid.coeffs * np.conj(grid.shifted(r))) / T)


def weighted_average_run(grid: DftGrid, phi: WeightFunction, max_r: int) -> np.ndarray:
    """A(phi; r) for every r = 0..max_r < T/2 in one O(T log T) pass.

    The run over shifts is a circular cross-correlation of phi(omega_k) J_k
    against J_k, evaluated with FFTs.  The block of one of :func:`shift_runs`.
    """
    return shift_runs(grid.coeffs[None], phi.on_grid(grid.T)[None], max_r)[0, 0]


def shift_runs(coeffs: np.ndarray, weights: np.ndarray, max_r: int) -> np.ndarray:
    """A(phi_j; r) for r = 0..max_r < T/2, for every row i of an (R, T) block of
    DFT coefficients and every row j of an (L, T) array of weights
    phi_j(omega_k) on the grid, as an (R, L, max_r + 1) array.

    The coefficients are transformed once; the weighted rows phi_j J^(i) are
    transformed a block of :func:`_shift_chunks` at a time: at long T, several
    rows of one series per FFT call.
    """
    R, T = coeffs.shape
    L = weights.shape[0]
    max_r = _check_shift(T, max_r)
    conj_fc = np.conj(np.fft.fft(coeffs, axis=-1))
    # corr[m] = sum_k w_k conj(J_{k-m}); shift +r lives at index (-r) mod T
    idx = (-np.arange(0, max_r + 1)) % T
    out = np.empty((R, L, max_r + 1), dtype=complex)
    for rows, inner in _shift_chunks(R, L, T):
        corr = _circular_convolve(weights[None, inner] * coeffs[rows, None], conj_fc[rows, None])
        out[rows, inner] = corr[..., idx] / T
    return out


def _circular_convolve(u: np.ndarray, fu: np.ndarray) -> np.ndarray:
    """Circular convolution over the frequency grid of each row of u with the
    sequence whose FFT is ``fu`` (broadcast against u); transforms u in place."""
    np.fft.fft(u, axis=-1, out=u)
    u *= fu
    return np.fft.ifft(u, axis=-1, out=u)


def _shift_chunks(R: int, L: int, T: int):
    """(rows, inner) slices covering an (R, L) grid of length-T rows: whole
    rows of several series up to ``SHIFT_BLOCK_POINTS`` points, else inner
    elements of one series' row up to four times that (one element when T
    alone exceeds it)."""
    reps = max(1, SHIFT_BLOCK_POINTS // (L * T))
    inner = min(L, max(1, 4 * SHIFT_BLOCK_POINTS // T))
    for i in range(0, R, reps):
        for j in range(0, L, inner):
            yield slice(i, i + reps), slice(j, j + inner)


def orthogonal_sample(grid: DftGrid, phi: WeightFunction, M: int) -> OrthogonalSample:
    """The orthogonal sample {A(phi; r)}_{r=1..M} plus the base statistic."""
    run = weighted_average_run(grid, phi, M)
    return OrthogonalSample(base=complex(run[0]), shifted=run[1:].copy(), T=grid.T)
