"""Seedable generators for the data-generating processes used in the
simulation studies.

The generators work on blocks of replications: ``generate_batch(spec, T,
seeds)`` returns a time-major (T, R) block whose column j depends only on
(spec, T, seeds[j]).  Each replication draws its innovations from its own
``default_rng(seeds[j])``, in a fixed order, into the column of a time-major
array; the AR, ARCH and bivariate recursions then run once per time step
across the whole block, in place, with the same floating-point operations for
every column.  So column j is bit-identical whatever the other seeds of the
block, and ``generate(spec, T, seed)`` is the block of one.  Recursive models
discard a 1000-sample burn-in; non-causal moving averages are truncated where
the coefficients drop below 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import ar_spectral_density

__all__ = [
    "ModelSpec",
    "SimOutput",
    "generate",
    "generate_batch",
    "generate_bivariate",
    "generate_bivariate_batch",
    "model_spectral_density",
    "MODEL_REGISTRY",
    "iid_normal",
    "iid_t5",
    "noncausal_linear",
    "two_dependent",
    "lobato_nonmartingale",
    "arch1",
    "arch_times_noncausal",
    "pseudo_linear",
    "periodic_scaled",
    "ar",
    "ar_times_arch",
]

BURN_IN = 1000
TRUNCATION_TOL = 1e-10
PERIODIC_SCALE = (1, 1, 1, 2, 3, 1, 1, 1, 1, 2, 4, 6)


@dataclass(frozen=True)
class ModelSpec:
    tag: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tag == "ar":
            coeffs = np.asarray(self.params["coeffs"], dtype=float)
            # roots of 1 - phi_1 z - ... - phi_p z^p must lie outside the unit circle
            roots = np.roots(np.r_[1.0, -coeffs][::-1]) if coeffs.size else np.array([])
            if roots.size and np.any(np.abs(roots) <= 1.0):
                raise ValueError(f"AR coefficients {coeffs} are not stationary")
        if self.tag == "arch1" and not 0.0 <= self.params["alpha"] < 1.0:
            raise ValueError("ARCH coefficient must lie in [0, 1)")
        if self.tag == "noncausal_linear" and not abs(self.params["a"]) < 1.0:
            raise ValueError("non-causal coefficient must satisfy |a| < 1")


@dataclass(frozen=True)
class SimOutput:
    """A length-T series and its seed, or from the batch generators a
    time-major (T, R) block and its list of R seeds."""

    series: np.ndarray
    seed: object
    burn_in_used: int = 0
    truncation_used: int = 0

    def __post_init__(self):
        self.series.setflags(write=False)


def iid_normal() -> ModelSpec:
    return ModelSpec("iid_normal")


def iid_t5() -> ModelSpec:
    return ModelSpec("iid_t5")


def noncausal_linear(a: float, innovation: str = "normal",
                     arch_alpha: float | None = None) -> ModelSpec:
    """X_t = sum_{j>=0} a^j e_{t-j} - a/(1-a^2) e_{t+1}; uncorrelated by design.

    ``innovation`` is one of "normal", "t5", "arch" (ARCH(1) with coefficient
    ``arch_alpha``).
    """
    params = {"a": float(a), "innovation": innovation}
    if innovation == "arch":
        params["arch_alpha"] = float(arch_alpha if arch_alpha is not None else 0.7)
    return ModelSpec("noncausal_linear", params)


def two_dependent() -> ModelSpec:
    """X_t = Z_t Z_{t-1}."""
    return ModelSpec("two_dependent")


def lobato_nonmartingale() -> ModelSpec:
    """X_t = Z_{t-1} Z_{t-2} (Z_{t-1} + Z_t + 1); nonlinear, non-martingale."""
    return ModelSpec("lobato_nonmartingale")


def arch1(alpha: float = 0.8) -> ModelSpec:
    """ARCH(1): X_t = sigma_t Z_t with sigma_t^2 = 1 + alpha X_{t-1}^2."""
    return ModelSpec("arch1", {"alpha": float(alpha)})


def arch_times_noncausal(alpha: float = 0.8, a: float = 0.8) -> ModelSpec:
    """X_t = |ARCH_t| * V_t with V an independent non-causal series."""
    return ModelSpec("arch_times_noncausal", {"alpha": float(alpha), "a": float(a)})


def pseudo_linear(b1: float = -0.8, b2: float = -0.6,
                  arch_alpha: float = 0.5) -> ModelSpec:
    """Two nested non-causal filters driven by an ARCH core."""
    return ModelSpec("pseudo_linear", {"b1": float(b1), "b2": float(b2),
                                       "arch_alpha": float(arch_alpha)})


def periodic_scaled() -> ModelSpec:
    """s_t * Z_t Z_{t-1} with the deterministic period-12 scale sequence."""
    return ModelSpec("periodic_scaled")


def ar(coeffs, innovation: str = "normal") -> ModelSpec:
    """AR(p) recursion; ``innovation`` is "normal" or "chi2_1" (used raw)."""
    return ModelSpec("ar", {"coeffs": tuple(float(c) for c in coeffs),
                            "innovation": innovation})


def ar_times_arch(coeffs, alpha: float = 0.8) -> ModelSpec:
    """AR path multiplied by |ARCH| of an independent ARCH(alpha) process."""
    return ModelSpec("ar_times_arch", {"coeffs": tuple(float(c) for c in coeffs),
                                       "alpha": float(alpha)})


# Named specs matching the simulation studies.
MODEL_REGISTRY = {
    "normal": iid_normal(),
    "t5": iid_t5(),
    "x3": two_dependent(),
    "x4": lobato_nonmartingale(),
    "x5": arch1(0.8),
    "x6": arch_times_noncausal(0.8, 0.8),
    "x7": pseudo_linear(-0.8, -0.6, 0.5),
    "x8": periodic_scaled(),
    "y1": ar([-0.2]),
    "y2": ar_times_arch([-0.2], 0.8),
    "y3": ar_times_arch([0.5], 0.8),
    "ar_g_0.6": ar([0.6]),
    "ar_chi_0.6": ar([0.6], innovation="chi2_1"),
    "ar_chi_0.9": ar([0.9], innovation="chi2_1"),
    "pivot_i": iid_normal(),
    "pivot_ii": noncausal_linear(0.6, innovation="t5"),
    "pivot_iii": noncausal_linear(0.6, innovation="arch", arch_alpha=0.7),
}


def _truncation_length(a: float) -> int:
    return max(1, math.ceil(math.log(TRUNCATION_TOL) / math.log(abs(a))))


def _normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n)


def _t5(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_t(5, n)


def _chi2_1(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.chisquare(1, n)  # used raw (mean 1); statistics demean


def _innovation(name: str, allowed):
    draws = {"normal": _normal, "t5": _t5, "chi2_1": _chi2_1}
    if name not in allowed:
        raise ValueError(f"unknown innovation {name!r}")
    return draws[name]


def _draw(rngs, *parts) -> list:
    """One time-major (n, R) array per (draw, n) part; column j holds what
    rngs[j] draws, the parts drawn in the listed order."""
    out = [np.empty((n, len(rngs))) for _, n in parts]
    for j, rng in enumerate(rngs):
        for arr, (draw, n) in zip(out, parts):
            arr[:, j] = draw(rng, n)
    return out


def _over_time(body, z: np.ndarray) -> np.ndarray:
    """Run the time recursion ``body(rows, sqrt)`` in place on the time-major
    block z, one step across all replications at a time.

    A block of one runs on a list of Python floats: the arithmetic is the
    same IEEE double arithmetic (``math.sqrt`` and ``np.sqrt`` both round
    correctly), at a fraction of the cost of a numpy call per step.
    """
    if z.shape[1] == 1:
        rows = z[:, 0].tolist()
        body(rows, math.sqrt)
        z[:, 0] = rows
    else:
        body(z, np.sqrt)
    return z


def _arch(z: np.ndarray, alpha: float) -> np.ndarray:
    """ARCH(1) in place: z_t becomes x_t = sigma_t z_t, sigma_t^2 = 1 +
    alpha x_{t-1}^2, started at the stationary mean of sigma^2."""
    def body(x, sqrt):
        var = 1.0 / (1.0 - alpha)
        for t in range(len(x)):
            xt = sqrt(var) * x[t]
            x[t] = xt
            var = 1.0 + alpha * xt * xt
    return _over_time(body, z)


def _ar(e: np.ndarray, coeffs) -> np.ndarray:
    """AR(p) in place: e_t becomes x_t = e_t + phi_1 x_{t-1} + ... + phi_p
    x_{t-p}, the terms added in order of lag, with x_s = 0 for s < 0."""
    coeffs = tuple(coeffs)

    def body(x, sqrt):
        for t in range(len(x)):
            for m, c in enumerate(coeffs[:t], start=1):
                x[t] += c * x[t - m]
    return _over_time(body, e)


def _noncausal_filter(eps: np.ndarray, a: float, T: int, J: int) -> np.ndarray:
    """Apply x_t = sum_{j=0..J} a^j e_{t-j} - a/(1-a^2) e_{t+1} to each column.

    ``eps`` must hold innovations for t = 1-J .. T+1 (T + J + 1 rows);
    row i corresponds to time t = i + 1 - J.
    """
    coeffs = a ** np.arange(J + 1)
    causal = np.empty((T, eps.shape[1]))
    for col in range(eps.shape[1]):
        # full[i] = sum_j coeffs[j] eps[i-j]; rows J .. J+T-1 are t = 1..T
        causal[:, col] = np.convolve(eps[:, col], coeffs)[J : J + T]
    future = eps[J + 1 : J + 1 + T]  # e_{t+1}
    return causal - a / (1.0 - a * a) * future


def _noncausal(rngs, T: int, a: float, innovation: str,
               arch_alpha: float) -> tuple[np.ndarray, int]:
    J = _truncation_length(a)
    n = T + J + 1
    if innovation == "arch":
        (z,) = _draw(rngs, (_normal, n + BURN_IN))
        eps = _arch(z, arch_alpha)[BURN_IN:]
    else:
        (eps,) = _draw(rngs, (_innovation(innovation, ("normal", "t5")), n))
    return _noncausal_filter(eps, a, T, J), J


def generate_batch(spec: ModelSpec, T: int, seeds) -> SimOutput:
    """Draw one length-T realisation per seed as the columns of a (T, R) block.

    Column j is bit-identical to ``generate(spec, T, seeds[j]).series``: each
    replication draws its innovations from ``default_rng(seeds[j])`` in the
    same order as a single draw, and the recursions take the same steps.
    """
    if T < 2:
        raise ValueError("T must be >= 2")
    rngs = [np.random.default_rng(s) for s in seeds]
    tag, p = spec.tag, spec.params
    n = T + BURN_IN
    burn, trunc = 0, 0

    if tag == "iid_normal":
        (x,) = _draw(rngs, (_normal, T))
    elif tag == "iid_t5":
        (x,) = _draw(rngs, (_t5, T))
    elif tag == "two_dependent":
        (z,) = _draw(rngs, (_normal, T + 1))
        x = z[1:] * z[:-1]
    elif tag == "lobato_nonmartingale":
        (z,) = _draw(rngs, (_normal, T + 2))
        zt, zm1, zm2 = z[2:], z[1:-1], z[:-2]
        x = zm1 * zm2 * (zm1 + zt + 1.0)
    elif tag == "arch1":
        (z,) = _draw(rngs, (_normal, n))
        x = _arch(z, p["alpha"])[BURN_IN:]
        burn = BURN_IN
    elif tag == "arch_times_noncausal":
        J = _truncation_length(p["a"])
        z, eps = _draw(rngs, (_normal, n), (_normal, T + J + 1))
        v = _noncausal_filter(eps, p["a"], T, J)
        x = np.abs(_arch(z, p["alpha"])[BURN_IN:]) * v
        burn, trunc = BURN_IN, J
    elif tag == "pseudo_linear":
        b1, b2 = p["b1"], p["b2"]
        J1, J2 = _truncation_length(b1), _truncation_length(b2)
        # inner filter needs J2 extra history plus one future value
        n1 = T + J1 + 1
        (z,) = _draw(rngs, (_normal, n1 + J2 + 1 + BURN_IN))
        u2 = _arch(z, p["arch_alpha"])[BURN_IN:]
        u1 = _noncausal_filter(u2, b2, n1, J2)
        x = _noncausal_filter(u1, b1, T, J1)
        burn, trunc = BURN_IN, max(J1, J2)
    elif tag == "periodic_scaled":
        (z,) = _draw(rngs, (_normal, T + 1))
        base = z[1:] * z[:-1]
        scale = np.resize(np.asarray(PERIODIC_SCALE, dtype=float), T)
        x = scale[:, None] * base
    elif tag == "noncausal_linear":
        x, trunc = _noncausal(rngs, T, p["a"], p["innovation"],
                              p.get("arch_alpha", 0.0))
    elif tag == "ar":
        draw = _innovation(p["innovation"], ("normal", "chi2_1"))
        (e,) = _draw(rngs, (draw, n))
        x = _ar(e, p["coeffs"])[BURN_IN:]
        burn = BURN_IN
    elif tag == "ar_times_arch":
        e, z = _draw(rngs, (_normal, n), (_normal, n))
        x = _ar(e, p["coeffs"])[BURN_IN:] * np.abs(_arch(z, p["alpha"])[BURN_IN:])
        burn = BURN_IN
    else:
        raise ValueError(f"unknown model tag {tag!r}")

    return SimOutput(series=np.ascontiguousarray(x, dtype=float), seed=list(seeds),
                     burn_in_used=burn, truncation_used=trunc)


def generate(spec: ModelSpec, T: int, seed) -> SimOutput:
    """Draw a length-T realisation of the model; deterministic in (spec, T, seed)."""
    block = generate_batch(spec, T, [seed])
    return SimOutput(series=block.series[:, 0], seed=seed,
                     burn_in_used=block.burn_in_used,
                     truncation_used=block.truncation_used)


def generate_bivariate_batch(delta: float, rho: float, T: int, seeds
                             ) -> tuple[SimOutput, SimOutput]:
    """The X and Y paths of ``generate_bivariate`` for every seed, as the
    columns of two (T, R) blocks; column j is bit-identical to the pair
    drawn from seeds[j]."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError("innovation correlation must lie in [-1, 1]")
    # z^2 - 0.8 z - delta: inverse characteristic roots must lie inside the unit circle
    roots = np.roots([1.0, -0.8, -delta])
    if np.any(np.abs(roots) >= 1.0):
        raise ValueError(f"(0.8, {delta}) is not a stationary AR(2)")
    n = T + BURN_IN
    e, w = _draw([np.random.default_rng(s) for s in seeds], (_normal, n), (_normal, n))
    # eta = rho e + sqrt(1 - rho^2) w, built in w's storage
    w *= math.sqrt(max(0.0, 1.0 - rho * rho))
    w += rho * e
    x = _ar(e, (0.8,))[BURN_IN:]
    y = _ar(w, (0.8, delta))[BURN_IN:]
    return tuple(SimOutput(series=s, seed=list(seeds), burn_in_used=BURN_IN)
                 for s in (x, y))


def generate_bivariate(delta: float, rho: float, T: int, seed
                       ) -> tuple[SimOutput, SimOutput]:
    """X_t = 0.8 X_{t-1} + e_t and Y_t = 0.8 Y_{t-1} + delta Y_{t-2} + n_t,
    with jointly Gaussian unit-variance innovation pairs, corr(e, n) = rho.
    """
    return tuple(SimOutput(series=s.series[:, 0], seed=seed, burn_in_used=BURN_IN)
                 for s in generate_bivariate_batch(delta, rho, T, [seed]))


def model_spectral_density(spec: ModelSpec, omega) -> np.ndarray:
    """Closed-form AR spectral density sigma^2/(2 pi) |1 - sum phi_m e^{im w}|^{-2}.

    Only AR-tagged specs have one; chi-square(1) innovations carry variance 2.
    """
    if spec.tag != "ar":
        raise ValueError(f"no closed-form spectral density for tag {spec.tag!r}")
    sigma = math.sqrt(2.0) if spec.params["innovation"] == "chi2_1" else 1.0
    return ar_spectral_density(omega, spec.params["coeffs"], sigma)
