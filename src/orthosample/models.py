"""Seedable generators for the data-generating processes used in the
simulation studies.

Every generator is a pure function of (spec, T, seed): the same triple always
produces bit-identical output.  Recursive models discard a 1000-sample burn-in;
non-causal moving averages are truncated where the coefficients drop below
1e-10.
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
    "generate_bivariate",
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
    series: np.ndarray
    seed: int
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


def _arch_path(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    z = rng.standard_normal(n + BURN_IN)
    x = np.empty(n + BURN_IN)
    var = 1.0 / (1.0 - alpha)  # stationary mean of sigma^2
    for t in range(n + BURN_IN):
        x[t] = math.sqrt(var) * z[t]
        var = 1.0 + alpha * x[t] * x[t]
    return x[BURN_IN:]


def _noncausal_filter(eps: np.ndarray, a: float, T: int, J: int) -> np.ndarray:
    """Apply x_t = sum_{j=0..J} a^j e_{t-j} - a/(1-a^2) e_{t+1}.

    ``eps`` must hold innovations for t = 1-J .. T+1 (length T + J + 1);
    eps[i] corresponds to time t = i + 1 - J.
    """
    coeffs = a ** np.arange(J + 1)
    full = np.convolve(eps, coeffs)  # full[i] = sum_j coeffs[j] eps[i-j]
    causal = full[J : J + T]  # aligned with t = 1..T
    future = eps[J + 1 : J + 1 + T]  # e_{t+1}
    return causal - a / (1.0 - a * a) * future


def _noncausal_path(rng: np.random.Generator, T: int, a: float,
                    innovation: str, arch_alpha: float) -> tuple[np.ndarray, int]:
    J = _truncation_length(a)
    n = T + J + 1
    if innovation == "normal":
        eps = rng.standard_normal(n)
    elif innovation == "t5":
        eps = rng.standard_t(5, n)
    elif innovation == "arch":
        eps = _arch_path(rng, n, arch_alpha)
    else:
        raise ValueError(f"unknown innovation {innovation!r}")
    return _noncausal_filter(eps, a, T, J), J


def _ar_path(rng: np.random.Generator, T: int, coeffs, innovation: str) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    p = coeffs.size
    n = T + BURN_IN
    if innovation == "normal":
        eps = rng.standard_normal(n)
    elif innovation == "chi2_1":
        eps = rng.chisquare(1, n)  # used raw (mean 1); statistics demean
    else:
        raise ValueError(f"unknown innovation {innovation!r}")
    x = np.zeros(n)
    for t in range(n):
        acc = eps[t]
        for m in range(1, min(p, t) + 1):
            acc += coeffs[m - 1] * x[t - m]
        x[t] = acc
    return x[BURN_IN:]


def generate(spec: ModelSpec, T: int, seed: int) -> SimOutput:
    """Draw a length-T realisation of the model; deterministic in (spec, T, seed)."""
    if T < 2:
        raise ValueError("T must be >= 2")
    rng = np.random.default_rng(seed)
    tag, p = spec.tag, spec.params
    burn, trunc = 0, 0

    if tag == "iid_normal":
        x = rng.standard_normal(T)
    elif tag == "iid_t5":
        x = rng.standard_t(5, T)
    elif tag == "two_dependent":
        z = rng.standard_normal(T + 1)
        x = z[1:] * z[:-1]
    elif tag == "lobato_nonmartingale":
        z = rng.standard_normal(T + 2)
        zt, zm1, zm2 = z[2:], z[1:-1], z[:-2]
        x = zm1 * zm2 * (zm1 + zt + 1.0)
    elif tag == "arch1":
        x = _arch_path(rng, T, p["alpha"])
        burn = BURN_IN
    elif tag == "arch_times_noncausal":
        arch = _arch_path(rng, T, p["alpha"])
        v, trunc = _noncausal_path(rng, T, p["a"], "normal", 0.0)
        x = np.abs(arch) * v
        burn = BURN_IN
    elif tag == "pseudo_linear":
        b1, b2 = p["b1"], p["b2"]
        J1, J2 = _truncation_length(b1), _truncation_length(b2)
        # inner filter needs J2 extra history plus one future value
        n1 = T + J1 + 1
        u2 = _arch_path(rng, n1 + J2 + 1, p["arch_alpha"])
        u1 = _noncausal_filter(u2, b2, n1, J2)
        x = _noncausal_filter(u1, b1, T, J1)
        burn, trunc = BURN_IN, max(J1, J2)
    elif tag == "periodic_scaled":
        z = rng.standard_normal(T + 1)
        base = z[1:] * z[:-1]
        scale = np.resize(np.asarray(PERIODIC_SCALE, dtype=float), T)
        x = scale * base
    elif tag == "noncausal_linear":
        x, trunc = _noncausal_path(rng, T, p["a"], p["innovation"],
                                   p.get("arch_alpha", 0.0))
    elif tag == "ar":
        x = _ar_path(rng, T, p["coeffs"], p["innovation"])
        burn = BURN_IN
    elif tag == "ar_times_arch":
        arpath = _ar_path(rng, T, p["coeffs"], "normal")
        arch = _arch_path(rng, T, p["alpha"])
        x = arpath * np.abs(arch)
        burn = BURN_IN
    else:
        raise ValueError(f"unknown model tag {tag!r}")

    return SimOutput(series=np.asarray(x, dtype=float), seed=seed,
                     burn_in_used=burn, truncation_used=trunc)


def generate_bivariate(delta: float, rho: float, T: int, seed: int
                       ) -> tuple[SimOutput, SimOutput]:
    """X_t = 0.8 X_{t-1} + e_t and Y_t = 0.8 Y_{t-1} + delta Y_{t-2} + n_t,
    with jointly Gaussian unit-variance innovation pairs, corr(e, n) = rho.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError("innovation correlation must lie in [-1, 1]")
    # z^2 - 0.8 z - delta: inverse characteristic roots must lie inside the unit circle
    roots = np.roots([1.0, -0.8, -delta])
    if np.any(np.abs(roots) >= 1.0):
        raise ValueError(f"(0.8, {delta}) is not a stationary AR(2)")
    rng = np.random.default_rng(seed)
    n = T + BURN_IN
    e = rng.standard_normal(n)
    w = rng.standard_normal(n)
    eta = rho * e + math.sqrt(max(0.0, 1.0 - rho * rho)) * w
    x = np.zeros(n)
    y = np.zeros(n)
    for t in range(n):
        x[t] = 0.8 * x[t - 1] + e[t] if t >= 1 else e[t]
        y[t] = eta[t]
        if t >= 1:
            y[t] += 0.8 * y[t - 1]
        if t >= 2:
            y[t] += delta * y[t - 2]
    return (SimOutput(series=x[BURN_IN:], seed=seed, burn_in_used=BURN_IN),
            SimOutput(series=y[BURN_IN:], seed=seed, burn_in_used=BURN_IN))


def model_spectral_density(spec: ModelSpec, omega) -> np.ndarray:
    """Closed-form AR spectral density sigma^2/(2 pi) |1 - sum phi_m e^{im w}|^{-2}.

    Only AR-tagged specs have one; chi-square(1) innovations carry variance 2.
    """
    if spec.tag != "ar":
        raise ValueError(f"no closed-form spectral density for tag {spec.tag!r}")
    sigma = math.sqrt(2.0) if spec.params["innovation"] == "chi2_1" else 1.0
    return ar_spectral_density(omega, spec.params["coeffs"], sigma)
