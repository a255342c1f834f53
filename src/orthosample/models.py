"""Seedable generators for the data-generating processes used in the
simulation studies.

The generators work on blocks of replications: ``generate_batch(spec, T,
seeds)`` returns an (R, T) block, one row per seed, whose row j depends only
on (spec, T, seeds[j]).  Each replication draws its innovations from its own
``default_rng(seeds[j])``, in a fixed order, into its own contiguous row of
an (R, n) array, read time-major through the transpose; the AR, ARCH and
bivariate recursions then run time-major, once per time step across the
whole block, with the same floating-point operations for every replication,
and the generator transposes the result back to rows once.  The seeds may
be an (R, n) uint32 block of entropy rows, such as the words of [seed, c, r]:
then SeedSequence's hashing runs once across the block, PCG64's seeding step
runs per row in Python ints, and one Generator is re-stated to each row's
state, which equals ``default_rng(row)``'s (and so ``default_rng([seed, c,
r])``'s) bit for bit, at a fraction of the set-up cost.  So row j is
bit-identical whatever the other seeds of the block, and ``generate(spec, T,
seed)`` is the block of one.  Recursive models discard a 1000-sample burn-in;
non-causal moving averages are truncated where the coefficients drop below
1e-10.

Short, certified burn-in (the bracketing argument of monotone coupling from
the past; Propp & Wilson 1996).  Each replication still draws all 1000 + T
innovations, but a block of two or more runs the ARCH(1) and AR(p)
recursions only from step s = 1000 - K, twice, fed the same innovations:
once from a lower and once from an upper bound of the full loop's state at
step s.  Every operation of these recursions is monotone in the state under
IEEE rounding (for AR coefficients of alternating sign, after the exact sign
flip y_t = (-1)^t x_t), so at every step the full loop's value lies between
the two runs.  Where the two outputs agree bit for bit, and are not zero
(whose sign the values do not pin), they are the full loop's output.  Every
other replication is recomputed by the full 1000-step loop, which is also
what a block of one runs (on Python floats) and what an AR with coefficients
of mixed sign runs.  So every replication is bit-identical to the full
recursion.
The bounds:

- ARCH(1): sigma_t^2 >= 1, and sigma_s^2 <= 2 v_s, where v_{t+1} = 1 + alpha
  z_t^2 v_t from v_0 = 1/(1 - alpha) is the loop's recursion in exact
  arithmetic and the factor 2 covers its rounding.  K = ``ARCH_K``.
- AR(p) with all phi_m >= 0, or all (-1)^m phi_m >= 0: |x_t| <= B = 2
  max_{t<s} |e_t| / (1 - sum |phi_m|) for t < s, and the brackets are -B and
  B times the sign pattern of the lags.  K = ceil(100 ln 2 / -ln rho) for the
  companion spectral radius rho, so after K steps the two runs are about
  2^-100 of their first distance apart; when K would reach 1000 - p the full
  loop runs instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .spectral import _integer, _real

__all__ = [
    "ModelSpec",
    "SimOutput",
    "generate",
    "generate_batch",
    "generate_bivariate",
    "generate_bivariate_batch",
    "MODEL_REGISTRY",
]

BURN_IN = 1000
ARCH_K = 100  # steps of the short ARCH burn-in
_BOUND_CHUNK = 30  # steps per chunk of the ARCH variance bound; divides BURN_IN - ARCH_K
TRUNCATION_TOL = 1e-10
_INNOVATIONS = {"ar": ("normal", "chi2_1"), "noncausal_linear": ("normal", "t5", "arch")}
# the parameter names of each tag's spec; noncausal_linear with innovation
# "arch" also holds the ARCH coefficient arch_alpha
_PARAMS = {
    "iid_normal": (), "iid_t5": (), "two_dependent": (), "lobato_nonmartingale": (),
    "periodic_scaled": (), "arch1": ("alpha",), "arch_times_noncausal": ("alpha", "a"),
    "pseudo_linear": ("b1", "b2", "arch_alpha"), "noncausal_linear": ("a", "innovation"),
    "ar": ("coeffs", "innovation"), "ar_times_arch": ("coeffs", "alpha"),
}
PERIODIC_SCALE = (1, 1, 1, 2, 3, 1, 1, 1, 1, 2, 4, 6)


def _spectral_radius(coeffs) -> float:
    """The AR(p) companion matrix's spectral radius, the largest modulus of a root
    of z^p - phi_1 z^{p-1} - ... - phi_p (0 for p = 0): stationary iff < 1."""
    return max(np.abs(np.roots(np.r_[1.0, -np.asarray(coeffs, dtype=float)])), default=0.0)


@dataclass(frozen=True)
class ModelSpec:
    """A data-generating process: its tag and exactly the parameters the tag
    takes (see the README's models table), checked and kept read-only when built."""

    tag: str
    params: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        p = dict(self.params)
        object.__setattr__(self, "params", MappingProxyType(p))
        if self.tag not in _PARAMS:
            raise ValueError(f"unknown model tag {self.tag!r}; known tags: "
                             f"{', '.join(sorted(_PARAMS))}")
        names = _PARAMS[self.tag]
        if self.tag == "noncausal_linear" and p.get("innovation") == "arch":
            names += ("arch_alpha",)
        if set(p) != set(names):
            raise ValueError(f"model tag {self.tag!r} takes the parameters {sorted(names)}, "
                             f"got {sorted(p)}")
        if "coeffs" in p:
            if not isinstance(p["coeffs"], (list, tuple)):
                raise ValueError(f"AR coefficients coeffs={p['coeffs']!r} are not a list or "
                                 "tuple of real numbers")
            p["coeffs"] = tuple(_real(c, f"coeffs[{i}]") for i, c in enumerate(p["coeffs"]))
            if _spectral_radius(p["coeffs"]) >= 1.0:
                raise ValueError(f"AR coefficients coeffs={p['coeffs']} are not stationary")
        for name in ("alpha", "arch_alpha", "a", "b1", "b2"):
            if name in p:  # the read-only view shows the checked float
                p[name] = _real(p[name], name)
        for name in ("alpha", "arch_alpha"):
            if name in p and not 0.0 <= p[name] < 1.0:
                raise ValueError(f"ARCH coefficient {name}={p[name]} must lie in [0, 1)")
        for name in ("a", "b1", "b2"):
            if name in p and not abs(p[name]) < 1.0:
                raise ValueError(f"non-causal coefficient {name}={p[name]} must "
                                 f"satisfy |{name}| < 1")
        allowed = _INNOVATIONS.get(self.tag, ())
        if "innovation" in p and p["innovation"] not in allowed:
            raise ValueError(f"innovation={p['innovation']!r} is not one of {allowed} "
                             f"for {self.tag}")


@dataclass(frozen=True, eq=False)
class SimOutput:
    """A length-T series and its seed, or from the batch generators an
    (R, T) block, one row per seed, and its list of R seeds."""

    series: np.ndarray
    seed: object
    burn_in_used: int = 0
    truncation_used: int = 0

    def __post_init__(self):
        self.series.setflags(write=False)


# Named specs matching the simulation studies.
MODEL_REGISTRY = {
    "normal": ModelSpec("iid_normal"),
    "t5": ModelSpec("iid_t5"),
    "x3": ModelSpec("two_dependent"),
    "x4": ModelSpec("lobato_nonmartingale"),
    "x5": ModelSpec("arch1", {"alpha": 0.8}),
    "x6": ModelSpec("arch_times_noncausal", {"alpha": 0.8, "a": 0.8}),
    "x7": ModelSpec("pseudo_linear", {"b1": -0.8, "b2": -0.6, "arch_alpha": 0.5}),
    "x8": ModelSpec("periodic_scaled"),
    "y1": ModelSpec("ar", {"coeffs": (-0.2,), "innovation": "normal"}),
    "y2": ModelSpec("ar_times_arch", {"coeffs": (-0.2,), "alpha": 0.8}),
    "y3": ModelSpec("ar_times_arch", {"coeffs": (0.5,), "alpha": 0.8}),
    "ar_g_0.6": ModelSpec("ar", {"coeffs": (0.6,), "innovation": "normal"}),
    "ar_chi_0.6": ModelSpec("ar", {"coeffs": (0.6,), "innovation": "chi2_1"}),
    "ar_chi_0.9": ModelSpec("ar", {"coeffs": (0.9,), "innovation": "chi2_1"}),
    "pivot_i": ModelSpec("iid_normal"),
    "pivot_ii": ModelSpec("noncausal_linear", {"a": 0.6, "innovation": "t5"}),
    "pivot_iii": ModelSpec("noncausal_linear", {"a": 0.6, "innovation": "arch",
                                                "arch_alpha": 0.7}),
}


def _truncation_length(a: float) -> int:
    if a == 0.0:
        return 1
    return max(1, math.ceil(math.log(TRUNCATION_TOL) / math.log(abs(a))))


def _normal(rng: np.random.Generator, row: np.ndarray) -> None:
    rng.standard_normal(out=row)


def _t5(rng: np.random.Generator, row: np.ndarray) -> None:
    row[:] = rng.standard_t(5, row.size)


def _chi2_1(rng: np.random.Generator, row: np.ndarray) -> None:
    row[:] = rng.chisquare(1, row.size)  # used raw (mean 1); statistics demean


_DRAWS = {"normal": _normal, "t5": _t5, "chi2_1": _chi2_1}


# SeedSequence's hash constants and PCG64's LCG multiplier, from numpy's
# bit_generator and pcg64 sources (fixed by numpy's stream-compatibility policy)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645


@functools.cache
def _hash_steps(h: int, mult: int, count: int) -> tuple:
    """SeedSequence's running hash constant before and after each of its
    next ``count`` steps from h, as two (count, 1) uint32 columns."""
    hs = np.array([h * pow(mult, k, 2**32) % 2**32 for k in range(count + 1)], np.uint32)
    return hs[:-1, None], hs[1:, None]


def _hashmix(v: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    v = (v ^ a) * b
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_L - y * _MIX_R
    return v ^ (v >> 16)


def _entropy_streams(rows: np.ndarray):
    """For each row of an (R, n) uint32 block of entropy rows in turn, one
    Generator re-stated to ``default_rng(row)``'s PCG64 state.  SeedSequence's
    pool mixing and ``generate_state(4, uint64)`` run once on the (R,) word
    columns, the hashes of one source word into the four pool words as one
    (4, R) step; PCG64's srandom (two 128-bit LCG steps) runs in Python ints."""
    words = rows.T
    a, b = _hash_steps(_INIT_A, _MULT_A, 16 + 4 * max(len(words) - 4, 0))
    pool = np.zeros((4, len(rows)), np.uint32)
    pool[:len(words)] = words[:4]
    pool, c = _hashmix(pool, a[:4], b[:4]), 4
    for i in range(4):  # mix every pool word into each of the others
        k = [j for j in range(4) if j != i]
        pool[k] = _mix(pool[k], _hashmix(pool[i], a[c:c + 3], b[c:c + 3]))
        c += 3
    for word in words[4:]:  # words past the pool go into every pool word
        pool = _mix(pool, _hashmix(word, a[c:c + 4], b[c:c + 4]))
        c += 4
    w = _hashmix(np.tile(pool, (2, 1)), *_hash_steps(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    rng = np.random.Generator(np.random.PCG64(0))  # its seed is overwritten
    bitgen = rng.bit_generator
    for s0, s1, i0, i1 in zip(*(w[0::2] | w[1::2] << 32).tolist()):
        inc = (i0 << 65 | i1 << 1 | 1) % 2**128
        state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) % 2**128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        yield rng


def _draw(seeds, *parts) -> list:
    """One time-major (n, R) view per (draw, n) part, of an (R, n) array whose
    row j holds what seeds[j]'s generator draws, the parts in listed order."""
    out = [np.empty((len(seeds), n)) for _, n in parts]
    rows = isinstance(seeds, np.ndarray) and seeds.dtype == np.uint32 and seeds.ndim == 2
    rngs = _entropy_streams(seeds) if rows else map(np.random.default_rng, seeds)
    for j, rng in enumerate(rngs):
        for arr, (draw, _) in zip(out, parts):
            draw(rng, arr[j])
    return [arr.T for arr in out]


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


def _bracketed(z: np.ndarray, s: int, state: np.ndarray, run, full) -> np.ndarray:
    """The rows after the burn-in of a monotone recursion on z, from a run
    over rows s.. only.

    ``run(x)`` runs the recursion in place on x, the rows ``state`` (the
    recursion's state before step s; lower bounds in the first R columns,
    upper bounds in the last R) followed by z[s:] in both halves.  Columns
    whose two outputs differ in any bit, or hold a zero, are recomputed by
    ``full``, the full loop.
    """
    R, q = z.shape[1], len(state)
    x = np.empty((q + len(z) - s, 2 * R))
    x[:q] = state
    x[q:, :R] = x[q:, R:] = z[s:]
    run(x)
    lo, hi = x[q + BURN_IN - s:, :R], x[q + BURN_IN - s:, R:]
    miss = np.any((lo.view(np.int64) != hi.view(np.int64)) | (lo == 0.0), axis=0)
    if miss.any():
        lo[:, miss] = full(z[:, miss])
    return lo


def _arch_steps(x, alpha: float, var, sqrt) -> None:
    """ARCH(1) in place: x_t becomes y_t = sigma_t x_t, where sigma_t^2 = 1 +
    alpha y_{t-1}^2 and sigma_0^2 = var."""
    for t in range(len(x)):
        xt = sqrt(var) * x[t]
        x[t] = xt
        var = 1.0 + alpha * xt * xt


def _arch_full(z: np.ndarray, alpha: float) -> np.ndarray:
    """The full ARCH(1) loop on z, started at the stationary mean of sigma^2."""
    var = 1.0 / (1.0 - alpha)
    return _over_time(lambda x, sqrt: _arch_steps(x, alpha, var, sqrt), z)[BURN_IN:]


def _arch_var_bound(z: np.ndarray, alpha: float, s: int) -> np.ndarray:
    """2 v_s per column, where v_{t+1} = 1 + a_t v_t, a_t = alpha z_t^2 and
    v_0 = 1/(1 - alpha).  The s steps are cut into chunks of _BOUND_CHUNK; a
    chunk maps v to P v + S, P the product of its a_t and S its Horner sum,
    built for all chunks at once one position at a time, and the chunk maps
    are then applied in order."""
    a = (alpha * z[:s] ** 2).reshape(-1, _BOUND_CHUNK, z.shape[1])
    P, S = np.ones(a[:, 0].shape), np.zeros(a[:, 0].shape)
    for j in range(_BOUND_CHUNK):
        P *= a[:, j]
        S = a[:, j] * S + 1.0
    v = np.full(z.shape[1], 1.0 / (1.0 - alpha))
    for P_i, S_i in zip(P, S):
        v = P_i * v + S_i
    return 2.0 * v


def _arch(z: np.ndarray, alpha: float) -> np.ndarray:
    """ARCH(1) on the innovations z, x_t = sigma_t z_t: the rows after the
    burn-in of the full loop, certified from a short run for R >= 2."""
    R = z.shape[1]
    if R < 2:
        return _arch_full(z, alpha)
    s = BURN_IN - ARCH_K
    var = np.concatenate([np.ones(R), _arch_var_bound(z, alpha, s)])
    return _bracketed(z, s, np.empty((0, 2 * R)),
                      lambda x: _arch_steps(x, alpha, var, np.sqrt),
                      lambda zc: _arch_full(zc, alpha))


def _ar_steps(x, coeffs: tuple, first: int) -> None:
    """AR(p) in place from row ``first`` on: e_t becomes x_t = e_t + phi_1
    x_{t-1} + ... + phi_p x_{t-p}, the terms added in order of lag; terms
    before row 0 are left out."""
    for t in range(first, len(x)):
        for m, c in enumerate(coeffs[:t], start=1):
            x[t] += c * x[t - m]


def _ar_full(e: np.ndarray, coeffs: tuple) -> np.ndarray:
    """The full AR(p) loop on e, started from x_t = 0 for t < 0."""
    return _over_time(lambda x, sqrt: _ar_steps(x, coeffs, 0), e)[BURN_IN:]


def _ar_short_steps(coeffs: tuple) -> int:
    """K = ceil(100 ln 2 / -ln rho), rho the companion spectral radius."""
    rho = _spectral_radius(coeffs)
    return math.ceil(100.0 * math.log(2.0) / -math.log(rho)) if rho > 0.0 else 0


def _ar(e: np.ndarray, coeffs) -> np.ndarray:
    """AR(p) on the innovations e: the rows after the burn-in of the full
    loop, certified from a short run for R >= 2 and sign-monotone
    coefficients."""
    coeffs = tuple(coeffs)
    p, R = len(coeffs), e.shape[1]
    # the sign pattern of the lags: phi_m >= 0, or (-1)^m phi_m >= 0, for all m
    sign = next((sg for sg in (np.ones(p), (-1.0) ** np.arange(1, p + 1))
                 if np.all(sg * coeffs >= 0.0)), None)
    if R == 1 or sign is None or (K := _ar_short_steps(coeffs)) >= BURN_IN - p:
        return _ar_full(e, coeffs)
    s = BURN_IN - K
    # max |e_t| as max(max e, -min e), with no |e| copy; sum |phi_m| <= rho < 1
    # for sign-monotone coefficients
    top = np.maximum(e[:s].max(axis=0), -e[:s].min(axis=0))
    bound = 2.0 * top / (1.0 - sum(abs(c) for c in coeffs))
    edge = sign[::-1, None] * bound  # rows: lags p .. 1
    return _bracketed(e, s, np.concatenate([-edge, edge], axis=1),
                      lambda x: _ar_steps(x, coeffs, p),
                      lambda ec: _ar_full(ec, coeffs))


def _noncausal_filter(eps: np.ndarray, a: float, T: int, J: int) -> np.ndarray:
    """Apply x_t = sum_{j=0..J} a^j e_{t-j} - a/(1-a^2) e_{t+1} to each column.

    ``eps`` must hold innovations for t = 1-J .. T+1 (T + J + 1 rows);
    row i corresponds to time t = i + 1 - J.
    """
    coeffs = a ** np.arange(J + 1)
    causal = np.empty((T, eps.shape[1]))
    for col in range(eps.shape[1]):
        # valid[i] = sum_j coeffs[j] eps[i+J-j], full[i+J]'s bits; rows 0 .. T-1 are t = 1..T
        causal[:, col] = np.convolve(eps[:, col], coeffs, mode="valid")[:T]
    future = eps[J + 1 : J + 1 + T]  # e_{t+1}
    return causal - a / (1.0 - a * a) * future


def _length(T) -> int:
    """The generators' length rule: the integer rule, then T >= 2."""
    T = _integer(T, "T")
    if T < 2:
        raise ValueError("T must be >= 2")
    return T


def generate_batch(spec: ModelSpec, T: int, seeds) -> SimOutput:
    """Draw one length-T realisation per seed as the rows of an (R, T) block.

    Row j is bit-identical to ``generate(spec, T, seeds[j]).series``: each
    replication draws its innovations from ``default_rng(seeds[j])`` in the
    same order as a single draw, into a row per replication, and the
    recursions give every replication the full loop's output (see the module
    docstring).  ``seeds`` may be an (R, n) uint32 block of entropy rows,
    whose generator states are built for the whole block at once and equal
    ``default_rng(row)``'s.
    """
    T = _length(T)
    tag, p = spec.tag, spec.params
    n = T + BURN_IN
    burn, trunc = 0, 0

    if tag == "iid_normal":
        (x,) = _draw(seeds, (_normal, T))
    elif tag == "iid_t5":
        (x,) = _draw(seeds, (_t5, T))
    elif tag == "two_dependent":
        (z,) = _draw(seeds, (_normal, T + 1))
        x = z[1:] * z[:-1]
    elif tag == "lobato_nonmartingale":
        (z,) = _draw(seeds, (_normal, T + 2))
        zt, zm1, zm2 = z[2:], z[1:-1], z[:-2]
        x = zm1 * zm2 * (zm1 + zt + 1.0)
    elif tag == "arch1":
        (z,) = _draw(seeds, (_normal, n))
        x = _arch(z, p["alpha"])
        burn = BURN_IN
    elif tag == "arch_times_noncausal":
        J = _truncation_length(p["a"])
        z, eps = _draw(seeds, (_normal, n), (_normal, T + J + 1))
        v = _noncausal_filter(eps, p["a"], T, J)
        x = np.abs(_arch(z, p["alpha"])) * v
        burn, trunc = BURN_IN, J
    elif tag == "pseudo_linear":
        b1, b2 = p["b1"], p["b2"]
        J1, J2 = _truncation_length(b1), _truncation_length(b2)
        # inner filter needs J2 extra history plus one future value
        n1 = T + J1 + 1
        (z,) = _draw(seeds, (_normal, n1 + J2 + 1 + BURN_IN))
        u2 = _arch(z, p["arch_alpha"])
        u1 = _noncausal_filter(u2, b2, n1, J2)
        x = _noncausal_filter(u1, b1, T, J1)
        burn, trunc = BURN_IN, max(J1, J2)
    elif tag == "periodic_scaled":
        (z,) = _draw(seeds, (_normal, T + 1))
        base = z[1:] * z[:-1]
        scale = np.resize(np.asarray(PERIODIC_SCALE, dtype=float), T)
        x = scale[:, None] * base
    elif tag == "noncausal_linear":
        trunc = _truncation_length(p["a"])
        if p["innovation"] == "arch":
            (z,) = _draw(seeds, (_normal, T + trunc + 1 + BURN_IN))
            eps = _arch(z, p["arch_alpha"])
            burn = BURN_IN
        else:
            (eps,) = _draw(seeds, (_DRAWS[p["innovation"]], T + trunc + 1))
        x = _noncausal_filter(eps, p["a"], T, trunc)
    elif tag == "ar":
        (e,) = _draw(seeds, (_DRAWS[p["innovation"]], n))
        x = _ar(e, p["coeffs"])
        burn = BURN_IN
    elif tag == "ar_times_arch":
        e, z = _draw(seeds, (_normal, n), (_normal, n))
        x = _ar(e, p["coeffs"]) * np.abs(_arch(z, p["alpha"]))
        burn = BURN_IN

    return SimOutput(series=np.ascontiguousarray(x.T, dtype=float), seed=list(seeds),
                     burn_in_used=burn, truncation_used=trunc)


def generate(spec: ModelSpec, T: int, seed) -> SimOutput:
    """Draw a length-T realisation of the model; deterministic in (spec, T, seed)."""
    block = generate_batch(spec, T, [seed])
    return SimOutput(series=block.series[0], seed=seed,
                     burn_in_used=block.burn_in_used,
                     truncation_used=block.truncation_used)


def _check_bivariate(delta: float, rho: float) -> None:
    """ValueError naming the key unless corr(e, n) = rho lies in [-1, 1] and
    Y's AR(2) coefficients (0.8, delta) are stationary."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho={rho}: innovation correlation must lie in [-1, 1]")
    if not math.isfinite(delta) or _spectral_radius((0.8, delta)) >= 1.0:
        raise ValueError(f"delta={delta}: (0.8, {delta}) is not a stationary AR(2)")


def generate_bivariate_batch(delta: float, rho: float, T: int, seeds
                             ) -> tuple[SimOutput, SimOutput]:
    """The X and Y paths of ``generate_bivariate`` for every seed, as the
    rows of two (R, T) blocks; row j is bit-identical to the pair drawn from
    seeds[j].

    At most both innovation blocks, one recursion's bracket and X's series
    are alive at once: X's series is copied out of its bracket, and its
    innovations dropped, before Y's recursion runs."""
    _check_bivariate(delta, rho)
    n = _length(T) + BURN_IN
    e, w = _draw(seeds, (_normal, n), (_normal, n))
    # eta = rho e + sqrt(1 - rho^2) w, built in w's storage a row at a time
    w *= math.sqrt(max(0.0, 1.0 - rho * rho))
    for j in range(w.shape[1]):
        w[:, j] += rho * e[:, j]
    x = np.ascontiguousarray(_ar(e, (0.8,)).T)
    del e
    y = np.ascontiguousarray(_ar(w, (0.8, delta)).T)
    return tuple(SimOutput(series=s, seed=list(seeds), burn_in_used=BURN_IN) for s in (x, y))


def generate_bivariate(delta: float, rho: float, T: int, seed
                       ) -> tuple[SimOutput, SimOutput]:
    """X_t = 0.8 X_{t-1} + e_t and Y_t = 0.8 Y_{t-1} + delta Y_{t-2} + n_t,
    with jointly Gaussian unit-variance innovation pairs, corr(e, n) = rho.
    """
    return tuple(SimOutput(series=s.series[0], seed=seed, burn_in_used=BURN_IN)
                 for s in generate_bivariate_batch(delta, rho, T, [seed]))

