"""Truncated radius distributions for the ball-carving construction.

Two laws drive the random carving radii:

* the truncated exponential on [l, M] with rate ``lam``, density
  proportional to exp(-lam*z) on the window, and
* the truncated geometric on {1..M} with success probability ``p``, whose
  mass at M absorbs the whole geometric tail so the masses sum to 1 in
  closed form.

Tail and conditional probabilities are evaluated with expm1/log1p forms so
small rates do not lose precision to cancellation.  Sampling is inverse
transform from a single uniform stream, which makes every draw a
deterministic function of (params, seed, draw index).

Each law owns its truncation ``window`` (l, M) and ``sample(rng, size)``,
the one radius-drawing path of carving, the harness and the resampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TexpParams",
    "TgeoParams",
    "texp_tail",
    "texp_cdf",
    "texp_conditional",
    "sample_texp",
    "tgeo_pmf",
    "tgeo_tail",
    "tgeo_conditional",
    "sample_tgeo",
]


@dataclass(frozen=True)
class TexpParams:
    """Truncated exponential on [l, M] with rate lam (all > 0, l < M)."""

    lam: float
    l: float
    M: float

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValueError("rate must be positive")
        if not (0 < self.l < self.M):
            raise ValueError("need 0 < l < M")

    @property
    def in_estimate_regime(self) -> bool:
        """Whether (M - l) * lam >= 2 and l * lam <= 1.

        The tail and conditional estimates 4*exp(-lam*beta) and 2*lam*beta
        are only guaranteed under these hypotheses; experiments may probe
        outside the regime, so this is recorded, not enforced.
        """
        return (self.M - self.l) * self.lam >= 2 and self.l * self.lam <= 1

    @property
    def window(self) -> tuple:
        return self.l, self.M

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return sample_texp(self, rng, size)


@dataclass(frozen=True)
class TgeoParams:
    """Truncated geometric on {1..M}: mass p*(1-p)**(n-1) for n < M and
    (1-p)**(M-1) at n = M."""

    p: float
    M: int

    def __post_init__(self):
        if not (0 < self.p < 1):
            raise ValueError("need 0 < p < 1")
        if int(self.M) != self.M or self.M < 2:
            raise ValueError("M must be an integer >= 2")
        object.__setattr__(self, "M", int(self.M))

    @property
    def window(self) -> tuple:
        """Truncation window (1, M) of the radii, as floats."""
        return 1.0, float(self.M)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` radii in {1..M}, as floats."""
        return sample_tgeo(self, rng, size).astype(float)


def texp_tail(params: TexpParams, beta: float) -> float:
    """P[t >= beta] for the truncated exponential, beta in [l, M]."""
    lam, l, M = params.lam, params.l, params.M
    if not (l <= beta <= M):
        raise ValueError(f"beta must lie in [{l}, {M}]")
    # exp(-lam*(beta-l)) * (1 - exp(-lam*(M-beta))) / (1 - exp(-lam*(M-l)))
    return math.exp(-lam * (beta - l)) * math.expm1(-lam * (M - beta)) / math.expm1(-lam * (M - l))


def texp_cdf(params: TexpParams, z) -> np.ndarray:
    """P[t <= z], vectorized; clamps outside [l, M]."""
    lam, l, M = params.lam, params.l, params.M
    z = np.clip(np.asarray(z, dtype=float), l, M)
    return np.expm1(-lam * (z - l)) / np.expm1(-lam * (M - l))


def texp_conditional(params: TexpParams, alpha: float, beta: float) -> float:
    """P[t <= alpha + beta | t >= alpha] in closed form.

    Requires alpha >= l, beta >= 0 and alpha + beta < M.
    """
    lam, l, M = params.lam, params.l, params.M
    if alpha < l:
        raise ValueError("alpha must be >= l")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if alpha + beta >= M:
        raise ValueError("need alpha + beta < M")
    return math.expm1(-lam * beta) / math.expm1(-lam * (M - alpha))


def sample_texp(params: TexpParams, rng: np.random.Generator, size=None):
    """Inverse-transform samples; output always lies in [l, M]."""
    lam, l, M = params.lam, params.l, params.M
    u = rng.random(size)
    z = l - np.log1p(u * np.expm1(-lam * (M - l))) / lam
    return float(z) if size is None else z


def tgeo_pmf(params: TgeoParams, n: int) -> float:
    """Exact mass at n in {1..M}."""
    p, M = params.p, params.M
    if int(n) != n or not (1 <= n <= M):
        raise ValueError(f"n must be an integer in 1..{M}")
    n = int(n)
    if n == M:
        return (1 - p) ** (M - 1)
    return p * (1 - p) ** (n - 1)


def tgeo_tail(params: TgeoParams, n: int) -> float:
    """P[t >= n] = (1-p)**(n-1) for n in {1..M}."""
    p, M = params.p, params.M
    if int(n) != n or not (1 <= n <= M):
        raise ValueError(f"n must be an integer in 1..{M}")
    return (1 - p) ** (int(n) - 1)


def tgeo_conditional(params: TgeoParams, m: int, n: int) -> float:
    """P[t <= m + n | t >= m] = 1 - (1-p)**(n+1), for m, n >= 1, m + n < M."""
    p, M = params.p, params.M
    if int(m) != m or int(n) != n or m < 1 or n < 1:
        raise ValueError("m and n must be integers >= 1")
    if m + n >= M:
        raise ValueError("need m + n < M")
    return -math.expm1((n + 1) * math.log1p(-p))


def sample_tgeo(params: TgeoParams, rng: np.random.Generator, size=None):
    """Inverse-transform samples over the exact pmf; values in {1..M}."""
    p, M = params.p, params.M
    u = rng.random(size)
    raw = np.ceil(np.log1p(-u) / math.log1p(-p))
    out = np.clip(raw, 1, M).astype(np.int64)
    return int(out) if size is None else out

