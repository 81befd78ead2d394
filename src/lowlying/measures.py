"""Vertical eigenvalue-pair measures at a fixed prime and their limit.

The measure at prime p lives on the square [-2,2]^2 of normalized
eigenvalue coordinates, symmetric under coordinate swap.  Its density is
the product of a rational factor, two reflection factors, and the
limiting semicircle-pair density; total mass is normalized to 1
empirically, once per prime, by adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import rng as _rng
from .quadrature import adaptive_tensor

__all__ = [
    "MeasureSpec",
    "EnvelopeViolation",
    "RejectionBudgetError",
    "vertical_measure",
    "limit_measure",
    "density_f",
    "density_g",
    "density_st_inf",
    "density_mu_p",
    "integrate",
    "sample_array",
]


class EnvelopeViolation(RuntimeError):
    """A density evaluation exceeded the cached rejection envelope."""


class RejectionBudgetError(RuntimeError):
    """Rejection sampling used up its attempt budget."""


def check_prime(p):
    """Validate a prime modulus by trial division (inputs are small)."""
    n = int(p)
    if n != p or n < 2:
        raise ValueError("p must be a prime >= 2, got %r" % (p,))
    d = 2
    while d * d <= n:
        if n % d == 0:
            raise ValueError("p must be prime, got %d = %d * %d" % (n, d, n // d))
        d += 1
    return n


@dataclass(frozen=True)
class MeasureSpec:
    """A measure on the square: the vertical one at prime p, or the limit.

    `normalization` is the raw full-square mass of the density formula;
    all evaluation and integration routines divide by it, so the
    normalized density always integrates to 1.
    """

    kind: str  # "vertical" or "limit"
    p: int | None
    normalization: float

    def __post_init__(self):
        if self.kind not in ("vertical", "limit"):
            raise ValueError("kind must be 'vertical' or 'limit'")
        if self.kind == "vertical" and self.p is None:
            raise ValueError("vertical measure needs a prime")
        if not self.normalization > 0:
            raise ValueError("normalization must be positive")


def _as_xy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(x) > 2.0 + 1e-12) or np.any(np.abs(y) > 2.0 + 1e-12):
        raise ValueError("coordinates must lie in [-2,2]")
    return x, y


def _ret(x, y, v):
    if np.isscalar(x) and np.isscalar(y):
        return float(v)
    return v


def density_f(p, x, y):
    """Rational density factor at prime p; symmetric and positive on the square."""
    p = check_prime(p)
    xa, ya = _as_xy(x, y)
    big = p + 2.0 + 1.0 / p  # (sqrt(p) + 1/sqrt(p))^2
    den = (big - xa * xa) * (big - ya * ya)
    if np.any(den <= 0.0):
        raise ValueError("density_f denominator not positive at p=%d" % p)
    return _ret(x, y, (p + 1.0) ** 2 / den)


def density_g(p, x, y, sign):
    """Reflection density factor at prime p with a +/-1 branch choice."""
    p = check_prime(p)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1, got %r" % (sign,))
    xa, ya = _as_xy(x, y)
    big = p + 2.0 + 1.0 / p
    root = np.sqrt(np.clip(1.0 - xa * xa / 4.0, 0.0, None)) \
        * np.sqrt(np.clip(1.0 - ya * ya / 4.0, 0.0, None))
    den = big - 2.0 * (1.0 + xa * ya / 4.0 + sign * root)
    if np.any(den <= 0.0):
        bad = np.argmax(den <= 0.0)
        raise ValueError(
            "density_g denominator not positive at p=%d sign=%+d near index %s"
            % (p, sign, bad))
    return _ret(x, y, (p + 1.0) / den)


def density_st_inf(x, y):
    """Limiting pair density: squared difference times semicircle roots."""
    xa, ya = _as_xy(x, y)
    v = ((xa - ya) ** 2 / math.pi ** 2) \
        * np.sqrt(np.clip(1.0 - xa * xa / 4.0, 0.0, None)) \
        * np.sqrt(np.clip(1.0 - ya * ya / 4.0, 0.0, None))
    return _ret(x, y, v)


def _raw_density(kind, p, x, y):
    if kind == "limit":
        return density_st_inf(x, y)
    return density_f(p, x, y) * density_g(p, x, y, 1) \
        * density_g(p, x, y, -1) * density_st_inf(x, y)


def density_mu_p(spec: MeasureSpec, x, y):
    """Normalized density of the measure described by `spec`."""
    v = _raw_density(spec.kind, spec.p, x, y) / spec.normalization
    return _ret(x, y, np.asarray(v))


def _angle_integral(kind, p, integrand, normalization, tol, max_panels):
    # substitute x = 2 cos(alpha): the boundary square roots become smooth
    def f(al, be):
        x = 2.0 * np.cos(al)
        y = 2.0 * np.cos(be)
        d = _raw_density(kind, p, x, y) / normalization
        g = np.broadcast_to(np.asarray(integrand(x, y), dtype=float), x.shape)
        return g * d * 4.0 * np.sin(al) * np.sin(be)

    return adaptive_tensor(f, (0.0, math.pi, 0.0, math.pi), tol,
                           max_panels=max_panels)


@lru_cache(maxsize=64)
def _raw_mass(kind, p):
    return _angle_integral(kind, p, lambda x, y: np.ones_like(x),
                           1.0, 1e-9, 40000)[0]


def vertical_measure(p) -> MeasureSpec:
    """Measure spec at prime p with its normalization computed by quadrature."""
    p = check_prime(p)
    return MeasureSpec("vertical", p, _raw_mass("vertical", p))


def limit_measure() -> MeasureSpec:
    """Large-prime limit measure with empirically computed normalization."""
    return MeasureSpec("limit", None, _raw_mass("limit", None))


def integrate(spec: MeasureSpec, integrand: Callable, tol=1e-8,
              max_panels=20000):
    """Expectation of integrand(x, y) under the normalized measure.

    integrand must accept equal-length coordinate arrays and broadcast.
    Raises QuadratureError when the panel budget cannot meet `tol`.
    """
    val, _, _ = _angle_integral(spec.kind, spec.p, integrand,
                                spec.normalization, tol, max_panels)
    return val


@lru_cache(maxsize=64)
def _envelope(spec: MeasureSpec):
    g = np.linspace(-2.0, 2.0, 401)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    return 1.05 * float(np.max(density_mu_p(spec, xx.ravel(), yy.ravel())))


def _stream_address(spec: MeasureSpec, rng):
    if isinstance(rng, tuple):
        seed, stream = rng
        return int(seed), int(stream)
    return int(rng), (spec.p if spec.kind == "vertical" else 1)


_MAX_ATTEMPTS = 4096


def sample_array(spec: MeasureSpec, rng, count):
    """Rejection-sample `count` points; returns an array of shape (count, 2).

    Each draw consumes its own (index, attempt) substream, so the result
    is independent of batching.  `rng` is an integer seed, or a
    (seed, stream) pair to select an explicit substream.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    seed, stream = _stream_address(spec, rng)
    env = _envelope(spec)
    out = np.empty((count, 2))
    pending = np.arange(count, dtype=np.uint64)
    attempt = 0
    while pending.size:
        if attempt >= _MAX_ATTEMPTS:
            raise RejectionBudgetError(
                "rejection budget %d exhausted with %d draws pending"
                % (_MAX_ATTEMPTS, pending.size))
        u = _rng.uniforms(seed, stream, pending, attempt, 3)
        x = 4.0 * u[:, 0] - 2.0
        y = 4.0 * u[:, 1] - 2.0
        d = np.asarray(density_mu_p(spec, x, y))
        if np.any(d > env):
            raise EnvelopeViolation(
                "density %.6g exceeds cached envelope %.6g (stale bound)"
                % (float(d.max()), env))
        acc = u[:, 2] * env <= d
        sel = pending[acc]
        out[sel, 0] = x[acc]
        out[sel, 1] = y[acc]
        pending = pending[~acc]
        attempt += 1
    return out
