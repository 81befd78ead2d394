"""The vertical eigenvalue-pair measure mu_p at a fixed prime.

The measure at prime p lives on the square [-2,2]^2 of normalized
eigenvalue coordinates, symmetric under coordinate swap.  Its density is
the product of a rational factor, two reflection factors, and the
semicircle-pair density, divided by its exact total mass
2(p+1)^2/(p^2+1).
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
    """The vertical measure at prime p.

    `normalization` is the closed-form full-square mass 2(p+1)^2/(p^2+1)
    of the density formula; evaluation and integration divide by it, so
    the normalized density integrates to 1.
    """

    p: int
    normalization: float


def _raw_density(p, x, y):
    """Unnormalized density at prime p: a rational factor, two reflection
    factors and the semicircle-pair density, multiplied in that order.

    For a prime p >= 2 and |x|, |y| <= 2 every denominator is at least
    p - 2 + 1/p >= 1/2: with x = 2cos(a), y = 2cos(b) the reflection
    denominators are big - 2(1 + cos(a -+ b)), and big - x^2 is larger.
    """
    sx = np.sqrt(np.clip(1.0 - x * x / 4.0, 0.0, None))
    sy = np.sqrt(np.clip(1.0 - y * y / 4.0, 0.0, None))
    big = p + 2.0 + 1.0 / p  # (sqrt(p) + 1/sqrt(p))^2
    rational = (p + 1.0) ** 2 / ((big - x * x) * (big - y * y))
    mixed = 1.0 + x * y / 4.0
    root = sx * sy
    plus = (p + 1.0) / (big - 2.0 * (mixed + root))
    minus = (p + 1.0) / (big - 2.0 * (mixed - root))
    # the semicircle-pair factor multiplies sx and sy one at a time, not
    # root: the rounding stays that of the factor formulas
    return rational * plus * minus * ((x - y) ** 2 / math.pi ** 2 * sx * sy)


def density_mu_p(spec: MeasureSpec, x, y):
    """Normalized density of the vertical measure at points of [-2,2]^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(x) > 2.0 + 1e-12) or np.any(np.abs(y) > 2.0 + 1e-12):
        raise ValueError("coordinates must lie in [-2,2]")
    return _raw_density(spec.p, x, y) / spec.normalization


def vertical_measure(p) -> MeasureSpec:
    """Measure spec at prime p with its exact mass, rounded once."""
    p = check_prime(p)
    return MeasureSpec(p, 2 * (p + 1) ** 2 / (p * p + 1))


def integrate(spec: MeasureSpec, integrand: Callable, tol=1e-8):
    """Expectation of integrand(x, y) under the normalized measure.

    integrand must accept equal-length coordinate arrays and broadcast.
    Raises QuadratureError when the panel budget cannot meet `tol`.
    """
    # substitute x = 2 cos(alpha): the boundary square roots become smooth
    def f(al, be):
        x = 2.0 * np.cos(al)
        y = 2.0 * np.cos(be)
        d = _raw_density(spec.p, x, y) / spec.normalization
        g = np.broadcast_to(np.asarray(integrand(x, y), dtype=float), x.shape)
        return g * d * 4.0 * np.sin(al) * np.sin(be)

    return adaptive_tensor(f, (0.0, math.pi, 0.0, math.pi), tol)[0]


@lru_cache(maxsize=64)
def _envelope(spec: MeasureSpec):
    g = np.linspace(-2.0, 2.0, 401)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    return 1.05 * float(np.max(density_mu_p(spec, xx.ravel(), yy.ravel())))


_MAX_ATTEMPTS = 4096


def sample_array(spec: MeasureSpec, seed, count):
    """Rejection-sample `count` points; returns an array of shape (count, 2).

    The draws come from the stream (seed, p), and each draw consumes its
    own (index, attempt) substream, so the result is independent of
    batching.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    env = _envelope(spec)
    out = np.empty((count, 2))
    pending = np.arange(count, dtype=np.uint64)
    attempt = 0
    while pending.size:
        if attempt >= _MAX_ATTEMPTS:
            raise RejectionBudgetError(
                "rejection budget %d exhausted with %d draws pending"
                % (_MAX_ATTEMPTS, pending.size))
        u = _rng.uniforms(seed, spec.p, pending, attempt, 3)
        x = 4.0 * u[:, 0] - 2.0
        y = 4.0 * u[:, 1] - 2.0
        d = density_mu_p(spec, x, y)
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
