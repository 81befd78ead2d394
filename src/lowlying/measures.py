"""The vertical eigenvalue-pair measure mu_p at a fixed prime.

The measure at prime p lives on the square [-2,2]^2 of normalized
eigenvalue coordinates, symmetric under coordinate swap.  Its density is
the product of a rational factor, two reflection factors, and the
semicircle-pair density, divided by its exact total mass
2(p+1)^2/(p^2+1).

Its array passes, the sampler's rejection rounds and the envelope's
401^2 grid, evaluate at most `_POINTS` points at a time, so a sample's
memory beyond its output is one slice plus 8 bytes a point for the
pending indices, however many points are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import rng as _rng
from .quadrature import adaptive_tensor
from .summary import NumericFailure, _check_seed, _integer, _is_prime

__all__ = [
    "MeasureSpec",
    "vertical_measure",
    "density_mu_p",
    "integrate",
    "sample_array",
]


# check_prime names a composite's least factor when it is below this
_FACTOR_SEARCH = 2 ** 16


def check_prime(p):
    """Validate a prime modulus by `summary._is_prime`."""
    n = _integer(p, "p must be a prime >= 2")
    if n < 2:
        raise ValueError("p must be a prime >= 2, got %d" % (n,))
    if _is_prime(n):
        return n
    for d in range(2, min(math.isqrt(n), _FACTOR_SEARCH) + 1):
        if n % d == 0:
            raise ValueError("p must be prime, got %d = %d * %d" % (n, d, n // d))
    raise ValueError("p must be prime, got %d" % (n,))


@dataclass(frozen=True)
class MeasureSpec:
    """The vertical measure at prime p, checked by `check_prime`."""

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", check_prime(self.p))

    @property
    def normalization(self) -> float:
        """The closed-form full-square mass 2(p+1)^2/(p^2+1) of the
        density formula, rounded once; evaluation and integration divide
        by it, so the normalized density integrates to 1."""
        return 2 * (self.p + 1) ** 2 / (self.p * self.p + 1)


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
    """Measure spec at prime p."""
    return MeasureSpec(p)


# below this error the estimate stalls at the rounding floor (2.4e-16
# for the density's normalization) and the node cap comes first
_TOL_FLOOR = 1e-15


def integrate(spec: MeasureSpec, integrand: Callable, tol=1e-8):
    """Expectation of integrand(x, y) under the normalized measure.

    integrand must accept equal-length coordinate arrays and broadcast.
    The substitution x = 2 cos(alpha), y = 2 cos(beta) makes the
    integrand even, 2 pi-periodic and smooth on [0, pi]^2, where the
    doubling midpoint rule of adaptive_tensor converges geometrically.
    Raises ValueError for a `tol` below _TOL_FLOOR before any
    evaluation, and QuadratureError when the node cap cannot meet `tol`.
    """
    if not tol >= _TOL_FLOOR:  # NaN fails this too
        raise ValueError("tol must be positive and at least %g, the error "
                         "double arithmetic can reach, got %g"
                         % (_TOL_FLOOR, tol))

    def f(al, be):
        x = 2.0 * np.cos(al)
        y = 2.0 * np.cos(be)
        d = _raw_density(spec.p, x, y) / spec.normalization
        g = np.broadcast_to(np.asarray(integrand(x, y), dtype=float), x.shape)
        return g * d * 4.0 * np.sin(al) * np.sin(be)

    return adaptive_tensor(f, (0.0, math.pi, 0.0, math.pi), tol)[0]


# the most points one array pass below evaluates at once: the envelope
# grid goes in row blocks and each rejection round in index slices of at
# most this many, so neither pass's temporaries grow with the count
_POINTS = 2 ** 15


@lru_cache(maxsize=64)
def _envelope(spec: MeasureSpec):
    """1.05 times the density's largest value on the 401^2 grid over
    [-2,2]^2; a max is exact, so the row blocks do not change it."""
    g = np.linspace(-2.0, 2.0, 401)
    rows = max(1, _POINTS // g.size)
    return 1.05 * max(
        float(np.max(density_mu_p(spec, g[i:i + rows, None], g[None, :])))
        for i in range(0, g.size, rows))


_MAX_ATTEMPTS = 4096


def sample_array(spec: MeasureSpec, seed, count):
    """Rejection-sample `count` points; returns an array of shape (count, 2).

    The draws come from the stream (seed, p), and each draw consumes its
    own (index, attempt) substream, so the result is independent of
    batching.  Each round runs over the pending indices in slices of
    `_POINTS` and compacts the rejected ones into the front of the one
    index array.
    """
    seed = _integer(seed, "seed must be an integer")
    _check_seed(seed)
    count = _integer(count, "count must be an integer")
    if count < 1:
        raise ValueError("count must be >= 1")
    env = _envelope(spec)
    out = np.empty((count, 2))
    pending = np.arange(count, dtype=np.uint64)
    attempt = 0
    while pending.size:
        if attempt >= _MAX_ATTEMPTS:
            raise NumericFailure(
                "rejection budget %d exhausted with %d draws pending"
                % (_MAX_ATTEMPTS, pending.size))
        kept = 0
        for start in range(0, pending.size, _POINTS):
            index = pending[start:start + _POINTS]
            u = _rng.uniforms(seed, spec.p, index, attempt, 3)
            x = 4.0 * u[:, 0] - 2.0
            y = 4.0 * u[:, 1] - 2.0
            d = density_mu_p(spec, x, y)
            if np.any(d > env):
                raise NumericFailure(
                    "density %.6g exceeds cached envelope %.6g (stale bound)"
                    % (float(d.max()), env))
            acc = u[:, 2] * env <= d
            sel = index[acc]
            out[sel, 0] = x[acc]
            out[sel, 1] = y[acc]
            # kept <= start: the rejected land behind the unread slices
            rejected = index[~acc]
            pending[kept:kept + rejected.size] = rejected
            kept += rejected.size
        pending = pending[:kept]
        attempt += 1
    return out
