"""Deterministic quadrature: fixed Gauss-Legendre panels and a doubling
tensor midpoint rule.

The midpoint rule on [0, pi]^2 is the trapezoid rule on the periodic
extension of an integrand that is even about each edge, so for the
smooth integrands of measures.integrate in angle coordinates it
converges geometrically (Trefethen and Weideman, The exponentially
convergent trapezoidal rule, SIAM Review 2014).  Each rule is one call
of the integrand, summed exactly rounded as one column by
summary._column_sums (the value math.fsum gives), so the result is the
same bit for bit on every run.
"""

from functools import lru_cache

import numpy as np

from .summary import NumericFailure, _column_sums

__all__ = [
    "QuadratureError",
    "gauss_legendre",
    "panel_grid",
    "adaptive_tensor",
]


class QuadratureError(NumericFailure):
    """Raised when the node cap is reached before the tolerance.

    Carries the best available estimate and its error bound so callers
    can report how far the run got.
    """

    def __init__(self, message, estimate, error):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


# Newton steps from Tricomi's starting points, whose error is O(n^-4);
# three reach rounding level from order 2 up, and one more is spare
_NEWTON_STEPS = 4


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
    return p, n * (prev - x * p) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=64)
def gauss_legendre(order):
    """Nodes and weights on [-1, 1], cached per order and read-only.

    The nodes in (0, 1) are the roots of P_n found by Newton's method on
    the three-term recurrence (as in Hale and Townsend, SIAM J. Sci.
    Comput. 2013), the weights 2 / ((1 - x^2) P_n'(x)^2).  The left half
    is their mirror image and an odd order's middle node is 0, so the
    nodes are exactly antisymmetric and the weights exactly symmetric."""
    if order < 1:
        raise ValueError("order must be positive, got %r" % (order,))
    k = np.arange(1, order // 2 + 1)
    x = (1.0 - (order - 1.0) / (8.0 * order ** 3)) * np.cos(
        np.pi * (k - 0.25) / (order + 0.5))  # descending
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(order, x)
        x = x - p / dp
    x = np.append(x, np.zeros(order % 2))
    w = 2.0 / ((1.0 - x) * (1.0 + x) * _legendre(order, x)[1] ** 2)
    half = order // 2
    nodes = np.concatenate([-x[:half], x[::-1]])
    weights = np.concatenate([w[:half], w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def panel_grid(a, b, n_panels, order):
    """Composite Gauss-Legendre rule on [a, b] with equal panels.

    Returns (nodes, weights) as flat arrays of length n_panels * order.
    """
    x, w = gauss_legendre(order)
    edges = np.linspace(a, b, n_panels + 1)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    nodes = (0.5 * (hi - lo) * (x[None, :] + 1.0) + lo).ravel()
    weights = (0.5 * (hi - lo) * w[None, :]).ravel()
    return nodes, weights


# nodes per side of the first midpoint rule, and the most a rule may
# have: a call of f gets at most _M_MAX ** 2 points
_M_START = 32
_M_MAX = 512


def _midpoint(f, box, m):
    """The m x m tensor midpoint rule on (x0, x1, y0, y1), in one call of f."""
    x0, x1, y0, y1 = box
    t = (np.arange(m) + 0.5) / m
    fv = f(np.repeat(x0 + (x1 - x0) * t, m), np.tile(y0 + (y1 - y0) * t, m))
    fv = np.asarray(fv, dtype=float)
    return (x1 - x0) * (y1 - y0) / (m * m) * _column_sums(fv[:, None])[0]


def adaptive_tensor(f, box, tol):
    """Integrate f over a rectangle to absolute tolerance `tol` > 0.

    f must accept flat arrays (x, y) and return values of the same
    length.  Returns (value, error_estimate, node_count): the value of
    the m x m midpoint rule, m doubling from _M_START, once it differs
    from the previous rule's by at most tol / 2, that difference, and
    m * m.  Raises QuadratureError when m reaches _M_MAX first.

    Convergence is geometric when f's even reflection about each edge
    of the box is smooth and periodic, as for an integrand in angle
    coordinates on [0, pi]^2.  Otherwise the midpoint error falls 4x
    per doubling, so the difference still covers the error of the finer
    rule, but the cap comes sooner.
    """
    if not tol > 0:
        raise ValueError("tol must be positive, got %r" % (tol,))
    m = _M_START
    coarse = _midpoint(f, box, m)
    while True:
        m *= 2
        value = _midpoint(f, box, m)
        error = abs(value - coarse)
        if error <= 0.5 * tol:
            return value, error, m * m
        if m >= _M_MAX:
            raise QuadratureError(
                "node cap %d^2 reached: error %.3e > tol %.3e"
                % (_M_MAX, error, tol), value, error)
        coarse = value
