"""Deterministic quadrature: the midpoint rule on an interval and a
doubling tensor midpoint rule on a rectangle.

On the line the midpoint rule of step h is exact, by Poisson summation,
for an integrable function band-limited below 1 / h, as the integrands
of `kernels`' determinant route are for h < 1 / (1 + beta).

The midpoint rule on [0, pi]^2 is the trapezoid rule on the periodic
extension of an integrand that is even about each edge, so for the
smooth integrands of measures.integrate in angle coordinates it
converges geometrically (Trefethen and Weideman, The exponentially
convergent trapezoidal rule, SIAM Review 2014).  Each rule is one call
of the integrand, summed exactly rounded as one column by
summary._column_sums (the value math.fsum gives), so the result is the
same bit for bit on every run.
"""

import numpy as np

from .summary import NumericFailure, _column_sums

__all__ = [
    "QuadratureError",
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


def panel_grid(a, b, n_panels, order):
    """The midpoint rule on [a, b] in n_panels * order equal cells.

    Returns (nodes, weights) as flat arrays of length n_panels * order:
    the cell midpoints a + (j + 1/2) h, each weighted h = (b - a) /
    (n_panels * order), so `order` is the nodes per panel.
    """
    m = n_panels * order
    h = (b - a) / m
    return a + (np.arange(m) + 0.5) * h, np.full(m, h)


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
