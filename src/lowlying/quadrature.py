"""Deterministic Gauss-Legendre quadrature, fixed-panel and adaptive.

The adaptive driver keeps its panels as rows of one array, with their
values and error estimates as arrays beside them.  Each round splits the
fewest worst panels whose removal would meet the tolerance, at most a
fixed number, and evaluates all their children with one call of the
integrand per Gauss-Legendre order.  The worst panels are picked by a
stable sort, so the result is the same bit for bit on every run.
"""

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureError",
    "gauss_legendre",
    "panel_grid",
    "adaptive_tensor",
]


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance.

    Carries the best available estimate and its error bound so callers
    can report how far the run got.
    """

    def __init__(self, message, estimate, error):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


@lru_cache(maxsize=64)
def gauss_legendre(order):
    """Nodes and weights on [-1, 1], cached per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


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


# panels per side of the starting grid, and the two Gauss-Legendre
# orders whose difference is a panel's error estimate
_INIT = 4
_ORDER_LO = 8
_ORDER_HI = 14
# the most panels a run may hold, and the most one round splits: the
# round cap bounds the points handed to f in one call
_MAX_PANELS = 20000
_SPLIT_CAP = 256


def _tensor_estimates(f, boxes):
    """Order-14 value and |order-14 - order-8| error of each (x0, x1, y0, y1)
    row, with one call of f per order."""
    x0, x1, y0, y1 = boxes.T
    sx = 0.5 * (x1 - x0)
    sy = 0.5 * (y1 - y0)
    vals = []
    for order in (_ORDER_LO, _ORDER_HI):
        x, w = gauss_legendre(order)
        gx = x0[:, None] + sx[:, None] * (x + 1.0)
        gy = y0[:, None] + sy[:, None] * (x + 1.0)
        shape = (len(boxes), order, order)
        xx = np.broadcast_to(gx[:, :, None], shape)
        yy = np.broadcast_to(gy[:, None, :], shape)
        fv = f(xx.ravel(), yy.ravel()).reshape(shape)
        # one 1-row product per panel, so each rounds as w @ fv @ w
        # does for a single panel
        vals.append(sx * sy * ((w @ fv)[:, None, :] @ w)[:, 0])
    return vals[1], np.abs(vals[1] - vals[0])


def adaptive_tensor(f, box, tol):
    """Integrate f over a rectangle to absolute tolerance `tol` > 0.

    f must accept flat arrays (x, y) and return values of the same
    length.  Returns (value, error_estimate, panel_count).  Raises
    QuadratureError when the panel budget cannot reach the tolerance.
    """
    if not tol > 0:
        raise ValueError("tol must be positive, got %r" % (tol,))
    x0, x1, y0, y1 = box
    xs = np.linspace(x0, x1, _INIT + 1)
    ys = np.linspace(y0, y1, _INIT + 1)
    i, j = np.divmod(np.arange(_INIT * _INIT), _INIT)
    boxes = np.column_stack((xs[i], xs[i + 1], ys[j], ys[j + 1]))
    vals, errs = _tensor_estimates(f, boxes)
    while True:
        error = math.fsum(errs)
        if error <= 0.5 * tol:
            return math.fsum(vals), error, len(boxes)
        worst = np.argsort(-errs, kind="stable")
        # rest[k] is the error left after splitting the k worst panels;
        # split at least one, as cumsum may round the total below fsum's
        rest = np.cumsum(errs[worst][::-1])[::-1]
        k = min(max(int(np.count_nonzero(rest > 0.5 * tol)), 1), _SPLIT_CAP)
        if len(boxes) + 3 * k > _MAX_PANELS:
            raise QuadratureError(
                "panel budget %d exhausted: error %.3e > tol %.3e"
                % (_MAX_PANELS, error, tol), math.fsum(vals), error)
        px0, px1, py0, py1 = boxes[worst[:k]].T
        xm = 0.5 * (px0 + px1)
        ym = 0.5 * (py0 + py1)
        children = np.column_stack((
            px0, xm, py0, ym, px0, xm, ym, py1,
            xm, px1, py0, ym, xm, px1, ym, py1)).reshape(-1, 4)
        cvals, cerrs = _tensor_estimates(f, children)
        kept = np.sort(worst[k:])
        boxes = np.concatenate((boxes[kept], children))
        vals = np.concatenate((vals[kept], cvals))
        errs = np.concatenate((errs[kept], cerrs))
