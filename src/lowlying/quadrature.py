"""Deterministic Gauss-Legendre quadrature, fixed-panel and adaptive.

The adaptive driver refines the worst panel first, with a stable
tie-break, so the evaluation sequence (and hence the result, bit for
bit) does not depend on dict ordering, threading, or batch layout.
"""

import heapq
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


def _tensor_estimates(f, x0, x1, y0, y1):
    vals = []
    for order in (_ORDER_LO, _ORDER_HI):
        x, w = gauss_legendre(order)
        sx = 0.5 * (x1 - x0)
        sy = 0.5 * (y1 - y0)
        gx = x0 + sx * (x + 1.0)
        gy = y0 + sy * (x + 1.0)
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        fv = f(xx.ravel(), yy.ravel()).reshape(order, order)
        vals.append(sx * sy * float(w @ fv @ w))
    return vals[1], abs(vals[1] - vals[0])


def adaptive_tensor(f, box, tol, max_panels=20000):
    """Integrate f over a rectangle to absolute tolerance `tol`.

    f must accept flat arrays (x, y) and return values of the same
    length.  Returns (value, error_estimate, panel_count).  Raises
    QuadratureError when max_panels panels cannot reach the tolerance.
    """
    x0, x1, y0, y1 = box
    xs = np.linspace(x0, x1, _INIT + 1)
    ys = np.linspace(y0, y1, _INIT + 1)
    heap = []
    seq = 0
    for i in range(_INIT):
        for j in range(_INIT):
            val, err = _tensor_estimates(
                f, xs[i], xs[i + 1], ys[j], ys[j + 1])
            heapq.heappush(heap, (-err, seq, xs[i], xs[i + 1], ys[j], ys[j + 1], val))
            seq += 1
    err_run = math.fsum(-item[0] for item in heap)
    since_resync = 0
    while True:
        if err_run <= 0.5 * tol or since_resync >= 256:
            # incremental tally drifts; confirm against an exact resum
            err_run = math.fsum(-item[0] for item in heap)
            since_resync = 0
            if err_run <= 0.5 * tol:
                break
        if len(heap) + 3 > max_panels:
            estimate = math.fsum(item[6] for item in heap)
            raise QuadratureError(
                "panel budget %d exhausted: error %.3e > tol %.3e"
                % (max_panels, err_run, tol), estimate, err_run)
        neg_err, _, px0, px1, py0, py1, _ = heapq.heappop(heap)
        err_run += neg_err
        xm = 0.5 * (px0 + px1)
        ym = 0.5 * (py0 + py1)
        for cx0, cx1 in ((px0, xm), (xm, px1)):
            for cy0, cy1 in ((py0, ym), (ym, py1)):
                val, err = _tensor_estimates(f, cx0, cx1, cy0, cy1)
                heapq.heappush(heap, (-err, seq, cx0, cx1, cy0, cy1, val))
                err_run += err
                seq += 1
        since_resync += 1
    value = math.fsum(item[6] for item in heap)
    error = math.fsum(-item[0] for item in heap)
    return value, error, len(heap)
