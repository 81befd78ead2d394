"""Fejer test functions, density kernels, their determinant integrals,
and the combinatorial expansion of n-level sums.

A Fejer test function has the triangle transform max(0, 1 - |u|/beta)
and the x-space value beta sinc^2(beta x); each side is its own closed
form.  Two independent evaluation routes are kept deliberately separate:

* the determinant route integrates test functions against determinants
  of the sine-plus-reflection kernel in x-space, for n <= 8.  The kernel
  commutes with x -> -x, so on a large box it splits into half-line
  blocks, one per parity it does not annihilate, and each weighted
  block is a low-rank L L^T from a pivoted Cholesky factorization built
  a column at a time from sin(pi x) and cos(pi x) at the nodes, once per
  eps; the rows of a leading run of nodes factor a smaller box.  An
  input's small matrix L^T diag(phi) L is formed as G^T G with G =
  diag(phi)^1/2 L (real, since phi = beta sinc^2 >= 0), which BLAS
  returns exactly symmetric.  Each subset of the inputs takes the power
  sums of the sum of its inputs' matrices as traces of its matrix
  powers; with the closed-form one-level integrals as p_1, they give the
  determinant's coefficients by Newton's identities and
  inclusion-exclusion over subsets;
* the combinatorial route works entirely on the Fourier side (grid
  convolutions of the triangle transforms); its sum over set
  partitions, even block subsets and pairings is one recursion over
  subsets of the inputs, whose grids and pair integrals are computed
  once per distinct tuple of inputs.

Their agreement is a theorem, and the test suite checks it numerically;
neither route borrows intermediate results from the other.

The determinant route's factorizations and matrix products run in BLAS,
whose last bits can follow the BLAS thread count.  The CLI pins it to
one before numpy loads; a library caller that wants bit-identical
results across hosts must do the same (OPENBLAS_NUM_THREADS=1,
OMP_NUM_THREADS=1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .quadrature import panel_grid

__all__ = [
    "TestFunction",
    "SymmetryType",
    "n_level_prediction",
    "prediction_with_error",
    "rubinstein_rhs",
    "rubinstein_with_error",
    "fejer_test_function",
    "default_betas",
]


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """Fejer test function: the triangle transform max(0, 1 - |u|/beta),
    beta * sinc^2(beta x) in x-space.

    Both sides are closed forms, so neither is derived from the other.
    """

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")

    # -- Fourier side -------------------------------------------------

    def fourier(self, u):
        """Transform values at the points u; even, zero outside the band."""
        ua = np.abs(np.asarray(u, dtype=float))
        return np.where(ua <= self.beta + 1e-15,
                        (-1.0 / self.beta) * ua + 1.0, 0.0)

    @property
    def fourier_at_zero(self) -> float:
        return 1.0

    @property
    def value_at_zero(self) -> float:
        """phi(0), the integral of the transform."""
        return self.beta

    # -- x side -------------------------------------------------------

    def value(self, x):
        """phi(x) = beta * sinc^2(beta x)."""
        return self.beta * np.sinc(self.beta * np.asarray(x, dtype=float)) ** 2


def fejer_test_function(beta: float) -> TestFunction:
    """Triangle transform max(0, 1-|u|/beta); x-space value beta*sinc^2."""
    return TestFunction(beta=float(beta))


def default_betas(n: int) -> float:
    """Default per-function Fourier half-width for n-level inputs."""
    return 0.9 / n


# ---------------------------------------------------------------------------
# symmetry types


@dataclass(frozen=True)
class SymmetryType:
    """One of the five symmetry classes.

    `epsilon` is the sign of the reflection term in the density kernel
    K_eps(x, y) = sinc(x - y) + eps sinc(x + y); it is None for O, the
    average of the two orthogonal classes.
    """

    tag: str

    _EPS = {"U": 0, "SOeven": 1, "SOodd": -1, "Sp": -1, "O": None}

    def __post_init__(self):
        if self.tag not in self._EPS:
            raise ValueError("unknown symmetry tag %r" % (self.tag,))

    @property
    def epsilon(self):
        return self._EPS[self.tag]

    @property
    def has_delta(self) -> bool:
        return self.tag == "SOodd"


U = SymmetryType("U")
SOEVEN = SymmetryType("SOeven")
SOODD = SymmetryType("SOodd")
O_TYPE = SymmetryType("O")
SP = SymmetryType("Sp")
ALL_TYPES = (U, SOEVEN, SOODD, O_TYPE, SP)


# ---------------------------------------------------------------------------
# determinant-route predictions from a low-rank kernel basis

_BOX2 = (100.0, 12)  # half-width and per-unit order of the kernel's box
# the box of 0.8 times _BOX2's width has unit panels too, so its nodes are
# _BOX2's first _SHORT
_SHORT = int(0.8 * _BOX2[0]) * _BOX2[1]
# a cycle sum of length k >= 2 loses a box tail that falls as T^-3 (one
# input far out gives phi ~ x^-2 and two kernel factors ~ x^-1), so the
# spread against a box of 0.8 T is (0.8^-3 - 1) times the tail at T
_TAIL_PER_SPREAD = 1.0 / (0.8 ** -3 - 1.0)


def _j1(phi: TestFunction, eps: int):
    """int phi(x) K_eps(x,x) dx = int phi(x) (1 + eps sinc 2x) dx, in
    closed form from the x side: int phi = 1, and 2 sinc 2x reproduces
    every function band-limited to [-1, 1], so int phi(x) sinc 2x dx is
    phi(0) / 2 for beta <= 1.  The error bounds the one rounding of
    the sum."""
    value = 1.0 + eps * phi.value_at_zero / 2.0
    return value, np.finfo(float).eps * abs(value)


def _sin_cos_pi(x):
    """sin(pi x) and cos(pi x).  x - rint(x) is exact, so the only
    rounding before sin and cos is that of pi r with |r| <= 1/2."""
    m = np.rint(x)
    sign = 1.0 - 2.0 * (m % 2.0)  # (-1)^m
    r = np.pi * (x - m)
    return sign * np.sin(r), sign * np.cos(r)


@lru_cache(maxsize=16)
def _basis(half_width, order, eps):
    """The nodes of the box's right half, x > 0, and for each non-zero
    parity block B of K_eps a matrix L with W^1/2 B W^1/2 = L L^T up to a
    residual trace of 1e-15 of the block's, W being the nodes' weights.

    K_eps commutes with x -> -x, so on the box's even and odd functions it
    is (1 + eps)(S- + S+) and (1 - eps)(S- - S+), with S-+ = sinc(x -+ y)
    for x, y > 0.  A trace over the whole box of a product of even
    weights and K_eps is the sum of the same traces over these blocks.
    For eps = +-1 one block vanishes and the other is 2 (S- + eps S+).

    L is a Cholesky factor with diagonal pivoting (Harbrecht, Peters and
    Schneider, Appl. Numer. Math. 2012), one column of B per step; on the
    100-wide box it stops after about 110 columns, the prolate count,
    which the factor has room for from the start (1.2 half_width
    columns, then 32 more at a time).  B - L L^T is positive
    semi-definite, so the first m rows of L factor the leading m x m
    block of B, the block of the box of the first m nodes, up to a
    residual trace no larger than the whole one's.  A
    column's sin pi(x -+ y) = s_x c_y -+ c_x s_y comes from the nodes'
    s = sin pi x and c = cos pi x, over pi (x -+ y) from the nodes
    themselves: subtracting pi y from pi x would leave an error of
    ulp(pi x) next to the diagonal.  The nodes and factors are
    read-only, since every cache hit shares them."""
    nodes, weights = panel_grid(0.0, half_width, int(half_width), order)
    s, c = _sin_cos_pi(nodes)
    root = np.sqrt(weights)
    diag_plus = (s * c + c * s) / (np.pi * (nodes + nodes))
    factors = []
    for scale, sign in ([(2.0, eps)] if eps else [(1.0, 1), (1.0, -1)]):
        residual = scale * weights * (1.0 + sign * diag_plus)
        stop = 1e-15 * residual.sum()
        rows, rank = np.empty((int(1.2 * half_width), len(nodes))), 0  # L^T
        while rank < len(nodes) and residual.sum() > stop:
            j = int(np.argmax(residual))
            den = np.pi * (nodes - nodes[j])
            den[j] = 1.0
            sc, cs = s * c[j], c * s[j]
            minus = (sc - cs) / den
            minus[j] = 1.0  # S- is 1 on the diagonal
            plus = (sc + cs) / (np.pi * (nodes + nodes[j]))
            column = (scale * root[j]) * root * (minus + sign * plus)
            if rank == len(rows):  # grow by 32 rows, not to n x n
                rows = np.concatenate([rows, np.empty((32, len(nodes)))])
            rows[rank] = ((column - rows[:rank, j] @ rows[:rank])
                          / math.sqrt(residual[j]))
            residual -= rows[rank] ** 2
            rank += 1
        factor = rows[:rank].T
        factor.flags.writeable = False
        factors.append(factor)
    nodes.flags.writeable = False
    return nodes, tuple(factors)


def _power_sums(mats):
    """p_k(S) = tr(A_S^k) summed over the kernel's blocks, k =
    2..len(mats), for every non-empty ascending index tuple S, where A_S
    is the sum over i in S of mats[i], input i's matrices L^T diag(phi_i)
    L, one per block of a box: then p_k(S) is tr((D_S K_eps)^k) on that
    box.

    Each mats[i] is G^T G, exactly symmetric, and so is A_S; then
    tr(A^k) is the sum of the entries of the elementwise product
    A^(k//2) * A^(k - k//2): the powers up to A^ceil(n/2) take one r x r
    matrix product each past the first, and no eigensolver runs."""
    n = len(mats)
    sums = {}
    for size in range(1, n + 1):
        for s in combinations(range(n), size):
            p = [0.0] * (n - 1)
            for block in zip(*(mats[i] for i in s)):
                powers = {1: sum(block)}
                for m in range(2, (n + 3) // 2):
                    powers[m] = powers[m // 2] @ powers[m - m // 2]
                for k in range(2, n + 1):
                    p[k - 2] += float(np.sum(powers[k // 2]
                                             * powers[k - k // 2]))
            sums[s] = p
    return sums


def _subset_expansion(j1, sums):
    """(F(T), the sum of its terms' absolute values) for every ascending
    index tuple T, F(T) = sum_{S <= T} (-1)^(|T|-|S|) e_|T|(S).

    e_m(S), the m-th elementary symmetric function of D_S K_eps's
    eigenvalues, is the coefficient of t^m in det(I + t D_S K_eps); it
    comes from the power sums by Newton's identities, p_1 being the sum
    of the j1 values in S.  By inclusion and exclusion F(T) is then the
    coefficient of prod_{i in T} z_i in det(I + sum z_i phi_i K_eps),
    which is int prod_{i in T} phi_i det K_eps."""
    n = len(j1)
    elem = {(): [1.0] + [0.0] * n}
    for s, p in sums.items():
        p = [math.fsum(j1[i] for i in s)] + p
        e = [1.0]
        for m in range(1, n + 1):
            e.append(math.fsum((-1) ** (k - 1) * e[m - k] * p[k - 1]
                               for k in range(1, m + 1)) / m)
        elem[s] = e
    out = {}
    for t in elem:
        terms = [(-1) ** (len(t) - size) * elem[s][len(t)]
                 for size in range(len(t) + 1)
                 for s in combinations(t, size)]
        out[t] = math.fsum(terms), math.fsum(map(abs, terms))
    return out


def _determinant_table(phis, eps):
    """(value, error) of int prod_{i in T} phi_i det K_eps over R^|T| for
    every ascending index tuple T.

    The power sums come from two boxes, _BOX2 and 0.8 times its width,
    both from _BOX2's basis: the short box's nodes are the first _SHORT,
    so an input's short-box matrices take the factors' first _SHORT rows,
    and its _BOX2 matrices add the product of the rows after them.  Each
    is G^T G with G = diag(phi)^1/2 L, whose root is real because every
    TestFunction is beta sinc^2 >= 0; numpy hands a product of a buffer
    with its own transpose to BLAS syrk, which does half a general
    product's flops and returns an exactly symmetric matrix, as
    _power_sums assumes.  The inputs take turns in one buffer for G^T.
    _BOX2's order is converged (test_box_order_is_converged).  The
    value's add the estimated box tail, (p_T - p_0.8T) _TAIL_PER_SPREAD.
    The error is the spread of the expansions of the two boxes' raw sums,
    plus eps_mach times the sum of the terms, plus the rounding errors of
    the one-level integrals.  One input needs its one-level integral
    alone."""
    j1 = [_j1(phi, eps) for phi in phis]
    if len(phis) == 1:
        return {(): (1.0, 0.0), (0,): j1[0]}
    nodes, factors = _basis(*_BOX2, eps)
    buf = np.empty(max(f.size for f in factors))
    short_mats, mats = [], []
    for phi in phis:
        root = np.sqrt(phi.value(nodes))
        on_short, on_box = [], []
        for f in factors:
            g = buf[:f.size].reshape(f.shape[::-1])
            np.multiply(f.T, root, out=g)
            head, tail = g[:, :_SHORT], g[:, _SHORT:]
            on_short.append(head @ head.T)
            on_box.append(on_short[-1] + tail @ tail.T)
        short_mats.append(on_short)
        mats.append(on_box)
    raw, short = (_power_sums(m) for m in (mats, short_mats))
    tailed = {s: [a + (a - b) * _TAIL_PER_SPREAD
                  for a, b in zip(raw[s], short[s])] for s in raw}
    values = [v for v, _ in j1]
    out, f_raw, f_short = (_subset_expansion(values, sums)
                           for sums in (tailed, raw, short))
    # eps_mach times the terms' size leaves out how Newton's identities
    # amplify the power sums' own rounding: at n = 8, power sums that
    # differ by rounding alone moved a value by about nine times this
    # term (the FOUND on the rounding term in CHANGES.md)
    rounding = np.finfo(float).eps
    return {t: (v, abs(f_raw[t][0] - f_short[t][0]) + rounding * size
                + math.fsum(j1[i][1] for i in t))
            for t, (v, size) in out.items()}


def _check_supports(phis):
    beta_n = default_betas(len(phis))
    for i, phi in enumerate(phis):
        if phi.beta > beta_n + 1e-12:
            raise ValueError(
                "input %d has Fourier support %g, exceeding the allowed %g"
                % (i, phi.beta, beta_n))


def prediction_with_error(G: SymmetryType, phis):
    """n-level prediction and its quadrature error estimate."""
    phis = tuple(phis)
    n = len(phis)
    if not 1 <= n <= 8:
        raise ValueError("need 1..8 test functions")
    _check_supports(phis)
    # each sum and product below rounds once, by at most eps_mach of its
    # result
    rounding = np.finfo(float).eps
    if G.epsilon is None:
        ve, ee = prediction_with_error(SOEVEN, phis)
        vo, eo = prediction_with_error(SOODD, phis)
        value = 0.5 * (ve + vo)
        return value, 0.5 * (ee + eo) + rounding * abs(value)
    table = _determinant_table(phis, G.epsilon)
    value, err = table[tuple(range(n))]
    if G.has_delta:
        for nu in range(n):
            sub, sub_err = table[tuple(i for i in range(n) if i != nu)]
            term = phis[nu].value_at_zero * sub
            value += term
            err += (abs(phis[nu].value_at_zero) * sub_err
                    + rounding * (abs(term) + abs(value)))
    return value, err


def n_level_prediction(G: SymmetryType, phis) -> float:
    """Integral of the product test function against the n-level density,
    delta contributions included for the odd orthogonal class."""
    return prediction_with_error(G, phis)[0]


# ---------------------------------------------------------------------------
# the combinatorial route


def _aligned_step(betas, step):
    # kinks must land on grid nodes or the trapezoid error loses its
    # clean h^2 expansion (needed for Richardson)
    h = step
    for b in betas:
        ratio = b / h
        if abs(ratio - round(ratio)) > 1e-9:
            m = math.ceil(b / step)
            h = min(h, b / m)
    for b in betas:
        ratio = b / h
        if abs(ratio - round(ratio)) > 1e-6:
            raise ValueError(
                "cannot align Fourier supports %s on a common grid" % (betas,))
    return h


def _halved_ends(v):
    v = v.copy()
    v[0] *= 0.5
    v[-1] *= 0.5
    return v


def _pair_integral(ga, gb, h):
    """int |u| A(u) B(u) du for two centered grids with the same step."""
    (va, ca), (vb, cb) = ga, gb
    m = min(ca, cb)
    a = va[ca - m: ca + m + 1]
    b = vb[cb - m: cb + m + 1]
    w = np.abs(np.arange(-m, m + 1)) * h
    return h * float(np.sum(_halved_ends(a * b * w)))


def _submasks(mask):
    """Every submask of the bitmask, from mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _rubinstein_eval(sign, phis, h):
    """The sum over set partitions, even block subsets and their pairings,
    as one recursion over bitmask subsets of the inputs.

    With w(B) = (-2)^(|B|-1) (|B|-1)!, every term splits the inputs into
    units: one block B, worth w(B) (hat0(B) + sign phi0(B) / 2), or an
    unordered pair of blocks a, b, worth 2 w(a) w(b) P(a, b).  The sum is
    F(all), where F(0) = 1 and F(S) sums g(U) F(S - U) over the units U of
    S holding the lowest index of S, g(U) being U's total worth.  A
    block's grid folds its transforms in ascending index order.

    A mask's grid, phi0, unit and F depend only on its key: the tuple of
    inputs at its bits, in ascending index order, compared by value.
    first[mask] is the lowest mask with the same key, looked up under
    (first[rest], top input).  That mask computes the values, every later
    mask with its key copies them, and P(a, b) is computed once per
    (first[a], first[b]).  So n equal inputs cost n - 1 convolutions and
    n (n - 1) / 2 pair integrals, not 2^n - n - 1 and (3^n + 1) / 2 - 2^n.
    """
    size = 1 << len(phis)
    grids, weight, phi0 = [None] * size, [0.0] * size, [1.0] * size
    unit, total = [0.0] * size, [1.0] + [0.0] * (size - 1)
    first, by_key, pairs = [0] * size, {}, {}
    for mask in range(1, size):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        c = first[mask] = by_key.setdefault((first[rest], phis[top]), mask)
        if c != mask:
            grids[mask], weight[mask] = grids[c], weight[c]
            phi0[mask], unit[mask], total[mask] = phi0[c], unit[c], total[c]
            continue
        if rest:
            v = np.convolve(_halved_ends(grids[rest][0]),
                            _halved_ends(grids[1 << top][0])) * h
            hat0 = float(v[(v.size - 1) // 2])
        else:
            m = int(round(phis[top].beta / h))
            v = phis[top].fourier(np.arange(-m, m + 1) * h)
            hat0 = phis[top].fourier_at_zero
        grids[mask] = v, (v.size - 1) // 2
        phi0[mask] = phi0[rest] * phis[top].value_at_zero
        k = mask.bit_count()
        weight[mask] = (-2.0) ** (k - 1) * math.factorial(k - 1)
        low = mask & -mask
        terms = [weight[mask] * (hat0 + sign * 0.5 * phi0[mask])]
        for b in _submasks(mask ^ low):
            if b:
                pair = first[mask ^ b], first[b]
                if pair not in pairs:
                    pairs[pair] = _pair_integral(grids[mask ^ b], grids[b], h)
                terms.append(weight[mask ^ b] * weight[b] * 2.0 * pairs[pair])
        unit[mask] = math.fsum(terms)
        total[mask] = math.fsum(unit[low | s] * total[mask ^ low ^ s]
                                for s in _submasks(mask ^ low))
    return total[-1]


_GRID_STEP = 1e-3


def rubinstein_with_error(sign, phis):
    """Combinatorial expansion value with a Richardson error estimate."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    phis = list(phis)
    n = len(phis)
    if not 1 <= n <= 8:
        raise ValueError("need 1..8 test functions")
    _check_supports(phis)
    h = _aligned_step([p.beta for p in phis], _GRID_STEP)
    coarse = _rubinstein_eval(sign, phis, h)
    fine = _rubinstein_eval(sign, phis, h / 2.0)
    value = (4.0 * fine - coarse) / 3.0
    return value, abs(value - fine) + 1e-12


def rubinstein_rhs(sign, phis) -> float:
    """Sum over set partitions, even block subsets, and pairings."""
    return rubinstein_with_error(sign, phis)[0]
