"""Haar eigenangles of the classical compact groups and ensemble n-level
statistics.

Eigenangles are folded to one representative per conjugate pair and
rescaled to unit mean density.  The rescaling uses an effective
circumference of (matrix dimension - 1) for the orthogonal groups and
(dimension + 1) for the symplectic group: the structural +-1 repulsion
shifts the local density by exactly that much, and with this choice the
finite-size bias of the periodized statistic is of second order in 1/N
(the literal dimension leaves a first-order bias several Monte Carlo
standard errors wide at the default ensemble size; see the measured
numbers in the test suite).

Test functions are periodized exactly: a periodized Fejer function is a
finite cosine series over the circle, summed in closed form by the
Dirichlet and Fejer kernels after |x| is reduced exactly into
[0, period/2].  This avoids truncating the slowly decaying x-space
tails at the fold boundary, and each value is within 2e-15 of the
exactly summed series.

No ensemble angle comes from a dense Haar matrix.  Orthogonal and
symplectic angles never form a matrix of the group: the 2 cos of the
non-trivial angles are the eigenvalues of an N x N Jacobi matrix
(Killip-Nenciu), one batched symmetric eigensolver call per chunk.  Its
entries come from Beta variables with half-integer parameters, drawn by
inverting their CDFs in numpy: each CDF is a finite sum of positive
terms, solved for its uniform by Halley's method.
Unitary angles come from an N x N unitary Hessenberg matrix H built
from independent Verblunsky coefficients (Killip-Nenciu, Gragg).  H is
normal, so its Hermitian part (H + H*)/2 has the eigenvalues
cos theta, one batched Hermitian eigensolver call per chunk.  Every test
function is even, so the statistic reads only the folded angles
arccos(cos theta) in [0, pi], one per eigenvalue.

An ensemble is held as arrays: per concrete group, one (samples, m) array
of scaled angles and the group's period.  Only the latest ensemble stays
cached.  The n-level statistic of every n sums a term list built from
masked outer products of the test-function values, a block of spectra
at a time, by `summary._column_sums`: a TwoSum cascade whose rounding is
certified exact spectrum by spectrum, with fsum for the spectra it
cannot certify, so every value has fsum's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels, rng
from .rng import normals
from .summary import (NumericFailure, _check_seed, _column_sums, _integer,
                      _mean_stderr, _z_against)

__all__ = [
    "EnsembleSpec",
    "ScaledSpectrum",
    "EnsembleReport",
    "scaled_spectrum",
    "periodized_value",
    "d_n_statistic",
    "ensemble_average",
    "clear_spectrum_cache",
    "GROUPS",
    # no rmt code draws normals; the benchmark's tracing hooks rebind it here
    "normals",
]

GROUPS = ("SOeven", "SOodd", "USp", "U", "O")

_STREAMS = {"SOeven": 201, "SOodd": 202, "USp": 203, "U": 204}


@dataclass(frozen=True)
class EnsembleSpec:
    """Which group to sample, how big, how many, and from which seed."""

    group: str
    size: int
    samples: int
    seed: int

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ValueError("group must be one of %s" % (GROUPS,))
        for name in ("size", "samples", "seed"):
            object.__setattr__(self, name, _integer(
                getattr(self, name),
                "size, samples and seed must be integers"))
        if self.size < 2:
            raise ValueError("size parameter must be at least 2")
        if self.samples < 2:  # one sample has no standard error
            raise ValueError("samples must be at least 2")
        _check_seed(self.seed)


def _dimension(group: str, n: int) -> int:
    return {"SOeven": 2 * n, "SOodd": 2 * n + 1, "USp": 2 * n, "U": n}[group]


def _period(group: str, dim: int) -> float:
    # the effective circumference of the module docstring
    return float(dim + {"USp": 1, "U": 0}.get(group, -1))


@dataclass(frozen=True)
class ScaledSpectrum:
    """Folded eigenangles of one matrix, rescaled to unit mean spacing.

    `scaled` holds the independent eigenangles in [0, pi], or [0, 2 pi)
    for U (forced zero angles excluded), multiplied by period/(2 pi).
    """

    scaled: tuple
    period: float
    group: str


# ---------------------------------------------------------------------------
# sampling


def _jacobi_parameters(group, n):
    """(t, s): (1 + alpha_k)/2 ~ Beta(t_k, s_k) for k < 2N - 1.

    2t and 2s are integers, t <= s <= t + 2, and t + s is an integer.
    """
    # x = 2 cos(theta) has the density (2 - x)^a (2 + x)^b times the
    # squared Vandermonde
    a, b = {"SOeven": (-0.5, -0.5), "SOodd": (0.5, -0.5),
            "USp": (0.5, 0.5)}[group]
    k = np.arange(2 * n - 1)
    # alpha_k on (-1, 1) has density prop. to (1 - x)^(s-1) (1 + x)^(t-1)
    s = np.where(k % 2 == 0, (2 * n - k - 2) / 2 + a + 1,
                 (2 * n - k - 3) / 2 + a + b + 2)
    t = np.where(k % 2 == 0, (2 * n - k - 2) / 2 + b + 1, (2 * n - k - 1) / 2)
    return t, s


# Halley steps from the starting point; three reach rounding level for
# every uniform that rng can return (tests/test_rmt.py checks the extremes)
_HALLEY_STEPS = 3
# terms of the remainder series; at z <= 1/2 it is truncated below 2^-53
_REMAINDER_TERMS = 54


@lru_cache(maxsize=8)
def _beta_table(group, n):
    """Per-column constants of the Jacobi-model Beta CDFs, as (K, 1) arrays.

    With w = 1 - z, r = z/w and sigma = t + s, summing the terms
    Gamma(sigma)/(Gamma(al + 1) Gamma(sigma - al)) z^al w^(sigma-al-1) of
    I_z(al, sigma - al) - I_z(al + 1, sigma - al - 1) over al = t, t+1, ...
    gives

        I_z(t, s) = z^t w^(s-1) C sum_i c_i r^i  +  I_z(sigma - 1/2, 1/2),

    with c_i the terms for al = t + i divided by their largest, C. The
    remainder is there for half-integer t only, where
    I_z(p + 1/2, 1/2) = (2/pi) z^(p+1/2) w^(1/2) sum_m e_(p+m) z^m and
    e_j = Gamma(j + 1) Gamma(3/2)/Gamma(j + 3/2).  Every term is positive,
    so the sum is accurate to rounding relative to I, however far in the
    lower tail.  The same sum read off after d = s - t fewer Horner steps
    is I_z(s, t), the upper tail of the column in 1 - z.

    A column's largest term is c_0 = 1, since c_(i+1)/c_i =
    (s - i - 1)/(t + i + 1) <= 1, so its stored c_i underflow to 0 only
    in a run at its top degrees, where c_i < 2^-1074 (from N = 541 on).
    Degrees that are 0 in every column are dropped.  With r <= 1, each
    lost term c_i r^(i-d) is below 2^-1074 times its sum's leading term
    in the lower tail, c_0 = 1, and below 3 * 2^-1074 times it in the
    upper one, c_d >= 1/3 (d = 1 with t >= 1/2, or d = 2 with t >= 1):
    together far below the sum's rounding.
    """
    t, s = _jacobi_parameters(group, n)
    coef = np.zeros((int(s.max()), len(t)))
    rem = np.zeros((_REMAINDER_TERMS, len(t)))
    ln_c, ln_b, at_half = np.zeros((3, len(t)))
    for k, (tk, sk) in enumerate(zip(t.tolist(), s.tolist())):
        sig = tk + sk
        half = tk % 1 != 0
        ln_b[k] = math.lgamma(tk) + math.lgamma(sk) - math.lgamma(sig)
        c = [math.lgamma(sig) - math.lgamma(tk + i + 1) - math.lgamma(sk - i)
             for i in range(int(sk - 0.5 * half))]
        ln_c[k] = max(c, default=0.0)
        coef[:len(c), k] = np.exp(np.array(c) - ln_c[k])
        if half:
            # (2/pi) e_j, over C; e_(sigma-1) starts the remainder
            j = sig - 1 + np.arange(_REMAINDER_TERMS)
            rem[:, k] = np.exp([math.lgamma(x + 1) - math.lgamma(x + 1.5)
                                - ln_c[k] for x in j]) / math.sqrt(math.pi)
        # I_(1/2)(t, s), where r = 1
        at_half[k] = math.exp(ln_c[k] - (sig - 1) * math.log(2.0)) * (
            math.fsum(coef[:, k]) + math.fsum(rem[:, k] * 0.5 ** (j - sig + 2))
            if half else math.fsum(coef[:, k]))
    coef = coef[:int(np.flatnonzero(coef.any(axis=1)).max()) + 1]
    # columns from active[j] on have no term of degree j or above yet
    active = tuple(int(np.flatnonzero(row).max()) + 1 for row in coef)
    # t is a half-integer in the even columns
    table = (t[:, None], s[:, None], coef[:, :, None], active,
             rem[:, ::2, None], ln_c[:, None], ln_b[:, None], at_half[:, None])
    for a in table[:3] + table[4:]:
        a.flags.writeable = False  # every cache hit shares them
    return table


def _beta_quantiles(group, n, u):
    """x[:, k] with I_x(t_k, s_k) = u[:, k], the Jacobi-model Beta draws.

    A draw with u at most the column's I_(1/2)(t, s) solves the lower
    tail I_z(t, s) = u; the others solve I_z(s, t) = 1 - u, where 1 - u
    is exact because I_(1/2)(t, s) >= 1/2 for t <= s, and return 1 - z.
    Either way z <= 1/2.  Halley's method runs on log I against log z,
    nearly linear in a tail, from Numerical Recipes' (invbetai) normal
    approximation.  Each value depends on its own uniform only.
    """
    t, s, coef, active, rem, ln_c, ln_b, at_half = _beta_table(group, n)
    u = u.T.copy()  # (K, rows): a column's draws are contiguous
    upper = u > at_half
    v = np.where(upper, 1.0 - u, u)
    a = np.where(upper, s, t)
    b1 = np.where(upper, t, s) - 1.0
    d = s - t
    # starting point: the normal branch, with 2a - 1 and 2b - 1 at least 1
    y = np.sqrt(-2.0 * np.log(np.minimum(v, 1.0 - v)))
    y = (2.30753 + 0.27061 * y) / (1.0 + y * (0.99229 + 0.04481 * y)) - y
    y = np.where(v < 0.5, -y, y)
    ra, rb = 1.0 / np.maximum(2.0 * a - 1.0, 1.0), 1.0 / np.maximum(
        2.0 * b1 + 1.0, 1.0)
    hm = 2.0 / (ra + rb)
    al = (y * y - 3.0) / 6.0
    y = y * np.sqrt(al + hm) / hm - (rb - ra) * (al + 5.0 / 6.0
                                                 - 2.0 / (3.0 * hm))
    z = np.minimum(a / (a + (b1 + 1.0) * np.exp(2.0 * y)), 0.5)
    lv = np.log(v)
    for _ in range(_HALLEY_STEPS):
        lz, lw = np.log(z), np.log1p(-z)
        r = z / (1.0 - z)
        acc = np.zeros_like(z)
        stops = {}
        for j in range(len(active) - 1, -1, -1):
            part = acc[:active[j]]
            part *= r[:active[j]]
            part += coef[j, :active[j]]
            if j and np.any(d == j):
                stops[j] = acc.copy()
        lower = acc
        for j, at_j in stops.items():
            acc = np.where(d == j, at_j, acc)
        acc = np.where(upper, acc, lower)
        zh = z[::2]
        series = np.zeros_like(zh)
        for c in rem[::-1]:
            series *= zh
            series += c
        # the remainder over z^a w^(b-1) C: r^(b-3/2) z (2/pi) E(z)/C, with
        # E(z) = sum_m e_(sigma-1+m) z^m
        acc[::2] += zh * series * np.exp((b1[::2] - 0.5) * (lz - lw)[::2])
        log_p = np.log(acc)
        # g = log I - log v against log z; g' = h = z pdf/I and
        # g''/g' = a - (b - 1) r - h
        g = a * lz + b1 * lw + ln_c + log_p - lv
        h = np.exp(-(ln_b + ln_c) - log_p)
        step = g / h
        z = z * np.exp(-step / (1.0 - 0.5 * step * (a - b1 * r - h)))
    return np.where(upper, 1.0 - z, z).T


def _jacobi_angles(group, size, seed, indices):
    """Non-trivial eigenangles of Haar SO(2N), SO(2N+1) or USp(2N), one
    ascending row in [0, pi] per index.

    The Jacobi matrix of Killip-Nenciu, Matrix models for circular
    ensembles, IMRN 2004, Thm 2, from 2N - 1 independent Beta variables
    alpha_k, each the inverse CDF of one addressed uniform
    (`_beta_quantiles`).
    """
    n = size
    u = rng.uniforms(seed, _STREAMS[group], indices, 0, 2 * n - 1)
    alpha = 2.0 * _beta_quantiles(group, n, u) - 1.0
    # ext[:, k + 2] is alpha_k, with alpha_-1 = -1; alpha_-2 only meets
    # the factor 1 + alpha_-1 = 0, and alpha_(2N-1) = -1 only the
    # off-diagonal entry past the matrix
    ext = np.concatenate([np.tile([0.0, -1.0], (len(u), 1)), alpha], axis=1)
    odd, even, prev = ext[:, 1::2], ext[:, 2::2], ext[:, 0:-1:2]
    jac = np.zeros((len(u), n, n))
    jac[:, range(n), range(n)] = (1.0 - odd) * even - (1.0 + odd) * prev
    # eigvalsh reads the lower triangle
    jac[:, range(1, n), range(n - 1)] = np.sqrt(
        (1.0 - odd[:, :-1]) * (1.0 - even[:, :-1] ** 2) * (1.0 + odd[:, 1:]))
    x = np.linalg.eigvalsh(jac)
    # contiguous operands: numpy's vector loops can give other last bits
    # for a reversed view, whose layout varies with the stack size
    return np.arccos(np.clip(x[:, ::-1].copy() / 2.0, -1.0, 1.0))


def _verblunsky_angles(size, seed, indices):
    """Folded eigenangles arccos(cos theta) of Haar U(N), one ascending
    row in [0, pi] per index.

    H is unitary, hence normal, so its Hermitian part (H + H*)/2 has the
    eigenvalues cos theta: one batched Hermitian eigensolver call.  Every
    test function is even, so U's statistic reads cos theta alone.
    """
    h = _verblunsky_matrices(size, seed, indices)
    x = np.linalg.eigvalsh(0.5 * (h + np.conj(h).swapaxes(-1, -2)))
    # contiguous operands, as in `_jacobi_angles`
    return np.arccos(np.clip(x[:, ::-1].copy(), -1.0, 1.0))


def _verblunsky_matrices(size, seed, indices):
    """Haar-distributed spectra as unitary upper Hessenberg matrices.

    Killip-Nenciu, Matrix models for circular ensembles, IMRN 2004,
    Thm 1 at beta = 2: independent Verblunsky coefficients alpha_k with
    |alpha_k|^2 ~ Beta(1, N - k - 1), by its closed-form inverse CDF
    1 - (1 - u)^(1/(N - k - 1)), times uniform phases; alpha_(N-1) is a
    phase alone.  That is 2N - 1 addressed uniforms per index.  The
    matrix is G_0 G_1 ... G_(N-2) diag(1, ..., 1, conj alpha_(N-1)), with
    G_k the identity but for [[conj alpha_k, rho_k], [rho_k, -alpha_k]]
    on coordinates k, k + 1 and rho_k = (1 - |alpha_k|^2)^(1/2) (Gragg's
    Schur-parameter form), so it is unitary by construction.
    """
    n = size
    u = rng.uniforms(seed, _STREAMS["U"], indices, 0, 2 * n - 1)
    # log rho_k^2 = log(1 - |alpha_k|^2) = log(1 - u_k) / (N - k - 1)
    log_rho2 = np.log1p(-u[:, :n - 1]) / np.arange(n - 1, 0, -1)
    rho = np.exp(0.5 * log_rho2)
    alpha = np.exp(2j * math.pi * u[:, n - 1:])
    alpha[:, :n - 1] *= np.sqrt(-np.expm1(log_rho2))
    h = np.zeros((len(u), n, n), dtype=complex)
    # before G_k acts, column k of the product so far is v and column
    # k + 1 is e_(k+1); G_k makes column k final, conj(alpha_k) v +
    # rho_k e_(k+1), and column k + 1 the new v, rho_k v - alpha_k e_(k+1)
    v = np.zeros((len(u), n), dtype=complex)
    v[:, 0] = 1.0
    for k in range(n - 1):
        h[:, :k + 1, k] = np.conj(alpha[:, k, None]) * v[:, :k + 1]
        h[:, k + 1, k] = rho[:, k]
        v[:, :k + 1] *= rho[:, k, None]
        v[:, k + 1] = -alpha[:, k]
    h[:, :, -1] = v * np.conj(alpha[:, -1, None])
    return h


# ---------------------------------------------------------------------------
# spectra


def _fail_rows(bad, what, indices):
    if np.any(bad):
        where = ""
        if indices is not None:
            where = "sample index %d: " % indices[int(np.argmax(bad))]
        raise NumericFailure(where + what)


def _angles(mats, group, indices=None):
    """Eigenangles of each matrix of a unitary stack, one ascending row
    each.

    Unitary angles are the eigenvalue phases in [0, 2 pi).  Orthogonal
    and symplectic angles come in conjugate pairs, so the ascending |t|
    hold each pair twice; neighbours are folded into one angle in
    [0, pi], and the SOodd forced zero is dropped.  `indices` label the
    rows in error messages.
    """
    gram = np.conj(mats).swapaxes(-1, -2) @ mats
    _fail_rows(np.max(np.abs(gram - np.eye(mats.shape[-1])), axis=(-2, -1))
               > 1e-9, "matrix is not unitary", indices)
    ev = np.linalg.eigvals(mats)
    _fail_rows(np.max(np.abs(np.abs(ev) - 1.0), axis=-1) > 1e-9,
               "eigenvalues left the unit circle", indices)
    ang = np.angle(ev)
    if group == "U":
        return np.sort(np.where(ang < 0.0, ang + 2.0 * math.pi, ang))
    abs_ang = np.sort(np.abs(ang))
    if group == "SOodd":
        _fail_rows(abs_ang[:, 0] > 1e-7,
                   "odd special orthogonal matrix lost its unit eigenvalue",
                   indices)
        abs_ang = abs_ang[:, 1:]
    return 0.5 * (abs_ang[:, 0::2] + abs_ang[:, 1::2])


def scaled_spectrum(M, group: str) -> ScaledSpectrum:
    """Eigenangles of M folded and rescaled for the given group tag."""
    if group not in ("SOeven", "SOodd", "USp", "U"):
        raise ValueError("spectrum group must name a concrete ensemble")
    M = np.asarray(M)
    angles = _angles(M[None], group)[0]
    period = _period(group, M.shape[-1])
    scaled = angles * (period / (2.0 * math.pi))
    return ScaledSpectrum(scaled=tuple(scaled.tolist()), period=period,
                          group=group)


# ---------------------------------------------------------------------------
# statistic evaluation


def periodized_value(phi, period, x):
    """Periodic summation of phi over the circle of the given length.

    The periodized Fejer function is the cosine series
    (1/period) sum_(|k| <= K) (1 - |k|/M) cos(k t), M = beta period,
    t = 2 pi |x|/period, K the largest integer below M (k = M adds 0).
    In the Dirichlet and Fejer kernels D_K(t) = sin((K + 1/2) t)/sin(t/2)
    and F_(K+1)(t) = (sin((K + 1) t/2)/sin(t/2))^2/(K + 1) it sums to
    (D_K + ((K + 1)/M)(F_(K+1) - D_K))/period, written so that nothing
    cancels when M << 1; at t = 0, and where sin(t/2) is subnormal, to
    the limit (2K + 1 - K(K + 1)/M)/period.  |x| is reduced exactly into
    [0, period/2] first (fmod, then period - r, exact for r >= period/2),
    so the value is even and periodic in x.  Each value is within 2e-15
    of the exactly summed series and depends on its own point only, so a
    scalar call gives the bits of an array call.
    """
    m = phi.beta * period
    # k = 0 always counts: it carries the mean phi_hat(0) / period
    k = max(0, int(math.floor(m - 1e-12)))
    xs = np.abs(np.asarray(x, dtype=float))
    r = np.mod(xs.ravel(), period)
    half = (math.pi / period) * np.minimum(r, period - r)
    s = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        dirichlet = np.sin((2 * k + 1) * half) / s
        fejer = (np.sin((k + 1) * half) / s) ** 2 / (k + 1)
        vals = dirichlet + ((k + 1) / m) * (fejer - dirichlet)
    vals = np.where(s < np.finfo(float).tiny, 2 * k + 1 - k * (k + 1) / m,
                    vals) / period
    if xs.shape == ():
        return float(vals[0])
    return vals.reshape(xs.shape)


@lru_cache(maxsize=8)
def _distinct(size, n):
    """Mask of the n-tuples over range(size) with pairwise distinct entries."""
    axes = np.ix_(*[np.arange(size)] * n)
    keep = np.ones((size,) * n, dtype=bool)
    for a in range(n):
        for b in range(a):
            keep &= axes[a] != axes[b]
    keep.flags.writeable = False  # every cache hit shares it
    return keep


# the n-level statistic takes blocks of spectra whose outer products hold
# at most this many terms, and one spectrum at least; no result depends
# on it
_TERMS = 2 ** 15


def _statistics(group, period, rows, phis, include_zero):
    """The starred n-level sum of each row of scaled angles of one
    concrete group, as a list.

    A block of spectra is one array of term lists, a column per
    spectrum: slot-ordered outer products of the test-function values,
    masked to distinct points (`_distinct`) and summed by
    `_column_sums`.  Scaling by 2 when each point stands for a conjugate
    pair is exact, so it counts both signed indices at once.  The
    structural zero, when it takes part, is one more point, unscaled.
    Each term is a product in slot order over distinct points, hence
    the same float as its brute-force counterpart times a power of 2.
    """
    with_zero = include_zero and group == "SOodd"
    mult = 1.0 if group == "U" else 2.0
    # one evaluation per distinct test function: equal betas compare equal
    distinct = list(dict.fromkeys(phis))
    zeros = [periodized_value(phi, period, 0.0) for phi in distinct]
    slots = [distinct.index(phi) for phi in phis]
    keep = _distinct(rows.shape[1] + with_zero, len(phis))
    step = max(1, _TERMS // max(1, keep.size))
    out = []
    for start in range(0, len(rows), step):
        block = rows[start:start + step].T
        cols = [mult * periodized_value(phi, period, block) for phi in distinct]
        if with_zero:
            cols = [np.vstack([c, np.full((1, block.shape[1]), z)])
                    for c, z in zip(cols, zeros)]
        prod = cols[slots[0]]
        for slot in slots[1:]:
            prod = prod[..., None, :] * cols[slot]
        out.extend(_column_sums(prod[keep]))
    return out


def d_n_statistic(spectrum: ScaledSpectrum, phis, include_zero: bool) -> float:
    """Starred n-level sum over index tuples with distinct magnitudes.

    Each folded angle contributes both signed indices when the spectrum
    reflects; the structural zero participates in at most one slot and
    only when include_zero is set.  The spectrum is a block of one for
    `_statistics`, whose sums are exactly rounded, so it equals
    brute-force enumeration's fsum bit for bit.
    """
    if len(phis) < 1:
        raise ValueError("need at least one test function")
    rows = np.asarray(spectrum.scaled, dtype=float)[None]
    return _statistics(spectrum.group, spectrum.period, rows, phis,
                       include_zero)[0]


# ---------------------------------------------------------------------------
# ensemble pipeline


# matrices per sampling batch: at most _CHUNK, and at most _ENTRIES / N^2
# so that a batch holds about _ENTRIES matrix entries (128 matrices up
# to N = 32, one from N = 257: 16 MB of complex entries at N = 1000); no
# result depends on it (per-matrix LAPACK calls), the U temporaries (the
# Hessenberg matrix and its Hermitian part) scale with it
_CHUNK = 128
_ENTRIES = 2 ** 17


def _parts(spec: EnsembleSpec):
    """(concrete group, sample indices) for each part of the ensemble; the
    O mixture draws its even indices from SOeven and its odd ones from
    SOodd."""
    groups = ("SOeven", "SOodd") if spec.group == "O" else (spec.group,)
    return [(group, range(first, spec.samples, len(groups)))
            for first, group in enumerate(groups)]


@lru_cache(maxsize=1)
def _spectra(spec: EnsembleSpec):
    """{group: (scaled, period)} for each of `_parts`, `scaled` holding
    one row of folded angles times period/(2 pi) per index, in order."""
    out = {}
    rows = max(1, min(_CHUNK, _ENTRIES // spec.size ** 2))
    for group, indices in _parts(spec):
        parts = []
        for start in range(0, len(indices), rows):
            chunk = indices[start:start + rows]
            parts.append(_verblunsky_angles(spec.size, spec.seed, chunk)
                         if group == "U" else
                         _jacobi_angles(group, spec.size, spec.seed, chunk))
        period = _period(group, _dimension(group, spec.size))
        scaled = np.concatenate(parts) * (period / (2.0 * math.pi))
        scaled.flags.writeable = False  # every cache hit shares it
        out[group] = (scaled, period)
    return out


clear_spectrum_cache = _spectra.cache_clear


@dataclass(frozen=True)
class EnsembleReport:
    """Monte Carlo summary of one statistic against its prediction."""

    spec: EnsembleSpec
    mc_mean: float
    mc_stderr: float
    prediction: float
    z_score: float
    betas: tuple

    def to_json_dict(self):
        return {
            "statistic": "D%d" % len(self.betas),
            "group": self.spec.group,
            "N": self.spec.size,
            "samples": self.spec.samples,
            "seed": self.spec.seed,
            "n": len(self.betas),
            "beta": [float(b) for b in self.betas],
            "mc_mean": float(self.mc_mean),
            "mc_stderr": float(self.mc_stderr),
            "prediction": float(self.prediction),
            "z_score": float(self.z_score),
        }


def prediction_for(group: str, phis, include_zero: bool) -> float:
    """Kernel-side prediction matching the statistic of a concrete group."""
    # without its forced zero an SO(2N+1) spectrum follows Sp
    types = {"SOeven": kernels.SOEVEN, "USp": kernels.SP, "U": kernels.U,
             "SOodd": kernels.SOODD if include_zero else kernels.SP}
    if group not in types:
        raise ValueError("unknown group %r" % (group,))
    return float(kernels.n_level_prediction(types[group], phis))


def ensemble_average(spec: EnsembleSpec, phis,
                     include_zero: bool) -> EnsembleReport:
    """Mean, standard error, and z-score of the n-level statistic."""
    phis = list(phis)
    if len(phis) > 3:  # `_distinct` masks all size^n index tuples
        raise ValueError("the ensemble statistic takes at most 3 test "
                         "functions, got %d" % len(phis))

    def points(group):
        return spec.size + bool(include_zero and group in ("SOodd", "O"))

    # no index tuple has n distinct points among fewer; O's SOeven rows
    # are then 0 while its SOodd rows hold one more point
    if len(phis) > points(spec.group):
        raise ValueError("the %d-level statistic needs %d distinct points, "
                         "but %s spectra of size %d hold at most %d"
                         % (len(phis), len(phis), spec.group, spec.size,
                            points(spec.group)))
    # validates n and the supports before any matrix is sampled; each
    # part's prediction weighs by its share of the rows, and a part with
    # fewer than n points adds its statistic's exact expectation, 0
    prediction = sum(len(indices) / spec.samples
                     * prediction_for(group, phis, include_zero)
                     for group, indices in _parts(spec)
                     if len(phis) <= points(group))
    values = []
    for group, (scaled, period) in _spectra(spec).items():
        values.extend(_statistics(group, period, scaled, phis, include_zero))
    mean, stderr = _mean_stderr(values)
    return EnsembleReport(
        spec=spec,
        mc_mean=mean,
        mc_stderr=stderr,
        prediction=prediction,
        z_score=_z_against(mean, stderr, prediction),
        betas=tuple(p.beta for p in phis),
    )
