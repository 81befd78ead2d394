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

Test functions are evaluated through their circle harmonics (the
transform sampled at multiples of 1/period), which is exact for the
band-limited functions used here and avoids truncating their slowly
decaying x-space tails at the fold boundary.

No ensemble angle comes from a dense Haar matrix.  Orthogonal and
symplectic angles never form a matrix of the group: the 2 cos of the
non-trivial angles are the eigenvalues of an N x N Jacobi matrix
(Killip-Nenciu), one batched symmetric eigensolver call per chunk.
Unitary angles are the eigenangles of an N x N unitary Hessenberg
matrix built from independent Verblunsky coefficients (Killip-Nenciu,
Gragg).  Its Cayley transform i (I + H)^-1 (I - H) is Hermitian with
eigenvalues tan(theta/2), so a chunk takes one batched solve and one
batched symmetric eigensolver call.  The few rows with an angle near
the transform's pole at pi are redone with the pole moved into their
largest gap.

An ensemble is held as arrays: per concrete group, one (samples, m) array
of scaled angles and the group's period.  Only the latest ensemble stays
cached.  The n-level statistic of every n is one exact fsum over a term
list built from masked outer products of the test-function values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels, rng
from .family import _mean_stderr, _z_against
from .rng import normals

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
        if self.size < 2:
            raise ValueError("size parameter must be at least 2")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


def _dimension(group: str, n: int) -> int:
    return {"SOeven": 2 * n, "SOodd": 2 * n + 1, "USp": 2 * n, "U": n}[group]


def _period(group: str, dim: int) -> float:
    # the effective circumference of the module docstring
    return float(dim + {"USp": 1, "U": 0}.get(group, -1))


@dataclass(frozen=True)
class ScaledSpectrum:
    """Folded eigenangles of one matrix, rescaled to unit mean spacing.

    `angles` are the independent eigenangles in [0, pi], or [0, 2 pi)
    for U (forced zero angles excluded), `scaled` the same multiplied by
    period/(2 pi).
    `reflect` records whether each angle stands for a conjugate pair.
    """

    angles: tuple
    scaled: tuple
    forced_zero: bool
    period: float
    group: str

    @property
    def reflect(self) -> bool:
        return self.group != "U"


class EigenSolverError(RuntimeError):
    """Eigenvalue extraction failed or left the unit circle."""


# ---------------------------------------------------------------------------
# sampling


def _jacobi_angles(group, size, seed, indices):
    """Non-trivial eigenangles of Haar SO(2N), SO(2N+1) or USp(2N), one
    ascending row in [0, pi] per index.

    The Jacobi matrix of Killip-Nenciu, Matrix models for circular
    ensembles, IMRN 2004, Thm 2, from 2N - 1 independent Beta variables
    alpha_k, each the inverse CDF of one addressed uniform.
    """
    # its only use in the package, imported here so that commands without
    # an orthogonal or symplectic ensemble start without it
    from scipy import special

    # x = 2 cos(theta) has the density (2 - x)^a (2 + x)^b times the
    # squared Vandermonde
    a, b = {"SOeven": (-0.5, -0.5), "SOodd": (0.5, -0.5),
            "USp": (0.5, 0.5)}[group]
    n = size
    u = rng.uniforms(seed, _STREAMS[group], indices, 0, 2 * n - 1)
    k = np.arange(2 * n - 1)
    # alpha_k on (-1, 1) has density prop. to (1 - x)^(s-1) (1 + x)^(t-1)
    s = np.where(k % 2 == 0, (2 * n - k - 2) / 2 + a + 1,
                 (2 * n - k - 3) / 2 + a + b + 2)
    t = np.where(k % 2 == 0, (2 * n - k - 2) / 2 + b + 1, (2 * n - k - 1) / 2)
    alpha = 2.0 * special.betaincinv(t, s, u) - 1.0
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
    """Eigenangles of Haar U(N), one ascending row in [0, 2 pi) per index."""
    return _cayley_angles(_verblunsky_matrices(size, seed, indices))


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


# |tan(theta/2)| above which a row is redone with its pole moved; the
# error of every angle in a row grows with the row's largest |lambda|
_POLE = 1e3


def _cayley_angles(h):
    """Ascending eigenangles in [0, 2 pi) of each matrix of a unitary stack.

    A = i (I + H)^-1 (I - H) is Hermitian with eigenvalues tan(theta/2),
    so one batched solve and one symmetric eigensolver call give every
    angle as 2 arctan(lambda).  A row with an angle near the pole at pi
    is redone on H e^(-i phi), where phi + pi is the middle of the row's
    largest gap, and phi is added back.
    """
    lam = _cayley_eigvals(h)
    theta = _on_circle(2.0 * np.arctan(lam))
    near = np.flatnonzero(np.max(np.abs(lam), axis=1) > _POLE)
    if near.size:
        rows = theta[near]
        gaps = np.diff(rows, axis=1, append=rows[:, :1] + 2.0 * math.pi)
        j = np.argmax(gaps, axis=1)
        pick = np.arange(len(near))
        phi = rows[pick, j] + 0.5 * gaps[pick, j] - math.pi
        lam = _cayley_eigvals(h[near] * np.exp(-1j * phi)[:, None, None])
        theta[near] = _on_circle(2.0 * np.arctan(lam) + phi[:, None])
    return theta


def _cayley_eigvals(h):
    eye = np.eye(h.shape[-1])
    a = 1j * np.linalg.solve(eye + h, eye - h)
    return np.linalg.eigvalsh(0.5 * (a + np.conj(a).swapaxes(-1, -2)))


def _on_circle(theta):
    """Angles reduced into [0, 2 pi), ascending in each row."""
    theta = np.mod(theta, 2.0 * math.pi)
    # a tiny negative angle rounds up to 2 pi itself
    return np.sort(np.where(theta < 2.0 * math.pi, theta, 0.0), axis=1)


# ---------------------------------------------------------------------------
# spectra


def _fail_rows(bad, what, indices):
    if np.any(bad):
        where = ""
        if indices is not None:
            where = "sample index %d: " % indices[int(np.argmax(bad))]
        raise EigenSolverError(where + what)


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
    return ScaledSpectrum(angles=tuple(angles.tolist()),
                          scaled=tuple(scaled.tolist()),
                          forced_zero=group == "SOodd",
                          period=period,
                          group=group)


# ---------------------------------------------------------------------------
# statistic evaluation


@lru_cache(maxsize=64)
def _harmonics(phi, period):
    kmax = int(math.floor(phi.beta * period - 1e-12))
    ks = np.arange(kmax + 1)
    return ks, phi.fourier(ks / period) / period


def periodized_value(phi, period, x):
    """Periodic summation of phi over the circle of the given length.

    Exact for transforms supported inside (-period, period): the value
    is the cosine series with coefficients phi_hat(k/period)/period.
    Evaluation uses |x| so reflected angles give bit-identical values.
    """
    ks, coeffs = _harmonics(phi, period)
    xs = np.abs(np.asarray(x, dtype=float))
    shape = xs.shape
    flat = xs.ravel()
    phase = (2.0 * math.pi / period) * flat[:, None] * ks[None, :]
    vals = np.sum(np.cos(phase) * (2.0 * coeffs)[None, :], axis=1) - coeffs[0]
    if shape == ():
        return float(vals[0])
    return vals.reshape(shape)


@lru_cache(maxsize=8)
def _distinct(size, n):
    """Mask of the n-tuples over range(size) with pairwise distinct entries."""
    axes = np.ix_(*[np.arange(size)] * n)
    keep = np.ones((size,) * n, dtype=bool)
    for a in range(n):
        for b in range(a):
            keep &= axes[a] != axes[b]
    return keep


def _d_n(vals, zeros, with_zero, mult):
    """Exact fsum of the starred n-level term list of one spectrum.

    vals[slot, j] is the slot's test function at point j.  Scaling by
    `mult` (2 when each point stands for a conjugate pair) is exact, so
    it counts both signed indices at once.  The structural zero, when
    it takes part, is one more point, valued zeros[slot] and unscaled.
    Each term is a product in slot order over distinct points, hence
    the same float as its brute-force counterpart times a power of 2.
    """
    cols = mult * vals
    if with_zero:
        cols = np.column_stack([cols, zeros])
    n, size = cols.shape
    prod = cols[0]
    for row in cols[1:]:
        prod = np.multiply.outer(prod, row)
    return math.fsum(prod[_distinct(size, n)].tolist())


def d_n_statistic(spectrum: ScaledSpectrum, phis, include_zero: bool) -> float:
    """Starred n-level sum over index tuples with distinct magnitudes.

    Each folded angle contributes both signed indices when the spectrum
    reflects; the structural zero participates in at most one slot and
    only when include_zero is set.  The sum is an exact fsum over an
    explicit term list, so it equals brute-force enumeration bit for
    bit.
    """
    if len(phis) < 1:
        raise ValueError("need at least one test function")
    xs = np.asarray(spectrum.scaled, dtype=float)
    vals = np.array([periodized_value(phi, spectrum.period, xs)
                     for phi in phis])
    zeros = [periodized_value(phi, spectrum.period, 0.0) for phi in phis]
    return _d_n(vals, zeros, include_zero and spectrum.forced_zero,
                2.0 if spectrum.reflect else 1.0)


# ---------------------------------------------------------------------------
# ensemble pipeline


# matrices per sampling batch and spectra per statistic block; no result
# depends on it (per-matrix LAPACK calls), the U temporaries (the
# Hessenberg matrix, the Cayley transform and its solve) scale with it
_CHUNK = 128


def _sample_group_for_index(spec, index):
    if spec.group == "O":
        return "SOeven" if index % 2 == 0 else "SOodd"
    return spec.group


@lru_cache(maxsize=1)
def _spectra(spec: EnsembleSpec):
    """{group: (scaled, period)} for every concrete group of the ensemble.

    `scaled` holds one row of folded angles times period/(2 pi) per
    sample, in index order; the O mixture puts its even indices in the
    SOeven rows and its odd indices in the SOodd rows.
    """
    blocks = {}
    for start in range(0, spec.samples, _CHUNK):
        by_group = {}
        for i in range(start, min(start + _CHUNK, spec.samples)):
            by_group.setdefault(_sample_group_for_index(spec, i), []).append(i)
        for group, indices in by_group.items():
            if group == "U":
                angles = _verblunsky_angles(spec.size, spec.seed, indices)
            else:
                angles = _jacobi_angles(group, spec.size, spec.seed, indices)
            blocks.setdefault(group, []).append(angles)
    out = {}
    for group, parts in blocks.items():
        period = _period(group, _dimension(group, spec.size))
        scaled = np.concatenate(parts) * (period / (2.0 * math.pi))
        scaled.flags.writeable = False  # every cache hit shares it
        out[group] = (scaled, period)
    return out


clear_spectrum_cache = _spectra.cache_clear


@dataclass(frozen=True)
class EnsembleReport:
    """Monte Carlo summary of one statistic against its prediction."""

    statistic: str
    group: str
    size: int
    samples: int
    seed: int
    mc_mean: float
    mc_stderr: float
    prediction: float
    z_score: float
    betas: tuple

    def to_json_dict(self):
        return {
            "statistic": self.statistic,
            "group": self.group,
            "N": self.size,
            "samples": self.samples,
            "seed": self.seed,
            "n": len(self.betas),
            "beta": [float(b) for b in self.betas],
            "mc_mean": float(self.mc_mean),
            "mc_stderr": float(self.mc_stderr),
            "prediction": float(self.prediction),
            "z_score": float(self.z_score),
        }


def prediction_for(group: str, phis, include_zero: bool) -> float:
    """Kernel-side prediction matching an ensemble statistic; for O, the
    average of its two parities."""
    # without its forced zero an SO(2N+1) spectrum follows Sp
    types = {"SOeven": kernels.SOEVEN, "USp": kernels.SP, "U": kernels.U,
             "SOodd": kernels.SOODD if include_zero else kernels.SP}
    if group == "O":
        return 0.5 * (prediction_for("SOeven", phis, include_zero)
                      + prediction_for("SOodd", phis, include_zero))
    if group not in types:
        raise ValueError("unknown group %r" % (group,))
    return float(kernels.n_level_prediction(types[group], phis))


def ensemble_average(spec: EnsembleSpec, phis,
                     include_zero: bool) -> EnsembleReport:
    """Mean, standard error, and z-score of the n-level statistic."""
    phis = list(phis)
    # validates n and the supports before any matrix is sampled
    prediction = prediction_for(spec.group, phis, include_zero)
    values = []
    for group, (scaled, period) in _spectra(spec).items():
        zeros = [periodized_value(phi, period, 0.0) for phi in phis]
        with_zero = include_zero and group == "SOodd"
        mult = 1.0 if group == "U" else 2.0
        for start in range(0, len(scaled), _CHUNK):
            block = scaled[start:start + _CHUNK]
            vals = np.stack([periodized_value(phi, period, block)
                             for phi in phis], axis=1)
            values.extend(_d_n(v, zeros, with_zero, mult) for v in vals)
    mean, stderr = _mean_stderr(values)
    return EnsembleReport(
        statistic="D%d" % len(phis),
        group=spec.group,
        size=spec.size,
        samples=spec.samples,
        seed=spec.seed,
        mc_mean=mean,
        mc_stderr=stderr,
        prediction=prediction,
        z_score=_z_against(mean, stderr, prediction),
        betas=tuple(p.beta for p in phis),
    )

