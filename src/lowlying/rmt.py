"""Haar sampling on the classical compact groups and ensemble n-level
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

Orthogonal and symplectic spectra come from two batched singular value
decompositions per chunk: for a unitary M with eigenangles t, the
singular values of I - M and I + M are 2|sin(t/2)| and 2|cos(t/2)|,
each accurate to machine epsilon in absolute terms, so 2 atan2 of the
pair gives |t| without the digit loss of arccos near 0 and pi.  Unitary
spectra need signed angles and take one batched general eigensolver call
per chunk.  Special orthogonal draws with determinant -1 are redrawn at
the next attempt address.

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

from . import kernels
from .family import _mean_stderr, _z_against
from .measures import RejectionBudgetError
from .rng import normals

__all__ = [
    "EnsembleSpec",
    "ScaledSpectrum",
    "EnsembleReport",
    "haar_sample",
    "scaled_spectrum",
    "periodized_value",
    "d_n_statistic",
    "ensemble_average",
    "mean_scaled_spacing",
    "clear_spectrum_cache",
    "GROUPS",
    "RejectionBudgetError",
]

GROUPS = ("SOeven", "SOodd", "USp", "U", "O")

_STREAMS = {"SOeven": 201, "SOodd": 202, "USp": 203, "U": 204}

_MAX_ATTEMPTS = 64


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


def _gaussian_stack(seed, stream, indices, attempt, dim):
    flat = normals(seed, stream, np.asarray(indices, dtype=np.uint64),
                   attempt=attempt, count=dim * dim)
    return flat.reshape(len(indices), dim, dim)


def _fix_qr_signs(q, r):
    d = np.diagonal(r, axis1=-2, axis2=-1)
    s = np.where(d >= 0.0, 1.0, -1.0)
    return q * s[..., None, :]


def _special_orthogonal_batch(group, size, seed, indices):
    """Batch of SO(dim) matrices; det=-1 draws are redrawn per index."""
    dim = _dimension(group, size)
    stream = _STREAMS[group]
    idx = np.asarray(indices, dtype=np.uint64)
    out = np.empty((len(idx), dim, dim))
    pending = np.arange(len(idx))
    for attempt in range(_MAX_ATTEMPTS):
        if pending.size == 0:
            return out
        z = _gaussian_stack(seed, stream, idx[pending], attempt, dim)
        q, r = np.linalg.qr(z)
        q = _fix_qr_signs(q, r)
        signs, _ = np.linalg.slogdet(q)
        accept = signs > 0
        out[pending[accept]] = q[accept]
        pending = pending[~accept]
    raise RejectionBudgetError(
        "no determinant +1 draw within %d attempts" % _MAX_ATTEMPTS)


def _unitary_batch(size, seed, indices):
    dim = size
    idx = np.asarray(indices, dtype=np.uint64)
    flat = normals(seed, _STREAMS["U"], idx, attempt=0, count=2 * dim * dim)
    a = flat[:, :dim * dim].reshape(len(idx), dim, dim)
    b = flat[:, dim * dim:].reshape(len(idx), dim, dim)
    z = (a + 1j * b) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phase = d / np.abs(d)
    return q * np.conj(phase)[..., None, :]


def _symplectic_batch(size, seed, indices):
    """USp(2N) via the polar factor of a quaternionic Gaussian block."""
    n = size
    idx = np.asarray(indices, dtype=np.uint64)
    flat = normals(seed, _STREAMS["USp"], idx, attempt=0, count=4 * n * n)
    parts = [flat[:, k * n * n:(k + 1) * n * n].reshape(len(idx), n, n)
             for k in range(4)]
    x = (parts[0] + 1j * parts[1]) / math.sqrt(2.0)
    y = (parts[2] + 1j * parts[3]) / math.sqrt(2.0)
    z = np.block([[x, y], [-np.conj(y), np.conj(x)]])
    h = np.conj(z).swapaxes(-1, -2) @ z
    w, v = np.linalg.eigh(h)
    # Z (Z^H Z)^{-1/2}: a real function of a quaternionic Hermitian
    # matrix keeps the quaternionic structure, so the factor stays in
    # the symplectic group
    inv_root = (v / np.sqrt(w)[..., None, :]) @ np.conj(v).swapaxes(-1, -2)
    return z @ inv_root


def _sample_batch(group, size, seed, indices):
    if group in ("SOeven", "SOodd"):
        return _special_orthogonal_batch(group, size, seed, indices)
    if group == "U":
        return _unitary_batch(size, seed, indices)
    return _symplectic_batch(size, seed, indices)


def haar_sample(spec: EnsembleSpec, index: int):
    """Haar-distributed matrix, deterministic in (seed, group, index)."""
    if not 0 <= index < spec.samples:
        raise ValueError("index out of range")
    return _sample_batch(_sample_group_for_index(spec, index), spec.size,
                         spec.seed, [index])[0]


# ---------------------------------------------------------------------------
# spectra


def _fail_rows(bad, what, indices):
    if np.any(bad):
        where = ""
        if indices is not None:
            where = "sample index %d: " % indices[int(np.argmax(bad))]
        raise EigenSolverError(where + what)


def _abs_angles(mats, indices=None):
    """|eigenangles| of each matrix of a unitary stack, ascending.

    From the SVD pair of the module docstring; `indices` label the rows
    in error messages.
    """
    dim = mats.shape[-1]
    eye = np.eye(dim)
    gram = np.conj(mats).swapaxes(-1, -2) @ mats
    # a unitary matrix has its eigenvalues on the unit circle
    _fail_rows(np.max(np.abs(gram - eye), axis=(-2, -1)) > 1e-9,
               "matrix is not unitary, so its eigenvalues leave the unit "
               "circle", indices)
    # contiguous operands: numpy's arctan2 takes another loop, with other
    # last bits, for a reversed view, and the view's layout varies with
    # the stack size
    sin_half = np.linalg.svd(eye - mats, compute_uv=False)[..., ::-1].copy()
    cos_half = np.linalg.svd(eye + mats, compute_uv=False)
    return 2.0 * np.arctan2(sin_half, cos_half)


def _angles(mats, group, indices=None):
    """Eigenangles of each matrix of a stack, one ascending row each.

    Orthogonal and symplectic angles come in conjugate pairs, so the
    ascending |t| hold each pair twice; neighbours are folded into one
    angle in [0, pi], and the SOodd forced zero is dropped.  Unitary
    angles are the eigenvalue phases in [0, 2 pi).  `indices` label the
    rows in error messages.
    """
    if group == "U":
        ev = np.linalg.eigvals(mats)
        _fail_rows(np.max(np.abs(np.abs(ev) - 1.0), axis=-1) > 1e-9,
                   "eigenvalues left the unit circle", indices)
        ang = np.angle(ev)
        return np.sort(np.where(ang < 0.0, ang + 2.0 * math.pi, ang))
    abs_ang = _abs_angles(mats, indices)
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
# depends on it (per-matrix LAPACK calls), the USp temporaries scale with it
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
            mats = _sample_batch(group, spec.size, spec.seed, indices)
            blocks.setdefault(group, []).append(_angles(mats, group, indices))
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
    """Kernel-side prediction matching an ensemble statistic."""
    if group == "SOeven":
        return float(kernels.n_level_prediction(kernels.SOEVEN, phis))
    if group == "USp":
        return float(kernels.n_level_prediction(kernels.SP, phis))
    if group == "U":
        return float(kernels.n_level_prediction(kernels.U, phis))
    if group == "SOodd":
        which = kernels.SOODD if include_zero else kernels.SP
        return float(kernels.n_level_prediction(which, phis))
    if group == "O":
        even = float(kernels.n_level_prediction(kernels.SOEVEN, phis))
        odd = prediction_for("SOodd", phis, include_zero)
        return 0.5 * (even + odd)
    raise ValueError("unknown group %r" % (group,))


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


def mean_scaled_spacing(spec: EnsembleSpec) -> float:
    """Average gap between consecutive scaled points, pooled over the ensemble.

    Only interior gaps (consecutive positive points of one spectrum) enter the
    pool.  With the adapted circumference the pooled mean sits a couple of
    percent below 1 at moderate matrix size; it converges to 1 as the size
    grows.  This is a diagnostic, not a calibration target.
    """
    gaps = np.concatenate([np.diff(scaled).ravel()
                           for scaled, _ in _spectra(spec).values()])
    return math.fsum(gaps.tolist()) / len(gaps)
