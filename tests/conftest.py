"""Shared test helpers.

`brute_d_n` re-derives the n-level statistic by literal enumeration of
signed index tuples.  It is the oracle the vectorised implementation is
required to match bit for bit, so it deliberately shares nothing with
the production term-list construction.

`brute_rubinstein` re-derives the combinatorial route's sum term by term:
every set partition, every even subset of its blocks and every pairing
of that subset, folded through nested fsums.  It shares the per-block
grid arithmetic with `kernels`, so it checks the subset recursion that
combines the blocks.

`kernel_eval` and `density_W` are the pointwise determinant oracle: the
sine-plus-reflection kernel, and the determinant of its matrix at given
points, which the determinant route integrates.

`density_f`, `density_g` and `density_st_inf` are the three factor
formulas of the vertical measure at a prime p: `measures._raw_density`
must equal their product `density_f * density_g(+1) * density_g(-1) *
density_st_inf` bit for bit.  `limit_density` is the p -> infinity limit
of that measure, the semicircle-pair factor divided by its exact mass 2.

`haar_batch` draws dense Haar matrices: QR of a Gaussian matrix for the
orthogonal and unitary groups, the polar factor of a quaternionic
Gaussian matrix for the symplectic group.  It is the distributional
oracle for the Jacobi-matrix and Verblunsky-matrix eigenangles the
package computes.

`cli_env` builds the environment for `python -m lowlying` subprocesses.

`philox4x32` runs the package's Philox rounds on broadcast counter words;
it is the known-answer harness and the per-address oracle for
`rng.uniforms`.

`reference_family_csv` writes a family one `csv.writer` row at a time;
the block-wise `family.write_family_csv` must match its bytes.
"""

import csv
import itertools
import math
import os
import random
from dataclasses import dataclass

import numpy as np

import lowlying
from lowlying import rmt
from lowlying.kernels import _halved_ends, _pair_integral
from lowlying.rng import _philox_rounds, normals

# absolute directory holding the imported `lowlying` package (`src/`
# when it is not installed), so children find it from any working dir
PACKAGE_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(lowlying.__file__)))


def cli_env(threads):
    """Caller's environment with the package importable and BLAS threads set.

    `threads` goes into both OPENBLAS_NUM_THREADS and OMP_NUM_THREADS;
    the CLI is expected to override both before numpy loads.
    """
    env = dict(os.environ)
    paths = [PACKAGE_ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["OPENBLAS_NUM_THREADS"] = threads
    env["OMP_NUM_THREADS"] = threads
    return env


def philox4x32(key, ctr):
    """Apply the 10-round Philox-4x32 block function.

    `key` is a pair of 32-bit ints and `ctr` four array_like counter
    words (32-bit payloads), broadcastable to a common shape.  Returns a
    tuple of four uint64 arrays of that shape holding the output words.
    """
    words = np.stack(np.broadcast_arrays(
        *(np.asarray(c, dtype=np.uint64) for c in ctr)))
    _philox_rounds(key, words.reshape(4, -1))
    return tuple(words)


def reference_family_csv(family, fh):
    """Rows form_id,prime,a,b,epsilon through csv.writer, one per form
    and prime."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["form_id", "prime", "a", "b", "epsilon"])
    primes = sorted(family.points)
    eps = family.epsilons
    for i in range(len(family)):
        for p in primes:
            a, b = family.points[p][i]
            writer.writerow([i, p, repr(float(a)), repr(float(b)),
                             int(eps[i])])


def _special_orthogonal_batch(group, size, seed, indices):
    """Batch of SO(dim) matrices; det -1 draws are redrawn per index at
    the next attempt address."""
    dim = rmt._dimension(group, size)
    idx = np.asarray(indices, dtype=np.uint64)
    out = np.empty((len(idx), dim, dim))
    pending = np.arange(len(idx))
    for attempt in range(64):
        if pending.size == 0:
            return out
        z = normals(seed, rmt._STREAMS[group], idx[pending], attempt=attempt,
                    count=dim * dim).reshape(len(pending), dim, dim)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * np.where(d >= 0.0, 1.0, -1.0)[..., None, :]
        accept = np.linalg.det(q) > 0
        out[pending[accept]] = q[accept]
        pending = pending[~accept]
    raise RuntimeError("no determinant +1 draw within 64 attempts")


def _unitary_batch(size, seed, indices):
    """U(N) via QR of a complex Gaussian matrix, with the phases of R's
    diagonal moved out of Q."""
    dim = size
    idx = np.asarray(indices, dtype=np.uint64)
    flat = normals(seed, rmt._STREAMS["U"], idx, attempt=0,
                   count=2 * dim * dim)
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
    flat = normals(seed, rmt._STREAMS["USp"], idx, attempt=0, count=4 * n * n)
    parts = [flat[:, k * n * n:(k + 1) * n * n].reshape(len(idx), n, n)
             for k in range(4)]
    x = (parts[0] + 1j * parts[1]) / math.sqrt(2.0)
    y = (parts[2] + 1j * parts[3]) / math.sqrt(2.0)
    z = np.block([[x, y], [-np.conj(y), np.conj(x)]])
    w, v = np.linalg.eigh(np.conj(z).swapaxes(-1, -2) @ z)
    # Z (Z^H Z)^{-1/2}: a real function of a quaternionic Hermitian
    # matrix keeps the quaternionic structure, so the factor stays in
    # the symplectic group
    inv_root = (v / np.sqrt(w)[..., None, :]) @ np.conj(v).swapaxes(-1, -2)
    return z @ inv_root


def haar_batch(group, size, seed, indices):
    """Dense Haar matrices of SO(2N), SO(2N+1), USp(2N) or U(N), one per
    index, deterministic in (seed, group, index)."""
    if group == "U":
        return _unitary_batch(size, seed, indices)
    if group == "USp":
        return _symplectic_batch(size, seed, indices)
    return _special_orthogonal_batch(group, size, seed, indices)


def kernel_eval(epsilon, x, y):
    """Sine kernel plus epsilon times its reflection; sinc(0) = 1."""
    if epsilon not in (-1, 0, 1):
        raise ValueError("epsilon must be -1, 0, or +1")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    v = np.sinc(xa - ya) + (epsilon * np.sinc(xa + ya) if epsilon else 0.0)
    if np.isscalar(x) and np.isscalar(y):
        return float(v)
    return v


def density_W(G, xs):
    """Continuous part of the n-level density of symmetry type G at the
    points xs; the odd orthogonal class's delta terms are left out."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.size < 1:
        raise ValueError("need at least one coordinate")

    def det_for(eps):
        m = kernel_eval(eps, xs[:, None], xs[None, :])
        return float(np.linalg.det(np.atleast_2d(m)))

    if G.tag == "O":
        return 0.5 * (det_for(1) + det_for(-1))
    return det_for(G.epsilon)


def _semicircle_roots(x, y):
    return (np.sqrt(np.clip(1.0 - x * x / 4.0, 0.0, None)),
            np.sqrt(np.clip(1.0 - y * y / 4.0, 0.0, None)))


def density_f(p, x, y):
    """Rational factor (p + 1)^2 / ((B - x^2)(B - y^2)), B = p + 2 + 1/p."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    big = p + 2.0 + 1.0 / p  # (sqrt(p) + 1/sqrt(p))^2
    return (p + 1.0) ** 2 / ((big - x * x) * (big - y * y))


def density_g(p, x, y, sign):
    """Reflection factor (p + 1) / (B - 2(1 + xy/4 + sign r)), with r the
    product of the two semicircle roots."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    big = p + 2.0 + 1.0 / p
    sx, sy = _semicircle_roots(x, y)
    return (p + 1.0) / (big - 2.0 * (1.0 + x * y / 4.0 + sign * (sx * sy)))


def density_st_inf(x, y):
    """Semicircle-pair factor: squared difference times both roots."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    sx, sy = _semicircle_roots(x, y)
    return ((x - y) ** 2 / math.pi ** 2) * sx * sy


def limit_density(x, y):
    """Density of the p -> infinity limit measure; density_st_inf has
    mass 2 pi^2 / pi^2 = 2 on the square."""
    return density_st_inf(x, y) / 2.0


def brute_d_n(spectrum, phis, include_zero):
    """Sum over signed index tuples with pairwise distinct magnitudes.

    Products are taken in slot order, so every individual term is the
    same float the production code folds into its term list.  Every group
    but U pairs each angle with its conjugate, and SOodd alone forces an
    angle at zero.
    """
    points = {}
    for j, x in enumerate(spectrum.scaled, start=1):
        points[j] = x
        if spectrum.group != "U":
            points[-j] = -x
    if include_zero and spectrum.group == "SOodd":
        points[0] = 0.0
    values = {
        idx: [rmt.periodized_value(phi, spectrum.period, x) for phi in phis]
        for idx, x in points.items()
    }
    n = len(phis)
    terms = []
    for combo in itertools.product(points, repeat=n):
        if len({abs(i) for i in combo}) != n:
            continue
        prod = 1.0
        for slot, idx in enumerate(combo):
            prod = prod * values[idx][slot]
        terms.append(prod)
    return math.fsum(terms)


def random_small_spectrum(rng: random.Random):
    """Synthetic folded spectrum with a handful of generic points."""
    group = rng.choice(["SOeven", "SOodd", "USp", "U"])
    m = rng.randrange(0, 6)
    period = rng.uniform(8.0, 40.0)
    xs = sorted(rng.uniform(0.05, 0.45 * period) for _ in range(m))
    return rmt.ScaledSpectrum(scaled=tuple(xs), period=period, group=group)


@dataclass(frozen=True)
class PartitionStructure:
    """A set partition of {1..n} with blocks ordered by least element."""

    n: int
    blocks: tuple

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if seen & set(b):
                raise ValueError("blocks must be disjoint")
            seen |= set(b)
        if seen != set(range(1, self.n + 1)):
            raise ValueError("blocks must cover {1..n}")

    @property
    def nu(self) -> int:
        return len(self.blocks)


def enumerate_partitions(n: int):
    """All set partitions of {1..n}, blocks sorted by least element."""
    if not 1 <= n <= 8:
        raise ValueError("n must be in 1..8")
    out = []

    def grow(i, blocks):
        if i > n:
            out.append(PartitionStructure(
                n, tuple(tuple(b) for b in blocks)))
            return
        for b in blocks:
            b.append(i)
            grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        grow(i + 1, blocks)
        blocks.pop()

    grow(1, [])
    return out


def enumerate_pairings(items):
    """All perfect matchings of the given even-sized collection."""
    items = list(items)
    if len(items) % 2:
        raise ValueError("cannot pair an odd number of items")
    if not items:
        return [()]
    out = []
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for sub in enumerate_pairings(remaining):
            out.append(((first, partner),) + sub)
    return out


def brute_rubinstein(sign, phis, h):
    """Sum over set partitions of the inputs, even subsets of each
    partition's blocks, and pairings of each subset, on step-h grids."""
    n = len(phis)
    blocks = {}

    def block_data(block):
        """(grid, hat0, phi0) of a block; its grid folds the transforms
        in ascending index order."""
        if block not in blocks:
            fns = [phis[i - 1] for i in block]
            acc = None
            for phi in fns:
                m = int(round(phi.beta / h))
                v = phi.fourier(np.arange(-m, m + 1) * h)
                acc = v if acc is None else \
                    np.convolve(_halved_ends(acc), _halved_ends(v)) * h
            grid = acc, (acc.size - 1) // 2
            hat0 = fns[0].fourier_at_zero if len(fns) == 1 \
                else float(acc[grid[1]])
            phi0 = 1.0
            for phi in fns:
                phi0 *= phi.value_at_zero
            blocks[block] = grid, hat0, phi0
        return blocks[block]

    partition_terms = []
    for part in enumerate_partitions(n):
        prefactor = (-2.0) ** (n - part.nu)
        for b in part.blocks:
            prefactor *= math.factorial(len(b) - 1)
        subset_terms = []
        for k in range(0, part.nu + 1, 2):
            for subset in itertools.combinations(range(part.nu), k):
                factor = 1.0
                for li, b in enumerate(part.blocks):
                    if li not in subset:
                        _, hat0, phi0 = block_data(b)
                        factor *= hat0 + sign * 0.5 * phi0
                pairing_terms = []
                for pairing in enumerate_pairings(subset):
                    val = 2.0 ** (k // 2)
                    for a, b in pairing:
                        val *= _pair_integral(block_data(part.blocks[a])[0],
                                              block_data(part.blocks[b])[0],
                                              h)
                    pairing_terms.append(val)
                subset_terms.append(factor * math.fsum(pairing_terms))
        partition_terms.append(prefactor * math.fsum(subset_terms))
    return math.fsum(partition_terms)
