"""Tests for the density-kernel module.

Closed-form one-level values and the exact n=2 partition-sum values used
below were derived by hand from the definitions (triangle transforms
integrate in closed form) before the implementation produced them.
"""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from conftest import (PartitionStructure, brute_rubinstein, density_W,
                      enumerate_pairings, enumerate_partitions, kernel_eval)
from lowlying import kernels as K
from lowlying.quadrature import panel_grid


def tf(beta):
    return K.fejer_test_function(beta)


# ---------------------------------------------------------------------------
# kernel values


def test_kernel_examples():
    assert kernel_eval(1, 0.0, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert kernel_eval(0, 0.7, 0.7) == pytest.approx(1.0, abs=1e-15)
    assert kernel_eval(-1, 0.5, 0.5) == pytest.approx(1.0, abs=1e-15)
    # reflection with integer offset: sinc vanishes at nonzero integers
    assert kernel_eval(-1, 2.0, 1.0) == pytest.approx(
        math.sin(math.pi * 1.0), abs=1e-15)


def test_kernel_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        kernel_eval(2, 0.0, 0.0)


@given(st.floats(-20, 20), st.floats(-20, 20),
       st.sampled_from([-1, 0, 1]))
def test_kernel_symmetry(x, y, eps):
    a = kernel_eval(eps, x, y)
    b = kernel_eval(eps, y, x)
    assert a == pytest.approx(b, abs=1e-12)
    assert abs(a) <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# determinantal densities


def test_density_examples():
    assert density_W(K.U, [0.37]) == pytest.approx(1.0, abs=1e-14)
    assert density_W(K.SOEVEN, [0.0]) == pytest.approx(2.0, abs=1e-14)
    # repeated coordinate makes the matrix singular
    assert density_W(K.SP, [0.3, 0.3]) == pytest.approx(0.0, abs=1e-14)


def test_density_O_is_average():
    xs = [0.21, -0.8]
    avg = 0.5 * (density_W(K.SOEVEN, xs) + density_W(K.SOODD, xs))
    assert density_W(K.O_TYPE, xs) == pytest.approx(avg, abs=1e-14)


def test_density_matches_manual_det():
    xs = np.array([0.15, -0.4, 0.9])
    m = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            m[i, j] = kernel_eval(-1, xs[i], xs[j])
    assert density_W(K.SP, xs) == pytest.approx(
        float(np.linalg.det(m)), rel=1e-12)


def test_symmetry_type_epsilon_table():
    assert K.U.epsilon == 0
    assert K.SOEVEN.epsilon == 1
    assert K.SOODD.epsilon == -1
    assert K.SP.epsilon == -1
    assert K.O_TYPE.epsilon is None
    assert [g.has_delta for g in K.ALL_TYPES] == [
        False, False, True, False, False]
    with pytest.raises(ValueError):
        K.SymmetryType("SO3")


# ---------------------------------------------------------------------------
# test functions


def test_fejer_basic_values():
    phi = tf(0.9)
    assert phi.fourier_at_zero == pytest.approx(1.0, abs=1e-15)
    assert phi.value_at_zero == pytest.approx(0.9, abs=1e-15)
    assert phi.fourier(0.45) == pytest.approx(0.5, abs=1e-15)
    assert phi.fourier(-0.45) == pytest.approx(0.5, abs=1e-15)
    assert phi.fourier(0.95) == 0.0
    assert phi.fourier(5.0) == 0.0


def test_fejer_value_closed_form():
    phi = tf(0.7)
    xs = np.linspace(-25.0, 25.0, 1201)
    want = 0.7 * np.sinc(0.7 * xs) ** 2
    assert np.max(np.abs(phi.value(xs) - want)) < 1e-12


@pytest.mark.parametrize("b", [0.25, 0.6, 0.9])
def test_fejer_sides_agree(b):
    # the x side and the Fourier side are separate closed forms; the
    # x side must be the numerical cosine transform of the triangle
    phi = tf(b)
    for x in (0.0, 0.3, 1.7, 4.9, 25.3):
        want = 2.0 * quad(
            lambda u: (1 - u / b) * math.cos(2 * math.pi * x * u),
            0.0, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert phi.value(x) == pytest.approx(want, abs=1e-11)


def test_testfunction_validation():
    for beta in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            K.TestFunction(beta=beta)


# ---------------------------------------------------------------------------
# one-level closed forms


ONE_LEVEL_CLOSED = {
    "U": 1.0,
    "SOeven": 1.45,
    "SOodd": 1.45,
    "Sp": 0.55,
    "O": 1.45,
}


@pytest.mark.parametrize("tag", sorted(ONE_LEVEL_CLOSED))
def test_one_level_closed_forms(tag):
    phi = tf(0.9)
    got = K.n_level_prediction(K.SymmetryType(tag), [phi])
    assert abs(got - ONE_LEVEL_CLOSED[tag]) < 1e-8


@given(st.floats(0.1, 0.89))
@settings(max_examples=12, deadline=None)
def test_one_level_closed_forms_general_beta(beta):
    phi = tf(beta)
    h0, h1 = 1.0, 0.5 * beta
    assert K.n_level_prediction(K.U, [phi]) == pytest.approx(h0, abs=1e-9)
    assert K.n_level_prediction(K.SOEVEN, [phi]) == pytest.approx(
        h0 + h1, abs=1e-9)
    assert K.n_level_prediction(K.SP, [phi]) == pytest.approx(
        h0 - h1, abs=1e-9)
    assert K.n_level_prediction(K.SOODD, [phi]) == pytest.approx(
        h0 - h1 + beta, abs=1e-9)


def _x_space_j1(beta, eps):
    """int phi(x) (1 + eps sinc 2x) dx by scipy's quad: on [0, 30]
    directly, and beyond 30 from phi(x) = c (1 - cos 2 pi beta x) / x^2,
    c = 1 / (2 pi^2 beta), and (1 - cos a) sin b = sin b - (sin(b + a) +
    sin(b - a)) / 2, as oscillatory tails of x^-2 and x^-3."""
    phi, T = tf(beta), 30.0
    core = quad(lambda x: phi.value(x) * (1.0 + eps * np.sinc(2.0 * x)),
                0.0, T, epsabs=1e-14, epsrel=1e-14, limit=1000)[0]

    def tail(weight, w, d):
        return quad(lambda x: x ** -d, T, np.inf, weight=weight, wvar=w,
                    limlst=200)[0]

    c, w = 1.0 / (2.0 * math.pi ** 2 * beta), 2.0 * math.pi
    sines = (tail("sin", w, 3) - 0.5 * tail("sin", w * (1 + beta), 3)
             - 0.5 * tail("sin", w * (1 - beta), 3))
    return 2.0 * (core + c * (1.0 / T - tail("cos", w * beta, 2))
                  + eps * c / w * sines)


@pytest.mark.parametrize("eps", [-1, 0, 1])
@pytest.mark.parametrize("beta", [0.1, 0.2, 0.25, 0.3, 0.4, 0.45, 0.6, 0.9])
def test_j1_error_covers_closed_form(beta, eps):
    # by Parseval, int phi(x) (1 + eps sinc 2x) dx = hat phi(0) + eps
    # phi(0) / 2, as sinc 2x transforms to 1/2 on [-1, 1]; for the Fejer
    # function that is 1 + eps beta / 2, exactly in rationals; the x-space
    # quadrature checks the closed form itself
    value, err = K._j1(tf(beta), eps)
    assert abs(Fraction(value) - (1 + eps * Fraction(beta) / 2)) \
        <= Fraction(err)
    assert value == pytest.approx(_x_space_j1(beta, eps), abs=1e-9)


@pytest.mark.parametrize("eps", [-1, 0, 1])
@pytest.mark.parametrize("beta", [0.1, 0.25, 0.45, 0.9])
def test_j1_within_two_ulps_of_closed_form(beta, eps):
    # whatever error it reports, the value itself is accurate to rounding
    value, _ = K._j1(tf(beta), eps)
    assert abs(Fraction(value) - (1 + eps * Fraction(beta) / 2)) <= 4.4e-16


def _one_level_exact(tag, beta):
    """1 + eps beta / 2, plus phi(0) = beta at the SOodd zero; O is the
    mean of the two orthogonal types."""
    if tag == "O":
        return (_one_level_exact("SOeven", beta)
                + _one_level_exact("SOodd", beta)) / 2
    b = Fraction(beta)
    delta = b if tag == "SOodd" else 0
    return 1 + K.SymmetryType(tag).epsilon * b / 2 + delta


@pytest.mark.parametrize("beta", [0.9, 0.45, 0.1, 1e-3, 1e-6, 1e-10])
@pytest.mark.parametrize("G", K.ALL_TYPES, ids=lambda g: g.tag)
def test_one_level_error_covers_the_exact_value(G, beta):
    value, err = K.prediction_with_error(G, [tf(beta)])
    assert abs(Fraction(value) - _one_level_exact(G.tag, beta)) \
        <= Fraction(err)


def test_prediction_error_reported():
    v, e = K.prediction_with_error(K.SOEVEN, [tf(0.9)])
    assert e > 0.0 and e < 1e-8
    assert v == pytest.approx(1.45, abs=1e-8)


def test_support_violation_raised():
    with pytest.raises(ValueError, match="Fourier support"):
        K.n_level_prediction(K.U, [tf(0.95)])
    with pytest.raises(ValueError, match="Fourier support"):
        K.n_level_prediction(K.U, [tf(0.5), tf(0.5)])  # beta_n = 0.45


def test_no_high_n():
    # nine inputs at beta = 0.1 are within their supports
    with pytest.raises(ValueError, match="1..8"):
        K.n_level_prediction(K.U, [tf(0.1)] * 9)


# ---------------------------------------------------------------------------
# the oracle's partitions and pairings


def test_partition_counts():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert len(enumerate_partitions(n)) == bell


def test_partition_canonical_block_order():
    for part in enumerate_partitions(4):
        mins = [min(b) for b in part.blocks]
        assert mins == sorted(mins)
        assert part.nu == len(part.blocks)
        assert sorted(i for b in part.blocks for i in b) == [1, 2, 3, 4]


def test_partition_validation():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(9)
    with pytest.raises(ValueError):
        PartitionStructure(2, ((1,),))
    with pytest.raises(ValueError):
        PartitionStructure(2, ((1, 2), (2,)))


def test_pairing_counts():
    assert len(enumerate_pairings([])) == 1
    assert enumerate_pairings([]) == [()]
    assert len(enumerate_pairings([1, 2])) == 1
    assert len(enumerate_pairings([1, 2, 3, 4])) == 3
    assert len(enumerate_pairings([1, 2, 3, 4, 5, 6])) == 15
    with pytest.raises(ValueError):
        enumerate_pairings([1, 2, 3])


def test_pairings_cover_all_items():
    items = [3, 1, 4, 1.5, 9, 2]
    for pairing in enumerate_pairings(items):
        flat = sorted(x for pair in pairing for x in pair)
        assert flat == sorted(items)


# ---------------------------------------------------------------------------
# combinatorial route


def test_rubinstein_one_level_closed_form():
    phi = tf(0.9)
    assert K.rubinstein_rhs(1, [phi]) == pytest.approx(1.45, abs=1e-9)
    assert K.rubinstein_rhs(-1, [phi]) == pytest.approx(0.55, abs=1e-9)


def test_rubinstein_rejects_bad_sign():
    with pytest.raises(ValueError):
        K.rubinstein_rhs(0, [tf(0.5)])


def test_rubinstein_two_level_exact_pins():
    # hand computation for twin triangles at beta = 0.45:
    #   singles (1 +- 0.225)^2, merged block -2*(0.3 +- 0.10125),
    #   pairing term beta^2/3 = 0.0675
    phis = [tf(0.45), tf(0.45)]
    assert K.rubinstein_rhs(1, phis) == pytest.approx(0.765625, abs=1e-9)
    assert K.rubinstein_rhs(-1, phis) == pytest.approx(0.270625, abs=1e-9)


def test_rubinstein_two_level_mixed_exact_pins():
    # hand computation for betas 0.4 and 0.3: cross transform integral
    # 0.225, product at zero 0.12, pairing integral 0.0375
    phis = [tf(0.4), tf(0.3)]
    assert K.rubinstein_rhs(1, phis) == pytest.approx(0.8475, abs=1e-9)
    assert K.rubinstein_rhs(-1, phis) == pytest.approx(0.3875, abs=1e-9)


def test_dual_route_two_level():
    for phis in [[tf(0.45), tf(0.45)], [tf(0.4), tf(0.3)]]:
        for sign, G in [(1, K.SOEVEN), (-1, K.SP)]:
            det = K.n_level_prediction(G, phis)
            rub = K.rubinstein_rhs(sign, phis)
            assert abs(det - rub) < 1e-6


def test_subset_recursion_matches_enumeration():
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        for _ in range(3):
            # mixed supports on a common 0.005 grid, at most 0.95 in total
            betas = rng.integers(4, 190 // n, size=n, endpoint=True) * 0.005
            phis = [tf(b) for b in betas]
            for sign in (1, -1):
                assert abs(K._rubinstein_eval(sign, phis, 0.005)
                           - brute_rubinstein(sign, phis, 0.005)) < 1e-12


def test_subset_recursion_matches_enumeration_on_repeated_supports():
    # two values per draw, the first two inputs always equal, so blocks
    # and pairs of blocks with equal inputs at other indices share their
    # grids and pair integrals
    rng = np.random.default_rng(25)
    for n in range(2, 7):
        for _ in range(3):
            two = rng.integers(4, 190 // n, size=2, endpoint=True) * 0.005
            pick = rng.integers(0, 2, size=n)
            pick[1] = pick[0]
            phis = [tf(b) for b in two[pick]]
            for sign in (1, -1):
                assert abs(K._rubinstein_eval(sign, phis, 0.005)
                           - brute_rubinstein(sign, phis, 0.005)) < 1e-12


# rubinstein_rhs(sign, [tf(0.1)] * n), as the term-by-term enumeration
# over partitions, block subsets and pairings computed it
WIDE_PINS = {
    (4, 1): 0.5178595831427191, (4, -1): 0.33350624982591887,
    (5, 1): 0.2990882974853277, (5, -1): 0.17028600590156773,
    (6, 1): 0.14643295671149906, (6, -1): 0.0736430406469254,
    (7, 1): 0.06087166613407866, (7, -1): 0.027113255186668295,
    (8, 1): 0.021633970087572636, (8, -1): 0.008583334562066676,
}


@pytest.mark.parametrize("n,sign", sorted(WIDE_PINS))
def test_rubinstein_wide_pins(n, sign):
    assert abs(K.rubinstein_rhs(sign, [tf(0.1)] * n)
               - WIDE_PINS[n, sign]) < 1e-13


def test_misaligned_supports_raise():
    phis = [tf(1.0 / 3.0), tf(1.0 / 7.0)]
    with pytest.raises(ValueError, match="cannot align"):
        K.rubinstein_rhs(1, phis)


def test_default_betas():
    assert K.default_betas(1) == pytest.approx(0.9)
    assert K.default_betas(3) == pytest.approx(0.3)


def _cold_caches(monkeypatch):
    """Give the kernel bases an empty cache for this test only; the shared
    cache stays warm for later tests."""
    monkeypatch.setattr(K, "_basis", functools.lru_cache(
        maxsize=K._basis.cache_info().maxsize)(K._basis.__wrapped__))


def test_prediction_deterministic(monkeypatch):
    a = K.n_level_prediction(K.SOEVEN, [tf(0.45), tf(0.45)])
    _cold_caches(monkeypatch)
    eigen = mock.Mock(wraps=np.linalg.eigvalsh)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigen)
    b = K.n_level_prediction(K.SOEVEN, [tf(0.45), tf(0.45)])
    assert K._basis.cache_info().misses == 1  # one per eps
    assert eigen.call_count == 0
    assert a == b


# ---------------------------------------------------------------------------
# the determinant route's kernel bases and power sums against dense sums


def _small_box(phis, eps, half_width=6.0, order=8):
    # independent of the module: the full box [-half_width, half_width]
    # as 2 m equal cells mirrored about 0, m = int(half_width) * order,
    # each weighted at its midpoint
    m = int(half_width) * order
    h = half_width / m
    x = h * (np.arange(-m, m) + 0.5)
    wq = np.full(2 * m, h)
    kmat = np.sinc(x[:, None] - x[None, :]) \
        + eps * np.sinc(x[:, None] + x[None, :])
    return kmat, [wq * phi.value(x) for phi in phis]


@functools.lru_cache(maxsize=2)
def _dense_blocks(half_width, order, eps):
    """The half-line nodes and W^1/2 B W^1/2 for each non-zero parity block
    B of K_eps, from np.sinc."""
    x, w = panel_grid(0.0, half_width, int(half_width), order)
    root = np.sqrt(w)
    minus = np.sinc(np.subtract.outer(x, x))
    plus = np.sinc(np.add.outer(x, x))
    blocks = [2.0 * (minus + eps * plus)] if eps else [minus + plus,
                                                      minus - plus]
    return x, [root[:, None] * b * root[None, :] for b in blocks]


def _box_mats(phis, eps, half_width, order):
    """Each input's matrices L^T diag(phi) L on one box, from that box's
    own basis."""
    nodes, factors = K._basis(half_width, order, eps)
    return [[(f.T * phi.value(nodes)) @ f for f in factors] for phi in phis]


def _box_sums(phis, eps, half_width, order=8):
    return K._power_sums(_box_mats(phis, eps, half_width, order))


@pytest.mark.parametrize("eps", [-1, 0, 1])
@pytest.mark.parametrize("box", [(100.0, 12), (100.0, 10)])
def test_kmat_matches_np_sinc_on_the_production_boxes(box, eps):
    # the kernel matrix on each of the determinant route's boxes exists
    # only as its low-rank factor; rounding that grows with x would show
    # here and not on _small_box's x <= 6
    x, want = _dense_blocks(*box, eps)
    nodes, factors = K._basis(*box, eps)
    np.testing.assert_array_equal(nodes, x)
    assert len(factors) == len(want)
    for f, g in zip(factors, want):
        # about the prolate count, 2 box[0] + a few logarithmic terms
        assert f.shape[0] == len(x) and f.shape[1] < 1.2 * box[0]
        assert np.max(np.abs(f @ f.T - g)) <= 1e-14


def test_short_box_nodes_lead_the_production_box():
    width, order = K._BOX2
    short, _ = panel_grid(0.0, 0.8 * width, int(0.8 * width), order)
    nodes, _ = panel_grid(0.0, width, int(width), order)
    assert K._SHORT == len(short) == 960
    np.testing.assert_array_equal(short, nodes[:K._SHORT])


@pytest.mark.parametrize("eps", [-1, 0, 1])
def test_production_factor_prefix_matches_np_sinc_on_the_short_box(eps):
    # the short box exists only as the leading rows of the production
    # box's factor
    width, order = K._BOX2
    _, want = _dense_blocks(0.8 * width, order, eps)
    _, factors = K._basis(width, order, eps)
    assert len(factors) == len(want)
    for f, g in zip(factors, want):
        head = f[:K._SHORT]
        assert np.max(np.abs(head @ head.T - g)) <= 1e-14


@pytest.mark.parametrize("eps", [-1, 0, 1])
@pytest.mark.parametrize("betas", [(0.3, 0.28, 0.25), (0.1,) * 8,
                                   (0.1, 0.11, 0.1, 0.09, 0.11, 0.1, 0.1,
                                    0.09)])
def test_trace_power_sums_match_eigenvalues(betas, eps):
    # on the production box, tr(A^k) by matrix products against the
    # power sums of eigvalsh's eigenvalues, for every subset
    phis = [tf(b) for b in betas]
    n = len(phis)
    mats = _box_mats(phis, eps, *K._BOX2)
    sums = K._power_sums(mats)
    assert list(sums) == [s for size in range(1, n + 1)
                          for s in itertools.combinations(range(n), size)]
    for s, got in sums.items():
        lam = np.concatenate([np.linalg.eigvalsh(sum(block))
                              for block in zip(*(mats[i] for i in s))])
        want = [math.fsum((lam ** k).tolist()) for k in range(2, n + 1)]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("eps", [-1, 0, 1])
def test_power_sum_inputs_are_exactly_symmetric(monkeypatch, eps):
    # _power_sums takes tr(A^k) as a sum over A^(k//2) * A^(k - k//2),
    # which holds for symmetric A; each input's matrix is G^T G, a
    # product of one buffer with its own transpose, and each box's
    # matrix the sum of two such
    seen = []
    power_sums = K._power_sums

    def capture(mats):
        seen.extend(a for blocks in mats for a in blocks)
        return power_sums(mats)

    monkeypatch.setattr(K, "_power_sums", capture)
    K._determinant_table([tf(0.3), tf(0.28), tf(0.25)], eps)
    # two boxes, three inputs, one block per non-zero parity
    assert len(seen) == 2 * 3 * (1 if eps else 2)
    for a in seen:
        assert np.array_equal(a, a.T)


def test_cached_basis_is_read_only():
    # every cache hit shares the nodes and factors, so a write in place
    # would reach the next caller
    nodes, factors = K._basis(*K._BOX2, 0)
    assert len(factors) == 2
    for a in (nodes,) + factors:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@pytest.mark.parametrize("eps", [-1, 0, 1])
def test_j3_matches_direct_triple_sum(eps):
    # K_eps is symmetric, so the six orderings of three distinct weights
    # in tr((D_S K)^3) share one trace, and inclusion and exclusion over
    # the subsets of {0, 1, 2} leaves 6 tr(D_0 K D_1 K D_2 K)
    phis = (tf(0.3), tf(0.28), tf(0.25))
    kmat, (w1, w2, w3) = _small_box(phis, eps)
    direct = np.einsum("x,y,z,xy,yz,zx->", w1, w2, w3, kmat, kmat, kmat)
    sums = _box_sums(phis, eps, 6.0)
    got = math.fsum((-1) ** (3 - len(s)) * p[1]
                    for s, p in sums.items()) / 6.0
    assert got == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("eps", [-1, 0, 1])
def test_j2_table_matches_direct_double_sums(eps):
    # tr(D_a K D_b K) is p_2({a}) on the diagonal and
    # (p_2({a, b}) - p_2({a}) - p_2({b})) / 2 off it
    phis = (tf(0.3), tf(0.28), tf(0.25))
    kmat, weights = _small_box(phis, eps)
    sums = _box_sums(phis, eps, 6.0)
    table = np.array([[sums[(a,)][0] if a == b else
                       0.5 * (sums[tuple(sorted((a, b)))][0]
                              - sums[(a,)][0] - sums[(b,)][0])
                       for b in range(3)] for a in range(3)])
    for a in range(3):
        for b in range(3):
            direct = np.einsum("x,y,xy->", weights[a], weights[b],
                               kmat * kmat)
            assert table[a, b] == pytest.approx(direct, rel=1e-12)
    np.testing.assert_allclose(table, table.T, rtol=1e-13)


@pytest.mark.parametrize("eps", [-1, 0, 1])
def test_half_grid_at_fractional_width_matches_mirrored_box(eps):
    # the power sums run on the half line over the kernel's parity
    # blocks; they are the traces tr((D_S K)^k) over the mirrored full
    # box, at an integer half-width and at 5.5, where the half line holds
    # five panels of width 1.1 and none of the ten mirrored ones straddles
    # 0
    phis = (tf(0.3), tf(0.28), tf(0.25))
    subsets = [s for size in (1, 2, 3)
               for s in itertools.combinations(range(3), size)]
    for half_width in (6.0, 5.5):
        kmat, weights = _small_box(phis, eps, half_width)
        sums = _box_sums(phis, eps, half_width)
        assert list(sums) == subsets
        for s in subsets:
            a = sum(weights[i] for i in s)[:, None] * kmat
            want = [np.trace(np.linalg.matrix_power(a, k)) for k in (2, 3)]
            assert sums[s] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_two_level_prediction_holds_one_half_line_block(monkeypatch):
    # the 100-wide box has 1,200 nodes on the half line, so one kernel
    # block would be 11 MiB; the bases are built a column at a time and
    # never form one
    _cold_caches(monkeypatch)
    tracemalloc.start()
    try:
        K.prediction_with_error(K.SP, [tf(0.45)] * 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1200 * 1200 * 8


def test_j2_pairs_of_a_sublist_come_from_the_cache(monkeypatch):
    # the odd orthogonal prediction also integrates each two-element
    # sub-list; those come from the whole list's table, whose two
    # boxes share one basis, built once
    _cold_caches(monkeypatch)
    K.prediction_with_error(K.SOODD, [tf(0.29), tf(0.27), tf(0.26)])
    info = K._basis.cache_info()
    assert (info.misses, info.hits) == (1, 0)


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("betas", [(0.45, 0.4), (0.3, 0.28, 0.25),
                                   (0.1,) * 8])
def test_box_order_is_converged(betas, eps):
    # the determinant route's error leaves out the quadrature order of
    # its box: two orders less moves every subset's expansion by
    # rounding only, far below the error it reports
    phis = [tf(b) for b in betas]
    width, order = K._BOX2
    values = [K._j1(phi, eps)[0] for phi in phis]
    fine, coarse = (
        K._subset_expansion(values, _box_sums(phis, eps, width, o))
        for o in (order, order - 2))
    for t, (_, err) in K._determinant_table(phis, eps).items():
        gap = abs(fine[t][0] - coarse[t][0])
        assert gap <= 1e-12 and gap <= 1e-4 * err


@pytest.mark.parametrize("betas, soeven, sp", [
    ((0.45, 0.4), 0.7862962961858865, 0.2962962961873664),
    ((0.3, 0.28, 0.25), 0.4283247310864263, 0.16529334123246828),
])
def test_determinant_route_pins(betas, soeven, sp):
    # values of the low-rank basis implementation; a rewrite may move
    # them by rounding only
    phis = [tf(b) for b in betas]
    assert K.n_level_prediction(K.SOEVEN, phis) == pytest.approx(
        soeven, abs=1e-12)
    assert K.n_level_prediction(K.SP, phis) == pytest.approx(sp, abs=1e-12)


@pytest.mark.parametrize("n", range(4, 9))
def test_dual_route_wide(n):
    # the two routes agree past criterion 4's n <= 3, each within the
    # other's reported error
    phis = [tf(0.1)] * n
    for sign, G in [(1, K.SOEVEN), (-1, K.SP)]:
        det, det_err = K.prediction_with_error(G, phis)
        comb, comb_err = K.rubinstein_with_error(sign, phis)
        assert abs(det - comb) < 1e-6
        assert abs(det - comb) <= det_err + comb_err


@pytest.mark.parametrize("make", [lambda n: [tf(0.1)] * n,
                                  lambda n: [tf(0.1) for _ in range(n)]],
                         ids=["shared", "equal"])
def test_equal_inputs_cost_linear_work(monkeypatch, make):
    # the recursion looks its grids and pair integrals up by the tuple of
    # inputs, by value: eight equal inputs are eight distinct tuples, not
    # 255 subsets.  Per evaluation (a call makes two) it pairs each
    # k-tuple's blocks k - 1 ways and convolves once per k >= 2
    n = 8
    pairs = mock.Mock(wraps=K._pair_integral)
    convolutions = mock.Mock(wraps=np.convolve)
    monkeypatch.setattr(K, "_pair_integral", pairs)
    monkeypatch.setattr(np, "convolve", convolutions)
    K.rubinstein_with_error(1, make(n))
    assert pairs.call_count == n * (n - 1)
    assert convolutions.call_count == 2 * (n - 1)


def _cycles(perm):
    """The cycles of a permutation of range(len(perm)), each in the
    order the permutation visits it."""
    seen, out = set(), []
    for start in range(len(perm)):
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = perm[i]
        if cycle:
            out.append(tuple(cycle))
    return out


def _box_cycle(phis, eps, box):
    """sum over the blocks of tr(prod_i diag(phi_i) W^1/2 B W^1/2), the
    box quadrature of the cycle integral through the phis in order."""
    x, blocks = _dense_blocks(*box, eps)
    total = 0.0
    for g in blocks:
        m = [phi.value(x)[:, None] * g for phi in phis]
        head = functools.reduce(np.matmul, m[:-1])
        total += np.sum(head * m[-1].T)
    return total


@functools.lru_cache(maxsize=None)
def _cycle_integral(phis, eps):
    """The cycle integral through the phis in order: j1 for one input;
    otherwise the box sum on the route's box plus its estimated tail, the
    spread against the 0.8-wide box times the route's tail factor."""
    if len(phis) == 1:
        return K._j1(phis[0], eps)[0]
    width, order = K._BOX2
    full = _box_cycle(phis, eps, (width, order))
    short = _box_cycle(phis, eps, (0.8 * width, order))
    return full + (full - short) * K._TAIL_PER_SPREAD


def _permutation_sum(phis, eps, idx):
    """int prod_{i in idx} phi_i det K_eps as the sum over permutations
    sigma of idx of sgn(sigma) times the integral of each cycle."""
    terms = []
    for perm in itertools.permutations(range(len(idx))):
        cycles = _cycles(perm)
        term = (-1.0) ** (len(idx) - len(cycles))
        for cycle in cycles:
            term *= _cycle_integral(tuple(phis[idx[i]] for i in cycle), eps)
        terms.append(term)
    return math.fsum(terms)


def _permutation_oracle(G, phis):
    if G.epsilon is None:
        return 0.5 * (_permutation_oracle(K.SOEVEN, phis)
                      + _permutation_oracle(K.SOODD, phis))
    n = len(phis)
    terms = [_permutation_sum(phis, G.epsilon, tuple(range(n)))]
    if G.has_delta:
        terms += [phis[nu].value_at_zero * _permutation_sum(
            phis, G.epsilon, tuple(i for i in range(n) if i != nu))
            for nu in range(n)]
    return math.fsum(terms)


@pytest.mark.parametrize("betas", [(0.9,), (0.45, 0.4), (0.3, 0.28, 0.25)])
@pytest.mark.parametrize("G", K.ALL_TYPES, ids=lambda g: g.tag)
def test_determinant_route_matches_permutation_sum(G, betas):
    # the route expands det K through eigenvalues of the low-rank factor,
    # the oracle through dense cycle traces: the same box sums, rounded
    # differently
    phis = [tf(b) for b in betas]
    got = K.n_level_prediction(G, phis)
    assert got == pytest.approx(_permutation_oracle(G, tuple(phis)),
                                rel=1e-12, abs=0.0)


@pytest.mark.parametrize("betas, soeven, sp", [
    ((0.2, 0.2), Fraction(11, 12), Fraction(179, 300)),
    ((0.3, 0.3), Fraction(69, 80), Fraction(177, 400)),
    ((0.45, 0.45), Fraction(49, 64), Fraction(433, 1600)),
    ((0.1, 0.2), Fraction(73, 75), Fraction(107, 150)),
])
def test_each_route_error_covers_the_exact_two_level_value(betas, soeven, sp):
    phis = [tf(b) for b in betas]
    for G, sign, exact in [(K.SOEVEN, 1, soeven), (K.SP, -1, sp)]:
        for value, err in [K.prediction_with_error(G, phis),
                           K.rubinstein_with_error(sign, phis)]:
            assert abs(value - float(exact)) <= err


@pytest.mark.parametrize("betas", [(0.2, 0.2), (0.3, 0.3), (0.45, 0.45),
                                   (0.1, 0.2)])
def test_box_rule_is_exact_at_half_the_nodes(monkeypatch, betas):
    # each variable of a two-level integrand is band-limited to
    # 1 + beta < 2, so the midpoint rule on the line is exact for every
    # step below 1/2 (Poisson summation): 6 nodes per unit give 12's
    # values up to rounding
    phis = [tf(b) for b in betas]
    groups = (K.U, K.SOEVEN, K.SP)
    fine = [K.n_level_prediction(G, phis) for G in groups]
    width, order = K._BOX2
    monkeypatch.setattr(K, "_BOX2", (width, order // 2))
    monkeypatch.setattr(K, "_SHORT", K._SHORT // 2)
    coarse = [K.n_level_prediction(G, phis) for G in groups]
    assert coarse == pytest.approx(fine, rel=0.0, abs=1e-13)
