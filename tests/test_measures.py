import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import density_f, density_g, density_st_inf, limit_density
from hypothesis import given, settings, strategies as st

from lowlying import measures as M
from lowlying.quadrature import QuadratureError, adaptive_tensor, panel_grid
from lowlying.summary import NumericFailure

COORD = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def test_density_f_examples():
    # direct evaluation of the closed form: (sqrt(2)+1/sqrt(2))^2 = 4.5
    assert abs(density_f(2, 0, 0) - 9.0 / 20.25) < 1e-12
    assert abs(density_f(2, 1, 0) - 9.0 / (3.5 * 4.5)) < 1e-12


def test_density_g_examples():
    assert abs(density_g(2, 0, 0, 1) - 6.0) < 1e-12
    assert abs(density_g(2, 0, 0, -1) - 3.0 / 4.5) < 1e-12
    # boundary: the square-root factor vanishes, xy/4 = 1
    assert abs(density_g(2, 2, 2, 1) - 6.0) < 1e-12


def test_density_st_inf_examples():
    assert density_st_inf(0, 0) == 0.0
    assert density_st_inf(2, 0) == 0.0
    assert abs(density_st_inf(1, -1) - 3.0 / math.pi ** 2) < 1e-12


@settings(max_examples=100, deadline=None)
@given(COORD, COORD, st.sampled_from([2, 3, 5, 999983]))
def test_raw_density_is_the_factor_product_bit_for_bit(x, y, p):
    x, y = np.float64(x), np.float64(y)
    oracle = density_f(p, x, y) * density_g(p, x, y, 1) \
        * density_g(p, x, y, -1) * density_st_inf(x, y)
    assert np.float64(M._raw_density(p, x, y)).tobytes() \
        == np.float64(oracle).tobytes()


@settings(max_examples=100, deadline=None)
@given(COORD, COORD)
def test_density_symmetry(x, y):
    for p in (2, 5):
        assert density_f(p, x, y) == pytest.approx(density_f(p, y, x), rel=1e-12)
        for s in (1, -1):
            assert density_g(p, x, y, s) == pytest.approx(
                density_g(p, y, x, s), rel=1e-12)
    spec = M.vertical_measure(3)
    assert M.density_mu_p(spec, x, y) == pytest.approx(
        M.density_mu_p(spec, y, x), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(COORD)
def test_diagonal_and_boundary_zeros(t):
    spec = M.vertical_measure(2)
    assert M.density_mu_p(spec, t, t) == 0.0
    assert M.density_mu_p(spec, 2.0, t) == 0.0
    assert M.density_mu_p(spec, t, -2.0) == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        M.vertical_measure(4)
    with pytest.raises(ValueError):
        M.vertical_measure(1)
    with pytest.raises(ValueError):
        M.density_mu_p(M.vertical_measure(2), 2.5, 0)


@pytest.mark.parametrize("p,message", [
    (10 ** 18 + 1, "got 1000000000000000001 = 101 * 9900990099009901"),
    # composites with no factor below 2^16 to name, rejected at once
    (65537 ** 2, "got 4295098369"),
    ((10 ** 9 + 7) * (10 ** 9 + 9), "got 1000000016000000063")])
def test_large_composites_are_rejected(p, message):
    with pytest.raises(ValueError,
                       match=re.escape("p must be prime, " + message) + "$"):
        M.check_prime(p)


def test_large_prime_is_accepted():
    assert M.check_prime(10 ** 18 + 3) == 10 ** 18 + 3


@pytest.mark.parametrize("call", [
    lambda: M.check_prime(2.0), lambda: M.vertical_measure(3.0),
    lambda: M.sample_array(M.vertical_measure(2), 1, 3.0)],
    ids=["check_prime", "vertical_measure", "sample_count"])
def test_rejects_every_float_before_sampling(call, monkeypatch):
    def drew(*args):
        raise AssertionError("sampled before validation")
    monkeypatch.setattr(M._rng, "uniforms", drew)
    with pytest.raises(ValueError, match="prime|integer"):
        call()


@pytest.mark.parametrize("seed, message", [
    (5.0, "seed must be an integer"), (-1, r"seed must be in \[0, 2\^64\)"),
    (2 ** 64 + 5, r"seed must be in \[0, 2\^64\)")],
    ids=["float", "negative", "past_2_64"])
def test_rejects_every_bad_seed_before_sampling(seed, message, monkeypatch):
    # the streams see a seed modulo 2^64, so 2^64 + 5 would draw seed 5's
    def drew(*args):
        raise AssertionError("sampled before validation")
    monkeypatch.setattr(M._rng, "uniforms", drew)
    with pytest.raises(ValueError, match=message):
        M.sample_array(M.vertical_measure(2), seed, 3)


@pytest.mark.parametrize("p", [4, 2.5, 1, "2"])
def test_spec_built_directly_checks_its_prime(p):
    with pytest.raises(ValueError, match="prime"):
        M.MeasureSpec(p)


def test_spec_normalization_follows_its_prime():
    assert M.MeasureSpec(2) == M.vertical_measure(2)
    assert M.MeasureSpec(2).normalization == 18 / 5
    with pytest.raises(TypeError):
        M.MeasureSpec(2, 5.0)


@pytest.mark.parametrize("p", [2, 3, 5, 11, 101])
def test_normalization(p):
    spec = M.vertical_measure(p)
    total = M.integrate(spec, lambda x, y: np.ones_like(x), tol=1e-9)
    assert abs(total - 1.0) < 1e-8


CLOSED_FORM_PRIMES = [2, 3, 5, 7, 11, 13, 101, 997, 999983]


@pytest.mark.parametrize("p", CLOSED_FORM_PRIMES)
def test_normalization_is_the_closed_form_mass(p):
    exact = 2 * (p + 1) ** 2 / (p * p + 1)
    assert M.vertical_measure(p).normalization == exact

    # the raw density's mass by its own quadrature, in angle coordinates
    def f(al, be):
        return M._raw_density(p, 2.0 * np.cos(al), 2.0 * np.cos(be)) \
            * 4.0 * np.sin(al) * np.sin(be)

    mass = adaptive_tensor(f, (0.0, math.pi, 0.0, math.pi), 1e-13)[0]
    assert abs(mass - exact) <= 1e-13 * exact


def test_vertical_measure_runs_no_quadrature(monkeypatch):
    def integrated(*args, **kwargs):
        raise AssertionError("vertical_measure ran a quadrature")

    monkeypatch.setattr(M, "adaptive_tensor", integrated)
    # and at primes no other test builds, so nothing cached stands in
    for p in CLOSED_FORM_PRIMES + [1009, 100003, 1000003]:
        assert M.vertical_measure(p).p == p


def test_odd_moment_vanishes():
    for p in (2, 3, 5):
        spec = M.vertical_measure(p)
        assert abs(M.integrate(spec, lambda x, y: x + y)) < 1e-6


def _limit_expectation(integrand):
    # the limit oracle in angle coordinates, where its roots are smooth
    def f(al, be):
        x = 2.0 * np.cos(al)
        y = 2.0 * np.cos(be)
        return integrand(x, y) * limit_density(x, y) * 4.0 * np.sin(al) \
            * np.sin(be)

    return adaptive_tensor(f, (0.0, math.pi, 0.0, math.pi), 1e-10)[0]


def test_limit_oracle_has_mass_one():
    assert abs(_limit_expectation(lambda x, y: np.ones_like(x)) - 1.0) < 1e-9


def test_weak_convergence_of_moments():
    specs = [M.vertical_measure(p) for p in (2, 11, 101, 10007)]
    for i in range(3):
        for j in range(3):
            target = _limit_expectation(lambda x, y: x ** i * y ** j)
            diffs = [abs(M.integrate(s, lambda x, y: x ** i * y ** j) - target)
                     for s in specs]
            for earlier, later in zip(diffs, diffs[1:]):
                assert later <= earlier + 1e-9


def test_near_limit_density_grid():
    # largest prime below 10^6 (the formula requires a prime modulus)
    p = 999983
    spec = M.vertical_measure(p)
    g = np.linspace(-2.0, 2.0, 50)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    dv = np.asarray(M.density_mu_p(spec, xx.ravel(), yy.ravel()))
    dl = limit_density(xx.ravel(), yy.ravel())
    assert float(np.max(np.abs(dv - dl))) < 1e-2


def test_integrate_dual_route_against_sampler():
    spec = M.vertical_measure(5)
    quad = M.integrate(spec, lambda x, y: (x - y) ** 2)
    assert quad > 0
    pts = M.sample_array(spec, 20260821, 200000)
    vals = (pts[:, 0] - pts[:, 1]) ** 2
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - quad) < 3.0 * se


def test_integrate_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr("lowlying.quadrature._M_MAX", 64)
    spec = M.vertical_measure(2)
    with pytest.raises(QuadratureError):
        M.integrate(spec, lambda x, y: np.cos(3000.0 * x * y), tol=1e-12)


def test_sample_support_and_determinism():
    spec = M.vertical_measure(2)
    a = M.sample_array(spec, 7, 4000)
    b = M.sample_array(spec, 7, 4000)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 2.0)
    first = M.sample_array(spec, 7, 100)
    assert np.array_equal(a[:100], first)  # batch-size invariance


def test_sample_mean_matches_quadrature():
    spec = M.vertical_measure(2)
    pts = M.sample_array(spec, 1, 100000)
    s = pts[:, 0] + pts[:, 1]
    se = s.std(ddof=1) / math.sqrt(s.size)
    target = M.integrate(spec, lambda x, y: x + y)
    assert abs(s.mean() - target) < 3.0 * se


@pytest.mark.parametrize("p", [2, 97])
@pytest.mark.parametrize("points", [1, 7, 4096, M._POINTS])
def test_sample_slices_do_not_change_points(p, points, monkeypatch):
    # counts one below, at and one above a slice edge, against whole
    # rounds in one slice; each draw's (index, attempt) address is fixed
    spec = M.vertical_measure(p)
    counts = [c for c in (points - 1, points, points + 1) if c >= 1]
    monkeypatch.setattr(M, "_POINTS", points + 2)
    whole = [M.sample_array(spec, 11, c) for c in counts]
    monkeypatch.setattr(M, "_POINTS", points)
    for c, want in zip(counts, whole):
        assert np.array_equal(M.sample_array(spec, 11, c), want)


def _grid_envelope(spec):
    # the unblocked oracle: the whole 401^2 grid in one evaluation
    g = np.linspace(-2.0, 2.0, 401)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    return 1.05 * float(np.max(M.density_mu_p(spec, xx.ravel(), yy.ravel())))


@pytest.mark.parametrize("points", [1, 1000, M._POINTS])
def test_envelope_blocks_match_the_whole_grid(points, monkeypatch):
    monkeypatch.setattr(M, "_POINTS", points)
    for p in (2, 3, 5, 7, 97):
        spec = M.vertical_measure(p)
        assert M._envelope.__wrapped__(spec) == _grid_envelope(spec)


def _traced_peak(fn, *args):
    """Bytes numpy and Python allocate at the peak of fn(*args) above
    what was live before, and fn's result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1] - before, out
    finally:
        tracemalloc.stop()


# bytes per point of one slice: about 31 doubles, measured, are live at
# once (3 uniforms and their Philox words, two coordinates, the
# density's factor temporaries and the accept masks); 64 leaves room
_SLICE_BYTES = 64 * 8


def test_sampler_transients_do_not_grow_with_count(monkeypatch):
    # a sampler run keeps its output (16 bytes a point) and the pending
    # index array (8 bytes a point); all else lives for one slice of
    # _POINTS points, whatever the count.  Whole rounds in one slice
    # take about 200 bytes a point, 13 MB at the larger count
    monkeypatch.setattr(M, "_POINTS", 4096)
    spec = M.vertical_measure(2)
    M._envelope(spec)  # its own bound is checked below
    for count in (4 * 4096, 16 * 4096):
        peak, out = _traced_peak(M.sample_array, spec, 5, count)
        assert out.nbytes == 16 * count
        assert peak - 24 * count < _SLICE_BYTES * 4096


def test_envelope_transients_are_one_block(monkeypatch):
    # a block of at most _POINTS grid points at a time; the whole 401^2
    # grid at once takes about 14 MB
    monkeypatch.setattr(M, "_POINTS", 4096)
    peak, _ = _traced_peak(M._envelope.__wrapped__, M.vertical_measure(3))
    assert peak < _SLICE_BYTES * 4096


def _box_mass(spec, x0, x1, y0, y1):
    # integrate the normalized density over a sub-rectangle, in angle
    # coordinates so the boundary square roots stay smooth
    a0, a1 = math.acos(x1 / 2.0), math.acos(x0 / 2.0)
    b0, b1 = math.acos(y1 / 2.0), math.acos(y0 / 2.0)

    def f(al, be):
        x = 2.0 * np.cos(al)
        y = 2.0 * np.cos(be)
        d = np.asarray(M.density_mu_p(spec, x, y))
        return d * 4.0 * np.sin(al) * np.sin(be)

    # a fixed rule: f is not periodic on a sub-rectangle, so the midpoint
    # rule of adaptive_tensor would converge only quadratically
    ga, wa = panel_grid(a0, a1, 2, 20)
    gb, wb = panel_grid(b0, b1, 2, 20)
    fv = f(np.repeat(ga, gb.size), np.tile(gb, ga.size))
    return float(wa @ fv.reshape(ga.size, gb.size) @ wb)


def test_sampler_chisquare_p3():
    spec = M.vertical_measure(3)
    n = 30000
    pts = M.sample_array(spec, 1, n)
    xedges = [-2.0, -1.2, -0.4, 0.4, 1.2, 2.0]
    yedges = [-2.0, 0.0, 2.0]
    chi2 = 0.0
    total_mass = 0.0
    for i in range(5):
        for j in range(2):
            mass = _box_mass(spec, xedges[i], xedges[i + 1],
                             yedges[j], yedges[j + 1])
            total_mass += mass
            count = int(np.sum(
                (pts[:, 0] >= xedges[i]) & (pts[:, 0] < xedges[i + 1])
                & (pts[:, 1] >= yedges[j]) & (pts[:, 1] < yedges[j + 1])))
            expect = n * mass
            chi2 += (count - expect) ** 2 / expect
    assert abs(total_mass - 1.0) < 1e-7
    # 10 cells -> 9 degrees of freedom; 99th percentile of chi2_9
    assert chi2 < 21.666


def test_envelope_violation_detected(monkeypatch):
    spec = M.vertical_measure(999959)
    # simulate a stale cached supremum
    monkeypatch.setattr(M, "_envelope", lambda spec: 1e-6)
    with pytest.raises(NumericFailure, match="envelope"):
        M.sample_array(spec, 0, 10)
