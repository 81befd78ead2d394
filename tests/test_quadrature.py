import math

import numpy as np
import pytest

from lowlying import family, hecke, measures as M, quadrature as Q

BOX = (0.0, math.pi, 0.0, math.pi)


def _expectation_f(p, integrand):
    # the integrand measures.integrate hands the driver, in angle coordinates
    spec = M.vertical_measure(p)

    def f(al, be):
        x = 2.0 * np.cos(al)
        y = 2.0 * np.cos(be)
        d = M.density_mu_p(spec, x, y)
        return integrand(x, y) * d * 4.0 * np.sin(al) * np.sin(be)

    return f


def _mass(p):
    return _expectation_f(p, lambda x, y: np.ones_like(x))


def _spin(p, n):
    return _expectation_f(p, lambda x, y: hecke.spin_coeff_grid(x, y, n)[n])


@pytest.mark.parametrize("tol", [1e-8, 1e-13, 1e-15])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_reported_error_covers_the_exact_value(p, tol):
    # the normalized mass is 1; the spin moments are the main terms
    cases = [(_mass(p), 1.0)] + [(_spin(p, n), family.main_term_spin(p ** n))
                                 for n in range(1, 7)]
    for f, exact in cases:
        value, error, _ = Q.adaptive_tensor(f, BOX, tol)
        assert error <= 0.5 * tol
        assert abs(value - exact) <= error + 1e-15


@pytest.mark.parametrize("f, tol, m", [
    pytest.param(_mass(2), 1e-8, 64, id="mass-p2-1e-08"),
    pytest.param(_mass(3), 1e-8, 64, id="mass-p3-1e-08"),
    pytest.param(_mass(5), 1e-8, 64, id="mass-p5-1e-08"),
    pytest.param(_spin(2, 6), 1e-7, 64, id="spin6-p2-1e-07"),
    pytest.param(_spin(3, 6), 1e-7, 64, id="spin6-p3-1e-07"),
    pytest.param(_spin(5, 6), 1e-7, 64, id="spin6-p5-1e-07"),
    pytest.param(_mass(2), 1e-13, 128, id="mass-p2-1e-13"),
])
def test_node_counts_are_pinned(f, tol, m):
    # the first difference compares m = 32 with 64, so the count is 64^2
    # unless the tolerance makes the rule double again
    assert Q.adaptive_tensor(f, BOX, tol)[2] == m * m


def test_budget_exhaustion_caps_each_call():
    sizes = []

    def f(x, y):
        sizes.append(x.size)
        return np.cos(3000.0 * x * y)

    with pytest.raises(Q.QuadratureError) as info:
        Q.adaptive_tensor(f, BOX, 1e-12)
    assert math.isfinite(info.value.estimate)
    assert info.value.error > 0.5e-12
    # the cap is reached and never passed
    assert max(sizes) == Q._M_MAX ** 2


def test_non_periodic_integrand():
    # exp(x + y)'s even reflection about an edge of the unit square has a
    # kink, so the midpoint error falls only 4x per doubling
    exact = (math.e - 1.0) ** 2

    def f(x, y):
        return np.exp(x + y)

    value, error, _ = Q.adaptive_tensor(f, (0.0, 1.0, 0.0, 1.0), 1e-4)
    assert error <= 0.5e-4
    assert abs(value - exact) <= error
    with pytest.raises(Q.QuadratureError) as info:
        Q.adaptive_tensor(f, (0.0, 1.0, 0.0, 1.0), 1e-12)
    assert abs(info.value.estimate - exact) <= info.value.error


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_nonpositive_tol_is_rejected_before_any_evaluation(tol):
    def f(x, y):
        raise AssertionError("f evaluated for tol %r" % (tol,))

    with pytest.raises(ValueError, match="tol must be positive"):
        Q.adaptive_tensor(f, BOX, tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        M.integrate(M.vertical_measure(3), f, tol=tol)


def _legendre_root(order, start):
    """The root of P_order next to `start`, and its Gauss-Legendre weight
    2 (1 - r^2) / (order P_(order-1)(r))^2, by mpmath."""
    import mpmath

    def dp(t):
        return order * (mpmath.legendre(order - 1, t)
                        - t * mpmath.legendre(order, t)) / (1 - t * t)

    r = mpmath.findroot(lambda t: mpmath.legendre(order, t),
                        mpmath.mpf(start), df=dp, solver="newton")
    return r, 2 * (1 - r * r) / (order * mpmath.legendre(order - 1, r)) ** 2


@pytest.mark.parametrize("order", [8, 12, 20])
def test_gauss_legendre_matches_mpmath(order):
    # worst cases at 40 digits: nodes 0.50, 0.53 and 0.64 ulp from the
    # roots, weights 6.0, 8.7 and 25.9 ulps at orders 8, 12 and 20; the
    # outermost weight is the worst, as the recurrence's rounding grows
    # with the order
    import mpmath

    x, w = Q.gauss_legendre(order)
    assert len(x) == len(w) == order
    with mpmath.workdps(40):
        for xi, wi in zip(x.tolist(), w.tolist()):
            root, weight = _legendre_root(order, xi)
            assert abs(xi - float(root)) <= math.ulp(xi), xi
            assert abs(wi - float(weight)) <= 2 * order * math.ulp(wi), xi


@pytest.mark.parametrize("order", [1, 2, 7, 8, 12, 20])
def test_gauss_legendre_is_exactly_symmetric(order):
    x, w = Q.gauss_legendre(order)
    assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])


@pytest.mark.parametrize("order", [8, 12, 20])
def test_gauss_legendre_integrates_polynomials_to_degree_2n_minus_1(order):
    # powers by repeated products are odd or even in x bit for bit, so
    # an odd power's terms cancel in pairs and their exactly rounded sum
    # is 0; numpy.polynomial's leggauss is off by up to 4e-14 at order 20
    x, w = Q.gauss_legendre(order)
    power = np.ones_like(x)
    for k in range(2 * order):
        got = math.fsum((w * power).tolist())
        power = power * x
        if k % 2:
            assert got == 0.0, k
        else:
            assert got == pytest.approx(2.0 / (k + 1), rel=1e-14), k


def test_gauss_legendre_arrays_are_read_only():
    # every cache hit shares them, so a write in place would reach the
    # next caller
    for a in Q.gauss_legendre(12):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
