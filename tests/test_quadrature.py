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


@pytest.mark.parametrize("tol", [1e-8, 1e-13])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_reported_error_covers_the_exact_value(p, tol):
    # the normalized mass is 1; the spin moments are the main terms
    cases = [(_mass(p), 1.0)] + [(_spin(p, n), family.main_term_spin(p ** n))
                                 for n in range(1, 7)]
    for f, exact in cases:
        value, error, _ = Q.adaptive_tensor(f, BOX, tol)
        assert error <= 0.5 * tol
        assert abs(value - exact) <= error + 1e-15


@pytest.mark.parametrize("f, tol, panels", [
    (_mass(2), 1e-8, 52), (_mass(3), 1e-8, 25), (_mass(5), 1e-8, 16),
    (_spin(2, 6), 1e-7, 52), (_spin(3, 6), 1e-7, 43), (_spin(5, 6), 1e-7, 16),
])
def test_panel_counts_are_pinned(f, tol, panels):
    # uniform refinement only reaches 16 * 4^k panels
    assert Q.adaptive_tensor(f, BOX, tol)[2] == panels


def test_budget_exhaustion_caps_each_call():
    sizes = []

    def f(x, y):
        sizes.append(x.size)
        return np.cos(3000.0 * x * y)

    with pytest.raises(Q.QuadratureError) as info:
        Q.adaptive_tensor(f, BOX, 1e-12)
    assert math.isfinite(info.value.estimate)
    assert info.value.error > 0.5e-12
    assert max(sizes) == Q._SPLIT_CAP * 4 * Q._ORDER_HI ** 2


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_nonpositive_tol_is_rejected_before_any_evaluation(tol):
    def f(x, y):
        raise AssertionError("f evaluated for tol %r" % (tol,))

    with pytest.raises(ValueError, match="tol must be positive"):
        Q.adaptive_tensor(f, BOX, tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        M.integrate(M.vertical_measure(3), f, tol=tol)
