import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowlying import hecke as H, summary

ANGLE = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)


def _spin_params(s):
    return [np.exp(1j * s.theta1), np.exp(-1j * s.theta1),
            np.exp(1j * s.theta2), np.exp(-1j * s.theta2)]


def _std_params(s):
    t1, t2 = s.theta1, s.theta2
    return [1.0 + 0j, np.exp(1j * (t1 + t2)), np.exp(-1j * (t1 + t2)),
            np.exp(1j * (t1 - t2)), np.exp(-1j * (t1 - t2))]


def _h_brute(params, n):
    # complete homogeneous symmetric function by monomial enumeration
    total = 0.0 + 0j
    for combo in itertools.combinations_with_replacement(range(len(params)), n):
        prod = 1.0 + 0j
        for i in combo:
            prod *= params[i]
        total += prod
    return total.real


def test_spin_dirichlet_examples():
    s = H.SpinSatake(0.0, 0.0)
    assert H.spin_dirichlet_coeff(s, 1) == pytest.approx(4.0, abs=1e-12)
    assert H.spin_dirichlet_coeff(s, 2) == pytest.approx(10.0, abs=1e-12)


def test_spin_second_coeff_identity_1000_points():
    # criterion: coefficient at the square of a prime equals
    # a^2 + ab + b^2 - 2 pointwise
    u = np.random.default_rng(20260822)
    pts = u.uniform(-2.0, 2.0, size=(1000, 2))
    worst = 0.0
    for a, b in pts:
        s = H.SpinSatake.from_pair(a, b)
        got = H.spin_dirichlet_coeff(s, 2)
        want = a * a + a * b + b * b - 2.0
        worst = max(worst, abs(got - want))
    assert worst < 1e-10


@settings(max_examples=40, deadline=None)
@given(ANGLE, ANGLE, st.integers(min_value=0, max_value=6))
def test_spin_coeff_matches_brute_force(t1, t2, n):
    s = H.SpinSatake(t1, t2)
    assert H.spin_dirichlet_coeff(s, n) == pytest.approx(
        _h_brute(_spin_params(s), n), abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(ANGLE, ANGLE, st.integers(min_value=0, max_value=5))
def test_std_coeff_matches_brute_force(t1, t2, n):
    s = H.SpinSatake(t1, t2)
    got = float(H.std_coeff_grid(s.a, s.b, n)[n])
    assert got == pytest.approx(_h_brute(_std_params(s), n), abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(ANGLE, ANGLE, st.integers(min_value=0, max_value=12))
def test_tempered_bounds(t1, t2, n):
    s = H.SpinSatake(t1, t2)
    assert abs(H.spin_dirichlet_coeff(s, n)) <= math.comb(n + 3, 3) + 1e-9
    assert abs(float(H.std_coeff_grid(s.a, s.b, n)[n])) \
        <= math.comb(n + 4, 4) + 1e-9


def _recurrence_loop(c, n_max):
    # 1/Q(t) one element at a time, adding c_j h_{n-j} in increasing j
    h = [1.0]
    for n in range(1, n_max + 1):
        acc = 0.0
        for j, cj in enumerate(c[:n], start=1):
            acc += cj * h[n - j]
        h.append(-acc)
    return h


def _spin_c(a, b):
    return (-(a + b), 2.0 + a * b, -(a + b), 1.0)


def _std_c(a, b):
    e2 = a * a + a * b + b * b - 2.0
    return (-(1.0 + a * b), e2, -e2, 1.0 + a * b, -1.0)


@pytest.mark.parametrize("grid, coeffs", [(H.spin_coeff_grid, _spin_c),
                                          (H.std_coeff_grid, _std_c)])
def test_coeff_grid_matches_a_plain_recurrence_bit_for_bit(grid, coeffs):
    # the term order is what `family` outputs depend on; the inputs also
    # cover broadcasting an array against a scalar
    u = np.random.default_rng(20261019)
    a, b = u.uniform(-2.0, 2.0, size=(2, 1000))
    for x, y in ((a, b), (0.37, -1.25), (a, -1.25)):
        got = grid(x, y, 9)
        assert got.shape == (10,) + np.shape(x)
        xs, ys = np.broadcast_arrays(x, y)
        for i in np.ndindex(xs.shape):
            want = _recurrence_loop(coeffs(float(xs[i]), float(ys[i])), 9)
            assert got[(slice(None),) + i].tolist() == want


def test_conductor_examples():
    assert H.analytic_conductor(H.FormShape(10, 10, 1)) == 400
    assert H.analytic_conductor(H.FormShape(12, 10, 1)) == 4356
    c1 = H.analytic_conductor(H.FormShape(10, 10, 2))
    assert c1 == 800  # linear in the level


def test_root_numbers():
    assert H.spin_root_number_level_one(10) == 1
    assert H.spin_root_number_level_one(11) == -1
    for k2 in range(3, 12):
        assert H.spin_root_number_level_one(k2 + 1) == \
            -H.spin_root_number_level_one(k2)
    assert H.std_root_number() == 1


def test_non_tempered_rejected():
    with pytest.raises(ValueError):
        H.SpinSatake.from_pair(2.5, 0.0)
    with pytest.raises(ValueError):
        H.SpinSatake(-0.1, 0.0)


def test_round_trip_with_point():
    s = H.SpinSatake.from_pair(1.234, -0.567)
    assert s.a == pytest.approx(1.234, abs=1e-12)
    assert s.b == pytest.approx(-0.567, abs=1e-12)


def test_shape_validation():
    with pytest.raises(ValueError):
        H.FormShape(3, 4)
    with pytest.raises(ValueError):
        H.FormShape(4, 2)
    with pytest.raises(ValueError):
        H.FormShape(4, 4, 0)


@pytest.mark.parametrize("call", [
    lambda: H.spin_root_number_level_one(10.5),
    lambda: H.spin_dirichlet_coeff(H.SpinSatake(0.5, 1.0), 2.0),
    lambda: H.FormShape(4, 3, 1.5)],
    ids=["root_number_k2", "coefficient_power", "shape_level"])
def test_rejects_every_float(call):
    with pytest.raises(ValueError, match="integer"):
        call()


def test_shape_stores_numpy_integers_as_ints():
    shape = H.FormShape(np.int64(5), np.int32(4), np.uint8(2))
    assert (shape.k1, shape.k2, shape.q) == (5, 4, 2)
    assert {type(v) for v in (shape.k1, shape.k2, shape.q)} == {int}


def _trial_division(m):
    out, d = {}, 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


class TestFactorize:
    def test_primality_matches_trial_division(self):
        for n in range(-2, 20000):
            assert summary._is_prime(n) == (
                n >= 2 and _trial_division(n) == {n: 1}), n

    @pytest.mark.parametrize("n", [
        2047, 1373653, 25326001, 3215031751, 2152302898747,
        3474749660383, 341550071728321, 3825123056546413051,
        # strong pseudoprime to every prime base up to 37
        318665857834031151167461,
        # above the bound, with no factor up to 41: a witness rejects it
        (2 ** 61 - 1) * (10 ** 18 + 3)])
    def test_rejects_strong_pseudoprimes(self, n):
        assert not summary._is_prime(n)

    def test_accepts_large_primes(self):
        for p in (10 ** 12 + 39, 2 ** 61 - 1, 10 ** 18 + 3):
            assert summary._is_prime(p)
            assert not summary._is_prime(p * 3)

    def test_factorization_matches_trial_division(self):
        for m in list(range(1, 3000)) + [2 ** 40, 3 ** 20 * 7, 10 ** 12,
                                         1009 ** 6, 1009 ** 3 * 1013 ** 2,
                                         999983 * 999979]:
            assert (list(summary._factorize(m).items())
                    == list(_trial_division(m).items())), m
        # a square-free level whose trial division runs to 1e9: rho
        # splits it
        p, q = 10 ** 9 + 7, 10 ** 9 + 9
        assert summary._factorize(p * q) == {p: 1, q: 1}

    def test_rho_gives_up_once_its_budget_runs_out(self, monkeypatch):
        # (10^9 + 7)(10^9 + 9) is charged 65534 steps
        level = (10 ** 9 + 7) * (10 ** 9 + 9)
        monkeypatch.setattr(summary, "_RHO_STEPS", 65533)
        with pytest.raises(ValueError, match="cannot factor %d: .* of %d in "
                           "its budget of 65533 steps" % (6 * level, level)):
            summary._factorize(6 * level)
        monkeypatch.setattr(summary, "_RHO_STEPS", 65534)
        assert summary._factorize(6 * level) == {2: 1, 3: 1, 10 ** 9 + 7: 1,
                                                 10 ** 9 + 9: 1}

    def test_primes_above_the_bound_are_not_certified(self):
        p = 10 ** 25 + 13
        with pytest.raises(ValueError, match=str(summary._MR_BOUND)):
            summary._is_prime(p)
        with pytest.raises(ValueError, match=str(summary._MR_BOUND)):
            summary._factorize(6 * p)

    def test_large_prime_powers_factor_at_once(self):
        p = 10 ** 18 + 3
        assert summary._factorize(p) == {p: 1}
        assert summary._factorize(12 * p ** 5) == {2: 2, 3: 1, p: 5}
        assert H.main_term_spin(p ** 2) == float(
            Fraction(1, p) * (1 + Fraction(1, p ** 2)))
        assert H.main_term_spin(p ** 3) == 0.0

    def test_main_term_at_a_small_prime_power(self):
        want = Fraction(1, 1009 ** 3) * sum(
            Fraction(1, 1009 ** (2 * i)) for i in range(4))
        assert H.main_term_spin(1009 ** 6) == float(want)

    def test_integer_roots(self):
        for k in range(1, 40):
            for m in (1, 2, 7, 10 ** 30 + 12345, 2 ** 200 - 1, 3 ** 100):
                r = summary._iroot(m, k)
                assert r ** k <= m < (r + 1) ** k, (m, k)
