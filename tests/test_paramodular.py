"""Tests for exact level arithmetic: dimensions, convolutions, splits."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lowlying import paramodular as pm


def _level(n):
    return pm.LevelData.from_level(n)


def oldform_table(new_traces, level):
    """Full-space traces from new-subspace ones: for every divisor d of
    the level, the sum over M | d of 2^omega(M) * new_traces[d/M]."""
    return {d: sum(2 ** pm.omega(m) * new_traces[d // m]
                   for m in _level(d).divisors())
            for d in level.divisors()}


class TestOmega:
    def test_examples(self):
        assert pm.omega(1) == 0
        assert pm.omega(30) == 3
        assert pm.omega(12) == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            pm.omega(0)


class TestLevelData:
    def test_unit_level(self):
        lvl = _level(1)
        assert (lvl.n, lvl.factorization, pm.omega(lvl.n)) == (1, (), 0)
        assert lvl.divisors() == (1,)

    def test_composite_levels(self):
        assert _level(6).factorization == (2, 3)
        assert _level(6).divisors() == (1, 2, 3, 6)
        assert len(_level(30).divisors()) == 8
        assert _level(30).divisors() == (1, 2, 3, 5, 6, 10, 15, 30)

    def test_rejects_non_square_free(self):
        for n in (4, 12, 18):
            with pytest.raises(ValueError):
                _level(n)
        with pytest.raises(ValueError):
            _level(0)

    @pytest.mark.parametrize("n", [6.0, 6.5, 2.9, 30.000001])
    def test_rejects_non_integral_level(self, n):
        with pytest.raises(ValueError, match="integer"):
            _level(n)


@pytest.mark.parametrize("call", [
    lambda: pm.LevelData(6.0), lambda: pm.LevelData(6.5),
    lambda: pm.omega(6.5), lambda: pm.pm_trace_split(3, 1, 10.5)],
    ids=["level_integral_float", "level_fraction", "omega",
         "trace_split_k2"])
def test_rejects_every_float(call):
    with pytest.raises(ValueError, match="integer"):
        call()


def test_numpy_integers_are_stored_as_int():
    level = pm.LevelData(np.int64(6))
    report = pm.dimension_report(np.int64(5), np.int32(4), level)
    assert type(level.n) is int
    assert type(report.k1) is int
    assert type(report.k2) is int
    assert (level.n, report.k1, report.k2) == (6, 5, 4)


class TestDimensionMainTerms:
    def test_weight_four_level_one(self):
        assert pm.dim_main_term(4, 4, _level(1)) == Fraction(30, 17280)
        assert pm.dim_main_term(4, 4, _level(1)) == Fraction(1, 576)
        assert abs(float(pm.dim_main_term(4, 4, _level(1))) - 0.0017361) \
            < 5e-8

    def test_weight_four_level_two(self):
        assert pm.dim_main_term(4, 4, _level(2)) \
            == 5 * pm.dim_main_term(4, 4, _level(1))

    def test_level_scaling_is_exact(self):
        for n in (2, 6, 30):
            lvl = _level(n)
            factor = 1
            for p in lvl.factorization:
                factor *= p * p + 1
            assert pm.dim_main_term(7, 5, lvl) \
                == factor * pm.dim_main_term(7, 5, _level(1))

    def test_newform_level_two(self):
        assert pm.dim_newform_main_term(4, 4, _level(2)) == Fraction(1, 384)

    def test_newform_level_one(self):
        assert pm.dim_newform_main_term(4, 4, _level(1)) == Fraction(1, 1152)
        assert pm.dim_newform_main_term(5, 4, _level(1)) \
            == Fraction(4 * 2 * 2 * 6, 2 ** 8 * 27 * 5)

    def test_new_to_full_ratio(self):
        for n in (1, 2, 6, 30):
            lvl = _level(n)
            num = 1
            den = 1
            for p in lvl.factorization:
                num *= p * p - 1
                den *= p * p + 1
            assert (pm.dim_newform_main_term(6, 4, lvl)
                    / pm.dim_main_term(6, 4, lvl)) == Fraction(num, 2 * den)

    def test_positive_on_allowed_range(self):
        for k2 in range(4, 10):
            for k1 in range(k2, 13):
                assert pm.dim_main_term(k1, k2, _level(6)) > 0
                assert pm.dim_newform_main_term(k1, k2, _level(6)) > 0

    def test_weight_polynomial_homogeneity(self):
        # the four linear factors are homogeneous in the shifted
        # weights (k1-1, k2-2), so scaling those shifts by an integer
        # multiplies the result by its fourth power
        base = pm.dim_main_term(4, 4, _level(1))
        assert pm.dim_main_term(7, 6, _level(1)) == 16 * base
        assert pm.dim_main_term(10, 8, _level(1)) == 81 * base

    def test_weight_range_errors(self):
        for k1, k2 in ((4, 3), (3, 4), (3, 3), (5, 6)):
            with pytest.raises(ValueError):
                pm.dim_main_term(k1, k2, _level(1))
            with pytest.raises(ValueError):
                pm.dim_newform_main_term(k1, k2, _level(1))
        with pytest.raises(ValueError):
            pm.dim_main_term(4.0, 4, _level(1))


class TestNewformTrace:
    def test_constant_table_level_six(self):
        traces = {d: 1 for d in _level(6).divisors()}
        assert pm.newform_trace(traces, _level(6)) == 1

    def test_unit_level_passthrough(self):
        assert pm.newform_trace({1: 17}, _level(1)) == 17

    def test_expansion_signs(self):
        # divisors 1, 2, 3, 6 weighted (-2)^omega: +1, -2, -2, +4
        traces = {1: 1000, 2: 100, 3: 10, 6: 1}
        assert pm.newform_trace(traces, _level(6)) \
            == 1 - 2 * 10 - 2 * 100 + 4 * 1000

    def test_linearity(self):
        rng = random.Random(3)
        lvl = _level(30)
        t1 = {d: rng.randrange(-50, 51) for d in lvl.divisors()}
        t2 = {d: rng.randrange(-50, 51) for d in lvl.divisors()}
        combo = {d: 5 * t1[d] - 7 * t2[d] for d in lvl.divisors()}
        assert pm.newform_trace(combo, lvl) \
            == 5 * pm.newform_trace(t1, lvl) - 7 * pm.newform_trace(t2, lvl)

    def test_missing_divisor(self):
        with pytest.raises(ValueError, match="missing divisors"):
            pm.newform_trace({1: 1, 2: 1, 3: 1}, _level(6))

    def test_inversion_recovers_new_tables(self):
        rng = random.Random(41)
        for n in (1, 2, 6, 30):
            lvl = _level(n)
            new = {d: rng.randrange(-50, 51) for d in lvl.divisors()}
            old = oldform_table(new, lvl)
            for d in lvl.divisors():
                assert pm.newform_trace(old, _level(d)) == new[d]


class TestTraceSplit:
    def test_vanishing_involution_trace_splits_evenly(self):
        plus, minus = pm.pm_trace_split(9, 0, 7)
        assert plus == minus == Fraction(9, 2)

    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
           st.integers(4, 40))
    def test_halves_recombine_exactly(self, plain, al, k2):
        plus, minus = pm.pm_trace_split(plain, al, k2)
        assert plus + minus == plain
        assert plus - minus == (-1) ** k2 * al

    def test_parity_flips_the_signed_side(self):
        even = pm.pm_trace_split(10, 4, 8)
        odd = pm.pm_trace_split(10, 4, 11)
        assert even == (Fraction(7), Fraction(3))
        assert odd == (Fraction(3), Fraction(7))

    def test_exact_with_float_inputs(self):
        plus, minus = pm.pm_trace_split(1e16, 1.0, 6)
        assert plus + minus == Fraction(10 ** 16)


class TestLevelConstant:
    def test_values(self):
        assert pm.c_constant(_level(1)) == 1
        assert pm.c_constant(_level(2)) == Fraction(5, 4)
        assert pm.c_constant(_level(6)) == Fraction(25, 18)
        assert pm.c_constant(_level(30)) == Fraction(5, 4) * Fraction(10, 9) \
            * Fraction(26, 25)

    def test_bounds_above_unit_level(self):
        for n in (2, 3, 5, 6, 30, 210):
            c = pm.c_constant(_level(n))
            assert Fraction(1) < c < Fraction(5)

    def test_relates_to_dimension_scaling(self):
        lvl = _level(6)
        factor = 1
        for p in lvl.factorization:
            factor *= p * p + 1
        assert pm.c_constant(lvl) == Fraction(factor, lvl.n ** 2)

