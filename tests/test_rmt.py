"""Tests for Haar eigenangles on the compact groups and n-level statistics."""

import itertools
import json
import math
import random
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats

from conftest import brute_d_n, haar_batch, random_small_spectrum
from lowlying import kernels, rmt, rng, summary
from lowlying.summary import NumericFailure

FEJER = kernels.fejer_test_function


def _spec(group, size, samples, seed=20260822):
    return rmt.EnsembleSpec(group=group, size=size, samples=samples, seed=seed)


def _soodd_spectrum(xs, period):
    return rmt.ScaledSpectrum(scaled=tuple(xs), period=period, group="SOodd")


def _model_spectrum(group, size, seed, index):
    """The one-spectrum view of one Jacobi-model or Verblunsky-model row."""
    period = rmt._period(group, rmt._dimension(group, size))
    if group == "U":
        angles = rmt._verblunsky_angles(size, seed, [index])[0]
    else:
        angles = rmt._jacobi_angles(group, size, seed, [index])[0]
    return rmt.ScaledSpectrum(
        scaled=tuple((angles * (period / (2.0 * math.pi))).tolist()),
        period=period,
        group=group,
    )


def _svd_pair_angles(mats):
    """|eigenangles| of a unitary stack, ascending, from the singular
    values 2|sin(t/2)| of I - M and 2|cos(t/2)| of I + M."""
    eye = np.eye(mats.shape[-1])
    sin_half = np.linalg.svd(eye - mats, compute_uv=False)[..., ::-1]
    cos_half = np.linalg.svd(eye + mats, compute_uv=False)
    return 2.0 * np.arctan2(sin_half, cos_half)


class TestHaarSampling:
    def test_special_orthogonal_even_membership(self):
        for m in haar_batch("SOeven", 6, 20260822, range(4)):
            assert m.shape == (12, 12)
            assert np.max(np.abs(m.T @ m - np.eye(12))) < 1e-10
            assert abs(np.linalg.det(m) - 1.0) < 1e-10

    def test_special_orthogonal_odd_membership(self):
        for m in haar_batch("SOodd", 5, 20260822, range(3)):
            assert m.shape == (11, 11)
            assert np.max(np.abs(m.T @ m - np.eye(11))) < 1e-10
            assert abs(np.linalg.det(m) - 1.0) < 1e-10

    def test_unitary_membership(self):
        for m in haar_batch("U", 5, 20260822, range(3)):
            assert np.max(np.abs(np.conj(m.T) @ m - np.eye(5))) < 1e-10

    def test_symplectic_membership(self):
        jmat = np.block([[np.zeros((4, 4)), np.eye(4)],
                         [-np.eye(4), np.zeros((4, 4))]])
        for m in haar_batch("USp", 4, 20260822, range(3)):
            assert np.max(np.abs(np.conj(m.T) @ m - np.eye(8))) < 1e-10
            assert np.max(np.abs(m.T @ jmat @ m - jmat)) < 1e-10

    def test_mixture_alternates_parity(self):
        spec = _spec("O", 4, 4)
        assert haar_batch("SOeven", 4, spec.seed, [0])[0].shape == (8, 8)
        assert haar_batch("SOodd", 4, spec.seed, [1])[0].shape == (9, 9)

    def test_single_sample_matches_batch(self):
        batch = haar_batch("SOeven", 5, 20260822, range(8))
        assert np.array_equal(haar_batch("SOeven", 5, 20260822, [3])[0],
                              batch[3])

    def test_unitary_column_statistics(self):
        # Haar invariance makes every entry mean zero with mean square
        # 1/N; check one entry against its Monte Carlo standard error
        mats = haar_batch("U", 6, 991, range(10000))
        entry = mats[:, 0, 0]
        se_part = math.sqrt(1.0 / 12.0 / 10000)
        assert abs(np.mean(entry.real)) < 3 * se_part
        assert abs(np.mean(entry.imag)) < 3 * se_part
        sq = np.abs(entry) ** 2
        se_sq = np.std(sq) / math.sqrt(10000)
        assert abs(np.mean(sq) - 1.0 / 6.0) < 3 * se_sq

    def test_index_out_of_range(self):
        # an ensemble of two samples holds indices 0 and 1, nothing past
        spec = _spec("U", 4, 2)
        scaled, period = rmt._spectra(spec)["U"]
        rmt.clear_spectrum_cache()
        angles = rmt._verblunsky_angles(4, spec.seed, range(3))
        assert np.array_equal(scaled,
                              angles[:2] * (period / (2.0 * math.pi)))

    @pytest.mark.parametrize("group,size", [("SOodd", 2), ("SOeven", 3)])
    def test_special_orthogonal_trace_moments(self, group, size):
        # Haar on SO(5) and SO(6): the trace is the character of an
        # irreducible representation, so E[tr M] = 0 and E[(tr M)^2] = 1
        samples = 4000
        mats = haar_batch(group, size, 5150, range(samples))
        tr = np.trace(mats, axis1=-2, axis2=-1)
        for values, want in ((tr, 0.0), (tr ** 2, 1.0)):
            se = np.std(values, ddof=1) / math.sqrt(samples)
            assert abs(np.mean(values) - want) < 4.0 * se


class TestJacobiModel:
    GROUPS = ["SOeven", "SOodd", "USp"]

    @pytest.mark.parametrize("size", [2, 15])
    @pytest.mark.parametrize("group", GROUPS)
    def test_trace_moments(self, group, size):
        # tr M is the character of the standard representation, which is
        # irreducible, so E[tr M] = 0 and E[(tr M)^2] = 1; the SOodd
        # forced eigenvalue 1 is not in the model
        samples = 4000
        angles = rmt._jacobi_angles(group, size, 5151, range(samples))
        tr = 2.0 * np.sum(np.cos(angles), axis=1) + (group == "SOodd")
        for values, want in ((tr, 0.0), (tr ** 2, 1.0)):
            se = np.std(values, ddof=1) / math.sqrt(samples)
            assert abs(np.mean(values) - want) < 4.0 * se

    @pytest.mark.parametrize("size", [3, 8])
    @pytest.mark.parametrize("group", GROUPS)
    def test_order_statistics_match_dense_haar(self, group, size):
        # other seeds for the two sides: at one seed the Jacobi uniforms
        # are the same Philox words as the oracle's first normals
        samples = 4000
        model = rmt._jacobi_angles(group, size, 61, range(samples))
        dense = rmt._angles(haar_batch(group, size, 62, range(samples)),
                            group)
        for j in range(size):
            assert stats.ks_2samp(model[:, j], dense[:, j]).pvalue >= 1e-3, j

    @pytest.mark.parametrize("group", GROUPS)
    def test_rows_do_not_depend_on_the_batch(self, group):
        stack = rmt._jacobi_angles(group, 9, 63, range(30))
        singles = [rmt._jacobi_angles(group, 9, 63, [i])[0]
                   for i in range(30)]
        chunks = [rmt._jacobi_angles(group, 9, 63, range(i, min(i + 7, 30)))
                  for i in range(0, 30, 7)]
        assert np.array_equal(np.stack(singles), stack)
        assert np.array_equal(np.concatenate(chunks), stack)
        assert np.all(np.diff(stack, axis=1) >= 0.0)
        assert np.all((stack >= 0.0) & (stack <= math.pi))


class TestBetaQuantiles:
    """The numpy inverse of the Jacobi model's Beta CDFs."""

    # rng's smallest and largest uniforms, a deep tail and the middle
    EXTREMES = (2.0 ** -54, 1e-12, 0.5, 1.0 - 2.0 ** -53)

    @staticmethod
    def draws(group, size, rows):
        u = rng.uniforms(20260822, rmt._STREAMS[group], np.arange(rows), 0,
                         2 * size - 1)
        extremes = np.array(TestBetaQuantiles.EXTREMES)
        return np.concatenate(
            [u, np.repeat(extremes[:, None], 2 * size - 1, axis=1)])

    @staticmethod
    def quantiles(group, size, u):
        # in the 128-row chunks that _jacobi_angles takes
        return np.concatenate([rmt._beta_quantiles(group, size, u[i:i + 128])
                               for i in range(0, len(u), 128)])

    @pytest.mark.parametrize("size", [2, 3, 9, 30])
    @pytest.mark.parametrize("group", TestJacobiModel.GROUPS)
    def test_against_scipy(self, group, size):
        u = self.draws(group, size, 20000)
        got = self.quantiles(group, size, u)
        want = special.betaincinv(*rmt._jacobi_parameters(group, size), u)
        # alpha = 2x - 1 to 1e-13, and small x to 1e-12 relative
        assert np.max(np.abs(2.0 * got - 2.0 * want)) <= 1e-13
        small = want < 1e-3
        assert np.all(np.abs(got - want)[small] <= 1e-12 * want[small])

    @staticmethod
    def check_tails_against_mpmath(group, size, columns):
        import mpmath

        t, s = rmt._jacobi_parameters(group, size)
        for u in (2.0 ** -54, 1e-12, 1.0 - 2.0 ** -40, 1.0 - 2.0 ** -53):
            got = rmt._beta_quantiles(group, size,
                                      np.full((1, len(t)), u))[0]
            for k in columns:
                # the tail that holds u, as I_y(a, b) = v, solved in log y
                a, b, v, y = ((t[k], s[k], u, got[k]) if u < 0.5 else
                              (s[k], t[k], 1.0 - u, 1.0 - got[k]))
                with mpmath.workdps(40):
                    ref = float(mpmath.exp(mpmath.findroot(
                        lambda ly: mpmath.log(mpmath.betainc(
                            a, b, 0, mpmath.exp(ly), regularized=True) / v),
                        mpmath.log(max(y, 1e-300)))))
                if u < 0.5:
                    assert abs(got[k] - ref) <= 1e-12 * ref, (u, k)
                else:
                    assert abs(got[k] - (1.0 - ref)) <= 5e-14, (u, k)

    @pytest.mark.parametrize("group", TestJacobiModel.GROUPS)
    def test_extreme_tails_against_mpmath(self, group):
        self.check_tails_against_mpmath(group, 2, range(3))

    @pytest.mark.parametrize("size", [600, 1000])
    @pytest.mark.parametrize("group", TestJacobiModel.GROUPS)
    def test_extreme_tails_past_underflow_against_mpmath(self, group, size):
        # from N = 541 on, a column's top-degree terms underflow to 0
        # relative to its largest; columns 0 and 1, one of each parity,
        # hold the most terms
        self.check_tails_against_mpmath(group, size, [0, 1])

    def test_three_halley_steps_reach_rounding(self, monkeypatch):
        for group in TestJacobiModel.GROUPS:
            u = self.draws(group, 30, 2000)
            three = self.quantiles(group, 30, u)
            with monkeypatch.context() as m:
                m.setattr(rmt, "_HALLEY_STEPS", 4)
                four = self.quantiles(group, 30, u)
            # relative in the variable solved for, min(x, 1 - x)
            near = np.minimum(three, 1.0 - three)
            assert np.all(np.abs(four - three)
                          <= 1e-14 * near + (three > 0.5) * 2.3e-16)


class TestVerblunskyModel:
    @staticmethod
    def _eigvals_angles(mats):
        """Signed eigenangles in [0, 2 pi) of a unitary stack, ascending."""
        ang = np.mod(np.angle(np.linalg.eigvals(mats)), 2.0 * math.pi)
        return np.sort(ang, axis=1)

    @pytest.mark.parametrize("size", [2, 15])
    def test_trace_moments(self, size):
        # CUE: E tr U^j = 0 and E |tr U^j|^2 = min(j, N) for j >= 1
        samples = 4000
        angles = self._eigvals_angles(
            rmt._verblunsky_matrices(size, 5152, range(samples)))
        for j in (1, 2, 3, size + 5):
            tr = np.sum(np.exp(1j * j * angles), axis=1)
            for values, want in ((tr.real, 0.0), (tr.imag, 0.0),
                                 (np.abs(tr) ** 2, min(j, size))):
                se = np.std(values, ddof=1) / math.sqrt(samples)
                assert abs(np.mean(values) - want) < 4.0 * se, j

    @pytest.mark.parametrize("size", [3, 8])
    def test_order_statistics_match_dense_haar(self, size):
        samples = 4000
        model = self._eigvals_angles(
            rmt._verblunsky_matrices(size, 61, range(samples)))
        dense = rmt._angles(haar_batch("U", size, 62, range(samples)), "U")
        for j in range(size):
            assert stats.ks_2samp(model[:, j], dense[:, j]).pvalue >= 1e-3, j

    @staticmethod
    def _planted(size, seed, angles):
        """A dense unitary matrix with the given eigenangles."""
        q = haar_batch("U", size, seed, [0])[0]
        return (q * np.exp(1j * np.asarray(angles))) @ np.conj(q).T

    def test_match_eigvals_of_the_same_matrix(self, monkeypatch):
        mats = rmt._verblunsky_matrices(12, 64, range(10000))
        gram = np.conj(mats).swapaxes(-1, -2) @ mats
        assert np.max(np.abs(gram - np.eye(12))) < 1e-13
        # one angle 5e-7 past pi; one row with angles near 0 and pi
        theta = self._eigvals_angles(mats[:1])[0]
        near_pi = mats[0] * np.exp(1j * (math.pi + 5e-7 - theta[3]))
        both = self._planted(
            12, 65, np.concatenate([[1e-7, math.pi - 3e-7],
                                    np.linspace(0.4, 6.0, 10)]))
        mats = np.concatenate([mats, [near_pi, both]])
        monkeypatch.setattr(rmt, "_verblunsky_matrices",
                            lambda size, seed, indices: mats[indices])
        got = rmt._verblunsky_angles(12, 64, np.arange(len(mats)))
        want = self._eigvals_angles(mats)
        # the folded route gives cos theta, descending, to rounding
        cos_want = np.sort(np.cos(want), axis=1)[:, ::-1]
        assert_allclose(np.cos(got), cos_want, rtol=0, atol=1e-14)
        for row, planted in ((-2, math.pi + 5e-7), (-1, 1e-7),
                             (-1, math.pi - 3e-7)):
            assert np.min(np.abs(np.cos(got[row]) - math.cos(planted))) \
                < 1e-14
        # and U's statistic of the folded angles, which reads cos theta
        # only, matches that of the signed ones
        scale = 12.0 / (2.0 * math.pi)
        for betas in ((0.9,), (0.6, 0.45), (0.3, 0.4, 0.5)):
            phis = [FEJER(b) for b in betas]
            folded, signed = (rmt._statistics("U", 12.0, a * scale, phis,
                                              True) for a in (got, want))
            assert_allclose(folded, signed, rtol=0, atol=1e-13)

    def test_rows_ascend_on_the_circle(self):
        stack = rmt._verblunsky_angles(30, 66, range(2000))
        assert stack.shape == (2000, 30)
        assert np.all(np.diff(stack, axis=1) >= 0.0)
        assert np.all((stack >= 0.0) & (stack <= math.pi))

    def test_rows_do_not_depend_on_the_batch(self):
        stack = rmt._verblunsky_angles(9, 63, range(30))
        singles = [rmt._verblunsky_angles(9, 63, [i])[0] for i in range(30)]
        chunks = [rmt._verblunsky_angles(9, 63, range(i, min(i + 7, 30)))
                  for i in range(0, 30, 7)]
        assert np.array_equal(np.stack(singles), stack)
        assert np.array_equal(np.concatenate(chunks), stack)


class TestEnsembleSpec:
    def test_rejects_unknown_group(self):
        with pytest.raises(ValueError):
            rmt.EnsembleSpec(group="SU", size=4, samples=1, seed=0)

    def test_rejects_tiny_size(self):
        with pytest.raises(ValueError):
            rmt.EnsembleSpec(group="U", size=1, samples=1, seed=0)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            rmt.EnsembleSpec(group="U", size=4, samples=0, seed=0)

    @pytest.mark.parametrize("group", rmt.GROUPS)
    def test_rejects_one_sample(self, group):
        # one sample has no standard error
        with pytest.raises(ValueError, match="at least 2"):
            rmt.EnsembleSpec(group=group, size=4, samples=1, seed=0)

    @pytest.mark.parametrize("size, samples, seed", [
        (2.5, 3, 0), (4, 3.5, 0), (4, 3, 0.5)])
    def test_rejects_non_integral_fields(self, size, samples, seed):
        with pytest.raises(ValueError, match="integers"):
            rmt.EnsembleSpec(group="U", size=size, samples=samples,
                             seed=seed)

    @pytest.mark.parametrize("fields, n", [
        ({"size": 5.0}, 1), ({"seed": -1}, 1), ({"seed": 2 ** 64}, 1),
        ({}, 4), ({"size": 2}, 3)],
        ids=["integral_float_size", "negative_seed", "seed_past_64_bits",
             "four_test_functions", "more_test_functions_than_points"])
    def test_rejects_before_prediction_and_sampling(self, fields, n,
                                                    monkeypatch):
        def ran(*args):
            raise AssertionError("ran before validation")
        monkeypatch.setattr(rmt, "prediction_for", ran)
        monkeypatch.setattr(rmt, "_spectra", ran)
        given = dict({"group": "U", "size": 5, "samples": 10, "seed": 1},
                     **fields)
        with pytest.raises(ValueError):
            rmt.ensemble_average(rmt.EnsembleSpec(**given),
                                 [FEJER(0.2)] * n, True)

    def test_stores_numpy_integers_as_ints(self):
        spec = rmt.EnsembleSpec("U", np.int64(5), np.int32(10), np.uint64(1))
        assert [type(v) for v in (spec.size, spec.samples, spec.seed)] \
            == [int, int, int]
        report = rmt.ensemble_average(spec, [FEJER(0.9)], True)
        assert json.loads(json.dumps(report.to_json_dict()))["N"] == 5


class TestScaledSpectrum:
    def test_even_orthogonal_structure(self):
        s = rmt.scaled_spectrum(haar_batch("SOeven", 6, 20260822, [0])[0],
                                "SOeven")
        assert len(s.scaled) == 6
        assert s.period == 11.0
        assert all(0.0 <= x <= 11.0 / 2.0 for x in s.scaled)
        assert list(s.scaled) == sorted(s.scaled)

    def test_odd_orthogonal_forced_zero(self):
        s = rmt.scaled_spectrum(haar_batch("SOodd", 5, 20260822, [0])[0],
                                "SOodd")
        assert len(s.scaled) == 5
        assert s.period == 10.0

    def test_symplectic_structure(self):
        s = rmt.scaled_spectrum(haar_batch("USp", 4, 20260822, [0])[0], "USp")
        assert len(s.scaled) == 4
        assert s.period == 9.0

    def test_unitary_full_circle(self):
        s = rmt.scaled_spectrum(haar_batch("U", 5, 20260822, [0])[0], "U")
        assert len(s.scaled) == 5
        assert s.period == 5.0
        assert all(0.0 <= x < 5.0 for x in s.scaled)

    def test_missing_unit_eigenvalue_detected(self):
        c, sn = math.cos(0.3), math.sin(0.3)
        block = np.array([[c, -sn], [sn, c]])
        m = np.zeros((5, 5))
        m[:2, :2] = block
        m[2:4, 2:4] = block
        m[4, 4] = -1.0
        with pytest.raises(NumericFailure):
            rmt.scaled_spectrum(m, "SOodd")

    def test_off_circle_eigenvalues_detected(self):
        with pytest.raises(NumericFailure):
            rmt.scaled_spectrum(2.0 * np.eye(4), "U")

    def test_mixture_tag_rejected(self):
        with pytest.raises(ValueError):
            rmt.scaled_spectrum(np.eye(4), "O")

    @pytest.mark.parametrize("group", ["SOeven", "USp"])
    def test_non_unitary_input_detected(self, group):
        c, sn = math.cos(0.3), math.sin(0.3)
        block = np.array([[c, -sn], [sn, c]])
        m = np.zeros((4, 4))
        m[:2, :2] = block
        m[2:, 2:] = block
        with pytest.raises(NumericFailure):
            rmt.scaled_spectrum(1.001 * m, group)


class TestBatchedAngles:
    @pytest.mark.parametrize("size", [4, 15])
    @pytest.mark.parametrize("group", ["SOeven", "SOodd", "USp"])
    def test_match_folded_eigvals(self, group, size):
        # matrices of dimension 8 (9 for SOodd) and 30 (31)
        indices = list(range(200))
        mats = haar_batch(group, size, 77, indices)
        got = rmt._angles(mats, group, indices)
        assert got.shape == (200, size)
        ang = _svd_pair_angles(mats)
        if group == "SOodd":
            ang = ang[:, 1:]
        want = 0.5 * (ang[:, 0::2] + ang[:, 1::2])
        assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_odd_forced_zero_is_exact(self):
        # the unfolded phases: the real eigenvalue +1 has phase exactly 0
        mats = haar_batch("SOodd", 15, 78, range(200))
        assert np.all(rmt._angles(mats, "U")[:, 0] == 0.0)

    def test_error_names_the_sample_index(self):
        for group in ("SOeven", "U"):
            mats = haar_batch(group, 3, 79, range(4))
            mats[2] *= 1.001
            with pytest.raises(NumericFailure,
                               match="sample index 12"):
                rmt._angles(mats, group, [10, 11, 12, 13])

    def test_single_matrix_matches_stack(self):
        for group in ("USp", "U"):
            spec = _spec(group, 4, 9)
            scaled, period = rmt._spectra(spec)[group]
            rmt.clear_spectrum_cache()
            for i in (0, 5, 8):
                single = _model_spectrum(group, 4, spec.seed, i)
                assert single.scaled == tuple(scaled[i].tolist())
                assert single.period == period

    @pytest.mark.parametrize("group", ["SOodd", "USp", "O", "U"])
    def test_chunk_size_does_not_change_spectra(self, group, monkeypatch):
        spec = _spec(group, 6, 40)
        phis = [FEJER(0.3)] * 3
        default = rmt._spectra(spec)
        mean = rmt.ensemble_average(spec, phis, True).mc_mean
        rmt.clear_spectrum_cache()
        monkeypatch.setattr(rmt, "_CHUNK", 7)
        small = rmt._spectra(spec)
        assert rmt.ensemble_average(spec, phis, True).mc_mean == mean
        rmt.clear_spectrum_cache()
        assert list(small) == list(default)
        for g, (scaled, period) in default.items():
            assert np.array_equal(small[g][0], scaled)
            assert small[g][1] == period

    def test_large_sizes_sample_one_matrix_per_chunk(self, monkeypatch):
        # 2^17 entries hold less than two 1000 x 1000 matrices, so U's
        # complex stack is one matrix (16 MB), not 128 (2 GB)
        spec = _spec("U", 1000, 2)
        rows = []
        draw = rmt._verblunsky_angles

        def counted(size, seed, indices):
            rows.append(len(indices))
            return draw(size, seed, indices)

        monkeypatch.setattr(rmt, "_verblunsky_angles", counted)
        capped = rmt._spectra(spec)["U"][0]
        rmt.clear_spectrum_cache()
        assert rows == [1, 1]
        monkeypatch.setattr(rmt, "_CHUNK", 1)
        single = rmt._spectra(spec)["U"][0]
        rmt.clear_spectrum_cache()
        assert np.array_equal(capped, single)


class TestPeriodizedValue:
    def test_matches_direct_periodization(self):
        # independent oracle: sum the closed-form function over a long
        # run of translates; the truncated tail is below 1e-7
        beta = 0.9
        period = 20.0
        phi = FEJER(beta)
        js = np.arange(-200000, 200001)
        for x in (0.0, 0.3, 1.7, 9.99):
            shifted = x + period * js
            with np.errstate(divide="ignore", invalid="ignore"):
                direct = (1.0 - np.cos(2.0 * math.pi * beta * shifted)) / (
                    2.0 * math.pi ** 2 * beta * shifted ** 2)
            direct = np.where(np.abs(shifted) < 1e-12, beta, direct)
            want = math.fsum(direct.tolist())
            assert abs(rmt.periodized_value(phi, period, x) - want) < 1e-7

    @pytest.mark.parametrize("period", [59.0, 61.0])
    @pytest.mark.parametrize("beta", [0.9, 0.45])
    def test_matches_the_exactly_summed_series(self, beta, period):
        # c_0 + 2 sum_k c_k cos(k t) by fsum, with each k t reduced
        # exactly: |x| = num/den, so k t / (2 pi) is (k num mod
        # period den) / (period den).  Clenshaw's recurrence on 2 cos(t)
        # is 3e-14 off near t = 0
        phi = FEJER(beta)
        ks = np.arange(int(beta * period) + 2)
        coeffs = (phi.fourier(ks / period) / period).tolist()
        xs = np.concatenate([np.linspace(0.0, period / 2, 3001),
                             [1e-9, period / 2 - 1e-9]])
        got = rmt.periodized_value(phi, period, xs)
        for x, value in zip(xs.tolist(), got.tolist()):
            num, den = x.as_integer_ratio()
            full = int(period) * den
            terms = [coeffs[0]]
            for k, c in enumerate(coeffs[1:], start=1):
                r = k * num % full
                terms.append(2.0 * c * math.cos(
                    2.0 * math.pi * (min(r, full - r) / full)))
            assert abs(value - math.fsum(terms)) < 2e-15

    @pytest.mark.parametrize("beta, period", [
        (beta, period) for beta in (0.9, 0.45)
        for period in (59.0, 61.0, 959.0)] + [(0.5, 10.0)])
    def test_matches_the_exactly_summed_series_past_half_the_period(
            self, beta, period):
        # the oracle of test_matches_the_exactly_summed_series on the
        # half of the circle it leaves out, where U's scaled angles also
        # fall, plus points at the ends, past the period and subnormal;
        # beta 0.5 at period 10 puts the band edge on a harmonic
        phi = FEJER(beta)
        ks = np.arange(int(beta * period) + 2)
        coeffs = (phi.fourier(ks / period) / period).tolist()
        xs = np.concatenate([
            np.linspace(period / 2, period, 2001)[1:-1],
            period - 10.0 ** -np.arange(1, 14),
            [period, 2.5 * period, 1e-200, 1e-310, 5e-324]])
        got = rmt.periodized_value(phi, period, xs)
        assert np.array_equal(rmt.periodized_value(phi, period, -xs), got)
        for x, value in zip(xs.tolist(), got.tolist()):
            num, den = x.as_integer_ratio()
            full = int(period) * den
            terms = [coeffs[0]]
            for k, c in enumerate(coeffs[1:], start=1):
                r = k * num % full
                terms.append(2.0 * c * math.cos(
                    2.0 * math.pi * (min(r, full - r) / full)))
            assert abs(value - math.fsum(terms)) < 2e-15

    def test_scalar_and_array_calls_agree_bit_for_bit(self):
        # brute_d_n evaluates one point per call and the statistic a block
        # per call
        period = 59.0
        quarter = period / 4
        xs = np.concatenate([
            [0.0, period / 2, quarter, quarter - 1e-12, quarter + 1e-12,
             -3.7, 1.5 * period],
            np.nextafter(quarter, [0.0, period]),
            np.linspace(0.01, period, 97),
            # where the closed form reflects about period/2, wraps and
            # takes its limit at 0
            [period, 2.0 * period, 5e-324],
            np.nextafter(period / 2, [0.0, period]),
            [np.nextafter(period, 0.0)]])
        for beta in (0.9, 0.45):
            phi = FEJER(beta)
            whole = rmt.periodized_value(phi, period, xs)
            for x, value in zip(xs.tolist(), whole.tolist()):
                assert rmt.periodized_value(phi, period, x) == value

    def test_reflection_is_bit_identical(self):
        phi = FEJER(0.7)
        for x in (0.25, 1.3, 4.9):
            assert (rmt.periodized_value(phi, 12.0, x)
                    == rmt.periodized_value(phi, 12.0, -x))

    def test_tiny_beta_keeps_the_mean_term(self):
        # beta * period under the 1e-12 guard leaves only k = 0, whose
        # coefficient phi_hat(0) / period is the whole value
        phi = FEJER(1e-14)
        for x in (0.0, 0.3, 17.2, -40.0):
            assert rmt.periodized_value(phi, 59.0, x) == 1.0 / 59.0

    def test_periodicity(self):
        phi = FEJER(0.9)
        v0 = rmt.periodized_value(phi, 15.0, 2.2)
        v1 = rmt.periodized_value(phi, 15.0, 2.2 + 15.0)
        assert abs(v0 - v1) < 1e-9

    def test_array_shape(self):
        phi = FEJER(0.5)
        xs = np.array([[0.1, 0.2], [0.3, 0.4]])
        out = rmt.periodized_value(phi, 10.0, xs)
        assert out.shape == (2, 2)
        assert out[1, 0] == rmt.periodized_value(phi, 10.0, 0.3)


@pytest.mark.parametrize("cached", [lambda: rmt._beta_table("USp", 9),
                                    lambda: (rmt._distinct(5, 3),)],
                         ids=["_beta_table", "_distinct"])
def test_cached_arrays_are_read_only(cached):
    # every cache hit shares them, so a write in place would reach the
    # next caller
    arrays = [a for a in cached() if not isinstance(a, tuple)]
    assert arrays and all(isinstance(a, np.ndarray) for a in arrays)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def _fsum_bits(column):
    """float.hex of math.fsum(column) and of summary._column_sums on it."""
    got = summary._column_sums(np.array(column, dtype=float).reshape(-1, 1))
    return math.fsum(column).hex(), got[0].hex()


_H = float.fromhex


class TestColumnSums:
    # rows chosen to break a certified sum: each must keep fsum's bits
    @pytest.mark.parametrize("column", [
        # ties at half an ulp, and just off them
        [1.0, 2.0 ** -53], [1.0 + 2.0 ** -52, 2.0 ** -53],
        [1.5, 2.0 ** -53, 2.0 ** -120], [1.5, 2.0 ** -53, -2.0 ** -120],
        [1.5, -2.0 ** -53, 2.0 ** -106, -2.0 ** -107, 2.0 ** -120],
        # ties whose errors' own float sum drops what decides them
        [_H(x) for x in ("-0x1.4p-51", "-0x1.4p-105", "-0x1.8p-109",
                         "0x1.8p+0", "0x1.8p-106", "0x1.8p-107")],
        [_H(x) for x in ("0x1p-106", "-0x1.8p-52", "0x1.cp+0",
                         "-0x1.4p-118", "-0x1.8p-107")],
        # a power-of-two hi whose residual lies below it
        [1.0, -2.0 ** -54, -2.0 ** -120], [1.0, -2.0 ** -54, 2.0 ** -120],
        [-2.0 ** -107, 1.0, -2.0 ** -54],
        [1.0, -1.5 * 2.0 ** -107, -1.5 * 2.0 ** -106, -2.0 ** -54,
         2.0 ** -105],
        # exact cancellation and signed zeros
        [1.0, -1.0], [0.1, 0.2, -0.1, -0.2], [1e16, 1.0, -1e16, -1.0],
        [-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 1.0, -1.0],
        # subnormals
        [5e-324] * 3, [5e-324, -5e-324], [1.0, 5e-324],
        [2.0 ** -1022, -5e-324], [2.0 ** -1022, 2.0 ** -1074, -2.0 ** -1060],
        # huge terms that cancel
        [1e300, -1e300], [1e300, 1.0, -1e300], [1e300, 1e284, -1e300, 1.0],
        # not finite
        [math.inf, 1.0], [math.nan, 1.0], [-math.inf, -1e308],
    ])
    def test_adversarial_columns_keep_fsum_bits(self, column):
        want, got = _fsum_bits(column)
        assert got == want

    # the last overflows in fsum's running sum, not in a pairwise one
    @pytest.mark.parametrize("column", [[math.inf, -math.inf],
                                        [1e308, 1e308],
                                        [1e308, 1e308, -1e308],
                                        [1.5e308, 1.5e308, -1e308, -1e308]])
    def test_fsum_errors_stay_fsum_errors(self, column):
        with pytest.raises((ValueError, OverflowError)) as want:
            math.fsum(column)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            summary._column_sums(np.array(column).reshape(-1, 1))

    def test_empty_columns_sum_to_zero(self):
        assert summary._column_sums(np.empty((0, 3))) == [0.0] * 3
        s = rmt.ScaledSpectrum(scaled=(), period=10.0, group="SOodd")
        for n, include in itertools.product((1, 2, 3), (True, False)):
            value = rmt.d_n_statistic(s, [FEJER(0.5)] * n, include)
            assert value.hex() == brute_d_n(s, [FEJER(0.5)] * n,
                                            include).hex()

    def test_cancelling_block_keeps_fsum_bits(self):
        # columns of +-x pairs, each off by a few ulps, and a few small
        # terms: every sum sits far below its terms' magnitude
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 500)) * 2.0 ** rng.integers(
            -30, 30, (20, 500))
        ulps = rng.integers(-3, 4, (20, 500)) * np.spacing(x)
        small = rng.standard_normal((8, 500)) * 2.0 ** -60
        terms = np.concatenate([x, -(x + ulps), small])
        want = [math.fsum(c).hex() for c in terms.T.tolist()]
        assert [v.hex() for v in summary._column_sums(terms)] == want

    def test_three_level_row_of_thirty_thousand_terms(self):
        spectrum = _model_spectrum("SOodd", 30, 20260822, 0)
        phis = [FEJER(0.45), FEJER(0.3), FEJER(0.45)]
        got = rmt.d_n_statistic(spectrum, phis, True)
        assert got.hex() == brute_d_n(spectrum, phis, True).hex()

    def test_equal_test_functions_are_evaluated_once(self, monkeypatch):
        calls = []

        def counted(phi, period, x):
            calls.append(phi)
            return periodized(phi, period, x)

        periodized = rmt.periodized_value
        monkeypatch.setattr(rmt, "periodized_value", counted)
        spectrum = _soodd_spectrum((0.8, 2.1, 3.3), 10.0)
        phi = FEJER(0.45)
        value = rmt.d_n_statistic(spectrum, [phi, FEJER(0.45), phi], True)
        # once at the structural zero, once on the block
        assert calls == [phi, phi]
        monkeypatch.undo()
        assert value == brute_d_n(spectrum, [phi] * 3, True)

    @pytest.mark.parametrize("group", ["SOodd", "USp", "O", "U"])
    def test_one_spectrum_blocks_change_nothing(self, group, monkeypatch):
        spec = _spec(group, 6, 40)
        phis = [FEJER(0.3), FEJER(0.45)]
        default = rmt.ensemble_average(spec, phis, True)
        monkeypatch.setattr(rmt, "_TERMS", 1)
        single = rmt.ensemble_average(spec, phis, True)
        rmt.clear_spectrum_cache()
        assert single.mc_mean.hex() == default.mc_mean.hex()
        assert single.mc_stderr.hex() == default.mc_stderr.hex()


class TestStatistic:
    def test_matches_enumeration_on_random_spectra(self):
        rng = random.Random(7)
        for _ in range(200):
            spectrum = random_small_spectrum(rng)
            n = rng.choice([1, 1, 2, 2, 2, 3])
            phis = [FEJER(rng.choice([0.3, 0.45, 0.6, 0.9]))
                    for _ in range(n)]
            include = rng.random() < 0.5
            got = rmt.d_n_statistic(spectrum, phis, include)
            assert got == brute_d_n(spectrum, phis, include)

    def test_slow_path_with_structural_zero(self):
        rng = random.Random(11)
        for _ in range(10):
            m = rng.randrange(0, 5)
            xs = sorted(rng.uniform(0.1, 4.5) for _ in range(m))
            spectrum = _soodd_spectrum(xs, 10.0)
            phis = [FEJER(0.45), FEJER(0.3), FEJER(0.2)]
            got = rmt.d_n_statistic(spectrum, phis, True)
            assert got == brute_d_n(spectrum, phis, True)

    def test_four_level_matches_enumeration(self):
        rng = random.Random(13)
        for _ in range(20):
            spectrum = random_small_spectrum(rng)
            phis = [FEJER(rng.choice([0.1, 0.2, 0.25])) for _ in range(4)]
            for include in (True, False):
                assert (rmt.d_n_statistic(spectrum, phis, include)
                        == brute_d_n(spectrum, phis, include))
        for m in range(5):
            spectrum = _soodd_spectrum(
                sorted(rng.uniform(0.1, 4.5) for _ in range(m)), 10.0)
            phis = [FEJER(0.2), FEJER(0.1), FEJER(0.25), FEJER(0.2)]
            for include in (True, False):
                assert (rmt.d_n_statistic(spectrum, phis, include)
                        == brute_d_n(spectrum, phis, include))

    def test_empty_spectrum(self):
        s = rmt.ScaledSpectrum(scaled=(), period=10.0, group="U")
        for n in (1, 2, 3):
            assert rmt.d_n_statistic(s, [FEJER(0.5)] * n, True) == 0.0

    def test_lone_structural_zero(self):
        s = _soodd_spectrum((), 10.0)
        phi = FEJER(0.6)
        assert (rmt.d_n_statistic(s, [phi], True)
                == rmt.periodized_value(phi, 10.0, 0.0))
        assert rmt.d_n_statistic(s, [phi, phi], True) == 0.0
        assert rmt.d_n_statistic(s, [phi], False) == 0.0

    def test_one_level_unwinding(self):
        xs = (1.25, 3.5)
        s = _soodd_spectrum(xs, 12.0)
        phi = FEJER(0.8)
        expected = math.fsum(
            [2.0 * rmt.periodized_value(phi, 12.0, x) for x in xs]
            + [rmt.periodized_value(phi, 12.0, 0.0)])
        assert rmt.d_n_statistic(s, [phi], True) == expected

    def test_zero_slot_difference(self):
        s = _soodd_spectrum((0.8, 2.1), 10.0)
        phi = FEJER(0.9)
        diff = (rmt.d_n_statistic(s, [phi], True)
                - rmt.d_n_statistic(s, [phi], False))
        assert_allclose(diff, rmt.periodized_value(phi, 10.0, 0.0),
                        rtol=1e-12)

    def test_requires_a_test_function(self):
        with pytest.raises(ValueError):
            rmt.d_n_statistic(_soodd_spectrum((1.0,), 10.0), [], True)


class TestPredictions:
    def test_odd_orthogonal_without_zero_matches_symplectic(self):
        phis = [FEJER(0.9)]
        assert (rmt.prediction_for("SOodd", phis, False)
                == kernels.n_level_prediction(kernels.SP, phis))

    def test_mixture_is_parity_average(self):
        # O draws its even indices from SOeven and its odd ones from
        # SOodd, so 5 samples hold 3 SOeven rows and 2 SOodd rows
        phis = [FEJER(0.4), FEJER(0.3)]
        even = kernels.n_level_prediction(kernels.SOEVEN, phis)
        odd = kernels.n_level_prediction(kernels.SOODD, phis)
        report = rmt.ensemble_average(_spec("O", 4, 4), phis, True)
        assert report.prediction == 0.5 * (even + odd)
        report = rmt.ensemble_average(_spec("O", 4, 5), phis, True)
        assert_allclose(report.prediction, 0.6 * even + 0.4 * odd,
                        rtol=1e-14)

    def test_mixture_part_without_n_points_predicts_zero(self):
        # at n = N + 1 O's SOeven rows hold N points, so their statistic
        # is 0 identically; only its SOodd rows, with the zero, weigh in
        phis = [FEJER(0.3)] * 3
        report = rmt.ensemble_average(_spec("O", 2, 10), phis, True)
        rmt.clear_spectrum_cache()
        assert report.prediction == 0.5 * rmt.prediction_for("SOodd", phis,
                                                             True)

    def test_unknown_group(self):
        # O is a mixture, predicted part by part in ensemble_average
        for group in ("Spin", "O"):
            with pytest.raises(ValueError):
                rmt.prediction_for(group, [FEJER(0.5)], True)


class TestEnsembleAverage:
    def test_deterministic_across_cache_clear(self):
        spec = _spec("USp", 4, 40)
        phis = [FEJER(0.8)]
        r1 = rmt.ensemble_average(spec, phis, True)
        rmt.clear_spectrum_cache()
        r2 = rmt.ensemble_average(spec, phis, True)
        assert r1.mc_mean == r2.mc_mean
        assert r1.mc_stderr == r2.mc_stderr
        assert r1.z_score == r2.z_score

    def test_report_serialization(self):
        report = rmt.ensemble_average(_spec("U", 4, 10), [FEJER(0.5)], False)
        payload = report.to_json_dict()
        assert payload["group"] == "U"
        assert payload["N"] == 4
        assert payload["samples"] == 10
        assert payload["n"] == 1
        assert payload["beta"] == [0.5]
        assert payload["statistic"] == "D1"

    @pytest.mark.parametrize("samples", [2, 5, 20])
    def test_mixture_alternates_groups(self, samples):
        # an odd count leaves one more SOeven row than SOodd rows
        spec = _spec("O", 4, samples)
        spectra = rmt._spectra(spec)
        rmt.clear_spectrum_cache()
        indices = {"SOeven": range(0, samples, 2),
                   "SOodd": range(1, samples, 2)}
        assert list(spectra) == ["SOeven", "SOodd"]
        for group, (scaled, _) in spectra.items():
            assert scaled.shape == (len(indices[group]), 4)
            assert not scaled.flags.writeable
            for row, i in zip(scaled, indices[group]):
                single = _model_spectrum(group, 4, spec.seed, i)
                assert single.scaled == tuple(row.tolist())

    @pytest.mark.parametrize("samples", [2, 5, 20])
    @pytest.mark.parametrize("include_zero", [True, False])
    def test_mixture_mean_matches_one_spectrum_path(self, include_zero,
                                                    samples, monkeypatch):
        # the array path against the public one-spectrum path, with
        # blocks of at most 7 rows per group
        monkeypatch.setattr(rmt, "_CHUNK", 7)
        spec = _spec("O", 5, samples)
        phis = [FEJER(0.3), FEJER(0.25), FEJER(0.2)]
        report = rmt.ensemble_average(spec, phis, include_zero)
        rmt.clear_spectrum_cache()
        values = [rmt.d_n_statistic(
                      _model_spectrum(("SOeven", "SOodd")[i % 2], 5,
                                      spec.seed, i),
                      phis, include_zero)
                  for i in range(spec.samples)]
        assert report.mc_mean == math.fsum(values) / len(values)


class TestEnsembleStatistics:
    SIZE = 12
    SAMPLES = 3000

    def _check(self, group):
        spec = _spec(group, self.SIZE, self.SAMPLES, seed=424242)
        report = rmt.ensemble_average(spec, [FEJER(0.9)], True)
        assert report.mc_stderr > 0.0
        assert abs(report.z_score) < 4.0, report

    def test_even_orthogonal_one_level(self):
        self._check("SOeven")

    def test_odd_orthogonal_one_level(self):
        self._check("SOodd")

    def test_symplectic_one_level(self):
        self._check("USp")

    def test_unitary_one_level(self):
        self._check("U")

    def test_mixture_one_level(self):
        self._check("O")

    def test_even_orthogonal_two_level(self):
        spec = _spec("SOeven", self.SIZE, self.SAMPLES, seed=424242)
        report = rmt.ensemble_average(spec, [FEJER(0.45), FEJER(0.45)], True)
        assert abs(report.z_score) < 4.0, report

    def test_mean_spacing_near_unity(self):
        # average gap between consecutive scaled points, pooled over the
        # ensemble; only interior gaps of one spectrum enter the pool
        gaps = np.concatenate([
            np.diff(scaled).ravel() for scaled, _ in
            rmt._spectra(_spec("SOeven", 30, 200, seed=99)).values()])
        gap = math.fsum(gaps.tolist()) / len(gaps)
        # the adapted circumference trades exact unit mean spacing for
        # an unbiased periodized statistic; a percent-level offset at
        # this size is expected and shrinks with the matrix dimension
        assert 0.9 < gap < 1.05
