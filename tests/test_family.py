"""Tests for synthetic family generation and averaged-coefficient checks."""

import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import reference_family_csv
from lowlying import family, hecke, measures, summary


def _family(forms=30, seed=20260822, primes=(2, 3, 5), rule="balanced"):
    spec = family.FamilySpec(primes=primes, forms=forms, seed=seed,
                             epsilon_rule=rule)
    return family.generate_family(spec)


class TestFamilySpec:
    def test_rejects_empty_primes(self):
        with pytest.raises(ValueError):
            family.FamilySpec(primes=(), forms=1, seed=0)

    def test_rejects_duplicate_primes(self):
        with pytest.raises(ValueError):
            family.FamilySpec(primes=(2, 3, 2), forms=1, seed=0)

    def test_rejects_composite_entries(self):
        with pytest.raises(ValueError):
            family.FamilySpec(primes=(2, 4), forms=1, seed=0)

    def test_rejects_zero_forms(self):
        with pytest.raises(ValueError):
            family.FamilySpec(primes=(2,), forms=0, seed=0)

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            family.FamilySpec(primes=(2,), forms=1, seed=0,
                              epsilon_rule="random")

    def test_normalizes_primes_to_ints(self):
        spec = family.FamilySpec(primes=[np.int64(2), 3], forms=2, seed=0)
        assert spec.primes == (2, 3)


@pytest.mark.parametrize("call", [
    lambda: family.FamilySpec(primes=(2.5, 3), forms=1, seed=0),
    lambda: family.FamilySpec(primes=(2, 3), forms=2.5, seed=0),
    lambda: family.FamilySpec(primes=(2, 3), forms=1, seed=1.5),
    lambda: family.joint_sato_tate_test(_family(forms=5), [2.9], 1),
    lambda: family.average_coefficient(_family(forms=5), 4.7),
    lambda: family.plus_minus_split_test(_family(forms=5), 4.5)],
    ids=["spec_prime", "spec_forms", "spec_seed", "joint_prime", "average_m",
         "split_m"])
def test_rejects_non_integral_inputs(call):
    with pytest.raises(ValueError, match="integer|prime"):
        call()


@pytest.mark.parametrize("call", [
    lambda fam: family.generate_family(family.FamilySpec((2,), 10.0, 1)),
    lambda fam: family.FamilySpec((2,), 10, -1),
    lambda fam: family.FamilySpec((2,), 10, 2 ** 64),
    lambda fam: family.main_term_spin(4.5),
    lambda fam: family.average_coefficient(fam, 4.0),
    lambda fam: family.joint_sato_tate_test(fam, [2], 2.0),
    lambda fam: fam.spec.factor(7),
    lambda fam: fam.spec.factor(14),
    lambda fam: fam.spec.factor(0),
    lambda fam: fam.spec.check_joint([2, 2], 2),
    lambda fam: fam.spec.check_joint([7], 2),
    lambda fam: fam.spec.check_joint([2, 3], 5),
    lambda fam: fam.spec.check_split(14),
    lambda fam: fam.spec.check_split(0),
    lambda fam: family.FamilySpec(
        (2,), 10, 1, "level_one_parity").check_split(4),
    lambda fam: family.FamilySpec((2,), 1, 1).check_split(4),
    lambda fam: family.FamilySpec((2,), 1, 1, "level_one_parity"),
    lambda fam: family.FamilySpec((2,), 3, 1).check_split(4)],
    ids=["integral_float_forms", "negative_seed", "seed_past_64_bits",
         "main_term_m", "integral_float_m", "integral_float_degree",
         "factor_outside_window", "factor_partly_outside", "factor_zero",
         "joint_duplicate", "joint_foreign", "joint_degree_5",
         "split_m_outside", "split_m_zero", "split_parity_rule",
         "split_one_form", "spec_one_form", "split_three_forms"])
def test_rejects_before_sampling_and_quadrature(call, monkeypatch):
    fam = _family(forms=5)

    def ran(*args, **kwargs):
        raise AssertionError("ran before validation")
    monkeypatch.setattr(measures, "sample_array", ran)
    monkeypatch.setattr(measures, "integrate", ran)
    with pytest.raises(ValueError):
        call(fam)


class TestMainTerms:
    def test_spin_hand_values(self):
        assert family.main_term_spin(1) == 1.0
        assert family.main_term_spin(4) == 0.625
        assert family.main_term_spin(16) == 0.328125
        assert family.main_term_spin(2) == 0.0
        assert family.main_term_spin(12) == 0.0
        assert_allclose(family.main_term_spin(9), 10.0 / 27.0, rtol=1e-15)
        assert_allclose(family.main_term_spin(36), 25.0 / 108.0, rtol=1e-15)
        assert_allclose(family.main_term_spin(100), 0.13, rtol=1e-15)

    def test_spin_multiplicative_on_coprime_squares(self):
        got = family.main_term_spin(36)
        assert_allclose(got,
                        family.main_term_spin(4) * family.main_term_spin(9),
                        rtol=1e-14)

    def test_spin_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            family.main_term_spin(0)


class TestGeneration:
    def test_support(self):
        fam = _family(forms=200)
        for p in (2, 3, 5):
            assert np.all(np.abs(fam.points[p]) <= 2.0)

    def test_balanced_signs_alternate(self):
        fam = _family(forms=501)
        eps = fam.epsilons
        assert set(np.unique(eps)) <= {1, -1}
        assert abs(int(np.sum(eps == 1)) - int(np.sum(eps == -1))) <= 1
        assert eps[0] == 1 and eps[1] == -1

    def test_level_one_parity_odd_weight(self):
        fam = _family(forms=40, rule="level_one_parity")
        assert np.all(fam.epsilons == -1)

    def test_deterministic_given_seed(self):
        f1 = _family(forms=100, seed=5)
        f2 = _family(forms=100, seed=5)
        for p in (2, 3, 5):
            assert np.array_equal(f1.points[p], f2.points[p])
        assert np.array_equal(f1.epsilons, f2.epsilons)

    def test_seed_changes_draws(self):
        f1 = _family(forms=100, seed=5)
        f2 = _family(forms=100, seed=6)
        assert not np.array_equal(f1.points[2], f2.points[2])


class TestCoefficients:
    def test_vectorized_matches_per_form_route(self):
        fam = _family(forms=30)
        for m in (1, 2, 4, 6, 9, 12, 36, 90):
            grid = family.coefficient_values(fam, m)
            direct = []
            for i in range(len(fam)):
                # one scalar local value per prime power p^v || m
                value = 1.0
                for p in (2, 3, 5):
                    v = 0
                    while m % p ** (v + 1) == 0:
                        v += 1
                    a, b = fam.points[p][i]
                    value *= hecke.spin_dirichlet_coeff(
                        hecke.SpinSatake.from_pair(a, b), v)
                direct.append(value)
            assert_allclose(grid, direct, rtol=1e-12, atol=1e-12)

    def test_uncovered_prime(self):
        fam = _family(forms=5)
        with pytest.raises(ValueError):
            family.coefficient_values(fam, 7)
        with pytest.raises(ValueError):
            family.coefficient_values(fam, 14)

    def test_validation(self):
        fam = _family(forms=5)
        with pytest.raises(ValueError):
            family.coefficient_values(fam, 0)

    def test_unit_coefficient_average(self):
        report = family.average_coefficient(_family(forms=50), 1)
        assert report.estimate == 1.0
        assert report.stderr == 0.0
        assert report.z_score == 0.0

    def test_report_serialization(self):
        report = family.average_coefficient(_family(forms=50), 4)
        payload = report.to_json_dict()
        assert set(payload) == {"m", "which", "estimate", "stderr",
                                "prediction", "z"}
        assert payload["m"] == 4
        assert payload["which"] == "spin"


class TestAverages:
    def test_spin_square_and_nonsquare(self):
        fam = _family(forms=20000)
        assert abs(family.average_coefficient(fam, 4).z_score) < 4.0
        assert abs(family.average_coefficient(fam, 2).z_score) < 4.0

    def test_multiplicativity_across_coprime_moduli(self):
        fam = _family(forms=20000)
        r4 = family.average_coefficient(fam, 4)
        r9 = family.average_coefficient(fam, 9)
        r36 = family.average_coefficient(fam, 36)
        prod = r4.estimate * r9.estimate
        se = math.sqrt(r36.stderr ** 2
                       + (r4.estimate * r9.stderr) ** 2
                       + (r9.estimate * r4.stderr) ** 2)
        assert abs(r36.estimate - prod) < 4.0 * se


class TestJointMoments:
    def test_single_prime_degenerate_case(self):
        fam = _family(forms=20000)
        report = family.joint_sato_tate_test(fam, (3,), 2)
        assert len(report.entries) == 5
        assert report.max_abs_z < 4.0

    def test_two_primes_degree_two(self):
        fam = _family(forms=20000)
        report = family.joint_sato_tate_test(fam, (2, 3), 2)
        assert len(report.entries) == 14
        assert report.max_abs_z < 4.0
        labels = {e.label for e in report.entries}
        assert "a2^1*a3^1" in labels
        assert "a2^1*b2^1" in labels

    def test_cross_prime_prediction_is_product(self):
        fam = _family(forms=200)
        report = family.joint_sato_tate_test(fam, (2, 3), 2)
        cross = {e.label: e for e in report.entries}["a2^1*a3^1"]
        want = (family._prime_moment(2, 1, 0) * family._prime_moment(3, 1, 0))
        assert cross.prediction == want

    def test_moment_cache_uses_swap_symmetry(self):
        assert family._prime_moment(3, 2, 1) is not None
        assert (family._prime_moment(3, 2, 1)
                == family._prime_moment(3, 1, 2))

    def test_repeat_runs_no_quadrature(self, monkeypatch):
        fam = _family(forms=50, primes=(2, 3))
        family.joint_sato_tate_test(fam, (2, 3), 2)

        def integrated(*args, **kwargs):
            raise AssertionError("quadrature ran again")
        monkeypatch.setattr(measures, "adaptive_tensor", integrated)
        fam = _family(forms=50, primes=(2, 3))
        family.joint_sato_tate_test(fam, (2, 3), 2)

    def test_quadrature_prediction_oracle(self):
        vm = measures.vertical_measure(2)
        direct = measures.integrate(vm, lambda x, y: x * x, tol=1e-10)
        assert_allclose(family._prime_moment(2, 2, 0), direct, atol=1e-7)

    def test_validation(self):
        fam = _family(forms=5)
        with pytest.raises(ValueError):
            family.joint_sato_tate_test(fam, (7,), 2)
        with pytest.raises(ValueError):
            family.joint_sato_tate_test(fam, (2, 2), 2)
        with pytest.raises(ValueError):
            family.joint_sato_tate_test(fam, (2,), 5)

    def test_report_serialization(self):
        fam = _family(forms=100)
        payload = family.joint_sato_tate_test(fam, (2,), 1).to_json_dict()
        assert payload["primes"] == [2]
        assert payload["max_degree"] == 1
        assert {"monomial", "estimate", "stderr", "prediction", "z"} \
            == set(payload["moments"][0])


class TestSplit:
    def test_requires_balanced_rule(self):
        fam = _family(forms=10, rule="level_one_parity")
        with pytest.raises(ValueError):
            family.plus_minus_split_test(fam, 4)

    def test_empty_sign_class_raises(self):
        with pytest.raises(ValueError, match="minus"):
            family.plus_minus_split_test(_family(forms=3), 4)

    def test_square_modulus(self):
        fam = _family(forms=20000)
        report = family.plus_minus_split_test(fam, 4)
        assert abs(report.plus.z_score) < 4.0
        assert abs(report.minus.z_score) < 4.0
        assert report.balance == 0.0
        assert report.to_json_dict()["note"] == family.SIGN_MODEL_NOTE

    def test_nonsquare_modulus(self):
        fam = _family(forms=20000)
        report = family.plus_minus_split_test(fam, 2)
        assert report.plus.prediction == 0.0
        assert abs(report.plus.estimate) < 4.0 * report.plus.stderr
        assert abs(report.minus.estimate) < 4.0 * report.minus.stderr

    def test_balance_bound_odd_count(self):
        fam = _family(forms=101)
        report = family.plus_minus_split_test(fam, 4)
        assert report.balance <= 1.0 / 101

    def test_serialization(self):
        fam = _family(forms=50)
        payload = family.plus_minus_split_test(fam, 4).to_json_dict()
        assert set(payload) == {"m", "plus", "minus", "balance", "note"}
        assert payload["plus"]["m"] == 4


def _csv_lines(writer, fam):
    # a list, so a mismatch reports its first differing line instead of
    # a text diff of the whole file
    buf = io.StringIO()
    writer(fam, buf)
    return buf.getvalue().splitlines(keepends=True)


class TestOutputs:
    def test_csv_round_trip(self):
        fam = _family(forms=4, primes=(2, 3))
        buf = io.StringIO()
        family.write_family_csv(fam, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "form_id,prime,a,b,epsilon"
        assert len(lines) == 1 + 4 * 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "2"
        assert float(first[2]) == fam.points[2][0, 0]
        assert float(first[3]) == fam.points[2][0, 1]
        assert first[4] in ("1", "-1")

    @pytest.mark.parametrize("forms", [
        2, family._CSV_BLOCK - 1, family._CSV_BLOCK,
        family._CSV_BLOCK + 1, 2 * family._CSV_BLOCK + 3])
    @pytest.mark.parametrize("rule", family.EPSILON_RULES)
    def test_csv_matches_row_writer(self, forms, rule):
        fam = _family(forms=forms, primes=(2, 3), rule=rule, seed=forms)
        assert _csv_lines(family.write_family_csv, fam) \
            == _csv_lines(reference_family_csv, fam)

    def test_csv_planted_floats(self):
        planted = [-0.0, 5e-324, 1e-05, 0.1, 2.0, -2.0, 1.9999999999999998]
        forms = len(planted)
        spec = family.FamilySpec(primes=(2, 5), forms=forms, seed=0)
        points = {2: np.column_stack([planted, planted[::-1]]),
                  5: np.column_stack([planted[3:] + planted[:3], planted])}
        fam = family.Family(spec, points, np.array([1, -1] * 3 + [1]))
        got = _csv_lines(family.write_family_csv, fam)
        assert got == _csv_lines(reference_family_csv, fam)
        assert got[1] == "0,2,-0.0,1.9999999999999998,1\n"
        assert got[3] == "1,2,5e-324,-2.0,-1\n"

    @pytest.mark.parametrize("value", [
        2.0 ** -10, np.nextafter(2.0 ** -10, 0), np.nextafter(2.0, 0),
        0.5, 0.25, 1.0, 1 + 2.0 ** -17, math.nan, math.inf, 1e300]
        + [np.nextafter(v, to) for v in (0.1, 0.3, 1.5) for to in (0, v, 2)])
    def test_csv_planted_edges(self, value):
        # the fast path's edges and powers of two, a tie that rounds to
        # even, short decimals with their neighbours, and values that
        # only repr formats, with both signs in both columns; the window
        # has a prime above 2^63
        big = 2 ** 64 - 59
        spec = family.FamilySpec(primes=(2, big), forms=2, seed=0)
        points = {2: np.array([[value, -value], [-value, value]]),
                  big: np.array([[-value, -value], [value, value]])}
        fam = family.Family(spec, points, np.array([1, -1]))
        got = _csv_lines(family.write_family_csv, fam)
        assert got == _csv_lines(reference_family_csv, fam)
        if value == 1 + 2.0 ** -17:  # half up would end in ...313
            assert got[1] == "0,2,1.0000076293945312,-1.0000076293945312,1\n"


def _repr_lines(values, chunk=1 << 16):
    """The rows of family._repr_fields as one string of lines, a chunk
    at a time so the temporaries stay small."""
    out = []
    for start in range(0, len(values), chunk):
        fields = family._repr_fields(values[start:start + chunk])
        lines = np.concatenate([fields, np.full((len(fields), 1), ord("\n"),
                                                np.uint8)], axis=1)
        out.append(lines.tobytes().replace(b"\0", b"").decode("ascii"))
    return "".join(out)


def _assert_repr(values):
    """_repr_lines(values) equals the lines of repr, compared as one
    string; a mismatch names its first value, not a diff of megabytes."""
    got = _repr_lines(values)
    want = "\n".join(map(repr, values.tolist())) + "\n"
    if got != want:
        got, want = got.splitlines(), want.splitlines()
        first = next((i for i, pair in enumerate(zip(got, want))
                      if pair[0] != pair[1]), min(len(got), len(want)))
        pytest.fail("line %d of %d: got %r, repr %r" % (
            first, len(values), got[first:first + 1], want[first:first + 1]))


def _in_domain(rng, count):
    """Random floats of both signs with 2^-10 <= |x| < 2: every exponent
    field 1013..1023 and random mantissa bits."""
    bits = (rng.integers(1013, 1024, count, dtype=np.uint64) << 52
            | rng.integers(0, 1 << 52, count, dtype=np.uint64)
            | rng.integers(0, 2, count, dtype=np.uint64) << 63)
    return bits.view(np.float64)


class TestReprFields:
    """family._repr_fields against repr, compared as whole strings."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261021)
        finite = rng.integers(0, 1 << 64, 20000, dtype=np.uint64,
                              endpoint=False).view(np.float64)
        values = np.concatenate([_in_domain(rng, 10 ** 6),
                                 finite[np.isfinite(finite)]])
        values = values[rng.permutation(len(values))]
        _assert_repr(values)

    def test_short_decimals_and_their_neighbours(self):
        # i / 10^d is the float nearest the d-place decimal, so repr
        # prints at most d places for it; its neighbours need 16 or 17
        # digits
        rng = np.random.default_rng(7)
        values = []
        for places in range(1, 17):
            ints = rng.integers(1, 2 * 10 ** places, 2000)
            near = ints / 10.0 ** places
            values += [near, np.nextafter(near, 0), np.nextafter(near, 2)]
        values = np.concatenate(values)
        values = np.concatenate([values, -values])
        _assert_repr(values)

    def test_every_exactly_scaled_value(self):
        # in binade [2^k, 2^(k+1)) the scaled x 10^s, s = 17 +
        # ceil(-k log10 2), is an integer exactly when 2^(52 - k - s)
        # divides the 53-bit significand: 434,176 values, each sign
        values = []
        for k in range(-10, 1):
            scale = 17 + next(c for c in range(5) if 10 ** c >= 2 ** -k)
            step = 2 ** (52 - k - scale)
            sig = np.arange(2 ** 52, 2 ** 53, step, dtype=np.uint64)
            values.append(np.ldexp(sig.astype(np.float64), k - 52))
        values = np.concatenate(values)
        assert len(values) == 434176
        values = np.concatenate([values, -values])
        _assert_repr(values)


def _float_list_mean_stderr(values):
    # the per-element float-list form, the oracle for the array version
    vals = [float(v) for v in np.asarray(values).ravel()]
    n = len(vals)
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var / n)


def _square_sensitive_triple():
    """[x, -x, 0] for an x whose libm square differs from x * x in a way
    that reaches the standard error, sqrt(x^2 / 3); where every square
    agrees, any x will do."""
    xs = np.random.default_rng(5).uniform(0.5, 2.0, 100000).tolist()
    x = next((x for x in xs if math.sqrt(x ** 2 / 3) != math.sqrt(x * x / 3)),
             xs[0])
    return [x, -x, 0.0]


def _one_column_sum(x):
    # the package's exactly rounded sum of a 1-D array, as its callers
    # take it
    return summary._column_sums(np.asarray(x, dtype=float)[:, None])[0]


def _sum_outcome(total, x):
    # the sum's bits, or the exception it raised
    try:
        return total(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _sweep_arrays(kind, seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(1, 2000))
        signs = rng.choice([-1.0, 1.0], n)
        if kind == "uniform":
            yield rng.uniform(-1.0, 1.0, n)
        elif kind == "power":
            yield signs * rng.uniform(0.0, 1.0, n) ** 7
        elif kind == "wide":
            yield np.ldexp(signs * rng.uniform(0.5, 1.0, n),
                           rng.integers(-1080, 900, n))
        elif kind == "subnormal":
            yield rng.integers(-2 ** 52, 2 ** 52, n) * 5e-324
        else:
            half = signs * rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(
                -30, 30, n)
            x = np.concatenate([half, -half])
            rng.shuffle(x)
            yield x


class TestExactSum:
    """`summary._column_sums` on one-column inputs keeps math.fsum's bits."""

    @pytest.mark.parametrize("kind", ["uniform", "power", "wide",
                                      "subnormal", "cancelling"])
    def test_sweep_matches_fsum(self, kind):
        for x in _sweep_arrays(kind, len(kind)):
            assert (_one_column_sum(x).hex()
                    == math.fsum(x.tolist()).hex())

    @pytest.mark.parametrize("n, cancelling, fallbacks", [
        (10 ** 5, False, 0), (2 ** 18, False, 0), (10 ** 5, True, 1)],
        ids=["normal_1e5", "normal_2^18", "cancelling_1e5"])
    def test_long_columns_keep_fsum_bits(self, n, cancelling, fallbacks,
                                         monkeypatch):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(n)
        if cancelling:
            # +-x pairs, each off by a few ulps: the sum sits far below
            # the certificate's bound, so fsum sums the column
            half = x[:n // 2]
            ulps = rng.integers(-3, 4, n // 2) * np.spacing(half)
            x = np.concatenate([half, -(half + ulps)])
            rng.shuffle(x)
        want = math.fsum(x.tolist()).hex()
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum",
                            lambda v: calls.append(v) or fsum(v))
        assert _one_column_sum(x).hex() == want
        assert len(calls) == fallbacks

    @pytest.mark.parametrize("values", [
        [1.0, 2.0 ** -53],
        [1.0 + 2.0 ** -52, 2.0 ** -53],
        [-1.0, -(2.0 ** -53)],
        [1.0] + [2.0 ** -60] * 128,
        [1.0, 2.0 ** -53, 5e-324],
        [3.0 * 2.0 ** 970, 2.0 ** 918]],
        ids=["to_even_down", "to_even_up", "negative", "many_pieces",
             "past_the_tie", "near_the_top"])
    def test_ties_at_half_an_ulp(self, values):
        assert _one_column_sum(values).hex() == math.fsum(values).hex()

    @pytest.mark.parametrize("values", [
        [-0.0], [0.0, -0.0], [5e-324, -5e-324], [],
        [math.inf, 1.0], [-math.inf, -math.inf], [math.nan, 1.0],
        [math.inf, -math.inf], [1e308, -1e308, 5.0]],
        ids=["negative_zero", "signed_zeros", "tiny_cancel", "empty",
             "inf", "minus_inf", "nan", "inf_minus_inf", "near_overflow"])
    def test_special_values_follow_fsum(self, values):
        assert (_sum_outcome(_one_column_sum, values)
                == _sum_outcome(math.fsum, values))

    def test_overflow_raises_as_fsum_does(self):
        x = np.array([1e308, 1e308, -1e308])
        with pytest.raises(OverflowError):
            math.fsum(x.tolist())
        with pytest.raises(OverflowError):
            _one_column_sum(x)


class TestMeanStderr:
    @pytest.mark.parametrize("values", [
        np.random.default_rng(3).normal(0.3, 1.7, 5001),
        np.random.default_rng(4).integers(-9, 10, 777),
        np.random.default_rng(5).uniform(-2.0, 2.0, (40, 25)),
        _square_sensitive_triple(),
        [0.1] * 3 + [1e-300, 1e150, -1e150]],
        ids=["float", "int", "2d", "square_sensitive", "cancelling"])
    def test_bit_equal_to_float_list(self, values):
        got = family._mean_stderr(values)
        want = _float_list_mean_stderr(values)
        assert [x.hex() for x in got] == [x.hex() for x in want]
