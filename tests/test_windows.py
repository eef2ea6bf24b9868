import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    QuadFormProblem,
    band_form,
    covariance_bands,
    dense_covariance,
    per_pair_correlation,
    trace_form,
    window_stat_covariance,
    window_test_series,
)
from scipy.special import chdtrc, expit
from scipy.stats import chi2, kstest

from smoothdiff.basis import BasisSpec, difference_penalty, expand_band, make_basis
from smoothdiff.errors import NumericalError, ParameterError
from smoothdiff.fitting import StratumData, covariance_block, select_lambda
from smoothdiff.simulate import failure_cause
from smoothdiff.windows import (
    _direct_inverse,
    sliding_inverses,
    window_stat_correlation,
    window_statistics,
)


def random_spd(rng, m, diag_boost=None):
    a = rng.normal(size=(m, m))
    v = a @ a.T
    v += (diag_boost if diag_boost is not None else m) * np.eye(m)
    return v


def full_band(*covs):
    """The full-width upper band of the sum of dense covariances."""
    v = sum(covs)
    return band_form(v, v.shape[0] - 1)


class TestSlidingInverses:
    def test_identity_windows(self):
        out = sliding_inverses(np.eye(10), 3)
        for inv in out:
            assert np.allclose(inv, np.eye(3))

    def test_full_width_degenerate_window(self):
        rng = np.random.default_rng(0)
        v = random_spd(rng, 6)
        out = sliding_inverses(v, 6)
        assert len(out) == 1
        assert np.allclose(out[0], np.linalg.inv(v), atol=1e-10)

    def test_matches_direct_inversion(self):
        rng = np.random.default_rng(1)
        v = random_spd(rng, 50)
        out = sliding_inverses(v, 4)
        for k, inv in enumerate(out):
            direct = np.linalg.inv(v[k : k + 4, k : k + 4])
            err = np.max(np.abs(inv - direct)) / np.max(np.abs(direct))
            assert err < 1e-10

    def test_single_factorization_without_reanchor(self):
        rng = np.random.default_rng(2)
        v = random_spd(rng, 80)
        out = sliding_inverses(v, 5, reanchor=None)
        assert out.n_factorizations == 1
        assert len(out) == 76

    def test_reanchor_counts(self):
        rng = np.random.default_rng(3)
        v = random_spd(rng, 200)
        out = sliding_inverses(v, 4, reanchor=64)
        n_windows = 200 - 4 + 1
        assert out.n_factorizations == 1 + (n_windows - 1) // 64

    def test_loss_of_positive_definiteness_names_window(self):
        v = np.eye(12)
        v[8, 8] = -1.0  # window containing index 8 is indefinite
        with pytest.raises(NumericalError, match=r"window \d+"):
            sliding_inverses(v, 3, reanchor=None)

    def test_bad_width_rejected(self):
        with pytest.raises(ParameterError):
            sliding_inverses(np.eye(5), 0)
        with pytest.raises(ParameterError):
            sliding_inverses(np.eye(5), 6)

    @given(m=st.integers(6, 30), w=st.integers(1, 8), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_exactness_property(self, m, w, seed):
        if w > m:
            return
        v = random_spd(np.random.default_rng(seed), m)
        out = sliding_inverses(v, w, reanchor=None)
        for k, inv in enumerate(out):
            direct = np.linalg.inv(v[k : k + w, k : k + w])
            assert np.max(np.abs(inv - direct)) <= 1e-10 * max(np.max(np.abs(direct)), 1.0)


def window_spec(m, w):
    """Open-uniform spec on [0, 1] with windows of width w; w = m is allowed
    here, although make_basis keeps at least two regions."""
    degree = w - 1
    knots = np.concatenate([np.zeros(degree), np.linspace(0.0, 1.0, m - w + 2), np.ones(degree)])
    return BasisSpec(degree=degree, z_lo=0.0, z_hi=1.0, m=m, knots=knots)


class TestWindowTestSeries:
    @given(m=st.integers(1, 30), w=st.integers(1, 8), seed=st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_matches_sliding_inverses_and_direct_solve(self, m, w, seed):
        w = min(w, m)
        rng = np.random.default_rng(seed)
        v = random_spd(rng, m)
        delta = rng.normal(size=m)
        series = window_test_series(window_spec(m, w), delta, v)
        assert series.n_windows == m - w + 1
        sliding = sliding_inverses(v, w)
        for k in range(m - w + 1):
            d = delta[k : k + w]
            direct = d @ np.linalg.solve(v[k : k + w, k : k + w], d)
            assert series.T[k] == pytest.approx(direct, rel=1e-12, abs=1e-300)
            assert series.T[k] == pytest.approx(d @ sliding[k] @ d, rel=1e-10, abs=1e-300)
        assert np.array_equal(series.p, chi2.sf(series.T, df=w))

    @pytest.mark.parametrize("bad, first", [([8], 6), ([3, 9], 1), ([0], 0), ([11], 9)])
    def test_indefinite_covariance_names_first_bad_window(self, bad, first):
        # width 3 over 12 coefficients: window k covers k..k+2
        spec = make_basis(0.0, 1.0, 12, 2)
        cov = 0.5 * np.eye(12)
        cov[bad, bad] = -0.5
        with pytest.raises(NumericalError) as exc:
            window_statistics(np.zeros(12), full_band(cov, cov), spec)
        message = str(exc.value)
        assert message == f"window {first} covariance is not positive definite"
        assert failure_cause(message) == "not_positive_definite"


class TestWindowStatistics:
    def setup_method(self):
        self.spec = make_basis(0.0, 1.0, 12, 2)
        self.rng = np.random.default_rng(5)

    def test_identical_fits_give_zero_statistics(self):
        series = window_statistics(np.zeros(12), full_band(random_spd(self.rng, 12)), self.spec)
        assert np.allclose(series.T, 0.0)
        assert np.allclose(series.p, 1.0)

    def test_identity_covariance_arithmetic(self):
        cov = 0.5 * np.eye(12)
        delta = np.zeros(12)
        delta[0] = 1.0
        series = window_statistics(delta, full_band(cov, cov), self.spec)
        # first window difference is (1,0,0) against unit total covariance
        assert series.T[0] == pytest.approx(1.0)
        assert series.p[0] == pytest.approx(float(chi2.sf(1.0, df=3)))

    def test_scale_invariance(self):
        delta = self.rng.normal(size=12)
        cov = random_spd(self.rng, 12)
        base = window_statistics(delta, full_band(cov, cov), self.spec)
        c = 3.7
        scaled = window_statistics(c * delta, full_band(c**2 * cov, c**2 * cov), self.spec)
        assert np.allclose(base.T, scaled.T, rtol=1e-10)

    def test_swap_symmetry(self):
        delta = self.rng.normal(size=12)
        v_band = full_band(random_spd(self.rng, 12), random_spd(self.rng, 12))
        a = window_statistics(delta, v_band, self.spec)
        b = window_statistics(-delta, v_band, self.spec)
        assert np.allclose(a.T, b.T, rtol=1e-12)

    @pytest.mark.parametrize(
        "delta, v_band, message",
        [
            (np.zeros(8), full_band(np.eye(12)), r"coefficient difference of shape \(8,\) does not match m=12"),
            (np.zeros((12, 1)), full_band(np.eye(12)), r"shape \(12, 1\) does not match m=12"),
            (np.zeros(12), full_band(np.eye(8)), r"shape \(8, 8\) does not reach offset 2 at m=12"),
            (np.zeros(12), band_form(np.eye(12), 1), r"shape \(2, 12\) does not reach offset 2 at m=12"),
            (np.zeros(12), np.ones(12), r"shape \(12,\) does not reach offset 2 at m=12"),
        ],
    )
    def test_dimension_mismatch_rejected(self, delta, v_band, message):
        with pytest.raises(ParameterError, match=message):
            window_statistics(delta, v_band, self.spec)

    def test_null_pvalues_uniform_in_gaussian_theory(self):
        # draw coefficient differences exactly from the assumed normal model:
        # p-values must be uniform by construction of the quadratic form
        rng = np.random.default_rng(6)
        spec = make_basis(0.0, 1.0, 40, 3)
        cov = random_spd(rng, 40, diag_boost=8.0)
        half = np.linalg.cholesky(cov)
        v_band = full_band(cov, cov)
        pooled = []
        for _ in range(300):
            c1 = half @ rng.normal(size=40)
            c2 = half @ rng.normal(size=40)
            pooled.append(window_statistics(c1 - c2, v_band, spec).p)
        stat = kstest(np.concatenate(pooled), "uniform").statistic
        assert stat < 0.02


class TestChiSquareTail:
    def test_survival_function_accuracy_against_mpmath(self):
        # regularized upper incomplete gamma: chi2.sf(t, k) = Q(k/2, t/2)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for df in (3, 4):
            for t in (0.1, 1.0, 5.0, 25.0, 100.0, 300.0, 500.0):
                exact = float(mpmath.gammainc(df / 2, t / 2, mpmath.inf, regularized=True))
                ours = float(chi2.sf(t, df=df))
                assert abs(ours - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("df", [1, 2, 3, 4])
    def test_chdtrc_is_chi2_sf_bit_for_bit(self, df):
        # the window p-value function against scipy.stats, from zero through
        # the subnormals, a deep tail (T = 1e3, p ~ 1e-216), tails that
        # underflow to p = 0 and the largest double to inf and NaN; a sum of
        # squares never reaches T < 0
        t = np.array([0.0, 5e-324, 1e-300, 1e-8, 1.0, 1e3, 1e4, 1e308, np.inf, np.nan])
        p = chdtrc(df, t)
        assert 0.0 < p[5] < 1e-200 and p[6] == 0.0
        assert np.array_equal(p, chi2.sf(t, df=df), equal_nan=True)


def full_sum_stat_covariance(cov1, cov2, spec, k, k2):
    """window_stat_covariance as first written: blocks read from the full m x m sum V1 + V2."""
    w = spec.degree + 1
    vsum = cov1 + cov2
    sl1, sl2 = slice(k, k + w), slice(k2, k2 + w)
    sigma = np.block([[vsum[sl1, sl1], vsum[sl1, sl2]], [vsum[sl2, sl1], vsum[sl2, sl2]]])
    a = _direct_inverse(vsum[sl1, sl1], k)
    b = _direct_inverse(vsum[sl2, sl2], k2)
    problem = QuadFormProblem(A=0.5 * (a + a.T), B=0.5 * (b + b.T), sigma=0.5 * (sigma + sigma.T))
    return trace_form(problem)


class TestWindowStatisticsFromBands:
    """window_statistics reads the w x w blocks from the band of V = V1 + V2."""

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_matches_dense_window_series(self, family, degree):
        m = 30
        spec = make_basis(0.0, 1.0, m, degree)
        pen = difference_penalty(m, 2)
        rng = np.random.default_rng(40 + degree)
        fits = []
        for shift in (0.0, 0.4):
            z = rng.uniform(0, 1, 1500)
            eta = np.sin(5 * z) + shift * (z > 0.5)
            if family == "gaussian":
                y = eta + rng.normal(0, 0.4, z.size)
            else:
                y = (rng.random(z.size) < expit(eta)).astype(float)
            fits += select_lambda([StratumData(y=y, z=z, family=family)], spec, pen)
        delta = fits[0].coef - fits[1].coef
        got = window_statistics(delta, sum(covariance_bands(fits, degree)), spec)
        ref = window_test_series(spec, delta, dense_covariance(fits[0]) + dense_covariance(fits[1]))
        np.testing.assert_allclose(got.T, ref.T, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got.p, ref.p, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bad, first", [([8], 6), ([3, 9], 1), ([0], 0), ([11], 9)])
    def test_indefinite_band_names_the_dense_first_block(self, bad, first):
        spec = make_basis(0.0, 1.0, 12, 2)
        cov = 0.5 * np.eye(12)
        cov[bad, bad] = -0.5
        # a band wider than the windows need
        with pytest.raises(NumericalError) as from_band:
            window_statistics(np.zeros(12), band_form(cov + cov, 3), spec)
        with pytest.raises(NumericalError) as from_dense:
            window_test_series(spec, np.zeros(12), cov + cov)
        assert str(from_band.value) == str(from_dense.value)
        assert str(from_band.value) == f"window {first} covariance is not positive definite"


class TestWindowStatCovariance:
    def setup_method(self):
        self.spec = make_basis(0.0, 1.0, 14, 2)
        self.rng = np.random.default_rng(7)

    def test_block_sum_equals_full_sum_bitwise(self):
        spec = make_basis(0.0, 1.0, 30, 3)
        n_windows = spec.n_regions
        v1, v2 = random_spd(self.rng, 30), random_spd(self.rng, 30)
        pairs = [(0, 0), (0, 3), (5, 2), (10, 14), (n_windows - 1, 0), (n_windows - 1, n_windows - 1)]
        for k, k2 in pairs:
            # the band to exactly the offset the pair reaches, and the full band
            for reach in (abs(k - k2) + spec.degree, 29):
                got = window_stat_covariance(band_form(v1 + v2, reach), spec, k, k2)
                assert np.array_equal(got, full_sum_stat_covariance(v1, v2, spec, k, k2)), (k, k2, reach)

    def test_band_short_of_the_pair_is_rejected(self):
        v_band = band_form(random_spd(self.rng, 14), 4)
        assert np.isfinite(window_stat_covariance(v_band, self.spec, 3, 5))
        with pytest.raises(ParameterError, match="does not reach offset 5"):
            window_stat_covariance(v_band, self.spec, 3, 6)
        with pytest.raises(ParameterError, match="m=14"):
            window_stat_covariance(band_form(random_spd(self.rng, 12), 11), self.spec, 0, 0)

    def test_self_case_is_chi_square_variance(self):
        cov = random_spd(self.rng, 14)
        var = window_stat_covariance(full_band(0.5 * cov, 0.5 * cov), self.spec, 2, 2)
        # T_k is an exact chi-square with d+1 dof under the model
        assert var == pytest.approx(2.0 * (self.spec.degree + 1))

    def test_disjoint_windows_with_banded_covariance(self):
        # strictly banded V: windows farther apart than the bandwidth decouple
        m, d = 14, 2
        v = np.zeros((m, m))
        idx = np.arange(m)
        v[idx, idx] = 4.0
        v[idx[:-1], idx[:-1] + 1] = 1.0
        v[idx[:-1] + 1, idx[:-1]] = 1.0
        v[idx[:-2], idx[:-2] + 2] = 0.3
        v[idx[:-2] + 2, idx[:-2]] = 0.3
        for k2 in range(6, 12):
            cov = window_stat_covariance(full_band(0.5 * v, 0.5 * v), self.spec, 0, k2)
            if k2 - 0 > d:
                assert cov == 0.0
            else:
                assert cov > 0.0

    def test_correlation_decays_with_lag(self):
        # fitted uniform-design model: near-Toeplitz covariance, so the
        # log correlation decays roughly linearly over the first lags
        spec = make_basis(0.0, 1.0, 40, 2)
        pen = difference_penalty(40, 2)
        rng = np.random.default_rng(8)
        z = rng.uniform(0, 1, 3000)
        y = np.sin(5 * z) + rng.normal(0, 0.4, 3000)
        fit = select_lambda([StratumData(y=y, z=z)], spec, pen, 1.0)[0]
        anchor = 18
        lags = np.arange(0, 9)
        block = covariance_block([fit, fit], anchor + np.arange(lags[-1] + spec.degree + 1))
        corr = window_stat_correlation(block, spec.degree, 0, lags)
        assert corr[0] == pytest.approx(1.0)
        assert all(np.diff(corr) < 0)
        logc = np.log(np.maximum(corr[1:], 1e-300))
        slope, intercept = np.polyfit(lags[1:], logc, 1)
        ss_res = np.sum((logc - (slope * lags[1:] + intercept)) ** 2)
        ss_tot = np.sum((logc - logc.mean()) ** 2)
        assert slope < 0
        assert 1 - ss_res / ss_tot > 0.9


class TestWindowStatCorrelationVector:
    def setup_method(self):
        self.spec = make_basis(0.0, 1.0, 30, 3)
        rng = np.random.default_rng(21)
        self.v_band = full_band(random_spd(rng, 30), random_spd(rng, 30))
        self.v_block = expand_band(self.v_band)

    @pytest.mark.parametrize("k, k2", [(12, np.arange(12, 23)), (5, [9, 0, 5, 9, 26, 2])])
    def test_vector_equals_per_pair_loop_bitwise(self, k, k2):
        got = window_stat_correlation(self.v_block, 3, k, np.asarray(k2))
        want = [per_pair_correlation(self.v_band, self.spec, k, int(j)) for j in k2]
        assert got.shape == (len(want),)
        assert np.array_equal(got, want)
        assert [window_stat_correlation(self.v_block, 3, k, np.array([j]))[0] for j in k2] == want

    @pytest.mark.parametrize("n_lags", [1, 2, 11, 27])
    def test_one_batched_factorization_and_two_quadratic_form_calls(self, monkeypatch, n_lags):
        from smoothdiff import windows

        calls = {"cholesky": 0, "quad": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(windows, "cov_quadratic_forms", counted("quad", windows.cov_quadratic_forms))
        got = window_stat_correlation(self.v_block, 3, 0, np.arange(n_lags))
        assert got.shape == (n_lags,)
        assert calls["cholesky"] == 1 and calls["quad"] <= 2

    def test_vector_checks_the_farthest_pair(self):
        # a block on 14 coefficients at degree 3 holds windows 0..10
        block = self.v_block[10:24, 10:24]
        assert np.all(np.isfinite(window_stat_correlation(block, 3, 0, np.array([0, 10]))))
        with pytest.raises(ParameterError, match=r"window indices must lie in \[0, 11\)"):
            window_stat_correlation(block, 3, 0, np.array([0, 11, 2]))
        with pytest.raises(ParameterError, match=r"window indices must lie in \[0, 11\)"):
            window_stat_correlation(block, 3, -1, np.array([0]))
        with pytest.raises(ParameterError, match=r"covariance block of shape \(14, 13\) is not square"):
            window_stat_correlation(block[:, :13], 3, 0, np.array([0]))

    @pytest.mark.parametrize("k2", [[], np.array([], dtype=int)])
    def test_empty_vector_is_a_parameter_error(self, k2):
        # numpy's zero-size reduction ValueError before
        with pytest.raises(ParameterError, match="the vector of other windows k2 is empty"):
            window_stat_correlation(self.v_block, 3, 10, k2)


def assert_equals_per_pair(v_band, spec, k, k2):
    """window_stat_correlation on the band's numbers as a block equals the per-pair
    oracle on the band bit for bit, or raises its message."""
    v_block = expand_band(v_band)
    try:
        want = np.array([per_pair_correlation(v_band, spec, k, int(j)) for j in k2])
    except NumericalError as exc:
        with pytest.raises(NumericalError) as got:
            window_stat_correlation(v_block, spec.degree, k, k2)
        assert str(got.value) == str(exc)
        return False
    assert np.array_equal(window_stat_correlation(v_block, spec.degree, k, k2), want), (k, k2)
    return True


class TestWindowStatCorrelationEqualsPerPair:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_random_bands(self, degree):
        rng = np.random.default_rng(60 + degree)
        n_failed = 0
        for _ in range(60):
            m = int(rng.integers(degree + 2, 30))
            spec = make_basis(0.0, 1.0, m, degree)
            r = rng.normal(size=(m, m + 2))
            v = r @ r.T
            if rng.random() < 0.25:  # an indefinite window somewhere
                j = int(rng.integers(0, m))
                v[j, j] = -1.0
            k = int(rng.integers(0, spec.n_regions))
            # any order, before and after k, with repeats
            k2 = rng.integers(0, spec.n_regions, size=int(rng.integers(1, 9)))
            reach = int(np.max(np.abs(k - k2))) + degree
            n_failed += not assert_equals_per_pair(band_form(v, int(rng.integers(reach, m))), spec, k, k2)
        assert 0 < n_failed < 60

    @pytest.mark.parametrize("preset", ["table1a", "tableS1"])
    def test_preset_strata(self, preset):
        from smoothdiff.simulate import PRESETS
        from smoothdiff.simulate import gen_coefficients, gen_stratum, replicate_rng

        scenario = PRESETS[preset]
        spec = scenario.basis()
        pen = difference_penalty(scenario.m, scenario.penalty_order)
        rng = replicate_rng(scenario.seed, 0)
        coefs = gen_coefficients(scenario, rng)[:2]
        fits = select_lambda([gen_stratum(c, scenario, rng, spec) for c in coefs], spec, pen)
        max_lag = 10
        v_band = sum(covariance_bands(fits, max_lag + spec.degree))
        for anchor in range(spec.n_regions - max_lag):
            assert assert_equals_per_pair(v_band, spec, anchor, anchor + np.arange(max_lag + 1))
