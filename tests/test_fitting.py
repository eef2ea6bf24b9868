import importlib.util
import json
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    band_form,
    band_solve_by_pbtrf,
    binomial_block_by_where,
    binomial_deviance_by_where,
    covariance_bands,
    demmler_reinsch_edfs,
    band_covariance,
    dense_covariance,
    dense_design,
    dense_inverse_edf,
    gaussian_systems_by_operators,
    gcv_choice_by_loop,
    penalty_matrix,
    per_lambda_band_solve,
    residual_deviances,
    select_lambda_by_residuals,
    solve_penalized_per_iteration,
)
from scipy.special import expit, xlogy

from smoothdiff import basis, fitting
from smoothdiff.basis import design_matrix, difference_penalty, expand_band, make_basis
from smoothdiff.cli import AnalysisConfig, load_strata, main
from smoothdiff.errors import NumericalError, ParameterError
from smoothdiff.fitting import (
    StratumData,
    _binomial_deviance,
    covariance_block,
    default_lambda_grid,
    penalized_inverse,
    select_lambda,
    selected_inverse_band,
)
from smoothdiff.simulate import PRESETS, failure_cause, gen_coefficients, gen_stratum, replicate_rng
from smoothdiff.tdp import threshold_regions
from smoothdiff.windows import window_statistics


@pytest.fixture
def setup():
    spec = make_basis(0.0, 1.0, 8, 2)
    pen = difference_penalty(8, 2)
    return spec, pen


def random_gaussian_data(rng, n=50, with_x=False):
    z = rng.uniform(0, 1, n)
    x = rng.normal(size=(n, 2)) if with_x else None
    signal = np.sin(5 * z) + 0.3 * z
    if with_x:
        signal = signal + x @ np.asarray([0.5, -1.0])
    y = signal + rng.normal(0, 0.4, n)
    return StratumData(y=y, z=z, X=x)


def gaussian_objective(data, spec, pen, lam, beta, coef):
    resid = data.y - dense_design(design_matrix(spec, data.z)) @ coef - data.X @ beta
    return float(resid @ resid + lam * coef @ penalty_matrix(pen) @ coef)


def use_lambda_grid(monkeypatch, grid):
    """Make `select_lambda` score the ascending `grid` in place of its default grid."""
    monkeypatch.setattr(fitting, "default_lambda_grid", lambda dm, pen: np.asarray(grid, dtype=float))


class TestFitGaussian:
    def test_zero_outcome_gives_zero_coefficients(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(0)
        data = StratumData(y=np.zeros(40), z=rng.uniform(0, 1, 40))
        fit = select_lambda([data], spec, pen, 1.0)[0]
        assert np.allclose(fit.coef, 0.0)
        assert fit.beta.size == 0

    def test_overflowing_sum_of_squares_is_an_input_error(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(3)
        y = rng.normal(size=60)
        y[7] = 1e300  # finite, but y'y overflows
        data = StratumData(y=y, z=rng.uniform(0, 1, 60))
        with pytest.raises(ParameterError, match="y'y overflows"):
            select_lambda([data], spec, pen)
        with pytest.raises(ParameterError, match="y'y overflows"):
            select_lambda([data], spec, pen, 1.0)[0]

    def test_orthonormal_design_ols(self):
        # degree-0 basis with two unit samples per cell: Z'Z = 2I, so OLS gives Z'y / 2
        spec = make_basis(0.0, 1.0, 4, 0)
        pen = difference_penalty(4, 2)
        z = np.asarray([0.1, 0.15, 0.3, 0.4, 0.6, 0.7, 0.9, 0.95])
        y = np.asarray([2.0, 1.0, -1.0, 0.0, 0.5, 1.5, 3.0, 2.0])
        fit = select_lambda([StratumData(y=y, z=z)], spec, pen, 0.0)[0]
        zt_y = dense_design(design_matrix(spec, z)).T @ y
        assert np.allclose(fit.coef, zt_y / 2)
        # one sample per cell interpolates: edf = n leaves no residual degree of freedom
        with pytest.warns(UserWarning), pytest.raises(NumericalError, match="less than one residual degree"):
            select_lambda([StratumData(y=y[::2], z=z[::2])], spec, pen, 0.0)[0]

    def test_matches_dense_reference_solve(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(1)
        data = random_gaussian_data(rng)
        lam = 0.7
        fit = select_lambda([data], spec, pen, lam)[0]
        zd = dense_design(design_matrix(spec, data.z))
        a = zd.T @ zd + lam * penalty_matrix(pen)
        ref = np.linalg.solve(a, zd.T @ data.y)
        assert np.max(np.abs(fit.coef - ref)) / max(np.max(np.abs(ref)), 1.0) < 1e-10

    def test_matches_dense_reference_with_fixed_effects(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(2)
        data = random_gaussian_data(rng, with_x=True)
        lam = 0.5
        fit = select_lambda([data], spec, pen, lam)[0]
        zd = dense_design(design_matrix(spec, data.z))
        m_full = np.hstack([data.X, zd])
        penalty = np.zeros((10, 10))
        penalty[2:, 2:] = lam * penalty_matrix(pen)
        ref = np.linalg.solve(m_full.T @ m_full + penalty, m_full.T @ data.y)
        assert np.allclose(np.concatenate([fit.beta, fit.coef]), ref, atol=1e-9)
        schur = (zd.T @ zd + lam * penalty_matrix(pen)) - (zd.T @ data.X) @ np.linalg.solve(
            data.X.T @ data.X, data.X.T @ zd
        )
        assert np.allclose(dense_covariance(fit), fit.dispersion * np.linalg.inv(schur), atol=1e-9)

    def test_covariance_symmetric_positive_definite(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(3)
        for _ in range(10):
            [fit] = select_lambda([random_gaussian_data(rng)], spec, pen, float(rng.uniform(0.01, 5)))
            cov = dense_covariance(fit)
            assert np.max(np.abs(cov - cov.T)) < 1e-10
            np.linalg.cholesky(cov)

    def test_objective_optimality_under_perturbation(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(4)
        data = random_gaussian_data(rng)
        lam = 0.9
        fit = select_lambda([data], spec, pen, lam)[0]
        base = gaussian_objective(data, spec, pen, lam, fit.beta, fit.coef)
        for j in range(spec.m):
            for sign in (-1.0, 1.0):
                coef = fit.coef.copy()
                coef[j] += sign * 1e-4
                assert gaussian_objective(data, spec, pen, lam, fit.beta, coef) >= base

    def test_monotone_shrinkage(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(5)
        data = random_gaussian_data(rng)
        roughness = [
            float(f.coef @ penalty_matrix(pen) @ f.coef)
            for f in (select_lambda([data], spec, pen, lam)[0] for lam in (0.01, 0.1, 1.0, 10.0))
        ]
        assert all(roughness[i + 1] <= roughness[i] + 1e-12 for i in range(3))

    def test_intercept_column_is_not_identified(self, setup):
        # B-splines sum to one and S 1 = 0, so a constant column repeats the
        # unpenalized part of the smooth and its coefficient has no value
        spec, pen = setup
        rng = np.random.default_rng(6)
        z = rng.uniform(0, 1, 60)
        y = np.cos(4 * z) + rng.normal(0, 0.3, 60)
        for family, outcome in (("gaussian", y), ("binomial", (y > 0.5).astype(float))):
            data = StratumData(y=outcome, z=z, family=family, X=np.ones((60, 1)))
            for fit in (lambda: select_lambda([data], spec, pen, 0.4)[0], lambda: select_lambda([data], spec, pen)[0]):
                with pytest.raises(ParameterError, match="fixed-effect column 1 is not identified"):
                    fit()

    def test_duplicated_column_is_not_identified(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(23)
        z = rng.uniform(0, 1, 80)
        x = rng.normal(size=(80, 2))
        data = StratumData(y=np.sin(5 * z) + rng.normal(0, 0.3, 80), z=z, X=np.column_stack([x, x[:, 0]]))
        with pytest.raises(ParameterError, match="fixed-effect column 3 is not identified"):
            select_lambda([data], spec, pen, 0.4)[0]

    def test_nearly_linear_column_is_identified(self, setup):
        # x = z is linear in z but not in the coefficients: the clamped
        # boundary knots keep it off the null space of S
        spec, pen = setup
        rng = np.random.default_rng(24)
        z = rng.uniform(0, 1, 300)
        data = StratumData(y=np.sin(5 * z) + rng.normal(0, 0.3, 300), z=z, X=z[:, None])
        assert np.isfinite(select_lambda([data], spec, pen, 0.4)[0].beta).all()

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_spline_reproduced_column_at_lambda_zero_is_not_positive_definite(self, family):
        # at lambda = 0 every column in the span of Z is unidentified, and a
        # quadratic spline reproduces x = z exactly: S_x is zero up to
        # rounding, so its pivot fails the relative tolerance
        spec, pen = make_basis(0.0, 1.0, 20, 2), difference_penalty(20, 2)
        rng = np.random.default_rng(0)
        z = rng.uniform(0, 1, 300)
        y = np.sin(5 * z) + rng.normal(0, 0.3, 300)
        outcome = y if family == "gaussian" else (rng.uniform(size=300) < expit(y)).astype(float)
        data = StratumData(y=outcome, z=z, family=family, X=z[:, None])
        with pytest.raises(NumericalError, match="not positive definite"):
            select_lambda([data], spec, pen, 0.0)[0]
        assert np.isfinite(select_lambda([data], spec, pen, 0.4)[0].beta).all()

    def test_banded_and_dense_paths_agree(self):
        rng = np.random.default_rng(7)
        for m in [2, 3, 4] + [int(rng.integers(8, 30)) for _ in range(5)]:
            a = rng.normal(size=(m, m))
            a = a @ a.T + m * np.eye(m)
            # zero outside a band to make a banded SPD test matrix
            bw = int(rng.integers(1, 4))
            for j in range(m):
                for k in range(m):
                    if abs(j - k) > bw:
                        a[j, k] = 0.0
            a = a + m * np.eye(m)
            dense = np.linalg.inv(a)
            # the band at its own width, and as wide as the matrix
            for width in {min(bw, m - 1), m - 1}:
                banded = penalized_inverse(band_form(a, width))
                assert np.max(np.abs(banded - dense)) < 1e-10 * np.max(np.abs(dense))

    def test_singular_system_raises(self, setup):
        spec, pen = setup
        # two distinct covariate values cannot identify 8 coefficients at lam=0
        data = StratumData(y=np.asarray([1.0, 2.0]), z=np.asarray([0.2, 0.8]))
        with pytest.raises(NumericalError):
            with pytest.warns(UserWarning):
                select_lambda([data], spec, pen, 0.0)[0]

    def test_negative_lambda_rejected(self, setup):
        spec, pen = setup
        data = StratumData(y=np.zeros(30), z=np.linspace(0, 1, 30))
        with pytest.raises(ParameterError):
            select_lambda([data], spec, pen, -1.0)[0]

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, setup, lam):
        spec, pen = setup
        data = StratumData(y=np.zeros(30), z=np.linspace(0, 1, 30))
        with pytest.raises(ParameterError, match=f"got {lam!r}"):
            select_lambda([data], spec, pen, lam)[0]

    def test_small_sample_warns(self, setup):
        spec, pen = setup
        data = StratumData(y=np.zeros(5), z=np.linspace(0, 1, 5))
        with pytest.warns(UserWarning, match="sample size"):
            select_lambda([data], spec, pen, 1.0)[0]


class TestFitBinomial:
    def test_complete_separation_raises(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(8)
        data = StratumData(
            y=np.ones(200), z=rng.uniform(0, 1, 200), family="binomial"
        )
        with pytest.raises(NumericalError, match="separation|diverged"):
            select_lambda([data], spec, pen, 0.5)[0]

    def test_constant_half_probability_recovers_flat_logit(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(9)
        n = 8000
        data = StratumData(
            y=(rng.random(n) < 0.5).astype(float),
            z=rng.uniform(0, 1, n),
            family="binomial",
        )
        fit = select_lambda([data], spec, pen, 1.0)[0]
        eta = design_matrix(spec, data.z).predict(fit.coef)
        assert np.max(np.abs(eta)) < 0.25

    def test_penalized_score_equation_at_convergence(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(10)
        n = 900
        z = rng.uniform(0, 1, n)
        eta_true = 1.2 * np.sin(5 * z)
        y = (rng.random(n) < expit(eta_true)).astype(float)
        lam = 0.8
        fit = select_lambda([StratumData(y=y, z=z, family="binomial")], spec, pen, lam)[0]
        dm = design_matrix(spec, z)
        mu = expit(dm.predict(fit.coef))
        score = dense_design(dm).T @ (y - mu) - lam * penalty_matrix(pen) @ fit.coef
        assert np.max(np.abs(score)) < 1e-6

    def test_dispersion_fixed_at_one(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(11)
        n = 500
        z = rng.uniform(0, 1, n)
        y = (rng.random(n) < 0.5).astype(float)
        fit = select_lambda([StratumData(y=y, z=z, family="binomial")], spec, pen, 2.0)[0]
        assert fit.dispersion == 1.0
        np.linalg.cholesky(dense_covariance(fit))

    def test_non_binary_outcome_rejected(self):
        with pytest.raises(ParameterError):
            StratumData(y=np.asarray([0.0, 0.5]), z=np.asarray([0.1, 0.2]), family="binomial")


def xlogy_deviance(y, mu):
    """Binomial deviance with the saturated terms written out, valid for any y in [0, 1]."""
    return float(2.0 * np.sum(xlogy(y, y) - xlogy(y, mu) + xlogy(1 - y, 1 - y) - xlogy(1 - y, 1 - mu)))


def full_inverse_irls(data, spec, pen, lam):
    """Reference penalized IRLS: the full inverse of A in every iteration, coef = A^{-1} rhs.

    Returns (coef, cov, edf, deviance).
    """
    dm = design_matrix(spec, data.z)
    bandwidth = max(spec.degree, pen.order)
    y = data.y
    mu = (y + 0.5) / 2.0
    eta = np.log(mu / (1.0 - mu))
    deviance = xlogy_deviance(y, mu)
    for _ in range(fitting.MAX_IRLS_ITER):
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        u = eta + (y - mu) / w
        ztz = dm.crossprod(w)
        ainv = penalized_inverse(band_form(ztz + lam * penalty_matrix(pen), bandwidth))
        coef = ainv @ dm.rhs(w * u)
        edf = float(np.sum(ainv * ztz))
        eta = dm.predict(coef)
        if np.max(np.abs(eta)) > fitting.ETA_DIVERGENCE:
            raise NumericalError("linear predictor diverged")
        mu = expit(eta)
        new_deviance = xlogy_deviance(y, np.clip(mu, 1e-12, 1.0 - 1e-12))
        converged = abs(new_deviance - deviance) <= fitting.IRLS_REL_TOL * (abs(deviance) + 1e-12)
        deviance = new_deviance
        if converged:
            return coef, 0.5 * (ainv + ainv.T), edf, deviance
    raise NumericalError("IRLS failed to converge")


def full_inverse_gcv_lambda(data, spec, pen):
    """Reference GCV grid search over the full-inverse IRLS."""
    grid = default_lambda_grid(design_matrix(spec, data.z), pen)
    best_lam, best_score = None, np.inf
    for lam in np.sort(grid):
        try:
            _, _, edf, deviance = full_inverse_irls(data, spec, pen, float(lam))
        except NumericalError:
            continue
        score = data.n * deviance / (data.n - edf) ** 2
        if score <= best_score:
            best_lam, best_score = float(lam), score
    return best_lam


# (m, degree, n, seed): degree 1 has a narrower Gram band than the q=2 penalty
BINOMIAL_FIXTURES = [(8, 2, 600, 16), (20, 3, 1500, 17), (30, 1, 1000, 18)]


def binomial_fixture(m, degree, n, seed):
    spec = make_basis(0.0, 1.0, m, degree)
    pen = difference_penalty(m, 2)
    rng = np.random.default_rng(seed)
    z = rng.uniform(0, 1, n)
    y = (rng.random(n) < expit(1.5 * np.sin(5 * z))).astype(float)
    return StratumData(y=y, z=z, family="binomial"), spec, pen


class TestBandedIrls:
    @pytest.mark.parametrize("fixture", BINOMIAL_FIXTURES)
    @pytest.mark.parametrize("lam", [1e-3, 0.5, 50.0])
    def test_matches_full_inverse_irls(self, fixture, lam):
        data, spec, pen = binomial_fixture(*fixture)
        fit = select_lambda([data], spec, pen, lam)[0]
        coef, cov, edf, deviance = full_inverse_irls(data, spec, pen, lam)
        # relative to the largest entry, so near-zero entries do not dominate
        np.testing.assert_allclose(fit.coef, coef, rtol=1e-10, atol=1e-10 * np.max(np.abs(coef)))
        np.testing.assert_allclose(dense_covariance(fit), cov, rtol=1e-10, atol=1e-10 * np.max(np.abs(cov)))
        assert fit.edf == pytest.approx(edf, rel=1e-10)
        assert fit.deviance == pytest.approx(deviance, rel=1e-10)

    @pytest.mark.parametrize("fixture", BINOMIAL_FIXTURES)
    def test_select_lambda_picks_the_same_grid_point(self, fixture):
        data, spec, pen = binomial_fixture(*fixture)
        assert select_lambda([data], spec, pen)[0].lam == full_inverse_gcv_lambda(data, spec, pen)

    def test_one_inverse_per_fit(self, monkeypatch):
        data, spec, pen = binomial_fixture(*BINOMIAL_FIXTURES[0])
        calls = []

        def counting(ab):
            calls.append(ab.shape)
            return penalized_inverse(ab)

        monkeypatch.setattr(fitting, "penalized_inverse", counting)
        fit = select_lambda([data], spec, pen, 0.5)[0]
        # neither the fit nor its windows, nor a covariance block however large, inverts A
        window_statistics(np.zeros(spec.m), 2.0 * fit.cov_band, spec)
        covariance_block([fit], np.arange(spec.m))
        assert calls == []

    def test_not_positive_definite_iteration_raises(self, setup):
        # no data beyond z = 0.3 leaves basis functions without support, so
        # Z'WZ has zero rows and at lambda = 0 the first factorization fails
        spec, pen = setup
        rng = np.random.default_rng(19)
        z = rng.uniform(0, 0.3, 200)
        data = StratumData(y=(rng.random(200) < 0.5).astype(float), z=z, family="binomial")
        with pytest.raises(NumericalError, match="not positive definite"):
            select_lambda([data], spec, pen, 0.0)[0]

    def test_deviance_bitwise_equal_to_xlogy_form(self):
        rng = np.random.default_rng(21)
        y = (rng.random(500) < 0.4).astype(float)
        mu = rng.uniform(0, 1, 500)
        # clip edges and the IRLS starting values on both outcomes
        mu[:8] = [1e-12, 1.0 - 1e-12, 1e-12, 1.0 - 1e-12, 0.25, 0.75, 0.25, 0.75]
        y[:8] = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0]
        assert _binomial_deviance(y, mu) == xlogy_deviance(y, mu)
        for i in range(8):
            assert _binomial_deviance(y[i : i + 1], mu[i : i + 1]) == xlogy_deviance(
                y[i : i + 1], mu[i : i + 1]
            )

    def test_branch_free_deviance_bitwise_equal_to_mask_form(self):
        # one row per system, as the IRLS block passes it, written in place
        rng = np.random.default_rng(27)
        y = (rng.random(4000) < 0.3).astype(float)
        mu = np.clip(rng.uniform(0, 1, (16, 4000)) ** 3, 1e-12, 1.0 - 1e-12)
        mu[:, :4] = [1e-12, 1.0 - 1e-12, 0.5, np.nextafter(1.0, 0.0)]
        want = binomial_deviance_by_where(y, mu)
        assert np.array_equal(_binomial_deviance(y, mu), want)
        buf = mu.copy()
        assert np.array_equal(_binomial_deviance(y, buf, out=buf), want)


def dense_block_fit(data, spec, pen, lam):
    """(beta, coef, cov, edf, deviance, n_iter) from the dense block solve with fixed effects.

    A Gaussian fit is one `solve_penalized_per_iteration`; a binomial fit
    runs IRLS on it, forming cov and edf in every iteration and returning
    the last iteration's.
    """
    dm = design_matrix(spec, data.z)
    S = penalty_matrix(pen)
    y = data.y
    if data.family == "gaussian":
        beta, coef, cov_unit, edf = solve_penalized_per_iteration(dm, data.X, S, lam, y, None)
        resid = y - dm.predict(coef) - data.X @ beta
        deviance = float(resid @ resid)
        dispersion = deviance / (data.n - edf)
        return beta, coef, dispersion * 0.5 * (cov_unit + cov_unit.T), edf, deviance, 1
    mu = (y + 0.5) / 2.0
    eta = np.log(mu / (1.0 - mu))
    deviance = _binomial_deviance(y, mu)
    for n_iter in range(1, fitting.MAX_IRLS_ITER + 1):
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        u = eta + (y - mu) / w
        beta, coef, cov_unit, edf = solve_penalized_per_iteration(dm, data.X, S, lam, u, w)
        eta = dm.predict(coef) + data.X @ beta
        mu = expit(eta)
        new_deviance = _binomial_deviance(y, np.clip(mu, 1e-12, 1.0 - 1e-12))
        converged = abs(new_deviance - deviance) <= fitting.IRLS_REL_TOL * (abs(deviance) + 1e-12)
        deviance = new_deviance
        if converged:
            return beta, coef, 0.5 * (cov_unit + cov_unit.T), edf, deviance, n_iter
    raise NumericalError("IRLS failed to converge")


def per_iteration_bordered_irls(data, spec, pen, lam):
    """Binomial IRLS alone at `lam` that forms the covariance band and edf in every iteration.

    Each iteration runs the library's bordered band solve and selected
    inverse on its own; returns the last iteration's fit.
    """
    dm = design_matrix(spec, data.z)
    penalty_band = fitting._penalty_band(spec, pen)
    y = data.y
    mu, eta, deviance = fitting._start(y)
    for n_iter in range(1, fitting.MAX_IRLS_ITER + 1):
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        u = eta + (y - mu) / w
        gram = dm.gram_band(w)
        zr, xr = fitting._cross_products(dm, data.X, u, w)
        _, factors, sols, errors = fitting._band_solve(penalty_band, np.asarray([lam]), gram, zr)
        [coef], [beta], [border] = fitting._eliminate_border(sols, zr, xr, errors)
        assert errors == [None]
        eta = fitting._predict(dm, data.X, coef[None], beta[None])[0]
        mu = fitting._logistic(eta, np.empty_like(eta))
        new_deviance = float(_binomial_deviance(y, np.clip(mu, 1e-12, 1.0 - 1e-12)))
        system = fitting._BandSystem(lam, coef, beta, new_deviance, gram, factors[0], border, n_iter)
        [band], [edf] = fitting._selected_inverses([system], penalty_band)
        fit = fitting._band_fit(data, system, band, float(edf), penalty_band)
        if fitting._converged(new_deviance, deviance):
            return fit
        deviance = new_deviance
    raise NumericalError("IRLS failed to converge")


def fixed_effect_fixture(m, degree, seed, family="binomial", p=2):
    spec = make_basis(0.0, 1.0, m, degree)
    pen = difference_penalty(m, 2)
    rng = np.random.default_rng(seed)
    z = rng.uniform(0, 1, 800)
    x = rng.normal(size=(800, p))
    eta = 1.5 * np.sin(5 * z) + x @ np.asarray([0.4, -0.3][:p])
    if family == "gaussian":
        y = eta + rng.normal(0, 0.5, z.size)
    else:
        y = (rng.random(800) < expit(eta)).astype(float)
    return StratumData(y=y, z=z, family=family, X=x), spec, pen


FIXED_EFFECT_CASES = [(8, 2, 61), (25, 3, 62), (30, 1, 63)]


class TestFixedEffectIrls:
    @pytest.mark.parametrize("m,degree,seed", FIXED_EFFECT_CASES)
    @pytest.mark.parametrize("lam", [1e-3, 0.5, 50.0])
    def test_bit_identical_to_per_iteration_path(self, m, degree, seed, lam):
        data, spec, pen = fixed_effect_fixture(m, degree, seed)
        fit = select_lambda([data], spec, pen, lam)[0]
        assert_fits_bitwise_equal(fit, per_iteration_bordered_irls(data, spec, pen, lam))

    @pytest.mark.parametrize("family,p", [("gaussian", 1), ("gaussian", 2), ("binomial", 1), ("binomial", 2)])
    @pytest.mark.parametrize("m,degree,seed", FIXED_EFFECT_CASES)
    @pytest.mark.parametrize("lam", [1e-3, 0.5, 50.0])
    def test_matches_dense_block_oracle(self, m, degree, seed, lam, family, p):
        data, spec, pen = fixed_effect_fixture(m, degree, seed, family, p)
        fit = select_lambda([data], spec, pen, lam)[0]
        beta, coef, cov, edf, deviance, n_iter = dense_block_fit(data, spec, pen, lam)
        assert_close(fit.beta, beta, rtol=1e-10)
        assert_close(fit.coef, coef, rtol=1e-10)
        assert_close(dense_covariance(fit), cov, rtol=1e-10)
        assert fit.edf == pytest.approx(edf, rel=1e-10, abs=0.0)
        assert fit.deviance == pytest.approx(deviance, rel=1e-10, abs=0.0)
        [system] = fitting._grid_systems(
            design_matrix(spec, data.z), data, fitting._penalty_band(spec, pen), np.asarray([lam])
        )
        assert system.n_iter == n_iter

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("m,degree,seed", FIXED_EFFECT_CASES)
    def test_select_lambda_picks_the_dense_block_grid_point(self, m, degree, seed, family):
        data, spec, pen = fixed_effect_fixture(m, degree, seed, family, p=1)
        grid = default_lambda_grid(design_matrix(spec, data.z), pen)
        best_lam, best_score = None, np.inf
        for lam in np.sort(grid):
            _, _, _, edf, deviance, _ = dense_block_fit(data, spec, pen, float(lam))
            score = data.n * deviance / (data.n - edf) ** 2
            if score <= best_score:
                best_lam, best_score = float(lam), score
        assert select_lambda([data], spec, pen)[0].lam == best_lam


class TestStratumDataValidation:
    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_nan_outcome_names_first_index(self, family):
        y = np.asarray([0.0, 1.0, 1.0, np.nan, 0.0, np.nan])
        with pytest.raises(ParameterError, match=r"y\[3\].*not finite"):
            StratumData(y=y, z=np.linspace(0, 1, 6), family=family)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_covariate_names_first_index(self, bad):
        z = np.linspace(0, 1, 5)
        z[2] = bad
        with pytest.raises(ParameterError, match=r"z\[2\].*not finite"):
            StratumData(y=np.zeros(5), z=z)


def assert_fits_bitwise_equal(a, b):
    for name in ("coef", "beta", "cov_band", "precision_band", "border"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("lam", "dispersion", "edf", "family", "deviance", "n_obs"):
        assert getattr(a, name) == getattr(b, name), name


class TestSelectLambda:
    @pytest.mark.parametrize("case", ["gaussian", "binomial", "gaussian_fixed_effect", "binomial_fixed_effect"])
    def test_returned_fit_equals_fit_at_its_lambda(self, setup, case):
        # a fixed-effect lambda's result does not depend on its block either
        if case.startswith("binomial"):
            data, spec, pen = binomial_fixture(*BINOMIAL_FIXTURES[1])
        else:
            spec, pen = setup
            rng = np.random.default_rng(22)
            z = rng.uniform(0, 1, 200)
            data = StratumData(y=np.sin(5 * z) + rng.normal(0, 0.4, 200), z=z)
        if case.endswith("fixed_effect"):
            x = np.random.default_rng(25).normal(size=(data.n, 1))
            y = data.y + 0.5 * x[:, 0] if data.family == "gaussian" else data.y
            data = StratumData(y=y, z=data.z, family=data.family, X=x)
        [fit] = select_lambda([data], spec, pen)
        assert_fits_bitwise_equal(fit, select_lambda([data], spec, pen, fit.lam)[0])

    def test_small_sample_warns_once(self, setup):
        spec, pen = setup
        z = np.linspace(0, 1, 6)
        data = StratumData(y=np.sin(3 * z), z=z)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            select_lambda([data], spec, pen)
        user = [w for w in caught if issubclass(w.category, UserWarning)]
        assert len(user) == 1
        assert "sample size" in str(user[0].message)

    def test_pure_noise_selects_heavy_smoothing(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(12)
        selected = []
        for _ in range(100):
            data = StratumData(y=rng.normal(0, 1, 120), z=rng.uniform(0, 1, 120))
            selected.append(select_lambda([data], spec, pen)[0].lam)
        grid = default_lambda_grid(design_matrix(spec, np.linspace(0, 1, 120)), pen)
        top_decade = grid[-1] / 10
        assert np.median(selected) >= top_decade

    def test_polynomial_in_null_space_selects_grid_maximum(self, setup):
        # A constant lies in the q=2 penalty null space with constant
        # coefficients (clamped boundary knots spoil this for linear y),
        # so the fit is exact at every lambda and ties resolve to the top.
        spec, pen = setup
        z = np.linspace(0, 1, 90)
        data = StratumData(y=np.full(90, 2.5), z=z)
        grid = default_lambda_grid(design_matrix(spec, z), pen)
        assert select_lambda([data], spec, pen)[0].lam == pytest.approx(grid[-1])

    def test_no_observation_inside_the_domain_is_a_parameter_error(self):
        data = StratumData(y=np.ones(30), z=np.full(30, 2.0))
        message = "30 rows have z outside the domain [0.0, 1.0], the first z = 2.0"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            select_lambda([data], make_basis(0, 1, 8, 2), difference_penalty(8, 2))

    def test_z_outside_the_domain_is_a_parameter_error(self):
        # such a row was fit as a zero basis row: 40 of 400 z moved past the
        # domain took the dispersion from 0.0101 to 0.0749, with no error
        spec, pen = make_basis(0, 1, 20, 3), difference_penalty(20, 2)
        rng = np.random.default_rng(8)
        z = rng.uniform(0, 1, 400)
        y = np.sin(6 * z) + rng.normal(0, 0.1, z.size)
        inside = StratumData(y=y, z=z)
        select_lambda([inside], spec, pen)
        shifted = z.copy()
        shifted[::10] += 1.0
        outside = StratumData(y=y, z=shifted)
        first = float(shifted[np.flatnonzero(shifted > 1.0)[0]])
        message = f"40 rows have z outside the domain [0.0, 1.0], the first z = {first!r}"
        for lam in (None, 0.5):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                select_lambda([outside], spec, pen, lam)
            with pytest.raises(ParameterError, match=f"^stratum 2: {re.escape(message)}$"):
                select_lambda([inside, outside], spec, pen, lam)
        below = StratumData(y=y, z=z - 1.0 + 1e-3)
        with pytest.raises(ParameterError, match=r"^stratum 1: \d+ rows have z outside the domain"):
            select_lambda([below, inside], spec, pen)

    def test_degenerate_grid_returns_the_value(self, setup, monkeypatch):
        spec, pen = setup
        rng = np.random.default_rng(13)
        data = random_gaussian_data(rng)
        use_lambda_grid(monkeypatch, [0.37])
        assert select_lambda([data], spec, pen)[0].lam == 0.37

    def test_deterministic(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(14)
        data = random_gaussian_data(rng, n=200)
        assert select_lambda([data], spec, pen)[0].lam == select_lambda([data], spec, pen)[0].lam

    def test_binomial_selection_runs(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(16)
        n = 600
        z = rng.uniform(0, 1, n)
        y = (rng.random(n) < expit(np.sin(5 * z))).astype(float)
        [fit] = select_lambda([StratumData(y=y, z=z, family="binomial")], spec, pen)
        assert fit.lam > 0


def full_fit_gcv_path(data, spec, pen, grid):
    """Reference GCV path: the full fit, with its inverse, at every sorted grid point.

    Returns (lam, deviance, edf, score) for each point that can be fit, the
    deviance flushed to zero at the rounding level as select_lambda does.
    """
    yss = float(data.y @ data.y)
    path = []
    for lam in np.sort(grid):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # some fixtures have n <= m
                fit = select_lambda([data], spec, pen, float(lam))[0]
        except NumericalError:
            continue
        dev = 0.0 if fit.deviance <= 1e-16 * max(yss, 1e-300) else fit.deviance
        path.append((float(lam), dev, fit.edf, data.n * dev / (data.n - fit.edf) ** 2))
    return path


def path_argmin(path):
    """Lambda of the smallest score, ties going to the larger lambda."""
    best_lam, best_score = None, np.inf
    for lam, _, _, score in path:
        if score <= best_score:
            best_lam, best_score = lam, score
    return best_lam


def batched_gcv_path(data, spec, pen, grid):
    """The same (lam, deviance, edf, score) path from the batched grid, one selected inversion for all points."""
    yss = float(data.y @ data.y)
    penalty_band = fitting._penalty_band(spec, pen)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # some fixtures have n <= m
        dm, solved = fitting._solve_grid(data, spec, pen, penalty_band, np.sort(grid))
    systems = [fitting._exact(dm, data, s) for s in solved if not isinstance(s, NumericalError)]
    edf = fitting._selected_inverses(systems, penalty_band)[1] if systems else []
    path = []
    for system, e in zip(systems, edf):
        if data.n - e < 1.0:
            continue
        dev = 0.0 if system.deviance <= 1e-16 * max(yss, 1e-300) else system.deviance
        [score] = fitting._gcv_scores(data, np.asarray([system.deviance]), np.asarray([e]))
        path.append((system.lam, dev, float(e), float(score)))
    return path


def assert_paths_match(path, ref, data):
    """Same points, and (deviance, edf, score) equal at rtol 1e-9 up to conditioning.

    Near an exact fit the deviance is a small residual whose rounding scales
    with y'y, so it also gets the exact-fit threshold 1e-12 y'y of
    `_gaussian_at` as an absolute allowance. The score's tolerance is the
    deviance and edf tolerances carried through n * dev / (n - edf)^2.
    """
    n, yss = data.n, float(data.y @ data.y)
    assert [p[0] for p in path] == [r[0] for r in ref]
    for (_, dev, edf, score), (_, ref_dev, ref_edf, ref_score) in zip(path, ref):
        assert dev == pytest.approx(ref_dev, rel=1e-9, abs=1e-12 * yss)
        assert edf == pytest.approx(ref_edf, rel=1e-9, abs=0.0)
        rest = n - ref_edf
        score_tol = 1e-9 * ref_score * (1 + 2 * ref_edf / rest) + n * 1e-12 * yss / rest**2
        assert score == pytest.approx(ref_score, rel=0.0, abs=score_tol)


def gaussian_fixture(kind, m, degree, n, seed):
    """One Gaussian stratum without fixed effects, its basis and penalty."""
    spec = make_basis(0.0, 1.0, m, degree)
    pen = difference_penalty(m, 2)
    rng = np.random.default_rng(seed)
    z = rng.uniform(0, 1, n)
    if kind == "constant":
        # constant coefficients fit exactly at every lambda (penalty null space)
        y = np.full(n, 2.5)
    elif kind == "noise":
        y = rng.normal(0, 1, n)
    else:
        y = np.sin(5 * z) + 0.3 * z + rng.normal(0, 0.4, n)
    return StratumData(y=y, z=z), spec, pen


# (kind, m, degree, n, seed); "small" has n <= m
GAUSSIAN_FIXTURES = [
    ("signal", 8, 2, 50, 1),
    ("signal", 8, 2, 200, 22),
    ("noise", 8, 2, 120, 12),
    ("signal", 20, 3, 1500, 17),
    ("signal", 30, 1, 1000, 18),
    ("constant", 8, 2, 90, 3),
    ("small", 12, 3, 9, 4),
    ("small", 20, 2, 20, 5),
]


class TestGaussianGcvPath:
    @pytest.mark.parametrize("fixture", GAUSSIAN_FIXTURES)
    def test_matches_full_fit_path(self, fixture):
        data, spec, pen = gaussian_fixture(*fixture)
        grid = default_lambda_grid(design_matrix(spec, data.z), pen)
        ref = full_fit_gcv_path(data, spec, pen, grid)
        assert ref
        assert_paths_match(batched_gcv_path(data, spec, pen, grid), ref, data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert select_lambda([data], spec, pen)[0].lam == path_argmin(ref)

    def test_constant_outcome_flushes_every_point(self):
        data, spec, pen = gaussian_fixture(*GAUSSIAN_FIXTURES[5])
        grid = default_lambda_grid(design_matrix(spec, data.z), pen)
        assert all(score == 0.0 for *_, score in batched_gcv_path(data, spec, pen, grid))

    @pytest.mark.parametrize("fixture", [GAUSSIAN_FIXTURES[0], GAUSSIAN_FIXTURES[6]])
    def test_one_point_grid(self, fixture, monkeypatch):
        data, spec, pen = gaussian_fixture(*fixture)
        grid = np.asarray([0.37])
        path = batched_gcv_path(data, spec, pen, grid)
        assert_paths_match(path, full_fit_gcv_path(data, spec, pen, grid), data)
        use_lambda_grid(monkeypatch, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert select_lambda([data], spec, pen)[0].lam == 0.37

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(6, 40),
        degree=st.integers(1, 3),
        n=st.integers(5, 400),
        noise=st.floats(0.01, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scores_match_full_fit_path(self, m, degree, n, noise, seed):
        spec = make_basis(0.0, 1.0, m, degree)
        pen = difference_penalty(m, 2)
        rng = np.random.default_rng(seed)
        z = rng.uniform(0, 1, n)
        data = StratumData(y=np.cos(3 * z) + rng.normal(0, noise, n), z=z)
        grid = default_lambda_grid(design_matrix(spec, z), pen)
        path = batched_gcv_path(data, spec, pen, grid)
        assert_paths_match(path, full_fit_gcv_path(data, spec, pen, grid), data)

    def test_singular_system_has_no_candidate(self, setup, monkeypatch):
        # one z value: ZN is short of rank, so no lambda can be fit
        spec, pen = setup
        data = StratumData(y=np.ones(30), z=np.full(30, 0.5))
        use_lambda_grid(monkeypatch, [0.1, 1.0])
        with pytest.raises(NumericalError, match="no smoothing parameter candidate"):
            select_lambda([data], spec, pen)

    @pytest.mark.parametrize("fixture", [GAUSSIAN_FIXTURES[1], GAUSSIAN_FIXTURES[6]])
    def test_one_inverse_per_select_lambda(self, fixture, monkeypatch):
        data, spec, pen = gaussian_fixture(*fixture)
        calls = []

        def counting(ab):
            calls.append(ab.shape)
            return penalized_inverse(ab)

        monkeypatch.setattr(fitting, "penalized_inverse", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            [fit] = select_lambda([data], spec, pen)
        window_statistics(np.zeros(spec.m), 2.0 * fit.cov_band, spec)
        covariance_block([fit], np.arange(spec.m))
        assert calls == []

    @pytest.mark.parametrize("fixture", GAUSSIAN_FIXTURES)
    def test_selected_coef_is_the_grid_solve(self, fixture, monkeypatch):
        data, spec, pen = gaussian_fixture(*fixture)
        solves = []
        real = fitting._band_solve

        def recording(penalty_band, lams, gram, rhs):
            ab, factors, sols, errors = real(penalty_band, lams, gram, rhs)
            solves.extend(zip(lams.tolist(), sols[..., 0]))
            return ab, factors, sols, errors

        monkeypatch.setattr(fitting, "_band_solve", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            [fit] = select_lambda([data], spec, pen)
        # one solve per grid point; without fixed effects the grid's solve at
        # the chosen lambda is the fit's coef, and nothing refits
        grid = default_lambda_grid(design_matrix(spec, data.z), pen)
        assert [lam for lam, _ in solves] == np.sort(grid).tolist()
        [grid_coef] = [coef for lam, coef in solves if lam == fit.lam]
        assert np.shares_memory(grid_coef, fit.coef)
        assert np.array_equal(grid_coef, fit.coef)


def json_round_trip(value):
    return json.loads(json.dumps(value))


class TestPrecisionBand:
    """A fit's precision band, stored as JSON, rebuilds its covariance bit for bit."""

    @staticmethod
    def fixture(family, m, degree, seed=31):
        spec = make_basis(0.0, 1.0, m, degree)
        pen = difference_penalty(m, 2)
        rng = np.random.default_rng(seed)
        z = rng.uniform(0, 1, 600)
        if family == "gaussian":
            y = np.sin(5 * z) + rng.normal(0, 0.4, z.size)
        else:
            y = (rng.random(z.size) < expit(1.5 * np.sin(5 * z))).astype(float)
        return StratumData(y=y, z=z, family=family), spec, pen

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("m", [3, 40])
    def test_band_rebuilds_cov_bitwise(self, family, degree, m):
        m = max(m, degree + 2)
        data, spec, pen = self.fixture(family, m, degree)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            [fit] = select_lambda([data], spec, pen)
        bandwidth = max(degree, pen.order)
        assert fit.precision_band.shape == (bandwidth + 1, m)
        band = np.asarray(json_round_trip(fit.precision_band.tolist()))
        cov = band_covariance(band, json_round_trip(fit.dispersion))
        assert np.array_equal(cov, dense_covariance(fit))
        # it is the matrix the fit inverted: A cov = dispersion * I
        np.testing.assert_allclose(
            expand_band(band) @ cov, fit.dispersion * np.eye(m), atol=1e-8 * fit.dispersion
        )
        # and the fit's covariance band is a band of it
        assert_close(fit.cov_band, band_form(cov, bandwidth), rtol=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_fixed_effect_cov_inverts_the_schur_complement(self, setup, family):
        spec, pen = setup
        rng = np.random.default_rng(5)
        z = rng.uniform(0, 1, 300)
        if family == "gaussian":
            y = np.sin(5 * z) + rng.normal(0, 0.4, z.size)
        else:
            y = (rng.random(z.size) < expit(np.sin(5 * z))).astype(float)
        data = StratumData(y=y, z=z, family=family, X=rng.normal(size=(300, 1)))
        fit = select_lambda([data], spec, pen, 0.5)[0]
        # Cov(coef) = dispersion * (A - Zx (X'WX)^{-1} Zx')^{-1}, W at convergence
        zd, X = dense_design(design_matrix(spec, z)), data.X
        w = np.ones(z.size)
        if family == "binomial":
            mu = expit(zd @ fit.coef + X @ fit.beta)
            w = mu * (1.0 - mu)
        zx = zd.T @ (w[:, None] * X)
        a = zd.T @ (w[:, None] * zd) + 0.5 * penalty_matrix(pen)
        schur = a - zx @ np.linalg.solve(X.T @ (w[:, None] * X), zx.T)
        cov = dense_covariance(fit)
        assert_close(cov, fit.dispersion * np.linalg.inv(schur), rtol=1e-10)
        # and its band is the fit's covariance band
        assert_close(fit.cov_band, band_form(cov, fit.cov_band.shape[0] - 1), rtol=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_widened_covariance_band_is_a_band_of_the_dense_covariance(self, family, p):
        data, spec, pen = self.fixture(family, 30, 2)
        rng = np.random.default_rng(6 + p)
        data = StratumData(y=data.y, z=data.z, family=family, X=rng.normal(size=(data.n, p)))
        fit = select_lambda([data], spec, pen, 0.5)[0]
        cov = dense_covariance(fit)
        b = fit.cov_band.shape[0] - 1
        for width in range(0, spec.m + 2):
            band = covariance_bands([fit], width)[0]
            assert band.shape == (width + 1, spec.m)
            assert_close(band, band_form(cov, width), rtol=1e-12)
            if width <= b:  # read from the fit's own band
                assert np.shares_memory(band, fit.cov_band)

    def test_covariance_bands_of_mixed_fits_equal_each_fit_alone(self):
        data, spec, pen = self.fixture("gaussian", 30, 2)
        rng = np.random.default_rng(9)
        bordered = StratumData(y=data.y, z=data.z, X=rng.normal(size=(data.n, 2)))
        fits = [select_lambda([data], spec, pen, 0.5)[0], select_lambda([bordered], spec, pen, 2.0)[0]]
        # a band of another shape (penalty order 3), and a covariance band held at full width: sliced, not widened
        fits.append(select_lambda([data], spec, difference_penalty(30, 3), 1.0)[0])
        fits.append(replace(fits[0], cov_band=band_form(dense_covariance(fits[0]), 29), precision_band=None))
        for width in range(0, spec.m):
            for band, fit in zip(covariance_bands(fits, width), fits):
                assert np.array_equal(band, covariance_bands([fit], width)[0]), width


def bordered_fit(m, degree, order, p, seed, lam=0.5):
    """A Gaussian fit at a given lambda with p random fixed-effect columns."""
    spec = make_basis(0.0, 1.0, m, degree)
    rng = np.random.default_rng(seed)
    z = rng.uniform(0, 1, 300)
    data = StratumData(y=np.sin(5 * z) + rng.normal(0, 0.4, z.size), z=z, X=rng.normal(size=(z.size, p)))
    return select_lambda([data], spec, difference_penalty(m, order), lam)[0]


class TestCovarianceBlock:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_matches_dense_inverse(self, degree, order, p):
        # from the smallest basis, where one block spans the whole matrix, up
        smallest = max(degree + 2, order + 1)
        for m in sorted({smallest, 9, 31}):
            fits = [bordered_fit(m, degree, order, p, seed=m), bordered_fit(m, degree, order, 1, seed=m + 1, lam=2.0)]
            cov = sum(dense_covariance(fit) for fit in fits)
            for lags in sorted({0, min(2, m - degree - 1), m - degree - 1}):
                q = lags + degree + 1
                # the first anchor's block and the last one's
                for cols in (np.arange(q), np.arange(m - q, m)):
                    block = covariance_block(fits, cols)
                    ref = cov[np.ix_(cols, cols)]
                    assert block.shape == (q, q)
                    assert np.array_equal(block, block.T)
                    assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref)), (m, cols)

    @pytest.mark.parametrize("p", [0, 2])
    def test_matches_the_widened_bands_it_replaced(self, p):
        fits = [bordered_fit(40, 3, 2, p, seed=3), bordered_fit(40, 3, 2, 0, seed=4, lam=3.0)]
        reach = 10 + 3
        v_band = sum(covariance_bands(fits, reach))
        for anchor in (0, 13, 26):
            cols = anchor + np.arange(reach + 1)
            ref = expand_band(v_band)[np.ix_(cols, cols)]
            assert np.max(np.abs(covariance_block(fits, cols) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_not_positive_definite_band_raises(self):
        fit = bordered_fit(12, 3, 2, 0, seed=5)
        bad = replace(fit, precision_band=-fit.precision_band)
        with pytest.raises(NumericalError, match=r"not positive definite \(leading minor 1\)"):
            covariance_block([fit, bad], np.arange(4))


def penalized_factors(m, degree, order, lams, seed=0):
    """(ab, factor) per lambda of A = Z'WZ + lam S on random data and weights."""
    spec = make_basis(0.0, 1.0, m, degree)
    pen = difference_penalty(m, order)
    rng = np.random.default_rng(seed)
    dm = design_matrix(spec, rng.uniform(0, 1, 6 * m))
    gram = dm.gram_band(rng.uniform(0.1, 1.0, dm.n))
    lams = np.asarray(lams, dtype=float)
    ab, factors, _, errors = fitting._band_solve(fitting._penalty_band(spec, pen), lams, gram, np.ones((m, 1)))
    assert errors == [None] * lams.size
    return list(zip(ab, factors))


def dense_inverse_band(ab):
    """The upper band of np.linalg.inv(A) at A's width."""
    return band_form(np.linalg.inv(expand_band(ab)), ab.shape[0] - 1)


class TestSelectedInverseBand:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("n_sys", [1, 40])
    def test_matches_dense_inverse(self, degree, order, n_sys):
        lams = np.geomspace(1e-3, 1e3, n_sys)
        # from the smallest basis, whose band can span the whole matrix, up
        smallest = max(degree + 2, order + 1)
        for m in sorted({smallest, smallest + 1, 9, 31}):
            systems = penalized_factors(m, degree, order, lams, seed=m)
            bands = selected_inverse_band(np.stack([factor for _, factor in systems]))
            assert bands.shape == (n_sys, max(degree, order) + 1, m)
            for (ab, _), band in zip(systems, bands):
                ref = dense_inverse_band(ab)
                assert np.max(np.abs(band - ref)) <= 1e-12 * np.max(np.abs(ref))
            # the factors padded with zero rows give the inverses' wider bands
            b = max(degree, order)
            inverses = [np.linalg.inv(expand_band(ab)) for ab, _ in systems]
            for width in range(b, m):
                padded = np.zeros((n_sys, width + 1, m))
                padded[:, width - b :] = [factor for _, factor in systems]
                for inv, band in zip(inverses, selected_inverse_band(padded)):
                    ref = band_form(inv, width)
                    assert np.max(np.abs(band - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(
        degree=st.integers(0, 3),
        order=st.integers(1, 3),
        extra=st.integers(0, 40),
        log_lam=st.floats(-4, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_dense_inverse(self, degree, order, extra, log_lam, seed):
        m = max(degree + 2, order + 1) + extra
        [(ab, factor)] = penalized_factors(m, degree, order, [10.0**log_lam], seed=seed)
        [band] = selected_inverse_band(factor[None])
        ref = dense_inverse_band(ab)
        assert np.max(np.abs(band - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("degree, order", [(0, 1), (1, 2), (3, 2), (2, 3)])
    def test_each_system_independent_of_the_stack(self, degree, order):
        systems = penalized_factors(25, degree, order, np.geomspace(1e-2, 1e2, 7))
        factors = np.stack([factor for _, factor in systems])
        stacked = selected_inverse_band(factors)
        for k in range(len(factors)):
            assert np.array_equal(selected_inverse_band(factors[k : k + 1])[0], stacked[k])


def grid_systems(data, spec, pen, grid):
    """The lockstep driver's `_BandSystem` at each grid point (all must solve)."""
    dm = design_matrix(spec, data.z)
    systems = fitting._grid_systems(dm, data, fitting._penalty_band(spec, pen), np.asarray(grid, dtype=float))
    assert all(isinstance(s, fitting._BandSystem) for s in systems)
    return systems


class TestGridEdf:
    @pytest.mark.parametrize("fixture", BINOMIAL_FIXTURES)
    def test_binomial_edf_matches_dense_inverse(self, fixture):
        data, spec, pen = binomial_fixture(*fixture)
        grid = default_lambda_grid(design_matrix(spec, data.z), pen)
        penalty_band = fitting._penalty_band(spec, pen)
        systems = grid_systems(data, spec, pen, grid)
        _, edfs = fitting._selected_inverses(systems, penalty_band)
        for system, edf in zip(systems, edfs):
            ab = fitting._precision_band(system, penalty_band)
            assert edf == pytest.approx(dense_inverse_edf(ab, system.gram), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("fixture", GAUSSIAN_FIXTURES)
    def test_gaussian_edf_matches_demmler_reinsch(self, fixture):
        data, spec, pen = gaussian_fixture(*fixture)
        dm = design_matrix(spec, data.z)
        grid = default_lambda_grid(dm, pen)
        systems = grid_systems(data, spec, pen, grid)
        _, edfs = fitting._selected_inverses(systems, fitting._penalty_band(spec, pen))
        np.testing.assert_allclose(edfs, demmler_reinsch_edfs(dm.crossprod(), penalty_matrix(pen), grid), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_grid_scale_bitwise_equal_to_trace_form(degree, order):
    rng = np.random.default_rng(degree * 3 + order)
    for m in sorted({max(degree + 2, order + 1), 37, 500, 2000}):
        spec = make_basis(0.0, 1.0, m, degree)
        pen = difference_penalty(m, order)
        dm = design_matrix(spec, rng.uniform(0, 1, 3 * m))
        trace_form = float(np.trace(dm.crossprod())) / float(np.trace(penalty_matrix(pen)))
        band_form_scale = fitting._grid_scale(dm.gram_band(), fitting._penalty_band(spec, pen))
        assert np.array_equal(band_form_scale, trace_form)
        assert np.array_equal(default_lambda_grid(dm, pen), np.geomspace(1e-4 * trace_form, 1e4 * trace_form, 40))


class TestNoDenseCovariance:
    """The fit and select paths never hold an m x m float array (8 m^2 bytes)."""

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_gaussian_select_and_window_statistics_at_m2000(self):
        m, n = 2000, 20000
        spec = make_basis(0.0, 1.0, m, 3)
        rng = np.random.default_rng(41)
        strata = []
        for shift in (0.0, 0.1):
            z = rng.uniform(0, 1, n)
            strata.append(StratumData(y=np.sin(6 * z) + shift * z + rng.normal(0, 0.3, n), z=z))

        def run():
            pen = difference_penalty(m, 2)
            fits = select_lambda(strata, spec, pen)
            window_statistics(fits[0].coef - fits[1].coef, sum(covariance_bands(fits, spec.degree)), spec)

        assert self.traced_peak(run) < 8 * m * m

    def test_binomial_fit_at_m500(self):
        m, n = 500, 2000
        spec = make_basis(0.0, 1.0, m, 3)
        pen = difference_penalty(m, 2)
        rng = np.random.default_rng(42)
        z = rng.uniform(0, 1, n)
        data = StratumData(y=(rng.random(n) < expit(np.sin(5 * z))).astype(float), z=z, family="binomial")
        assert self.traced_peak(lambda: select_lambda([data], spec, pen, 1.0)[0]) < 8 * m * m

    def test_binomial_select_at_m2000(self):
        # the grid advances 3 lambdas at a time here; all 40 at once would hold twice the bound
        m, n = 2000, 20000
        spec = make_basis(0.0, 1.0, m, 3)
        rng = np.random.default_rng(42)
        z = rng.uniform(0, 1, n)
        data = StratumData(y=(rng.random(n) < expit(np.sin(5 * z))).astype(float), z=z, family="binomial")

        def run():
            select_lambda([data], spec, difference_penalty(m, 2))

        assert self.traced_peak(run) < 8 * m * m

    def test_binomial_fixed_effect_select_and_window_statistics_at_m2000(self):
        m, n = 2000, 20000
        spec = make_basis(0.0, 1.0, m, 3)
        rng = np.random.default_rng(43)
        strata = []
        for shift in (0.0, 0.3):
            z, x = rng.uniform(0, 1, n), rng.normal(size=(n, 1))
            y = (rng.random(n) < expit(np.sin(5 * z) + shift * z + 0.4 * x[:, 0])).astype(float)
            strata.append(StratumData(y=y, z=z, family="binomial", X=x))

        def run():
            pen = difference_penalty(m, 2)
            fits = select_lambda(strata, spec, pen)
            window_statistics(fits[0].coef - fits[1].coef, sum(covariance_bands(fits, spec.degree)), spec)

        assert self.traced_peak(run) < 8 * m * m

    @pytest.mark.parametrize("p", [0, 1])
    def test_load_model_and_correlation_table_at_m2000(self, tmp_path, p):
        # diagnose --model reads the bands of fits.json and widens them; the
        # two dense covariances alone would hold the bound
        m, n = 2000, 10000
        rng = np.random.default_rng(45 + p)
        path = tmp_path / "data.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("y,z,stratum" + ",x_a" * p + "\n")
            for label, shift in (("1", 0.0), ("2", 0.3)):
                z, x = rng.uniform(0, 1, n), rng.normal(size=n)
                y = np.sin(6 * z) + shift * z + 0.5 * p * x + rng.normal(0, 0.3, n)
                for yi, zi, xi in zip(y, z, x):
                    fh.write(f"{float(yi)!r},{float(zi)!r},{label}" + f",{float(xi)!r}" * p + "\n")
        out = tmp_path / "out"
        argv = ["analyze", "--data", str(path), "--basis-dim", str(m), "--domain", "0", "1", "--lambda", "1"]
        assert main([*argv, "--out", str(out)]) == 0

        def run():
            assert main(["diagnose", "--model", str(out / "fits.json"), "--out", str(tmp_path / "diag")]) == 0

        assert self.traced_peak(run) < 8 * m * m

    def test_not_positive_definite_fit_at_m2000(self):
        # no data beyond z = 0.3: at lambda = 0 the first factorization fails,
        # and its message comes from LAPACK's failing minor, not a dense matrix
        m, n = 2000, 20000
        spec = make_basis(0.0, 1.0, m, 3)
        rng = np.random.default_rng(44)
        data = StratumData(y=(rng.random(n) < 0.5).astype(float), z=rng.uniform(0, 0.3, n), family="binomial")

        def run():
            with pytest.raises(NumericalError, match=r"not positive definite \(leading minor \d+\)"):
                select_lambda([data], spec, difference_penalty(m, 2), 0.0)[0]

        assert self.traced_peak(run) < 8 * m * m


def preset_strata(name, n_replicates):
    """Both strata of the first replicates of a simulate preset, with its basis and penalty."""
    scenario = PRESETS[name]
    spec = scenario.basis()
    pen = difference_penalty(scenario.m, scenario.penalty_order)
    strata = []
    for index in range(n_replicates):
        rng = replicate_rng(scenario.seed, index)
        b_base, b_alt, _ = gen_coefficients(scenario, rng, scenario.m_delta_at(index))
        strata += [gen_stratum(b, scenario, rng, spec) for b in (b_base, b_alt)]
    return strata, spec, pen


def assert_close(got, want, rtol=1e-12, atol=0.0):
    """Equal to rtol relative to the largest entry of `want`, plus atol."""
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rtol * np.max(np.abs(want)) + atol)


def assert_matches_per_lambda_oracle(data, spec, pen, grid):
    """Per lambda: the same failure set and iteration count as the per-lambda
    band path, and coef, edf, deviance and cov_band equal to 1e-12 relative.

    Near an exact Gaussian fit the deviance is a rounding-level residual, so
    as in `assert_paths_match` it also gets 1e-12 y'y absolute, and
    cov_band the dispersion's share of that.
    """
    slack = 1e-12 * float(data.y @ data.y) if data.family == "gaussian" else 0.0
    dm = design_matrix(spec, data.z)
    penalty_band = fitting._penalty_band(spec, pen)
    solved = fitting._grid_systems(dm, data, penalty_band, grid)
    assert [s.lam for s in solved if isinstance(s, fitting._BandSystem)] == [
        float(lam) for lam, s in zip(grid, solved) if isinstance(s, fitting._BandSystem)
    ]
    for lam, got in zip(grid, solved):
        try:
            coef, deviance, gram, ab, factor, n_iter = per_lambda_band_solve(dm, data, penalty_band, float(lam))
        except NumericalError as exc:
            assert isinstance(got, NumericalError)
            assert failure_cause(str(got)) == failure_cause(str(exc))
            continue
        assert isinstance(got, fitting._BandSystem)
        assert got.n_iter == n_iter
        no_border = np.zeros((spec.m, 0))
        ref = fitting._BandSystem(float(lam), coef, np.zeros(0), deviance, gram, factor, no_border, n_iter)
        assert np.array_equal(fitting._precision_band(ref, penalty_band), ab)
        (sigma, ref_sigma), (edf, ref_edf) = fitting._selected_inverses([got, ref], penalty_band)
        if data.n - ref_edf < 1:  # less than one residual df: the fit fails at this lambda
            assert edf == pytest.approx(ref_edf, rel=1e-12, abs=0.0)
            assert data.n - edf < 1
            continue
        fit = fitting._band_fit(data, fitting._exact(dm, data, got), sigma, float(edf), penalty_band)
        ref_fit = fitting._band_fit(data, ref, ref_sigma, float(ref_edf), penalty_band)
        assert_close(fit.coef, ref_fit.coef)
        assert_close(fit.cov_band, ref_fit.cov_band, atol=np.max(np.abs(ref_sigma)) * slack / (data.n - ref_edf))
        assert fit.edf == pytest.approx(ref_fit.edf, rel=1e-12, abs=0.0)
        assert fit.deviance == pytest.approx(ref_fit.deviance, rel=1e-12, abs=slack)


class TestLockstepGrid:
    """The lockstep driver against the per-lambda band path it replaced."""

    @pytest.mark.parametrize("fixture", BINOMIAL_FIXTURES)
    def test_binomial_fixtures_match_per_lambda_oracle(self, fixture):
        data, spec, pen = binomial_fixture(*fixture)
        grid = default_lambda_grid(design_matrix(spec, data.z), pen)
        assert_matches_per_lambda_oracle(data, spec, pen, grid)

    @pytest.mark.parametrize("fixture", GAUSSIAN_FIXTURES)
    def test_gaussian_fixtures_match_per_lambda_oracle(self, fixture):
        data, spec, pen = gaussian_fixture(*fixture)
        grid = default_lambda_grid(design_matrix(spec, data.z), pen)
        assert_matches_per_lambda_oracle(data, spec, pen, grid)

    @pytest.mark.parametrize("name, n_replicates", [("tableS1", 3), ("fig8", 2), ("table2a", 2)])
    def test_preset_strata_match_per_lambda_oracle(self, name, n_replicates):
        strata, spec, pen = preset_strata(name, n_replicates)
        for data in strata:
            grid = default_lambda_grid(design_matrix(spec, data.z), pen)
            assert_matches_per_lambda_oracle(data, spec, pen, grid)

    def test_blocks_follow_the_sample_size(self, monkeypatch):
        # tableS1 strata (n = 4000) advance 16 lambdas at a time: 16 + 16 + 8
        strata, spec, pen = preset_strata("tableS1", 1)
        sizes = []
        real = fitting._binomial_block

        def recording(dm, data, penalty_band, lams):
            sizes.append(lams.size)
            return real(dm, data, penalty_band, lams)

        monkeypatch.setattr(fitting, "_binomial_block", recording)
        select_lambda(strata[:1], spec, pen)
        assert sizes == [16, 16, 8]


def separating_stratum():
    """y = 1 wherever z < 0.2: the fit diverges at light smoothing only."""
    rng = np.random.default_rng(3)
    z = rng.uniform(0, 1, 300)
    y = np.where(z < 0.2, 1.0, (rng.random(300) < 0.5).astype(float))
    return StratumData(y=y, z=z, family="binomial")


def short_support_stratum():
    """No data beyond z = 0.3, so at lambda = 0 the system is singular."""
    rng = np.random.default_rng(19)
    return StratumData(y=(rng.random(200) < 0.5).astype(float), z=rng.uniform(0, 0.3, 200), family="binomial")


def assert_systems_bitwise_equal(got, want):
    """Two lists of `_BandSystem`s or NumericalErrors with every field and message equal bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        if isinstance(b, NumericalError):
            assert str(a) == str(b)
            continue
        for name in ("lam", "deviance", "n_iter", "margin"):
            assert getattr(a, name) == getattr(b, name), name
        for name in ("coef", "beta", "gram", "factor", "border"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestFailureParity:
    """A failing lambda leaves every other lambda of its block as it is alone, bit for bit."""

    @staticmethod
    def together_and_alone(data, spec, pen, grid):
        dm = design_matrix(spec, data.z)
        penalty_band = fitting._penalty_band(spec, pen)
        together = fitting._grid_systems(dm, data, penalty_band, grid)
        alone = [fitting._grid_systems(dm, data, penalty_band, grid[i : i + 1])[0] for i in range(grid.size)]
        assert_systems_bitwise_equal(together, alone)
        return [failure_cause(str(s)) if isinstance(s, NumericalError) else None for s in together]

    def test_non_finite_system_fails_its_lambda_only(self):
        data, spec, pen = binomial_fixture(*BINOMIAL_FIXTURES[0])
        causes = self.together_and_alone(data, spec, pen, np.asarray([0.5, 1e308, 5.0]))
        assert causes == [None, "other", None]

    def test_not_positive_definite(self, setup):
        spec, pen = setup
        causes = self.together_and_alone(short_support_stratum(), spec, pen, np.asarray([0.0, 0.01, 0.5, 5.0]))
        assert causes == ["not_positive_definite", None, None, None]

    def test_fixed_effect_not_positive_definite(self, setup):
        spec, pen = setup
        stratum = short_support_stratum()
        x = np.random.default_rng(26).normal(size=(stratum.n, 1))
        data = StratumData(y=stratum.y, z=stratum.z, family="binomial", X=x)
        causes = self.together_and_alone(data, spec, pen, np.asarray([0.0, 0.01, 0.5, 5.0]))
        assert causes == ["not_positive_definite", None, None, None]

    def test_schur_complement_failure_is_per_system(self):
        errors = [None, None, NumericalError("already failed"), None]
        # the last system is positive definite, but its second pivot 1e-7 is
        # below SCHUR_PIVOT_REL_TOL times that column's norm 1
        schur = np.stack([2.0 * np.eye(2), -np.eye(2), -np.eye(2), np.diag([1.0, 1e-14])])
        low = fitting._schur_factors(schur, np.ones(2), errors)
        assert errors[0] is None and str(errors[2]) == "already failed"
        assert [failure_cause(str(errors[j])) for j in (1, 3)] == ["not_positive_definite"] * 2
        np.testing.assert_array_equal(low, [np.sqrt(2.0) * np.eye(2), np.eye(2), np.eye(2), np.eye(2)])

    def test_separation(self, setup):
        spec, pen = setup
        causes = self.together_and_alone(separating_stratum(), spec, pen, np.geomspace(1e-7, 1e2, 10))
        assert causes == ["separation"] * 4 + [None] * 6

    def test_stratum_size_off_the_vector_width(self, setup):
        # n = 203 and 12 * 203 are not multiples of 8, so an element of the
        # logistic falls in a vector's tail alone but not in the block
        spec, pen = setup
        rng = np.random.default_rng(31)
        z = rng.uniform(0, 1, 203)
        data = StratumData(y=(rng.random(203) < expit(1.5 * np.sin(5 * z))).astype(float), z=z, family="binomial")
        causes = self.together_and_alone(data, spec, pen, np.geomspace(1e-4, 1e3, 12))
        assert causes == [None] * 12

    @pytest.mark.parametrize("max_iter", [1, 5])
    def test_irls_nonconvergence(self, setup, max_iter, monkeypatch):
        # the separating stratum needs 4 to 10 iterations across this grid
        monkeypatch.setattr(fitting, "MAX_IRLS_ITER", max_iter)
        spec, pen = setup
        grid = np.geomspace(1e-3, 1e3, 13)
        causes = self.together_and_alone(separating_stratum(), spec, pen, grid)
        assert "irls_nonconvergence" in causes
        assert (None in causes) == (max_iter > 1)

    @pytest.mark.parametrize(
        "stratum, lam, max_iter",
        [(short_support_stratum, 0.0, 100), (separating_stratum, 1e-7, 100), (separating_stratum, 0.5, 1)],
    )
    def test_given_lambda_raises_the_per_lambda_message(self, setup, stratum, lam, max_iter, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_IRLS_ITER", max_iter)
        spec, pen = setup
        data = stratum()
        dm = design_matrix(spec, data.z)
        with pytest.raises(NumericalError) as ref:
            per_lambda_band_solve(dm, data, fitting._penalty_band(spec, pen), lam)
        with pytest.raises(NumericalError) as got:
            select_lambda([data], spec, pen, lam)[0]
        message, ref_message = str(got.value), str(ref.value)
        assert failure_cause(message) == failure_cause(ref_message)
        # the deviance trace of a non-converged fit agrees to rounding
        head, _, trace = message.partition("[")
        ref_head, _, ref_trace = ref_message.partition("[")
        assert head == ref_head
        if trace:
            np.testing.assert_allclose(json.loads("[" + trace), json.loads("[" + ref_trace), rtol=1e-12)
        else:
            assert message == ref_message


class TestKernelOracle:
    """The IRLS block and band solve against the forms they replaced (`binomial_block_by_where`,
    `band_solve_by_pbtrf`): every system's fields and every message equal bit for bit."""

    @staticmethod
    def assert_matches_oracle(data, spec, pen, grid, monkeypatch):
        dm = design_matrix(spec, data.z)
        penalty_band = fitting._penalty_band(spec, pen)
        got = fitting._grid_systems(dm, data, penalty_band, grid)
        with monkeypatch.context() as patched:
            patched.setattr(fitting, "_band_solve", band_solve_by_pbtrf)
            patched.setattr(fitting, "_binomial_block", binomial_block_by_where)
            want = fitting._grid_systems(dm, data, penalty_band, grid)
        assert_systems_bitwise_equal(got, want)
        return got

    @pytest.mark.parametrize("name, n_replicates", [("tableS1", 3), ("fig8", 2), ("table2a", 2)])
    def test_preset_strata(self, name, n_replicates, monkeypatch):
        strata, spec, pen = preset_strata(name, n_replicates)
        for data in strata:
            grid = default_lambda_grid(design_matrix(spec, data.z), pen)
            self.assert_matches_oracle(data, spec, pen, grid, monkeypatch)

    @pytest.mark.parametrize("max_iter", [1, 5, None])
    def test_failing_strata(self, setup, max_iter, monkeypatch):
        if max_iter is not None:
            monkeypatch.setattr(fitting, "MAX_IRLS_ITER", max_iter)
        spec, pen = setup
        grid = np.geomspace(1e-7, 1e3, 16)
        separating = self.assert_matches_oracle(separating_stratum(), spec, pen, grid, monkeypatch)
        grid = np.asarray([0.0, 0.01, 0.5, 5.0])
        short = self.assert_matches_oracle(short_support_stratum(), spec, pen, grid, monkeypatch)
        causes = {failure_cause(str(s)) for s in separating + short if isinstance(s, NumericalError)}
        # the separating stratum diverges only after more than 5 iterations
        assert causes == {"not_positive_definite", "separation" if max_iter is None else "irls_nonconvergence"}

    def test_two_fixed_effects(self, monkeypatch):
        data, spec, pen = fixed_effect_fixture(25, 3, 62, "binomial", p=2)
        grid = default_lambda_grid(design_matrix(spec, data.z), pen)
        systems = self.assert_matches_oracle(data, spec, pen, grid, monkeypatch)
        assert all(isinstance(s, fitting._BandSystem) for s in systems)

    def test_band_solve_fails_each_non_finite_system_alone(self):
        m = 12
        spec, pen = make_basis(0.0, 1.0, m, 2), difference_penalty(m, 2)
        penalty_band = fitting._penalty_band(spec, pen)
        rng = np.random.default_rng(28)
        gram = design_matrix(spec, rng.uniform(0, 1, 200)).gram_band(rng.uniform(0.1, 1.0, 200))
        rhs = rng.normal(size=(4, m, 2))
        rhs[2, 5, 1] = np.nan
        lams = np.asarray([0.5, 1e308, 2.0, 3.0])
        ab, factors, sols, errors = fitting._band_solve(penalty_band, lams, gram, rhs)
        assert [str(e) if e else None for e in errors] == [
            None,
            "penalized system at lambda 1e+308 has non-finite entries",
            "penalized system at lambda 2.0 has non-finite entries",
            None,
        ]
        keep = [0, 3]
        ref_ab, ref_factors, ref_sols, ref_errors = band_solve_by_pbtrf(penalty_band, lams[keep], gram, rhs[keep])
        assert ref_errors == [None, None]
        for got, want in zip((ab, factors, sols), (ref_ab, ref_factors, ref_sols)):
            assert np.array_equal(got[keep], want)
        assert not sols[[1, 2]].any()
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
            band_solve_by_pbtrf(penalty_band, lams, gram, rhs)

    def test_non_finite_lambda_fails_fit_and_is_skipped_by_select(self, monkeypatch):
        data, spec, pen = gaussian_fixture(*GAUSSIAN_FIXTURES[1])
        with pytest.raises(NumericalError, match=r"penalized system at lambda 1e\+308 has non-finite entries"):
            select_lambda([data], spec, pen, 1e308)[0]
        use_lambda_grid(monkeypatch, [0.5, 1e308])
        assert select_lambda([data], spec, pen)[0].lam == 0.5


class TestGaussianBincountProducts:
    """A Gaussian stratum takes Z'Z and Z'[y | X] by `bincount`, building no IRLS operator, and every
    system equals the operator path's (`gaussian_systems_by_operators`) bit for bit."""

    @staticmethod
    def assert_matches_operators(data, spec, pen):
        dm = design_matrix(spec, data.z)
        penalty_band = fitting._penalty_band(spec, pen)
        grid = default_lambda_grid(dm, pen)
        got = fitting._grid_systems(dm, data, penalty_band, grid)
        assert dm._ops is None
        # the grid's scale from the operator's band gives the same grid
        scale = fitting._grid_scale(dm.gram_band(np.ones(data.n)), pen.band)
        assert np.array_equal(grid, np.geomspace(1e-4 * scale, 1e4 * scale, fitting.LAMBDA_GRID_POINTS))
        want = gaussian_systems_by_operators(dm, data, penalty_band, grid)
        assert_systems_bitwise_equal(got, want)
        assert all(isinstance(s, fitting._BandSystem) for s in got)

    @pytest.mark.parametrize("name", ["table1a", "table1b", "fig5"])
    def test_preset_strata(self, name):
        strata, spec, pen = preset_strata(name, 2)
        for data in strata:
            self.assert_matches_operators(data, spec, pen)

    @pytest.mark.parametrize("p", [1, 2])
    def test_fixed_effect_stratum(self, p):
        self.assert_matches_operators(*fixed_effect_fixture(25, 3, 62, "gaussian", p=p))

    @pytest.mark.parametrize("with_x", [False, True])
    @pytest.mark.parametrize("lam", [None, 0.3])
    def test_select_lambda_builds_no_operator(self, with_x, lam, monkeypatch):
        def fail(*args):
            raise AssertionError("IRLS operator built by a Gaussian fit")

        monkeypatch.setattr(basis, "_sparse_operators", fail)
        rng = np.random.default_rng(31)
        strata = [random_gaussian_data(rng, n=300, with_x=with_x) for _ in range(2)]
        spec, pen = make_basis(0.0, 1.0, 12, 3), difference_penalty(12, 2)
        fits = select_lambda(strata, spec, pen, lam)
        assert [f.beta.size for f in fits] == [2 * with_x] * 2
        assert all(np.isfinite(f.cov_band).all() for f in fits)

    def test_binomial_builds_operators_once_per_stratum(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        real = basis._sparse_operators
        monkeypatch.setattr(basis, "_sparse_operators", counting)
        strata, spec, pen = preset_strata("tableS1", 1)
        select_lambda(strata, spec, pen)
        assert calls == [spec.m, spec.m]


class TestLogistic:
    """`fitting._logistic` is within 4 ulp of scipy's expit; swapping it in moves no selection."""

    def test_within_four_ulp_of_expit(self):
        eta = np.linspace(-40.0, 40.0, 400_001)
        got = fitting._logistic(eta, np.empty_like(eta))
        want = expit(eta)
        assert np.max(np.abs(got - want) / np.spacing(want)) <= 4.0

    def test_saturates_as_expit_without_warning(self):
        eta = np.asarray([-800.0, -745.0, 745.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fitting._logistic(eta, np.empty_like(eta))
        assert np.array_equal(got, expit(eta))
        assert np.array_equal(got, [0.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("name", ["tableS1", "fig8"])
    def test_preset_selection_matches_expit(self, name, monkeypatch):
        # the same lambda, iteration count and TDP window sets; coefficients to rounding
        scenario = PRESETS[name]
        strata, spec, pen = preset_strata(name, 2)

        def selected(data):
            [fit] = select_lambda([data], spec, pen)
            dm = design_matrix(spec, data.z)
            [system] = fitting._grid_systems(dm, data, fitting._penalty_band(spec, pen), np.asarray([fit.lam]))
            return fit, system.n_iter

        got = [selected(data) for data in strata]
        with monkeypatch.context() as patched:
            patched.setattr(fitting, "_logistic", lambda eta, out: expit(eta, out=out))
            want = [selected(data) for data in strata]
        for (fit, n_iter), (ref, ref_n_iter) in zip(got, want):
            assert fit.lam == ref.lam and n_iter == ref_n_iter
            assert_close(fit.coef, ref.coef)
        for k in range(0, len(strata), 2):  # the two strata of one replicate
            series = [
                window_statistics(f1.coef - f2.coef, sum(covariance_bands([f1, f2], spec.degree)), spec)
                for (f1, _), (f2, _) in (fits[k : k + 2] for fits in (got, want))
            ]
            for alpha in scenario.alphas:
                windows = [[r.windows for r in threshold_regions(s.p, alpha, scenario.thresholds).records] for s in series]
                assert windows[0] == windows[1]


class TestZeroResidualVariance:
    def test_rounding_level_deviance_gives_zero_dispersion(self, setup):
        spec, pen = setup
        z = np.random.default_rng(29).uniform(0, 1, 200)
        data = StratumData(y=np.ones(200), z=z)
        fit = select_lambda([data], spec, pen, 1.0)[0]
        assert 0.0 < fit.deviance <= 1e-16 * 200
        assert fit.dispersion == 0.0 and not fit.cov_band.any()
        # the window Cholesky rejects the zero covariance of two such fits
        with pytest.raises(NumericalError, match="covariance is not positive definite"):
            window_statistics(np.zeros(spec.m), 2.0 * covariance_bands([fit], spec.degree)[0], spec)


def overflowing_strata():
    """Two strata of y ~ 1e10 N(0, 1) with no row in the first knot cell of an m = 12 cubic basis
    on [0, 1]: at lambda 1e-289 the dispersion, about 1.07e20, times the covariance band overflows."""
    rng = np.random.default_rng(0)
    strata = []
    for _ in range(2):
        z = rng.uniform(0.2, 1.0, 200)
        strata.append(StratumData(y=1e10 * rng.normal(size=200), z=z))
    return strata


class TestNonFiniteFit:
    """A fit whose coefficients, deviance, dispersion or covariance band is not finite raises,
    naming lambda and the quantity."""

    def test_overflowing_covariance_band_raises(self):
        spec, pen = make_basis(0.0, 1.0, 12, 3), difference_penalty(12, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"^fit at lambda 1e-289 has a non-finite covariance band$"):
                select_lambda(overflowing_strata(), spec, pen, 1e-289)
            # at a larger lambda the same strata fit
            fits = select_lambda(overflowing_strata(), spec, pen, 1e-3)
        assert all(np.isfinite(f.cov_band).all() for f in fits)

    @pytest.mark.parametrize(
        "field, value, name",
        [
            ("coef", np.nan, "coefficients"),
            ("beta", np.inf, "coefficients"),
            ("deviance", np.inf, "deviance"),
            ("deviance", 1e308, "dispersion"),  # over n - edf = 0.5
            ("deviance", 1e300, "covariance band"),
        ],
    )
    def test_each_quantity_named(self, field, value, name):
        data, spec, pen = fixed_effect_fixture(8, 2, 61, "gaussian", p=1)
        penalty_band = fitting._penalty_band(spec, pen)
        dm = design_matrix(spec, data.z)
        system = fitting._exact(dm, data, fitting._grid_systems(dm, data, penalty_band, np.asarray([0.5]))[0])
        old = getattr(system, field)
        bad = replace(system, **{field: value if np.isscalar(old) else np.full_like(old, value)})
        sigma = np.full_like(penalty_band, 1e10)
        edf = data.n - 0.5
        fit = fitting._band_fit(data, system, sigma, edf, penalty_band)
        assert np.isfinite(fit.cov_band).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=rf"^fit at lambda 0.5 has a non-finite {name}$"):
                fitting._band_fit(data, bad, sigma, edf, penalty_band)


def joint_pair(case):
    """Two strata on one basis: Gaussian, binomial, with fixed effects, or with a different p each."""
    if case in ("gaussian", "binomial"):
        spec = make_basis(0.0, 1.0, 20, 3)
        pen = difference_penalty(20, 2)
        strata = []
        for seed in (71, 72):
            rng = np.random.default_rng(seed)
            z = rng.uniform(0, 1, 900)
            eta = 1.5 * np.sin(5 * z + seed)
            y = eta + rng.normal(0, 0.5, z.size) if case == "gaussian" else (rng.random(z.size) < expit(eta)) * 1.0
            strata.append(StratumData(y=y, z=z, family=case))
        return strata, spec, pen
    family, ps = {"fixed_effect": ("binomial", (2, 2)), "different_p": ("gaussian", (1, 2))}[case]
    pairs = [fixed_effect_fixture(25, 3, seed, family, p) for seed, p in zip((62, 64), ps)]
    return [data for data, _, _ in pairs], pairs[0][1], pairs[0][2]


class TestJointSelection:
    """One selected inversion for every stratum's grid gives each stratum the fit it gets alone."""

    @pytest.mark.parametrize("case", ["gaussian", "binomial", "fixed_effect", "different_p"])
    def test_equals_one_stratum_selection_bitwise(self, case):
        strata, spec, pen = joint_pair(case)
        alone = [select_lambda([data], spec, pen)[0] for data in strata]
        for order in ((0, 1), (1, 0)):
            joint = select_lambda([strata[i] for i in order], spec, pen)
            for fit, i in zip(joint, order):
                assert_fits_bitwise_equal(fit, alone[i])

    def test_failing_points_before_the_choice_keep_each_point_its_inverse(self, monkeypatch):
        # A 1e308 point overflows A's band and fails, so it takes no inverse from the stack:
        # failing points lie before each chosen point in its own grid, and before stratum 2's in stratum 1's.
        strata, spec, pen = joint_pair("gaussian")
        grid = np.insert(default_lambda_grid(design_matrix(spec, strata[0].z), pen)[::4], [0, 1, 2, 3], 1e308)
        use_lambda_grid(monkeypatch, grid)
        penalty_band = fitting._penalty_band(spec, pen)
        for data in strata:
            _, solved = fitting._solve_grid(data, spec, pen, penalty_band, grid)
            assert [isinstance(s, NumericalError) for s in solved] == list(grid == 1e308)
        fits = select_lambda(strata, spec, pen)
        for fit, data in zip(fits, strata):
            assert np.flatnonzero(grid == fit.lam)[0] > np.flatnonzero(grid == 1e308)[-1]
            assert_fits_bitwise_equal(fit, select_lambda([data], spec, pen, fit.lam)[0])

    def test_one_selected_inverse_for_both_grids(self, monkeypatch):
        strata, spec, pen = joint_pair("different_p")
        calls = []
        real = fitting.selected_inverse_band
        monkeypatch.setattr(fitting, "selected_inverse_band", lambda f: calls.append(f.shape[0]) or real(f))
        select_lambda(strata, spec, pen)
        assert calls == [80]

    def test_fixed_lambda_equals_the_joint_choice(self):
        strata, spec, pen = joint_pair("fixed_effect")
        for fit, data in zip(select_lambda(strata, spec, pen), strata):
            assert_fits_bitwise_equal(fit, select_lambda([data], spec, pen, fit.lam)[0])

    def test_input_error_names_its_stratum(self, setup):
        spec, pen = setup
        rng = np.random.default_rng(3)
        good = random_gaussian_data(rng)
        y = rng.normal(size=60)
        y[7] = 1e300
        bad = StratumData(y=y, z=rng.uniform(0, 1, 60))
        with pytest.raises(ParameterError, match=r"^stratum 2: the sum of squared outcomes y'y overflows"):
            select_lambda([good, bad], spec, pen)
        with pytest.raises(ParameterError, match=r"^the sum of squared outcomes y'y overflows"):
            select_lambda([bad], spec, pen)


class FakeSystem(fitting._BandSystem):
    """A solved grid point that carries only what GCV reads."""

    def __init__(self, deviance):
        super().__init__(0.0, None, np.zeros(0), deviance, None, None, None, 1)


# 1e-20 and 1e-3 read as exact fits only from y'y 1e-4 and 1e13 up: the flush rule at each y'y scale.
DEVIANCES = [0.0, 1e-30, 1e-20, 1e-3, 0.5, 1.0, 1.0, 2.0, np.inf, np.nan]
EDFS = [0.5, 2.0, 2.0, 3.0, 7.5, 9.0, 9.5, 10.0, 12.0]


def gaussian_with_sum_of_squares(n, yss, seed=0):
    """A Gaussian stratum of n rows whose y, drawn N(0, 1), is scaled to y'y about `yss`."""
    y = np.random.default_rng(seed).normal(size=n)
    return StratumData(y=y * np.sqrt(yss / (y @ y)), z=np.linspace(0, 1, n))


class TestVectorGcv:
    """`_gcv_choice` against the per-lambda loop it replaced (`gcv_choice_by_loop`)."""

    @staticmethod
    def assert_same_choice(data, points):
        solved = [p if isinstance(p, NumericalError) else FakeSystem(p[0]) for p in points]
        edf = [np.nan if isinstance(p, NumericalError) else p[1] for p in points]
        index, failure = gcv_choice_by_loop(data, solved, edf)
        grid = [s if isinstance(s, NumericalError) else fitting._point(data, s, None, e) for s, e in zip(solved, edf)]
        if index is not None:
            assert fitting._gcv_choice(data, None, grid) == index
            return
        with pytest.raises(NumericalError, match="^no smoothing parameter candidate could be fit$") as exc:
            fitting._gcv_choice(data, None, grid)
        cause = exc.value.__cause__
        assert (cause is None) == (failure is None)
        if failure is not None:
            assert type(cause) is type(failure) and str(cause) == str(failure)
            if any(p is failure for p in points):
                assert cause is failure

    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from(["gaussian", "binomial"]),
        n=st.integers(2, 12),
        yss=st.sampled_from([1e-10, 1.0, 1e14]),
        points=st.lists(
            st.one_of(
                st.tuples(st.sampled_from(DEVIANCES), st.sampled_from(EDFS)),
                st.sampled_from(["diverged", "singular"]),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_matches_the_loop(self, family, n, yss, points):
        if family == "gaussian":
            data = gaussian_with_sum_of_squares(n, yss, seed=n)
        else:
            data = StratumData(y=np.arange(n) % 2 * 1.0, z=np.linspace(0, 1, n), family=family)
        points = [NumericalError(f"point {j} {p}") if isinstance(p, str) else p for j, p in enumerate(points)]
        self.assert_same_choice(data, points)

    @pytest.mark.parametrize("yss, index", [(1e-10, 0), (1.0, 1), (1e14, 2)])
    def test_exact_fit_scale_is_the_stratum_sum_of_squares(self, yss, index):
        # a deviance ties the exact fit before it only where it is at most 1e-16 y'y
        data = gaussian_with_sum_of_squares(12, yss)
        points = [(0.0, 3.0), (1e-20, 3.0), (1e-3, 3.0)]
        self.assert_same_choice(data, points)
        assert fitting._gcv_choice(data, None, [(FakeSystem(d), None, e) for d, e in points]) == index

    def test_ties_go_to_the_larger_lambda(self):
        data = StratumData(y=np.zeros(20), z=np.linspace(0, 1, 20))
        points = [(1.0, 3.0), (0.0, 5.0), (1e-30, 4.0), (0.0, 9.0), (2.0, 3.0)]
        self.assert_same_choice(data, points)
        assert fitting._gcv_choice(data, None, [(FakeSystem(d), None, e) for d, e in points]) == 3

    def test_less_than_one_residual_df_is_skipped(self):
        data = StratumData(y=np.zeros(10), z=np.linspace(0, 1, 10))
        self.assert_same_choice(data, [(1.0, 9.5), (2.0, 3.0), (0.5, 9.5)])

    def test_no_candidate_is_caused_by_the_last_failure(self):
        data = StratumData(y=np.zeros(10), z=np.linspace(0, 1, 10))
        diverged = NumericalError("linear predictor diverged (complete or quasi-complete separation)")
        for points in ([diverged, (1.0, 9.5)], [(1.0, 9.5), diverged], [diverged], [(np.nan, 2.0)]):
            self.assert_same_choice(data, points)


def scaled_strata(rng, kind, n, m, p, scale):
    """One Gaussian stratum on [0, 1] with p fixed effects, y scaled by `scale`.

    "signal" is a smooth curve plus unit noise. "exact" is a constant plus
    X beta, which the fit reproduces at every lambda, so every deviance is
    at the rounding level. "near" adds noise of 1e-8 to 1e-5 of the
    signal's size, so the residual sum is 1e-16 to 1e-10 of y'y.
    """
    z = rng.uniform(0, 1, n)
    X = rng.normal(size=(n, p))
    base = 1.5 + X @ np.linspace(0.5, -0.7, p)
    if kind == "exact":
        y = base
    elif kind == "near":
        y = base + np.sin(6 * z) + 10.0 ** rng.uniform(-8, -5) * rng.normal(size=n)
    else:
        y = base + np.sin(6 * z) + rng.normal(size=n)
    return StratumData(y=y * scale, z=z, X=X if p else None)


def outcome_of(fn):
    """(value, None) of a call, or (None, (type, message, cause message)) of the error it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # n <= m
            return fn(), None
    except (NumericalError, ParameterError) as exc:
        return None, (type(exc), str(exc), str(exc.__cause__))


class TestDevianceScreen:
    """A Gaussian grid scores each point by a deviance interval and forms the residual sum only for
    GCV's contenders; the fits equal those chosen over every point's residual sum, bit for bit."""

    @staticmethod
    def assert_matches_oracle(strata, spec, pen, lam=None):
        got, error = outcome_of(lambda: select_lambda(strata, spec, pen, lam))
        want, want_error = outcome_of(lambda: select_lambda_by_residuals(strata, spec, pen, lam))
        assert error == want_error
        if want is None:
            return
        fits, indices = want
        assert [f.grid_index for f in got] == indices
        for a, b in zip(got, fits):
            assert_fits_bitwise_equal(a, b)
            assert a.grid_index == b.grid_index

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["signal", "exact", "near"]),
        m=st.integers(6, 40),
        degree=st.integers(1, 3),
        n=st.integers(5, 400),
        p=st.integers(0, 2),
        scale=st.one_of(
            st.integers(-490, 490).map(lambda k: 2.0**k),
            st.floats(-150, 150).map(lambda e: 10.0**e),
        ),
        lam=st.one_of(st.none(), st.floats(-6, 4).map(lambda e: 10.0**e)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_every_point_oracle(self, kind, m, degree, n, p, scale, lam, seed):
        rng = np.random.default_rng(seed)
        spec, pen = make_basis(0.0, 1.0, m, degree), difference_penalty(m, 2)
        strata = [scaled_strata(rng, kind, n, m, p, scale), scaled_strata(rng, "signal", n + 7, m, 0, 1.0)]
        self.assert_matches_oracle(strata, spec, pen, lam)

    @pytest.mark.parametrize("kind", ["signal", "exact", "near"])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_margin_covers_the_residual_sum_at_every_point(self, kind, p):
        rng = np.random.default_rng(7 + p)
        spec, pen = make_basis(0.0, 1.0, 30, 3), difference_penalty(30, 2)
        for scale in (2.0**-480, 1e-150, 3.7, 1e150, 2.0**480):
            data = scaled_strata(rng, kind, 300, 30, p, scale)
            dm = design_matrix(spec, data.z)
            solved = fitting._grid_systems(dm, data, fitting._penalty_band(spec, pen), default_lambda_grid(dm, pen))
            for system in solved:
                exact = fitting._exact(dm, data, system).deviance
                assert system.margin > 0 and abs(system.deviance - exact) <= system.margin
                assert system.margin <= 1e-9 * float(data.y @ data.y) + 1e-300

    def test_exact_residual_is_the_grid_residual(self):
        strata, spec, pen = preset_strata("table1a", 1)
        data = strata[0]
        dm = design_matrix(spec, data.z)
        solved = fitting._grid_systems(dm, data, fitting._penalty_band(spec, pen), default_lambda_grid(dm, pen))
        assert [fitting._exact(dm, data, s).deviance for s in solved] == residual_deviances(dm, data, solved)
        coefs = np.stack([s.coef for s in solved])
        assert np.array_equal(fitting._row_predict(dm, coefs), dm.predict(coefs))

    def test_scores_four_ulps_above_the_least_upper_bound_are_contenders(self, monkeypatch):
        # n / (n - edf)^2 = 1, so each score is its deviance; each bound is widened by two ulps, so the
        # least upper bound is two ulps above the least score 1.0, and a score reaches it from four above
        data = StratumData(y=np.ones(4), z=np.linspace(0, 1, 4))
        ulps = [1.0]
        for _ in range(5):
            ulps.append(float(np.nextafter(ulps[-1], 2.0)))
        deviances = [2.0, 1.0, ulps[4], ulps[5]]
        exact = []
        real = fitting._exact
        monkeypatch.setattr(fitting, "_exact", lambda dm, data, s: exact.append(s.deviance) or real(dm, data, s))
        assert fitting._gcv_choice(data, None, [(FakeSystem(d), None, 2.0) for d in deviances]) == 1
        assert exact == [1.0, ulps[4]]

    def test_synth_gait_strata_leave_at_most_two_contenders(self, monkeypatch, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "demo_analysis.py"
        spec_obj = importlib.util.spec_from_file_location("demo_analysis", script)
        demo = importlib.util.module_from_spec(spec_obj)
        spec_obj.loader.exec_module(demo)
        contenders = []
        real = fitting._exact

        def recording(dm, data, system):
            if system.margin:
                contenders.append(system.lam)
            return real(dm, data, system)

        monkeypatch.setattr(fitting, "_exact", recording)
        for n, m, seed in ((4000, 120, 1), (10000, 500, 2)):
            path = tmp_path / f"gait_{m}.csv"
            demo.synth_gait(str(path), n=n, seed=seed)
            strata = load_strata(AnalysisConfig(data=str(path), basis_dim=m, domain=(0.0, 100.0)))
            spec, pen = make_basis(0.0, 100.0, m, 3), difference_penalty(m, 2)
            for data in strata:
                contenders.clear()
                [fit] = select_lambda([data], spec, pen)
                assert fit.lam in contenders and 1 <= len(contenders) <= 2
