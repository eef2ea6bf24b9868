import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import QuadFormProblem, frobenius_form, kronecker_double_sum, trace_form, tridiag_toeplitz_inverse
from smoothdiff.errors import DomainError, ParameterError
from smoothdiff.toeplitz import (
    PentaParams,
    TridiagFactor,
    build_pentadiagonal,
    cov_quadratic_forms,
    decay_rate,
    factor_pentadiagonal,
)


def random_valid_params(rng, n=40):
    """Parameters satisfying the factorization condition with real decay rates."""
    lam = rng.uniform(0.2, 2.0)
    # pick pi_1 > pi_2 > 2*lam, then back out eps and theta
    pi_2 = rng.uniform(2.001 * lam, 6 * lam)
    pi_1 = rng.uniform(pi_2, 8 * lam)
    theta = pi_1 + pi_2
    eps = pi_1 * pi_2 / lam + 2 * lam
    return PentaParams(eps=eps, theta=theta, lam_p=lam, n=n)


class TestFactorization:
    def test_hand_checked_example(self):
        params = PentaParams(eps=5.0, theta=4.0, lam_p=1.0, n=5)
        z1, z2 = factor_pentadiagonal(params)
        assert z1.diag == pytest.approx(3.0)
        assert z2.diag == pytest.approx(1.0)
        product = z1.dense() @ z2.dense()
        target = build_pentadiagonal(params)
        assert target[0, 0] == 4.0  # eps - lam corner
        assert np.max(np.abs(product - target)) < 1e-12

    def test_reconstruction_residual_over_random_parameters(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            params = random_valid_params(rng)
            z1, z2 = factor_pentadiagonal(params)
            resid = np.max(np.abs(z1.dense() @ z2.dense() - build_pentadiagonal(params)))
            scale = max(abs(params.eps), 1.0)
            assert resid < 1e-12 * scale

    def test_zero_discriminant_rejected(self):
        # theta^2 - 4*lam*(eps-2*lam) = 16 - 16 = 0: boundary excluded
        with pytest.raises(DomainError):
            factor_pentadiagonal(PentaParams(eps=6.0, theta=4.0, lam_p=1.0, n=5))

    def test_negative_discriminant_rejected(self):
        with pytest.raises(DomainError):
            factor_pentadiagonal(PentaParams(eps=50.0, theta=1.0, lam_p=1.0, n=5))

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(DomainError):
            factor_pentadiagonal(PentaParams(eps=5.0, theta=4.0, lam_p=0.0, n=5))

    def test_mismatched_corners_rejected(self):
        params = PentaParams(eps=5.0, theta=4.0, lam_p=1.0, n=5, zeta1=0.5, zeta2=1.0)
        with pytest.raises(ParameterError):
            factor_pentadiagonal(params)


class TestTridiagInverse:
    def test_scalar_case(self):
        factor = TridiagFactor(off=1.0, diag=3.0, n=1)
        assert tridiag_toeplitz_inverse(factor, 1)[0, 0] == pytest.approx(1 / 3)

    def test_matches_numeric_inversion(self):
        factor = TridiagFactor(off=1.0, diag=3.0, n=10)
        closed = tridiag_toeplitz_inverse(factor)
        numeric = np.linalg.inv(factor.dense())
        err = np.max(np.abs(closed - numeric)) / np.max(np.abs(numeric))
        assert err < 1e-8

    def test_scaled_factor_matches_numeric(self):
        factor = TridiagFactor(off=0.7, diag=2.9, n=25)
        closed = tridiag_toeplitz_inverse(factor)
        numeric = np.linalg.inv(factor.dense())
        assert np.max(np.abs(closed - numeric)) < 1e-8 * np.max(np.abs(numeric))

    def test_sign_alternation(self):
        closed = tridiag_toeplitz_inverse(TridiagFactor(off=1.0, diag=2.5, n=12))
        k, l = np.meshgrid(np.arange(12), np.arange(12), indexing="ij")
        assert np.all(np.sign(closed) == np.where((l - k) % 2 == 0, 1.0, -1.0))

    def test_large_dimension_no_overflow(self):
        factor = TridiagFactor(off=1.0, diag=12.0, n=200)
        closed = tridiag_toeplitz_inverse(factor)
        numeric = np.linalg.inv(factor.dense())
        assert np.max(np.abs(closed - numeric)) < 1e-8 * np.max(np.abs(numeric))
        assert np.all(np.isfinite(closed))

    def test_undefined_rate_rejected(self):
        with pytest.raises(DomainError):
            tridiag_toeplitz_inverse(TridiagFactor(off=1.0, diag=1.5, n=5))


class TestDecayRate:
    def test_root_formula_example(self):
        params = PentaParams(eps=8.1, theta=5.0, lam_p=1.0, n=60)
        z1, z2 = factor_pentadiagonal(params)
        assert z1.diag == pytest.approx(2.5 + math.sqrt(0.6) / 2)
        assert z2.diag == pytest.approx(2.5 - math.sqrt(0.6) / 2)
        diag = decay_rate(params)
        assert diag.psi_min == pytest.approx(math.acosh((2.5 - math.sqrt(0.6) / 2) / 2))

    def test_empirical_slope_matches_minimum_rate(self):
        params = PentaParams(eps=8.1, theta=5.0, lam_p=1.0, n=60)
        diag = decay_rate(params)
        assert diag.empirical_rate == pytest.approx(diag.psi_min, rel=0.10)

    def test_scale_invariance_of_rate(self):
        base = PentaParams(eps=8.1, theta=5.0, lam_p=1.0, n=40)
        scaled = PentaParams(eps=3 * 8.1, theta=3 * 5.0, lam_p=3.0, n=40)
        assert decay_rate(base).psi_min == pytest.approx(decay_rate(scaled).psi_min)

    def test_rate_undefined_raises(self):
        # valid factorization but pi_2 < 2*lam: no real decay rate
        params = PentaParams(eps=4.0, theta=4.0, lam_p=1.0, n=20)
        with pytest.raises(DomainError):
            decay_rate(params)


def mc_cov(problem, n_draws, seed):
    rng = np.random.default_rng(seed)
    draws = rng.multivariate_normal(np.zeros(problem.d_x + problem.d_y), problem.sigma, n_draws)
    x, y = draws[:, : problem.d_x], draws[:, problem.d_x :]
    qx = np.einsum("ni,ij,nj->n", x, problem.A, x)
    qy = np.einsum("ni,ij,nj->n", y, problem.B, y)
    prods = (qx - qx.mean()) * (qy - qy.mean())
    return prods.mean(), prods.std(ddof=1) / math.sqrt(n_draws)


def quad_cov(problem):
    """The library's covariance of the problem's two quadratic forms."""
    return cov_quadratic_forms(problem.A, problem.B, problem.sigma_xy)


def random_psd_problem(rng, d_x=None, d_y=None):
    d_x = d_x or int(rng.integers(1, 6))
    d_y = d_y or int(rng.integers(1, 6))
    ra = rng.normal(size=(d_x, d_x))
    rb = rng.normal(size=(d_y, d_y))
    rs = rng.normal(size=(d_x + d_y, d_x + d_y + 2))
    return QuadFormProblem(A=ra @ ra.T, B=rb @ rb.T, sigma=rs @ rs.T)


class TestQuadFormCovariance:
    def test_independent_blocks_give_zero(self):
        sigma = np.block(
            [[np.eye(2), np.zeros((2, 3))], [np.zeros((3, 2)), 2 * np.eye(3)]]
        )
        problem = QuadFormProblem(A=np.eye(2), B=np.eye(3), sigma=sigma)
        assert quad_cov(problem) == 0.0

    def test_classical_fourth_moment_identity(self):
        s2 = 1.7
        problem = QuadFormProblem(
            A=np.asarray([[1.0]]), B=np.asarray([[1.0]]), sigma=np.full((2, 2), s2)
        )
        assert quad_cov(problem) == pytest.approx(2 * s2**2)

    def test_double_sum_equals_frobenius_form(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            problem = random_psd_problem(rng)
            trace = quad_cov(problem)
            assert trace == pytest.approx(kronecker_double_sum(problem), rel=1e-10, abs=1e-12)
            assert trace == pytest.approx(frobenius_form(problem), rel=1e-10, abs=1e-12)

    def test_trace_form_on_indefinite_weights(self):
        # the Frobenius form needs PSD A and B; the trace and double-sum
        # forms hold for any symmetric pair
        rng = np.random.default_rng(31)
        for _ in range(50):
            d_x, d_y = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            ra = rng.normal(size=(d_x, d_x))
            rb = rng.normal(size=(d_y, d_y))
            rs = rng.normal(size=(d_x + d_y, d_x + d_y + 2))
            problem = QuadFormProblem(A=ra + ra.T, B=rb + rb.T, sigma=rs @ rs.T)
            assert quad_cov(problem) == pytest.approx(
                kronecker_double_sum(problem), rel=1e-10, abs=1e-10
            )

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(19)
        for trial in range(5):
            problem = random_psd_problem(rng)
            exact = quad_cov(problem)
            est, se = mc_cov(problem, 400_000, seed=100 + trial)
            assert abs(est - exact) < 4 * se, f"trial {trial}"

    def test_swap_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            problem = random_psd_problem(rng)
            d_x = problem.d_x
            perm = np.r_[np.arange(d_x, d_x + problem.d_y), np.arange(d_x)]
            swapped = QuadFormProblem(
                A=problem.B, B=problem.A, sigma=problem.sigma[np.ix_(perm, perm)]
            )
            assert quad_cov(swapped) == pytest.approx(
                quad_cov(problem), rel=1e-10, abs=1e-12
            )

    def test_nonnegative_for_psd(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            assert quad_cov(random_psd_problem(rng)) >= 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            QuadFormProblem(A=np.eye(2), B=np.eye(2), sigma=np.eye(3))

    def test_asymmetric_rejected(self):
        a = np.asarray([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ParameterError):
            QuadFormProblem(A=a, B=np.eye(2), sigma=np.eye(4))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_frobenius_equivalence_property(self, seed):
        problem = random_psd_problem(np.random.default_rng(seed))
        assert quad_cov(problem) == pytest.approx(
            frobenius_form(problem), rel=1e-9, abs=1e-12
        )
        assert quad_cov(problem) == pytest.approx(
            kronecker_double_sum(problem), rel=1e-9, abs=1e-12
        )

    def test_stack_equals_each_problem_bitwise(self):
        rng = np.random.default_rng(37)
        for d_x, d_y in [(1, 1), (2, 3), (4, 4)]:
            problems = [random_psd_problem(rng, d_x, d_y) for _ in range(9)]
            a, b, sxy = (np.stack([getattr(p, f) for p in problems]) for f in ("A", "B", "sigma_xy"))
            want = [trace_form(p) for p in problems]
            assert np.array_equal(cov_quadratic_forms(a, b, sxy), want)
            # an unstacked A is broadcast against the stacks
            broadcast = cov_quadratic_forms(a[0], b, sxy)
            assert np.array_equal(broadcast, [trace_form(QuadFormProblem(a[0], p.B, p.sigma)) for p in problems])
