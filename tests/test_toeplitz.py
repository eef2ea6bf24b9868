import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from oracles import (
    QuadFormProblem,
    build_pentadiagonal,
    dense_inverse_rate,
    dense_product_residual,
    frobenius_form,
    kronecker_double_sum,
    trace_form,
    tridiag_dense,
    tridiag_toeplitz_inverse,
)
from smoothdiff.errors import DomainError, ParameterError
from smoothdiff.toeplitz import (
    MAX_DIM,
    PentaParams,
    TridiagFactor,
    cov_quadratic_forms,
    diagnose_pentadiagonal,
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


def factors(params):
    return diagnose_pentadiagonal(params)[:2]


def decay_of(params):
    return diagnose_pentadiagonal(params)[3]


class TestFactorization:
    def test_hand_checked_example(self):
        params = PentaParams(eps=5.0, theta=4.0, lam_p=1.0, n=5)
        z1, z2 = factors(params)
        assert z1.diag == pytest.approx(3.0)
        assert z2.diag == pytest.approx(1.0)
        product = tridiag_dense(z1) @ tridiag_dense(z2)
        target = build_pentadiagonal(params)
        assert target[0, 0] == 4.0  # eps - lam corner
        assert np.max(np.abs(product - target)) < 1e-12

    def test_reconstruction_residual_over_random_parameters(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            params = random_valid_params(rng)
            z1, z2 = factors(params)
            resid = dense_product_residual(z1, z2, params)
            scale = max(abs(params.eps), 1.0)
            assert resid < 1e-12 * scale

    def test_zero_discriminant_rejected(self):
        # theta^2 - 4*lam*(eps-2*lam) = 16 - 16 = 0: boundary excluded
        with pytest.raises(DomainError):
            diagnose_pentadiagonal(PentaParams(eps=6.0, theta=4.0, lam_p=1.0, n=5))

    def test_negative_discriminant_rejected(self):
        with pytest.raises(DomainError):
            diagnose_pentadiagonal(PentaParams(eps=50.0, theta=1.0, lam_p=1.0, n=5))

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(DomainError):
            diagnose_pentadiagonal(PentaParams(eps=5.0, theta=4.0, lam_p=0.0, n=5))

    @pytest.mark.parametrize("field", ["eps", "theta", "lam_p"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, field, value):
        values = {"eps": 5.0, "theta": 4.0, "lam_p": 1.0, field: value}
        with pytest.raises(ParameterError, match=f"^{field} must be finite, got {value!r}$"):
            PentaParams(**values, n=5)

    def test_dimension_above_the_ceiling_rejected(self):
        assert PentaParams(eps=5.0, theta=4.0, lam_p=1.0, n=MAX_DIM).n == MAX_DIM
        with pytest.raises(ParameterError, match=f"^pentadiagonal dimension {MAX_DIM + 1} exceeds {MAX_DIM}: "):
            PentaParams(eps=5.0, theta=4.0, lam_p=1.0, n=MAX_DIM + 1)

    @pytest.mark.parametrize("eps, theta, lam_p", [(1.0, 5.0, 1e200), (1.0, 1e200, 1.0), (-1e300, 1.0, 1e10)])
    def test_overflowing_discriminant_rejected(self, eps, theta, lam_p):
        with pytest.raises(DomainError, match="overflows to inf"):
            diagnose_pentadiagonal(PentaParams(eps=eps, theta=theta, lam_p=lam_p, n=5))

    def test_overflowing_factor_diagonal_rejected(self):
        # pi_2 = -1e10 is finite, pi_2 / lam_p is not
        with pytest.raises(DomainError, match="factor diagonal pi_2/lam_p .* overflows"):
            diagnose_pentadiagonal(PentaParams(eps=1.0, theta=-1e10, lam_p=1e-300, n=5))

    @pytest.mark.parametrize("eps, theta, lam_p", [(-3.12e150, 5.71e68, 5.01e-280), (1e11, 1e10, 1e-300)])
    def test_overflowing_decay_ratio_rejected(self, eps, theta, lam_p):
        # pi_1 is finite, pi_1 / (2 lam_p) is not: psi_1 would read inf
        with pytest.raises(DomainError, match=r"^decay ratio pi_1/\(2\*lam_p\) = .* overflows$"):
            diagnose_pentadiagonal(PentaParams(eps=eps, theta=theta, lam_p=lam_p, n=5))

    @pytest.mark.parametrize("theta", [1e8, 1e9])
    def test_small_root_does_not_cancel(self, theta):
        # theta/2 - sqrt(disc)/2 cancels to 0 or near it here; pi_1 pi_2 = lam_p (eps - 2 lam_p) = 1
        params = PentaParams(eps=3.0, theta=theta, lam_p=1.0, n=5)
        z1, z2, residual, decay = diagnose_pentadiagonal(params)
        assert [z1.diag, z2.diag * params.lam_p] == pytest.approx([theta, 1.0 / theta], rel=1e-15)
        assert residual <= 1e-15 * theta and decay is None


class TestTridiagInverse:
    def test_scalar_case(self):
        factor = TridiagFactor(off=1.0, diag=3.0, n=1)
        assert tridiag_toeplitz_inverse(factor, 1)[0, 0] == pytest.approx(1 / 3)

    def test_matches_numeric_inversion(self):
        factor = TridiagFactor(off=1.0, diag=3.0, n=10)
        closed = tridiag_toeplitz_inverse(factor)
        numeric = np.linalg.inv(tridiag_dense(factor))
        err = np.max(np.abs(closed - numeric)) / np.max(np.abs(numeric))
        assert err < 1e-8

    def test_scaled_factor_matches_numeric(self):
        factor = TridiagFactor(off=0.7, diag=2.9, n=25)
        closed = tridiag_toeplitz_inverse(factor)
        numeric = np.linalg.inv(tridiag_dense(factor))
        assert np.max(np.abs(closed - numeric)) < 1e-8 * np.max(np.abs(numeric))

    def test_sign_alternation(self):
        closed = tridiag_toeplitz_inverse(TridiagFactor(off=1.0, diag=2.5, n=12))
        k, l = np.meshgrid(np.arange(12), np.arange(12), indexing="ij")
        assert np.all(np.sign(closed) == np.where((l - k) % 2 == 0, 1.0, -1.0))

    def test_large_dimension_no_overflow(self):
        factor = TridiagFactor(off=1.0, diag=12.0, n=200)
        closed = tridiag_toeplitz_inverse(factor)
        numeric = np.linalg.inv(tridiag_dense(factor))
        assert np.max(np.abs(closed - numeric)) < 1e-8 * np.max(np.abs(numeric))
        assert np.all(np.isfinite(closed))

    def test_undefined_rate_rejected(self):
        with pytest.raises(DomainError):
            tridiag_toeplitz_inverse(TridiagFactor(off=1.0, diag=1.5, n=5))


class TestDecayRate:
    def test_root_formula_example(self):
        params = PentaParams(eps=8.1, theta=5.0, lam_p=1.0, n=60)
        z1, z2 = factors(params)
        assert z1.diag == pytest.approx(2.5 + math.sqrt(0.6) / 2)
        assert z2.diag == pytest.approx(2.5 - math.sqrt(0.6) / 2)
        diag = decay_of(params)
        assert diag.psi_min == pytest.approx(math.acosh((2.5 - math.sqrt(0.6) / 2) / 2))

    def test_empirical_slope_matches_minimum_rate(self):
        params = PentaParams(eps=8.1, theta=5.0, lam_p=1.0, n=60)
        diag = decay_of(params)
        assert diag.empirical_rate == pytest.approx(diag.psi_min, rel=0.10)

    def test_scale_invariance_of_rate(self):
        base = PentaParams(eps=8.1, theta=5.0, lam_p=1.0, n=40)
        scaled = PentaParams(eps=3 * 8.1, theta=3 * 5.0, lam_p=3.0, n=40)
        assert decay_of(base).psi_min == pytest.approx(decay_of(scaled).psi_min)

    def test_no_slope_through_a_single_lag(self):
        # at n = 3 the middle row reaches lag 1 only
        diag = decay_of(PentaParams(eps=8.1, theta=5.0, lam_p=1.0, n=3))
        assert diag.empirical_rate is None
        assert diag.psi_min == decay_of(PentaParams(eps=8.1, theta=5.0, lam_p=1.0, n=60)).psi_min

    def test_no_slope_when_entries_underflow(self):
        # psi_min = ln(1e30): the inverse is zero beyond lag 1 in every row
        diag = decay_of(PentaParams(eps=2e60, theta=3e30, lam_p=1.0, n=60))
        assert diag.empirical_rate is None
        assert diag.psi_min == pytest.approx(math.acosh(5e29))

    def test_rate_undefined_is_none(self):
        # valid factorization but pi_2 < 2*lam: no real decay rate
        params = PentaParams(eps=4.0, theta=4.0, lam_p=1.0, n=20)
        z1, z2, _, decay = diagnose_pentadiagonal(params)
        assert decay is None and z1.psi is not None and z2.psi is None

    def test_tiny_scale_rate_is_the_vieta_root(self):
        # disc = theta^2 underflows to a subnormal, so theta/2 - sqrt(disc)/2 is rounding
        # noise; pi_2 / lam_p = (eps - 2 lam_p) / pi_1 ~ 1e14 gives psi_2 = ln(1e14) = 32.23
        diag = decay_of(PentaParams(eps=7.40e-144, theta=7.43e-158, lam_p=7.77e-196, n=29))
        assert diag.psi_min == pytest.approx(32.2321, abs=1e-4)
        assert diag.empirical_rate == pytest.approx(diag.psi_min, rel=1e-9)

    def test_tiny_scale_rate_undefined_by_the_sign_of_eps_minus_2_lam_p(self):
        # eps - 2 lam_p < 0, so pi_2 / lam_p = (eps - 2 lam_p) / pi_1 <= 0 and psi_2 is undefined
        params = PentaParams(eps=4.83e-299, theta=5.89e-162, lam_p=6.33e-258, n=28)
        z1, z2, _, decay = diagnose_pentadiagonal(params)
        assert z2.diag <= 0.0 and z2.psi is None and decay is None


PENTA_SETS = {
    "defined": (8.1, 5.0, 1.0, 60),
    "psi_undefined": (5.0, 4.0, 1.0, 40),
    "single_lag": (8.1, 5.0, 1.0, 3),
    "underflow": (2e60, 3e30, 1.0, 60),
    "rate_undefined": (4.0, 4.0, 1.0, 20),
    **{f"eps8.1_n{n}": (8.1, 5.0, 1.0, n) for n in (4, 5, 37, 2000)},
    **{f"eps20_n{n}": (20.0, 10.0, 1.0, n) for n in (3, 4, 5, 37, 60, 2000)},
    **{f"negative_definite_n{n}": (-8.1, -5.0, -1.0, n) for n in (3, 4, 5, 37, 60)},
}


def assert_matches_dense_oracles(params):
    """The banded residual and slope against the dense product and inverse, at tolerances fixed in advance."""
    z1, z2, residual, decay = diagnose_pentadiagonal(params)
    scale = max(abs(params.eps), abs(params.theta), abs(params.lam_p), 1.0)
    assert abs(residual - dense_product_residual(z1, z2, params)) <= 1e-14 * scale
    if decay is None:
        assert z1.psi is None or z2.psi is None
        return
    assert decay.psi_min == min(z1.psi, z2.psi)
    dense = dense_inverse_rate(params)
    assert (decay.empirical_rate is None) == (dense is None)
    if dense is not None:
        assert decay.empirical_rate == pytest.approx(dense, rel=1e-12)


class TestDiagnosePentadiagonal:
    @pytest.mark.parametrize("eps, theta, lam_p, n", list(PENTA_SETS.values()), ids=list(PENTA_SETS))
    def test_matches_the_dense_oracles(self, eps, theta, lam_p, n):
        assert_matches_dense_oracles(PentaParams(eps=eps, theta=theta, lam_p=lam_p, n=n))

    def test_matches_the_dense_oracles_over_random_parameters(self):
        rng = np.random.default_rng(41)
        for i in range(100):
            assert_matches_dense_oracles(random_valid_params(rng, n=(3, 4, 5, 37, 60)[i % 5]))

    def test_no_dense_matrix_and_no_inverse(self, monkeypatch):
        def inv(*args):
            raise AssertionError("a dense inverse was formed")

        monkeypatch.setattr(np.linalg, "inv", inv)
        monkeypatch.setattr(scipy.linalg, "inv", inv)
        n = MAX_DIM
        tracemalloc.start()
        try:
            decay = diagnose_pentadiagonal(PentaParams(eps=20.0, theta=10.0, lam_p=1.0, n=n))[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decay.empirical_rate is not None
        assert peak < 8 * n * n  # one dense n x n float64 matrix

    def test_failed_split_raises(self):
        with pytest.raises(DomainError, match=r"theta\^2 - 4\*lam_p"):
            diagnose_pentadiagonal(PentaParams(eps=50.0, theta=1.0, lam_p=1.0, n=5))


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
