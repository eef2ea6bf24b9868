"""Alternative forms of library quantities, kept as oracles for the library's one.

`smoothdiff.toeplitz.cov_quadratic_forms` computes the covariance of two
Gaussian quadratic forms as a trace, over stacks of matrices; the
Hadamard/Kronecker double sum and the Frobenius form below are the paper's
other two expressions of it, each on one `QuadFormProblem`. The closed-form
tridiagonal Toeplitz inverse is checked against numeric inversion by
acceptance criterion 7.

`smoothdiff.toeplitz.diagnose_pentadiagonal` reads the pentadiagonal P and
its two tridiagonal factors only through their scalars and bands.
`build_pentadiagonal` and `tridiag_dense` are the dense matrices it no
longer forms; `dense_product_residual` is max |Z1 Z2 - P| of their dense
product, and `dense_inverse_rate` the empirical decay slope read from the
numerically inverted P, the two forms its closed-form residual and banded
solve replaced.

`smoothdiff.windows.window_stat_correlation` gathers, factors and reduces
every window of a correlation vector in one batched pass, from a dense
block of V. `window_stat_covariance` and `per_pair_correlation` are the
per-pair path it replaced, on V's band: each pair's 2w x 2w block gathered
and both windows inverted on their own, and one `trace_form` per
covariance. Given the same numbers as a block (`expand_band` of the band),
the batched kernel must equal them bit for bit, non-positive-definite
messages included.

The weighted design products of `smoothdiff.basis.DesignMatrix` go through
cached sparse operators; the `bincount` loops below are the per-pair,
per-offset and per-column forms they replaced, which they must match bit
for bit, and the forms its unweighted products take. A Gaussian stratum
once took its Gram band and Z'[y | X] from those operators with w = 1;
`gaussian_systems_by_operators` is that path. `dense_design`,
`difference_matrix` and `penalty_matrix` are the dense Z, D and S = D'D
that the library no longer forms.
`solve_penalized_per_iteration` is the dense (m + p)-square block solve
with fixed effects that the bordered band solve replaced; it formed the
covariance and edf in every IRLS iteration.

`smoothdiff.fitting` solves a lambda grid in lockstep, blocks of lambdas
through batched sparse products. `per_lambda_band_solve` is the path it
replaced: one lambda at a time, scipy's banded Cholesky wrappers in every
IRLS iteration and the einsum predictor `predict_by_einsum`.

`smoothdiff.fitting.selected_inverse_band` gives every edf and covariance
band without an inverse. `dense_inverse_edf` is the dense inverse per grid
point that binomial fits used for their edf, `demmler_reinsch_edfs` the
generalized eigensolve that scored the Gaussian grid, and
`pointwise_variance` the dense diag(D cov D') that the curves used.
A fit holds its covariance only as bands; `dense_covariance` is the dense
m x m matrix they are bands of, which fits once carried as `fit.cov`.
`smoothdiff.fitting.covariance_block` solves each fit's precision band for
the dense block of the summed covariance that `diagnose --model` reads;
`covariance_bands` is the widening it replaced, which pads each precision
band with zero rows to the block's offset and runs the selected-inverse
recurrence over all m rows of the padded factors.
`band_covariance` is the dense dispersion * A^{-1} whose Cholesky factor the
exact-model reference drew from before it drew from A's band, and
`window_test_series` the window statistics with the blocks gathered from a
dense V rather than from V's band.

`smoothdiff.fitting._binomial_block` steps IRLS in preallocated buffers,
with the branch-free deviance and one LAPACK `dpbsv` per system.
`binomial_block_by_where` and `band_solve_by_pbtrf` are the forms it
replaced: fresh arrays in every step, the deviance through
`np.where(y > 0, mu, 1 - mu)`, and `pbtrf` then `pbtrs` per system. Every
field and message of the new kernel must equal theirs bit for bit. The
oracle takes its mean from the library's `fitting._logistic`, as the kernel
does: that logistic is within 4 ulp of scipy's `expit`, not equal to it, and
is checked against `expit` on its own.

`smoothdiff.cli.read_stratum_csv` parses the data rows with `np.loadtxt`;
`read_stratum_csv_by_float` is the `csv` reader with one `float()` per field
that it replaced, and must give the same columns bit for bit. The oracle
strips each label; the library returns labels as read, and
`smoothdiff.cli.load_strata` strips each distinct one.
`smoothdiff.cli._write_csv` builds a file's text whole and writes it once;
`write_csv_by_row` is the writer it replaced, one write per row, whose bytes
it must equal.

`smoothdiff.simulate.clumped_indices` keeps its weights incrementally and
draws each index from their cumulative sum as `Generator.choice` does;
`clumped_indices_by_choice` is the loop it replaced, one `rng.choice` per
index, which it must match in the indices and in the generator state after.

`smoothdiff.simulate` tallies the scored regions of every replicate into the
error and TDP tables in one pass. `aggregate_by_cell_scan` is the scan it
replaced, which went over every record once per (alpha, tau) cell, and
whose tables the tally must equal cell for cell and in key order.
`smoothdiff.simulate.sweep_summary` bins each replicate once;
`sweep_summary_by_bin_scan` is the loop of the sweep script it replaced,
which scanned every replicate once per (tau, bin), its regions filtered by
their alpha as well. Its rows must equal the library's bit for bit.

`smoothdiff.tdp` bounds the true discoveries of every set by the
Goeman-Solari shortcut. `simes_test` and `closed_testing_oracle` are the
definitions it must match: the Simes local test of one intersection
hypothesis, and closed testing over the full power set (Hommel 1986).

`smoothdiff.basis._find_spans` finds each point's knot span by arithmetic on
the uniform grid, and `_span_order` sorts the spans on 16-bit keys;
`find_spans_by_search` and `span_order_by_int64_sort` are the binary search
of the knots and the stable sort of int64 keys they replaced, which they must
match exactly.

`smoothdiff.fitting.select_lambda` scores every grid point's GCV as one array
expression per stratum; `gcv_choice_by_loop` is the per-lambda loop it
replaced, which must pick the same point, or fail from the same cause.

`band_form` is the band storage of a dense symmetric matrix, which the
tests build covariance and precision bands with. `eval_basis` evaluates all
m basis functions at one point, the row `design_matrix` stores compactly,
`basis_support` is basis function j's support interval, whose cells
`BasisSpec.basis_support_cells` gives, and `region` is window k's covariate
interval, which `windows.csv` writes from `BasisSpec.breakpoints`.
`BasisSpec.window_intervals` merges a window set's runs of consecutive
windows into intervals; `cells_to_intervals` is the scan over a boolean mask
of the elementary cells it replaced, whose floats it must equal.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.special import expit

from smoothdiff import fitting, simulate
from smoothdiff.basis import _nonzero_basis, expand_band
from smoothdiff.errors import DomainError, NumericalError, ParameterError
from smoothdiff.tdp import PValueFamily, _as_index_set
from smoothdiff.toeplitz import PentaParams, TridiagFactor
from smoothdiff.windows import _band_entries, _check_band, _direct_inverse, _window_series


@dataclass(frozen=True)
class QuadFormProblem:
    """Covariance of x'Ax and y'By for jointly Gaussian zero-mean (x, y)."""

    A: np.ndarray
    B: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        dx, dy = A.shape[0], B.shape[0]
        if A.shape != (dx, dx) or B.shape != (dy, dy):
            raise ParameterError("A and B must be square")
        if sigma.shape != (dx + dy, dx + dy):
            raise ParameterError(
                f"joint covariance must be {(dx + dy, dx + dy)}, got {sigma.shape}"
            )
        if not np.allclose(A, A.T) or not np.allclose(B, B.T):
            raise ParameterError("A and B must be symmetric")
        if not np.allclose(sigma, sigma.T):
            raise ParameterError("joint covariance must be symmetric")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "sigma", sigma)

    @property
    def d_x(self) -> int:
        return self.A.shape[0]

    @property
    def d_y(self) -> int:
        return self.B.shape[0]

    @property
    def sigma_xx(self) -> np.ndarray:
        return self.sigma[: self.d_x, : self.d_x]

    @property
    def sigma_xy(self) -> np.ndarray:
        return self.sigma[: self.d_x, self.d_x :]

    @property
    def sigma_yy(self) -> np.ndarray:
        return self.sigma[self.d_x :, self.d_x :]


def trace_form(problem: QuadFormProblem) -> float:
    """Covariance of x'Ax and y'By as 2 * sum((A S_xy) o (S_xy B)), on one problem."""
    sxy = problem.sigma_xy
    return 2.0 * float(np.sum((problem.A @ sxy) * (sxy @ problem.B)))


def kronecker_double_sum(problem: QuadFormProblem) -> float:
    """Covariance of x'Ax and y'By as the paper's Hadamard double sum.

    Each quartic expectation splits into pair-partitions; the two partitions
    that mix the x and y blocks both contribute, and each is the total of the
    Hadamard product (J ox A) o vec(S_xy) vec(S_xy)' o (B ox J). For symmetric
    A and B the two contributions are equal, giving twice the single sum.
    """
    A, B, sxy = problem.A, problem.B, problem.sigma_xy
    v = np.ravel(sxy, order="F")
    u = (
        np.kron(np.ones((problem.d_y, problem.d_y)), A)
        * np.outer(v, v)
        * np.kron(B, np.ones((problem.d_x, problem.d_x)))
    )
    return 2.0 * float(u.sum())


def _psd_sqrt(mat: np.ndarray, label: str) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < -1e-8 * max(vals.max(), 1.0):
        raise ParameterError(f"{label} must be positive semidefinite")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frobenius_form(problem: QuadFormProblem) -> float:
    """Same covariance as 2 * ||A^(1/2) S_xy B^(1/2)||_F^2 (PSD A, B only)."""
    half_a = _psd_sqrt(problem.A, "A")
    half_b = _psd_sqrt(problem.B, "B")
    core = half_a @ problem.sigma_xy @ half_b
    return 2.0 * float(np.sum(core * core))


def _logsinh(x: np.ndarray) -> np.ndarray:
    """log(sinh(x)) for x > 0 without overflow."""
    return x + np.log1p(-np.exp(-2.0 * x)) - math.log(2.0)


def tridiag_toeplitz_inverse(factor: TridiagFactor, n: int | None = None) -> np.ndarray:
    """Closed-form inverse of a tridiagonal Toeplitz factor.

    Entry (k, l), 1-based with k <= l, of the inverse of tridiag(1, 2cosh(psi), 1)
    is (-1)^(l-k) sinh(psi k) sinh(psi (n+1-l)) / (sinh(psi) sinh(psi (n+1)));
    the general factor is that matrix scaled by its off-diagonal value.
    Evaluated in log space so large n does not overflow.
    """
    if n is None:
        n = factor.n
    psi = factor.psi
    if psi is None:
        raise DomainError(
            "closed-form inverse requires diag > 2*off > 0 (real decay rate)"
        )
    if n == 1:
        return np.asarray([[1.0 / factor.diag]])
    k = np.arange(1, n + 1)
    log_fwd = _logsinh(psi * k)
    log_bwd = _logsinh(psi * (n + 1 - k))
    log_scale = _logsinh(np.asarray(psi)) + _logsinh(np.asarray(psi * (n + 1)))
    kk, ll = np.meshgrid(k, k, indexing="ij")
    lo = np.minimum(kk, ll)
    hi = np.maximum(kk, ll)
    log_mag = log_fwd[lo - 1] + log_bwd[hi - 1] - log_scale
    signs = np.where((hi - lo) % 2 == 0, 1.0, -1.0)
    return signs * np.exp(log_mag) / factor.off


def tridiag_dense(factor: TridiagFactor) -> np.ndarray:
    """Dense realization of a tridiagonal Toeplitz factor."""
    out = np.zeros((factor.n, factor.n))
    idx = np.arange(factor.n)
    out[idx, idx] = factor.diag
    out[idx[:-1], idx[:-1] + 1] = factor.off
    out[idx[:-1] + 1, idx[:-1]] = factor.off
    return out


def build_pentadiagonal(params: PentaParams) -> np.ndarray:
    """Dense realization of the pentadiagonal matrix."""
    n = params.n
    out = np.zeros((n, n))
    idx = np.arange(n)
    out[idx, idx] = params.eps
    out[idx[:-1], idx[:-1] + 1] = params.theta
    out[idx[:-1] + 1, idx[:-1]] = params.theta
    out[idx[:-2], idx[:-2] + 2] = params.lam_p
    out[idx[:-2] + 2, idx[:-2]] = params.lam_p
    out[0, 0] -= params.lam_p
    out[n - 1, n - 1] -= params.lam_p
    return out


def dense_product_residual(z1: TridiagFactor, z2: TridiagFactor, params: PentaParams) -> float:
    """max |Z1 Z2 - P| of the dense product."""
    return float(np.max(np.abs(tridiag_dense(z1) @ tridiag_dense(z2) - build_pentadiagonal(params))))


def dense_inverse_rate(params: PentaParams) -> float | None:
    """Least-squares slope of -log|inv(P)[r, r+lag]| against lag = 1..12 on the inverted P.

    Averaged over rows n/3 .. 2n/3 - 1 whose entries at those lags are
    non-zero; None when the dimension leaves a single lag or every row's
    entries underflow.
    """
    n = params.n
    inv = np.linalg.inv(build_pentadiagonal(params))
    row_lo, row_hi = n // 3, 2 * n // 3
    lags = np.arange(1, min(12, n - row_hi) + 1)
    log_mags = []
    for r in range(row_lo, row_hi):
        vals = np.abs(inv[r, r + lags])
        if np.all(vals > 0):
            log_mags.append(np.log(vals))
    if lags.size < 2 or not log_mags:
        return None
    return -float(np.polyfit(lags, np.mean(log_mags, axis=0), 1)[0])


def gram_band_by_pair_bincount(dm, weights=None) -> np.ndarray:
    """Z' diag(w) Z's upper band: one length-m `bincount` per coefficient pair."""
    w, m = dm.width, dm.m
    band = np.zeros((w, m))
    for a in range(w):
        for b in range(a, w):
            contrib = dm.values[:, a] * dm.values[:, b]
            if weights is not None:
                contrib = contrib * weights
            band[w - 1 - (b - a)] += np.bincount(dm.start + b, weights=contrib, minlength=m)
    return band


def rhs_by_offset_bincount(dm, y, weights=None) -> np.ndarray:
    """Z' diag(w) y: one `bincount` per offset within the compact rows."""
    out = np.zeros(dm.m)
    wy = y if weights is None else weights * y
    for a in range(dm.width):
        out += np.bincount(dm.start + a, weights=dm.values[:, a] * wy, minlength=dm.m)
    return out


def cross_with_by_column_bincount(dm, x, weights=None) -> np.ndarray:
    """Z' diag(w) X for an n x p matrix X: one `bincount` per offset and column."""
    out = np.zeros((dm.m, x.shape[1]))
    wx = x if weights is None else weights[:, None] * x
    for a in range(dm.width):
        for j in range(x.shape[1]):
            out[:, j] += np.bincount(dm.start + a, weights=dm.values[:, a] * wx[:, j], minlength=dm.m)
    return out


def compact_columns(dm) -> np.ndarray:
    """n x width column index of the compact rows."""
    return dm.start[:, None] + np.arange(dm.width)


def dense_design(dm) -> np.ndarray:
    """The n x m design matrix Z from its compact rows."""
    out = np.zeros((dm.n, dm.m))
    np.put_along_axis(out, compact_columns(dm), dm.values, axis=1)
    return out


def difference_matrix(m, order) -> np.ndarray:
    """The (m - order) x m matrix D of order-`order` differences."""
    return np.diff(np.eye(m), n=order, axis=0)


def penalty_matrix(pen) -> np.ndarray:
    """The dense penalty S = D'D of a `PenaltyMatrix`."""
    d = difference_matrix(pen.m, pen.order)
    return d.T @ d


def solve_penalized_per_iteration(dm, X, S, lam, resp, w):
    """(beta, coef, cov_unit, edf) of the penalized block system with fixed effects X.

    Forms everything at once, as one IRLS iteration used to: the minimum-norm
    solve, the edf by an (m + p)-column `lstsq`, and the inverse of the
    Schur complement of the fixed-effect block.
    """
    ztz = dm.crossprod(w)
    a = ztz + lam * S
    p = X.shape[1]
    xtx = X.T @ (X if w is None else w[:, None] * X)
    zx = cross_with_by_column_bincount(dm, X, w)
    c = np.block([[xtx, zx.T], [zx, a]])
    wresp = resp if w is None else w * resp
    rhs = np.concatenate([X.T @ wresp, rhs_by_offset_bincount(dm, resp, w)])
    theta = np.linalg.lstsq(c, rhs, rcond=None)[0]
    gram = np.block([[xtx, zx.T], [zx, ztz]])
    edf = float(np.trace(np.linalg.lstsq(c, gram, rcond=None)[0]))
    schur = a - zx @ np.linalg.lstsq(xtx, zx.T, rcond=None)[0]
    try:
        cov_unit = scipy.linalg.cho_solve(scipy.linalg.cho_factor(schur), np.eye(schur.shape[0]))
    except np.linalg.LinAlgError:
        cov_unit = np.linalg.pinv(schur)
    return theta[:p], theta[p:], cov_unit, edf


def dense_inverse_edf(ab, gram_band):
    """tr(A^{-1} Z'WZ) from the bands of A and Z'WZ, by one dense `solveh_banded` inverse."""
    ainv = scipy.linalg.solveh_banded(ab, np.eye(ab.shape[1]))
    return float(np.sum(ainv * expand_band(gram_band)))


def demmler_reinsch_edfs(gram, S, grid):
    """edf(lam) = tr((G + lam S)^{-1} G) at each grid point from one eigensolve.

    With c = tr(G)/tr(S), the generalized eigenvalues mu of G v = mu (G + cS) v
    lie in [0, 1] (clipped there against rounding) and give
    edf(lam) = sum mu / (mu + (lam/c)(1 - mu)) (Demmler-Reinsch; Wood 2017, 5.4).
    """
    scale = float(np.trace(gram)) / float(np.trace(S))
    mu = np.clip(scipy.linalg.eigh(gram, gram + scale * S, eigvals_only=True), 0.0, 1.0)
    return np.asarray([float(np.sum(mu / (mu + (lam / scale) * (1.0 - mu)))) for lam in grid])


def band_covariance(band, dispersion) -> np.ndarray:
    """Dense covariance dispersion * A^{-1}, symmetrized, from A's upper band storage."""
    cov = dispersion * scipy.linalg.solveh_banded(band, np.eye(band.shape[1]))
    return 0.5 * (cov + cov.T)


def dense_covariance(fit) -> np.ndarray:
    """A fit's dense posterior covariance dispersion * (A^{-1} + BB'), from its precision band and border."""
    cov = band_covariance(fit.precision_band, fit.dispersion)
    return cov + fit.dispersion * (fit.border @ fit.border.T)


def covariance_bands(fits, bandwidth: int) -> list[np.ndarray]:
    """Upper band of each fit's posterior covariance to offset `bandwidth`.

    A fit whose `cov_band` is that wide is sliced. The others are widened
    from `precision_band` and `border` without forming an m x m matrix, all
    fits whose precision bands share a shape in one `unit_covariance_band`
    call; each band is the one the fit would get alone.
    """
    bands = [f.cov_band for f in fits]
    groups: dict[tuple, list[int]] = {}
    for i, band in enumerate(bands):
        if band is None or band.shape[0] <= bandwidth:
            groups.setdefault(fits[i].precision_band.shape, []).append(i)
    for group in groups.values():
        unit = unit_covariance_band(
            np.stack([fits[i].precision_band for i in group]), [fits[i].border for i in group], bandwidth
        )
        for i, u in zip(group, unit):
            bands[i] = fits[i].dispersion * u
    return [band[band.shape[0] - 1 - bandwidth :] for band in bands]


def unit_covariance_band(precision_bands: np.ndarray, borders: list, bandwidth: int) -> np.ndarray:
    """The upper bands of A^{-1} + BB' to offset max(bandwidth, b) for a (k, b+1, m) stack of A's bands.

    Each band of A padded with zero rows to that width is factored again,
    and one `selected_inverse_band` call over the k factors, each zero
    outside its A's band, is exact at the padded width: an entry within the
    padded width reads only entries within it. `borders` holds each
    system's m x p border B.
    """
    k, rows, m = precision_bands.shape
    width = max(bandwidth, rows - 1)
    padded = np.zeros((k, width + 1, m))
    padded[:, width + 1 - rows :] = precision_bands
    factors = []
    for band in padded:
        factor, info = dpbtrf(band)
        if info:
            raise fitting._not_positive_definite(info)
        factors.append(factor)
    outer = [fitting._border_band(border, width) for border in borders]
    return fitting.selected_inverse_band(np.stack(factors)) + np.stack(outer)


def window_test_series(spec, delta, v):
    """Window statistics and p-values of `delta` against the w x w diagonal blocks of a dense V."""
    idx = np.arange(spec.n_regions)[:, None] + np.arange(spec.degree + 1)
    return _window_series(spec, delta, v[idx[:, :, None], idx[:, None, :]])


def pointwise_variance(design, cov):
    """Variance of each fitted value: the diagonal of D cov D'."""
    return np.sum((design @ cov) * design, axis=1)


def predict_by_einsum(dm, coef):
    """Z @ coef gathered from the compact rows."""
    return np.einsum("ij,ij->i", dm.values, coef[compact_columns(dm)])


def _banded_solve(gram, penalty_band, lam, rhs):
    """(ab, factor, coef) of A = Z'WZ + lam S from its bands, by scipy's banded Cholesky."""
    ab = lam * penalty_band
    ab[ab.shape[0] - gram.shape[0] :] += gram
    try:
        factor = scipy.linalg.cholesky_banded(ab)
    except np.linalg.LinAlgError as exc:
        raise fitting._not_positive_definite(scipy.linalg.lapack.dpbtrf(ab)[1]) from exc
    return ab, factor, scipy.linalg.cho_solve_banded((factor, False), rhs)


def per_lambda_band_solve(dm, data, penalty_band, lam):
    """(coef, deviance, gram, ab, factor, n_iter) of one lambda's fit, solved alone.

    A Gaussian fit is one banded solve (n_iter = 1). A binomial fit runs
    penalized IRLS, one factorization per iteration, until the deviance
    settles; gram, ab and factor are the last iteration's. Raises the
    NumericalError the fit raises, reading `fitting.MAX_IRLS_ITER` at call
    time.
    """
    y = data.y
    if data.family == "gaussian":
        gram = dm.gram_band()
        ab, factor, coef = _banded_solve(gram, penalty_band, lam, dm.rhs(y))
        resid = y - predict_by_einsum(dm, coef)
        return coef, float(resid @ resid), gram, ab, factor, 1
    mu = (y + 0.5) / 2.0
    eta = np.log(mu / (1.0 - mu))
    deviance = float(fitting._binomial_deviance(y, mu))
    trace = [deviance]
    for n_iter in range(1, fitting.MAX_IRLS_ITER + 1):
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        u = eta + (y - mu) / w
        gram = dm.gram_band(w)
        ab, factor, coef = _banded_solve(gram, penalty_band, lam, dm.rhs(w * u))
        eta = predict_by_einsum(dm, coef)
        if np.max(np.abs(eta)) > fitting.ETA_DIVERGENCE:
            raise NumericalError("linear predictor diverged (complete or quasi-complete separation)")
        mu = expit(eta)
        new_deviance = float(fitting._binomial_deviance(y, np.clip(mu, 1e-12, 1.0 - 1e-12)))
        trace.append(new_deviance)
        if abs(new_deviance - deviance) <= fitting.IRLS_REL_TOL * (abs(deviance) + 1e-12):
            return coef, new_deviance, gram, ab, factor, n_iter
        deviance = new_deviance
    raise NumericalError(
        f"IRLS failed to converge in {fitting.MAX_IRLS_ITER} iterations; "
        f"deviance trace tail {trace[-4:]}"
    )


def gaussian_systems_by_operators(dm, data, penalty_band, lams):
    """A Gaussian stratum's `_BandSystem`s with Z'Z and Z'[y | X] from the CSR operators at w = 1."""
    ones = np.ones(data.n)
    shared = dm.gram_band(ones), *fitting._cross_products(dm, data.X, data.y, ones)
    return fitting._gaussian_block(data, penalty_band, lams, *shared)


def binomial_deviance_by_where(y, mu):
    """Deviance of 0/1 outcomes, one per row of mu, choosing mu or 1 - mu by the mask y > 0."""
    return 2.0 * np.sum(-np.log(np.where(y > 0, mu, 1.0 - mu)), axis=-1)


def band_solve_by_pbtrf(penalty_band, lams, gram, rhs):
    """`fitting._band_solve` as pbtrf then pbtrs per system, one finiteness check for the block.

    A non-finite entry anywhere in the block raises ValueError.
    """
    ab = lams[:, None, None] * penalty_band
    ab[:, ab.shape[1] - gram.shape[-2] :] += gram
    rhs = np.broadcast_to(rhs, (lams.size, *rhs.shape[-2:]))
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    factors = np.empty_like(ab)
    sols = np.zeros(rhs.shape)
    errors = [None] * lams.size
    for j in range(lams.size):
        factor, info = dpbtrf(ab[j])
        if info:
            errors[j] = fitting._not_positive_definite(info)
            continue
        factors[j] = factor
        sols[j] = dpbtrs(factor, rhs[j])[0]
    return ab, factors, sols, errors


def binomial_block_by_where(dm, data, penalty_band, lams):
    """`fitting._binomial_block` allocating every step afresh, with `binomial_deviance_by_where`
    and `band_solve_by_pbtrf`; reads `fitting.MAX_IRLS_ITER` at call time.
    """
    y, X = data.y, data.X
    mu = (y + 0.5) / 2.0
    eta = np.log(mu / (1.0 - mu))
    start = float(binomial_deviance_by_where(y, mu))
    deviance = np.full(lams.size, start)
    traces = [[start] for _ in lams]
    out = [None] * lams.size
    live = np.arange(lams.size)
    for n_iter in range(1, fitting.MAX_IRLS_ITER + 1):
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        u = eta + (y - mu) / w
        gram = dm.gram_band(w)
        gram = np.broadcast_to(gram, (live.size, *gram.shape[-2:]))
        zr, xr = fitting._cross_products(dm, X, u, w)
        _, factors, sols, errors = band_solve_by_pbtrf(penalty_band, lams[live], gram, zr)
        coefs, betas, borders = fitting._eliminate_border(sols, zr, xr, errors)
        for j, error in enumerate(errors):
            if error is not None:
                out[live[j]] = error
        ok = np.flatnonzero([e is None for e in errors])
        live, deviance, gram, factors, coefs, betas, borders = (
            a[ok] for a in (live, deviance, gram, factors, coefs, betas, borders)
        )
        eta = fitting._predict(dm, X, coefs, betas)
        diverged = np.max(np.abs(eta), axis=1) > fitting.ETA_DIVERGENCE
        mu = fitting._logistic(eta, np.empty_like(eta))
        new_deviance = binomial_deviance_by_where(y, np.clip(mu, 1e-12, 1.0 - 1e-12))
        converged = fitting._converged(new_deviance, deviance) & ~diverged
        for j, i in enumerate(live):
            traces[i].append(float(new_deviance[j]))
            if diverged[j]:
                out[i] = NumericalError("linear predictor diverged (complete or quasi-complete separation)")
            elif converged[j]:
                out[i] = fitting._BandSystem(
                    float(lams[i]), coefs[j], betas[j], traces[i][-1], gram[j], factors[j], borders[j], n_iter
                )
        going = ~(diverged | converged)
        live, deviance, eta, mu = live[going], new_deviance[going], eta[going], mu[going]
        if not live.size:
            return out
    for i in live:
        tail = traces[i][-4:]
        out[i] = NumericalError(
            f"IRLS failed to converge in {fitting.MAX_IRLS_ITER} iterations; deviance trace tail {tail}"
        )
    return out


def read_stratum_csv_by_float(path, stratum_col=None):
    """(y, z, X, strata) of a 'y,z[,stratum][,x_*]' CSV read by `csv` and `float()`.

    Blank rows are skipped and columns past the used ones ignored. Raises
    ValueError or IndexError on a malformed row; the library's messages are
    not reproduced.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        fields = [f.strip() for f in next(reader)]
        rows = [row for row in reader if row]
    column = {name: i for i, name in enumerate(fields)}
    x_cols = [f for f in fields if f.startswith("x_")]
    numeric = [column["y"], column["z"], *(column[c] for c in x_cols)]
    values = [np.array([float(row[i]) for row in rows]) for i in numeric]
    X = np.column_stack(values[2:]) if x_cols else None
    strata = None
    if stratum_col is not None:
        strata = np.array([row[column[stratum_col]].strip() for row in rows])
    return values[0], values[1], X, strata


def write_csv_by_row(path, header, rows) -> None:
    """`header`, then a line per row, each value by `repr` and None as empty, written row by row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else repr(v) for v in row) + "\n")


def check_pairs(v_band, spec, k, k2) -> None:
    """The band form's checks of a correlation vector: k2 non-empty, every window in range, the band wide enough."""
    n_windows = spec.n_regions
    if not k2.size:
        raise ParameterError("the vector of other windows k2 is empty")
    if not (0 <= k < n_windows and np.all((0 <= k2) & (k2 < n_windows))):
        raise ParameterError(f"window indices must lie in [0, {n_windows})")
    _check_band(spec, v_band, int(np.max(np.abs(k - k2))) + spec.degree)


def window_stat_covariance(v_band, spec, k, k2) -> float:
    """Cov(T_k, T_k2) from the 2w x 2w block of V = V1 + V2 on both windows.

    `v_band` is V's upper band to an offset of at least |k - k2| + degree;
    each window is inverted on its own, window k first.
    """
    check_pairs(v_band, spec, k, np.asarray(k2))
    w = spec.degree + 1
    idx = np.r_[k : k + w, k2 : k2 + w]
    sigma = _band_entries(v_band, idx[:, None], idx[None, :])
    precisions = [_direct_inverse(block, j) for j, block in ((k, sigma[:w, :w]), (k2, sigma[w:, w:]))]
    a, b = (0.5 * (inv + inv.T) for inv in precisions)
    return trace_form(QuadFormProblem(A=a, B=b, sigma=sigma))


def per_pair_correlation(v_band, spec, k, k2) -> float:
    """Corr(T_k, T_k2) from three separate `window_stat_covariance` calls, each inverting its own windows."""
    cov = window_stat_covariance(v_band, spec, k, k2)
    var1 = window_stat_covariance(v_band, spec, k, k)
    var2 = window_stat_covariance(v_band, spec, k2, k2)
    return cov / np.sqrt(var1 * var2)


def clumped_indices_by_choice(m, k, nu, rng) -> np.ndarray:
    """k clumped indices drawn by one `rng.choice` per index, the m weights rebuilt each time."""
    chosen = np.zeros(m, dtype=bool)
    for _ in range(k):
        weights = np.ones(m)
        idx = np.flatnonzero(chosen)
        if idx.size:
            adjacent = np.zeros(m, dtype=bool)
            adjacent[idx[idx > 0] - 1] = True
            adjacent[idx[idx < m - 1] + 1] = True
            weights[adjacent] = nu
            weights[chosen] = 0.0
        pick = rng.choice(m, p=weights / weights.sum())
        chosen[pick] = True
    return np.flatnonzero(chosen)


def aggregate_by_cell_scan(scenario, records) -> tuple[dict, dict]:
    """(error table, TDP table) with every non-failed record scanned once per (alpha, tau) cell."""
    ok = [r for r in records if not r.failed]
    error_table, tdp_table = {}, {}
    for alpha in scenario.alphas:
        for tau in scenario.thresholds:
            errors, tdps = [], []
            for rec in ok:
                for region in rec.regions:
                    if region.alpha == alpha and region.tau == tau:
                        errors.append(float(region.error))
                        if region.empirical_tdp is not None:
                            tdps.append(region.empirical_tdp)
            error_table[(alpha, tau)] = simulate._cell_stats(errors)
            tdp_table[(alpha, tau)] = simulate._cell_stats(tdps)
    return error_table, tdp_table


def sweep_summary_by_bin_scan(outcome, bins) -> list[tuple]:
    """Rows of the sweep summary, the non-failed replicates scanned once per (alpha, tau, bin)."""
    scenario = outcome.scenario
    good = [r for r in outcome.records if not r.failed]
    edges = np.linspace(*scenario.m_delta_sweep, bins + 1)
    rows = []
    for alpha in scenario.alphas:
        for tau in scenario.thresholds:
            for b in range(bins):
                lo, hi = edges[b], edges[b + 1]
                in_bin = [r for r in good if lo <= r.m_delta < hi or (b == bins - 1 and r.m_delta == hi)]
                emp = [
                    reg.empirical_tdp
                    for r in in_bin
                    for reg in r.regions
                    if reg.alpha == alpha and reg.tau == tau and reg.empirical_tdp is not None
                ]
                covg = [
                    reg.truth_coverage
                    for r in in_bin
                    for reg in r.regions
                    if reg.alpha == alpha and reg.tau == tau and reg.truth_coverage is not None
                ]
                truth_tdp = [r.truth_region_tdp.get(alpha) for r in in_bin if r.truth_region_tdp]
                rows.append((
                    alpha, tau, float(lo), float(hi), len(in_bin),
                    float(np.mean(emp)) if emp else None,
                    float(np.mean(covg)) if covg else None,
                    float(np.mean(truth_tdp)) if truth_tdp else None,
                ))
    return rows


def simes_test(pvals: np.ndarray, alpha: float) -> bool:
    """True iff the Simes test rejects the intersection hypothesis of the set."""
    pvals = np.asarray(pvals, dtype=float)
    if pvals.size == 0:
        raise ParameterError("Simes test is undefined on an empty set")
    n = pvals.size
    ordered = np.sort(pvals)
    return bool(np.any(ordered <= np.arange(1, n + 1) * alpha / n))


def closed_testing_oracle(family: PValueFamily, region: np.ndarray) -> int:
    """Definitional TDP bound via full power-set closed testing (small n only).

    Evaluates the Simes local test on every non-empty subset, closes under
    supersets, and returns #R minus the largest subset of R not rejected by
    the closed procedure. Exponential in n; guarded at n <= 20.
    """
    n = family.n
    if n > 20:
        raise ParameterError("closed-testing oracle is limited to n <= 20")
    region = _as_index_set(region, n)
    # Relabel the hypotheses by ascending p: bit b of a mask is then the b-th
    # smallest p, and a set's members, read from the lowest bit up, come in
    # the order the Simes test sorts them.
    order = np.argsort(family.p, kind="stable")
    ordered = family.p[order]
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    masks = np.arange(1 << n, dtype=np.int64)
    members = [(masks >> b & 1).astype(bool) for b in range(n)]
    size = np.sum(members, axis=0)
    divisor = np.maximum(size, 1)

    local_reject = np.zeros(masks.size, dtype=bool)
    rank = np.zeros(masks.size, dtype=np.int64)
    for b in range(n):
        rank += members[b]
        local_reject |= members[b] & (ordered[b] <= (rank * family.alpha) / divisor)

    # Close under supersets: rejected iff every superset's local test rejects.
    closed = local_reject
    for b in range(n):
        without = masks[~members[b]]
        closed[without] &= closed[without | 1 << b]

    region_mask = int(np.sum(1 << position[region]))
    # Largest surviving subset of R; the empty set always survives.
    inside = (masks & ~region_mask) == 0
    return int(region.size - size[inside & ~closed].max())


def band_form(a: np.ndarray, bandwidth: int) -> np.ndarray:
    """Upper band storage of a symmetric banded matrix for solveh_banded."""
    m = a.shape[0]
    ab = np.zeros((bandwidth + 1, m))
    for off in range(bandwidth + 1):
        ab[bandwidth - off, off:] = np.diagonal(a, off)
    return ab


def find_spans_by_search(spec, z: np.ndarray) -> np.ndarray:
    """Knot span index mu per point, knots[mu] <= z < knots[mu+1], by binary search, clamped to valid spans."""
    mu = np.searchsorted(spec.knots, z, side="right") - 1
    return np.clip(mu, spec.degree, spec.m - 1)


def span_order_by_int64_sort(start: np.ndarray, m: int) -> np.ndarray:
    """The stable sort of the compact rows' first columns on int64 keys."""
    return np.argsort(start.astype(np.int64), kind="stable")


def gcv_choice_by_loop(data, solved, edf):
    """(index, failure) of the per-lambda GCV loop over one grid.

    `solved` holds each point's solved system (anything with a `deviance`)
    or its NumericalError, `edf` each solved point's edf. A point fails on
    its own error or with n - edf < 1; the others score n * dev / (n - edf)**2
    in Python floats, Gaussian deviance at most 1e-16 y'y read as zero, and
    the last point at or below the running best wins. `index` is None when
    no point scores, and `failure` is the last failing point's error.
    """
    yss = float(data.y @ data.y)
    best, best_score, failure = None, np.inf, None
    for j, (result, e) in enumerate(zip(solved, edf)):
        if isinstance(result, NumericalError):
            failure = result
            continue
        e = float(e)
        if data.n - e < 1.0:
            failure = NumericalError(
                f"effective degrees of freedom {e:.6g} leave less than one residual degree of freedom "
                f"at sample size {data.n}"
            )
            continue
        flushed = data.family == "gaussian" and result.deviance <= 1e-16 * max(yss, 1e-300)
        dev = 0.0 if flushed else result.deviance
        if (score := data.n * dev / (data.n - e) ** 2) <= best_score:
            best, best_score = j, score
    return best, failure


def residual_deviances(dm, data, systems) -> list[float]:
    """Each Gaussian system's residual sum as the grid formed it for every point: (block, n)
    residuals y - Zc - X beta through the CSR `predict`, blocks of `_BLOCK_VALUES // n` systems."""
    size = max(1, fitting._BLOCK_VALUES // data.n)
    out = []
    for i in range(0, len(systems), size):
        block = systems[i : i + size]
        coefs, betas = np.stack([s.coef for s in block]), np.stack([s.beta for s in block])
        resid = data.y - fitting._predict(dm, data.X, coefs, betas)
        out += np.sum(resid * resid, axis=1).tolist()
    return out


def select_lambda_by_residuals(strata, spec, pen, lam=None):
    """(fits, indices): `select_lambda` choosing over the exact deviance of every grid point.

    Each stratum's grid is solved as the library solves it, then every
    Gaussian point's deviance is its residual sum (`residual_deviances`),
    and GCV chooses by `gcv_choice_by_loop` among all the points, with no
    screen. `indices` holds each stratum's chosen grid index (None for a
    given `lam`). Input errors and warnings are the library's, from its
    `_solve_grid`.
    """
    penalty_band = fitting._penalty_band(spec, pen)
    lams = None if lam is None else np.asarray([float(lam)])
    grids = []
    for i, data in enumerate(strata, 1):
        try:
            dm, solved = fitting._solve_grid(data, spec, pen, penalty_band, lams)
        except ParameterError as exc:
            if len(strata) == 1:
                raise
            raise ParameterError(f"stratum {i}: {exc}") from exc
        systems = [s for s in solved if isinstance(s, fitting._BandSystem)]
        if data.family == "gaussian" and systems:
            exact = iter(residual_deviances(dm, data, systems))
            solved = [s if isinstance(s, NumericalError) else replace(s, deviance=next(exact), margin=0.0) for s in solved]
        grids.append((data, solved))
    systems = [s for _, solved in grids for s in solved if isinstance(s, fitting._BandSystem)]
    inverses = zip(*fitting._selected_inverses(systems, penalty_band)) if systems else None
    fits, indices = [], []
    for data, solved in grids:
        sigmas, edf = {}, {}
        for j, s in enumerate(solved):
            if isinstance(s, fitting._BandSystem):
                sigmas[j], edf[j] = next(inverses)
        if lam is not None:
            index = None
            point = fitting._point(data, solved[0], sigmas[0], edf[0]) if 0 in sigmas else solved[0]
            if isinstance(point, NumericalError):
                raise point
        else:
            index, failure = gcv_choice_by_loop(data, solved, [edf.get(j, np.nan) for j in range(len(solved))])
            if index is None:
                raise NumericalError("no smoothing parameter candidate could be fit") from failure
            point = solved[index], sigmas[index], float(edf[index])
        fits.append(fitting._band_fit(data, *point, penalty_band, index))
        indices.append(index)
    return fits, indices


def eval_basis(spec, z: float) -> np.ndarray:
    """All m basis functions at a single point; zeros outside the domain."""
    if not np.isfinite(z):
        raise ParameterError(f"non-finite evaluation point {z!r}")
    out = np.zeros(spec.m)
    if z < spec.z_lo or z > spec.z_hi:
        return out
    za = np.asarray([float(z)])
    mu = find_spans_by_search(spec, za)
    out[mu[0] - spec.degree : mu[0] + 1] = _nonzero_basis(spec, za, mu)[0]
    return out


def basis_support(spec, j: int) -> tuple[float, float]:
    """Support interval of basis function j."""
    if not 0 <= j < spec.m:
        raise ParameterError(f"basis index {j} outside [0, {spec.m})")
    return float(spec.knots[j]), float(spec.knots[j + spec.degree + 1])


def cells_to_intervals(spec, cells) -> list[tuple[float, float]]:
    """Merge a boolean mask over elementary cells into disjoint covariate intervals, one cell at a time."""
    cells = np.asarray(cells, dtype=bool)
    if cells.shape != (spec.n_regions,):
        raise ParameterError("cell mask length must equal the number of regions")
    bp = spec.breakpoints
    out: list[tuple[float, float]] = []
    start = None
    for i, on in enumerate(cells):
        if on and start is None:
            start = i
        elif not on and start is not None:
            out.append((float(bp[start]), float(bp[i])))
            start = None
    if start is not None:
        out.append((float(bp[start]), float(bp[-1])))
    return out


def region(spec, k: int) -> tuple[float, float]:
    """Covariate interval whose fitted values depend on coefficients k..k+degree."""
    if not 0 <= k < spec.n_regions:
        raise ParameterError(f"region index {k} outside [0, {spec.n_regions})")
    return float(spec.knots[spec.degree + k]), float(spec.knots[spec.degree + k + 1])
