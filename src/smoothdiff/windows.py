"""Sliding-window chi-square tests of region-wise equality of two smooths.

Knot-defined region k depends on the w = degree+1 adjacent coefficients
k..k+degree. Its statistic is T_k = d_k' V_k^{-1} d_k, the quadratic form of
the coefficient-difference window d_k against the w x w diagonal block V_k
of the summed covariance V1 + V2, referred to a chi-square with w degrees of
freedom. Its inputs are d and the upper band of V alone, so this module knows
no fit: `window_statistics` gathers the blocks from V's band, factors every
block in one batched Cholesky call and takes T_k = ||L_k^{-1} d_k||^2. Its
p-value is p_k = Q(w/2, T_k/2), the regularized upper incomplete gamma,
from `scipy.special.chdtrc`: the function `scipy.stats.chi2.sf` evaluates,
without importing `scipy.stats`, which would be about half of the CLI's
start-up time and a third of its memory.
The dependence diagnostics report the correlation of one statistic with
each of a vector of others (`window_stat_correlation`). Each covariance
needs the two windows' blocks and the w x w cross block between them, all
read from a dense block of V on the coefficients the windows cover; the
windows share the batched factorization of T's kernel.

`sliding_inverses` is the incremental scheme of the method: each window's
inverse comes from its predecessor's by deleting the leading row/column and
appending the new trailing one, with one factorization per re-anchor
segment. No analysis calls it; the acceptance suite checks its exactness
and factorization count, and the tests check the batched kernel against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .basis import BasisSpec
from .errors import NumericalError, ParameterError
from .toeplitz import cov_quadratic_forms

__all__ = [
    "WindowTestSeries",
    "SlidingInverses",
    "sliding_inverses",
    "window_statistics",
    "window_stat_correlation",
]

REANCHOR_EVERY = 64


@dataclass(frozen=True)
class WindowTestSeries:
    """Sliding-window statistics and their p-values; window k tests region k of `spec`."""

    spec: BasisSpec
    T: np.ndarray
    p: np.ndarray

    @property
    def n_windows(self) -> int:
        return self.T.size


@dataclass
class SlidingInverses:
    """Window inverses plus the count of full factorizations performed."""

    inverses: list[np.ndarray]
    n_factorizations: int

    def __len__(self) -> int:
        return len(self.inverses)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.inverses[k]

    def __iter__(self):
        return iter(self.inverses)


def _direct_inverse(block: np.ndarray, k: int) -> np.ndarray:
    try:
        chol = np.linalg.cholesky(block)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"window {k} covariance is not positive definite") from exc
    half = np.linalg.solve(chol, np.eye(block.shape[0]))
    return half.T @ half


# No analysis calls this; perfbench/spans.py wraps it by attribute.
def sliding_inverses(
    v: np.ndarray,
    w: int,
    reanchor: int | None = REANCHOR_EVERY,
) -> SlidingInverses:
    """Inverses of every w x w diagonal window of a symmetric matrix.

    Only the first window is factorized; each subsequent inverse comes from
    a delete-leading/append-trailing update costing O(w^2). Every `reanchor`
    windows the inverse is recomputed directly to cap error accumulation
    (None disables re-anchoring).
    """
    v = np.asarray(v, dtype=float)
    m = v.shape[0]
    if v.ndim != 2 or v.shape[1] != m:
        raise ParameterError("covariance must be a square matrix")
    if not 1 <= w <= m:
        raise ParameterError(f"window width {w} outside [1, {m}]")
    n_windows = m - w + 1
    inverses: list[np.ndarray] = []
    n_fact = 0
    inv = _direct_inverse(v[:w, :w], 0)
    n_fact += 1
    inverses.append(inv)
    for k in range(1, n_windows):
        if reanchor and k % reanchor == 0:
            inv = _direct_inverse(v[k : k + w, k : k + w], k)
            n_fact += 1
            inverses.append(inv)
            continue
        # Delete the leading row/column: the trailing (w-1) block of the
        # previous inverse minus the rank-one part held by the deleted entry.
        core = inv[1:, 1:] - np.outer(inv[1:, 0], inv[0, 1:]) / inv[0, 0]
        # Append the new trailing row/column via its Schur complement.
        b_new = v[k : k + w - 1, k + w - 1]
        d_new = v[k + w - 1, k + w - 1]
        u = core @ b_new
        gamma = d_new - b_new @ u
        if gamma <= 0 or not np.isfinite(gamma):
            raise NumericalError(f"window {k} covariance is not positive definite")
        inv = np.empty((w, w))
        inv[: w - 1, : w - 1] = core + np.outer(u, u) / gamma
        inv[: w - 1, w - 1] = -u / gamma
        inv[w - 1, : w - 1] = -u / gamma
        inv[w - 1, w - 1] = 1.0 / gamma
        inverses.append(inv)
    return SlidingInverses(inverses=inverses, n_factorizations=n_fact)


def _cholesky(blocks: np.ndarray, windows) -> np.ndarray:
    """Cholesky factors of the stacked w x w blocks of `windows`, by one batched call."""
    try:
        return np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        # The batched call does not say which block failed; name the first.
        for k, block in zip(windows, blocks):
            _direct_inverse(block, k)
        raise


def _window_series(spec: BasisSpec, delta: np.ndarray, blocks: np.ndarray) -> WindowTestSeries:
    """Statistics and p-values from the stacked w x w window blocks V_k."""
    w = spec.degree + 1
    chol = _cholesky(blocks, range(spec.n_regions))
    d = delta[np.arange(spec.n_regions)[:, None] + np.arange(w)]
    z = np.empty_like(d)
    for i in range(w):
        z[:, i] = (d[:, i] - np.sum(chol[:, i, :i] * z[:, :i], axis=1)) / chol[:, i, i]
    t = np.sum(z * z, axis=1)
    # chdtrc equals chi2.sf bit for bit for T >= 0 and NaN; they differ only at
    # T < 0 (chdtrc NaN, chi2.sf 1), which a sum of squares cannot reach.
    return WindowTestSeries(spec=spec, T=t, p=chdtrc(w, t))


def _band_entries(band: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """V[rows, cols] (broadcast index arrays) from the upper band of symmetric V.

    V[i, j] is held in row u - |i - j| of the band at column max(i, j), u
    the band's offset; every |i - j| must be at most u.
    """
    u = band.shape[0] - 1
    return band[u - np.abs(rows - cols), np.maximum(rows, cols)]


def _check_band(spec: BasisSpec, v_band: np.ndarray, reach: int) -> None:
    """Raise unless `v_band` is an upper band over m columns that reaches offset `reach`."""
    if v_band.ndim != 2 or v_band.shape[1] != spec.m or v_band.shape[0] <= reach:
        raise ParameterError(
            f"covariance band of shape {v_band.shape} does not reach offset {reach} at m={spec.m}"
        )


def window_statistics(delta: np.ndarray, v_band: np.ndarray, spec: BasisSpec) -> WindowTestSeries:
    """Quadratic-form statistics and chi-square p-values for every region.

    T_k = d_k' V_k^{-1} d_k over the windows d_k of width w = degree+1 of the
    coefficient difference `delta`. `v_band` is the upper band of V = V1 + V2,
    the summed covariance of the two fits, to an offset of at least degree,
    so no m x m matrix is formed; the w x w blocks V_k are gathered from it,
    stacked and factored by one batched Cholesky call, V_k = L_k L_k', and
    forward substitution over the w rows, all windows at once, gives
    z_k = L_k^{-1} d_k and T_k = ||z_k||^2. p-values use the chi-square
    survival function with w degrees of freedom.
    """
    if delta.shape != (spec.m,):
        raise ParameterError(f"coefficient difference of shape {delta.shape} does not match m={spec.m}")
    _check_band(spec, v_band, spec.degree)
    idx = np.arange(spec.n_regions)[:, None] + np.arange(spec.degree + 1)
    blocks = _band_entries(v_band, idx[:, :, None], idx[:, None, :])
    return _window_series(spec, delta, blocks)


def window_stat_correlation(v_block: np.ndarray, degree: int, k: int, k2: np.ndarray) -> np.ndarray:
    """Corr(T_k, T_j) under the fitted model for every window index j of the vector `k2`.

    `v_block` is the dense block of V = V1 + V2, the summed covariance of the
    two fits, on consecutive coefficients; window j covers its rows
    j..j+degree, so windows are numbered from the block's first coefficient.
    The coefficient-difference windows are jointly Gaussian with covariance
    blocks drawn from V, and T_j is a quadratic form in its window precision
    P_j = V_j^{-1}, so Cov(T_k, T_j) = 2 tr(P_k V_kj P_j V_jk)
    (`cov_quadratic_forms`). The w x w windows V_j and cross blocks V_kj are
    each gathered by one indexing of the block, the windows factored by one
    batched Cholesky, and every covariance and every variance come from one
    stacked `cov_quadratic_forms` call each.
    """
    k2 = np.asarray(k2)
    if v_block.ndim != 2 or v_block.shape[0] != v_block.shape[1]:
        raise ParameterError(f"covariance block of shape {v_block.shape} is not square")
    n_windows = v_block.shape[0] - degree
    if not k2.size:
        raise ParameterError("the vector of other windows k2 is empty")
    if not (0 <= k < n_windows and np.all((0 <= k2) & (k2 < n_windows))):
        raise ParameterError(f"window indices must lie in [0, {n_windows})")
    windows = np.r_[k, k2]
    rows = windows[:, None] + np.arange(degree + 1)
    blocks = v_block[rows[:, :, None], rows[:, None, :]]
    half = np.linalg.solve(_cholesky(blocks, windows), np.eye(rows.shape[1]))
    inv = np.swapaxes(half, 1, 2) @ half
    precisions = 0.5 * (inv + np.swapaxes(inv, 1, 2))
    variances = cov_quadratic_forms(precisions, precisions, blocks)
    cross = v_block[rows[0, :, None], rows[1:, None, :]]
    covariances = cov_quadratic_forms(precisions[0], precisions[1:], cross)
    return covariances / np.sqrt(variances[0] * variances[1:])
