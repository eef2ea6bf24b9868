"""Penalized spline regression per stratum.

Gaussian outcomes are fit by penalized least squares, binary outcomes by
penalized IRLS. The smoothing parameter is chosen by GCV on a log-spaced
grid and then treated as fixed, or given; `select_lambda` fits all strata
of an analysis either way.

The spline coefficients c and fixed effects beta (columns X, p >= 0) solve
[[A, Zx], [Zx', X'WX]] [c; beta] = [Z'Wu; X'Wu] with Zx = Z'WX, and
A = Z'WZ + lambda S exists only as its upper band. One banded Cholesky
solve (LAPACK dpbsv) of A on [Z'Wu | Zx] gives c0 and V; the p x p
Schur complement S_x = X'WX - Zx'V = LL' gives beta, and c = c0 - V beta.
`_grid_systems` solves a lambda grid in lockstep: a block of lambdas
advances together with every per-observation array laid out as (block, n),
so one CSR product gives every IRLS weight vector's Gram band, right-hand
sides or linear predictor. A binomial lambda leaves the block when its IRLS
converges or fails, keeping its own error. A Gaussian fit is the same solve
done once, with W = I: its Gram band and Z'[y | X] are the design matrix's
unweighted `bincount` products, formed once per stratum and shared by the
grid, so it builds no IRLS operator. No lambda's result depends on its
block.
`select_lambda` sets up and solves each stratum's grid so in turn, raising
an input error at once, selects the inverses of every grid together and
chooses each stratum's point; a given lambda is a one-point grid.

The posterior covariance of c is dispersion * (A^{-1} + BB'), the border
B = V L^{-T} (Woodbury on the Schur complement of X'WX). Everything a fit
reads from it lies within A's half-bandwidth b = max(degree, penalty order)
of the diagonal: the edf, the window blocks of the covariance and the
pointwise variances of the curves. So no inverse is formed.
`selected_inverse_band` runs the Takahashi recurrence over a stack of
Cholesky factors and returns the (b+1)-band of every A^{-1} at once: every
lambda of both strata's grids in one call. A fit keeps the covariance band
(`cov_band`), A's band (`precision_band`) and B (`border`), and holds its
covariance in no other form. `covariance_block` gives the dense block of
the summed covariance on a few coefficients, which the correlation table
of `diagnose` reads, from one banded solve per fit against their unit
vectors.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dpbsv as _pbsv, dpbtrf as _pbtrf, dpbtrs as _pbtrs

from .basis import (
    BasisSpec,
    DesignMatrix,
    PenaltyMatrix,
    design_matrix,
)
from .errors import NumericalError, ParameterError

__all__ = [
    "StratumData",
    "StratumFit",
    "covariance_block",
    "select_lambda",
    "selected_inverse_band",
]

MAX_IRLS_ITER = 100
IRLS_REL_TOL = 1e-8
ETA_DIVERGENCE = 20.0
# A fixed-effect column whose residual on the unpenalized part of the smooth
# and the columns before it is below this share of its norm is not identified.
IDENTIFIABLE_REL_TOL = 1e-8
# A Schur pivot below this share of its column's norm sqrt((X'WX)_kk) is rounding:
# S_x is a difference of Gram entries, and a column the spline reproduces (x = z
# at lambda = 0, degree 2) leaves pivots of 1e-8 to 7e-8 of that norm.
SCHUR_PIVOT_REL_TOL = 1e-6
# Points of the log-spaced smoothing-parameter grid that `select_lambda` scores.
LAMBDA_GRID_POINTS = 40


@dataclass(frozen=True)
class StratumData:
    """One stratum's outcomes, smooth covariate, and fixed effects.

    `X` is the n x p fixed-effect matrix; None or no columns gives p = 0.
    """

    y: np.ndarray
    z: np.ndarray
    family: str = "gaussian"
    X: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if y.ndim != 1 or z.ndim != 1 or y.size != z.size or y.size == 0:
            raise ParameterError("y and z must be non-empty vectors of equal length")
        for name, v in (("y", y), ("z", z)):
            bad = np.flatnonzero(~np.isfinite(v))
            if bad.size:
                i = int(bad[0])
                raise ParameterError(f"{name}[{i}] = {float(v[i])!r} is not finite")
        if self.family not in ("gaussian", "binomial"):
            raise ParameterError(f"unknown family {self.family!r}")
        if self.family == "binomial" and not np.all(np.isin(y, (0.0, 1.0))):
            raise ParameterError("binomial outcomes must be 0/1")
        X = np.asarray(np.zeros((y.size, 0)) if self.X is None else self.X, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.size:
            raise ParameterError("fixed-effect matrix must be n x p")
        if not np.all(np.isfinite(X)):
            i, j = np.argwhere(~np.isfinite(X))[0]
            raise ParameterError(f"X[{i}, {j}] = {float(X[i, j])!r} is not finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class StratumFit:
    """Fitted coefficients, smoothing parameter, dispersion and posterior covariance.

    `precision_band` is the band (solveh_banded layout) of the
    unit-dispersion precision A = Z'WZ + lambda S that the fit factored,
    `border` the m x p matrix B of the fixed effects (m x 0 without any),
    and `cov_band` the upper band of the posterior covariance
    dispersion * (A^{-1} + BB') to A's half-bandwidth (None for a fit read
    from a model file, which keeps only A's band and B).
    """

    coef: np.ndarray
    beta: np.ndarray
    lam: float
    dispersion: float
    edf: float
    family: str
    deviance: float
    n_obs: int
    cov_band: np.ndarray | None = None
    precision_band: np.ndarray | None = None
    border: np.ndarray | None = field(default=None, repr=False)


def covariance_block(fits: Sequence[StratumFit], cols: np.ndarray) -> np.ndarray:
    """The dense block sum_f dispersion_f * (A_f^{-1} + B_f B_f')[cols, cols] of the fits' summed covariance.

    Per fit, one Cholesky factorization of its `precision_band` (LAPACK
    dpbtrf) and one solve (dpbtrs) against the unit vectors of `cols`: rows
    `cols` of the solution are A^{-1}[cols, cols]. Entry (i, j), i <= j, is
    taken from column j's solve and mirrored, as a band holds it. The cost
    is O(m b |cols|) per fit, and no band wider than A's is formed.
    """
    cols = np.asarray(cols)
    unit = np.zeros((fits[0].precision_band.shape[1], cols.size), order="F")
    unit[cols, np.arange(cols.size)] = 1.0
    out = np.zeros((cols.size, cols.size))
    for fit in fits:
        factor, info = _pbtrf(fit.precision_band)
        if info:
            raise _not_positive_definite(info)
        inv = _pbtrs(factor, unit)[0][cols]
        border = fit.border[cols]
        out += fit.dispersion * (np.triu(inv) + np.triu(inv, 1).T + border @ border.T)
    return out


# No library path calls this; perfbench/spans.py wraps it by attribute.
def penalized_inverse(ab: np.ndarray) -> np.ndarray:
    """Inverse of an SPD system from its upper band, which may span the whole matrix."""
    try:
        return scipy.linalg.solveh_banded(ab, np.eye(ab.shape[1]))
    except np.linalg.LinAlgError as exc:
        raise _not_positive_definite(_pbtrf(ab)[1]) from exc


def _not_positive_definite(minor: int) -> NumericalError:
    """The error of a banded system whose Cholesky factorization fails at leading minor `minor` (LAPACK's info)."""
    return NumericalError(f"penalized system is not positive definite (leading minor {minor})")


def selected_inverse_band(factors: np.ndarray) -> np.ndarray:
    """The (b+1)-band of A^{-1} for each of a stack of banded SPD systems A = U'U.

    `factors` is (L, b+1, m): the upper Cholesky factor U of each system in
    `scipy.linalg.cholesky_banded`'s upper layout. Returns an (L, b+1, m)
    stack of the inverses' upper bands in the same layout.

    Takahashi's recurrence, Sigma_ij = delta_ij / U_ii^2 - (1/U_ii) sum_k
    U_ik Sigma_kj over k = i+1..i+b (Takahashi, Fagan & Chen 1973; Rue &
    Held 2005, section 2.3), runs from the last row up and reads only
    entries within b of the diagonal: row i of the band is the b x b block
    of Sigma below and right of (i, i) times the ratios -U_ik / U_ii. All L
    systems advance together, systems on the last axis, with a fixed number
    of numpy calls per row. The band is held symmetrically, row i storing
    Sigma[i, i-b..i+b], so that every row's block is one strided view.
    Each system's result does not depend on the others in the stack.
    Each working array is released once read, so a stack passed in no other
    reference is not held beside the band store.
    """
    n_sys, rows, m = factors.shape
    b = rows - 1
    diag = factors[:, b]
    inv_sq = np.ascontiguousarray((1.0 / (diag * diag)).T)
    ratios = np.zeros((m, b, n_sys))
    reach = min(b, m - 1)  # offsets past the matrix stay zero
    for d in range(1, reach + 1):
        ratios[: m - d, d - 1] = (-factors[:, b - d, d:] / diag[:, : m - d]).T
    del factors, diag
    # Rows past m stay zero, as do the ratios that point there.
    store = np.zeros((m + b + 1, 2 * b + 1, n_sys))
    s_row, s_col, s_sys = store.strides
    # block[i][r, c] = Sigma[i+1+r, i+1+c]; below[i][d-1] = Sigma[i+d, i].
    block = as_strided(store[1:, b:], shape=(m, b, b, n_sys), strides=(s_row, s_row - s_col, s_col, s_sys))
    below = as_strided(store[1:, b - 1 :], shape=(m, b, n_sys), strides=(s_row, s_row - s_col, s_sys))
    right = store[:, b + 1 :]
    centre = store[:, b]
    for i in range(m - 1, -1, -1):
        r = ratios[i]
        s = (block[i] * r).sum(axis=1)
        right[i] = s
        below[i] = s
        centre[i] = inv_sq[i] + (r * s).sum(axis=0)
    ratios = inv_sq = r = s = None  # the loop's views of the ratios hold them too
    out = np.zeros((n_sys, b + 1, m))
    for d in range(reach + 1):
        out[:, b - d, d:] = store[: m - d, b + d].T
    return out


def _band_trace(sigma: np.ndarray, gram: np.ndarray):
    """tr(Sigma G) from the (b+1)-band of Sigma and the possibly narrower band of G, per system of a stack."""
    g = gram.shape[-2]
    weight = np.full((g, 1), 2.0)  # each off-diagonal entry stands for two
    weight[-1] = 1.0
    return np.sum(sigma[..., -g:, :] * (weight * gram), axis=(-2, -1))


def _penalty_band(spec: BasisSpec, pen: PenaltyMatrix) -> np.ndarray:
    """S's upper band at A's half-bandwidth max(degree, order)."""
    b = max(spec.degree, pen.order)
    band = np.zeros((b + 1, spec.m))
    band[b - pen.order :] = pen.band
    return band


def _band_solve(
    penalty_band: np.ndarray, lams: np.ndarray, gram: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Solve A_j sol_j = rhs_j, A_j = Z'W_jZ + lams[j] S, for a block of systems.

    `gram` is a (k, g, m) stack of `gram_band`s, or one (g, m) band shared
    by the block, possibly narrower than the penalty band; `rhs` is a
    (k, m, c) stack of c right-hand sides each, or one shared (m, c).
    Returns (ab, factors, sols, errors): A's upper bands, their upper
    Cholesky factors and the solutions, stacked over the block, and per
    system None or the NumericalError of a system that has a non-finite
    entry in A or its right-hand sides, or is not positive definite (its
    factor is then meaningless and its solutions zero). Each system is
    factored and solved by one LAPACK dpbsv call (pbtrf then pbtrs) on its
    own, so its result does not depend on the rest of the block.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite system fails below
        ab = lams[:, None, None] * penalty_band
        ab[:, ab.shape[1] - gram.shape[-2] :] += gram
    rhs = np.broadcast_to(rhs, (lams.size, *rhs.shape[-2:]))
    finite = np.isfinite(ab).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2))
    factors = np.empty_like(ab)
    sols = np.zeros(rhs.shape)
    errors = [None] * lams.size
    for j in range(lams.size):
        if not finite[j]:
            errors[j] = NumericalError(f"penalized system at lambda {float(lams[j])!r} has non-finite entries")
            continue
        factor, sol, info = _pbsv(ab[j], rhs[j])
        if info:
            errors[j] = _not_positive_definite(info)
            continue
        factors[j] = factor
        sols[j] = sol
    return ab, factors, sols, errors


def _schur_factors(schur: np.ndarray, scale: np.ndarray, errors: list) -> np.ndarray:
    """Lower Cholesky factors of a (k, p, p) stack of S_x; identity where a system fails, setting its error.

    A pivot below SCHUR_PIVOT_REL_TOL times `scale` (sqrt(diag X'WX), (k, p) or (p,)) fails too.
    """
    low = np.broadcast_to(np.eye(schur.shape[-1]), schur.shape).copy()
    scale = np.broadcast_to(scale, schur.shape[:-1])
    for j, s in enumerate(schur):
        if errors[j] is None:
            try:
                factor = np.linalg.cholesky(s)
            except np.linalg.LinAlgError:
                factor = None
            if factor is None or np.any(np.diagonal(factor) < SCHUR_PIVOT_REL_TOL * scale[j]):
                errors[j] = NumericalError("penalized system is not positive definite (fixed-effect Schur complement)")
            else:
                low[j] = factor
    return low


def _eliminate_border(sols: np.ndarray, zr: np.ndarray, xr: np.ndarray, errors: list) -> tuple:
    """(coefs, betas, borders) of a block of bordered systems from their band solves.

    `sols` is the (k, m, 1+p) stack [c0 | V] = A^{-1} Z'W[u | X]; `zr` =
    Z'W[u | X] and `xr` = X'W[u | X] are stacked alike or shared. With
    S_x = X'WX - Zx'V = LL' and g = L^{-1} (X'Wu - Zx'c0): beta = L^{-T} g,
    the border B = V L^{-T} and coef = c0 - B g. Every product and
    factorization treats each system of the stack on its own.
    """
    c0, v = sols[..., :1], sols[..., 1:]
    if not v.shape[-1]:  # no fixed effects: coef = c0, with no per-iteration cost
        return sols[..., 0], np.zeros((sols.shape[0], 0)), v
    zx_t = np.swapaxes(zr[..., 1:], -1, -2)
    xwx = xr[..., 1:]
    low = _schur_factors(xwx - zx_t @ v, np.sqrt(np.diagonal(xwx, axis1=-2, axis2=-1)), errors)
    inv = np.linalg.inv(low)
    inv_t = np.swapaxes(inv, -1, -2)
    g = inv @ (xr[..., :1] - zx_t @ c0)
    borders = v @ inv_t
    return (c0 - borders @ g)[..., 0], (inv_t @ g)[..., 0], borders


def _cross_products(dm: DesignMatrix, X: np.ndarray, u: np.ndarray, w: np.ndarray | None = None) -> tuple:
    """(Z'W[u | X], X'W[u | X]), W = diag(w): (m, 1+p) and (p, 1+p) for (n,) u and w, stacked for (k, n).

    Without w (a Gaussian fit, W = I) the Z' side is `DesignMatrix.rhs`'s
    `bincount` per column; with it, one CSR product (`weighted_rhs`) forms
    the Z' side of every stacked column.
    """
    if w is None:
        cols = np.column_stack([u, X])
        return dm.rhs(cols), X.T @ cols
    lead, (n, p) = u.shape[:-1], X.shape
    cols = np.empty((*lead, n, 1 + p))
    np.multiply(w, u, out=cols[..., 0])
    np.multiply(w[..., None], X, out=cols[..., 1:])
    zr = dm.weighted_rhs(np.moveaxis(cols, -2, 0).reshape(n, -1)).reshape(dm.m, *lead, 1 + p)
    return np.moveaxis(zr, 0, -2), X.T @ cols


def _predict(dm: DesignMatrix, X: np.ndarray, coefs: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """The (k, n) linear predictors Z coef + X beta of a (k, m) and (k, p) stack."""
    eta = dm.predict(coefs)
    for j in range(X.shape[1]):
        eta += betas[:, j : j + 1] * X[:, j]
    return eta


def _check_identifiable(dm: DesignMatrix, X: np.ndarray, order: int) -> bool:
    """Whether the data identify the smooth's unpenalized part; ParameterError for an unidentified fixed effect.

    The penalty leaves free the null space N of the order-q difference
    penalty, the polynomials of degree < q in the coefficient index. The
    diagonal of the QR factor of [ZN | X] holds each column's residual on
    the columns before it. Unless the q residuals of ZN all exceed
    IDENTIFIABLE_REL_TOL times their largest, ZN is short of rank q and
    A = Z'WZ + lambda S is singular at every lambda, as when every z is one
    value. beta is identified unless some Xa equals Zc with Sc = 0.
    """
    null = np.vander(np.linspace(-1.0, 1.0, dm.m), order, increasing=True)
    r = np.linalg.qr(np.hstack([dm.predict(null.T).T, X]), mode="r")
    diag = np.abs(np.diagonal(r))
    if X.shape[1]:
        resid = np.zeros(X.shape[1])
        resid[: diag[order:].size] = diag[order:]
        rel = resid / np.maximum(np.linalg.norm(X, axis=0), 1e-300)
        for k in np.flatnonzero(rel < IDENTIFIABLE_REL_TOL)[:1]:
            raise ParameterError(
                f"fixed-effect column {k + 1} is not identified: its relative residual on the unpenalized "
                f"part of the smooth and the columns before it is {rel[k]:.2e}, below {IDENTIFIABLE_REL_TOL:g}"
            )
    smooth = diag[:order]
    return smooth.size == order and bool(smooth.min() > IDENTIFIABLE_REL_TOL * smooth.max())


def _sum_of_squares(data: StratumData) -> float:
    """y'y, the scale of the rounding-level deviance (`_flushed`); a ParameterError when it
    overflows, or falls below the normal range with some y non-zero (every fit would read as exact)."""
    with np.errstate(over="ignore"):
        yss = float(data.y @ data.y)
    if not np.isfinite(yss):
        raise ParameterError("the sum of squared outcomes y'y overflows; rescale y")
    if yss < np.finfo(float).tiny and np.any(data.y != 0):
        raise ParameterError("the sum of squared outcomes y'y underflows; rescale y")
    return yss


def _dispersion(data: StratumData, deviance: float, edf: float, yss: float) -> float:
    """RSS / (n - edf) for a Gaussian fit, 1 for a binomial one.

    0 for a rounding-level RSS (`_flushed`, given y'y as `yss`).
    """
    if data.family == "binomial":
        return 1.0
    if _flushed(data, deviance, yss):
        return 0.0
    return deviance / (data.n - edf)


def _binomial_deviance(y: np.ndarray, mu: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Deviance of 0/1 outcomes, one per row of mu: the saturated terms y log y vanish.

    -2 sum log|mu + (y - 1)|, branch-free and exactly the terms -log mu
    where y = 1 and -log(1 - mu) where y = 0: mu + 0 is mu, and mu - 1 is
    -(1 - mu) bit for bit, as IEEE subtraction rounds sign-symmetrically.
    Summing the logs and negating after equals summing their negations,
    for the same reason. `out`, shaped like mu and possibly mu itself,
    holds the terms.
    """
    terms = np.add(mu, y - 1.0, out=out)
    np.abs(terms, out=terms)
    np.log(terms, out=terms)
    return -2.0 * np.sum(terms, axis=-1)


def _logistic(eta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-eta)) written into `out`, shaped like eta.

    numpy's vectorized exp rounds differently from the libm exp behind
    scipy's expit, so this is within 4 ulp of expit, not equal to it; it is
    0 and 1 exactly where exp(-eta) overflows and underflows, as expit is.
    Each element is computed alone, so a row's values do not depend on the
    rows beside it.
    """
    np.negative(eta, out=out)
    with np.errstate(over="ignore"):  # exp(-eta) = inf gives mu = 0
        np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


def _start(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(mu, eta, deviance) from which penalized logistic IRLS starts."""
    mu = (y + 0.5) / 2.0
    return mu, np.log(mu / (1.0 - mu)), float(_binomial_deviance(y, mu))


def _converged(new_deviance, deviance):
    return np.abs(new_deviance - deviance) <= IRLS_REL_TOL * (np.abs(deviance) + 1e-12)


@dataclass(frozen=True)
class _BandSystem:
    """A fit solved at `lam` up to its selected inverse.

    `gram` is the band of Z'WZ at convergence, `factor` the Cholesky factor
    of A = Z'WZ + lam S and `border` the m x p matrix B of the fixed
    effects; `n_iter` counts the solves (1 for a Gaussian fit, the IRLS
    iterations for a binomial one). A's band is summed again for the one
    fit that keeps it (`_precision_band`), so a grid holds no band of it.
    """

    lam: float
    coef: np.ndarray
    beta: np.ndarray
    deviance: float
    gram: np.ndarray
    factor: np.ndarray
    border: np.ndarray
    n_iter: int


# Systems advanced together: a block of _BLOCK_VALUES // n lambdas keeps
# each (block, n) array near 2^16 values. Blocks of 16 select a binomial
# n = 4000 stratum faster than blocks of 8 or of the whole 40-point grid,
# and a whole-grid block would hold about 60 MB for a binomial stratum of
# n = 20000 at m = 2000, twice the no-dense-array bound of 8 m^2 bytes.
_BLOCK_VALUES = 1 << 16


def _grid_systems(dm: DesignMatrix, data: StratumData, penalty_band: np.ndarray, lams: np.ndarray) -> list:
    """Each lambda's `_BandSystem`, or the NumericalError its fit raised.

    The lambdas are solved in blocks, every system of a block advanced
    together (`_gaussian_block`, `_binomial_block`). A system's result does
    not depend on the block it was solved in.
    """
    size = max(1, _BLOCK_VALUES // data.n)
    blocks = [lams[i : i + size] for i in range(0, lams.size, size)]
    if data.family == "gaussian":
        shared = dm.gram_band(), *_cross_products(dm, data.X, data.y)
        solved = [_gaussian_block(dm, data, penalty_band, block, *shared) for block in blocks]
    else:
        solved = [_binomial_block(dm, data, penalty_band, block) for block in blocks]
    return [out for block in solved for out in block]


def _gaussian_block(
    dm: DesignMatrix, data: StratumData, penalty_band: np.ndarray, lams: np.ndarray, gram, zr, xr
) -> list:
    """Penalized least squares at each lambda: one solve with w = 1, Z'Z, Z'[y | X] and X'[y | X] shared."""
    _, factors, sols, out = _band_solve(penalty_band, lams, gram, zr)
    coefs, betas, borders = _eliminate_border(sols, zr, xr, out)
    ok = np.flatnonzero([e is None for e in out])
    resid = data.y - _predict(dm, data.X, coefs[ok], betas[ok])
    deviance = np.sum(resid * resid, axis=1)
    for j, dev in zip(ok, deviance):
        out[j] = _BandSystem(float(lams[j]), coefs[j], betas[j], float(dev), gram, factors[j], borders[j], 1)
    return out


def _binomial_block(dm: DesignMatrix, data: StratumData, penalty_band: np.ndarray, lams: np.ndarray) -> list:
    """Penalized logistic IRLS at each lambda, the block's systems in lockstep.

    Every per-observation array is (live, n), one row per lambda still
    iterating. A lambda leaves the block when it converges, fails to
    factor, diverges or runs out of iterations, keeping its own deviance
    trace and error; the first iteration's weights are shared by all. The
    weights, working response, mean and deviance terms of each step are
    written into four buffers allocated once per block, viewed at mu's
    shape. A converged system keeps copies of its rows, not views that
    would hold the whole iteration's stacks.
    """
    y, X = data.y, data.X
    mu, eta, start = _start(y)
    deviance = np.full(lams.size, start)
    traces = [[start] for _ in lams]
    out: list = [None] * lams.size
    live = np.arange(lams.size)
    buffers = np.empty((4, lams.size * data.n))
    for n_iter in range(1, MAX_IRLS_ITER + 1):
        w, u = (buf[: mu.size].reshape(mu.shape) for buf in buffers[:2])
        np.subtract(1.0, mu, out=w)
        np.multiply(mu, w, out=w)
        np.maximum(w, 1e-10, out=w)
        np.subtract(y, mu, out=u)
        np.divide(u, w, out=u)
        np.add(eta, u, out=u)
        gram = dm.gram_band(w)
        gram = np.broadcast_to(gram, (live.size, *gram.shape[-2:]))
        zr, xr = _cross_products(dm, X, u, w)
        _, factors, sols, errors = _band_solve(penalty_band, lams[live], gram, zr)
        coefs, betas, borders = _eliminate_border(sols, zr, xr, errors)
        if any(e is not None for e in errors):
            for j, error in enumerate(errors):
                if error is not None:
                    out[live[j]] = error
            ok = np.flatnonzero([e is None for e in errors])
            live, deviance, gram, factors, coefs, betas, borders = (
                a[ok] for a in (live, deviance, gram, factors, coefs, betas, borders)
            )
        eta = _predict(dm, X, coefs, betas)
        diverged = np.maximum(eta.max(axis=1), -eta.min(axis=1)) > ETA_DIVERGENCE
        mu = _logistic(eta, buffers[2, : eta.size].reshape(eta.shape))
        terms = buffers[3, : mu.size].reshape(mu.shape)
        new_deviance = _binomial_deviance(y, np.clip(mu, 1e-12, 1.0 - 1e-12, out=terms), out=terms)
        converged = _converged(new_deviance, deviance) & ~diverged
        for j, (i, dev) in enumerate(zip(live.tolist(), new_deviance.tolist())):
            traces[i].append(dev)
            if diverged[j]:
                out[i] = NumericalError("linear predictor diverged (complete or quasi-complete separation)")
            elif converged[j]:
                coef, beta, gram_j, factor, border = (a[j].copy() for a in (coefs, betas, gram, factors, borders))
                out[i] = _BandSystem(float(lams[i]), coef, beta, dev, gram_j, factor, border, n_iter)
        going = ~(diverged | converged)
        if going.all():
            deviance = new_deviance
        else:
            live, deviance, eta, mu = live[going], new_deviance[going], eta[going], mu[going]
        if not live.size:
            return out
    for i in live:
        tail = traces[i][-4:]
        out[i] = NumericalError(f"IRLS failed to converge in {MAX_IRLS_ITER} iterations; deviance trace tail {tail}")
    return out


def _border_bands(borders: np.ndarray, b: int) -> np.ndarray:
    """The upper (b+1)-band of BB' for each of a (k, m, p) stack of borders."""
    k, m, _ = borders.shape
    out = np.zeros((k, b + 1, m))
    for d in range(min(b, m - 1) + 1):
        out[:, b - d, d:] = np.sum(borders[:, : m - d] * borders[:, d:], axis=-1)
    return out


def _selected_inverses(systems: list[_BandSystem], penalty_band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, edf): the unit-dispersion covariance band and the edf of each solved system, stacked in order.

    One `selected_inverse_band` call gives every band of A^{-1} and one
    `_band_trace` every tr(A^{-1} Z'WZ). A system with fixed effects has
    covariance band A^{-1} + R, R the band of BB', and as tr(A^{-1} A) = m,
    edf = p + tr(A^{-1} Z'WZ) - lambda tr(R S); the systems are grouped by p
    for R, since the strata of one analysis may have different columns, and
    each group's R is added to its bands once its edf has used it.
    """
    sigma = selected_inverse_band(np.stack([s.factor for s in systems]))
    edf = _band_trace(sigma, np.stack([s.gram for s in systems]))
    groups: dict[int, list[int]] = {}
    for k, s in enumerate(systems):
        if s.beta.size:  # no border: R = 0
            groups.setdefault(s.beta.size, []).append(k)
    for p, group in groups.items():
        outer = _border_bands(np.stack([systems[k].border for k in group]), sigma.shape[1] - 1)
        lams = np.asarray([systems[k].lam for k in group])
        edf[group] = p + edf[group] - lams * _band_trace(outer, penalty_band)
        sigma[group] += outer
    return sigma, edf


def _precision_band(system: _BandSystem, penalty_band: np.ndarray) -> np.ndarray:
    """A's upper band, lam S + Z'WZ, summed as `_band_solve` sums it."""
    ab = system.lam * penalty_band
    ab[ab.shape[0] - system.gram.shape[0] :] += system.gram
    return ab


def _band_fit(
    data: StratumData, system: _BandSystem, band: np.ndarray, edf: float, yss: float, penalty_band: np.ndarray
) -> StratumFit:
    """The fit of a solved system, given its unit-dispersion covariance band, its edf, y'y (`yss`) and S's band.

    A NumericalError naming lambda and the quantity when the coefficients,
    deviance, dispersion or covariance band are not finite, as when a huge
    dispersion times the band overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite quantity raises below
        dispersion = _dispersion(data, system.deviance, edf, yss)
        cov_band = dispersion * band
    quantities = (
        ("coefficients", np.concatenate([system.coef, system.beta])),
        ("deviance", system.deviance),
        ("dispersion", dispersion),
        ("covariance band", cov_band),
    )
    for name, value in quantities:
        if not np.isfinite(value).all():
            raise NumericalError(f"fit at lambda {system.lam!r} has a non-finite {name}")
    return StratumFit(
        coef=system.coef,
        beta=system.beta,
        lam=system.lam,
        dispersion=dispersion,
        edf=edf,
        family=data.family,
        deviance=system.deviance,
        n_obs=data.n,
        cov_band=cov_band,
        precision_band=_precision_band(system, penalty_band),
        border=system.border,
    )


def _solve_grid(
    data: StratumData, spec: BasisSpec, pen: PenaltyMatrix, penalty_band: np.ndarray, lams: np.ndarray | None
) -> tuple[float, list]:
    """(yss, solved): one stratum's y'y and, per lambda of its ascending grid (`lams`, or else
    `default_lambda_grid`), its `_BandSystem` or the NumericalError its fit raised.

    The set-up checks that every z lies in the basis domain (where its row
    is not zero) and y'y, warns when n <= m, then builds the design matrix,
    the grid and the fixed-effect check; a ParameterError of any of them
    raises. `_grid_systems` solves every lambda (a Gaussian one by one
    banded solve, a binomial one by IRLS) for its coefficients and deviance
    only, and every lambda fails where the data do not identify the smooth.
    """
    outside = np.flatnonzero((data.z < spec.z_lo) | (data.z > spec.z_hi))
    if outside.size:
        raise ParameterError(
            f"{outside.size} rows have z outside the domain "
            f"[{spec.z_lo!r}, {spec.z_hi!r}], the first z = {float(data.z[outside[0]])!r}"
        )
    yss = _sum_of_squares(data)
    if data.n <= spec.m:  # stacklevel 3: the caller of `select_lambda`
        warnings.warn(
            f"sample size n={data.n} does not exceed basis dimension m={spec.m}; the fit may be poorly determined",
            stacklevel=3,
        )
    dm = design_matrix(spec, data.z)
    lams = default_lambda_grid(dm, pen) if lams is None else lams
    if not _check_identifiable(dm, data.X, pen.order):
        singular = NumericalError(
            f"penalized system is not positive definite at any lambda: the data do not identify "
            f"the polynomials of degree < {pen.order} that the penalty leaves free"
        )
        return yss, [singular] * lams.size
    return yss, _grid_systems(dm, data, penalty_band, lams)


def _failed(data: StratumData, points: list) -> np.ndarray:
    """Whether each grid point (system, sigma, edf) fails: its system did not solve, or its fit leaves n - edf < 1."""
    return np.asarray([not isinstance(s, _BandSystem) or data.n - e < 1.0 for s, _, e in points], dtype=bool)


def _point_error(data: StratumData, point: tuple) -> NumericalError:
    """The error of a failing grid point (system, sigma, edf): its fit's own, or less than one
    residual degree of freedom, n - edf < 1, by which its dispersion and GCV score would divide."""
    result, _, edf = point
    if isinstance(result, NumericalError):
        return result
    return NumericalError(
        f"effective degrees of freedom {float(edf):.6g} leave less than one residual degree of freedom "
        f"at sample size {data.n}"
    )


def _grid_scale(gram_band: np.ndarray, penalty_band: np.ndarray) -> float:
    """tr(Z'Z)/tr(S) from the bands' diagonals: the lambda at which data and penalty weigh alike."""
    return float(gram_band[-1].sum()) / float(penalty_band[-1].sum())


def default_lambda_grid(dm: DesignMatrix, pen: PenaltyMatrix) -> np.ndarray:
    """Ascending log-spaced grid spanning [1e-4, 1e4] times tr(Z'Z)/tr(S) (> 0: rows in the domain sum to 1)."""
    scale = _grid_scale(dm.gram_band(), pen.band)
    return np.geomspace(1e-4 * scale, 1e4 * scale, LAMBDA_GRID_POINTS)


def _flushed(data: StratumData, deviance, yss: float):
    """Whether a deviance (or each of an array of them) is a Gaussian fit's rounding-level
    residual, at most 1e-16 y'y (`yss`): an exact fit."""
    return (data.family == "gaussian") & (deviance <= 1e-16 * max(yss, 1e-300))


def _gcv_scores(data: StratumData, deviance: np.ndarray, edf: np.ndarray, yss: float) -> np.ndarray:
    """n * deviance / (n - edf)^2 per grid point, with rounding-level Gaussian deviance read as zero.

    `float_power` squares through libm's pow, as Python's float ** does. A
    point that failed, or leaves n - edf < 1, scores whatever the division
    gives; `_gcv_choice` skips it.
    """
    dev = np.where(_flushed(data, deviance, yss), 0.0, deviance)
    with np.errstate(divide="ignore", invalid="ignore"):
        return data.n * dev / np.float_power(data.n - edf, 2)


def _gcv_choice(data: StratumData, yss: float, points: list) -> int:
    """Index of the grid point (system, sigma, edf) minimizing GCV, ties going to the larger lambda.

    A point whose fit failed or leaves n - edf < 1 is skipped; when every
    one is, the error is raised from the last failing point's.
    """
    deviance = np.asarray([s.deviance if isinstance(s, _BandSystem) else np.nan for s, _, _ in points])
    failed = _failed(data, points)
    scores = _gcv_scores(data, deviance, np.asarray([e for _, _, e in points], dtype=float), yss)
    candidate = ~failed & (scores <= np.inf)
    if not candidate.any():
        failures = np.flatnonzero(failed)
        cause = _point_error(data, points[failures[-1]]) if failures.size else None
        raise NumericalError("no smoothing parameter candidate could be fit") from cause
    best = scores[candidate].min()
    return int(np.flatnonzero(candidate & (scores == best))[-1])


def select_lambda(
    strata: Sequence[StratumData], spec: BasisSpec, pen: PenaltyMatrix, lam: float | None = None
) -> list[StratumFit]:
    """Each stratum's fit at the given smoothing parameter `lam`, or else at the one minimizing
    GCV over its `default_lambda_grid`.

    `strata` are the StratumData of one analysis, sharing the basis and
    penalty; the fits come back in their order. GCV is n * deviance /
    (n - edf)^2. Deviance at the rounding level is treated as an exact fit,
    so ties resolve toward the heaviest smoothing. A grid point whose fit
    fails is skipped; when every one fails, the error is raised from the
    largest lambda's. A given `lam` is a one-point grid, whose failure
    raises its own error. Each fit is the one computed at its lambda
    (`fit.lam`), which is then held fixed downstream.

    Each stratum is set up and its grid solved in turn (`_solve_grid`); an
    input error (ParameterError), such as z outside the basis domain, raises
    at once, naming its stratum by position, from 1, when there are several.
    So every stratum's input error and warning comes before any stratum's
    fitting failure. One selected inversion over every grid's solved systems
    then gives each point, in order, its (sigma, edf), or (None, NaN) where
    its fit failed, and each stratum's point is chosen.
    """
    if lam is not None and not (np.isfinite(lam) and lam >= 0):
        raise ParameterError(f"smoothing parameter must be finite and >= 0, got {float(lam)!r}")
    lams = None if lam is None else np.asarray([float(lam)])
    penalty_band = _penalty_band(spec, pen)
    grids = []
    for i, data in enumerate(strata, 1):
        try:
            grids.append((data, *_solve_grid(data, spec, pen, penalty_band, lams)))
        except ParameterError as exc:
            if len(strata) == 1:
                raise
            raise ParameterError(f"stratum {i}: {exc}") from exc
    systems = [s for _, _, solved in grids for s in solved if isinstance(s, _BandSystem)]
    inverses = zip(*_selected_inverses(systems, penalty_band)) if systems else None
    fits = []
    for data, yss, solved in grids:
        points = [(s, *next(inverses)) if isinstance(s, _BandSystem) else (s, None, np.nan) for s in solved]
        j = _gcv_choice(data, yss, points) if lam is None else 0
        if _failed(data, points)[j]:  # only a given lambda's point; GCV skips failing ones
            raise _point_error(data, points[j])
        system, sigma, edf = points[j]
        fits.append(_band_fit(data, system, sigma, float(edf), yss, penalty_band))
    return fits
