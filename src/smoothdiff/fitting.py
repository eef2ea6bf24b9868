"""Penalized spline regression per stratum.

Gaussian outcomes are fit by penalized least squares, binary outcomes by
penalized IRLS. The smoothing parameter is chosen by GCV on a log-spaced
grid (`select_lambda`) and then treated as fixed, or given (`fit_stratum`).

Without fixed effects A = Z'WZ + lambda S exists only as its upper band:
`_banded_solve` builds it and factors it by one banded Cholesky for the
coefficients. Everything a fit reads from A^{-1} lies within A's
half-bandwidth b = max(degree, penalty order) of the diagonal: the edf
tr(A^{-1} Z'WZ), the window blocks of the covariance and the pointwise
variances of the curves. So no inverse is formed. `selected_inverse_band`
runs the Takahashi recurrence over a stack of Cholesky factors and returns
the (b+1)-band of every A^{-1} at once: the whole lambda grid in one call,
or the single lambda of `fit_stratum`. A fit keeps that band scaled by the
dispersion (`cov_band`) and A's band (`precision_band`), from which
`band_covariance` builds the dense posterior covariance dispersion * A^{-1}
on request (`fit.cov`).

With fixed effects the block system is solved densely, and the covariance
inverts the Schur complement of the fixed-effect block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import as_strided
from scipy.special import expit

from .basis import (
    BasisSpec,
    DesignMatrix,
    PenaltyMatrix,
    band_form,
    design_matrix,
    expand_band,
)
from .errors import NumericalError, ParameterError

__all__ = [
    "StratumData",
    "StratumFit",
    "band_covariance",
    "fit_stratum",
    "select_lambda",
    "selected_inverse_band",
]

MAX_IRLS_ITER = 100
IRLS_REL_TOL = 1e-8
ETA_DIVERGENCE = 20.0


@dataclass(frozen=True)
class StratumData:
    """One stratum's outcomes, smooth covariate, and optional fixed effects."""

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
        X = self.X
        if X is not None:
            X = np.asarray(X, dtype=float)
            if X.ndim != 2 or X.shape[0] != y.size:
                raise ParameterError("fixed-effect matrix must be n x p")
            if X.shape[1] == 0:
                X = None
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return 0 if self.X is None else self.X.shape[1]


@dataclass(frozen=True)
class StratumFit:
    """Fitted coefficients, smoothing parameter, dispersion and posterior covariance.

    Without fixed effects a fit holds two bands in solveh_banded layout:
    `cov_band`, the upper band of the posterior covariance dispersion *
    A^{-1} to A's half-bandwidth, and `precision_band`, the band of the
    unit-dispersion precision A = Z'WZ + lambda S that the fit factored.
    `cov`, the dense covariance, is built on request as
    `band_covariance(precision_band, dispersion)`. A fit with fixed
    effects, whose covariance inverts a dense Schur complement, or one read
    from a dense model file, stores that matrix as `dense_cov` instead.
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
    dense_cov: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def cov(self) -> np.ndarray:
        """The dense m x m posterior covariance."""
        if self.dense_cov is not None:
            return self.dense_cov
        return band_covariance(self.precision_band, self.dispersion)

    def covariance_band(self, bandwidth: int) -> np.ndarray:
        """Upper band of the posterior covariance to offset `bandwidth`.

        Read from `cov_band` when it is that wide; otherwise from `cov`.
        """
        if self.cov_band is not None and self.cov_band.shape[0] > bandwidth:
            return self.cov_band[self.cov_band.shape[0] - 1 - bandwidth :]
        return band_form(self.cov, bandwidth)


def penalized_inverse(ab: np.ndarray) -> np.ndarray:
    """Inverse of an SPD system from its upper band, which may span the whole matrix."""
    try:
        return scipy.linalg.solveh_banded(ab, np.eye(ab.shape[1]))
    except np.linalg.LinAlgError as exc:
        raise _not_positive_definite(ab) from exc


def _not_positive_definite(ab: np.ndarray) -> NumericalError:
    cond = np.linalg.cond(expand_band(ab))
    return NumericalError(f"penalized system is not positive definite (cond={cond:.3e})")


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
    """
    n_sys, rows, m = factors.shape
    b = rows - 1
    diag = factors[:, b]
    inv_sq = np.ascontiguousarray((1.0 / (diag * diag)).T)
    ratios = np.zeros((m, b, n_sys))
    reach = min(b, m - 1)  # offsets past the matrix stay zero
    for d in range(1, reach + 1):
        ratios[: m - d, d - 1] = (-factors[:, b - d, d:] / diag[:, : m - d]).T
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
    out = np.zeros((n_sys, b + 1, m))
    for d in range(reach + 1):
        out[:, b - d, d:] = store[: m - d, b + d].T
    return out


def _band_trace(sigma: np.ndarray, gram: np.ndarray) -> float:
    """tr(Sigma G) from the (b+1)-band of Sigma and the possibly narrower band of G."""
    g = gram.shape[0]
    weight = np.full((g, 1), 2.0)  # each off-diagonal entry stands for two
    weight[-1] = 1.0
    return float(np.sum(sigma[-g:] * (weight * gram)))


def _penalty_band(spec: BasisSpec, pen: PenaltyMatrix) -> np.ndarray:
    """S's upper band at A's half-bandwidth max(degree, order)."""
    return band_form(pen.S, max(spec.degree, pen.order))


def _banded_solve(
    gram: np.ndarray, penalty_band: np.ndarray, lam: float, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ab, factor, coef): A = Z'WZ + lam S's upper band, from a possibly
    narrower `gram_band(w)`, its upper Cholesky factor, and A^{-1} rhs."""
    ab = lam * penalty_band
    ab[ab.shape[0] - gram.shape[0] :] += gram
    try:
        factor = scipy.linalg.cholesky_banded(ab)
    except np.linalg.LinAlgError as exc:
        raise _not_positive_definite(ab) from exc
    return ab, factor, scipy.linalg.cho_solve_banded((factor, False), rhs)


def _scaled_covariance(cov_unit: np.ndarray, dispersion: float) -> np.ndarray:
    """dispersion * cov_unit, symmetrized."""
    cov = dispersion * cov_unit
    return 0.5 * (cov + cov.T)


def band_covariance(band: np.ndarray, dispersion: float) -> np.ndarray:
    """Posterior covariance dispersion * A^{-1} from A's upper band storage.

    The band is a fit's `precision_band`; `fit.cov` is this matrix, and a
    model file that stores the band rebuilds it bit for bit.
    """
    return _scaled_covariance(penalized_inverse(band), dispersion)


def _warn_small_sample(data: StratumData, spec: BasisSpec) -> None:
    if data.n <= spec.m:
        warnings.warn(
            f"sample size n={data.n} does not exceed basis dimension m={spec.m}; "
            "the fit may be poorly determined",
            stacklevel=3,
        )


def _dispersion(data: StratumData, deviance: float, edf: float) -> float:
    """RSS / (n - edf) for a Gaussian fit (0 for an exact fit that exhausts n); 1 for a binomial one."""
    if data.family == "binomial":
        return 1.0
    denom = data.n - edf
    if denom > 0:
        return deviance / denom
    if deviance <= 1e-12 * (float(data.y @ data.y) + 1.0):
        return 0.0  # saturated interpolation
    raise NumericalError(f"effective degrees of freedom {edf:.2f} exhaust the sample size {data.n}")


def _binomial_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    """Deviance of 0/1 outcomes: the saturated terms y log y vanish."""
    return float(2.0 * np.sum(-np.log(np.where(y > 0, mu, 1.0 - mu))))


def _irls(dm: DesignMatrix, data: StratumData, solve) -> tuple:
    """(beta, coef, deviance, system) of penalized logistic IRLS.

    `solve(u, w)` returns (beta, coef, system) for the working response u
    and weights w. Each iteration solves only for the coefficients; the
    caller takes the covariance and edf from the last iteration's system.
    """
    y = data.y
    mu = (y + 0.5) / 2.0
    eta = np.log(mu / (1.0 - mu))
    deviance = _binomial_deviance(y, mu)
    trace = [deviance]
    for _ in range(MAX_IRLS_ITER):
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        u = eta + (y - mu) / w
        beta, coef, system = solve(u, w)
        eta = _linear_predictor(dm, data, beta, coef)
        if np.max(np.abs(eta)) > ETA_DIVERGENCE:
            raise NumericalError(
                "linear predictor diverged (complete or quasi-complete separation)"
            )
        mu = expit(eta)
        new_deviance = _binomial_deviance(y, np.clip(mu, 1e-12, 1.0 - 1e-12))
        trace.append(new_deviance)
        if abs(new_deviance - deviance) <= IRLS_REL_TOL * (abs(deviance) + 1e-12):
            return beta, coef, new_deviance, system
        deviance = new_deviance
    raise NumericalError(
        f"IRLS failed to converge in {MAX_IRLS_ITER} iterations; "
        f"deviance trace tail {trace[-4:]}"
    )


def _linear_predictor(dm: DesignMatrix, data: StratumData, beta: np.ndarray, coef: np.ndarray) -> np.ndarray:
    eta = dm.predict(coef)
    if data.X is not None:
        eta = eta + data.X @ beta
    return eta


@dataclass(frozen=True)
class _BandSystem:
    """A fit without fixed effects, solved at `lam` up to its selected inverse.

    `gram` is the band of Z'WZ at convergence, `precision_band` that of A and
    `factor` A's Cholesky factor.
    """

    lam: float
    coef: np.ndarray
    deviance: float
    gram: np.ndarray
    precision_band: np.ndarray
    factor: np.ndarray


def _band_solver(dm: DesignMatrix, data: StratumData, spec: BasisSpec, pen: PenaltyMatrix):
    """The function lam -> `_BandSystem` for a stratum without fixed effects."""
    penalty_band = _penalty_band(spec, pen)
    if data.family == "gaussian":
        gram, rhs = dm.gram_band(), dm.rhs(data.y)

        def solve(lam: float) -> _BandSystem:
            ab, factor, coef = _banded_solve(gram, penalty_band, lam, rhs)
            resid = data.y - dm.predict(coef)
            return _BandSystem(lam, coef, float(resid @ resid), gram, ab, factor)

        return solve

    def solve(lam: float) -> _BandSystem:
        def step(u, w):
            gram = dm.gram_band(w)
            ab, factor, coef = _banded_solve(gram, penalty_band, lam, dm.rhs(u, w))
            return None, coef, (gram, ab, factor)

        _, coef, deviance, (gram, ab, factor) = _irls(dm, data, step)
        return _BandSystem(lam, coef, deviance, gram, ab, factor)

    return solve


def _selected_inverses(systems: list[_BandSystem]):
    """(system, band of A^{-1}, edf) per solved system, from one `selected_inverse_band` call."""
    sigma = selected_inverse_band(np.stack([s.factor for s in systems]))
    return [(system, band, _band_trace(band, system.gram)) for system, band in zip(systems, sigma)]


def _band_fit(data: StratumData, system: _BandSystem, sigma: np.ndarray, edf: float) -> StratumFit:
    """The fit of a solved system, given the band of its A^{-1} and its edf."""
    dispersion = _dispersion(data, system.deviance, edf)
    return StratumFit(
        coef=system.coef,
        beta=np.zeros(0),
        lam=system.lam,
        dispersion=dispersion,
        edf=edf,
        family=data.family,
        deviance=system.deviance,
        n_obs=data.n,
        cov_band=dispersion * sigma,
        precision_band=system.precision_band,
    )


def _fixed_effect_solve(
    dm: DesignMatrix, data: StratumData, pen: PenaltyMatrix, lam: float, resp: np.ndarray, w: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(beta, coef, system) of the penalized block system with fixed effects.

    system = (X'WX, Z'WX, Z'WZ, C), C being the block matrix solved, is what
    `_fixed_effect_cov_edf` needs once the fit has converged. A minimum-norm
    solve keeps the fitted values defined even when the spline spans a
    fixed-effect column (C is then singular).
    """
    ztz = dm.crossprod(w)
    X, p = data.X, data.p
    xtx = X.T @ (X if w is None else w[:, None] * X)
    zx = dm.rhs(X, w)
    c = np.block([[xtx, zx.T], [zx, ztz + lam * pen.S]])
    wresp = resp if w is None else w * resp
    rhs = np.concatenate([X.T @ wresp, dm.rhs(resp, w)])
    theta = np.linalg.lstsq(c, rhs, rcond=None)[0]
    return theta[:p], theta[p:], (xtx, zx, ztz, c)


def _fixed_effect_cov_edf(system: tuple) -> tuple[np.ndarray, float]:
    """(cov_unit, edf) from `_fixed_effect_solve`'s system; cov_unit inverts the Schur complement."""
    xtx, zx, ztz, c = system
    p = xtx.shape[0]
    gram = np.block([[xtx, zx.T], [zx, ztz]])
    edf = float(np.trace(np.linalg.lstsq(c, gram, rcond=None)[0]))
    schur = c[p:, p:] - zx @ np.linalg.lstsq(xtx, zx.T, rcond=None)[0]
    try:
        cov_unit = scipy.linalg.cho_solve(scipy.linalg.cho_factor(schur), np.eye(schur.shape[0]))
    except np.linalg.LinAlgError:
        cov_unit = np.linalg.pinv(schur)
    return cov_unit, edf


def _fixed_effect_fit(dm: DesignMatrix, data: StratumData, pen: PenaltyMatrix, lam: float) -> StratumFit:
    """The fit at `lam` of a stratum with fixed effects, its covariance dense."""
    if data.family == "gaussian":
        beta, coef, system = _fixed_effect_solve(dm, data, pen, lam, data.y, None)
        resid = data.y - _linear_predictor(dm, data, beta, coef)
        deviance = float(resid @ resid)
    else:
        beta, coef, deviance, system = _irls(
            dm, data, lambda u, w: _fixed_effect_solve(dm, data, pen, lam, u, w)
        )
    cov_unit, edf = _fixed_effect_cov_edf(system)
    dispersion = _dispersion(data, deviance, edf)
    return StratumFit(
        coef=coef,
        beta=beta,
        lam=float(lam),
        dispersion=dispersion,
        edf=edf,
        family=data.family,
        deviance=deviance,
        n_obs=data.n,
        dense_cov=_scaled_covariance(cov_unit, dispersion),
    )


def fit_stratum(
    data: StratumData, spec: BasisSpec, pen: PenaltyMatrix, lam: float
) -> StratumFit:
    """Penalized fit of one stratum at a fixed smoothing parameter.

    Least squares for Gaussian outcomes, logistic IRLS for binary ones.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ParameterError(f"smoothing parameter must be finite and >= 0, got {float(lam)!r}")
    _warn_small_sample(data, spec)
    return _fit_at(design_matrix(spec, data.z), data, spec, pen, lam)


def _fit_at(
    dm: DesignMatrix, data: StratumData, spec: BasisSpec, pen: PenaltyMatrix, lam: float
) -> StratumFit:
    if data.X is not None:
        return _fixed_effect_fit(dm, data, pen, lam)
    [selected] = _selected_inverses([_band_solver(dm, data, spec, pen)(float(lam))])
    return _band_fit(data, *selected)


def _grid_scale(gram_band: np.ndarray, penalty_band: np.ndarray) -> float:
    """tr(Z'Z)/tr(S) from the bands' diagonals: the lambda at which data and penalty weigh alike."""
    return float(gram_band[-1].sum()) / float(penalty_band[-1].sum())


def default_lambda_grid(dm: DesignMatrix, pen: PenaltyMatrix, n_grid: int = 40) -> np.ndarray:
    """Log-spaced grid spanning [1e-4, 1e4] times tr(Z'Z)/tr(S)."""
    scale = _grid_scale(dm.gram_band(), band_form(pen.S, 0))
    return np.geomspace(1e-4 * scale, 1e4 * scale, n_grid)


def _gcv_score(data: StratumData, deviance: float, edf: float, yss: float) -> float:
    """n * deviance / (n - edf)^2, with rounding-level Gaussian deviance read as zero."""
    flushed = data.family == "gaussian" and deviance <= 1e-16 * max(yss, 1e-300)
    dev = 0.0 if flushed else deviance
    return data.n * dev / (data.n - edf) ** 2


def _band_grid(
    dm: DesignMatrix, data: StratumData, spec: BasisSpec, pen: PenaltyMatrix, grid: np.ndarray
):
    """The fit at each grid point that can be fit, for a stratum without fixed effects.

    Every point is solved (a Gaussian one by one banded solve, a binomial one
    by IRLS) for its coefficients and deviance only; then one
    `selected_inverse_band` call over all their factors gives every edf and
    covariance band. A point is skipped where its factorization or IRLS
    fails, or where its edf exhausts n without an exact fit.
    """
    solve = _band_solver(dm, data, spec, pen)
    systems = []
    for lam in grid:
        try:
            systems.append(solve(float(lam)))
        except NumericalError:
            continue
    if not systems:
        return
    for selected in _selected_inverses(systems):
        try:
            yield _band_fit(data, *selected)
        except NumericalError:
            continue


def _fixed_effect_grid(
    dm: DesignMatrix, data: StratumData, spec: BasisSpec, pen: PenaltyMatrix, grid: np.ndarray
):
    """The fit at each grid point that can be fit, for a stratum with fixed effects."""
    for lam in grid:
        try:
            yield _fixed_effect_fit(dm, data, pen, float(lam))
        except NumericalError:
            continue


def select_lambda(
    data: StratumData,
    spec: BasisSpec,
    pen: PenaltyMatrix,
    grid: np.ndarray | None = None,
) -> StratumFit:
    """Fit at the smoothing parameter minimizing GCV over a log-spaced grid.

    GCV is n * deviance / (n - edf)^2. Deviance at the rounding level is
    treated as an exact fit, so ties resolve toward the heaviest smoothing.
    Returns the fit computed at the selected value (`fit.lam`), which is then
    held fixed downstream; it equals `fit_stratum` at that value.
    """
    dm = design_matrix(spec, data.z)
    if grid is None:
        grid = default_lambda_grid(dm, pen)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid) & (grid > 0)):
        raise ParameterError("lambda grid must be a non-empty vector of finite positive values")
    _warn_small_sample(data, spec)
    fitted = _band_grid if data.X is None else _fixed_effect_grid
    yss = float(data.y @ data.y)
    best, best_score = None, np.inf
    for fit in fitted(dm, data, spec, pen, np.sort(grid)):
        score = _gcv_score(data, fit.deviance, fit.edf, yss)
        if score <= best_score:
            best, best_score = fit, score
    if best is None:
        raise NumericalError("no smoothing parameter candidate could be fit")
    return best
