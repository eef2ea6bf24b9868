"""Penalized spline regression per stratum.

Gaussian outcomes are fit by penalized least squares, binary outcomes by
penalized IRLS; both return the coefficient vector together with the
posterior covariance of the coefficients, phi * (Z'WZ + lambda S)^{-1}
(or the inverse Schur complement of the fixed-effect block when extra
covariates are present). Without fixed effects A = Z'WZ + lambda S exists
only as its upper band, built and solved in `_banded_solve` and kept by the
fit, from which `band_covariance` rebuilds the covariance bit for bit. The
smoothing parameter is chosen by GCV on a log-spaced grid and then treated
as fixed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
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

    `precision_band` is the upper band (solveh_banded layout) of the
    unit-dispersion precision A = Z'WZ + lambda S that the fit inverted, so
    that `cov == band_covariance(precision_band, dispersion)` exactly. It is
    None for fits with fixed effects, whose covariance inverts a dense Schur
    complement.
    """

    coef: np.ndarray
    beta: np.ndarray
    lam: float
    dispersion: float
    cov: np.ndarray
    edf: float
    family: str
    deviance: float
    n_obs: int
    precision_band: np.ndarray | None = None


def penalized_inverse(ab: np.ndarray) -> np.ndarray:
    """Inverse of an SPD system from its upper band, which may span the whole matrix."""
    try:
        return scipy.linalg.solveh_banded(ab, np.eye(ab.shape[1]))
    except np.linalg.LinAlgError as exc:
        raise _not_positive_definite(ab) from exc


def _not_positive_definite(ab: np.ndarray) -> NumericalError:
    cond = np.linalg.cond(expand_band(ab))
    return NumericalError(f"penalized system is not positive definite (cond={cond:.3e})")


def _penalty_band(spec: BasisSpec, pen: PenaltyMatrix) -> np.ndarray:
    """S's upper band at A's half-bandwidth max(degree, order)."""
    return band_form(pen.S, max(spec.degree, pen.order))


def _banded_solve(
    gram: np.ndarray, penalty_band: np.ndarray, lam: float, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(ab, coef): A = Z'WZ + lam S's upper band, from a possibly narrower `gram_band(w)`, and A^{-1} rhs."""
    ab = lam * penalty_band
    ab[ab.shape[0] - gram.shape[0] :] += gram
    try:
        factor = scipy.linalg.cholesky_banded(ab)
    except np.linalg.LinAlgError as exc:
        raise _not_positive_definite(ab) from exc
    return ab, scipy.linalg.cho_solve_banded((factor, False), rhs)


def _cov_edf(ab: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit-dispersion covariance A^{-1} and edf = tr(A^{-1} Z'WZ), from the bands of A and Z'WZ."""
    ainv = penalized_inverse(ab)
    return ainv, float(np.sum(ainv * expand_band(gram)))


def _scaled_covariance(cov_unit: np.ndarray, dispersion: float) -> np.ndarray:
    """dispersion * cov_unit, symmetrized."""
    cov = dispersion * cov_unit
    return 0.5 * (cov + cov.T)


def band_covariance(band: np.ndarray, dispersion: float) -> np.ndarray:
    """Posterior covariance dispersion * A^{-1} from A's upper band storage.

    The band is a fit's `precision_band`. The fit inverted A by the same
    `penalized_inverse` call on the same band, so the result equals
    `fit.cov` bit for bit.
    """
    return _scaled_covariance(penalized_inverse(band), dispersion)


def _warn_small_sample(data: StratumData, spec: BasisSpec) -> None:
    if data.n <= spec.m:
        warnings.warn(
            f"sample size n={data.n} does not exceed basis dimension m={spec.m}; "
            "the fit may be poorly determined",
            stacklevel=3,
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


def _linear_predictor(dm: DesignMatrix, data: StratumData, beta: np.ndarray, coef: np.ndarray) -> np.ndarray:
    eta = dm.predict(coef)
    if data.X is not None:
        eta = eta + data.X @ beta
    return eta


def _gaussian_at(
    dm: DesignMatrix, data: StratumData, spec: BasisSpec, pen: PenaltyMatrix, lam: float
) -> StratumFit:
    if data.X is None:
        beta, gram = np.zeros(0), dm.gram_band()
        band, coef = _banded_solve(gram, _penalty_band(spec, pen), lam, dm.rhs(data.y))
        cov_unit, edf = _cov_edf(band, gram)
    else:
        beta, coef, system = _fixed_effect_solve(dm, data, pen, lam, data.y, None)
        cov_unit, edf = _fixed_effect_cov_edf(system)
        band = None
    resid = data.y - _linear_predictor(dm, data, beta, coef)
    rss = float(resid @ resid)
    denom = data.n - edf
    if denom <= 0:
        if rss <= 1e-12 * (float(data.y @ data.y) + 1.0):
            dispersion = 0.0  # saturated interpolation
        else:
            raise NumericalError(
                f"effective degrees of freedom {edf:.2f} exhaust the sample size {data.n}"
            )
    else:
        dispersion = rss / denom
    return StratumFit(
        coef=coef,
        beta=beta,
        lam=float(lam),
        dispersion=dispersion,
        cov=_scaled_covariance(cov_unit, dispersion),
        edf=edf,
        family="gaussian",
        deviance=rss,
        n_obs=data.n,
        precision_band=band,
    )


def _binomial_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    """Deviance of 0/1 outcomes: the saturated terms y log y vanish."""
    return float(2.0 * np.sum(-np.log(np.where(y > 0, mu, 1.0 - mu))))


def _binomial_at(
    dm: DesignMatrix, data: StratumData, spec: BasisSpec, pen: PenaltyMatrix, lam: float
) -> StratumFit:
    y = data.y
    mu = (y + 0.5) / 2.0
    eta = np.log(mu / (1.0 - mu))
    deviance = _binomial_deviance(y, mu)
    trace = [deviance]
    # Each iteration solves only for the coefficients; the covariance and edf
    # wait for convergence and use the last iteration's system. Without fixed
    # effects that system is A's band, factored once per iteration.
    ab = None
    if data.X is None:
        beta = np.zeros(0)
        penalty_band = _penalty_band(spec, pen)
    for _ in range(MAX_IRLS_ITER):
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        u = eta + (y - mu) / w
        if data.X is None:
            gram = dm.gram_band(w)
            ab, coef = _banded_solve(gram, penalty_band, lam, dm.rhs(u, w))
        else:
            beta, coef, system = _fixed_effect_solve(dm, data, pen, lam, u, w)
        eta = _linear_predictor(dm, data, beta, coef)
        if np.max(np.abs(eta)) > ETA_DIVERGENCE:
            raise NumericalError(
                "linear predictor diverged (complete or quasi-complete separation)"
            )
        mu = expit(eta)
        new_deviance = _binomial_deviance(y, np.clip(mu, 1e-12, 1.0 - 1e-12))
        trace.append(new_deviance)
        if abs(new_deviance - deviance) <= IRLS_REL_TOL * (abs(deviance) + 1e-12):
            deviance = new_deviance
            break
        deviance = new_deviance
    else:
        raise NumericalError(
            f"IRLS failed to converge in {MAX_IRLS_ITER} iterations; "
            f"deviance trace tail {trace[-4:]}"
        )
    if data.X is None:
        # The covariance inverts the last iteration's A, whose band is `ab`.
        cov_unit, edf = _cov_edf(ab, gram)
    else:
        cov_unit, edf = _fixed_effect_cov_edf(system)
    return StratumFit(
        coef=coef,
        beta=beta,
        lam=float(lam),
        dispersion=1.0,
        cov=_scaled_covariance(cov_unit, 1.0),
        edf=edf,
        family="binomial",
        deviance=deviance,
        n_obs=data.n,
        precision_band=ab,
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
    fit_at = _gaussian_at if data.family == "gaussian" else _binomial_at
    return fit_at(dm, data, spec, pen, lam)


def _grid_scale(dm: DesignMatrix, pen: PenaltyMatrix) -> float:
    """tr(Z'Z)/tr(S): the lambda at which data and penalty weigh alike."""
    return float(np.trace(dm.crossprod())) / float(np.trace(pen.S))


def default_lambda_grid(dm: DesignMatrix, pen: PenaltyMatrix, n_grid: int = 40) -> np.ndarray:
    """Log-spaced grid spanning [1e-4, 1e4] times tr(Z'Z)/tr(S)."""
    scale = _grid_scale(dm, pen)
    return np.geomspace(1e-4 * scale, 1e4 * scale, n_grid)


def _gcv_score(data: StratumData, deviance: float, edf: float, yss: float) -> float:
    """n * deviance / (n - edf)^2, with rounding-level Gaussian deviance read as zero."""
    flushed = data.family == "gaussian" and deviance <= 1e-16 * max(yss, 1e-300)
    dev = 0.0 if flushed else deviance
    return data.n * dev / (data.n - edf) ** 2


def _fitted_grid(
    dm: DesignMatrix, data: StratumData, spec: BasisSpec, pen: PenaltyMatrix, grid: np.ndarray
):
    """(lam, deviance, edf, fit) at each grid point whose full fit succeeds."""
    for lam in grid:
        try:
            fit = _fit_at(dm, data, spec, pen, float(lam))
        except NumericalError:
            continue
        yield float(lam), fit.deviance, fit.edf, fit


def _gaussian_grid(
    dm: DesignMatrix, data: StratumData, spec: BasisSpec, pen: PenaltyMatrix, grid: np.ndarray
):
    """(lam, deviance, edf, None) at each grid point of a Gaussian fit without fixed effects.

    No inverse is formed. With G = Z'Z, c = tr(G)/tr(S) and M = G + cS, the
    generalized eigenvalues mu of G v = mu M v lie in [0, 1] and give
    edf(lam) = sum mu / (mu + (lam/c)(1 - mu)) (Demmler-Reinsch). The
    deviance comes from one banded Cholesky solve for the coefficients. A
    point is skipped where `_gaussian_at` would fail: the factorization
    fails, or edf exhausts n without an exact fit.
    """
    gram = dm.crossprod()
    scale = _grid_scale(dm, pen)
    try:
        mu = scipy.linalg.eigh(gram, gram + scale * pen.S, eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("no smoothing parameter candidate could be fit") from exc
    mu = np.clip(mu, 0.0, 1.0)  # rounding can leave mu just outside [0, 1]
    gram_band = dm.gram_band()
    penalty_band = _penalty_band(spec, pen)
    rhs = dm.rhs(data.y)
    yss = float(data.y @ data.y)
    for lam in grid:
        lam = float(lam)
        try:
            _, coef = _banded_solve(gram_band, penalty_band, lam, rhs)
        except NumericalError:
            continue
        edf = float(np.sum(mu / (mu + (lam / scale) * (1.0 - mu))))
        resid = data.y - dm.predict(coef)
        rss = float(resid @ resid)
        if data.n - edf <= 0 and rss > 1e-12 * (yss + 1.0):
            continue
        yield lam, rss, edf, None


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
    held fixed downstream. Gaussian fits without fixed effects score the grid
    without any inverse (`_gaussian_grid`) and fit once at the chosen value;
    the others keep the full fit of every grid point.
    """
    dm = design_matrix(spec, data.z)
    if grid is None:
        grid = default_lambda_grid(dm, pen)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid) & (grid > 0)):
        raise ParameterError("lambda grid must be a non-empty vector of finite positive values")
    _warn_small_sample(data, spec)
    scored = _gaussian_grid if data.family == "gaussian" and data.X is None else _fitted_grid
    yss = float(data.y @ data.y)
    best, best_score = None, np.inf
    for lam, deviance, edf, fit in scored(dm, data, spec, pen, np.sort(grid)):
        score = _gcv_score(data, deviance, edf, yss)
        if score <= best_score:
            best, best_score = (lam, fit), score
    if best is None:
        raise NumericalError("no smoothing parameter candidate could be fit")
    lam, fit = best
    return fit if fit is not None else _fit_at(dm, data, spec, pen, lam)
