"""Penalized spline regression per stratum.

Gaussian outcomes are fit by penalized least squares, binary outcomes by
penalized IRLS. The smoothing parameter is chosen by GCV on a log-spaced
grid (`select_lambda`) and then treated as fixed, or given (`fit_stratum`).

Without fixed effects A = Z'WZ + lambda S exists only as its upper band.
`_grid_systems` solves a lambda grid in lockstep: a block of lambdas
advances together with every per-observation array laid out as (block, n),
so one CSR product gives every weight vector's Gram band, right-hand side
or linear predictor, and each system is factored by one banded Cholesky
(LAPACK pbtrf/pbtrs) for its coefficients. A binomial lambda leaves the
block when its IRLS converges or fails, keeping its own error; a Gaussian
fit is the same solve done once, with w = 1. `fit_stratum` is the driver on
a one-point grid, and no lambda's result depends on its block.

Everything a fit reads from A^{-1} lies within A's half-bandwidth
b = max(degree, penalty order) of the diagonal: the edf
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
from scipy.linalg.lapack import dpbtrf as _pbtrf, dpbtrs as _pbtrs
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
    b = max(spec.degree, pen.order)
    band = np.zeros((b + 1, spec.m))
    band[b - pen.order :] = pen.band
    return band


def _band_solve(
    penalty_band: np.ndarray, lams: np.ndarray, gram: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Solve A_j coef_j = rhs_j, A_j = Z'W_jZ + lams[j] S, for a block of systems.

    `gram` is a (k, g, m) stack of `gram_band`s, or one (g, m) band shared
    by the block, possibly narrower than the penalty band; `rhs` is (k, m)
    or one shared (m,) vector. Returns (ab, factors, coefs, errors): A's
    upper bands, their upper Cholesky factors and the solutions, stacked
    over the block, and per system None or the NumericalError of a system
    that is not positive definite (its factor and coef rows are then
    meaningless). Each system is factored and solved by LAPACK pbtrf/pbtrs
    on its own, so its result does not depend on the rest of the block;
    one finiteness check covers the block, as scipy's wrappers check each.
    """
    ab = lams[:, None, None] * penalty_band
    ab[:, ab.shape[1] - gram.shape[-2] :] += gram
    rhs = np.broadcast_to(rhs, (lams.size, ab.shape[2]))
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    factors = np.empty_like(ab)
    coefs = np.empty(rhs.shape)
    errors = [None] * lams.size
    for j in range(lams.size):
        factor, info = _pbtrf(ab[j])
        if info:
            errors[j] = _not_positive_definite(ab[j])
            continue
        factors[j] = factor
        coefs[j] = _pbtrs(factor, rhs[j])[0]
    return ab, factors, coefs, errors


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


def _binomial_deviance(y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Deviance of 0/1 outcomes, one per row of mu: the saturated terms y log y vanish."""
    return 2.0 * np.sum(-np.log(np.where(y > 0, mu, 1.0 - mu)), axis=-1)


def _start(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(mu, eta, deviance) from which penalized logistic IRLS starts."""
    mu = (y + 0.5) / 2.0
    return mu, np.log(mu / (1.0 - mu)), float(_binomial_deviance(y, mu))


def _converged(new_deviance, deviance):
    return np.abs(new_deviance - deviance) <= IRLS_REL_TOL * (np.abs(deviance) + 1e-12)


def _diverged() -> NumericalError:
    return NumericalError("linear predictor diverged (complete or quasi-complete separation)")


def _not_converged(trace: list[float]) -> NumericalError:
    return NumericalError(
        f"IRLS failed to converge in {MAX_IRLS_ITER} iterations; "
        f"deviance trace tail {trace[-4:]}"
    )


def _irls(dm: DesignMatrix, data: StratumData, solve) -> tuple:
    """(beta, coef, deviance, system) of penalized logistic IRLS with fixed effects.

    `solve(u, w)` returns (beta, coef, system) for the working response u
    and weights w. Each iteration solves only for the coefficients; the
    caller takes the covariance and edf from the last iteration's system.
    """
    y = data.y
    mu, eta, deviance = _start(y)
    trace = [deviance]
    for _ in range(MAX_IRLS_ITER):
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        u = eta + (y - mu) / w
        beta, coef, system = solve(u, w)
        eta = dm.predict(coef) + data.X @ beta
        if np.max(np.abs(eta)) > ETA_DIVERGENCE:
            raise _diverged()
        mu = expit(eta)
        new_deviance = float(_binomial_deviance(y, np.clip(mu, 1e-12, 1.0 - 1e-12)))
        trace.append(new_deviance)
        if _converged(new_deviance, deviance):
            return beta, coef, new_deviance, system
        deviance = new_deviance
    raise _not_converged(trace)


@dataclass(frozen=True)
class _BandSystem:
    """A fit without fixed effects, solved at `lam` up to its selected inverse.

    `gram` is the band of Z'WZ at convergence, `precision_band` that of A and
    `factor` A's Cholesky factor; `n_iter` counts the solves (1 for a
    Gaussian fit, the IRLS iterations for a binomial one).
    """

    lam: float
    coef: np.ndarray
    deviance: float
    gram: np.ndarray
    precision_band: np.ndarray
    factor: np.ndarray
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
        shared = dm.gram_band(), dm.rhs(data.y)
        solved = [_gaussian_block(dm, data, penalty_band, block, *shared) for block in blocks]
    else:
        solved = [_binomial_block(dm, data, penalty_band, block) for block in blocks]
    return [out for block in solved for out in block]


def _gaussian_block(
    dm: DesignMatrix, data: StratumData, penalty_band: np.ndarray, lams: np.ndarray, gram: np.ndarray, rhs: np.ndarray
) -> list:
    """Penalized least squares at each lambda: one solve with w = 1, Z'Z and Z'y shared."""
    ab, factors, coefs, out = _band_solve(penalty_band, lams, gram, rhs)
    ok = np.flatnonzero([e is None for e in out])
    resid = data.y - dm.predict(coefs[ok])
    deviance = np.sum(resid * resid, axis=1)
    for j, dev in zip(ok, deviance):
        out[j] = _BandSystem(float(lams[j]), coefs[j], float(dev), gram, ab[j], factors[j], 1)
    return out


def _binomial_block(dm: DesignMatrix, data: StratumData, penalty_band: np.ndarray, lams: np.ndarray) -> list:
    """Penalized logistic IRLS at each lambda, the block's systems in lockstep.

    Every per-observation array is (live, n), one row per lambda still
    iterating. A lambda leaves the block when it converges, fails to
    factor, diverges or runs out of iterations, keeping its own deviance
    trace and error; the first iteration's weights are shared by all.
    """
    y = data.y
    mu, eta, start = _start(y)
    deviance = np.full(lams.size, start)
    traces = [[start] for _ in lams]
    out: list = [None] * lams.size
    live = np.arange(lams.size)
    for n_iter in range(1, MAX_IRLS_ITER + 1):
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        u = eta + (y - mu) / w
        gram = dm.gram_band(w)
        gram = np.broadcast_to(gram, (live.size, *gram.shape[-2:]))
        ab, factors, coefs, errors = _band_solve(penalty_band, lams[live], gram, dm.rhs((w * u).T).T)
        for j, error in enumerate(errors):
            if error is not None:
                out[live[j]] = error
        ok = np.flatnonzero([e is None for e in errors])
        live, deviance, gram, ab, factors, coefs = (a[ok] for a in (live, deviance, gram, ab, factors, coefs))
        eta = dm.predict(coefs)
        diverged = np.max(np.abs(eta), axis=1) > ETA_DIVERGENCE
        mu = expit(eta)
        new_deviance = _binomial_deviance(y, np.clip(mu, 1e-12, 1.0 - 1e-12))
        converged = _converged(new_deviance, deviance) & ~diverged
        for j, i in enumerate(live):
            traces[i].append(float(new_deviance[j]))
            if diverged[j]:
                out[i] = _diverged()
            elif converged[j]:
                out[i] = _BandSystem(float(lams[i]), coefs[j], traces[i][-1], gram[j], ab[j], factors[j], n_iter)
        going = ~(diverged | converged)
        live, deviance, eta, mu = live[going], new_deviance[going], eta[going], mu[going]
        if not live.size:
            return out
    for i in live:
        out[i] = _not_converged(traces[i])
    return out


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
        resid = data.y - (dm.predict(coef) + data.X @ beta)
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
    Without fixed effects this is the grid driver on a one-point grid, so
    it raises the error that `select_lambda` skips that point for.
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
    [system] = _grid_systems(dm, data, _penalty_band(spec, pen), np.asarray([float(lam)]))
    if isinstance(system, NumericalError):
        raise system
    [selected] = _selected_inverses([system])
    return _band_fit(data, *selected)


def _grid_scale(gram_band: np.ndarray, penalty_band: np.ndarray) -> float:
    """tr(Z'Z)/tr(S) from the bands' diagonals: the lambda at which data and penalty weigh alike."""
    return float(gram_band[-1].sum()) / float(penalty_band[-1].sum())


def default_lambda_grid(dm: DesignMatrix, pen: PenaltyMatrix, n_grid: int = 40) -> np.ndarray:
    """Log-spaced grid spanning [1e-4, 1e4] times tr(Z'Z)/tr(S)."""
    scale = _grid_scale(dm.gram_band(), pen.band)
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

    `_grid_systems` solves every point (a Gaussian one by one banded solve,
    a binomial one by IRLS) for its coefficients and deviance only; then one
    `selected_inverse_band` call over all their factors gives every edf and
    covariance band. A point is skipped where its factorization or IRLS
    fails, or where its edf exhausts n without an exact fit.
    """
    solved = _grid_systems(dm, data, _penalty_band(spec, pen), grid)
    systems = [s for s in solved if isinstance(s, _BandSystem)]
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
