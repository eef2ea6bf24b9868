"""Banded-Toeplitz and quadratic-form kernels behind the dependence diagnostics.

A pentadiagonal Toeplitz matrix whose two corner diagonal entries are
reduced by its second off-diagonal `lam_p` factors into two real
tridiagonal Toeplitz matrices (`factor_pentadiagonal`). The inverse of each
factor decays off the diagonal at the rate arcosh(diag / (2 off))
(`TridiagFactor.psi`), and `decay_rate` compares the slower of the two rates
with the decay of the numerically inverted matrix; `diagnose_pentadiagonal`
gives both from one dense matrix, product and inverse. The covariance between
Gaussian quadratic forms built from overlapping coefficient windows
(`cov_quadratic_forms`) inherits that decay.

Each quantity has one closed form here. The paper's alternative forms (the
closed-form tridiagonal inverse, the Hadamard double sum and the Frobenius
form of the quadratic-form covariance) are the test oracles in
`tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "PentaParams",
    "TridiagFactor",
    "DecayDiagnostics",
    "build_pentadiagonal",
    "factor_pentadiagonal",
    "decay_rate",
    "diagnose_pentadiagonal",
    "cov_quadratic_forms",
]

MAX_DIM = 2000  # the largest `PentaParams.n`


@dataclass(frozen=True)
class PentaParams:
    """Pentadiagonal Toeplitz matrix with corner deficits.

    Diagonal `eps`, first off-diagonal `theta`, second off-diagonal `lam_p`
    (named to avoid the smoothing parameter), and the two corner diagonal
    entries reduced by `lam_p`. `n` is the dimension, from 3 to MAX_DIM =
    2000: the diagnostics form several dense n x n matrices and invert one,
    about 0.2 GB and a second at n = 2000.
    """

    eps: float
    theta: float
    lam_p: float
    n: int

    def __post_init__(self):
        for name in ("eps", "theta", "lam_p"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n < 3:
            raise ParameterError("pentadiagonal dimension must be at least 3")
        if self.n > MAX_DIM:
            raise ParameterError(
                f"pentadiagonal dimension {self.n} exceeds {MAX_DIM}: the diagnostics form dense n x n matrices; "
                "lower --dim"
            )

    @property
    def discriminant(self) -> float:
        """theta^2 - 4 lam_p (eps - 2 lam_p); +-inf when it overflows."""
        return self.theta * self.theta - 4.0 * self.lam_p * (self.eps - 2.0 * self.lam_p)


@dataclass(frozen=True)
class TridiagFactor:
    """Tridiagonal Toeplitz factor with constant (off, diag, off) bands."""

    off: float
    diag: float
    n: int

    @property
    def psi(self) -> float | None:
        """Off-diagonal decay rate arcosh(diag / (2 off)) of the inverse, when real."""
        ratio = self.diag / (2.0 * self.off)
        if ratio <= 1.0:
            return None
        return math.acosh(ratio)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        idx = np.arange(self.n)
        out[idx, idx] = self.diag
        out[idx[:-1], idx[:-1] + 1] = self.off
        out[idx[:-1] + 1, idx[:-1]] = self.off
        return out


@dataclass(frozen=True)
class DecayDiagnostics:
    """Predicted and empirically fitted off-diagonal decay of the inverse."""

    psi_min: float
    empirical_rate: float | None


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


def _split(params: PentaParams, target: np.ndarray) -> tuple[TridiagFactor, TridiagFactor, float]:
    """The two factors of `factor_pentadiagonal` and max |Z1 Z2 - target| of their dense product.

    `target` is the dense matrix; the residual must be at rounding level.
    """
    if params.lam_p == 0.0:
        raise DomainError("factorization requires a non-zero second off-diagonal")
    disc = params.discriminant
    if not math.isfinite(disc):
        raise DomainError(f"theta^2 - 4*lam_p*(eps - 2*lam_p) overflows to {disc!r}")
    if disc <= 0.0:
        raise DomainError(
            "factorization requires theta^2 - 4*lam_p*(eps - 2*lam_p) > 0, "
            f"got {disc:.6g}"
        )
    root = math.sqrt(disc)
    pi_1 = params.theta / 2.0 + root / 2.0
    pi_2 = params.theta / 2.0 - root / 2.0
    z1 = TridiagFactor(off=params.lam_p, diag=pi_1, n=params.n)
    z2 = TridiagFactor(off=1.0, diag=pi_2 / params.lam_p, n=params.n)
    if not math.isfinite(z2.diag):
        raise DomainError(f"factor diagonal pi_2/lam_p = {pi_2!r}/{params.lam_p!r} overflows")
    diff = z1.dense() @ z2.dense()
    diff -= target
    residual = float(np.max(np.abs(diff, out=diff)))
    scale = max(abs(params.eps), abs(params.theta), abs(params.lam_p), 1.0)
    if not residual <= 1e-9 * scale:  # NaN fails too
        raise DomainError("tridiagonal factor product failed to reconstruct the matrix")
    return z1, z2, residual


def factor_pentadiagonal(params: PentaParams) -> tuple[TridiagFactor, TridiagFactor]:
    """Split the pentadiagonal matrix into two real tridiagonal Toeplitz factors.

    The factor diagonals pi_1, pi_2 are theta/2 +- sqrt(disc)/2 with
    disc = theta^2 - 4 lam_p (eps - 2 lam_p); the first factor has bands
    (lam_p, pi_1, lam_p) and the second (1, pi_2/lam_p, 1). The product is
    verified against the dense matrix before returning.
    """
    return _split(params, build_pentadiagonal(params))[:2]


def _decay(z1: TridiagFactor, z2: TridiagFactor, target: np.ndarray) -> DecayDiagnostics:
    """`decay_rate` of the dense matrix `target` from its two factors."""
    psi_1, psi_2 = z1.psi, z2.psi
    if psi_1 is None or psi_2 is None:
        raise DomainError("decay rate requires pi_i > 2*lam_p for both factors")
    n = target.shape[0]
    inv = np.linalg.inv(target)
    row_lo, row_hi = n // 3, 2 * n // 3
    lags = np.arange(1, min(12, n - row_hi) + 1)
    log_mags = []
    for r in range(row_lo, row_hi):
        vals = np.abs(inv[r, r + lags])
        if np.all(vals > 0):
            log_mags.append(np.log(vals))
    if lags.size < 2 or not log_mags:
        return DecayDiagnostics(psi_min=min(psi_1, psi_2), empirical_rate=None)
    mean_log = np.mean(log_mags, axis=0)
    slope = np.polyfit(lags, mean_log, 1)[0]
    return DecayDiagnostics(psi_min=min(psi_1, psi_2), empirical_rate=-float(slope))


def decay_rate(params: PentaParams) -> DecayDiagnostics:
    """Predicted off-diagonal decay rate min_i psi_i, plus an empirical slope check.

    The empirical rate is the least-squares slope of -log|inv(P)[r, r+lag]|
    against lag = 1..12, averaged over middle rows of the numerically
    inverted matrix whose entries at those lags are non-zero. It is None
    when no slope can be fitted: the dimension leaves a single lag, or
    every row's entries underflow to zero.
    """
    target = build_pentadiagonal(params)
    return _decay(*_split(params, target)[:2], target)


def diagnose_pentadiagonal(params: PentaParams) -> tuple[TridiagFactor, TridiagFactor, float, DecayDiagnostics | None]:
    """(z1, z2, residual, decay): `factor_pentadiagonal`'s factors, max |Z1 Z2 - P|, and
    `decay_rate`'s result, or None when some pi_i <= 2 lam_p leaves a rate undefined."""
    target = build_pentadiagonal(params)
    z1, z2, residual = _split(params, target)
    decay = None if z1.psi is None or z2.psi is None else _decay(z1, z2, target)
    return z1, z2, residual, decay


def cov_quadratic_forms(a: np.ndarray, b: np.ndarray, sigma_xy: np.ndarray) -> np.ndarray:
    """Covariance of the quadratic forms x'Ax and y'By, (x, y) jointly Gaussian with mean zero.

    `a` and `b` are symmetric and `sigma_xy` = Cov(x, y); each may be a stack
    of matrices, broadcast against the others over the leading axes. The
    quartic expectation splits into pair-partitions; the one that pairs x
    with x and y with y is the product of the means, and the two that mix
    the blocks are equal for symmetric A and B:
    Cov = 2 tr(A S_xy B S_yx) = 2 * sum((A S_xy) o (S_xy B)) over the last two axes.
    """
    return 2.0 * np.sum((a @ sigma_xy) * (sigma_xy @ b), axis=(-2, -1))
