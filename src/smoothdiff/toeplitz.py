"""Banded-Toeplitz and quadratic-form kernels behind the dependence diagnostics.

A pentadiagonal Toeplitz matrix with corner deficits factors into two real
tridiagonal Toeplitz matrices (`factor_pentadiagonal`). The inverse of each
factor decays off the diagonal at the rate arcosh(diag / (2 off))
(`TridiagFactor.psi`), and `decay_rate` compares the slower of the two rates
with the decay of the numerically inverted matrix. The covariance between
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
    "cov_quadratic_forms",
]


@dataclass(frozen=True)
class PentaParams:
    """Pentadiagonal Toeplitz matrix with corner deficits.

    Diagonal `eps`, first off-diagonal `theta`, second off-diagonal `lam_p`
    (named to avoid the smoothing parameter), and the two corner diagonal
    entries reduced by `zeta1`, `zeta2`. `n` is the dimension.
    """

    eps: float
    theta: float
    lam_p: float
    n: int
    zeta1: float | None = None
    zeta2: float | None = None

    def __post_init__(self):
        if self.n < 3:
            raise ParameterError("pentadiagonal dimension must be at least 3")
        if self.zeta1 is None:
            object.__setattr__(self, "zeta1", self.lam_p)
        if self.zeta2 is None:
            object.__setattr__(self, "zeta2", self.lam_p)

    @property
    def discriminant(self) -> float:
        return self.theta**2 - 4.0 * self.lam_p * (self.eps - 2.0 * self.lam_p)


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

    psi_1: float
    psi_2: float
    psi_min: float
    empirical_rate: float
    n_lags: int


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
    out[0, 0] -= params.zeta1
    out[n - 1, n - 1] -= params.zeta2
    return out


def factor_pentadiagonal(params: PentaParams) -> tuple[TridiagFactor, TridiagFactor]:
    """Split the pentadiagonal matrix into two real tridiagonal Toeplitz factors.

    The factor diagonals pi_1, pi_2 are theta/2 +- sqrt(disc)/2 with
    disc = theta^2 - 4 lam_p (eps - 2 lam_p); the first factor has bands
    (lam_p, pi_1, lam_p) and the second (1, pi_2/lam_p, 1). The product is
    verified against the dense matrix before returning.
    """
    if params.lam_p == 0.0:
        raise DomainError("factorization requires a non-zero second off-diagonal")
    if not (params.zeta1 == params.lam_p and params.zeta2 == params.lam_p):
        raise ParameterError("factorization requires corner deficits equal to the second off-diagonal")
    disc = params.discriminant
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
    product = z1.dense() @ z2.dense()
    target = build_pentadiagonal(params)
    scale = max(abs(params.eps), abs(params.theta), abs(params.lam_p), 1.0)
    if not np.allclose(product, target, atol=1e-9 * scale, rtol=0.0):
        raise DomainError("tridiagonal factor product failed to reconstruct the matrix")
    return z1, z2


def decay_rate(params: PentaParams, n: int | None = None, n_lags: int = 12) -> DecayDiagnostics:
    """Predicted off-diagonal decay rate min_i psi_i, plus an empirical slope check.

    The empirical rate is the least-squares slope of -log|inv(P)[r, r+lag]|
    against lag, averaged over middle rows of the numerically inverted matrix.
    """
    if n is None:
        n = params.n
    z1, z2 = factor_pentadiagonal(params)
    psi_1, psi_2 = z1.psi, z2.psi
    if psi_1 is None or psi_2 is None:
        raise DomainError("decay rate requires pi_i > 2*lam_p for both factors")
    dense = build_pentadiagonal(
        PentaParams(eps=params.eps, theta=params.theta, lam_p=params.lam_p, n=n)
    )
    inv = np.linalg.inv(dense)
    row_lo, row_hi = n // 3, 2 * n // 3
    lags = np.arange(1, min(n_lags, n - row_hi) + 1)
    log_mags = []
    for r in range(row_lo, row_hi):
        vals = np.abs(inv[r, r + lags])
        if np.all(vals > 0):
            log_mags.append(np.log(vals))
    mean_log = np.mean(log_mags, axis=0)
    slope = np.polyfit(lags, mean_log, 1)[0]
    return DecayDiagnostics(
        psi_1=psi_1,
        psi_2=psi_2,
        psi_min=min(psi_1, psi_2),
        empirical_rate=-float(slope),
        n_lags=len(lags),
    )


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
