"""Banded-Toeplitz and quadratic-form kernels behind the dependence diagnostics.

A pentadiagonal Toeplitz matrix P whose two corner diagonal entries are
reduced by its second off-diagonal `lam_p` factors into two real
tridiagonal Toeplitz matrices. The inverse of each factor decays off the
diagonal at the rate arcosh(diag / (2 off)) (`TridiagFactor.psi`), and the
slower of the two rates bounds the decay of P's inverse (Demko, Moss & Smith
1984). `diagnose_pentadiagonal` gives the factors, their residual and both
rates from P's three scalars and five diagonals: the residual in closed
form, the empirical slope from one banded solve. The covariance between
Gaussian quadratic forms built from overlapping coefficient windows
(`cov_quadratic_forms`) inherits that decay.

Each quantity has one closed form here. The paper's alternative forms (the
closed-form tridiagonal inverse, the Hadamard double sum and the Frobenius
form of the quadratic-form covariance) and the dense matrix, product and
inverse are the test oracles in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, ParameterError

__all__ = [
    "PentaParams",
    "TridiagFactor",
    "DecayDiagnostics",
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
    2000: the decay slope solves for n/3 columns of the inverse, an n x n/3
    block of about 11 MB at n = 2000.
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
                f"pentadiagonal dimension {self.n} exceeds {MAX_DIM}: the decay slope solves for n/3 columns "
                "of the inverse; lower --dim"
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


@dataclass(frozen=True)
class DecayDiagnostics:
    """Predicted and empirically fitted off-diagonal decay of the inverse."""

    psi_min: float
    empirical_rate: float | None


def _split(params: PentaParams) -> tuple[TridiagFactor, TridiagFactor, float]:
    """The two factors and max |Z1 Z2 - P|, which must be at rounding level.

    The factor diagonals pi_1, pi_2 are the roots theta/2 +- sqrt(disc)/2 of
    x^2 - theta x + lam_p (eps - 2 lam_p), disc = theta^2 - 4 lam_p (eps - 2 lam_p);
    the first factor has bands (lam_p, pi_1, lam_p) and the second
    (1, pi_2/lam_p, 1). The root of theta's sign is formed directly and the other
    from the product pi_1 pi_2 = lam_p (eps - 2 lam_p), so neither cancels.
    """
    eps, theta, lam = params.eps, params.theta, params.lam_p
    if lam == 0.0:
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
    if theta >= 0.0:
        pi_1 = theta / 2.0 + root / 2.0
        num, den = eps - 2.0 * lam, pi_1  # = pi_2 / lam_p, as pi_1 pi_2 = lam_p (eps - 2 lam_p)
    else:
        pi_2 = theta / 2.0 - root / 2.0
        pi_1 = lam * ((eps - 2.0 * lam) / pi_2)
        num, den = pi_2, lam
    z1 = TridiagFactor(off=lam, diag=pi_1, n=params.n)
    z2 = TridiagFactor(off=1.0, diag=num / den, n=params.n)
    if not math.isfinite(z2.diag):
        raise DomainError(f"factor diagonal pi_2/lam_p = {num!r}/{den!r} overflows")
    if z1.psi == math.inf:
        raise DomainError(f"decay ratio pi_1/(2*lam_p) = {pi_1!r}/(2*{lam!r}) overflows")
    # Z1 Z2 is Toeplitz but for its two corner diagonal entries, which miss one a*b term
    a, d1, b, d2 = z1.off, z1.diag, z2.off, z2.diag
    diffs = [d1 * d2 + a * b - (eps - lam), a * b + d1 * d2 + a * b - eps, d1 * b + a * d2 - theta, a * b - lam]
    residual = float(np.max(np.abs(diffs)))  # np.max, unlike max, keeps a NaN
    scale = max(abs(eps), abs(theta), abs(lam), 1.0)
    if not residual <= 1e-9 * scale:  # NaN fails too
        raise DomainError("tridiagonal factor product failed to reconstruct the matrix")
    return z1, z2, residual


def _empirical_rate(params: PentaParams) -> float | None:
    """Least-squares slope of -log|inv(P)[r, r + lag]| against lag = 1..12.

    Averaged over the middle rows r = n/3 .. 2n/3 - 1 whose entries at those
    lags are non-zero; P is symmetric, so row r at r + lag is column r, which one
    banded LU solve against the unit vectors of those rows gives. P is negative
    definite when lam_p < 0, so the solver is the general one. None when no slope
    can be fitted: the dimension leaves a single lag, or every row's entries
    underflow to zero.
    """
    n, eps, theta, lam = params.n, params.eps, params.theta, params.lam_p
    row_lo, row_hi = n // 3, 2 * n // 3
    lags = np.arange(1, min(12, n - row_hi) + 1)
    if lags.size < 2:
        return None
    band = np.zeros((5, n))  # solve_banded's layout: band[2 + i - j, j] = P[i, j]
    band[0, 2:] = band[4, :-2] = lam
    band[1, 1:] = band[3, :-1] = theta
    band[2] = eps
    band[2, [0, -1]] -= lam
    k = np.arange(row_hi - row_lo)
    unit = np.zeros((n, k.size), order="F")  # Fortran order: LAPACK solves it in place
    unit[row_lo + k, k] = 1.0
    inv_cols = scipy.linalg.solve_banded((2, 2), band, unit, overwrite_b=True)
    vals = np.abs(inv_cols[(row_lo + k)[:, None] + lags, k[:, None]])
    log_mags = np.log(vals[np.all(vals > 0, axis=1)])
    if not log_mags.size:
        return None
    return -float(np.polyfit(lags, np.mean(log_mags, axis=0), 1)[0])


def diagnose_pentadiagonal(params: PentaParams) -> tuple[TridiagFactor, TridiagFactor, float, DecayDiagnostics | None]:
    """(z1, z2, residual, decay): P's two tridiagonal factors, max |Z1 Z2 - P|, and the
    predicted rate min_i psi_i with its empirical slope, or None when some
    pi_i <= 2 lam_p leaves a rate undefined. Raises DomainError when P does not split."""
    z1, z2, residual = _split(params)
    if z1.psi is None or z2.psi is None:
        return z1, z2, residual, None
    return z1, z2, residual, DecayDiagnostics(psi_min=min(z1.psi, z2.psi), empirical_rate=_empirical_rate(params))


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
