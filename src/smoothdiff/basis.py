"""B-spline bases on a shared uniform knot grid.

Both data strata are expanded on the same basis, so the knot grid, the
knot-defined test regions and the difference penalty all live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import ParameterError

__all__ = [
    "BasisSpec",
    "DesignMatrix",
    "PenaltyMatrix",
    "make_basis",
    "design_matrix",
    "expand_band",
    "difference_penalty",
]


@dataclass(frozen=True)
class BasisSpec:
    """A degree-`degree` B-spline basis of dimension `m` on `[z_lo, z_hi]`.

    `knots` follows the open-uniform convention: length m + degree + 1 with
    the boundary knot repeated degree + 1 times on each side, so the basis
    sums to one everywhere on the domain.
    """

    degree: int
    z_lo: float
    z_hi: float
    m: int
    knots: np.ndarray

    @property
    def n_regions(self) -> int:
        """Number of knot-defined test regions (windows of degree+1 coefficients)."""
        return self.m - self.degree

    @property
    def breakpoints(self) -> np.ndarray:
        """The n_regions + 1 distinct knot values partitioning the domain."""
        return self.knots[self.degree : self.m + 1]

    def basis_support_cells(self, j: int) -> tuple[int, int]:
        """Half-open range of elementary knot cells covered by basis function j."""
        lo = max(j - self.degree, 0)
        hi = min(j + 1, self.n_regions)
        return lo, hi

    def window_intervals(self, windows) -> list[tuple[float, float]]:
        """The disjoint covariate intervals covered by a set of windows, in ascending order.

        Window k annotates its knot-defined region, the cell between
        breakpoints k and k + 1: that cell is exactly where the fitted
        difference depends on the window's coefficients, so area TDP matches
        hypothesis-count TDP. Each run k..j of consecutive windows becomes
        (breakpoints[k], breakpoints[j + 1]). `windows` must be strictly
        ascending indices into the n_regions windows.
        """
        k = np.asarray(windows, dtype=int)
        if k.ndim != 1 or np.any(np.diff(k, prepend=-1, append=self.n_regions) <= 0):
            raise ParameterError(f"windows must be strictly ascending indices below {self.n_regions}")
        # a run starts at k[i] iff gap[i], and ends there iff gap[i + 1]
        gap = np.diff(k, prepend=-2, append=self.n_regions + 1) > 1
        bp = self.breakpoints
        return list(zip(bp[k[gap[:-1]]].tolist(), bp[k[gap[1:]] + 1].tolist()))


@dataclass
class DesignMatrix:
    """Basis expansion of a covariate sample.

    Rows are stored compactly: row i has the degree+1 potentially non-zero
    values `values[i]` starting at column `start[i]`. A product used once
    takes one `bincount` per coefficient pair, or per offset and column: the
    unweighted `gram_band` and `rhs`. IRLS's weighted products, `gram_band(w)`
    and `weighted_rhs`, go through weight-free CSR operators that the first
    of them builds, and `predict` through the CSR form of Z, built on first
    use; so a Gaussian fit builds no IRLS operator.
    A CSR product sums each output entry over the row's stored samples in
    ascending order from zero, the order in which `bincount` accumulates, so
    both kernels give the same sums bit for bit. Each CSR kernel takes a
    stack of vectors in one product and gives every vector's result bit for
    bit as it would alone, whatever the number of vectors.
    """

    z: np.ndarray
    values: np.ndarray
    start: np.ndarray
    m: int
    _ops: tuple | None = field(default=None, repr=False)
    _gram: np.ndarray | None = field(default=None, repr=False)
    _design: scipy.sparse.csr_array | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def _operators(self) -> tuple:
        if self._ops is None:
            self._ops = _sparse_operators(self.values, self.start, self.m)
        return self._ops

    def gram_band(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Z' diag(w) Z in upper band storage (solveh_banded layout).

        Row `width - 1 - k` holds the k-th superdiagonal, right-aligned, so
        the main diagonal is the last row; each pair's band row is added in
        pair order. The unweighted band takes one `bincount` per pair, is
        computed once and shared, read-only. Weights go through one product
        with the CSR operator G: a (k, n) stack of weight vectors gives the
        (k, width, m) stack of their bands.
        """
        if weights is not None:
            return self._gram_bands(weights)
        if self._gram is None:
            w, m = self.width, self.m
            band = np.zeros((w, m))
            for a, b in _pairs(w):
                band[w - 1 - (b - a)] += np.bincount(
                    self.start + b, weights=self.values[:, a] * self.values[:, b], minlength=m
                )
            band.setflags(write=False)
            self._gram = band
        return self._gram

    def _gram_bands(self, weights: np.ndarray) -> np.ndarray:
        w, m = self.width, self.m
        gram_op, _ = self._operators()
        per_pair = (gram_op @ weights.T).T
        band = np.zeros((*weights.shape[:-1], w, m))
        for k, (a, b) in enumerate(_pairs(w)):
            band[..., w - 1 - (b - a), :] += per_pair[..., k * m : (k + 1) * m]
        return band

    # No library path calls this; perfbench/spans.py wraps it by attribute.
    def crossprod(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Z' diag(w) Z as a dense m x m matrix: the expansion of `gram_band`."""
        return expand_band(self.gram_band(weights))

    def rhs(self, y: np.ndarray) -> np.ndarray:
        """Z'y for a vector y, or for each column of an n x c matrix y.

        One `bincount` per offset within the compact rows and column, the
        offsets added in order.
        """
        cols = y[:, None] if y.ndim == 1 else y
        out = np.zeros((self.m, cols.shape[1]))
        for a in range(self.width):
            at = self.start + a
            for j in range(cols.shape[1]):
                out[:, j] += np.bincount(at, weights=self.values[:, a] * cols[:, j], minlength=self.m)
        return out[:, 0] if y.ndim == 1 else out

    def weighted_rhs(self, wy: np.ndarray) -> np.ndarray:
        """Z'y for each column of IRLS's n x c stack of columns, which its caller has weighted.

        One product with the CSR operator R gives every offset's sums; they
        are added in offset order, as `rhs` adds them.
        """
        _, rhs_op = self._operators()
        per_offset = (rhs_op @ wy).reshape(self.width, self.m, *wy.shape[1:])
        out = np.zeros(per_offset.shape[1:])
        for part in per_offset:
            out += part
        return out

    def predict(self, coef: np.ndarray) -> np.ndarray:
        """Z @ coef; a (k, m) stack of coefficient vectors gives a (k, n) array.

        One product with the CSR form of Z, whose row i holds the compact
        row's values in column order.
        """
        if self._design is None:
            indptr = np.arange(0, self.values.size + 1, self.width)
            cols = self.start[:, None] + np.arange(self.width)
            self._design = scipy.sparse.csr_array((self.values.ravel(), cols.ravel(), indptr), shape=(self.n, self.m))
        return np.ascontiguousarray((self._design @ coef.T).T)


def _pairs(width: int) -> list[tuple[int, int]]:
    """Coefficient pairs (a, b), a <= b, of one compact row, in the order the Gram band adds them."""
    return [(a, b) for a in range(width) for b in range(a, width)]


def _span_order(start: np.ndarray, m: int) -> np.ndarray:
    """The stable sort of the compact rows' first columns, each in [0, m).

    Below m = 2^16 it sorts 16-bit keys, which numpy sorts by radix, to the
    same permutation.
    """
    return np.argsort(start.astype(np.uint16) if m <= 1 << 16 else start, kind="stable")


def _sparse_operators(values: np.ndarray, start: np.ndarray, m: int) -> tuple:
    """(G, R): the weight-independent CSR operators behind the weighted `gram_band` and `weighted_rhs`.

    Row k*m + j of G holds pair k's products `values[:, a] * values[:, b]`
    at the samples with `start + b == j`; row a*m + j of R holds
    `values[:, a]` at the samples with `start + a == j`. Each row lists its
    samples in ascending order, and `csr_matvec` sums a row from 0 in that
    order, which is the order `np.bincount` accumulates in, so `G @ w` and
    `R @ (w*y)` give the per-pair and per-offset sums of a `bincount` bit
    for bit.
    """
    width = values.shape[1]
    order = _span_order(start, m)
    per_start = np.bincount(start, minlength=m)
    vals = values[order]

    def csr(blocks: list[tuple[np.ndarray, int]]) -> scipy.sparse.csr_array:
        # Block k is (data, shift), data listing the samples in `order`;
        # sample i goes to row k*m + start[i] + shift.
        counts = np.zeros((len(blocks), m), dtype=np.int64)
        for k, (_, shift) in enumerate(blocks):
            counts[k, shift:] = per_start[: m - shift]
        indptr = np.concatenate([[0], np.cumsum(counts)])
        data = np.concatenate([block for block, _ in blocks])
        indices = np.tile(order, len(blocks))
        return scipy.sparse.csr_array((data, indices, indptr), shape=(len(blocks) * m, start.size))

    gram_op = csr([(vals[:, a] * vals[:, b], b) for a, b in _pairs(width)])
    rhs_op = csr([(vals[:, a], a) for a in range(width)])
    return gram_op, rhs_op


@dataclass(frozen=True)
class PenaltyMatrix:
    """q-th order difference penalty S = D'D, D stacking the difference stencils.

    `band` is S's upper band in solveh_banded layout (q + 1 rows), which is
    all that fitting reads.
    """

    order: int
    band: np.ndarray

    @property
    def m(self) -> int:
        return self.band.shape[1]


# Only `crossprod` calls this, for perfbench/spans.py's wrapper of it.
def expand_band(band: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix from its upper band storage."""
    u, m = band.shape[0] - 1, band.shape[1]
    out = np.zeros((m, m))
    for off in range(min(u, m - 1) + 1):
        idx = np.arange(m - off)
        out[idx, idx + off] = band[u - off, off:]
        out[idx + off, idx] = band[u - off, off:]
    return out


def make_basis(z_lo: float, z_hi: float, m: int, degree: int) -> BasisSpec:
    """Build a uniform B-spline basis of dimension m and the given degree.

    Interior knots are equally spaced over the domain and the boundary knots
    are repeated degree+1 times, giving m - degree knot-defined regions. A
    domain whose width overflows, or whose breakpoints do not rise in steps
    of at least the smallest normal float, is rejected.
    """
    if not (np.isfinite(z_lo) and np.isfinite(z_hi)) or z_lo >= z_hi:
        raise ParameterError(f"degenerate domain [{z_lo}, {z_hi}]")
    if degree < 0:
        raise ParameterError("degree must be non-negative")
    if m < degree + 2:
        raise ParameterError(f"basis dimension m={m} must be at least degree+2={degree + 2}")
    where = f"domain [{z_lo}, {z_hi}] cannot hold a basis of m={m}, degree {degree}"
    if not np.isfinite(float(z_hi) - float(z_lo)):  # Python floats overflow to inf without a warning
        raise ParameterError(f"{where}: its width overflows")
    breakpoints = np.linspace(z_lo, z_hi, m - degree + 1)
    step = float(np.diff(breakpoints).min())
    if not step >= np.finfo(float).tiny:  # de Boor's scheme divides by the steps
        raise ParameterError(
            f"{where}: its {breakpoints.size} breakpoints are not strictly increasing in normal steps (smallest {step!r})"
        )
    knots = np.concatenate(
        [np.full(degree, z_lo), breakpoints, np.full(degree, z_hi)]
    )
    return BasisSpec(degree=degree, z_lo=float(z_lo), z_hi=float(z_hi), m=m, knots=knots)


def _find_spans(spec: BasisSpec, z: np.ndarray) -> np.ndarray:
    """Knot span index mu per point: knots[mu] <= z < knots[mu+1], clamped to valid spans.

    On `make_basis`'s uniform grid of spacing h the span is
    floor((z - z_lo) / h) + degree. Rounding can put that quotient one span
    off either way, so one comparison with the knots each way corrects it.
    z is clipped to the domain before dividing, so no quotient overflows
    and every cast is in range; the clamp treats points outside alike.
    """
    d, m, knots = spec.degree, spec.m, spec.knots
    h = (spec.z_hi - spec.z_lo) / (m - d)
    mu = ((np.clip(z, spec.z_lo, spec.z_hi) - spec.z_lo) / h).astype(np.intp) + d
    np.minimum(mu, m - 1, out=mu)
    mu -= knots[mu] > z
    mu += knots[mu + 1] <= z
    return np.clip(mu, d, m - 1)


def _nonzero_basis(spec: BasisSpec, z: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Values of the degree+1 basis functions mu-degree..mu at each z (de Boor's scheme)."""
    d = spec.degree
    n = z.shape[0]
    vals = np.zeros((n, d + 1))
    vals[:, 0] = 1.0
    left = np.zeros((n, d + 1))
    right = np.zeros((n, d + 1))
    for j in range(1, d + 1):
        left[:, j] = z - spec.knots[mu + 1 - j]
        right[:, j] = spec.knots[mu + j] - z
        saved = np.zeros(n)
        for r in range(j):
            term = vals[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * term
            saved = left[:, j - r] * term
        vals[:, j] = saved
    return vals


def design_matrix(spec: BasisSpec, z: np.ndarray) -> DesignMatrix:
    """Basis expansion of a covariate vector; the row of a sample outside the domain is zero."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size == 0:
        raise ParameterError("covariate vector must be one-dimensional and non-empty")
    if not np.all(np.isfinite(z)):
        raise ParameterError("covariate vector contains non-finite values")
    mu = _find_spans(spec, z)
    vals = _nonzero_basis(spec, z, mu)
    outside = (z < spec.z_lo) | (z > spec.z_hi)
    if outside.any():
        vals = vals.copy()
        vals[outside] = 0.0
    return DesignMatrix(z=z, values=vals, start=mu - spec.degree, m=spec.m)


def difference_penalty(m: int, order: int = 2) -> PenaltyMatrix:
    """Difference penalty of the given order, S = D'D with D (m-order) x m.

    S's band is summed from the stencil: row r of D holds the stencil c at
    columns r..r+order, adding c_k c_{k+d} to S[r+k, r+k+d]. The entries
    are small integers, so the sums are exact and the band equals D'D's.
    """
    if order < 1:
        raise ParameterError("penalty order must be at least 1")
    if m <= order:
        raise ParameterError(f"basis dimension m={m} must exceed penalty order {order}")
    stencil = np.diff(np.eye(order + 1), n=order, axis=0)[0]
    rows = m - order
    band = np.zeros((order + 1, m))
    for d in range(order + 1):
        for k in range(order + 1 - d):
            band[order - d, k + d : k + d + rows] += stencil[k] * stencil[k + d]
    return PenaltyMatrix(order=order, band=band)
