"""Closed testing with Simes local tests and simultaneous TDP lower bounds.

The shortcut needs a single scalar per family (the largest tail-set size the
Simes test leaves standing, h, found in O(n log n)); every query set R then
gets a lower confidence bound on its number of true discoveries in
O(|R| log |R|), simultaneously valid at level alpha over all R. The bounds of
all prefixes of the p-value order, which is all that region selection needs,
come from one sort and one linear sweep. The brute-force closed-testing
evaluator over the full power set, the definition this shortcut must match,
is kept with the tests (`tests/oracles.py`).

The layer takes the p-values alone: a selected set is a tuple of indices
into them, and what a window covers on the covariate axis is left to the
basis whose knot grid labels it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = [
    "PValueFamily",
    "RegionRecord",
    "TdpReport",
    "phi_alpha",
    "threshold_regions",
]


@dataclass(frozen=True)
class PValueFamily:
    """A family of p-values with the level alpha shared by every query."""

    p: np.ndarray
    alpha: float
    h: int = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ParameterError("p-value family must be a non-empty vector")
        if not np.all(np.isfinite(p)):
            raise ParameterError("p-values must be finite")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        object.__setattr__(self, "p", np.clip(p, 0.0, 1.0))
        object.__setattr__(self, "h", _h_alpha(self.p, self.alpha))

    @property
    def n(self) -> int:
        return self.p.size


def _h_alpha(p: np.ndarray, alpha: float) -> int:
    """Largest i such that the i largest p-values survive the Simes test.

    The tail of size i is ordered[n-i:], and its j-th smallest value rejects
    it iff that value <= (j * alpha) / i. The value with d values above it
    sits in every tail i > d, at rank j = i - d. For d = 0 the cutoff
    (i * alpha) / i is alpha up to rounding, so every i is tested. For d >= 1
    the cutoff grows with i by a factor of at least 1 + 1/n^2, more than its
    two roundings can undo while n < 10^7: the tails such a value rejects are
    all i from a first one on, which a bisection over every value at once
    finds. Tail i falls iff the largest value rejects it or i reaches the
    least of those first tails.
    """
    ordered = np.sort(p)
    n = ordered.size
    tails = np.arange(1, n + 1)
    rejected = ordered[-1] <= (tails * alpha) / tails
    lower = ordered[:-1]
    above = np.arange(n - 1, 0, -1)
    lo = above + 1
    hi = np.full(n - 1, n + 1)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        rejects = lower <= ((mid - above) * alpha) / mid
        unsettled = lo < hi
        hi = np.where(unsettled & rejects, mid, hi)
        lo = np.where(unsettled & ~rejects, mid + 1, lo)
    if lo.size:
        rejected |= tails >= lo.min()
    standing = tails[~rejected]
    return int(standing[-1]) if standing.size else 0


def _counts_below(scaled: np.ndarray, alpha: float, n_cutoffs: int) -> np.ndarray:
    """N(u) = #{scaled <= u * alpha} for u = 1..n_cutoffs; `scaled` ascending."""
    return np.searchsorted(scaled, np.arange(1, n_cutoffs + 1) * alpha, side="right")


def phi_alpha(family: PValueFamily, region: np.ndarray) -> int:
    """Simultaneous lower confidence bound on true discoveries within a set.

    Shortcut form: max over u = 1..|R| of 1 - u + #{i in R : h p_i <= u alpha}.
    Equals the closed-testing bound #R - max{#S subset of R with H_S kept}.
    """
    region = _as_index_set(region, family.n)
    scaled = np.sort(family.h * family.p[region])
    counts = _counts_below(scaled, family.alpha, scaled.size)
    return int(np.max(1 - np.arange(1, scaled.size + 1) + counts))


def _as_index_set(region, n: int) -> np.ndarray:
    idx = np.unique(np.asarray(region, dtype=int))
    if idx.size == 0:
        raise ParameterError("query set must be non-empty")
    if idx.min() < 0 or idx.max() >= n:
        raise ParameterError("query set contains out-of-range indices")
    return idx


@dataclass(frozen=True)
class RegionRecord:
    """Largest hypothesis set whose TDP bound clears one threshold."""

    tau: float
    windows: tuple[int, ...]
    phi: int
    bound: float


@dataclass(frozen=True)
class TdpReport:
    """Per-threshold selected regions and the p-value family their bounds use."""

    family: PValueFamily
    records: tuple[RegionRecord, ...]

    @property
    def alpha(self) -> float:
        return self.family.alpha

    @property
    def h(self) -> int:
        return self.family.h


def _prefix_phi(family: PValueFamily, order: np.ndarray) -> np.ndarray:
    """phi of the first s entries of `order` (ascending p) for s = 1..n.

    h * p is non-decreasing along `order`, so the prefix of size s counts
    min(s, N(u)) of its values under u * alpha, with N(u) taken over the whole
    family: phi(s) = max over u <= s of min(s - u + 1, N(u) - u + 1). From
    u*(s), the least u with N(u) >= s, on, the first term is the smaller and
    peaks at u*(s); below it the second is, and its running maximum covers
    every s at once.
    """
    counts = _counts_below(family.h * family.p[order], family.alpha, family.n)
    s = np.arange(1, family.n + 1)
    first_full = np.searchsorted(counts, s, side="left") + 1
    from_full = np.where(first_full <= s, s - first_full + 1, 0)
    best_partial = np.maximum.accumulate(counts - s + 1)
    last_partial = np.minimum(first_full, s + 1) - 1
    partial = np.where(last_partial >= 1, best_partial[last_partial - 1], 0)
    return np.maximum(from_full, partial)


def threshold_regions(p, alpha: float, thresholds) -> TdpReport:
    """Largest hypothesis sets whose TDP lower bound clears each threshold.

    `p` holds one p-value per hypothesis (window); a record's `windows` are
    indices into it. Candidates are prefixes of the hypotheses ordered by
    ascending p-value (ties by index): the bound depends on a set only
    through how many of its scaled p-values fall under each u*alpha cutoff,
    so swapping any member for one with a smaller p-value can never lower
    it, and the best set of each size is a prefix. One sweep gives phi of
    every prefix (`_prefix_phi`), and each threshold takes the largest size
    s with phi >= tau * s. Thresholds are processed in descending order; all
    reported bounds are simultaneously valid at level alpha.
    """
    taus = sorted(set(float(t) for t in thresholds), reverse=True)
    if any(not 0.0 < t <= 1.0 for t in taus):
        raise ParameterError("thresholds must lie in (0, 1]")
    family = PValueFamily(p=p, alpha=alpha)
    order = np.lexsort((np.arange(family.n), family.p))
    prefix_phi = _prefix_phi(family, order)
    sizes = np.arange(1, family.n + 1)
    records = []
    for tau in taus:
        clears = np.flatnonzero(prefix_phi >= tau * sizes)
        if clears.size == 0:
            records.append(RegionRecord(tau=tau, windows=(), phi=0, bound=0.0))
            continue
        size = int(clears[-1]) + 1
        phi = int(prefix_phi[size - 1])
        windows = tuple(sorted(int(k) for k in order[:size]))
        records.append(RegionRecord(tau=tau, windows=windows, phi=phi, bound=phi / size))
    return TdpReport(family=family, records=tuple(records))
