"""Closed testing with Simes local tests and simultaneous TDP lower bounds.

The shortcut needs a single scalar per family (the largest tail-set size the
Simes test leaves standing); every query set R then gets a lower confidence
bound on its number of true discoveries in O(|R|^2), simultaneously valid at
level alpha over all R. A brute-force closed-testing evaluator over the full
power set doubles as the correctness oracle for small families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = [
    "PValueFamily",
    "RegionRecord",
    "TdpReport",
    "simes_test",
    "phi_alpha",
    "threshold_regions",
    "closed_testing_oracle",
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


def simes_test(pvals: np.ndarray, alpha: float) -> bool:
    """True iff the Simes test rejects the intersection hypothesis of the set."""
    pvals = np.asarray(pvals, dtype=float)
    if pvals.size == 0:
        raise ParameterError("Simes test is undefined on an empty set")
    n = pvals.size
    ordered = np.sort(pvals)
    return bool(np.any(ordered <= np.arange(1, n + 1) * alpha / n))


def _h_alpha(p: np.ndarray, alpha: float) -> int:
    """Largest i such that the i largest p-values survive the Simes test."""
    ordered = np.sort(p)
    n = ordered.size
    for i in range(n, 0, -1):
        tail = ordered[n - i :]
        if not np.any(tail <= np.arange(1, i + 1) * alpha / i):
            return i
    return 0


def phi_alpha(family: PValueFamily, region: np.ndarray) -> int:
    """Simultaneous lower confidence bound on true discoveries within a set.

    Shortcut form: max over u = 1..|R| of 1 - u + #{i in R : h p_i <= u alpha}.
    Equals the closed-testing bound #R - max{#S subset of R with H_S kept}.
    """
    region = _as_index_set(region, family.n)
    ps = family.p[region]
    r = ps.size
    scaled = family.h * ps
    u = np.arange(1, r + 1)
    counts = np.count_nonzero(scaled[None, :] <= u[:, None] * family.alpha, axis=1)
    return int(np.max(1 - u + counts))


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
    intervals: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class TdpReport:
    """h, per-threshold selected regions, and their simultaneous TDP bounds."""

    alpha: float
    h: int
    records: tuple[RegionRecord, ...]

    def record(self, tau: float) -> RegionRecord:
        for rec in self.records:
            if rec.tau == tau:
                return rec
        raise ParameterError(f"no record for threshold {tau}")


def _largest_prefix_at(family: PValueFamily, order: np.ndarray, tau: float) -> tuple[int, int]:
    """Largest s with phi(first s of `order`) >= tau * s, and that phi."""
    for s in range(order.size, 0, -1):
        phi = phi_alpha(family, order[:s])
        if phi >= tau * s:
            return s, phi
    return 0, 0


def threshold_regions(series, alpha: float, thresholds) -> TdpReport:
    """Largest hypothesis sets whose TDP lower bound clears each threshold.

    Candidates are prefixes of the windows ordered by ascending p-value
    (ties by window index): the bound depends on a set only through how many
    of its scaled p-values fall under each u*alpha cutoff, so swapping any
    member for one with a smaller p-value can never lower it, and the best
    set of each size is a prefix. Thresholds are processed in descending
    order; all reported bounds are simultaneously valid at level alpha.
    """
    taus = sorted(set(float(t) for t in thresholds), reverse=True)
    if any(not 0.0 < t <= 1.0 for t in taus):
        raise ParameterError("thresholds must lie in (0, 1]")
    family = PValueFamily(p=series.p, alpha=alpha)
    order = np.lexsort((np.arange(family.n), family.p))
    records = []
    for tau in taus:
        size, phi = _largest_prefix_at(family, order, tau)
        windows = tuple(sorted(int(k) for k in order[:size]))
        if size == 0:
            records.append(RegionRecord(tau=tau, windows=(), phi=0, bound=0.0, intervals=()))
            continue
        # Window k annotates its knot-defined region (one elementary cell):
        # that cell is exactly where the fitted difference depends on the
        # window's coefficients, so area TDP matches hypothesis-count TDP.
        spec = series.spec
        cells = np.zeros(spec.n_regions, dtype=bool)
        cells[list(windows)] = True
        records.append(
            RegionRecord(
                tau=tau,
                windows=windows,
                phi=phi,
                bound=phi / size,
                intervals=tuple(spec.cells_to_intervals(cells)),
            )
        )
    return TdpReport(alpha=alpha, h=family.h, records=tuple(records))


def closed_testing_oracle(family: PValueFamily, region: np.ndarray) -> int:
    """Definitional TDP bound via full power-set closed testing (small n only).

    Evaluates the Simes local test on every non-empty subset, closes under
    supersets, and returns #R minus the largest subset of R not rejected by
    the closed procedure. Exponential in n; guarded at n <= 20.
    """
    n = family.n
    if n > 20:
        raise ParameterError("closed-testing oracle is limited to n <= 20")
    region = _as_index_set(region, n)
    p = family.p
    alpha = family.alpha

    n_masks = 1 << n
    local_reject = np.zeros(n_masks, dtype=bool)
    for mask in range(1, n_masks):
        members = [i for i in range(n) if mask >> i & 1]
        local_reject[mask] = simes_test(p[members], alpha)

    # Close under supersets: rejected iff every superset's local test rejects.
    in_x = local_reject.copy()
    for bit in range(n):
        step = 1 << bit
        for mask in range(n_masks):
            if not mask >> bit & 1:
                in_x[mask] = in_x[mask] and in_x[mask | step]

    region_mask = 0
    for i in region:
        region_mask |= 1 << int(i)

    # Largest surviving subset of R; the empty set always survives.
    best = 0
    sub = region_mask
    while sub:
        if not in_x[sub]:
            best = max(best, bin(sub).count("1"))
        sub = (sub - 1) & region_mask
    return int(region.size - best)
