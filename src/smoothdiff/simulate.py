"""Two-stratum simulation engine with seeded, replicate-keyed substreams.

A replicate draws shared baseline coefficients, plants sign-shifted
differences on a clumped index set, synthesizes one dataset per stratum,
runs the full fit / window-test / TDP pipeline, and scores the selected
regions against the planted truth by covariate length. Replicates are keyed
by (seed, index) through a counter-based generator, so serial and parallel
runs produce identical output.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpbtrf, dtbtrs
from scipy.special import expit

from .basis import BasisSpec, design_matrix, difference_penalty, make_basis
from .errors import NumericalError, ParameterError
from .fitting import StratumData, StratumFit, select_lambda
from .tdp import TdpReport, phi_alpha, threshold_regions
from .windows import window_statistics

__all__ = [
    "SimScenario",
    "RegionOutcome",
    "ReplicateRecord",
    "SimOutcome",
    "FAILURE_CAUSES",
    "failure_cause",
    "replicate_rng",
    "clumped_indices",
    "gen_coefficients",
    "gen_stratum",
    "run_replicate",
    "representative_fit",
    "exact_model_error_rates",
    "run_scenario",
    "outcome_to_json",
    "table_csv_lines",
]


@dataclass(frozen=True)
class SimScenario:
    """Generation and analysis settings for one simulation study."""

    n_nonzero: int
    sigma_b2: float = 0.1
    sigma_delta2: float = 0.05
    m_delta: float = 2.4
    noise_var: float = 0.8
    n_per_stratum: int = 4000
    m: int = 120
    degree: int = 3
    penalty_order: int = 2
    nu: float = 6.0
    domain: tuple[float, float] = (0.0, 10.0)
    family: str = "gaussian"
    alphas: tuple[float, ...] = (0.1,)
    thresholds: tuple[float, ...] = (0.5, 0.7, 0.9)
    n_replicates: int = 100
    seed: int = 0
    m_delta_sweep: tuple[float, float] | None = None

    def __post_init__(self):
        if not 0 < self.n_nonzero < self.m:
            raise ParameterError("n_nonzero must lie strictly between 0 and m")
        for name, low in (("sigma_b2", 0), ("sigma_delta2", 0), ("m_delta", 0), ("noise_var", 0), ("nu", 1)):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= low):
                raise ParameterError(f"{name} = {value!r} must be finite and at least {low}")
        sweep = self.m_delta_sweep
        if sweep is not None and (len(sweep) != 2 or not all(np.isfinite(v) and v >= 0 for v in sweep)):
            raise ParameterError(f"m_delta_sweep = {sweep!r} must be two finite non-negative values")
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed = {self.seed!r} must lie in [0, 2**64)")
        if self.family not in ("gaussian", "binomial"):
            raise ParameterError(f"unknown family {self.family!r}")
        if self.family == "gaussian" and not self.noise_var > 0:
            raise ParameterError(f"noise_var = {self.noise_var!r} must be positive for a Gaussian family")
        if any(not 0 < a < 1 for a in self.alphas):
            raise ParameterError("alpha levels must lie in (0, 1)")
        if any(not 0 < t <= 1 for t in self.thresholds):
            raise ParameterError("TDP thresholds must lie in (0, 1]")
        if self.n_replicates < 1:
            raise ParameterError("replicate count must be at least 1")
        object.__setattr__(self, "domain", (float(self.domain[0]), float(self.domain[1])))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(
            self, "thresholds", tuple(sorted((float(t) for t in self.thresholds), reverse=True))
        )

    def basis(self) -> BasisSpec:
        return make_basis(self.domain[0], self.domain[1], self.m, self.degree)

    def m_delta_at(self, index: int) -> float:
        if self.m_delta_sweep is None:
            return self.m_delta
        lo, hi = self.m_delta_sweep
        if self.n_replicates == 1:
            return float(lo)
        return float(lo + (hi - lo) * index / (self.n_replicates - 1))


@dataclass(frozen=True)
class RegionOutcome:
    """Scored selection for one (alpha, threshold) pair in one replicate."""

    alpha: float
    tau: float
    n_windows: int
    bound: float
    empirical_tdp: float | None
    truth_coverage: float | None
    error: int


@dataclass(frozen=True)
class ReplicateRecord:
    index: int
    m_delta: float
    true_indices: tuple[int, ...]
    p_values: tuple[float, ...]
    regions: tuple[RegionOutcome, ...]
    truth_region_tdp: dict
    failed: bool = False
    message: str = ""


# Failure causes in report order, each with the text that marks its messages
# (raised in fitting and windows); a message matching none is "other".
_FAILURE_MARKERS = (
    ("separation", "separation"),
    ("irls_nonconvergence", "IRLS failed to converge"),
    ("not_positive_definite", "not positive definite"),
    ("no_lambda_candidate", "no smoothing parameter candidate"),
)
FAILURE_CAUSES = tuple(cause for cause, _ in _FAILURE_MARKERS) + ("other",)


def failure_cause(message: str) -> str:
    """Cause of a failed replicate, one of FAILURE_CAUSES, read from its message."""
    for cause, marker in _FAILURE_MARKERS:
        if marker in message:
            return cause
    return "other"


@dataclass(frozen=True)
class SimOutcome:
    """Aggregated simulation results: per-cell tables plus raw records."""

    scenario: SimScenario
    records: tuple[ReplicateRecord, ...]
    error_table: dict
    tdp_table: dict
    n_failed: int

    @property
    def n_effective(self) -> int:
        return len(self.records) - self.n_failed

    @property
    def failures_by_cause(self) -> dict[str, int]:
        """Failed replicates per cause, in FAILURE_CAUSES order; causes with none are left out."""
        causes = [failure_cause(r.message) for r in self.records if r.failed]
        return {c: causes.count(c) for c in FAILURE_CAUSES if c in causes}


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based substream for one replicate, independent of run order."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def clumped_indices(m: int, k: int, nu: float, rng: np.random.Generator) -> np.ndarray:
    """Draw k distinct indices where neighbors of chosen ones carry weight nu."""
    if not 0 < k < m:
        raise ParameterError(f"number of indices k={k} must lie strictly between 0 and m={m}")
    if nu < 1:
        raise ParameterError("clumping factor must be at least 1")
    # Weights kept incrementally: 0 once chosen, nu for an unchosen neighbour
    # of a chosen index, 1 otherwise.
    weights = np.ones(m)
    chosen = np.zeros(m, dtype=bool)
    for _ in range(k):
        # The draw of rng.choice(m, p=weights / weights.sum()), step for step,
        # so the indices and the generator state match it bit for bit.
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        pick = int(cdf.searchsorted(rng.random(), side="right"))
        chosen[pick] = True
        weights[pick] = 0.0
        for j in (pick - 1, pick + 1):
            if 0 <= j < m and not chosen[j]:
                weights[j] = nu
    return np.flatnonzero(chosen)


def gen_coefficients(
    scenario: SimScenario, rng: np.random.Generator, m_delta: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Baseline and shifted coefficient vectors plus the difference index set.

    Differences on the chosen set are N(0, sigma_delta2) draws pushed away
    from zero by m_delta in the direction of their sign, so every planted
    difference has magnitude at least m_delta.
    """
    if m_delta is None:
        m_delta = scenario.m_delta
    b_base = rng.normal(0.0, np.sqrt(scenario.sigma_b2), scenario.m)
    k_set = clumped_indices(scenario.m, scenario.n_nonzero, scenario.nu, rng)
    delta = rng.normal(0.0, np.sqrt(scenario.sigma_delta2), k_set.size)
    delta = delta + np.where(delta >= 0, 1.0, -1.0) * m_delta
    b_alt = b_base.copy()
    b_alt[k_set] += delta
    return b_base, b_alt, k_set


def gen_stratum(
    coefs: np.ndarray,
    scenario: SimScenario,
    rng: np.random.Generator,
    spec: BasisSpec | None = None,
) -> StratumData:
    """Synthesize one stratum: uniform covariates plus family-specific noise."""
    if spec is None:
        spec = scenario.basis()
    if coefs.size != spec.m:
        raise ParameterError("coefficient vector does not match the basis dimension")
    z = rng.uniform(scenario.domain[0], scenario.domain[1], scenario.n_per_stratum)
    eta = design_matrix(spec, z).predict(coefs)
    if scenario.family == "gaussian":
        y = eta + rng.normal(0.0, np.sqrt(scenario.noise_var), z.size)
    else:
        y = (rng.random(z.size) < expit(eta)).astype(float)
    return StratumData(y=y, z=z, family=scenario.family)


def _truth_cells(spec: BasisSpec, nonzero: np.ndarray) -> np.ndarray:
    cells = np.zeros(spec.n_regions, dtype=bool)
    for j in nonzero:
        lo, hi = spec.basis_support_cells(int(j))
        cells[lo:hi] = True
    return cells


def _selected_cells(spec: BasisSpec, windows) -> np.ndarray:
    cells = np.zeros(spec.n_regions, dtype=bool)
    cells[[int(k) for k in windows]] = True
    return cells


def _score_regions(
    report: TdpReport, spec: BasisSpec, truth_cells: np.ndarray
) -> list[RegionOutcome]:
    """Score each selected region of one TDP report against the planted truth.

    Cell k is true iff window k holds a planted coefficient, so counting
    cells and counting windows agree; the selection errs when its bound
    claims more true discoveries than it holds.
    """
    truth_count = int(truth_cells.sum())
    outcomes = []
    for rec in report.records:
        if rec.windows:
            # Uniform knot cells: Lebesgue-measure ratios reduce to exact
            # integer cell-count ratios, keeping the error comparison sharp.
            sel = _selected_cells(spec, rec.windows)
            sel_count = int(sel.sum())
            inter_count = int((sel & truth_cells).sum())
            empirical = inter_count / sel_count
            coverage = inter_count / truth_count if truth_count > 0 else None
            error = int(rec.phi > inter_count)
        else:
            empirical = None
            coverage = 0.0 if truth_count > 0 else None
            error = 0
        outcomes.append(
            RegionOutcome(
                alpha=report.alpha,
                tau=rec.tau,
                n_windows=len(rec.windows),
                bound=rec.bound,
                empirical_tdp=empirical,
                truth_coverage=coverage,
                error=error,
            )
        )
    return outcomes


def run_replicate(scenario: SimScenario, index: int) -> ReplicateRecord:
    """Generate, fit and score one replicate; failures are recorded, not raised."""
    rng = replicate_rng(scenario.seed, index)
    m_delta = scenario.m_delta_at(index)
    spec = scenario.basis()
    pen = difference_penalty(scenario.m, scenario.penalty_order)
    b_base, b_alt, k_set = gen_coefficients(scenario, rng, m_delta)
    data_base = gen_stratum(b_base, scenario, rng, spec)
    data_alt = gen_stratum(b_alt, scenario, rng, spec)
    try:
        fits = [select_lambda(data, spec, pen) for data in (data_alt, data_base)]
        series = window_statistics(fits[0], fits[1], spec)
    except NumericalError as exc:
        return ReplicateRecord(
            index=index,
            m_delta=m_delta,
            true_indices=tuple(int(j) for j in k_set),
            p_values=(),
            regions=(),
            truth_region_tdp={},
            failed=True,
            message=str(exc),
        )

    nonzero = k_set[b_alt[k_set] != b_base[k_set]]
    truth_cells = _truth_cells(spec, nonzero)
    # Window k holds coefficients k..k+degree, so it holds a planted one
    # exactly when cell k is true.
    truth_windows = np.flatnonzero(truth_cells)

    regions = []
    truth_region_tdp = {}
    for alpha in scenario.alphas:
        report = threshold_regions(series, alpha, scenario.thresholds)
        if truth_windows.size:
            truth_region_tdp[alpha] = phi_alpha(report.family, truth_windows) / truth_windows.size
        regions.extend(_score_regions(report, spec, truth_cells))
    return ReplicateRecord(
        index=index,
        m_delta=m_delta,
        true_indices=tuple(int(j) for j in k_set),
        p_values=tuple(float(p) for p in series.p),
        regions=tuple(regions),
        truth_region_tdp=truth_region_tdp,
    )


EXACT_MODEL_CASES = (
    (15, (0.1, 0.2), (0.5, 0.7, 0.9)),
    (30, (0.1,), (0.5, 0.7, 0.9)),
)


def representative_fit() -> tuple[BasisSpec, StratumFit]:
    """The basis and one fitted stratum of the reference Gaussian scenario."""
    seed = 99
    scenario = SimScenario(n_nonzero=15, alphas=(0.1,), n_replicates=1, seed=seed)
    spec = scenario.basis()
    pen = difference_penalty(scenario.m, scenario.penalty_order)
    rng = replicate_rng(seed, 0)
    b_base, _, _ = gen_coefficients(scenario, rng)
    return spec, select_lambda(gen_stratum(b_base, scenario, rng, spec), spec, pen)


def _reversed_factor(band: np.ndarray) -> np.ndarray:
    """Upper band of R, PAP = R'R with P the reversal, from A's upper band: PAP's d-th
    superdiagonal is A's reversed."""
    u = band.shape[0] - 1
    reversed_band = np.zeros_like(band)
    for d in range(u + 1):
        reversed_band[u - d, d:] = band[u - d, d:][::-1]
    factor, info = dpbtrf(reversed_band)
    if info:
        raise NumericalError(f"reference precision is not positive definite (leading minor {info})")
    return factor


def exact_model_error_rates(
    n_replicates: int, seed: int
) -> dict[tuple[int, float, float], tuple[float, float, int]]:
    """Type-1 error of the TDP selection when the window tests hold exactly.

    Bypasses fitting: each replicate draws the coefficient difference as
    planted difference plus L z, L the lower Cholesky factor of V = V1 + V2
    = 2 phi A^{-1} of a representative fit, so every chi-square null is
    exact. With PAP = R'R, P the reversal, L = sqrt(2 phi) P R^{-1} P: one
    banded triangular solve per draw (Rue & Held 2005, sections 2.3-2.4).
    `window_statistics` reads V from the fit's covariance band, given the
    draw and zeros as the two fits' coefficients. Regions are chosen by
    `threshold_regions` and scored as in `run_replicate`. Covers the cases
    of EXACT_MODEL_CASES; the result maps (n_nonzero, alpha, tau) to
    (error rate, Monte Carlo se, replicate count).
    """
    spec, fit = representative_fit()
    factor = _reversed_factor(fit.precision_band)
    scale = np.sqrt(2.0 * fit.dispersion)
    null = replace(fit, coef=np.zeros(spec.m))
    rates = {}
    for n_nonzero, alphas, thresholds in EXACT_MODEL_CASES:
        scenario = SimScenario(
            n_nonzero=n_nonzero,
            alphas=alphas,
            thresholds=thresholds,
            n_replicates=n_replicates,
            seed=seed,
        )
        errors = {(a, t): [] for a in scenario.alphas for t in scenario.thresholds}
        rng = np.random.default_rng(seed + n_nonzero)
        for _ in range(n_replicates):
            b_base, b_alt, k_set = gen_coefficients(scenario, rng)
            noise = dtbtrs(factor, rng.normal(size=(scenario.m, 1))[::-1])[0][::-1, 0]
            d_hat = (b_alt - b_base) + scale * noise
            series = window_statistics(replace(fit, coef=d_hat), null, spec)
            truth_cells = _truth_cells(spec, k_set[b_alt[k_set] != b_base[k_set]])
            for alpha in scenario.alphas:
                report = threshold_regions(series, alpha, scenario.thresholds)
                for region in _score_regions(report, spec, truth_cells):
                    errors[(alpha, region.tau)].append(float(region.error))
        for (alpha, tau), values in errors.items():
            rates[(n_nonzero, alpha, tau)] = _cell_stats(values)
    return rates


def _cell_stats(values: list[float]) -> tuple[float, float, int]:
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n == 0:
        return float("nan"), float("nan"), 0
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return mean, se, n


def _aggregate(scenario: SimScenario, records: list[ReplicateRecord]) -> SimOutcome:
    ok = [r for r in records if not r.failed]
    error_table = {}
    tdp_table = {}
    for alpha in scenario.alphas:
        for tau in scenario.thresholds:
            errors = []
            tdps = []
            for rec in ok:
                for region in rec.regions:
                    if region.alpha == alpha and region.tau == tau:
                        errors.append(float(region.error))
                        if region.empirical_tdp is not None:
                            tdps.append(region.empirical_tdp)
            error_table[(alpha, tau)] = _cell_stats(errors)
            tdp_table[(alpha, tau)] = _cell_stats(tdps)
    return SimOutcome(
        scenario=scenario,
        records=tuple(records),
        error_table=error_table,
        tdp_table=tdp_table,
        n_failed=len(records) - len(ok),
    )


def run_scenario(scenario: SimScenario, threads: int = 1) -> SimOutcome:
    """Run every replicate and aggregate; identical output for any thread count."""
    indices = list(range(scenario.n_replicates))
    if threads <= 1:
        records = [run_replicate(scenario, i) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(run_replicate, [scenario] * len(indices), indices, chunksize=8))
    records.sort(key=lambda r: r.index)
    if all(r.failed for r in records):
        raise NumericalError("every replicate failed; first message: " + records[0].message)
    return _aggregate(scenario, records)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def outcome_to_json(outcome: SimOutcome) -> str:
    """Canonical JSON serialization (sorted keys, full float precision)."""
    payload = {
        "scenario": _jsonable(asdict(outcome.scenario)),
        "n_failed": outcome.n_failed,
        "n_effective": outcome.n_effective,
        "error_table": {
            f"alpha={a}|tdp={t}": {"value": v, "mc_se": se, "n": n}
            for (a, t), (v, se, n) in sorted(outcome.error_table.items())
        },
        "tdp_table": {
            f"alpha={a}|tdp={t}": {"value": v, "mc_se": se, "n": n}
            for (a, t), (v, se, n) in sorted(outcome.tdp_table.items())
        },
        "replicates": [_jsonable(asdict(r)) for r in outcome.records],
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def table_csv_lines(table: dict) -> list[str]:
    """CSV rows (alpha, tdp_threshold, value, n_replicates, mc_se) for one table."""
    lines = ["alpha,tdp_threshold,value,n_replicates,mc_se"]
    for (alpha, tau), (value, se, n) in sorted(table.items()):
        lines.append(f"{alpha!r},{tau!r},{value!r},{n},{se!r}")
    return lines
