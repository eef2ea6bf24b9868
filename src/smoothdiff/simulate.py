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
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbtrf, dtbtrs
from scipy.special import expit

from .basis import BasisSpec, design_matrix, difference_penalty, make_basis
from .errors import NumericalError, ParameterError
from .fitting import StratumData, StratumFit, select_lambda
from .tdp import TdpReport, phi_alpha, threshold_regions
from .windows import WindowTestSeries, window_statistics

__all__ = [
    "SimScenario",
    "PRESETS",
    "PRESET_ALIASES",
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
    "SWEEP_BINS",
    "sweep_summary",
    "outcome_to_json",
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
        if sweep is not None and sweep[0] > sweep[1]:
            raise ParameterError(f"m_delta_sweep = {sweep!r} must run from LO up to HI")
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed = {self.seed!r} must lie in [0, 2**64)")
        if self.family not in ("gaussian", "binomial"):
            raise ParameterError(f"unknown family {self.family!r}")
        if self.family == "gaussian" and not self.noise_var > 0:
            raise ParameterError(f"noise_var = {self.noise_var!r} must be positive for a Gaussian family")
        if len(self.domain) != 2:
            raise ParameterError(f"domain = {tuple(self.domain)!r} must be two values, LO and HI")
        for name in ("alphas", "thresholds"):
            if not getattr(self, name):
                raise ParameterError(f"{name} must list at least one value")
        if any(not 0 < a < 1 for a in self.alphas):
            raise ParameterError("alpha levels must lie in (0, 1)")
        if any(not 0 < t <= 1 for t in self.thresholds):
            raise ParameterError("TDP thresholds must lie in (0, 1]")
        if self.n_replicates < 1:
            raise ParameterError("replicate count must be at least 1")
        if self.n_per_stratum < 1:
            raise ParameterError(f"n_per_stratum = {self.n_per_stratum!r} must be at least 1")
        object.__setattr__(self, "domain", (float(self.domain[0]), float(self.domain[1])))
        # a repeated level would count each replicate twice in its cell
        object.__setattr__(self, "alphas", tuple(dict.fromkeys(float(a) for a in self.alphas)))
        object.__setattr__(self, "thresholds", tuple(sorted({float(t) for t in self.thresholds}, reverse=True)))

    def basis(self) -> BasisSpec:
        return make_basis(self.domain[0], self.domain[1], self.m, self.degree)

    def m_delta_at(self, index: int) -> float:
        if self.m_delta_sweep is None:
            return self.m_delta
        lo, hi = self.m_delta_sweep
        if self.n_replicates == 1:
            return float(lo)
        if index == self.n_replicates - 1:  # lo + (hi - lo) * 1.0 can miss hi by an ulp
            return float(hi)
        return float(lo + (hi - lo) * index / (self.n_replicates - 1))


# The paper's studies: `simulate --preset NAME` and scripts/run_table_suite.py
# run these. The aliases name the same scenario.
PRESETS = {
    "table1a": SimScenario(
        n_nonzero=15, alphas=(0.1, 0.2, 0.3), n_replicates=2000, seed=20260810
    ),
    "table1b": SimScenario(
        n_nonzero=30, alphas=(0.1, 0.2, 0.3), n_replicates=1000, seed=20260810
    ),
    "tableS1": SimScenario(
        n_nonzero=20,
        family="binomial",
        m_delta=6.0,
        alphas=(0.1, 0.2, 0.3),
        n_replicates=1000,
        seed=20260810,
    ),
    "fig5": SimScenario(
        n_nonzero=15,
        alphas=(0.2,),
        m_delta_sweep=(0.0, 2.5),
        n_replicates=1000,
        seed=20260810,
    ),
    "fig6": SimScenario(
        n_nonzero=30,
        alphas=(0.2,),
        m_delta_sweep=(0.0, 2.5),
        n_replicates=1000,
        seed=20260810,
    ),
    "fig8": SimScenario(
        n_nonzero=20,
        family="binomial",
        alphas=(0.2,),
        m_delta_sweep=(0.0, 9.0),
        n_replicates=1000,
        seed=20260810,
    ),
}
PRESET_ALIASES = {"table2a": "table1a", "table2b": "table1b"}
PRESETS.update({alias: PRESETS[name] for alias, name in PRESET_ALIASES.items()})


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
    p_values: tuple[float, ...] = ()
    regions: tuple[RegionOutcome, ...] = ()
    truth_region_tdp: dict = field(default_factory=dict)
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


def _score_regions(report: TdpReport, truth_cells: np.ndarray) -> list[RegionOutcome]:
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
            inter_count = int(truth_cells[list(rec.windows)].sum())
            empirical = inter_count / len(rec.windows)
            coverage = inter_count / truth_count if truth_count > 0 else None
            error = int(rec.phi > inter_count)
        else:
            empirical = None
            coverage = 0.0 if truth_count > 0 else None
            error = 0
        outcomes.append(
            RegionOutcome(report.alpha, rec.tau, len(rec.windows), rec.bound, empirical, coverage, error)
        )
    return outcomes


def _score_series(
    series: WindowTestSeries, scenario: SimScenario, truth_cells: np.ndarray
) -> tuple[list[RegionOutcome], list[TdpReport]]:
    """Scored regions of every (alpha, threshold) cell, and the TDP report per alpha.

    Cell k is true (`_truth_cells`) iff window k holds a coefficient that
    differs between the strata: window k holds coefficients k..k+degree.
    """
    reports = [threshold_regions(series.p, alpha, scenario.thresholds) for alpha in scenario.alphas]
    return [outcome for report in reports for outcome in _score_regions(report, truth_cells)], reports


def run_replicate(scenario: SimScenario, index: int) -> ReplicateRecord:
    """Generate, fit and score one replicate; failures are recorded, not raised.

    Besides the scored regions, the record holds per alpha the TDP bound of
    the truth region, the set of windows holding a planted difference.
    """
    rng = replicate_rng(scenario.seed, index)
    m_delta = scenario.m_delta_at(index)
    spec = scenario.basis()
    pen = difference_penalty(scenario.m, scenario.penalty_order)
    b_base, b_alt, k_set = gen_coefficients(scenario, rng, m_delta)
    data_base = gen_stratum(b_base, scenario, rng, spec)
    data_alt = gen_stratum(b_alt, scenario, rng, spec)
    true_indices = tuple(int(j) for j in k_set)
    try:
        fits = select_lambda([data_alt, data_base], spec, pen)
        series = window_statistics(fits[0].coef - fits[1].coef, fits[0].cov_band + fits[1].cov_band, spec)
    except NumericalError as exc:
        return ReplicateRecord(index, m_delta, true_indices, failed=True, message=str(exc))
    truth_cells = _truth_cells(spec, np.flatnonzero(b_alt != b_base))
    regions, reports = _score_series(series, scenario, truth_cells)
    truth_windows = np.flatnonzero(truth_cells)
    truth_region_tdp = {}
    if truth_windows.size:
        for report in reports:
            truth_region_tdp[report.alpha] = phi_alpha(report.family, truth_windows) / truth_windows.size
    return ReplicateRecord(
        index, m_delta, true_indices, tuple(float(p) for p in series.p), tuple(regions), truth_region_tdp
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
    [fit] = select_lambda([gen_stratum(b_base, scenario, rng, spec)], spec, pen)
    return spec, fit


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
    `window_statistics` takes each draw as the coefficient difference and
    the band of V, formed once; the series is scored and tallied by
    `run_replicate`'s and `run_scenario`'s code. Covers the cases
    of EXACT_MODEL_CASES; the result maps (n_nonzero, alpha, tau) to
    (error rate, Monte Carlo se, replicate count).
    """
    spec, fit = representative_fit()
    factor = _reversed_factor(fit.precision_band)
    scale = np.sqrt(2.0 * fit.dispersion)
    v_band = 2.0 * fit.cov_band
    rates = {}
    for n_nonzero, alphas, thresholds in EXACT_MODEL_CASES:
        scenario = SimScenario(
            n_nonzero=n_nonzero, alphas=alphas, thresholds=thresholds, n_replicates=n_replicates, seed=seed
        )
        rng = np.random.default_rng(seed + n_nonzero)
        scored = []
        for _ in range(n_replicates):
            b_base, b_alt, _ = gen_coefficients(scenario, rng)
            noise = dtbtrs(factor, rng.normal(size=(scenario.m, 1))[::-1])[0][::-1, 0]
            series = window_statistics((b_alt - b_base) + scale * noise, v_band, spec)
            truth_cells = _truth_cells(spec, np.flatnonzero(b_alt != b_base))
            scored.append(_score_series(series, scenario, truth_cells)[0])
        error_table, _ = _tally(scenario, scored)
        rates.update(((n_nonzero, alpha, tau), cell) for (alpha, tau), cell in error_table.items())
    return rates


def _cell_stats(values: list[float]) -> tuple[float, float, int]:
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n == 0:
        return float("nan"), float("nan"), 0
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return mean, se, n


def _tally(scenario: SimScenario, scored) -> tuple[dict, dict]:
    """Error and empirical-TDP tables, (alpha, tau) -> (mean, Monte Carlo se, count), in one
    pass over the scored regions of every replicate."""
    errors = {(a, t): [] for a in scenario.alphas for t in scenario.thresholds}
    tdps = {cell: [] for cell in errors}
    for regions in scored:
        for region in regions:
            errors[(region.alpha, region.tau)].append(float(region.error))
            if region.empirical_tdp is not None:
                tdps[(region.alpha, region.tau)].append(region.empirical_tdp)
    return tuple({cell: _cell_stats(values) for cell, values in t.items()} for t in (errors, tdps))


def _aggregate(scenario: SimScenario, records: list[ReplicateRecord]) -> SimOutcome:
    error_table, tdp_table = _tally(scenario, (r.regions for r in records if not r.failed))
    return SimOutcome(
        scenario=scenario,
        records=tuple(records),
        error_table=error_table,
        tdp_table=tdp_table,
        n_failed=sum(r.failed for r in records),
    )


REPLICATES_PER_TASK = 8  # replicates sent to a pool worker at a time


def run_scenario(scenario: SimScenario, threads: int = 1) -> SimOutcome:
    """Run every replicate and aggregate; identical output for any thread count.

    A pool starts all its workers at its first task, so it gets at most one per chunk.
    """
    indices = list(range(scenario.n_replicates))
    workers = min(threads, -(-len(indices) // REPLICATES_PER_TASK))
    if workers <= 1:
        records = [run_replicate(scenario, i) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_replicate, [scenario] * len(indices), indices, chunksize=REPLICATES_PER_TASK))
    if all(r.failed for r in records):
        raise NumericalError("every replicate failed; first message: " + records[0].message)
    return _aggregate(scenario, records)


SWEEP_BINS = 10  # equal-width bins of a sweep summary over the scenario's m_delta_sweep


def sweep_summary(outcome: SimOutcome) -> list[tuple]:
    """Binned effect-size curves of a sweep scenario, a row per (alpha, tau, bin).

    A row is (alpha, tau, effect_lo, effect_hi, n, mean empirical TDP, mean
    truth coverage, mean truth-region bound at alpha): n counts the
    non-failed replicates whose m_delta lies in [effect_lo, effect_hi), the
    last bin closed, and each mean, None when it has no value, is over
    those replicates in record order.
    """
    edges = np.linspace(*outcome.scenario.m_delta_sweep, SWEEP_BINS + 1).tolist()
    binned = [[] for _ in range(SWEEP_BINS)]
    for rec in outcome.records:
        if rec.failed:
            continue
        for b, records in enumerate(binned):
            if edges[b] <= rec.m_delta < edges[b + 1] or (b == SWEEP_BINS - 1 and rec.m_delta == edges[b + 1]):
                records.append(rec)
                break

    def mean(values):
        return float(np.mean(values)) if values else None

    rows = []
    for alpha in outcome.scenario.alphas:
        for tau in outcome.scenario.thresholds:
            for b, records in enumerate(binned):
                regions = [reg for rec in records for reg in rec.regions if reg.alpha == alpha and reg.tau == tau]
                rows.append((
                    alpha, tau, edges[b], edges[b + 1], len(records),
                    mean([reg.empirical_tdp for reg in regions if reg.empirical_tdp is not None]),
                    mean([reg.truth_coverage for reg in regions if reg.truth_coverage is not None]),
                    mean([rec.truth_region_tdp[alpha] for rec in records if rec.truth_region_tdp]),
                ))
    return rows


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
