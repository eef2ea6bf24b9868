"""Command-line interface: analysis on user data, simulation presets, diagnostics.

`analyze` writes each stratum's fit to fits.json as bands (format 3): the
precision band of A = Z'WZ + lambda S and the fixed-effect border B.
`diagnose --model` reads them back and solves each fit's band for the one
block of the covariance that its correlation table reads, so no m x m
covariance is formed on either side. A file of any other format exits 2.

Exit codes: 0 success, 2 input/configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import re
import stat
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpbtrf

from .basis import DesignMatrix, design_matrix, difference_penalty, make_basis
from .errors import NumericalError, ParameterError
from .fitting import StratumData, StratumFit, covariance_block, select_lambda
from .simulate import PRESETS, SimScenario, outcome_to_json, run_scenario, sweep_summary
from .tdp import threshold_regions
from .toeplitz import PentaParams, diagnose_pentadiagonal
from .windows import window_stat_correlation, window_statistics

SEED_ENV_VAR = "SMOOTHDIFF_SEED"
CURVE_GRID_POINTS = 201
BAND_MULTIPLIER = 1.96
# fits.json layout: each stratum's `precision_band` and `border` (p rows of m numbers)
MODEL_FORMAT = 3
# the name extensions that numpy's loadtxt decompresses (numpy.lib._datasource)
_DECOMPRESSED = (".bz2", ".gz", ".xz", ".lzma")


@dataclass(frozen=True)
class AnalysisConfig:
    """Resolved settings for the analyze command (flags > config file > defaults)."""

    stratum1: str | None = None
    stratum2: str | None = None
    data: str | None = None
    stratum_col: str = "stratum"
    family: str = "gaussian"
    basis_dim: int = 120
    degree: int = 3
    domain: tuple[float, float] | None = None
    alpha: float = 0.05
    tdp: tuple[float, ...] = (0.5, 0.7, 0.9)
    lam: float | None = None
    out: str = "smoothdiff_out"

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        taus = tuple(sorted({float(t) for t in self.tdp}, reverse=True))
        if any(not 0 < t <= 1 for t in taus):
            raise ParameterError("TDP thresholds must lie in (0, 1]")
        if not taus:
            raise ParameterError("tdp must list at least one TDP threshold")
        if self.lam is not None and not (np.isfinite(self.lam) and self.lam >= 0):
            raise ParameterError(f"smoothing parameter must be finite and >= 0, got {float(self.lam)!r}")
        if self.domain is not None:
            if len(self.domain) != 2:
                raise ParameterError(f"domain = {tuple(self.domain)!r} must be two values, LO and HI")
            object.__setattr__(self, "domain", (float(self.domain[0]), float(self.domain[1])))
        object.__setattr__(self, "tdp", taus)


def _read_settings(path: str, parsers: dict, kind: str) -> dict:
    """A `kind` ("config" or "scenario") file of `key = value` lines, each value read by `parsers[key]`.

    A key given twice is an error naming both lines.
    """
    settings, first_line = {}, {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()  # '#' starts a comment
                if not text:
                    continue
                if "=" not in text:
                    raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
                key, value = (part.strip() for part in text.split("=", 1))
                if key not in parsers:
                    raise ParameterError(f"{path}: unknown {kind} key {key!r}")
                if key in first_line:
                    raise ParameterError(
                        f"{path}:{lineno}: {kind} key {key!r} repeats the one on line {first_line[key]}"
                    )
                first_line[key] = lineno
                try:
                    settings[key] = parsers[key](value)
                except ValueError as exc:
                    raise ParameterError(f"{path}: bad value for {key!r}: {value!r}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {kind} file {path}: {exc}") from exc
    return settings


def _float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _write_csv(path: str, header: str, rows) -> None:
    """`header`, then a line per row of Python ints and floats (`.tolist()`): each by `repr`, None as empty.

    The file's text is built whole and written once.
    """
    lines = [header]
    lines += [",".join(["" if v is None else repr(v) for v in row]) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload) -> None:
    text = json.dumps(payload, sort_keys=True, indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_stratum_csv(path: str, stratum_col: str | None = None):
    """Read a 'y,z[,stratum][,x_*]' CSV into columns.

    The header is parsed by `csv` from the open file, the data rows by one
    `np.loadtxt` pass over the used columns: `"` quotes a field, blank lines
    are skipped, other columns are ignored and `#` is not a comment. A
    regular file is parsed from its path, past the header's physical lines,
    by numpy's chunked reader (with universal newlines, so a CR or CRLF
    inside a quoted label reads as LF). A pipe, a FIFO or a name that numpy
    would decompress (`*.gz`, ...) is parsed from the open file, line by
    line. Returns (y, z, X, strata): X holds the x_* columns (None without
    any) and strata the labels of `stratum_col` as read, an object array of
    str (None when it is None); `load_strata` strips them.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParameterError(f"{path}: empty file (header row required)")
            fields = [f.strip() for f in header]
            if "y" not in fields or "z" not in fields:
                raise ParameterError(f"{path}: header must contain 'y' and 'z' columns")
            column = {name: i for i, name in enumerate(fields)}
            x_cols = [f for f in fields if f.startswith("x_")]
            numeric = [column["y"], column["z"], *(column[c] for c in x_cols)]
            label = column.get(stratum_col) if stratum_col is not None else None
            dtype = [(f"c{j}", "f8") for j in range(len(numeric))]
            if label is not None:
                dtype.append(("label", "O"))
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            # numpy reads a str path in chunks and an open file line by line; "./" keeps a
            # relative name such as "http://host/x" from being taken for a URL
            source, skip = fh, 0
            if regular and os.path.splitext(path)[1] not in _DECOMPRESSED:
                source, skip = os.path.join(os.curdir, path), reader.line_num
            try:
                with warnings.catch_warnings():  # a header-only file is reported below
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    table = np.loadtxt(
                        source, delimiter=",", quotechar='"', comments=None, ndmin=1, skiprows=skip,
                        encoding="utf-8", usecols=numeric if label is None else [*numeric, label], dtype=dtype,
                    )
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                raise _first_row_error(path, regular, numeric, label, stratum_col, exc) from exc
            if not table.size:
                raise ParameterError(f"{path}: no data rows")
            if stratum_col is not None and label is None:
                raise _first_row_error(path, regular, numeric, label, stratum_col, None)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc
    values = [np.ascontiguousarray(table[f"c{j}"]) for j in range(len(numeric))]
    X = np.column_stack(values[2:]) if x_cols else None
    return values[0], values[1], X, None if label is None else table["label"]


def _first_row_error(path, regular, numeric, label, stratum_col, parse_error) -> ParameterError:
    """The error of the first malformed data row (rows numbered from 2, blank lines skipped).

    A regular file's rows are read again by `csv`, each field converted by
    `float()`. A row that `float()` accepts and numpy does not (such as
    '1_000') leaves numpy's own message, `parse_error`. Any other input was
    read once and is never opened again (a FIFO's second open waits for a
    new writer): its error is `parse_error`, or with none its header's
    missing stratum column.
    """
    if not regular:
        if parse_error is None:
            return ParameterError(f"{path}: header has no stratum column {stratum_col!r}")
        return ParameterError(f"{path}: unreadable data ({parse_error})")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [row for row in reader if row]
    for lineno, row in enumerate(rows, 2):
        try:
            for i in numeric:
                float(row[i] if i < len(row) else None)
        except (TypeError, ValueError) as exc:
            return ParameterError(f"{path}:{lineno}: non-numeric field ({exc})")
        if stratum_col is not None and (label is None or label >= len(row)):
            return ParameterError(f"{path}:{lineno}: missing stratum column {stratum_col!r}")
    return ParameterError(f"{path}: unreadable data ({parse_error})")


def load_strata(config: AnalysisConfig) -> tuple[StratumData, StratumData]:
    """The two strata of `--data`, split by their stripped labels in sorted order, or the two stratum files.

    Each distinct raw label is stripped once (`astype(str)`, which drops
    trailing NULs, then `np.char.strip`), and a stratum's rows are the
    union of the masks of the raw labels that strip to its label.
    """
    if config.data is not None:
        y, z, X, raw = read_stratum_csv(config.data, config.stratum_col)
        distinct = list(set(raw.tolist()))
        stripped = np.char.strip(np.asarray(distinct, dtype=object).astype(str)).tolist()
        labels = sorted(set(stripped))
        if len(labels) != 2:
            raise ParameterError(
                f"{config.data}: expected exactly 2 stratum labels, found {labels}"
            )
        groups = [np.zeros(raw.size, dtype=bool) for _ in labels]
        for value, lab in zip(distinct, stripped):  # a bare str operand would lose its trailing NULs
            groups[labels.index(lab)] |= raw == np.array(value, dtype=object)
        return tuple(
            StratumData(y=y[g], z=z[g], family=config.family, X=None if X is None else X[g])
            for g in groups
        )
    if config.stratum1 is None or config.stratum2 is None:
        raise ParameterError("provide either --data with a stratum column or both stratum files")
    out = []
    for path in (config.stratum1, config.stratum2):
        y, z, X, _ = read_stratum_csv(path)
        out.append(StratumData(y=y, z=z, family=config.family, X=X))
    return out[0], out[1]


def _fit_payload(fit: StratumFit, lam_source: str) -> dict:
    return {
        "lambda": fit.lam,
        "lambda_source": lam_source,
        "dispersion": fit.dispersion,
        "edf": fit.edf,
        "deviance": fit.deviance,
        "family": fit.family,
        "n_obs": fit.n_obs,
        "coef": fit.coef.tolist(),
        "beta": fit.beta.tolist(),
        "precision_band": fit.precision_band.tolist(),
        "border": fit.border.T.tolist(),
    }


def band_pointwise_variance(dm: DesignMatrix, band: np.ndarray) -> np.ndarray:
    """Variance of each fitted value, the diagonal of Z V Z', from the
    compact rows of Z and V's upper band to an offset of at least degree (width - 1)."""
    u = band.shape[0] - 1
    out = np.zeros(dm.n)
    for a in range(dm.width):
        for b in range(a, dm.width):
            term = dm.values[:, a] * dm.values[:, b] * band[u - (b - a), dm.start + b]
            out += term if a == b else 2.0 * term
    return out


def cmd_analyze(config: AnalysisConfig) -> int:
    data1, data2 = load_strata(config)
    if config.domain is not None:
        z_lo, z_hi = config.domain
    else:
        z_lo = min(data1.z.min(), data2.z.min())
        z_hi = max(data1.z.max(), data2.z.max())
    spec = make_basis(z_lo, z_hi, config.basis_dim, config.degree)
    pen = difference_penalty(config.basis_dim)
    try:  # an input error, such as z outside the domain, names its stratum
        fits = select_lambda([data1, data2], spec, pen, config.lam)
    except NumericalError as exc:  # when no lambda could be fit, name the last one's cause
        cause = f": {exc.__cause__}" if exc.__cause__ is not None else ""
        raise NumericalError(f"{exc}{cause}") from exc
    source = "gcv" if config.lam is None else "fixed"
    series = window_statistics(fits[0].coef - fits[1].coef, fits[0].cov_band + fits[1].cov_band, spec)
    report = threshold_regions(series, config.alpha, config.tdp)

    os.makedirs(config.out, exist_ok=True)
    fits_payload = {
        "format": MODEL_FORMAT,
        "basis": {
            "degree": spec.degree,
            "m": spec.m,
            "domain": [spec.z_lo, spec.z_hi],
            "knots": spec.knots.tolist(),
        },
        "alpha": config.alpha,
        "strata": [_fit_payload(f, source) for f in fits],
    }
    _write_json(os.path.join(config.out, "fits.json"), fits_payload)
    edges = spec.breakpoints.tolist()
    _write_csv(
        os.path.join(config.out, "windows.csv"),
        "k,region_lo,region_hi,T,p",
        zip(range(series.n_windows), edges[:-1], edges[1:], series.T.tolist(), series.p.tolist()),
    )

    regions_payload = {
        "alpha": config.alpha,
        "h": report.h,
        "regions": [
            {
                "tdp_threshold": rec.tau,
                "windows": list(rec.windows),
                "phi": rec.phi,
                "tdp_lower_bound": rec.bound,
                "intervals": [list(iv) for iv in rec.intervals],
            }
            for rec in report.records
        ],
    }
    _write_json(os.path.join(config.out, "regions.json"), regions_payload)
    _write_csv(
        os.path.join(config.out, "regions.csv"),
        "tdp_threshold,interval_lo,interval_hi,tdp_lower_bound,alpha",
        ((rec.tau, lo, hi, rec.bound, config.alpha) for rec in report.records for lo, hi in rec.intervals),
    )

    grid = np.linspace(spec.z_lo, spec.z_hi, CURVE_GRID_POINTS)
    dm = design_matrix(spec, grid)
    cols = [grid]
    for fit in fits:
        center = dm.predict(fit.coef)
        se = np.sqrt(band_pointwise_variance(dm, fit.cov_band))
        cols += [center, center - BAND_MULTIPLIER * se, center + BAND_MULTIPLIER * se]
    _write_csv(os.path.join(config.out, "curves.csv"), "z,fit1,lo1,hi1,fit2,lo2,hi2", np.column_stack(cols).tolist())

    for rec in report.records:
        ivals = ", ".join(f"[{lo:.4g}, {hi:.4g}]" for lo, hi in rec.intervals) or "(none)"
        print(f"tdp>={rec.tau}: bound={rec.bound:.3f} windows={len(rec.windows)} intervals={ivals}")
    return 0


_SCENARIO_FIELD_PARSERS = {
    "n_nonzero": int,
    "sigma_b2": float,
    "sigma_delta2": float,
    "m_delta": float,
    "noise_var": float,
    "n_per_stratum": int,
    "m": int,
    "degree": int,
    "penalty_order": int,
    "nu": float,
    "domain": _float_tuple,
    "family": str,
    "alphas": _float_tuple,
    "thresholds": _float_tuple,
    "n_replicates": int,
    "seed": int,
    "m_delta_sweep": _float_tuple,
}


def load_scenario(path: str) -> SimScenario:
    """SimScenario from a flat key = value file."""
    kwargs = _read_settings(path, _SCENARIO_FIELD_PARSERS, "scenario")
    if "n_nonzero" not in kwargs:
        raise ParameterError(f"{path}: scenario requires n_nonzero")
    return SimScenario(**kwargs)


def cmd_simulate(args) -> int:
    if args.threads < 1:
        raise ParameterError(f"--threads must be at least 1, got {args.threads}")
    if args.scenario is not None:
        scenario = load_scenario(args.scenario)
        name = os.path.splitext(os.path.basename(args.scenario))[0]
    else:
        scenario = PRESETS[args.preset]
        name = args.preset
    overrides = {}
    if args.replicates is not None:
        overrides["n_replicates"] = args.replicates
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.alpha is not None:
        overrides["alphas"] = (args.alpha,)
    if args.tdp is not None:
        overrides["thresholds"] = tuple(args.tdp)
    if overrides:
        scenario = replace(scenario, **overrides)

    outcome = run_scenario(scenario, threads=args.threads)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"{name}_outcome.json"), "w", encoding="utf-8") as fh:
        fh.write(outcome_to_json(outcome))
    for label, table in (("error", outcome.error_table), ("tdp", outcome.tdp_table)):
        _write_csv(
            os.path.join(args.out, f"{name}_{label}_table.csv"),
            "alpha,tdp_threshold,value,n_replicates,mc_se",
            ((alpha, tau, value, n, se) for (alpha, tau), (value, se, n) in sorted(table.items())),
        )
    if scenario.m_delta_sweep is not None:
        _write_csv(
            os.path.join(args.out, f"{name}_curves.csv"),
            "replicate,m_delta,alpha,tdp_threshold,n_windows,bound,empirical_tdp,truth_coverage,truth_region_tdp",
            (
                (rec.index, rec.m_delta, r.alpha, r.tau, r.n_windows, r.bound,
                 r.empirical_tdp, r.truth_coverage, rec.truth_region_tdp.get(r.alpha))
                for rec in outcome.records if not rec.failed for r in rec.regions
            ),
        )
        _write_csv(
            os.path.join(args.out, f"{name}_sweep.csv"),
            "alpha,tdp_threshold,effect_lo,effect_hi,n,mean_empirical_tdp,mean_truth_coverage,mean_truth_region_bound",
            sweep_summary(outcome),
        )

    table = outcome.tdp_table if name.startswith("table2") or name == "tableS1" else outcome.error_table
    kind = "mean empirical TDP" if table is outcome.tdp_table else "type 1 error"
    failed = f"{outcome.n_failed} failed"
    causes = outcome.failures_by_cause
    if causes:
        failed += ": " + ", ".join(f"{cause} {count}" for cause, count in causes.items())
    print(f"{name}: {kind} over {outcome.n_effective} replicates ({failed})")
    taus = scenario.thresholds
    print("          " + "  ".join(f"tdp={t:<5g}" for t in taus))
    for alpha in scenario.alphas:
        cells = "  ".join(f"{table[(alpha, t)][0]:<9.3f}" for t in taus)
        print(f"alpha={alpha:<4g} {cells}")
    return 0


_MODEL_FIT_KEYS = ("coef", "beta", "lambda", "dispersion", "edf", "family", "deviance", "n_obs")


def _model_field(path: str, obj, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ParameterError(f"{path}: model file lacks key {where}{key!r}")
    return obj[key]


def _model_matrix(path: str, value, where: str) -> np.ndarray:
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: {where} is not a numeric matrix ({exc})") from exc
    if not np.all(np.isfinite(out)):
        raise ParameterError(f"{path}: {where} holds a non-finite entry")
    return out


def _model_bands(path: str, entry: dict, i: int, m: int, p: int) -> dict:
    """The covariance fields of strata[i]'s StratumFit.

    A stratum gives its `precision_band`, checked positive definite by one
    Cholesky factorization, and its `border` (p rows of m numbers).
    """
    where = f"strata[{i}].'precision_band'"
    band = _model_matrix(path, _model_field(path, entry, "precision_band", f"strata[{i}]."), where)
    if band.ndim != 2 or band.shape[0] < 1 or band.shape[1] != m:
        raise ParameterError(f"{path}: {where} has shape {band.shape}, expected (rows >= 1, m={m})")
    minor = dpbtrf(band)[1]
    if minor:
        raise ParameterError(f"{path}: {where} is not positive definite (leading minor {minor})")
    where = f"strata[{i}].'border'"
    border = _model_matrix(path, _model_field(path, entry, "border", f"strata[{i}]."), where)
    if border.shape == (0,):
        border = border.reshape(0, m)
    if border.shape != (p, m):
        raise ParameterError(f"{path}: {where} has shape {border.shape}, expected (p={p}, m={m})")
    return {"precision_band": band, "border": border.T}


def load_model(path: str):
    """Basis and the two stratum fits from a fits.json that analyze wrote (format 3)."""
    try:
        with open(path, encoding="utf-8") as fh:
            model = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read model file {path}: {exc}") from exc
    basis = _model_field(path, model, "basis", "")
    domain, m, degree = (_model_field(path, basis, k, "basis.") for k in ("domain", "m", "degree"))
    strata = _model_field(path, model, "strata", "")
    if not isinstance(strata, list) or len(strata) != 2:
        raise ParameterError(f"{path}: 'strata' must list exactly 2 fits")
    fmt = model.get("format")
    if fmt != MODEL_FORMAT:
        raise ParameterError(
            f"{path}: unknown model format {fmt!r} (expected {MODEL_FORMAT}); "
            "re-run `smoothdiff analyze` to rewrite the file"
        )
    try:
        spec = make_basis(float(domain[0]), float(domain[1]), int(m), int(degree))
        fits = []
        for i, entry in enumerate(strata):
            f = {k: _model_field(path, entry, k, f"strata[{i}].") for k in _MODEL_FIT_KEYS}
            coef = np.asarray(f["coef"], dtype=float)
            if coef.shape != (spec.m,):
                raise ParameterError(
                    f"{path}: strata[{i}].'coef' does not match basis dimension m={spec.m}"
                )
            dispersion = float(f["dispersion"])
            if not (np.isfinite(dispersion) and dispersion >= 0):
                raise ParameterError(
                    f"{path}: strata[{i}].'dispersion' = {dispersion!r} is not finite and non-negative"
                )
            beta = np.asarray(f["beta"], dtype=float)
            fits.append(
                StratumFit(
                    coef=coef,
                    beta=beta,
                    lam=f["lambda"],
                    dispersion=dispersion,
                    edf=f["edf"],
                    family=f["family"],
                    deviance=f["deviance"],
                    n_obs=f["n_obs"],
                    **_model_bands(path, entry, i, spec.m, beta.size),
                )
            )
    except ParameterError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise ParameterError(f"{path}: malformed model file ({exc})") from exc
    return spec, fits


def cmd_diagnose(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    payload = {}
    if args.model is None:
        params = PentaParams(eps=args.epsilon, theta=args.theta, lam_p=args.lambda_p, n=args.dim)
        z1, z2, residual, diag = diagnose_pentadiagonal(params)
        payload = {
            "epsilon": args.epsilon,
            "theta": args.theta,
            "lambda_p": args.lambda_p,
            "dim": args.dim,
            "pi": [z1.diag, z2.diag * args.lambda_p],
            "psi": [z1.psi, z2.psi],
            "psi_min": None,
            "empirical_decay_rate": None,
            "reconstruction_residual": residual,
        }
        summary = f"residual={residual:.3e}"
        if diag is not None:
            payload["psi_min"] = diag.psi_min
            payload["empirical_decay_rate"] = diag.empirical_rate
            summary += f" psi_min={diag.psi_min:.6f}"
            if diag.empirical_rate is None:
                summary += " (empirical decay rate undefined: fewer than two lags with non-zero inverse entries)"
            else:
                summary += f" empirical={diag.empirical_rate:.6f}"
        else:
            summary += " (decay rate undefined: some pi_i <= 2*lam_p)"
        print(summary)
    else:
        spec, fits = load_model(args.model)
        max_lag = min(args.max_lag, spec.n_regions - 1)
        # centred, but no later than the last anchor whose farthest lag is a window
        anchor = min(spec.n_regions // 2 - max_lag // 2, spec.n_regions - 1 - max_lag)
        # windows anchor..anchor + max_lag read V1 + V2 on their coefficients alone
        block = covariance_block(fits, anchor + np.arange(max_lag + spec.degree + 1))
        corr = window_stat_correlation(block, spec.degree, 0, np.arange(max_lag + 1))
        rows = list(enumerate(corr.tolist()))
        _write_csv(os.path.join(args.out, "correlation_table.csv"), "lag,correlation", rows)
        payload = {"anchor_window": anchor, "correlations": [list(r) for r in rows]}
        for lag, corr in rows:
            print(f"lag={lag}: corr={corr:.6f}")
    _write_json(os.path.join(args.out, "diagnostics.json"), payload)
    return 0


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ParameterError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothdiff",
        description="Localize differences between two spline smooths with TDP lower bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="fit two strata and report TDP regions")
    pa.add_argument("--config", help="flat key = value config file")
    pa.add_argument("--stratum1", help="CSV for stratum 1 (columns y,z[,x_*])")
    pa.add_argument("--stratum2", help="CSV for stratum 2")
    pa.add_argument("--data", help="single CSV with a stratum column")
    pa.add_argument("--stratum-col", help="stratum column name (default 'stratum')")
    pa.add_argument("--family", choices=["gaussian", "binomial"])
    pa.add_argument("--basis-dim", type=int, help="basis dimension m")
    pa.add_argument("--degree", type=int, help="B-spline degree")
    pa.add_argument("--domain", type=float, nargs=2, metavar=("LO", "HI"))
    pa.add_argument("--alpha", type=float)
    pa.add_argument("--tdp", type=float, nargs="+", help="TDP thresholds")
    pa.add_argument("--lambda", dest="lam", type=float, help="fixed smoothing parameter")
    pa.add_argument("--out", help="output directory")

    ps = sub.add_parser("simulate", help="run a simulation preset or scenario file")
    group = ps.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(PRESETS), help="named preset")
    group.add_argument("--scenario", help="flat key = value scenario file")
    ps.add_argument("--replicates", type=int)
    ps.add_argument("--alpha", type=float)
    ps.add_argument("--tdp", type=float, nargs="+")
    ps.add_argument("--seed", type=int)
    ps.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    ps.add_argument("--out", default="smoothdiff_out")

    pd = sub.add_parser("diagnose", help="factorization, decay and correlation diagnostics")
    pd.add_argument("--epsilon", type=float, help="diagonal value")
    pd.add_argument("--theta", type=float, help="first off-diagonal")
    pd.add_argument("--lambda-p", dest="lambda_p", type=float, help="second off-diagonal")
    pd.add_argument("--dim", type=int, default=60)
    pd.add_argument("--model", help="fits.json from analyze")
    pd.add_argument("--max-lag", type=int, default=12)
    pd.add_argument("--out", default="smoothdiff_out")
    # read a negative number in exponent form (-1e3, -2.5e-4) as a value, as
    # Python 3.13's argparse does; 3.11's takes it for an unknown option
    for p in (parser, pa, ps, pd):
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    return parser


_CONFIG_FIELD_PARSERS = {
    "stratum1": str,
    "stratum2": str,
    "data": str,
    "stratum_col": str,
    "family": str,
    "basis_dim": int,
    "degree": int,
    "domain": _float_tuple,
    "alpha": float,
    "tdp": _float_tuple,
    "lambda": float,
    "out": str,
}


def _analysis_config(args) -> AnalysisConfig:
    """The analyze settings: each flag given overrides the config file's value for its field."""
    settings = {} if args.config is None else _read_settings(args.config, _CONFIG_FIELD_PARSERS, "config")
    if "lambda" in settings:
        settings["lam"] = settings.pop("lambda")
    for f in dataclasses.fields(AnalysisConfig):  # each argparse dest is its field's name
        if (value := getattr(args, f.name)) is not None:
            settings[f.name] = value
    return AnalysisConfig(**settings)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each `parse_args` returns a fresh namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(_analysis_config(args))
        if args.command == "simulate":
            if args.seed is None and SEED_ENV_VAR in os.environ:
                args.seed = _default_seed()
            return cmd_simulate(args)
        # diagnose: the parser admits no other command
        if args.model is None and None in (args.epsilon, args.theta, args.lambda_p):
            raise ParameterError("diagnose needs either --model or all of --epsilon/--theta/--lambda-p")
        if args.max_lag < 0:
            raise ParameterError(f"--max-lag must be non-negative, got {args.max_lag}")
        return cmd_diagnose(args)
    except ParameterError as exc:
        print(f"smoothdiff: input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"smoothdiff: numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
