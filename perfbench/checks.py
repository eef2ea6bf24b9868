"""Correctness gate: read a command's output files and compare them with a reference.

`observe_*` turn an output directory into a flat dict of numpy arrays. The
references under `reference/` are the same dicts, taken from the code at the
commit that defined this benchmark (see `make_reference.py`). `compare`
names every field that differs; `*_invariants` check properties that need
no reference.
"""

from __future__ import annotations

import csv
import json
import os
import re

import numpy as np

# Rounding-level tolerance for floats that a faithful re-implementation may
# compute in another order. Everything discrete must match exactly.
RTOL = 1e-9
# Lambda comes from a 40-point geometric grid (adjacent points differ by a
# factor of about 1.6), so this only admits the same grid point.
LAMBDA_RTOL = 1e-12

_LAMBDA_KEY = re.compile(rb'"lambda"\s*:\s*([-+0-9.eEinfatyNI]+)')


def read_lambdas(path: str, chunk: int = 1 << 22) -> list[float]:
    """The `"lambda"` values of fits.json, scanned without parsing the file.

    fits.json holds dense m x m covariances (58 MB at m = 1000); parsing it
    here would add seconds and its memory to the benchmark process.
    """
    found = []
    tail = b""
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            data = tail + block
            end = len(data) if not block else max(len(data) - 64, 0)
            found += [(m.start(), m.group(1)) for m in _LAMBDA_KEY.finditer(data) if m.start() < end]
            if not block:
                break
            tail = data[end:]
    return [float(v) for _, v in found]


def observe_analyze(out: str) -> dict[str, np.ndarray]:
    """Fields of one analyze + diagnose session that the gate checks."""
    obs = {"lam": np.array(read_lambdas(os.path.join(out, "fits.json")))}
    with open(os.path.join(out, "windows.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    obs["T"] = np.array([float(r["T"]) for r in rows])
    obs["p"] = np.array([float(r["p"]) for r in rows])
    with open(os.path.join(out, "regions.json"), encoding="utf-8") as fh:
        regions = json.load(fh)
    obs["h"] = np.array([regions["h"]])
    records = regions["regions"]
    obs["tau"] = np.array([r["tdp_threshold"] for r in records])
    obs["phi"] = np.array([r["phi"] for r in records])
    obs["bound"] = np.array([r["tdp_lower_bound"] for r in records])
    for i, r in enumerate(records):
        obs[f"windows.{i}"] = np.array(r["windows"], dtype=int)
    path = os.path.join(out, "correlation_table.csv")
    if os.path.exists(path):
        with open(path, newline="", encoding="utf-8") as fh:
            obs["corr"] = np.array([float(r["correlation"]) for r in csv.DictReader(fh)])
    return obs


def analyze_invariants(obs: dict) -> list[str]:
    """bound == phi / |windows|, bound >= tau on non-empty sets, and 0 on empty ones."""
    bad = []
    for i, (tau, phi, bound) in enumerate(zip(obs["tau"], obs["phi"], obs["bound"])):
        size = obs[f"windows.{i}"].size
        expected = phi / size if size else 0.0
        if not np.isclose(bound, expected, rtol=RTOL, atol=0.0):
            bad.append(f"bound[tau={tau}] != phi/|windows|")
        if size and bound < tau:
            bad.append(f"bound[tau={tau}] < tau")
    return bad


def observe_simulate(outcome_path: str) -> dict[str, np.ndarray]:
    """Per-replicate p-values and bounds plus the error and TDP tables."""
    with open(outcome_path, encoding="utf-8") as fh:
        outcome = json.load(fh)
    reps = outcome["replicates"]
    width = max((len(r["p_values"]) for r in reps), default=0)
    n_regions = max((len(r["regions"]) for r in reps), default=0)
    p = np.full((len(reps), width), np.nan)
    bound = np.full((len(reps), n_regions), np.nan)
    n_windows = np.full((len(reps), n_regions), -1)
    tau = np.full((len(reps), n_regions), np.nan)
    for i, r in enumerate(reps):
        p[i, : len(r["p_values"])] = r["p_values"]
        for j, reg in enumerate(r["regions"]):
            bound[i, j] = reg["bound"]
            n_windows[i, j] = reg["n_windows"]
            tau[i, j] = reg["tau"]
    obs = {
        "index": np.array([r["index"] for r in reps]),
        "failed": np.array([r["failed"] for r in reps]),
        "p": p,
        "bound": bound,
        "n_windows": n_windows,
        "tau": tau,
    }
    for table in ("error_table", "tdp_table"):
        cells = outcome[table]
        obs[table] = np.array(
            [[cells[k]["value"], cells[k]["mc_se"], cells[k]["n"]] for k in sorted(cells)], dtype=float
        )
    obs["n_failed"] = np.array([outcome["n_failed"]])
    obs["messages"] = np.array([r["message"] for r in reps if r["failed"]], dtype=str)
    return obs


def simulate_invariants(obs: dict) -> list[str]:
    bad = []
    if int(obs["n_failed"][0]) != int(obs["failed"].sum()):
        bad.append("n_failed != number of failed replicates")
    filled = obs["n_windows"] > 0
    if np.any(obs["bound"][filled] < obs["tau"][filled]):
        bad.append("bound < tau on a non-empty region")
    if np.any(obs["bound"][obs["n_windows"] == 0] != 0.0):
        bad.append("non-zero bound on an empty region")
    return bad


def compare(obs: dict, ref: dict, skip: tuple[str, ...] = ()) -> list[str]:
    """Names of the reference fields that `obs` misses or does not match."""
    bad = []
    for key, want in ref.items():
        if key in skip:
            continue
        got = obs.get(key)
        if got is None or got.shape != want.shape:
            bad.append(f"{key} (shape {None if got is None else got.shape} != {want.shape})")
        elif want.dtype.kind == "f":
            rtol = LAMBDA_RTOL if key == "lam" else RTOL
            off = ~np.isclose(got, want, rtol=rtol, atol=0.0, equal_nan=True)
            if off.any():
                first = int(np.flatnonzero(off)[0])
                bad.append(f"{key} ({int(off.sum())} values off, first at flat index {first})")
        elif not np.array_equal(got, want):
            bad.append(key)
    return bad


FAILURE_CAUSES = (
    "separation",
    "irls_nonconvergence",
    "not_positive_definite",
    "no_lambda_candidate",
    "other",
)


def failure_cause(message: str) -> str:
    """Class of a failed replicate's message, one of FAILURE_CAUSES."""
    text = message.lower()
    if "separation" in text or "diverged" in text:
        return "separation"
    if "irls failed to converge" in text:
        return "irls_nonconvergence"
    if "positive definite" in text or "positive definiteness" in text:
        return "not_positive_definite"
    if "no smoothing parameter candidate" in text:
        return "no_lambda_candidate"
    return "other"


def load_reference(path: str) -> dict[str, dict[str, np.ndarray]]:
    """Reference file -> {"<slot>.<dataset>": {field: array}}."""
    out: dict[str, dict[str, np.ndarray]] = {}
    with np.load(path) as data:
        for key in data.files:
            case, field = key.split("/", 1)
            out.setdefault(case, {})[field] = data[key]
    return out


def save_reference(path: str, cases: dict[str, dict[str, np.ndarray]]) -> None:
    flat = {f"{case}/{field}": arr for case, fields in cases.items() for field, arr in fields.items()}
    np.savez_compressed(path, **flat)
