"""Property test: `cli.main` on small generated inputs exits 0, 2 or 3 and writes only finite numbers.

The inputs are the degenerate ones a fit meets at the edge of its contract:
constant, duplicated, huge and tiny outcomes, from one to 100 rows per
stratum, covariates that share one value, and odd basis dimensions, degrees
and `--max-lag` values. Every `analyze` output must load in `diagnose
--model`.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothdiff.cli import main

OUTCOMES = ("normal", "constant", "duplicated", "huge", "tiny", "binary")


def outcome_column(kind, n, rng):
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "constant":
        return np.full(n, 1.0)
    if kind == "duplicated":
        return rng.choice(rng.normal(size=2), size=n)
    if kind == "huge":
        return rng.normal(size=n) * 1e300
    if kind == "tiny":
        return rng.normal(size=n) * 1e-300
    return rng.integers(0, 2, size=n).astype(float)


def covariate_column(kind, n, rng):
    if kind == "single":
        return np.full(n, 0.5)
    if kind == "duplicated":
        return rng.choice(rng.uniform(0, 1, 3), size=n)
    return rng.uniform(0, 1, n)


def assert_finite(value, where):
    if isinstance(value, dict):
        for key, item in value.items():
            assert_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            assert_finite(item, f"{where}[{i}]")
    elif isinstance(value, float):
        assert math.isfinite(value), where


def assert_outputs_finite(out):
    """Every number in every file of `out` is finite; JSON files are strict RFC 8259 JSON."""

    def reject(token):
        raise AssertionError(f"non-JSON number {token}")

    for path in sorted(out.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            assert_finite(json.loads(text, parse_constant=reject), path.name)
            continue
        for lineno, line in enumerate(text.splitlines()[1:], 2):
            for field in line.split(","):
                try:
                    value = float(field)
                except ValueError:
                    continue
                assert math.isfinite(value), f"{path.name}:{lineno}: {field}"


@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(1, 100), st.integers(1, 100)),
    outcome=st.sampled_from(OUTCOMES),
    covariate=st.sampled_from(("uniform", "duplicated", "single")),
    family=st.sampled_from(("gaussian", "binomial")),
    basis_dim=st.integers(2, 25),
    degree=st.integers(0, 4),
    max_lag=st.integers(0, 15),
    domain=st.booleans(),
)
@settings(max_examples=100, deadline=None)
@pytest.mark.filterwarnings("ignore:sample size n=")
def test_analyze_and_diagnose_exit_cleanly(
    seed, sizes, outcome, covariate, family, basis_dim, degree, max_lag, domain
):
    with tempfile.TemporaryDirectory() as tmp:
        run_case(Path(tmp), seed, sizes, outcome, covariate, family, basis_dim, degree, max_lag, domain)


def run_case(case, seed, sizes, outcome, covariate, family, basis_dim, degree, max_lag, domain):
    rng = np.random.default_rng(seed)
    rows = ["y,z,stratum"]
    for label, n in enumerate(sizes, 1):
        kind = "binary" if family == "binomial" else outcome
        y, z = outcome_column(kind, n, rng), covariate_column(covariate, n, rng)
        rows += [f"{float(yi)!r},{float(zi)!r},{label}" for yi, zi in zip(y, z)]
    (case / "data.csv").write_text("\n".join(rows) + "\n")
    args = ["analyze", "--data", str(case / "data.csv"), "--family", family,
            "--basis-dim", str(basis_dim), "--degree", str(degree), "--out", str(case / "analyze")]
    if domain:
        args += ["--domain", "0", "1"]
    rc = main(args)
    assert rc in (0, 2, 3)
    if rc != 0:
        return
    assert_outputs_finite(case / "analyze")
    rc = main(["diagnose", "--model", str(case / "analyze" / "fits.json"), "--max-lag", str(max_lag),
               "--out", str(case / "diagnose")])
    assert rc == 0
    assert_outputs_finite(case / "diagnose")
