"""Tests of the benchmark itself: span arithmetic, the correctness gate, seeded inputs.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "scripts")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class TestSelfTime:
    def test_synthetic_tree(self):
        tree = [
            spans.Span("root", 0.0, 10.0, -1, 0),
            spans.Span("a", 1.0, 3.0, 0, 0),
            spans.Span("b", 2.0, 5.0, 0, 0),  # overlaps a: covered 1..5 once
            spans.Span("c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
            spans.Span("b.child", 3.0, 4.0, 2, 0),
            spans.Span("other_root", 20.0, 21.0, -1, 1),
        ]
        assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 2.0, 3.0, 1.0, 1.0])

    def test_tracer_nesting_and_counts(self):
        tracer = spans.Tracer()

        def inner(x):
            return x + 1

        def outer(x):
            return tracer.call("inner", inner, (x,), {}) * 2

        assert tracer.call("outer", outer, (1,), {}) == 4
        names = [s.name for s in tracer.spans]
        assert names == ["outer", "inner"]
        assert tracer.spans[1].parent == 0 and tracer.spans[0].parent == -1
        assert tracer.counts["outer.calls"] == 1 and tracer.counts["inner.calls"] == 1
        own = spans.self_times(tracer.spans)
        assert own[0] == pytest.approx(tracer.spans[0].duration - tracer.spans[1].duration)

    def test_installed_wrappers_are_removed(self):
        from smoothdiff import cli, tdp

        before = (cli.select_lambda, tdp.phi_alpha)
        with spans.installed(spans.Tracer()):
            assert cli.select_lambda is not before[0]
        assert (cli.select_lambda, tdp.phi_alpha) == before


def write_analyze_outputs(out, lam, T, p, h, records, corr):
    """Minimal analyze + diagnose output files in the layout the CLI writes."""
    os.makedirs(out, exist_ok=True)
    strata = [{"cov": [[1.0]], "lambda": v, "lambda_source": "gcv"} for v in lam]
    with open(os.path.join(out, "fits.json"), "w") as fh:
        json.dump({"strata": strata}, fh, sort_keys=True, indent=1)
    with open(os.path.join(out, "windows.csv"), "w") as fh:
        fh.write("k,region_lo,region_hi,T,p\n")
        for k, (t, pv) in enumerate(zip(T, p)):
            fh.write(f"{k},0.0,1.0,{t!r},{pv!r}\n")
    regions = [
        {"tdp_threshold": tau, "windows": w, "phi": phi, "tdp_lower_bound": bound, "intervals": []}
        for tau, w, phi, bound in records
    ]
    with open(os.path.join(out, "regions.json"), "w") as fh:
        json.dump({"alpha": 0.01, "h": h, "regions": regions}, fh)
    with open(os.path.join(out, "correlation_table.csv"), "w") as fh:
        fh.write("lag,correlation\n")
        for lag, c in enumerate(corr):
            fh.write(f"{lag},{c!r}\n")


GOOD = dict(
    lam=[12.5, 3.25],
    T=[30.1, 0.5, 12.0],
    p=[1e-6, 0.97, 0.017],
    h=2,
    records=[(0.9, [0], 1, 1.0), (0.5, [0, 2], 1, 0.5)],
    corr=[1.0, 0.4],
)


class TestGate:
    def test_reference_passes_and_perturbations_are_named(self, tmp_path):
        write_analyze_outputs(str(tmp_path / "ref"), **GOOD)
        ref = checks.observe_analyze(str(tmp_path / "ref"))
        assert checks.compare(ref, ref) == []
        assert checks.analyze_invariants(ref) == []

        cases = {
            "T": dict(GOOD, T=[30.1, 0.5, 12.0 * (1 + 1e-6)]),
            "lam": dict(GOOD, lam=[12.5, 3.25 * 1.6]),
            "windows.1": dict(GOOD, records=[(0.9, [0], 1, 1.0), (0.5, [0, 1], 1, 0.5)]),
            "h": dict(GOOD, h=3),
            "corr": dict(GOOD, corr=[1.0, 0.41]),
        }
        for field, values in cases.items():
            out = str(tmp_path / field)
            write_analyze_outputs(out, **values)
            bad = checks.compare(checks.observe_analyze(out), ref)
            assert [b.split()[0] for b in bad] == [field]

    def test_rounding_level_change_passes(self, tmp_path):
        write_analyze_outputs(str(tmp_path / "ref"), **GOOD)
        ref = checks.observe_analyze(str(tmp_path / "ref"))
        write_analyze_outputs(str(tmp_path / "new"), **dict(GOOD, T=[30.1 * (1 + 1e-13), 0.5, 12.0]))
        assert checks.compare(checks.observe_analyze(str(tmp_path / "new")), ref) == []

    def test_invariants(self, tmp_path):
        out = str(tmp_path / "bad")
        write_analyze_outputs(out, **dict(GOOD, records=[(0.9, [0], 1, 0.8), (0.5, [0, 2], 2, 1.0)]))
        bad = checks.analyze_invariants(checks.observe_analyze(out))
        assert bad == ["bound[tau=0.9] != phi/|windows|", "bound[tau=0.9] < tau"]

    def test_workload_check_counts_failures(self, tmp_path):
        write_analyze_outputs(str(tmp_path / "ref"), **GOOD)
        ref = checks.observe_analyze(str(tmp_path / "ref"))
        obs = dict(ref, corr=ref["corr"] + 0.1, p=ref["p"] * 2)
        res = workloads.Outcome(command_s=1.0, session_s=1.0, attempted=2, observed=obs)
        workloads.WORKLOADS["analyze_m120"].check(res, ref)
        assert res.failed == 2
        assert res.problems[0].startswith("analyze output: p")
        assert res.problems[1].startswith("diagnose output: corr")

    def test_lambda_scan_across_chunks(self, tmp_path):
        path = tmp_path / "fits.json"
        payload = {"strata": [{"lambda": 0.1 * (i + 1), "lambda_source": "gcv", "pad": "x" * 50} for i in range(20)]}
        path.write_text(json.dumps(payload, indent=1))
        assert checks.read_lambdas(str(path), chunk=7) == pytest.approx([0.1 * (i + 1) for i in range(20)])

    def test_simulate_perturbation(self, tmp_path):
        rec = {
            "index": 0, "failed": False, "message": "", "p_values": [0.5, 0.01],
            "regions": [{"tau": 0.5, "n_windows": 1, "bound": 1.0}],
        }
        cell = {"value": 0.0, "mc_se": float("nan"), "n": 1}
        outcome = {"replicates": [rec], "error_table": {"a": cell}, "tdp_table": {"a": cell}, "n_failed": 0}
        path = tmp_path / "outcome.json"
        path.write_text(json.dumps(outcome))
        ref = checks.observe_simulate(str(path))
        assert checks.compare(ref, ref) == [] and checks.simulate_invariants(ref) == []
        rec["p_values"][1] = 0.0100001
        path.write_text(json.dumps(outcome))
        assert [b.split()[0] for b in checks.compare(checks.observe_simulate(str(path)), ref)] == ["p"]

    def test_failure_causes(self):
        messages = {
            "linear predictor diverged (complete or quasi-complete separation)": "separation",
            "IRLS failed to converge in 100 iterations; deviance trace tail [1.0]": "irls_nonconvergence",
            "penalized system is not positive definite (cond=1e+20)": "not_positive_definite",
            "window 3 covariance is not positive definite": "not_positive_definite",
            "no smoothing parameter candidate could be fit": "no_lambda_candidate",
            "something else": "other",
        }
        for message, cause in messages.items():
            assert checks.failure_cause(message) == cause


class TestInputs:
    @pytest.mark.parametrize("name", ["analyze_m120", "simulate_binomial"])
    def test_same_seed_same_bytes_other_seed_differs(self, tmp_path, name):
        workload = workloads.WORKLOADS[name]

        def contents(seed, sub):
            os.makedirs(tmp_path / sub)
            inputs = workload.prepare(str(tmp_path / sub), seed)
            if name.startswith("analyze"):
                return [open(p, "rb").read() for p in inputs]
            return inputs

        first, again, other = contents(1, "a"), contents(1, "b"), contents(2, "c")
        assert first == again
        assert all(x != y for x, y in zip(first, other))
        assert len(set(first)) == len(first)  # datasets within a run differ too


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
