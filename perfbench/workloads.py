"""The benchmark's workloads: seeded inputs, one closed-loop session, timed and traced loops.

Every workload is one client calling `smoothdiff.cli.main` in this process,
back to back (a closed loop). The program sees only the generated inputs: a
CSV file for `analyze`, or the `--seed` of a simulate preset.

Workload seeds are taken modulo SLOTS: the reference outputs that the gate
compares against exist for those slots only (see make_reference.py).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field

import calibrate
import checks
import spans

SLOTS = 8
ANALYZE_FLAGS = (
    "--degree", "3",
    "--domain", "0", "100",
    "--alpha", "0.01",
    "--tdp", "0.9", "0.7", "0.5",
)
DIAGNOSE_MAX_LAG = "10"
# The tableS1 preset's basis dimension and observations per stratum.
SIMULATE_PROBE_M, SIMULATE_PROBE_ROWS = 120, 4000
# A larger probe tracked m = 1000 sessions no better, and its m x m arrays
# raised the run's peak RSS by up to 17 MB in some runs and not in others.
PROBE_MAX_M = 400

END_TO_END = {
    "command_s_p50": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.load_strata_s": "s",
    "cli.analyze_self_s": "s",
    "cli.diagnose_self_s": "s",
    "cli.fits_json_mb": "MB",
    "fitting.select_lambda_s": "s",
    "fitting.select_lambda.calls": "count",
    "fitting.fit_stratum_s": "s",
    "fitting.penalized_inverse_s": "s",
    "fitting.penalized_inverse.calls": "count",
    "basis.design_matrix.calls": "count",
    "basis.crossprod_s": "s",
    "basis.crossprod.calls": "count",
    "windows.window_statistics_s": "s",
    "windows.n_factorizations": "count",
    "tdp.threshold_regions_s": "s",
    "tdp.phi_alpha.calls": "count",
    "tdp.pvalue_family.calls": "count",
    "toeplitz.cov_quadratic_forms_s": "s",
    "toeplitz.cov_quadratic_forms.calls": "count",
    "simulate.generate_s": "s",
    "simulate.replicate_s_p50": "s",
    "simulate.pool_efficiency": "ratio",
    **{f"simulate.failed.{cause}": "count" for cause in checks.FAILURE_CAUSES},
    "trace_overhead_frac": "ratio",
}


def slot(seed: int) -> int:
    return seed % SLOTS


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one smoothdiff command in-process; (exit code, error text).

    Standard output is discarded so that the benchmark's own result stays
    the last line. A traceback counts as a failed command (code -1).
    """
    from smoothdiff import cli

    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        try:
            return cli.main(argv), ""
        except Exception:  # a crash is a failed operation, not a benchmark error
            return -1, traceback.format_exc(limit=3)


@dataclass
class Outcome:
    """One session: its wall times, the operations it attempted and which failed."""

    command_s: float
    session_s: float
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@dataclass(frozen=True)
class AnalyzeWorkload:
    """`analyze` then `diagnose --model` on a two-stratum gait-like CSV."""

    name: str
    n: int
    m: int
    datasets: int
    trace_datasets: int
    probe_reps: int

    items_per_session = 1

    @staticmethod
    def completed_items(res: Outcome) -> int:
        return int(res.failed == 0)

    def probe(self, threads: int) -> calibrate.Probe:
        return calibrate.Probe(m=min(self.m, PROBE_MAX_M), rows=self.n)

    def input_seed(self, seed: int, j: int) -> int:
        return slot(seed) * 100 + j

    def prepare(self, workdir: str, seed: int) -> list[str]:
        from demo_analysis import synth_gait

        paths = []
        for j in range(self.datasets):
            path = os.path.join(workdir, f"{self.name}_{j}.csv")
            synth_gait(path, n=self.n, seed=self.input_seed(seed, j))
            paths.append(path)
        return paths

    def session(self, inputs: list[str], j: int, out: str, threads: int) -> Outcome:
        out = fresh_dir(out)
        data = inputs[j % len(inputs)]
        t0 = time.perf_counter()
        rc, err = call_cli(["analyze", "--data", data, "--basis-dim", str(self.m), *ANALYZE_FLAGS, "--out", out])
        t1 = time.perf_counter()
        rc_d, err_d = -2, "analyze failed"
        if rc == 0:
            rc_d, err_d = call_cli(
                ["diagnose", "--model", os.path.join(out, "fits.json"), "--max-lag", DIAGNOSE_MAX_LAG, "--out", out]
            )
        t2 = time.perf_counter()
        res = Outcome(command_s=t1 - t0, session_s=t2 - t0, attempted=2)
        if rc != 0:
            res.failed = 2
            res.problems.append(f"analyze exit {rc} {err.strip()}")
            return res
        try:
            res.observed = checks.observe_analyze(out)
        except (OSError, ValueError, KeyError) as exc:
            res.failed = 2
            res.problems.append(f"analyze output unreadable: {exc!r}")
            return res
        res.observed["fits_json_mb"] = os.path.getsize(os.path.join(out, "fits.json")) / 1e6
        if rc_d != 0:
            res.failed += 1
            res.problems.append(f"diagnose exit {rc_d} {err_d.strip()}")
        return res

    def check(self, res: Outcome, ref: dict) -> None:
        if not res.observed:
            return
        obs = res.observed
        bad_analyze = checks.compare(obs, ref, skip=("corr",)) + checks.analyze_invariants(obs)
        if bad_analyze:
            res.failed += 1
            res.problems += [f"analyze output: {b}" for b in bad_analyze]
        if "corr" in obs:  # a failed diagnose is already counted
            bad_diag = checks.compare({"corr": obs["corr"]}, {"corr": ref["corr"]})
            if bad_diag:
                res.failed += 1
                res.problems += [f"diagnose output: {b}" for b in bad_diag]


@dataclass(frozen=True)
class SimulateWorkload:
    """`simulate --preset <preset> --replicates R --seed <s> --threads <nproc>`."""

    name: str
    preset: str
    replicates: int
    datasets: int
    probe_reps: int
    trace_datasets: int = 1

    @property
    def items_per_session(self) -> int:
        return self.replicates

    @staticmethod
    def completed_items(res: Outcome) -> int:
        return res.completed

    def probe(self, threads: int) -> calibrate.Probe:
        return calibrate.Probe(m=SIMULATE_PROBE_M, rows=SIMULATE_PROBE_ROWS, processes=threads)

    def input_seed(self, seed: int, j: int) -> int:
        return slot(seed) * 100 + j

    def prepare(self, workdir: str, seed: int) -> list[str]:
        return [str(self.input_seed(seed, j)) for j in range(self.datasets)]

    def session(self, inputs: list[str], j: int, out: str, threads: int, replicates: int | None = None) -> Outcome:
        out = fresh_dir(out)
        reps = self.replicates if replicates is None else replicates
        argv = [
            "simulate", "--preset", self.preset, "--replicates", str(reps),
            "--seed", inputs[j % len(inputs)], "--threads", str(threads), "--out", out,
        ]
        t0 = time.perf_counter()
        rc, err = call_cli(argv)
        elapsed = time.perf_counter() - t0
        res = Outcome(command_s=elapsed, session_s=elapsed, attempted=reps)
        if rc != 0:
            res.failed = reps
            res.problems.append(f"simulate exit {rc} {err.strip()}")
            return res
        try:
            res.observed = checks.observe_simulate(os.path.join(out, f"{self.preset}_outcome.json"))
        except (OSError, ValueError, KeyError) as exc:
            res.failed = reps
            res.problems.append(f"simulate output unreadable: {exc!r}")
            return res
        n_failed = int(res.observed["failed"].sum())
        if n_failed:
            res.failed = n_failed
            res.problems += [f"replicate failed: {msg}" for msg in res.observed["messages"]]
        return res

    def check(self, res: Outcome, ref: dict) -> None:
        if not res.observed:
            return
        bad = checks.compare(res.observed, ref) + checks.simulate_invariants(res.observed)
        if bad:
            res.failed = res.attempted
            res.problems += [f"simulate output: {b}" for b in bad]


WORKLOADS = {
    w.name: w
    for w in (
        AnalyzeWorkload("analyze_m120", n=4000, m=120, datasets=8, trace_datasets=8, probe_reps=2),
        AnalyzeWorkload("analyze_m500", n=10000, m=500, datasets=4, trace_datasets=1, probe_reps=4),
        SimulateWorkload("simulate_binomial", preset="tableS1", replicates=32, datasets=2, probe_reps=20),
    )
}
# One paper-scale session readies imports, allocator and caches before timing.
WARMUP = AnalyzeWorkload("warmup", n=4000, m=120, datasets=1, trace_datasets=1, probe_reps=2)
SETUP_REPEATS = 3


def warm_up(workload, workdir: str, seed: int, threads: int) -> None:
    """One untimed call of the workload's command at a small size."""
    if isinstance(workload, SimulateWorkload):
        res = workload.session(workload.prepare(workdir, seed), 0, os.path.join(workdir, "warm"), threads, threads)
    else:
        res = WARMUP.session(WARMUP.prepare(workdir, seed), 0, os.path.join(workdir, "warm"), threads)
    if res.failed:
        raise RuntimeError("warm-up call failed: " + "; ".join(res.problems))


def set_up(workload, workdir: str, seed: int, threads: int, import_s: float) -> tuple[list[str], float]:
    """Generate the inputs and warm up, SETUP_REPEATS times; the inputs and `setup_s`.

    The result is import time + the median repetition, in wall seconds.
    """
    raw = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.prepare(workdir, seed)
        warm_up(workload, workdir, seed, threads)
        raw.append(time.perf_counter() - t0)
    return inputs, import_s + statistics.median(raw)


@dataclass
class Tally:
    """Operations attempted and failed across a run, with the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, res: Outcome, label: str) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        self.problems += [f"{label}: {p}" for p in res.problems[: max(0, 20 - len(self.problems))]]


def run_session(workload, inputs, refs, seed, j, workdir, threads, tally, **kw) -> Outcome:
    res = workload.session(inputs, j, os.path.join(workdir, "out"), threads, **kw)
    case = f"{slot(seed)}.{j % workload.datasets}"
    workload.check(res, refs[case])
    tally.add(res, f"{workload.name} seed slot {case}")
    return res


def timed_loop(workload, inputs, refs, seed, seconds, workdir, threads, tally, probe) -> dict:
    """Closed loop for `seconds`; end-to-end metrics other than setup and memory.

    The probe runs between sessions; each session's times are scaled by
    REFERENCE_S over the mean probe time before and after it. The raw wall
    times are returned too, for the record.
    """
    results, speeds = [], []
    before = probe.seconds(workload.probe_reps)
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_session(workload, inputs, refs, seed, len(results), workdir, threads, tally))
        after = probe.seconds(workload.probe_reps)
        speeds.append(probe.scale(before, after))
        before = after
    completed = sum(workload.completed_items(r) for r in results)
    return {
        "command_s_p50": statistics.median(r.command_s * f for r, f in zip(results, speeds)),
        "throughput_per_s": completed / sum(r.session_s * f for r, f in zip(results, speeds)),
        "raw_command_s_p50": statistics.median(r.command_s for r in results),
        "raw_throughput_per_s": completed / sum(r.session_s for r in results),
        "speed_p50": statistics.median(speeds),
        "sessions": len(results),
    }


def traced_loop(workload, inputs, refs, seed, seconds, workdir, threads, tally, probe=None) -> dict:
    """Untraced and traced sessions on the same inputs; per-layer metrics per work item.

    A pass covers the first `trace_datasets` inputs once each, and passes
    repeat until `seconds` have elapsed, so every count per item is the same
    for every run of a seed. Simulate sessions run serially here, because
    pool workers would keep their spans in their own memory; one untraced
    session at `threads` workers gives the pool efficiency.
    """
    tracer = spans.Tracer()
    plain_s = traced_s = parallel_s = 0.0
    items = passes = 0
    fits_mb = 0.0
    causes = dict.fromkeys(checks.FAILURE_CAUSES, 0)
    is_sim = isinstance(workload, SimulateWorkload)
    start = time.perf_counter()
    while passes == 0 or (not is_sim and time.perf_counter() - start < seconds):
        passes += 1
        for j in range(workload.trace_datasets):
            plain_s += run_session(workload, inputs, refs, seed, j, workdir, 1, tally).session_s
            tracer.item = items
            with spans.installed(tracer):
                res = run_session(workload, inputs, refs, seed, j, workdir, 1, tally)
            traced_s += res.session_s
            items += workload.items_per_session
            fits_mb += res.observed.get("fits_json_mb", 0.0)
            for msg in res.observed.get("messages", ()):
                causes[checks.failure_cause(str(msg))] += 1
            if is_sim:
                parallel_s += run_session(workload, inputs, refs, seed, j, workdir, threads, tally).session_s
    metrics = layer_metrics(tracer, items)
    replicate_total = tracer.total("simulate.replicate")
    metrics["cli.fits_json_mb"] = fits_mb / items
    metrics["simulate.pool_efficiency"] = replicate_total / (threads * parallel_s) if parallel_s else 0.0
    for cause, n in causes.items():
        metrics[f"simulate.failed.{cause}"] = n / passes
    metrics["trace_overhead_frac"] = traced_s / plain_s - 1.0
    return metrics


def layer_metrics(tracer: spans.Tracer, items: int) -> dict:
    """Per-layer times (s) and counts per work item, from one run's spans."""
    own = spans.self_times(tracer.spans)

    def self_s(name: str) -> float:
        return sum(t for s, t in zip(tracer.spans, own) if s.name == name) / items

    def total_s(name: str) -> float:
        return tracer.total(name) / items

    def calls(name: str) -> float:
        return tracer.counts[name + ".calls"] / items

    replicates = tracer.durations("simulate.replicate")
    return {
        "cli.load_strata_s": total_s("cli.load_strata"),
        "cli.analyze_self_s": self_s("cli.analyze"),
        "cli.diagnose_self_s": self_s("cli.diagnose"),
        "fitting.select_lambda_s": total_s("fitting.select_lambda"),
        "fitting.select_lambda.calls": calls("fitting.select_lambda"),
        "fitting.fit_stratum_s": total_s("fitting.fit_stratum"),
        "fitting.penalized_inverse_s": total_s("fitting.penalized_inverse"),
        "fitting.penalized_inverse.calls": calls("fitting.penalized_inverse"),
        "basis.design_matrix.calls": calls("basis.design_matrix"),
        "basis.crossprod_s": total_s("basis.crossprod"),
        "basis.crossprod.calls": calls("basis.crossprod"),
        "windows.window_statistics_s": total_s("windows.window_statistics"),
        "windows.n_factorizations": tracer.counts["windows.n_factorizations"] / items,
        "tdp.threshold_regions_s": total_s("tdp.threshold_regions"),
        "tdp.phi_alpha.calls": calls("tdp.phi_alpha"),
        "tdp.pvalue_family.calls": calls("tdp.pvalue_family"),
        "toeplitz.cov_quadratic_forms_s": total_s("toeplitz.cov_quadratic_forms"),
        "toeplitz.cov_quadratic_forms.calls": calls("toeplitz.cov_quadratic_forms"),
        "simulate.generate_s": total_s("simulate.generate"),
        "simulate.replicate_s_p50": statistics.median(replicates) if replicates else 0.0,
    }
