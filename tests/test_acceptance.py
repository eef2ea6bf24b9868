"""Acceptance suite: every release criterion at its stated tolerance.

Each check prints one `[ACCEPTANCE] ...: PASS/FAIL` line. Shared expensive
simulation runs are computed once per session. Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines as they complete.
"""

import time

import numpy as np
import pytest
from scipy.stats import kstest

from oracles import (
    QuadFormProblem,
    closed_testing_oracle,
    dense_inverse_rate,
    dense_product_residual,
    frobenius_form,
    kronecker_double_sum,
    tridiag_dense,
    tridiag_toeplitz_inverse,
)
from smoothdiff.cli import main
from smoothdiff.simulate import SimScenario, exact_model_error_rates, run_scenario
from smoothdiff.tdp import PValueFamily, phi_alpha
from smoothdiff.toeplitz import PentaParams, cov_quadratic_forms, diagnose_pentadiagonal
from smoothdiff.windows import sliding_inverses

SEED = 20260810

# Exact-model reference: the same replicate count and seed as
# `scripts/exact_model_error_rates.py` run with its defaults.
EXACT_REPLICATES = 1500
EXACT_SEED = 1


def report(criterion, ok, detail):
    line = f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def error_cell_check(error, mc_se, alpha, exact, exact_se):
    """The method's guarantee and agreement with the exact-model reference.

    Closed testing bounds the type-1 error of any selected set by alpha, so
    the simulated error may exceed alpha only by Monte Carlo noise. It must
    also match the error rate of the same selection when the window tests
    hold exactly, which catches a fitting step that drifts either way.
    Returns (ok, detail).
    """
    ceiling = alpha + 2 * mc_se
    band = 3 * np.sqrt(mc_se**2 + exact_se**2)
    ok = error <= ceiling and abs(error - exact) <= band
    detail = (
        f"error={error:.4f}, alpha={alpha}, mc_se={mc_se:.4f}: guarantee error <= {ceiling:.4f}; "
        f"exact model {exact:.4f} +/- {exact_se:.4f}, band [{exact - band:.4f}, {exact + band:.4f}]"
    )
    return ok, detail


@pytest.fixture(scope="session")
def exact_model():
    return exact_model_error_rates(EXACT_REPLICATES, EXACT_SEED)


@pytest.fixture(scope="session")
def table1a_run():
    scenario = SimScenario(
        n_nonzero=15,
        sigma_delta2=0.05,
        m_delta=2.4,
        n_per_stratum=4000,
        m=120,
        alphas=(0.1, 0.2),
        thresholds=(0.5, 0.7, 0.9),
        n_replicates=500,
        seed=SEED,
    )
    return run_scenario(scenario)


def simultaneous_check(outcome, alpha):
    """The guarantee as stated: the rate of replicates whose closed test claims a discovery among
    the true nulls is at most alpha plus Monte Carlo noise. Returns (ok, detail)."""
    rate, mc_se, n = outcome.simultaneous_error[alpha]
    ceiling = alpha + 2 * mc_se
    return rate <= ceiling, f"simultaneous error={rate:.4f} +/- {mc_se:.4f} over {n}, guarantee <= {ceiling:.4f}"


@pytest.fixture(scope="session")
def table1b_run():
    scenario = SimScenario(
        n_nonzero=30,
        sigma_delta2=0.05,
        m_delta=2.4,
        n_per_stratum=4000,
        m=120,
        alphas=(0.1,),
        thresholds=(0.5, 0.7, 0.9),
        n_replicates=300,
        seed=SEED,
    )
    return run_scenario(scenario)


class TestCriterion1ShortcutOracle:
    def test_shortcut_equals_closed_testing_on_queried_subsets(self):
        start = time.perf_counter()
        rng = np.random.default_rng(SEED)
        n_checked = 0
        for fam_idx in range(1000):
            n = int(rng.integers(1, 13))
            p = rng.uniform(0, 1, n) ** rng.uniform(0.3, 3.0)
            alpha = float(rng.choice([0.05, 0.2]))
            family = PValueFamily(p=p, alpha=alpha)
            queries = [np.arange(n)]
            for _ in range(5):
                size = int(rng.integers(1, n + 1))
                queries.append(rng.choice(n, size=size, replace=False))
            for region in queries:
                if phi_alpha(family, region) != closed_testing_oracle(family, region):
                    report(
                        "criterion 1 (shortcut = closed-testing oracle)",
                        False,
                        f"mismatch at family {fam_idx}, region {sorted(region)}",
                    )
                n_checked += 1
        elapsed = time.perf_counter() - start
        report(
            "criterion 1 (shortcut = closed-testing oracle)",
            elapsed < 120.0,
            f"{n_checked} queries over 1000 families, exact match, {elapsed:.0f}s",
        )


class TestCriterion2Table1a:
    # The paper reports 0.105 at alpha=0.1 and about 0.25 at alpha=0.2 for
    # these cells. Both exceed alpha, the bound the simultaneous guarantee
    # sets, and the exact model gives about 0.07 and 0.15, so the cells are
    # judged by the guarantee and the exact model, not by the reported values.
    @pytest.mark.parametrize("tau", [0.5, 0.7, 0.9])
    def test_alpha_01_error(self, table1a_run, exact_model, tau):
        value, mc_se, _ = table1a_run.error_table[(0.1, tau)]
        exact, exact_se, _ = exact_model[(15, 0.1, tau)]
        ok, detail = error_cell_check(value, mc_se, 0.1, exact, exact_se)
        report(f"criterion 2 (Table 1a, alpha=0.1, tdp={tau})", ok, detail)

    @pytest.mark.parametrize("tau", [0.5, 0.7, 0.9])
    def test_alpha_02_error_widened(self, table1a_run, exact_model, tau):
        value, mc_se, _ = table1a_run.error_table[(0.2, tau)]
        exact, exact_se, _ = exact_model[(15, 0.2, tau)]
        ok, detail = error_cell_check(value, mc_se, 0.2, exact, exact_se)
        report(f"criterion 2 (Table 1a, alpha=0.2, tdp={tau})", ok, detail)

    @pytest.mark.parametrize("alpha", [0.1, 0.2])
    def test_simultaneous_error(self, table1a_run, alpha):
        report(f"criterion 2 (Table 1a, simultaneous, alpha={alpha})", *simultaneous_check(table1a_run, alpha))


class TestCriterion3Table2a:
    @pytest.mark.parametrize("tau,target", [(0.5, 0.505), (0.7, 0.705), (0.9, 0.908)])
    def test_mean_empirical_tdp(self, table1a_run, tau, target):
        value = table1a_run.tdp_table[(0.1, tau)][0]
        report(
            f"criterion 3 (Table 2a, alpha=0.1, tdp={tau})",
            abs(value - target) <= 0.03,
            f"mean empirical TDP={value:.4f}, target {target} +/- 0.03",
        )


class TestCriterion4ConservativeRegime:
    # The paper reports an error of about 0.02 for this cell; the exact model
    # gives about 0.089, so no faithful implementation reaches the reported value.
    def test_error_and_tdp_at_half_threshold(self, table1b_run, exact_model):
        error, mc_se, _ = table1b_run.error_table[(0.1, 0.5)]
        tdp = table1b_run.tdp_table[(0.1, 0.5)][0]
        exact, exact_se, _ = exact_model[(30, 0.1, 0.5)]
        ok, detail = error_cell_check(error, mc_se, 0.1, exact, exact_se)
        report(
            "criterion 4 (30/120, alpha=0.1, tdp=0.5)",
            ok and tdp >= 0.53,
            f"{detail}, mean TDP={tdp:.4f} (>= 0.53 required)",
        )

    def test_simultaneous_error(self, table1b_run):
        report("criterion 4 (30/120, simultaneous, alpha=0.1)", *simultaneous_check(table1b_run, 0.1))


class TestConservativenessTrend:
    def test_more_alternatives_do_not_inflate_half_threshold_error(
        self, table1a_run, table1b_run
    ):
        # supporting invariant (not a numbered criterion): raising the share
        # of non-null windows must not push the tdp=0.5 error above the
        # 15/120 level plus Monte Carlo noise
        base, base_se, _ = table1a_run.error_table[(0.1, 0.5)]
        more = table1b_run.error_table[(0.1, 0.5)][0]
        assert more <= base + 2 * base_se


class TestErrorCellCheck:
    # supporting invariant (not a numbered criterion): the error-cell check
    # rejects the paper's reported cells and over-conservative errors, and
    # accepts errors at the exact-model rate
    @staticmethod
    def check(error, n, alpha, exact, exact_se):
        mc_se = np.sqrt(error * (1 - error) / (n - 1))
        return error_cell_check(error, mc_se, alpha, exact, exact_se)[0]

    def test_rejects_reported_and_over_conservative_errors(self):
        assert not self.check(0.25, 500, 0.2, 0.1507, 0.0092)
        assert not self.check(0.09, 500, 0.2, 0.1507, 0.0092)
        assert not self.check(0.02, 300, 0.1, 0.0887, 0.0073)

    def test_accepts_errors_at_the_exact_model_rate(self):
        assert self.check(0.14, 500, 0.2, 0.1507, 0.0092)
        assert self.check(0.068, 500, 0.1, 0.0707, 0.0066)
        assert self.check(0.08, 300, 0.1, 0.0887, 0.0073)


@pytest.fixture(scope="session")
def table_s1_run():
    scenario = SimScenario(
        n_nonzero=20,
        family="binomial",
        m_delta=6.0,
        sigma_delta2=0.05,
        n_per_stratum=4000,
        m=120,
        alphas=(0.1,),
        thresholds=(0.5, 0.7, 0.9),
        n_replicates=300,
        seed=SEED,
    )
    return run_scenario(scenario)


class TestCriterion5BinaryPipeline:
    def test_simultaneous_error(self, table_s1_run):
        report("criterion 5 (Table S1, binary, simultaneous, alpha=0.1)", *simultaneous_check(table_s1_run, 0.1))

    def test_table_s1_row(self, table_s1_run):
        outcome = table_s1_run
        targets = {0.5: 0.522, 0.7: 0.726, 0.9: 0.920}
        fail_rate = outcome.n_failed / len(outcome.records)
        values = {tau: outcome.tdp_table[(0.1, tau)][0] for tau in targets}
        ok = all(abs(values[tau] - t) <= 0.05 for tau, t in targets.items())
        report(
            "criterion 5 (Table S1, binary, alpha=0.1)",
            ok,
            f"mean TDP={ {t: round(v, 4) for t, v in values.items()} }, "
            f"targets +/- 0.05, failed-replicate rate={fail_rate:.3f}",
        )


class TestCriterion6SlidingInverse:
    @pytest.mark.parametrize("width", [3, 4])
    def test_exactness_and_factorization_count(self, width):
        rng = np.random.default_rng(SEED + width)
        a = rng.normal(size=(200, 200))
        v = a @ a.T + 200 * np.eye(200)
        out = sliding_inverses(v, width, reanchor=64)
        worst = 0.0
        for k, inv in enumerate(out):
            direct = np.linalg.inv(v[k : k + width, k : k + width])
            err = np.max(np.abs(inv - direct)) / np.max(np.abs(direct))
            worst = max(worst, err)
        n_windows = 200 - width + 1
        expected_fact = 1 + (n_windows - 1) // 64
        single = sliding_inverses(v, width, reanchor=None)
        report(
            f"criterion 6 (sliding inverses, w={width})",
            worst < 1e-10 and out.n_factorizations == expected_fact and single.n_factorizations == 1,
            f"max rel err={worst:.2e}, factorizations={out.n_factorizations} "
            f"(one per re-anchor segment), without re-anchor={single.n_factorizations}",
        )


class TestCriterion7PentadiagonalTheory:
    def test_factorization_inverse_and_decay(self):
        rng = np.random.default_rng(SEED)
        worst_resid = 0.0
        for _ in range(100):
            lam = rng.uniform(0.2, 2.0)
            pi_2 = rng.uniform(2.001 * lam, 6 * lam)
            pi_1 = rng.uniform(pi_2, 8 * lam)
            params = PentaParams(
                eps=pi_1 * pi_2 / lam + 2 * lam, theta=pi_1 + pi_2, lam_p=lam, n=40
            )
            z1, z2, residual, _ = diagnose_pentadiagonal(params)
            resid = max(residual, dense_product_residual(z1, z2, params))
            worst_resid = max(worst_resid, resid / max(abs(params.eps), 1.0))

        worst_inv = 0.0
        for n in (10, 60, 200):
            z1, z2 = diagnose_pentadiagonal(PentaParams(eps=8.1, theta=5.0, lam_p=1.0, n=n))[:2]
            for factor in (z1, z2):
                closed = tridiag_toeplitz_inverse(factor, n)
                numeric = np.linalg.inv(tridiag_dense(factor))
                worst_inv = max(
                    worst_inv, np.max(np.abs(closed - numeric)) / np.max(np.abs(numeric))
                )

        params = PentaParams(eps=8.1, theta=5.0, lam_p=1.0, n=60)
        diag = diagnose_pentadiagonal(params)[3]
        # the banded slope, and the one read from the numerically inverted matrix
        slope_ok = all(
            abs(rate - diag.psi_min) <= 0.10 * diag.psi_min for rate in (diag.empirical_rate, dense_inverse_rate(params))
        )
        report(
            "criterion 7 (factorization + closed-form inverse + decay)",
            worst_resid < 1e-12 and worst_inv < 1e-8 and slope_ok,
            f"max reconstruction resid={worst_resid:.2e}, max inverse err={worst_inv:.2e}, "
            f"empirical rate={diag.empirical_rate:.4f} vs psi_min={diag.psi_min:.4f}",
        )


class TestCriterion8QuadFormCovariance:
    def test_double_sum_frobenius_and_monte_carlo(self):
        rng = np.random.default_rng(SEED)
        worst_rel = 0.0
        worst_z = 0.0
        for _ in range(50):
            d_x, d_y = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            ra = rng.normal(size=(d_x, d_x))
            rb = rng.normal(size=(d_y, d_y))
            rs = rng.normal(size=(d_x + d_y, d_x + d_y + 2))
            problem = QuadFormProblem(A=ra @ ra.T, B=rb @ rb.T, sigma=rs @ rs.T)
            trace = float(cov_quadratic_forms(problem.A, problem.B, problem.sigma_xy))
            for oracle in (kronecker_double_sum(problem), frobenius_form(problem)):
                worst_rel = max(worst_rel, abs(trace - oracle) / max(abs(oracle), 1e-300))

            draws = rng.multivariate_normal(np.zeros(d_x + d_y), problem.sigma, 1_000_000)
            x, y = draws[:, :d_x], draws[:, d_x:]
            qx = np.einsum("ni,ij,nj->n", x, problem.A, x)
            qy = np.einsum("ni,ij,nj->n", y, problem.B, y)
            prods = (qx - qx.mean()) * (qy - qy.mean())
            mc, se = prods.mean(), prods.std(ddof=1) / 1000.0
            worst_z = max(worst_z, abs(mc - trace) / se)
        report(
            "criterion 8 (quadratic-form covariance)",
            worst_rel < 1e-10 and worst_z < 3.0,
            f"max |trace - (double-sum, Frobenius)| rel={worst_rel:.2e}, "
            f"max MC z-score={worst_z:.2f}",
        )


class TestCriterion9NullCalibration:
    def test_pooled_uniformity_and_weak_fwer(self):
        # global null: both strata share one curve, in a well-identified
        # (high signal-to-noise) regime so the selector smooths lightly
        scenario = SimScenario(
            n_nonzero=15,
            sigma_b2=1.0,
            noise_var=0.1,
            sigma_delta2=0.0,
            m_delta=0.0,
            n_per_stratum=4000,
            m=120,
            alphas=(0.1,),
            thresholds=(0.5,),
            n_replicates=100,
            seed=SEED,
        )
        outcome = run_scenario(scenario)
        good = [r for r in outcome.records if not r.failed]
        pooled = np.concatenate([r.p_values for r in good])
        ks = kstest(pooled, "uniform").statistic
        alpha = 0.1
        hits = [
            PValueFamily(p=np.asarray(r.p_values), alpha=alpha).h < len(r.p_values)
            for r in good
        ]
        rate = float(np.mean(hits))
        se = np.sqrt(alpha * (1 - alpha) / len(good))
        report(
            "criterion 9 (null calibration)",
            pooled.size >= 10_000 and ks < 0.05 and rate <= alpha + 2 * se,
            f"pooled n={pooled.size}, KS={ks:.4f} (< 0.05), "
            f"P(any claim)={rate:.3f} (<= {alpha + 2 * se:.3f})",
        )


def simulate_outputs(out_dir, preset, replicates, threads):
    """The outcome and table files of one `simulate` run of a preset."""
    rc = main(
        [
            "simulate",
            "--preset", preset,
            "--replicates", str(replicates),
            "--seed", str(SEED),
            "--threads", str(threads),
            "--out", str(out_dir),
        ]
    )
    assert rc == 0
    return {
        name: (out_dir / name).read_bytes()
        for name in (f"{preset}_outcome.json", f"{preset}_error_table.csv", f"{preset}_tdp_table.csv")
    }


class TestCriterion10Determinism:
    # 9 replicates are two chunks of the pool, so --threads 2 runs two workers
    def test_preset_bit_identical_across_runs_and_threads(self, tmp_path):
        first = simulate_outputs(tmp_path / "a", "table2a", 9, 1)
        second = simulate_outputs(tmp_path / "b", "table2a", 9, 1)
        threaded = simulate_outputs(tmp_path / "c", "table2a", 9, 2)
        report(
            "criterion 10 (determinism)",
            first == second == threaded,
            "outcome and table files bit-identical across runs and --threads 1/2",
        )

    def test_binomial_preset_bit_identical_across_runs_and_threads(self, tmp_path):
        # tableS1 fits every stratum by the lockstep binomial grid
        first = simulate_outputs(tmp_path / "a", "tableS1", 9, 1)
        second = simulate_outputs(tmp_path / "b", "tableS1", 9, 1)
        threaded = simulate_outputs(tmp_path / "c", "tableS1", 9, 2)
        report(
            "criterion 10 (binomial determinism)",
            first == second == threaded,
            "tableS1 outcome and table files bit-identical across runs and --threads 1/2",
        )
