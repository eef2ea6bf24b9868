import os
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import aggregate_by_cell_scan, clumped_indices_by_choice, dense_covariance
from scipy.stats import chi2, chisquare

from smoothdiff import cli, fitting, simulate
from smoothdiff.basis import design_matrix, difference_penalty, make_basis
from smoothdiff.errors import NumericalError, ParameterError
from smoothdiff.fitting import StratumData, select_lambda
from smoothdiff.tdp import PValueFamily, phi_alpha
from smoothdiff.simulate import (
    EXACT_MODEL_CASES,
    FAILURE_CAUSES,
    RegionOutcome,
    ReplicateRecord,
    SimScenario,
    _aggregate,
    clumped_indices,
    exact_model_error_rates,
    failure_cause,
    gen_coefficients,
    gen_stratum,
    outcome_to_json,
    replicate_rng,
    representative_fit,
    run_replicate,
    run_scenario,
)
from smoothdiff.windows import sliding_inverses


def small_scenario(**overrides):
    base = dict(
        n_nonzero=4,
        m=20,
        degree=2,
        n_per_stratum=600,
        sigma_b2=0.4,
        sigma_delta2=0.05,
        m_delta=1.5,
        noise_var=0.3,
        domain=(0.0, 1.0),
        alphas=(0.1,),
        thresholds=(0.5, 0.7, 0.9),
        n_replicates=4,
        seed=123,
    )
    base.update(overrides)
    return SimScenario(**base)


class TestClumpedIndices:
    def test_unit_weight_is_uniform_subset_sampling(self):
        rng = np.random.default_rng(0)
        m, k = 6, 2
        counts = {frozenset(c): 0 for c in combinations(range(m), k)}
        draws = 30_000
        for _ in range(draws):
            counts[frozenset(clumped_indices(m, k, 1.0, rng).tolist())] += 1
        observed = np.asarray(list(counts.values()))
        _, p = chisquare(observed)
        assert p > 1e-3

    def test_near_exhaustive(self):
        rng = np.random.default_rng(1)
        out = clumped_indices(10, 9, 6.0, rng)
        assert out.size == 9
        assert np.unique(out).size == 9

    def test_clumping_increases_adjacent_pairs(self):
        def adjacent_pairs(idx):
            return int(np.sum(np.diff(np.sort(idx)) == 1))

        rng = np.random.default_rng(2)
        draws = 3000
        plain = np.mean(
            [adjacent_pairs(clumped_indices(60, 8, 1.0, rng)) for _ in range(draws)]
        )
        clumped = np.mean(
            [adjacent_pairs(clumped_indices(60, 8, 6.0, rng)) for _ in range(draws)]
        )
        assert clumped > plain + 0.5

    @given(
        m=st.integers(2, 300),
        frac=st.floats(0.0, 1.0),
        nu=st.one_of(
            st.sampled_from([1.0, 1.5, 6.0, 1e3, 1e12]),
            st.floats(1.0, 50.0),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_indices_and_generator_state_match_one_choice_per_index(self, m, frac, nu, seed):
        k = 1 + int(frac * (m - 2))
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = clumped_indices(m, k, nu, rng)
        assert np.array_equal(out, clumped_indices_by_choice(m, k, nu, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_invalid_arguments(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ParameterError):
            clumped_indices(10, 10, 6.0, rng)
        with pytest.raises(ParameterError):
            clumped_indices(10, 0, 6.0, rng)
        with pytest.raises(ParameterError):
            clumped_indices(10, 3, 0.5, rng)


class TestGenCoefficients:
    def test_global_null_when_difference_degenerate(self):
        scn = small_scenario(m_delta=0.0, sigma_delta2=0.0)
        b_base, b_alt, k_set = gen_coefficients(scn, replicate_rng(0, 0))
        assert np.array_equal(b_base, b_alt)
        assert k_set.size == 4

    def test_minimum_shift_guarantee(self):
        scn = small_scenario(m_delta=1.5, sigma_delta2=0.3)
        for i in range(50):
            b_base, b_alt, k_set = gen_coefficients(scn, replicate_rng(1, i))
            diffs = b_alt[k_set] - b_base[k_set]
            assert np.all(np.abs(diffs) >= 1.5)
            off = np.setdiff1d(np.arange(scn.m), k_set)
            assert np.array_equal(b_base[off], b_alt[off])

    def test_difference_magnitudes_concentrate_near_shift(self):
        # |diff| = m_delta + |N(0, sigma_delta2)|: the excess over the shift
        # is half-normal with sd sigma * sqrt(1 - 2/pi)
        scn = small_scenario(m_delta=2.4, sigma_delta2=0.05, n_nonzero=10, m=120)
        excess = []
        for i in range(200):
            b_base, b_alt, k_set = gen_coefficients(scn, replicate_rng(2, i))
            excess.extend(np.abs(b_alt[k_set] - b_base[k_set]) - 2.4)
        assert np.min(excess) >= 0.0
        half_normal_sd = np.sqrt(0.05 * (1 - 2 / np.pi))
        assert np.std(excess) == pytest.approx(half_normal_sd, rel=0.1)


class TestGenStratum:
    def test_noiseless_gaussian_lies_on_linear_predictor(self):
        # a Gaussian scenario needs noise_var > 0; noise of sd 1e-15 is below allclose's tolerance
        scn = small_scenario(noise_var=1e-30)
        spec = scn.basis()
        rng = replicate_rng(3, 0)
        coefs = rng.normal(size=scn.m)
        data = gen_stratum(coefs, scn, rng, spec)
        eta = design_matrix(spec, data.z).predict(coefs)
        assert np.allclose(data.y, eta)

    def test_constant_coefficients_give_constant_predictor(self):
        scn = small_scenario(noise_var=1e-30)
        spec = scn.basis()
        data = gen_stratum(np.full(scn.m, 1.7), scn, replicate_rng(4, 0), spec)
        assert np.allclose(data.y, 1.7)

    def test_binomial_outcomes_are_binary(self):
        scn = small_scenario(family="binomial")
        data = gen_stratum(np.zeros(scn.m), scn, replicate_rng(5, 0))
        assert set(np.unique(data.y)) <= {0.0, 1.0}
        assert data.family == "binomial"
        # logit 0 everywhere: empirical rate near one half
        assert abs(data.y.mean() - 0.5) < 0.06


def interval_oracle_measure(intervals):
    """Rational-endpoint union length, merging overlaps by brute force."""
    points = sorted({p for iv in intervals for p in iv})
    total = Fraction(0)
    for lo, hi in zip(points[:-1], points[1:]):
        mid = (lo + hi) / 2
        if any(a <= mid <= b for a, b in intervals):
            total += hi - lo
    return total


class TestRegionScoring:
    def test_cell_arithmetic_matches_rational_interval_oracle(self):
        scn = small_scenario()
        spec = scn.basis()
        width = Fraction(1, spec.n_regions)

        def cells_to_rationals(cells):
            return [
                (k * width, (k + 1) * width) for k in np.flatnonzero(cells)
            ]

        rng = np.random.default_rng(6)
        for _ in range(50):
            sel = rng.random(spec.n_regions) < 0.4
            truth = rng.random(spec.n_regions) < 0.3
            inter_cells = int((sel & truth).sum())
            oracle_inter = interval_oracle_measure(
                [
                    iv
                    for iv in cells_to_rationals(sel)
                    for jv in cells_to_rationals(truth)
                    if max(iv[0], jv[0]) < min(iv[1], jv[1])
                    for iv in [(max(iv[0], jv[0]), min(iv[1], jv[1]))]
                ]
            )
            assert Fraction(inter_cells, spec.n_regions) == oracle_inter

    def test_empirical_tdp_fields_consistent(self):
        scn = small_scenario(n_replicates=3)
        rec = run_replicate(scn, 0)
        assert not rec.failed
        for region in rec.regions:
            if region.empirical_tdp is not None:
                assert 0.0 <= region.empirical_tdp <= 1.0
                assert region.error == int(region.bound > region.empirical_tdp + 1e-12)
            if region.truth_coverage is not None:
                assert 0.0 <= region.truth_coverage <= 1.0

    def test_truth_region_bound_over_windows_holding_a_planted_coefficient(self):
        # oracle: window k is a truth window iff one of coefficients
        # k..k+degree is planted (every planted shift is at least m_delta);
        # the shift is weak enough that the bounds fall strictly inside (0, 1)
        scn = small_scenario(alphas=(0.1, 0.2), m_delta=0.5)
        width = scn.degree + 1
        for index in range(3):
            rec = run_replicate(scn, index)
            planted = np.asarray(rec.true_indices)
            windows = [
                k
                for k in range(scn.m - scn.degree)
                if np.any((planted >= k) & (planted < k + width))
            ]
            for alpha in scn.alphas:
                family = PValueFamily(p=np.asarray(rec.p_values), alpha=alpha)
                assert rec.truth_region_tdp[alpha] == phi_alpha(family, windows) / len(windows)

    def test_selected_regions_nest_across_thresholds(self):
        scn = small_scenario(n_replicates=2, m_delta=2.0)
        rec = run_replicate(scn, 1)
        sizes = {r.tau: r.n_windows for r in rec.regions}
        assert sizes[0.9] <= sizes[0.7] <= sizes[0.5]


class TestRunScenario:
    def test_reproducibility_bit_identical(self):
        scn = small_scenario(n_replicates=3)
        a = run_scenario(scn)
        b = run_scenario(scn)
        assert outcome_to_json(a) == outcome_to_json(b)

    def test_thread_count_does_not_change_output(self):
        scn = small_scenario(n_replicates=2 * simulate.REPLICATES_PER_TASK + 1)  # three chunks, two workers
        serial = run_scenario(scn, threads=1)
        parallel = run_scenario(scn, threads=2)
        assert outcome_to_json(serial) == outcome_to_json(parallel)

    @pytest.mark.parametrize(
        "threads, n_replicates, workers",
        [(1, 32, None), (5000, 4, None), (5000, 8, None), (5000, 9, 2), (2, 32, 2), (5000, 32, 4), (3, 17, 3)],
    )
    def test_pool_has_at_most_one_worker_per_chunk(self, monkeypatch, threads, n_replicates, workers):
        # a fake pool records its size and maps in this process, so nothing forks
        pools, pids = [], set()

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                assert chunksize == simulate.REPLICATES_PER_TASK
                return map(fn, *iterables)

        def record(scenario, index):
            pids.add(os.getpid())
            return ReplicateRecord(index, scenario.m_delta, ())

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(simulate, "run_replicate", record)
        out = run_scenario(small_scenario(n_replicates=n_replicates), threads=threads)
        assert [r.index for r in out.records] == list(range(n_replicates))
        assert pools == ([] if workers is None else [workers])
        assert pids == {os.getpid()}

    def test_sweep_varies_effect_size_linearly(self):
        scn = small_scenario(n_replicates=5, m_delta_sweep=(0.0, 2.0))
        out = run_scenario(scn)
        assert [r.m_delta for r in out.records] == [0.0, 0.5, 1.0, 1.5, 2.0]
        # the last replicate takes HI exactly: 0.3 + 0.6 * 1.0 is 0.9000000000000001, past the last bin
        assert small_scenario(n_replicates=4, m_delta_sweep=(0.3, 0.9)).m_delta_at(3) == 0.9

    def test_aggregate_tables_have_all_cells(self, tmp_path):
        scn = small_scenario(n_replicates=3, alphas=(0.1, 0.2))
        out = run_scenario(scn)
        assert set(out.error_table) == {(a, t) for a in (0.1, 0.2) for t in (0.9, 0.7, 0.5)}
        scenario_file = tmp_path / "small.scn"
        scenario_file.write_text(
            "".join(
                f"{key} = {' '.join(map(str, value)) if isinstance(value, tuple) else value}\n"
                for key, value in asdict(scn).items()
                if value is not None
            )
        )
        assert cli.load_scenario(str(scenario_file)) == scn
        assert cli.main(["simulate", "--scenario", str(scenario_file), "--threads", "1", "--out", str(tmp_path)]) == 0
        csv_lines = (tmp_path / "small_error_table.csv").read_text().splitlines()
        assert csv_lines[0] == "alpha,tdp_threshold,value,n_replicates,mc_se"
        assert len(csv_lines) == 7

    def test_substream_independence_of_order(self):
        scn = small_scenario(n_replicates=3)
        direct = run_replicate(scn, 2)
        again = run_replicate(scn, 2)
        assert direct == again

    def test_monotone_power_in_effect_size(self):
        scn = small_scenario(n_replicates=60, m_delta_sweep=(0.0, 2.5), alphas=(0.2,))
        out = run_scenario(scn)
        recs = [r for r in out.records if not r.failed]
        effect = np.asarray([r.m_delta for r in recs])
        truth_bound = np.asarray([r.truth_region_tdp.get(0.2, 0.0) for r in recs])
        bins = np.digitize(effect, np.linspace(0, 2.5, 5)[1:-1])
        means = [truth_bound[bins == b].mean() for b in range(4)]
        assert all(means[i] <= means[i + 1] + 0.05 for i in range(3))

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ParameterError):
            small_scenario(n_nonzero=25, m=20)
        with pytest.raises(ParameterError):
            small_scenario(nu=0.5)
        with pytest.raises(ParameterError):
            small_scenario(alphas=(1.5,))
        for n in (-5, 0):
            with pytest.raises(ParameterError, match=f"n_per_stratum = {n} must be at least 1"):
                small_scenario(n_per_stratum=n)

    def test_zero_noise_variance_rejected_for_gaussian_only(self):
        # a noiseless Gaussian scenario fits every replicate exactly: error rate 1.000 in every cell
        with pytest.raises(ParameterError, match="noise_var = 0.0 must be positive for a Gaussian family"):
            small_scenario(noise_var=0.0)
        assert small_scenario(noise_var=0.0, family="binomial").noise_var == 0.0


def assert_tables_equal(got, want):
    """Same cells in the same order, each (mean, se, n) tuple equal, NaN matching NaN."""
    assert list(got) == list(want)
    for cell, values in want.items():
        assert len(got[cell]) == len(values)
        assert all(a == b or (a != a and b != b) for a, b in zip(got[cell], values)), cell


def random_records(scenario, n_records, rng):
    """Hand-made records: some failed, the rest with a scored region per (alpha, tau) of the
    scenario, and selections that are often empty."""
    records = []
    for index in range(n_records):
        if rng.random() < 0.25:
            records.append(ReplicateRecord(index, 0.0, (1,), failed=True, message="separation"))
            continue
        regions = []
        for alpha in scenario.alphas:
            for tau in scenario.thresholds:
                size = int(rng.integers(0, 4))
                empirical = int(rng.integers(0, size + 1)) / size if size else None
                error = int(rng.integers(0, 2)) if size else 0
                regions.append(RegionOutcome(alpha, tau, size, 0.5, empirical, None, error))
        records.append(ReplicateRecord(index, 0.0, (1,), (0.5,), tuple(regions), {}))
    return records


class TestTally:
    """The one-pass tally equals the replaced per-cell scan (`aggregate_by_cell_scan`)."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_records", [1, 2, 9])
    def test_hand_made_records(self, seed, n_records):
        # a scenario keeps the first of each repeated level, so no repeat reaches the tally
        scenario = small_scenario(alphas=(0.1, 0.2, 0.1), thresholds=(0.9, 0.5, 0.9), n_replicates=n_records)
        assert (scenario.alphas, scenario.thresholds) == ((0.1, 0.2), (0.9, 0.5))
        records = random_records(scenario, n_records, np.random.default_rng(seed))
        outcome = _aggregate(scenario, records)
        want_errors, want_tdps = aggregate_by_cell_scan(scenario, records)
        assert_tables_equal(outcome.error_table, want_errors)
        assert_tables_equal(outcome.tdp_table, want_tdps)
        assert outcome.n_failed == sum(r.failed for r in records)

    def test_replicates_with_duplicated_alpha_failures_and_empty_selections(self):
        # no effect at the sweep's start leaves most selections empty
        scenario = small_scenario(alphas=(0.2, 0.1, 0.2), m_delta_sweep=(0.0, 2.0), n_replicates=5)
        assert scenario.alphas == (0.2, 0.1)
        records = [run_replicate(scenario, i) for i in range(scenario.n_replicates)]
        records[1] = ReplicateRecord(1, records[1].m_delta, records[1].true_indices, failed=True, message="x")
        assert any(r.n_windows == 0 for rec in records for r in rec.regions)
        assert any(r.n_windows > 0 for rec in records for r in rec.regions)
        outcome = _aggregate(scenario, records)
        want_errors, want_tdps = aggregate_by_cell_scan(scenario, records)
        assert_tables_equal(outcome.error_table, want_errors)
        assert_tables_equal(outcome.tdp_table, want_tdps)


class TestExactModelErrorRates:
    def test_matches_descending_prefix_and_window_truth_oracle(self):
        # oracle: the largest p-ordered prefix whose bound clears tau*s, and
        # an error whenever the bound exceeds the windows holding a planted
        # coefficient; drawn from the same generator stream
        n_reps, seed = 20, 7
        rates = exact_model_error_rates(n_reps, seed)
        spec, fit = representative_fit()
        v = 2.0 * dense_covariance(fit)
        half = np.linalg.cholesky(v)
        w = spec.degree + 1
        n_windows = spec.n_regions
        expected = {}
        for nz, alphas, taus in EXACT_MODEL_CASES:
            scn = SimScenario(n_nonzero=nz, alphas=alphas, thresholds=taus, seed=seed)
            rng = np.random.default_rng(seed + nz)
            errors = {(nz, a, t): 0 for a in alphas for t in taus}
            for _ in range(n_reps):
                b_base, b_alt, _ = gen_coefficients(scn, rng)
                delta = b_alt - b_base
                d_hat = delta + half @ rng.normal(size=scn.m)
                t_stats = [
                    d_hat[k : k + w] @ np.linalg.inv(v[k : k + w, k : k + w]) @ d_hat[k : k + w]
                    for k in range(n_windows)
                ]
                p = chi2.sf(t_stats, df=w)
                truth = np.asarray([np.any(delta[k : k + w] != 0) for k in range(n_windows)])
                order = np.lexsort((np.arange(n_windows), p))
                for alpha in alphas:
                    family = PValueFamily(p=p, alpha=alpha)
                    for tau in taus:
                        for s in range(n_windows, 0, -1):
                            phi = phi_alpha(family, order[:s])
                            if phi >= tau * s:
                                errors[(nz, alpha, tau)] += int(phi > truth[order[:s]].sum())
                                break
            expected.update({key: count / n_reps for key, count in errors.items()})
        assert set(rates) == set(expected)
        for key, rate in expected.items():
            mean, _, n = rates[key]
            assert n == n_reps
            assert mean == rate


def raised_message(fn, *args, **kwargs) -> str:
    with pytest.raises(NumericalError) as exc:
        fn(*args, **kwargs)
    return str(exc.value)


def binary_stratum(z, rng):
    return StratumData(y=(rng.random(z.size) < 0.5).astype(float), z=z, family="binomial")


class TestFailureCause:
    """Each named cause is read from a message the package really raises."""

    @pytest.fixture
    def basis(self):
        return make_basis(0.0, 1.0, 8, 2), difference_penalty(8, 2)

    def test_separation(self, basis):
        spec, pen = basis
        data = StratumData(y=np.ones(200), z=np.linspace(0, 1, 200), family="binomial")
        assert failure_cause(raised_message(select_lambda, [data], spec, pen, 0.5)) == "separation"

    def test_irls_nonconvergence(self, basis, monkeypatch):
        spec, pen = basis
        monkeypatch.setattr(fitting, "MAX_IRLS_ITER", 1)
        rng = np.random.default_rng(1)
        data = binary_stratum(rng.uniform(0, 1, 300), rng)
        message = raised_message(select_lambda, [data], spec, pen, 0.5)
        assert failure_cause(message) == "irls_nonconvergence"

    def test_not_positive_definite(self, basis):
        # no data beyond z = 0.3: at lambda = 0 the penalized system is singular
        spec, pen = basis
        rng = np.random.default_rng(2)
        data = binary_stratum(rng.uniform(0, 0.3, 200), rng)
        message = raised_message(select_lambda, [data], spec, pen, 0.0)
        assert failure_cause(message) == "not_positive_definite"
        message = raised_message(sliding_inverses, np.zeros((6, 6)), 3)
        assert failure_cause(message) == "not_positive_definite"

    def test_no_lambda_candidate(self, basis, monkeypatch):
        spec, pen = basis
        monkeypatch.setattr(fitting, "default_lambda_grid", lambda dm, pen: np.asarray([0.1, 1.0]))
        gaussian = StratumData(y=np.ones(30), z=np.full(30, 0.5))  # one z value: ZN is short of rank
        message = raised_message(select_lambda, [gaussian], spec, pen)
        assert failure_cause(message) == "no_lambda_candidate"
        separated = StratumData(y=np.ones(200), z=np.linspace(0, 1, 200), family="binomial")
        message = raised_message(select_lambda, [separated], spec, pen)
        assert failure_cause(message) == "no_lambda_candidate"

    def test_other(self):
        # every message the package raises names one of the four causes; a
        # message that names none of them is tallied as "other"
        assert failure_cause("design has no rows in stratum 2") == "other"

    def test_causes_in_report_order(self):
        assert FAILURE_CAUSES == (
            "separation",
            "irls_nonconvergence",
            "not_positive_definite",
            "no_lambda_candidate",
            "other",
        )
