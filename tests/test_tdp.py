import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import closed_testing_oracle, simes_test
from smoothdiff import tdp
from smoothdiff.basis import make_basis
from smoothdiff.errors import ParameterError
from smoothdiff.tdp import (
    PValueFamily,
    _h_alpha,
    _prefix_phi,
    phi_alpha,
    threshold_regions,
)


def simes_by_definition(pvals, alpha):
    ordered = sorted(pvals)
    n = len(ordered)
    return any(ordered[i] <= (i + 1) * alpha / n for i in range(n))


def h_by_tail_enumeration(p, alpha):
    """Largest tail-set size the Simes test leaves standing, by direct scan."""
    ordered = np.sort(p)
    best = 0
    for i in range(1, p.size + 1):
        if not simes_by_definition(ordered[p.size - i :], alpha):
            best = max(best, i)
    return best


def phi_by_broadcast(family, region):
    """The shortcut bound with every count taken from an r x r comparison."""
    ps = family.p[np.unique(region)]
    u = np.arange(1, ps.size + 1)
    counts = np.count_nonzero(family.h * ps[None, :] <= u[:, None] * family.alpha, axis=1)
    return int(np.max(1 - u + counts))


def largest_prefix_by_descending_search(prefix_phi, tau):
    """Largest s with prefix_phi[s - 1] >= tau * s, and that phi."""
    for s in range(len(prefix_phi), 0, -1):
        phi = prefix_phi[s - 1]
        if phi >= tau * s:
            return s, phi
    return 0, 0


def closed_testing_by_loops(family, region):
    """Closed testing over the power set, one mask at a time (small n only)."""
    n = family.n
    region = np.unique(region)
    p = family.p
    n_masks = 1 << n
    local_reject = np.zeros(n_masks, dtype=bool)
    for mask in range(1, n_masks):
        members = [i for i in range(n) if mask >> i & 1]
        local_reject[mask] = simes_test(p[members], family.alpha)
    in_x = local_reject.copy()
    for bit in range(n):
        step = 1 << bit
        for mask in range(n_masks):
            if not mask >> bit & 1:
                in_x[mask] = in_x[mask] and in_x[mask | step]
    region_mask = 0
    for i in region:
        region_mask |= 1 << int(i)
    best = 0
    sub = region_mask
    while sub:
        if not in_x[sub]:
            best = max(best, bin(sub).count("1"))
        sub = (sub - 1) & region_mask
    return int(region.size - best)


FAMILY_KINDS = (
    "uniform",
    "signal",
    "ties",
    "cutoffs",
    "simes_boundary",
    "dyadic",
    "zeros_and_ones",
    "ones",
    "zeros",
)


def family_pvalues(kind, n, alpha, rng):
    """p-values of one kind: nulls, signals, ties, values on the comparisons' boundaries, or 0/1."""
    if kind == "uniform":
        return rng.uniform(0, 1, n)
    if kind == "signal":
        strong = rng.uniform(0, 1e-4, int(rng.integers(0, n + 1)))
        return np.concatenate([strong, rng.uniform(0, 1, n - strong.size)])
    if kind == "ties":
        return np.round(rng.uniform(0, 1, n) ** 3, 2)
    if kind == "cutoffs":
        # Values equal to (j * alpha) / i sit on the comparisons' boundaries.
        return (rng.integers(1, n + 1, n) * alpha) / rng.integers(1, n + 1, n)
    if kind == "simes_boundary":
        # The sorted values equal the Simes cutoffs of the whole family.
        return rng.permutation((np.arange(1, n + 1) * alpha) / n)
    if kind == "dyadic":
        # With a dyadic alpha, h * p == u * alpha holds exactly for many pairs.
        return rng.integers(0, 65, n) / 64
    if kind == "zeros_and_ones":
        return rng.choice([0.0, 1.0, alpha], n)
    return np.full(n, 1.0 if kind == "ones" else 0.0)


class TestSimes:
    def test_single_hypothesis_reduces_to_level(self):
        assert simes_test([0.04], 0.05) is True
        assert simes_test([0.06], 0.05) is False

    def test_all_ones_not_rejected(self):
        assert simes_test([1.0, 1.0, 1.0], 0.3) is False

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            simes_test([], 0.05)

    def test_agrees_with_definition_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            n = int(rng.integers(1, 13))
            p = rng.uniform(0, 1, n) ** rng.uniform(0.5, 2.0)
            alpha = float(rng.uniform(0.01, 0.5))
            assert simes_test(p, alpha) == simes_by_definition(p, alpha)


class TestHAlpha:
    def test_all_ones_gives_n(self):
        fam = PValueFamily(p=np.ones(7), alpha=0.2)
        assert fam.h == 7

    def test_all_zeros_gives_zero(self):
        fam = PValueFamily(p=np.zeros(5), alpha=0.05)
        assert fam.h == 0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(400):
            n = int(rng.integers(1, 13))
            p = rng.uniform(0, 1, n) ** rng.uniform(0.3, 3.0)
            alpha = float(rng.choice([0.05, 0.2]))
            fam = PValueFamily(p=p, alpha=alpha)
            assert fam.h == h_by_tail_enumeration(fam.p, alpha)

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 37, 500, 2000])
    def test_matches_enumeration_oracle_on_large_families(self, kind, n):
        rng = np.random.default_rng(n)
        for alpha in (0.01, 0.1, 0.25):
            p = family_pvalues(kind, n, alpha, rng)
            assert _h_alpha(p, alpha) == h_by_tail_enumeration(p, alpha)


class TestPhiAlpha:
    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(FAMILY_KINDS),
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.25]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_broadcast_counts(self, n, seed, kind, alpha):
        rng = np.random.default_rng(seed)
        fam = PValueFamily(p=family_pvalues(kind, n, alpha, rng), alpha=alpha)
        for _ in range(5):
            region = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            assert phi_alpha(fam, region) == phi_by_broadcast(fam, region)

    def test_no_evidence_gives_zero(self):
        fam = PValueFamily(p=np.ones(6), alpha=0.1)
        assert fam.h >= 1
        assert phi_alpha(fam, np.arange(6)) == 0

    def test_h_zero_gives_full_cardinality(self):
        fam = PValueFamily(p=np.zeros(4), alpha=0.1)
        assert fam.h == 0
        assert phi_alpha(fam, [0, 1]) == 2

    def test_empty_query_rejected(self):
        fam = PValueFamily(p=np.asarray([0.5]), alpha=0.1)
        with pytest.raises(ParameterError):
            phi_alpha(fam, [])

    def test_shortcut_equals_closed_testing_on_all_subsets(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            p = rng.uniform(0, 1, n) ** rng.uniform(0.3, 3.0)
            fam = PValueFamily(p=p, alpha=float(rng.choice([0.05, 0.2])))
            for r in range(1, 2**n):
                region = [i for i in range(n) if r >> i & 1]
                assert phi_alpha(fam, region) == closed_testing_oracle(fam, region)

    def test_set_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 14))
            fam = PValueFamily(p=rng.uniform(0, 1, n) ** 2, alpha=0.1)
            inner = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            extra = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            outer = np.union1d(inner, extra)
            assert phi_alpha(fam, inner) <= phi_alpha(fam, outer)

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 14))
            p = rng.uniform(0, 1, n) ** 2
            lo = PValueFamily(p=p, alpha=0.05)
            hi = PValueFamily(p=p, alpha=0.2)
            assert lo.h >= hi.h
            region = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            assert phi_alpha(lo, region) <= phi_alpha(hi, region)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0, 1, 10)
        fam = PValueFamily(p=p, alpha=0.1)
        perm = rng.permutation(10)
        fam_perm = PValueFamily(p=p[perm], alpha=0.1)
        region = np.asarray([1, 4, 7])
        mapped = np.asarray([int(np.where(perm == i)[0][0]) for i in region])
        assert phi_alpha(fam, region) == phi_alpha(fam_perm, mapped)

    @given(
        n=st.integers(1, 10),
        seed=st.integers(0, 10_000),
        alpha=st.sampled_from([0.05, 0.1, 0.2]),
    )
    @settings(max_examples=50, deadline=None)
    def test_bound_within_range_property(self, n, seed, alpha):
        rng = np.random.default_rng(seed)
        fam = PValueFamily(p=rng.uniform(0, 1, n), alpha=alpha)
        region = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        phi = phi_alpha(fam, region)
        assert 0 <= phi <= region.size


class TestClosedTestingOracle:
    def test_matches_loop_version(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 10))
            alpha = float(rng.choice([0.05, 0.1, 0.25]))
            kind = FAMILY_KINDS[int(rng.integers(0, 7))]
            fam = PValueFamily(p=family_pvalues(kind, n, alpha, rng), alpha=alpha)
            for _ in range(4):
                region = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                assert closed_testing_oracle(fam, region) == closed_testing_by_loops(fam, region)

    def test_single_rejected_hypothesis(self):
        fam = PValueFamily(p=np.asarray([0.01]), alpha=0.05)
        assert closed_testing_oracle(fam, [0]) == 1

    def test_nothing_rejectable(self):
        fam = PValueFamily(p=np.asarray([1.0, 1.0]), alpha=0.3)
        assert closed_testing_oracle(fam, [0, 1]) == 0

    def test_guard_on_large_families(self):
        fam = PValueFamily(p=np.linspace(0.01, 0.99, 21), alpha=0.1)
        with pytest.raises(ParameterError):
            closed_testing_oracle(fam, np.arange(21))

    def test_cross_validation_both_directions(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            fam = PValueFamily(p=rng.uniform(0, 1, 10) ** 2, alpha=0.1)
            region = rng.choice(10, size=int(rng.integers(1, 11)), replace=False)
            assert closed_testing_oracle(fam, region) == phi_alpha(fam, region)


def exhaustive_largest_set(p, alpha, tau):
    """Largest subset with phi/|R| >= tau, by scanning the full power set."""
    n = len(p)
    fam = PValueFamily(p=np.asarray(p), alpha=alpha)
    best = 0
    for r in range(1, 2**n):
        region = [i for i in range(n) if r >> i & 1]
        if phi_alpha(fam, region) >= tau * len(region):
            best = max(best, len(region))
    return best


class TestThresholdRegions:
    def test_all_ones_yield_empty_regions(self):
        report = threshold_regions(np.ones(8), 0.1, [0.9, 0.7, 0.5])
        for rec in report.records:
            assert rec.windows == ()
            assert rec.bound == 0.0

    def test_all_zeros_cover_every_window(self):
        report = threshold_regions(np.zeros(9), 0.1, [0.9])
        rec = report.records[0]
        assert rec.windows == tuple(range(9))
        assert rec.bound == 1.0

    @given(
        n=st.integers(2, 2000),
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(FAMILY_KINDS),
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.25]),
    )
    @example(n=2000, seed=0, kind="signal", alpha=0.05)
    @example(n=500, seed=1, kind="ties", alpha=0.2)
    @example(n=300, seed=2, kind="zeros", alpha=0.1)
    @example(n=300, seed=3, kind="ones", alpha=0.1)
    @settings(max_examples=30, deadline=None)
    def test_sweep_matches_descending_search(self, n, seed, kind, alpha):
        p = family_pvalues(kind, n, alpha, np.random.default_rng(seed))
        fam = PValueFamily(p=p, alpha=alpha)
        assert fam.h == h_by_tail_enumeration(fam.p, alpha)
        order = np.lexsort((np.arange(n), fam.p))
        expected = [phi_alpha(fam, order[:s]) for s in range(1, n + 1)]
        assert _prefix_phi(fam, order).tolist() == expected
        report = threshold_regions(p, alpha, [0.5, 0.7, 0.9])
        assert report.h == fam.h
        for rec in report.records:
            size, phi = largest_prefix_by_descending_search(expected, rec.tau)
            assert (len(rec.windows), rec.phi) == (size, phi)
            assert rec.windows == tuple(sorted(int(k) for k in order[:size]))

    def test_makes_no_phi_alpha_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("threshold_regions called phi_alpha")

        monkeypatch.setattr(tdp, "phi_alpha", refuse)
        p = np.random.default_rng(12).uniform(0, 1, 200) ** 6
        report = threshold_regions(p, 0.1, [0.9, 0.7, 0.5])
        assert all(rec.windows for rec in report.records)

    def test_greedy_matches_exhaustive_search(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            p = rng.uniform(0, 1, n) ** rng.uniform(0.3, 3.0)
            alpha = float(rng.choice([0.05, 0.2]))
            for tau in (0.5, 0.7, 0.9):
                rec = threshold_regions(p, alpha, [tau]).records[0]
                assert len(rec.windows) == exhaustive_largest_set(p, alpha, tau)

    def test_region_nesting_across_thresholds(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.uniform(0, 1, 20) ** 3
            report = threshold_regions(p, 0.1, [0.9, 0.7, 0.5])
            by_tau = {rec.tau: set(rec.windows) for rec in report.records}
            assert by_tau[0.9] <= by_tau[0.7] <= by_tau[0.5]

    def test_reported_bound_meets_threshold(self):
        rng = np.random.default_rng(9)
        p = rng.uniform(0, 1, 15) ** 4
        report = threshold_regions(p, 0.1, [0.8, 0.6])
        for rec in report.records:
            if rec.windows:
                assert rec.bound >= rec.tau
                assert rec.phi == phi_alpha(
                    PValueFamily(p=np.asarray(p), alpha=0.1), list(rec.windows)
                )

    def test_deterministic_tie_break_on_equal_pvalues(self):
        p = np.full(6, 0.001)
        rec = threshold_regions(p, 0.1, [0.99]).records[0]
        rec2 = threshold_regions(p, 0.1, [0.99]).records[0]
        assert rec.windows == rec2.windows

    def test_intervals_are_window_regions(self):
        # the selected windows index the p-values; the basis labels them with covariate intervals
        p = np.asarray([0.001, 0.9, 0.9, 0.001, 0.001, 0.9, 0.9, 0.9])
        rec = threshold_regions(p, 0.1, [0.95]).records[0]
        assert rec.windows == (0, 3, 4)
        spec = make_basis(0.0, 1.0, p.size + 2, 2)
        bp = spec.breakpoints
        assert spec.window_intervals(rec.windows) == [(bp[0], bp[1]), (bp[3], bp[5])]

    def test_weak_fwer_under_uniform_nulls(self):
        rng = np.random.default_rng(10)
        alpha = 0.1
        hits = 0
        trials = 2000
        for _ in range(trials):
            fam = PValueFamily(p=rng.uniform(0, 1, 30), alpha=alpha)
            # monotonicity: some phi positive iff the full family has phi > 0
            hits += phi_alpha(fam, np.arange(30)) > 0
        rate = hits / trials
        se = np.sqrt(rate * (1 - rate) / trials)
        assert rate <= alpha + 2 * max(se, 1e-3)
