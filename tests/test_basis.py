import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    band_form,
    basis_support,
    cross_with_by_column_bincount,
    dense_design,
    difference_matrix,
    eval_basis,
    gram_band_by_pair_bincount,
    predict_by_einsum,
    find_spans_by_search,
    region,
    rhs_by_offset_bincount,
    span_order_by_int64_sort,
)
from smoothdiff import basis
from smoothdiff.basis import (
    design_matrix,
    difference_penalty,
    expand_band,
    make_basis,
)
from smoothdiff.errors import ParameterError


def cox_de_boor(knots, j, d, x):
    """Textbook recursive B-spline definition, used as the evaluation oracle."""
    if d == 0:
        if knots[j] <= x < knots[j + 1]:
            return 1.0
        # closed right boundary of the last non-degenerate interval
        if x == knots[-1] and knots[j] < knots[j + 1] == knots[-1]:
            return 1.0
        return 0.0
    left = 0.0
    if knots[j + d] > knots[j]:
        left = (x - knots[j]) / (knots[j + d] - knots[j]) * cox_de_boor(knots, j, d - 1, x)
    right = 0.0
    if knots[j + d + 1] > knots[j + 1]:
        right = (
            (knots[j + d + 1] - x)
            / (knots[j + d + 1] - knots[j + 1])
            * cox_de_boor(knots, j + 1, d - 1, x)
        )
    return left + right


class TestMakeBasis:
    def test_degree_zero_knots_are_interval_breaks(self):
        spec = make_basis(0.0, 1.0, 4, 0)
        assert np.allclose(spec.knots, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_paper_scale_region_count(self):
        spec = make_basis(0.0, 10.0, 120, 3)
        assert spec.n_regions == 117

    def test_hand_enumerated_regions(self):
        # m=5, d=2: breakpoints at 0, 1/3, 2/3, 1 giving 3 regions
        spec = make_basis(0.0, 1.0, 5, 2)
        assert spec.n_regions == 3
        assert region(spec, 0) == (0.0, pytest.approx(1 / 3))
        assert region(spec, 1) == (pytest.approx(1 / 3), pytest.approx(2 / 3))
        assert region(spec, 2) == (pytest.approx(2 / 3), 1.0)

    @given(
        m=st.integers(2, 200),
        degree=st.integers(0, 5),
        lo=st.floats(-1e3, 1e3),
        width=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_breakpoints_bound_each_region_bitwise(self, m, degree, lo, width):
        # windows.csv writes region k as breakpoints k and k + 1
        if m < degree + 2:
            return
        spec = make_basis(lo, lo + width, m, degree)
        edges = spec.breakpoints.tolist()
        assert list(zip(edges[:-1], edges[1:])) == [region(spec, k) for k in range(spec.n_regions)]

    def test_knot_count_follows_open_uniform_convention(self):
        spec = make_basis(-2.0, 7.0, 9, 3)
        assert spec.knots.size == 9 + 3 + 1
        assert np.all(np.diff(spec.knots) >= 0)

    def test_determinism(self):
        a = make_basis(0.0, 10.0, 40, 3)
        b = make_basis(0.0, 10.0, 40, 3)
        assert np.array_equal(a.knots, b.knots)

    @pytest.mark.parametrize("m,d,lo,hi", [(3, 2, 0, 1), (5, 2, 1, 1), (4, -1, 0, 1)])
    def test_invalid_parameters(self, m, d, lo, hi):
        with pytest.raises(ParameterError):
            make_basis(lo, hi, m, d)

    @pytest.mark.parametrize(
        "lo, hi, problem",
        [
            (-1e308, 1e308, "its width overflows"),
            (0.0, 5e-322, "its 118 breakpoints are not strictly increasing"),  # the spacing underflows
            (1e10, 10000000000.00001, "its 118 breakpoints are not strictly increasing"),  # 6 distinct values
            (0.0, 1e-320, "its 118 breakpoints are not strictly increasing in normal steps (smallest 8.4e-323)"),
        ],
    )
    def test_domain_whose_breakpoints_do_not_separate(self, lo, hi, problem):
        with pytest.raises(ParameterError) as exc:
            make_basis(lo, hi, 120, 3)
        assert str(exc.value).startswith(f"domain [{lo}, {hi}] cannot hold a basis of m=120, degree 3: {problem}")

    @pytest.mark.parametrize("lo, hi", [(-1e308, 7e307), (0.0, 3e-306), (1e10, 1e10 + 1e-3)])
    def test_extreme_domain_that_separates_is_a_partition_of_unity(self, lo, hi):
        spec = make_basis(lo, hi, 120, 3)
        z = np.linspace(lo, hi, 501)
        values = design_matrix(spec, z).predict(np.eye(120)).T
        assert values.min() >= 0.0
        np.testing.assert_allclose(values.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestFindSpans:
    """Spans by arithmetic on the uniform grid equal the binary search of the knots."""

    @given(
        lo=st.floats(-1e6, 1e6),
        width=st.floats(1e-6, 1e6),
        m_extra=st.integers(2, 400),
        degree=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_binary_search(self, lo, width, m_extra, degree, seed):
        spec = make_basis(lo, lo + width, degree + m_extra, degree)
        rng = np.random.default_rng(seed)
        knots = spec.knots
        z = np.concatenate([
            rng.uniform(spec.z_lo, spec.z_hi, 2000),
            knots,
            np.nextafter(knots, -np.inf),
            np.nextafter(knots, np.inf),
            [spec.z_lo - width, spec.z_hi + width, 1e300, -1e300, np.finfo(float).max, -np.finfo(float).max],
        ])
        assert np.array_equal(basis._find_spans(spec, z), find_spans_by_search(spec, z))

    @pytest.mark.parametrize("m, degree", [(120, 3), (500, 3), (2000, 3), (4, 0), (9, 2)])
    def test_many_points(self, m, degree):
        spec = make_basis(0.0, 100.0, m, degree)
        z = np.random.default_rng(m).uniform(-1.0, 101.0, 200_000)
        assert np.array_equal(basis._find_spans(spec, z), find_spans_by_search(spec, z))


class TestEvalBasis:
    def test_degree_zero_is_indicator(self):
        spec = make_basis(0.0, 1.0, 4, 0)
        assert np.array_equal(eval_basis(spec, 0.3), [0.0, 1.0, 0.0, 0.0])
        assert np.array_equal(eval_basis(spec, 0.9), [0.0, 0.0, 0.0, 1.0])

    def test_partition_of_unity(self):
        spec = make_basis(0.0, 10.0, 30, 3)
        rng = np.random.default_rng(0)
        for z in rng.uniform(0, 10, 10_000):
            vals = eval_basis(spec, z)
            assert abs(vals.sum() - 1.0) < 1e-12
            assert np.all(vals >= 0)
            assert np.count_nonzero(vals) <= 4

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_matches_recursive_oracle(self, d):
        spec = make_basis(0.0, 1.0, 6 + d, d)
        rng = np.random.default_rng(d)
        grid = np.concatenate([rng.uniform(0, 1, 50), [0.0, 1.0], spec.knots[3:5]])
        for z in grid:
            ours = eval_basis(spec, z)
            oracle = [cox_de_boor(spec.knots, j, d, z) for j in range(spec.m)]
            assert np.allclose(ours, oracle, atol=1e-12), f"z={z}"

    def test_matches_scipy(self):
        from scipy.interpolate import BSpline

        spec = make_basis(0.0, 2.0, 11, 3)
        rng = np.random.default_rng(5)
        coef = rng.normal(size=spec.m)
        bsp = BSpline(spec.knots, coef, 3, extrapolate=False)
        for z in rng.uniform(0, 2, 200):
            assert eval_basis(spec, z) @ coef == pytest.approx(float(bsp(z)), abs=1e-10)

    def test_outside_domain_returns_zeros(self):
        spec = make_basis(0.0, 1.0, 6, 2)
        assert np.array_equal(eval_basis(spec, -0.1), np.zeros(6))
        assert np.array_equal(eval_basis(spec, 1.5), np.zeros(6))

    def test_non_finite_rejected(self):
        spec = make_basis(0.0, 1.0, 6, 2)
        with pytest.raises(ParameterError):
            eval_basis(spec, float("nan"))

    @given(z=st.floats(min_value=0.0, max_value=10.0), m=st.integers(6, 25), d=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity_property(self, z, m, d):
        spec = make_basis(0.0, 10.0, m, d)
        assert eval_basis(spec, z).sum() == pytest.approx(1.0, abs=1e-12)


class TestDesignMatrix:
    def test_single_row_equals_eval(self):
        spec = make_basis(0.0, 1.0, 7, 2)
        dm = design_matrix(spec, np.asarray([0.4]))
        assert np.allclose(dense_design(dm)[0], eval_basis(spec, 0.4))

    def test_rows_equal_eval_per_sample(self):
        spec = make_basis(0.0, 5.0, 12, 3)
        z = np.random.default_rng(1).uniform(0, 5, 40)
        dm = design_matrix(spec, z)
        for i, zi in enumerate(z):
            assert np.allclose(dense_design(dm)[i], eval_basis(spec, zi))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_crossprod_bandwidth(self, d):
        spec = make_basis(0.0, 1.0, 15, d)
        z = np.random.default_rng(2).uniform(0, 1, 400)
        ztz = design_matrix(spec, z).crossprod()
        for j in range(15):
            for k in range(15):
                if abs(j - k) > d:
                    assert ztz[j, k] == 0.0

    def test_crossprod_matches_dense(self):
        spec = make_basis(0.0, 1.0, 10, 3)
        rng = np.random.default_rng(3)
        z = rng.uniform(0, 1, 200)
        w = rng.uniform(0.5, 2.0, 200)
        dm = design_matrix(spec, z)
        assert np.allclose(dm.crossprod(), dense_design(dm).T @ dense_design(dm), atol=1e-12)
        assert np.allclose(dm.crossprod(w), dense_design(dm).T @ (w[:, None] * dense_design(dm)), atol=1e-12)

    def test_crossprod_near_toeplitz_interior(self):
        # uniform design: interior diagonals of Z'Z are nearly constant
        spec = make_basis(0.0, 1.0, 20, 2)
        z = np.linspace(0, 1, 4001)
        ztz = design_matrix(spec, z).crossprod()
        interior = np.diagonal(ztz)[5:15]
        assert np.ptp(interior) / interior.mean() < 0.01

    def test_sorted_inputs_give_sorted_support_starts(self):
        spec = make_basis(0.0, 1.0, 12, 3)
        z = np.sort(np.random.default_rng(4).uniform(0, 1, 100))
        dm = design_matrix(spec, z)
        assert np.all(np.diff(dm.start) >= 0)

    def test_predict_and_rhs_match_dense(self):
        spec = make_basis(0.0, 1.0, 9, 2)
        rng = np.random.default_rng(6)
        z = rng.uniform(0, 1, 80)
        coef = rng.normal(size=9)
        y = rng.normal(size=80)
        dm = design_matrix(spec, z)
        assert np.allclose(dm.predict(coef), dense_design(dm) @ coef)
        assert np.allclose(dm.rhs(y), dense_design(dm).T @ y)

    def test_empty_rejected(self):
        spec = make_basis(0.0, 1.0, 6, 2)
        with pytest.raises(ParameterError):
            design_matrix(spec, np.asarray([]))


def crossprod_by_m2_bincount(dm, weights=None):
    """Reference Z' diag(w) Z: one length-m^2 bincount per coefficient pair, then mirrored."""
    w, m = dm.width, dm.m
    flat = np.zeros(m * m)
    for a in range(w):
        rows = (dm.start + a) * m
        for b in range(a, w):
            contrib = dm.values[:, a] * dm.values[:, b]
            if weights is not None:
                contrib = contrib * weights
            flat += np.bincount(rows + dm.start + b, weights=contrib, minlength=m * m)
    out = flat.reshape(m, m)
    iu = np.triu_indices(m, 1)
    out[(iu[1], iu[0])] = out[iu]
    return out


class TestGramBand:
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    @pytest.mark.parametrize("m_extra", [2, 10, 100])
    def test_crossprod_bit_identical_to_m2_bincount(self, d, m_extra):
        spec = make_basis(0.0, 1.0, d + m_extra, d)
        rng = np.random.default_rng(10 + d)
        # some points outside the domain give all-zero rows
        z = rng.uniform(-0.05, 1.05, 2000)
        w = rng.uniform(1e-3, 0.25, 2000)
        dm = design_matrix(spec, z)
        assert np.array_equal(dm.crossprod(w), crossprod_by_m2_bincount(dm, w))
        assert np.array_equal(dm.crossprod(), crossprod_by_m2_bincount(dm))
        # the cached unweighted product is the same array on the second call
        assert dm.crossprod() is dm.crossprod()

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_band_rows_are_the_superdiagonals(self, d):
        spec = make_basis(0.0, 1.0, 14, d)
        rng = np.random.default_rng(20)
        dm = design_matrix(spec, rng.uniform(0, 1, 300))
        w = rng.uniform(0.1, 1.0, 300)
        band = dm.gram_band(w)
        dense = dm.crossprod(w)
        assert band.shape == (d + 1, spec.m)
        assert np.array_equal(band_form(dense, d), band)
        for off in range(d + 1):
            assert np.array_equal(band[d - off, off:], np.diagonal(dense, off))
            assert np.all(band[d - off, :off] == 0.0)

    def test_expand_band_wider_than_matrix(self):
        # a band with more rows than the matrix has diagonals keeps the dense ones
        band = np.zeros((4, 2))
        band[2, 1] = 5.0
        band[3] = [1.0, 2.0]
        assert np.array_equal(expand_band(band), [[1.0, 5.0], [5.0, 2.0]])

    def test_unweighted_band_is_shared_and_read_only(self):
        dm = design_matrix(make_basis(0.0, 1.0, 12, 3), np.random.default_rng(21).uniform(0, 1, 200))
        band = dm.gram_band()
        assert dm.gram_band() is band
        assert np.array_equal(band, dm.gram_band(np.ones(dm.n)))
        with pytest.raises(ValueError, match="read-only"):
            band[-1] += 1.0


def assert_matches_bincount_oracles(dm, rng):
    """gram_band, rhs and weighted_rhs (vector and matrix) equal the bincount loops bit for bit.

    weighted_rhs takes right-hand sides its caller has weighted; the oracles weight their own.
    """
    w = rng.uniform(1e-3, 0.25, dm.n)
    y = rng.normal(size=dm.n)
    x = rng.normal(size=(dm.n, 3))
    for weights in (None, w):
        assert np.array_equal(dm.gram_band(weights), gram_band_by_pair_bincount(dm, weights))
        wy, wx = (y, x) if weights is None else (weights * y, weights[:, None] * x)
        for rhs in (dm.rhs, dm.weighted_rhs):
            assert np.array_equal(rhs(wy), rhs_by_offset_bincount(dm, y, weights))
            assert np.array_equal(rhs(wx), cross_with_by_column_bincount(dm, x, weights))
            # a column-major right-hand side gives the same sums
            assert np.array_equal(rhs(np.asfortranarray(wx)), cross_with_by_column_bincount(dm, x, weights))
    # a stack of weight, right-hand-side or coefficient vectors gives each
    # vector's result bit for bit, whatever the stack's size
    stack = rng.uniform(1e-3, 0.25, (3, dm.n))
    assert np.array_equal(dm.gram_band(stack), [dm.gram_band(v) for v in stack])
    assert np.array_equal(dm.gram_band(stack[:1]), dm.gram_band(stack[0])[None])
    for rhs in (dm.rhs, dm.weighted_rhs):
        assert np.array_equal(rhs(x), np.stack([rhs(c) for c in x.T], axis=1))
    coefs = rng.normal(size=(3, dm.m))
    assert np.array_equal(dm.predict(coefs), [dm.predict(c) for c in coefs])
    assert np.array_equal(dm.predict(coefs[:1]), dm.predict(coefs[0])[None])


class TestSparseOperators:
    """The cached CSR operators reproduce the bincount loops they replaced, bit for bit."""

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    @pytest.mark.parametrize("m_extra,n", [(2, 2000), (30, 2000), (200, 3000), (60, 25)])
    def test_bit_identical_to_bincount_oracles(self, d, m_extra, n):
        spec = make_basis(0.0, 1.0, d + m_extra, d)
        rng = np.random.default_rng(40 + d)
        # points outside the domain give all-zero rows; n = 25 has n < m
        dm = design_matrix(spec, rng.uniform(-0.05, 1.05, n))
        assert_matches_bincount_oracles(dm, rng)

    @pytest.mark.parametrize("d", [0, 3])
    def test_all_rows_outside_the_domain(self, d):
        spec = make_basis(0.0, 1.0, 12, d)
        rng = np.random.default_rng(47)
        dm = design_matrix(spec, np.concatenate([rng.uniform(-2, -1, 30), rng.uniform(1.5, 2, 30)]))
        assert_matches_bincount_oracles(dm, rng)
        assert not dm.gram_band(rng.uniform(0.1, 1, dm.n)).any()

    @given(m=st.integers(2, 150), n=st.integers(1, 400), d=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_property(self, m, n, d, seed):
        spec = make_basis(0.0, 1.0, m + d, d)
        rng = np.random.default_rng(seed)
        dm = design_matrix(spec, rng.uniform(-0.1, 1.1, n))
        assert_matches_bincount_oracles(dm, rng)

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_predict_matches_einsum_oracle(self, d):
        spec = make_basis(0.0, 1.0, 40 + d, d)
        rng = np.random.default_rng(50 + d)
        dm = design_matrix(spec, rng.uniform(-0.05, 1.05, 2000))
        for coef in rng.normal(size=(4, spec.m)):
            ref = predict_by_einsum(dm, coef)
            np.testing.assert_allclose(dm.predict(coef), ref, rtol=0.0, atol=1e-15 * np.max(np.abs(ref)) * (d + 1))

    def test_operators_built_once_per_design_matrix(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        real = basis._sparse_operators
        monkeypatch.setattr(basis, "_sparse_operators", counting)
        spec = make_basis(0.0, 1.0, 20, 3)
        rng = np.random.default_rng(48)
        dm = design_matrix(spec, rng.uniform(0, 1, 300))
        w = rng.uniform(0.1, 1.0, 300)
        for _ in range(3):
            dm.gram_band(w)
            dm.weighted_rhs(w * rng.normal(size=300))
            dm.weighted_rhs(w[:, None] * rng.normal(size=(300, 2)))
        dm.crossprod()
        assert calls == [20]

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    @pytest.mark.parametrize("m_extra,n", [(2, 2000), (117, 4000), (60, 25)])
    def test_unweighted_kernels_equal_the_operators(self, d, m_extra, n, monkeypatch):
        # the unweighted Gram band and rhs take `bincount` and build no operator, and equal
        # G @ 1 and R @ [y | X] summed over the offsets, bit for bit
        spec = make_basis(0.0, 1.0, d + m_extra, d)
        rng = np.random.default_rng(60 + d)
        dm = design_matrix(spec, rng.uniform(-0.05, 1.05, n))
        yx = rng.normal(size=(n, 3))

        def fail(*args):
            raise AssertionError("operator built by an unweighted product")

        with monkeypatch.context() as patched:
            patched.setattr(basis, "_sparse_operators", fail)
            band, zyx, zy = dm.gram_band(), dm.rhs(yx), dm.rhs(yx[:, 0])
        gram_op, rhs_op = basis._sparse_operators(dm.values, dm.start, dm.m)
        per_pair = gram_op @ np.ones(n)
        want = np.zeros((dm.width, dm.m))
        for k, (a, b) in enumerate(basis._pairs(dm.width)):
            want[dm.width - 1 - (b - a)] += per_pair[k * dm.m : (k + 1) * dm.m]
        assert np.array_equal(band, want)
        per_offset = (rhs_op @ yx).reshape(dm.width, dm.m, 3)
        want = np.zeros((dm.m, 3))
        for part in per_offset:
            want += part
        assert np.array_equal(zyx, want)
        assert np.array_equal(zy, want[:, 0])

    @pytest.mark.parametrize("m, n", [(8, 50), (123, 4000), (500, 10000), (70000, 3000)])
    def test_operators_equal_the_int64_sort_ones(self, m, n, monkeypatch):
        # the 16-bit radix sort gives the int64 stable sort's permutation, so the same operators;
        # m = 70000 sorts the int64 keys
        spec = make_basis(0.0, 1.0, m, 3)
        rng = np.random.default_rng(m)
        dm = design_matrix(spec, rng.uniform(-0.05, 1.05, n))
        got = basis._sparse_operators(dm.values, dm.start, m)
        monkeypatch.setattr(basis, "_span_order", span_order_by_int64_sort)
        want = basis._sparse_operators(dm.values, dm.start, m)
        for g, w in zip(got, want):
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(g, name), getattr(w, name)), name
            assert g.shape == w.shape

    def test_predict_only_builds_no_operator(self, monkeypatch):
        def fail(*args):
            raise AssertionError("operator built by a predict-only design matrix")

        monkeypatch.setattr(basis, "_sparse_operators", fail)
        spec = make_basis(0.0, 1.0, 20, 3)
        rng = np.random.default_rng(49)
        dm = design_matrix(spec, rng.uniform(0, 1, 300))
        coef = rng.normal(size=20)
        assert np.array_equal(dm.predict(coef), dm.predict(coef))
        np.testing.assert_allclose(dm.predict(coef), dense_design(dm) @ coef, rtol=1e-13, atol=1e-13)


class TestDifferencePenalty:
    def test_hand_computed_second_order(self):
        pen = difference_penalty(4, 2)
        assert np.array_equal(difference_matrix(4, 2), [[1, -2, 1, 0], [0, 1, -2, 1]])
        expected_s = [[1, -2, 1, 0], [-2, 5, -4, 1], [1, -4, 5, -2], [0, 1, -2, 1]]
        assert np.array_equal(expand_band(pen.band), expected_s)

    @pytest.mark.parametrize("m", [5, 20, 120])
    def test_null_space_of_second_differences(self, m):
        pen = difference_penalty(m, 2)
        const = np.ones(m)
        linear = np.arange(1.0, m + 1)
        assert np.linalg.norm(expand_band(pen.band) @ const) < 1e-10
        assert np.linalg.norm(expand_band(pen.band) @ linear) < 1e-10

    def test_paper_scale_rank(self):
        pen = difference_penalty(120, 2)
        assert np.linalg.matrix_rank(expand_band(pen.band)) == 118

    def test_bandwidth(self):
        pen = difference_penalty(12, 2)
        for j in range(12):
            for k in range(12):
                if abs(j - k) > 2:
                    assert expand_band(pen.band)[j, k] == 0.0

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_band_from_stencil_bitwise_equal_to_dense(self, q):
        for m in sorted({q + 1, q + 2, 2 * q + 1, 9, 120, 501}):
            pen = difference_penalty(m, q)
            dense = np.diff(np.eye(m), n=q, axis=0)
            ref = band_form(dense.T @ dense, q)
            assert pen.band.shape == ref.shape
            assert pen.band.tobytes() == ref.tobytes()

    def test_invalid(self):
        with pytest.raises(ParameterError):
            difference_penalty(2, 2)
        with pytest.raises(ParameterError):
            difference_penalty(5, 0)

    @given(m=st.integers(4, 40), q=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_rank_property(self, m, q):
        if m <= q:
            return
        pen = difference_penalty(m, q)
        assert np.linalg.matrix_rank(expand_band(pen.band)) == m - q


class TestCellGeometry:
    def test_cells_to_intervals_merges_runs(self):
        spec = make_basis(0.0, 1.0, 8, 2)
        cells = np.array([1, 1, 0, 1, 0, 0], dtype=bool)
        ivals = spec.cells_to_intervals(cells)
        bp = spec.breakpoints
        assert ivals == [(bp[0], bp[2]), (bp[3], bp[4])]

    def test_basis_support_cells_match_support_interval(self):
        spec = make_basis(0.0, 1.0, 9, 3)
        for j in range(spec.m):
            lo_cell, hi_cell = spec.basis_support_cells(j)
            lo, hi = basis_support(spec, j)
            assert spec.breakpoints[lo_cell] == pytest.approx(lo)
            assert spec.breakpoints[hi_cell] == pytest.approx(hi)
