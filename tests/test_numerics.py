import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import origin_fit
from reslearn.errors import DimensionMismatchError, RankDeficientError
from reslearn.layer1 import estimate_row_scale
from reslearn.layer2 import rescale_layer2
from reslearn.model import SampleSet
from reslearn.numerics import as_matrix, lls_solve, origin_fits


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestAsMatrix:
    def test_promotes_vector_to_column(self):
        out = as_matrix([1.0, 2.0, 3.0])
        assert out.shape == (3, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 0.0]])

    def test_rejects_3d(self):
        with pytest.raises(DimensionMismatchError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_preserves_values_and_dtype(self):
        out = as_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])


class TestLlsSolve:
    def test_exact_fit_recovers_coefficients(self):
        # y = L x with known L: residual must vanish and L come back exactly
        g = rng(1)
        l_true = g.normal(size=(3, 4))
        xs = g.normal(size=(50, 4))
        ys = xs @ l_true.T
        coeffs = lls_solve(xs, ys)
        np.testing.assert_allclose(coeffs, l_true, atol=1e-12)
        assert np.linalg.norm(xs @ coeffs.T - ys) < 1e-10

    def test_matches_normal_equations_oracle(self):
        # independent oracle: solve X'X L' = X'Y directly
        g = rng(2)
        xs = g.normal(size=(40, 5))
        ys = g.normal(size=(40, 2))
        oracle = np.linalg.solve(xs.T @ xs, xs.T @ ys).T
        coeffs = lls_solve(xs, ys)
        np.testing.assert_allclose(coeffs, oracle, atol=1e-10)
        resid_oracle = float(np.linalg.norm(xs @ oracle.T - ys))
        assert np.linalg.norm(xs @ coeffs.T - ys) == pytest.approx(resid_oracle, rel=1e-10)

    def test_rank_deficient_raises(self):
        xs = np.ones((10, 2))  # duplicate columns
        ys = np.ones((10, 1))
        with pytest.raises(RankDeficientError):
            lls_solve(xs, ys)

    def test_underdetermined_raises(self):
        with pytest.raises(RankDeficientError):
            lls_solve(np.eye(2, 3), np.zeros((2, 1)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            lls_solve(np.zeros((5, 2)), np.zeros((4, 1)))


class TestOriginFit:
    @pytest.mark.parametrize("k", [0.5, -2.0, 0.0, 0.125])
    def test_exact_line(self, k):
        x = np.array([[1.0, 1.0], [-2.0, 5.0], [3.0, -7.0], [4.0, 9.0]])
        mask = np.array([[True, True], [True, False], [True, True], [True, False]])
        count, slope = origin_fits(x, k * x, mask)
        np.testing.assert_array_equal(count, [4, 2])
        np.testing.assert_array_equal(slope, [k, k])

    def test_no_slope_without_spread(self):
        tiny = np.full(20, 1e-170)  # squares underflow: x @ x == 0
        x = np.column_stack([np.zeros(20), tiny, np.ones(20)])
        mask = np.ones((20, 3), dtype=bool)
        mask[:, 2] = False  # an empty column has no slope either
        count, slope = origin_fits(x, np.ones((20, 3)), mask)
        np.testing.assert_array_equal(count, [20, 20, 0])
        assert np.isnan(slope).all()
        assert origin_fit(np.zeros(5), np.ones(5)) is None
        assert origin_fit(tiny, np.ones(20)) is None

        # each caller keeps its own outcome for a row with no defined slope:
        # the layer-2 factor stays 1, and the layer-1 scale regression lists
        # the row as unscaled
        samples = SampleSet(xs=-tiny.reshape(-1, 1), ys=rng(1).normal(size=(20, 1)))
        np.testing.assert_array_equal(rescale_layer2(samples, np.eye(1), notes=[]), [1.0])
        xs = rng(2).normal(size=(20, 1))
        k, unscaled, notes = estimate_row_scale(xs, tiny.reshape(-1, 1), np.eye(1))
        assert (k.tolist(), unscaled) == ([1.0], (0,))
        assert notes == ["row 0: activated h values are all zero"]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 50),
           st.lists(st.sampled_from(["fit", "empty", "zero_x", "single"]), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_one_column_reference(self, seed, n, kinds):
        # x and y keep one sign per column, as on the samples both layers fit,
        # so no sum cancels
        g = rng(seed)
        d = len(kinds)
        sign = np.where(g.random(d) < 0.5, -1.0, 1.0)
        x = sign * g.uniform(0.1, 2.0, size=(n, d))
        y = sign * g.uniform(0.1, 2.0, size=(n, d))
        mask = g.random((n, d)) < g.uniform(0.2, 1.0, size=d)
        for j, kind in enumerate(kinds):
            if kind == "empty":
                mask[:, j] = False
            elif kind == "zero_x":
                x[:, j] = 0.0
            elif kind == "single":
                mask[:, j] = np.arange(n) == g.integers(n)
        count, slope = origin_fits(x, y, mask)
        for j in range(d):
            col = mask[:, j]
            assert count[j] == col.sum()
            ref = origin_fit(x[col, j], y[col, j])
            if ref is None:
                assert np.isnan(slope[j])
                continue
            assert slope[j] == pytest.approx(ref, rel=1e-12)
