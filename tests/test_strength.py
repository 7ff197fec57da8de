import numpy as np
import numpy.testing as npt
import pytest

from helpers import predicted_strength_variance

from strength_init.initializers import InitSpec, init
from strength_init.rewiring import max_strength_scaling, sweep_rows_to_csv
from strength_init.rng import derive_stream
from strength_init.strength import stats_from_strengths, strength_stats, strengths


class TestStrengths:
    def test_row_and_column_sums(self):
        m = np.array([[1.0, -2.0], [3.0, 4.0]])
        npt.assert_array_equal(strengths(m, "input"), [-1.0, 7.0])
        npt.assert_array_equal(strengths(m, "output"), [4.0, 2.0])

    def test_zero_matrix(self):
        m = np.zeros((4, 6))
        npt.assert_array_equal(strengths(m, "input"), np.zeros(4))
        npt.assert_array_equal(strengths(m, "output"), np.zeros(6))

    def test_bad_side(self):
        with pytest.raises(ValueError):
            strengths(np.eye(2), "sideways")

    def test_sum_rule(self, rng):
        m = rng.normal(size=(37, 53))
        total = m.sum()
        assert abs(strengths(m, "input").sum() - total) < 1e-9
        assert abs(strengths(m, "output").sum() - total) < 1e-9


class TestStats:
    def test_two_point_moments(self):
        st = stats_from_strengths(np.array([-1.0, 7.0]))
        assert st.mean == 3.0
        assert st.variance == 16.0
        assert st.fourth_central_moment == 256.0
        assert st.max_abs == 7.0

    def test_constant_vector(self):
        st = stats_from_strengths(np.full(10, 4.2))
        assert st.variance == 0.0
        assert st.fourth_central_moment == 0.0
        assert st.skewness == 0.0
        assert st.excess_kurtosis == 0.0

    def test_from_matrix(self):
        m = np.array([[1.0, -2.0], [3.0, 4.0]])
        st = strength_stats(m, "input")
        assert st.n == 2
        assert st.variance == 16.0

    @pytest.mark.parametrize(
        "method",
        [
            "kaiming-uniform",
            "kaiming-normal",
            "truncated-normal",
            "glorot-uniform",
            "glorot-normal",
            "orthogonal",
        ],
    )
    def test_clt_shape_large_layers(self, method):
        # at 4096 fan-in every initializer's strength distribution is
        # near-normal: small skew, small excess kurtosis
        w = init(InitSpec(method, 4096, 4096), derive_stream(23, 0, 0))
        st = strength_stats(w, "input")
        assert abs(st.skewness) < 0.2
        assert abs(st.excess_kurtosis) < 0.3


class TestPredictedVariance:
    def test_kaiming_normal_case(self):
        assert predicted_strength_variance(2.0 / 1024, 1024) == 2.0

    def test_zero(self):
        assert predicted_strength_variance(0.0, 123) == 0.0

    def test_uniform_variance_identity(self):
        bound_sq_third = (6.0 / 256) / 3.0
        assert abs(predicted_strength_variance(bound_sq_third, 256) - 2.0) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            predicted_strength_variance(-0.1, 4)

    def test_law_against_monte_carlo(self):
        # mean empirical strength variance over layers vs var(W) * n_l
        varis = []
        for rep in range(100):
            w = init(InitSpec("kaiming-normal", 256, 256), derive_stream(31, 0, rep))
            varis.append(strengths(w, "input").var())
        predicted = predicted_strength_variance(2.0 / 256, 256)
        assert abs(np.mean(varis) - predicted) / predicted < 0.10


class TestMaxStrengthSweep:
    def test_single_size(self):
        rows = max_strength_scaling("kaiming-uniform", [32], 5, derive_stream(1, 0, 0))
        assert len(rows) == 1
        assert rows[0].size == 32
        lines = sweep_rows_to_csv(rows).splitlines()
        assert lines[0] == "size,base_mean,base_std,rewired_mean,rewired_std"
        assert len(lines) == 2 and all(cell for cell in lines[1].split(","))

    def test_growth_and_suppression(self):
        rows = max_strength_scaling("kaiming-uniform", [64, 256], 20, derive_stream(2, 0, 0))
        assert rows[0].base_mean < rows[1].base_mean
        for r in rows:
            assert r.rewired_mean < r.base_mean

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            max_strength_scaling("kaiming-uniform", [], 3, derive_stream(0, 0, 0))

    @pytest.mark.parametrize("sizes", [[32.5], [True, 64]])
    def test_non_integer_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="integers"):
            max_strength_scaling("kaiming-uniform", sizes, 3, derive_stream(0, 0, 0))
