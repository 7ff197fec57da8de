import numpy as np
import numpy.testing as npt
import pytest

from helpers import predicted_strength_variance

from strength_init.initializers import InitSpec, init
from strength_init.rewiring import max_strength_scaling, sweep_rows_to_csv
from strength_init.rng import derive_stream
from strength_init.strength import StrengthStats, strength_stats, strengths


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

    @pytest.mark.parametrize("side", ["input", "output"])
    @pytest.mark.parametrize(
        "bad, count",
        [([np.nan], 1), ([np.inf], 1), ([-np.inf], 1), ([np.inf, -np.inf], 2), ([np.nan, np.inf], 2)],
    )
    def test_non_finite_entries_rejected(self, side, bad, count):
        m = np.ones((4, 3))
        m.flat[[1, 6][: len(bad)]] = bad
        with pytest.raises(ValueError, match=f"matrix has {count} non-finite entries"):
            strengths(m, side)

    def test_non_finite_matrix_rejected_before_a_bad_side(self):
        with pytest.raises(ValueError, match="non-finite"):
            strengths(np.array([[np.nan]]), "both")
        with pytest.raises(ValueError, match="side must be one of"):
            strengths(np.eye(2), "both")

    def test_finite_entries_whose_sum_overflows_are_accepted(self):
        with np.errstate(over="ignore"):
            s = strengths(np.full((2, 2), 1e308), "input")
        assert np.isposinf(s).all()


class TestStats:
    def test_two_point_moments(self):
        st = strength_stats(np.array([[-1.0], [7.0]]), "input")
        assert st.mean == 3.0
        assert st.variance == 16.0
        assert st.fourth_central_moment == 256.0
        assert st.max_abs == 7.0

    def test_constant_vector(self):
        st = strength_stats(np.full((1, 10), 4.2), "output")
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
        "m, side",
        [
            (np.full((6, 4), 0.1), "input"),
            (np.full((3, 5), -0.0), "output"),
            (np.array([[-0.5, 1.25, -3.0, 2.0]]), "input"),
            (np.random.default_rng(8).normal(size=(64, 64)), "input"),
            (np.random.default_rng(8).normal(size=(64, 64)), "output"),
        ],
        ids=["constant", "constant-negative-zero", "one-element", "mixed-64x64-input", "mixed-64x64-output"],
    )
    def test_equals_the_mean_and_abs_formulas_exactly(self, m, side):
        # each moment is a sum over n, as np.mean computes it, and max_abs is
        # the largest |strength|: the bits match these formulas, signed zeros too
        v = strengths(m, side)
        mu = float(np.mean(v))
        d = np.zeros_like(v) if v.max() == v.min() else v - mu
        d2 = d * d
        d3 = d2 * d
        m2, m3, m4 = float(np.mean(d2)), float(np.mean(d3)), float(np.mean(d3 * d))
        want = StrengthStats(
            n=v.size,
            mean=mu,
            variance=m2,
            fourth_central_moment=m4,
            max_abs=float(np.abs(v).max()),
            skewness=m3 / m2**1.5 if m2 > 0.0 else 0.0,
            excess_kurtosis=m4 / (m2 * m2) - 3.0 if m2 > 0.0 else 0.0,
        )
        got = strength_stats(m, side)
        assert got == want
        assert repr(got) == repr(want)  # == alone takes -0.0 for 0.0

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

    @pytest.mark.parametrize("sizes", [[32.5], [True, 64], 64])
    def test_non_integer_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="integers"):
            max_strength_scaling("kaiming-uniform", sizes, 3, derive_stream(0, 0, 0))

    def test_non_integer_trials_rejected(self):
        # 2.5 used to reach numpy and raise its TypeError
        with pytest.raises(ValueError, match="trials"):
            max_strength_scaling("kaiming-uniform", [32], 2.5, derive_stream(0, 0, 0))
