from itertools import permutations

import numpy as np
import numpy.testing as npt
import pytest

from helpers import weighted_draw_order
from strength_init.initializers import InitSpec, init
from strength_init.matrix_io import NonFiniteError, conv_to_2d
from strength_init.rewiring import (
    PASS_MODES,
    RewireConfig,
    attachment_scores,
    fit_loglog_slope,
    pa_rewire,
    pa_rewire_conv,
    rewire_cost_probe,
    variance_search,
)
from strength_init.rng import derive_stream
from strength_init.strength import strengths


class TestAttachmentScores:
    def test_valid_distribution(self, rng):
        for _ in range(50):
            s = rng.normal(scale=rng.uniform(0.01, 100.0), size=rng.integers(2, 200))
            p = attachment_scores(s)
            assert np.all(p > 0.0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_order_preserving(self):
        s = np.array([-2.0, 0.5, 3.0])
        p = attachment_scores(s)
        assert p[0] < p[1] < p[2]

    def test_known_values(self):
        # strengths [1, 0, -1]: shift by |-1| + 1 -> [3, 2, 1] -> /6
        p = attachment_scores(np.array([1.0, 0.0, -1.0]))
        npt.assert_allclose(p, [3 / 6, 2 / 6, 1 / 6])

    def test_valid_at_every_iteration_of_a_pass(self, monkeypatch, rng):
        # spy on the scores a real bidirectional rewire computes
        from strength_init import rewiring as rw

        seen = []
        orig = rw.attachment_scores

        def spy(s):
            p = orig(s)
            seen.append(p.copy())
            return p

        monkeypatch.setattr(rw, "attachment_scores", spy)
        m = rng.normal(size=(30, 25))
        rw.pa_rewire(m, RewireConfig(rng=derive_stream(1, 0, 0)))
        assert len(seen) == (25 - 1) + (30 - 1)
        for p in seen:
            assert np.all(p > 0.0)
            assert abs(p.sum() - 1.0) < 1e-12


class TestWeightedDrawOrder:
    def test_is_permutation(self, rng):
        p = attachment_scores(rng.normal(size=100))
        order = weighted_draw_order(p, rng)
        npt.assert_array_equal(np.sort(order), np.arange(100))

    def test_first_draw_marginal(self):
        # empirical first-draw frequency matches p
        p = np.array([0.5, 0.3, 0.15, 0.05])
        gen = np.random.default_rng(99)
        n = 40000
        counts = np.zeros(4)
        for _ in range(n):
            counts[weighted_draw_order(p, gen)[0]] += 1
        freq = counts / n
        se = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) < 5 * se)

    def test_sequential_law_exact_enumeration(self):
        # the full draw-order distribution equals sequential sampling
        # without replacement with renormalization after each draw
        p = np.array([0.5, 0.3, 0.2])
        exact = {}
        for perm in permutations(range(3)):
            prob, rem = 1.0, p.copy()
            for i in perm:
                prob *= rem[i] / rem.sum()
                rem[i] = 0.0
            exact[perm] = prob
        gen = np.random.default_rng(7)
        n = 60000
        counts = {k: 0 for k in exact}
        for _ in range(n):
            counts[tuple(weighted_draw_order(p, gen))] += 1
        for perm, prob in exact.items():
            se = np.sqrt(prob * (1 - prob) / n)
            assert abs(counts[perm] / n - prob) < 5 * se, perm


class TestPaPass:
    def test_single_output_column_unchanged(self, stream, rng):
        m = rng.normal(size=(6, 1))
        out = pa_rewire(m, RewireConfig(rng=stream, passes="input-only"))
        npt.assert_array_equal(out, m)

    def test_single_input_row_unchanged(self, stream, rng):
        m = rng.normal(size=(1, 6))
        out = pa_rewire(m, RewireConfig(rng=stream, passes="input-only"))
        npt.assert_array_equal(out, m)

    def test_constant_column_unchanged(self, stream):
        m = np.array([[1.0, 5.0], [-2.0, 5.0], [0.5, 5.0]])
        out = pa_rewire(m, RewireConfig(rng=stream, passes="input-only"))
        npt.assert_array_equal(out[:, 1], m[:, 1])

    def test_first_column_never_modified(self, rng):
        m = rng.normal(size=(20, 30))
        out = pa_rewire(m, RewireConfig(rng=derive_stream(5, 0, 0), passes="input-only"))
        npt.assert_array_equal(out[:, 0], m[:, 0])

    def test_columns_are_permutations(self, rng):
        m = rng.normal(size=(25, 40))
        out = pa_rewire(m, RewireConfig(rng=derive_stream(6, 0, 0), passes="input-only"))
        for t in range(40):
            npt.assert_array_equal(np.sort(out[:, t]), np.sort(m[:, t]))

    def test_input_not_mutated(self, rng):
        m = rng.normal(size=(10, 10))
        copy = m.copy()
        pa_rewire(m, RewireConfig(rng=derive_stream(7, 0, 0), passes="input-only"))
        npt.assert_array_equal(m, copy)

    def test_deterministic(self, rng):
        m = rng.normal(size=(15, 15))
        a = pa_rewire(m, RewireConfig(rng=derive_stream(8, 1, 2), passes="input-only"))
        b = pa_rewire(m, RewireConfig(rng=derive_stream(8, 1, 2), passes="input-only"))
        npt.assert_array_equal(a, b)

    def test_non_finite_rejected(self, stream):
        with pytest.raises(NonFiniteError):
            pa_rewire(
                np.array([[1.0, np.nan], [0.0, 2.0]]),
                RewireConfig(rng=stream, passes="input-only"),
            )

    def test_three_by_two_draw_order_distribution(self):
        # hand-traceable case: strengths after the seed column are
        # [1, 0, -1] giving scores [1/2, 1/3, 1/6]; the draw order is
        # reconstructed from where the sorted column-2 weights landed and
        # compared to exhaustive enumeration of all 3! orders
        m = np.array([[1.0, -0.5], [0.0, 0.2], [-1.0, 0.9]])
        p = attachment_scores(m[:, 0])
        npt.assert_allclose(p, [1 / 2, 1 / 3, 1 / 6])
        exact = {}
        for perm in permutations(range(3)):
            prob, rem = 1.0, p.copy()
            for i in perm:
                prob *= rem[i] / rem.sum()
                rem[i] = 0.0
            exact[perm] = prob
        sorted_vals = np.sort(m[:, 1])  # [-0.5, 0.2, 0.9]
        n = 30000
        counts = {k: 0 for k in exact}
        for rep in range(n):
            out = pa_rewire(m, RewireConfig(rng=derive_stream(1234, 0, rep), passes="input-only"))
            order = tuple(int(np.flatnonzero(out[:, 1] == v)[0]) for v in sorted_vals)
            counts[order] += 1
        for perm, prob in exact.items():
            se = np.sqrt(prob * (1 - prob) / n)
            assert abs(counts[perm] / n - prob) < 5 * se, perm
        # the most positive-strength row draws first most often, so it
        # receives the most negative weight more often than any other row
        first_draw = {i: 0 for i in range(3)}
        for perm, c in counts.items():
            first_draw[perm[0]] += c
        assert first_draw[0] > first_draw[1] > first_draw[2]


class TestPaRewire:
    def test_multiset_preserved_bitwise(self, rng):
        for trial in range(20):
            rows = int(rng.integers(1, 40))
            cols = int(rng.integers(1, 40))
            m = rng.normal(size=(rows, cols))
            for passes in ("input-only", "bidirectional"):
                cfg = RewireConfig(rng=derive_stream(trial, 0, 0), passes=passes)
                out = pa_rewire(m, cfg)
                npt.assert_array_equal(np.sort(out, axis=None), np.sort(m, axis=None))

    def test_rewire_twice_still_permutation(self, rng):
        m = rng.normal(size=(12, 12))
        once = pa_rewire(m, RewireConfig(rng=derive_stream(1, 0, 0)))
        twice = pa_rewire(once, RewireConfig(rng=derive_stream(2, 0, 0)))
        npt.assert_array_equal(np.sort(twice, axis=None), np.sort(m, axis=None))

    def test_bidirectional_composition(self, rng):
        # bidirectional == input pass, same pass on the transpose, transpose back
        m = rng.normal(size=(9, 13))
        out = pa_rewire(m, RewireConfig(rng=derive_stream(3, 0, 0), passes="bidirectional"))
        stream = derive_stream(3, 0, 0)
        step1 = pa_rewire(m, RewireConfig(rng=stream, passes="input-only"))
        step2 = pa_rewire(step1.T, RewireConfig(rng=stream, passes="input-only")).T
        npt.assert_array_equal(out, step2)

    def test_strength_collapse_both_sides(self):
        in_ratios, out_ratios = [], []
        for rep in range(10):
            stream = derive_stream(100, 0, rep)
            m = init(InitSpec("kaiming-uniform", 256, 256), stream)
            r = pa_rewire(m, RewireConfig(rng=stream))
            in_ratios.append(strengths(r, "input").var() / strengths(m, "input").var())
            out_ratios.append(strengths(r, "output").var() / strengths(m, "output").var())
        assert np.mean(in_ratios) < 0.2
        assert np.mean(out_ratios) < 0.2

    @pytest.mark.parametrize("passes", ["input-only", "bidirectional"])
    def test_overflowing_scores_rejected(self, passes):
        # running strengths of +-1e308 overflow to inf and the scores to NaN
        m = np.where(np.random.default_rng(0).random((8, 8)) < 0.5, -1e308, 1e308)
        with pytest.raises(ValueError, match="overflow"):
            pa_rewire(m, RewireConfig(rng=derive_stream(0, 0, 0), passes=passes))
        with np.errstate(all="raise"):
            out = pa_rewire(m * 1e-8, RewireConfig(rng=derive_stream(0, 0, 0), passes=passes))
        npt.assert_array_equal(np.sort(out, axis=None), np.sort(m * 1e-8, axis=None))

    def test_invalid_passes(self, stream):
        with pytest.raises(ValueError):
            RewireConfig(rng=stream, passes="diagonal")


class TestPaRewireConv:
    def test_single_filter_input_only_unchanged(self, rng):
        t = rng.normal(size=(3, 3, 4, 1))
        cfg = RewireConfig(rng=derive_stream(4, 0, 0), passes="input-only")
        npt.assert_array_equal(pa_rewire_conv(t, cfg), t)

    def test_multiset_and_shape(self, rng):
        t = rng.normal(size=(3, 3, 16, 32))
        cfg = RewireConfig(rng=derive_stream(5, 0, 0))
        out = pa_rewire_conv(t, cfg)
        assert out.shape == t.shape
        npt.assert_array_equal(np.sort(out, axis=None), np.sort(t, axis=None))

    @pytest.mark.parametrize("passes", PASS_MODES)
    def test_caller_bank_untouched(self, rng, passes):
        # a C-contiguous float64 bank is rewired through views of itself
        t = rng.normal(size=(3, 3, 4, 8))
        before = t.copy()
        out = pa_rewire_conv(t, RewireConfig(rng=derive_stream(8, 0, 0), passes=passes))
        npt.assert_array_equal(t, before)
        assert not np.shares_memory(out, t)
        assert not np.array_equal(out, t)

    @pytest.mark.parametrize("passes", PASS_MODES)
    def test_bit_identical_to_2d_rewire(self, rng, passes):
        # a bank rewires exactly as its (w*h*z, o) WMAT form does on the same stream
        bank = rng.normal(size=(3, 3, 32, 64))

        def cfg():
            return RewireConfig(rng=derive_stream(9, 0, 0), passes=passes)

        a = conv_to_2d(pa_rewire_conv(bank, cfg()))
        b = pa_rewire(conv_to_2d(bank), cfg())
        assert a.shape == (288, 64)
        assert a.tobytes() == b.tobytes()

    def test_strength_variance_reduced(self, rng):
        t = rng.normal(scale=np.sqrt(2.0 / 144), size=(3, 3, 16, 32))
        cfg = RewireConfig(rng=derive_stream(6, 0, 0))
        out = pa_rewire_conv(t, cfg)
        base_var = strengths(conv_to_2d(t), "input").var()
        new_var = strengths(conv_to_2d(out), "input").var()
        assert new_var < base_var


class TestVarianceSearch:
    def test_single_candidate_is_identity(self):
        spec = InitSpec("kaiming-normal", 30, 20)
        cand = variance_search(spec, 1, "min", derive_stream(7, 0, 0))
        direct = init(spec, derive_stream(7, 0, 0))
        npt.assert_array_equal(cand, direct)

    def test_min_not_above_max(self):
        spec = InitSpec("kaiming-normal", 40, 25)
        lo = variance_search(spec, 50, "min", derive_stream(8, 0, 0))
        hi = variance_search(spec, 50, "max", derive_stream(8, 0, 0))
        assert strengths(lo, "input").var() <= strengths(hi, "input").var()

    def test_min_mode_beats_baseline_mean(self):
        spec = InitSpec("kaiming-normal", 100, 80)
        base, selected = [], []
        for rep in range(30):
            base.append(strengths(init(spec, derive_stream(9, 0, rep)), "input").var())
            selected.append(
                strengths(variance_search(spec, 10, "min", derive_stream(10, 0, rep)), "input").var()
            )
        assert np.mean(selected) < np.mean(base)

    def test_bad_arguments(self, stream):
        spec = InitSpec("kaiming-normal", 4, 4)
        with pytest.raises(ValueError):
            variance_search(spec, 0, "min", stream)
        with pytest.raises(ValueError):
            variance_search(spec, 3, "median", stream)


class TestCostProbe:
    def test_single_size(self):
        table = rewire_cost_probe([64], reps=1)
        assert len(table) == 1
        assert table[0][0] == 64
        assert table[0][1] > 0.0

    def test_times_grow_with_size(self):
        table = rewire_cost_probe([64, 256], reps=3)
        assert table[0][1] <= table[1][1]

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError):
            rewire_cost_probe([128, 64])
        with pytest.raises(ValueError, match="reps"):
            rewire_cost_probe([64], reps=0)

    @pytest.mark.parametrize("sizes", [[64.9, 128], [True, 128], [], ["64"]])
    def test_sizes_must_be_integers(self, sizes):
        # [64.9, 128] used to time n=64
        with pytest.raises(ValueError, match="sizes"):
            rewire_cost_probe(sizes)

    def test_slope_of_exact_quadratic(self):
        table = [(n, 1e-9 * n * n) for n in (64, 128, 256, 512)]
        assert abs(fit_loglog_slope(table) - 2.0) < 1e-9
