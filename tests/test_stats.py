import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import strength_init
from strength_init.stats import (
    compare,
    kruskal_wallis,
    median_abs_deviation,
    pearson,
    welch_t_test,
)


class TestWelch:
    def test_identical_samples(self):
        a = [1.0, 2.0, 3.0]
        t, p = welch_t_test(a, a)
        assert t == 0.0
        assert p == 1.0

    def test_against_reference(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [2.0, 3.0, 4.0, 5.0, 6.0]
        t, p = welch_t_test(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert abs(t - ref.statistic) < 1e-6
        assert abs(p - ref.pvalue) < 1e-6

    def test_separated_populations(self, rng):
        a = rng.normal(0.0, 1.0, 100)
        b = rng.normal(10.0, 1.0, 100)
        _, p = welch_t_test(a, b)
        assert p < 1e-10

    def test_symmetry(self, rng):
        a = rng.normal(size=20)
        b = rng.normal(loc=0.3, size=25)
        t_ab, p_ab = welch_t_test(a, b)
        t_ba, p_ba = welch_t_test(b, a)
        assert abs(t_ab + t_ba) < 1e-12
        assert abs(p_ab - p_ba) < 1e-12

    def test_zero_variance_distinct_means(self):
        t, p = welch_t_test([1.0, 1.0], [2.0, 2.0])
        assert p == 0.0
        assert t < 0

    def test_p_monotone_in_effect(self, rng):
        base = rng.normal(size=40)
        last_p = 1.1
        for delta in (0.0, 0.2, 0.5, 1.0, 2.0):
            _, p = welch_t_test(base, base + delta)
            assert p <= last_p + 1e-12
            last_p = p

    def test_too_small(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [2.0, 3.0])


class TestKruskalWallis:
    def test_identical_multisets(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        h, p = kruskal_wallis(a, list(reversed(a)))
        assert h < 1e-12
        assert p > 0.99

    def test_against_reference(self):
        a = [2.9, 3.0, 2.5, 2.6, 3.2, 2.8, 2.7, 3.1, 2.4, 2.95]
        b = [3.8, 2.7, 4.0, 2.4, 3.3, 3.5, 2.9, 3.1, 3.7, 3.9]
        h, p = kruskal_wallis(a, b)
        ref = scipy.stats.kruskal(a, b)
        assert abs(h - ref.statistic) < 1e-6
        assert abs(p - ref.pvalue) < 1e-6

    def test_with_heavy_ties(self):
        a = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0]
        b = [2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 4.0]
        h, p = kruskal_wallis(a, b)
        ref = scipy.stats.kruskal(a, b)
        assert abs(h - ref.statistic) < 1e-10
        assert abs(p - ref.pvalue) < 1e-10

    def test_all_tied(self):
        h, p = kruskal_wallis([5.0] * 6, [5.0] * 6)
        assert h == 0.0
        assert p == 1.0

    def test_disjoint_ranges(self, rng):
        a = rng.uniform(0.0, 1.0, 20)
        b = rng.uniform(5.0, 6.0, 20)
        _, p = kruskal_wallis(a, b)
        assert p < 1e-5


class TestPearson:
    def test_exact_linearity(self):
        x = np.linspace(0.0, 1.0, 30)
        r, p = pearson(x, 2.0 * x + 1.0)
        assert abs(r - 1.0) < 1e-12
        assert p < 1e-30

    def test_exact_anti_linearity(self):
        x = np.linspace(0.0, 1.0, 30)
        r, _ = pearson(x, -x)
        assert abs(r + 1.0) < 1e-12

    def test_against_reference(self, rng):
        x = rng.normal(size=100)
        y = 0.4 * x + rng.normal(size=100)
        r, p = pearson(x, y)
        ref = scipy.stats.pearsonr(x, y)
        assert abs(r - ref.statistic) < 1e-8
        assert abs(p - ref.pvalue) < 1e-8

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])


class TestMad:
    def test_constant(self):
        assert median_abs_deviation([1.0, 1.0, 1.0]) == 0.0

    def test_hand_computed(self):
        assert median_abs_deviation([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0

    def test_against_reference(self, rng):
        a = rng.normal(size=100)
        assert abs(median_abs_deviation(a) - scipy.stats.median_abs_deviation(a)) < 1e-12


class TestReferenceBattery:
    def test_fifty_random_datasets(self):
        # all four routines vs the established reference implementations
        gen = np.random.default_rng(777)
        for _ in range(50):
            n = int(gen.integers(8, 60))
            a = gen.normal(gen.uniform(-2, 2), gen.uniform(0.5, 3.0), n)
            b = gen.normal(gen.uniform(-2, 2), gen.uniform(0.5, 3.0), n + int(gen.integers(0, 5)))
            t, p = welch_t_test(a, b)
            ref_t = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert abs(t - ref_t.statistic) < 1e-6
            assert abs(p - ref_t.pvalue) < 1e-6
            h, hp = kruskal_wallis(a, b)
            ref_h = scipy.stats.kruskal(a, b)
            assert abs(h - ref_h.statistic) < 1e-6
            assert abs(hp - ref_h.pvalue) < 1e-6
            x = gen.normal(size=n)
            y = 0.3 * x + gen.normal(size=n)
            r, rp = pearson(x, y)
            ref_r = scipy.stats.pearsonr(x, y)
            assert abs(r - ref_r.statistic) < 1e-6
            assert abs(rp - ref_r.pvalue) < 1e-6
            assert abs(median_abs_deviation(a) - scipy.stats.median_abs_deviation(a)) < 1e-12

    def test_frozen_external_values(self):
        # spot values computed once with an independent arbitrary-precision
        # route (regularized incomplete beta / erfc), frozen here
        t, p = welch_t_test([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0, 5.0, 6.0])
        assert abs(t - (-1.0)) < 1e-12
        assert abs(p - 0.3465935070873341) < 1e-9
        h, hp = kruskal_wallis([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert abs(h - 3.857142857142857) < 1e-12
        assert abs(hp - 0.04953461343562674) < 1e-9


class TestNullCalibration:
    def test_rejection_rate_near_alpha(self):
        gen = np.random.default_rng(4242)
        n_sim = 500
        rej_t = rej_h = 0
        for _ in range(n_sim):
            a = gen.normal(size=30)
            b = gen.normal(size=30)
            if welch_t_test(a, b)[1] < 0.05:
                rej_t += 1
            if kruskal_wallis(a, b)[1] < 0.05:
                rej_h += 1
        assert 0.02 <= rej_t / n_sim <= 0.08
        assert 0.02 <= rej_h / n_sim <= 0.08


def _population(gen, mean, std, conv_mean, n=60):
    return [
        {
            "epoch1_train_acc": gen.normal(mean - 4.0, std),
            "epoch1_val_acc": gen.normal(mean - 5.0, std),
            "convergence_epoch": max(1.0, gen.normal(conv_mean, 2.0)),
            "test_acc": gen.normal(mean, std),
        }
        for _ in range(n)
    ]


class TestCompare:
    def test_identical_populations_indistinct(self):
        gen = np.random.default_rng(1)
        pop = _population(gen, 97.4, 0.12, 15.0)
        report = compare(pop, pop)
        for m in report.metrics:
            assert m.mean_verdict == "indistinct"
            assert m.median_verdict == "indistinct"

    def test_shifted_population_improves(self):
        gen = np.random.default_rng(2)
        base = _population(gen, 97.43, 0.12, 16.0)
        treat = _population(gen, 97.55, 0.13, 16.0)
        report = compare(base, treat)
        assert report.metric("test_acc").mean_verdict == "improved"

    def test_convergence_polarity_inverted(self):
        gen = np.random.default_rng(3)
        base = _population(gen, 97.4, 0.1, 20.0)
        treat = _population(gen, 97.4, 0.1, 12.0)
        report = compare(base, treat)
        assert report.metric("convergence_epoch").mean_verdict == "improved"

    def test_worsened_direction(self):
        gen = np.random.default_rng(4)
        base = _population(gen, 97.5, 0.1, 15.0)
        treat = _population(gen, 96.8, 0.1, 15.0)
        report = compare(base, treat)
        assert report.metric("test_acc").mean_verdict == "worsened"

    def test_scale_invariance_of_verdicts(self):
        gen = np.random.default_rng(5)
        base = _population(gen, 90.0, 0.5, 18.0)
        treat = _population(gen, 90.4, 0.5, 15.0)
        before = [
            (m.mean_verdict, m.median_verdict) for m in compare(base, treat).metrics
        ]

        def affine(pop):
            return [{k: 3.0 * v + 11.0 for k, v in run.items()} for run in pop]

        after = [
            (m.mean_verdict, m.median_verdict)
            for m in compare(affine(base), affine(treat)).metrics
        ]
        assert before == after

    def test_size_mismatch_warns(self):
        gen = np.random.default_rng(6)
        base = _population(gen, 97.0, 0.1, 15.0, n=20)
        treat = _population(gen, 97.0, 0.1, 15.0, n=18)
        with pytest.warns(UserWarning, match="population sizes differ"):
            compare(base, treat)

    @pytest.mark.parametrize("arm", ["baseline", "treatment"])
    def test_one_run_arm_refused_by_name(self, arm):
        gen = np.random.default_rng(8)
        pops = {"baseline": _population(gen, 97.0, 0.1, 15.0, n=3),
                "treatment": _population(gen, 97.3, 0.1, 13.0, n=3)}
        pops[arm] = pops[arm][:1]
        with pytest.raises(ValueError, match=f"^the {arm} arm needs at least 2 runs, got 1$"):
            compare(**pops)

    def test_report_renderings(self):
        gen = np.random.default_rng(7)
        base = _population(gen, 97.0, 0.1, 15.0, n=30)
        treat = _population(gen, 97.3, 0.1, 13.0, n=30)
        report = compare(base, treat)
        md = report.to_markdown()
        assert "| weights |" in md
        assert any(mark in md for mark in ("(+)", "(=)", "(−)"))
        js = report.to_json()
        assert '"alpha": 0.05' in js

    def test_scipy_loads_on_first_p_value(self):
        # a fresh interpreter: importing the package and its CLI loads no
        # scipy module; the first comparison loads it and gives the report
        # this process (scipy already loaded) gives
        probe = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import strength_init, strength_init.cli\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "base, treat = json.load(sys.stdin)\n"
            "report = strength_init.stats.compare(base, treat).to_json()\n"
            "print(json.dumps([loaded, 'scipy.special' in sys.modules, report]))\n"
        )
        gen = np.random.default_rng(9)
        base = _population(gen, 97.0, 0.1, 15.0, n=12)
        treat = _population(gen, 97.2, 0.1, 14.0, n=12)
        src = Path(strength_init.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", probe, str(src)],
            input=json.dumps([base, treat]),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        loaded, special_after, report = json.loads(done.stdout)
        assert loaded == []
        assert special_after
        assert report == compare(base, treat).to_json()
