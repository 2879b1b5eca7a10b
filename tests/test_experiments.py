"""Tests for the comparison harness, expressibility and the t-test."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc, betaincinv

from gensel import selection
from gensel.experiments import (
    DatasetSpec,
    ExpressibilityConfig,
    _betainc_half,
    derive_seed,
    expressibility_hellinger,
    generate_dataset,
    haar_bin_probs,
    hellinger_distance,
    run_comparison,
    summarize,
    trace_columns,
    train_cells,
    trial_models,
    two_sample_t_test,
)
from gensel.optimizer import SpsaConfig, rmse_cost
from gensel.pauli import PauliString
from gensel.selection import (
    GeneticConfig,
    SelectionProblem,
    evaluate_selection,
    select_for_method,
    solve_exact,
    solve_genetic,
    solve_greedy,
)
from gensel.simulator import CircuitModel, state_overlaps

from conftest import pool_labels

P = PauliString.from_label


def _pool(observable, size=None, seed=None):
    """The reference pool of ``observable`` as strings (conftest)."""
    return [P(q) for q in pool_labels(observable.label, size, seed)]

SMALL_SPEC = DatasetSpec(n=3, depth=3, samples=16, teacher_seed=2)


class TestGenerateDataset:
    def test_labels_bounded(self):
        dataset, _ = generate_dataset(DatasetSpec(teacher_seed=1))
        ys = np.array([y for _, y in dataset])
        assert np.all(ys >= -1.0) and np.all(ys <= 1.0)

    def test_deterministic(self):
        a, _ = generate_dataset(DatasetSpec(teacher_seed=3))
        b, _ = generate_dataset(DatasetSpec(teacher_seed=3))
        assert a == b

    def test_teacher_self_consistency(self):
        dataset, teacher = generate_dataset(SMALL_SPEC)
        assert rmse_cost(teacher.model, teacher.theta, dataset) < 1e-12

    def test_sizes_and_ranges(self):
        spec = DatasetSpec(teacher_seed=0)
        dataset, teacher = generate_dataset(spec)
        assert len(dataset) == spec.samples
        assert teacher.model.depth == spec.depth
        xs = np.array([x for x, _ in dataset])
        assert np.all(xs >= spec.input_range[0]) and np.all(xs <= spec.input_range[1])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(samples=0)
        with pytest.raises(ValueError):
            DatasetSpec(theta_range=(1.0, -1.0))
        for bad in ((math.nan, 1.0), (0.0, math.nan), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="theta_range"):
                DatasetSpec(theta_range=bad)
            with pytest.raises(ValueError, match="input_range"):
                DatasetSpec(input_range=bad)


class TestHaarBinProbs:
    def test_d2_is_uniform(self):
        probs = haar_bin_probs(2, 10)
        assert np.allclose(probs, 0.1)

    def test_d32_first_bin_mass(self):
        probs = haar_bin_probs(32, 50)
        assert probs[0] == pytest.approx(1.0 - (1.0 - 0.02) ** 31)
        assert probs[0] == probs.max()

    def test_sums_to_one(self):
        for d, bins in ((2, 7), (8, 50), (32, 50)):
            assert haar_bin_probs(d, bins).sum() == pytest.approx(1.0, abs=1e-12)

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            haar_bin_probs(1, 10)


class TestHellingerDistance:
    def test_identical_distributions(self):
        p = np.array([0.25, 0.25, 0.5])
        assert hellinger_distance(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert hellinger_distance(p, q) == pytest.approx(1.0)

    def test_bounded(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(10))
            q = rng.dirichlet(np.ones(10))
            assert 0.0 <= hellinger_distance(p, q) <= 1.0


class TestExpressibility:
    def _model(self, seed=0):
        sel = select_for_method("exact", P("ZIIII"), 5, seed)
        return CircuitModel(5, sel.chosen, P("ZIIII"))

    def test_bounded_and_deterministic(self):
        model = self._model()
        cfg = ExpressibilityConfig(fidelity_samples=200, bins=20, seed=7)
        a = expressibility_hellinger(model, cfg)
        b = expressibility_hellinger(model, cfg)
        assert a == b
        assert 0.0 <= a <= 1.0

    def test_haar_samples_have_small_self_distance(self):
        """Sampling the Haar law itself stays under the finite-sample floor."""
        d, samples, bins = 32, 500, 50
        rng = np.random.default_rng(17)
        u = rng.uniform(size=samples)
        fidelities = 1.0 - (1.0 - u) ** (1.0 / (d - 1))
        counts, _ = np.histogram(fidelities, bins=bins, range=(0.0, 1.0))
        h = hellinger_distance(counts / samples, haar_bin_probs(d, bins))
        assert h < 0.15

    def test_fidelities_past_one_land_in_the_last_bin(self):
        """Z-only gates leave |0..0> fixed: every fidelity is 1 up to rounding,
        some of it above 1, and all of it counts in the last bin."""
        model = CircuitModel(2, (P("ZI"), P("IZ"), P("ZZ")), P("ZI"))
        cfg = ExpressibilityConfig(seed=3)
        rng = np.random.default_rng(cfg.seed)
        thetas = rng.uniform(*cfg.param_range, size=(2 * cfg.fidelity_samples, 3))
        s = cfg.fidelity_samples
        fidelities = np.abs(state_overlaps(model, thetas[:s], thetas[s:])) ** 2
        assert np.any(fidelities > 1.0)
        q = haar_bin_probs(4, cfg.bins)
        assert expressibility_hellinger(model, cfg) == math.sqrt(1.0 - math.sqrt(q[-1]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExpressibilityConfig(bins=1)
        with pytest.raises(ValueError):
            ExpressibilityConfig(fidelity_samples=10, bins=50)
        for bad in ((1.0, -1.0), (0.0, 0.0), (math.nan, 1.0), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="param_range"):
                ExpressibilityConfig(param_range=bad)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "exact", 0) == derive_seed(1, "exact", 0)
        seeds = {
            derive_seed(ms, m, t)
            for ms in (0, 1)
            for m in ("exact", "random")
            for t in range(5)
        }
        assert len(seeds) == 20

    def test_non_negative(self):
        assert derive_seed(123, "grad_only", 19) >= 0


class TestRunTrial:
    def test_record_carries_method_and_generators(self):
        dataset, _ = generate_dataset(SMALL_SPEC)
        (record,) = train_cells(
            [("grad_only", 0)], 5, dataset, SMALL_SPEC, SpsaConfig(epochs=3)
        )
        assert record.method == "grad_only"
        assert len(record.chosen) == SMALL_SPEC.depth
        metrics = evaluate_selection(record.chosen, SMALL_SPEC.observable)
        assert metrics.n_commute_obs == 0


class TestTrialModel:
    def test_run_trial_trains_the_trial_model(self):
        dataset, _ = generate_dataset(SMALL_SPEC)
        seed, model = trial_models([("exact", 1)], 5, SMALL_SPEC)[0]
        assert seed == derive_seed(5, "exact", 1)
        config = SpsaConfig(epochs=2)
        (record,) = train_cells([("exact", 1)], 5, dataset, SMALL_SPEC, config)
        assert record.seed == seed
        assert record.chosen == tuple(model.generators)


SMALL_GENETIC = GeneticConfig(population=16, generations=15)


def _per_trial_selection(method, observable, budget, seed, subsample):
    """The reference: a fresh pool in the seed's order, with its own table."""
    pool = _pool(observable, subsample, seed)
    order = np.random.default_rng(seed).permutation(len(pool))
    problem = SelectionProblem(observable, [pool[i] for i in order], budget)
    if method == "exact":
        return solve_exact(problem)
    if method == "greedy":
        return solve_greedy(problem)
    return solve_genetic(problem, SMALL_GENETIC, seed)


class TestRunScopedPool:
    """Selections that read one run-wide pool and table in each trial's order
    equal those that rebuild the pool and table per trial."""

    CASES = [  # (observable, budget, pool subsample)
        ("ZII", 2, None),
        ("ZII", 4, None),
        ("ZII", 6, None),
        ("XZIY", 3, None),
        ("XZIY", 8, None),
        ("ZIIII", 5, None),
        ("ZIIII", 10, None),
        ("ZIIII", 5, 64),
        # Past L = 2n no L-clique exists: the exact solver's branch-and-bound.
        ("ZI", 5, 6),
        ("ZII", 7, 14),
        ("ZII", 8, 16),
        ("XZIY", 9, 12),
    ]

    @staticmethod
    def _check(method, label, budget, subsample, seeds):
        o = P(label)
        problem = SelectionProblem(o, _pool(o), budget)
        for seed in seeds:
            want = _per_trial_selection(method, o, budget, seed, subsample)
            for given in (problem, None):
                got = select_for_method(
                    method, o, budget, seed, SMALL_GENETIC, subsample, given
                )
                assert got == want, (method, label, budget, subsample, seed)

    @pytest.mark.parametrize("method", ["exact", "greedy", "genetic"])
    @pytest.mark.parametrize("label, budget, subsample", CASES)
    def test_matches_per_trial_pool(self, method, label, budget, subsample):
        self._check(method, label, budget, subsample, seeds=(0, 1, 2**63 + 5))

    @pytest.mark.parametrize("method", ["exact", "greedy", "genetic"])
    def test_matches_per_trial_pool_on_readme_seeds(self, method):
        seeds = [derive_seed(42, method, t) for t in range(20)]
        self._check(method, "ZIIII", 5, None, seeds)

    def test_budget_past_the_subsample_rejected(self):
        o = P("ZII")
        problem = SelectionProblem(o, _pool(o), 6)
        with pytest.raises(ValueError, match="budget 6 infeasible for pool of 5"):
            select_for_method("exact", o, 6, 0, pool_subsample=5, problem=problem)

    def test_problem_for_another_budget_rejected(self):
        o = P("ZII")
        problem = SelectionProblem(o, _pool(o), 4)
        with pytest.raises(ValueError, match="another observable or budget"):
            select_for_method("exact", o, 3, 0, problem=problem)

    def test_one_table_per_run(self, monkeypatch):
        """One pool's masks serve every trial of the run, and each trial
        builds strings for its picks only."""
        pools, built = [], []

        def counted_pool(observable):
            pools.append(observable)
            return _pool_masks(observable)

        def counted_strings(problem, indices):
            built.append(len(indices))
            return strings(problem, indices)

        _pool_masks, strings = selection._pool_masks, SelectionProblem.strings
        monkeypatch.setattr(selection, "_pool_masks", counted_pool)
        monkeypatch.setattr(SelectionProblem, "strings", counted_strings)
        dataset, _ = generate_dataset(SMALL_SPEC)
        cells = [(m, t) for m in ("exact", "greedy") for t in range(20)]
        records = train_cells(cells, 7, dataset, SMALL_SPEC, SpsaConfig(epochs=1))
        assert pools == [SMALL_SPEC.observable]
        assert built == [SMALL_SPEC.depth] * len(cells)
        assert [r.chosen for r in records] == [
            tuple(trial_models([(m, t)], 7, SMALL_SPEC)[0][1].generators)
            for m, t in cells
        ]

    def test_grad_only_draws_from_the_shared_problem(self):
        """grad_only on a run's problem picks what it picks on its own pool."""
        for label in ("Z", "XY", "ZIX", "IYZI", "ZIIII"):
            o = P(label)
            n = len(label)
            for budget in {1, n, min(2 * n + 1, 4**n // 2)}:
                shared = SelectionProblem(o, None, budget)
                for seed in (0, 1, 7, 2**63 + 5):
                    got = select_for_method("grad_only", o, budget, seed, problem=shared)
                    assert got == select_for_method("grad_only", o, budget, seed)

    def test_one_pool_for_grad_only_cells(self, monkeypatch):
        """The grad_only cells of a run share one problem: one pool's masks,
        and each cell picks what it picks on its own pool."""
        o, depth = SMALL_SPEC.observable, SMALL_SPEC.depth
        cells = [("grad_only", t) for t in range(10)]
        alone = [
            select_for_method("grad_only", o, depth, derive_seed(4, m, t)).chosen
            for m, t in cells
        ]
        pools = []

        def counted_pool(observable):
            pools.append(observable)
            return _pool_masks(observable)

        _pool_masks = selection._pool_masks
        monkeypatch.setattr(selection, "_pool_masks", counted_pool)
        picked = trial_models(cells, 4, SMALL_SPEC)
        assert pools == [o]
        assert [tuple(model.generators) for _, model in picked] == alone

    def test_no_pool_for_baselines_only(self, monkeypatch):
        built = []
        monkeypatch.setattr(selection, "_pool_masks", lambda *a: built.append(a))
        picked = trial_models([("random", 0), ("pair_only", 1)], 3, SMALL_SPEC)
        assert len(picked) == 2 and built == []

    def test_exact_trial_makes_no_table_copy(self):
        o = P("ZIIII")
        problem = SelectionProblem(o, _pool(o), 5)  # a 512-string pool
        select_for_method("exact", o, 5, 0, problem=problem)
        tracemalloc.start()
        try:
            for seed in range(1, 6):
                select_for_method("exact", o, 5, seed, problem=problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512**2 // 8  # an eighth of the pool's uint8 table


class TestSummarize:
    @staticmethod
    def _rows(method, trial, rmse):
        return [(method, trial, e, r, r / rmse[0]) for e, r in enumerate(rmse)]

    def test_methods_in_canonical_order_then_sorted(self):
        traces = []
        for method in ("zeta", "random", "alpha", "exact"):
            traces += self._rows(method, 0, [2.0, 1.0])
        metrics = [("random", "hellinger", 0.5), ("exact", "hellinger", 0.1)]
        report = summarize(list(zip(*traces)), metrics)
        assert list(report.summaries) == ["exact", "random", "alpha", "zeta"]
        assert list(report.metrics) == ["exact", "random"]

    def test_rows_in_any_order(self):
        traces = self._rows("exact", 1, [4.0, 2.0, 1.0])
        traces += self._rows("exact", 0, [2.0, 1.0, 1.0])
        report = summarize(list(zip(*traces[::-1])), [])
        summary = report.summaries["exact"]
        assert summary.final_rmse.tolist() == [1.0, 1.0]
        assert summary.normalized.tolist() == [[1.0, 0.5, 0.5], [1.0, 0.5, 0.25]]
        assert summary.trace_mean.tolist() == [1.0, 0.5, 0.375]

    def test_table_rows(self):
        traces = self._rows("exact", 0, [2.0, 1.0]) + self._rows("exact", 1, [4.0, 1.0])
        metrics = [("exact", "n_commute_obs", 0.0), ("exact", "n_commute_obs", 2.0)]
        rows = summarize(list(zip(*traces)), metrics).table_rows()
        assert rows == [
            ("exact", "final_rmse", 1.0, 0.0),
            ("exact", "final_rmse_normalized", 0.375, pytest.approx(0.125 * 2**0.5)),
            ("exact", "n_commute_obs", 1.0, pytest.approx(np.sqrt(2.0))),
        ]

    def test_inconsistent_epochs_rejected(self):
        traces = self._rows("exact", 0, [2.0, 1.0]) + self._rows("exact", 1, [2.0])
        with pytest.raises(ValueError, match="inconsistent numbers of epochs"):
            summarize(list(zip(*traces)), [])

    def test_duplicate_row_rejected(self):
        """Two runs' rows pasted together would silently keep only one run."""
        run = self._rows("exact", 0, [2.0, 1.0]) + self._rows("exact", 1, [4.0, 1.0])
        traces = run + self._rows("random", 0, [2.0, 1.5])
        traces += self._rows("exact", 1, [3.0, 1.0])
        with pytest.raises(
            ValueError, match=r"^duplicate trace row: method exact, trial 1, epoch 0$"
        ):
            summarize(list(zip(*traces[::-1])), [])

    def test_t_test_needs_two_trials_of_exact_and_random(self):
        one = self._rows("exact", 0, [2.0, 1.0]) + self._rows("random", 0, [2.0, 1.5])
        assert summarize(list(zip(*one)), []).t_statistic is None
        two = one + self._rows("exact", 1, [2.0, 0.5])
        two += self._rows("random", 1, [2.0, 1.0])
        report = summarize(list(zip(*two)), [])
        t, p = two_sample_t_test([1.0, 0.5], [1.5, 1.0])
        assert (report.t_statistic, report.p_value) == (t, p)

    def test_trace_rows_round_trip(self):
        dataset, _ = generate_dataset(SMALL_SPEC)
        config = SpsaConfig(epochs=3)
        (record,) = train_cells([("exact", 0)], 1, dataset, SMALL_SPEC, config)
        summary = summarize(trace_columns([record], [0]), []).summaries["exact"]
        assert summary.final_rmse.tolist() == [record.rmse_trace[-1]]
        assert summary.normalized.tolist() == [record.normalized_trace.tolist()]


class TestRunComparison:
    def test_minimal_run_has_no_t_test(self):
        report = run_comparison(
            ["exact"], 1, SMALL_SPEC, SpsaConfig(epochs=0), master_seed=1
        )
        summary = report.summaries["exact"]
        assert summary.trace_mean.tolist() == [1.0]
        assert report.t_statistic is None and report.p_value is None

    def test_bit_reproducible(self):
        kwargs = dict(
            methods=["exact", "random"],
            trials=2,
            spec=SMALL_SPEC,
            spsa_config=SpsaConfig(epochs=3),
            master_seed=9,
        )
        a = run_comparison(**kwargs)
        b = run_comparison(**kwargs)
        for method in a.summaries:
            sa, sb = a.summaries[method], b.summaries[method]
            assert np.array_equal(sa.final_rmse, sb.final_rmse)
            assert np.array_equal(sa.normalized, sb.normalized)
        assert a.p_value == b.p_value

    def test_metrics_recomputable_from_trial_models(self):
        report = run_comparison(
            ["random"], 3, SMALL_SPEC, SpsaConfig(epochs=2), master_seed=4
        )
        recomputed = [
            evaluate_selection(
                trial_models([("random", t)], 4, SMALL_SPEC)[0][1].generators,
                SMALL_SPEC.observable,
            ).n_commute_obs
            for t in range(3)
        ]
        assert report.metrics["random"]["n_commute_obs"].tolist() == recomputed

    def test_normalized_traces_start_at_one(self):
        report = run_comparison(
            ["exact", "grad_only"], 2, SMALL_SPEC, SpsaConfig(epochs=2), master_seed=3
        )
        for summary in report.summaries.values():
            assert summary.normalized[:, 0].tolist() == [1.0, 1.0]


class TestStudentT:
    def test_identical_samples(self):
        t, p = two_sample_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0 and p == 1.0

    def test_zero_variance_unequal_means(self):
        result = two_sample_t_test([0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0])
        assert result.pvalue == 0.0

    def test_zero_variance_equal_means(self):
        assert two_sample_t_test([2.0, 2.0], [2.0, 2.0]).pvalue == 1.0

    def test_against_scipy_oracle(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [3.0, 4.0, 5.0, 6.0, 7.0]
        t, p = two_sample_t_test(a, b)
        ref = stats.ttest_ind(a, b, equal_var=True)
        assert t == pytest.approx(ref.statistic, abs=1e-10)
        assert p == pytest.approx(ref.pvalue, abs=1e-6)

    def test_against_scipy_oracle_random(self, rng):
        for _ in range(20):
            a = rng.standard_normal(int(rng.integers(2, 30)))
            b = 0.3 + rng.standard_normal(int(rng.integers(2, 30)))
            t, p = two_sample_t_test(a, b)
            ref = stats.ttest_ind(a, b, equal_var=True)
            assert t == pytest.approx(ref.statistic, rel=1e-10)
            assert p == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)

    def test_sample_size_validated(self):
        with pytest.raises(ValueError, match="at least 2"):
            two_sample_t_test([1.0], [1.0, 2.0]).pvalue

    @pytest.mark.parametrize("nu", [2, 3, 7, 30, 201, 1000, 4999, 10**4])
    def test_incomplete_beta_against_scipy(self, nu):
        """I_x(nu/2, 1/2) at the x where SciPy's value is p, for p from near
        1 down to 1e-300: both sides of the continued fraction's switch."""
        a = nu / 2.0
        for p in [0.999, 0.9, 0.5, 0.05, *10.0 ** -np.arange(10, 301, 10)]:
            x = float(betaincinv(a, 0.5, p))
            assert 0.0 < x < 1.0
            assert _betainc_half(a, x) == pytest.approx(betainc(a, 0.5, x), rel=1e-8)
        assert _betainc_half(a, x) < 1e-295

    def test_t_zero_gives_p_one(self):
        assert two_sample_t_test([0.0, 2.0, 1.0], [2.0, 0.0, 1.0]) == (0.0, 1.0)
        assert _betainc_half(1.0, 1.0) == 1.0

    def test_huge_t_gives_zero_or_subnormal_p(self):
        for a, b in (([0.0, 1e-150], [1e150, 1e150]), ([1.0, 1.0 + 1e-15], [1e300, 1e300])):
            t, p = two_sample_t_test(a, b)
            assert t < -1e150 and p == 0.0
        for x in (1e-300, 1e-310, 5e-324, 0.0):
            p = _betainc_half(1.0, x)
            assert 0.0 <= p < 1e-299 and not math.isnan(p)

    def test_two_samples_of_two(self):
        """At nu = 2 the two-sided p is 1 - |t| / sqrt(t^2 + 2)."""
        for a, b in (([0.0, 1.0], [2.0, 4.0]), ([5.0, -3.0], [0.5, 0.25])):
            t, p = two_sample_t_test(a, b)
            assert p == pytest.approx(1 - abs(t) / math.sqrt(t * t + 2), rel=1e-12)
            assert p == pytest.approx(stats.ttest_ind(a, b).pvalue, rel=1e-10)

    def test_unconverged_fraction_raises(self):
        """A fraction that never settles raises rather than returning."""
        with pytest.raises(RuntimeError, match="did not converge"):
            _betainc_half(math.nan, 0.5)
