"""Tests for the RMSE cost and SPSA-with-momentum training loop."""

import functools
from dataclasses import replace

import numpy as np
import pytest

import gensel.optimizer as optimizer
from gensel.experiments import derive_seed, select_for_method
from gensel.optimizer import (
    SpsaConfig,
    TrialRecord,
    rmse_cost,
    train,
    train_batch,
)
from gensel.pauli import PauliString
from gensel.simulator import CircuitModel, compile_circuit, run_model, run_model_batch

from conftest import random_label

P = PauliString.from_label


def _toy_model():
    return CircuitModel(1, (P("X"),), P("Z"))


class TestSpsaConfig:
    def test_defaults(self):
        cfg = SpsaConfig()
        assert cfg.learning_rate == 0.001
        assert cfg.momentum == 0.5
        assert cfg.perturbation == 0.01
        assert cfg.epochs == 200
        assert cfg.init_range == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            SpsaConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            SpsaConfig(momentum=1.0)
        with pytest.raises(ValueError):
            SpsaConfig(perturbation=0.0)
        with pytest.raises(ValueError):
            SpsaConfig(epochs=-1)
        SpsaConfig(learning_rate=0.0)  # degenerate but allowed

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_stream_domain_is_one_line(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)") as err:
            SpsaConfig(seed=seed)
        assert "\n" not in str(err.value)
        SpsaConfig(seed=2**64 - 1)


def test_directions_match_default_rng():
    """The direction kernel is NumPy's (seed, step) stream, bit for bit,
    across one- and two-word seeds and steps and odd and even widths."""
    extra = np.random.default_rng(2024).integers(0, 2**64, size=200, dtype=np.uint64)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [int(s) for s in extra]
    steps = list(range(1, 8)) + [70_000, 0, 2**32 - 1, 2**32, 2**64 - 1]
    for width in (1, 2, 5, 8, 11, 24, 40):
        got = optimizer._directions(seeds, steps, width)
        assert got.shape == (len(steps), len(seeds), width)
        for s, step in enumerate(steps):
            for t, seed in enumerate(seeds):
                rng = np.random.default_rng([seed, step])
                expected = rng.integers(0, 2, size=width) * 2 - 1
                assert np.array_equal(got[s, t], expected), (seed, step, width)


class TestRmseCost:
    def test_self_consistency_is_zero(self):
        model = _toy_model()
        theta = [0.37]
        dataset = [(x, run_model(model, theta, x)) for x in (0.0, 0.5, 1.2, 3.0)]
        assert rmse_cost(model, theta, dataset) < 1e-12

    def test_constant_zero_predictions_against_unit_labels(self):
        # encoding angle 0 plus a quarter rotation puts <Z> at exactly 0
        model = _toy_model()
        dataset = [(0.0, 1.0)] * 4
        assert rmse_cost(model, [np.pi / 4], dataset) == pytest.approx(1.0)

    def test_three_sample_hand_arithmetic(self):
        model = _toy_model()
        theta = [0.21]
        xs = (0.3, 1.1, 2.5)
        ys = (0.9, -0.2, 0.4)
        preds = [run_model(model, theta, x) for x in xs]
        expected = np.sqrt(sum((p - y) ** 2 for p, y in zip(preds, ys)) / 3.0)
        assert rmse_cost(model, theta, list(zip(xs, ys))) == pytest.approx(expected)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            rmse_cost(_toy_model(), [0.1], [])


def _quadratic_costs(rows):
    """Costs of theta -> theta . theta for _spsa_update: (2, T, W) -> (2, T)."""
    return (rows**2).sum(axis=-1)


class TestSpsaStep:
    """The update rule train_batch applies, ``_spsa_update``, on directions
    from ``_directions``; each row of theta is one trial."""

    def test_zero_learning_rate_freezes_theta_but_not_momentum(self):
        cfg = SpsaConfig(learning_rate=0.0, momentum=0.5, perturbation=0.1)
        theta = np.array([[0.3, -0.4]])
        delta = optimizer._directions([cfg.seed], [1], 2)[0]
        new_theta, new_momentum = optimizer._spsa_update(
            theta, np.zeros((1, 2)), _quadratic_costs, delta, cfg
        )
        assert np.array_equal(new_theta, theta)
        assert np.any(new_momentum != 0.0)

    def test_exact_gradient_for_one_parameter_linear_cost(self):
        """With L = 1 the estimate recovers the slope exactly at every step."""
        v = 1.7
        cfg = SpsaConfig(learning_rate=0.25, momentum=0.0, perturbation=0.05, seed=3)
        for k in range(1, 21):
            delta = optimizer._directions([cfg.seed], [k], 1)[0]
            new_theta, momentum = optimizer._spsa_update(
                np.zeros((1, 1)), np.zeros((1, 1)), lambda r: v * r[..., 0], delta, cfg
            )
            recovered = float(momentum[0, 0])  # beta = 0, so momentum == estimate
            assert recovered == pytest.approx(v, abs=1e-12)
            assert new_theta[0, 0] == pytest.approx(-cfg.learning_rate * v)

    def test_unbiased_on_linear_cost(self):
        """Mean of estimates over many direction draws recovers the slope."""
        v = np.array([0.8, -1.3, 0.4])
        cfg = SpsaConfig(learning_rate=1.0, momentum=0.0, perturbation=0.02, seed=11)
        # Steps 1..2000 of one seed, as 2000 rows of one update.
        delta = optimizer._directions([cfg.seed], range(1, 2001), 3)[:, 0]
        _, momentum = optimizer._spsa_update(
            np.zeros((2000, 3)), np.zeros((2000, 3)), lambda r: r @ v, delta, cfg
        )
        assert np.allclose(momentum.mean(axis=0), v, atol=0.08)

    def test_two_cost_evaluations_per_step(self):
        """One call of ``costs`` per step, with two rows per trial:
        theta + c Delta and theta - c Delta."""
        calls = []

        def costs(rows):
            calls.append(rows.copy())
            return _quadratic_costs(rows)

        cfg = SpsaConfig()
        theta = np.zeros((3, 4))
        delta = optimizer._directions([0, 1, 2], [5], 4)[0]
        optimizer._spsa_update(theta, np.zeros((3, 4)), costs, delta, cfg)
        assert len(calls) == 1
        shift = cfg.perturbation * delta
        assert np.array_equal(calls[0], np.array([theta + shift, theta - shift]))

    def test_momentum_geometric_accumulation(self):
        """Constant estimate g0 drives momentum toward g0 / (1 - beta) = 2 g0."""
        v = 0.9
        cfg = SpsaConfig(learning_rate=0.0, momentum=0.5, perturbation=0.05, seed=2)
        deltas = optimizer._directions([cfg.seed], range(1, 30), 1)
        momentum = np.zeros((1, 1))
        values = []
        for delta in deltas:
            _, momentum = optimizer._spsa_update(
                np.zeros((1, 1)), momentum, lambda r: v * r[..., 0], delta, cfg
            )
            values.append(float(momentum[0, 0]))
        # L = 1 makes every estimate exactly v, so the limit is exactly 2v
        assert values[-1] == pytest.approx(2 * v, rel=1e-6)
        gaps = [abs(val - 2 * v) for val in values]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_quadratic_descent(self):
        """SPSA shrinks ||theta|| on a quadratic bowl for each of 10 seeds."""
        cfg = SpsaConfig(learning_rate=0.1, momentum=0.0, perturbation=0.01)
        deltas = optimizer._directions(range(10), range(1, 101), 2)
        theta = np.ones((10, 2))
        momentum = np.zeros((10, 2))
        for delta in deltas:
            theta, momentum = optimizer._spsa_update(
                theta, momentum, _quadratic_costs, delta, cfg
            )
        assert np.all(np.linalg.norm(theta, axis=1) < 0.5)


class TestTrain:
    def _dataset(self, rng, model, theta, m=12):
        xs = rng.uniform(0, 2 * np.pi, size=m)
        return [(float(x), run_model(model, theta, float(x))) for x in xs]

    def test_zero_epochs(self, rng):
        model = _toy_model()
        dataset = self._dataset(rng, model, [1.0])
        record = train(model, dataset, SpsaConfig(epochs=0, seed=4))
        assert record.rmse_trace.shape == (1,)
        assert record.normalized_trace.tolist() == [1.0]

    def test_deterministic(self, rng):
        model = _toy_model()
        dataset = self._dataset(rng, model, [1.0])
        cfg = SpsaConfig(epochs=25, seed=8)
        a = train(model, dataset, cfg)
        b = train(model, dataset, cfg)
        assert np.array_equal(a.rmse_trace, b.rmse_trace)

    def test_trace_shape_and_normalization(self, rng):
        model = _toy_model()
        dataset = self._dataset(rng, model, [1.0])
        record = train(model, dataset, SpsaConfig(epochs=30, seed=1), method="exact")
        assert record.method == "exact"
        assert record.rmse_trace.shape == (31,)
        assert record.normalized_trace[0] == 1.0
        assert np.all(record.rmse_trace >= 0)

    def test_cost_evaluation_budget(self, rng, monkeypatch):
        """One compile per trial and 3*epochs + 1 full-dataset evaluations per
        trial: 2 per step + 1 per trace point, for one trial and for a batch."""
        counter = {"compiled": 0, "n": 0}
        real_compile = optimizer.compile_circuit
        real_stack = optimizer.stack_circuits

        def counting_compile(model, xs):
            counter["compiled"] += 1
            return real_compile(model, xs)

        def counting_stack(circuits):
            evaluate = real_stack(circuits)

            def counting(thetas):
                counter["n"] += len(thetas)  # each row evaluates every trial
                return evaluate(thetas)

            return counting

        monkeypatch.setattr(optimizer, "compile_circuit", counting_compile)
        monkeypatch.setattr(optimizer, "stack_circuits", counting_stack)
        model = _toy_model()
        dataset = self._dataset(rng, model, [1.0])
        train(model, dataset, SpsaConfig(epochs=17, seed=0))
        assert counter["compiled"] == 1
        assert counter["n"] == 3 * 17 + 1

        counter.update(compiled=0, n=0)
        other = CircuitModel(1, (P("Y"), P("X")), P("Z"))
        trials = [(model, 0), (other, 1), (model, 2)]
        traces = optimizer.train_batch(trials, dataset, SpsaConfig(epochs=17))
        assert traces.shape == (3, 18)
        assert counter["compiled"] == 3
        assert counter["n"] == 3 * 17 + 1

    def test_evaluation_count_mismatch_raises(self, rng, monkeypatch):
        """The count check is a RuntimeError, so it survives python -O."""
        real = optimizer._spsa_update

        def extra_evaluation(theta, momentum, costs, *args):
            def one_more(rows):  # one row more than the step evaluates
                return costs(np.concatenate([rows, rows[:1]]))[:-1]

            return real(theta, momentum, one_more, *args)

        monkeypatch.setattr(optimizer, "_spsa_update", extra_evaluation)
        model = _toy_model()
        dataset = self._dataset(rng, model, [1.0])
        with pytest.raises(RuntimeError, match="evaluation counter mismatch: 13 != 10"):
            train(model, dataset, SpsaConfig(epochs=3, seed=0))

    def _reference_trace(self, rng, batch):
        """Traces of train and of the same SPSA loop costed through ``batch``."""
        model = CircuitModel(
            3, (P("XYZ"), P("YIX"), P("ZZY"), P("IXI")), P("ZII")
        )
        dataset = self._dataset(rng, model, [0.4, -1.1, 0.7, 2.0], m=20)
        xs = np.array([p[0] for p in dataset])
        ys = np.array([p[1] for p in dataset])
        config = SpsaConfig(learning_rate=0.01, epochs=25, seed=11)

        def cost(theta):
            preds = batch(model, theta, xs)
            return float(np.sqrt(np.mean((preds - ys) ** 2)))

        expected = _spsa_loop(cost, model.depth, config)
        return train(model, dataset, config).rmse_trace, expected

    def test_trace_equals_per_evaluation_reference(self, rng):
        """The trace matches a dense statevector SPSA loop to rounding.

        The reference rebuilds the encoding and every Pauli table on each
        cost evaluation and runs the same SPSA loop.  Training evaluates the
        Heisenberg-picture terms instead, a different order of arithmetic,
        so the traces agree to ~1e-15 rather than bitwise.
        """
        trace, expected = self._reference_trace(rng, _uncompiled_batch)
        assert np.allclose(trace, expected, rtol=0, atol=1e-12)

    def test_trace_equals_fresh_compilation_per_evaluation(self, rng):
        """Compiling once changes no bit of the trace.

        The reference compiles the circuit afresh on every cost evaluation
        through run_model_batch.
        """
        trace, expected = self._reference_trace(rng, run_model_batch)
        assert np.array_equal(trace, expected)

    def test_training_makes_progress(self, rng):
        """A faster-than-default flat gain drives the cost down on average."""
        model = CircuitModel(
            2, (P("XI"), P("YZ")), P("ZI")
        )
        teacher_theta = [0.9, -1.2]
        dataset = self._dataset(rng, model, teacher_theta, m=24)
        cfg = SpsaConfig(learning_rate=0.01, epochs=120, seed=5)
        record = train(model, dataset, cfg)
        assert record.normalized_trace[-1] < 0.9


class TestTrainBatch:
    def _trials(self, rng):
        """Exact and random selections, wide random circuits and a dense one."""
        observable = P("ZIII")
        trials = []
        for method in ("exact", "random"):
            for t in range(3):
                seed = derive_seed(9, method, t)
                chosen = select_for_method(method, observable, 4, seed).chosen
                trials.append((CircuitModel(4, chosen, observable), seed))
        for depth in (8, 10, 10, 12):
            gens = tuple(P(random_label(rng, 4)) for _ in range(depth))
            trials.append((CircuitModel(4, gens, observable), int(rng.integers(2**40))))
        dense = CircuitModel(
            3, tuple(P(random_label(rng, 3)) for _ in range(24)), P("ZII")
        )
        trials.insert(4, (dense, 77))
        return trials

    def test_each_trace_equals_its_one_trial_train(self, rng, monkeypatch):
        """Batching is invisible: every trial of one batched run has,
        bit for bit, the trace that train gives it alone."""
        trials = self._trials(rng)
        xs = rng.uniform(0, 2 * np.pi, size=20)
        dataset = [(float(x), float(np.cos(x))) for x in xs]
        circuits = [compile_circuit(model, xs) for model, _ in trials]
        assert sum(c.dense is not None for c in circuits) == 1
        shapes = {c.factors.shape for c in circuits if c.dense is None}
        assert len(shapes) >= 4
        assert max(k for k, _ in shapes) > 8  # where NumPy's row sum goes pairwise
        config = SpsaConfig(learning_rate=0.01, epochs=30)
        traces = train_batch(trials, dataset, config)
        ys = np.array([y for _, y in dataset])
        for (model, seed), circuit, trace in zip(trials, circuits, traces):
            alone = train(model, dataset, replace(config, seed=seed)).rmse_trace
            assert np.array_equal(trace, alone)
            # ... and the reference SPSA loop over the unstacked evaluator
            reference = _spsa_reference(circuit, ys, replace(config, seed=seed))
            assert np.array_equal(trace, reference)
        monkeypatch.setattr(optimizer, "_GROUP_SIZE", 1)  # one group per trial
        assert np.array_equal(train_batch(trials, dataset, config), traces)

    @pytest.mark.parametrize("field", ["learning_rate", "perturbation"])
    def test_non_finite_trace_raises(self, field):
        """A finite but huge step trains to inf or NaN: RuntimeError, not a trace."""
        model = CircuitModel(2, (P("XI"), P("YZ")), P("ZI"))
        dataset = [(0.1, 0.2), (0.7, -0.3), (2.0, 0.5)]
        config = replace(SpsaConfig(epochs=3), **{field: 1e308})
        with pytest.raises(RuntimeError, match="non-finite RMSE"):
            train_batch([(model, 1), (model, 2)], dataset, config)

    def test_no_trials(self):
        assert train_batch([], [(0.1, 0.2)], SpsaConfig(epochs=3)).shape == (0, 4)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_trial_seed_outside_stream_domain(self, seed, monkeypatch):
        """A seed outside [0, 2**64) fails in one line before any compile."""

        def no_compile(*args):
            raise AssertionError("compiled before the seeds were checked")

        monkeypatch.setattr(optimizer, "compile_circuit", no_compile)
        trials = [(_toy_model(), 3), (_toy_model(), seed)]
        with pytest.raises(ValueError, match="trial seed must be in") as err:
            train_batch(trials, [(0.1, 0.2)], SpsaConfig(epochs=3))
        assert "\n" not in str(err.value)

    def test_directions_drawn_in_bounded_blocks(self, rng, monkeypatch):
        """A group draws its directions a block of epochs at a time, each
        block at most _GROUP_SIZE / 16 entries or one epoch, and the traces
        do not move."""
        trials = self._trials(rng)[:6]
        xs = rng.uniform(0, 2 * np.pi, size=10)
        dataset = [(float(x), float(np.cos(x))) for x in xs]
        config = SpsaConfig(learning_rate=0.01, epochs=23)
        expected = train_batch(trials, dataset, config)
        real = optimizer._directions
        # 6 trials of up to 24 generators: 144 entries per epoch, and the
        # tables of all six (848 floats) fill one group.
        for group_size, longest in ((16 * 144 * 6, 6), (1, 1)):
            draws = []

            def recording(seeds, steps, width):
                draws.append((list(steps), len(seeds) * width))
                return real(seeds, steps, width)

            monkeypatch.setattr(optimizer, "_directions", recording)
            monkeypatch.setattr(optimizer, "_GROUP_SIZE", group_size)
            assert np.array_equal(train_batch(trials, dataset, config), expected)
            for steps, entries in draws:
                assert 16 * len(steps) * entries <= group_size or len(steps) == 1
            assert max(len(steps) for steps, _ in draws) == longest
            steps = [step for block, _ in draws for step in block]
            assert steps == list(range(1, 24)) * (len(steps) // 23)


class TestTrialRecord:
    def test_rejects_negative_trace(self):
        with pytest.raises(ValueError, match="non-negative"):
            TrialRecord("m", 0, (P("X"),), np.array([1.0, -0.1]))

    def test_rejects_zero_initial(self):
        with pytest.raises(ValueError, match="initial RMSE"):
            TrialRecord("m", 0, (P("X"),), np.array([0.0, 0.1]))


def _spsa_loop(cost, depth, config):
    """The RMSE trace of SPSA with momentum on ``cost``, one step at a time.

    Written out independently of the optimizer: theta_0 from (seed, 0), the
    step-t direction from NumPy's own (seed, t) stream, two costs per step,
    m <- beta m + g and theta <- theta - a m.
    """
    c = config.perturbation
    theta = np.random.default_rng([config.seed, 0]).uniform(
        -config.init_range, config.init_range, depth
    )
    momentum = np.zeros(depth)
    trace = [cost(theta)]
    for t in range(1, config.epochs + 1):
        rng = np.random.default_rng([config.seed, t])
        delta = rng.integers(0, 2, size=depth) * 2 - 1
        shift = c * delta
        grad = (cost(theta + shift) - cost(theta - shift)) / (2.0 * c) * delta
        momentum = config.momentum * momentum + grad
        theta = theta - config.learning_rate * momentum
        trace.append(cost(theta))
    return np.array(trace)


def _spsa_reference(circuit, ys, config):
    """The SPSA trace of one compiled circuit, each cost evaluated alone:
    Phi times the term coefficients summed left to right over the terms
    from +0.0, or the dense evaluator past the term limit."""
    depth = circuit.depth

    def cost(theta):
        if circuit.dense is not None:
            preds = circuit.dense(theta)
        else:
            trig = np.concatenate(
                [np.ones(depth), np.cos(2 * theta), np.sin(2 * theta)]
            )
            coeff = trig[circuit.factors * depth + np.arange(depth)].prod(axis=1)
            terms = (circuit.phi * coeff).T
            preds = functools.reduce(np.add, terms, np.zeros(len(ys)))
        return float(np.sqrt(np.mean((preds - ys) ** 2)))

    return _spsa_loop(cost, depth, config)


def _pauli_amps(amps, n, g):
    idx = np.arange(1 << n)
    src = idx ^ g.x
    parity = (np.bitwise_count(np.uint64(g.z) & src.astype(np.uint64)) & 1).astype(int)
    signs = 1 - 2 * parity
    phase = 1j ** ((g.x & g.z).bit_count() % 4)
    return phase * signs * amps[..., src]


def _uncompiled_batch(model, theta, xs):
    """Batched circuit evaluation that derives everything per call."""
    size = 1 << model.n
    weights = np.bitwise_count(np.arange(size, dtype=np.uint64)).astype(int)
    c = np.cos(xs / 2.0)[:, None]
    s = np.sin(xs / 2.0)[:, None]
    amps = (c ** (model.n - weights[None, :]) * s ** weights[None, :]).astype(complex)
    for g, t in zip(model.generators, theta):
        t = np.asarray(float(t))
        amps = np.cos(t) * amps - 1j * np.sin(t) * _pauli_amps(amps, model.n, g)
    o = model.observable
    return np.sum(np.conj(amps) * _pauli_amps(amps, model.n, o), axis=-1).real
