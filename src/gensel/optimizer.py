"""SPSA-with-momentum training of circuit models against an RMSE cost.

One epoch is one SPSA update of the full-dataset RMSE: the gradient is
estimated from exactly two cost evaluations along a random Rademacher
direction, accumulated into a heavy-ball momentum term, and applied with a
fixed learning rate.  All randomness derives from each trial's seed: its
initial parameters from (seed, 0) and its direction at step t from
(seed, t), so a trial's trace is a pure function of (model, dataset,
config, seed).

``train_batch`` trains a list of trials on one dataset in one loop: their
parameters, momenta and directions are (T, W) arrays, and each epoch
evaluates theta, theta + c Delta and theta - c Delta of every trial in one
stacked call of ``simulator.stack_circuits``.  Each row reduces as it
would alone, so batching changes no bit of any trace.
``train`` is the one-trial case, and ``spsa_step`` applies the same update
rule to one parameter vector and any cost function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .simulator import CircuitModel, compile_circuit, run_model_batch, stack_circuits

__all__ = [
    "SpsaConfig",
    "TrialRecord",
    "rmse_cost",
    "spsa_step",
    "train",
    "train_batch",
]


@dataclass(frozen=True)
class SpsaConfig:
    """Hyperparameters for SPSA with momentum.

    The perturbation size is held constant across epochs (no gain decay);
    it is the one knob the training setup leaves unspecified, so it is
    exposed here with a small fixed default.
    """

    learning_rate: float = 0.001
    momentum: float = 0.5
    perturbation: float = 0.01
    epochs: int = 200
    init_range: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.perturbation <= 0:
            raise ValueError(f"perturbation must be > 0, got {self.perturbation}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class TrialRecord:
    """Per-epoch RMSE trace of one training trial plus its metadata."""

    method: str
    seed: int
    chosen: tuple
    rmse_trace: np.ndarray
    normalized_trace: np.ndarray = field(init=False)

    def __post_init__(self):
        self.rmse_trace = np.asarray(self.rmse_trace, dtype=float)
        if np.any(self.rmse_trace < 0):
            raise ValueError("RMSE trace must be non-negative")
        if self.rmse_trace[0] == 0:
            raise ValueError("cannot normalize a trace whose initial RMSE is zero")
        self.normalized_trace = self.rmse_trace / self.rmse_trace[0]


def _dataset_arrays(dataset) -> tuple[np.ndarray, np.ndarray]:
    pairs = list(dataset)
    if not pairs:
        raise ValueError("dataset must be non-empty")
    xs = np.array([p[0] for p in pairs], dtype=float)
    ys = np.array([p[1] for p in pairs], dtype=float)
    return xs, ys


def rmse_cost(model: CircuitModel, theta, dataset) -> float:
    """Root-mean-square error of the model's predictions over the dataset."""
    xs, ys = _dataset_arrays(dataset)
    preds = run_model_batch(model, theta, xs)
    return float(np.sqrt(np.mean((preds - ys) ** 2)))


def _spsa_update(theta, momentum, costs, seeds, depths, step, config):
    """One SPSA step for every row of theta (T, W); the rule spsa_step applies.

    Row t draws its Rademacher direction Delta from (seeds[t], step) over its
    first depths[t] entries (0 past them), gets the costs of theta_t + c Delta
    and theta_t - c Delta from ``costs`` (rows (2, T, W) -> (2, T)),
    estimates the gradient as their difference over 2c times Delta (note
    1/Delta_j = Delta_j), folds it into the momentum m <- beta m + g and
    moves theta <- theta - a m.
    """
    delta = np.zeros(theta.shape, dtype=np.int64)
    for row, seed, depth in zip(delta, seeds, depths):
        rng = np.random.default_rng([seed, step])
        row[:depth] = rng.integers(0, 2, size=depth) * 2 - 1
    c = config.perturbation
    shift = c * delta
    plus, minus = costs(np.array([theta + shift, theta - shift]))
    grad = ((plus - minus) / (2.0 * c))[:, None] * delta
    momentum = config.momentum * momentum + grad
    return theta - config.learning_rate * momentum, momentum


def spsa_step(
    theta: np.ndarray,
    momentum_state: np.ndarray,
    cost: Callable[[np.ndarray], float],
    config: SpsaConfig,
    step_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One SPSA update; exactly two cost evaluations.

    Draws a Rademacher direction Delta from (config.seed, step_index),
    estimates the gradient as the symmetric finite difference along Delta
    divided elementwise by Delta (note 1/Delta_j = Delta_j), folds it into
    the momentum state m <- beta m + g, and moves theta <- theta - a m.
    """
    theta = np.asarray(theta, dtype=float)
    momentum_state = np.asarray(momentum_state, dtype=float)
    if theta.shape != momentum_state.shape:
        raise ValueError("theta and momentum_state must have the same shape")
    shape = theta.shape

    def costs(rows):
        return np.array([[cost(row[0].reshape(shape))] for row in rows])

    new_theta, new_momentum = _spsa_update(
        theta.reshape(1, -1), momentum_state.reshape(1, -1), costs,
        [config.seed], [theta.size], step_index, config,
    )
    return new_theta.reshape(shape), new_momentum.reshape(shape)


# A group of trials closes once its compiled tables reach this many floats
# (8 MiB), so a long list of large circuits trains group by group, which
# changes no trace, rather than holding every trial's tables at once.  This
# keeps memory growing with the largest group, not with the number of
# trials, as it did when each trial trained alone; it does not bound a
# group: one circuit may pass the limit alone, and an evaluation holds
# three (B x K) product rows per circuit of the group.
_GROUP_SIZE = 1 << 20


def _train_group(circuits, seeds, ys, config) -> np.ndarray:
    """The (epochs + 1, T) RMSE traces of compiled circuits trained together."""
    depths = [c.depth for c in circuits]
    evaluate = stack_circuits(circuits)
    evaluations = 0

    def costs(rows: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += len(rows)
        # The sum over the inputs divided by their count: np.mean's arithmetic.
        return np.sqrt(((evaluate(rows) - ys) ** 2).sum(axis=-1) / len(ys))

    theta = np.zeros((len(circuits), max(depths, default=0)))
    for row, seed, depth in zip(theta, seeds, depths):
        init_rng = np.random.default_rng([seed, 0])
        row[:depth] = init_rng.uniform(-config.init_range, config.init_range, depth)
    momentum = np.zeros_like(theta)

    trace = np.empty((config.epochs + 1, len(circuits)))

    def step_costs(rows: np.ndarray) -> np.ndarray:
        # theta's own cost, the trace point before this step, rides along
        # with theta +- c Delta in one stacked call.
        values = costs(np.concatenate([theta[None], rows]))
        trace[epoch - 1] = values[0]
        return values[1:]

    for epoch in range(1, config.epochs + 1):
        theta, momentum = _spsa_update(
            theta, momentum, step_costs, seeds, depths, epoch, config
        )
    trace[-1] = costs(theta[None])[0]

    expected = 3 * config.epochs + 1
    if evaluations != expected:
        raise RuntimeError(
            f"evaluation counter mismatch: {evaluations} != {expected}"
        )
    return trace


def train_batch(
    trials: Sequence[tuple[CircuitModel, int]],
    dataset: Sequence,
    config: SpsaConfig,
) -> np.ndarray:
    """Train every (model, seed) trial on one dataset; returns (T, epochs + 1) traces.

    Each trial is compiled once (``compile_circuit``) and its parameters
    are initialized uniformly in [-init_range, init_range] from (seed, 0);
    step t draws its direction from (seed, t), and config.seed is not read.
    Every epoch then evaluates theta (the trace point before the step),
    theta + c Delta and theta - c Delta of all trials in one stacked call,
    and one more call takes the last trace point: exactly 3 * epochs + 1
    full-dataset cost evaluations per trial (RuntimeError otherwise).  Each
    row reduces as it would alone, so a trial's trace is bitwise the same
    whatever it is batched with.
    """
    xs, ys = _dataset_arrays(dataset)
    traces = np.empty((len(trials), config.epochs + 1))
    start, group, size = 0, [], 0
    for t, (model, _) in enumerate(trials):
        circuit = compile_circuit(model, xs)
        group.append(circuit)
        size += circuit.size
        if size >= _GROUP_SIZE or t == len(trials) - 1:
            seeds = [seed for _, seed in trials[start : t + 1]]
            traces[start : t + 1] = _train_group(group, seeds, ys, config).T
            start, group, size = t + 1, [], 0
    return traces


def train(
    model: CircuitModel,
    dataset: Sequence,
    config: SpsaConfig,
    method: str = "unspecified",
) -> TrialRecord:
    """Run SPSA for config.epochs epochs and record the full RMSE trace.

    The one-trial case of ``train_batch`` with seed config.seed: the
    parameters are initialized from (config.seed, 0), step t uses the
    direction stream (config.seed, t), and the trace has epochs + 1
    entries, index 0 being the pre-training RMSE.
    """
    trace = train_batch([(model, config.seed)], dataset, config)[0]
    return TrialRecord(method, config.seed, tuple(model.generators), trace)
