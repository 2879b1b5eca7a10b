"""SPSA-with-momentum training of a circuit model against an RMSE cost.

One epoch is one SPSA update of the full-dataset RMSE: the gradient is
estimated from exactly two cost evaluations along a random Rademacher
direction, accumulated into a heavy-ball momentum term, and applied with a
fixed learning rate.  All randomness derives from the configured seed, so a
training run is a pure function of (model, dataset, config).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .simulator import CircuitModel, compile_batch, run_model_batch

__all__ = ["SpsaConfig", "TrialRecord", "rmse_cost", "spsa_step", "train"]


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
    rng = np.random.default_rng([config.seed, step_index])
    delta = rng.integers(0, 2, size=theta.shape) * 2 - 1
    c = config.perturbation
    diff = cost(theta + c * delta) - cost(theta - c * delta)
    grad = diff / (2.0 * c) * delta
    new_momentum = config.momentum * momentum_state + grad
    new_theta = theta - config.learning_rate * new_momentum
    return new_theta, new_momentum


def train(
    model: CircuitModel,
    dataset: Sequence,
    config: SpsaConfig,
    method: str = "unspecified",
) -> TrialRecord:
    """Run SPSA for config.epochs epochs and record the full RMSE trace.

    The parameters are initialized uniformly in [-init_range, init_range]
    from (config.seed, 0); step t uses the direction stream (config.seed, t).
    The trace has epochs + 1 entries, index 0 being the pre-training RMSE.
    The circuit is compiled for the dataset once; exactly 3*epochs + 1
    full-dataset cost evaluations follow, two per SPSA step plus one per
    recorded trace point (RuntimeError otherwise).
    """
    xs, ys = _dataset_arrays(dataset)
    evaluate = compile_batch(model, xs)
    evaluations = 0

    def cost(theta: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        preds = evaluate(theta)
        return float(np.sqrt(np.mean((preds - ys) ** 2)))

    init_rng = np.random.default_rng([config.seed, 0])
    theta = init_rng.uniform(-config.init_range, config.init_range, model.depth)
    momentum = np.zeros(model.depth)

    trace = np.empty(config.epochs + 1)
    trace[0] = cost(theta)
    for epoch in range(1, config.epochs + 1):
        theta, momentum = spsa_step(theta, momentum, cost, config, epoch)
        trace[epoch] = cost(theta)

    expected = 3 * config.epochs + 1
    if evaluations != expected:
        raise RuntimeError(
            f"evaluation counter mismatch: {evaluations} != {expected}"
        )
    return TrialRecord(method, config.seed, tuple(model.generators), trace)
