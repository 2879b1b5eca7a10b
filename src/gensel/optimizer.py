"""SPSA-with-momentum training of circuit models against an RMSE cost.

One epoch is one SPSA update of the full-dataset RMSE: the gradient is
estimated from exactly two cost evaluations along a random Rademacher
direction, accumulated into a heavy-ball momentum term, and applied with a
fixed learning rate.  All randomness comes from one generator per trial,
``np.random.default_rng([seed, 0])``: its first L uniform draws are the
initial parameters, and its next ``integers(0, 2, size=L) * 2 - 1`` draw,
epoch after epoch, is the direction of that epoch (L is the trial's
depth).  So a trial's trace is a pure function of (model, dataset, config,
seed).  Seeds lie in [0, 2**64).

``train_batch`` trains a list of trials on one dataset in one loop: their
parameters, momenta and directions are (T, W) arrays, and each epoch
evaluates theta, theta + c Delta and theta - c Delta of every trial in one
stacked call of ``simulator.stack_circuits``.  Each prediction is the
left-to-right sum of its circuit's terms whatever is stacked with it, so
batching changes no bit of any trace.  A run whose trace is not finite
raises RuntimeError instead of returning it.  Each trial's directions are
drawn a block of epochs at a time, in one call of its generator; NumPy's
int64 ``integers(0, 2)`` takes 32-bit halves of PCG64 outputs and keeps the
unused half in the generator, so the blocks give the same stream as one
draw per epoch.  ``train`` is the one-trial case.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .simulator import CircuitModel, compile_circuit, run_model_batch, stack_circuits

__all__ = [
    "SpsaConfig",
    "TrialRecord",
    "rmse_cost",
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
        _stream_key(self.seed, "seed")


def _stream_key(value, name: str) -> int:
    """``value`` as an int in [0, 2**64), the range of a trial seed."""
    value = operator.index(value)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return value


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


def _spsa_update(theta, momentum, costs, delta, config, rows):
    """One SPSA step for every row of theta (T, W).

    Row t moves along its Rademacher direction delta[t] (0 past the trial's
    depth), gets the costs of theta_t + c delta_t and theta_t - c delta_t
    from ``costs`` (rows (k + 2, T, W) -> (k + 2, T)), estimates the gradient
    as their difference over 2c times delta_t (note 1/delta_j = delta_j),
    folds it into the momentum m <- beta m + g and moves theta <- theta - a m.
    ``rows`` is a (k + 2, T, W) buffer: theta +- c delta go into its last two
    rows and ``costs`` gets all of it, so its first k rows are costed in the
    same call.
    """
    c = config.perturbation
    shift = c * delta
    np.add(theta, shift, out=rows[-2])
    np.subtract(theta, shift, out=rows[-1])
    plus, minus = costs(rows)[-2:]
    grad = ((plus - minus) / (2.0 * c))[:, None] * delta
    momentum = config.momentum * momentum + grad
    return theta - config.learning_rate * momentum, momentum


# A group of trials closes once its compiled tables reach this many floats
# (8 MiB), so a long list of large circuits trains group by group, which
# changes no trace, rather than holding every trial's tables at once.  This
# keeps memory growing with the largest group, not with the number of
# trials, as it did when each trial trained alone; it does not bound a
# group: one circuit may pass the limit alone, and the evaluator keeps
# 3 x B products per term row of the group, one per row of angles a step
# evaluates.  A bucket holds a circuit's K terms in K rows, or in under 2K
# where it pads (see ``simulator.stack_circuits``).
_GROUP_SIZE = 1 << 20


# A diverging run overflows; the finite check at the end reports it once.
@np.errstate(over="ignore", invalid="ignore")
def _train_group(circuits, seeds, ys, config) -> np.ndarray:
    """The (epochs + 1, T) RMSE traces of compiled circuits trained together;
    RuntimeError if a trace is not finite."""
    depths = [c.depth for c in circuits]
    evaluate = stack_circuits(circuits)
    evaluations = 0

    def costs(rows: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += len(rows)
        # The sum over the inputs divided by their count: np.mean's arithmetic.
        errors = evaluate(rows)
        errors -= ys
        np.square(errors, out=errors)
        return np.sqrt(errors.sum(axis=-1) / len(ys))

    theta = np.zeros((len(circuits), max(depths, default=0)))
    rngs = [np.random.default_rng([seed, 0]) for seed in seeds]
    for row, rng, depth in zip(theta, rngs, depths):
        row[:depth] = rng.uniform(-config.init_range, config.init_range, depth)
    momentum = np.zeros_like(theta)

    trace = np.empty((config.epochs + 1, len(circuits)))
    # theta's own cost, the trace point before a step, rides along with
    # theta +- c Delta in one stacked call; every step fills these rows.
    step_rows = np.empty((3,) + theta.shape)

    def step_costs(rows: np.ndarray) -> np.ndarray:
        values = costs(rows)
        trace[epoch - 1] = values[0]
        return values

    # The directions of a block of epochs are drawn at once, zero past each
    # trial's depth.  A block holds at most _GROUP_SIZE / 16 entries (one
    # epoch if a single epoch holds more): 8 bytes each, plus 24 per entry
    # of the one trial being drawn, well within the 8 MiB a group's tables
    # may reach.
    block = max(1, _GROUP_SIZE // (16 * max(theta.size, 1)))
    for start in range(1, config.epochs + 1, block):
        stop = min(start + block, config.epochs + 1)
        deltas = np.zeros((stop - start,) + theta.shape)
        for t, (rng, depth) in enumerate(zip(rngs, depths)):
            signs = rng.integers(0, 2, size=(stop - start, depth))
            deltas[:, t, :depth] = signs * 2 - 1
        for epoch in range(start, stop):
            step_rows[0] = theta
            theta, momentum = _spsa_update(
                theta, momentum, step_costs, deltas[epoch - start], config, step_rows
            )
    trace[-1] = costs(theta[None])[0]

    expected = 3 * config.epochs + 1
    if evaluations != expected:
        raise RuntimeError(
            f"evaluation counter mismatch: {evaluations} != {expected}"
        )
    if not np.isfinite(trace).all():
        raise RuntimeError(
            "training diverged to a non-finite RMSE; lower [spsa] "
            "learning_rate or perturbation"
        )
    return trace


def train_batch(
    trials: Sequence[tuple[CircuitModel, int]],
    dataset: Sequence,
    config: SpsaConfig,
) -> np.ndarray:
    """Train every (model, seed) trial on one dataset; returns (T, epochs + 1) traces.

    Each trial is compiled once (``compile_circuit``) and gets one
    generator, ``np.random.default_rng([seed, 0])``: its parameters are
    that generator's first uniform draws in [-init_range, init_range], and
    step t's direction is its t-th ``integers(0, 2, size=depth) * 2 - 1``
    draw after them; config.seed is not read.
    Every epoch then evaluates theta (the trace point before the step),
    theta + c Delta and theta - c Delta of all trials in one stacked call,
    and one more call takes the last trace point: exactly 3 * epochs + 1
    full-dataset cost evaluations per trial (RuntimeError otherwise).  Each
    prediction is the left-to-right sum of its circuit's terms, so a
    trial's trace is bitwise the same whatever it is batched with.  A trace
    that is not finite raises RuntimeError.  Every seed must lie in
    [0, 2**64) (ValueError before anything is compiled).
    """
    for _, seed in trials:
        _stream_key(seed, "trial seed")
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


def train(model: CircuitModel, dataset: Sequence, config: SpsaConfig) -> TrialRecord:
    """Run SPSA for config.epochs epochs and record the full RMSE trace.

    The one-trial case of ``train_batch`` with seed config.seed: the
    parameters and then the direction of each step in turn are drawn from
    ``np.random.default_rng([config.seed, 0])``, and the trace has
    epochs + 1 entries, index 0 being the pre-training RMSE.
    """
    trace = train_batch([(model, config.seed)], dataset, config)[0]
    return TrialRecord("unspecified", config.seed, tuple(model.generators), trace)
