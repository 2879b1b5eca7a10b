"""SPSA-with-momentum training of circuit models against an RMSE cost.

One epoch is one SPSA update of the full-dataset RMSE: the gradient is
estimated from exactly two cost evaluations along a random Rademacher
direction, accumulated into a heavy-ball momentum term, and applied with a
fixed learning rate.  All randomness derives from each trial's seed: its
initial parameters from (seed, 0) and its direction at step t from
(seed, t), so a trial's trace is a pure function of (model, dataset,
config, seed).  Seeds and steps lie in [0, 2**64).

``train_batch`` trains a list of trials on one dataset in one loop: their
parameters, momenta and directions are (T, W) arrays, and each epoch
evaluates theta, theta + c Delta and theta - c Delta of every trial in one
stacked call of ``simulator.stack_circuits``.  Each prediction is the
left-to-right sum of its circuit's terms whatever is stacked with it, so
batching changes no bit of any trace.  A run whose trace is not finite
raises RuntimeError instead of returning it.  The directions of a
whole group of trials, a block of epochs at a time, come from one NumPy
call of ``_directions``: the (seed, t) direction is still, bit for bit,
``np.random.default_rng([seed, t]).integers(0, 2, size=depth) * 2 - 1``,
but the seeding and draws of every (seed, t) pair are computed at once
instead of building one generator per trial and step.
``train`` is the one-trial case.
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
    """``value`` as an int in [0, 2**64), the seeds and steps ``_directions`` covers."""
    value = operator.index(value)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return value


def _hash_constants(init: int, mult: int, count: int):
    """(xor, multiply) columns of count SeedSequence hashes from ``init``:
    hash k xors with init * mult**k and multiplies by init * mult**(k + 1)."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# The constants of NumPy's SeedSequence (numpy/random/bit_generator.pyx):
# mixing the entropy hashes 4 pool words, then 12 cross terms; generating the
# PCG64 seed hashes 8 output words.  Then PCG64's 128-bit LCG multiplier.
_MIX_XOR, _MIX_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_XOR, _OUT_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SIGNS = np.array([-1, 1], dtype=np.int8)


def _hashmix(words, xor, mul):
    words = (words ^ xor) * mul
    return words ^ (words >> 16)


def _jump_table(outputs: int) -> np.ndarray:
    """The (4 * outputs, 17) float table of PCG64's first ``outputs`` draws.

    Row 4 i + k times the 16 halves of the 8 seed words (all low halves,
    then all high halves) plus its last entry is limb k, 32 bits before
    carries, of the LCG state at draw i.  Seeded with (initstate, initseq),
    that state is A_i initstate + B_i (2 initseq + 1) mod 2**128, with
    A_i = M**(i + 2) and B_i = 1 + M + ... + M**(i + 1).  initstate is
    words 0..3 and initseq words 4..7, each joined as two uint64 of which
    words 0, 1 (4, 5) are the high one, so a half multiplies A_i or 2 B_i
    shifted up by its bit offset (mod 2**128), and the last entry is B_i.
    """
    mask = (1 << 128) - 1
    rows = []
    power, total = _PCG_MULT, 1 + _PCG_MULT
    for _ in range(outputs):
        power = power * _PCG_MULT & mask
        total = total + power & mask
        for half in (0, 16):
            rows += [power << (s + half) & mask for s in (64, 96, 0, 32)]
            rows += [total << (s + half + 1) & mask for s in (64, 96, 0, 32)]
        rows.append(total)
    raw = b"".join(row.to_bytes(16, "little") for row in rows)
    limbs = np.frombuffer(raw, dtype="<u4").reshape(outputs, 17, 4)
    return limbs.transpose(0, 2, 1).reshape(-1, 17).astype(float)


def _seed_words(seeds, steps) -> np.ndarray:
    """The (8, len(steps) * len(seeds)) uint32 words, steps major, that
    ``np.random.SeedSequence([seed, step]).generate_state(8)`` gives each pair.

    The entropy words are the seed's low 32 bits, its high 32 bits if not
    zero, then the step's alike, zero-padded to the 4-word pool; mixing the
    pool and generating from it are fixed sequences of 32-bit hashes.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    steps = np.asarray(steps, dtype=np.uint64)[:, None]
    wide = seeds >> 32 != 0
    words = np.empty((4, len(steps), len(seeds)), dtype=np.uint32)
    words[0] = seeds
    words[1] = np.where(wide, seeds >> 32, steps)
    words[2] = np.where(wide, steps, steps >> 32)
    words[3] = np.where(wide, steps >> 32, 0)
    pool = _hashmix(words.reshape(4, -1), _MIX_XOR[:4], _MIX_MUL[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashes = slice(4 + 3 * src, 7 + 3 * src)
        # SeedSequence's mix(x, y) of each other word with a hash of this one
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hashmix(
            pool[src], _MIX_XOR[hashes], _MIX_MUL[hashes]
        )
        pool[dst] = mixed ^ (mixed >> 16)
    return _hashmix(np.tile(pool, (2, 1)), _OUT_XOR, _OUT_MUL)


def _directions(seeds, steps, width: int) -> np.ndarray:
    """The (len(steps), len(seeds), width) int8 Rademacher directions.

    Row [s, t] is, bit for bit,
    ``np.random.default_rng([seeds[t], steps[s]]).integers(0, 2, size=width) * 2 - 1``
    for seeds and steps in [0, 2**64), computed for all pairs at once:

    * SeedSequence: ``_seed_words`` hashes every pair's entropy together.
    * PCG64: one matrix product with ``_jump_table`` gives every state the
      draws use.  Every product of a 16-bit half and a 32-bit limb is below
      2**48, and a sum of 32 of them stays below 2**53, so float arithmetic
      is exact; carries then assemble the 128-bit states, and XSL-RR turns
      each into a 64-bit output.
    * integers(0, 2): each output serves two 32-bit draws, low half first,
      and Lemire's bounded draw of range 2 keeps bit 31 of each and never
      rejects.  So direction entries 2i and 2i + 1 are bits 31 and 63 of
      output i.
    """
    words = _seed_words(seeds, steps)
    outputs = (width + 1) // 2
    table = _jump_table(outputs)
    halves = np.concatenate([words & 0xFFFF, words >> 16], dtype=float)
    limbs = (table[:, :16] @ halves + table[:, 16:]).astype(np.uint64)
    del words, halves  # the temporaries below are several times larger
    limbs = limbs.reshape(outputs, 4, len(steps) * len(seeds))
    for k in (1, 2, 3):  # carry up the four 32-bit limbs of each state
        limbs[:, k] += limbs[:, k - 1] >> 32
    low = limbs[:, 0] & 0xFFFFFFFF | limbs[:, 1] << 32
    high = limbs[:, 2] & 0xFFFFFFFF | limbs[:, 3] << 32
    del limbs
    # XSL-RR rotates high ^ low right by the state's top 6 bits; keep the
    # bits that land on 31 and 63.
    shifts = (high >> 58) + np.array([31, 63], dtype=np.uint64)[:, None, None]
    shifts &= 63
    bits = (high ^ low) >> shifts
    bits &= 1
    directions = _SIGNS[bits].transpose(2, 1, 0)
    return directions.reshape(len(steps), len(seeds), 2 * outputs)[..., :width]


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
    for row, seed, depth in zip(theta, seeds, depths):
        init_rng = np.random.default_rng([seed, 0])
        row[:depth] = init_rng.uniform(-config.init_range, config.init_range, depth)
    momentum = np.zeros_like(theta)

    trace = np.empty((config.epochs + 1, len(circuits)))
    # theta's own cost, the trace point before a step, rides along with
    # theta +- c Delta in one stacked call; every step fills these rows.
    step_rows = np.empty((3,) + theta.shape)

    def step_costs(rows: np.ndarray) -> np.ndarray:
        values = costs(rows)
        trace[epoch - 1] = values[0]
        return values

    # The directions of a block of epochs are drawn at once.  The kernel's
    # temporaries peak at 40-70 bytes per direction entry, so a block holds
    # at most _GROUP_SIZE / 16 entries (one epoch if a single epoch holds
    # more), which keeps them within the 8 MiB a group's tables may reach.
    width = theta.shape[1]
    live = np.arange(width) < np.array(depths)[:, None]
    block = max(1, _GROUP_SIZE // (16 * max(theta.size, 1)))
    for start in range(1, config.epochs + 1, block):
        stop = min(start + block, config.epochs + 1)
        deltas = _directions(seeds, np.arange(start, stop), width) * live
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

    Each trial is compiled once (``compile_circuit``) and its parameters
    are initialized uniformly in [-init_range, init_range] from (seed, 0);
    step t draws its direction from (seed, t), and config.seed is not read.
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
    parameters are initialized from (config.seed, 0), step t uses the
    direction stream (config.seed, t), and the trace has epochs + 1
    entries, index 0 being the pre-training RMSE.
    """
    trace = train_batch([(model, config.seed)], dataset, config)[0]
    return TrialRecord("unspecified", config.seed, tuple(model.generators), trace)
