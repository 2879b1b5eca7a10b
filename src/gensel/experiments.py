"""End-to-end comparison harness: data generation, training, expressibility.

A single synthetic regression dataset is produced by a randomly drawn
teacher circuit; every selection method is then trained against that shared
dataset over many seeded trials.  Expressibility of a circuit is the
Hellinger distance between its sampled output-state fidelity distribution
and the fidelity law of Haar-random states, P(F) = (d-1)(1-F)^(d-2).

All per-trial randomness is derived from a master seed as
sha256("{master_seed}:{method}:{trial_index}"), so a comparison run is
bit-reproducible end to end.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .optimizer import SpsaConfig, TrialRecord, train_batch
from .pauli import PauliString, pauli_string_at
from .selection import (
    BASELINE_METHODS,
    SelectionProblem,
    SelectionResult,
    build_pool,
    evaluate_selection,
    seeded_order,
    select_baseline,
    solve_exact,
    solve_genetic,
    solve_greedy,
)
from .simulator import CircuitModel, run_model_batch, state_overlaps

__all__ = [
    "DatasetSpec",
    "ExpressibilityConfig",
    "GeneticConfig",
    "Teacher",
    "MethodSummary",
    "ExperimentReport",
    "TTestResult",
    "derive_seed",
    "generate_dataset",
    "haar_bin_probs",
    "hellinger_distance",
    "expressibility_hellinger",
    "select_for_method",
    "trial_models",
    "train_cells",
    "trace_rows",
    "summarize",
    "run_comparison",
    "two_sample_t_test",
    "SELECTION_METHODS",
]

POOL_METHODS = ("exact", "greedy", "genetic")
SELECTION_METHODS = POOL_METHODS + BASELINE_METHODS
# The epochs where the paper claims exact selection trains faster.
EARLY_EPOCHS = range(10, 151)


def _check_range(name: str, bounds: tuple[float, float]) -> None:
    """lo < hi with hi - lo finite, as ``rng.uniform`` needs; NaN fails."""
    if not 0.0 < bounds[1] - bounds[0] < math.inf:
        raise ValueError(f"{name} {bounds} is not well-ordered with a finite width")


@dataclass(frozen=True)
class DatasetSpec:
    """Teacher-circuit and sampling parameters for the synthetic dataset."""

    n: int = 5
    depth: int = 5
    theta_range: tuple[float, float] = (-math.pi, math.pi)
    input_range: tuple[float, float] = (0.0, 2.0 * math.pi)
    samples: int = 100
    teacher_seed: int = 0

    def __post_init__(self):
        _check_range("theta_range", self.theta_range)
        _check_range("input_range", self.input_range)
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.n < 1 or self.depth < 1:
            raise ValueError("n and depth must be positive")

    @property
    def observable(self) -> PauliString:
        return PauliString.from_label("Z" + "I" * (self.n - 1))


@dataclass(frozen=True)
class ExpressibilityConfig:
    """Sampling parameters for the fidelity-histogram expressibility estimate."""

    fidelity_samples: int = 500
    bins: int = 50
    param_range: tuple[float, float] = (-math.pi, math.pi)
    seed: int = 0

    def __post_init__(self):
        _check_range("param_range", self.param_range)
        if self.bins < 2:
            raise ValueError(f"bins must be >= 2, got {self.bins}")
        if self.fidelity_samples < self.bins:
            raise ValueError(
                f"fidelity_samples ({self.fidelity_samples}) must be >= bins "
                f"({self.bins})"
            )


@dataclass(frozen=True)
class GeneticConfig:
    population: int = 64
    generations: int = 120
    mutation_rate: float = 0.3


class Teacher(NamedTuple):
    model: CircuitModel
    theta: np.ndarray


def generate_dataset(spec: DatasetSpec) -> tuple[list[tuple[float, float]], Teacher]:
    """Draw a random teacher circuit and its regression dataset.

    The teacher uses ``spec.depth`` distinct non-identity strings as
    generators, parameters uniform over theta_range and inputs uniform over
    input_range; labels are the teacher's observable expectations, hence
    always in [-1, 1].  Deterministic per teacher_seed.
    """
    rng = np.random.default_rng(spec.teacher_seed)
    idx = rng.choice(4**spec.n - 1, size=spec.depth, replace=False)
    generators = tuple(pauli_string_at(spec.n, int(i) + 1) for i in idx)
    model = CircuitModel(spec.n, generators, spec.observable)
    theta = rng.uniform(*spec.theta_range, size=spec.depth)
    xs = rng.uniform(*spec.input_range, size=spec.samples)
    ys = run_model_batch(model, theta, xs)
    dataset = list(zip(xs.tolist(), ys.tolist()))
    return dataset, Teacher(model, theta)


def haar_bin_probs(d: int, bins: int) -> np.ndarray:
    """Exact masses of the Haar fidelity law over equal-width bins on [0, 1].

    P(F) = (d-1)(1-F)^(d-2) integrates to (1-lo)^(d-1) - (1-hi)^(d-1) on a
    bin [lo, hi]; the masses sum to 1 exactly.
    """
    if d < 2:
        raise ValueError(f"Hilbert dimension must be >= 2, got {d}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    upper = (1.0 - edges) ** (d - 1)
    return upper[:-1] - upper[1:]


def hellinger_distance(p: np.ndarray, q: np.ndarray) -> float:
    """H(p, q) = sqrt(1 - sum_i sqrt(p_i q_i)), bounded in [0, 1]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same shape")
    bc = float(np.sum(np.sqrt(p * q)))
    return math.sqrt(max(0.0, 1.0 - bc))


def expressibility_hellinger(
    model: CircuitModel, config: ExpressibilityConfig
) -> float:
    """Hellinger distance of sampled state fidelities to the Haar law.

    Draws ``fidelity_samples`` independent parameter pairs uniform over
    param_range per coordinate, with the input-encoding angle fixed at 0,
    and histograms F = |<psi(theta)|psi(phi)>|^2 into equal bins on [0, 1].
    """
    rng = np.random.default_rng(config.seed)
    s = config.fidelity_samples
    thetas = rng.uniform(*config.param_range, size=(2 * s, model.depth))
    overlaps = state_overlaps(model, thetas[:s], thetas[s:])
    # A fidelity that rounds past 1 would fall outside the histogram's range.
    fidelities = np.clip(np.abs(overlaps) ** 2, 0.0, 1.0)
    counts, _ = np.histogram(fidelities, bins=config.bins, range=(0.0, 1.0))
    p = counts / float(s)
    q = haar_bin_probs(1 << model.n, config.bins)
    return hellinger_distance(p, q)


def derive_seed(master_seed: int, method: str, trial_index: int) -> int:
    """Stable per-trial seed: sha256 of 'master:method:trial', first 8 bytes."""
    digest = hashlib.sha256(
        f"{master_seed}:{method}:{trial_index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def select_for_method(
    method: str,
    observable: PauliString,
    budget: int,
    seed: int,
    genetic: GeneticConfig = GeneticConfig(),
    pool_subsample: int | None = None,
    problem: SelectionProblem | None = None,
) -> SelectionResult:
    """Run the named selection method and return its chosen generators.

    Pool-based methods see the candidate pool in a seed-derived random order
    (``seeded_order``).  The solvers are deterministic given candidate order,
    so each trial is reproducible, while different seeds pick different
    (equally optimal) generator sets; selecting with several seeds therefore
    varies the chosen circuits the way repeated seeded selection runs do.

    ``problem`` is the observable's full pool and table at this budget, which
    a run builds once for all its trials; without it, this call builds one
    over just the candidates the seed's subsample keeps.
    """
    if method in BASELINE_METHODS:
        return select_baseline(method, observable, budget, seed)
    if method not in POOL_METHODS:
        raise ValueError(f"unknown selection method {method!r}")
    if problem is None:
        pool = build_pool(observable, subsample_size=pool_subsample, seed=seed)
        problem, pool_subsample = SelectionProblem.build(observable, pool, budget), None
    elif (problem.observable, problem.budget) != (observable, budget):
        raise ValueError("the selection problem is for another observable or budget")
    order = seeded_order(len(problem.candidates), seed, pool_subsample)
    if method == "exact":
        return solve_exact(problem, order=order)
    if method == "greedy":
        return solve_greedy(problem, order=order)
    return solve_genetic(
        problem,
        population=genetic.population,
        generations=genetic.generations,
        mutation_rate=genetic.mutation_rate,
        seed=seed,
        order=order,
    )


def trial_models(
    cells: Sequence[tuple[str, int]],
    master_seed: int,
    spec: DatasetSpec,
    genetic: GeneticConfig = GeneticConfig(),
) -> list[tuple[int, CircuitModel]]:
    """Seed of each (method, trial) cell and the circuit its selection builds.

    The pool-based cells share one selection problem, built here once: the
    observable's pool and table at the spec's depth.
    """
    observable, problem = spec.observable, None
    if any(method in POOL_METHODS for method, _ in cells):
        problem = SelectionProblem.build(observable, build_pool(observable), spec.depth)
    picked = []
    for method, trial_index in cells:
        seed = derive_seed(master_seed, method, trial_index)
        selection = select_for_method(
            method, observable, spec.depth, seed, genetic=genetic, problem=problem
        )
        picked.append((seed, CircuitModel(spec.n, selection.chosen, observable)))
    return picked


def train_cells(
    cells: Sequence[tuple[str, int]],
    master_seed: int,
    dataset: Sequence[tuple[float, float]],
    spec: DatasetSpec,
    spsa_config: SpsaConfig,
    genetic: GeneticConfig = GeneticConfig(),
) -> list[TrialRecord]:
    """Select every (method, trial) cell's circuit and train them in one batch."""
    picked = trial_models(cells, master_seed, spec, genetic)
    trials = [(model, seed) for seed, model in picked]
    traces = train_batch(trials, dataset, spsa_config)
    return [
        TrialRecord(method, seed, tuple(model.generators), trace)
        for (method, _), (seed, model), trace in zip(cells, picked, traces)
    ]


def trace_rows(record: TrialRecord, trial_index: int) -> list[tuple]:
    """One (method, trial, epoch, rmse, rmse_normalized) row per trace point."""
    return [
        (record.method, trial_index, epoch, rmse, norm)
        for epoch, (rmse, norm) in enumerate(
            zip(record.rmse_trace.tolist(), record.normalized_trace.tolist())
        )
    ]


def _mean_std(values) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample standard deviation over the first axis (0 for one row)."""
    arr = np.asarray(values, dtype=float)
    std = arr.std(axis=0, ddof=1) if len(arr) > 1 else np.zeros_like(arr[0])
    return arr.mean(axis=0), std


@dataclass
class MethodSummary:
    """Final RMSEs and normalized traces of one selection method, per trial."""

    method: str
    final_rmse: np.ndarray
    normalized: np.ndarray
    trace_mean: np.ndarray = field(init=False)
    trace_std: np.ndarray = field(init=False)

    def __post_init__(self):
        self.final_rmse = np.asarray(self.final_rmse, dtype=float)
        self.normalized = np.asarray(self.normalized, dtype=float)
        if self.normalized.ndim != 2 or not self.normalized.size:
            raise ValueError("method summary needs at least one trial trace")
        self.trace_mean, self.trace_std = _mean_std(self.normalized)


class TTestResult(NamedTuple):
    statistic: float
    pvalue: float


def two_sample_t_test(sample_a, sample_b) -> TTestResult:
    """Two-sided pooled-variance Student t-test.

    With zero pooled variance the p-value degenerates to 1 for equal means
    and 0 otherwise.  The p-value is computed through the regularized
    incomplete beta function I_{nu/(nu+t^2)}(nu/2, 1/2).
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need at least 2 elements")
    nu = a.size + b.size - 2
    pooled = (
        np.sum((a - a.mean()) ** 2) + np.sum((b - b.mean()) ** 2)
    ) / nu
    diff = float(a.mean() - b.mean())
    if pooled == 0.0:
        if diff == 0.0:
            return TTestResult(0.0, 1.0)
        return TTestResult(math.copysign(math.inf, diff), 0.0)
    t = diff / math.sqrt(pooled * (1.0 / a.size + 1.0 / b.size))
    from scipy.special import betainc  # imported here: only `report` needs scipy

    p = float(betainc(nu / 2.0, 0.5, nu / (nu + t * t)))
    return TTestResult(t, p)


@dataclass
class ExperimentReport:
    """Per-method trace summaries and selection metrics, plus the t-test.

    ``metrics[method][name]`` holds the per-trial values of one metric
    (commuting counts, Hellinger distance); the t-test compares final-epoch
    raw RMSEs of 'exact' versus 'random' and is None when either method is
    absent or has fewer than two trials.  ``early_share`` is the fraction
    of the epochs ``early_epochs`` (EARLY_EPOCHS clipped to the epochs both
    methods have) where the exact mean normalized RMSE is at or below the
    random one; both are None when either method is absent or the window is
    empty.
    """

    summaries: dict[str, MethodSummary]
    metrics: dict[str, dict[str, np.ndarray]]
    t_statistic: float | None
    p_value: float | None
    early_share: float | None
    early_epochs: range | None

    def table_rows(self) -> list[tuple[str, str, float, float]]:
        """(method, metric, mean, std) rows: the traces first, then the metrics."""
        columns = []
        for method, s in self.summaries.items():
            columns.append((method, "final_rmse", s.final_rmse))
            columns.append((method, "final_rmse_normalized", s.normalized[:, -1]))
        for method, by_name in self.metrics.items():
            columns += [(method, name, values) for name, values in by_name.items()]
        return [(m, name, *map(float, _mean_std(v))) for m, name, v in columns]

    def curves(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """(method, mean, std) of the normalized traces, one series per method."""
        return [(m, s.trace_mean, s.trace_std) for m, s in self.summaries.items()]


def _method_order(methods) -> list[str]:
    canonical = [m for m in SELECTION_METHODS if m in methods]
    return canonical + sorted(set(methods) - set(canonical))


def summarize(traces, metrics) -> ExperimentReport:
    """Aggregate trace rows and metric values into the comparison report.

    ``traces`` yields (method, trial, epoch, rmse, rmse_normalized) rows, in
    any order; ``metrics`` yields (method, metric, value) triples, one per
    trial and metric.  Methods come in SELECTION_METHODS order, others after
    them sorted; trials and epochs in index order.  Every trial of a method
    must have the same number of epochs.
    """
    by_method: dict[str, dict[int, dict[int, tuple[float, float]]]] = {}
    for method, trial, epoch, rmse, norm in traces:
        by_method.setdefault(method, {}).setdefault(trial, {})[epoch] = (rmse, norm)
    summaries = {}
    for method in _method_order(by_method):
        trials = by_method[method]
        runs = [[trials[t][e] for e in sorted(trials[t])] for t in sorted(trials)]
        if len({len(run) for run in runs}) > 1:
            raise ValueError(
                f"the trials of method {method} have inconsistent numbers of epochs"
            )
        runs = np.array(runs, dtype=float)
        summaries[method] = MethodSummary(method, runs[:, -1, 0], runs[:, :, 1])

    values: dict[str, dict[str, list[float]]] = {}
    for method, name, value in metrics:
        values.setdefault(method, {}).setdefault(name, []).append(value)
    by_name = {
        m: {k: np.array(v, dtype=float) for k, v in values[m].items()}
        for m in _method_order(values)
    }

    t_stat = p_value = None
    final = {m: s.final_rmse for m, s in summaries.items() if s.final_rmse.size >= 2}
    if "exact" in final and "random" in final:
        t_stat, p_value = two_sample_t_test(final["exact"], final["random"])
    share = epochs = None
    if "exact" in summaries and "random" in summaries:
        exact = summaries["exact"].trace_mean
        random = summaries["random"].trace_mean
        stop = min(EARLY_EPOCHS.stop, len(exact), len(random))
        if stop > EARLY_EPOCHS.start:
            epochs = range(EARLY_EPOCHS.start, stop)
            share = float(np.mean(exact[epochs] <= random[epochs]))
    return ExperimentReport(summaries, by_name, t_stat, p_value, share, epochs)


def run_comparison(
    methods: Sequence[str],
    trials: int,
    spec: DatasetSpec,
    spsa_config: SpsaConfig,
    master_seed: int = 0,
    genetic: GeneticConfig = GeneticConfig(),
) -> ExperimentReport:
    """Train every method on one shared dataset across seeded trials.

    Every (method, trial) cell trains in one batch (``train_cells``).  The
    trials' trace rows and selection metrics go through ``summarize``,
    the same aggregation that ``gensel report`` applies to the CSVs.
    """
    dataset, _ = generate_dataset(spec)
    cells = [(method, t) for method in methods for t in range(trials)]
    records = train_cells(cells, master_seed, dataset, spec, spsa_config, genetic)
    traces, metrics = [], []
    for (method, t), record in zip(cells, records):
        traces += trace_rows(record, t)
        counts = evaluate_selection(record.chosen, spec.observable)
        metrics += [(method, k, v) for k, v in counts._asdict().items()]
    return summarize(traces, metrics)
