"""End-to-end comparison harness: data generation, training, expressibility.

A single synthetic regression dataset is produced by a randomly drawn
teacher circuit; every selection method is then trained against that shared
dataset over many seeded trials.  Each trial selects its circuit through
``selection.select_for_method``, and ``trial_models`` builds the one pool
problem that a run's cells share.  Expressibility of a circuit is the
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
from .pauli import PauliString, random_strings
from .selection import (
    SELECTION_METHODS,
    GeneticConfig,
    SelectionProblem,
    evaluate_selection,
    select_for_method,
)
from .simulator import CircuitModel, run_model_batch, state_overlaps

__all__ = [
    "DatasetSpec",
    "ExpressibilityConfig",
    "Teacher",
    "MethodSummary",
    "ExperimentReport",
    "TTestResult",
    "derive_seed",
    "generate_dataset",
    "haar_bin_probs",
    "hellinger_distance",
    "expressibility_hellinger",
    "trial_models",
    "train_cells",
    "trace_columns",
    "summarize",
    "run_comparison",
    "two_sample_t_test",
]

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
    model = CircuitModel(spec.n, random_strings(spec.n, spec.depth, rng), spec.observable)
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


def trial_models(
    cells: Sequence[tuple[str, int]],
    master_seed: int,
    spec: DatasetSpec,
    genetic: GeneticConfig = GeneticConfig(),
) -> list[tuple[int, CircuitModel]]:
    """Seed of each (method, trial) cell and the circuit its selection builds.

    The cells that draw from the pool (every method but random and
    pair_only) share one selection problem, built here once: the masks of
    the observable's pool at the spec's depth.
    """
    observable, problem = spec.observable, None
    if {method for method, _ in cells} & {"exact", "greedy", "genetic", "grad_only"}:
        problem = SelectionProblem(observable, None, spec.depth)
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


def trace_columns(records: Sequence[TrialRecord], trials: Sequence[int]) -> list:
    """The (method, trial, epoch, rmse, rmse_normalized) columns of the
    records' trace points, record by record; record i is trial trials[i].
    The method column is a list, the others are arrays."""
    points = [len(r.rmse_trace) for r in records]
    return [
        [method for r, k in zip(records, points) for method in [r.method] * k],
        np.repeat(np.asarray(trials, dtype=np.int64), points),
        np.concatenate([np.arange(0), *map(np.arange, points)]),
        np.concatenate([np.zeros(0), *(r.rmse_trace for r in records)]),
        np.concatenate([np.zeros(0), *(r.normalized_trace for r in records)]),
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


def _betainc_half(a: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, 1/2), a > 0, 0 <= x <= 1.

    The continued fraction of Press et al., Numerical Recipes (3rd ed.,
    section 6.4), evaluated by Lentz's method: on I_x(a, b) itself below
    x = (a + 1) / (a + b + 2), and past it on I_{1-x}(b, a) = 1 - I_x(a, b),
    where it converges fast.  The prefactor y^p (1-y)^q / (p B(p, q)) is
    formed in log space, so a result near the smallest double does not
    underflow on the way.  RuntimeError if the fraction does not converge.
    """
    if not 0.0 < x < 1.0:  # I_0 = 0 and I_1 = 1; a NaN stays NaN
        return x
    max_terms, tiny = 10_000, 1e-300
    flip = x >= (a + 1.0) / (a + 2.5)
    p, q, y = (0.5, a, 1.0 - x) if flip else (a, 0.5, x)
    log_front = (
        math.lgamma(p + q) - math.lgamma(p) - math.lgamma(q)
        + p * math.log(y) + q * math.log1p(-y) - math.log(p)
    )
    c, d = 1.0, 1.0 - (p + q) * y / (p + 1.0)
    d = 1.0 / (tiny if abs(d) < tiny else d)
    fraction = d
    for m in range(1, max_terms + 1):
        for num in (
            m * (q - m) * y / ((p + 2 * m - 1) * (p + 2 * m)),
            -(p + m) * (p + q + m) * y / ((p + 2 * m) * (p + 2 * m + 1)),
        ):
            d, c = 1.0 + num * d, 1.0 + num / c
            d = 1.0 / (tiny if abs(d) < tiny else d)
            c = tiny if abs(c) < tiny else c
            fraction *= c * d
        if abs(c * d - 1.0) < 1e-15:
            tail = math.exp(log_front + math.log(fraction))
            return 1.0 - tail if flip else tail
    raise RuntimeError(f"I_x(a, 1/2) at a = {a:g}, x = {x:g} did not converge")


def two_sample_t_test(sample_a, sample_b) -> TTestResult:
    """Two-sided pooled-variance Student t-test.

    With zero pooled variance the p-value degenerates to 1 for equal means
    and 0 otherwise.  The p-value is the regularized incomplete beta function
    I_{nu/(nu+t^2)}(nu/2, 1/2), by Lentz's continued fraction (Numerical
    Recipes section 6.4; ``_betainc_half``).
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
    return TTestResult(t, _betainc_half(nu / 2.0, nu / (nu + t * t)))


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
    """Aggregate trace columns and metric values into the comparison report.

    ``traces`` holds the (method, trial, epoch, rmse, rmse_normalized)
    columns of the trace points, as `trace_columns` returns them: sequences
    or arrays of one length, the points in any order.  ``metrics`` yields
    (method, metric, value) triples, one per trial and metric.  Methods come
    in SELECTION_METHODS order, others after them sorted; trials and epochs
    in index order.  Every trial of a method must have the same number of
    epochs, and no (method, trial, epoch) may repeat.
    """
    method_column, *numbers = traces
    methods = np.asarray(method_column, dtype=object)
    index = np.array(numbers[:2], dtype=np.int64)  # trial, epoch
    points = np.array(numbers[2:], dtype=float)  # rmse, rmse_normalized
    summaries = {}
    for method in _method_order(set(methods)):
        # An object scalar: NumPy would cast a str to its str dtype, which
        # drops trailing NULs.
        rows = np.flatnonzero(methods == np.array(method, dtype=object))
        rows = rows[np.lexsort(index[::-1, rows])]  # by trial, then epoch
        trial, epoch = index[:, rows]
        repeats = (trial[1:] == trial[:-1]) & (epoch[1:] == epoch[:-1])
        if repeats.any():
            k = repeats.argmax()
            row = f"method {method}, trial {trial[k]}, epoch {epoch[k]}"
            raise ValueError(f"duplicate trace row: {row}")
        counts = np.unique(trial, return_counts=True)[1]
        if counts.min() != counts.max():
            raise ValueError(
                f"the trials of method {method} have inconsistent numbers of epochs"
            )
        runs = points[:, rows].reshape(2, len(counts), counts[0])
        summaries[method] = MethodSummary(method, runs[0, :, -1], runs[1])

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
    trials' trace columns and selection metrics go through ``summarize``,
    the same aggregation that ``gensel report`` applies to the CSVs.  No
    expressibility runs here, so the report has no ``hellinger`` rows.
    """
    dataset, _ = generate_dataset(spec)
    cells = [(method, t) for method in methods for t in range(trials)]
    records = train_cells(cells, master_seed, dataset, spec, spsa_config, genetic)
    metrics = []
    for (method, _), record in zip(cells, records):
        counts = evaluate_selection(record.chosen, spec.observable)
        metrics += [(method, k, v) for k, v in counts._asdict().items()]
    traces = trace_columns(records, [t for _, t in cells])
    return summarize(traces, metrics)
