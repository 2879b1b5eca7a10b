"""Command-line interface: selection, data generation, training, reports.

Subcommands: select, gen-data, train, expressibility, verify-theory, report.
Every run resolves its configuration from defaults, an optional INI-style
--config file (sections [dataset], [spsa], [expressibility], [genetic]) and
command-line flags, in that order of precedence, and logs the resolved
configuration next to its output for provenance.  All randomness flows from
the master seed (--seed, or the GENSEL_SEED environment variable), so any
subcommand rerun with identical flags produces byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .experiments import (
    DatasetSpec,
    ExpressibilityConfig,
    GeneticConfig,
    SELECTION_METHODS,
    derive_seed,
    expressibility_hellinger,
    generate_dataset,
    run_trial,
    select_for_method,
    two_sample_t_test,
)
from .optimizer import SpsaConfig
from .pauli import PauliString
from .selection import evaluate_selection
from .simulator import CircuitModel
from .svg import write_curves_svg
from .theory import (
    ObservableInAlgebra,
    casimir_constant,
    random_observable,
    verify_lemma1,
    verify_lemma2_and_theorem2,
    verify_theorem1,
)

__all__ = ["main", "parse_and_dispatch"]

_METHOD_CHOICES = ("exact", "greedy", "genetic", "random", "grad-only", "pair-only")


class _Parser(argparse.ArgumentParser):
    """Argument parser that fails with a single machine-parsable line."""

    def error(self, message):
        print(f"error: argument: {message}", file=sys.stderr)
        raise SystemExit(2)


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _write_provenance(anchor: Path, subcommand: str, options: dict) -> None:
    path = Path(str(anchor) + ".config.txt")
    lines = [f"subcommand = {subcommand}"]
    for key in sorted(options):
        lines.append(f"{key} = {options[key]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if path is not None:
        if not Path(path).is_file():
            raise FileNotFoundError(f"config file not found: {path}")
        cfg.read(path)
    return cfg


def _cfg_get(cfg, section, key, cast, default):
    if cfg.has_option(section, key):
        return cast(cfg.get(section, key))
    return default


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        seed = flag_value
    else:
        env = os.environ.get("GENSEL_SEED")
        if env is None:
            return 0
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"GENSEL_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValueError(f"master seed must be non-negative, got {seed}")
    return seed


def _dataset_spec(cfg, n=None, depth=None) -> DatasetSpec:
    base = DatasetSpec()
    return DatasetSpec(
        n=n if n is not None else _cfg_get(cfg, "dataset", "n", int, base.n),
        depth=depth
        if depth is not None
        else _cfg_get(cfg, "dataset", "depth", int, base.depth),
        theta_range=(
            _cfg_get(cfg, "dataset", "theta_min", float, base.theta_range[0]),
            _cfg_get(cfg, "dataset", "theta_max", float, base.theta_range[1]),
        ),
        input_range=(
            _cfg_get(cfg, "dataset", "input_min", float, base.input_range[0]),
            _cfg_get(cfg, "dataset", "input_max", float, base.input_range[1]),
        ),
        samples=_cfg_get(cfg, "dataset", "samples", int, base.samples),
        teacher_seed=_cfg_get(cfg, "dataset", "teacher_seed", int, base.teacher_seed),
    )


def _spsa_config(cfg, epochs=None, seed=None) -> SpsaConfig:
    base = SpsaConfig()
    return SpsaConfig(
        learning_rate=_cfg_get(cfg, "spsa", "learning_rate", float, base.learning_rate),
        momentum=_cfg_get(cfg, "spsa", "momentum", float, base.momentum),
        perturbation=_cfg_get(cfg, "spsa", "perturbation", float, base.perturbation),
        epochs=epochs
        if epochs is not None
        else _cfg_get(cfg, "spsa", "epochs", int, base.epochs),
        init_range=_cfg_get(cfg, "spsa", "init_range", float, base.init_range),
        seed=seed if seed is not None else _cfg_get(cfg, "spsa", "seed", int, base.seed),
    )


def _expr_config(cfg, samples=None, bins=None, seed=None) -> ExpressibilityConfig:
    base = ExpressibilityConfig()
    return ExpressibilityConfig(
        fidelity_samples=samples
        if samples is not None
        else _cfg_get(cfg, "expressibility", "fidelity_samples", int, base.fidelity_samples),
        bins=bins
        if bins is not None
        else _cfg_get(cfg, "expressibility", "bins", int, base.bins),
        param_range=(
            _cfg_get(cfg, "expressibility", "param_min", float, base.param_range[0]),
            _cfg_get(cfg, "expressibility", "param_max", float, base.param_range[1]),
        ),
        seed=seed if seed is not None else base.seed,
    )


def _genetic_config(cfg) -> GeneticConfig:
    base = GeneticConfig()
    return GeneticConfig(
        population=_cfg_get(cfg, "genetic", "population", int, base.population),
        generations=_cfg_get(cfg, "genetic", "generations", int, base.generations),
        mutation_rate=_cfg_get(cfg, "genetic", "mutation_rate", float, base.mutation_rate),
    )


def _parse_observable(label: str, n: int | None) -> PauliString:
    observable = PauliString.from_label(label)
    if n is not None and observable.n != n:
        raise ValueError(
            f"observable {label!r} acts on {observable.n} qubits but --n is {n}"
        )
    if observable.is_identity:
        raise ValueError("observable must be non-identity")
    return observable


def _method_tag(flag: str) -> str:
    return flag.replace("-", "_")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_select(args) -> int:
    cfg = _load_config(args.config)
    seed = _resolve_seed(args.seed)
    n = args.n if args.n is not None else (len(args.observable) if args.observable else 5)
    label = args.observable if args.observable else "Z" + "I" * (n - 1)
    observable = _parse_observable(label, n)
    method = _method_tag(args.method)
    genetic = _genetic_config(cfg)
    result = select_for_method(
        method,
        observable,
        args.depth,
        seed,
        genetic=genetic,
        pool_subsample=args.pool_subsample,
    )
    metrics = evaluate_selection(result.chosen, observable)
    header = (
        ["method", "seed"]
        + [f"generator_{i + 1}" for i in range(args.depth)]
        + ["score", "n_commute_obs", "n_commute_pairs"]
    )
    row = (
        [result.method, seed]
        + [g.label for g in result.chosen]
        + [result.score, metrics.n_commute_obs, metrics.n_commute_pairs]
    )
    _write_csv(args.out, header, [row])
    _write_provenance(
        Path(args.out),
        "select",
        {
            "n": n,
            "observable": observable.label,
            "depth": args.depth,
            "method": method,
            "seed": seed,
            "pool_subsample": args.pool_subsample,
            "out": args.out,
        },
    )
    return 0


def _cmd_gen_data(args) -> int:
    cfg = _load_config(args.config)
    seed = _resolve_seed(args.seed)
    spec = _dataset_spec(cfg)
    spec = DatasetSpec(
        n=spec.n,
        depth=spec.depth,
        theta_range=spec.theta_range,
        input_range=spec.input_range,
        samples=spec.samples,
        teacher_seed=seed,
    )
    dataset, _ = generate_dataset(spec)
    rows = [[i, x, y] for i, (x, y) in enumerate(dataset)]
    _write_csv(args.out, ["index", "x", "y"], rows)
    _write_provenance(
        Path(args.out),
        "gen-data",
        {
            "n": spec.n,
            "depth": spec.depth,
            "samples": spec.samples,
            "teacher_seed": seed,
            "theta_range": spec.theta_range,
            "input_range": spec.input_range,
            "out": args.out,
        },
    )
    return 0


def _read_dataset_csv(path: str) -> list[tuple[float, float]]:
    if not Path(path).is_file():
        raise FileNotFoundError(f"data file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"x", "y"} <= set(reader.fieldnames):
            raise ValueError(f"data file {path} must have 'x' and 'y' columns")
        return [(float(row["x"]), float(row["y"])) for row in reader]


def _train_one(payload):
    method, trial, master_seed, dataset, spec, spsa, genetic = payload
    record = run_trial(method, trial, master_seed, dataset, spec, spsa, genetic)
    return [
        [method, trial, epoch, float(rmse), float(norm)]
        for epoch, (rmse, norm) in enumerate(
            zip(record.rmse_trace, record.normalized_trace)
        )
    ]


def _cmd_train(args) -> int:
    cfg = _load_config(args.config)
    master_seed = _resolve_seed(args.seed)
    dataset = _read_dataset_csv(args.data)
    spec = _dataset_spec(cfg)
    spsa = _spsa_config(cfg, epochs=args.epochs)
    genetic = _genetic_config(cfg)
    methods = [_method_tag(m) for m in (args.method or ["exact"])]
    payloads = [
        (method, trial, master_seed, dataset, spec, spsa, genetic)
        for method in methods
        for trial in range(args.trials)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            chunks = list(pool.map(_train_one, payloads))
    else:
        chunks = [_train_one(p) for p in payloads]
    rows = [row for chunk in chunks for row in chunk]
    _write_csv(
        args.out, ["method", "trial", "epoch", "rmse", "rmse_normalized"], rows
    )
    _write_provenance(
        Path(args.out),
        "train",
        {
            "data": args.data,
            "methods": ",".join(methods),
            "trials": args.trials,
            "epochs": spsa.epochs,
            "seed": master_seed,
            "jobs": args.jobs,
            "learning_rate": spsa.learning_rate,
            "momentum": spsa.momentum,
            "perturbation": spsa.perturbation,
            "init_range": spsa.init_range,
            "n": spec.n,
            "depth": spec.depth,
            "out": args.out,
        },
    )
    return 0


def _cmd_expressibility(args) -> int:
    cfg = _load_config(args.config)
    master_seed = _resolve_seed(args.seed)
    spec = _dataset_spec(cfg)
    genetic = _genetic_config(cfg)
    methods = [_method_tag(m) for m in (args.method or ["exact"])]
    rows = []
    for method in methods:
        for trial in range(args.trials):
            seed = derive_seed(master_seed, method, trial)
            selection = select_for_method(
                method, spec.observable, spec.depth, seed, genetic=genetic
            )
            model = CircuitModel(spec.n, selection.chosen, spec.observable)
            expr_cfg = _expr_config(
                cfg, samples=args.samples, bins=args.bins, seed=seed
            )
            distance = expressibility_hellinger(model, expr_cfg)
            metrics = evaluate_selection(selection.chosen, spec.observable)
            rows.append(
                [
                    method,
                    trial,
                    metrics.n_commute_obs,
                    metrics.n_commute_pairs,
                    float(distance),
                ]
            )
    _write_csv(
        args.out,
        ["method", "trial", "n_commute_obs", "n_commute_pairs", "hellinger"],
        rows,
    )
    _write_provenance(
        Path(args.out),
        "expressibility",
        {
            "methods": ",".join(methods),
            "trials": args.trials,
            "samples": args.samples,
            "bins": args.bins,
            "seed": master_seed,
            "n": spec.n,
            "depth": spec.depth,
            "out": args.out,
        },
    )
    return 0


def _verify_rows(observables, n):
    d = 1 << n
    c = casimir_constant(n)
    rows = []
    for o in observables:
        thm1 = verify_theorem1(o)
        lem1 = verify_lemma1(o)
        lem2 = verify_lemma2_and_theorem2(o)
        scale1 = max(abs(thm1.rhs), 1e-300)
        scale2 = max(abs(lem1.rhs), 1e-300)
        rel_errs = (
            abs(thm1.lhs - thm1.rhs) / scale1,
            abs(lem1.lhs - lem1.rhs) / scale2,
            max(0.0, lem2.lower_bound - lem2.diag_sum) / scale2,
            max(0.0, lem2.offdiag_sum - lem2.upper_bound) / scale2,
        )
        rows.append(
            [
                n,
                d,
                float(c),
                float(thm1.lhs),
                float(thm1.rhs),
                float(lem1.lhs),
                float(lem1.rhs),
                float(lem2.diag_sum),
                float(lem2.offdiag_sum),
                float(lem2.lower_bound),
                float(lem2.upper_bound),
                float(max(rel_errs)),
            ]
        )
    return rows


def _cmd_verify_theory(args) -> int:
    seed = _resolve_seed(args.seed)
    n = args.n
    observables = []
    if args.observable:
        p = _parse_observable(args.observable, n)
        observables.append(ObservableInAlgebra.single(p))
    rng = np.random.default_rng(seed)
    max_terms = args.max_terms
    if max_terms is None and n >= 4:
        max_terms = 8
    for _ in range(args.trials):
        observables.append(random_observable(n, rng, max_terms=max_terms))
    rows = _verify_rows(observables, n)
    header = [
        "n",
        "d",
        "c_measured",
        "thm1_lhs",
        "thm1_rhs",
        "lemma1_lhs",
        "lemma1_rhs",
        "diag_sum",
        "offdiag_sum",
        "lower_bound",
        "upper_bound",
        "max_rel_err",
    ]
    _write_csv(args.report, header, rows)
    _write_provenance(
        Path(args.report),
        "verify-theory",
        {
            "n": n,
            "trials": args.trials,
            "seed": seed,
            "max_terms": max_terms,
            "observable": args.observable,
            "report": args.report,
        },
    )
    return 0


def _read_table(path: str) -> list[dict]:
    if not Path(path).is_file():
        raise FileNotFoundError(f"file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _method_order(methods) -> list[str]:
    canonical = [m for m in SELECTION_METHODS if m in methods]
    extras = sorted(set(methods) - set(canonical))
    return canonical + extras


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def _cmd_report(args) -> int:
    traces = _read_table(args.traces)
    if not traces:
        raise ValueError(f"no training traces in {args.traces}")
    expr = _read_table(args.expr)

    by_method: dict[str, dict[int, dict[int, tuple[float, float]]]] = {}
    for row in traces:
        method = row["method"]
        trial = int(row["trial"])
        epoch = int(row["epoch"])
        by_method.setdefault(method, {}).setdefault(trial, {})[epoch] = (
            float(row["rmse"]),
            float(row["rmse_normalized"]),
        )

    table_rows = []
    series = []
    final_rmse: dict[str, list[float]] = {}
    for method in _method_order(by_method):
        trials = by_method[method]
        epoch_count = None
        norm_rows = []
        raw_final = []
        for trial in sorted(trials):
            epochs = sorted(trials[trial])
            if epoch_count is None:
                epoch_count = len(epochs)
            elif epoch_count != len(epochs):
                raise ValueError(
                    f"trial {trial} of method {method} has an inconsistent "
                    "number of epochs"
                )
            norm_rows.append([trials[trial][e][1] for e in epochs])
            raw_final.append(trials[trial][epochs[-1]][0])
        final_rmse[method] = raw_final
        matrix = np.asarray(norm_rows)
        mean = matrix.mean(axis=0)
        std = (
            matrix.std(axis=0, ddof=1)
            if matrix.shape[0] > 1
            else np.zeros(matrix.shape[1])
        )
        series.append((method, mean, std))
        m, s = _mean_std(raw_final)
        table_rows.append([method, "final_rmse", m, s])
        m, s = _mean_std([row[-1] for row in norm_rows])
        table_rows.append([method, "final_rmse_normalized", m, s])

    expr_by_method: dict[str, dict[str, list[float]]] = {}
    for row in expr:
        rec = expr_by_method.setdefault(
            row["method"],
            {"n_commute_obs": [], "n_commute_pairs": [], "hellinger": []},
        )
        rec["n_commute_obs"].append(float(row["n_commute_obs"]))
        rec["n_commute_pairs"].append(float(row["n_commute_pairs"]))
        rec["hellinger"].append(float(row["hellinger"]))
    for method in _method_order(expr_by_method):
        for metric in ("n_commute_obs", "n_commute_pairs", "hellinger"):
            m, s = _mean_std(expr_by_method[method][metric])
            table_rows.append([method, metric, m, s])

    _write_csv(args.out_table, ["method", "metric", "mean", "std"], table_rows)
    if series:
        write_curves_svg(
            args.out_curves,
            series,
            title="training curves",
            deterministic=args.deterministic,
        )

    if (
        "exact" in final_rmse
        and "random" in final_rmse
        and len(final_rmse["exact"]) >= 2
        and len(final_rmse["random"]) >= 2
    ):
        t, p = two_sample_t_test(final_rmse["exact"], final_rmse["random"])
        print(f"t-test (exact vs random, final epoch): t={t:.6g} p={p:.6g}")
    else:
        print("t-test (exact vs random, final epoch): not available")

    _write_provenance(
        Path(args.out_table),
        "report",
        {
            "traces": args.traces,
            "expr": args.expr,
            "out_table": args.out_table,
            "out_curves": args.out_curves,
            "deterministic": args.deterministic,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="gensel", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI-style config file")
        p.add_argument("--seed", type=int, help="master seed (default: GENSEL_SEED or 0)")

    p = sub.add_parser("select", help="select generators for an observable")
    add_common(p)
    p.add_argument("--n", type=int, help="qubit count")
    p.add_argument("--observable", help="Pauli label, e.g. ZIIII")
    p.add_argument("--depth", type=int, default=5, help="number of generators L")
    p.add_argument("--method", choices=_METHOD_CHOICES, default="exact")
    p.add_argument("--pool-subsample", type=int, help="random pool subsample size")
    p.add_argument("--out", default="select.csv")
    p.set_defaults(handler=_cmd_select)

    p = sub.add_parser("gen-data", help="generate the synthetic teacher dataset")
    add_common(p)
    p.add_argument("--out", default="data.csv")
    p.set_defaults(handler=_cmd_gen_data)

    p = sub.add_parser("train", help="train circuits against a dataset")
    add_common(p)
    p.add_argument("--data", default="data.csv", help="input dataset CSV")
    p.add_argument(
        "--method",
        choices=_METHOD_CHOICES,
        action="append",
        help="selection method; repeat for several (default: exact)",
    )
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--epochs", type=int, help="override epoch count")
    p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    p.add_argument("--out", default="traces.csv")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("expressibility", help="estimate circuit expressibility")
    add_common(p)
    p.add_argument(
        "--method",
        choices=_METHOD_CHOICES,
        action="append",
        help="selection method; repeat for several (default: exact)",
    )
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--samples", type=int, help="fidelity sample pairs")
    p.add_argument("--bins", type=int, help="histogram bins")
    p.add_argument("--out", default="expr.csv")
    p.set_defaults(handler=_cmd_expressibility)

    p = sub.add_parser("verify-theory", help="check the commutator-sum identities")
    add_common(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--trials", type=int, default=5, help="random observables")
    p.add_argument("--observable", help="additional single-string observable")
    p.add_argument(
        "--max-terms",
        type=int,
        help="basis terms per random observable (default: full basis, 8 for n >= 4)",
    )
    p.add_argument("--report", default="theory.csv")
    p.set_defaults(handler=_cmd_verify_theory)

    p = sub.add_parser("report", help="aggregate traces and expressibility CSVs")
    add_common(p)
    p.add_argument("--traces", default="traces.csv")
    p.add_argument("--expr", default="expr.csv")
    p.add_argument("--out-table", default="table1.csv")
    p.add_argument("--out-curves", default="curves.svg")
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="omit the generation comment from the SVG",
    )
    p.set_defaults(handler=_cmd_report)

    return parser


def parse_and_dispatch(argv=None) -> int:
    """Parse arguments and run the selected subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return parse_and_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
