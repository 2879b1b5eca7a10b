"""Command-line interface: selection, data generation, training, reports.

Subcommands: select, gen-data, train, expressibility, verify-theory, report.
Every run resolves its configuration from defaults, an optional INI-style
--config file (sections [dataset], [spsa], [expressibility], [genetic]) and
command-line flags, in that order of precedence.  All randomness flows from
the master seed (--seed, or the GENSEL_SEED environment variable), so any
subcommand rerun with identical flags produces byte-identical CSV output.

Next to each CSV a run writes <csv>.config.txt: a "# subcommand = ..." line
and a "# flag = value" line per parsed flag (the seed resolved), then one
config section per settings dataclass the run resolved, every field set.
Passed back as --config with the same flags, it reproduces the CSV.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import io
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .experiments import (
    DatasetSpec,
    ExpressibilityConfig,
    expressibility_hellinger,
    generate_dataset,
    summarize,
    trace_columns,
    train_cells,
    trial_models,
)
from .optimizer import SpsaConfig
from .pauli import PauliString
from .selection import (
    SELECTION_METHODS,
    GeneticConfig,
    evaluate_selection,
    select_for_method,
)
from .svg import write_curves_svg
from .theory import (
    IdentityCheck,
    ObservableInAlgebra,
    random_observable,
    verify_identities,
)

__all__ = ["main", "parse_and_dispatch"]

_METHOD_CHOICES = tuple(m.replace("_", "-") for m in SELECTION_METHODS)

_TRACE_COLUMNS = ("method", "trial", "epoch", "rmse", "rmse_normalized")
_EXPR_METRICS = ("n_commute_obs", "n_commute_pairs", "hellinger")
_EXPR_COLUMNS = ("method", "trial", *_EXPR_METRICS)
# The type `_read_table` reads each column of traces.csv and expr.csv as.
_TRACE_TYPES = dict(zip(_TRACE_COLUMNS, (str, int, int, float, float)))
_EXPR_TYPES = dict(zip(_EXPR_COLUMNS, (str, int, float, float, float)))
_DTYPES = {int: np.int64, float: np.float64}

# The config-file section that sets the fields of each dataclass.
_SECTIONS = {
    DatasetSpec: "dataset",
    SpsaConfig: "spsa",
    ExpressibilityConfig: "expressibility",
    GeneticConfig: "genetic",
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that fails with a single machine-parsable line."""

    def error(self, message):
        print(f"error: argument: {message}", file=sys.stderr)
        raise SystemExit(2)


# csv.writer with lineterminator="\r\n" writes a field as it is unless it
# holds one of these or is the empty field of a one-field row; the str of a
# number is neither.
_CSV_SPECIAL = frozenset(',"\r\n')
_NUMBERS = (int, float, np.number)


class _CsvFields(dict):
    """Text -> its CSV field, filled on lookup by csv.writer's own
    QUOTE_MINIMAL rule; ``lone`` for rows of one field, where "" is quoted.

    The writer's line terminator is "\r\n", so text holding a bare CR is
    quoted too: csv.reader would end the row there otherwise.
    """

    def __init__(self, lone: bool):
        super().__init__()
        self.lone = lone
        self.buffer = io.StringIO()
        self.writer = csv.writer(self.buffer, lineterminator="\r\n")

    def __missing__(self, text):
        field = text
        if not text or _CSV_SPECIAL.intersection(text):
            self.buffer.seek(0)
            self.buffer.truncate()
            self.writer.writerow([text] if self.lone else [text, "x"])
            field = self.buffer.getvalue()[: -2 if self.lone else -4]
        self[text] = field
        return field


def _write_csv(path, header, columns) -> None:
    """Write the columns as CSV under the header: the rows csv.writer with
    lineterminator="\r\n" writes, each ended by "\n" instead.

    As there, a text cell is written as it is and None as "", any other cell
    through str (a float as its shortest round-trip repr), then quoted by
    csv's QUOTE_MINIMAL rule.  A float64 or integer array column is formatted
    from ``tolist()``.
    """
    fields = _CsvFields(len(header) == 1)

    def cells(column):
        if isinstance(column, np.ndarray):
            if column.dtype == np.float64 or column.dtype.kind in "iu":
                return map(repr, column.tolist())  # str, for a float or an int
        return [
            fields[v] if isinstance(v, str)
            else str(v) if isinstance(v, _NUMBERS)
            else fields["" if v is None else str(v)]
            for v in column
        ]

    lines = [",".join(cells(header)), *map(",".join, zip(*map(cells, columns)))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# Seeds come from --seed or GENSEL_SEED, so no config key sets these fields.
_SEED_FIELDS = ("seed", "teacher_seed")


def _config_fields(cls):
    """(field, config keys) for each field of ``cls`` that a config file sets.

    A (low, high) field ``<stem>_range`` has the keys ``<stem>_min`` and
    ``<stem>_max``; any other field, the key of its own name.
    """
    for f in fields(cls):
        if f.name in _SEED_FIELDS:
            continue
        if isinstance(f.default, tuple):
            stem = f.name.removesuffix("_range")
            yield f, (f"{stem}_min", f"{stem}_max")
        else:
            yield f, (f.name,)


def _load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if path is not None:
        if not Path(path).is_file():
            raise FileNotFoundError(f"config file not found: {path}")
        cfg.read(path)
    classes = {section: cls for cls, section in _SECTIONS.items()}
    for section in cfg.sections():
        if section not in classes:
            raise ValueError(f"[{section}] is not a config section")
        known = {k for _, keys in _config_fields(classes[section]) for k in keys}
        for key in cfg.options(section):
            if key not in known:
                raise ValueError(f"[{section}] {key} is not a config key")
    return cfg


def _option(cfg, section: str, key: str, default):
    if not cfg.has_option(section, key):
        return default
    raw = cfg.get(section, key)
    try:
        value = type(default)(raw)
    except ValueError:
        kind = type(default).__name__
        raise ValueError(f"[{section}] {key} must be {kind}, got {raw!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def _section(cfg, cls, **flags):
    """``cls`` built from its defaults, its config section, then non-None flags.

    A field's default gives the type its value is cast to.
    """
    section = _SECTIONS[cls]
    values = {}
    for f, keys in _config_fields(cls):
        if isinstance(f.default, tuple):
            values[f.name] = tuple(
                _option(cfg, section, k, d) for k, d in zip(keys, f.default)
            )
        else:
            values[f.name] = _option(cfg, section, f.name, f.default)
    values.update((k, v) for k, v in flags.items() if v is not None)
    return cls(**values)


def _write_outputs(args, path, header, columns, *settings) -> None:
    """Write the CSV ``path`` and its sidecar ``<path>.config.txt``.

    The sidecar is a config file: ``# subcommand`` and ``# flag = value``
    comments (the seed resolved), then one section per dataclass in
    ``settings``, keyed as `_section` reads it.
    """
    _write_csv(path, header, columns)
    lines = [f"# subcommand = {args.subcommand}"]
    for flag, value in vars(args).items():
        if flag not in ("subcommand", "handler"):
            value = ",".join(value) if isinstance(value, list) else value
            lines.append(f"# {flag} = {value}")
    for obj in settings:
        lines += ["", f"[{_SECTIONS[type(obj)]}]"]
        for f, keys in _config_fields(type(obj)):
            value = getattr(obj, f.name)
            values = value if isinstance(f.default, tuple) else (value,)
            lines += [f"{key} = {v}" for key, v in zip(keys, values)]
    Path(f"{path}.config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


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


def _cmd_select(args, cfg) -> int:
    n = args.n if args.n is not None else (len(args.observable) if args.observable else 5)
    label = args.observable if args.observable else "Z" + "I" * (n - 1)
    observable = _parse_observable(label, n)
    method = _method_tag(args.method)
    genetic = _section(cfg, GeneticConfig)
    result = select_for_method(
        method,
        observable,
        args.depth,
        args.seed,
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
        [result.method, args.seed]
        + [g.label for g in result.chosen]
        + [result.score, metrics.n_commute_obs, metrics.n_commute_pairs]
    )
    _write_outputs(args, args.out, header, [[v] for v in row], genetic)
    return 0


def _cmd_gen_data(args, cfg) -> int:
    spec = _section(cfg, DatasetSpec, teacher_seed=args.seed)
    dataset, _ = generate_dataset(spec)
    columns = [range(len(dataset)), *zip(*dataset)]
    _write_outputs(args, args.out, ["index", "x", "y"], columns, spec)
    return 0


def _read_table(path: str, columns: dict[str, type]) -> list:
    """The named columns of a CSV file with a header row.

    ``columns`` maps each name to str, int or float.  The body is read in one
    np.loadtxt pass: an int or float column comes back as an int64 or float64
    array, a str column as an object array of str.  A file loadtxt refuses
    (a row of the wrong width, a token such as "1_0" that int() or float()
    accepts) is read again by `_read_rows`.
    """
    if not Path(path).is_file():
        raise FileNotFoundError(f"file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path} has no column {', '.join(missing)}")
        kinds = {header.index(c): _DTYPES.get(t, object) for c, t in columns.items()}
        dtype = np.dtype([(f"f{i}", kinds.get(i, object)) for i in range(len(header))])
        # Blank lines hold no row; with no other line, loadtxt would warn.
        first = next((line for line in fh if line.strip("\r\n")), None)
        if first is None:
            table = np.zeros(0, dtype)
        else:
            from itertools import chain

            try:
                table = np.loadtxt(
                    chain([first], fh), dtype, delimiter=",", comments=None,
                    quotechar='"', ndmin=1,
                )
            except ValueError:
                return _read_rows(path, columns)
    return [table[f"f{header.index(c)}"] for c in columns]


def _read_rows(path: str, columns: dict[str, type]) -> list[tuple]:
    """`_read_table` through csv.reader and int() / float(): each column a
    tuple, and Python's own message for a token they refuse."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [row for row in reader if row]  # blank lines hold no row
    widths = set(map(len, rows)) - {len(header)}
    if widths:
        raise ValueError(
            f"{path} has a row of {min(widths)} fields under {len(header)} columns"
        )
    table = list(zip(*rows)) or [()] * len(header)
    return [tuple(map(kind, table[header.index(c)])) for c, kind in columns.items()]


def _cmd_train(args, cfg) -> int:
    xs, ys = np.asarray(_read_table(args.data, {"x": float, "y": float}), dtype=float)
    bad = ~(np.isfinite(xs) & np.isfinite(ys))
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(
            f"{args.data} row {row + 1} is not finite: "
            f"x = {float(xs[row])}, y = {float(ys[row])}"
        )
    dataset = list(zip(xs.tolist(), ys.tolist()))
    spec = _section(cfg, DatasetSpec)
    spsa = _section(cfg, SpsaConfig, epochs=args.epochs)
    genetic = _section(cfg, GeneticConfig)
    methods = [_method_tag(m) for m in (args.method or ["exact"])]
    cells = [(method, trial) for method in methods for trial in range(args.trials)]
    # Worker k trains every jobs-th cell from cell k as one batch, so each
    # gets a share of every method; a trial's trace does not depend on its
    # batch, so any split writes the same rows.
    jobs = max(1, min(args.jobs, len(cells)))
    payloads = [
        (cells[k::jobs], args.seed, dataset, spec, spsa, genetic) for k in range(jobs)
    ]
    if jobs > 1:
        # Imported here: the pool module adds about 10 ms to every start.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(train_cells, *zip(*payloads)))
    else:
        chunks = [train_cells(*p) for p in payloads]
    records = [chunks[i % jobs][i // jobs] for i in range(len(cells))]
    columns = trace_columns(records, [trial for _, trial in cells])
    _write_outputs(args, args.out, _TRACE_COLUMNS, columns, spec, spsa, genetic)
    return 0


def _cmd_expressibility(args, cfg) -> int:
    spec = _section(cfg, DatasetSpec)
    genetic = _section(cfg, GeneticConfig)
    expr_cfg = _section(
        cfg, ExpressibilityConfig, fidelity_samples=args.samples, bins=args.bins
    )
    methods = [_method_tag(m) for m in (args.method or ["exact"])]
    cells = [(method, trial) for method in methods for trial in range(args.trials)]
    rows = []
    for (method, trial), (seed, model) in zip(
        cells, trial_models(cells, args.seed, spec, genetic)
    ):
        distance = expressibility_hellinger(model, replace(expr_cfg, seed=seed))
        metrics = evaluate_selection(model.generators, spec.observable)
        rows.append([method, trial, *metrics, float(distance)])
    _write_outputs(args, args.out, _EXPR_COLUMNS, zip(*rows), spec, genetic, expr_cfg)
    return 0


def _cmd_verify_theory(args, cfg) -> int:
    n, rng = args.n, np.random.default_rng(args.seed)
    max_terms = 8 if args.max_terms is None and n >= 4 else args.max_terms

    def observables():
        # Drawn one at a time, once verify_identities has sized the basis.
        if args.observable:
            yield ObservableInAlgebra.single(_parse_observable(args.observable, n))
        for _ in range(args.trials):
            yield random_observable(n, rng, max_terms=max_terms)

    checks = verify_identities(observables(), n)
    _write_outputs(args, args.report, IdentityCheck._fields, zip(*checks))
    return 0


def _cmd_report(args, cfg) -> int:
    traces = _read_table(args.traces, _TRACE_TYPES)
    if not len(traces[0]):
        raise ValueError(f"no training traces in {args.traces}")
    expr_method, expr_trial, *expr = _read_table(args.expr, _EXPR_TYPES)
    seen = set()
    for m, t in zip(expr_method, expr_trial):
        if (m, t) in seen:
            raise ValueError(f"duplicate expressibility row: method {m}, trial {t}")
        seen.add((m, t))
    report = summarize(
        traces,
        (
            (m, k, float(v))
            for k, column in zip(_EXPR_METRICS, expr)
            for m, v in zip(expr_method, column)
        ),
    )
    table = zip(*report.table_rows())
    _write_outputs(args, args.out_table, ["method", "metric", "mean", "std"], table)
    write_curves_svg(args.out_curves, report.curves(), deterministic=args.deterministic)
    if report.t_statistic is None:
        print("t-test (exact vs random, final epoch): not available")
    else:
        print(
            "t-test (exact vs random, final epoch): "
            f"t={report.t_statistic:.6g} p={report.p_value:.6g}"
        )
    if report.early_share is None:
        print("early training (exact vs random): not available")
    else:
        first, last = report.early_epochs[0], report.early_epochs[-1]
        print(
            f"early training (exact vs random, epochs {first}-{last}): exact mean "
            f"at or below random on a share of {report.early_share:.6g}"
        )
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


@functools.cache
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
        for flag, low in (("trials", 0), ("jobs", 1)):
            value = getattr(args, flag, low)
            if value < low:
                parser.error(f"--{flag} must be at least {low}, got {value}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.seed = _resolve_seed(args.seed)
        return args.handler(args, _load_config(args.config))
    except (
        ValueError, RuntimeError, OSError, MemoryError, OverflowError, configparser.Error
    ) as exc:
        # Some messages (configparser's) span lines, a bare MemoryError has
        # none; an error prints as one line.
        message = " ".join(str(exc).split()) or type(exc).__name__
        print("error:", message, file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return parse_and_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
