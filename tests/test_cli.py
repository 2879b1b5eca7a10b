"""End-to-end CLI tests: flags, CSV shapes, errors, reproducibility."""

import ast
import concurrent.futures
import csv
import gc
import hashlib
import io
import itertools
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gensel
from gensel import cli
from gensel.cli import main
from gensel.experiments import (
    DatasetSpec,
    ExpressibilityConfig,
    run_comparison,
    summarize,
    trial_models,
)
from gensel.optimizer import SpsaConfig
from gensel.selection import GeneticConfig
from gensel.simulator import compile_circuit

from conftest import label_table, pool_labels


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _run(args):
    return main([str(a) for a in args])


class TestSelect:
    def test_exact_five_qubits(self, tmp_path):
        out = tmp_path / "select.csv"
        code = _run(
            ["select", "--n", 5, "--observable", "ZIIII", "--depth", 5,
             "--method", "exact", "--seed", 0, "--out", out]
        )
        assert code == 0
        rows = _read_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["method"] == "exact"
        assert row["score"] == "10"
        assert row["n_commute_obs"] == "0"
        assert row["n_commute_pairs"] == "0"
        assert all(row[f"generator_{i}"] for i in range(1, 6))

    def test_exact_seven_qubits_builds_no_table(self, tmp_path):
        """The n = 7 pool's 8192 x 8192 uint8 table alone would be 64 MiB."""
        out = tmp_path / "select.csv"
        tracemalloc.start()
        try:
            code = _run(
                ["select", "--n", 7, "--depth", 14, "--method", "exact",
                 "--seed", 0, "--out", out]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        (row,) = _read_csv(out)
        assert row["score"] == "91"
        assert row["n_commute_pairs"] == "0"
        assert peak < 16 * 2**20

    def test_exact_ten_qubits_builds_strings_for_the_picks_only(self, tmp_path):
        """The n = 10 pool has 524,288 members; one PauliString each, plus
        their hashes, took 105 MiB of allocations."""
        out = tmp_path / "select.csv"
        tracemalloc.start()
        try:
            code = _run(
                ["select", "--n", 10, "--depth", 20, "--method", "exact",
                 "--seed", 0, "--out", out]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8502d80f82e4cfeebccf3efd17e0697bdbf82da766ddae3cc12127c3213ff418"
        )
        assert peak < 48 * 2**20

    @pytest.mark.parametrize("method", ["exact", "greedy", "genetic"])
    @pytest.mark.parametrize(
        "subsample, message",
        [
            (0, "budget 5 infeasible for pool of 0"),
            (-1, "subsample size must be non-negative, got -1"),
            (40, "subsample size 40 exceeds pool size 32"),
            (3, "budget 5 infeasible for pool of 3"),
        ],
    )
    def test_bad_pool_subsample_is_one_line(
        self, tmp_path, capsys, method, subsample, message
    ):
        out = tmp_path / "x.csv"
        capsys.readouterr()
        assert _run(
            ["select", "--n", 3, "--depth", 5, "--method", method,
             "--pool-subsample", subsample, "--seed", 1, "--out", out]
        ) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_greedy_table_past_its_bound_is_one_line(self, tmp_path, capsys):
        """The n = 9 pool's 131072 x 131072 uint8 table would be 16 GiB."""
        out = tmp_path / "x.csv"
        capsys.readouterr()
        start = time.perf_counter()
        code = _run(
            ["select", "--n", 9, "--depth", 18, "--method", "greedy", "--out", out]
        )
        assert time.perf_counter() - start < 5
        assert code == 1
        assert capsys.readouterr().err == (
            "error: greedy's 131072 x 131072 table needs 16 GiB, past the 1 GiB bound\n"
        )
        assert not out.exists()

    def test_malformed_observable_fails(self, tmp_path, capsys):
        code = _run(
            ["select", "--observable", "ZIIIQ", "--out", tmp_path / "x.csv"]
        )
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\n" not in err.strip()

    def test_observable_qubit_count_mismatch(self, tmp_path):
        code = _run(
            ["select", "--n", 3, "--observable", "ZIIII", "--out", tmp_path / "x.csv"]
        )
        assert code != 0

    def test_unknown_flag_fails(self, tmp_path, capsys):
        code = _run(["select", "--frobnicate", "--out", tmp_path / "x.csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: argument:")

    def test_baseline_methods(self, tmp_path):
        for method in ("random", "grad-only", "pair-only", "genetic", "greedy"):
            out = tmp_path / f"{method}.csv"
            assert _run(
                ["select", "--n", 3, "--observable", "ZII", "--depth", 3,
                 "--method", method, "--seed", 1, "--out", out]
            ) == 0
            assert len(_read_csv(out)) == 1

    def test_pair_only_budget_past_bound_is_one_line(self, tmp_path, capsys):
        code = _run(
            ["select", "--n", 3, "--observable", "ZII", "--depth", 8,
             "--method", "pair-only", "--seed", 1, "--out", tmp_path / "x.csv"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: budget 8 exceeds 2n+1 = 7,")
        assert "\n" not in err.strip()

    def test_exact_past_the_clique_bound_matches_exhaustive_optimum(self, tmp_path):
        """L = 8 > 2n at n = 3, so no 8 candidates all anticommute."""
        out = tmp_path / "select.csv"
        assert _run(
            ["select", "--n", 3, "--depth", 8, "--method", "exact",
             "--pool-subsample", 20, "--seed", 4, "--out", out]
        ) == 0
        (row,) = _read_csv(out)
        pool = pool_labels("ZII", 20, 4)
        c = label_table(pool)
        subsets = np.array(list(itertools.combinations(range(20), 8)))
        best = int(c[subsets[:, :, None], subsets[:, None, :]].sum(axis=(1, 2)).max())
        assert best // 2 < 28  # no 8-clique
        assert int(row["score"]) == best // 2
        assert int(row["n_commute_pairs"]) == 28 - best // 2
        chosen = {row[f"generator_{i}"] for i in range(1, 9)}
        assert chosen <= set(pool)

    def test_pool_subsample(self, tmp_path):
        out = tmp_path / "sub.csv"
        assert _run(
            ["select", "--observable", "ZIIII", "--depth", 5, "--method", "exact",
             "--pool-subsample", 64, "--seed", 3, "--out", out]
        ) == 0

    @pytest.mark.parametrize("method", ["random", "grad-only", "pair-only"])
    def test_pool_subsample_refused_by_baselines(self, tmp_path, capsys, method):
        out = tmp_path / "x.csv"
        capsys.readouterr()
        assert _run(
            ["select", "--n", 3, "--depth", 2, "--method", method,
             "--pool-subsample", 3, "--out", out]
        ) == 1
        tag = method.replace("-", "_")
        assert capsys.readouterr().err == (
            f"error: a pool subsample applies to pool methods, not {tag}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("method", ["grad-only", "pair-only", "exact"])
    def test_past_the_mask_bound_is_one_line(self, tmp_path, capsys, monkeypatch, method):
        """At n = 13 listing the canonical masks would pass 1 GiB: refused first."""
        def no_masks(*args, **kwargs):  # a missing bound fails here, not in 1 GiB
            raise AssertionError("canonical masks built past the bound")

        monkeypatch.setattr(np, "repeat", no_masks)
        out = tmp_path / "x.csv"
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = _run(["select", "--n", 13, "--depth", 5, "--method", method,
                         "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            "error: listing the 67108863 strings on 13 qubits needs 3.25012 GiB, "
            "past the 1 GiB bound\n"
        )
        assert not out.exists()
        assert peak < 2**20

    def test_random_past_the_int64_draw_is_one_line(self, tmp_path, capsys):
        """4^32 - 1 strings no longer fit NumPy's int64 draw."""
        out = tmp_path / "x.csv"
        capsys.readouterr()
        assert _run(
            ["select", "--n", 32, "--method", "random", "--depth", 2, "--out", out]
        ) == 1
        assert capsys.readouterr().err == (
            "error: a draw over the 4^n - 1 strings needs n <= 31, got 32\n"
        )
        assert not out.exists()

    def test_random_at_31_qubits_keeps_its_bytes(self, tmp_path):
        out = tmp_path / "select.csv"
        assert _run(
            ["select", "--n", 31, "--method", "random", "--depth", 2, "--seed", 0,
             "--out", out]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "11ef33bef2356a4b8d38d30515e76e00f44c9680ecb8a4982e4a1538e264f309"
        )

    def test_method_choices_follow_selection_methods(self):
        assert cli._METHOD_CHOICES == (
            "exact", "greedy", "genetic", "random", "grad-only", "pair-only"
        )

    def test_provenance_written(self, tmp_path):
        out = tmp_path / "select.csv"
        _run(["select", "--observable", "ZII", "--depth", 2, "--seed", 0, "--out", out])
        prov = tmp_path / "select.csv.config.txt"
        assert prov.is_file()
        assert "subcommand = select" in prov.read_text()


def test_cli_imports_no_private_name_of_the_package():
    """Every module of the package, the CLI included, reaches the others
    through their public names only."""
    private = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(Path(cli.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "gensel")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_csv_cells_round_trip(tmp_path):
    """Quoted strings and float reprs read back as written."""
    path = tmp_path / "t.csv"
    rows = [["a,b", 'say "hi"', "two\nlines", 0.1, 1e-300, -2.5e17, 7]]
    cli._write_csv(path, ["s1", "s2", "s3", "f1", "f2", "f3", "i"], zip(*rows))
    with open(path, newline="", encoding="utf-8") as fh:
        header, row = list(csv.reader(fh))
    assert row == ["a,b", 'say "hi"', "two\nlines", "0.1", "1e-300", "-2.5e+17", "7"]
    assert [float(v) for v in row[3:6]] == rows[0][3:6]


def _csv_writer_bytes(header, rows, lineterminator="\n") -> bytes:
    """What csv.writer with the lineterminator ("\\n" by default) writes for
    the rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=lineterminator)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


# table1.csv of the report in TestColumnarCsv, as csv.writer wrote it.
_ODD_TABLE_SHA256 = "0e21f54d41fcb00048dee194273febc4a524b712c9d51bf765f3a776a514a2e8"

# Text that csv quotes, or might: delimiter, quote, CR, LF, empty, None,
# spaces, a tab, a NUL.
_ODD_TEXT = [
    "a,b", 'say "hi"', "cr\rhere", "lf\nhere", "", None, '"', ",", "\r\n", " é ",
    " ", "\t", "nul\x00",
]


def _csv_rows_bytes(header, rows) -> bytes:
    """Each row as csv.writer with lineterminator="\\r\\n" writes it, so that
    a field holding a bare CR is quoted, ended by "\\n" instead."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    lines = []
    for row in [header, *rows]:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(row)
        lines.append(buffer.getvalue().removesuffix("\r\n"))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestColumnarCsv:
    """_write_csv writes columns as the bytes csv.writer gives their rows,
    a field with a bare CR quoted."""

    def _assert_as_csv_writer(self, tmp_path, header, rows, columns=None):
        path = tmp_path / "t.csv"
        cli._write_csv(path, header, list(zip(*rows)) if columns is None else columns)
        assert path.read_bytes() == _csv_rows_bytes(header, rows)
        cells = itertools.chain(header, *rows)
        if not any(isinstance(v, str) and "\r" in v for v in cells):
            assert path.read_bytes() == _csv_writer_bytes(header, rows)

    def test_select_row(self, tmp_path):
        header = ["method", "seed", "generator_1", "generator_2", "score",
                  "n_commute_obs", "n_commute_pairs"]
        for method in ["exact", *_ODD_TEXT]:
            row = [method, 3, "XZI", "Y,I", np.int64(1), np.int64(0), 2]
            self._assert_as_csv_writer(tmp_path, header, [row])

    def test_gen_data_rows(self, tmp_path, rng):
        xs = rng.uniform(0, 2 * np.pi, 50).tolist() + [0.0, -0.0, 1e-300, 2.5e17]
        ys = rng.uniform(-1, 1, 54).tolist()
        rows = [[i, x, y] for i, (x, y) in enumerate(zip(xs, ys))]
        columns = [range(len(xs)), xs, ys]
        self._assert_as_csv_writer(tmp_path, ["index", "x", "y"], rows, columns)

    def test_train_columns(self, tmp_path, rng):
        """Array columns, as the traces are written: float64 and int64."""
        rmse = np.concatenate([rng.uniform(0, 3, 40), [0.0, -0.0, np.inf, np.nan, 1e-320]])
        norm = rmse / 3.0
        trial = np.repeat(np.arange(9, dtype=np.int64), 5)
        epoch = np.tile(np.arange(5, dtype=np.int64), 9)
        methods = [m for m in ["exact", *_ODD_TEXT[:8], "random"] for _ in range(5)][:45]
        columns = [methods, trial, epoch, rmse, norm]
        rows = list(zip(methods, trial.tolist(), epoch.tolist(), rmse.tolist(), norm.tolist()))
        self._assert_as_csv_writer(tmp_path, cli._TRACE_COLUMNS, rows, columns)
        # NumPy scalars in the rows write as their Python values do.
        scalars = list(zip(methods, trial, epoch, rmse, norm))
        self._assert_as_csv_writer(tmp_path, cli._TRACE_COLUMNS, scalars, columns)

    def test_expressibility_verify_and_report_rows(self, tmp_path):
        expr = [[m, t, np.int64(t), 4, np.float64(0.1 * t)]
                for t, m in enumerate(["exact", *_ODD_TEXT])]
        self._assert_as_csv_writer(tmp_path, cli._EXPR_COLUMNS, expr)
        theory = [[3, 8, 48.0, 1.5, 1.5000000000000002, 2.25, 2.25, 0.1, 2.15,
                   0.0357, 2.21, 0.0], [np.int64(4), 16, 128.0, np.float64(1e-17),
                   1.0, 0.0, -0.0, 1e300, 5e-324, 1.0, 2.0, float("inf")]]
        self._assert_as_csv_writer(tmp_path, [f"c{i}" for i in range(12)], theory)
        table = [(m, "final_rmse", 0.25, 0.0) for m in ["exact", *_ODD_TEXT]]
        self._assert_as_csv_writer(tmp_path, ["method", "metric", "mean", "std"], table)

    def test_odd_text_in_header_and_in_lone_columns(self, tmp_path):
        """One field per row: csv.writer quotes an empty one (and None)."""
        rows = [[v] for v in [*_ODD_TEXT, "", 1.5, np.float64(-0.0), np.int64(7)]]
        for header in (["x"], [""], ['he said "x"']):
            self._assert_as_csv_writer(tmp_path, header, rows)
        self._assert_as_csv_writer(tmp_path, ["a,b", "", None], [_ODD_TEXT[:3]])
        self._assert_as_csv_writer(tmp_path, ["x", "y"], [])

    def test_report_quotes_method_tags(self, tmp_path, capsys):
        """A method tag holding a comma and a quote reads back and writes
        table1.csv as csv.writer writes the report's rows."""
        odd = 'tag,"q"'
        traces, expr = tmp_path / "traces.csv", tmp_path / "expr.csv"
        trace_rows = [
            (m, t, e, (t + 2) / (e + 1), 1 / (e + 1))
            for m in ("exact", odd) for t in range(3) for e in range(4)
        ]
        expr_rows = [(m, t, t, 2 * t, 0.125 * (t + 1)) for m in (odd, "exact")
                     for t in range(3)]
        traces.write_bytes(_csv_writer_bytes(cli._TRACE_COLUMNS, trace_rows))
        expr.write_bytes(_csv_writer_bytes(cli._EXPR_COLUMNS, expr_rows))
        table = tmp_path / "table1.csv"
        assert _run(["report", "--traces", traces, "--expr", expr, "--out-table",
                     table, "--out-curves", tmp_path / "c.svg", "--deterministic"]) == 0
        metrics = [(m, k, float(v)) for m, _, *values in expr_rows
                   for k, v in zip(cli._EXPR_METRICS, values)]
        report = summarize(list(zip(*trace_rows)), metrics)
        expected = _csv_writer_bytes(["method", "metric", "mean", "std"],
                                     report.table_rows())
        assert table.read_bytes() == expected
        assert hashlib.sha256(expected).hexdigest() == _ODD_TABLE_SHA256
        assert list(csv.reader(io.StringIO(expected.decode())))[-1][0] == odd


def _write_odd_report_inputs(directory, tags, trial_format="{}"):
    """traces.csv and expr.csv with one method per tag (None writes as ""),
    three trials of four epochs each, written by csv.writer with CRLF line
    ends, so that it quotes a tag holding a bare CR.  The traces' trial
    numbers are written as ``trial_format`` formats them."""
    traces_rows, expr_rows = [], []
    for k, tag in enumerate(tags):
        for t in range(3 * k, 3 * k + 3):  # "" and None share a method, not a trial
            trial = trial_format.format(t)
            traces_rows += [(tag, trial, e, (t + 2) / (e + 1), 1 / (e + 1) + t / 64)
                            for e in range(4)]
            expr_rows.append((tag, t, t % 3, 2 * t, 0.125 * (t + 1)))
    traces, expr = directory / "traces.csv", directory / "expr.csv"
    traces.write_bytes(_csv_writer_bytes(cli._TRACE_COLUMNS, traces_rows, "\r\n"))
    expr.write_bytes(_csv_writer_bytes(cli._EXPR_COLUMNS, expr_rows, "\r\n"))
    return traces, expr


def _csv_reader_columns(path, columns):
    """The named columns as csv.reader and int() / float() give them."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    return [[kind(row[header.index(c)]) for row in rows] for c, kind in columns.items()]


def _assert_same_columns(got, expected):
    """Equal columns; floats bit for bit."""
    assert len(got) == len(expected)
    for column, reference in zip(got, expected):
        assert len(column) == len(reference)
        if reference and isinstance(reference[0], float):
            bits = np.asarray(column, dtype=float).view(np.uint64)
            assert bits.tolist() == np.asarray(reference).view(np.uint64).tolist()
        else:
            assert list(column) == reference


@pytest.fixture(scope="module")
def readme_traces(tmp_path_factory):
    """traces.csv of the README workflow (40 trials x 201 epochs)."""
    d = tmp_path_factory.mktemp("readme")
    (d / "run.ini").write_text("[spsa]\nlearning_rate = 0.005\n")
    assert _run(["gen-data", "--seed", 0, "--out", d / "data.csv"]) == 0
    assert _run(["train", "--data", d / "data.csv", "--config", d / "run.ini",
                 "--method", "exact", "--method", "random", "--trials", 20,
                 "--seed", 42, "--out", d / "traces.csv"]) == 0
    return d / "traces.csv"


class TestTypedReader:
    """_read_table reads typed columns in one np.loadtxt pass, and a file
    loadtxt refuses through csv.reader and int() / float()."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []
        real = cli._read_rows

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "_read_rows", counted)
        return calls

    def test_readme_traces_as_csv_reader(self, readme_traces, fallbacks):
        columns = cli._read_table(readme_traces, cli._TRACE_TYPES)
        assert fallbacks == []
        assert [c.dtype for c in columns] == [
            np.dtype(object), np.int64, np.int64, np.float64, np.float64
        ]
        assert len(columns[0]) == 8040
        _assert_same_columns(
            columns, _csv_reader_columns(readme_traces, cli._TRACE_TYPES)
        )

    def test_reading_makes_no_object_per_row(self, readme_traces):
        """The README traces (8,040 rows) read with at most one collection:
        a row list or tuple per row would run about 21."""
        assert gc.isenabled()
        cli._read_table(readme_traces, cli._TRACE_TYPES)
        before = sum(s["collections"] for s in gc.get_stats())
        cli._read_table(readme_traces, cli._TRACE_TYPES)
        after = sum(s["collections"] for s in gc.get_stats())
        assert after - before <= 1

    # sha256 of table1.csv and curves.svg, as the row-wise reader wrote them;
    # with a bare CR in a tag, table1.csv as that reader wrote it but for the
    # quotes around that tag.
    _NO_CR = ("30ddfdc44e21018ea6a6ac7afd3ca93b76c4876411c8131f037dced6a73b189d",
              "74bada73ceca4c773b4ba185b9b4ff919076d8b22f977ea5788feca53287e4cb")
    _ALL = ("7a86c249eb201b7f41f9634c19f22c5e689e3e197da07472e71522f3637a8cfa",
            "b8cd54fa208fdcab0761c1d7482f0f627f88817b6869e6cb7d3b012eb13dba59")

    @pytest.mark.parametrize(
        "tags, trial_format, digests, fallback",
        [
            ([t for t in _ODD_TEXT if t is None or "\r" not in t], "{}", _NO_CR, False),
            (_ODD_TEXT, "{}", _ALL, False),
            (_ODD_TEXT, "0_{}", _ALL, True),  # int() reads 0_12, loadtxt does not
        ],
        ids=["no-cr", "all", "all-csv-reader"],
    )
    def test_report_on_odd_method_tags(self, tmp_path, fallbacks, tags, trial_format,
                                       digests, fallback):
        """Every odd tag, a quoted bare CR too, reads back as csv.reader reads
        it, and the report keeps the bytes the row-wise reader gave, on
        either path."""
        traces, expr = _write_odd_report_inputs(tmp_path, tags, trial_format)
        outputs = tmp_path / "table1.csv", tmp_path / "curves.svg"
        assert _run(["report", "--traces", traces, "--expr", expr, "--out-table",
                     outputs[0], "--out-curves", outputs[1], "--deterministic"]) == 0
        assert len(fallbacks) == (1 if fallback else 0)  # the traces, not expr.csv
        for path, types in ((traces, cli._TRACE_TYPES), (expr, cli._EXPR_TYPES)):
            _assert_same_columns(cli._read_table(path, types),
                                 _csv_reader_columns(path, types))
        assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs) == (
            digests
        )

    def test_bare_cr_tag_round_trips_through_table1(self, tmp_path, fallbacks):
        """A method tag holding a bare CR is quoted in table1.csv, so that
        csv.reader and _read_table (in its one loadtxt pass) read it back
        whole."""
        traces, expr = _write_odd_report_inputs(tmp_path, ["exact", "cr\rhere"])
        table = tmp_path / "table1.csv"
        assert _run(["report", "--traces", traces, "--expr", expr, "--out-table",
                     table, "--out-curves", tmp_path / "c.svg", "--deterministic"]) == 0
        with open(table, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["method", "metric", "mean", "std"]
        assert {len(row) for row in rows} == {4}
        assert {row[0] for row in rows} == {"exact", "cr\rhere"}
        (methods,) = cli._read_table(table, {"method": str})
        assert list(methods) == [row[0] for row in rows]
        assert fallbacks == []

    @pytest.mark.parametrize(
        "column, token",
        [("trial", " 1"), ("trial", "1_0"), ("trial", "1.0"), ("trial", str(2**63)),
         ("rmse", ""), ("rmse", "nan"), ("rmse", "-0.0"), ("rmse", "5e-324"),
         ("rmse", "1_0.5"), ("rmse", " 2.5e17\t")],
    )
    def test_numeric_tokens_as_int_and_float(self, tmp_path, column, token):
        """A token gives the value int() / float() give it, or their error."""
        traces = tmp_path / "traces.csv"
        row = {"method": "exact", "trial": "0", "epoch": "1", "rmse": "0.5",
               "rmse_normalized": "1.0", column: token}
        traces.write_text("method,trial,epoch,rmse,rmse_normalized\n"
                          "exact,0,0,1.0,1.0\n" + ",".join(row.values()) + "\n")
        try:
            expected = _csv_reader_columns(traces, cli._TRACE_TYPES)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                cli._read_table(traces, cli._TRACE_TYPES)
            assert str(caught.value) == str(exc)
        else:
            _assert_same_columns(cli._read_table(traces, cli._TRACE_TYPES), expected)

    def test_trial_past_int64_is_one_line_error(self, tmp_path, capsys):
        traces, expr = _write_odd_report_inputs(tmp_path, ["exact"])
        text = traces.read_text().replace("exact,2,", f"exact,{2**63},")
        traces.write_text(text)
        capsys.readouterr()
        assert _run(["report", "--traces", traces, "--expr", expr, "--out-table",
                     tmp_path / "t.csv", "--out-curves", tmp_path / "c.svg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\n\r"])
    def test_header_only_traces_warn_nothing(self, tmp_path, capsys, body):
        traces = tmp_path / "traces.csv"
        traces.write_text("method,trial,epoch,rmse,rmse_normalized\n" + body,
                          newline="")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = _run(["report", "--traces", traces, "--expr", tmp_path / "e.csv",
                         "--out-table", tmp_path / "t.csv",
                         "--out-curves", tmp_path / "c.svg"])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: no training traces in {traces}\n")

    @pytest.mark.parametrize(
        "line, fields",
        [("exact,0,1,0.5,1.0,7", 6), ("   ", 1)],
        ids=["long", "whitespace"],
    )
    def test_row_width_is_one_line_error(self, tmp_path, capsys, line, fields):
        traces = tmp_path / "traces.csv"
        traces.write_text(
            f"method,trial,epoch,rmse,rmse_normalized\nexact,0,0,0.5,1.0\n{line}\n"
        )
        code = _run(["report", "--traces", traces, "--expr", tmp_path / "e.csv",
                     "--out-table", tmp_path / "t.csv",
                     "--out-curves", tmp_path / "c.svg"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {traces} has a row of {fields} fields under 5 columns\n"
        )


class TestGenData:
    def test_shape_and_determinism(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert _run(["gen-data", "--seed", 5, "--out", out_a]) == 0
        assert _run(["gen-data", "--seed", 5, "--out", out_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = _read_csv(out_a)
        assert len(rows) == 100
        assert set(rows[0]) == {"index", "x", "y"}
        ys = [float(r["y"]) for r in rows]
        assert all(-1.0 <= y <= 1.0 for y in ys)

    def test_config_overrides_samples(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[dataset]\nn = 3\ndepth = 2\nsamples = 7\n")
        out = tmp_path / "data.csv"
        assert _run(["gen-data", "--seed", 1, "--config", cfg, "--out", out]) == 0
        assert len(_read_csv(out)) == 7

    @pytest.mark.parametrize("n", [32, 40])
    def test_past_the_int64_draw_is_one_line(self, tmp_path, capsys, n):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[dataset]\nn = {n}\n")
        out = tmp_path / "data.csv"
        capsys.readouterr()
        assert _run(["gen-data", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: a draw over the 4^n - 1 strings needs n <= 31, got {n}\n"
        )
        assert not out.exists()


@pytest.fixture
def small_setup(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[dataset]\nn = 3\ndepth = 3\nsamples = 10\n"
        "[spsa]\nepochs = 4\n"
        "[genetic]\npopulation = 12\ngenerations = 10\n"
    )
    data = tmp_path / "data.csv"
    assert _run(["gen-data", "--seed", 2, "--config", cfg, "--out", data]) == 0
    return cfg, data


class TestTrain:
    def test_traces_shape(self, small_setup, tmp_path):
        cfg, data = small_setup
        out = tmp_path / "traces.csv"
        assert _run(
            ["train", "--data", data, "--config", cfg, "--method", "exact",
             "--method", "random", "--trials", 2, "--seed", 7, "--out", out]
        ) == 0
        rows = _read_csv(out)
        assert len(rows) == 2 * 2 * 5  # methods x trials x (epochs + 1)
        assert {r["method"] for r in rows} == {"exact", "random"}
        first = [r for r in rows if r["epoch"] == "0"]
        assert all(float(r["rmse_normalized"]) == 1.0 for r in first)

    def test_reproducible_and_parallel_identical(self, small_setup, tmp_path):
        cfg, data = small_setup
        out_a, out_b, out_c = (tmp_path / f"t{i}.csv" for i in "abc")
        args = ["train", "--data", data, "--config", cfg, "--method", "exact",
                "--trials", 2, "--seed", 3]
        assert _run(args + ["--out", out_a]) == 0
        assert _run(args + ["--out", out_b]) == 0
        assert _run(args + ["--out", out_c, "--jobs", 2]) == 0
        assert out_a.read_bytes() == out_b.read_bytes() == out_c.read_bytes()

    def test_uneven_job_chunks_identical(self, small_setup, tmp_path):
        """Four cells dealt to three workers (2, 1 and 1 cells) write the
        bytes of one batch."""
        cfg, data = small_setup
        args = ["train", "--data", data, "--config", cfg, "--method", "exact",
                "--method", "random", "--trials", 2, "--seed", 5]
        one, three = tmp_path / "one.csv", tmp_path / "three.csv"
        assert _run(args + ["--out", one, "--jobs", 1]) == 0
        assert _run(args + ["--out", three, "--jobs", 3]) == 0
        assert one.read_bytes() == three.read_bytes()

    def test_jobs_deal_the_cells_round_robin(self, small_setup, tmp_path, monkeypatch):
        """Worker k gets every jobs-th cell from cell k, so each worker trains
        a share of every method; the records go back in cell order."""
        dealt = []

        class InProcessPool:
            """Runs each worker's batch here and records its cells."""

            def __init__(self, max_workers):
                assert max_workers == 2

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns):
                batches = list(zip(*columns))
                dealt.extend(list(batch[0]) for batch in batches)
                return [fn(*batch) for batch in batches]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg, data = small_setup
        args = ["train", "--data", data, "--config", cfg, "--method", "exact",
                "--method", "random", "--trials", 2, "--seed", 5]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert _run(args + ["--out", one, "--jobs", 1]) == 0
        assert dealt == []
        assert _run(args + ["--out", two, "--jobs", 2]) == 0
        assert dealt == [[("exact", 0), ("random", 0)], [("exact", 1), ("random", 1)]]
        assert one.read_bytes() == two.read_bytes()

    def test_job_chunks_identical_across_buckets(self, tmp_path):
        """Random depth-8 cells at n = 4 stack circuits of under and over 8
        terms (several buckets, each padded); any --jobs writes one batch's
        bytes."""
        cfg = tmp_path / "deep.ini"
        cfg.write_text(
            "[dataset]\nn = 4\ndepth = 8\nsamples = 10\n[spsa]\nepochs = 4\n"
        )
        data = tmp_path / "data.csv"
        assert _run(["gen-data", "--seed", 2, "--config", cfg, "--out", data]) == 0
        cells = [("random", t) for t in range(5)]
        spec = DatasetSpec(n=4, depth=8, samples=10)
        terms = {
            len(compile_circuit(model, [0.1]).factors)
            for _, model in trial_models(cells, 2, spec)
        }
        assert min(terms) < 8 and len(terms & set(range(17, 33))) >= 2
        args = ["train", "--data", data, "--config", cfg, "--method", "random",
                "--trials", 5, "--seed", 2]
        one, three = tmp_path / "one.csv", tmp_path / "three.csv"
        assert _run(args + ["--out", one, "--jobs", 1]) == 0
        assert _run(args + ["--out", three, "--jobs", 3]) == 0
        assert one.read_bytes() == three.read_bytes()

    @pytest.mark.filterwarnings("error")  # NumPy's overflow warnings fail it
    def test_diverging_run_is_one_line_error(self, tmp_path, capsys):
        """A finite but huge perturbation overflows 2 theta on the first
        evaluation, whatever the direction: exit 1, one error line and no
        warning on stderr, no traces.csv."""
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[dataset]\nn = 3\ndepth = 3\nsamples = 10\n"
            "[spsa]\nperturbation = 1e308\nepochs = 3\n"
        )
        data, out = tmp_path / "data.csv", tmp_path / "traces.csv"
        assert _run(["gen-data", "--seed", 2, "--config", cfg, "--out", data]) == 0
        capsys.readouterr()
        code = _run(["train", "--data", data, "--config", cfg, "--method", "exact",
                     "--method", "random", "--trials", 2, "--out", out])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged to a non-finite RMSE")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["x", "y"])
    def test_non_finite_data_is_one_line(self, small_setup, tmp_path, capsys,
                                         column, value):
        cfg, _ = small_setup
        data, out = tmp_path / "bad.csv", tmp_path / "traces.csv"
        x, y = (value, "0.5") if column == "x" else ("0.5", value)
        data.write_text(f"index,x,y\n0,0.25,0.125\n1,{x},{y}\n2,1.0,0.75\n")
        capsys.readouterr()
        code = _run(["train", "--data", data, "--config", cfg, "--trials", 1,
                     "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {data} row 2 is not finite: x = {float(x)}, y = {float(y)}\n"
        )
        assert not out.exists()

    def test_missing_data_file(self, tmp_path, capsys):
        code = _run(["train", "--data", tmp_path / "nope.csv", "--trials", 1])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_evaluation_count_error_is_one_line(
        self, small_setup, tmp_path, capsys, monkeypatch
    ):
        import gensel.optimizer as optimizer

        real = optimizer._spsa_update

        def extra_evaluation(theta, momentum, costs, *args):
            def one_more(rows):  # one row more than the step evaluates
                return costs(np.concatenate([rows, rows[:1]]))[:-1]

            return real(theta, momentum, one_more, *args)

        monkeypatch.setattr(optimizer, "_spsa_update", extra_evaluation)
        cfg, data = small_setup
        code = _run(
            ["train", "--data", data, "--config", cfg, "--method", "exact",
             "--trials", 1, "--jobs", 1, "--out", tmp_path / "t.csv"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: evaluation counter mismatch")
        assert "\n" not in err.strip()


def test_six_methods_keep_their_bytes(tmp_path):
    """`train` and `expressibility` over all six methods, on the README's
    data.csv, each select through the one entry point and keep their bytes."""
    methods = ("exact", "greedy", "genetic", "random", "grad-only", "pair-only")
    six = [arg for m in methods for arg in ("--method", m)]
    data, traces, expr = (tmp_path / f for f in ("data.csv", "t.csv", "e.csv"))
    assert _run(["gen-data", "--seed", 0, "--out", data]) == 0
    assert _run(["train", "--data", data, *six, "--trials", 3, "--epochs", 20,
                 "--seed", 5, "--out", traces]) == 0
    assert _run(["expressibility", *six, "--trials", 3, "--seed", 5, "--out", expr]) == 0
    assert hashlib.sha256(traces.read_bytes()).hexdigest() == (
        "6653dce982dd036814073ca827e82e16ac09931a0a87c5ed4fb4c2e678fe6186"
    )
    assert hashlib.sha256(expr.read_bytes()).hexdigest() == (
        "97288e51a45350483555c3b8e4f703c64140658bb9a9b6ad700b0bc89af9e544"
    )


class TestExpressibility:
    def test_output_columns(self, small_setup, tmp_path):
        cfg, _ = small_setup
        out = tmp_path / "expr.csv"
        assert _run(
            ["expressibility", "--config", cfg, "--method", "exact", "--trials", 2,
             "--samples", 60, "--bins", 10, "--seed", 1, "--out", out]
        ) == 0
        rows = _read_csv(out)
        assert len(rows) == 2
        assert set(rows[0]) == {
            "method", "trial", "n_commute_obs", "n_commute_pairs", "hellinger"
        }
        assert all(0.0 <= float(r["hellinger"]) <= 1.0 for r in rows)


    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError("Unable to allocate 8.00 TiB for an array"),
             "Unable to allocate 8.00 TiB for an array"),
            (MemoryError(), "MemoryError"),
        ],
    )
    def test_memory_error_is_one_line(
        self, small_setup, tmp_path, capsys, monkeypatch, error, message
    ):
        from gensel import selection

        def out_of_memory(n):
            raise error

        monkeypatch.setattr(selection, "canonical_masks", out_of_memory)
        cfg, _ = small_setup
        out = tmp_path / "expr.csv"
        capsys.readouterr()
        assert _run(["expressibility", "--config", cfg, "--trials", 1,
                     "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_one_table_per_run(self, small_setup, tmp_path, monkeypatch):
        """Two pool-based methods x 20 trials read one set of the pool's masks,
        and each trial builds strings for its 3 picks only."""
        from gensel import selection

        pools, built = [], []

        def counted_pool(observable):
            pools.append(observable.label)
            return _pool_masks(observable)

        def counted_strings(problem, indices):
            built.append(len(indices))
            return strings(problem, indices)

        _pool_masks, strings = selection._pool_masks, selection.SelectionProblem.strings
        monkeypatch.setattr(selection, "_pool_masks", counted_pool)
        monkeypatch.setattr(selection.SelectionProblem, "strings", counted_strings)
        cfg, _ = small_setup
        assert _run(
            ["expressibility", "--config", cfg, "--method", "exact", "--method",
             "greedy", "--trials", 20, "--samples", 20, "--bins", 10, "--seed", 1,
             "--out", tmp_path / "expr.csv"]
        ) == 0
        assert len(_read_csv(tmp_path / "expr.csv")) == 40
        assert pools == ["ZII"]
        assert built == [3] * 40


class TestVerifyTheory:
    def test_n1_example(self, tmp_path):
        out = tmp_path / "theory.csv"
        assert _run(["verify-theory", "--n", 1, "--trials", 5, "--seed", 0,
                     "--report", out]) == 0
        rows = _read_csv(out)
        assert len(rows) == 5
        for row in rows:
            assert float(row["c_measured"]) == pytest.approx(4.0, abs=1e-12)
            assert float(row["max_rel_err"]) < 1e-9

    def test_explicit_observable_row(self, tmp_path):
        out = tmp_path / "theory.csv"
        assert _run(["verify-theory", "--n", 2, "--trials", 0,
                     "--observable", "ZI", "--report", out]) == 0
        rows = _read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["thm1_lhs"]) == pytest.approx(8.0)
        assert float(rows[0]["lemma1_lhs"]) == pytest.approx(64.0)

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--n", 5, "--trials", 3, "--seed", 0],
             "ad6726936f86d2e5a28261067c3f6370f5b3336edf0236c009fe2fe9812c6681"),
            (["--n", 4, "--trials", 3, "--observable", "XYZI", "--seed", 1],
             "49146ae02ed9028da62457d28d9aa1ab0c11fcec124602649094b927b19e32d4"),
        ],
        ids=["n5", "n4-observable"],
    )
    def test_report_bytes_are_pinned(self, tmp_path, argv, digest):
        """The report bytes of the pairwise sweep, kept by the counted sums."""
        out = tmp_path / "theory.csv"
        assert _run(["verify-theory", *argv, "--report", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_n8_beyond_the_pairwise_sizes(self, tmp_path):
        out = tmp_path / "theory.csv"
        assert _run(["verify-theory", "--n", 8, "--trials", 1, "--seed", 0,
                     "--report", out]) == 0
        (row,) = _read_csv(out)
        assert float(row["c_measured"]) == 512.0
        assert float(row["max_rel_err"]) <= 1e-9

    def test_n12_refused_before_any_observable(self, tmp_path, capsys):
        """Each 12-qubit observable would hold 4^12 - 1 coefficients (128 MiB)."""
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = _run(["verify-theory", "--n", 12, "--observable", "Z" + "I" * 11,
                         "--report", tmp_path / "t.csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            "error: summing over the 16777215 strings on 12 qubits needs 2 GiB, "
            "past the 1 GiB bound\n"
        )
        assert not list(tmp_path.iterdir())
        assert peak < 2**20

    def test_n8_full_basis_within_seconds(self, tmp_path):
        """All 65535 terms at n = 8: two transforms, then a gather per term."""
        out = tmp_path / "theory.csv"
        start = time.perf_counter()
        assert _run(["verify-theory", "--n", 8, "--trials", 1, "--max-terms", 65535,
                     "--seed", 0, "--report", out]) == 0
        assert time.perf_counter() - start < 10
        (row,) = _read_csv(out)
        assert float(row["c_measured"]) == 512.0
        assert float(row["max_rel_err"]) <= 1e-9

    def test_double_sums_computed_once_per_observable(self, tmp_path, monkeypatch):
        """One call transforms the basis counts once, for all its observables,
        and then reads each observable's terms once."""
        from gensel import theory

        theory.casimir_constant(2)  # cached, so its own count is not seen
        names = ("anticommuting_counts", "walsh_hadamard", "_term_masks")
        calls = dict.fromkeys(names, 0)

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in names:
            monkeypatch.setattr(theory, name, counted(name, getattr(theory, name)))
        for trials in (0, 3):
            calls.update(dict.fromkeys(names, 0))
            assert _run(["verify-theory", "--n", 2, "--trials", trials, "--observable",
                         "ZX", "--seed", 0, "--report", tmp_path / "theory.csv"]) == 0
            assert calls == {"anticommuting_counts": 1, "walsh_hadamard": 1,
                             "_term_masks": 1 + trials}

    def test_term_masks_read_once_per_observable(self, tmp_path, monkeypatch):
        """Theorem 1 and the double sums share one scan of each observable's
        4^n - 1 coefficients, and the CLI reaches it only through
        verify_identities."""
        from gensel import theory

        real, seen = theory._term_masks, []

        def counted(o):
            seen.append(o)
            return real(o)

        monkeypatch.setattr(theory, "_term_masks", counted)
        assert _run(["verify-theory", "--n", 3, "--trials", 3, "--observable", "ZXI",
                     "--seed", 0, "--report", tmp_path / "theory.csv"]) == 0
        assert len(seen) == 4 and len(set(map(id, seen))) == 4


class TestReport:
    def test_end_to_end(self, small_setup, tmp_path, capsys):
        cfg, data = small_setup
        traces = tmp_path / "traces.csv"
        expr = tmp_path / "expr.csv"
        _run(["train", "--data", data, "--config", cfg, "--method", "exact",
              "--method", "random", "--trials", 2, "--seed", 5, "--out", traces])
        _run(["expressibility", "--config", cfg, "--method", "exact", "--trials", 2,
              "--samples", 60, "--bins", 10, "--seed", 5, "--out", expr])
        table = tmp_path / "table1.csv"
        curves = tmp_path / "curves.svg"
        assert _run(
            ["report", "--traces", traces, "--expr", expr,
             "--out-table", table, "--out-curves", curves, "--deterministic"]
        ) == 0
        out = capsys.readouterr().out
        assert "t-test (exact vs random, final epoch): t=" in out
        rows = _read_csv(table)
        metrics = {(r["method"], r["metric"]) for r in rows}
        assert ("exact", "final_rmse") in metrics
        assert ("exact", "hellinger") in metrics
        svg = curves.read_text()
        assert svg.startswith("<?xml")
        assert "polyline" in svg
        assert "generated:" not in svg

    def test_prints_early_training_share(self, small_setup, tmp_path, capsys):
        cfg, data = small_setup
        traces = tmp_path / "traces.csv"
        expr = tmp_path / "expr.csv"
        _run(["train", "--data", data, "--config", cfg, "--method", "exact",
              "--method", "random", "--trials", 3, "--epochs", 20, "--seed", 5,
              "--out", traces])
        _run(["expressibility", "--config", cfg, "--method", "exact", "--trials", 1,
              "--samples", 60, "--bins", 10, "--seed", 5, "--out", expr])
        report = ["report", "--traces", traces, "--expr", expr,
                  "--out-table", tmp_path / "t.csv", "--out-curves", tmp_path / "c.svg"]
        capsys.readouterr()
        assert _run(report) == 0
        out = capsys.readouterr().out
        rows = _read_csv(traces)
        mean = {
            m: np.array(
                [float(r["rmse_normalized"]) for r in rows if r["method"] == m]
            ).reshape(3, 21).mean(axis=0)
            for m in ("exact", "random")
        }
        # Epochs 10-150, clipped to the 0-20 that were trained.
        share = np.mean(mean["exact"][10:] <= mean["random"][10:])
        t_line, early_line = out.splitlines()
        assert t_line.startswith("t-test (exact vs random, final epoch): t=")
        assert early_line == (
            "early training (exact vs random, epochs 10-20): exact mean at or "
            f"below random on a share of {share:.6g}"
        )
        # The t-test's is the only p= token the report prints.
        assert re.findall(r"\bp=(\S+)", out) == [t_line.split("p=")[1]]

        # Without random trials, or with too few epochs, there is no share.
        for methods, epochs in ((["exact"], 20), (["exact", "random"], 9)):
            flags = [flag for m in methods for flag in ("--method", m)]
            _run(["train", "--data", data, "--config", cfg, *flags, "--trials", 2,
                  "--epochs", epochs, "--seed", 5, "--out", traces])
            capsys.readouterr()
            assert _run(report) == 0
            out = capsys.readouterr().out
            assert out.endswith("early training (exact vs random): not available\n")

    def test_deterministic_outputs(self, small_setup, tmp_path):
        cfg, data = small_setup
        traces = tmp_path / "traces.csv"
        expr = tmp_path / "expr.csv"
        _run(["train", "--data", data, "--config", cfg, "--method", "exact",
              "--trials", 2, "--seed", 5, "--out", traces])
        _run(["expressibility", "--config", cfg, "--method", "exact", "--trials", 2,
              "--samples", 60, "--bins", 10, "--seed", 5, "--out", expr])
        tables = []
        svgs = []
        for i in range(2):
            table = tmp_path / f"table{i}.csv"
            curves = tmp_path / f"curves{i}.svg"
            assert _run(
                ["report", "--traces", traces, "--expr", expr,
                 "--out-table", table, "--out-curves", curves, "--deterministic"]
            ) == 0
            tables.append(table.read_bytes())
            svgs.append(curves.read_bytes())
        assert tables[0] == tables[1]
        assert svgs[0] == svgs[1]

    def test_empty_traces_is_one_line_error(self, small_setup, tmp_path, capsys):
        cfg, data = small_setup
        traces = tmp_path / "traces.csv"
        expr = tmp_path / "expr.csv"
        assert _run(["train", "--data", data, "--config", cfg, "--method", "exact",
                     "--trials", 0, "--seed", 5, "--out", traces]) == 0
        assert _run(["expressibility", "--config", cfg, "--method", "exact",
                     "--trials", 1, "--samples", 60, "--bins", 10, "--seed", 5,
                     "--out", expr]) == 0
        capsys.readouterr()
        table = tmp_path / "table1.csv"
        code = _run(["report", "--traces", traces, "--expr", expr,
                     "--out-table", table, "--out-curves", tmp_path / "c.svg"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no training traces in ")
        assert "\n" not in err.strip()
        assert not table.exists()

    def test_missing_column_is_one_line_error(self, small_setup, tmp_path, capsys):
        cfg, data = small_setup
        traces = tmp_path / "traces.csv"
        assert _run(["train", "--data", data, "--config", cfg, "--trials", 1,
                     "--seed", 5, "--out", traces]) == 0
        expr = tmp_path / "expr.csv"
        expr.write_text("method,trial,hellinger\nexact,0,0.5\n")
        capsys.readouterr()
        code = _run(["report", "--traces", traces, "--expr", expr,
                     "--out-table", tmp_path / "t.csv",
                     "--out-curves", tmp_path / "c.svg"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {expr} has no column n_commute_obs, n_commute_pairs\n"

    def test_duplicate_trace_rows_are_one_line_error(
        self, small_setup, tmp_path, capsys
    ):
        cfg, data = small_setup
        traces = tmp_path / "traces.csv"
        expr = tmp_path / "expr.csv"
        assert _run(["train", "--data", data, "--config", cfg, "--trials", 1,
                     "--seed", 5, "--out", traces]) == 0
        assert _run(["expressibility", "--config", cfg, "--trials", 1, "--samples", 60,
                     "--bins", 10, "--seed", 5, "--out", expr]) == 0
        header, *rows = traces.read_text().splitlines(keepends=True)
        both = tmp_path / "both.csv"
        both.write_text(header + "".join(rows + rows))  # two runs pasted together
        capsys.readouterr()
        code = _run(["report", "--traces", both, "--expr", expr,
                     "--out-table", tmp_path / "t.csv",
                     "--out-curves", tmp_path / "c.svg"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: duplicate trace row: method exact, trial 0, epoch 0\n"
        assert not (tmp_path / "t.csv").exists()

    def test_duplicate_expressibility_rows_are_one_line_error(
        self, small_setup, tmp_path, capsys
    ):
        cfg, data = small_setup
        traces = tmp_path / "traces.csv"
        expr = tmp_path / "expr.csv"
        assert _run(["train", "--data", data, "--config", cfg, "--trials", 2,
                     "--seed", 5, "--out", traces]) == 0
        assert _run(["expressibility", "--config", cfg, "--trials", 2, "--samples", 60,
                     "--bins", 10, "--seed", 5, "--out", expr]) == 0
        header, *rows = expr.read_text().splitlines(keepends=True)
        both = tmp_path / "both.csv"
        both.write_text(header + "".join(rows + rows))  # two runs pasted together
        capsys.readouterr()
        table = tmp_path / "t.csv"
        code = _run(["report", "--traces", traces, "--expr", both,
                     "--out-table", table, "--out-curves", tmp_path / "c.svg"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: duplicate expressibility row: method exact, trial 0\n"
        assert not table.exists()

    def test_short_row_is_one_line_error(self, tmp_path, capsys):
        traces = tmp_path / "traces.csv"
        traces.write_text(
            "method,trial,epoch,rmse,rmse_normalized\nexact,0,0,0.5,1.0\nexact,0,1\n"
        )
        code = _run(["report", "--traces", traces, "--expr", tmp_path / "e.csv",
                     "--out-table", tmp_path / "t.csv",
                     "--out-curves", tmp_path / "c.svg"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {traces} has a row of 3 fields under 5 columns\n"

    def test_method_name_is_escaped_in_the_svg(self, tmp_path):
        from xml.dom import minidom

        traces, expr = tmp_path / "traces.csv", tmp_path / "expr.csv"
        traces.write_text(
            "method,trial,epoch,rmse,rmse_normalized\n"
            "a&b<c>,0,0,0.5,1.0\na&b<c>,0,1,0.25,0.5\n"
        )
        expr.write_text(
            "method,trial,n_commute_obs,n_commute_pairs,hellinger\na&b<c>,0,0,0,0.5\n"
        )
        curves = tmp_path / "c.svg"
        assert _run(["report", "--traces", traces, "--expr", expr,
                     "--out-table", tmp_path / "t.csv", "--out-curves", curves]) == 0
        texts = [
            node.firstChild.data
            for node in minidom.parse(str(curves)).getElementsByTagName("text")
        ]
        assert "a&b<c>" in texts and "training curves" in texts

    def test_missing_inputs(self, tmp_path, capsys):
        code = _run(["report", "--traces", tmp_path / "none.csv",
                     "--expr", tmp_path / "none2.csv",
                     "--out-table", tmp_path / "t.csv",
                     "--out-curves", tmp_path / "c.svg"])
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestOneAggregationPath:
    def test_report_rows_match_run_comparison(self, small_setup, tmp_path):
        cfg, data = small_setup  # gen-data --seed 2
        methods = ["exact", "random", "genetic"]
        flags = [a for m in methods for a in ("--method", m)]
        flags += ["--trials", 2, "--seed", 7]
        traces, expr, table = (tmp_path / f for f in ("t.csv", "e.csv", "table1.csv"))
        assert _run(["train", "--data", data, "--config", cfg, *flags,
                     "--out", traces]) == 0
        assert _run(["expressibility", "--config", cfg, *flags, "--samples", 60,
                     "--bins", 10, "--out", expr]) == 0
        assert _run(["report", "--traces", traces, "--expr", expr, "--out-table", table,
                     "--out-curves", tmp_path / "c.svg"]) == 0
        report = run_comparison(
            methods,
            2,
            DatasetSpec(n=3, depth=3, samples=10, teacher_seed=2),
            SpsaConfig(epochs=4),
            master_seed=7,
            genetic=GeneticConfig(population=12, generations=10),
        )
        rows = [
            (r["method"], r["metric"], float(r["mean"]), float(r["std"]))
            for r in _read_csv(table)
            if r["metric"] != "hellinger"
        ]
        assert rows == report.table_rows()
        assert {r[1] for r in rows} == {
            "final_rmse", "final_rmse_normalized", "n_commute_obs", "n_commute_pairs"
        }


class TestConfigLoader:
    INI = (
        "[dataset]\nn = 3 ; qubits\ndepth = 4\nsamples = 12\n"
        "theta_min = -1.5\ntheta_max = 2.5\ninput_min = 0.5\ninput_max = 3.0\n"
        "[spsa]\nlearning_rate = 0.01\nmomentum = 0.4\nperturbation = 0.02\n"
        "epochs = 5\ninit_range = 0.2\n"
        "[expressibility]\nfidelity_samples = 80\nbins = 10\n"
        "param_min = -2.0\nparam_max = 2.0\n"
        "[genetic]\npopulation = 10\ngenerations = 7\nmutation_rate = 0.5\n"
    )

    @staticmethod
    def _readme_config():
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        parser = cli._load_config(None)
        parser.read_string(block)
        return parser

    @staticmethod
    def _keys(parser):
        return {(name, key) for name in parser.sections() for key in parser[name]}

    def test_every_documented_key_sets_its_field(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(self.INI)
        cfg = cli._load_config(path)
        assert self._keys(cfg) == self._keys(self._readme_config())
        assert cli._section(cfg, DatasetSpec) == DatasetSpec(
            n=3, depth=4, samples=12, theta_range=(-1.5, 2.5), input_range=(0.5, 3.0)
        )
        assert cli._section(cfg, SpsaConfig) == SpsaConfig(
            learning_rate=0.01,
            momentum=0.4,
            perturbation=0.02,
            epochs=5,
            init_range=0.2,
        )
        assert cli._section(cfg, ExpressibilityConfig) == ExpressibilityConfig(
            fidelity_samples=80, bins=10, param_range=(-2.0, 2.0)
        )
        assert cli._section(cfg, GeneticConfig) == GeneticConfig(
            population=10, generations=7, mutation_rate=0.5
        )

    def test_readme_values_are_the_defaults(self):
        cfg = self._readme_config()
        for cls in (DatasetSpec, SpsaConfig, ExpressibilityConfig, GeneticConfig):
            assert cli._section(cfg, cls) == cls()

    def test_flags_win_over_the_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(self.INI)
        cfg = cli._load_config(path)
        assert cli._section(cfg, SpsaConfig, epochs=9).epochs == 9
        assert cli._section(cfg, SpsaConfig, epochs=None).epochs == 5
        partial = cli._load_config(None)
        partial.read_string("[dataset]\ntheta_max = 2.0\n")
        spec = cli._section(partial, DatasetSpec, teacher_seed=4)
        assert spec.theta_range == (DatasetSpec().theta_range[0], 2.0)
        assert spec.teacher_seed == 4

    @pytest.mark.parametrize(
        "ini, message",
        [
            ("[spsa]\nepochs = many\n", "[spsa] epochs must be int, got 'many'"),
            (
                "[dataset]\ntheta_min = low\n",
                "[dataset] theta_min must be float, got 'low'",
            ),
            (
                "n = 3\n",
                "File contains no section headers. file: '{cfg}', line: 1 'n = 3\\n'",
            ),
            (
                "[dataset]\nn = 3\nn = 4\n",
                "While reading from '{cfg}' [line 3]: "
                "option 'n' in section 'dataset' already exists",
            ),
        ],
    )
    def test_malformed_value_is_one_line(
        self, small_setup, tmp_path, capsys, ini, message
    ):
        _, data = small_setup
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        capsys.readouterr()
        code = _run(["train", "--data", data, "--config", cfg, "--trials", 1,
                     "--out", tmp_path / "t.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {message.format(cfg=cfg)}\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "subcommand, ini, message",
        [
            (
                "gen-data",
                "[dataset]\ninput_min = nan\n",
                "[dataset] input_min must be finite, got 'nan'",
            ),
            (
                "expressibility",
                "[expressibility]\nparam_min = nan\n",
                "[expressibility] param_min must be finite, got 'nan'",
            ),
            (
                "train",
                "[spsa]\nlearning_rate = nan\n",
                "[spsa] learning_rate must be finite, got 'nan'",
            ),
            (
                "train",
                "[spsa]\nlearning_rate = -inf\n",
                "[spsa] learning_rate must be finite, got '-inf'",
            ),
            (
                "expressibility",
                "[expressibility]\nparam_min = 2.0\nparam_max = 1.0\n",
                "param_range (2.0, 1.0) is not well-ordered with a finite width",
            ),
            (
                "expressibility",
                "[expressibility]\nparam_min = -1e308\nparam_max = 1e308\n",
                "param_range (-1e+308, 1e+308) is not well-ordered with a finite width",
            ),
            (
                "gen-data",
                "[dataset]\ninput_min = -1e308\ninput_max = 1e308\n",
                "input_range (-1e+308, 1e+308) is not well-ordered with a finite width",
            ),
        ],
    )
    def test_bad_float_is_one_line(
        self, small_setup, tmp_path, capsys, subcommand, ini, message
    ):
        _, data = small_setup
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        out = tmp_path / "out.csv"
        argv = {
            "gen-data": ["gen-data"],
            "expressibility": ["expressibility", "--trials", 1],
            "train": ["train", "--data", data, "--trials", 1],
        }[subcommand]
        capsys.readouterr()
        assert _run([*argv, "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--traces", "traces.csv", "--expr", "expr.csv"],
            ["verify-theory", "--n", 2],
        ],
        ids=["report", "verify-theory"],
    )
    def test_missing_config_file_fails_every_subcommand(self, tmp_path, capsys, argv):
        missing = tmp_path / "nonexistent.ini"
        assert _run([*argv, "--config", missing]) == 1
        assert capsys.readouterr().err == f"error: config file not found: {missing}\n"

    @pytest.mark.parametrize(
        "ini, message",
        [
            ("[spsa]\nseed = 12345\n", "[spsa] seed is not a config key"),
            (
                "[expressibility]\nseed = 7\n",
                "[expressibility] seed is not a config key",
            ),
            (
                "[dataset]\nteacher_seed = 3\n",
                "[dataset] teacher_seed is not a config key",
            ),
            ("[spsa]\nlearning_rat = 0.1\n", "[spsa] learning_rat is not a config key"),
            (
                "[dataset]\ntheta_range = 1.0\n",
                "[dataset] theta_range is not a config key",
            ),
            ("[spssa]\nepochs = 3\n", "[spssa] is not a config section"),
        ],
    )
    def test_unread_key_is_one_line(self, small_setup, tmp_path, capsys, ini, message):
        """Seeds come from --seed or GENSEL_SEED; a key no field reads is an error."""
        _, data = small_setup
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        capsys.readouterr()
        for argv in (
            ["train", "--data", data, "--trials", 1, "--out", tmp_path / "t.csv"],
            ["select", "--n", 2, "--depth", 2, "--out", tmp_path / "s.csv"],
        ):
            assert _run([*argv, "--config", cfg]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "t.csv").exists()


class TestSidecar:
    """`<csv>.config.txt` records every flag and setting and is a config file."""

    INI = (
        "[dataset]\nn = 3\ndepth = 3\nsamples = 10\ntheta_max = 2.5\n"
        "[spsa]\nlearning_rate = 0.005\nepochs = 4\n"
        "[expressibility]\nfidelity_samples = 40\nparam_min = -1.25\n"
        "[genetic]\npopulation = 8\ngenerations = 6\nmutation_rate = 0.45\n"
    )

    @pytest.mark.parametrize(
        "argv, sections",
        [
            (["gen-data", "--seed", 3], ["dataset"]),
            (
                ["select", "--n", 4, "--depth", 4, "--method", "genetic", "--seed", 1],
                ["genetic"],
            ),
            (
                ["train", "--data", "DATA", "--method", "exact", "--method", "random",
                 "--trials", 2, "--epochs", 3, "--seed", 7],
                ["dataset", "spsa", "genetic"],
            ),
            (
                ["expressibility", "--method", "genetic", "--trials", 2, "--bins", 10,
                 "--seed", 4],
                ["dataset", "genetic", "expressibility"],
            ),
        ],
        ids=["gen-data", "select", "train", "expressibility"],
    )
    def test_sidecar_as_config_reproduces_the_csv(
        self, small_setup, tmp_path, argv, sections
    ):
        _, data = small_setup
        argv = [data if a == "DATA" else a for a in argv]
        cfg = tmp_path / "settings.ini"
        cfg.write_text(self.INI)
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert _run([*argv, "--config", cfg, "--out", first]) == 0
        sidecar = Path(f"{first}.config.txt")
        lines = sidecar.read_text().splitlines()
        assert lines[0] == f"# subcommand = {argv[0]}"
        assert f"# config = {cfg}" in lines
        assert f"# out = {first}" in lines
        parser = cli._load_config(sidecar)
        assert parser.sections() == sections
        classes = {name: cls for cls, name in cli._SECTIONS.items()}
        for name in sections:
            keys = {k for _, ks in cli._config_fields(classes[name]) for k in ks}
            assert set(parser[name]) == keys
        assert _run([*argv, "--config", sidecar, "--out", again]) == 0
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize(
        "argv, ini",
        [
            (
                ["select", "--n", 3, "--depth", 3, "--method", "genetic"],
                ("[genetic]\npopulation = 8\n", "[genetic]\npopulation = 9\n"),
            ),
            (
                ["expressibility", "--trials", 1, "--bins", 5],
                (
                    "[expressibility]\nfidelity_samples = 30\n",
                    "[expressibility]\nfidelity_samples = 31\n",
                ),
            ),
        ],
        ids=["genetic-population", "fidelity-samples"],
    )
    def test_one_config_value_changes_the_sidecar(self, tmp_path, argv, ini):
        cfg, out = tmp_path / "run.ini", tmp_path / "out.csv"
        sidecars = []
        for text in ini:
            cfg.write_text(text)
            assert _run([*argv, "--config", cfg, "--out", out]) == 0
            sidecars.append(Path(f"{out}.config.txt").read_text())
        assert sidecars[0] != sidecars[1]


class TestFlagBounds:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--trials", -3], "--trials must be at least 0, got -3"),
            (["expressibility", "--trials", -2], "--trials must be at least 0, got -2"),
            (["verify-theory", "--trials", -1], "--trials must be at least 0, got -1"),
            (["train", "--jobs", 0], "--jobs must be at least 1, got 0"),
        ],
    )
    def test_negative_count_is_one_line(
        self, small_setup, tmp_path, capsys, argv, message
    ):
        _, data = small_setup
        out = tmp_path / "out.csv"
        flag = "--report" if argv[0] == "verify-theory" else "--out"
        extra = ["--data", data] if argv[0] == "train" else []
        capsys.readouterr()
        assert _run([*argv, *extra, flag, out]) == 2
        assert capsys.readouterr().err == f"error: argument: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify-theory", "--n", -1], "qubit count must be positive, got -1"),
            (
                ["verify-theory", "--n", 1, "--max-terms", 0, "--trials", 1],
                "max_terms must be at least 1, got 0",
            ),
            (
                ["select", "--n", 3, "--pool-subsample", -1],
                "subsample size must be non-negative, got -1",
            ),
            (
                ["select", "--n", 3, "--depth", -2, "--method", "random"],
                "budget must be at least 1, got -2",
            ),
            *(
                (
                    ["select", "--n", 3, "--depth", 0, "--method", method],
                    "budget must be at least 1, got 0",
                )
                for method in ("random", "grad-only", "pair-only")
            ),
        ],
    )
    def test_bad_count_is_one_line(self, tmp_path, capsys, argv, message):
        """Counts the parser cannot bound fail in the library, in one line."""
        out = tmp_path / "out.csv"
        flag = "--report" if argv[0] == "verify-theory" else "--out"
        capsys.readouterr()
        assert _run([*argv, flag, out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert not list(tmp_path.iterdir())


class TestSeedEnvironment:
    def test_gensel_seed_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GENSEL_SEED", "5")
        out_env = tmp_path / "env.csv"
        out_flag = tmp_path / "flag.csv"
        assert _run(["gen-data", "--out", out_env]) == 0
        monkeypatch.delenv("GENSEL_SEED")
        assert _run(["gen-data", "--seed", 5, "--out", out_flag]) == 0
        assert out_env.read_bytes() == out_flag.read_bytes()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GENSEL_SEED", "5")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert _run(["gen-data", "--seed", 6, "--out", out_a]) == 0
        monkeypatch.delenv("GENSEL_SEED")
        assert _run(["gen-data", "--seed", 6, "--out", out_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_env_seed_is_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GENSEL_SEED", "5")
        out = tmp_path / "s.csv"
        assert _run(["select", "--n", 3, "--depth", 2, "--out", out]) == 0
        assert "# seed = 5" in Path(f"{out}.config.txt").read_text().splitlines()

    def test_report_validates_the_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GENSEL_SEED", "x")
        assert _run(["report", "--traces", tmp_path / "t.csv"]) == 1
        err = capsys.readouterr().err
        assert err == "error: GENSEL_SEED must be an integer, got 'x'\n"


class TestParserReuse:
    """`main` builds its parser once per process; no call sees another's state."""

    def test_built_once(self, tmp_path):
        cli._build_parser.cache_clear()
        for seed in range(3):
            assert _run(["gen-data", "--seed", seed, "--out", tmp_path / "d.csv"]) == 0
        assert cli._build_parser.cache_info().misses == 1

    def test_append_default_does_not_leak(self, small_setup, tmp_path):
        cfg, data = small_setup
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ["--data", data, "--config", cfg, "--trials", 1, "--seed", 5]
        assert _run(["train", *common, "--method", "random", "--out", first]) == 0
        assert _run(["train", *common, "--out", second]) == 0
        assert {r["method"] for r in _read_csv(first)} == {"random"}
        assert {r["method"] for r in _read_csv(second)} == {"exact"}

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        assert _run(["gen-data", "--bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument: ") and err.count("\n") == 1
        out = tmp_path / "d.csv"
        assert _run(["gen-data", "--out", out]) == 0
        assert out.exists()

    def test_changed_seed_env_is_honoured(self, tmp_path, monkeypatch):
        for seed in ("5", "6"):
            monkeypatch.setenv("GENSEL_SEED", seed)
            out = tmp_path / f"env{seed}.csv"
            assert _run(["gen-data", "--out", out]) == 0
            sidecar = Path(f"{out}.config.txt").read_text().splitlines()
            assert f"# seed = {seed}" in sidecar
        flag = tmp_path / "flag.csv"
        assert _run(["gen-data", "--seed", 6, "--out", flag]) == 0
        assert (tmp_path / "env6.csv").read_bytes() == flag.read_bytes()
        assert (tmp_path / "env5.csv").read_bytes() != flag.read_bytes()


def test_import_leaves_scipy_unloaded(tmp_path):
    """No command needs scipy, and only `train --jobs` above 1 a process
    pool: importing the CLI loads neither, and a `report` whose t-test runs
    loads no scipy module."""
    env = dict(os.environ, PYTHONPATH=str(Path(gensel.__file__).parents[1]))
    code = (
        "import sys, gensel.cli; print(sorted(m for m in sys.modules"
        " if m.startswith('scipy') or m == 'concurrent.futures.process'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    traces, expr = _write_odd_report_inputs(tmp_path, ["exact", "random"])
    argv = ["report", "--traces", str(traces), "--expr", str(expr), "--out-table",
            str(tmp_path / "table1.csv"), "--out-curves", str(tmp_path / "curves.svg")]
    code = (
        f"import sys, gensel.cli; assert gensel.cli.main({argv!r}) == 0;"
        " print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    t_test, _, modules = out.stdout.strip().splitlines()
    assert re.fullmatch(r"t-test \(exact vs random, final epoch\): t=\S+ p=\S+", t_test)
    assert modules == "[]"
