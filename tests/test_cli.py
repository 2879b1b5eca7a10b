"""End-to-end CLI tests: flags, CSV shapes, errors, reproducibility."""

import csv
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gensel
from gensel import cli
from gensel.cli import main
from gensel.experiments import (
    DatasetSpec,
    ExpressibilityConfig,
    GeneticConfig,
    run_comparison,
    trial_models,
)
from gensel.optimizer import SpsaConfig
from gensel.pauli import PauliString
from gensel.selection import build_pool, score_matrix
from gensel.simulator import compile_circuit


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
        pool = build_pool(PauliString.from_label("ZII"), subsample_size=20, seed=4)
        c = score_matrix(pool)
        subsets = np.array(list(itertools.combinations(range(20), 8)))
        best = int(c[subsets[:, :, None], subsets[:, None, :]].sum(axis=(1, 2)).max())
        assert best // 2 < 28  # no 8-clique
        assert int(row["score"]) == best // 2
        assert int(row["n_commute_pairs"]) == 28 - best // 2
        chosen = {row[f"generator_{i}"] for i in range(1, 9)}
        assert chosen <= {p.label for p in pool}

    def test_pool_subsample(self, tmp_path):
        out = tmp_path / "sub.csv"
        assert _run(
            ["select", "--observable", "ZIIII", "--depth", 5, "--method", "exact",
             "--pool-subsample", 64, "--seed", 3, "--out", out]
        ) == 0

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


def test_csv_cells_round_trip(tmp_path):
    """Quoted strings and float reprs read back as written."""
    path = tmp_path / "t.csv"
    rows = [["a,b", 'say "hi"', "two\nlines", 0.1, 1e-300, -2.5e17, 7]]
    cli._write_csv(path, ["s1", "s2", "s3", "f1", "f2", "f3", "i"], rows)
    with open(path, newline="", encoding="utf-8") as fh:
        header, row = list(csv.reader(fh))
    assert row == ["a,b", 'say "hi"', "two\nlines", "0.1", "1e-300", "-2.5e+17", "7"]
    assert [float(v) for v in row[3:6]] == rows[0][3:6]


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
        """Four cells over three workers (chunks of 1, 1 and 2) write the
        bytes of one batch."""
        cfg, data = small_setup
        args = ["train", "--data", data, "--config", cfg, "--method", "exact",
                "--method", "random", "--trials", 2, "--seed", 5]
        one, three = tmp_path / "one.csv", tmp_path / "three.csv"
        assert _run(args + ["--out", one, "--jobs", 1]) == 0
        assert _run(args + ["--out", three, "--jobs", 3]) == 0
        assert one.read_bytes() == three.read_bytes()

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
        """A finite but huge learning rate trains to NaN: exit 1, one error
        line and no warning on stderr, no traces.csv."""
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[dataset]\nn = 3\ndepth = 3\nsamples = 10\n"
            "[spsa]\nlearning_rate = 1e308\nepochs = 3\n"
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


    def test_one_table_per_run(self, small_setup, tmp_path, monkeypatch):
        """Two pool-based methods x 20 trials read one table of the pool."""
        from gensel import selection

        sizes = []

        def counted(candidates):
            sizes.append(len(candidates))
            return score_matrix(candidates)

        monkeypatch.setattr(selection, "score_matrix", counted)
        cfg, _ = small_setup
        assert _run(
            ["expressibility", "--config", cfg, "--method", "exact", "--method",
             "greedy", "--trials", 20, "--samples", 20, "--bins", 10, "--seed", 1,
             "--out", tmp_path / "expr.csv"]
        ) == 0
        assert len(_read_csv(tmp_path / "expr.csv")) == 40
        # evaluate_selection scores each trial's 3 generators on its own
        pool = build_pool(PauliString.from_label("ZII"))
        assert [s for s in sizes if s != 3] == [len(pool)]


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

    def test_double_sums_computed_once_per_observable(self, tmp_path, monkeypatch):
        from gensel import theory

        calls = []
        real = theory._double_commutator_sums

        def counted(o):
            calls.append(o)
            return real(o)

        monkeypatch.setattr(theory, "_double_commutator_sums", counted)
        assert _run(["verify-theory", "--n", 2, "--trials", 3, "--observable", "ZX",
                     "--seed", 0, "--report", tmp_path / "theory.csv"]) == 0
        assert len(calls) == 4


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


def test_import_leaves_scipy_unloaded():
    """Only the t-test of `report` needs scipy and only `train --jobs` above 1
    a process pool, so the other commands import neither."""
    env = dict(os.environ, PYTHONPATH=str(Path(gensel.__file__).parents[1]))
    code = (
        "import sys, gensel.cli; print(sorted(m for m in sys.modules"
        " if m.startswith('scipy') or m == 'concurrent.futures.process'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
