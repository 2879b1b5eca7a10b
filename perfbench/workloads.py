"""The benchmark's workloads: their inputs, one round of timed steps, output checks.

Each workload builds its inputs from the seed in ``__init__`` (this is what
``setup_s`` times), makes untimed program calls whose results later steps
reuse in ``warm_up``, and runs whole rounds of the same steps in
``run_round``.  Every step is timed on its own and tagged with the stage it
belongs to: ``primary``, ``secondary`` or ``other``.  ``finish`` makes the
extra program calls the checks need, and ``check`` checks the last round's
outputs; it reads only ``self.out``, so that corrupted copies can be checked
too.  ``kernels`` adds the per-layer figures that are timed in blocks rather
than by spans.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from gensel import cli, experiments, optimizer, pauli, simulator, theory

import oracle
from tracing import per_call

LETTERS = "IXYZ"


class Ops:
    """Counts the program operations a run attempts and those that fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted and reported, the run goes on
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def cli(self, argv: list[str]) -> str | None:
        """Run one gensel subcommand in-process; its stdout, or None on failure."""
        self.attempted += 1
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception as exc:
            code = repr(exc)
        if code != 0:
            self.failed += 1
            self.errors.append(f"gensel {' '.join(argv)}: exit {code}")
            return None
        return out.getvalue()


def random_label(rng: np.random.Generator, n: int) -> str:
    while True:
        label = "".join(LETTERS[i] for i in rng.integers(0, 4, n))
        if set(label) != {"I"}:
            return label


def clear_caches() -> None:
    """Empty every functools cache in gensel, so cached results start cold."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "gensel":
            continue
        for value in list(vars(module).values()):
            while value is not None:
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
                value = getattr(value, "__wrapped__", None)


def uncached(fn):
    """The function under any functools cache (and span) wrapped around it."""
    traced = getattr(fn, "uncached", None)  # a traced cache keeps its span
    if traced is not None:
        return traced
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


def read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def csv_bytes(files: dict[str, str]) -> int:
    return sum(len(t.encode()) for k, t in files.items() if k.endswith(".csv"))


class Workload:
    name = ""

    def __init__(self, seed: int, ops: Ops):
        self.out: dict = {}
        self.steps: list[tuple[str, str, float]] = []  # (step, stage, seconds)

    def timed(self, step: str, stage: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.steps.append((step, stage, time.perf_counter() - start))
        return result

    def warm_up(self, ops: Ops) -> None:
        pass

    def run_round(self, ops: Ops, workdir: Path) -> None:
        raise NotImplementedError

    def finish(self, ops: Ops, workdir: Path) -> None:
        pass

    def check(self) -> list[str]:
        failures: list[str] = []
        for name, fn in self.checks():
            try:
                failures += [f"{name}: {msg}" for msg in fn(self.out)]
            except Exception as exc:  # a malformed output fails its check
                failures.append(f"{name}: {exc!r}")
        return failures

    def checks(self):
        return []

    def kernels(self) -> dict[str, float]:
        return {}

    def rates(self, primary: float, secondary: float) -> list[tuple[str, float, str]]:
        return []

    def digests(self) -> dict[str, str]:
        return {
            k: hashlib.sha256(v.encode()).hexdigest()
            for k, v in self.out.get("files", {}).items()
            if k.endswith(".csv")
        }


def simulator_kernels(ns) -> dict[str, float]:
    """Single-state kernels of the public simulator API, per call, at each n."""
    rng = np.random.default_rng(0)
    out = {}
    for n in ns:
        state = simulator.apply_ry_encoding(simulator.StateVector.zero_state(n), 0.7)
        gens = [pauli.PauliString.from_label(random_label(rng, n)) for _ in range(20)]
        obs = pauli.PauliString.from_label("Z" + "I" * (n - 1))
        zero = simulator.StateVector.zero_state(n)
        out[f"simulator.apply_ry_encoding_us.n{n}"] = 1e6 * per_call(
            simulator.apply_ry_encoding, [(zero, 0.1 * i) for i in range(20)]
        )
        out[f"simulator.apply_pauli_rotation_us.n{n}"] = 1e6 * per_call(
            simulator.apply_pauli_rotation, [(state, g, 0.3) for g in gens]
        )
        out[f"simulator.expectation_us.n{n}"] = 1e6 * per_call(
            simulator.expectation, [(state, obs)] * 20
        )
    return out


# ---------------------------------------------------------------------------
# paper_workflow: the README workflow, verbatim
# ---------------------------------------------------------------------------


class PaperWorkflow(Workload):
    """gen-data -> train 2 x 20 x 200 -> expressibility 2 x 20 -> report.

    The README fixes every seed (gen-data 0, train and expressibility 42), so
    ``--seed`` does not change this workload's inputs.
    """

    name = "paper_workflow"
    TRIALS, EPOCHS, DEPTH, INIT_RANGE = 20, 200, 5, 0.1  # README / SpsaConfig defaults
    OBSERVABLE = "ZIIII"
    SAMPLED = (0, 9, 19)  # trials whose selections and epoch-0 RMSE are rechecked
    EXPR_REPEATS = 5

    def __init__(self, seed, ops):
        super().__init__(seed, ops)
        self.config = "[spsa]\nlearning_rate = 0.005\n"

    def _argv(self, d: Path):
        methods = ["--method", "exact", "--method", "random"]
        return [
            ["gen-data", "--seed", "0", "--out", str(d / "data.csv")],
            ["train", "--data", str(d / "data.csv"), "--config", str(d / "run.ini"),
             *methods, "--trials", str(self.TRIALS), "--seed", "42", "--jobs", "1",
             "--out", str(d / "traces.csv")],
            ["expressibility", *methods, "--trials", str(self.TRIALS), "--seed", "42",
             "--out", str(d / "expr.csv")],
            ["report", "--traces", str(d / "traces.csv"), "--expr", str(d / "expr.csv"),
             "--out-table", str(d / "table1.csv"), "--out-curves", str(d / "curves.svg"),
             "--deterministic"],
        ]

    def run_round(self, ops, workdir):
        (workdir / "run.ini").write_text(self.config)
        gen, train, expr, report = self._argv(workdir)
        # The ~1 s expressibility step, which reads nothing train writes, runs
        # EXPR_REPEATS times on both sides of train, so that its time is
        # averaged across the whole round; the outputs must agree.
        exprs = [expr[:-1] + [str(workdir / f"expr{k}.csv")] for k in range(self.EXPR_REPEATS)]
        half = self.EXPR_REPEATS // 2
        self.timed("gen-data", "other", ops.cli, gen)
        for argv in exprs[:half]:
            self.timed("expressibility", "secondary", ops.cli, argv)
        self.timed("train", "primary", ops.cli, train)
        for argv in exprs[half:]:
            self.timed("expressibility", "secondary", ops.cli, argv)
        (workdir / "expr0.csv").replace(workdir / "expr.csv")
        report_stdout = self.timed("report", "other", ops.cli, report)
        names = ("data.csv", "traces.csv", "expr.csv", "table1.csv", "curves.svg")
        self.out = {
            "files": {k: (workdir / k).read_text() for k in names if (workdir / k).exists()},
            "report_stdout": report_stdout or "",
            "again": {
                f"expr.csv#{k}": (workdir / f"expr{k}.csv").read_text()
                for k in range(1, self.EXPR_REPEATS)
            },
        }

    def finish(self, ops, workdir):
        gen = self._argv(workdir)[0]
        ops.cli(gen[:-1] + [str(workdir / "data2.csv")])
        self.out["again"]["data.csv"] = (workdir / "data2.csv").read_text()
        dataset, teacher = ops.call(experiments.generate_dataset, experiments.DatasetSpec())
        self.out["teacher"] = {
            "generators": [g.label for g in teacher.model.generators],
            "observable": teacher.model.observable.label,
            "theta": [float(t) for t in teacher.theta],
            "dataset": [list(p) for p in dataset],
        }
        obs = pauli.PauliString.from_label(self.OBSERVABLE)
        self.out["selections"] = {
            f"{m}:{t}": [
                g.label
                for g in ops.call(
                    experiments.select_for_method, m, obs, self.DEPTH,
                    oracle.trial_seed(42, m, t),
                ).chosen
            ]
            for m in ("exact", "random")
            for t in self.SAMPLED
        }

    def checks(self):
        return [
            ("dataset", self._check_dataset),
            ("traces", self._check_traces),
            ("paper_properties", self._check_properties),
            ("table1", self._check_table),
            ("t_test", self._check_ttest),
            ("expressibility", self._check_expr),
            ("determinism", self._check_determinism),
            ("svg", self._check_svg),
        ]

    @staticmethod
    def _check_dataset(out):
        rows = read_rows(out["files"]["data.csv"])
        teacher = out["teacher"]
        if len(rows) != 100:
            return [f"{len(rows)} rows, expected 100"]
        got = [[float(r["x"]), float(r["y"])] for r in rows]
        if got != teacher["dataset"]:
            return ["data.csv differs from generate_dataset for teacher seed 0"]
        xs = [p[0] for p in got[:8]]
        want = oracle.model_outputs(
            teacher["generators"], teacher["observable"], teacher["theta"], xs
        )
        bad = [i for i, p in enumerate(got[:8]) if not oracle.close(p[1], want[i], 1e-9, 1e-10)]
        return [f"labels of rows {bad} differ from the dense oracle"] if bad else []

    @classmethod
    def _traces(cls, out):
        traces: dict[str, dict[int, list]] = {}
        for r in read_rows(out["files"]["traces.csv"]):
            traces.setdefault(r["method"], {}).setdefault(int(r["trial"]), []).append(
                (int(r["epoch"]), float(r["rmse"]), float(r["rmse_normalized"]))
            )
        return traces

    @classmethod
    def _check_traces(cls, out):
        traces = cls._traces(out)
        fails = []
        if sorted(traces) != ["exact", "random"] or any(
            sorted(t) != list(range(cls.TRIALS)) for t in traces.values()
        ):
            return ["traces.csv does not hold trials 0..19 of exact and random"]
        xs, ys = zip(*out["teacher"]["dataset"])
        for method, trials in traces.items():
            for trial, rows in trials.items():
                if [e for e, _, _ in rows] != list(range(cls.EPOCHS + 1)):
                    fails.append(f"{method}/{trial}: epochs are not 0..{cls.EPOCHS}")
                r0 = rows[0][1]
                if any(not oracle.close(nm, r / r0, 1e-12) for _, r, nm in rows):
                    fails.append(f"{method}/{trial}: rmse_normalized != rmse / rmse[0]")
            for trial in cls.SAMPLED:
                seed = oracle.trial_seed(42, method, trial)
                theta0 = oracle.initial_theta(seed, cls.DEPTH, cls.INIT_RANGE)
                labels = out["selections"][f"{method}:{trial}"]
                want = oracle.rmse(labels, cls.OBSERVABLE, theta0, xs, ys)
                if not oracle.close(trials[trial][0][1], want):
                    fails.append(f"{method}/{trial}: epoch-0 RMSE differs from the oracle")
        return fails

    @classmethod
    def _mean_curves(cls, out):
        return {
            m: np.mean([[nm for _, _, nm in rows] for rows in trials.values()], axis=0)
            for m, trials in cls._traces(out).items()
        }

    @classmethod
    def _check_properties(cls, out):
        curves = cls._mean_curves(out)
        fails = [f"{m}: mean normalized RMSE does not fall" for m, c in curves.items() if c[-1] >= c[0]]
        share = float(np.mean(curves["exact"][10:151] <= curves["random"][10:151]))
        if share < 0.6:
            fails.append(f"exact <= random on {share:.0%} of epochs 10-150, need 60%")
        return fails

    @classmethod
    def _check_table(cls, out):
        traces = cls._traces(out)
        expr = read_rows(out["files"]["expr.csv"])
        want = {}
        for m, trials in traces.items():
            want[(m, "final_rmse")] = [rows[-1][1] for rows in trials.values()]
            want[(m, "final_rmse_normalized")] = [rows[-1][2] for rows in trials.values()]
        for col in ("n_commute_obs", "n_commute_pairs", "hellinger"):
            for m in ("exact", "random"):
                want[(m, col)] = [float(r[col]) for r in expr if r["method"] == m]
        table = {(r["method"], r["metric"]): r for r in read_rows(out["files"]["table1.csv"])}
        if set(table) != set(want):
            return [f"table1.csv rows {sorted(table)} != {sorted(want)}"]
        fails = []
        for key, values in want.items():
            mean, std = statistics.fmean(values), statistics.stdev(values)
            row = table[key]
            if not (oracle.close(float(row["mean"]), mean) and oracle.close(float(row["std"]), std)):
                fails.append(f"{key}: mean/std {row['mean']}/{row['std']} != {mean}/{std}")
        return fails

    @classmethod
    def _check_ttest(cls, out):
        from scipy.stats import ttest_ind

        traces = cls._traces(out)
        finals = [[rows[-1][1] for rows in traces[m].values()] for m in ("exact", "random")]
        want = ttest_ind(*finals).pvalue
        found = re.search(r"\bp=(\S+)", out["report_stdout"])
        if found is None:
            return ["report printed no p-value"]
        got = float(found.group(1))
        return [] if oracle.close(got, want, 1e-5) else [f"printed p={got}, scipy gives {want}"]

    @classmethod
    def _check_expr(cls, out):
        rows = read_rows(out["files"]["expr.csv"])
        if sorted((r["method"], int(r["trial"])) for r in rows) != sorted(
            (m, t) for m in ("exact", "random") for t in range(cls.TRIALS)
        ):
            return ["expr.csv does not hold trials 0..19 of exact and random"]
        fails = []
        by_key = {(r["method"], int(r["trial"])): r for r in rows}
        for (m, t), r in by_key.items():
            if not 0.0 <= float(r["hellinger"]) <= 1.0:
                fails.append(f"{m}/{t}: Hellinger distance {r['hellinger']} outside [0, 1]")
            if m == "exact" and (r["n_commute_obs"], r["n_commute_pairs"]) != ("0", "0"):
                fails.append(f"exact/{t}: commuting counts are not zero")
        for key, labels in out["selections"].items():
            m, t = key.split(":")
            counts = oracle.commuting_counts(labels, cls.OBSERVABLE)
            row = by_key[(m, int(t))]
            if counts != (int(row["n_commute_obs"]), int(row["n_commute_pairs"])):
                fails.append(f"{key}: counts in expr.csv != parity count {counts}")
        return fails

    @staticmethod
    def _check_determinism(out):
        return [
            f"{k} differs from the output of an identical run"
            for k, again in out["again"].items()
            if again != out["files"][k.split("#")[0]]
        ]

    @staticmethod
    def _check_svg(out):
        svg = out["files"].get("curves.svg", "")
        return [] if "<svg" in svg and "</svg>" in svg else ["curves.svg is not an SVG"]

    def kernels(self):
        obs = pauli.PauliString.from_label(self.OBSERVABLE)
        strings = list(pauli.pauli_strings(5))
        metrics = {
            "pauli.commutes_ns": 1e9 * per_call(pauli.commutes, [(p, obs) for p in strings]),
            "pauli.pauli_strings_ms.n5": 1e3 * per_call(
                lambda: list(pauli.pauli_strings(5)), [()]
            ),
            "cli.csv_bytes": float(csv_bytes(self.out["files"])),
        }
        metrics.update(simulator_kernels([5]))
        return metrics

    def rates(self, primary, secondary):
        epochs = 2 * self.TRIALS * self.EPOCHS
        return [
            ("train_epochs_per_s", epochs / primary, "epoch/s"),
            ("expr_models_per_s", 2 * self.TRIALS / secondary, "model/s"),
        ]


# ---------------------------------------------------------------------------
# wide_circuits: training and expressibility at n = 8..10, no selection
# ---------------------------------------------------------------------------


class WideCircuits(Workload):
    """One SPSA trial and two expressibility estimates at each n = 8, 9, 10."""

    name = "wide_circuits"
    NS, EPOCHS, SAMPLES, EXPR_MODELS = (8, 9, 10), 10, 100, 2
    INIT_RANGE = 0.1

    def __init__(self, seed, ops):
        super().__init__(seed, ops)
        rng = np.random.default_rng(seed)
        self.cases = []
        for n in self.NS:
            observable = pauli.PauliString.from_label("Z" + "I" * (n - 1))

            def model():
                labels = set()
                while len(labels) < n:
                    labels.add(random_label(rng, n))
                gens = [pauli.PauliString.from_label(g) for g in sorted(labels)]
                return simulator.CircuitModel(n, gens, observable)

            # The teacher is drawn here rather than by generate_dataset, which
            # enumerates all 4^n strings to pick n of them.
            teacher = model()
            theta = rng.uniform(-math.pi, math.pi, n)
            xs = rng.uniform(0.0, 2.0 * math.pi, self.SAMPLES)
            ys = ops.call(simulator.run_model_batch, teacher, theta, xs)
            self.cases.append({
                "n": n,
                "dataset": list(zip(xs.tolist(), ys.tolist())),
                "teacher": (teacher, theta),
                "models": [model() for _ in range(self.EXPR_MODELS)],
                "train_seed": int(rng.integers(2**31)),
                "expr_seeds": [int(s) for s in rng.integers(2**31, size=self.EXPR_MODELS)],
            })

    def run_round(self, ops, workdir):
        results = []
        for case in self.cases:
            n = case["n"]
            config = optimizer.SpsaConfig(
                learning_rate=0.005, epochs=self.EPOCHS, seed=case["train_seed"]
            )
            record = self.timed(
                f"train:n{n}", "primary",
                ops.call, optimizer.train, case["models"][0], case["dataset"], config,
            )
            expr = [
                self.timed(
                    f"expressibility:n{n}:{i}", "secondary",
                    ops.call, experiments.expressibility_hellinger,
                    model, experiments.ExpressibilityConfig(seed=s),
                )
                for i, (model, s) in enumerate(zip(case["models"], case["expr_seeds"]))
            ]
            results.append({
                "n": case["n"],
                "trace": [float(v) for v in record.rmse_trace],
                "normalized": [float(v) for v in record.normalized_trace],
                "expr": [float(v) for v in expr],
            })
        self.out.setdefault("rounds", []).append(results)

    def finish(self, ops, workdir):
        self.out["cases"] = [
            {
                "n": c["n"],
                "teacher_generators": [g.label for g in c["teacher"][0].generators],
                "observable": c["teacher"][0].observable.label,
                "teacher_theta": [float(t) for t in c["teacher"][1]],
                "dataset": [list(p) for p in c["dataset"]],
                "student": [g.label for g in c["models"][0].generators],
                "train_seed": c["train_seed"],
            }
            for c in self.cases
        ]

    def checks(self):
        return [
            ("dataset", self._check_dataset),
            ("training", self._check_training),
            ("expressibility", self._check_expr),
            ("determinism", self._check_repeat),
        ]

    @staticmethod
    def _check_dataset(out):
        fails = []
        for c in out["cases"]:
            xs, ys = zip(*c["dataset"][:4])
            want = oracle.model_outputs(
                c["teacher_generators"], c["observable"], c["teacher_theta"], xs
            )
            if not all(oracle.close(y, w, 1e-9, 1e-10) for y, w in zip(ys, want)):
                fails.append(f"n={c['n']}: labels differ from the dense oracle")
        return fails

    @classmethod
    def _check_training(cls, out):
        fails = []
        for c, r in zip(out["cases"], out["rounds"][-1]):
            trace = r["trace"]
            if len(trace) != cls.EPOCHS + 1 or not all(np.isfinite(trace)):
                fails.append(f"n={c['n']}: trace has {len(trace)} finite-checked entries")
                continue
            if any(not oracle.close(nm, t / trace[0], 1e-12) for t, nm in zip(trace, r["normalized"])):
                fails.append(f"n={c['n']}: normalized trace != trace / trace[0]")
            xs, ys = zip(*c["dataset"])
            theta0 = oracle.initial_theta(c["train_seed"], c["n"], cls.INIT_RANGE)
            want = oracle.rmse(c["student"], c["observable"], theta0, xs, ys)
            if not oracle.close(trace[0], want):
                fails.append(f"n={c['n']}: epoch-0 RMSE {trace[0]} != oracle {want}")
        return fails

    @staticmethod
    def _check_expr(out):
        return [
            f"n={r['n']}: Hellinger distance {v} outside [0, 1]"
            for r in out["rounds"][-1]
            for v in r["expr"]
            if not 0.0 <= v <= 1.0
        ]

    @staticmethod
    def _check_repeat(out):
        first = out["rounds"][0]
        return [f"round {i} differs from round 0" for i, r in enumerate(out["rounds"]) if r != first]

    def kernels(self):
        return simulator_kernels([8, 10])

    def rates(self, primary, secondary):
        return [
            ("train_epochs_per_s", len(self.NS) * self.EPOCHS / primary, "epoch/s"),
            ("expr_models_per_s", len(self.NS) * self.EXPR_MODELS / secondary, "model/s"),
        ]


# ---------------------------------------------------------------------------
# theory_check: Casimir constant and commutator-sum identities
# ---------------------------------------------------------------------------


class TheoryCheck(Workload):
    """verify-theory at n = 3 (full basis), 4 and 5 (8-term and single strings).

    ``warm_up`` computes the Casimir constants at n = 3, 4, 5 cold and leaves
    them cached, so that the identity checks exclude them.  Each round then
    computes the n = 4 constant cold three more times, past the cache: the
    n = 5 one takes 4-7 s, too long to repeat within a run, and runs the
    same code.
    """

    name = "theory_check"
    TRIALS = {3: 4, 4: 3, 5: 1}  # random observables per n, besides one single string
    COLD_N = 4

    def __init__(self, seed, ops):
        super().__init__(seed, ops)
        rng = np.random.default_rng(seed)
        self.cells = [(n, t, random_label(rng, n), int(rng.integers(2**31))) for n, t in self.TRIALS.items()]

    def warm_up(self, ops):
        clear_caches()
        self.casimir = [(n, ops.call(theory.casimir_constant, n)) for n in self.TRIALS]

    def run_round(self, ops, workdir):
        casimir = list(self.casimir)
        reports = {}
        # The ~0.3 s cold constant runs before each verify-theory call, so
        # that its time is averaged across the round.
        for n, trials, obs, seed in self.cells:
            cold = self.timed(
                "casimir_cold", "primary",
                ops.call, uncached(theory.casimir_constant), self.COLD_N,
            )
            casimir.append((self.COLD_N, cold))
            path = workdir / f"theory{n}.csv"
            self.timed(f"verify-theory:n{n}", "secondary", ops.cli, [
                "verify-theory", "--n", str(n), "--trials", str(trials), "--observable",
                obs, "--seed", str(seed), "--report", str(path),
            ])
            reports[f"theory{n}.csv"] = path.read_text()
        self.out = {"casimir": casimir, "files": reports, "cells": self.cells}

    def checks(self):
        return [
            ("casimir", self._check_casimir),
            ("identities", self._check_identities),
            ("dense_oracle", self._check_dense),
        ]

    @staticmethod
    def _check_casimir(out):
        fails = [
            f"casimir_constant({n}) = {c}, want {oracle.casimir(n)}"
            for n, c in out["casimir"]
            if not oracle.close(c, oracle.casimir(n), 1e-12)
        ]
        for name, text in out["files"].items():
            for row in read_rows(text):
                n = int(row["n"])
                if not oracle.close(float(row["c_measured"]), oracle.casimir(n), 1e-12):
                    fails.append(f"{name}: c_measured {row['c_measured']} != 2^(n+1)")
        return fails

    @staticmethod
    def _check_identities(out):
        fails = []
        for n, trials, obs, seed in out["cells"]:
            rows = read_rows(out["files"][f"theory{n}.csv"])
            if len(rows) != trials + 1:
                fails.append(f"n={n}: {len(rows)} rows, want {trials + 1}")
            c = oracle.casimir(n)
            for i, r in enumerate(rows):
                v = {k: float(x) for k, x in r.items()}
                tag = f"n={n} row {i}"
                # Every observable here has unit norm, so the right sides are c and c^2.
                if not (oracle.close(v["thm1_lhs"], c) and oracle.close(v["thm1_rhs"], c)):
                    fails.append(f"{tag}: first-order sum {v['thm1_lhs']} != c = {c}")
                if not (oracle.close(v["lemma1_lhs"], c * c) and oracle.close(v["lemma1_rhs"], c * c)):
                    fails.append(f"{tag}: double sum {v['lemma1_lhs']} != c^2")
                if not oracle.close(v["diag_sum"] + v["offdiag_sum"], v["lemma1_lhs"]):
                    fails.append(f"{tag}: diagonal + off-diagonal != double sum")
                d2 = 4.0**n
                if v["diag_sum"] < c * c / (d2 - 1) * (1 - 1e-9) or v["offdiag_sum"] > c * c * (d2 - 2) / (d2 - 1) * (1 + 1e-9):
                    fails.append(f"{tag}: a bound of the double sum is violated")
                if v["max_rel_err"] > 1e-9:
                    fails.append(f"{tag}: max_rel_err {v['max_rel_err']}")
        return fails

    @staticmethod
    def _check_dense(out):
        n, _, obs, _ = next(cell for cell in out["cells"] if cell[0] == 3)
        row = read_rows(out["files"]["theory3.csv"])[0]  # the --observable row
        first, total, diag = oracle.commutator_sums(obs)
        want = {"thm1_lhs": first, "lemma1_lhs": total, "diag_sum": diag, "offdiag_sum": total - diag}
        return [
            f"{obs}: {k} = {row[k]}, dense oracle {w}"
            for k, w in want.items()
            if not oracle.close(float(row[k]), w)
        ]

    def kernels(self):
        basis = list(pauli.pauli_strings(5))
        pairs = [(basis[i], basis[(7 * i + 3) % len(basis)]) for i in range(len(basis))]
        return {
            "pauli.commutator_ns": 1e9 * per_call(pauli.commutator, pairs),
            "cli.csv_bytes": float(csv_bytes(self.out["files"])),
        }

    def rates(self, primary, secondary):
        checked = sum(t + 1 for t in self.TRIALS.values())
        return [
            (f"casimir_s (n={self.COLD_N}, cold)", primary, "s"),
            ("identity_checks_per_s", checked / secondary, "observable/s"),
        ]


WORKLOADS = {w.name: w for w in (PaperWorkflow, WideCircuits, TheoryCheck)}
