"""Tests for pool construction and the selection solvers."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from gensel import pauli, selection
from gensel.pauli import (
    PauliString,
    anticommutation_table,
    commutes,
    pauli_string_at,
    pauli_strings,
)
from gensel.selection import (
    GeneticConfig,
    SelectionProblem,
    SelectionResult,
    _AdjacencyRows,
    _random_clique,
    evaluate_selection,
    seeded_order,
    select_for_method,
    solve_exact,
    solve_genetic,
    solve_greedy,
)

from conftest import label_table, labels_anticommute, pool_labels, random_label

P = PauliString.from_label


def _pool(label, size=None, seed=None):
    """The reference pool of the observable ``label`` as strings (conftest)."""
    return [P(q) for q in pool_labels(label, size, seed)]


def _whole_pool(problem):
    """Every string of a problem's pool, built from its masks."""
    return list(problem.strings(np.arange(len(problem.x))))


def _pairwise_clique(strings, size, rng, attempts=200):
    """The pair_only reference: scan a seeded permutation of the listed
    strings and keep each that anticommutes with every string kept so far."""
    for _ in range(attempts):
        clique = []
        for i in rng.permutation(len(strings)):
            if all(not commutes(strings[i], q) for q in clique):
                clique.append(strings[i])
                if len(clique) == size:
                    return tuple(clique)
    raise RuntimeError("no clique found")


class TestBuildPool:
    """The pool build: ``SelectionProblem(o, None, L)`` holds o's pool as
    masks, and a trial reads it in ``seeded_order``."""

    def test_single_qubit_pool(self):
        problem = SelectionProblem(P("Z"), None, 1)
        assert {p.label for p in _whole_pool(problem)} == {"X", "Y"}

    def test_five_qubit_pool_size(self):
        problem = SelectionProblem(P("ZIIII"), None, 5)
        assert len(problem.x) == len(problem.z) == 512
        # the first factor must carry an X component (X or Y)
        assert all(p.label[0] in "XY" for p in _whole_pool(problem))

    def test_zz_pool_by_enumeration(self):
        o = P("ZZ")
        pool = _whole_pool(SelectionProblem(o, None, 1))
        expected = [p for p in pauli_strings(2) if not commutes(p, o)]
        assert pool == expected
        assert len(pool) == 8

    def test_members_anticommute(self, rng):
        for _ in range(10):
            label = random_label(rng, 3)
            for p in _whole_pool(SelectionProblem(P(label), None, 1)):
                assert labels_anticommute(p.label, label)

    def test_subsample(self):
        problem = SelectionProblem(P("ZIIII"), None, 5)
        order = seeded_order(len(problem.x), 5, 32)
        sub = problem.strings(np.sort(order))
        assert len(set(sub)) == 32
        assert order.tolist() == seeded_order(len(problem.x), 5, 32).tolist()
        assert set(sub) <= set(_pool("ZIIII"))
        assert list(sub) == _pool("ZIIII", 32, 5)

    def test_equals_enumeration_listing(self, rng):
        """The masks and strings of filtering the canonical listing, in the
        same order; a seeded subsample, sorted, keeps the listing's order."""
        for n in range(1, 6):
            labels = {"Z" + "I" * (n - 1), "X" * n, "Y" + "Z" * (n - 1)}
            labels |= {random_label(rng, n) for _ in range(3)}
            for label in sorted(labels):
                o = P(label)
                listing = [p for p in pauli_strings(n) if not commutes(p, o)]
                problem = SelectionProblem(o, None, 1)
                x, z = pauli.mask_arrays(listing)
                assert problem.x.tobytes() == x.tobytes()
                assert problem.z.tobytes() == z.tobytes()
                assert _whole_pool(problem) == listing == _pool(label)
                size = len(listing) // 3
                keep = np.random.default_rng(n).choice(len(listing), size, replace=False)
                picks = np.sort(seeded_order(len(problem.x), n, size))
                assert list(problem.strings(picks)) == [listing[i] for i in sorted(keep)]

    def test_seeded_order_lists_the_seeded_subsample_shuffled(self):
        problem = SelectionProblem(P("ZIIX"), None, 1)
        for seed, size in ((0, None), (4, None), (4, 50), (2**64 - 1, 7)):
            sub = _pool("ZIIX", size, seed)
            shuffle = np.random.default_rng(seed).permutation(len(sub))
            order = seeded_order(len(problem.x), seed, size)
            assert list(problem.strings(order)) == [sub[i] for i in shuffle]
            assert seeded_order(len(problem.x), seed, size).tolist() == order.tolist()
        with pytest.raises(ValueError, match="exceeds pool size"):
            seeded_order(len(problem.x), 0, len(problem.x) + 1)

    def test_subsample_too_large(self):
        with pytest.raises(ValueError, match="subsample size 3 exceeds pool size 2"):
            seeded_order(len(SelectionProblem(P("Z"), None, 1).x), 0, 3)

    def test_identity_rejected(self):
        with pytest.raises(ValueError, match="non-identity"):
            SelectionProblem(P("II"), None, 1)


class TestScoreMatrix:
    """The coefficients c_jk: every pair count reads the anticommutation
    table of the masks, checked against the label parity table."""

    @staticmethod
    def _pairs(strings):
        return int(label_table([p.label for p in strings]).sum()) // 2

    def test_anticommuting_pair(self):
        problem = SelectionProblem(P("Z"), [P("X"), P("Y")], 2)
        assert problem.subset_score([0, 1]) == 1
        assert evaluate_selection([P("X"), P("Y")], P("Z")) == (0, 0)

    def test_disjoint_supports_commute(self):
        problem = SelectionProblem(P("ZZ"), [P("XI"), P("IX")], 2)
        assert problem.subset_score([0, 1]) == 0
        assert evaluate_selection([P("XI"), P("IX")], P("ZZ")) == (0, 1)

    def test_full_pool_row_sums(self):
        problem = SelectionProblem(P("ZIIII"), None, 5)
        table = anticommutation_table(problem.x, problem.z, problem.x, problem.z)
        assert table.shape == (512, 512)
        assert (table.sum(axis=1) == 256).all()
        assert problem.subset_score(range(512)) == 512 * 256 // 2

    def test_matches_pairwise_commutes(self, rng):
        for _ in range(5):
            cands = list({P(random_label(rng, 3)) for _ in range(12)})
            problem = SelectionProblem(P("ZII"), cands, 2)
            for j, k in itertools.combinations(range(len(cands)), 2):
                expected = labels_anticommute(cands[j].label, cands[k].label)
                assert problem.subset_score([j, k]) == expected
            subset = sorted(rng.choice(len(cands), size=6, replace=False).tolist())
            assert problem.subset_score(subset) == self._pairs([cands[i] for i in subset])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="chosen generators must be distinct"):
            evaluate_selection([P("X"), P("X")], P("Z"))
        with pytest.raises(ValueError, match="pairwise distinct"):
            SelectionProblem(P("Z"), [P("X"), P("X")], 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_strings_match_pairwise_loop(self, n):
        strings = list(pauli_strings(n))
        problem = SelectionProblem(P("Z" * n), strings, 1)
        table = anticommutation_table(problem.x, problem.z, problem.x, problem.z)
        assert table.tolist() == label_table([p.label for p in strings]).tolist()
        assert problem.subset_score(range(len(strings))) == self._pairs(strings)
        # Half of the 4^n strings, none of them the identity, anticommute with Z..Z.
        pairs = len(strings) * (len(strings) - 1) // 2
        assert evaluate_selection(strings, P("Z" * n)) == (
            len(strings) - 4**n // 2, pairs - self._pairs(strings)
        )

    @pytest.mark.parametrize("rows", [1, 7, 16])
    def test_several_blocks(self, monkeypatch, rows):
        problem = SelectionProblem(P("ZIIX"), None, 5)  # 128 candidates
        m = len(problem.x)
        expected = label_table(pool_labels("ZIIX"))
        monkeypatch.setattr(pauli, "BLOCK_SIZE", rows * m)
        table = anticommutation_table(problem.x, problem.z, problem.x, problem.z)
        assert table.dtype == np.uint8
        assert table.tolist() == expected.tolist()
        assert problem.subset_score(range(m)) == int(expected.sum()) // 2

    def test_wide_strings_refused(self, rng):
        n = 70  # past the 63 qubits that fit a uint64 mask
        cands = list({P(random_label(rng, n)) for _ in range(6)})
        with pytest.raises(ValueError) as info:
            evaluate_selection(cands, P("Z" + "I" * (n - 1)))
        assert str(info.value) == "strings on 70 qubits do not fit 63-qubit masks"


def test_adjacency_rows_match_bit_loop(rng):
    """Every row, packed on demand from random distinct strings' masks, in
    pool order, permuted and subsampled, against the label parity table."""
    for n, m in ((1, 1), (2, 7), (2, 8), (3, 9), (6, 512)):
        idx = rng.choice(4**n, size=m, replace=False)
        cands = [pauli.pauli_string_at(n, int(i)) for i in idx]
        x, z = pauli.mask_arrays(cands)
        keep = np.sort(rng.choice(m, size=(m + 1) // 2, replace=False))
        for order in (np.arange(m), rng.permutation(m), rng.permutation(keep)):
            table = label_table([cands[i].label for i in order])
            expected = [sum(1 << int(k) for k in np.flatnonzero(row)) for row in table]
            rows = _AdjacencyRows(x[order], z[order])
            assert [rows[v] for v in reversed(range(len(order)))] == expected[::-1]
            assert len(rows) == len(order)


class TestSelectionProblem:
    def test_holds_the_candidates_masks(self):
        o = P("ZIII")
        pool = _pool("ZIII")
        problem = SelectionProblem(o, pool, 4)
        x, z = pauli.mask_arrays(pool)
        assert problem.x.dtype == problem.z.dtype == np.uint64
        assert problem.x.tobytes() == x.tobytes()
        assert problem.z.tobytes() == z.tobytes()
        assert not hasattr(problem, "coefficients")
        assert not hasattr(SelectionProblem, "build")

    @pytest.mark.parametrize("block", [None, 3])
    def test_asymmetric_table_rejected(self, monkeypatch, block):
        """No coefficient table is taken, so an asymmetric one cannot reach a
        solver: the constructor refuses it, and what the solvers read from the
        masks (the table, block-wise, and the rows solve_exact packs) is
        symmetric with zero diagonal."""
        if block is not None:  # rows computed a few at a time
            monkeypatch.setattr(pauli, "BLOCK_SIZE", block * 8)
        o = P("ZI")
        pool = _pool("ZI")
        c = label_table(pool_labels("ZI"))
        assert (c == c.T).all() and not c.diagonal().any()
        c[7, 6] ^= 1  # both rows in the last block
        with pytest.raises(TypeError, match="positional argument"):
            SelectionProblem(o, pool, 2, c)
        problem = SelectionProblem(o, pool, 2)
        rows = _AdjacencyRows(problem.x, problem.z)
        m = len(pool)
        bits = np.array([[rows[v] >> k & 1 for k in range(m)] for v in range(m)])
        assert (bits == bits.T).all() and not bits.diagonal().any()
        assert (bits == label_table(pool_labels("ZI"))).all()

    def test_whole_pool_held_as_masks(self, monkeypatch):
        """Without candidates the problem holds the pool's masks, and the
        solvers build strings for their L picks only, with the same results."""
        o = P("ZIII")
        pool = _pool("ZIII")
        genetic = GeneticConfig()
        solvers = (solve_exact, solve_greedy, lambda p: solve_genetic(p, genetic, 3))
        want = [solve(SelectionProblem(o, pool, 4)) for solve in solvers]
        built = []

        def counted(cls, n, x, z):
            built.append((x, z))
            return make(n, x, z)

        make = PauliString._mk
        monkeypatch.setattr(PauliString, "_mk", classmethod(counted))
        problem = SelectionProblem(o, None, 4)
        x, z = pauli.mask_arrays(pool)
        assert problem.candidates is None
        assert problem.x.tobytes() == x.tobytes()
        assert problem.z.tobytes() == z.tobytes()
        assert [solve(problem) for solve in solvers] == want
        assert built == [(g.x, g.z) for result in want for g in result.chosen]

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            SelectionProblem(P("Z"), [P("X"), P("Y"), P("X")], 2)

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError, match="same number of qubits"):
            SelectionProblem(P("ZI"), [P("XI"), P("Y")], 2)

    @pytest.mark.parametrize("budget", [0, 3])
    def test_budget_out_of_range_rejected(self, budget):
        with pytest.raises(ValueError, match=f"budget {budget} infeasible for pool of 2"):
            SelectionProblem(P("Z"), [P("X"), P("Y")], budget)

    def test_wide_candidates_rejected(self, rng):
        n = 70  # past the 63 qubits that fit a uint64 mask
        cands = list({P(random_label(rng, n)) for _ in range(4)})
        with pytest.raises(ValueError, match="70 qubits do not fit 63-qubit masks"):
            SelectionProblem(P("Z" + "I" * (n - 1)), cands, 2)


def _exhaustive_best(problem: SelectionProblem):
    best_score, best_subset = -1, None
    for subset in itertools.combinations(range(len(problem.candidates)), problem.budget):
        score = problem.subset_score(subset)
        if score > best_score:
            best_score, best_subset = score, subset
    return best_score, best_subset


def _random_problem(rng, max_candidates=15):
    n = int(rng.integers(2, 4))
    m = int(rng.integers(5, min(max_candidates, 4**n - 1) + 1))
    candidates = []
    seen = set()
    while len(candidates) < m:
        p = P(random_label(rng, n))
        if p not in seen:
            seen.add(p)
            candidates.append(p)
    budget = int(rng.integers(2, min(6, m) + 1))
    observable = P("Z" + "I" * (n - 1))
    return SelectionProblem(observable, candidates, budget)


def _counted_searches(monkeypatch) -> list[int]:
    """The commuting-pair budgets of every later ``_search`` call, in order."""
    search, calls = selection._search, []

    def counted(adj, m, size, allowed):
        calls.append(allowed)
        return search(adj, m, size, allowed)

    monkeypatch.setattr(selection, "_search", counted)
    return calls


class TestSolveExact:
    def test_full_pool_clique_at_n5(self):
        o = P("ZIIII")
        problem = SelectionProblem(o, None, 5)
        start = time.perf_counter()
        result = solve_exact(problem)
        elapsed = time.perf_counter() - start
        assert result.score == 10
        assert result.optimal_flag
        assert elapsed < 1.0
        for a, b in itertools.combinations(result.chosen, 2):
            assert not commutes(a, b)
        assert evaluate_selection(result.chosen, o) == (0, 0)

    def test_minimal_case(self):
        problem = SelectionProblem(P("Z"), [P("X"), P("Y")], 2)
        result = solve_exact(problem)
        assert {p.label for p in result.chosen} == {"X", "Y"}
        assert result.score == 1

    def test_all_commuting_pool(self):
        candidates = [P("ZI"), P("IZ"), P("ZZ")]
        problem = SelectionProblem(P("XX"), candidates, 2)
        result = solve_exact(problem)
        assert result.score == 0
        assert result.optimal_flag

    @pytest.mark.parametrize("label, budget", [("ZII", 7), ("ZII", 8), ("ZII", 10), ("XZY", 9)])
    def test_no_clique_pass_past_2n(self, monkeypatch, label, budget):
        """At most 2n+1 strings mutually anticommute, O and a pool's L-clique
        among them, so past L = 2n only the full search runs.  It picks what
        a clique pass that finds nothing, then the full search, pick."""
        problem = SelectionProblem(P(label), None, budget)
        order = seeded_order(len(problem.x), 0)
        adj = _AdjacencyRows(problem.x[order], problem.z[order])
        pairs = budget * (budget - 1) // 2
        assert selection._search(adj, len(order), budget, 0) is None
        picks, commuting = selection._search(adj, len(order), budget, pairs)
        calls = _counted_searches(monkeypatch)
        result = solve_exact(problem, order=order)
        assert calls == [pairs]
        assert result.chosen == problem.strings(order[picks])
        assert result.score == pairs - commuting

    def test_explicit_candidates_skip_the_clique_pass_past_2n_plus_1(self, monkeypatch):
        """Explicit candidates need not anticommute with O: 2n+1 of them may
        form a clique (XI, YI, ZX, ZY, ZZ at n = 2), 2n+2 may not."""
        candidates = [pauli_string_at(2, i) for i in range(1, 16)]
        calls = _counted_searches(monkeypatch)
        assert solve_exact(SelectionProblem(P("ZI"), candidates, 5)).score == 10
        assert calls == [0]
        calls.clear()
        assert solve_exact(SelectionProblem(P("ZI"), candidates, 6)).score < 15
        assert calls == [15]

    def test_budget_of_one_is_optimal(self):
        """One pick has no pair: the first candidate in order, score 0."""
        problem = SelectionProblem(P("Z"), [P("X"), P("Y")], 1)
        assert solve_exact(problem) == SelectionResult((P("X"),), 0, "exact", True)
        assert solve_exact(problem, order=[1, 0]).chosen == (P("Y"),)

    @staticmethod
    def _past_the_clique_bound(rng):
        """Problems with L > 2n, where no L-clique exists."""
        for budget in range(3, 7):  # the full n = 2 pool of 8
            yield SelectionProblem(P("ZI"), _pool("ZI"), budget)
        o = P("ZII")
        for budget in (7, 8):  # n = 3 pools of 14 to 16 of the 32
            for m in (14, 15, 16):
                pool = _pool("ZII", m, int(rng.integers(99)))
                yield SelectionProblem(o, pool, budget)

    def test_matches_exhaustive_enumeration(self, rng):
        problems = [_random_problem(rng) for _ in range(30)]
        for problem in problems + list(self._past_the_clique_bound(rng)):
            result = solve_exact(problem)
            best_score, best_subset = _exhaustive_best(problem)
            assert result.score == best_score
            chosen_idx = tuple(
                problem.candidates.index(p) for p in result.chosen
            )
            assert problem.subset_score(chosen_idx) == best_score
            # combinations() enumerates in lexicographic order, so the first
            # maximal subset is the lexicographically smallest optimum.
            assert tuple(sorted(chosen_idx)) == best_subset

    def test_deterministic(self):
        o = P("ZIIII")
        problem = SelectionProblem(o, None, 5)
        assert solve_exact(problem).chosen == solve_exact(problem).chosen

    @pytest.mark.parametrize(
        "n, budget, subsample",
        [
            (1, 2, None),
            (2, 3, None),
            (2, 5, None),
            (3, 6, None),
            (3, 8, None),
            (4, 8, None),
            (4, 9, 20),  # past 2n the full pool's branch-and-bound is too slow
            (5, 5, None),
            (5, 10, None),
            (5, 11, 20),
            (6, 7, None),
            (6, 12, None),
            (6, 13, 20),
        ],
    )
    def test_matches_search_on_rows_of_the_pool_table(self, n, budget, subsample):
        """Rows packed from the masks pick what rows packed from the pool's
        table, in each seed's order, pick."""
        o = P("Z" + "I" * (n - 1))
        pool = _pool(o.label)
        problem = SelectionProblem(o, pool, budget)
        table = label_table(pool_labels(o.label))
        pairs = budget * (budget - 1) // 2
        for seed in range(3):
            order = seeded_order(len(pool), seed, subsample)
            rows = {
                v: int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                for v, row in enumerate(table[order][:, order])
            }
            m = len(order)
            search = selection._search
            picks, commuting = search(rows, m, budget, 0) or search(rows, m, budget, pairs)
            result = solve_exact(problem, order=order)
            assert result.chosen == tuple(pool[i] for i in order[picks])
            assert result.score == pairs - commuting

    def test_search_depth_is_the_budget_not_the_pool(self):
        """1,100 mutually commuting candidates, more than Python's recursion
        limit: the search keeps one frame per pick, so it never nears it."""
        n = 11
        candidates = [
            P("".join("Z" if k >> q & 1 else "I" for q in range(n)))
            for k in range(1, 1101)
        ]
        problem = SelectionProblem(P("X" + "I" * (n - 1)), candidates, 2)
        result = solve_exact(problem)
        assert result.score == 0
        assert result.optimal_flag
        assert result.chosen == tuple(candidates[:2])


class TestSolveGreedy:
    def test_reaches_clique_on_full_pool(self):
        o = P("ZIIII")
        problem = SelectionProblem(o, None, 5)
        result = solve_greedy(problem)
        assert result.score == 10
        assert result.optimal_flag

    def test_never_beats_exact(self, rng):
        for _ in range(10):
            problem = _random_problem(rng)
            assert solve_greedy(problem).score <= solve_exact(problem).score

    def test_peak_memory_stays_below_twice_the_table(self):
        """Greedy's permuted table, filled a row at a time, is all it holds."""
        o = P("ZIIII")
        problem = SelectionProblem(o, _pool("ZIIII"), 5)  # a 512-string pool
        order = seeded_order(len(problem.candidates), 0)
        tracemalloc.start()
        try:
            solve_greedy(problem, order=order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300_000  # the 512 x 512 uint8 table is 262,144 bytes

    def test_table_bound_is_inclusive(self, monkeypatch):
        """A table of exactly MAX_BYTES is filled (a full 8-qubit pool's is
        2^30 bytes); past it, greedy refuses before allocating."""
        o = P("ZI")
        problem = SelectionProblem(o, _pool("ZI"), 3)  # an 8 x 8 table
        monkeypatch.setattr(pauli, "MAX_BYTES", 64)
        assert len(solve_greedy(problem).chosen) == 3
        monkeypatch.setattr(pauli, "MAX_BYTES", 63)
        with pytest.raises(ValueError, match="^greedy's 8 x 8 table needs"):
            solve_greedy(problem)


class TestSolveGenetic:
    def test_finds_optimum_on_small_pools(self, rng):
        for seed in range(5):
            problem = _random_problem(rng, max_candidates=20)
            exact = solve_exact(problem)
            ga = solve_genetic(problem, GeneticConfig(48, 200, 0.4), seed)
            assert ga.score == exact.score

    def test_zero_generations_uses_initial_population(self):
        o = P("ZIIII")
        problem = SelectionProblem(o, _pool("ZIIII", 64, 0), 5)
        result = solve_genetic(problem, GeneticConfig(16, 0), 1)
        assert 0 <= result.score <= 10

    def test_deterministic_per_seed(self):
        o = P("ZIIII")
        problem = SelectionProblem(o, _pool("ZIIII", 64, 0), 5)
        a = solve_genetic(problem, GeneticConfig(), 9)
        b = solve_genetic(problem, GeneticConfig(), 9)
        assert a.chosen == b.chosen and a.score == b.score

    def test_mutation_picks_the_rth_unchosen_index(self, rng):
        for _ in range(200):
            m = int(rng.integers(2, 40))
            child = sorted(rng.choice(m, size=int(rng.integers(1, m)), replace=False).tolist())
            unchosen = [v for v in range(m) if v not in child]
            for r in range(len(unchosen)):
                assert selection._nth_unchosen(child, r) == unchosen[r]

    def test_degenerate_population_rejected(self):
        problem = SelectionProblem(P("Z"), [P("X"), P("Y")], 2)
        with pytest.raises(ValueError, match="population"):
            solve_genetic(problem, GeneticConfig(population=1), None)

    def test_solver_quality_ordering(self, rng):
        """exact >= genetic >= a random subset, on the same problem."""
        for seed in range(5):
            problem = _random_problem(rng)
            exact = solve_exact(problem)
            ga = solve_genetic(problem, GeneticConfig(32, 100), seed)
            random_subset = rng.choice(
                len(problem.candidates), size=problem.budget, replace=False
            )
            assert exact.score >= ga.score
            assert ga.score >= problem.subset_score(random_subset)


class TestBaselines:
    def test_grad_only_never_commutes_with_observable(self):
        o = P("ZIIII")
        for seed in range(10):
            result = select_for_method("grad_only", o, 5, seed)
            metrics = evaluate_selection(result.chosen, o)
            assert metrics.n_commute_obs == 0

    def test_grad_only_is_a_uniform_draw_from_the_full_pool(self):
        """The seeded subsample it builds is the draw over the whole pool."""
        for label in ("Z", "XY", "ZIX", "IYZI", "ZIIII"):
            o = P(label)
            pool = _pool(label)
            for budget in {1, len(label), min(2 * len(label) + 2, len(pool))}:
                for seed in range(6):
                    idx = np.random.default_rng(seed).choice(
                        len(pool), size=budget, replace=False
                    )
                    want = tuple(pool[i] for i in sorted(idx))
                    got = select_for_method("grad_only", o, budget, seed)
                    assert got.chosen == want
        with pytest.raises(ValueError, match="budget 3 exceeds pool size 2"):
            select_for_method("grad_only", P("Z"), 3, 0)

    def test_pair_only_has_no_commuting_pairs(self):
        o = P("ZIIII")
        for seed in range(10):
            result = select_for_method("pair_only", o, 5, seed)
            metrics = evaluate_selection(result.chosen, o)
            assert metrics.n_commute_pairs == 0
            assert result.score == 10

    def test_random_baseline_statistics(self):
        """Means over 20 seeds must sit near the uniform-draw expectations."""
        o = P("ZIIII")
        obs_counts, pair_counts = [], []
        for seed in range(20):
            result = select_for_method("random", o, 5, seed)
            metrics = evaluate_selection(result.chosen, o)
            obs_counts.append(metrics.n_commute_obs)
            pair_counts.append(metrics.n_commute_pairs)
        assert 1.3 <= np.mean(obs_counts) <= 3.4
        assert 3.6 <= np.mean(pair_counts) <= 6.5

    def test_deterministic_per_seed(self):
        o = P("ZIIII")
        for method in ("random", "grad_only", "pair_only"):
            a = select_for_method(method, o, 5, 3)
            b = select_for_method(method, o, 5, 3)
            assert a.chosen == b.chosen

    def test_infeasible_clique_reported(self):
        # XI and ZI anticommute, IX commutes with both: no 3-clique
        x, z = pauli.mask_arrays([P("XI"), P("IX"), P("ZI")])
        with pytest.raises(RuntimeError, match="anticommuting"):
            _random_clique(x, z, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
    def test_pair_only_matches_pairwise_scan(self, n):
        """The mask scan keeps, draw for draw, the strings that a scan over
        the listed strings, checking each against every pick, keeps."""
        strings = list(pauli_strings(n))
        o = P("Z" + "I" * (n - 1))
        for budget in sorted({1, 2, n, 2 * n, 2 * n + 1}):
            for seed in range(6):
                result = select_for_method("pair_only", o, budget, seed)
                rng = np.random.default_rng(seed)
                assert result.chosen == _pairwise_clique(strings, budget, rng)
                assert result.score == budget * (budget - 1) // 2

    def test_pair_only_lists_no_strings(self, monkeypatch):
        def no_listing(*args, **kwargs):
            raise AssertionError("pair_only listed the strings")

        monkeypatch.setattr(pauli, "pauli_strings", no_listing)
        monkeypatch.setattr(selection, "pauli_strings", no_listing, raising=False)
        result = select_for_method("pair_only", P("ZIIIII"), 13, 0)
        assert result.score == 13 * 12 // 2

    def test_pair_only_budget_past_bound(self):
        """More than 2n+1 mutually anticommuting strings never exist.

        The check comes before the 4^n masks are built, so n = 10 fails
        at once.
        """
        with pytest.raises(ValueError, match=r"exceeds 2n\+1 = 3,"):
            select_for_method("pair_only", P("Z"), 4, 0)
        with pytest.raises(ValueError, match=r"exceeds 2n\+1 = 21,"):
            select_for_method("pair_only", P("Z" + "I" * 9), 22, 0)
        assert select_for_method("pair_only", P("Z"), 3, 0).score == 3

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown selection method"):
            select_for_method("best", P("Z"), 1, 0)


@pytest.mark.parametrize(
    "build, words",
    [
        (lambda o: SelectionProblem(o, None, 3), 3.25),
        # Seed 0's first clique search fails; the second one's arrays
        # replace the first's rather than adding to them.
        (lambda o: select_for_method("pair_only", o, 17, 0), 6.25),
    ],
    ids=["pool", "pair_only"],
)
def test_mask_peak_within_the_bytes_they_ask_for(monkeypatch, build, words):
    """Each caller that lists every 8-qubit string peaks past ``words`` per
    string and at or under the bytes the listing asks the guard for."""
    asked = []
    monkeypatch.setattr(pauli, "check_bytes", lambda what, nbytes: asked.append(nbytes))
    o = P("ZIIIIIII")
    build(o)  # NumPy's first-call allocations are not the step's
    asked.clear()
    tracemalloc.start()
    try:
        build(o)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert asked[0] == 52 * 4**8 + 16 * 2**8  # 6.5 words per string
    assert words * 8 * 4**8 < peak <= asked[0]


class TestEvaluateSelection:
    def test_mixed_counts(self):
        o = P("ZIIII")
        metrics = evaluate_selection([P("ZIIII"), P("XIIII")], o)
        assert metrics == (1, 0)

    def test_two_qubit_example(self):
        metrics = evaluate_selection([P("XI"), P("IX")], P("ZI"))
        assert metrics == (1, 1)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            evaluate_selection([P("X"), P("X")], P("Z"))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="qubit-count mismatch: 2 vs 1"):
            evaluate_selection([P("XI")], P("Z"))
        assert evaluate_selection([], P("Z")) == (0, 0)
