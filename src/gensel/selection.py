"""Generator selection from Pauli-string candidate pools.

The pool for an observable O is S = {G non-identity : {G, O} = 0}.  Over a
candidate list drawn from S we maximize the number of mutually anticommuting
pairs among L chosen generators:

    max sum_{j<k} c_jk x_j x_k   s.t.  sum_j x_j = L,  x_j in {0, 1}

with c_jk = 1 iff candidates j and k anticommute: the symplectic parity of
their (x, z) masks.  A run computes the pool's masks once, as one
SelectionProblem, and each trial hands the solvers its candidates' indices in
its seeded order (``seeded_order``); only the L picks become PauliStrings.
The exact solver is one depth-first search on bitsets that minimizes the
commuting pairs: run first with none allowed where an L-clique can exist, it
finds one (score L(L-1)/2, provably optimal) if there is one, else it runs
as a branch-and-bound over all subsets.  It packs a candidate's row of c_jk into a
bitset only when the search first reaches it; only greedy forms a table.
Heuristic solvers (greedy, genetic) and the comparison baselines live here too,
and ``select_for_method`` runs any of the six SELECTION_METHODS: every method
but random and pair_only draws from the run's one SelectionProblem.
Every pair count (a subset's score, a baseline's, ``evaluate_selection``'s)
is one sum over the anticommutation table of the strings' masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .pauli import (
    PauliString,
    anticommutation_table,
    canonical_index,
    canonical_masks,
    check_bytes,
    mask_arrays,
    pauli_string_at,
    random_strings,
    symplectic_parity,
)

__all__ = [
    "SELECTION_METHODS",
    "GeneticConfig",
    "SelectionProblem",
    "SelectionResult",
    "SelectionMetrics",
    "seeded_order",
    "solve_exact",
    "solve_greedy",
    "solve_genetic",
    "select_for_method",
    "evaluate_selection",
]

# The pool methods, then the baselines: the report's order.
SELECTION_METHODS = ("exact", "greedy", "genetic", "random", "grad_only", "pair_only")
# Seeded permutations pair_only scans for a clique before it gives up.
CLIQUE_ATTEMPTS = 200


@dataclass(frozen=True)
class SelectionResult:
    """Chosen generators plus the achieved pair score.

    ``score`` counts anticommuting unordered pairs among ``chosen``;
    ``optimal_flag`` is True only when that score is provably maximal
    (either proven by exact search or equal to the trivial bound L(L-1)/2).
    """

    chosen: tuple[PauliString, ...]
    score: int
    method: str
    optimal_flag: bool

    def __post_init__(self):
        budget = len(self.chosen)
        if len(set(self.chosen)) != budget:
            raise ValueError("chosen generators must be distinct")
        if not 0 <= self.score <= budget * (budget - 1) // 2:
            raise ValueError(f"score {self.score} out of range for L={budget}")


@dataclass
class SelectionProblem:
    """Candidates (None: the observable's whole pool), uint64 masks, budget."""

    observable: PauliString
    candidates: tuple[PauliString, ...] | None
    budget: int
    x: np.ndarray = field(init=False, repr=False, compare=False)
    z: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.candidates is None:
            self.x, self.z = _pool_masks(self.observable)
        else:
            self.candidates = tuple(self.candidates)
            _common_width(self.candidates)
            self.x, self.z = mask_arrays(self.candidates)
        if not 1 <= self.budget <= len(self.x):
            raise ValueError(f"budget {self.budget} infeasible for pool of {len(self.x)}")

    def strings(self, indices) -> tuple[PauliString, ...]:
        """The candidates at ``indices``, built from their masks if need be."""
        if self.candidates is not None:
            return tuple(self.candidates[i] for i in indices)
        masks = zip(self.x[indices].tolist(), self.z[indices].tolist())
        return tuple(PauliString._mk(self.observable.n, xm, zm) for xm, zm in masks)

    def subset_score(self, indices: Iterable[int]) -> int:
        idx = list(indices)
        return _anticommuting_pairs(self.x[idx], self.z[idx])


class SelectionMetrics(NamedTuple):
    """Counts of 'bad' commutations for a chosen generator set."""

    n_commute_obs: int
    n_commute_pairs: int


def _anticommuting_pairs(x: np.ndarray, z: np.ndarray) -> int:
    """The number of unordered anticommuting pairs among the masks (x, z)."""
    return int(anticommutation_table(x, z, x, z).sum()) // 2


def _pool_masks(observable: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """The uint64 (x, z) masks of the observable's pool: every non-identity
    string that anticommutes with it, in canonical order."""
    if observable.is_identity:
        raise ValueError("observable must be non-identity")
    x, z = canonical_masks(observable.n)
    keep = symplectic_parity(x, z, np.uint64(observable.x), np.uint64(observable.z)) == 1
    return x[keep], z[keep]


def seeded_order(
    size: int, seed: int | None, subsample_size: int | None = None
) -> np.ndarray:
    """Indices into a canonical pool of ``size`` in one seeded trial's order.

    A seeded uniform subsample of ``subsample_size`` indices (all of them
    without one), shuffled by ``default_rng(seed).permutation``.  A trial
    reads the run's pool masks in this order instead of building its own
    pool.
    """
    keep = np.arange(size)
    if subsample_size is not None:
        if subsample_size < 0:
            raise ValueError(f"subsample size must be non-negative, got {subsample_size}")
        if subsample_size > size:
            raise ValueError(f"subsample size {subsample_size} exceeds pool size {size}")
        keep = np.random.default_rng(seed).choice(size, subsample_size, replace=False)
        keep.sort()
    return keep[np.random.default_rng(seed).permutation(len(keep))]


def _common_width(candidates: Sequence[PauliString]) -> int:
    """The qubit count of distinct candidates that all share it (0 for none)."""
    n = candidates[0].n if candidates else 0
    if any(p.n != n for p in candidates):
        raise ValueError("candidates must act on the same number of qubits")
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidates must be pairwise distinct")
    return n


def _indices(problem: SelectionProblem, order) -> np.ndarray:
    """The candidates a solver searches, in its order (all in pool order if None).

    Position v is candidate ``order[v]``, so ties break in ``order``.
    """
    order = np.arange(len(problem.x)) if order is None else np.asarray(order)
    if problem.budget > len(order):
        raise ValueError(f"budget {problem.budget} infeasible for pool of {len(order)}")
    return order


class _AdjacencyRows(dict):
    """Row v as an int whose bit k is set iff strings v and k of the masks
    (x, z) anticommute, packed on first use: the search reaches few rows."""

    def __init__(self, x: np.ndarray, z: np.ndarray):
        super().__init__()
        self.x, self.z = x, z

    def __missing__(self, v: int) -> int:
        parity = symplectic_parity(self.x, self.z, self.x[v], self.z[v])
        row = np.packbits(parity, bitorder="little")
        mask = self[v] = int.from_bytes(row.tobytes(), "little")
        return mask


def _search(
    adj: _AdjacencyRows, m: int, size: int, budget: int
) -> tuple[list[int], int] | None:
    """Lexicographically first ``size``-subset with the fewest commuting pairs.

    Returns (picks, commuting_pairs), or None if every subset of the m
    vertices has more than ``budget`` commuting pairs (non-edges of ``adj``).
    Depth first, in lexicographic order, on a stack of one frame per pick: a
    frame's ``buckets[i]`` holds the vertices left to try, all above the last
    pick, that commute with exactly i picks, and the frame is dropped once its
    cheapest completion exceeds the budget.  Each subset found lowers the
    budget below its own count, so the last one found is the optimum.
    """
    found = None
    picks: list[int] = []
    stack = [(0, [(1 << m) - 1])]
    while stack:
        cost, buckets = stack[-1]
        need = size - len(picks)
        if need == 0:
            found, budget = (picks.copy(), cost), cost - 1
            if budget < 0:  # no subset has fewer commuting pairs
                return found
        del buckets[max(budget - cost + 1, 0) :]  # a vertex there costs too much
        left, bound, todo = need, cost, 0
        for i, b in enumerate(buckets):
            take = min(left, b.bit_count())
            left, bound, todo = left - take, bound + i * take, todo | b
        if left or bound > budget:
            stack.pop()
            if picks:
                picks.pop()
            continue
        low = todo & -todo
        i = 0
        while not buckets[i] & low:
            i += 1
        buckets[i] ^= low
        v = low.bit_length() - 1
        # Picking v keeps its anticommuting vertices in their bucket and
        # moves its commuting ones up one.
        moved, carry, anti = [], 0, adj[v]
        for b in buckets:
            moved.append((b & anti) | (carry & ~anti))
            carry = b
        moved.append(carry & ~anti)
        picks.append(v)
        stack.append((cost + i, moved))
    return found


def solve_exact(problem: SelectionProblem, *, order=None) -> SelectionResult:
    """Provably optimal subset of size L maximizing anticommuting pairs.

    ``_search`` minimizes the commuting pairs, first with none allowed: that
    finds an L-clique (score L(L-1)/2, the trivial upper bound) if there is
    one, else the search runs again with every subset allowed.  At most 2n+1
    strings mutually anticommute (arXiv:1909.08123), O and a pool's picks
    among them, so past L = 2n on a pool (2n+1 otherwise) the first pass is
    skipped.  Ties break to the lexicographically smallest subset in
    candidate order (see ``_indices``); the result is deterministic.
    """
    L, index = problem.budget, _indices(problem, order)
    adj, m = _AdjacencyRows(problem.x[index], problem.z[index]), len(index)
    pairs = L * (L - 1) // 2
    clique_fits = L <= 2 * problem.observable.n + (problem.candidates is not None)
    picks, commuting = clique_fits and _search(adj, m, L, 0) or _search(adj, m, L, pairs)
    chosen = problem.strings(index[picks])
    return SelectionResult(chosen, pairs - commuting, "exact", True)


def solve_greedy(problem: SelectionProblem, *, order=None) -> SelectionResult:
    """Deterministic greedy heuristic: best marginal-gain growth from every start.

    For each possible seed vertex, grow a subset by repeatedly adding the
    candidate with the largest number of anticommutation edges into the
    current subset (first in candidate order, see ``_indices``, on ties);
    keep the best subset found.
    """
    L, index = problem.budget, _indices(problem, order)
    m = len(index)
    check_bytes(f"greedy's {m} x {m} table", m * m)
    x, z = problem.x[index], problem.z[index]
    # A row at a time: anticommutation_table's uint64 temporaries are 8x the table.
    coeff = np.empty((m, m), dtype=np.uint8)
    for v in range(m):
        coeff[v] = symplectic_parity(x, z, x[v], z[v])
    best_score = -1
    best_subset: list[int] = []
    for start in range(m):
        chosen, score = [start], 0
        deg_into = np.array(coeff[start], dtype=np.int64)
        while len(chosen) < L:
            gains = deg_into.copy()
            gains[chosen] = -1
            v = int(np.argmax(gains))
            score += int(deg_into[v])
            chosen.append(v)
            deg_into += coeff[v]
        if score > best_score or (score == best_score and sorted(chosen) < best_subset):
            best_score = score
            best_subset = sorted(chosen)
    chosen = problem.strings(index[best_subset])
    return SelectionResult(chosen, best_score, "greedy", best_score == L * (L - 1) // 2)


@dataclass(frozen=True)
class GeneticConfig:
    """Population size, generation count and mutation rate of ``solve_genetic``."""

    population: int = 64
    generations: int = 120
    mutation_rate: float = 0.3


def solve_genetic(
    problem: SelectionProblem,
    genetic: GeneticConfig,
    seed: int | None,
    *,
    order=None,
) -> SelectionResult:
    """Genetic-algorithm heuristic for the subset selection problem.

    Chromosomes are subsets of size L of the positions in candidate order
    (see ``_indices``).  Crossover takes the union of
    two parents and randomly trims it back to L; mutation swaps one chosen
    index for an unchosen one.  The best individual ever seen is kept
    (elitism).  Deterministic given the seed.
    """
    population = genetic.population
    if population < 2:
        raise ValueError(f"population size must be at least 2, got {population}")
    L, index = problem.budget, _indices(problem, order)
    m = len(index)
    max_score = L * (L - 1) // 2

    def fitness(subset: tuple[int, ...]) -> int:
        return problem.subset_score(index[list(subset)])

    rng = np.random.default_rng(seed)

    def random_subset() -> tuple[int, ...]:
        return tuple(sorted(rng.choice(m, size=L, replace=False).tolist()))

    pop = [random_subset() for _ in range(population)]
    fits = [fitness(s) for s in pop]
    best_i = int(np.argmax(fits))
    best, best_fit = pop[best_i], fits[best_i]

    for _ in range(genetic.generations):
        if best_fit == max_score:
            break
        new_pop = [best]
        while len(new_pop) < population:
            i, j = rng.integers(0, population, size=2)
            p1 = pop[i] if fits[i] >= fits[j] else pop[j]
            i, j = rng.integers(0, population, size=2)
            p2 = pop[i] if fits[i] >= fits[j] else pop[j]
            child = sorted(set(p1) | set(p2))
            while len(child) > L:
                child.pop(int(rng.integers(0, len(child))))
            if m > L and rng.random() < genetic.mutation_rate:
                out = int(rng.integers(0, L))
                child[out] = _nth_unchosen(child, int(rng.integers(0, m - L)))
                child.sort()
            new_pop.append(tuple(child))
        pop = new_pop
        fits = [fitness(s) for s in pop]
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best, best_fit = pop[gen_best], fits[gen_best]

    chosen = problem.strings(index[list(best)])
    return SelectionResult(chosen, best_fit, "genetic", best_fit == max_score)


def _nth_unchosen(chosen: Sequence[int], r: int) -> int:
    """The r-th (from 0) non-negative integer missing from sorted ``chosen``."""
    for c in chosen:
        r += c <= r
    return r


def select_for_method(
    method: str,
    observable: PauliString,
    budget: int,
    seed: int | None,
    genetic: GeneticConfig = GeneticConfig(),
    pool_subsample: int | None = None,
    problem: SelectionProblem | None = None,
) -> SelectionResult:
    """Select ``budget`` generators for ``observable`` by the named method.

    exact, greedy, genetic: the solvers, on the pool in the seed's order
               (``seeded_order``, after the seeded ``pool_subsample`` if
               any).  The solvers are deterministic given that order, so
               each trial is reproducible, while different seeds pick
               different (equally optimal) generator sets.
    random:    L distinct strings uniform over all non-identity strings
               (no anticommutation constraint at all).
    grad_only: L distinct strings uniform over the pool anticommuting with
               the observable; mutual relations unconstrained.
    pair_only: an L-clique of mutually anticommuting strings over all
               non-identity strings, by seeded randomized greedy search
               on their masks (``_random_clique``); no constraint versus
               the observable.  No such set has more than 2n+1 strings,
               so a larger budget is a ValueError.

    ``problem``, the masks of the observable's whole pool at this budget,
    serves every trial of a run that draws from the pool; without it, this
    call builds one.  A baseline takes no pool subsample.
    """
    if method not in SELECTION_METHODS:
        raise ValueError(f"unknown selection method {method!r}")
    if method in ("random", "grad_only", "pair_only"):
        if pool_subsample is not None:
            raise ValueError(f"a pool subsample applies to pool methods, not {method}")
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")
    n = observable.n
    if method == "random":
        if budget > 4**n - 1:
            raise ValueError(f"budget {budget} exceeds {4**n - 1} strings")
        drawn = random_strings(n, budget, np.random.default_rng(seed))
        chosen = tuple(sorted(drawn, key=canonical_index))
    elif method == "pair_only":
        if budget > 2 * n + 1:
            raise ValueError(
                f"budget {budget} exceeds 2n+1 = {2 * n + 1}, the largest set of "
                f"mutually anticommuting {n}-qubit Pauli strings"
            )
        # Position i of the canonical masks is canonical index i + 1.
        picks = _random_clique(*canonical_masks(n), budget, np.random.default_rng(seed))
        chosen = tuple(pauli_string_at(n, i + 1) for i in picks)
    else:
        # Half of all 4^n strings anticommute with a non-identity observable.
        if method == "grad_only" and budget > 4**n // 2:
            raise ValueError(f"budget {budget} exceeds pool size {4**n // 2}")
        if problem is None:
            problem = SelectionProblem(observable, None, budget)
        elif (problem.observable, problem.budget) != (observable, budget):
            raise ValueError("the selection problem is for another observable or budget")
        if method == "grad_only":
            # The pool's seeded subsample of L is a uniform draw of L distinct
            # members, kept in canonical order; only those L strings are built.
            chosen = problem.strings(np.sort(seeded_order(len(problem.x), seed, budget)))
        else:
            order = seeded_order(len(problem.x), seed, pool_subsample)
            if method == "exact":
                return solve_exact(problem, order=order)
            if method == "greedy":
                return solve_greedy(problem, order=order)
            return solve_genetic(problem, genetic, seed, order=order)

    score = _anticommuting_pairs(*mask_arrays(chosen))
    return SelectionResult(chosen, score, method, score == budget * (budget - 1) // 2)


def _random_clique(
    x: np.ndarray,
    z: np.ndarray,
    size: int,
    rng: np.random.Generator,
) -> list[int]:
    """Positions of ``size`` mutually anticommuting strings among masks (x, z).

    Each of ``CLIQUE_ATTEMPTS`` attempts scans a seeded permutation and keeps
    every string that anticommutes with all kept so far: the first one still
    ``free``, since a string passed over or kept is never freed again.
    """
    for _ in range(CLIQUE_ATTEMPTS):
        order = rng.permutation(len(x))
        px, pz = x[order], z[order]
        free = np.ones(len(order), dtype=bool)
        picks: list[int] = []
        while free.any():
            i = int(free.argmax())
            picks.append(int(order[i]))
            if len(picks) == size:
                return picks
            free &= symplectic_parity(px, pz, px[i], pz[i]) == 1
        del order, px, pz, free  # release this attempt before the next
    raise RuntimeError(
        f"no mutually anticommuting set of size {size} found in "
        f"{CLIQUE_ATTEMPTS} randomized attempts"
    )


def evaluate_selection(
    chosen: Sequence[PauliString], observable: PauliString
) -> SelectionMetrics:
    """Count chosen generators commuting with the observable and commuting pairs."""
    chosen = tuple(chosen)
    if len(set(chosen)) != len(chosen):
        raise ValueError("chosen generators must be distinct")
    if chosen and observable.n != (n := _common_width(chosen)):
        raise ValueError(f"qubit-count mismatch: {n} vs {observable.n}")
    x, z = mask_arrays(chosen)
    anti_obs = symplectic_parity(x, z, np.uint64(observable.x), np.uint64(observable.z))
    size = len(chosen)
    return SelectionMetrics(
        size - int(anti_obs.sum()), size * (size - 1) // 2 - _anticommuting_pairs(x, z)
    )
