"""Reference computations made apart from gensel, for checking its outputs.

Nothing here imports gensel.  Pauli strings are handled as text labels
(leftmost character = qubit 0), matrices are built with ``np.kron``, and
commutation is decided letter by letter: two single-qubit Paulis anticommute
exactly when both are non-identity and differ.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense(label: str) -> np.ndarray:
    """2^n x 2^n matrix of a Pauli label; amplitude index bit q is qubit q."""
    m = np.eye(1, dtype=complex)
    # np.kron puts its first factor on the most significant bits, so the
    # last qubit goes first.
    for ch in reversed(label):
        m = np.kron(m, _SINGLE[ch])
    return m


def anticommute(a: str, b: str) -> bool:
    clashes = sum(1 for p, q in zip(a, b) if p != "I" and q != "I" and p != q)
    return clashes % 2 == 1


def pair_score(labels) -> int:
    """Number of anticommuting unordered pairs."""
    return sum(anticommute(a, b) for a, b in itertools.combinations(labels, 2))


def commuting_counts(labels, observable: str) -> tuple[int, int]:
    """(generators commuting with the observable, commuting generator pairs)."""
    labels = list(labels)
    n_obs = sum(not anticommute(g, observable) for g in labels)
    pairs = len(labels) * (len(labels) - 1) // 2
    return n_obs, pairs - pair_score(labels)


def model_outputs(generators, observable: str, theta, xs) -> np.ndarray:
    """<O> after R_Y(x) on every qubit and exp(-i theta_l G_l), l = 1 first."""
    n = len(observable)
    xs = np.asarray(xs, dtype=float)
    states = np.ones((1, xs.size), dtype=complex)
    qubit = np.stack([np.cos(xs / 2.0), np.sin(xs / 2.0)])  # R_Y(x)|0>
    for _ in range(n):
        states = np.einsum("ab,cb->acb", states, qubit).reshape(-1, xs.size)
    for g, t in zip(generators, theta):
        states = math.cos(t) * states - 1j * math.sin(t) * (dense(g) @ states)
    values = np.sum(np.conj(states) * (dense(observable) @ states), axis=0)
    return values.real


def rmse(generators, observable, theta, xs, ys) -> float:
    preds = model_outputs(generators, observable, theta, xs)
    return float(np.sqrt(np.mean((preds - np.asarray(ys)) ** 2)))


def trial_seed(master: int, method: str, trial: int) -> int:
    """Per-trial seed: first 8 bytes of sha256('master:method:trial')."""
    digest = hashlib.sha256(f"{master}:{method}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def initial_theta(seed: int, depth: int, init_range: float) -> np.ndarray:
    """theta_0 as documented for training: uniform from the stream (seed, 0)."""
    return np.random.default_rng([seed, 0]).uniform(-init_range, init_range, depth)


def casimir(n: int) -> float:
    """Quadratic-Casimir eigenvalue of su(2^n) on the normalized Pauli basis."""
    return float(2 ** (n + 1))


def commutator_sums(observable: str) -> tuple[float, float, float]:
    """(first-order sum, double sum, diagonal part) for O = P / sqrt(2^n).

    Dense over the full normalized Pauli basis; fine for n <= 3.
    """
    n = len(observable)
    scale = 1.0 / math.sqrt(2.0**n)
    basis = [
        scale * dense("".join(w))
        for w in itertools.product("IXYZ", repeat=n)
        if set(w) != {"I"}
    ]
    o = scale * dense(observable)
    first = total = diag = 0.0
    for j, gj in enumerate(basis):
        inner = gj @ o - o @ gj
        first += float(np.sum(np.abs(inner) ** 2))
        for k, gk in enumerate(basis):
            value = float(np.sum(np.abs(gk @ inner - inner @ gk) ** 2))
            total += value
            if j == k:
                diag += value
    return first, total, diag


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)
