"""Shared dense-matrix oracles, built independently of the package.

Everything here works from text labels and np.kron only, so the oracles do
not reuse any symbolic code path they are meant to check; ``pauli_amps``
alone reads a string's bit masks, to check the statevector kernels bitwise.
The basis-index convention matches the simulator: amplitude index bit q is
qubit q, so the factor for qubit 0 is the last kron operand.
"""

import numpy as np
import pytest

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

LETTERS = "IXYZ"


def dense_pauli(label: str) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for ch in reversed(label):
        m = np.kron(m, PAULI_1Q[ch])
    return m


def dense_commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def frob_sq(m: np.ndarray) -> float:
    return float(np.sum(np.abs(m) ** 2))


def dense_projection_sq(observable: np.ndarray, labels) -> float:
    """sum_j |Tr(G_j O)|^2 with G_j = P_j / sqrt(2^n), P_j the labelled strings."""
    total = 0.0
    for label in labels:
        g = dense_pauli(label) / np.sqrt(2.0 ** len(label))
        total += abs(np.trace(g @ observable)) ** 2
    return total


def all_labels(n: int, include_identity: bool = False):
    labels = [""]
    for _ in range(n):
        labels = [s + ch for s in labels for ch in LETTERS]
    if not include_identity:
        labels = [s for s in labels if s != "I" * n]
    return labels


def labels_anticommute(a: str, b: str) -> bool:
    """Whether the strings labelled ``a`` and ``b`` anticommute.

    Two single-qubit Paulis anticommute iff both are non-identity and they
    differ; two strings anticommute iff an odd number of their qubits do.
    """
    return sum(p != q and "I" not in (p, q) for p, q in zip(a, b)) % 2 == 1


# The letter of one qubit's (x, z) bits.
_LETTER_OF_BITS = {("0", "0"): "I", ("1", "0"): "X", ("1", "1"): "Y", ("0", "1"): "Z"}


def canonical_labels(n: int) -> list[str]:
    """Labels of the non-identity n-qubit strings in the package's canonical
    order: index k, written as 2n bits, is (x_0 .. x_{n-1}, z_0 .. z_{n-1})."""
    bits = (format(k, f"0{2 * n}b") for k in range(1, 4**n))
    return ["".join(map(_LETTER_OF_BITS.get, zip(b[:n], b[n:]))) for b in bits]


def pool_labels(observable: str, size: int | None = None, seed=None) -> list[str]:
    """Labels of the strings anticommuting with ``observable``, in canonical
    order; with ``size``, the draw ``default_rng(seed).choice(pool, size,
    replace=False)`` of them, kept in that order."""
    pool = [q for q in canonical_labels(len(observable)) if labels_anticommute(q, observable)]
    if size is None:
        return pool
    keep = np.random.default_rng(seed).choice(len(pool), size, replace=False)
    return [pool[i] for i in sorted(keep)]


def label_table(labels) -> np.ndarray:
    """uint8 table: entry (j, k) is 1 iff labels j and k anticommute, by the
    letter parity of ``labels_anticommute`` taken a qubit at a time."""
    codes = np.array([[LETTERS.index(ch) for ch in label] for label in labels])
    table = np.zeros((len(labels),) * 2, dtype=np.uint8)
    for column in codes.T:
        a, b = column[:, None], column[None, :]
        table ^= (a != b) & (a != 0) & (b != 0)
    return table


def random_label(rng: np.random.Generator, n: int, identity_ok: bool = False) -> str:
    while True:
        label = "".join(LETTERS[i] for i in rng.integers(0, 4, size=n))
        if identity_ok or label != "I" * n:
            return label


def dense_ry(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def dense_ry_all(n: int, angle: float) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for _ in range(n):
        m = np.kron(m, dense_ry(angle))
    return m


def pauli_amps(amps: np.ndarray, n: int, g) -> np.ndarray:
    """G @ amps along the last axis, from G's bit masks: each index b takes
    the amplitude at b ^ x times G's factor for it, the product in the
    simulator's operand order."""
    idx = np.arange(1 << n)
    src = idx ^ g.x
    parity = (np.bitwise_count(np.uint64(g.z) & src.astype(np.uint64)) & 1).astype(int)
    signs = 1 - 2 * parity
    phase = 1j ** ((g.x & g.z).bit_count() % 4)
    return phase * signs * amps[..., src]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
