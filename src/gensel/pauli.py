"""Exact symbolic algebra of n-qubit Pauli strings.

Pauli strings are stored in the symplectic (binary) representation: two
n-bit masks ``x`` and ``z`` where bit ``q`` of each mask gives the X / Z
component of the factor acting on qubit ``q``.  Per-qubit encoding:

    (x, z) = (0, 0) -> I    (1, 0) -> X    (1, 1) -> Y    (0, 1) -> Z

The text form of a string is read leftmost character = qubit 0, so
``"ZIIII"`` is Z on qubit 0 and identity elsewhere.

Products, commutation checks and commutator Frobenius norms are computed
directly on the bit masks; no 2^n-dimensional matrix is built here.  The
squared Frobenius norm of a (nested) commutator of Pauli strings is always
an integer power of two, so those norms are returned as exact Python
integers; callers may convert at their own boundary.  The package's size
limits live here too: ``check_bytes`` and two dtype limits (63, 31 qubits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "PauliString",
    "ScaledPauli",
    "anticommutation_table",
    "anticommuting_counts",
    "canonical_index",
    "canonical_masks",
    "check_bytes",
    "commutes",
    "mask_arrays",
    "multiply",
    "commutator",
    "commutator_norm_sq",
    "double_commutator_norm_sq",
    "pauli_string_at",
    "pauli_strings",
    "random_strings",
    "row_blocks",
    "symplectic_parity",
    "walsh_hadamard",
]

_LETTER_FROM_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS_FROM_LETTER = {v: k for k, v in _LETTER_FROM_BITS.items()}

# i^k for k = 0..3; all phases arising in Pauli products are of this form.
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

# The most bytes one step may allocate: a full 8-qubit pool's greedy table
# (2^30) fits, as does listing all 12-qubit strings (0.81 GiB); listing all
# 13-qubit strings (3.25 GiB) does not.
MAX_BYTES = 1 << 30


def check_bytes(what: str, nbytes: int) -> None:
    """Refuse, in one line and before it allocates, a step past MAX_BYTES."""
    if nbytes > MAX_BYTES:
        gib = f"{nbytes / 2**30:g} GiB, past the {MAX_BYTES / 2**30:g} GiB bound"
        raise ValueError(f"{what} needs {gib}")

@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli string in symplectic bit-mask form.

    Attributes:
        n: qubit count (positive).
        x: integer bit mask, bit q set iff the factor on qubit q has an X
           component (X or Y).
        z: integer bit mask, bit q set iff the factor on qubit q has a Z
           component (Z or Y).

    The representation is canonical: two strings are equal iff their masks
    are equal.  The identity (x == z == 0) is representable so that products
    close, but pool construction and circuit code reject it.
    """

    n: int
    x: int
    z: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        limit = 1 << self.n
        if not (0 <= self.x < limit and 0 <= self.z < limit):
            raise ValueError(
                f"bit masks out of range for n={self.n}: x={self.x}, z={self.z}"
            )

    @classmethod
    def _mk(cls, n: int, x: int, z: int) -> "PauliString":
        # Fast path for internal construction from already-valid masks.
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "x", x)
        object.__setattr__(obj, "z", z)
        return obj

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a text label over {I, X, Y, Z}, leftmost char = qubit 0."""
        if not label:
            raise ValueError("Pauli label must be non-empty")
        x = z = 0
        for q, ch in enumerate(label):
            try:
                xb, zb = _BITS_FROM_LETTER[ch]
            except KeyError:
                raise ValueError(
                    f"invalid character {ch!r} in Pauli label {label!r}; "
                    "expected only I, X, Y, Z"
                ) from None
            x |= xb << q
            z |= zb << q
        return cls(len(label), x, z)

    @property
    def label(self) -> str:
        return "".join(
            _LETTER_FROM_BITS[(self.x >> q) & 1, (self.z >> q) & 1]
            for q in range(self.n)
        )

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"PauliString({self.label!r})"


@dataclass(frozen=True)
class ScaledPauli:
    """A Pauli string with a scalar coefficient, as produced by products.

    Products of Hermitian Pauli strings only ever pick up phases from
    {1, i, -1, -i}, so ``coefficient`` is that phase times whatever scalars
    the caller has accumulated (e.g. the 2s from commutators).
    """

    base: PauliString
    coefficient: complex


def _check_same_n(a: PauliString, b: PauliString) -> None:
    if a.n != b.n:
        raise ValueError(f"qubit-count mismatch: {a.n} vs {b.n}")


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff [a, b] = 0.

    Two Pauli strings either commute or anticommute; they commute iff the
    symplectic form sum_q (a.x_q b.z_q + a.z_q b.x_q) is even.
    """
    _check_same_n(a, b)
    return (((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) & 1) == 0


def multiply(a: PauliString, b: PauliString) -> ScaledPauli:
    """Product a * b as a phase times a Pauli string.

    Uses the convention P(x, z) = i^(x.z) X^x Z^z per qubit, under which the
    phase of any product of Hermitian strings is a power of i.
    """
    _check_same_n(a, b)
    x3 = a.x ^ b.x
    z3 = a.z ^ b.z
    # Power of i picked up when reordering X/Z factors and re-canonicalizing.
    e = (
        (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        + 2 * (a.z & b.x).bit_count()
        - (x3 & z3).bit_count()
    ) & 3
    return ScaledPauli(PauliString._mk(a.n, x3, z3), _PHASES[e])


# Elements per temporary of the blocked kernels: a table of width w is built
# BLOCK_SIZE // w rows at a time (one row at least), so whatever the table
# size, each temporary holds at most max(BLOCK_SIZE, w) words (2 MiB).
BLOCK_SIZE = 1 << 18


def row_blocks(size: int, width: int) -> Iterator[slice]:
    """Consecutive slices of range(size), BLOCK_SIZE // width rows each."""
    step = max(1, BLOCK_SIZE // max(1, width))
    for start in range(0, size, step):
        yield slice(start, start + step)


def mask_arrays(paulis: Sequence[PauliString]) -> tuple[np.ndarray, np.ndarray]:
    """The x and z masks of strings on at most 63 qubits as uint64 arrays."""
    if (n := max((p.n for p in paulis), default=0)) > 63:
        raise ValueError(f"strings on {n} qubits do not fit 63-qubit masks")
    x = np.fromiter((p.x for p in paulis), dtype=np.uint64)
    z = np.fromiter((p.z for p in paulis), dtype=np.uint64)
    return x, z


def symplectic_parity(ax, az, bx, bz) -> np.ndarray:
    """Elementwise (broadcast) uint8: 1 where string a anticommutes with b.

    The vectorised form of ``commutes`` on uint64 mask arrays.
    """
    return (np.bitwise_count(ax & bz) + np.bitwise_count(az & bx)) & 1


def anticommutation_table(ax, az, bx, bz) -> np.ndarray:
    """uint8 table T[i, k] = 1 iff a_i anticommutes with b_k.

    Evaluated a block of rows of a at a time (see ``row_blocks``), so peak
    memory is the table itself plus a few temporaries of BLOCK_SIZE words.
    """
    check_bytes(f"the {len(ax)} x {len(bx)} anticommutation table", len(ax) * len(bx))
    out = np.empty((len(ax), len(bx)), dtype=np.uint8)
    for rows in row_blocks(len(ax), len(bx)):
        out[rows] = symplectic_parity(ax[rows, None], az[rows, None], bx, bz)
    return out


def anticommuting_counts(x, z, n: int) -> np.ndarray:
    """int64 N with N[(qx << n) | qz] the number of strings of the basis
    with masks (x, z) that anticommute with the n-qubit string P(qx, qz).

    Equal to ``anticommutation_table(qx, qz, x, z).sum(axis=1)`` for every
    Q, the identity included, from one Walsh-Hadamard transform of the
    basis indicator on the 2n-bit indices (z << n) | x: at (qx << n) | qz it
    is F(Q) = sum over the basis of (-1)^<k, Q>, so N(Q) = (len(x) - F(Q)) / 2.
    """
    f = np.bincount(((z << n) | x).astype(np.intp), minlength=1 << 2 * n)
    f = walsh_hadamard(f)
    np.subtract(len(x), f, out=f)
    f //= 2
    return f


def walsh_hadamard(f: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform g[m] = sum_k f[k] (-1)^popcount(k & m)
    of an integer array of length 2^b, overwriting f.  Each pass writes the even
    and odd entries' sums and differences to the halves of the other buffer,
    rotating the index bits right by one, so b passes put them back in order."""
    half = len(f) // 2
    src, dst = f, np.empty_like(f)
    for _ in range(len(f).bit_length() - 1):
        even, odd = src[0::2], src[1::2]
        np.add(even, odd, out=dst[:half])
        np.subtract(even, odd, out=dst[half:])
        src, dst = dst, src
    return src


def commutator(a: PauliString, b: PauliString) -> ScaledPauli | None:
    """[a, b] as a scaled Pauli string, or None when the commutator is zero.

    For anticommuting strings [a, b] = 2ab, a single Pauli string up to a
    phase; for commuting strings the commutator vanishes identically.
    """
    if commutes(a, b):
        return None
    prod = multiply(a, b)
    return ScaledPauli(prod.base, 2 * prod.coefficient)


def commutator_norm_sq(a: PauliString, b: PauliString) -> int:
    """Squared Frobenius norm of [a, b], exactly.

    Zero for commuting strings; otherwise ||2ab||_F^2 = 4 * 2^n since every
    n-qubit Pauli string has squared Frobenius norm 2^n.
    """
    c = commutator(a, b)
    if c is None:
        return 0
    mag2 = int(c.coefficient.real**2 + c.coefficient.imag**2)
    return mag2 << a.n


def double_commutator_norm_sq(
    g_k: PauliString, g_j: PauliString, o: PauliString
) -> int:
    """Squared Frobenius norm of [g_k, [g_j, o]], exactly.

    Computed symbolically for arbitrary Pauli triples via nested commutators.
    When both generators anticommute with ``o``, the value is 0 if the
    generators mutually anticommute and 2^(n+4) if they commute.
    """
    _check_same_n(g_k, o)
    inner = commutator(g_j, o)
    if inner is None:
        return 0
    outer = commutator(g_k, inner.base)
    if outer is None:
        return 0
    coeff = inner.coefficient * outer.coefficient
    mag2 = int(coeff.real**2 + coeff.imag**2)
    return mag2 << o.n


def pauli_string_at(n: int, index: int) -> PauliString:
    """The n-qubit string at position ``index`` of the canonical order.

    The order is lexicographic over the concatenated bit vector
    (x_0..x_{n-1}, z_0..z_{n-1}), so bit i of that vector is bit 2n-1-i of
    ``index``; index 0 is the identity.
    """
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    if not 0 <= index < 1 << (2 * n):
        raise ValueError(f"index {index} out of range for n={n}")
    return _string_at(n, index, f"0{2 * n}b")


def canonical_index(p: PauliString) -> int:
    """Position of ``p`` in the canonical order; inverts ``pauli_string_at``.

    The high n bits of the index are x reversed, the low n bits z reversed.
    """
    spec = f"0{p.n}b"
    return int(format(p.x, spec)[::-1] + format(p.z, spec)[::-1], 2)


def _string_at(n: int, index: int, spec: str) -> PauliString:
    bits = format(index, spec)  # bits[i] is bit i of (x_0..x_{n-1}, z_0..z_{n-1})
    return PauliString._mk(n, int(bits[n - 1 :: -1], 2), int(bits[: n - 1 : -1], 2))


def canonical_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The uint64 x and z masks of the 4^n - 1 non-identity strings, in
    canonical order: position i holds the string at index i + 1.

    Canonical index (h << n) | l holds x_q at bit n-1-q of h and z_q at
    bit n-1-q of l (see pauli_string_at), so both masks are bit reversals.
    """
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    # Two arrays of 4^n words, built from two of 2^n.  The check counts the
    # callers too: the pool build (``selection._pool_masks``) peaks at 3.25
    # words per string, pair-only's clique search at 6.4 (tracemalloc).
    check_bytes(f"listing the {4**n - 1} strings on {n} qubits", 52 * 4**n + 16 * 2**n)
    fields = np.arange(1 << n, dtype=np.uint64)
    reverse = sum((fields >> q & 1) << (n - 1 - q) for q in range(n))
    return np.repeat(reverse, 1 << n)[1:], np.tile(reverse, 1 << n)[1:]


def pauli_strings(n: int) -> Iterator[PauliString]:
    """Iterate the non-identity n-qubit Pauli strings in canonical order
    (see pauli_string_at; the identity, index 0, is left out)."""
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    spec = f"0{2 * n}b"
    for index in range(1, 1 << (2 * n)):
        yield _string_at(n, index, spec)


def random_strings(n: int, count: int, rng: np.random.Generator) -> list[PauliString]:
    """``count`` distinct non-identity n-qubit strings, uniform, in draw order."""
    if n >= 32:  # 4^n - 1 no longer fits NumPy's int64 draw
        raise ValueError(f"a draw over the 4^n - 1 strings needs n <= 31, got {n}")
    idx = rng.choice(4**n - 1, size=count, replace=False)
    return [pauli_string_at(n, int(i) + 1) for i in idx]
