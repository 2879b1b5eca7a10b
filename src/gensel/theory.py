"""Numerical verification of the commutator-sum identities over su(2^n).

The basis used everywhere is the full set of 4^n - 1 non-identity Pauli
strings, normalized as G_P = P / sqrt(2^n) so that Tr(G_P G_Q) = delta_PQ.
Over this basis the following hold, and ``verify_identities`` checks them
numerically:

  * sum_j ||[G_j, O]||_F^2               = c   ||O||_F^2      (first-order sum)
  * sum_{j,k} ||[G_k, [G_j, O]]||_F^2    = c^2 ||O||_F^2      (double sum)
  * sum_j ||[G_j, [G_j, O]]||_F^2       >= c^2 ||O||_F^2 / (d^2 - 1)
  * sum_{j!=k} ||[G_k, [G_j, O]]||_F^2  <= c^2 (d^2-2)/(d^2-1) ||O||_F^2

where c is the quadratic-Casimir eigenvalue on the adjoint representation,
measured (never assumed) by applying sum_j ad_{G_j}^2 to every basis element.

All sums are evaluated symbolically: a commutator of Pauli strings is either
zero or a single scaled Pauli string, and distinct Pauli strings are
Frobenius-orthogonal, so each term reduces to exact bit-mask arithmetic.
The basis is held only as cached uint64 (x, z) mask arrays.  Every sum
reads two unnormalised Walsh-Hadamard transforms over the 4^n strings
Q = P(qx, qz): N = ``pauli.anticommuting_counts``, the number of basis
strings anticommuting with Q at (qx << n) | qz, and M, the transform of N,
with M at (qz << n) | qx = sum_R N(R) (-1)^omega(R, Q) for the symplectic
form omega.  As [P_j, [P_j, P_m]] is 4 P_m when P_j anticommutes with P_m
and 0 otherwise, c is N at the basis strings; the first-order sum and the
diagonal of the double sum read N at each term O_t.  The outer sum over k
adds N(P_j O_t) over the P_j anticommuting with O_t.  On the full basis
R = P_j O_t runs over every string but O_t, omega(R, O_t) = omega(P_j, O_t)
and omega(O_t, O_t) = 0, so that sum is (M[0] - M at O_t) / 2.  This needs
the full basis: one string short, the sum counts products that no P_j
gives, and the double sum fails its check against c.  Counts are integers
per term, weighted by the squared coefficients only at the end.  The pair
costs O(n 4^n) time once per ``verify_identities`` call, and each
observable a gather per term.  Nothing is counted in closed form: N is
transformed from the basis masks, and c is measured from it.

``g_purity`` is the squared norm of O's projection onto the span of a set
of normalized Pauli strings, which is the sum of O's squared coefficients
on them.  No 2^n-dimensional matrix is formed anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .pauli import (
    PauliString,
    anticommuting_counts,
    canonical_index,
    canonical_masks,
    check_bytes,
    pauli_string_at,
    walsh_hadamard,
)

__all__ = [
    "TheoryVerificationError",
    "ObservableInAlgebra",
    "IdentityCheck",
    "casimir_constant",
    "verify_identities",
    "g_purity",
    "random_observable",
]


# Relative slack of the checks verify_identities makes.
REL_TOL = 1e-8


class TheoryVerificationError(RuntimeError):
    """An identity that must hold exactly failed beyond tolerance.

    This signals an implementation bug (or a violated precondition), not a
    property of the inputs.
    """


@dataclass
class ObservableInAlgebra:
    """An observable expressed in the normalized Pauli basis.

    ``coeffs[m]`` multiplies the m-th basis element in canonical enumeration
    order, so O = sum_m coeffs[m] * P_m / sqrt(2^n) and
    ||O||_F^2 = sum_m coeffs[m]^2.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expected = 4**self.n - 1
        if self.coeffs.shape != (expected,):
            raise ValueError(
                f"coefficient vector has shape {self.coeffs.shape}, "
                f"expected ({expected},) for n={self.n}"
            )

    @classmethod
    def from_terms(
        cls, n: int, terms: Mapping[PauliString, float]
    ) -> "ObservableInAlgebra":
        check_bytes(f"an observable on {n} qubits", 8 * 4**n)
        coeffs = np.zeros(4**n - 1)
        for p, w in terms.items():
            coeffs[_coefficient_index(p, n)] = w
        return cls(n, coeffs)

    @classmethod
    def single(cls, p: PauliString) -> "ObservableInAlgebra":
        return cls.from_terms(p.n, {p: 1.0})

    def terms(self) -> list[tuple[PauliString, float]]:
        return [
            (pauli_string_at(self.n, int(m) + 1), float(self.coeffs[m]))
            for m in np.flatnonzero(self.coeffs)
        ]

    def norm_sq(self) -> float:
        return float(self.coeffs @ self.coeffs)


def _coefficient_index(p: PauliString, n: int) -> int:
    """Position of the coefficient of ``p`` in an n-qubit observable."""
    if p.n != n:
        raise ValueError(f"qubit-count mismatch: {p.n} vs n={n} for {p}")
    if p.is_identity:
        raise ValueError("identity has no component in the traceless basis")
    return canonical_index(p) - 1


class IdentityCheck(NamedTuple):
    """Both sides of each identity for one observable: a verify-theory row."""

    n: int
    d: int
    c_measured: float
    thm1_lhs: float
    thm1_rhs: float
    lemma1_lhs: float  # the whole double sum
    lemma1_rhs: float  # c^2 ||O||^2
    diag_sum: float
    offdiag_sum: float
    lower_bound: float
    upper_bound: float
    max_rel_err: float


@lru_cache(maxsize=None)
def _basis_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Under 16 words per string: the basis, N, M, two observables, their reads.
    check_bytes(f"summing over the {4**n - 1} strings on {n} qubits", 128 * 4**n)
    x, z = canonical_masks(n)
    x.setflags(write=False)
    z.setflags(write=False)
    return x, z


def _term_masks(o: ObservableInAlgebra):
    """Masks and squared weights of the nonzero terms of O, in basis order."""
    bx, bz = _basis_masks(o.n)
    idx = np.flatnonzero(o.coeffs)
    return bx[idx], bz[idx], o.coeffs[idx] ** 2


@lru_cache(maxsize=None)
def casimir_constant(n: int) -> float:
    """Eigenvalue c of sum_j ad_{G_j}^2 on the adjoint representation.

    [P_j, [P_j, P_m]] is 4 P_m when P_j anticommutes with P_m and 0
    otherwise, so sum_j [G_j, [G_j, G_m]] = (4 N_m / d) G_m, with N_m the
    number of basis strings anticommuting with P_m, read from
    ``pauli.anticommuting_counts``.  The constant must be positive and the
    same for every m (within 1e-9); otherwise TheoryVerificationError.
    """
    bx, bz = _basis_masks(n)
    counts = anticommuting_counts(bx, bz, n)
    constants = 4 * counts[(bx << n) | bz] / 2.0**n
    c = float(constants[0])
    if c <= 0:
        raise TheoryVerificationError(f"non-positive Casimir constant {c}")
    spread = float(np.max(np.abs(constants - c)))
    if spread > 1e-9 * c:
        raise TheoryVerificationError(
            f"proportionality constant varies across basis elements "
            f"(spread {spread})"
        )
    return c


def verify_identities(
    observables: Iterable[ObservableInAlgebra], n: int
) -> list[IdentityCheck]:
    """Both sides of every identity of the module docstring, per observable.

    Raises TheoryVerificationError, within ``REL_TOL`` relative slack, if
    the diagonal part of the double sum is below c^2 ||O||^2 / (d^2 - 1),
    the off-diagonal part is above c^2 ||O||^2 (d^2 - 2)/(d^2 - 1), or the
    whole sum is not c^2 ||O||^2.  ``max_rel_err`` is the largest relative
    miss of Theorem 1 and of those three.  N and M are transformed once per
    call, before the first observable is read, and each one's terms once.
    """
    c = casimir_constant(n)
    counts = anticommuting_counts(*_basis_masks(n), n)
    spectrum = walsh_hadamard(counts.copy())
    d2 = 4.0**n
    checks = []
    for o in observables:
        if o.n != n:
            raise ValueError(f"qubit-count mismatch: observable on {o.n} qubits vs n={n}")
        tx, tz, w2 = _term_masks(o)
        norm_sq = o.norm_sq()
        # [P_j, O] is 2 w_t P_j O_t summed over the terms t anticommuting
        # with P_j, so ||[G_j, O]||^2 = (4/d) sum_{t anti j} w_t^2 and term t
        # counts N(O_t) times.  [P_k, .] doubles the Q = P_j O_t it
        # anticommutes with and kills the rest: ||[G_k, [G_j, O]]||^2 =
        # (16/d^2) sum_{Q anti P_k} w_t^2, and term t counts (M[0] - M at
        # O_t) / 2 times over all (j, k), N(O_t) times on the diagonal k = j.
        first = float(np.sum(w2 * counts[(tx << n) | tz]))
        outer = (spectrum[0] - spectrum[(tz << n) | tx]) // 2
        thm1, thm1_rhs = 4.0 * first / 2.0**n, c * norm_sq
        total = 16.0 / d2 * float(np.sum(w2 * outer))
        diag = 16.0 / d2 * first
        offdiag = total - diag
        full = c * c * norm_sq
        lower = full / (d2 - 1.0)
        upper = full * (d2 - 2.0) / (d2 - 1.0)
        scale = max(full, 1e-300)
        if diag < lower - REL_TOL * scale:
            raise TheoryVerificationError(f"diagonal sum {diag} below lower bound {lower}")
        if offdiag > upper + REL_TOL * scale:
            raise TheoryVerificationError(
                f"off-diagonal sum {offdiag} above upper bound {upper}"
            )
        if abs(total - full) > REL_TOL * scale:
            raise TheoryVerificationError(f"double sum {total} != c^2 ||O||^2 = {full}")
        rel_err = max(
            abs(thm1 - thm1_rhs) / max(abs(thm1_rhs), 1e-300),
            abs(total - full) / scale,
            max(0.0, lower - diag) / scale,
            max(0.0, offdiag - upper) / scale,
        )
        checks.append(IdentityCheck(
            n, 1 << n, c, thm1, thm1_rhs, total, full, diag, offdiag, lower, upper, rel_err
        ))
    return checks


def g_purity(o: ObservableInAlgebra, basis: Sequence[PauliString]) -> float:
    """P_g(O) = sum_j Tr(G_j O)^2 over the normalized strings G_j of ``basis``.

    Distinct normalized Pauli strings are orthonormal and Tr(G_P O) is the
    coefficient of O on G_P, so this is the squared norm of the projection
    of O onto their span: ||O||^2 when O lies in it, 0 when no term does.
    """
    rows = [_coefficient_index(p, o.n) for p in basis]
    if len(set(rows)) < len(rows):
        raise ValueError("basis strings must be distinct")
    return float(np.sum(o.coeffs[rows] ** 2))


def random_observable(
    n: int, rng: np.random.Generator, max_terms: int | None = None
) -> ObservableInAlgebra:
    """Random unit-norm observable in the algebra, optionally sparse."""
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    if max_terms is not None and max_terms < 1:
        raise ValueError(f"max_terms must be at least 1, got {max_terms}")
    o = ObservableInAlgebra.from_terms(n, {})
    if max_terms is None or max_terms >= len(o.coeffs):
        rng.standard_normal(out=o.coeffs)
    else:
        idx = rng.choice(len(o.coeffs), size=max_terms, replace=False)
        o.coeffs[idx] = rng.standard_normal(max_terms)
    o.coeffs /= np.linalg.norm(o.coeffs)
    return o
