"""Dense statevector simulation of the Pauli-rotation product circuit.

The model prepares |0..0>, loads a scalar input x through an R_Y(x) rotation
on every qubit, then applies L rotations exp(-i theta_l G_l) in order
l = 1..L (the l = 1 factor acts on the state first), and finally measures
the expectation of a Pauli-string observable.

Basis convention: amplitude index bit q corresponds to qubit q, so |0..0>
is index 0.  A Pauli string acts on an amplitude vector via bit flips (X
components) and phase factors (Z/Y components) in O(2^n); no gate is ever
materialized as a matrix.

Compile, then evaluate.  How a Pauli string acts does not depend on theta:
(P @ amps)[b] = (phase*signs)[b] * amps[src[b]] with src = b ^ x-mask.
``compile_batch`` builds that table once for every generator and for the
observable, together with the closed-form encoded states of a whole input
batch.  The function it returns then only applies the L rotations and
takes the expectation, so SPSA training compiles once per run and pays per
evaluation for the theta-dependent work alone.  ``run_model_batch`` and
``run_model`` are single calls of a fresh compilation; the single-state
helpers and ``circuit_states`` use the same tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pauli import PauliString

__all__ = [
    "StateVector",
    "CircuitModel",
    "apply_ry_encoding",
    "apply_pauli_rotation",
    "expectation",
    "compile_batch",
    "run_model",
    "run_model_batch",
    "circuit_states",
]

ENCODING_RY_UNIFORM = "ry-uniform"


@dataclass
class StateVector:
    """Dense array of 2^n complex amplitudes."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"expected ({1 << self.n},)"
            )

    @classmethod
    def zero_state(cls, n: int) -> "StateVector":
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = 1.0
        return cls(n, amps)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass(frozen=True)
class CircuitModel:
    """Encoding rule, ordered generator list and observable for one circuit."""

    n: int
    generators: tuple[PauliString, ...]
    observable: PauliString
    encoding: str = ENCODING_RY_UNIFORM

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.encoding != ENCODING_RY_UNIFORM:
            raise ValueError(f"unsupported encoding rule {self.encoding!r}")
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator qubit count does not match model")
            if g.is_identity:
                raise ValueError("identity generator is not allowed")
        if self.observable.n != self.n:
            raise ValueError("observable qubit count does not match model")
        if self.observable.is_identity:
            raise ValueError("identity observable is not allowed")

    @property
    def depth(self) -> int:
        return len(self.generators)


def _pauli_table(n: int, p: PauliString) -> tuple[np.ndarray | None, np.ndarray]:
    """(src, phase*signs) with (P @ amps)[..., b] = (phase*signs)[b] * amps[..., src[b]].

    ``src`` is None when P has no X component, as the index map is then the
    identity.
    """
    src = np.arange(1 << n) ^ p.x
    parity = (np.bitwise_count(np.uint64(p.z) & src.astype(np.uint64)) & 1).astype(int)
    signs = 1 - 2 * parity
    phase = 1j ** ((p.x & p.z).bit_count() % 4)
    return (src if p.x else None), phase * signs


def _apply_pauli(amps: np.ndarray, table) -> np.ndarray:
    """P @ amps along the last axis, from P's table."""
    src, phase_signs = table
    if src is None:
        return phase_signs * amps
    gathered = amps.take(src, axis=-1)
    return np.multiply(phase_signs, gathered, out=gathered)


def _apply_ry_all_amps(amps: np.ndarray, n: int, angle: float) -> np.ndarray:
    """R_Y(angle) on every qubit, applied qubit by qubit along the last axis."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    lead = amps.shape[:-1]
    for q in range(n):
        shaped = amps.reshape(*lead, 1 << (n - 1 - q), 2, 1 << q)
        a0 = shaped[..., 0, :]
        a1 = shaped[..., 1, :]
        new = np.empty_like(shaped)
        new[..., 0, :] = c * a0 - s * a1
        new[..., 1, :] = s * a0 + c * a1
        amps = new.reshape(*lead, 1 << n)
    return amps


def _rotate(amps: np.ndarray, table, theta) -> np.ndarray:
    """exp(-i theta P) @ amps; theta may be scalar or a leading-axis array."""
    theta = np.asarray(theta)
    cos_t = np.cos(theta)[..., None] if theta.ndim else np.cos(theta)
    sin_t = np.sin(theta)[..., None] if theta.ndim else np.sin(theta)
    # cos_t * amps - (1j * sin_t) * (P @ amps) in two buffers; each product
    # keeps this operand order, so results match the plain expression bitwise.
    flipped = _apply_pauli(amps, table)
    np.multiply(1j * sin_t, flipped, out=flipped)
    out = cos_t * amps
    return np.subtract(out, flipped, out=out)


def _expectation_amps(amps: np.ndarray, table) -> np.ndarray:
    flipped = _apply_pauli(amps, table)
    value = np.multiply(np.conj(amps), flipped, out=flipped).sum(axis=-1)
    if np.any(np.abs(value.imag) > 1e-12):
        raise RuntimeError(
            f"Pauli expectation has imaginary residue {np.max(np.abs(value.imag))}"
        )
    return value.real


def apply_ry_encoding(state: StateVector, x: float) -> StateVector:
    """Apply R_Y(x) = exp(-i(x/2)Y) to every qubit; norm is preserved."""
    return StateVector(state.n, _apply_ry_all_amps(state.amplitudes, state.n, x))


def apply_pauli_rotation(
    state: StateVector, g: PauliString, theta: float
) -> StateVector:
    """Apply exp(-i theta G) = cos(theta) I - i sin(theta) G (valid as G^2 = I)."""
    if g.n != state.n:
        raise ValueError(f"qubit-count mismatch: {g.n} vs state.n={state.n}")
    if g.is_identity:
        raise ValueError("identity generator contributes only a global phase")
    return StateVector(
        state.n, _rotate(state.amplitudes, _pauli_table(state.n, g), theta)
    )


def expectation(state: StateVector, o: PauliString) -> float:
    """<psi|O|psi>; RuntimeError if the imaginary residue exceeds 1e-12."""
    if o.n != state.n:
        raise ValueError(f"qubit-count mismatch: {o.n} vs state.n={state.n}")
    return float(_expectation_amps(state.amplitudes, _pauli_table(state.n, o)))


def compile_batch(model: CircuitModel, xs) -> Callable[..., np.ndarray]:
    """Compile the circuit for a fixed input batch: returns theta -> predictions.

    The encoded states of ``xs`` and the tables of every generator and of
    the observable are built here, once.  Each call of the returned
    function checks theta's shape, applies the L rotations and measures the
    observable, returning one expectation per input.
    """
    n = model.n
    xs = np.asarray(xs, dtype=float)
    # R_Y(x) on every qubit from |0..0> yields a product state whose
    # amplitude on basis index b is cos(x/2)^(n - |b|) sin(x/2)^|b|.
    weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(int)
    c = np.cos(xs / 2.0)[:, None]
    s = np.sin(xs / 2.0)[:, None]
    encoded = (c ** (n - weights[None, :]) * s ** weights[None, :]).astype(complex)
    gates = [_pauli_table(n, g) for g in model.generators]
    observable = _pauli_table(n, model.observable)

    def evaluate(theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (model.depth,):
            raise ValueError(
                f"theta has shape {theta.shape}, expected ({model.depth},)"
            )
        amps = encoded
        for table, t in zip(gates, theta):
            amps = _rotate(amps, table, float(t))
        return _expectation_amps(amps, observable)

    return evaluate


def run_model_batch(model: CircuitModel, theta, xs) -> np.ndarray:
    """Expectations of the circuit at parameters theta for each input in xs."""
    return compile_batch(model, xs)(theta)


def run_model(model: CircuitModel, theta, x: float) -> float:
    """Full circuit evaluation at one input: encode x, rotate, measure O."""
    return float(run_model_batch(model, theta, [x])[0])


def circuit_states(model: CircuitModel, thetas) -> np.ndarray:
    """The circuit's states at input angle 0, one row per parameter row.

    R_Y(0) is the identity, so row r is U(thetas[r]) |0..0>.  Each column
    of thetas rotates every row at once.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != model.depth:
        raise ValueError(
            f"thetas has shape {thetas.shape}, expected (rows, {model.depth})"
        )
    amps = np.zeros((len(thetas), 1 << model.n), dtype=complex)
    amps[:, 0] = 1.0
    for l, g in enumerate(model.generators):
        amps = _rotate(amps, _pauli_table(model.n, g), thetas[:, l])
    return amps
