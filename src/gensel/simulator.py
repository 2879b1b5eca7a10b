"""Simulation of the Pauli-rotation product circuit.

The model prepares |0..0>, loads a scalar input x through an R_Y(x) rotation
on every qubit, then applies L rotations exp(-i theta_l G_l) in order
l = 1..L (the l = 1 factor acts on the state first), and finally measures
the expectation of a Pauli-string observable.

Compile, then evaluate, in the Heisenberg picture.  Conjugating a Pauli
term P by a rotation about G keeps P when the two commute and splits it
into cos(2 theta) P and +-sin(2 theta) Q, Q the Pauli string of P G, when
they anticommute.  Which terms U^dag O U holds therefore depends on the
generators alone: ``compile_circuit`` walks O back through the gates once on
the bit masks, drops every term holding a Y (its expectation on the R_Y
product state is 0) and tabulates each remaining term's closed-form
expectation prod_q {I: 1, X: sin x, Z: cos x} over the input batch.  Each
evaluation then multiplies L trig factors per term and sums the terms for
each input; no statevector is built, and qubits no gate touches cost nothing.
An exact selection (generators anticommuting with O and with each other)
gives L + 1 terms.  Random generators give up to 2^L; past 4 * L * 2^n
terms (measured against the dense kernel, whose work per input is
L * 2^n) or 2^16 terms, ``compile_circuit`` builds the dense evaluator
instead, a choice made from the generators alone; either way it passes
the bytes its evaluator needs to ``pauli.check_bytes`` first.
``compile_circuit`` builds one circuit's tables and ``stack_circuits``
evaluates many compiled circuits at many parameter rows in one call;
``run_model_batch`` and ``run_model`` evaluate one parameter row of a fresh
compilation.  Each prediction is the left-to-right sum of its circuit's
terms in compile order, from +0.0 as NumPy's sums start.  The stacked
tables are term-major, so one multiply runs over the inputs and the sums
add whole term slices in order.  Circuits share a bucket when their term
counts round up to the same power of two (at least 8).  A bucket orders
its members by term count, most first, so each term index is a slice of a
prefix of them: the terms every member has are summed in one reduce, and
each later term adds in place into its prefix of the sums.  Past
_RAGGED_SLICES such adds the members with fewer terms are padded with
terms of Phi = -0.0 instead, to under 2x their count, so an evaluation
makes a bounded number of NumPy calls per bucket; members of lower depth
read factors of 1.0.  As x + (-0.0) = x for every x, a circuit's
predictions do not depend on the circuits stacked with it.

Every statevector runs through one kernel, ``_rotate``, which applies
exp(-i theta G) in place to each row of a block of amplitudes; R_Y(x) is
exp(-i (x/2) Y) on each qubit, so the encoding is n such rotations.  Basis
convention: amplitude index bit q corresponds to qubit q, so |0..0> is
index 0.  A Pauli string acts via bit flips (X components) and phase
factors (Z/Y components), as (G @ amps)[j] = factor[j] * amps[partner[j]];
no gate is ever materialized as a matrix.  Over all 2^n amplitudes partner
is b ^ x-mask: the dense fallback builds these tables and its encoded batch
once, at compile, and rotates one copy of that batch per evaluation; the
single-state helpers build them per call.

``state_overlaps`` gives expressibility <0|U(theta)^dag U(phi)|0> without a
state of width 2^n.  Every row starts at |0..0>, so only the amplitudes on
the F2-span of the X masks applied so far are live, and the overlap sums
those; a trailing gate whose X mask is outside the span of the masks before
it multiplies the overlap by cos(theta - phi) and is not simulated.  Rows
run in chunks of a fixed number of amplitudes, so the memory a call takes
does not grow with the rank of the span.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .pauli import PauliString, check_bytes, commutes, multiply

__all__ = [
    "StateVector",
    "CircuitModel",
    "apply_ry_encoding",
    "apply_pauli_rotation",
    "expectation",
    "CompiledCircuit",
    "compile_circuit",
    "stack_circuits",
    "run_model",
    "run_model_batch",
    "state_overlaps",
]

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
    """Ordered generator list and observable for one circuit; every model
    encodes its input by R_Y(x) on every qubit."""

    n: int
    generators: tuple[PauliString, ...]
    observable: PauliString

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
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


def _pauli_table(p: PauliString, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, factor) for the amplitudes at basis indices ``basis``: P maps the
    amplitude at index src[j] = basis[j] ^ x onto basis[j], times factor[j]."""
    src = basis ^ p.x
    parity = (np.bitwise_count(np.uint64(p.z) & src.astype(np.uint64)) & 1).astype(int)
    signs = 1 - 2 * parity
    phase = 1j ** ((p.x & p.z).bit_count() % 4)
    return src, phase * signs


def _rotate(amps: np.ndarray, partner, factor, theta, spare: np.ndarray) -> None:
    """exp(-i theta_r G) in place on each row r of the (rows, k) block amps.

    G maps column partner[j] onto column j times factor[j]; theta is a float
    or a (rows, 1) column, and spare a (rows, k) block this overwrites.  The
    rows become cos theta * amps - (i sin theta) * (G @ amps), grouped as
    written: the tests' full-width reference rounds the same products.
    """
    # Every position is valid; mode="wrap" skips take's bounds buffer.
    amps.take(partner, axis=1, out=spare, mode="wrap")
    np.multiply(factor, spare, out=spare)
    np.multiply(1j * np.sin(theta), spare, out=spare)
    np.multiply(np.cos(theta), amps, out=amps)
    np.subtract(amps, spare, out=amps)


def _rotated(amps: np.ndarray, gates) -> np.ndarray:
    """A copy of the (rows, 2^n) block amps rotated by exp(-i theta G) for
    each (G, theta) of ``gates`` in order."""
    amps = np.array(amps, dtype=complex)
    spare, basis = np.empty_like(amps), np.arange(amps.shape[1])
    for g, theta in gates:
        _rotate(amps, *_pauli_table(g, basis), theta, spare)
    return amps


def _encoding(n: int, x) -> list[tuple[PauliString, float | np.ndarray]]:
    """R_Y(x) on every qubit as the gates exp(-i (x/2) Y_q), q = 0..n-1."""
    return [(PauliString(n, 1 << q, 1 << q), x / 2.0) for q in range(n)]


def _expectation_amps(amps: np.ndarray, src, factor, spare: np.ndarray) -> np.ndarray:
    """<psi|O|psi> for each row of amps.  The partners are gathered into
    ``spare``, a block of amps's shape, and amps is conjugated in place, so
    the call allocates no block but overwrites both."""
    flipped = amps.take(src, axis=-1, out=spare, mode="wrap")
    np.multiply(factor, flipped, out=flipped)
    value = np.multiply(np.conj(amps, out=amps), flipped, out=flipped).sum(axis=-1)
    if np.any(np.abs(value.imag) > 1e-12):
        raise RuntimeError(
            f"Pauli expectation has imaginary residue {np.max(np.abs(value.imag))}"
        )
    return value.real


def apply_ry_encoding(state: StateVector, x: float) -> StateVector:
    """Apply R_Y(x) = exp(-i(x/2)Y) to every qubit; norm is preserved."""
    return StateVector(state.n, _rotated(state.amplitudes[None], _encoding(state.n, x))[0])


def apply_pauli_rotation(
    state: StateVector, g: PauliString, theta: float
) -> StateVector:
    """Apply exp(-i theta G) = cos(theta) I - i sin(theta) G (valid as G^2 = I)."""
    if g.n != state.n:
        raise ValueError(f"qubit-count mismatch: {g.n} vs state.n={state.n}")
    if g.is_identity:
        raise ValueError("identity generator contributes only a global phase")
    return StateVector(state.n, _rotated(state.amplitudes[None], [(g, theta)])[0])


def expectation(state: StateVector, o: PauliString) -> float:
    """<psi|O|psi>; RuntimeError if the imaginary residue exceeds 1e-12."""
    if o.n != state.n:
        raise ValueError(f"qubit-count mismatch: {o.n} vs state.n={state.n}")
    amps = state.amplitudes.copy()
    table = _pauli_table(o, np.arange(1 << state.n))
    return float(_expectation_amps(amps, *table, np.empty_like(amps)))


# Past _TERMS_PER_DENSE_WORK * L * 2^n live terms, compile_circuit builds the
# dense evaluator.  On random generators (n = 5, 6, 8; L = 18..27; B = 100;
# one core of a 2-vCPU Xeon VM) a training run of 601 evaluations cost the
# same on both paths at 8-10 * L * 2^n terms, and the Heisenberg path won
# 3-30x below 4 * L * 2^n.  Its compile is Python work per term, so a single
# evaluation favours the dense path at every size; the factor 4 keeps that
# compile short.
_TERMS_PER_DENSE_WORK = 4
# Past this many terms compile_circuit builds the dense evaluator.
_MAX_TERMS = 1 << 16


def _heisenberg_terms(model: CircuitModel) -> list[tuple] | None:
    """The signed Pauli terms of U(theta)^dag O U(theta), or None past the limit.

    Each term is (P, sign, cos_mask, sin_mask): it stands for sign * P times
    cos(2 theta_l) for every bit l of cos_mask and sin(2 theta_l) for every
    bit l of sin_mask.  O is conjugated by the gates from l = L down to 1; a
    term that commutes with G_l is kept, one that anticommutes splits in two,
    as exp(i theta G) P exp(-i theta G) = cos(2 theta) P - i sin(2 theta) P G.
    None means the live term count passed 4 * L * 2^n or _MAX_TERMS.
    """
    limit = min((_TERMS_PER_DENSE_WORK * model.depth) << model.n, _MAX_TERMS)
    terms = [(model.observable, 1, 0, 0)]
    for l in reversed(range(model.depth)):
        g = model.generators[l]
        bit = 1 << l
        split = []
        for p, sign, cos_mask, sin_mask in terms:
            if commutes(p, g):
                split.append((p, sign, cos_mask, sin_mask))
                continue
            prod = multiply(p, g)
            factor = -1j * prod.coefficient
            if factor.imag != 0 or abs(factor.real) != 1:
                raise RuntimeError(f"-i * phase({p} * {g}) = {factor} is not +-1")
            split.append((p, sign, cos_mask | bit, sin_mask))
            flipped = sign * int(factor.real)
            split.append((prod.base, flipped, cos_mask, sin_mask | bit))
        if len(split) > limit:
            return None
        terms = split
    return terms


def _compile_dense(model: CircuitModel, xs: np.ndarray) -> Callable[..., np.ndarray]:
    """The statevector evaluator: encoded states and Pauli tables built once."""
    zero = np.zeros((len(xs), 1 << model.n))
    zero[:, 0] = 1.0
    encoded = _rotated(zero, _encoding(model.n, xs[:, None]))
    basis = np.arange(1 << model.n)
    gates = [_pauli_table(g, basis) for g in model.generators]
    observable = _pauli_table(model.observable, basis)

    def evaluate(theta: np.ndarray) -> np.ndarray:
        amps = encoded.copy()
        spare = np.empty_like(amps)
        for (src, factor), t in zip(gates, theta):
            _rotate(amps, src, factor, float(t), spare)
        return _expectation_amps(amps, *observable, spare)

    return evaluate


def _term_tables(
    terms: list[tuple], depth: int, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Phi (B x K) and the factor choices (K x L) of the Y-free terms."""
    terms = [t for t in terms if not t[0].x & t[0].z]
    n_x = np.array([p.x.bit_count() for p, *_ in terms], dtype=int)
    n_z = np.array([p.z.bit_count() for p, *_ in terms], dtype=int)
    signs = np.array([sign for _, sign, _, _ in terms], dtype=float)
    phi = signs * np.sin(xs)[:, None] ** n_x * np.cos(xs)[:, None] ** n_z
    choice = [
        [(c >> l & 1) + 2 * (s >> l & 1) for l in range(depth)]
        for _, _, c, s in terms
    ]
    return phi, np.array(choice, dtype=np.intp).reshape(len(terms), depth)


@dataclass(frozen=True, eq=False)
class CompiledCircuit:
    """One circuit compiled for a fixed batch of ``inputs`` inputs.

    Below the term limit it holds the Heisenberg tables: ``phi`` (B x K),
    Phi[b, k] = sign_k sin(x_b)^#X_k cos(x_b)^#Z_k, and ``factors`` (K x L),
    the index of term k's factor l in (1, cos 2theta_l, sin 2theta_l).  Past
    it, ``dense`` is the statevector evaluator theta -> predictions.
    ``size`` counts the floats the compilation holds.
    """

    depth: int
    inputs: int
    size: int
    phi: np.ndarray | None = None
    factors: np.ndarray | None = None
    dense: Callable[[np.ndarray], np.ndarray] | None = None


def compile_circuit(model: CircuitModel, xs) -> CompiledCircuit:
    """Compile one circuit for a fixed input batch, for ``stack_circuits``:
    its Y-free Heisenberg terms, or the dense evaluator past the term limit."""
    xs = np.asarray(xs, dtype=float)
    terms = _heisenberg_terms(model)
    if terms is not None:
        words = len(terms) * (len(xs) + model.depth)  # phi and factors
        check_bytes(f"tabulating {len(terms)} terms over {len(xs)} inputs", 8 * words)
        phi, factors = _term_tables(terms, model.depth, xs)
        size = phi.size + factors.size
        return CompiledCircuit(model.depth, len(xs), size, phi, factors)
    # An evaluation peaks at three B x 2^n complex blocks (encoded, rotated,
    # spare), L + 1 tables (24 B/amplitude + 1 KiB) and the ufunc buffer that
    # multiplying a block by a broadcast table takes (8192 complex).
    peak = (48 * len(xs) << model.n) + (model.depth + 1) * ((24 << model.n) + 1024)
    peak += 16 * np.getbufsize()
    check_bytes(f"simulating {len(xs)} inputs on {model.n} qubits", peak)
    size = (2 * len(xs) + 3 * model.depth) << model.n
    return CompiledCircuit(model.depth, len(xs), size, dense=_compile_dense(model, xs))


# A bucket adds at most this many ragged term slices after its one reduce;
# past that it pads its shorter members with terms of Phi = -0.0 instead.
_RAGGED_SLICES = 8


def stack_circuits(
    circuits: Sequence[CompiledCircuit],
) -> Callable[[np.ndarray], np.ndarray]:
    """One evaluator for circuits compiled on the same inputs.

    The returned function maps thetas (P, T, W) to new predictions
    (P, T, B): row thetas[p, t, :L_t] parameterises circuit t, the rest is
    ignored, and W is at least every depth.  Each prediction is the
    left-to-right sum of its terms in compile order, whatever is stacked
    with it (see the module docstring).  A bucket's table holds term j of
    its i-th member (most terms first) in row starts[j] + i.  Its first
    ``common`` terms are a block of every member, padded with terms of
    Phi = -0.0 where a member has fewer; ``common`` is the fewest terms of
    a member, raised to leave at most _RAGGED_SLICES later terms.  The
    evaluator keeps its trig rows and products for the next call with the
    same count P.  Dense circuits run row by row.
    """
    width = max((c.depth for c in circuits), default=0)
    inputs = circuits[0].inputs if circuits else 0
    span = len(circuits) * width  # the angles of one factor kind
    by_size: dict[int, list[int]] = {}  # term counts up to 8, 16, 32, ...
    for t, c in enumerate(circuits):
        if c.dense is None:
            by_size.setdefault(max(3, (len(c.factors) - 1).bit_length()), []).append(t)
    buckets = []
    for members in by_size.values():
        members.sort(key=lambda t: -len(circuits[t].factors))
        counts = [len(circuits[t].factors) for t in members]
        common = max(counts[-1], counts[0] - _RAGGED_SLICES)
        # Term j has a row for each of the first sizes[j] members, from row
        # starts[j] on.
        sizes = [len(members)] * common
        sizes += [sum(k > j for k in counts) for j in range(common, counts[0])]
        starts = [0]
        for size in sizes:
            starts.append(starts[-1] + size)
        depth = max(circuits[t].depth for t in members)
        # gather[l, r] indexes factor l of row r's term in the trig rows;
        # padded terms and layers read trig[0] = 1.0.
        gather = np.zeros((depth, starts[-1]), dtype=np.intp)
        phi = np.empty((starts[-1], inputs))
        if common > counts[-1]:
            phi.fill(-0.0)
        for i, (k, t) in enumerate(zip(counts, members)):
            c = circuits[t]
            if k <= common:
                rows = slice(i, i + k * len(members), len(members))
            else:
                rows = [starts[j] + i for j in range(k)]
            layers = np.arange(t * width, t * width + c.depth)
            gather[: c.depth, rows] = (c.factors * span + layers).T
            phi[rows] = c.phi.T
        tail = list(zip(starts[common:-1], sizes[common:]))
        buckets.append((members, phi, gather, common, tail))
    dense = [t for t, c in enumerate(circuits) if c.dense is not None]
    # Column j of the stacked sums is circuit order[j].
    order = [t for members in by_size.values() for t in members] + dense
    inverse = None if order == sorted(order) else np.argsort(order)
    scratch: dict[int, list] = {}  # the buffers of the last count of rows

    def buffers(rows: int) -> list:
        """The arrays an evaluation of ``rows`` angle rows fills, with views
        of them; the one for the sums is made per call."""
        trig = np.ones((rows, 3, len(circuits), width))  # 1, cos, sin
        steps = []
        for members, phi, gather, common, tail in buckets:
            size = len(members)
            products = np.empty((rows,) + phi.shape)
            block = products[:, : common * size].reshape(rows, common, size, inputs)
            terms = [(n, products[:, a : a + n]) for a, n in tail]
            lone = common > 0 and size * inputs == 1  # see evaluate
            steps.append((size, gather, phi, products, block, lone, terms))
        _, cos, sin = trig.swapaxes(0, 1)
        return [cos, sin, trig.reshape(rows, -1), steps]

    def evaluate(thetas: np.ndarray) -> np.ndarray:
        if len(thetas) not in scratch:
            scratch.clear()
            scratch[len(thetas)] = buffers(len(thetas))
        cos, sin, trig, steps = scratch[len(thetas)]
        np.multiply(thetas[..., :width], 2, out=cos)
        np.sin(cos, out=sin)
        np.cos(cos, out=cos)
        stacked = np.empty(thetas.shape[:2] + (inputs,))
        lo = 0
        for size, gather, phi, products, block, lone, terms in steps:
            coef = np.multiply.reduce(trig.take(gather, axis=1), axis=1)
            np.multiply(phi, coef[..., None], out=products)
            sums = stacked[:, lo : lo + size]
            lo += size
            if lone:
                # NumPy sums a lone axis pairwise; a running sum differs
                # only in -0.0, hence the + 0.0.
                np.add(np.add.accumulate(block, axis=1)[:, -1], 0.0, out=sums)
            else:
                # From +0.0, term slices in order, as NumPy sums an outer axis
                np.add.reduce(block, axis=1, out=sums)
            for n, term in terms:
                head = sums[:, :n]
                np.add(head, term, out=head)
        for t in dense:
            c = circuits[t]
            stacked[:, lo] = [c.dense(theta[: c.depth]) for theta in thetas[:, t]]
            lo += 1
        return stacked if inverse is None else stacked.take(inverse, axis=1)

    return evaluate


def run_model_batch(model: CircuitModel, theta, xs) -> np.ndarray:
    """Expectations of the circuit at parameters theta for each input in xs."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.depth,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({model.depth},)")
    return stack_circuits([compile_circuit(model, xs)])(theta[None, None])[0, 0]


def run_model(model: CircuitModel, theta, x: float) -> float:
    """Full circuit evaluation at one input: encode x, rotate, measure O."""
    return float(run_model_batch(model, theta, [x])[0])


def _span_coords(masks) -> list[int | None]:
    """Per X mask, None if it lies outside the F2-span of the masks before
    it (its gate doubles the support), else the bit set of the earlier such
    masks that XOR to it.  One elimination pass over Python ints."""
    basis: dict[int, tuple[int, int]] = {}  # bit length -> (reduced mask, coords)
    coords = []
    for x in map(int, masks):
        coord = 0
        while x and x.bit_length() in basis:
            reduced, reduced_coord = basis[x.bit_length()]
            x, coord = x ^ reduced, coord ^ reduced_coord
        if x:
            basis[x.bit_length()] = (x, coord | 1 << len(basis))
            coords.append(None)
        else:
            coords.append(coord)
    return coords


def _span_states(model: CircuitModel, thetas) -> tuple[np.ndarray, np.ndarray]:
    """The circuit's states at input angle 0 on their live support.

    R_Y(0) is the identity, so row r is U(thetas[r]) |0..0>.  A gate
    exp(-i theta G) moves amplitude only along G's X mask x, so after gate
    l the state lives on the F2-span S of the first l X masks, and the work
    per row is sum_l 2^rank_l, rank_l the rank of those masks, not L * 2^n.
    Returns the live amplitudes, a (rows, |S|) block, and ``support``, the
    basis index of each column.  A gate with x outside S doubles it: the old
    columns are scaled by cos theta and new column |S| + j, index
    S[j] ^ x, gets -i sin theta times G's factor times column j.  Column j
    holds the XOR of the doubling masks picked by the bits of j, so a gate
    with x inside S (x = 0 included) finds the partner of column j at
    j ^ coords(x).  Each amplitude gets the bits the full-width rotation
    gives it, up to the sign of zero amplitudes.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != model.depth:
        raise ValueError(
            f"thetas has shape {thetas.shape}, expected (rows, {model.depth})"
        )
    coords = _span_coords(g.x for g in model.generators)
    rows, size = len(thetas), 1 << coords.count(None)
    # The second buffer takes the doubled state or the gathered partners.
    live = np.empty(rows * size, dtype=complex)
    spare = np.empty(rows * size, dtype=complex)
    live[:rows] = 1.0
    support = np.zeros(1, dtype=np.intp)
    for g, coord, theta in zip(model.generators, coords, thetas.T[..., None]):
        k = len(support)
        amps = live[: rows * k].reshape(rows, k)
        if coord is None:
            doubled = spare[: 2 * rows * k].reshape(rows, 2 * k)
            new = doubled[:, k:]
            # Where the full-width rotation's partner amplitude is 0.  Each
            # part of -i sin theta times G's factor is one rounded product,
            # the negation of the bits that i sin theta gives.
            support = np.concatenate([support, support ^ g.x])
            np.multiply(_pauli_table(g, support[k:])[1], amps, out=new)
            np.multiply(-1j * np.sin(theta), new, out=new)
            np.multiply(np.cos(theta), amps, out=doubled[:, :k])
            live, spare = spare, live
        else:
            _rotate(
                amps, np.arange(k) ^ coord, _pauli_table(g, support)[1], theta,
                spare[: rows * k].reshape(rows, k),
            )
    return live[: rows * len(support)].reshape(rows, len(support)), support


# Complex entries per _span_states buffer in one chunk of state_overlaps
# rows (1 MiB): the memory a call takes stays the same whatever the rank.
_SPAN_CHUNK = 1 << 16


def state_overlaps(model: CircuitModel, thetas, phis) -> np.ndarray:
    """<0|U(thetas[r])^dag U(phis[r])|0> for each row r, at input angle 0.

    For a last gate whose X mask x is outside the span S of the masks before
    it, R(theta)^dag R(phi) = cos(theta - phi) I + i sin(theta - phi) G and G
    maps S onto the coset S ^ x, which misses S: the gate only multiplies the
    overlap by cos(theta - phi).  Such trailing gates are never simulated; the
    rest run on their live support, in chunks of rows of about _SPAN_CHUNK
    amplitudes, and the overlap sums only its columns.  Rows are independent,
    so the chunking leaves every bit of the result as it is.
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != model.depth or phis.shape != thetas.shape:
        raise ValueError(
            f"thetas and phis have shapes {thetas.shape} and {phis.shape}, "
            f"expected (rows, {model.depth}) each"
        )
    coords = _span_coords(g.x for g in model.generators)
    split = len(coords)
    while split and coords[split - 1] is None:
        split -= 1
    prefix = replace(model, generators=model.generators[:split])
    step = max(1, _SPAN_CHUNK >> (coords[:split].count(None) + 1))
    overlaps = np.empty(len(thetas), dtype=complex)
    for start in range(0, len(thetas), step):
        chunk = slice(start, start + step)
        rows = len(thetas[chunk])
        amps, _ = _span_states(
            prefix, np.concatenate([thetas[chunk, :split], phis[chunk, :split]])
        )
        np.vecdot(amps[:rows], amps[rows:], out=overlaps[chunk])
        del amps  # before the next chunk takes its buffers
    return overlaps * np.cos(thetas[:, split:] - phis[:, split:]).prod(axis=1)
