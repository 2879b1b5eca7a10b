"""Tests for the simulator, Heisenberg and statevector, against dense-matrix oracles."""

import functools
import tracemalloc

import numpy as np
import pytest

import gensel.experiments as experiments
import gensel.pauli as pauli
import gensel.simulator as simulator
from gensel.pauli import PauliString, ScaledPauli, commutator, multiply
from gensel.selection import SelectionProblem, solve_exact
from gensel.simulator import (
    CircuitModel,
    CompiledCircuit,
    StateVector,
    _heisenberg_terms,
    apply_pauli_rotation,
    apply_ry_encoding,
    compile_circuit,
    expectation,
    run_model,
    run_model_batch,
    stack_circuits,
    state_overlaps,
)

from conftest import dense_pauli, dense_ry_all, pauli_amps, random_label

P = PauliString.from_label


def _dense_rotation(label: str, theta: float) -> np.ndarray:
    m = dense_pauli(label)
    return np.cos(theta) * np.eye(m.shape[0]) - 1j * np.sin(theta) * m


def _dense_run_model(model: CircuitModel, theta, x: float) -> float:
    state = np.zeros(1 << model.n, dtype=complex)
    state[0] = 1.0
    state = dense_ry_all(model.n, x) @ state
    for g, t in zip(model.generators, theta):
        state = _dense_rotation(g.label, t) @ state
    return float(np.real(np.vdot(state, dense_pauli(model.observable.label) @ state)))


def _random_state(rng, n: int) -> StateVector:
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


class TestEncoding:
    def test_zero_angle_is_identity(self):
        state = StateVector.zero_state(5)
        out = apply_ry_encoding(state, 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_pi_flips_qubit(self):
        out = apply_ry_encoding(StateVector.zero_state(1), np.pi)
        assert np.allclose(out.amplitudes, [0.0, 1.0], atol=1e-15)

    def test_half_pi_amplitudes(self):
        out = apply_ry_encoding(StateVector.zero_state(1), np.pi / 2)
        assert np.allclose(out.amplitudes, [np.cos(np.pi / 4), np.sin(np.pi / 4)])

    def test_against_dense_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            x = float(rng.uniform(0, 2 * np.pi))
            state = _random_state(rng, n)
            out = apply_ry_encoding(state, x)
            expected = dense_ry_all(n, x) @ state.amplitudes
            assert np.allclose(out.amplitudes, expected, atol=1e-12)


class TestPauliRotation:
    def test_zero_angle(self, rng):
        state = _random_state(rng, 3)
        out = apply_pauli_rotation(state, P("XYZ"), 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_x_half_pi(self):
        out = apply_pauli_rotation(StateVector.zero_state(1), P("X"), np.pi / 2)
        assert np.allclose(out.amplitudes, [0.0, -1j], atol=1e-15)

    def test_zz_eigenstate_phase(self):
        theta = 0.7321
        out = apply_pauli_rotation(StateVector.zero_state(2), P("ZZ"), theta)
        expected = np.zeros(4, dtype=complex)
        expected[0] = np.exp(-1j * theta)
        assert np.allclose(out.amplitudes, expected, atol=1e-14)

    def test_identity_generator_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            apply_pauli_rotation(StateVector.zero_state(2), P("II"), 0.1)

    def test_qubit_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_pauli_rotation(StateVector.zero_state(2), P("X"), 0.1)

    def test_against_dense_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            g = random_label(rng, n)
            theta = float(rng.uniform(-np.pi, np.pi))
            state = _random_state(rng, n)
            out = apply_pauli_rotation(state, P(g), theta)
            expected = _dense_rotation(g, theta) @ state.amplitudes
            assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_bitwise_equal_to_full_width_reference(self, rng):
        for n in range(1, 9):
            for _ in range(5):
                g = P(random_label(rng, n))
                theta = float(rng.uniform(-np.pi, np.pi))
                state = _random_state(rng, n)
                got = apply_pauli_rotation(state, g, theta).amplitudes
                assert np.array_equal(got, _full_width_rotation(state.amplitudes, n, g, theta))

    def test_norm_preserved_over_100_gates(self, rng):
        state = _random_state(rng, 4)
        for _ in range(100):
            g = P(random_label(rng, 4))
            theta = float(rng.uniform(-np.pi, np.pi))
            state = apply_pauli_rotation(state, g, theta)
        assert abs(state.norm_sq - 1.0) < 1e-9


class TestExpectation:
    def test_z_eigenstate(self):
        assert expectation(StateVector.zero_state(5), P("ZIIII")) == pytest.approx(1.0)

    def test_rotated_quarter_turn(self):
        state = apply_pauli_rotation(StateVector.zero_state(5), P("XIIII"), np.pi / 4)
        assert expectation(state, P("ZIIII")) == pytest.approx(0.0, abs=1e-12)

    def test_against_dense_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            o = random_label(rng, n)
            state = _random_state(rng, n)
            got = expectation(state, P(o))
            expected = np.vdot(state.amplitudes, dense_pauli(o) @ state.amplitudes)
            assert abs(got - expected.real) < 1e-12
            assert abs(expected.imag) < 1e-12

    def test_bitwise_equal_to_full_width_reference(self, rng):
        for n in range(1, 9):
            for _ in range(5):
                o = P(random_label(rng, n))
                amps = _random_state(rng, n).amplitudes
                want = np.sum(np.conj(amps) * pauli_amps(amps, n, o)).real
                state = StateVector(n, amps.copy())
                assert expectation(state, o) == want
                assert np.array_equal(state.amplitudes, amps)  # left untouched

    def test_imaginary_residue_raises(self):
        """Amplitudes near 1e6 leave a rounding residue far above 1e-12.

        The check raises RuntimeError rather than asserting, so it holds
        under python -O and reaches the CLI's one-line error handler.
        """
        rng = np.random.default_rng(0)
        amps = (rng.standard_normal(16) + 1j * rng.standard_normal(16)) * 1e6
        with pytest.raises(RuntimeError, match="imaginary residue"):
            expectation(StateVector(4, amps), P("XYZY"))


class TestRunModel:
    def test_no_evolution(self):
        model = CircuitModel(5, (P("XIIII"),), P("ZIIII"))
        assert run_model(model, [0.0], 0.0) == pytest.approx(1.0)

    def test_single_rotation_cosine(self):
        model = CircuitModel(5, (P("XIIII"),), P("ZIIII"))
        for t in np.linspace(-1.5, 1.5, 7):
            assert run_model(model, [t], 0.0) == pytest.approx(np.cos(2 * t))

    def test_theta_length_checked(self):
        model = CircuitModel(2, (P("XI"), P("IY")), P("ZI"))
        with pytest.raises(ValueError, match="shape"):
            run_model(model, [0.1], 0.0)

    def test_against_dense_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            depth = int(rng.integers(1, 5))
            generators = tuple(P(random_label(rng, n)) for _ in range(depth))
            model = CircuitModel(n, generators, P(random_label(rng, n)))
            theta = rng.uniform(-np.pi, np.pi, size=depth)
            x = float(rng.uniform(0, 2 * np.pi))
            got = run_model(model, theta, x)
            assert abs(got - _dense_run_model(model, theta, x)) < 1e-10

    def test_batch_matches_singles(self, rng):
        model = CircuitModel(
            3, (P("XYI"), P("IZX"), P("YII")), P("ZII")
        )
        theta = rng.uniform(-np.pi, np.pi, size=3)
        xs = rng.uniform(0, 2 * np.pi, size=17)
        batch = run_model_batch(model, theta, xs)
        singles = [run_model(model, theta, float(x)) for x in xs]
        assert np.array_equal(batch, singles)  # run_model is a one-row batch

    def test_model_validation(self):
        with pytest.raises(ValueError, match="identity"):
            CircuitModel(2, (P("II"),), P("ZI"))
        with pytest.raises(ValueError, match="identity"):
            CircuitModel(2, (P("XI"),), P("II"))
        with pytest.raises(ValueError, match="match"):
            CircuitModel(2, (P("X"),), P("ZI"))


def _random_model_with_y(rng, n: int, depth: int) -> CircuitModel:
    """Random generators and observable; the first generator carries a Y."""
    first = list(random_label(rng, n, identity_ok=True))
    first[int(rng.integers(n))] = "Y"
    generators = (P("".join(first)),) + tuple(
        P(random_label(rng, n)) for _ in range(depth - 1)
    )
    return CircuitModel(n, generators, P(random_label(rng, n)))


class TestCompiledEvaluator:
    def test_against_dense_oracle(self, rng):
        for n in (1, 2, 3, 4):
            for depth in range(1, 9):
                model = _random_model_with_y(rng, n, depth)
                xs = rng.uniform(0, 2 * np.pi, size=9)
                for _ in range(3):
                    theta = rng.uniform(-np.pi, np.pi, size=depth)
                    expected = [_dense_run_model(model, theta, x) for x in xs]
                    got = run_model_batch(model, theta, xs)
                    assert np.allclose(got, expected, atol=1e-10)

    def test_repeated_calls_identical_to_fresh_batches(self, rng):
        """One compilation evaluated again and again gives, bit for bit,
        what a fresh compilation per call gives."""
        model = _random_model_with_y(rng, 4, 5)
        xs = rng.uniform(0, 2 * np.pi, size=30)
        evaluate = stack_circuits([compile_circuit(model, xs)])
        for _ in range(4):
            theta = rng.uniform(-np.pi, np.pi, size=5)
            got = evaluate(theta[None, None])[0, 0]
            assert np.array_equal(got, run_model_batch(model, theta, xs))

    def _assert_matches_oracle(self, rng, model):
        xs = rng.uniform(0, 2 * np.pi, size=9)
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, size=model.depth)
            expected = [_dense_run_model(model, theta, x) for x in xs]
            got = run_model_batch(model, theta, xs)
            assert np.allclose(got, expected, atol=1e-10)

    def test_dense_fallback_against_dense_oracle(self, rng):
        """Past 4 * L * 2^n Heisenberg terms the statevector evaluator takes over."""
        model = _random_model_with_y(rng, 3, 24)
        assert _heisenberg_terms(model) is None
        self._assert_matches_oracle(rng, model)

    def test_dense_fallback_bitwise_equal_to_full_width_reference(self, rng, monkeypatch):
        """The dense rows of stack_circuits carry the bits of the full-width
        reference: R_Y(x) as the rotations exp(-i (x/2) Y_q) for q = 0..n-1,
        then every gate, then the observable."""
        monkeypatch.setattr(simulator, "_MAX_TERMS", 4)
        for n in range(1, 7):
            model = _random_model_with_y(rng, n, 2 * n + 4)
            xs = rng.uniform(0, 2 * np.pi, size=7)
            circuit = compile_circuit(model, xs)
            assert circuit.dense is not None
            thetas = rng.uniform(-np.pi, np.pi, size=(3, 1, model.depth))
            got = stack_circuits([circuit])(thetas)[:, 0]
            for theta, row in zip(thetas[:, 0], got):
                amps = np.zeros((len(xs), 1 << n), dtype=complex)
                amps[:, 0] = 1.0
                for q in range(n):
                    y = PauliString(n, 1 << q, 1 << q)
                    amps = _full_width_rotation(amps, n, y, xs / 2.0)
                for g, t in zip(model.generators, theta):
                    amps = _full_width_rotation(amps, n, g, float(t))
                o = model.observable
                want = np.sum(np.conj(amps) * pauli_amps(amps, n, o), axis=-1).real
                assert np.array_equal(row, want)

    def test_term_cap_falls_back_to_dense(self, rng, monkeypatch):
        """Under the term cap, not the 4 * L * 2^n limit, the dense path is used."""
        monkeypatch.setattr(simulator, "_MAX_TERMS", 64)
        model = _random_model_with_y(rng, 4, 16)
        assert _heisenberg_terms(model) is None
        self._assert_matches_oracle(rng, model)
        # Three 2^4-amplitude blocks, 17 tables of 24 bytes each and 1 KiB,
        # and a ufunc buffer of 8192 complex
        bound = 3 * 16 * 16 + 17 * (24 * 16 + 1024) + 16 * 8192
        monkeypatch.setattr(pauli, "MAX_BYTES", bound - 1)
        with pytest.raises(ValueError, match="^simulating 1 inputs on 4 qubits needs"):
            compile_circuit(model, [0.3])

    def test_deep_random_circuit_at_30_qubits_fails_fast(self, rng):
        """Random generators split ~1.5x per gate; no 2^30 state is attempted."""
        model = _random_model_with_y(rng, 30, 40)
        with pytest.raises(ValueError, match="^simulating 100 inputs on 30 qubits needs"):
            compile_circuit(model, rng.uniform(0, 2 * np.pi, size=100))

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_dense_peak_within_the_bytes_it_asks_for(self, rng, monkeypatch, n):
        """Compiling and evaluating a deep random circuit (L = 40, B = 100)
        on the dense path peaks at or under the bytes passed to the guard,
        and past the three B x 2^n complex blocks it charges for."""
        asked = []
        monkeypatch.setattr(simulator, "check_bytes", lambda what, nbytes: asked.append(nbytes))
        monkeypatch.setattr(simulator, "_heisenberg_terms", lambda model: None)
        model = _random_model_with_y(rng, n, 40)
        xs = rng.uniform(0, 2 * np.pi, size=100)
        theta = rng.uniform(-np.pi, np.pi, size=40)
        tracemalloc.start()
        try:
            compile_circuit(model, xs).dense(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (bound,) = asked
        assert 3 * 16 * 100 << n < peak <= bound

    def test_deep_random_circuit_at_20_qubits_refused_before_allocating(
        self, rng, monkeypatch
    ):
        """Three blocks of 100 x 2^20 amplitudes and 41 tables would take
        5.6 GiB: the dense evaluator is refused before it is built."""
        def no_dense(*args):  # a missing bound fails here, not in 5.6 GiB
            raise AssertionError("dense evaluator built past the bound")

        monkeypatch.setattr(simulator, "_compile_dense", no_dense)
        model = _random_model_with_y(rng, 20, 40)
        with pytest.raises(ValueError) as info:
            compile_circuit(model, rng.uniform(0, 2 * np.pi, size=100))
        assert str(info.value) == (
            "simulating 100 inputs on 20 qubits needs 5.6486 GiB, past the 1 GiB bound"
        )

    def test_exact_selection_has_depth_plus_one_terms(self):
        """Mutually anticommuting generators that anticommute with O.

        O splits at every gate; each O G_l commutes with every earlier
        generator, so it never splits again: L + 1 terms in all.
        """
        for label, depths in (("ZII", range(2, 7)), ("XIZIY", (5, 10))):
            observable = P(label)
            for depth in depths:
                result = solve_exact(SelectionProblem(observable, None, depth))
                assert result.score == depth * (depth - 1) // 2
                model = CircuitModel(observable.n, result.chosen, observable)
                assert len(_heisenberg_terms(model)) == depth + 1

    def test_untouched_qubits_cost_nothing(self, rng):
        """A 40-qubit model acting on qubits 0-2 equals the 3-qubit model.

        No 2^40 statevector fits in memory, so the evaluator never builds one.
        """
        small = _random_model_with_y(rng, 3, 4)
        pad = "I" * 37
        wide = CircuitModel(
            40,
            tuple(P(g.label + pad) for g in small.generators),
            P(small.observable.label + pad),
        )
        xs = rng.uniform(0, 2 * np.pi, size=9)
        theta = rng.uniform(-np.pi, np.pi, size=4)
        got = run_model_batch(wide, theta, xs)
        assert np.array_equal(got, run_model_batch(small, theta, xs))
        expected = [_dense_run_model(small, theta, x) for x in xs]
        assert np.allclose(got, expected, atol=1e-10)

    def test_non_real_split_phase_raises(self, monkeypatch):
        """An anticommuting split must carry a real +-1 sign, else RuntimeError."""
        monkeypatch.setattr(
            simulator, "multiply", lambda a, b: ScaledPauli(multiply(a, b).base, 1)
        )
        model = CircuitModel(1, (P("X"),), P("Z"))
        with pytest.raises(RuntimeError, match="is not"):
            compile_circuit(model, [0.3])

    def test_theta_shape_checked_per_call(self):
        model = CircuitModel(2, (P("XI"), P("IY")), P("ZI"))
        with pytest.raises(ValueError, match=r"theta has shape \(1,\), expected \(2,\)"):
            run_model_batch(model, [0.1], [0.1, 0.2])
        assert run_model_batch(model, [0.1, 0.2], [0.1, 0.2]).shape == (2,)


def _term_products(circuit, theta) -> np.ndarray:
    """Phi times each term's coefficient (B x K), for one circuit alone."""
    depth = circuit.depth
    trig = np.concatenate([np.ones(depth), np.cos(2 * theta), np.sin(2 * theta)])
    return circuit.phi * trig[circuit.factors * depth + np.arange(depth)].prod(axis=1)


def _term_sum(circuit, theta) -> np.ndarray:
    """One circuit's predictions alone: its term products added left to right
    in compile order, starting from +0.0."""
    columns = _term_products(circuit, theta).T
    return functools.reduce(np.add, columns, np.zeros(circuit.inputs))


def _closure(fn) -> dict:
    cells = (cell.cell_contents for cell in fn.__closure__)
    return dict(zip(fn.__code__.co_freevars, cells))


def _buckets(evaluate) -> list:
    """The (members, phi, gather, common, tail) buckets an evaluator of
    stack_circuits holds, as its buffers read them."""
    return _closure(_closure(evaluate)["buffers"])["buckets"]


def _synthetic_circuit(rng, terms: int, depth: int, xs) -> CompiledCircuit:
    """Term tables of exactly ``terms`` terms, zeros of either sign among them."""
    phi = rng.choice([0.0, -0.0, 0.5, -1.25, 1e-300], size=(len(xs), terms))
    phi[:, ::3] = rng.uniform(-1, 1, size=phi[:, ::3].shape) * np.cos(xs)[:, None]
    factors = rng.integers(0, 3, size=(terms, depth))
    return CompiledCircuit(depth, len(xs), phi.size + factors.size, phi, factors)


class _CountingAdd:
    """np.add that counts its direct calls (its reduce is one more call)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return np.add(*args, **kwargs)

    def reduce(self, *args, **kwargs):
        self.calls += 1
        return np.add.reduce(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np.add, name)


class TestStackCircuits:
    def test_rows_reduce_left_to_right(self, rng):
        """Each row of a stacked evaluation equals, bit for bit, the
        left-to-right sum over its terms of Phi times that row's
        coefficients, on either side of 8 terms and with a single input, and
        the dense oracle to rounding; the dense fallback runs in the same
        stack.
        """
        shapes = ((1, 2), (2, 3), (3, 5), (4, 8), (4, 10), (4, 10), (4, 12), (3, 24))
        models = [_random_model_with_y(rng, n, depth) for n, depth in shapes]
        models += models[2:5]  # buckets of several circuits, too
        xs = rng.uniform(0, 2 * np.pi, size=7)
        circuits = [compile_circuit(model, xs) for model in models]
        terms = [c.factors.shape[0] for c in circuits if c.dense is None]
        assert min(terms) < 8 <= max(terms)
        assert circuits[7].dense is not None
        thetas = rng.uniform(-np.pi, np.pi, size=(2, len(models), 24))
        evaluate = stack_circuits(circuits)
        got = evaluate(thetas)
        assert got.shape == (2, len(models), len(xs))
        assert np.array_equal(evaluate(thetas[1:]), got[1:])
        # Entries past the largest depth are ignored, too.
        padding = rng.uniform(-np.pi, np.pi, size=(2, len(models), 5))
        wider = np.concatenate([thetas, padding], axis=-1)
        assert np.array_equal(evaluate(wider), got)
        for t, (model, c) in enumerate(zip(models, circuits)):
            depth = model.depth
            for p in range(2):
                theta = thetas[p, t, :depth]
                if c.dense is None:
                    assert got[p, t].tobytes() == _term_sum(c, theta).tobytes()
                    # One input alone: NumPy would sum that lone row pairwise.
                    one = stack_circuits([compile_circuit(model, xs[:1])])
                    alone = one(theta[None, None])[0, 0]
                    assert alone.tobytes() == got[p, t, :1].tobytes()
                expected = [_dense_run_model(model, theta, x) for x in xs]
                assert np.allclose(got[p, t], expected, atol=1e-10)

    def test_padding_keeps_signed_zeros(self, rng):
        """Circuits of 0 to 8 terms stacked with circuits past 8, at inputs
        and angles where sin gives exact zeros of either sign: every row is,
        byte for byte, the circuit evaluated alone, with all its inputs or
        with one (so the sign of every zero is checked), and no bucket pads a
        circuit to 2x its terms or more unless to at most 8."""
        # At x = 0 and theta = -pi/2 every term of these two is -0.0.
        xs = np.array([0.0, -0.0, np.pi / 2, np.pi, 1.3, 4.1])
        models = [
            CircuitModel(1, (P("Z"),), P("X")),
            CircuitModel(2, (P("YI"),), P("XX")),
        ]
        by_terms = {len(compile_circuit(model, xs).factors): model for model in models}
        assert set(by_terms) == {1, 2}
        while not set(range(9)) < set(by_terms) or max(by_terms) < 16:
            n, depth = int(rng.integers(1, 5)), int(rng.integers(1, 8))
            generators = [P(random_label(rng, n)) for _ in range(depth)]
            model = CircuitModel(n, generators, P(random_label(rng, n)))
            circuit = compile_circuit(model, xs)
            if circuit.dense is None:
                by_terms.setdefault(len(circuit.factors), model)
        models = list(by_terms.values())
        circuits = [compile_circuit(model, xs) for model in models]
        choices = np.array([0.0, -0.0, np.pi / 2, -np.pi / 2, 0.4, -1.1])
        thetas = rng.choice(choices, size=(3, len(models), 7))
        thetas[0] = -np.pi / 2
        evaluate = stack_circuits(circuits)
        got = evaluate(thetas)
        for c in circuits[:2]:
            zeros = _term_products(c, thetas[0, 0, : c.depth])[0]
            assert np.all(np.signbit(zeros) & (zeros == 0))
        assert np.count_nonzero(got == 0) >= 2
        for t, (model, c) in enumerate(zip(models, circuits)):
            alone = stack_circuits([c])(thetas[:, t : t + 1])[:, 0]
            assert got[:, t].tobytes() == alone.tobytes()
            for p in range(3):
                expected = _term_sum(c, thetas[p, t, : model.depth])
                assert got[p, t].tobytes() == expected.tobytes()
            for j, x in enumerate(xs):
                one = stack_circuits([compile_circuit(model, [x])])
                alone = one(thetas[:, t : t + 1])[:, 0, 0]
                assert alone.tobytes() == got[:, t, j].tobytes()
        buckets = _buckets(evaluate)
        assert len(buckets) >= 2
        for members, phi, _, common, tail in buckets:
            counts = [len(circuits[t].factors) for t in members]
            assert len(tail) <= simulator._RAGGED_SLICES
            assert len(phi) == sum(max(k, common) for k in counts)
            if common == min(counts):  # the ragged tail, no padding
                assert len(phi) == sum(counts)
            for k in counts:
                assert max(k, common) <= 8 or max(k, common) < 2 * k
        # The circuits of 0 to 8 terms share one bucket, all of it ragged.
        (small,) = [b for b in buckets if len(circuits[b[0][0]].factors) <= 8]
        assert small[3] == 0 and len(small[1]) == sum(range(9))


    @pytest.mark.parametrize("inputs", [7, 1])
    def test_ragged_terms_up_to_1000_and_past(self, rng, inputs):
        """Circuits of every term count from 1 to 40, one of none and one of
        1,200, in random order, with 7 inputs or 1: every row is, byte for
        byte, its left-to-right term sum and the circuit evaluated alone."""
        xs = np.array([0.0, -0.0, np.pi / 2, 1.3, 2.9, 4.1, 5.5])[:inputs]
        counts = rng.permutation([*range(1, 41), 0, 1200])
        circuits = [
            _synthetic_circuit(rng, k, int(rng.integers(1, 7)), xs) for k in counts
        ]
        thetas = rng.uniform(-np.pi, np.pi, size=(3, len(circuits), 6))
        thetas[0, ::2] = rng.choice([0.0, -0.0, np.pi / 2, -np.pi / 2], size=6)
        evaluate = stack_circuits(circuits)
        got = evaluate(thetas)
        assert evaluate(thetas[1:2]).tobytes() == got[1:2].tobytes()
        for t, c in enumerate(circuits):
            alone = stack_circuits([c])(thetas[:, t : t + 1])[:, 0]
            assert got[:, t].tobytes() == alone.tobytes()
            for p in range(3):
                expected = _term_sum(c, thetas[p, t, : c.depth])
                assert got[p, t].tobytes() == expected.tobytes()
        for members, phi, _, common, tail in _buckets(evaluate):
            sizes = [len(circuits[t].factors) for t in members]
            assert len(tail) <= simulator._RAGGED_SLICES
            assert len(phi) == sum(max(k, common) for k in sizes)

    def test_adds_per_evaluation_do_not_grow_with_terms(self, rng, monkeypatch):
        """After its multiplies an evaluation makes one reduce and at most
        _RAGGED_SLICES adds per bucket, however many terms a circuit has."""
        add = _CountingAdd()

        class NumPy:
            def __getattr__(self, name):
                return add if name == "add" else getattr(np, name)

        monkeypatch.setattr(simulator, "np", NumPy())
        xs = rng.uniform(0, 2 * np.pi, size=5)
        thetas = rng.uniform(-np.pi, np.pi, size=(3, 41, 4))
        calls = []
        for largest in (40, 1200, 5000):
            circuits = [
                _synthetic_circuit(rng, k, 4, xs) for k in (*range(1, 41), largest)
            ]
            evaluate = stack_circuits(circuits)
            evaluate(thetas)
            add.calls = 0
            evaluate(thetas)
            calls.append(add.calls)
            buckets = len(_buckets(evaluate))
            assert add.calls <= buckets * (1 + simulator._RAGGED_SLICES)
        assert calls[1] == calls[2]  # a 5,000-term circuit adds as 1,200 do


def _dense_overlaps(model: CircuitModel, thetas, phis) -> np.ndarray:
    """Dense-matrix oracle for state_overlaps: <0|U(theta)^dag U(phi)|0> per row."""

    def state(theta):
        out = np.zeros(1 << model.n, dtype=complex)
        out[0] = 1.0
        for g, t in zip(model.generators, theta):
            out = _dense_rotation(g.label, t) @ out
        return out

    return np.array([np.vdot(state(a), state(b)) for a, b in zip(thetas, phis)])


def _full_width_rotation(amps, n: int, g: PauliString, theta) -> np.ndarray:
    """exp(-i theta G) @ amps over all 2^n amplitudes, in fresh arrays: the
    reference for the in-place kernel, its products in the kernel's operand
    order.  theta is a float or one angle per row of amps."""
    theta = np.asarray(theta)
    cos_t = np.cos(theta)[..., None] if theta.ndim else np.cos(theta)
    sin_t = np.sin(theta)[..., None] if theta.ndim else np.sin(theta)
    return cos_t * amps - (1j * sin_t) * pauli_amps(amps, n, g)


def _full_width_states(model: CircuitModel, thetas) -> np.ndarray:
    """Reference for _span_states: every gate over all 2^n amplitudes."""
    thetas = np.asarray(thetas, dtype=float)
    amps = np.zeros((len(thetas), 1 << model.n), dtype=complex)
    amps[:, 0] = 1.0
    for l, g in enumerate(model.generators):
        amps = _full_width_rotation(amps, model.n, g, thetas[:, l])
    return amps


def _full_width_overlaps(model: CircuitModel, thetas, phis) -> np.ndarray:
    """The overlaps as summed over all 2^n amplitudes of the full-width states."""
    a, b = _full_width_states(model, thetas), _full_width_states(model, phis)
    return np.sum(np.conj(a) * b, axis=1)


def _span_model(rng, n: int, depth: int) -> CircuitModel:
    """Random generators mixed with repeats, Z-only ones (x = 0) and ones
    whose X mask is the XOR of two earlier masks, so inside the span."""
    generators = []
    while len(generators) < depth:
        kind = rng.integers(4) if len(generators) >= 2 else 0
        if kind == 1:
            generators.append(generators[int(rng.integers(len(generators)))])
            continue
        z = int(rng.integers(1 << n))
        if kind == 2:
            x = 0
            z = z or 1
        elif kind == 3:
            a, b = rng.choice(len(generators), size=2, replace=False)
            x = generators[a].x ^ generators[b].x
            z = z if x or z else 1
        else:
            x = int(rng.integers(1 << n))
            z = z if x or z else 1
        generators.append(PauliString(n, x, z))
    return CircuitModel(n, generators, P(random_label(rng, n)))


def _doubling_model(rng, n: int) -> CircuitModel:
    """n gates whose X masks are independent: every gate doubles the support."""
    generators = [
        PauliString(n, 1 << q | int(rng.integers(1 << q)), int(rng.integers(1 << n)))
        for q in map(int, rng.permutation(n))
    ]
    return CircuitModel(n, generators, P(random_label(rng, n)))


def _split(model: CircuitModel, monkeypatch) -> int:
    """The number of gates state_overlaps simulates, read off _span_states."""
    seen = []
    span_states = simulator._span_states

    def spy(prefix, thetas):
        seen.append(prefix.depth)
        return span_states(prefix, thetas)

    monkeypatch.setattr(simulator, "_span_states", spy)
    zeros = np.zeros((1, model.depth))
    state_overlaps(model, zeros, zeros)
    monkeypatch.setattr(simulator, "_span_states", span_states)
    return seen[0]


class TestCircuitStates:
    """The states on their live span (``_span_states``) and their overlaps
    (``state_overlaps``)."""

    def test_against_dense_oracle(self, rng):
        for n in (1, 2, 3, 4):
            models = [
                _random_model_with_y(rng, n, 4),
                _doubling_model(rng, n),
                # Z-only gates, then one that doubles the support.
                CircuitModel(n, (P("Z" * n), P("I" * (n - 1) + "Z"), P("X" * n)), P("Z" * n)),
            ]
            models += [_span_model(rng, n, depth) for depth in (0, 1, n, 2 * n + 2)]
            for model in models:
                for rows in (6, 0):
                    thetas = rng.uniform(-np.pi, np.pi, size=(rows, model.depth))
                    phis = rng.uniform(-np.pi, np.pi, size=(rows, model.depth))
                    got = state_overlaps(model, thetas, phis)
                    assert got.shape == (rows,)
                    want = _dense_overlaps(model, thetas, phis)
                    assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_whole_circuit_in_closed_form(self, rng, monkeypatch):
        """With every X mask new, nothing is simulated and the overlap is
        prod_l cos(theta_l - phi_l), as the dense oracle reads it."""
        for n in (1, 2, 3, 4):
            model = _doubling_model(rng, n)
            assert _split(model, monkeypatch) == 0
            thetas = rng.uniform(-np.pi, np.pi, size=(8, n))
            phis = rng.uniform(-np.pi, np.pi, size=(8, n))
            got = state_overlaps(model, thetas, phis)
            assert np.allclose(got, np.cos(thetas - phis).prod(axis=1), rtol=0, atol=1e-15)
            assert np.allclose(got, _dense_overlaps(model, thetas, phis), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "labels, split",
        [
            (("XII", "IXI", "IIX"), 0),
            (("XII", "YII", "IXI"), 2),
            (("XII", "IXI", "XXZ"), 3),
            (("ZII", "XII", "IYI"), 1),
            (("XII", "IZI", "IXI"), 2),
            ((), 0),
        ],
    )
    def test_trailing_doubling_gates_are_not_simulated(self, labels, split, monkeypatch):
        model = CircuitModel(3, tuple(P(g) for g in labels), P("ZII"))
        assert _split(model, monkeypatch) == split

    def test_no_full_width_array(self, rng):
        """At n = 40 a state of 2^n amplitudes cannot be built.  Gates on four
        qubits, then new X masks far up: the overlap is the four-qubit one
        times a cos factor per trailing gate."""
        small = _span_model(rng, 4, 8)
        wide = [PauliString(40, g.x, g.z) for g in small.generators]
        wide += [PauliString(40, 1 << q, 1 << q) for q in (10, 20, 39)]
        model = CircuitModel(40, wide, PauliString(40, 0, 1))
        thetas = rng.uniform(-np.pi, np.pi, size=(6, 11))
        phis = rng.uniform(-np.pi, np.pi, size=(6, 11))
        tracemalloc.start()
        got = state_overlaps(model, thetas, phis)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 16
        want = _dense_overlaps(small, thetas[:, :8], phis[:, :8])
        want *= np.cos(thetas[:, 8:] - phis[:, 8:]).prod(axis=1)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_rows_run_in_chunks(self, rng, monkeypatch):
        """Rows run in chunks of about _SPAN_CHUNK amplitudes per buffer:
        every bit of the overlaps is kept, and the memory a call takes does
        not grow with the rank of the span."""
        models = [_span_model(rng, n, 2 * n + 2) for n in (1, 3, 5, 7)]
        models.append(CircuitModel(2, (P("ZI"), P("XI")), P("ZI")))
        for model in models:
            thetas = rng.uniform(-np.pi, np.pi, size=(37, model.depth))
            phis = rng.uniform(-np.pi, np.pi, size=(37, model.depth))
            whole = state_overlaps(model, thetas, phis)
            monkeypatch.setattr(simulator, "_SPAN_CHUNK", 1 << 6)
            assert np.array_equal(state_overlaps(model, thetas, phis), whole)
            monkeypatch.undo()
        # Rank 9 before an in-span last gate: unchunked, 500 pairs would take
        # two buffers of 1000 x 512 amplitudes, 16 MiB.
        gens = [PauliString(9, 1 << q, int(rng.integers(1 << 9))) for q in range(9)]
        model = CircuitModel(9, gens + [P("XXIIIIIII")], P("ZIIIIIIII"))
        thetas = rng.uniform(-np.pi, np.pi, size=(1000, 10))
        tracemalloc.start()
        state_overlaps(model, thetas[:500], thetas[500:])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 3 << 20

    def test_bitwise_equal_to_full_width_rotation(self, rng):
        for n in range(1, 9):
            for depth in (0, 1, n, 2 * n + 2):
                model = _span_model(rng, n, depth)
                thetas = rng.uniform(-np.pi, np.pi, size=(5, depth))
                amps, support = simulator._span_states(model, thetas)
                assert len(np.unique(support)) == len(support) == amps.shape[1]
                got = np.zeros((5, 1 << n), dtype=complex)
                got[:, support] = amps
                # array_equal counts -0.0 == 0.0: zero amplitudes may differ
                # in sign only.
                assert np.array_equal(got, _full_width_states(model, thetas))
        # Exact zeros inside the span (theta = 0) and no rows at all.
        model = _span_model(rng, 4, 10)
        for thetas in (np.zeros((3, 10)), np.zeros((0, 10))):
            amps, support = simulator._span_states(model, thetas)
            got = np.zeros((len(thetas), 16), dtype=complex)
            got[:, support] = amps
            assert np.array_equal(got, _full_width_states(model, thetas))

    def test_expressibility_matches_full_width_rotation(self, rng, monkeypatch):
        models = []
        for n in range(2, 9):
            models += [_span_model(rng, n, int(rng.integers(1, 2 * n + 3))) for _ in range(4)]
            models += [
                CircuitModel(n, [P(random_label(rng, n)) for _ in range(n)], P("Z" * n))
                for _ in range(4)
            ]
        suffix = sum(_split(m, monkeypatch) < m.depth for m in models)
        assert len(models) >= 50 and suffix >= 10
        config = experiments.ExpressibilityConfig(seed=5)
        got = [experiments.expressibility_hellinger(m, config) for m in models]
        monkeypatch.setattr(experiments, "state_overlaps", _full_width_overlaps)
        assert got == [experiments.expressibility_hellinger(m, config) for m in models]

    def test_shape_checked(self):
        model = CircuitModel(2, (P("XI"), P("IY")), P("ZI"))
        for thetas, phis in (
            (np.zeros((3, 3)), np.zeros((3, 3))),
            (np.zeros((3, 2)), np.zeros((4, 2))),
            (np.zeros(2), np.zeros(2)),
        ):
            with pytest.raises(ValueError, match="shape"):
                state_overlaps(model, thetas, phis)
        with pytest.raises(ValueError, match="shape"):
            simulator._span_states(model, np.zeros((3, 3)))


class TestDerivativeIdentities:
    def test_first_order_matches_analytic_form(self, rng):
        """d/dtheta of a depth-1 model equals i<psi|U^† [G,O] U|psi>."""
        for _ in range(20):
            n = int(rng.integers(1, 4))
            g = P(random_label(rng, n))
            o = P(random_label(rng, n))
            model = CircuitModel(n, (g,), o)
            theta = float(rng.uniform(-1, 1))
            x = float(rng.uniform(0, 2 * np.pi))
            h = 1e-5
            fd = (run_model(model, [theta + h], x) - run_model(model, [theta - h], x)) / (
                2 * h
            )
            comm = commutator(g, o)
            if comm is None:
                analytic = 0.0
            else:
                state = apply_ry_encoding(StateVector.zero_state(n), x)
                state = apply_pauli_rotation(state, g, theta)
                raw = np.vdot(
                    state.amplitudes,
                    comm.coefficient
                    * _apply_dense(comm.base, state.amplitudes),
                )
                analytic = float((1j * raw).real)
                assert abs((1j * raw).imag) < 1e-10
            assert abs(fd - analytic) < 1e-6

    def test_mixed_second_derivative_at_zero(self, rng):
        """d^2C/dt1 dt2 at theta=0 equals -<psi|[G2,[G1,O]]|psi>.

        Checked both for anticommuting generator pairs (both sides vanish)
        and for commuting pairs (nonzero and order-independent).
        """
        checked_nonzero = 0
        for _ in range(40):
            n = int(rng.integers(2, 4))
            o = P(random_label(rng, n))
            g1 = P(random_label(rng, n))
            g2 = P(random_label(rng, n))
            model = CircuitModel(n, (g1, g2), o)
            x = float(rng.uniform(0, 2 * np.pi))
            h = 1e-3
            pp = run_model(model, [h, h], x)
            pm = run_model(model, [h, -h], x)
            mp = run_model(model, [-h, h], x)
            mm = run_model(model, [-h, -h], x)
            fd = (pp - pm - mp + mm) / (4 * h * h)

            state = apply_ry_encoding(StateVector.zero_state(n), x)
            inner = commutator(g1, o)
            if inner is None:
                analytic = 0.0
            else:
                outer = commutator(g2, inner.base)
                if outer is None:
                    analytic = 0.0
                else:
                    coeff = inner.coefficient * outer.coefficient
                    raw = np.vdot(
                        state.amplitudes,
                        coeff * _apply_dense(outer.base, state.amplitudes),
                    )
                    analytic = -float(raw.real)
                    assert abs(raw.imag) < 1e-10
            from gensel.pauli import commutes

            if commutes(g1, g2):
                assert abs(fd - analytic) < 1e-5
                if analytic != 0.0:
                    checked_nonzero += 1
            elif not commutes(g1, o) and not commutes(g2, o):
                # mutually anticommuting pair, both anticommuting with o:
                # the interference term vanishes
                assert analytic == 0.0
                assert abs(fd) < 1e-5
        assert checked_nonzero > 0


def _apply_dense(p: PauliString, amps: np.ndarray) -> np.ndarray:
    return dense_pauli(p.label) @ amps
