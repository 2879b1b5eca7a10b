"""Tests for the symbolic Pauli-string algebra."""

import re
from itertools import product

import numpy as np
import pytest

from gensel import pauli, selection, simulator, theory
from gensel.pauli import (
    PauliString,
    anticommutation_table,
    anticommuting_counts,
    canonical_index,
    canonical_masks,
    check_bytes,
    commutator,
    commutator_norm_sq,
    commutes,
    double_commutator_norm_sq,
    mask_arrays,
    multiply,
    pauli_string_at,
    pauli_strings,
    row_blocks,
    symplectic_parity,
)

from conftest import all_labels, dense_commutator, dense_pauli, frob_sq, random_label

P = PauliString.from_label


class TestPauliString:
    def test_label_round_trip(self):
        for label in ("X", "ZIIII", "XYZI", "IIIII"):
            assert P(label).label == label

    def test_bits_convention(self):
        p = P("ZIIIX")  # Z on qubit 0, X on qubit 4
        assert p.x == 0b10000
        assert p.z == 0b00001

    def test_canonical_equality_and_hash(self):
        assert P("XY") == P("XY")
        assert P("XY") != P("YX")
        assert len({P("XY"), P("XY"), P("YX")}) == 2

    def test_identity_flag(self):
        assert P("III").is_identity
        assert not P("IXI").is_identity

    def test_invalid_labels(self):
        with pytest.raises(ValueError, match="invalid character"):
            P("ZIIIQ")
        with pytest.raises(ValueError):
            P("")

    def test_invalid_masks(self):
        with pytest.raises(ValueError):
            PauliString(2, 4, 0)
        with pytest.raises(ValueError):
            PauliString(0, 0, 0)


class TestCommutes:
    def test_single_qubit_anticommutation(self):
        assert commutes(P("X"), P("Z")) is False
        assert commutes(P("X"), P("Y")) is False
        assert commutes(P("X"), P("X")) is True
        assert commutes(P("I"), P("Z")) is True

    def test_even_overlap_commutes(self):
        assert commutes(P("XX"), P("YY")) is True
        assert commutes(P("XZ"), P("ZX")) is True

    def test_observable_example(self):
        assert commutes(P("XIIII"), P("ZIIII")) is False

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutes(P("X"), P("XX"))

    def test_binary_dichotomy_against_dense(self, rng):
        """Every pair either commutes or anticommutes, matching matrices."""
        for _ in range(200):
            n = int(rng.integers(1, 4))
            a, b = random_label(rng, n, True), random_label(rng, n, True)
            ma, mb = dense_pauli(a), dense_pauli(b)
            comm = np.allclose(ma @ mb, mb @ ma)
            anti = np.allclose(ma @ mb, -mb @ ma)
            assert comm != anti or np.allclose(ma @ mb, 0)
            assert commutes(P(a), P(b)) == comm


class TestMultiply:
    def test_single_qubit_table(self):
        cases = {
            ("X", "Y"): (1j, "Z"),
            ("Y", "X"): (-1j, "Z"),
            ("Y", "Z"): (1j, "X"),
            ("Z", "Y"): (-1j, "X"),
            ("Z", "X"): (1j, "Y"),
            ("X", "Z"): (-1j, "Y"),
        }
        for (a, b), (coeff, base) in cases.items():
            sp = multiply(P(a), P(b))
            assert sp.coefficient == coeff
            assert sp.base == P(base)

    def test_involution(self):
        for label in ("X", "Y", "Z", "XYZ", "ZZIIX"):
            sp = multiply(P(label), P(label))
            assert sp.coefficient == 1
            assert sp.base.is_identity

    def test_two_qubit_example(self):
        sp = multiply(P("XZ"), P("YZ"))
        assert sp.coefficient == 1j
        assert sp.base == P("ZI")

    def test_against_dense_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 4))
            a, b = random_label(rng, n, True), random_label(rng, n, True)
            sp = multiply(P(a), P(b))
            expected = dense_pauli(a) @ dense_pauli(b)
            assert np.allclose(sp.coefficient * dense_pauli(sp.base.label), expected)

    def test_coefficient_is_fourth_root_of_unity(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 5))
            sp = multiply(P(random_label(rng, n)), P(random_label(rng, n)))
            assert sp.coefficient in (1, 1j, -1, -1j)

    def test_associativity_with_coefficients(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a, b, c = (P(random_label(rng, n, True)) for _ in range(3))
            ab = multiply(a, b)
            left = multiply(ab.base, c)
            bc = multiply(b, c)
            right = multiply(a, bc.base)
            assert left.base == right.base
            assert ab.coefficient * left.coefficient == pytest.approx(
                bc.coefficient * right.coefficient
            )


class TestMaskKernels:
    """The uint64 mask-array kernels against the scalar bit-mask functions."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_table_matches_commutes(self, n):
        strings = [pauli_string_at(n, 0), *pauli_strings(n)]
        x, z = mask_arrays(strings)
        table = anticommutation_table(x, z, x, z)
        assert table.dtype == np.uint8
        expected = [[0 if commutes(a, b) else 1 for b in strings] for a in strings]
        assert table.tolist() == expected

    @pytest.mark.parametrize("block_size, rows", [(1, 1), (30, 2), (100, 9), (10**6, 37)])
    def test_table_independent_of_block_size(self, monkeypatch, rng, block_size, rows):
        a = [P(random_label(rng, 4, True)) for _ in range(37)]
        b = [P(random_label(rng, 4, True)) for _ in range(11)]
        expected = anticommutation_table(*mask_arrays(a), *mask_arrays(b))
        monkeypatch.setattr(pauli, "BLOCK_SIZE", block_size)
        blocks = [range(37)[s] for s in row_blocks(37, 11)]
        assert [i for block in blocks for i in block] == list(range(37))
        assert max(len(block) for block in blocks) == rows
        got = anticommutation_table(*mask_arrays(a), *mask_arrays(b))
        assert np.array_equal(got, expected)
        assert got.tolist() == [[int(not commutes(p, q)) for q in b] for p in a]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("subset", [False, True], ids=["full", "subset"])
    def test_counts_match_table_row_sums(self, rng, n, subset):
        """The transform counts, at every 2n-bit Q, are the table's row sums."""
        bx, bz = canonical_masks(n)
        if subset:
            keep = np.sort(rng.choice(len(bx), size=len(bx) // 2 + 1, replace=False))
            bx, bz = bx[keep], bz[keep]
        index = np.arange(4**n, dtype=np.uint64)
        qx, qz = index >> np.uint64(n), index & np.uint64(2**n - 1)
        counts = anticommuting_counts(bx, bz, n)
        assert counts.dtype == np.int64
        expected = anticommutation_table(qx, qz, bx, bz).sum(axis=1)
        assert counts.tolist() == expected.tolist()

    @pytest.mark.parametrize("bits", range(8))
    def test_walsh_hadamard_matches_the_dense_product(self, rng, bits):
        """Odd bit counts too, whose result ends in the scratch buffer."""
        f = rng.integers(-50, 50, size=1 << bits)
        k = np.arange(1 << bits)
        dense = 1 - 2 * (np.bitwise_count(k[:, None] & k).astype(np.int64) & 1)
        assert pauli.walsh_hadamard(f.copy()).tolist() == (dense @ f).tolist()

    def test_parity_broadcasts_elementwise(self, rng):
        a = [P(random_label(rng, 5)) for _ in range(50)]
        b = [P(random_label(rng, 5)) for _ in range(50)]
        got = symplectic_parity(*mask_arrays(a), *mask_arrays(b))
        assert got.tolist() == [int(not commutes(p, q)) for p, q in zip(a, b)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_double_product_of_anticommuting_pair(self, n):
        """P_j (P_j P_m) lands on P_m with phases i^e1 i^e2 = 1 when P_j and
        P_m anticommute, so [P_j, [P_j, P_m]] = 2 i^e1 2 i^e2 P_m = 4 P_m."""
        x, z = canonical_masks(n)
        m, j = np.nonzero(anticommutation_table(x, z, x, z))
        assert len(m) == len(x) * (len(x) + 1) // 2  # 4^n / 2 per string
        strings = list(pauli_strings(n))
        for mi, ji in zip(m, j):
            p_m, p_j = strings[mi], strings[ji]
            q = multiply(p_j, p_m)
            r = multiply(p_j, q.base)
            assert r.base == p_m
            # anticommuting: P_j P_m is anti-Hermitian, a phase of +-i
            assert q.coefficient.real == 0 and abs(q.coefficient.imag) == 1
            assert q.coefficient * r.coefficient == 1

    def test_empty_table(self):
        x, z = mask_arrays([P("XY")])
        assert anticommutation_table(x[:0], z[:0], x, z).shape == (0, 1)


class TestCommutatorNorms:
    def test_self_commutator(self):
        assert commutator_norm_sq(P("X"), P("X")) == 0

    def test_single_qubit_value(self):
        assert commutator_norm_sq(P("X"), P("Z")) == 8

    def test_five_qubit_value(self):
        assert commutator_norm_sq(P("XIIII"), P("ZIIII")) == 128

    def test_exhaustive_against_dense(self):
        """Exact agreement with ||ab - ba||_F^2 for every pair at n <= 3."""
        for n in (1, 2, 3):
            labels = all_labels(n, include_identity=True)
            mats = {s: dense_pauli(s) for s in labels}
            for a in labels:
                for b in labels:
                    expected = frob_sq(dense_commutator(mats[a], mats[b]))
                    got = commutator_norm_sq(P(a), P(b))
                    assert got == round(expected)
                    assert abs(got - expected) < 1e-9

    def test_commutator_operator_matches_dense(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            a, b = P(random_label(rng, n)), P(random_label(rng, n))
            sp = commutator(a, b)
            expected = dense_commutator(dense_pauli(a.label), dense_pauli(b.label))
            if sp is None:
                assert np.allclose(expected, 0)
            else:
                assert np.allclose(
                    sp.coefficient * dense_pauli(sp.base.label), expected
                )


class TestDoubleCommutatorNormSq:
    def test_anticommuting_observable_cases_at_n5(self):
        o = P("ZIIII")
        assert double_commutator_norm_sq(P("YIIII"), P("XIIII"), o) == 0
        assert double_commutator_norm_sq(P("XXIII"), P("XIIII"), o) == 512

    def test_degenerate_triple(self):
        x = P("X")
        assert double_commutator_norm_sq(x, x, x) == 0

    def test_random_triples_against_dense(self, rng):
        """Exact integer agreement with the dense oracle for 1000 triples."""
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            gk, gj, o = (P(random_label(rng, n, True)) for _ in range(3))
            mk, mj, mo = (dense_pauli(p.label) for p in (gk, gj, o))
            expected = frob_sq(dense_commutator(mk, dense_commutator(mj, mo)))
            got = double_commutator_norm_sq(gk, gj, o)
            assert got == round(expected)
            assert abs(got - expected) < 1e-8

    def test_hypothesis_satisfying_triples_dichotomy(self, rng):
        """Under the anticommuting-with-o hypotheses the value is 0 or 2^(n+4)."""
        n = 5
        count_zero = 0
        for _ in range(2000):
            o = P(random_label(rng, n))
            gj = _random_anticommuting(rng, o)
            gk = _random_anticommuting(rng, o)
            value = double_commutator_norm_sq(gk, gj, o)
            if commutes(gk, gj):
                assert value == 2 ** (n + 4)
            else:
                assert value == 0
                count_zero += 1
        assert 0 < count_zero < 2000  # both branches exercised


def _random_anticommuting(rng, o: PauliString) -> PauliString:
    while True:
        g = P(random_label(rng, o.n))
        if not commutes(g, o):
            return g


class TestEnumeration:
    def test_counts_and_identity_handling(self):
        for n in (1, 2, 3):
            strings = list(pauli_strings(n))
            assert len(strings) == 4**n - 1
            assert len(set(strings)) == len(strings)
            assert not any(p.is_identity for p in strings)
            with_id = [pauli_string_at(n, 0), *pauli_strings(n)]
            assert len(with_id) == 4**n
            assert with_id[0].is_identity

    def test_single_qubit_order(self):
        assert [p.label for p in pauli_strings(1)] == ["Z", "X", "Y"]

    def test_index_matches_lexicographic_bit_order(self):
        """Index k is the k-th (x_0..x_{n-1}, z_0..z_{n-1}) vector in lexicographic order."""
        for n in (1, 2, 3, 4, 5):
            for k, bits in enumerate(product((0, 1), repeat=2 * n)):
                x = sum(b << q for q, b in enumerate(bits[:n]))
                z = sum(b << q for q, b in enumerate(bits[n:]))
                expected = PauliString(n, x, z)
                assert pauli_string_at(n, k) == expected
                assert canonical_index(expected) == k
            assert list(pauli_strings(n)) == [
                pauli_string_at(n, k) for k in range(1, 4**n)
            ]

    def test_canonical_masks_follow_the_listing(self):
        """Position i of the masks is the listed string at index i + 1."""
        for n in range(1, 6):
            x, z = canonical_masks(n)
            assert x.dtype == z.dtype == np.uint64
            expected = mask_arrays(list(pauli_strings(n)))
            assert np.array_equal(x, expected[0]) and np.array_equal(z, expected[1])
        with pytest.raises(ValueError, match="positive"):
            canonical_masks(0)

    def test_canonical_masks_refused_past_the_bound(self, monkeypatch):
        """Listing the 13-qubit strings, charged at its callers' peak of 7.5
        words per string (3.75 GiB), is refused before any array is made."""
        def no_masks(*args, **kwargs):  # a missing bound fails here, not in 1 GiB
            raise AssertionError("canonical masks built past the bound")

        monkeypatch.setattr(np, "repeat", no_masks)
        with pytest.raises(ValueError) as info:
            canonical_masks(13)
        assert str(info.value) == (
            "listing the 67108863 strings on 13 qubits needs 3.75012 GiB, "
            "past the 1 GiB bound"
        )

    @pytest.mark.parametrize("n", [64, 100])
    def test_canonical_index_past_uint64(self, rng, n):
        """Python ints carry the index past the 63 qubits of the mask arrays."""
        for _ in range(200):
            k = int("".join(map(str, rng.integers(0, 2, size=2 * n))), 2)
            assert canonical_index(pauli_string_at(n, k)) == k
        for k in (0, 1, 4**n - 1):
            assert canonical_index(pauli_string_at(n, k)) == k

    def test_index_range_checked(self):
        assert pauli_string_at(2, 0).is_identity
        with pytest.raises(ValueError, match="out of range"):
            pauli_string_at(2, 16)
        with pytest.raises(ValueError, match="out of range"):
            pauli_string_at(2, -1)
        with pytest.raises(ValueError, match="positive"):
            pauli_string_at(0, 0)



def _theory_sums():
    theory._basis_masks.cache_clear()  # a cached basis is past its check
    theory.verify_identities([], 2)


def _circuit(generators: str) -> simulator.CircuitModel:
    return simulator.CircuitModel(1, [P(g) for g in generators], P("Z"))


# Each guarded site, called at a size that fits the real bound, and the
# subject of its refusal.  Ten alternating X and Y gates split Z into 89
# terms, past the 80 that send a one-qubit circuit to the dense evaluator.
GUARDED_SITES = {
    "greedy": (
        lambda: selection.solve_greedy(selection.SelectionProblem(P("Z"), [P("X"), P("Y")], 1)),
        "greedy's 2 x 2 table",
    ),
    "canonical_masks": (lambda: canonical_masks(2), "listing the 15 strings on 2 qubits"),
    "pool": (
        lambda: selection.SelectionProblem(P("ZI"), None, 2),
        "listing the 15 strings on 2 qubits",
    ),
    "pair_only": (
        lambda: selection.select_for_method("pair_only", P("ZI"), 2, 0),
        "listing the 15 strings on 2 qubits",
    ),
    "anticommutation_table": (
        lambda: anticommutation_table(*mask_arrays([P("X"), P("Y"), P("Z")]) * 2),
        "the 3 x 3 anticommutation table",
    ),
    "theory": (_theory_sums, "summing over the 15 strings on 2 qubits"),
    "from_terms": (
        lambda: theory.ObservableInAlgebra.from_terms(2, {}), "an observable on 2 qubits"
    ),
    "random_observable": (
        lambda: theory.random_observable(2, np.random.default_rng(0)),
        "an observable on 2 qubits",
    ),
    "heisenberg": (
        lambda: simulator.compile_circuit(_circuit("X"), [0.1, 0.2]),
        "tabulating 2 terms over 2 inputs",
    ),
    "dense": (
        lambda: simulator.compile_circuit(_circuit("XY" * 5), [0.1]),
        "simulating 1 inputs on 1 qubits",
    ),
}


class TestSizeBound:
    @pytest.mark.parametrize("site", GUARDED_SITES)
    def test_every_guarded_site_refuses_in_one_line(self, monkeypatch, site):
        """Under the real bound each site runs; under a zero bound it refuses,
        before it allocates, with the one message form of check_bytes."""
        call, what = GUARDED_SITES[site]
        call()
        monkeypatch.setattr(pauli, "MAX_BYTES", 0)
        with pytest.raises(ValueError) as info:
            call()
        assert re.fullmatch(
            re.escape(what) + r" needs [0-9.e-]+ GiB, past the 0 GiB bound", str(info.value)
        )

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(pauli, "MAX_BYTES", 100)
        check_bytes("a step", 100)
        with pytest.raises(ValueError, match="^a step needs 9.40636e-08 GiB, past the"):
            check_bytes("a step", 101)

    def test_a_full_8_qubit_greedy_table_fits(self):
        check_bytes("greedy's table", 32768 * 32768)
