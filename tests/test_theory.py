"""Tests for the Casimir-identity verification, symbolic vs dense."""

import tracemalloc

import numpy as np
import pytest

from gensel import pauli, theory
from gensel.pauli import PauliString, commutator, commutes, pauli_strings
from gensel.theory import (
    IdentityCheck,
    ObservableInAlgebra,
    TheoryVerificationError,
    casimir_constant,
    g_purity,
    random_observable,
    verify_identities,
)

from conftest import dense_commutator, dense_pauli, dense_projection_sq, frob_sq

P = PauliString.from_label


def _check(o: ObservableInAlgebra) -> IdentityCheck:
    """The identities of one observable."""
    (check,) = verify_identities([o], o.n)
    return check


def _dense_basis(n: int) -> list[np.ndarray]:
    # Order follows the package's canonical enumeration (coeffs are aligned
    # to it); the matrices themselves come from the independent oracle.
    scale = 1.0 / np.sqrt(2.0**n)
    return [scale * dense_pauli(p.label) for p in pauli_strings(n)]


def _dense_observable(o: ObservableInAlgebra) -> np.ndarray:
    basis = _dense_basis(o.n)
    out = np.zeros_like(basis[0])
    for w, g in zip(o.coeffs, basis):
        out = out + w * g
    return out


def _dense_sums(o: ObservableInAlgebra):
    """Theorem-1 lhs, full double sum and its diagonal, via dense matrices."""
    basis = _dense_basis(o.n)
    obs = _dense_observable(o)
    thm1 = sum(frob_sq(dense_commutator(g, obs)) for g in basis)
    inners = [dense_commutator(g, obs) for g in basis]
    total = 0.0
    diag = 0.0
    for j, inner in enumerate(inners):
        for k, g in enumerate(basis):
            value = frob_sq(dense_commutator(g, inner))
            total += value
            if j == k:
                diag += value
    return thm1, total, diag


def _commutator_terms(p, terms):
    """[p, sum_q w_q q] as a Pauli-sum dict (unnormalized strings)."""
    out = {}
    for q, w in terms:
        sp = commutator(p, q)
        if sp is not None:
            out[sp.base] = out.get(sp.base, 0j) + w * sp.coefficient
    return out


def _reference_sums(o: ObservableInAlgebra):
    """Theorem-1 lhs, double sum and its diagonal, one (j, k) pair at a time.

    The per-pair loop that the vectorised sums replaced, on the scalar
    ``pauli.commutator`` and ``pauli.commutes``.
    """
    basis = list(pauli_strings(o.n))
    d = 2.0**o.n
    terms = o.terms()
    thm1 = total = diag = 0.0
    for j, p_j in enumerate(basis):
        inner = _commutator_terms(p_j, terms)
        thm1 += sum(abs(w) ** 2 for w in inner.values()) / d
        for k, p_k in enumerate(basis):
            s = sum(abs(w) ** 2 for q, w in inner.items() if not commutes(p_k, q))
            total += 4.0 / (d * d) * s
            if k == j:
                diag += 4.0 / (d * d) * s
    return thm1, total, diag


def _pairwise_double_sums(o: ObservableInAlgebra):
    """(total, diagonal) of the double sum by the blocked pairwise sweep.

    The sweep that ``pauli.anticommuting_counts`` replaced: for every
    product Q = P_j O_t, a row of ``anticommutation_table(Q, basis)``.
    """
    bx, bz = theory._basis_masks(o.n)
    tx, tz, w2 = theory._term_masks(o)
    inner = pauli.anticommutation_table(tx, tz, bx, bz)
    total = np.zeros(len(w2), dtype=np.int64)
    diag = np.zeros(len(w2), dtype=np.int64)
    for block in pauli.row_blocks(len(bx), len(bx) * len(w2)):
        t, j = np.nonzero(inner[:, block])
        j += block.start
        qx, qz = bx[j] ^ tx[t], bz[j] ^ tz[t]
        outer = pauli.anticommutation_table(qx, qz, bx, bz)
        np.add.at(total, t, outer.sum(axis=1, dtype=np.int64))
        np.add.at(diag, t, outer[np.arange(len(j)), j])
    scale = 16.0 / 4.0**o.n
    return scale * float(np.sum(w2 * total)), scale * float(np.sum(w2 * diag))


def _reference_casimir(n: int) -> float:
    """sum_j [P_j, [P_j, P_m]] accumulated string by string for every m."""
    basis = list(pauli_strings(n))
    constants = set()
    for p_m in basis:
        acc = {}
        for p_j in basis:
            inner = commutator(p_j, p_m)
            outer = None if inner is None else commutator(p_j, inner.base)
            if outer is not None:
                w = inner.coefficient * outer.coefficient
                acc[outer.base] = acc.get(outer.base, 0j) + w
        assert set(acc) == {p_m} and acc[p_m].imag == 0
        constants.add(acc[p_m].real / 2.0**n)
    (c,) = constants
    return c


class TestVectorisedSums:
    """The NumPy sweeps against the per-pair loop and the dense oracles."""

    @staticmethod
    def _sums(o):
        check = _check(o)
        return check.thm1_lhs, check.lemma1_lhs, check.diag_sum

    def test_matches_per_pair_reference_n4(self, rng):
        for _ in range(3):
            o = random_observable(4, rng, max_terms=8)
            for got, want in zip(self._sums(o), _reference_sums(o)):
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_oracle(self, rng, n):
        for max_terms in (None, 3):
            o = random_observable(n, rng, max_terms=max_terms)
            for got, want in zip(self._sums(o), _dense_sums(o)):
                assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("n, max_terms", [(3, None), (4, None), (4, 8), (5, 8)])
    def test_double_sums_equal_pairwise_sweep(self, rng, n, max_terms):
        observables = [random_observable(n, rng, max_terms=max_terms) for _ in range(3)]
        for o, check in zip(observables, verify_identities(observables, n)):
            assert (check.lemma1_lhs, check.diag_sum) == _pairwise_double_sums(o)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_double_sums_of_every_single_string(self, n):
        strings = list(pauli_strings(n))
        observables = [ObservableInAlgebra.from_terms(n, {p: 0.5}) for p in strings]
        for p, o, check in zip(strings, observables, verify_identities(observables, n)):
            assert (check.lemma1_lhs, check.diag_sum) == _pairwise_double_sums(o), p

    @pytest.mark.parametrize("short", ["basis", "count"])
    def test_sums_on_a_short_basis_raise(self, monkeypatch, short):
        """With c from the full basis, a basis one string short must fail.

        ``basis``: every sum reads the basis without its last string;
        ``count``: only the outer count does, so a count that assumed the
        full basis instead of reading it would pass.
        """
        o = ObservableInAlgebra.single(P("XIZ"))
        casimir_constant(3)  # cached from the full basis
        verify_identities([o], 3)
        if short == "basis":
            bx, bz = theory._basis_masks(3)
            monkeypatch.setattr(theory, "_basis_masks", lambda n: (bx[:-1], bz[:-1]))
        else:
            real = theory.anticommuting_counts
            monkeypatch.setattr(
                theory, "anticommuting_counts", lambda x, z, n: real(x[:-1], z[:-1], n)
            )
        with pytest.raises(TheoryVerificationError, match="double sum"):
            verify_identities([o], 3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_casimir_matches_per_pair_reference(self, n):
        assert theory.casimir_constant.__wrapped__(n) == _reference_casimir(n)

    def test_casimir_on_a_short_basis_count_raises(self, monkeypatch):
        """Counts from a basis one string short differ across the basis."""
        real = theory.anticommuting_counts
        monkeypatch.setattr(
            theory, "anticommuting_counts", lambda x, z, n: real(x[:-1], z[:-1], n)
        )
        with pytest.raises(TheoryVerificationError, match="varies"):
            theory.casimir_constant.__wrapped__(3)

    def test_casimir_on_a_zero_count_raises(self, monkeypatch):
        monkeypatch.setattr(
            theory, "anticommuting_counts",
            lambda x, z, n: np.zeros(4**n, dtype=np.int64),
        )
        with pytest.raises(TheoryVerificationError, match="non-positive"):
            theory.casimir_constant.__wrapped__(3)

    def test_full_basis_sums_stay_in_blocks(self, rng):
        """The sums build no (term, basis string) table, blocked or whole.

        A full-basis observable at n = 6 has 4095 terms; a table over 64 of
        them at a time, as the sums once built, peaked near 7 MiB.  The two
        transforms hold 4^6 words each (32 KiB).
        """
        o = random_observable(6, rng)
        theory._basis_masks(6)  # cached, so the trace sees only the sums
        tracemalloc.start()
        try:
            sums = self._sums(o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sums[0] == pytest.approx(casimir_constant(6), rel=1e-12)
        assert sums[1] == pytest.approx(casimir_constant(6) ** 2, rel=1e-12)
        assert peak < 2**20

    def test_sums_peak_within_the_bytes_they_ask_for(self, monkeypatch):
        """From cold caches, the sums over three full-basis observables drawn
        one at a time peak at or under the bytes the basis asks the guard for."""
        asked = []
        monkeypatch.setattr(theory, "check_bytes", lambda what, nbytes: asked.append(nbytes))
        theory._basis_masks.cache_clear()
        theory.casimir_constant.cache_clear()
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            theory.verify_identities((random_observable(7, rng) for _ in range(3)), 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert asked == [128 * 4**7] + [8 * 4**7] * 3
        assert 13 * 8 * 4**7 < peak <= asked[0]


class TestCasimirConstant:
    def test_n1_is_exactly_four(self):
        assert casimir_constant(1) == pytest.approx(4.0, abs=1e-12)

    def test_measured_matches_dense_application(self):
        """Apply sum_j ad^2 to dense basis elements and read off the constant."""
        for n in (1, 2):
            basis = _dense_basis(n)
            c = casimir_constant(n)
            for target in basis[:5]:
                acc = np.zeros_like(target)
                for g in basis:
                    acc = acc + dense_commutator(g, dense_commutator(g, target))
                assert np.allclose(acc, c * target, atol=1e-10)

    def test_closed_form_cross_check(self):
        """The measured constant agrees with 2d for the dimensions tested."""
        for n in (1, 2, 3):
            assert casimir_constant(n) == pytest.approx(2.0 * 2**n, rel=1e-12)

    def test_positive(self):
        assert casimir_constant(2) > 0

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_equals_2d_beyond_the_dense_sizes(self, n):
        assert theory.casimir_constant.__wrapped__(n) == 2 ** (n + 1)


class TestTheorem1:
    def test_single_z_at_n1(self):
        result = _check(ObservableInAlgebra.single(P("Z")))
        assert result.thm1_lhs == pytest.approx(4.0, abs=1e-12)
        assert result.thm1_rhs == pytest.approx(4.0, abs=1e-12)

    def test_zero_observable(self):
        result = _check(ObservableInAlgebra(1, np.zeros(3)))
        assert result.thm1_lhs == 0.0
        assert result.thm1_rhs == 0.0

    def test_random_unit_observables_match_identity(self, rng):
        for n in (1, 2):
            for _ in range(20):
                o = random_observable(n, rng)
                result = _check(o)
                assert abs(result.thm1_lhs - result.thm1_rhs) <= 1e-9 * max(
                    1.0, result.thm1_rhs
                )

    def test_symbolic_matches_dense(self, rng):
        for n in (1, 2):
            for _ in range(5):
                o = random_observable(n, rng)
                dense_lhs, _, _ = _dense_sums(o)
                assert _check(o).thm1_lhs == pytest.approx(dense_lhs, rel=1e-9)


class TestLemma1:
    def test_unit_norm_at_n1(self):
        result = _check(ObservableInAlgebra.single(P("Z")))
        assert result.lemma1_lhs == pytest.approx(16.0, abs=1e-12)
        assert result.lemma1_rhs == pytest.approx(16.0, abs=1e-12)

    def test_zero_observable(self):
        result = _check(ObservableInAlgebra(1, np.zeros(3)))
        assert result.lemma1_lhs == result.lemma1_rhs == 0.0

    def test_random_observables_match_identity_and_dense(self, rng):
        for n in (1, 2):
            for _ in range(5):
                o = random_observable(n, rng)
                result = _check(o)
                assert abs(result.lemma1_lhs - result.lemma1_rhs) <= 1e-8 * max(
                    1.0, result.lemma1_rhs
                )
                _, dense_total, _ = _dense_sums(o)
                assert result.lemma1_lhs == pytest.approx(dense_total, rel=1e-9)

    def test_n3_symbolic_vs_dense(self, rng):
        o = random_observable(3, rng)
        _, dense_total, _ = _dense_sums(o)
        assert _check(o).lemma1_lhs == pytest.approx(dense_total, rel=1e-8)


class TestLemma2Theorem2:
    def test_single_z_at_n1(self):
        result = _check(ObservableInAlgebra.single(P("Z")))
        assert result.diag_sum + result.offdiag_sum == pytest.approx(16.0)
        assert result.lower_bound == pytest.approx(16.0 / 3.0)
        assert result.upper_bound == pytest.approx(32.0 / 3.0)
        assert result.diag_sum >= result.lower_bound - 1e-10
        assert result.offdiag_sum <= result.upper_bound + 1e-10

    def test_single_basis_element(self, rng):
        for n in (1, 2):
            basis = list(ObservableInAlgebra(n, np.eye(4**n - 1)[0]).terms())
            o = ObservableInAlgebra.single(basis[0][0])
            result = _check(o)
            assert result.diag_sum >= result.lower_bound - 1e-10
            assert result.offdiag_sum <= result.upper_bound + 1e-10

    def test_zero_observable(self):
        result = _check(ObservableInAlgebra(2, np.zeros(15)))
        assert result.diag_sum == result.offdiag_sum == 0.0
        assert result.lower_bound == result.upper_bound == 0.0
        assert result.lemma1_lhs == result.lemma1_rhs == 0.0
        assert result.max_rel_err == 0.0

    def test_carries_lemma1_sides(self, rng):
        """One call's rows are the rows of one call per observable, and each
        carries the whole double sum and c^2 ||O||^2 beside its split."""
        for n in (1, 2, 3):
            observables = [random_observable(n, rng) for _ in range(3)]
            checks = verify_identities(observables, n)
            assert checks == [_check(o) for o in observables]
            c = casimir_constant(n)
            for o, check in zip(observables, checks):
                assert check.lemma1_lhs == _pairwise_double_sums(o)[0]
                assert check.lemma1_rhs == c * c * o.norm_sq()
                assert check.offdiag_sum == check.lemma1_lhs - check.diag_sum

    def test_split_matches_dense(self, rng):
        for n in (1, 2):
            o = random_observable(n, rng)
            result = _check(o)
            _, dense_total, dense_diag = _dense_sums(o)
            assert result.diag_sum == pytest.approx(dense_diag, rel=1e-9)
            assert result.offdiag_sum == pytest.approx(
                dense_total - dense_diag, rel=1e-9
            )


class TestVerifyIdentities:
    def test_fields_are_the_verify_theory_columns(self):
        assert IdentityCheck._fields == (
            "n", "d", "c_measured", "thm1_lhs", "thm1_rhs", "lemma1_lhs", "lemma1_rhs",
            "diag_sum", "offdiag_sum", "lower_bound", "upper_bound", "max_rel_err",
        )

    def test_row_of_one_observable(self):
        """n = 1, O = Z: c = 4, d^2 = 4, ||O||^2 = 1."""
        check = _check(ObservableInAlgebra.single(P("Z")))
        assert check == (1, 2, 4.0, 4.0, 4.0, 16.0, 16.0, 8.0, 8.0, 16 / 3, 32 / 3, 0.0)
        assert verify_identities([], 1) == []

    def test_observable_of_another_width_refused(self):
        o = ObservableInAlgebra.single(P("ZI"))
        with pytest.raises(ValueError) as info:
            verify_identities([ObservableInAlgebra.single(P("ZIX")), o], 3)
        assert str(info.value) == "qubit-count mismatch: observable on 2 qubits vs n=3"

    @pytest.mark.parametrize(
        "factor, message",
        [(3.0, "^diagonal sum"), (0.5, "^off-diagonal sum"), (1 + 1e-8, "^double sum")],
    )
    def test_each_check_raises(self, monkeypatch, factor, message):
        """A Casimir constant off by ``factor`` moves c^2 ||O||^2 and both
        bounds away from the counted sums; within REL_TOL, nothing raises."""
        o = ObservableInAlgebra.single(P("XIZ"))
        c = casimir_constant(3)
        monkeypatch.setattr(theory, "casimir_constant", lambda n: c * (1 + 1e-9))
        (check,) = verify_identities([o], 3)
        assert check.max_rel_err == pytest.approx(2e-9, rel=1e-3)
        monkeypatch.setattr(theory, "casimir_constant", lambda n: c * factor)
        with pytest.raises(TheoryVerificationError, match=message):
            verify_identities([o], 3)


class TestScaling:
    def test_quadratic_homogeneity(self, rng):
        o = random_observable(2, rng)
        for lam in (0.5, 2.0, -3.0):
            scaled = _check(ObservableInAlgebra(2, lam * o.coeffs))
            assert scaled.thm1_lhs == pytest.approx(
                lam * lam * _check(o).thm1_lhs, rel=1e-12
            )
            assert scaled.lemma1_lhs == pytest.approx(
                lam * lam * _check(o).lemma1_lhs, rel=1e-12
            )


class TestGPurity:
    def test_observable_in_span(self):
        o = ObservableInAlgebra(1, np.array([0.6, 0.8, 0.0]))
        assert g_purity(o, list(pauli_strings(1))) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_observable(self):
        # span of Z only; X is orthogonal to it
        o = ObservableInAlgebra.single(P("X"))
        assert g_purity(o, [P("Z")]) == 0.0

    def test_unnormalized_two_qubit_example(self):
        o = ObservableInAlgebra.from_terms(2, {P("ZI"): 2.0})  # ZI itself: norm^2 4
        assert g_purity(o, list(pauli_strings(2))) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_projection(self, rng, n):
        strings = list(pauli_strings(n))
        for _ in range(30):
            o = random_observable(n, rng, max_terms=int(rng.integers(1, 8)))
            size = int(rng.integers(0, len(strings) + 1))
            subset = [strings[m] for m in rng.choice(len(strings), size, replace=False)]
            want = dense_projection_sq(_dense_observable(o), [p.label for p in subset])
            assert abs(g_purity(o, subset) - want) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_basis_gives_norm_and_disjoint_set_zero(self, rng, n):
        unit = random_observable(n, rng, max_terms=4)
        o = ObservableInAlgebra(n, 2.5 * unit.coeffs)
        assert g_purity(o, list(pauli_strings(n))) == pytest.approx(
            o.norm_sq(), rel=1e-12
        )
        held = {p for p, _ in o.terms()}
        assert g_purity(o, [p for p in pauli_strings(n) if p not in held]) == 0.0
        assert g_purity(o, []) == 0.0

    @pytest.mark.parametrize(
        "basis, message",
        [
            (["ZI", "II"], "identity has no component in the traceless basis"),
            (["ZI", "Z"], "qubit-count mismatch: 1 vs n=2 for Z"),
            (["ZI", "XY", "ZI"], "basis strings must be distinct"),
        ],
    )
    def test_refusals_are_one_line(self, basis, message):
        o = ObservableInAlgebra.single(P("ZI"))
        with pytest.raises(ValueError) as info:
            g_purity(o, [P(label) for label in basis])
        assert str(info.value) == message


class TestObservableInAlgebra:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            ObservableInAlgebra(2, np.zeros(3))

    def test_identity_term_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            ObservableInAlgebra.from_terms(1, {P("I"): 1.0})

    def test_qubit_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="qubit-count mismatch: 1 vs n=2"):
            ObservableInAlgebra.from_terms(2, {P("Z"): 1.0})
        with pytest.raises(ValueError, match="qubit-count mismatch: 2 vs n=1"):
            ObservableInAlgebra.from_terms(1, {P("ZX"): 1.0})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_terms_follow_the_listing(self, rng, n):
        """from_terms places each string at its position in pauli_strings."""
        strings = list(pauli_strings(n))
        for _ in range(20):
            size = int(rng.integers(1, min(len(strings), 6) + 1))
            picks = rng.choice(len(strings), size=size, replace=False)
            weights = rng.standard_normal(size)
            o = ObservableInAlgebra.from_terms(
                n, {strings[m]: w for m, w in zip(picks, weights)}
            )
            expected = np.zeros(len(strings))
            expected[picks] = weights
            assert np.array_equal(o.coeffs, expected)
            assert o.terms() == [
                (strings[m], float(expected[m])) for m in sorted(picks)
            ]

    def test_single_lists_no_strings(self, monkeypatch):
        def no_listing(*args, **kwargs):
            raise AssertionError("the observable listed the strings")

        monkeypatch.setattr(pauli, "pauli_strings", no_listing)
        monkeypatch.setattr(theory, "pauli_strings", no_listing, raising=False)
        p = P("XYZIZYXI")
        assert ObservableInAlgebra.single(p).terms() == [(p, 1.0)]

    def test_norm_and_terms(self):
        o = ObservableInAlgebra.from_terms(1, {P("Z"): 0.6, P("X"): 0.8})
        assert o.norm_sq() == pytest.approx(1.0)
        assert dict((p.label, w) for p, w in o.terms()) == {"Z": 0.6, "X": 0.8}
