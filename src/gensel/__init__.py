"""Observable-guided generator selection for Pauli-string parameterized circuits.

The package selects circuit generators from an n-qubit Pauli-string pool so
that every generator anticommutes with the observable (keeping first-order
sensitivity large) while mutually anticommuting with each other (suppressing
second-order interference between parameters), trains the resulting circuits
on a synthetic regression task with SPSA, and numerically verifies the
Casimir-based commutator-sum identities behind the selection criteria.
"""

from .pauli import (
    PauliString,
    ScaledPauli,
    commutator,
    commutator_norm_sq,
    commutes,
    double_commutator_norm_sq,
    multiply,
    pauli_string_at,
    pauli_strings,
)
from .selection import (
    SelectionMetrics,
    SelectionProblem,
    SelectionResult,
    evaluate_selection,
    select_for_method,
    solve_exact,
    solve_genetic,
    solve_greedy,
)
from .simulator import (
    CircuitModel,
    StateVector,
    apply_pauli_rotation,
    apply_ry_encoding,
    compile_circuit,
    expectation,
    run_model,
    run_model_batch,
    stack_circuits,
    state_overlaps,
)
from .optimizer import (
    SpsaConfig,
    TrialRecord,
    rmse_cost,
    train,
    train_batch,
)
from .theory import (
    IdentityCheck,
    ObservableInAlgebra,
    TheoryVerificationError,
    casimir_constant,
    g_purity,
    verify_identities,
)
from .experiments import (
    DatasetSpec,
    ExperimentReport,
    ExpressibilityConfig,
    MethodSummary,
    derive_seed,
    expressibility_hellinger,
    generate_dataset,
    haar_bin_probs,
    hellinger_distance,
    run_comparison,
    summarize,
    two_sample_t_test,
)

__version__ = "0.1.0"
