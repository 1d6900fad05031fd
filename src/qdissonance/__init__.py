"""Quantum dissonance from classical correlations.

Construct separable Werner states, decompose them into product
components, generate them from classically correlated inputs via local
Kraus channels or local unitaries, and certify the nonzero quantum
discord of the result with entropic measures and correlation-matrix
witnesses.
"""

__version__ = "0.1.0"

from .qla import (
    DensityMatrix,
    DomainError,
    PureState,
    partial_trace,
    permute_legs,
    projector,
    tensor,
    trace_distance,
)
from .states import (
    PhaseSolution,
    ProductDecomposition,
    PureFactorization,
    bell,
    cc_pairs,
    cc_state,
    cq_state,
    eta_states,
    explicit_factors_z13,
    factor_pure,
    phase_equation_residual,
    product_decomposition,
    solve_phases,
    werner,
)
from .correlations import (
    CorrelationReport,
    Measurement,
    classical_correlation,
    concurrence,
    conditional_entropy_after,
    discord,
    entropy,
    geometric_discord,
    negativity,
    qubit_measurement,
    total_correlation,
)
from .witness import (
    OperatorBasis,
    WitnessReport,
    commutator_test,
    correlation_matrix,
    decompose_sf,
    pauli_basis,
    rank_witness,
    witness_report,
)
from .protocols import (
    CertificationBundle,
    KrausChannel,
    LocalUnitary,
    ProtocolResult,
    ProtocolUnavailableError,
    build_kraus,
    build_unitary,
    certify,
    conditional_block,
    run_kraus_protocol,
    run_unitary_protocol,
)
from .statefile import (
    FORMAT_VERSION,
    StateFileError,
    dumps_state,
    load_state,
    loads_state,
    save_state,
)

__all__ = [
    "__version__",
    # qla
    "DensityMatrix", "DomainError", "PureState", "partial_trace", "permute_legs",
    "projector", "tensor", "trace_distance",
    # states
    "PhaseSolution", "ProductDecomposition", "PureFactorization", "bell", "cc_pairs",
    "cc_state", "cq_state", "eta_states", "explicit_factors_z13", "factor_pure",
    "phase_equation_residual", "product_decomposition", "solve_phases", "werner",
    # correlations
    "CorrelationReport", "Measurement", "classical_correlation", "concurrence",
    "conditional_entropy_after", "discord", "entropy", "geometric_discord",
    "negativity", "qubit_measurement", "total_correlation",
    # witness
    "OperatorBasis", "WitnessReport", "commutator_test", "correlation_matrix",
    "decompose_sf", "pauli_basis", "rank_witness", "witness_report",
    # protocols
    "CertificationBundle", "KrausChannel", "LocalUnitary", "ProtocolResult",
    "ProtocolUnavailableError", "build_kraus", "build_unitary", "certify",
    "conditional_block", "run_kraus_protocol", "run_unitary_protocol",
    # statefile
    "FORMAT_VERSION", "StateFileError", "dumps_state", "load_state", "loads_state",
    "save_state",
]
