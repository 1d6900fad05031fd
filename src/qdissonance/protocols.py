"""Local-operation protocols that turn classical correlations into dissonance.

Two pipelines, both starting from perfectly classically correlated
qubit pairs and ending in a separable Werner state with nonzero
discord:

* the two-pair Kraus protocol: correlated local channels on each side
  map the computational pair basis to flag-qubit x factor-state
  outputs, and tracing out the first pair leaves werner(z) for any
  z in (0, 1/3];
* the three-pair unitary protocol: controlled-preparation unitaries
  (8x8 per side) write the factor states onto the third pair, which
  works exactly when each component's two factors are orthogonal —
  only at z = 1/3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qla import (
    ISOMETRY_TOL, ORTHOGONALITY_TOL, PROB_CUTOFF, DensityMatrix, DomainError, _as_index,
    _isometry_error, partial_trace, trace_distance,
)
from .states import cc_pairs, product_decomposition, werner
from .correlations import DEFAULT_GRID, CorrelationReport, _measured_parts, _reports
from .witness import WitnessReport, _witness_reports

__all__ = [
    "ProtocolUnavailableError",
    "KrausChannel",
    "LocalUnitary",
    "ProtocolResult",
    "CertificationBundle",
    "build_kraus",
    "run_kraus_protocol",
    "build_unitary",
    "run_unitary_protocol",
    "conditional_block",
    "certify",
]

# Flag bit written to the first qubit by the i-th operator of either side.
_FLAGS = (0, 0, 1, 1)


class ProtocolUnavailableError(RuntimeError):
    """The unitary protocol's orthogonality precondition fails at this z."""

    def __init__(self, z: float, residual: float):
        super().__init__(
            f"unitary protocol unavailable at z={z:.6g}: "
            f"factor overlap {residual:.3e} exceeds {ORTHOGONALITY_TOL}"
        )
        self.z = z
        self.residual = residual


def _check_side(side: str) -> None:
    if side not in ("A", "B"):
        raise DomainError(f"side must be 'A' or 'B', got {side!r}")


def _check_z(z: float, op: str) -> float:
    z = float(z)
    if not 0.0 < z <= 1.0 / 3.0:
        raise DomainError(f"{op}: z must lie in (0, 1/3], got {z}")
    return z


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Four operators on one side's qubit pair, complete to 1e-10."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(m, dtype=complex) for m in self.operators)
        # sum_i K_i^dagger K_i = I says the stacked operators form an isometry
        err = _isometry_error(np.vstack(ops))
        if not err <= ISOMETRY_TOL:
            raise DomainError(f"Kraus completeness violated by {err:.3e}")
        object.__setattr__(self, "operators", ops)


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """Controlled-preparation unitary on one side's three qubits."""

    matrix: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=complex)
        err = max(_isometry_error(u), _isometry_error(u.conj().T))
        if not err <= ISOMETRY_TOL:
            raise DomainError(f"unitarity violated by {err:.3e}")
        object.__setattr__(self, "matrix", u)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Input, intermediate, and traced-out states of one protocol run."""

    kind: str
    z: float
    initial: DensityMatrix
    post_operation: DensityMatrix
    final: DensityMatrix
    trace_distance_to_target: float


@dataclass(frozen=True, eq=False)
class CertificationBundle:
    """Correlation measures and witness verdicts for a protocol's output."""

    correlations: CorrelationReport
    witness: WitnessReport


def build_kraus(side: str, z: float) -> KrausChannel:
    """Channel mapping pair-basis state |b_i> to |flag_i> x |factor_i>.

    The flag bits are (0, 0, 1, 1); the factor is the side's qubit from
    the i-th product component.  Each operator is the outer product of
    a unit output vector with a computational basis bra, so the
    completeness sum is exactly the identity.
    """
    z = _check_z(z, "build_kraus")
    _check_side(side)
    return _kraus(side, product_decomposition(z).factors)


def _kraus(side: str, pairs) -> KrausChannel:
    """``build_kraus`` from the decomposition's factor pairs, arguments already checked."""
    k = 0 if side == "A" else 1
    ops = np.zeros((4, 4, 4), dtype=complex)
    for i, (flag, pair) in enumerate(zip(_FLAGS, pairs)):
        # column i is |flag_i> x factor_i
        ops[i, 2 * flag : 2 * flag + 2, i] = pair[k].vector
    return KrausChannel(operators=tuple(ops))


def _run(kind: str, z: float, pairs: int, ops, discard) -> ProtocolResult:
    """The pipeline both protocols share: sum of (K_A x K_B) rho (K_A x K_B)^dagger.

    ``ops`` holds one (K_A, K_B) factor pair per term.  rho is
    cc_pairs(pairs), 1/d on each |a>_A |a>_B (d = 2^pairs per side) and
    0 elsewhere, so each term is W W^dagger / d, where column a of W is
    K_A|a> x K_B|a>; no d^2 x d^2 operator is formed, and
    ``DensityMatrix.from_factor`` takes the spectrum from the Ws.  The
    result keeps rho's legs, the ``discard`` legs are traced out, and
    what remains is compared with werner(z).
    """
    initial = cc_pairs(pairs)
    d = 2**pairs
    w = np.stack([(ka[:, None, :] * kb[None, :, :]).reshape(d * d, d) for ka, kb in ops])
    post_dm = DensityMatrix.from_factor(w, initial.legs, 1.0 / d)
    final = partial_trace(post_dm, discard)
    return ProtocolResult(
        kind=kind,
        z=z,
        initial=initial,
        post_operation=post_dm,
        final=final,
        trace_distance_to_target=trace_distance(final, werner(z)),
    )


def run_kraus_protocol(z: float) -> ProtocolResult:
    """Run the two-pair protocol: correlated Kraus sum, then trace the first pair.

    The output equals werner(z) up to numerical noise for every
    z in (0, 1/3].
    """
    z = _check_z(z, "run_kraus_protocol")
    pairs = product_decomposition(z).factors
    ops = list(zip(_kraus("A", pairs).operators, _kraus("B", pairs).operators))
    return _run("kraus", z, 2, ops, (0, 2))  # legs [A1, A2, B1, B2]


def build_unitary(side: str, z: float) -> LocalUnitary:
    """Controlled preparation |mn>|0> -> |mn>|first factor>, |mn>|1> -> |mn>|second>.

    On side A the first/second prepared states are the A/B factors of
    component 2m+n; side B swaps the two roles.  Unitarity requires the
    two factors of each component to be orthogonal, which holds only at
    z = 1/3; elsewhere ProtocolUnavailableError is raised.
    """
    z = _check_z(z, "build_unitary")
    _check_side(side)
    return _unitary(side, _orthogonal_pairs(z))


def _orthogonal_pairs(z: float):
    """The factor pairs of the decomposition at z; ProtocolUnavailableError unless orthogonal."""
    pairs = product_decomposition(z).factors
    worst = max(abs(np.vdot(left.vector, right.vector)) for left, right in pairs)
    if not worst <= ORTHOGONALITY_TOL:
        raise ProtocolUnavailableError(z, worst)
    return pairs


def _unitary(side: str, pairs) -> LocalUnitary:
    """``build_unitary`` from orthogonal factor pairs, arguments already checked.

    Control value k = 2m+n selects the 2x2 diagonal block k, whose
    columns are the states prepared from |0> and |1>.
    """
    u = np.zeros((8, 8), dtype=complex)
    for k, pair in enumerate(pairs):
        left, right = (v.vector for v in pair)
        if side == "B":
            left, right = right, left
        u[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = np.column_stack([left, right])
    return LocalUnitary(matrix=u)


def run_unitary_protocol(z: float) -> ProtocolResult:
    """Run the three-pair protocol: local unitaries, then trace the control pairs."""
    z = _check_z(z, "run_unitary_protocol")
    pairs = _orthogonal_pairs(z)
    ops = [(_unitary("A", pairs).matrix, _unitary("B", pairs).matrix)]
    return _run("unitary", z, 3, ops, (0, 1, 3, 4))  # legs [A1, A2, A3, B1, B2, B3]


def conditional_block(state: DensityMatrix, m: int, n: int) -> np.ndarray:
    """Normalized third-pair block after projecting both control pairs on |mn>.

    For the unitary protocol's intermediate state this is the uniform
    two-branch mixture (first x second + second x first)/2 of component
    2m+n's factor projectors.
    """
    if state.legs != (2, 2, 2, 2, 2, 2):
        raise DomainError(f"conditional_block expects six qubit legs, got {state.legs}")
    m, n = _as_index(m, "control label m"), _as_index(n, "control label n")
    if m not in (0, 1) or n not in (0, 1):
        raise DomainError(f"control labels must be bits, got ({m}, {n})")
    k = 2 * m + n
    # rows and columns split as (control pairs, third qubit) on each side
    block = state.matrix.reshape((4, 2, 4, 2) * 2)[k, :, k, :, k, :, k, :].reshape(4, 4)
    p = float(np.real(np.trace(block)))
    if p < PROB_CUTOFF:
        raise DomainError(f"control outcome ({m}, {n}) has vanishing probability")
    return block / p


def certify(result: ProtocolResult) -> CertificationBundle:
    """Measure the protocol output with ``discord`` and witness it with ``witness_report``."""
    rho = result.final
    if rho.legs != (2, 2):
        raise DomainError(f"certify needs a two-qubit output, got legs {rho.legs}")
    return _certifications(rho.matrix[None], rho.eigenvalues[None])[0]


def _certifications(m: np.ndarray, lam: np.ndarray) -> list[CertificationBundle]:
    """``certify`` of each two-qubit state in a stack (N, 4, 4) with spectra lam (N, 4).

    The correlation matrices R are built once: the discord pass reads
    them as the Bloch data 2 R of ``_measured_parts``, and the witness
    pass as those parts halved, which is R bit for bit.
    """
    parts = _measured_parts(m, (2, 2))
    reports = _reports(m, lam, parts, (2, 2), DEFAULT_GRID)
    witnesses = _witness_reports(parts / 2.0, m)
    return [CertificationBundle(correlations=c, witness=w) for c, w in zip(reports, witnesses)]
