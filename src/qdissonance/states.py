"""State constructors.

Classically correlated (CC/CQ) states, Bell states, the Werner family,
and the explicit separable product decomposition of Werner states for
mixing parameters z in [0, 1/3]: four unnormalized components eta_j
(norm 1/2 each) that sum to the Werner state and factor into qubit
pairs (Psi_j, Phi_j) once the relative phases are chosen correctly.

CC and CQ states are both sum_i |a_i><a_i| x T_i, built by one
contraction over a basis matrix (columns a_i) and a stack of weighted
B blocks T_i.  The Bell vectors are one read-only table that ``bell``,
``werner`` and the components read, and the components are one matrix
product of phased sign patterns with the weighted Bell vectors.  The four
components are factored together, by one SVD of their (4, 2, 2) stack of
coefficient matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qla import (
    ISOMETRY_TOL, PHASE_EQ_TOL, PHASE_REF_CUTOFF, PRODUCT_RECONSTRUCTION_TOL, TRACE_TOL,
    DensityMatrix, DomainError, PureState, _as_index, _hermitian, _isometry_error,
)

__all__ = [
    "PhaseSolution",
    "ProductDecomposition",
    "cc_state",
    "cq_state",
    "bell",
    "werner",
    "solve_phases",
    "phase_equation_residual",
    "eta_states",
    "product_decomposition",
    "cc_pairs",
]

_BELL_NAMES = ("psi+", "psi-", "phi+", "phi-")
# The four Bell vectors, one row each in _BELL_NAMES order.
_BELL = np.array([[0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1], [1, 0, 0, -1]], dtype=complex)
_BELL /= np.sqrt(2.0)
_BELL.setflags(write=False)
# |psi-><psi-|, the entangled part of every Werner state
_SINGLET = np.outer(_BELL[1], _BELL[1].conj())
_SINGLET.setflags(write=False)


def _basis(vecs, d: int, name: str) -> np.ndarray:
    """The basis ``vecs`` as the columns of a (d, d) matrix; the computational one for None."""
    if vecs is None:
        return np.eye(d, dtype=complex)
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vecs]
    if len(vecs) != d or any(v.shape != (d,) for v in vecs):
        raise DomainError(f"{name}: expected {d} vectors of dimension {d}")
    a = np.stack(vecs, axis=1)
    if not _isometry_error(a) <= ISOMETRY_TOL:
        raise DomainError(f"{name}: vectors are not orthonormal")
    return a


def _check_probabilities(p: np.ndarray, op: str) -> None:
    """A nonempty, finite, nonnegative table summing to 1: the unit trace of the state built from it."""
    if p.size == 0:
        raise DomainError(f"{op}: probability table is empty")
    if not np.isfinite(p).all():
        raise DomainError(f"{op}: probability table has non-finite entries")
    if p.min() < 0:
        raise DomainError(f"{op}: negative probability {p.min():.3e}")
    if not abs(p.sum() - 1.0) <= TRACE_TOL:
        raise DomainError(f"{op}: probabilities sum to {p.sum():.15g}, expected 1")


def cc_state(p, basis_a=None, basis_b=None) -> DensityMatrix:
    """Classical-classical state sum_ij p_ij |a_i><a_i| x |b_j><b_j|.

    ``p`` is a d_A x d_B probability table (nonnegative, summing to 1);
    the bases default to the computational ones.  CC states have zero
    discord with respect to either side.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise DomainError(f"cc_state: probability table must be 2-D, got shape {p.shape}")
    _check_probabilities(p, "cc_state")
    da, db = p.shape
    a = _basis(basis_a, da, "basis_a")
    b = _basis(basis_b, db, "basis_b")
    return _classical_on_a(a, np.einsum("ij,kj,lj->ikl", p, b, b.conj()))


def cq_state(p, basis_a, states_b: Sequence[DensityMatrix]) -> DensityMatrix:
    """Classical-quantum state sum_i p_i |a_i><a_i| x rho_B^(i).

    Orthonormal on the A side, arbitrary density matrices on the B
    side; zero discord with respect to measurements on A.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    _check_probabilities(p, "cq_state")
    da = p.shape[0]
    a = _basis(basis_a, da, "basis_a")
    if len(states_b) != da:
        raise DomainError(f"cq_state: need {da} B-side states, got {len(states_b)}")
    if not all(isinstance(s, DensityMatrix) for s in states_b):
        raise DomainError("cq_state: states_b must be DensityMatrix instances")
    db = states_b[0].dim
    if any(s.dim != db for s in states_b):
        raise DomainError("cq_state: B-side states differ in dimension")
    return _classical_on_a(a, p[:, None, None] * np.stack([s.matrix for s in states_b]))


def _classical_on_a(a: np.ndarray, t: np.ndarray) -> DensityMatrix:
    """sum_i |a_i><a_i| x t_i: one contraction over the basis matrix ``a`` (columns a_i)
    and the (d_A, d_B, d_B) stack ``t`` of weighted B blocks."""
    da, db = t.shape[:2]
    rho = np.einsum("im,jm,mkl->ikjl", a, a.conj(), t).reshape(da * db, da * db)
    return DensityMatrix(rho, (da, db))


def bell(which: str) -> PureState:
    """One of the four Bell states: 'psi+', 'psi-', 'phi+', 'phi-'."""
    key = which.lower()
    if key not in _BELL_NAMES:
        raise DomainError(f"unknown Bell state {which!r}; choose from {_BELL_NAMES}")
    return PureState(_BELL[_BELL_NAMES.index(key)], (2, 2))


def werner(z: float) -> DensityMatrix:
    """Werner state z |psi-><psi-| + (1-z)/4 * I, for z in [0, 1]."""
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"werner: z must lie in [0, 1], got {z}")
    m, lam = _werner_stack(np.array([z]))
    return DensityMatrix._made(m[0], (2, 2), lam[0])


def _werner_stack(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (N, 4, 4) and spectra (N, 4) of werner(z) for a 1-D array of z in [0, 1]."""
    m = _werner_matrices(z)
    return m, np.linalg.eigvalsh(m)


def _werner_matrices(z: np.ndarray) -> np.ndarray:
    """Matrices (N, 4, 4) of werner(z), bit for bit ``werner``'s, without their spectra."""
    z = z[:, None, None]
    return _hermitian(z * _SINGLET + (1.0 - z) / 4.0 * np.eye(4))


def phase_equation_residual(thetas: Sequence[float], z: float) -> float:
    """|e^{-2i t1}(1+3z) + (e^{-2i t2}+e^{-2i t3}+e^{-2i t4})(1-z)|."""
    t1, t2, t3, t4 = (float(t) for t in thetas)
    val = np.exp(-2j * t1) * (1.0 + 3.0 * z) + (
        np.exp(-2j * t2) + np.exp(-2j * t3) + np.exp(-2j * t4)
    ) * (1.0 - z)
    return float(abs(val))


@dataclass(frozen=True)
class PhaseSolution:
    """Relative phases making all four decomposition components product states.

    The four angles ``thetas = (t1, t2, t3, t4)`` satisfy
    ``|e^{-2i t1}(1+3z) + (e^{-2i t2}+e^{-2i t3}+e^{-2i t4})(1-z)| <= 1e-10``.
    """

    z: float
    thetas: tuple[float, float, float, float]

    def __post_init__(self):
        res = self.residual()
        if not res <= PHASE_EQ_TOL:
            raise DomainError(f"phase equation residual {res:.3e} exceeds {PHASE_EQ_TOL}")

    def residual(self) -> float:
        return phase_equation_residual(self.thetas, self.z)


def _decomposable_z(z: float, op: str) -> float:
    """``z`` as a float, +0.0 for -0.0; DomainError naming ``op`` unless it lies in [0, 1/3]."""
    z = float(z) + 0.0  # -0.0 + 0.0 is +0.0
    if not 0.0 <= z <= 1.0 / 3.0:
        raise DomainError(f"{op}: z must lie in [0, 1/3], got {z}")
    return z


def solve_phases(z: float) -> PhaseSolution:
    """Canonical phase branch: t1 = 0, t2 = pi/2, t3 in [pi/4, pi/2],
    t4 the reflection with cos(t4) = -cos(t3) and the same positive sine.
    """
    z = _decomposable_z(z, "solve_phases")
    s = np.sqrt((1.0 + z) / (2.0 * (1.0 - z)))
    c = np.sqrt((1.0 - 3.0 * z) / (2.0 * (1.0 - z)))
    return PhaseSolution(
        z=z, thetas=(0.0, np.pi / 2.0, float(np.arctan2(s, c)), float(np.arctan2(s, -c)))
    )


# Sign patterns attaching the four phased Bell-like vectors to each
# component; row j gives the signs used in eta_j.
_ETA_SIGNS = np.array([
    (1, 1, 1, 1),
    (1, 1, -1, -1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
])


def _x_vectors(z: float) -> np.ndarray:
    """The four weighted Bell vectors the components are built from, one per row."""
    a, b = np.sqrt(1.0 + 3.0 * z), np.sqrt(1.0 - z)
    weights = np.array([a / 2j, b / 2.0, b / 2.0, b / 2j])
    return weights[:, None] * _BELL[[1, 0, 3, 2]]  # psi-, psi+, phi-, phi+


def eta_states(z: float) -> tuple[PureState, PureState, PureState, PureState]:
    """The four unnormalized mixture components of the separable Werner state.

    Each has squared norm 1/4, mutual overlaps z/4, and the four outer
    products sum to ``werner(z)``.  With the canonical phases every
    component is a product state (norm-1/2 multiple of a qubit pair).
    """
    return _eta_states(solve_phases(_decomposable_z(z, "eta_states")))


def _eta_states(solution: PhaseSolution) -> tuple[PureState, PureState, PureState, PureState]:
    """``eta_states`` from an already solved phase equation."""
    etas = (_ETA_SIGNS * np.exp(1j * np.array(solution.thetas))) @ _x_vectors(solution.z) / 2.0
    return tuple(PureState._made(v, (2, 2), normalized=False) for v in etas)


@dataclass(frozen=True, eq=False)
class ProductDecomposition:
    """Separable Werner state written as a sum of four product components.

    ``etas[j]`` equals ``1/2 * e^{i phases[j]} * factors[j][0] x factors[j][1]``;
    the outer products of the etas sum to ``werner(z)`` up to
    ``reconstruction_error`` (max abs entry of the difference).
    ``solution`` holds the relative phases the etas were built from.
    """

    z: float
    solution: PhaseSolution
    etas: tuple[PureState, ...]
    factors: tuple[tuple[PureState, PureState], ...]
    phases: tuple[float, ...]
    reconstruction_error: float


def _factor_products(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Qubit factors and phases of a stack (N, 2, 2) of unit two-qubit vectors, by one SVD.

    Returns the factors, shape (2, N, 2) with the left ones first, and the
    phases (N,): m[k] is e^{i phases[k]} left[k] x right[k] up to its second
    Schmidt coefficient (0 for a product state).  Each factor is divided by
    the unit phase of its first amplitude above PHASE_REF_CUTOFF, which
    leaves that amplitude real-positive.

    Every value rounds as numpy's scalar arithmetic on one row does, so a
    row's result does not depend on the stack it is in: moduli come from
    np.hypot, not from np.abs of complex arrays, and the phase product
    (s0 + 0i) ph_l ph_r is written in real parts, zero terms included, not
    as the array complex product (both have SIMD kernels that round
    differently).
    """
    u, s, vh = np.linalg.svd(m)
    f = np.stack([u[:, :, 0], vh[:, 0, :]])
    mod = np.hypot(f.real, f.imag)
    ref = np.argmax(mod > PHASE_REF_CUTOFF, axis=2)[:, :, None]
    ph = np.take_along_axis(f, ref, 2) / np.take_along_axis(mod, ref, 2)
    # s0 carries the norm; the remaining unit phase is what the two
    # canonicalizations stripped from the rank-1 term s0 u0 x v0.
    (lr, rr), (li, ri) = ph[:, :, 0].real, ph[:, :, 0].imag
    a, b = s[:, 0] * lr - 0.0 * li, s[:, 0] * li + 0.0 * lr
    return f / ph, np.arctan2(a * ri + b * rr, a * rr - b * ri)


def product_decomposition(z: float) -> ProductDecomposition:
    """Decompose werner(z), z in [0, 1/3], into four product components.

    Solves the phase constraint, builds the components, factors all four
    in one pass over their stack, and checks each factor pair and the
    whole reconstruction before returning.
    """
    z = _decomposable_z(z, "product_decomposition")
    solution = solve_phases(z)
    etas = _eta_states(solution)
    v = np.stack([eta.vector for eta in etas])
    # eta.norm() per component: np.linalg.norm(v, axis=1) rounds differently
    nrm = np.array([eta.norm() for eta in etas])
    f, phases = _factor_products((v / nrm[:, None]).reshape(4, 2, 2))
    pairs = (nrm * np.exp(1j * phases))[:, None, None] * f[0, :, :, None] * f[1, :, None, :]
    if not np.abs(pairs.reshape(4, 4) - v).max() <= PRODUCT_RECONSTRUCTION_TOL:
        raise DomainError("factorization does not reproduce its component")
    recon = (v[:, :, None] * v[:, None, :].conj()).sum(axis=0)
    err = float(np.abs(recon - _werner_matrices(np.array([z]))[0]).max())
    if not err <= PRODUCT_RECONSTRUCTION_TOL:
        raise DomainError(f"decomposition reconstruction error {err:.3e}")
    return ProductDecomposition(
        z=z,
        solution=solution,
        etas=etas,
        factors=tuple(
            (PureState._made(left, (2,)), PureState._made(right, (2,))) for left, right in zip(*f)
        ),
        phases=tuple(phases.tolist()),
        reconstruction_error=err,
    )


def cc_pairs(k: int) -> DensityMatrix:
    """k perfectly correlated qubit pairs, legs ordered [A_1..A_k, B_1..B_k].

    Each (A_j, B_j) pair is the uniform CC state; pairs are mutually
    uncorrelated.  Rank 2^k, purity 2^-k.
    """
    if _as_index(k, "cc_pairs: k") not in (2, 3):
        raise DomainError(f"cc_pairs: k must be 2 or 3, got {k}")
    d = 2**k
    # column a is |a>_A |a>_B, at index a * d + a of the all-A-then-all-B order
    f = np.zeros((1, d * d, d))
    f[0, np.arange(d) * (d + 1), np.arange(d)] = 1.0
    return DensityMatrix.from_factor(f, (2,) * (2 * k), 1.0 / d)
