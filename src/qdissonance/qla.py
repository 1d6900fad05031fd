"""Dense linear algebra for finite-dimensional quantum states.

Everything in this package runs through the two container types defined
here, which carry the tensor-leg structure (``legs``) needed for partial
traces.  A state is validated once, where it enters: ``DensityMatrix(...)``
and ``PureState(...)`` check their invariants.  A state made from
validated ones (``partial_trace``, ``tensor``, ``projector``, ``werner``,
``from_factor``) goes through ``DensityMatrix._made``, which keeps its
Hermitian part and checks nothing again; the components and factors of
``product_decomposition`` go through ``PureState._made`` likewise.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "DensityMatrix",
    "PureState",
    "projector",
    "tensor",
    "partial_trace",
    "trace_distance",
]

# Every numerical threshold of the package, one line each saying what it
# bounds.  *_TOL bounds a residual a check accepts, *_CUTOFF is a magnitude
# below which a quantity is treated as zero, *_FLOOR is a result reported
# as exactly 0 at or below it, *_CAP is a count a loop may not exceed,
# *_STEP is a fixed increment of a numerical method.  A check accepts a
# residual only when it is at most its *_TOL, written ``not x <= TOL``, so
# a NaN residual fails it.  The density-matrix tolerances bound what a
# state may bring in, so they are checked where it enters, never on a
# state made from validated ones.
HERMITICITY_TOL = 1e-12  # max|M - M^dagger| of a density matrix
TRACE_TOL = 1e-12  # |Tr rho - 1|, and |sum p - 1| of a CC/CQ probability table
PSD_TOL = -1e-10  # lowest eigenvalue a density matrix may have
NORM_TOL = 1e-12  # | |v| - 1 | of a normalized state vector
ISOMETRY_TOL = 1e-10  # _isometry_error of basis vectors, stacked Kraus operators, U and U^dagger
PHASE_EQ_TOL = 1e-10  # residual of the Werner phase equation
PRODUCT_RECONSTRUCTION_TOL = 1e-10  # max entry error of a product decomposition and its pairs
PHASE_REF_CUTOFF = 1e-8  # amplitude the phase-fixing entry of a factor must exceed
ORTHOGONALITY_TOL = 1e-8  # |<left|right>| of each factor pair for the unitary protocol
TARGET_DISTANCE_TOL = 1e-10  # protocol trace distance to werner(z) that `qdiss protocol` passes
PROB_CUTOFF = 1e-14  # probability taken as 0 in x log x, and least control-outcome probability
CORRELATION_SIGN_TOL = 1e-8  # how far below 0 classical correlation and discord may round
TOTAL_SIGN_TOL = 1e-10  # how far below 0 the mutual information may round
NEWTON_TOL = 1e-8  # Newton step, radians, at or below which a seed has converged
CURVATURE_CUTOFF = 1e-6  # least |curvature| (bits/rad^2) a Newton step divides by
NEWTON_ITER_CAP = 30  # iterations (a trial step with its stencil) of one Newton refinement
DIFFERENCE_STEP = 1e-4  # tangent offset, radians, of the refinement's central differences
FLAT_SPREAD_TOL = 64 * np.finfo(float).eps  # scan spread max - min at which the objective is flat
SPHERE_TOL = 16 * np.finfo(float).eps  # |x|, |Ty|/|B| read as 0, sigma^2 gaps/|B| ties
# |f32 - f64| of the two-qubit objective at any direction, bits, that the scan's float32 screen
# allows: each x log2 x term moves by at most delta (|log2 delta| + 1/ln 2), ~1e-6 for an
# eigenvalue error delta of a few float32 ulps (3e-8)
SCAN_SCREEN_TOL = 1e-4
# sigma_2 of B = [x | T] at or below which a state is classical-quantum, and |T - x y^T| at
# or below which it is a product, each over |2 r| = 2 sqrt(Tr rho^2) (for a qudit B: the real
# 3 x 2 d_B^2 matrix of G_1..G_3, |G_i - x_i G_0|, and the norm of G_0..G_3)
ZERO_DISCORD_TOL = 16 * np.finfo(float).eps
POLE_CUTOFF = 1e-15  # |n_x|, |n_y| below which a direction is a pole (phi = 0)
RANK_TOL = 1e-10  # singular value of R counted towards the rank L
COMMUTATOR_TOL = 1e-9  # Frobenius norm of a commutator verdicting zero discord
SCHMIDT_RECONSTRUCTION_TOL = 1e-9  # max entry error of an operator Schmidt decomposition
# Concurrence (Wootters' l1 - l2 - l3 - l4) and negativity are reported as
# exactly 0 when they are at most this value: at the separable boundary
# each is pure rounding noise of a few ulps of a unit-trace spectrum, which
# would otherwise depend on BLAS.  An absolute floor also covers
# rank-deficient separable states, where every l_i is itself rounding noise.
ENTANGLEMENT_FLOOR = 16 * np.finfo(float).eps


def _hermitian(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger)/2 of a matrix or of each matrix in a stack (..., d, d).

    The result is exactly Hermitian, so taking it again changes no bit.
    """
    return (m + np.swapaxes(m, -1, -2).conj()) / 2.0


def _isometry_error(c: np.ndarray) -> float:
    """max|C^dagger C - I| of a (rows, cols) matrix: 0 when its columns are orthonormal."""
    return float(np.abs(c.conj().T @ c - np.eye(c.shape[1])).max())


class DomainError(ValueError):
    """Raised when an argument violates a documented precondition."""


def _as_complex_array(data, name: str) -> np.ndarray:
    arr = np.asarray(data, dtype=complex)
    if not np.all(np.isfinite(arr.view(float))):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


def _as_index(value, name: str) -> int:
    """``value`` as a Python int; numpy integers pass, floats are refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _check_legs(legs: Sequence[int], total: int, name: str) -> tuple[int, ...]:
    legs = tuple(_as_index(d, f"{name} leg") for d in legs)
    if not legs or any(d < 1 for d in legs):
        raise DomainError(f"{name}: legs must be positive integers, got {legs}")
    if math.prod(legs) != total:
        raise DomainError(
            f"{name}: leg dimensions {legs} do not multiply to total dimension {total}"
        )
    return legs


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix with tensor-leg structure.

    Parameters
    ----------
    matrix:
        Square complex array.  Must be Hermitian to 1e-12, have unit
        trace to 1e-12, and have no eigenvalue below -1e-10.
    legs:
        Dimension of each tensor factor; the product must equal the
        matrix dimension.  Defaults to a single leg.

    ``eigenvalues`` is the read-only ascending spectrum that the
    positivity check computed; ``eigenvalues[0]`` is its margin.  This
    constructor is the only one that validates; ``from_factor`` and every
    state made from validated ones end in ``_made``, which checks nothing.
    """

    matrix: np.ndarray
    legs: tuple[int, ...]
    eigenvalues: np.ndarray = field(repr=False)

    def __init__(self, matrix, legs: Sequence[int] | None = None):
        m = _as_complex_array(matrix, "DensityMatrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"DensityMatrix must be square, got shape {m.shape}")
        d = m.shape[0]
        if legs is None:
            legs = (d,)
        legs = _check_legs(legs, d, "DensityMatrix")
        herm = np.abs(m - m.conj().T).max()
        if not herm <= HERMITICITY_TOL:
            raise DomainError(f"matrix is not Hermitian (residual {herm:.3e})")
        tr = m.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise DomainError(f"matrix trace is {tr:.15g}, expected 1")
        lam = np.linalg.eigvalsh(m)
        if not lam[0] >= PSD_TOL:
            raise DomainError(f"matrix has negative eigenvalue {lam[0]:.3e}")
        self._freeze(m.copy(), legs, lam)

    def _freeze(self, m: np.ndarray, legs: tuple[int, ...], lam: np.ndarray) -> DensityMatrix:
        m.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "eigenvalues", lam)
        return self

    @classmethod
    def from_factor(cls, factors, legs: Sequence[int], weight: float = 1.0) -> DensityMatrix:
        """rho = weight * sum_t F_t F_t^dagger from a stack of factors, shape (terms, dim, r).

        Such a rho is Hermitian and positive by construction, so only the
        trace is checked, as weight * |F|^2 (to 1e-12).  The terms are
        summed in order and the sum is symmetrized.  The spectrum is that
        of the Gram matrix weight * F^dagger F of all terms' columns,
        padded with zeros (or cut) to dim entries, so no dim x dim
        eigensolve is needed.
        """
        f = _as_complex_array(factors, "DensityMatrix.from_factor")
        if f.ndim != 3:
            raise DomainError(f"factors must have shape (terms, dim, r), got {f.shape}")
        terms, d, r = f.shape
        legs = _check_legs(legs, d, "DensityMatrix")
        tr = weight * float(np.vdot(f, f).real)
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise DomainError(f"matrix trace is {tr:.15g}, expected 1")
        m = np.zeros((d, d), dtype=complex)
        for term in f:
            m += (term * weight) @ term.conj().T
        cols = f.transpose(1, 0, 2).reshape(d, terms * r)
        lam = np.linalg.eigvalsh((cols.conj().T * weight) @ cols)
        return cls._made(m, legs, np.sort(np.concatenate([np.zeros(max(d - lam.size, 0)), lam]))[-d:])

    @classmethod
    def _made(cls, m: np.ndarray, legs: tuple[int, ...], lam: np.ndarray | None = None) -> DensityMatrix:
        """A state made from validated ones: the Hermitian part of m, with spectrum lam (or eigvalsh)."""
        m = _hermitian(m)
        return cls.__new__(cls)._freeze(m, legs, np.linalg.eigvalsh(m) if lam is None else lam)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """Tr(rho^2), between 1/dim and 1."""
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True, eq=False)
class PureState:
    """A state vector with tensor-leg structure.

    ``normalized=False`` admits unnormalized vectors (used for the
    components of mixture decompositions, whose norms encode weights).
    """

    vector: np.ndarray
    legs: tuple[int, ...]
    normalized: bool

    def __init__(self, vector, legs: Sequence[int] | None = None, normalized: bool = True):
        v = _as_complex_array(vector, "PureState")
        if v.ndim != 1:
            raise DomainError(f"PureState vector must be 1-D, got shape {v.shape}")
        d = v.shape[0]
        if legs is None:
            legs = (d,)
        legs = _check_legs(legs, d, "PureState")
        if normalized:
            nrm = float(np.linalg.norm(v))
            if not abs(nrm - 1.0) <= NORM_TOL:
                raise DomainError(f"vector norm is {nrm:.15g}, expected 1")
        self._freeze(v.copy(), legs, normalized)

    @classmethod
    def _made(cls, v: np.ndarray, legs: tuple[int, ...], normalized: bool = True) -> PureState:
        """A state from a complex vector v known to be valid: a copy of v, nothing checked."""
        return cls.__new__(cls)._freeze(v.copy(), legs, normalized)

    def _freeze(self, v: np.ndarray, legs: tuple[int, ...], normalized: bool) -> PureState:
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "normalized", normalized)
        return self

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


def projector(state: PureState) -> DensityMatrix:
    """Rank-one density matrix |v><v| of a normalized pure state."""
    if not state.normalized:
        raise DomainError("projector requires a normalized PureState")
    return DensityMatrix._made(np.outer(state.vector, state.vector.conj()), state.legs)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two density matrices, legs a's then b's.

    Any other pair of arguments raises DomainError.
    """
    if not (isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix)):
        raise DomainError(
            f"tensor requires two DensityMatrix, got {type(a).__name__} and {type(b).__name__}"
        )
    return DensityMatrix._made(np.kron(a.matrix, b.matrix), a.legs + b.legs)


def partial_trace(rho: DensityMatrix, discard: Iterable[int]) -> DensityMatrix:
    """Trace out the legs listed in ``discard``, keeping the rest in order."""
    n = len(rho.legs)
    discard = sorted(set(_as_index(i, "discard index") for i in discard))
    if any(i < 0 or i >= n for i in discard):
        raise DomainError(f"discard indices {discard} out of range for {n} legs")
    if len(discard) == n:
        raise DomainError("cannot trace out every leg")
    keep = [i for i in range(n) if i not in discard]
    dims = rho.legs
    t = rho.matrix.reshape(dims + dims)
    row = list(range(n))
    col = list(range(n, 2 * n))
    for i in discard:
        col[i] = row[i]
    out = np.einsum(t, row + col)
    kept_dims = tuple(dims[i] for i in keep)
    d = int(np.prod(kept_dims))
    return DensityMatrix._made(out.reshape(d, d), kept_dims)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) * trace norm of (a - b); between 0 and 1."""
    if a.dim != b.dim:
        raise DomainError(f"dimension mismatch {a.dim} vs {b.dim}")
    w = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.abs(w).sum())

