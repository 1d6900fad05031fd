"""Correlation-matrix rank and commutator witnesses for nonzero discord.

A bipartite state expanded in Hilbert-Schmidt-orthonormal Hermitian
operator bases gives a real coefficient matrix R; its singular value
decomposition yields the minimal operator form rho = sum_k c_k S_k x F_k.
The number L of nonzero singular values witnesses discord (L > d_A
implies nonzero discord).  The state has zero discord w.r.t. A iff the
S_k commute pairwise: they are Hermitian, and commuting Hermitian
operators always share an eigenbasis, so the commutators alone decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .qla import (
    BASIS_GRAM_TOL, COMMUTATOR_TOL, HERMITICITY_TOL, IMAG_RESIDUE_TOL, RANK_TOL,
    SCHMIDT_RECONSTRUCTION_TOL, DensityMatrix, DomainError,
)

__all__ = [
    "OperatorBasis",
    "WitnessReport",
    "pauli_basis",
    "correlation_matrix",
    "decompose_sf",
    "witness_report",
]

# I, sigma_x, sigma_y, sigma_z stacked along the first axis.
PAULI_MATRICES = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """d^2 Hermitian matrices, orthonormal under Tr(X Y).

    ``elements`` is stored as one read-only (d^2, d, d) array; indexing
    or iterating it gives the matrices.
    """

    elements: np.ndarray

    def __post_init__(self):
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        d = elems[0].shape[0]
        if any(e.shape != (d, d) for e in elems):
            raise DomainError("OperatorBasis elements must share a square shape")
        if len(elems) != d * d:
            raise DomainError(f"OperatorBasis needs {d * d} elements for dimension {d}")
        stack = np.stack(elems)
        stack.setflags(write=False)
        herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        bad = np.flatnonzero(herm > HERMITICITY_TOL)
        if bad.size:
            raise DomainError(f"OperatorBasis element {bad[0]} is not Hermitian")
        gram = np.einsum("iab,jba->ij", stack, stack)
        bad = np.argwhere(np.triu(np.abs(gram - np.eye(d * d)) > BASIS_GRAM_TOL))
        if bad.size:
            i, j = bad[0]
            raise DomainError(
                f"OperatorBasis elements {i},{j} not HS-orthonormal (Tr={gram[i, j]:.3e})"
            )
        object.__setattr__(self, "elements", stack)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]


# Validated once at import; every caller shares this read-only instance.
_PAULI_BASIS = OperatorBasis(elements=PAULI_MATRICES / np.sqrt(2.0))


def pauli_basis() -> OperatorBasis:
    """The normalized Pauli basis {I, sx, sy, sz} / sqrt(2)."""
    return _PAULI_BASIS


def _resolve_basis(basis, d: int, name: str) -> OperatorBasis:
    if basis is None:
        basis = _PAULI_BASIS
    if isinstance(basis, OperatorBasis):
        if basis.dim != d:
            raise DomainError(f"{name} has dimension {basis.dim}, leg needs {d}")
        return basis
    # A raw sequence of matrices is accepted and validated on the spot.
    return _resolve_basis(OperatorBasis(elements=tuple(basis)), d, name)


def _resolve_bases(rho: DensityMatrix, basis_a, basis_b) -> tuple[OperatorBasis, OperatorBasis]:
    if len(rho.legs) != 2:
        raise DomainError(f"correlation_matrix needs a bipartite state, got legs {rho.legs}")
    da, db = rho.legs
    return _resolve_basis(basis_a, da, "basis_a"), _resolve_basis(basis_b, db, "basis_b")


def correlation_matrix(rho: DensityMatrix, basis_a=None, basis_b=None) -> np.ndarray:
    """Real coefficient matrix r_nm = Tr[rho (A_n x B_m)]."""
    ba, bb = _resolve_bases(rho, basis_a, basis_b)
    da, db = rho.legs
    r = np.einsum("abce,nca,meb->nm", rho.matrix.reshape(da, db, da, db), ba.elements, bb.elements)
    resid = np.abs(r.imag).max()
    if resid > IMAG_RESIDUE_TOL:
        raise DomainError(f"correlation matrix has imaginary residue {resid:.3e}")
    return r.real


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """Operator Schmidt data of a state plus its witness verdicts.

    ``s_ops``/``f_ops`` are read-only (L, d, d) stacks holding only the
    L operators that belong to nonzero singular values; ``verdicts`` is
    a read-only mapping.
    """

    r: np.ndarray
    singular_values: np.ndarray
    l_rank: int
    s_ops: np.ndarray
    f_ops: np.ndarray
    legs: tuple[int, int]
    max_commutator_norm: float
    verdicts: Mapping[str, bool]


def witness_report(rho: DensityMatrix, basis_a=None, basis_b=None) -> WitnessReport:
    """Operator Schmidt decomposition rho = sum_k c_k S_k x F_k and its witnesses.

    The c_k are the singular values of R; S_k (F_k) combine the A-side
    (B-side) basis with the left (right) singular vectors, and the
    reconstruction is verified to 1e-9.  ``verdicts["commutator_zero_discord"]``
    holds iff every pairwise commutator of the S_k has Frobenius norm at
    most 1e-9; ``verdicts["rank_witness"]`` is L > d_A, which certifies
    nonzero discord (False is inconclusive).
    """
    ba, bb = _resolve_bases(rho, basis_a, basis_b)
    r = correlation_matrix(rho, ba, bb)
    u, s, vh = np.linalg.svd(r)
    l_rank = int((s > RANK_TOL).sum())
    s_ops = np.tensordot(u[:, :l_rank].T, ba.elements, axes=1)
    f_ops = np.tensordot(vh[:l_rank], bb.elements, axes=1)
    recon = np.einsum("k,kac,kbd->abcd", s[:l_rank], s_ops, f_ops).reshape(rho.dim, rho.dim)
    err = np.abs(recon - rho.matrix).max()
    if err > SCHMIDT_RECONSTRUCTION_TOL:
        raise ArithmeticError(f"operator Schmidt reconstruction error {err:.3e}")
    comm = s_ops[:, None] @ s_ops[None] - s_ops[None] @ s_ops[:, None]
    max_norm = float(np.linalg.norm(comm, axis=(2, 3)).max(initial=0.0))
    for arr in (r, s, s_ops, f_ops):
        arr.setflags(write=False)
    return WitnessReport(
        r=r,
        singular_values=s,
        l_rank=l_rank,
        s_ops=s_ops,
        f_ops=f_ops,
        legs=rho.legs,
        max_commutator_norm=max_norm,
        verdicts=MappingProxyType({
            "commutator_zero_discord": max_norm <= COMMUTATOR_TOL,
            "rank_witness": l_rank > rho.legs[0],
        }),
    )


# The operator Schmidt decomposition is the witness pass itself.
decompose_sf = witness_report
