"""Correlation-matrix rank and commutator witnesses for nonzero discord.

A two-qubit state expanded in the normalized local Pauli basis gives a
real coefficient matrix R; its singular value decomposition yields the
minimal operator form rho = sum_k c_k S_k x F_k.  The number L of
nonzero singular values witnesses discord (L > 2 implies nonzero
discord).  The state has zero discord w.r.t. A iff the S_k commute
pairwise: they are Hermitian, and commuting Hermitian operators always
share an eigenbasis, so the commutators alone decide.  Other
Hilbert-Schmidt-orthonormal bases only turn R into O_A R O_B^T with
orthogonal O_A, O_B, so neither L nor the verdict depends on the basis.

The kernels take stacks of N states: ``correlations._correlation_matrices``
builds R with a batch index, and ``_witness_reports`` takes one batched
SVD and checks the Schmidt reconstruction and the commutator norms of
the whole stack.  ``correlation_matrix`` and ``witness_report`` are their
N = 1 case.  In ``certify`` and ``cli.sweep_rows`` this pass reads the R
that the discord pass reads: ``protocols._certifications`` builds its
Bloch data 2 R once and hands this pass the halves, R bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .qla import (
    COMMUTATOR_TOL, RANK_TOL, SCHMIDT_RECONSTRUCTION_TOL, DensityMatrix, DomainError,
)
from .correlations import PAULI_MATRICES, _correlation_matrices

__all__ = ["WitnessReport", "correlation_matrix", "decompose_sf", "witness_report"]

# {I, sx, sy, sz} / sqrt(2): Hermitian and orthonormal under Tr(X Y).
_PAULI_BASIS = PAULI_MATRICES / np.sqrt(2.0)
_PAULI_BASIS.setflags(write=False)
# The six index pairs k < l of four operators.
_PAIRS = np.triu_indices(4, 1)


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """Real coefficient matrix r_nm = Tr[rho (P_n x P_m)] in the normalized Pauli basis."""
    if rho.legs != (2, 2):
        raise DomainError(f"correlation_matrix needs legs (2, 2), got {rho.legs}")
    return _correlation_matrices(rho.matrix[None])[0]


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """Operator Schmidt data of a two-qubit state plus its witness verdicts.

    ``s_ops``/``f_ops`` are read-only (L, 2, 2) stacks holding only the
    L operators that belong to nonzero singular values; ``verdicts`` is
    a read-only mapping.

    ``max_commutator_norm`` is the largest Frobenius norm of a pairwise
    commutator of the S_k.  With degenerate singular values its magnitude
    is fixed by the basis the SVD picks for their subspace; its zero-ness,
    the verdict, is not.  On the Bell states and werner(1) (all four
    singular values 0.5) it reads sqrt(2), but a 1e-9 perturbation of the
    state moves it down to about 1.28.

    ``verdicts["commutator_zero_discord"]`` and the zero-discord rule of
    ``correlations`` decide one property, zero discord for measurements on
    A, two ways; they agree on the zoo, on CC, CQ and product states, and on
    those mixed with a random state at weight 1e-6 or 1e-3.  Their
    tolerances differ, so there is a band where they do not.  The rule
    takes a state when sigma_2 of B = [x | T] is at most ZERO_DISCORD_TOL
    |2 r|, 16 ulps relative to the Bloch data's norm 2 sqrt(Tr rho^2).  The
    verdict drops singular values of R at most RANK_TOL (1e-10) and accepts
    commutators up to COMMUTATOR_TOL (1e-9), both absolute.  A mixture
    (1 - eps) rho_CQ + eps rho with a random rho and eps from about 1e-14 to
    1e-10 is in the band: the verdict reads zero discord, while ``discord``
    searches the state and reports a discord of rounding size (at most
    about 1e-15 bits on 60 seeded CC, CQ and product states per eps).

    Which tolerance moves the verdict depends on the family.  On those
    near-CQ mixtures it flips, between eps = 1e-10 and 1e-9, mostly where
    a singular value of R crosses RANK_TOL: its S_k then enters the
    commutators at full size, norms up to sqrt(2), whatever COMMUTATOR_TOL
    is.  On a family of fixed rank it flips at COMMUTATOR_TOL:
    rho_eps = (I x I + eps sx x I + sz x sz / 2) / 4 has L = 2 and norm
    sqrt(2) eps, so it reads nonzero discord at eps = 1e-9 and zero discord
    at eps = 5e-10.
    """

    singular_values: np.ndarray
    l_rank: int
    s_ops: np.ndarray
    f_ops: np.ndarray
    max_commutator_norm: float
    verdicts: Mapping[str, bool]


def witness_report(rho: DensityMatrix) -> WitnessReport:
    """Operator Schmidt decomposition rho = sum_k c_k S_k x F_k and its witnesses.

    The c_k are the singular values of R; S_k (F_k) combine the A-side
    (B-side) Pauli basis with the left (right) singular vectors, and the
    reconstruction is verified to 1e-9.  ``verdicts["commutator_zero_discord"]``
    holds iff every pairwise commutator of the S_k has Frobenius norm at
    most 1e-9; ``verdicts["rank_witness"]`` is L > 2, which certifies
    nonzero discord (False is inconclusive).
    """
    return _witness_reports(correlation_matrix(rho)[None], rho.matrix[None])[0]


def _witness_reports(r: np.ndarray, m: np.ndarray) -> list[WitnessReport]:
    """``witness_report`` of each state in a stack (N, 4, 4), from its correlation matrices r.

    One batched SVD; all four S_k and F_k of every state are built, and
    the ones beyond a state's rank L enter neither its reconstruction
    (their coefficient is 0) nor its commutators (masked), nor its report.
    """
    u, s, vh = np.linalg.svd(r)
    kept = s > RANK_TOL  # s descends, so the first L of each row
    basis = _PAULI_BASIS.reshape(4, 4)
    s_ops = (np.swapaxes(u, 1, 2) @ basis).reshape(-1, 4, 2, 2)
    f_ops = (vh @ basis).reshape(-1, 4, 2, 2)
    recon = np.einsum("xk,xkac,xkbd->xabcd", np.where(kept, s, 0.0), s_ops, f_ops)
    err = np.abs(recon.reshape(-1, 4, 4) - m).max(axis=(1, 2))
    bad = ~(err <= SCHMIDT_RECONSTRUCTION_TOL)
    if bad.any():
        raise ArithmeticError(f"operator Schmidt reconstruction error {err[np.argmax(bad)]:.3e}")
    # [S_l, S_k] = -[S_k, S_l] exactly, so the pairs k < l give every norm
    k, l = _PAIRS
    a, b = s_ops[:, k], s_ops[:, l]
    norms = np.linalg.norm(a @ b - b @ a, axis=(2, 3))
    max_norms = np.where(kept[:, k] & kept[:, l], norms, 0.0).max(axis=1)
    for arr in (s, s_ops, f_ops):
        arr.setflags(write=False)
    reports = []
    for sv, rank, so, fo, norm in zip(s, kept.sum(axis=1).tolist(), s_ops, f_ops, max_norms.tolist()):
        verdicts = {"commutator_zero_discord": norm <= COMMUTATOR_TOL, "rank_witness": rank > 2}
        reports.append(WitnessReport(
            singular_values=sv, l_rank=rank, s_ops=so[:rank], f_ops=fo[:rank],
            max_commutator_norm=norm, verdicts=MappingProxyType(verdicts),
        ))
    return reports


# The operator Schmidt decomposition is the witness pass itself.
decompose_sf = witness_report
