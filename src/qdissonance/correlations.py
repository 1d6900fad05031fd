"""Correlation quantifiers for bipartite states.

Entropic quantities (total correlation, classical correlation via
measurement optimization, quantum discord), the Hilbert-Schmidt
geometric discord (closed form and a brute-force oracle mode), and the
two-qubit entanglement measures (concurrence, negativity).  All
entropies are in bits.

The measurement optimization scans a deterministic grid over the
upper Bloch hemisphere (n and -n are the same projective measurement,
with the outcomes swapped) tile by tile: each tile's directions are
built from the 1-D trig tables into one reused buffer, its values go
into another, and the tile is folded into the running min, max and
three best cells, so no grid-sized array is made.  A two-qubit scan of
more than ``_SCREEN_TILES`` tiles is screened instead (``_screen``) by patches
of a few cells (``_patch_edges``): Luo's closed form values the objective at
each patch's middle cell (``_patch_middles``) and, unless those values are
flat, bounds it on each patch (``_patch_bounds``), which drops the patches that
cannot hold the three best cells; the same kernel in float32, within
``qla.SCAN_SCREEN_TOL`` of float64, walks the kept ones (``_candidates``), and
only the cells within 2 SCAN_SCREEN_TOL of its running third best, a few
hundred, are evaluated in float64, so the seeds are bit for bit those of the
whole grid.  The search
refines the three best cells together with one safeguarded
Riemannian Newton method on the sphere, whose gradient and Hessian are
central differences on an 8-point stencil, so repeated runs give
identical results.  Each Newton iteration makes one objective call: the
seeds' trial points, each with its own stencil, so an accepted point's
stencil is already known.  The same refinement serves the two-qubit and qubit-qudit
objectives and the brute-force geometric discord.  Three rules decide
a state without refining.  Before any scan, ``_classify`` finds from one
SVD of B ([x | T] for two qubits) the rows of the zero-discord rule
(classical-quantum states) and of the axis rule (two-qubit x = T y = 0),
and ``_rule_measurements`` states and measures both in one step;
``discord`` reports 0 with classical equal to total on a zero-discord
row.  The flat rule reads the scan: when its spread max - min is at most
``qla.FLAT_SPREAD_TOL`` (on a grid of at least 3 x 5) the grid minimum
is returned at the pole (pure entangled states, which are flat but not
spheres, and flat qubit-qudit states).
Measuring +/-n on A leaves B in the unnormalized states
(G_0 +/- n.G)/2 with G_i = Tr_A[(sigma_i x I) rho]; the conditional
entropy is the entropy of their spectra.  For a qubit B the spectrum
is Luo's closed form (PRA 77, 042303, 2008) from the Pauli
coefficients of the G_i, so no matrices are formed; otherwise it is
eigvalsh.  One kernel, ``_bloch_values``, evaluates the two-qubit form
for the scan, its screen, the refinement's stencils and the rules'
directions.  It works in place in buffers that a scan allocates once,
each quantity of both outcomes one contiguous block: per direction a
4 x 3 matrix product, a norm and six logarithms, ~33 ns in float64 and
~17 ns in float32 on a 7680-direction tile, and ~25 us for a (3, 3, 9)
refinement call (2-core Xeon VM, one BLAS thread).

Every state goes through one pass, ``_reports``, which takes a stack
of N states (N, d, d) with their spectra and ``_measured_parts``, for two
qubits 2 R with R the Pauli coefficient matrices of
``_correlation_matrices`` (``witness`` imports it).  ``discord`` is its
N = 1 case; ``protocols._certifications`` runs it and the witness pass
on one R stack, for ``certify`` and each block of ``cli.sweep_rows``.
The kernels take the stack: ``_local_entropies`` (two-qubit S(A) and S(B)
from the spectra (1 -/+ |x|)/2 and (1 -/+ |y|)/2 of the Bloch vectors in
2 R, with no marginal matrix; ``total_correlation`` and
``classical_correlation`` call it too, so they return the pass's bits;
other legs take ``_marginal_entropies``' eigvalsh) and ``_entropies``,
``_classify`` (a batched svd, the one decomposition of B), every rule
row's direction and objective in one step (``_rule_measurements``),
``_geometric_discords`` (from the same singular values and zero-discord
rows), ``_concurrences`` (batched eigh and svd) and ``_negativities``
(batched eigvalsh); the sign checks and clamps of ``discord`` are applied
elementwise, and a zero-discord row is set to discord 0 after them.
Every other row is scanned and refined on its own by
``_minimize_over_directions``, on grid tables built only then.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .qla import (
    CORRELATION_SIGN_TOL, CURVATURE_CUTOFF, DIFFERENCE_STEP, ENTANGLEMENT_FLOOR, FLAT_SPREAD_TOL,
    NEWTON_ITER_CAP, NEWTON_TOL, POLE_CUTOFF, PROB_CUTOFF, SCAN_SCREEN_TOL, SPHERE_TOL,
    TOTAL_SIGN_TOL, ZERO_DISCORD_TOL,
    DensityMatrix, DomainError, _as_index, _hermitian,
)

__all__ = [
    "Measurement",
    "CorrelationReport",
    "entropy",
    "total_correlation",
    "qubit_measurement",
    "conditional_entropy_after",
    "classical_correlation",
    "discord",
    "geometric_discord",
    "concurrence",
    "negativity",
]

DEFAULT_GRID = (64, 128)
# The scan holds one tile, not the grid, so this cap bounds time: a two-qubit
# discord that the screen serves takes ~4-5 ms on the 640x1280 oracle grid and
# ~5.5-6 ms at this cap (2048x1024, ~2.5x that grid); one whose screen falls back
# to the exact scan (a flat objective) ~18 ms and ~31-35 ms (2-core Xeon VM, one
# BLAS thread, whose speed varies by up to 40%).  A (2, d_B) state is bounded by
# MAX_QUDIT_SCAN_WORK too.  Larger grids are rejected before the scan.
MAX_GRID_POINTS = 2**21
# Two-qubit directions per objective call in the grid scan and its screen,
# rounded down to whole theta rows: bounds the kernel's buffers (14 floats per
# direction, 0.9 MB at 2**13).  With the screen, the median of the per-round
# medians of a 640x1280 discord over 12 random states, 9 alternating rounds, was
# 5.4 ms at 2**13, 5.7 ms at 2**14, 6.1 ms at 2**12 and 9.0 ms at 2**15 (2-core
# Xeon VM, one BLAS thread); such a discord peaks under tracemalloc at 1.3 MiB
# at 2**13, 1.1 MiB at 2**12, 2.4 MiB at 2**14 and 4.9 MiB at 2**15.
# A (2, d_B) scan takes 4/d_B**2 as many, so a tile holds as many entries.
_SCAN_TILE = 2**13
# A two-qubit scan of more than this many tiles is screened in float32 first
# (``_screen``).  Median discord over 12 random states, 15 alternating rounds, one
# session per line (2-core Xeon VM, one BLAS thread): at 60x1280 (5 tiles) 1.55 ms
# exact against 1.38 ms screened, which won 15 rounds, and 1.59 against 1.46 ms,
# 15 rounds; at 48x1280 (4 tiles) 1.40 against 1.38 ms, 8 rounds, and 1.37
# against 1.45 ms, 4 rounds, so 4 tiles stay exact.  The screen's patches span a
# tile's theta rows, which are far apart on these coarse grids.
_SCREEN_TILES = 4
# Cells of a screen patch (``_patch_edges``): a tile's theta rows by
# _PATCH_CELLS // rows phi columns, 6 x 8 on the 640 x 1280 grid.  Median of the
# per-round medians of a 640x1280 discord over 12 random states, 15 alternating
# rounds: 7.1 ms at 24 cells, 5.5 ms at 48 and 5.8 ms at 96, which 48 beat in 14
# rounds (same VM).
_PATCH_CELLS = 48
# Directions x d_B**3 a (2, d_B) search may cost (one d_B x d_B eigvalsh per
# outcome per direction), counting the hemisphere scan and the worst-case
# refinement: per seed, 8 for its stencil, NEWTON_ITER_CAP x (1 trial + 8
# stencil) and 1 final evaluation, 279 directions, 837 for 3 seeds.  Admits
# two qubits on every grid, (2, 23) at the default grid, (2, 43) at 2x2 and
# (2, 3) at the largest grid.
MAX_QUDIT_SCAN_WORK = 2**26
_REFINE_DIRECTIONS = 3 * (8 + 9 * NEWTON_ITER_CAP + 1)

# I, sigma_x, sigma_y, sigma_z stacked along the first axis.
PAULI_MATRICES = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)


def _direction(theta, phi) -> np.ndarray:
    """Bloch unit vector n(theta, phi) along the first axis; broadcasts over arrays."""
    sin_t = np.sin(theta)
    n = np.empty((3,) + np.broadcast(theta, phi).shape)
    np.multiply(sin_t, np.cos(phi), out=n[0, ...])
    np.multiply(sin_t, np.sin(phi), out=n[1, ...])
    n[2] = np.cos(theta)
    return n


@dataclass(frozen=True)
class Measurement:
    """Rank-1 projective qubit measurement along the Bloch direction (theta, phi)."""

    theta: float
    phi: float

    def __post_init__(self):
        t, p = self.theta, self.phi
        real = (float, numbers.Real)  # checked first: math.isfinite warns on a numpy complex
        try:
            ok = isinstance(t, real) and isinstance(p, real) and math.isfinite(t) and math.isfinite(p)
        except OverflowError:  # an int beyond the float range
            ok = False
        if not ok:
            raise DomainError(f"measurement angles must be finite real numbers, got ({t}, {p})")


def qubit_measurement(theta: float, phi: float) -> Measurement:
    """The measurement along n(theta, phi), with the angles cast to float."""
    return Measurement(theta=float(theta), phi=float(phi))


def _angles(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical angles theta in [0, pi], phi in [0, 2 pi) of unit vectors n, shape (3, ...).

    A pole, |n_x| and |n_y| below POLE_CUTOFF, is theta = 0 or pi and phi = 0
    exactly, whatever the rounding of its n_z (arccos(1 - 2^-53) is 1.5e-8).
    """
    nx, ny, nz = n
    pole = np.abs(n[:2]).max(axis=0) < POLE_CUTOFF
    phi = np.arctan2(ny, nx) % (2.0 * np.pi)
    # a tiny negative n_y with n_x > 0 gives an angle just below 0, whose
    # remainder rounds up to 2 pi: that direction is phi = 0
    phi = np.where(pole | (phi == 2.0 * np.pi), 0.0, phi)
    return np.arccos(np.where(pole, np.sign(nz), np.clip(nz, -1.0, 1.0))), phi


def _measurement_angles(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_angles`` of the measurements along unit directions n (3, k).

    n and -n are one measurement: each is taken as the one whose first
    nonzero of (n_z, n_y, n_x) is positive, so n_z >= 0, and phi is in
    [0, pi) on the equator.
    """
    n = [[-u for u in v] if (v[2] or v[1] or v[0]) < 0 else v for v in n.T.tolist()]
    return _angles(np.array(list(zip(*n))))


def _aligned(n: int, dtype=float) -> np.ndarray:
    """n uninitialized entries from a 64-byte boundary, for the buffers that the scan streams:
    a 640 x 1280 discord took ~22 ms with them there and ~26-27 ms at 16, 32 or 48 mod 64, as
    malloc may place them (2-core Xeon VM with AVX-512, one BLAS thread)."""
    raw = np.empty(n * np.dtype(dtype).itemsize + 63, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + n * np.dtype(dtype).itemsize].view(dtype)


def _xlog2(x: np.ndarray, log: np.ndarray | None = None, mask: np.ndarray | None = None):
    """x log2 x elementwise in place in the float array x, with 0 wherever x <= PROB_CUTOFF.

    ``log`` (float) and ``mask`` (bool), of x's shape, are optional
    scratch.  Entries at most PROB_CUTOFF become 1 before the log2, so
    they give 1 * 0 = +0 and log2 never sees 0.  Returns x.
    """
    np.copyto(x, 1.0, where=np.less_equal(x, PROB_CUTOFF, out=mask))
    return np.multiply(x, np.log2(x, out=log), out=x)


def entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -sum(lam log2 lam) in bits, with 0 log 0 = 0."""
    return float(_entropies(rho.eigenvalues))


def _entropies(lam: np.ndarray) -> np.ndarray:
    """Entropy of each spectrum on the last axis of ``lam``."""
    # 0.0 - sum, not -sum: a pure spectrum gives +0.0, never -0.0
    return 0.0 - _xlog2(np.clip(lam, 0.0, None)).sum(axis=-1)


def _require_bipartite(legs: tuple[int, ...], op: str) -> tuple[int, int]:
    if len(legs) != 2:
        raise DomainError(f"{op} needs exactly two legs; merge legs first (got {legs})")
    return legs


def total_correlation(rho: DensityMatrix) -> float:
    """Mutual information S(A) + S(B) - S(AB) in bits."""
    legs = _require_bipartite(rho.legs, "total_correlation")
    m = rho.matrix[None]
    if legs == (2, 2):
        sa, sb = _local_entropies(_measured_parts(m, legs))
    else:
        sa, sb = _marginal_entropies(m, legs, 0), _marginal_entropies(m, legs, 1)
    return float((sa + sb - _entropies(rho.eigenvalues[None]))[0])


def _local_entropies(bloch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(A) and S(B) of each two-qubit state in a stack, from its Bloch data (N, 4, 4).

    The Bloch data 2 r = [[1, y], [x, T]] are ``_measured_parts``: the
    marginals (I + x.sigma)/2 and (I + y.sigma)/2 have the spectra
    (1 -/+ |x|)/2 and (1 -/+ |y|)/2, so no matrix is formed.  Other legs
    take ``_marginal_entropies``.
    """
    xy = np.concatenate((bloch[:, 1:, 0], bloch[:, 0, 1:]), axis=1).reshape(-1, 3)  # x, y of each row
    length = np.sqrt(_dots(xy)).reshape(-1, 2, 1)
    s = _entropies(np.concatenate((1.0 - length, 1.0 + length), axis=-1) / 2.0)
    return s[:, 0], s[:, 1]


def _marginal_entropies(m: np.ndarray, legs: tuple[int, int], keep: int) -> np.ndarray:
    """S(A) (keep = 0) or S(B) (keep = 1) of each state in a stack (N, d, d), legs (d_A, d_B).

    The path for legs other than (2, 2); two qubits take the closed form of
    ``_local_entropies``.  Each marginal is made as ``partial_trace`` makes
    it: its Hermitian part, then eigvalsh.
    """
    da, db = legs
    t = m.reshape(-1, da, db, da, db)
    marginal = np.einsum("xabcb->xac", t) if keep == 0 else np.einsum("xabae->xbe", t)
    return _entropies(np.linalg.eigvalsh(_hermitian(marginal)))


def _pauli_parts(m: np.ndarray, db: int) -> np.ndarray:
    """G_i = Tr_A[(sigma_i x I) rho] of each [2, d_B] state in a stack, shape (N, 4, d_B, d_B).

    G_0 = rho_B.
    """
    return np.einsum("nca,xabce->xnbe", PAULI_MATRICES, m.reshape(-1, 2, db, 2, db))


def _split(parts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Both outcomes (X_0 +/- n.X)/2 of a Pauli-part stack X, for directions n.

    ``parts`` has shape (4, *s) and ``n`` shape (3, *dirs); the result
    has shape (2, *s, *dirs), the + outcome first.
    """
    shape = parts.shape[1:] + n.shape[1:]
    nx = (parts[1:].reshape(3, -1).T @ n.reshape(3, -1)).reshape(shape)
    x0 = parts[0].reshape(parts.shape[1:] + (1,) * (n.ndim - 1))
    # one stack written in place: no sums and halved copy for each call to fault in
    out = np.empty((2,) + shape, dtype=complex)
    np.add(x0, nx, out=out[0])
    np.subtract(x0, nx, out=out[1])
    out /= 2.0
    return out


def _matrix_spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the matrices on axes 1 and 2, on a new first axis."""
    return np.moveaxis(np.linalg.eigvalsh(np.moveaxis(m, (1, 2), (-2, -1))), -1, 0)


def _cond_entropy_terms(lam: np.ndarray) -> np.ndarray:
    """p_a S(rho_B|a) of each outcome from its unnormalized eigenvalues (first axis)."""
    lam = np.clip(lam, 0.0, None)
    p = lam.sum(axis=0)
    return _xlog2(p) - _xlog2(lam).sum(axis=0)


def _bloch_views(work: np.ndarray, mask: np.ndarray, size: int) -> tuple:
    """The views of ``_bloch_values`` on ``size`` directions, from flat buffers of at least
    14 ``size`` (work, in the kernel's dtype) and 6 ``size`` (mask, bool) entries.

    The work is laid out (7, 2, size), a quantity's two outcomes one
    contiguous block, so each step of the kernel is one contiguous ufunc
    call.  Its first view is (4, size), where the caller writes B^T n.
    """
    w = work[: 14 * size].reshape(7, 2, size)
    a = w[:4]  # x0 + B^T n, then x0 - B^T n, along the outcome axis
    # in the order that _bloch_values unpacks and names them
    return (
        w[4:6].reshape(4, size), a[:, 0], a[:, 1], a[0], a[1:], a[1], a[2], a[3], a[2:],
        w[4:], mask[: 6 * size].reshape(3, 2, size), a[1, 0], a[1, 1],
    )


def _bloch_values(x0: np.ndarray, views: tuple, out=None):
    """The two-qubit objective, in place in the ``_bloch_views`` ``views`` whose first holds B^T n.

    With x0 = 2 r[0] (broadcast to (4, N)) and B = 2 r[1:] the rows of
    2 r = [[1, y], [x, T]], measuring +/-n leaves B with the Pauli coefficients
    a = x0 +/- B^T n of twice its unnormalized state, whose eigenvalues
    are (a_0 -/+ |a_1..3|) / 4 (Luo, PRA 77, 042303, 2008).  The two
    halvings of the Bloch form fold into that one exact x 0.25, so the
    values are bit for bit those of halving first.  The last rows of the
    work and the mask are scratch for ``_xlog2``.  Works in the views'
    dtype.  Returns sum over outcomes of p log2 p - sum(lam log2 lam), into ``out``.
    """
    bn, plus, minus, a0, sq, rad, lam0, lam1, lam, log, mask, ent_plus, ent_minus = views
    np.subtract(x0, bn, out=minus)
    np.add(x0, bn, out=plus)
    np.multiply(sq, sq, out=sq)
    np.add(rad, lam0, out=rad)
    np.add(rad, lam1, out=rad)
    np.sqrt(rad, out=rad)
    np.subtract(a0, rad, out=lam0)  # the two eigenvalues of each outcome
    np.add(a0, rad, out=lam1)
    np.multiply(lam, 0.25, out=lam)
    np.maximum(lam, 0.0, out=lam)
    p = np.add(lam0, lam1, out=rad)  # the outcome probabilities
    _xlog2(sq, log, mask)  # p log2 p, then lam log2 lam
    np.add(lam0, lam1, out=lam0)
    np.subtract(p, lam0, out=p)
    return np.add(ent_plus, ent_minus, out=out)


def _bloch_objective(bloch: np.ndarray, dtype=float):
    """The two-qubit objective of one 2 r (4, 4): ``_bloch_values`` of B^T n, in ``dtype``.

    Directions must come in ``dtype``: float for every value the package
    reports, float32 only for the scan's screen.  Its buffers are kept
    from call to call and grow to the largest call, so a scan allocates
    them at its first tile and the refinement reuses them; a call on its
    own allocates only its own size.  The views of each call size are
    built once per buffer.
    """
    bt, x0 = bloch[1:].T.astype(dtype, copy=False), bloch[0][:, None].astype(dtype, copy=False)
    work, mask, views = np.empty(0, dtype), np.empty(0, dtype=bool), {}

    def objective(n, out=None):
        nonlocal work, mask
        size = n[0].size
        v = views.get(size)
        if v is None:
            if mask.size < 6 * size:  # the old buffers and their views go first
                views.clear()
                work = mask = None
                work, mask = _aligned(14 * size, dtype), _aligned(6 * size, bool)
            v = views[size] = _bloch_views(work, mask, size)
        np.matmul(bt, n.reshape(3, size), out=v[0])
        return _bloch_values(x0, v, out).reshape(n.shape[1:])

    return objective


def _correlation_matrices(m: np.ndarray) -> np.ndarray:
    """``witness.correlation_matrix``, r_nm = Tr[rho (P_n x P_m)] in the normalized Pauli
    basis, of each two-qubit density matrix in a stack (N, 4, 4)."""
    # the Paulis halved, not the rounded basis: exact for dyadic entries
    r = np.einsum(
        "xabce,nca,meb->xnm", m.reshape(-1, 2, 2, 2, 2), PAULI_MATRICES, PAULI_MATRICES
    ) / 2.0
    return r.real


def _measured_parts(m: np.ndarray, legs: tuple[int, ...]) -> np.ndarray:
    """The Pauli parts that measuring A splits into its two outcomes, for a stack (N, d, d).

    For two qubits, Luo's Bloch data 2 r = [[1, y], [x, T]] (r the
    ``_correlation_matrices``), the Pauli coefficients of 2 G_i, shape
    (N, 4, 4); halved, it is r bit for bit, which the witness pass reads.
    Otherwise the G_i, shape (N, 4, d_B, d_B).
    """
    if legs == (2, 2):
        return 2.0 * _correlation_matrices(m)
    da, db = _require_bipartite(legs, "measurement on A")
    if da != 2:
        raise DomainError(f"measured leg must have dimension 2, got {da}")
    return _pauli_parts(m, db)


def _conditional_entropy_objective(parts: np.ndarray):
    """sum_a p_a S(rho_B|a) as a function of directions n, shape (3, ...) -> (...).

    ``parts`` are one state's ``_measured_parts``: from two-qubit Bloch
    data each outcome's spectrum is closed form (``_bloch_objective``),
    otherwise it is eigvalsh.  Like every objective here it takes an
    optional ``out`` for its values.
    """
    if parts.ndim == 2:
        return _bloch_objective(parts)

    def objective(n, out=None):
        return _cond_entropy_terms(_matrix_spectrum(_split(parts, n))).sum(axis=0, out=out)

    return objective


def _classify(parts: np.ndarray):
    """The rule rows of a stack of ``_measured_parts``, and U and sigma of each B.

    B is the 3 x 4 block [x | T] of 2 r = [[1, y], [x, T]] for two qubits,
    and the real 3 x 2 d_B^2 matrix of G_1..G_3 otherwise; one SVD of the
    stack gives every U and sigma, which the rules and the geometric discord
    read.  The zero-discord rows have sigma_2 at most ``_zero_discord_scale``,
    so B has rank 1 at most.  The axis rows are the other two-qubit rows with
    x = w = T y = 0, each to SPHERE_TOL, |x| absolutely and |w| relative to
    |B|, the sizes their rounding takes.  ``_rule_measurements`` states and
    measures both rules.  Returns (axis, zero, u, s).
    """
    b = parts[:, 1:]
    if parts.ndim == 4:
        b = b.view(float).reshape(len(parts), 3, -1)
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    zero = s[:, 1] <= _zero_discord_scale(parts)
    if parts.ndim == 4:
        return np.zeros(len(parts), dtype=bool), zero, u, s
    x = parts[:, 1:, 0]
    w = (parts[:, 1:, 1:] @ parts[:, 0, 1:, None])[..., 0]
    axis = (_dots(x) <= SPHERE_TOL**2) & (_dots(w) <= SPHERE_TOL**2 * _dots(s)) & ~zero
    return axis, zero, u, s


def _zero_discord_scale(parts: np.ndarray) -> np.ndarray:
    """ZERO_DISCORD_TOL times the norm of each row of a stack of ``_measured_parts``.

    That norm is |2 r| = 2 sqrt(Tr rho^2) for two qubits, at least 1 as
    2 r_00 = 1, and sqrt(2 Tr rho^2) for the G_i of a qudit B: the size of
    the rounding of B's entries, which does not shrink with |B|.
    """
    return ZERO_DISCORD_TOL * np.sqrt(_squared_norms(parts))


def _squared_norms(a: np.ndarray) -> np.ndarray:
    """|a_k|^2 of each entry a_k of a real or complex stack, as ``_dots`` of its real view."""
    return _dots(a.reshape(len(a), -1).view(float))


def _dots(v: np.ndarray) -> np.ndarray:
    """v . v of each row of a stack (N, k), each row its own matrix product.

    So a row's rounding is that of the 1-D ``v @ v`` and does not depend on N.
    """
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _rule_measurements(parts: np.ndarray, u: np.ndarray, s: np.ndarray, zero: np.ndarray):
    """The objective, theta and phi of each rule row of a stack of ``_measured_parts``.

    The rows are those that ``_classify`` gives a rule, with B's U and sigma
    and its zero-discord mask.  Each is measured along n, B's top left
    singular vector or a fixed point of a circle of optima, or at the pole
    theta = phi = 0 when the pole is optimal.

    The zero-discord rule: B of rank 1 at most makes G_i = n_i H, so the
    state is classical-quantum, sum_a p_a |a><a| x rho_a, which has zero
    discord for measurements on A (Dakic, Vedral & Brukner, PRL 105, 190502,
    2010), and n is its classical basis.  A product rho_A x rho_B,
    G_i = x_i G_0 with x_i = Tr G_i (T = x y^T for two qubits) to
    ``_zero_discord_scale``, B = 0 among them, leaves B's state unchanged by
    every measurement, so it reports the pole; only zero rows pay for that test.

    The axis rule, two-qubit rows with x = w = 0: measuring +/-n leaves B with
    Pauli coefficients (1 +/- x.n, y +/- T^T n)/2, so the objective is
    g(x.n, w.n, n^T M n) with w = T y and M = T T^T.  With x = w = 0 both
    outcomes have p = 1/2 and |y +/- T^T n|^2 = |y|^2 + n^T M n, so the
    objective decreases with n^T M n alone (Luo, PRA 77, 042303, 2008), and
    B B^T = M + x x^T = M gives M's eigenframe U and spectrum sigma^2.  It
    reports the pole whenever the pole is optimal to tolerance,
    |e_z^T B|^2 >= sigma_1^2 - SPHERE_TOL |B|: on every sphere, M prop. to I
    (Werner states, the protocols' outputs and their local rotations;
    Girolami & Adesso, PRA 83, 052108, 2011), and every circle of optima
    through the pole.  On a circle, sigma_1^2 = sigma_2^2 to SPHERE_TOL |B|,
    every direction in their plane is optimal and n is the normalized
    projection of e_z onto the plane, or e_x when the plane is the equator:
    when the tilt of its normal (the bottom left singular vector) from e_z,
    times the gap sigma_2^2 - sigma_3^2, is at most SPHERE_TOL |B|.

    Every n gets the canonical angles of one ``_measurement_angles`` call.
    Two-qubit rows take their values from one ``_bloch_values`` call at
    ``_direction(theta, phi)``, which is exactly e_z at the pole; (2, d_B > 2)
    rows, all zero rows, their own objective each.
    """
    n = u[:, :, 0].copy()
    measured = ~zero  # the axis rows, then those whose pole is not optimal
    if measured.any():
        s2 = s * s
        scale = SPHERE_TOL * np.sqrt(_dots(s))
        measured &= _dots(u[:, 2] * s) < s2[:, 0] - scale  # |e_z^T B|^2 below sigma_1^2
        for i in np.flatnonzero(measured & (s2[:, 0] - s2[:, 1] <= scale)):
            ux, uy, uz = u[i, :, 2].tolist()
            tilt = math.hypot(ux, uy)
            if tilt * (s2[i, 1] - s2[i, 2]) <= scale[i]:
                n[i] = (1.0, 0.0, 0.0)
            else:  # e_z - u_z u, whose norm is the tilt
                n[i] = (-uz * ux / tilt, -uz * uy / tilt, tilt)
    if zero.any():
        g = parts[zero]
        if parts.ndim == 3:
            off = g[:, 1:, 1:] - g[:, 1:, :1] * g[:, :1, 1:]  # T - x y^T
        else:
            off = g[:, 1:] - np.trace(g[:, 1:], axis1=2, axis2=3).real[:, :, None, None] * g[:, :1]
        measured[zero] = _squared_norms(off) > _zero_discord_scale(g) ** 2
    theta, phi = np.zeros((2, len(parts)))
    if measured.any():
        theta[measured], phi[measured] = _measurement_angles(n[measured].T)
    d = _direction(theta, phi)
    if parts.ndim == 4:
        vals = [_conditional_entropy_objective(p)(v) for p, v in zip(parts, d.T)]
        return np.array(vals), theta, phi
    k = len(parts)
    views = _bloch_views(np.empty(14 * k), np.empty(6 * k, dtype=bool), k)
    views[0][...] = (d.T[:, None, :] @ parts[:, 1:])[:, 0].T  # B^T n
    return _bloch_values(parts[:, 0].T, views), theta, phi


def conditional_entropy_after(rho: DensityMatrix, m: Measurement) -> float:
    """Average post-measurement B entropy sum_a p_a S(rho_B|a) in bits.

    Outcomes with probability below 1e-14 are skipped.
    """
    objective = _conditional_entropy_objective(_measured_parts(rho.matrix[None], rho.legs)[0])
    return float(objective(_direction(m.theta, m.phi)))


def _checked_grid(grid: tuple[int, int]) -> tuple[int, int]:
    """A T x P grid as two ints, refused unless both are at least 2 and T P <= MAX_GRID_POINTS."""
    if len(grid) != 2:
        raise DomainError(f"grid must have two entries, got {grid!r}")
    gt, gp = (_as_index(g, "grid entry") for g in grid)
    if gt < 2 or gp < 2:
        raise DomainError(f"grid must be at least 2x2, got {grid}")
    if gt * gp > MAX_GRID_POINTS:
        raise DomainError(f"grid {gt}x{gp} has more than {MAX_GRID_POINTS} directions")
    return gt, gp


def _grid_directions(grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """1-D theta and phi tables of the hemisphere scan of a ``_checked_grid`` T x P.

    theta_k = (k + 1/2) pi / T for k < ceil(T/2) and all P values of
    phi; for even T and P this grid is closed under n -> -n, so it
    holds every measurement of the full T x P sphere grid.
    """
    gt, gp = _checked_grid(grid)
    thetas = (np.arange((gt + 1) // 2) + 0.5) * np.pi / gt
    phis = np.arange(gp) * 2.0 * np.pi / gp
    return thetas, phis


def _tiles(thetas: np.ndarray, phis: np.ndarray, rows: int, cols: int):
    """The scan's tiles in row-major order: ``rows`` theta rows of at most ``cols`` phi values.

    Each tile's directions are built from the 1-D trig tables into one
    reused buffer.  Yields (grid index of its first cell, directions
    (3, cells)) for each tile.
    """
    st, ct, cp, sp = np.sin(thetas), np.cos(thetas), np.cos(phis), np.sin(phis)
    buf = _aligned(3 * rows * cols)
    for r in range(0, thetas.size, rows):
        sin_t, cos_t = st[r : r + rows, None], ct[r : r + rows, None]
        for c in range(0, phis.size, cols):
            cos_p, sin_p = cp[c : c + cols], sp[c : c + cols]
            n = buf[: 3 * sin_t.size * cos_p.size].reshape(3, sin_t.size, cos_p.size)
            np.multiply(sin_t, cos_p, out=n[0])
            np.multiply(sin_t, sin_p, out=n[1])
            n[2] = cos_t
            yield r * phis.size + c, n.reshape(3, -1)


def _patch_edges(thetas: np.ndarray, phis: np.ndarray, rows: int):
    """The screen's patches as (first, last, start, end): the first and last theta row of each
    block of ``rows`` rows and the first and last phi column of each patch of
    max(_PATCH_CELLS // rows, 1) columns.  Both start at 0, whatever the scan's tiles, and the
    last of each may be short.  Screen patch (i, j) is block i by patch j."""
    width = max(_PATCH_CELLS // rows, 1)
    first, start = np.arange(0, thetas.size, rows), np.arange(0, phis.size, width)
    last, end = np.minimum(first + rows, thetas.size) - 1, np.minimum(start + width, phis.size) - 1
    return first, last, start, end


def _luo_forms(bloch: np.ndarray, theta: np.ndarray, phi: np.ndarray):
    """x.n, 2 w.n and |T^T n|^2 = n^T M n of 2 r = [[1, y], [x, T]], w = T y and M = T T^T, on
    theta rows x phi columns: one product of (sin t, cos t, sin^2 t, sin t cos t, cos^2 t) with
    rows in phi, as the three forms are separable in theta and phi."""
    x, y, t = bloch[1:, 0], bloch[0, 1:], bloch[1:, 1:]
    m, v = t @ t.T, np.stack([x, 2.0 * (t @ y)])
    cs, right = np.stack([np.cos(phi), np.sin(phi)]), np.zeros((3, 5, phi.size))
    right[:2, 0], right[:2, 1], right[2, 4] = v[:, :2] @ cs, v[:, 2:], m[2, 2]
    right[2, 2], right[2, 3] = (cs * (m[:2, :2] @ cs)).sum(axis=0), 2.0 * m[2, :2] @ cs
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack([st, ct, st * st, st * ct, ct * ct], axis=1) @ right


def _luo_terms(bloch: np.ndarray, base, a: np.ndarray, w2: np.ndarray, c: np.ndarray, dr):
    """Sum over +/- of p h(z) (Luo, PRA 77, 042303, 2008), 2 p = base +/- a and
    r = |y +/- T^T n| + dr, from the ``_luo_forms`` a, w2, c of 2 r: with base = 1 and
    dr = 0 the objective itself.  h(z) = 1 - [(1 + z) log2(1 + z) + (1 - z) log2(1 - z)] / 2
    with z = r / (2 p) at most 1.  Adds |y|^2 to c in place."""
    y = bloch[0, 1:]
    out, den, z, h, log = np.zeros_like(a), *(np.empty_like(a) for _ in range(4))
    c += y @ y  # |y|^2 + |T^T n|^2, in the caller's array
    for op in (np.add, np.subtract):  # the outcomes of +n and of -n, in place in the scratch
        np.maximum(op(base, a, out=den), 0.0, out=den)  # twice p
        np.sqrt(np.maximum(op(c, w2, out=z), 0.0, out=z), out=z)
        z += dr  # r
        np.minimum(z, den, out=z)
        z /= np.maximum(den, np.finfo(float).tiny, out=h)  # 0 where p is 0
        _xlog2(np.subtract(1.0, z, out=h), log)
        z += 1.0
        h += np.multiply(z, np.log2(z, out=log), out=log)
        np.subtract(1.0, np.divide(h, 2.0, out=h), out=h)
        out += np.multiply(den, h, out=h)
    return np.divide(out, 2.0, out=out)


def _patch_middles(bloch: np.ndarray, thetas: np.ndarray, phis: np.ndarray, rows: int):
    """The two-qubit objective of 2 r at each ``_patch_edges`` patch's middle cell (middle row and
    column, the first of two), (blocks, patches): Luo's closed form, ``_luo_terms`` with no move."""
    first, last, start, end = _patch_edges(thetas, phis, rows)
    forms = _luo_forms(bloch, thetas[(first + last) // 2], phis[(start + end) // 2])
    return _luo_terms(bloch, 1.0, *forms, 0.0)


def _patch_bounds(bloch: np.ndarray, thetas: np.ndarray, phis: np.ndarray, rows: int):
    """Lower bounds of the two-qubit objective of 2 r on each ``_patch_edges`` patch, (blocks,
    patches).

    With 2 r = [[1, y], [x, T]] and w = T y, measuring +/-n gives p = (1 +/- a) / 2 with
    a = x.n, and leaves B with a Bloch vector of length z = r / (1 +/- a), where
    r = |y +/- T^T n| = sqrt(|y|^2 +/- 2 w.n + |T^T n|^2); the objective is the sum
    over +/- of p h(z) (``_luo_terms``), which grows with p at fixed r and falls with r.  Every
    cell n = n_c + d of a patch is within chord distance |d| <= delta of the patch's
    centre n_c, and d = d_t - |d|^2 n_c / 2 with d_t tangent at n_c, so
    |x.d| <= |x_t| delta + |a_c| delta^2 / 2, x_t the tangent part of x, and
    |T^T d| <= s delta + |T^T n_c| delta^2 / 2, s = min(|T|_2, sqrt(|T|_F^2 -
    |T^T n_c|^2)) bounding |T^T u| for unit tangent u.  So the least p and the
    largest r over the patch, z at most 1, bound each outcome's term from below.
    """
    x, t = bloch[1:, 0], bloch[1:, 1:]
    first, last, start, end = _patch_edges(thetas, phis, rows)
    t_lo, t_hi, p_lo, p_hi = thetas[first], thetas[last], phis[start], phis[end]
    t_c, p_c = (t_lo + t_hi) / 2.0, (p_lo + p_hi) / 2.0
    # |n - n_c|^2 = 4 sin^2(dt / 2) + 4 sin t sin t_c sin^2(dp / 2) for the cell at
    # (t_c + dt, p_c + dp): |dt| and |dp| are at most half the patch's spans, and
    # sin t <= sin t_hi on the upper hemisphere
    ht, hp = np.sin((t_hi - t_lo) / 4.0), np.sin((p_hi - p_lo) / 4.0)
    delta = np.outer(4.0 * np.sin(t_c) * np.sin(t_hi), hp * hp)
    delta += (4.0 * ht * ht)[:, None]
    np.sqrt(delta, out=delta)
    a, w2, c = _luo_forms(bloch, t_c, p_c)
    # the largest |x.d| and |T^T d| over each patch, in place so that few arrays of one value
    # a patch are alive at once
    half = delta * delta / 2.0
    da = np.sqrt(np.maximum(x @ x - a * a, 0.0))
    da *= delta
    da += np.abs(a) * half
    dr = np.sqrt(np.maximum((t @ t.T).trace() - c, 0.0))
    np.minimum(dr, np.linalg.norm(t, 2), out=dr)
    dr *= delta
    dr += np.sqrt(c) * half
    del delta, half
    return _luo_terms(bloch, np.subtract(1.0, da, out=da), a, w2, c, dr)


def _candidates(bloch: np.ndarray, kept: np.ndarray, trig, rows: int, size: int):
    """The cells of the ``_patch_edges`` patches that ``kept`` (blocks, patches) marks whose
    float32 objective of 2 r is at most the running float32 third best plus 2 SCAN_SCREEN_TOL.

    The kept patches are walked in ``np.nonzero`` order, as many as fill
    ``size`` directions at a time, built in float32 from the trig tables
    ``trig`` (sin theta, cos theta, cos phi, sin phi) cut by block and by
    patch, a short one padded with its last entry.  A buffer is laid out
    (rows, patches x width), so every product runs along a whole row, and
    its padded cells are set to +inf after the kernel, so a duplicate never
    lowers the running third best.  Its cells at most the third best after
    it plus 2 SCAN_SCREEN_TOL are yielded as sorted grid indices, in batches
    of at most half a buffer's cells, or one buffer's, so that a batch's
    float64 buffers (14 floats and 6 flags a cell) take about what the
    float32 buffer takes; a batch holds only the cells still within the
    running limit, as that only falls.  Yields None and stops at a NaN.
    """
    screen = _bloch_objective(bloch, np.float32)
    first, last, start, end = _patch_edges(trig[0], trig[2], rows)
    width = end[0] + 1 - start[0]  # of every patch but a short last one
    short_rows, short_cols = last[-1] + 1 - first[-1], end[-1] + 1 - start[-1]
    # sin and cos theta by (rows, blocks, width) and cos and sin phi by (patches, width), so a
    # buffer's are one take each
    row_of = np.minimum(first + np.arange(rows)[:, None], last)
    col_of = np.minimum(start[:, None] + np.arange(width), end[:, None])
    theta = np.repeat(np.array(trig[:2], np.float32)[:, row_of, None], width, axis=3)
    phi = np.array(trig[2:], np.float32)[:, col_of]
    per = max(size // (rows * width), 1)  # patches a buffer
    cap = per * rows * width
    buf, out = _aligned(3 * cap, np.float32), _aligned(cap, np.float32)
    third = np.full(3, np.inf, dtype=np.float32)  # the running three best
    found, count = [], 0  # (grid indices, values) of the cells kept and not yet yielded

    def batch(limit):
        cells, val = (np.concatenate(a) for a in zip(*found))
        return np.sort(cells[val <= limit])

    blocks, patches = np.nonzero(kept)
    for i in range(0, blocks.size, per):
        b, p = blocks[i : i + per], patches[i : i + per]
        n = buf[: 3 * rows * b.size * width].reshape(3, rows, b.size, width)
        np.take(theta, b, axis=2, out=n[1:], mode="clip")  # "raise" would buffer ``out``
        cos_p, sin_p = np.take(phi, p, axis=1)
        np.multiply(n[1], cos_p, out=n[0])
        np.multiply(n[1], sin_p, out=n[1])
        vals = screen(n, out=out[: n[0].size])
        if b[-1] == first.size - 1:  # the padded cells of the last block and of each last patch
            vals[short_rows:, b == b[-1]] = np.inf
        if short_cols < width:
            vals[:, p == start.size - 1, short_cols:] = np.inf
        least = vals.min()
        if np.isnan(least):
            yield None
            return
        if least < third[2]:
            low = vals.ravel() if vals.size <= 3 else np.partition(vals, 2, axis=None)[:3]
            third = np.sort(np.concatenate([third, low]))[:3]
        limit = float(third[2]) + 2 * SCAN_SCREEN_TOL
        if least > limit:
            continue
        pos = np.flatnonzero(vals <= limit)
        if count and count + pos.size > cap // 2:
            yield batch(limit)
            found, count = [], 0
        row, j, col = np.unravel_index(pos, vals.shape)
        found.append(((first[b[j]] + row) * trig[2].size + start[p[j]] + col, out[pos]))
        count += pos.size
    if count:
        yield batch(limit)


def _screen(
    objective, bloch: np.ndarray, thetas: np.ndarray, phis: np.ndarray, rows: int, cols: int
):
    """``_scan`` of the float64 ``objective`` of 2 r, evaluated only at the cells that the patch
    bounds and a float32 pass leave as candidates for the three best.

    E = SCAN_SCREEN_TOL bounds |f32 - f64| at every direction.  The grid is
    split into ``_patch_edges`` patches, and ``_patch_middles`` values the
    objective at each patch's middle cell, within 1e-10 of the float64 kernel.
    When those values spread by at most FLAT_SPREAD_TOL + 2 E (the flat rule
    may fire, so the scan must be exact) or one is NaN, the screen declines
    before any other pass.  Else their third smallest plus E, U, is at least
    the grid's exact third best, so a patch whose ``_patch_bounds`` is above
    U + E (E absorbing the bound's rounding) holds only float64 values above
    it and is dropped.  A cell of the exact three best has a float32 value at
    most T + 2 E, T the float32 third best of the other patches' cells, and
    the running third best of ``_candidates`` is never below T, so the cells
    it yields hold every cell of the exact three best and every cell tied
    with the third (its padded cells are +inf, so none counts twice).  Only
    those are evaluated in float64, at the directions that the exact scan
    builds, and folded into the minimum and the three best (``_merged``).
    Returns (min, max, seeds, seed values) equal to the exhaustive scan's but
    for max, the largest middle value, which is more than FLAT_SPREAD_TOL + E
    above min; or None when it declines or a float32 or float64 value is NaN.
    """
    middle = _patch_middles(bloch, thetas, phis, rows)
    least, hi = float(middle.min()), float(middle.max())
    if math.isnan(least) or hi - least <= FLAT_SPREAD_TOL + 2 * SCAN_SCREEN_TOL:
        return None
    limit = float(np.partition(middle, 2, axis=None)[2]) + 2 * SCAN_SCREEN_TOL  # U + E
    # the patches kept, (blocks, patches); a NaN bound keeps its patch
    kept = ~(_patch_bounds(bloch, thetas, phis, rows) > limit)
    st, ct, cp, sp = trig = (np.sin(thetas), np.cos(thetas), np.cos(phis), np.sin(phis))
    lo, best, seeds = np.inf, np.empty(0), np.empty(0, dtype=np.intp)
    for cells in _candidates(bloch, kept, trig, rows, rows * cols):
        if cells is None:
            return None
        if not cells.size:
            continue
        row, col = np.divmod(cells, phis.size)
        d = np.empty((3, cells.size))  # the products of ``_tiles``
        np.multiply(st[row], cp[col], out=d[0])
        np.multiply(st[row], sp[col], out=d[1])
        d[2] = ct[row]
        vals = objective(d)
        least = vals.min()
        if np.isnan(least):
            return None
        lo = np.minimum(lo, least)
        top = _three_smallest(vals)
        best, seeds = _merged(best, seeds, vals[top], cells[top])
    return float(lo), hi, seeds, best


def _scan(objective, thetas: np.ndarray, phis: np.ndarray, tile: int = _SCAN_TILE, bloch=None):
    """Minimum, maximum and the three best cells of the objective on the (theta, phi) grid.

    The grid is visited in row-major order, at most ``tile`` directions
    at a time (``_tiles``): whole theta rows, or a piece of one row when a
    row holds more than ``tile`` directions.  ``objective(n, out)``
    writes each tile's values into one reused tile-sized array, and the
    tile is folded into the running min and max (a NaN propagates, as in
    ``values.min()``) and the three best (value, grid index) pairs.
    Returns (min, max, seeds, seed values), seeds equal to
    ``argsort(values, kind="stable")[:3]`` of the whole grid, with no
    grid-sized array made.

    Given a two-qubit 2 r ``bloch`` and more than ``_SCREEN_TILES`` tiles,
    ``_screen`` runs first, and what it returns is returned: the seeds, their
    values and the minimum are those of the whole grid, evaluated in float64
    at a few hundred cells.  The maximum is then the largest of the screen's
    closed-form middle-cell values, more than FLAT_SPREAD_TOL + SCAN_SCREEN_TOL
    above the minimum, as the grid's spread is more than FLAT_SPREAD_TOL: the
    flat rule cannot fire.  When the screen declines, the scan is exact.
    """
    rows, cols = max(tile // phis.size, 1), min(phis.size, tile)
    tiles = -(-thetas.size // rows) * -(-phis.size // cols)
    if bloch is not None and tiles > _SCREEN_TILES:
        screened = _screen(objective, bloch, thetas, phis, rows, cols)
        if screened is not None:
            return screened
    out = _aligned(rows * cols)
    lo, hi = np.inf, -np.inf
    best, seeds = np.empty(0), np.empty(0, dtype=np.intp)
    for start, n in _tiles(thetas, phis, rows, cols):
        vals = objective(n, out=out[: n.shape[1]])
        tile_lo = vals.min()
        lo = np.minimum(lo, tile_lo)
        hi = np.maximum(hi, vals.max())
        # The only fold that relies on grid order: earlier cells have lower
        # grid indices, so a tile whose minimum only ties the third best adds
        # nothing.  A NaN on either side compares False, so that tile is
        # searched (NaN sorts after every number).
        if best.size == 3 and tile_lo >= best[2]:
            continue
        top = _three_smallest(vals)
        best, seeds = _merged(best, seeds, vals[top], start + top)
    return float(lo), float(hi), seeds, best


def _merged(best: np.ndarray, seeds: np.ndarray, vals: np.ndarray, cells: np.ndarray):
    """The three best of the (value, grid index) pairs (best, seeds) and (vals, cells), ties broken
    by grid index and NaN last, so the cells may come in any grid order."""
    best, seeds = np.concatenate([best, vals]), np.concatenate([seeds, cells])
    keep = np.lexsort((seeds, best))[:3]
    return best[keep], seeds[keep]


def _three_smallest(vals: np.ndarray) -> np.ndarray:
    """Indices of the three smallest values, equal to argsort(kind="stable")[:3]."""
    if vals.size > 3:
        kth = np.partition(vals, 2)[2]
        if not np.isnan(kth):  # else fewer than three are numbers: NaN sorts last
            cand = np.flatnonzero(vals <= kth)
            return cand[np.argsort(vals[cand], kind="stable")[:3]]
    return np.argsort(vals, kind="stable")[:3]


def _minimize_over_directions(
    objective, thetas: np.ndarray, phis: np.ndarray, tile: int = _SCAN_TILE, bloch=None
):
    """Scan of the hemisphere grid whose ``_grid_directions`` tables are given, then
    refinement of the best 3 cells.

    ``objective(n, out=None)`` must map directions of shape (3, ...) to
    values of shape (...), into ``out`` when given, with f(n) = f(-n).
    ``_scan`` returns the grid's min and max and its three best cells
    (ties by grid index) with their values; given a two-qubit 2 r
    ``bloch``, it may screen a fine grid in float32 instead, with the same
    seeds, values and minimum.  The flat rule: when the
    spread max - min is at most FLAT_SPREAD_TOL (on a grid of at least
    two theta rows and five phi columns) the objective is flat: every
    measurement is optimal, the grid minimum is returned with the
    canonical pole theta = phi = 0, and nothing is refined.  It serves
    pure entangled states (flat, but not spheres), flat qubit-qudit states
    and the brute-force geometric discord; the rows of ``_rule_measurements``,
    products and spheres among them, never reach the scan.  Otherwise
    ``_refine`` moves the three seeds, and the value reported is
    ``objective`` at the canonical angles (``_measurement_angles``) of
    the best of them, so theta is at most pi/2.
    Returns (value, theta, phi); deterministic (ties broken by grid
    and seed order).
    """
    lo, hi, seeds, values = _scan(objective, thetas, phis, tile, bloch)
    # Two theta rows and five phi columns are the fewest that tell every
    # quadratic n^T M n apart from a constant, so a coarser scan cannot
    # vouch for flatness: on one row, cc_state(diag(.5, .5)) looks flat.
    if thetas.size > 1 and phis.size > 4 and hi - lo <= FLAT_SPREAD_TOL:
        return lo, 0.0, 0.0
    row, col = np.divmod(seeds, phis.size)
    theta, phi = _measurement_angles(_refine(objective, _direction(thetas[row], phis[col]), values))
    val = objective(_direction(theta, phi))
    k = int(np.argmin(val))
    return float(val[k]), float(theta[k]), float(phi[k])


# (a, b) offsets of the 8 stencil points n + h (a e_theta + b e_phi): the
# 3 x 3 block around n in row-major order, without its centre.
_STENCIL = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b], dtype=float)


def _stencil(pts: np.ndarray) -> list:
    """The 8 stencil points around the unit directions ``pts[:, :, 0]``, in place.

    ``pts`` (3, k, 9) holds each centre, then its points in ``_STENCIL``
    order.  Returns each centre's frame (e_theta, e_phi).  The offset of
    the point at (a, b) is -/+ h times e_theta + e_phi, e_theta,
    e_theta - e_phi or e_phi (minus for the first four, plus for the last
    four in reverse), which is bit for bit h (a e_theta + b e_phi).
    """
    h = DIFFERENCE_STEP
    c = pts[:, :, 0]
    frames, offsets = [], ([], [], [])
    for (x, y, z), rxy in zip(c.T.tolist(), np.hypot(c[0], c[1]).tolist()):
        cos, sin = (x / rxy, y / rxy) if rxy > 0.0 else (1.0, 0.0)
        e_theta, e_phi = (z * cos, z * sin, -rxy), (-sin, cos, 0.0 * cos)
        frames.append((e_theta, e_phi))
        for row, a, b in zip(offsets, e_theta, e_phi):
            hs, ht, hd, hp = h * (a + b), h * a, h * (a - b), h * b
            row += (-hs, -ht, -hd, -hp, hp, hd, ht, hs)
    p = pts[:, :, 1:]
    np.add(c[:, :, None], np.array(offsets).reshape(p.shape), out=p)
    p /= np.sqrt((p * p).sum(axis=0))
    return frames


def _newton_steps(values: list, frames: list) -> list:
    """Newton steps xi from rows of stencil values (centre first) and the centres' frames.

    The 2 x 2 algebra runs on Python floats, one IEEE operation each, in
    the order of the array expressions it replaces, so the bits are
    numpy's; for a few seeds it costs a fraction of the array calls.
    """
    h, hh = DIFFERENCE_STEP, DIFFERENCE_STEP * DIFFERENCE_STEP
    grads, hessians = [], []
    for f, v0, v1, v2, v3, v4, v5, v6, v7 in values:
        grads.append(((v6 - v1) / (2.0 * h), (v4 - v3) / (2.0 * h)))
        h_tt, h_pp = (v6 - 2.0 * f + v1) / hh, (v4 - 2.0 * f + v3) / hh
        h_tp = (v7 - v5 - v2 + v0) / 4.0 / hh
        hessians += (h_tt, h_tp, h_tp, h_pp)
    mu, vec = np.linalg.eigh(np.array(hessians).reshape(-1, 2, 2))
    steps = []
    for (g0, g1), (m0, m1), ((a, b), (c, d)), (e_theta, e_phi) in zip(
        grads, mu.tolist(), vec.tolist(), frames
    ):
        # -vec diag(1/mu) vec^T g, each |curvature| at least CURVATURE_CUTOFF
        y0 = (a * g0 + c * g1) / max(abs(m0), CURVATURE_CUTOFF)
        y1 = (b * g0 + d * g1) / max(abs(m1), CURVATURE_CUTOFF)
        s0, s1 = -(a * y0 + b * y1), -(c * y0 + d * y1)
        steps.append([u * s0 + w * s1 for u, w in zip(e_theta, e_phi)])
    return steps


def _refine(objective, seeds: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Safeguarded Riemannian Newton refinement of unit directions (3, k) with values (k,).

    All seeds move together.  Around each point n the 8 stencil points
    normalize(n + h (a e_theta + b e_phi)), h = DIFFERENCE_STEP, give
    the tangent gradient and Hessian by central differences.
    Normalizing is a second-order retraction, so this is the
    Riemannian Hessian (Absil, Mahony & Sepulchre 2008, ch. 4-6).  Its
    eigenvalues are replaced by their absolute values, floored at
    CURVATURE_CUTOFF, so every step xi is a descent direction.  Each
    iteration makes one objective call, of shape (3, k, 9): every
    seed's trial point normalize(n + t xi), centre first, with its own
    stencil.  A trial is accepted only when its value is strictly lower,
    and then its stencil is already known; otherwise t halves, and after
    an accepted step t is 1 again.  So a refinement costs one call for
    the seeds' stencils and one per iteration.  A seed stops once t |xi|
    is at most NEWTON_TOL, and the loop after NEWTON_ITER_CAP
    iterations.  Returns the refined directions, none higher than its seed.
    """
    k = values.size
    pts = np.empty((3, k, 9))
    pts[:, :, 0] = seeds
    frames = _stencil(pts)
    vals = np.empty((k, 9))  # the last call's values: each centre, then its stencil
    vals[:, 0] = values
    vals[:, 1:] = objective(pts[:, :, 1:])
    n, f = seeds.T.tolist(), values.tolist()
    t, xi, size = [1.0] * k, [None] * k, [0.0] * k
    fresh = list(range(k))  # the seeds that moved to the last call's centre
    for _ in range(NEWTON_ITER_CAP):
        if fresh:
            rows = vals.tolist()
            steps = _newton_steps([rows[i] for i in fresh], [frames[i] for i in fresh])
            for i, (x, y, z) in zip(fresh, steps):
                xi[i], size[i] = (x, y, z), math.sqrt(x * x + y * y + z * z)
        moving = [ti * si > NEWTON_TOL for ti, si in zip(t, size)]
        if not any(moving):
            break
        trials = []
        for (x, y, z), (dx, dy, dz), ti, mi in zip(n, xi, t, moving):
            ti = ti if mi else 0.0
            x, y, z = x + ti * dx, y + ti * dy, z + ti * dz
            norm = math.sqrt(x * x + y * y + z * z)
            trials.append((x / norm, y / norm, z / norm))
        pts[:, :, 0] = np.array(trials).T
        frames = _stencil(pts)
        vals = objective(pts)
        fresh = []
        for i, value in enumerate(vals[:, 0].tolist()):
            if moving[i] and value < f[i]:
                fresh.append(i)
                n[i], f[i], t[i] = trials[i], value, 1.0
            else:
                t[i] /= 2.0
    return np.array(list(zip(*n)))


def classical_correlation(
    rho: DensityMatrix, grid: tuple[int, int] = DEFAULT_GRID
) -> tuple[float, Measurement]:
    """Maximal classical mutual information over projective qubit measurements on A.

    Returns S(B) minus the minimized conditional entropy, together with
    the minimizing measurement.  Three rules decide a state without
    refining.  The zero-discord rule (classical-quantum states) and the
    axis rule (two-qubit x = T y = 0) are found by ``_classify`` before any
    scan and measured by ``_rule_measurements``, which states them; the
    value returned is the one measured at the rule's direction.  The flat
    rule of ``_minimize_over_directions`` reads a constant objective from
    the scan and reports the pole.  Otherwise the reported value is
    accurate to about 1e-6 bits at the default grid.  The grid is checked
    on every path.  The work bound MAX_QUDIT_SCAN_WORK (``_scan_tables``)
    is checked before any rule, and depends only on d_B and the grid: a
    (2, d_B > 2) state over it is refused even when a rule would decide it
    with no scan, such as I/48 with legs (2, 24) at the default grid.
    """
    m = rho.matrix[None]
    parts = _measured_parts(m, rho.legs)
    grid = _scan_tables(grid, rho.legs[1])
    sb = _local_entropies(parts)[1] if rho.legs == (2, 2) else _marginal_entropies(m, rho.legs, 1)
    axis, zero, u, s = _classify(parts)
    classical, measurements = _classical_correlations(parts, axis, zero, u, s, sb, rho.legs[1], grid)
    return float(classical[0]), measurements[0]


def _scan_tables(grid: tuple[int, int], db: int) -> tuple[int, int]:
    """The ``_checked_grid``, refused when a (2, d_B) search on it costs too much.

    Its ``_grid_directions`` tables are built only when a row is searched.
    """
    gt, gp = _checked_grid(grid)
    dirs = (gt + 1) // 2 * gp
    work = (dirs + _REFINE_DIRECTIONS) * db**3
    if work > MAX_QUDIT_SCAN_WORK:
        fits = (2 + _REFINE_DIRECTIONS) * db**3 <= MAX_QUDIT_SCAN_WORK  # 2x2 scans the fewest, 2
        raise DomainError(
            f"a (2, {db}) state on grid {grid[0]}x{grid[1]} needs {dirs} scan + {_REFINE_DIRECTIONS}"
            f" refinement directions x {db}^3 = {work} > {MAX_QUDIT_SCAN_WORK};"
            f" {'a coarser grid' if fits else 'no grid'} admits it"
        )
    return gt, gp


def _classical_correlations(parts: np.ndarray, axis, zero, u, s, sb: np.ndarray, db: int, grid):
    """``classical_correlation`` of each (2, d_B) state in a stack, from its
    ``_measured_parts``, their ``_classify``, S(B) and the grid of ``_scan_tables``.

    The rows of the axis and zero-discord rules are measured together by
    ``_rule_measurements``; every other row is scanned and refined on its
    own, on the grid's tables, built when the first such row comes.
    """
    vals = np.empty(len(parts))
    theta, phi = np.zeros((2, len(parts)))
    ruled = axis | zero
    if ruled.any():
        vals[ruled], theta[ruled], phi[ruled] = _rule_measurements(
            parts[ruled], u[ruled], s[ruled], zero[ruled]
        )
    searched = np.flatnonzero(~ruled)
    if searched.size:
        tables = _grid_directions(grid)
        tile = max(_SCAN_TILE * 4 // db**2, 1)
        for i in searched:
            vals[i], theta[i], phi[i] = _minimize_over_directions(
                _conditional_entropy_objective(parts[i]), *tables, tile,
                parts[i] if db == 2 else None,
            )
    return sb - vals, [qubit_measurement(t, p) for t, p in zip(theta.tolist(), phi.tolist())]


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Bundle of every correlation measure for one bipartite state.

    ``geometric_discord`` and ``concurrence`` are None when the B side
    is not a qubit (they are two-qubit quantities).  On a classical-quantum
    state ``discord`` is exactly 0 and ``classical`` equals ``total``;
    ``argmin_measurement`` is its classical basis.  The pole theta = phi = 0
    is the ``argmin_measurement`` whenever it is optimal on a flat objective
    (``_minimize_over_directions``) or on a rule row (``_rule_measurements``,
    which states both rules), so on every product and every sphere.
    """

    total: float
    classical: float
    discord: float
    geometric_discord: float | None
    concurrence: float | None
    negativity: float
    argmin_measurement: Measurement


def discord(rho: DensityMatrix, grid: tuple[int, int] = DEFAULT_GRID) -> CorrelationReport:
    """Quantum discord (total minus classical correlation) with full report, in one pass.

    A classical-quantum state is reported with discord exactly 0 and
    classical equal to total, once the value measured at the rule's
    direction has passed the sign checks.
    """
    legs = _require_bipartite(rho.legs, "discord")
    m = rho.matrix[None]
    return _reports(m, rho.eigenvalues[None], _measured_parts(m, legs), legs, grid)[0]


def _reports(
    m: np.ndarray, lam: np.ndarray, parts: np.ndarray, legs: tuple[int, int],
    grid: tuple[int, int],
) -> list[CorrelationReport]:
    """``discord`` of each state in a stack (N, d, d) with spectra lam (N, d) and its
    ``_measured_parts``, in one pass.

    Every check of the single-state path runs on every row, and the
    first failing row raises.
    """
    grid = _scan_tables(grid, legs[1])  # a bad grid is refused on every path
    if legs == (2, 2):
        sa, sb = _local_entropies(parts)
    else:
        sa, sb = _marginal_entropies(m, legs, 0), _marginal_entropies(m, legs, 1)
    total = sa + sb - _entropies(lam)
    axis, zero, u, s = _classify(parts)
    classical, measurements = _classical_correlations(parts, axis, zero, u, s, sb, legs[1], grid)
    disc = total - classical
    sign_tol = -CORRELATION_SIGN_TOL
    bad = (disc < sign_tol) | (classical < sign_tol) | (total < -TOTAL_SIGN_TOL)
    if bad.any():
        i = np.argmax(bad)
        raise ArithmeticError(
            f"inconsistent correlations: total={float(total[i])}, classical={float(classical[i])},"
            f" discord={float(disc[i])}"
        )
    # rounding may break 0 <= classical <= total by a few ulps; report inside it
    total = np.maximum(total, 0.0)
    classical = np.minimum(np.maximum(classical, 0.0), total)
    # a zero-discord row is reported exactly so, once its measured value passed the checks
    classical[zero] = total[zero]
    disc = total - classical
    if legs == (2, 2):
        geometric = _geometric_discords(s, zero).tolist()
        conc = _concurrences(m).tolist()
    else:
        geometric = conc = [None] * len(m)
    return [
        CorrelationReport(
            total=t, classical=c, discord=d, geometric_discord=g, concurrence=k, negativity=n,
            argmin_measurement=a,
        )
        for t, c, d, g, k, n, a in zip(
            total.tolist(), classical.tolist(), disc.tolist(), geometric, conc,
            _negativities(m, legs).tolist(), measurements,
        )
    ]


def geometric_discord(rho: DensityMatrix, method: str = "closed-form") -> float:
    """Squared Hilbert-Schmidt distance to the nearest zero-discord state.

    The default is the two-qubit closed form (sigma_2^2 + sigma_3^2) / 4
    (``_geometric_discords``) with sigma the singular values of
    B = [x | T] that ``_classify`` takes.  ``method="brute-force"`` instead minimizes
    the distance over the zero-discord set directly (exactly over the
    B-side outcome states for each measurement basis, numerically over the
    basis direction on the default grid) and serves as the validation oracle.
    """
    if rho.legs != (2, 2):
        raise DomainError(f"geometric_discord requires legs (2, 2), got {rho.legs}")
    if method == "closed-form":
        _, zero, _, s = _classify(_measured_parts(rho.matrix[None], rho.legs))
        return float(_geometric_discords(s, zero)[0])
    if method == "brute-force":
        # the real and imaginary parts of the entries of each G_i, (4, 8)
        g = np.ascontiguousarray(_pauli_parts(rho.matrix[None], 2)[0]).view(float).reshape(4, 8)
        pur = rho.purity()

        def objective(n, out=None):
            # the entries of both outcomes' 2 X = G_0 +/- n.G as 16 real rows, one matrix product
            # for n.G, squared and summed in place: sum |X|^2 = sum (2 X)^2 / 4
            k = n[0].size
            x = np.empty((2, 8, k))
            np.matmul(g[1:].T, n.reshape(3, k), out=x[1])
            np.add(g[0, :, None], x[1], out=x[0])
            np.subtract(g[0, :, None], x[1], out=x[1])
            np.multiply(x, x, out=x)
            t = x.reshape(16, k).sum(axis=0)
            t /= 4.0
            return np.subtract(pur, t.reshape(n.shape[1:]), out=out)

        val, _, _ = _minimize_over_directions(objective, *_grid_directions(DEFAULT_GRID))
        return float(val)
    raise DomainError(f"unknown geometric_discord method {method!r}")


def _geometric_discords(s: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """(sigma_2^2 + sigma_3^2) / 4 from the singular values (N, 3) of each B = [x | T].

    Dakic, Vedral & Brukner's (|x|^2 + |T|^2 - k_max) / 4 (PRL 105, 190502, 2010),
    k_max = sigma_1^2, with no cancelling difference.  It is exactly 0 on the
    zero-discord rows of ``_classify``, where ``discord`` reports 0 too.
    """
    gd = (s[:, 1] * s[:, 1] + s[:, 2] * s[:, 2]) / 4.0
    return np.where(zero, 0.0, gd)


# sigma_y x sigma_y, the spin flip of Wootters' concurrence
_YY = np.kron(PAULI_MATRICES[2], PAULI_MATRICES[2])


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state.

    With rho = X X^dagger, X = V diag(sqrt(w)), the l_i (square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy)) are the singular
    values of X^T (sy x sy) X.  Differences at most ENTANGLEMENT_FLOOR
    are reported as exactly 0.
    """
    if rho.legs != (2, 2):
        raise DomainError(f"concurrence requires legs (2, 2), got {rho.legs}")
    return float(_concurrences(rho.matrix[None])[0])


def _concurrences(m: np.ndarray) -> np.ndarray:
    """``concurrence`` of each two-qubit density matrix in a stack (N, 4, 4)."""
    w, v = np.linalg.eigh(m)
    x = v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    lam = np.linalg.svd(np.swapaxes(x, 1, 2) @ _YY @ x, compute_uv=False)
    c = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    return np.where(c <= ENTANGLEMENT_FLOOR, 0.0, c)


def negativity(rho: DensityMatrix) -> float:
    """Sum of negative eigenvalues (absolute) of the partial transpose on B.

    Sums at most ENTANGLEMENT_FLOOR are reported as exactly 0.
    """
    return float(_negativities(rho.matrix[None], _require_bipartite(rho.legs, "negativity"))[0])


def _negativities(m: np.ndarray, legs: tuple[int, int]) -> np.ndarray:
    """``negativity`` of each state in a stack (N, d, d) with legs (d_A, d_B)."""
    da, db = legs
    d = da * db
    t = m.reshape(-1, da, db, da, db).transpose(0, 1, 4, 3, 2).reshape(-1, d, d)
    neg = np.clip(-np.linalg.eigvalsh(t), 0.0, None).sum(axis=-1)
    return np.where(neg <= ENTANGLEMENT_FLOOR, 0.0, neg)
