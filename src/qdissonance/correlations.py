"""Correlation quantifiers for bipartite states.

Entropic quantities (total correlation, classical correlation via
measurement optimization, quantum discord), the Hilbert-Schmidt
geometric discord (closed form and a brute-force oracle mode), and the
two-qubit entanglement measures (concurrence, negativity).  All
entropies are in bits.

The measurement optimization scans a deterministic grid over the
upper Bloch hemisphere (n and -n are the same projective measurement,
with the outcomes swapped), tile by tile into one value array, each
tile's directions built from the 1-D trig tables into one reused
buffer.  It refines the best three cells together with one safeguarded
Riemannian Newton method on the sphere, whose gradient and Hessian are
central differences on an 8-point stencil, so repeated runs give
identical results.  The same refinement serves the two-qubit and qubit-qudit
objectives and the brute-force geometric discord.  Two rules find
an objective on which every measurement is optimal, and report the
pole theta = phi = 0 without refining.  The sphere rule comes first
and needs no scan: a two-qubit state whose Bloch data has x = T y = 0
and T T^T prop. to I, to ``qla.SPHERE_TOL`` (Werner states, the
protocols' outputs and their local rotations), gets the objective at
the pole.  The flat rule reads the scan: when its spread max - min is
at most ``qla.FLAT_SPREAD_TOL`` (on a grid of at least 3 x 5) the grid
minimum is returned (product and pure states, which are flat but not
spheres, and flat qubit-qudit states).
Measuring +/-n on A leaves B in the unnormalized states
(G_0 +/- n.G)/2 with G_i = Tr_A[(sigma_i x I) rho]; the conditional
entropy is the entropy of their spectra.  For a qubit B the spectrum
is Luo's closed form (PRA 77, 042303, 2008) from the Pauli
coefficients of the G_i, so no matrices are formed; otherwise it is
eigvalsh.  One kernel, ``_bloch_values``, evaluates the two-qubit form
for the scan, the refinement's stencils and the sphere rule's pole.  It
works in place in buffers that a scan allocates once: per direction a
4 x 3 matrix product, a norm and six logarithms, 40-55 ns on the
640 x 1280 grid (2-core Xeon VM, one BLAS thread).

Every state goes through one pass, ``_reports``, which takes a stack
of N states (N, d, d) with their spectra: ``discord`` is its N = 1
case, and ``cli.sweep_rows`` and ``protocols.certify`` call it with
the witness.  Its kernels take the stack: the measured parts
(``_measured_parts``, the correlation matrices for two qubits),
``_marginal_entropies`` and ``_entropies``, ``_is_sphere`` and the
objective at the pole for every sphere row (``_pole_values``),
``_closed_form_geometric_discord`` (a batched 3 x 3 eigvalsh),
``_concurrences`` (batched eigh and svd) and ``_negativities``
(batched eigvalsh); the sign checks and clamps of ``discord`` are
applied elementwise.  A row that is not a sphere is scanned and
refined on its own by ``_minimize_over_directions``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qla import (
    CORRELATION_SIGN_TOL, CURVATURE_CUTOFF, DIFFERENCE_STEP, ENTANGLEMENT_FLOOR, FLAT_SPREAD_TOL,
    NEWTON_ITER_CAP, NEWTON_TOL, POLE_CUTOFF, PROB_CUTOFF, SPHERE_TOL, TOTAL_SIGN_TOL,
    DensityMatrix, DomainError, _as_index, _hermitian,
)
from .witness import PAULI_MATRICES, WitnessReport, _correlation_matrices, _witness_reports

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
# The scan keeps one float per hemisphere direction, and picking its seeds
# copies them once: 6.3 MiB on the 640x1280 oracle grid, where discord peaks
# at 7.1 MiB under tracemalloc, and 16 MiB at this cap, ~2.5x that grid.
# Larger grids are rejected before the scan allocates anything.
MAX_GRID_POINTS = 2**21
# Two-qubit directions per objective call in the grid scan, rounded down to
# whole theta rows: bounds the kernel's buffers (14 floats per direction,
# 0.9 MB at 2**13).  On the 640x1280 grid tiles of 2**13 to 2**15 scan in
# 18-25 ms, 2**12 in 25-30 ms and 2**16 in 25-29 ms (2-core Xeon VM, one
# BLAS thread); 2**13 has the smallest buffers of the fastest.
# A (2, d_B) scan takes 4/d_B**2 as many, so a tile holds as many entries.
_SCAN_TILE = 2**13
# Hemisphere directions x d_B**3 a (2, d_B) scan may cost (one d_B x d_B
# eigvalsh per outcome per direction): admits two qubits on every grid, (2, 16)
# at the default grid and (2, 3) at the largest, and refuses (2, 32) at the default.
MAX_QUDIT_SCAN_WORK = 2**26


def _direction(theta, phi) -> np.ndarray:
    """Bloch unit vector n(theta, phi) along the first axis; broadcasts over arrays."""
    return np.stack(
        np.broadcast_arrays(np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    )


@dataclass(frozen=True)
class Measurement:
    """Rank-1 projective qubit measurement along the Bloch direction (theta, phi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (np.isfinite(self.theta) and np.isfinite(self.phi)):
            raise DomainError(f"measurement angles must be finite, got ({self.theta}, {self.phi})")


def qubit_measurement(theta: float, phi: float) -> Measurement:
    """The measurement along n(theta, phi), with the angles cast to float."""
    return Measurement(theta=float(theta), phi=float(phi))


def _angles(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical angles theta in [0, pi], phi in [0, 2 pi) of unit vectors n, shape (3, ...)."""
    nx, ny, nz = n
    pole = (np.abs(nx) < POLE_CUTOFF) & (np.abs(ny) < POLE_CUTOFF)
    phi = np.where(pole, 0.0, np.arctan2(ny, nx) % (2.0 * np.pi))
    return np.arccos(np.clip(nz, -1.0, 1.0)), phi


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
    _require_bipartite(rho.legs, "total_correlation")
    m = rho.matrix[None]
    sb = _marginal_entropies(m, rho.legs, 1)
    return float(_mutual_information(m, rho.eigenvalues[None], rho.legs, sb)[0])


def _marginal_entropies(m: np.ndarray, legs: tuple[int, int], keep: int) -> np.ndarray:
    """S(A) (keep = 0) or S(B) (keep = 1) of each state in a stack (N, d, d), legs (d_A, d_B).

    Each marginal is made as ``partial_trace`` makes it: its Hermitian
    part, then eigvalsh.
    """
    da, db = legs
    t = m.reshape(-1, da, db, da, db)
    marginal = np.einsum("xabcb->xac", t) if keep == 0 else np.einsum("xabae->xbe", t)
    return _entropies(np.linalg.eigvalsh(_hermitian(marginal)))


def _mutual_information(
    m: np.ndarray, lam: np.ndarray, legs: tuple[int, int], sb: np.ndarray
) -> np.ndarray:
    """S(A) + S(B) - S(AB) of each state in a stack, given its spectra lam and S(B)."""
    return _marginal_entropies(m, legs, 0) + sb - _entropies(lam)


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
    return np.stack([x0 + nx, x0 - nx]) / 2.0


def _matrix_spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the matrices on axes 1 and 2, on a new first axis."""
    return np.moveaxis(np.linalg.eigvalsh(np.moveaxis(m, (1, 2), (-2, -1))), -1, 0)


def _cond_entropy_terms(lam: np.ndarray) -> np.ndarray:
    """p_a S(rho_B|a) of each outcome from its unnormalized eigenvalues (first axis)."""
    lam = np.clip(lam, 0.0, None)
    p = lam.sum(axis=0)
    return _xlog2(p) - _xlog2(lam).sum(axis=0)


def _bloch_values(x0: np.ndarray, w: np.ndarray, mask: np.ndarray | None = None, out=None):
    """The two-qubit objective, in place in ``w`` (2, 7, N), from B^T n in ``w[0, :4]``.

    With x0 = 2 r[0] (broadcast to (4, N)) and B = 2 r[1:] the rows of
    2 r = [[1, y], [x, T]], measuring +/-n leaves B with the Pauli coefficients
    a = x0 +/- B^T n of twice its unnormalized state, whose eigenvalues
    are (a_0 -/+ |a_1..3|) / 4 (Luo, PRA 77, 042303, 2008).  The two
    halvings of the Bloch form fold into that one exact x 0.25, so the
    values are bit for bit those of halving first.  ``w[:, 4:]`` and
    ``mask`` (bool, (2, 3, N)) are scratch for ``_xlog2``.  Returns
    sum over outcomes of p log2 p - sum(lam log2 lam), into ``out``.
    """
    a = w[:, :4]
    np.subtract(x0, a[0], out=a[1])
    np.add(x0, a[0], out=a[0])
    np.multiply(a[:, 1:], a[:, 1:], out=a[:, 1:])
    np.add(a[:, 1], a[:, 2], out=a[:, 1])
    rad = np.add(a[:, 1], a[:, 3], out=a[:, 1])
    np.sqrt(rad, out=rad)
    lam = a[:, 2:]  # the two eigenvalues of each outcome
    np.subtract(a[:, 0], rad, out=lam[:, 0])
    np.add(a[:, 0], rad, out=lam[:, 1])
    np.multiply(lam, 0.25, out=lam)
    np.maximum(lam, 0.0, out=lam)
    np.add(lam[:, 0], lam[:, 1], out=a[:, 1])  # the outcome probabilities p
    ent = _xlog2(a[:, 1:], w[:, 4:], mask)  # p log2 p, then lam log2 lam
    np.add(ent[:, 1], ent[:, 2], out=ent[:, 1])
    np.subtract(ent[:, 0], ent[:, 1], out=ent[:, 0])
    return np.add(ent[0, 0], ent[1, 0], out=out)


def _bloch_objective(bloch: np.ndarray):
    """The two-qubit objective of one 2 r (4, 4): ``_bloch_values`` of B^T n.

    Its buffers are kept from call to call and grow to the largest
    call, so a scan allocates them at its first tile and the refinement
    reuses them; a call on its own allocates only its own size.
    """
    bt, x0 = bloch[1:].T, bloch[0][:, None]
    work, mask = np.empty(0), np.empty(0, dtype=bool)

    def objective(n, out=None):
        nonlocal work, mask
        size = n[0].size
        if mask.size < 6 * size:
            work, mask = np.empty(14 * size), np.empty(6 * size, dtype=bool)
        w = work[: 14 * size].reshape(2, 7, size)
        np.matmul(bt, n.reshape(3, size), out=w[0, :4])
        vals = _bloch_values(x0, w, mask[: 6 * size].reshape(2, 3, size), out)
        return vals.reshape(n.shape[1:])

    return objective


def _measured_parts(m: np.ndarray, legs: tuple[int, ...]) -> np.ndarray:
    """The Pauli parts that measuring A splits into its two outcomes, for a stack (N, d, d).

    For two qubits, Luo's Bloch data 2 r = [[1, y], [x, T]] (r the
    correlation matrix), the Pauli coefficients of 2 G_i, shape (N, 4, 4);
    otherwise the G_i, shape (N, 4, d_B, d_B).
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


def _is_sphere(bloch: np.ndarray) -> np.ndarray:
    """Whether the conditional entropy is constant on the sphere, for each 2 r of a stack.

    With 2 r = [[1, y], [x, T]], measuring +/-n leaves B with Pauli
    coefficients (1 +/- x.n, y +/- T^T n)/2, so the objective is
    g(x.n, w.n, n^T M n) with w = T y and M = T T^T.  It is constant
    when x = w = 0 and M = |T|^2 I / 3 (Girolami & Adesso, PRA 83,
    052108, 2011): Werner states and their local rotations.  Each
    equality holds to SPHERE_TOL, |x| absolutely and |w|, |M - |T|^2 I / 3|
    relative to |T| (Frobenius), the sizes their rounding takes.
    """
    x = bloch[:, 1:, 0]
    t = bloch[:, 1:, 1:]
    m = t @ np.swapaxes(t, 1, 2)
    tt = np.trace(m, axis1=1, axis2=2)  # |T|^2
    w = (t @ bloch[:, 0, 1:, None])[..., 0]
    dev = m - tt[:, None, None] / 3.0 * np.eye(3)
    return (
        (_dots(x) <= SPHERE_TOL**2)
        & (_dots(w) <= SPHERE_TOL**2 * tt)
        & ((dev * dev).sum(axis=(1, 2)) <= SPHERE_TOL**2 * tt)
    )


def _dots(v: np.ndarray) -> np.ndarray:
    """v . v of each row of a stack (N, k), each row its own matrix product.

    So a row's rounding is that of the 1-D ``v @ v`` and does not depend on N.
    """
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _pole_values(bloch: np.ndarray) -> np.ndarray:
    """The two-qubit objective at the pole theta = phi = 0 of each 2 r in a stack (N, 4, 4)."""
    w = np.empty((2, 7, len(bloch)))
    w[0, :4] = bloch[:, 3].T  # B^T n at n = (0, 0, 1) is row 3 of 2 r, exactly
    return _bloch_values(bloch[:, 0].T, w)


def conditional_entropy_after(rho: DensityMatrix, m: Measurement) -> float:
    """Average post-measurement B entropy sum_a p_a S(rho_B|a) in bits.

    Outcomes with probability below 1e-14 are skipped.
    """
    objective = _conditional_entropy_objective(_measured_parts(rho.matrix[None], rho.legs)[0])
    return float(objective(_direction(m.theta, m.phi)))


def _grid_directions(grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """1-D theta and phi tables of the hemisphere scan of a T x P grid.

    theta_k = (k + 1/2) pi / T for k < ceil(T/2) and all P values of
    phi; for even T and P this grid is closed under n -> -n, so it
    holds every measurement of the full T x P sphere grid.
    """
    if len(grid) != 2:
        raise DomainError(f"grid must have two entries, got {grid!r}")
    gt, gp = (_as_index(g, "grid entry") for g in grid)
    if gt < 2 or gp < 2:
        raise DomainError(f"grid must be at least 2x2, got {grid}")
    if gt * gp > MAX_GRID_POINTS:
        raise DomainError(f"grid {gt}x{gp} has more than {MAX_GRID_POINTS} directions")
    thetas = (np.arange((gt + 1) // 2) + 0.5) * np.pi / gt
    phis = np.arange(gp) * 2.0 * np.pi / gp
    return thetas, phis


def _scan(objective, thetas: np.ndarray, phis: np.ndarray, tile: int = _SCAN_TILE) -> np.ndarray:
    """Objective on every (theta, phi) pair in row-major order, at most ``tile`` at a time.

    A tile is whole theta rows, or a piece of one row when a row holds
    more than ``tile`` directions.  Its directions are built from the
    1-D trig tables into one buffer reused by every tile, and
    ``objective(n, out)`` writes its values into the result.
    """
    st, ct, cp, sp = np.sin(thetas), np.cos(thetas), np.cos(phis), np.sin(phis)
    rows, cols = max(tile // phis.size, 1), min(phis.size, tile)
    buf = np.empty(3 * rows * cols)
    vals = np.empty(thetas.size * phis.size)
    for r in range(0, thetas.size, rows):
        sin_t, cos_t = st[r : r + rows, None], ct[r : r + rows, None]
        for c in range(0, phis.size, cols):
            cos_p, sin_p = cp[c : c + cols], sp[c : c + cols]
            n = buf[: 3 * sin_t.size * cos_p.size].reshape(3, sin_t.size, cos_p.size)
            np.multiply(sin_t, cos_p, out=n[0])
            np.multiply(sin_t, sin_p, out=n[1])
            n[2] = cos_t
            lo = r * phis.size + c
            objective(n.reshape(3, -1), out=vals[lo : lo + n[0].size])
    return vals


def _smallest(vals: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest values, equal to argsort(kind="stable")[:k]."""
    k = min(k, vals.size)
    kth = np.partition(vals, k - 1)[k - 1]
    cand = np.flatnonzero(vals <= kth)
    return cand[np.argsort(vals[cand], kind="stable")[:k]]


def _minimize_over_directions(
    objective, thetas: np.ndarray, phis: np.ndarray, tile: int = _SCAN_TILE
):
    """Scan of the hemisphere grid whose ``_grid_directions`` tables are given, then
    refinement of the best 3 cells.

    ``objective(n, out=None)`` must map directions of shape (3, ...) to
    values of shape (...), into ``out`` when given, with f(n) = f(-n).
    The flat rule: when the scan's
    spread max - min is at most FLAT_SPREAD_TOL (on a grid of at least
    two theta rows and five phi columns) the objective is flat: every
    measurement is optimal, the grid minimum is returned with the
    canonical pole theta = phi = 0, and nothing is refined.  It serves
    flat objectives that are not spheres (product and pure states),
    qubit-qudit states and the brute-force geometric discord;
    ``classical_correlation`` takes two-qubit spheres out before the
    scan (``_is_sphere``).  Otherwise
    ``_refine`` moves the three seeds, and the value reported is
    ``objective`` at the canonical angles of the best of them: each
    refined n is first mapped to n_z >= 0 (phi in [0, pi) on the
    equator), so theta is at most pi/2.
    Returns (value, theta, phi); deterministic (ties broken by grid
    and seed order).
    """
    vals = _scan(objective, thetas, phis, tile)
    # Two theta rows and five phi columns are the fewest that tell every
    # quadratic n^T M n apart from a constant, so a coarser scan cannot
    # vouch for flatness: on one row, cc_state(diag(.5, .5)) looks flat.
    if thetas.size > 1 and phis.size > 4 and vals.max() - vals.min() <= FLAT_SPREAD_TOL:
        return float(vals.min()), 0.0, 0.0
    seeds = _smallest(vals, 3)
    row, col = np.divmod(seeds, phis.size)
    n = _refine(objective, _direction(thetas[row], phis[col]), vals[seeds])
    # n and -n are one measurement: report the one whose first nonzero of
    # (n_z, n_y, n_x) is positive, so n_z >= 0, and phi in [0, pi) on the equator
    nx, ny, nz = n
    first = np.where(nz != 0, nz, np.where(ny != 0, ny, nx))
    theta, phi = _angles(np.where(first < 0, -n, n))
    val = objective(_direction(theta, phi))
    k = int(np.argmin(val))
    return float(val[k]), float(theta[k]), float(phi[k])


# (a, b) offsets of the 8 stencil points n + h (a e_theta + b e_phi): the
# 3 x 3 block around n in row-major order, without its centre.
_STENCIL = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b], dtype=float)


def _refine(objective, seeds: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Safeguarded Riemannian Newton refinement of unit directions (3, k) with values (k,).

    All seeds move together.  At each new point n the 8 stencil points
    normalize(n + h (a e_theta + b e_phi)), h = DIFFERENCE_STEP, take one
    objective call; central differences give the tangent gradient and
    Hessian.  Normalizing is a second-order retraction, so this is the
    Riemannian Hessian (Absil, Mahony & Sepulchre 2008, ch. 4-6).  Its
    eigenvalues are replaced by their absolute values, floored at
    CURVATURE_CUTOFF, so every step xi is a descent direction.  A trial
    point normalize(n + t xi) takes one more call and is accepted only
    when its value is strictly lower; otherwise t halves, and after an
    accepted step t is 1 again.  A seed stops once t |xi| is at most
    NEWTON_TOL, and the loop after NEWTON_ITER_CAP iterations.  Returns
    the refined directions, none higher than its seed.
    """
    n, f = seeds, values
    xi = np.zeros_like(n)
    t = np.ones(f.size)
    fresh = np.ones(f.size, dtype=bool)
    h = DIFFERENCE_STEP
    for _ in range(NEWTON_ITER_CAP):
        if fresh.any():
            nx, ny, nz = n
            rxy = np.hypot(nx, ny)
            c = np.divide(nx, rxy, out=np.ones_like(rxy), where=rxy > 0.0)
            s = np.divide(ny, rxy, out=np.zeros_like(rxy), where=rxy > 0.0)
            frame = np.array([[nz * c, nz * s, -rxy], [-s, c, 0.0 * c]])  # (e_theta, e_phi)
            probe = n[:, :, None] + h * np.einsum("aik,ja->ikj", frame, _STENCIL)
            probe /= np.sqrt((probe * probe).sum(axis=0))
            v = objective(probe)  # (k, 8), in stencil order
            g = np.array([v[:, 6] - v[:, 1], v[:, 4] - v[:, 3]]) / (2.0 * h)
            h_tt = v[:, 6] - 2.0 * f + v[:, 1]
            h_pp = v[:, 4] - 2.0 * f + v[:, 3]
            h_tp = (v[:, 7] - v[:, 5] - v[:, 2] + v[:, 0]) / 4.0
            hess = np.array([[h_tt, h_tp], [h_tp, h_pp]]).transpose(2, 0, 1) / (h * h)
            mu, vec = np.linalg.eigh(hess)
            mu = np.maximum(np.abs(mu), CURVATURE_CUTOFF)
            step = -np.einsum("kab,kb->ak", vec, np.einsum("kba,bk->ka", vec, g) / mu)
            xi = np.where(fresh, (frame * step[:, None]).sum(axis=0), xi)
        moving = t * np.sqrt((xi * xi).sum(axis=0)) > NEWTON_TOL
        if not moving.any():
            break
        trial = n + np.where(moving, t, 0.0) * xi
        trial /= np.sqrt((trial * trial).sum(axis=0))
        f_trial = objective(trial)
        fresh = moving & (f_trial < f)
        n = np.where(fresh, trial, n)
        f = np.where(fresh, f_trial, f)
        t = np.where(fresh, 1.0, t / 2.0)
    return n


def classical_correlation(
    rho: DensityMatrix, grid: tuple[int, int] = DEFAULT_GRID
) -> tuple[float, Measurement]:
    """Maximal classical mutual information over projective qubit measurements on A.

    Returns S(B) minus the minimized conditional entropy, together with
    the minimizing measurement.  Two rules decide a constant objective,
    where every measurement is optimal and the pole theta = phi = 0 is
    reported.  The sphere rule (``_is_sphere``) reads it from the Bloch
    data of a two-qubit state before any scan, and returns S(B) minus
    the objective at the pole: Werner states, the protocols' outputs and
    their local rotations.  The flat rule of ``_minimize_over_directions``
    reads it from the scan: product and pure states, and the qubit-qudit
    states.  Otherwise the reported value is accurate to about 1e-6 bits
    at the default grid.  The grid is checked on every path.  A (2, d_B > 2)
    state whose scan would cost more than MAX_QUDIT_SCAN_WORK directions
    x d_B^3 is refused before the scan allocates anything.
    """
    m = rho.matrix[None]
    parts = _measured_parts(m, rho.legs)
    tables = _scan_tables(grid, rho.legs[1])
    sb = _marginal_entropies(m, rho.legs, 1)
    classical, measurements = _classical_correlations(parts, sb, rho.legs[1], tables)
    return float(classical[0]), measurements[0]


def _scan_tables(grid: tuple[int, int], db: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid's ``_grid_directions`` tables, refused when a (2, d_B) scan costs too much."""
    thetas, phis = _grid_directions(grid)
    dirs = thetas.size * phis.size
    if dirs * db**3 > MAX_QUDIT_SCAN_WORK:
        raise DomainError(
            f"a (2, {db}) state on grid {grid[0]}x{grid[1]} needs {dirs} directions"
            f" x {db}^3 = {dirs * db**3} > {MAX_QUDIT_SCAN_WORK}; use a coarser grid"
        )
    return thetas, phis


def _classical_correlations(parts: np.ndarray, sb: np.ndarray, db: int, tables: tuple):
    """``classical_correlation`` of each (2, d_B) state in a stack, from its
    ``_measured_parts`` and S(B) and the grid's ``_scan_tables``.

    The sphere rows get the objective at the pole in one call; every
    other row is scanned and refined on its own.
    """
    vals = np.empty(len(parts))
    angles = np.zeros((len(parts), 2))
    sphere = _is_sphere(parts) if parts.ndim == 3 else np.zeros(len(parts), dtype=bool)
    if sphere.any():
        vals[sphere] = _pole_values(parts[sphere])
    tile = max(_SCAN_TILE * 4 // db**2, 1)
    for i in np.flatnonzero(~sphere):
        vals[i], angles[i, 0], angles[i, 1] = _minimize_over_directions(
            _conditional_entropy_objective(parts[i]), *tables, tile
        )
    return sb - vals, [qubit_measurement(theta, phi) for theta, phi in angles.tolist()]


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Bundle of every correlation measure for one bipartite state.

    ``geometric_discord`` and ``concurrence`` are None when the B side
    is not a qubit (they are two-qubit quantities).  An
    ``argmin_measurement`` at the pole theta = phi = 0 on a flat
    objective means every measurement is optimal (see
    ``_minimize_over_directions``).
    """

    total: float
    classical: float
    discord: float
    geometric_discord: float | None
    concurrence: float | None
    negativity: float
    argmin_measurement: Measurement


def discord(rho: DensityMatrix, grid: tuple[int, int] = DEFAULT_GRID) -> CorrelationReport:
    """Quantum discord (total minus classical correlation) with full report, in one pass."""
    _require_bipartite(rho.legs, "discord")
    return _reports(rho.matrix[None], rho.eigenvalues[None], rho.legs, grid)[0][0]


def _reports(
    m: np.ndarray, lam: np.ndarray, legs: tuple[int, int], grid: tuple[int, int],
    witness: bool = False,
) -> list[tuple[CorrelationReport, WitnessReport | None]]:
    """``discord`` of each state in a stack (N, d, d) with spectra lam (N, d), in one pass.

    With ``witness`` (two qubits only) each row also gets its
    ``witness_report``, from the same correlation matrix.  Every check
    of the single-state path runs on every row, and the first failing
    row raises.
    """
    parts = _measured_parts(m, legs)
    tables = _scan_tables(grid, legs[1])  # a bad grid is refused on every path
    sb = _marginal_entropies(m, legs, 1)
    total = _mutual_information(m, lam, legs, sb)
    classical, measurements = _classical_correlations(parts, sb, legs[1], tables)
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
    disc = total - classical
    if legs == (2, 2):
        geometric = _closed_form_geometric_discord(parts).tolist()
        conc = _concurrences(m).tolist()
    else:
        geometric = conc = [None] * len(m)
    reports = [
        CorrelationReport(
            total=t, classical=c, discord=d, geometric_discord=g, concurrence=k, negativity=n,
            argmin_measurement=a,
        )
        for t, c, d, g, k, n, a in zip(
            total.tolist(), classical.tolist(), disc.tolist(), geometric, conc,
            _negativities(m, legs).tolist(), measurements,
        )
    ]
    # parts is 2 r, so halving it gives back r bit for bit
    witnesses = _witness_reports(parts / 2.0, m) if witness else [None] * len(m)
    return list(zip(reports, witnesses))


def geometric_discord(rho: DensityMatrix, method: str = "closed-form") -> float:
    """Squared Hilbert-Schmidt distance to the nearest zero-discord state.

    The default is the two-qubit closed form
    ``(|x|^2 + |T|^2 - k_max) / 4`` with k_max the largest eigenvalue
    of ``x x^T + T T^T``.  ``method="brute-force"`` instead minimizes
    the distance over the zero-discord set directly (exactly over the
    B-side outcome states for each measurement basis, numerically over the
    basis direction on the default grid) and serves as the validation oracle.
    """
    if rho.legs != (2, 2):
        raise DomainError(f"geometric_discord requires legs (2, 2), got {rho.legs}")
    if method == "closed-form":
        bloch = _measured_parts(rho.matrix[None], rho.legs)
        return float(_closed_form_geometric_discord(bloch)[0])
    if method == "brute-force":
        parts = _pauli_parts(rho.matrix[None], 2)[0]
        pur = rho.purity()

        def objective(n, out=None):
            return np.subtract(pur, (np.abs(_split(parts, n)) ** 2).sum(axis=(0, 1, 2)), out=out)

        val, _, _ = _minimize_over_directions(objective, *_grid_directions(DEFAULT_GRID))
        return float(val)
    raise DomainError(f"unknown geometric_discord method {method!r}")


def _closed_form_geometric_discord(bloch: np.ndarray) -> np.ndarray:
    """(|x|^2 + |T|^2 - k_max) / 4 of each 2 r = [[1, y], [x, T]] in a stack (N, 4, 4)."""
    x = bloch[:, 1:, 0]
    t = bloch[:, 1:, 1:]
    k = x[:, :, None] * x[:, None, :] + t @ np.swapaxes(t, 1, 2)
    kmax = np.linalg.eigvalsh(k)[:, -1]
    return np.maximum((_dots(x) + (t * t).sum(axis=(1, 2)) - kmax) / 4.0, 0.0)


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
