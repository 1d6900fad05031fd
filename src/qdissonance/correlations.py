"""Correlation quantifiers for bipartite states.

Entropic quantities (total correlation, classical correlation via
measurement optimization, quantum discord), the Hilbert-Schmidt
geometric discord (closed form and a brute-force oracle mode), and the
two-qubit entanglement measures (concurrence, negativity).  All
entropies are in bits.

The measurement optimization scans a deterministic grid over the
upper Bloch hemisphere (n and -n are the same projective measurement,
with the outcomes swapped), tile by tile into one value array, and
refines the best three cells together, so repeated runs give identical
results.  For two qubits the refinement is a safeguarded Riemannian
Newton method on the sphere, with the gradient and Hessian of Luo's
closed form; it falls back to the compass search on the (theta, phi)
angles when an iterate nears a pure conditional state (where the
entropy has an infinite slope) or a seed has not converged within
``qla.NEWTON_ITER_CAP`` calls.  The compass search also refines the
qubit-qudit objective and the brute-force geometric discord.  When the
scan's spread max - min is at most ``qla.FLAT_SPREAD_TOL`` (on a grid
of at least 3 x 5) every measurement is optimal (Werner, product and
pure states): the grid minimum is returned, nothing is refined, and
the reported measurement is the pole theta = phi = 0.
Measuring +/-n on A leaves B in the unnormalized states
(G_0 +/- n.G)/2 with G_i = Tr_A[(sigma_i x I) rho]; the conditional
entropy is the entropy of their spectra.  For a qubit B the spectrum
is Luo's closed form (PRA 77, 042303, 2008) from the Pauli
coefficients of the G_i, so no matrices are formed; otherwise it is
eigvalsh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .qla import (
    CONDITIONAL_STATE_CUTOFF, CORRELATION_SIGN_TOL, CURVATURE_CUTOFF, ENTANGLEMENT_FLOOR,
    FLAT_SPREAD_TOL, NEWTON_ITER_CAP, NEWTON_TOL, POLE_CUTOFF, PROB_CUTOFF, PURE_OUTCOME_CUTOFF,
    REFINE_TOL, TOTAL_SIGN_TOL, DensityMatrix, DomainError, _as_index, partial_trace,
)
from .witness import PAULI_MATRICES, correlation_matrix

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
# Scan memory grows linearly with the number of grid directions; 2**21 is
# ~2.5x the 640x1280 oracle grid.  Larger grids are rejected before the
# scan allocates anything.
MAX_GRID_POINTS = 2**21
# Two-qubit directions per objective call in the grid scan: bounds the
# scan's temporaries; 2**15 was the fastest tile on the 640x1280 grid.
# A (2, d_B) scan takes 4/d_B**2 as many, so a tile holds as many entries.
_SCAN_TILE = 2**15


def _direction(theta, phi) -> np.ndarray:
    """Bloch unit vector n(theta, phi) along the first axis; broadcasts over arrays."""
    return np.stack(
        np.broadcast_arrays(np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    )


@dataclass(frozen=True)
class Measurement:
    """Rank-1 projective qubit measurement along the Bloch direction (theta, phi).

    The angles are the whole state; ``projectors`` is derived from them.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (np.isfinite(self.theta) and np.isfinite(self.phi)):
            raise DomainError(f"measurement angles must be finite, got ({self.theta}, {self.phi})")

    @property
    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(I + n.sigma)/2 and (I - n.sigma)/2 for the unit vector n(theta, phi).

        Both are exactly Hermitian, since n.sigma is.
        """
        return tuple(_split(PAULI_MATRICES, _direction(self.theta, self.phi)))


def qubit_measurement(theta: float, phi: float) -> Measurement:
    """The measurement along n(theta, phi), with the angles cast to float."""
    return Measurement(theta=float(theta), phi=float(phi))


def _canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    """Map arbitrary real angles to theta in [0, pi], phi in [0, 2 pi)."""
    t, p = _angles(_direction(theta, phi))
    return float(t), float(p)


def _angles(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical angles theta in [0, pi], phi in [0, 2 pi) of unit vectors n, shape (3, ...)."""
    nx, ny, nz = n
    pole = (np.abs(nx) < POLE_CUTOFF) & (np.abs(ny) < POLE_CUTOFF)
    phi = np.where(pole, 0.0, np.arctan2(ny, nx) % (2.0 * np.pi))
    return np.arccos(np.clip(nz, -1.0, 1.0)), phi


def _xlog2(x: np.ndarray) -> np.ndarray:
    """x log2 x elementwise, with 0 wherever x <= PROB_CUTOFF."""
    x = np.asarray(x, dtype=float)
    mask = x > PROB_CUTOFF
    return np.where(mask, x * np.log2(np.where(mask, x, 1.0)), 0.0)


def entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -sum(lam log2 lam) in bits, with 0 log 0 = 0."""
    # 0.0 - sum, not -sum: a pure spectrum gives +0.0, never -0.0
    return float(0.0 - _xlog2(np.clip(rho.eigenvalues, 0.0, None)).sum())


def _require_bipartite(rho: DensityMatrix, op: str) -> tuple[int, int]:
    if len(rho.legs) != 2:
        raise DomainError(f"{op} needs exactly two legs; merge legs first (got {rho.legs})")
    return rho.legs


def total_correlation(rho: DensityMatrix) -> float:
    """Mutual information S(A) + S(B) - S(AB) in bits."""
    _require_bipartite(rho, "total_correlation")
    sa = entropy(partial_trace(rho, (1,)))
    sb = entropy(partial_trace(rho, (0,)))
    return sa + sb - entropy(rho)


def _pauli_parts(rho: DensityMatrix) -> np.ndarray:
    """G_i = Tr_A[(sigma_i x I) rho] of a [2, d_B] state, shape (4, d_B, d_B); G_0 = rho_B."""
    da, db = _require_bipartite(rho, "measurement on A")
    if da != 2:
        raise DomainError(f"measured leg must have dimension 2, got {da}")
    return np.einsum("nca,abce->nbe", PAULI_MATRICES, rho.matrix.reshape(2, db, 2, db))


def _split(parts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Both outcomes (X_0 +/- n.X)/2 of a Pauli-part stack X, for directions n.

    ``parts`` has shape (4, *s) and ``n`` shape (3, *dirs); the result
    has shape (2, *s, *dirs), the + outcome first.
    """
    shape = parts.shape[1:] + n.shape[1:]
    nx = (parts[1:].reshape(3, -1).T @ n.reshape(3, -1)).reshape(shape)
    x0 = parts[0].reshape(parts.shape[1:] + (1,) * (n.ndim - 1))
    return np.stack([x0 + nx, x0 - nx]) / 2.0


def _bloch_spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues (m_0 -/+ |m|)/2 of (m_0 I + m.sigma)/2, from Pauli coefficients on axis 1."""
    rad = np.sqrt((m[:, 1:] * m[:, 1:]).sum(axis=1))
    return np.stack([m[:, 0] - rad, m[:, 0] + rad]) / 2.0


def _matrix_spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the matrices on axes 1 and 2, on a new first axis."""
    return np.moveaxis(np.linalg.eigvalsh(np.moveaxis(m, (1, 2), (-2, -1))), -1, 0)


def _cond_entropy_terms(lam: np.ndarray) -> np.ndarray:
    """p_a S(rho_B|a) of each outcome from its unnormalized eigenvalues (first axis)."""
    lam = np.clip(lam, 0.0, None)
    return -_xlog2(lam).sum(axis=0) + _xlog2(lam.sum(axis=0))


def _objective_and_newton(rho: DensityMatrix):
    """(objective, newton): sum_a p_a S(rho_B|a) as a function of directions, and its refinement.

    The objective maps directions n, shape (3, ...), to values of shape
    (...).  The outcome states are split from the Pauli parts G_i.  For
    two qubits the parts are Luo's Bloch data 2 r = [[1, y], [x, T]] (r
    the correlation matrix), the Pauli coefficients of 2 G_i, each
    outcome's spectrum is closed form, and ``newton`` is
    ``_bloch_newton`` on the same parts.  Otherwise the parts are the
    G_i and ``newton`` is None.
    """
    if rho.legs == (2, 2):
        parts, spectrum = 2.0 * correlation_matrix(rho), _bloch_spectrum
        newton = partial(_bloch_newton, parts)
    else:
        parts, spectrum, newton = _pauli_parts(rho), _matrix_spectrum, None

    def objective(n):
        return _cond_entropy_terms(spectrum(_split(parts, n))).sum(axis=0)

    return objective, newton


def _conditional_entropy_objective(rho: DensityMatrix):
    """sum_a p_a S(rho_B|a) as a function of directions n, shape (3, ...) -> (...)."""
    return _objective_and_newton(rho)[0]


def _bloch_derivatives(parts: np.ndarray, n: np.ndarray):
    """Value, gradient and Hessian of the two-qubit objective in nats, or None near a pure outcome.

    ``parts`` is 2 r = [[1, y], [x, T]] and n has shape (3, k).  Outcome
    s = +/-1 has q_s = (1 + s x.n)/2 and Bloch part w_s = (y + s T^T n)/2,
    so its eigenvalues are l_{s,+/-} = (q_s +/- |w_s|)/2 and
    f(n) = sum_s [q_s ln q_s - sum_+/- l ln l].  With z_s = T w_s,
    L_s = ln(l_+/l_-) and R_s = L_s/|w_s| (2/q_s at |w_s| = 0) the
    gradient is sum_s s [x ln(q_s^2/(l_+ l_-)) - R_s z_s]/4 and the
    Hessian sum_s [x x^T A_s + (x z_s^T + z_s x^T) B_s + z_s z_s^T C_s
    - T T^T R_s/8], with B_s = 1/(16 l_+ l_-), A_s = 1/(4 q_s) - q_s B_s
    and C_s = (R_s/8 - q_s B_s)/|w_s|^2.  Returns f (k,), the gradient
    (3, k) and the Hessian (3, 3, k); None when some l_{s,-} is at most
    PURE_OUTCOME_CUTOFF, where -l ln l has an infinite slope.
    """
    m = _split(parts, n)  # (outcome s, Pauli index, direction)
    q, w = m[:, 0], m[:, 1:]
    r2 = (w * w).sum(axis=1)
    r = np.sqrt(r2)
    lo, hi = (q - r) / 2.0, (q + r) / 2.0
    if lo.min() <= PURE_OUTCOME_CUTOFF:
        return None
    x, t = parts[1:, 0], parts[1:, 1:]
    ln_lo, ln_hi, ln_q = np.log(lo), np.log(hi), np.log(q)
    some = r > 0.0
    ratio = np.divide(2.0 * np.arctanh(r / q), r, out=2.0 / q, where=some)
    z = t @ w
    b = 1.0 / (16.0 * lo * hi)
    c = np.divide(ratio / 8.0 - q * b, r2, out=np.zeros_like(r), where=some)
    f = (q * ln_q - lo * ln_lo - hi * ln_hi).sum(axis=0)
    sign = np.array([[1.0], [-1.0]])
    grad = (np.outer(x, (sign * (2.0 * ln_q - ln_lo - ln_hi)).sum(axis=0))
            - (sign * ratio * z.transpose(1, 0, 2)).sum(axis=1)) / 4.0
    xbz = x[:, None, None] * (b * z.transpose(1, 0, 2)).sum(axis=1)
    hess = (np.einsum("i,j,k->ijk", x, x, (1.0 / (4.0 * q) - q * b).sum(axis=0))
            + xbz + xbz.transpose(1, 0, 2)
            + np.einsum("sik,sjk,sk->ijk", z, z, c)
            - np.einsum("ij,k->ijk", t @ t.T, ratio.sum(axis=0) / 8.0))
    return f, grad, hess


def _newton_steps(n: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Safeguarded Riemannian Newton steps on the sphere, shape (3, k), at unit directions n.

    In the tangent frame E = (e_theta, e_phi) of each n the Riemannian
    Hessian is E (H - (n.g) I) E^T (Absil, Mahony & Sepulchre 2008,
    ch. 6).  Its eigenvalues are replaced by their absolute values,
    floored at CURVATURE_CUTOFF, so every step is a descent direction.
    """
    nx, ny, nz = n
    rxy = np.hypot(nx, ny)
    c = np.divide(nx, rxy, out=np.ones_like(rxy), where=rxy > 0.0)
    s = np.divide(ny, rxy, out=np.zeros_like(rxy), where=rxy > 0.0)
    frame = np.array([[nz * c, nz * s, -rxy], [-s, c, 0.0 * c]])  # (2, 3, k)
    g = (frame * grad).sum(axis=1)
    h = np.einsum("aik,ijk,bjk->kab", frame, hess, frame)
    h -= (n * grad).sum(axis=0)[:, None, None] * np.eye(2)
    mu, vec = np.linalg.eigh(h)
    mu = np.maximum(np.abs(mu), CURVATURE_CUTOFF)
    step = -np.einsum("kab,kb->ak", vec, np.einsum("kba,bk->ka", vec, g) / mu)
    return (frame * step[:, None]).sum(axis=0)


def _bloch_newton(parts: np.ndarray, seeds: np.ndarray):
    """Refine the seed directions (3, k) of the two-qubit objective; None to fall back.

    Every seed takes safeguarded Newton steps (``_newton_steps``), all
    seeds in one ``_bloch_derivatives`` call per iteration.  A step
    t * xi is retracted onto the sphere by normalizing; when the value
    rises, t halves, and after an accepted step t is 1 again.  A seed
    has converged once its step t |xi| is at most NEWTON_TOL.  Returns
    None (the caller falls back to the compass search) when an iterate
    would reach a pure outcome or some seed is still moving after
    NEWTON_ITER_CAP calls.
    """
    n = seeds
    derivs = _bloch_derivatives(parts, n)
    if derivs is None:
        return None
    f, grad, hess = derivs
    xi = _newton_steps(n, grad, hess)
    t = np.ones(n.shape[1])
    for _ in range(NEWTON_ITER_CAP):
        moving = t * np.sqrt((xi * xi).sum(axis=0)) > NEWTON_TOL
        if not moving.any():
            return n
        trial = n + np.where(moving, t, 0.0) * xi
        trial /= np.sqrt((trial * trial).sum(axis=0))
        derivs = _bloch_derivatives(parts, trial)
        if derivs is None:
            return None
        take = moving & (derivs[0] <= f)
        n = np.where(take, trial, n)
        f = np.where(take, derivs[0], f)
        grad = np.where(take, derivs[1], grad)
        hess = np.where(take, derivs[2], hess)
        xi = np.where(take, _newton_steps(n, grad, hess), xi)
        t = np.where(take, 1.0, t / 2.0)
    return None


def conditional_entropy_after(rho: DensityMatrix, m: Measurement) -> float:
    """Average post-measurement B entropy sum_a p_a S(rho_B|a) in bits.

    Outcomes with probability below 1e-14 are skipped.
    """
    return float(_conditional_entropy_objective(rho)(_direction(m.theta, m.phi)))


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
    """Objective on every (theta, phi) pair in row-major order, ``tile`` at a time."""
    # trig of the 1-D tables only; the grid is their outer product
    n = _direction(thetas[:, None], phis).reshape(3, -1)
    vals = np.empty(n.shape[1])
    for lo in range(0, vals.size, tile):
        vals[lo : lo + tile] = objective(n[:, lo : lo + tile])
    return vals


def _smallest(vals: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest values, equal to argsort(kind="stable")[:k]."""
    k = min(k, vals.size)
    kth = np.partition(vals, k - 1)[k - 1]
    cand = np.flatnonzero(vals <= kth)
    return cand[np.argsort(vals[cand], kind="stable")[:k]]


def _minimize_over_directions(
    objective, grid: tuple[int, int], tile: int = _SCAN_TILE, newton=None
):
    """Hemisphere-grid scan, then refinement of the best 3 cells.

    ``objective(n)`` must map directions of shape (3, ...) to values
    of shape (...), with f(n) = f(-n).  When the scan's spread
    max - min is at most FLAT_SPREAD_TOL (on a grid of at least two
    theta rows and five phi columns) the objective is flat: every
    measurement is optimal, the grid minimum is returned with the
    canonical pole theta = phi = 0, and nothing is refined.  Otherwise
    ``newton`` (the two-qubit objective's Newton refinement, see
    ``_bloch_newton``) maps the seed directions to refined ones, and
    the value reported is ``objective`` at the best of them.  Without
    ``newton``, or when it returns None, ``_compass_search`` refines
    the same seeds.  Returns (value, theta, phi) with canonical angles;
    deterministic (ties broken by grid and stencil order).
    """
    thetas, phis = _grid_directions(grid)
    vals = _scan(objective, thetas, phis, tile)
    # Two theta rows and five phi columns are the fewest that tell every
    # quadratic n^T M n apart from a constant, so a coarser scan cannot
    # vouch for flatness: on one row, cc_state(diag(.5, .5)) looks flat.
    if thetas.size > 1 and phis.size > 4 and vals.max() - vals.min() <= FLAT_SPREAD_TOL:
        return float(vals.min()), 0.0, 0.0
    seeds = _smallest(vals, 3)
    row, col = np.divmod(seeds, phis.size)
    theta, phi = thetas[row], phis[col]
    if newton is not None and (n := newton(_direction(theta, phi))) is not None:
        theta, phi = _angles(n)
        val = objective(_direction(theta, phi))
        k = int(np.argmin(val))
        return float(val[k]), float(theta[k]), float(phi[k])
    return _compass_search(objective, theta, phi, vals[seeds], np.pi / grid[0])


# (d_theta, d_phi) unit offsets of the 8 neighbours in the compass stencil.
_STENCIL = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j], dtype=float)


def _compass_search(objective, theta, phi, val, step0: float):
    """Compass search on the (theta, phi) angles from seeds with values ``val``.

    All seeds are refined together: each iteration evaluates the
    8-point stencil around every seed in one objective call; a seed
    moves to its best neighbour when that is lower (not equal),
    otherwise its step (initially ``step0``) halves.  Each iteration
    either lowers a seed's value or halves its step, so the loop ends
    once every step is at most REFINE_TOL.  Returns the best seed's
    (value, theta, phi) with canonical angles.
    """
    step = np.full(len(val), step0)
    rows = np.arange(len(val))
    while (active := step > REFINE_TOL).any():
        cand_t = theta[:, None] + step[:, None] * _STENCIL[:, 0]
        cand_p = phi[:, None] + step[:, None] * _STENCIL[:, 1]
        cand_v = objective(_direction(cand_t, cand_p))
        best = np.argmin(cand_v, axis=1)
        best_v = cand_v[rows, best]
        moved = active & (best_v < val)
        theta = np.where(moved, cand_t[rows, best], theta)
        phi = np.where(moved, cand_p[rows, best], phi)
        val = np.where(moved, best_v, val)
        step = np.where(active & ~moved, step / 2.0, step)
    k = int(np.argmin(val))
    return float(val[k]), *_canonical_angles(theta[k], phi[k])


def classical_correlation(
    rho: DensityMatrix, grid: tuple[int, int] = DEFAULT_GRID
) -> tuple[float, Measurement]:
    """Maximal classical mutual information over projective qubit measurements on A.

    Returns S(B) minus the minimized conditional entropy, together with
    the minimizing measurement.  The reported value is accurate to
    about 1e-6 bits at the default grid.  Two-qubit states are refined
    by Newton steps, with the compass search as fallback; qubit-qudit
    states by the compass search (see ``_minimize_over_directions``).
    """
    objective, newton = _objective_and_newton(rho)
    sb = entropy(partial_trace(rho, (0,)))
    tile = max(_SCAN_TILE * 4 // rho.legs[1] ** 2, 1)
    val, theta, phi = _minimize_over_directions(objective, grid, tile, newton)
    return sb - val, qubit_measurement(theta, phi)


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
    outcome_probs: tuple[float, ...]
    conditional_states: tuple[DensityMatrix | None, ...]


def discord(rho: DensityMatrix, grid: tuple[int, int] = DEFAULT_GRID) -> CorrelationReport:
    """Quantum discord (total minus classical correlation) with full report."""
    total = total_correlation(rho)
    classical, m = classical_correlation(rho, grid=grid)
    disc = total - classical
    sign_tol = -CORRELATION_SIGN_TOL
    if disc < sign_tol or classical < sign_tol or total < -TOTAL_SIGN_TOL:
        raise ArithmeticError(
            f"inconsistent correlations: total={total}, classical={classical}, discord={disc}"
        )
    # rounding may break 0 <= classical <= total by a few ulps; report inside it
    total = max(total, 0.0)
    classical = min(max(classical, 0.0), total)
    probs = []
    cond = []
    _, db = rho.legs
    for reduced in _split(_pauli_parts(rho), _direction(m.theta, m.phi)):
        p = float(np.real(np.trace(reduced)))
        probs.append(p)
        if p > CONDITIONAL_STATE_CUTOFF:
            cond.append(DensityMatrix(reduced / p, (db,)))
        else:
            cond.append(None)
    two_qubit = rho.legs == (2, 2)
    return CorrelationReport(
        total=total,
        classical=classical,
        discord=total - classical,
        geometric_discord=geometric_discord(rho) if two_qubit else None,
        concurrence=concurrence(rho) if two_qubit else None,
        negativity=negativity(rho),
        argmin_measurement=m,
        outcome_probs=tuple(probs),
        conditional_states=tuple(cond),
    )


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
        r = correlation_matrix(rho)
        x = 2.0 * r[1:, 0]
        t = 2.0 * r[1:, 1:]
        k = np.outer(x, x) + t @ t.T
        kmax = float(np.linalg.eigvalsh(k)[-1])
        return max(float((x @ x + np.sum(t * t) - kmax) / 4.0), 0.0)
    if method == "brute-force":
        parts = _pauli_parts(rho)
        pur = float(np.real(np.trace(rho.matrix @ rho.matrix)))

        def objective(n):
            return pur - (np.abs(_split(parts, n)) ** 2).sum(axis=(0, 1, 2))

        val, _, _ = _minimize_over_directions(objective, DEFAULT_GRID)
        return float(val)
    raise DomainError(f"unknown geometric_discord method {method!r}")


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state.

    With rho = X X^dagger, X = V diag(sqrt(w)), the l_i (square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy)) are the singular
    values of X^T (sy x sy) X.  Differences at most ENTANGLEMENT_FLOOR
    are reported as exactly 0.
    """
    if rho.legs != (2, 2):
        raise DomainError(f"concurrence requires legs (2, 2), got {rho.legs}")
    w, v = np.linalg.eigh(rho.matrix)
    x = v * np.sqrt(np.clip(w, 0.0, None))
    yy = np.kron(PAULI_MATRICES[2], PAULI_MATRICES[2])
    lam = np.linalg.svd(x.T @ yy @ x, compute_uv=False)
    c = lam[0] - lam[1] - lam[2] - lam[3]
    return 0.0 if c <= ENTANGLEMENT_FLOOR else float(c)


def negativity(rho: DensityMatrix) -> float:
    """Sum of negative eigenvalues (absolute) of the partial transpose on B.

    Sums at most ENTANGLEMENT_FLOOR are reported as exactly 0.
    """
    da, db = _require_bipartite(rho, "negativity")
    t = rho.matrix.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(rho.dim, rho.dim)
    lam = np.linalg.eigvalsh(t)
    neg = np.clip(-lam, 0.0, None).sum()
    return 0.0 if neg <= ENTANGLEMENT_FLOOR else float(neg)
