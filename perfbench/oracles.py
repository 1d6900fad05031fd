"""Independent closed forms and seeded state generators, in plain numpy.

Nothing here calls qdissonance: the oracles must not share code with
the program they check.

* Luo, PRA 77, 042303 (2008): discord of a Bell-diagonal two-qubit
  state with correlation tensor diag(c1, c2, c3) and Bell weights w is
  I - C with I = 2 + sum w log2 w and, for c = max |c_i|,
  C = ((1 - c) log2(1 - c) + (1 + c) log2(1 + c)) / 2.
  Discord is invariant under local unitaries, so the same value holds
  for the rotated state.
* Dakic, Vedral, Brukner, PRL 105, 190502 (2010): geometric discord
  (|x|^2 + |T|^2 - k_max) / 4, k_max the largest eigenvalue of
  x x^T + T T^T.
"""

from __future__ import annotations

import numpy as np

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_S2 = 1.0 / np.sqrt(2.0)
# phi+, phi-, psi+, psi-
BELL_VECTORS = np.array(
    [[_S2, 0, 0, _S2], [_S2, 0, 0, -_S2], [0, _S2, _S2, 0], [0, _S2, -_S2, 0]], dtype=complex
)


def xlog2(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)


def bloch(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A-side Bloch vector x and correlation tensor T of a 4x4 state."""
    eye = np.eye(2)
    x = np.array([np.trace(m @ np.kron(s, eye)).real for s in PAULIS])
    t = np.array([[np.trace(m @ np.kron(a, b)).real for b in PAULIS] for a in PAULIS])
    return x, t


def luo_discord(weights) -> float:
    """Discord of the Bell-diagonal state with the given Bell weights (bits)."""
    m = bell_diagonal(weights)
    _, t = bloch(m)
    c = float(np.abs(np.diag(t)).max())
    mutual = 2.0 + float(xlog2(weights).sum())
    classical = float(xlog2(1.0 - c) + xlog2(1.0 + c)) / 2.0
    return mutual - classical


def werner_weights(z: float) -> np.ndarray:
    """Bell weights of z |psi-><psi-| + (1 - z) I / 4."""
    w = np.full(4, (1.0 - z) / 4.0)
    w[3] += z
    return w


def dvb_geometric_discord(m: np.ndarray) -> float:
    x, t = bloch(m)
    k = np.outer(x, x) + t @ t.T
    return float((x @ x + np.sum(t * t) - np.linalg.eigvalsh(k)[-1]) / 4.0)


def werner_concurrence(z: float) -> float:
    return max(0.0, (3.0 * z - 1.0) / 2.0)


def bell_diagonal(weights) -> np.ndarray:
    return np.einsum("k,ki,kj->ij", np.asarray(weights, dtype=float), BELL_VECTORS, BELL_VECTORS.conj())


def haar_unitary(rng, d: int = 2) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian_unit_trace(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def random_state(rng, rank: int = 4, d: int = 4) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return hermitian_unit_trace(g @ g.conj().T)


def rotated_bell_diagonal(rng) -> tuple[np.ndarray, float]:
    """A Bell-diagonal state under random local unitaries, and its Luo discord."""
    w = rng.dirichlet(np.ones(4))
    u = np.kron(haar_unitary(rng), haar_unitary(rng))
    return hermitian_unit_trace(u @ bell_diagonal(w) @ u.conj().T), luo_discord(w)
