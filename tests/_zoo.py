"""Shared state-zoo builders and reference values for the test suite.

Everything is seeded, so the zoo is identical across runs.  States are
tagged with whether their discord is exactly zero ("zero") or known to
be well above the 1e-6 verdict threshold ("nonzero").
"""

import numpy as np

from qdissonance import (
    DensityMatrix, PureState, bell, cc_state, cq_state, projector, tensor, werner,
)

ZOO_SEED = 20240917


def random_density(rng, d, legs=None, rank=None):
    k = d if rank is None else rank
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, legs)


def random_two_qubit(rng):
    return random_density(rng, 4, (2, 2))


def random_qubit_basis(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(g)
    return [q[:, 0], q[:, 1]]


def random_cc(rng):
    p = rng.uniform(0.1, 0.9, size=(2, 2))
    p /= p.sum()
    return cc_state(p, random_qubit_basis(rng), random_qubit_basis(rng))


def random_cq(rng):
    p0 = rng.uniform(0.2, 0.8)
    return cq_state(
        [p0, 1.0 - p0],
        random_qubit_basis(rng),
        [random_density(rng, 2), random_density(rng, 2)],
    )


def random_product(rng):
    return tensor(random_density(rng, 2), random_density(rng, 2))


def qubit_bloch_vector(a):
    """Bloch vector <a|sigma|a> of a unit qubit vector a."""
    c = np.conj(a[0]) * a[1]
    return np.array([2.0 * c.real, 2.0 * c.imag, abs(a[0]) ** 2 - abs(a[1]) ** 2])


def classical_quantum_states(rng, count, db=2):
    """``count`` seeded zero-discord states, each with the Bloch vector of its A basis.

    Two-qubit ones cycle through CC (``cc_state``), CQ (``cq_state``) and
    product states; a product has every basis classical, so its vector is
    None.  (2, d_B > 2) ones are all CQ.
    """
    cases = []
    for i in range(count):
        kind = i % 3 if db == 2 else 1
        if kind == 2:
            cases.append((random_product(rng), None))
            continue
        basis = random_qubit_basis(rng)
        if kind == 0:
            p = rng.uniform(0.1, 0.9, size=(2, 2))
            rho = cc_state(p / p.sum(), basis, random_qubit_basis(rng))
        else:
            p0 = rng.uniform(0.2, 0.8)
            rho = cq_state([p0, 1.0 - p0], basis, [random_density(rng, db), random_density(rng, db)])
        cases.append((rho, qubit_bloch_vector(basis[0])))
    return cases


def build_zoo():
    """50 tagged two-qubit states: 21 Werner, 4 Bell, 15 zero-discord, 10 random."""
    rng = np.random.default_rng(ZOO_SEED)
    zoo = []
    for z in np.linspace(0.0, 1.0, 21):
        tag = "zero" if z == 0.0 else "nonzero"
        zoo.append((f"werner({z:.2f})", werner(float(z)), tag))
    for name in ("psi+", "psi-", "phi+", "phi-"):
        zoo.append((f"bell({name})", projector(bell(name)), "nonzero"))
    for i in range(5):
        zoo.append((f"cc-{i}", random_cc(rng), "zero"))
    for i in range(5):
        zoo.append((f"cq-{i}", random_cq(rng), "zero"))
    for i in range(5):
        zoo.append((f"product-{i}", random_product(rng), "zero"))
    for i in range(10):
        zoo.append((f"random-{i}", random_two_qubit(rng), "nonzero"))
    assert len(zoo) == 50
    return zoo


def explicit_factors_z13() -> tuple[tuple[PureState, PureState], ...]:
    """Hard-coded factor pairs of the four components at z = 1/3.

    Amplitudes are built from kappa = sqrt((3+sqrt(3))/12) and
    kbar = sqrt((3-sqrt(3))/12); within each pair the two factors are
    orthogonal, and the uniform mixture of the four projector products
    reproduces ``werner(1/3)``.
    """
    r3 = np.sqrt(3.0)
    kap = np.sqrt((3.0 + r3) / 12.0)
    kbar = np.sqrt((3.0 - r3) / 12.0)
    pairs_raw = (
        (kap * 1j * np.array([1 - r3, -(1 + 1j)]), kap * np.array([1j - 1, r3 - 1])),
        (kap * 1j * np.array([1 - r3, 1 + 1j]), kap * np.array([1 - 1j, r3 - 1])),
        (kbar * -1j * np.array([r3 + 1, 1 - 1j]), kbar * np.array([-(1 + 1j), r3 + 1])),
        (kbar * -1j * np.array([r3 + 1, 1j - 1]), kbar * np.array([1 + 1j, r3 + 1])),
    )
    return tuple(
        (PureState(a, (2,)), PureState(b, (2,))) for a, b in pairs_raw
    )


def werner_with_imaginary_residual() -> DensityMatrix:
    """werner(0.3) plus 0.45e-12j at (0, 2), (2, 0), (1, 3), (3, 1).

    Its Hermiticity residual is 0.9e-12, which DensityMatrix accepts;
    both entries feed rho_A[0, 1], whose residual is then 1.8e-12.
    """
    m = werner(0.3).matrix.copy()
    for i, j in ((0, 2), (2, 0), (1, 3), (3, 1)):
        m[i, j] += 0.45e-12j
    return DensityMatrix(m, (2, 2))


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def near_pure_rotated(rng, legs):
    """(U_A x U_B) diag(lam) (U_A x U_B)^dagger, one eigenvalue ~1 and the rest from 1e-12 to 1."""
    d = legs[0] * legs[1]
    lam = np.concatenate([[1.0], 10.0 ** rng.uniform(-12.0, 0.0, d - 1)])
    u = np.kron(haar_unitary(rng, legs[0]), haar_unitary(rng, legs[1]))
    return DensityMatrix((u * (lam / lam.sum())) @ u.conj().T, legs)
