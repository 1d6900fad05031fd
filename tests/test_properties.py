"""Physics properties of the correlation measures on seeded random states.

These check the code against facts of the theory, not against itself:
discord, classical correlation and geometric discord are invariant under
local unitaries U_A x U_B, and 0 <= D <= min(S(A), I(A:B)).
"""

import numpy as np
import pytest

from qdissonance import DensityMatrix, discord, entropy, partial_trace

from _zoo import random_density, random_qubit_basis

SEED = 7600


@pytest.fixture(scope="module")
def two_qubit_cases():
    """100 random two-qubit states of rank 1 to 4, each with its discord report."""
    rng = np.random.default_rng(SEED)
    states = [random_density(rng, 4, (2, 2), rank=1 + i % 4) for i in range(100)]
    return [(rho, discord(rho)) for rho in states]


def test_measures_invariant_under_local_unitaries(two_qubit_cases):
    rng = np.random.default_rng(SEED + 1)
    for rho, rep in two_qubit_cases:
        u = np.kron(*(np.column_stack(random_qubit_basis(rng)) for _ in range(2)))
        rotated = discord(DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2)))
        assert abs(rotated.discord - rep.discord) <= 1e-9
        assert abs(rotated.classical - rep.classical) <= 1e-9
        assert abs(rotated.geometric_discord - rep.geometric_discord) <= 1e-12


def test_discord_bounded_by_entropy_and_mutual_information(two_qubit_cases):
    rng = np.random.default_rng(SEED + 2)
    cases = list(two_qubit_cases)
    for i in range(20):
        rho = random_density(rng, 6, (2, 3), rank=1 + i % 6)
        cases.append((rho, discord(rho)))
    for rho, rep in cases:
        s_a = entropy(partial_trace(rho, (1,)))
        assert 0.0 <= rep.discord <= min(s_a, rep.total) + 1e-12
