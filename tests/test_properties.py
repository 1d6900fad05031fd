"""Physics properties of the correlation measures on seeded random states.

These check the code against facts of the theory, not against itself:
discord, classical correlation and geometric discord are invariant under
local unitaries U_A x U_B, 0 <= D <= min(S(A), I(A:B)), and
classical-quantum states have zero discord with respect to A, with every
reported correlation inside its range.
"""

import numpy as np
import pytest

from qdissonance import DensityMatrix, cq_state, discord, entropy, partial_trace, witness_report

from _zoo import random_density, random_product, random_qubit_basis

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


def _assert_in_range(rep, i):
    assert 0.0 <= rep.classical <= rep.total, i
    assert rep.discord >= 0.0, i
    assert rep.geometric_discord is None or rep.geometric_discord >= 0.0, i


def test_cq_states_have_zero_discord():
    """sum_i p_i |a_i><a_i| x rho_B^(i) with a random qubit basis |a_i>: D = 0.

    Products rho_A x rho_B are the special case of equal B states; their
    mutual information and discord are 0 up to rounding, which the reports
    must keep inside [0, total].
    """
    rng = np.random.default_rng(SEED + 3)
    for i in range(100):
        db = 2 if i < 80 else 3
        p0 = rng.uniform(0.05, 0.95)
        states_b = [random_density(rng, db, rank=int(rng.integers(1, db + 1))) for _ in range(2)]
        rho = cq_state([p0, 1.0 - p0], random_qubit_basis(rng), states_b)
        rep = discord(rho)
        assert abs(rep.discord) <= 1e-9, i
        _assert_in_range(rep, i)
        if db == 2:
            assert witness_report(rho).verdicts["commutator_zero_discord"], i
    for i in range(50):
        rho = random_product(rng)
        rep = discord(rho)
        assert rep.discord <= 1e-9, ("product", i)
        _assert_in_range(rep, ("product", i))
        assert witness_report(rho).verdicts["commutator_zero_discord"], ("product", i)
    # the pure product |00>: every correlation is exactly 0
    rep = discord(DensityMatrix(np.diag([1, 0, 0, 0]), (2, 2)))
    assert (rep.total, rep.classical, rep.discord, rep.geometric_discord) == (0.0, 0.0, 0.0, 0.0)
