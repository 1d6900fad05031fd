import dataclasses

import numpy as np
import pytest

from qdissonance import (
    DensityMatrix,
    DomainError,
    bell,
    cc_state,
    correlation_matrix,
    decompose_sf,
    tensor,
    werner,
    witness_report,
)
from qdissonance import correlations, witness
from qdissonance.cli import sweep_rows
from qdissonance.qla import COMMUTATOR_TOL, RANK_TOL
from qdissonance.states import _werner_stack
from qdissonance.witness import _PAULI_BASIS

from _zoo import (
    build_zoo,
    classical_quantum_states,
    random_cc,
    random_cq,
    random_density,
    random_product,
    random_qubit_basis,
    random_two_qubit,
)

SEED = 7300


def test_pauli_basis():
    basis = _PAULI_BASIS
    assert basis.shape == (4, 2, 2) and not basis.flags.writeable
    for i, a in enumerate(basis):
        assert np.abs(a - a.conj().T).max() == 0.0
        for j, b in enumerate(basis):
            ref = 1.0 if i == j else 0.0
            assert abs(np.trace(a @ b) - ref) < 1e-14
    half = np.eye(2) / 2
    coeff = [np.trace(e @ half).real for e in basis]
    assert np.allclose(coeff, [1 / np.sqrt(2), 0, 0, 0])
    zero_proj = np.diag([1.0, 0.0])
    coeff = [np.trace(e @ zero_proj).real for e in basis]
    assert np.allclose(coeff, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
    # the Pauli basis only fits qubit legs
    with pytest.raises(DomainError, match=r"needs legs \(2, 2\), got \(2, 3\)"):
        witness_report(DensityMatrix(np.eye(6) / 6, (2, 3)))


def test_correlation_matrix_maximally_mixed():
    r = correlation_matrix(DensityMatrix(np.eye(4) / 4, (2, 2)))
    expect = np.zeros((4, 4))
    expect[0, 0] = 0.5
    assert np.abs(r - expect).max() < 1e-14


def test_correlation_matrix_exact_on_dyadic_state():
    # the Paulis are contracted and the sum halved, so no rounded 1/sqrt(2) enters
    r = correlation_matrix(cc_state(np.diag([0.5, 0.5])))
    assert np.array_equal(r, np.diag([0.5, 0.0, 0.0, 0.5]))


def test_correlation_matrix_werner_slots():
    for z in (0.0, 0.2, 1.0 / 3.0, 1.0):
        r = correlation_matrix(werner(z))
        expect = np.diag([0.5, -z / 2, -z / 2, -z / 2])
        assert np.abs(r - expect).max() < 1e-12


def test_correlation_matrix_rotated_bases():
    # r_nm = Tr[rho (P_n x P_m)], against an explicit kron and trace
    rng = np.random.default_rng(SEED + 4)
    for rho in [werner(0.3)] + [random_density(rng, 4, (2, 2)) for _ in range(5)]:
        ref = np.array(
            [[np.trace(rho.matrix @ np.kron(a, b)).real for b in _PAULI_BASIS] for a in _PAULI_BASIS]
        )
        assert np.abs(correlation_matrix(rho) - ref).max() < 1e-13


def test_correlation_matrix_errors():
    with pytest.raises(DomainError):
        correlation_matrix(DensityMatrix(np.eye(8) / 8, (2, 2, 2)))
    # the Pauli basis needs two qubit legs
    with pytest.raises(DomainError, match=r"needs legs \(2, 2\), got \(2, 3\)"):
        correlation_matrix(DensityMatrix(np.eye(6) / 6, (2, 3)))


def test_decompose_sf_ranks():
    rng = np.random.default_rng(SEED)
    prod = tensor(random_density(rng, 2), random_density(rng, 2))
    assert decompose_sf(prod).l_rank == 1
    assert decompose_sf(werner(0.0)).l_rank == 1
    for z in (1e-4, 0.1, 1.0 / 3.0, 1.0):
        assert decompose_sf(werner(z)).l_rank == 4
    assert decompose_sf(cc_state(np.diag([0.5, 0.5]))).l_rank == 2


def test_decompose_sf_singular_values():
    rep = decompose_sf(werner(0.3))
    expect = np.sort([0.5, 0.15, 0.15, 0.15])[::-1]
    assert np.abs(rep.singular_values - expect).max() < 1e-12


def test_decompose_sf_reconstruction_on_zoo():
    for name, rho, _ in build_zoo():
        rep = decompose_sf(rho)
        recon = np.zeros((4, 4), dtype=complex)
        for k in range(rep.l_rank):
            recon += rep.singular_values[k] * np.kron(rep.s_ops[k], rep.f_ops[k])
        assert np.abs(recon - rho.matrix).max() < 1e-9, name


def test_commutator_norm_matches_pairwise_loop():
    # reference: the explicit i < j loop over the S_k
    rng = np.random.default_rng(SEED + 6)
    states = [rho for _, rho, _ in build_zoo()]
    states += [random_density(rng, 4, (2, 2), rank=1 + i % 4) for i in range(150)]
    for i, rho in enumerate(states):
        rep = witness_report(rho)
        ops = rep.s_ops
        ref = max(
            (
                float(np.linalg.norm(ops[a] @ ops[b] - ops[b] @ ops[a]))
                for a in range(rep.l_rank)
                for b in range(a + 1, rep.l_rank)
            ),
            default=0.0,
        )
        assert abs(rep.max_commutator_norm - ref) <= 1e-15, i
        assert rep.verdicts["commutator_zero_discord"] == (ref <= 1e-9), i

    rep = witness_report(cc_state(np.diag([0.5, 0.5])))
    assert rep.max_commutator_norm <= 1e-10 and rep.verdicts["commutator_zero_discord"]
    rep = witness_report(werner(1.0 / 3.0))
    assert rep.max_commutator_norm > 0.1 and not rep.verdicts["commutator_zero_discord"]
    prod = tensor(random_density(rng, 2), random_density(rng, 2))
    rep = witness_report(prod)
    assert rep.l_rank == 1  # single operator, vacuous
    assert rep.max_commutator_norm == 0.0 and rep.verdicts["commutator_zero_discord"]


def _commutator_norms_by_products(r):
    """Reference for ``max_commutator_norm`` of a stack of correlation matrices r: each
    S_k of r's SVD built as a 2 x 2 complex matrix, and the largest Frobenius norm of
    S_k S_l - S_l S_k over the pairs k < l of kept singular values.  Returns the norms
    and the ranks L."""
    u, s, _ = np.linalg.svd(r)
    kept = s > RANK_TOL
    s_ops = (np.swapaxes(u, 1, 2) @ _PAULI_BASIS.reshape(4, 4)).reshape(-1, 4, 2, 2)
    k, l = np.triu_indices(4, 1)
    a, b = s_ops[:, k], s_ops[:, l]
    norms = np.linalg.norm(a @ b - b @ a, axis=(2, 3))
    return np.where(kept[:, k] & kept[:, l], norms, 0.0).max(axis=1), kept.sum(axis=1)


def _near_classical_quantum(rng):
    """The near-CQ mixtures of the verdict tests: (1 - eps) rho + eps rho_random over CC, CQ
    and product rho, eps log-uniform in [1e-14, 1e-6], and the 300 CQ-family states mixed
    at eps = 1e-6 and 1e-3."""
    states = []
    for make in (random_cc, random_cq, random_product):
        for _ in range(100):
            eps = 10.0 ** rng.uniform(-14, -6)
            states.append((1 - eps) * make(rng).matrix + eps * random_two_qubit(rng).matrix)
    family = [rho.matrix for rho, _ in classical_quantum_states(rng, 300)]
    for eps in (1e-6, 1e-3):
        states += [(1 - eps) * m + eps * random_two_qubit(rng).matrix for m in family]
    return family, [DensityMatrix(m, (2, 2)) for m in states]


def test_commutator_closed_form_matches_matrix_products():
    """max_commutator_norm = sqrt(2) max |u_k x u_l| agrees to 1e-15 with the 2 x 2 complex
    products of the S_k, and l_rank and both verdicts with theirs, on the zoo, the Bell
    states and werner(1) (four singular values 0.5), the CQ family and near-CQ mixtures."""
    rng = np.random.default_rng(SEED + 8)
    family, mixtures = _near_classical_quantum(rng)
    states = [rho.matrix for _, rho, _ in build_zoo()]
    states += [np.outer(bell(b).vector, bell(b).vector.conj()) for b in ("phi+", "phi-", "psi+", "psi-")]
    states += [werner(1.0).matrix] + family + [rho.matrix for rho in mixtures]
    m = np.stack(states)
    ref, ranks = _commutator_norms_by_products(correlations._correlation_matrices(m))
    assert ref.max() == pytest.approx(np.sqrt(2.0))  # the largest norm is on the set
    for i, mi in enumerate(m):
        rep = witness_report(DensityMatrix(mi, (2, 2)))
        assert abs(rep.max_commutator_norm - ref[i]) <= 1e-15, i
        assert rep.l_rank == ranks[i], i
        assert dict(rep.verdicts) == {
            "commutator_zero_discord": bool(ref[i] <= COMMUTATOR_TOL), "rank_witness": bool(ranks[i] > 2)
        }, i


def test_commutator_closed_form_keeps_sweep_verdicts():
    """On every row of sweep_rows(0, 1, 10000) the rank L and both verdicts are those of
    the 2 x 2 complex products, and the norms agree to 1e-15."""
    zs = np.linspace(0.0, 1.0, 10000)
    rows = list(sweep_rows(0.0, 1.0, 10000))
    m, _ = _werner_stack(zs)
    r = correlations._measured_parts(m, (2, 2)) / 2.0
    ref, ranks = _commutator_norms_by_products(r)
    reports = witness._witness_reports(r, m)
    assert [row["rank_L"] for row in rows] == [rep.l_rank for rep in reports] == ranks.tolist()
    norms = np.array([rep.max_commutator_norm for rep in reports])
    assert np.abs(norms - ref).max() <= 1e-15
    assert [rep.verdicts["commutator_zero_discord"] for rep in reports] == (ref <= COMMUTATOR_TOL).tolist()
    assert [rep.verdicts["rank_witness"] for rep in reports] == (ranks > 2).tolist()


def test_witness_report_is_read_only():
    rep = witness_report(werner(0.25))
    with pytest.raises(TypeError):
        rep.verdicts["rank_witness"] = False
    with pytest.raises(ValueError):
        rep.singular_values[0] = 0.0
    with pytest.raises(ValueError):
        rep.s_ops[0] = 0.0
    assert rep.verdicts["rank_witness"]


def test_decompose_sf_is_the_complete_witness():
    rep = decompose_sf(werner(0.25))
    assert list(rep.verdicts) == ["commutator_zero_discord", "rank_witness"]
    assert isinstance(rep.max_commutator_norm, float)
    assert rep.s_ops.shape == rep.f_ops.shape == (rep.l_rank, 2, 2)


def test_witness_report_is_frozen():
    rep = witness_report(werner(0.25))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.max_commutator_norm = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.l_rank = 1


def test_rank_witness():
    assert witness_report(werner(0.2)).verdicts["rank_witness"]
    assert not witness_report(cc_state(np.diag([0.5, 0.5]))).verdicts["rank_witness"]
    assert not witness_report(werner(0.0)).verdicts["rank_witness"]


def test_witness_report_composition():
    rep = witness_report(werner(0.25))
    assert rep.l_rank == 4
    assert rep.max_commutator_norm is not None
    assert rep.verdicts["rank_witness"]
    assert not rep.verdicts["commutator_zero_discord"]


def test_rank_is_basis_independent():
    # U_A x U_B rotates the Pauli coefficients by orthogonal O_A, O_B, which
    # is a change of local operator basis: L, the singular values and both
    # verdicts must not move
    rng = np.random.default_rng(SEED + 2)
    for name, rho, _ in build_zoo():
        ref = decompose_sf(rho)
        for _ in range(3):
            u = np.kron(*(np.column_stack(random_qubit_basis(rng)) for _ in range(2)))
            rot = decompose_sf(DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2)))
            assert rot.l_rank == ref.l_rank, name
            assert np.abs(rot.singular_values - ref.singular_values).max() <= 1e-12, name
            assert dict(rot.verdicts) == dict(ref.verdicts), name


def test_witness_verdicts_match_discord_tags_on_zoo():
    # the full 50-state agreement check lives in the acceptance suite;
    # spot-check the structurally distinct entries here
    from qdissonance import discord

    rng = np.random.default_rng(SEED + 3)
    zoo = build_zoo()
    picks = [zoo[0], zoo[1], zoo[20], zoo[21], zoo[25], zoo[30], zoo[35], zoo[45]]
    for name, rho, tag in picks:
        rep = witness_report(rho)
        if rep.verdicts["rank_witness"]:
            assert tag == "nonzero", name
        assert rep.verdicts["commutator_zero_discord"] == (tag == "zero"), name


def test_commutator_verdict_near_zero_discord_boundary():
    # (1 - eps) * zero-discord state + eps * random state, eps log-uniform in
    # [1e-14, 1e-6]: commutator norms land on both sides of COMMUTATOR_TOL.
    # Every state the commutator test passes must have vanishing discord.
    from qdissonance import discord

    rng = np.random.default_rng(SEED + 5)
    verdicts = []
    passing_norms = []
    for make in (random_cc, random_cq, random_product):
        for _ in range(100):
            eps = 10.0 ** rng.uniform(-14, -6)
            mixed = (1 - eps) * make(rng).matrix + eps * random_two_qubit(rng).matrix
            rho = DensityMatrix(mixed, (2, 2))
            rep = witness_report(rho)
            zero = rep.verdicts["commutator_zero_discord"]
            verdicts.append(zero)
            if zero:
                passing_norms.append(rep.max_commutator_norm)
                assert discord(rho).discord <= 1e-9, (make.__name__, eps)
    assert any(verdicts) and not all(verdicts)
    assert max(passing_norms) > 1e-10
    # the threshold itself: rho_eps = (I x I + eps sx x I + sz x sz / 2) / 4 has L = 2, so
    # RANK_TOL drops nothing, and commutator norm sqrt(2) eps, read against COMMUTATOR_TOL
    sx, sz = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    for eps, zero in ((1e-9, False), (5e-10, True)):
        m = (np.eye(4) + eps * np.kron(sx, np.eye(2)) + np.kron(sz, sz) / 2) / 4
        rep = witness_report(DensityMatrix(m, (2, 2)))
        assert rep.l_rank == 2 and not rep.verdicts["rank_witness"], eps
        assert rep.max_commutator_norm == pytest.approx(np.sqrt(2.0) * eps, rel=1e-6), eps
        assert rep.verdicts["commutator_zero_discord"] == zero, eps


def test_commutator_verdict_agrees_with_the_zero_discord_rule():
    """The commutator verdict and the zero-discord rule of the discord pass (sigma_2 of
    B = [x | T] within ZERO_DISCORD_TOL |2 r|) agree on the zoo, on 300 CC, CQ and
    product states, and on those mixed with a random state at eps = 1e-6 and 1e-3."""
    rng = np.random.default_rng(SEED + 6)
    zoo = build_zoo()
    family = [rho for rho, _ in classical_quantum_states(rng, 300)]
    states = [rho for _, rho, _ in zoo] + family
    for eps in (1e-6, 1e-3):
        states += [
            DensityMatrix((1 - eps) * rho.matrix + eps * random_two_qubit(rng).matrix, (2, 2))
            for rho in family
        ]
    parts = correlations._measured_parts(np.stack([rho.matrix for rho in states]), (2, 2))
    _, zero, _, _ = correlations._classify(parts)
    assert zero.tolist() == [tag == "zero" for _, _, tag in zoo] + [True] * 300 + [False] * 600
    verdicts = [witness_report(rho).verdicts["commutator_zero_discord"] for rho in states]
    assert verdicts == zero.tolist()
