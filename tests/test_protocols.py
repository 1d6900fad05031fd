import dataclasses

import numpy as np
import pytest

from qdissonance import protocols
from qdissonance import (
    DomainError,
    ProtocolUnavailableError,
    build_kraus,
    build_unitary,
    cc_pairs,
    certify,
    conditional_block,
    discord,
    geometric_discord,
    partial_trace,
    run_kraus_protocol,
    run_unitary_protocol,
    trace_distance,
    werner,
)

from _zoo import explicit_factors_z13

SEED = 7400
Z13 = 1.0 / 3.0
Z_GRID = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, Z13]


def _canon_phase(v):
    idx = int(np.argmax(np.abs(v) > 1e-8))
    return v / (v[idx] / abs(v[idx]))


def werner_discord_analytic(z):
    val = 0.0
    if 1 + 3 * z > 0:
        val += (1 + 3 * z) / 4 * np.log2(1 + 3 * z)
    if 1 - z > 0:
        val += (1 - z) / 4 * np.log2(1 - z)
    if 1 + z > 0:
        val -= (1 + z) / 2 * np.log2(1 + z)
    return val


def test_build_kraus_completeness():
    for z in Z_GRID:
        for side in ("A", "B"):
            ch = build_kraus(side, z)
            total = sum(m.conj().T @ m for m in ch.operators)
            assert np.abs(total - np.eye(4)).max() < 1e-12


def test_channel_and_unitary_refuse_non_isometries():
    """Completeness and unitarity are the one check max|C^dagger C - I| <= ISOMETRY_TOL."""
    ops = build_kraus("A", 0.2).operators
    with pytest.raises(DomainError, match=r"Kraus completeness violated by 1\.000e\+00"):
        protocols.KrausChannel(operators=ops[:3])
    with pytest.raises(DomainError, match="Kraus completeness violated"):
        protocols.KrausChannel(operators=tuple(m * (1 + 1e-9) for m in ops))
    with pytest.raises(DomainError, match="Kraus completeness violated by nan"):
        protocols.KrausChannel(operators=tuple(np.full((4, 4), np.nan) for _ in ops))
    protocols.KrausChannel(operators=tuple(m * (1 + 1e-12) for m in ops))
    u = build_unitary("A", Z13).matrix
    with pytest.raises(DomainError, match="unitarity violated"):
        protocols.LocalUnitary(matrix=u * (1 + 1e-9))
    # orthonormal columns pass U^dagger U = I; U U^dagger = I refuses them
    with pytest.raises(DomainError, match=r"unitarity violated by 1\.000e\+00"):
        protocols.LocalUnitary(matrix=u[:, :4])
    with pytest.raises(DomainError, match="unitarity violated by nan"):
        protocols.LocalUnitary(matrix=np.full((8, 8), np.nan))


def test_build_kraus_structure_z13():
    factors = explicit_factors_z13()
    ch = build_kraus("A", Z13)
    # i-th operator reads only pair-basis state i ...
    for i, m in enumerate(ch.operators):
        assert m.shape == (4, 4)
        mask = np.ones(4, dtype=bool)
        mask[i] = False
        assert np.abs(m[:, mask]).max() < 1e-14
    # ... and writes |flag=0> x (first factor of component 0) for i = 0,
    # up to the component's global phase
    col = ch.operators[0][:, 0]
    expect = np.kron(np.array([1.0, 0.0]), factors[0][0].vector)
    assert np.abs(_canon_phase(col) - _canon_phase(expect)).max() < 1e-10
    # flag qubit separates the first two operators from the last two
    for i in (0, 1):
        for j in (2, 3):
            prod = ch.operators[i] @ ch.operators[j].conj().T
            assert np.abs(prod).max() < 1e-14


def test_build_kraus_composite_rank_one():
    ch_a = build_kraus("A", 0.2)
    ch_b = build_kraus("B", 0.2)
    for ma, mb in zip(ch_a.operators, ch_b.operators):
        sa = np.linalg.svd(ma, compute_uv=False)
        sb = np.linalg.svd(mb, compute_uv=False)
        assert np.count_nonzero(sa > 1e-12) == 1
        assert np.count_nonzero(sb > 1e-12) == 1
        comp = np.kron(ma, mb)
        s = np.linalg.svd(comp, compute_uv=False)
        assert np.count_nonzero(s > 1e-12 * s[0]) == 1


def test_build_kraus_domain_errors():
    for z in (0.0, 0.4, -0.1, 1.0):
        with pytest.raises(DomainError):
            build_kraus("A", z)
    with pytest.raises(DomainError):
        build_kraus("C", 0.2)


def test_run_kraus_protocol_hits_target():
    for z in Z_GRID:
        res = run_kraus_protocol(z)
        assert res.kind == "kraus"
        assert res.trace_distance_to_target < 1e-10
        assert trace_distance(res.final, werner(z)) < 1e-10
        assert res.initial.legs == (2, 2, 2, 2)
        assert trace_distance(res.initial, cc_pairs(2)) < 1e-14


def test_run_kraus_protocol_small_z():
    res = run_kraus_protocol(1e-6)
    assert trace_distance(res.final, werner(0.0)) < 1e-5


def test_build_unitary_z13():
    factors = explicit_factors_z13()
    for side, pick in (("A", 0), ("B", 1)):
        u = build_unitary(side, Z13).matrix
        assert u.shape == (8, 8)
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12
        for m in range(2):
            for n in range(2):
                j = 2 * m + n
                basis_in = np.zeros(8)
                basis_in[4 * m + 2 * n + 0] = 1.0  # |m n 0>
                full = u @ basis_in
                out = full[2 * j : 2 * j + 2]  # target-qubit block
                rest = np.delete(full, [2 * j, 2 * j + 1])
                assert np.abs(rest).max() < 1e-14
                expect = factors[j][pick].vector
                assert np.abs(_canon_phase(out) - _canon_phase(expect)).max() < 1e-10


def test_build_unitary_block_diagonal_in_controls():
    u = build_unitary("A", Z13).matrix
    blocks = u.reshape(4, 2, 4, 2)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert np.abs(blocks[i, :, j, :]).max() < 1e-14


def test_build_unitary_unavailable_away_from_z13():
    for z in (0.2, 0.3, 0.05):
        with pytest.raises(ProtocolUnavailableError) as exc:
            build_unitary("A", z)
        expect = np.sqrt((1 - 3 * z) / 2)
        assert abs(exc.value.residual - expect) < 1e-10
        assert exc.value.z == z


def test_run_unitary_protocol():
    res = run_unitary_protocol(Z13)
    assert res.kind == "unitary"
    assert res.trace_distance_to_target < 1e-10
    assert abs(res.final.purity() - Z13) < 1e-12
    # a unitary cannot change the global spectrum
    ev_init = np.sort(np.linalg.eigvalsh(res.initial.matrix))
    ev_post = np.sort(np.linalg.eigvalsh(res.post_operation.matrix))
    assert np.abs(ev_init - ev_post).max() < 1e-10


def test_run_matches_explicit_kron_sandwich():
    """The factor-wise protocol run against sum_k (K_A x K_B) rho (K_A x K_B)^dagger."""
    cases = [
        (run_kraus_protocol(z), 2, list(zip(build_kraus("A", z).operators, build_kraus("B", z).operators)))
        for z in Z_GRID
    ]
    unitaries = [(build_unitary("A", Z13).matrix, build_unitary("B", Z13).matrix)]
    cases.append((run_unitary_protocol(Z13), 3, unitaries))
    for res, pairs, ops in cases:
        rho = cc_pairs(pairs).matrix
        expect = sum(np.kron(ka, kb) @ rho @ np.kron(ka, kb).conj().T for ka, kb in ops)
        post = res.post_operation.matrix
        assert np.abs(post - expect).max() <= 1e-15
        assert np.array_equal(post, post.conj().T)


def test_protocols_solve_no_large_eigenproblem(monkeypatch):
    """cc_pairs and the post-operation state take their spectra from 8 x 8 Gram matrices.

    Their eigenvalues match eigvalsh of the 64 x 64 (16 x 16) matrices to
    1e-15, and the largest eigensolve of a protocol run is 16 x 16.
    """
    for res in (run_unitary_protocol(Z13), run_kraus_protocol(0.2), run_kraus_protocol(Z13)):
        for rho in (res.initial, res.post_operation):
            assert np.abs(rho.eigenvalues - np.linalg.eigvalsh(rho.matrix)).max() <= 1e-15
            assert not rho.eigenvalues.flags.writeable
    sizes = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(np.linalg, name)

        def recording(m, *args, _real=real, **kwargs):
            sizes.append(np.shape(m)[-1])
            return _real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    run_unitary_protocol(Z13)
    run_kraus_protocol(0.2)
    assert sizes and max(sizes) <= 16


def test_each_run_decomposes_once(monkeypatch):
    calls = []
    real = protocols.product_decomposition

    def counting(z):
        calls.append(z)
        return real(z)

    monkeypatch.setattr(protocols, "product_decomposition", counting)
    run_kraus_protocol(0.2)
    assert calls == [0.2]
    run_unitary_protocol(Z13)
    assert calls == [0.2, Z13]


def test_conditional_blocks_are_two_branch_mixtures():
    from qdissonance import projector, tensor

    res = run_unitary_protocol(Z13)
    factors = explicit_factors_z13()
    for m in range(2):
        for n in range(2):
            blk = conditional_block(res.post_operation, m, n)
            j = 2 * m + n
            psi, phi = factors[j]
            mix = 0.5 * (
                tensor(projector(psi), projector(phi)).matrix
                + tensor(projector(phi), projector(psi)).matrix
            )
            assert np.abs(blk - mix).max() < 1e-10


def test_conditional_block_errors():
    res = run_unitary_protocol(Z13)
    with pytest.raises(DomainError):
        conditional_block(res.post_operation, 2, 0)
    with pytest.raises(DomainError):
        conditional_block(res.final, 0, 0)  # wrong leg structure
    with pytest.raises(DomainError, match="must be an integer"):
        conditional_block(res.post_operation, 0.0, 1.0)


def test_certify_z13_outputs():
    for runner in (run_kraus_protocol, run_unitary_protocol):
        res = runner(Z13)
        bundle = certify(res)
        corr = bundle.correlations
        assert corr.concurrence <= 1e-10
        assert corr.negativity <= 1e-10
        assert abs(corr.discord - werner_discord_analytic(Z13)) < 1e-6
        assert abs(corr.geometric_discord - Z13**2 / 2) < 1e-9
        wit = bundle.witness
        assert wit.l_rank == 4
        assert wit.verdicts["rank_witness"]
        assert not wit.verdicts["commutator_zero_discord"]
    # a result whose final state is not two qubits is refused, not read as a stack
    with pytest.raises(DomainError):
        certify(dataclasses.replace(res, final=res.post_operation))


def test_protocol_result_is_frozen():
    res = run_kraus_protocol(0.2)
    certify(res)
    assert not hasattr(res, "certification")
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.final = res.initial


def test_protocols_create_discord_from_none():
    for z in (0.05, 0.2, Z13):
        res = run_kraus_protocol(z)
        marg = partial_trace(res.initial, (1, 3))
        rep = discord(marg)
        assert rep.discord <= 1e-9
        out = discord(res.final)
        assert out.discord > 1e-3
        assert out.concurrence == 0.0
