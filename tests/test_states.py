import time

import numpy as np
import pytest

from qdissonance import (
    DensityMatrix,
    DomainError,
    PhaseSolution,
    bell,
    cc_pairs,
    cc_state,
    cq_state,
    eta_states,
    partial_trace,
    phase_equation_residual,
    product_decomposition,
    projector,
    solve_phases,
    tensor,
    trace_distance,
    werner,
)

from qdissonance.states import _factor_products

from _zoo import explicit_factors_z13, haar_unitary, random_density

SEED = 7100
Z_GRID = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 1.0 / 3.0]


def _canon_phase(v):
    idx = int(np.argmax(np.abs(v) > 1e-8))
    return v / (v[idx] / abs(v[idx]))


def test_bell_states():
    s2 = 1 / np.sqrt(2)
    assert np.allclose(bell("psi-").vector, [0, s2, -s2, 0])
    assert np.allclose(bell("psi+").vector, [0, s2, s2, 0])
    assert np.allclose(bell("phi+").vector, [s2, 0, 0, s2])
    assert np.allclose(bell("phi-").vector, [s2, 0, 0, -s2])
    names = ("psi+", "psi-", "phi+", "phi-")
    for a in names:
        for b in names:
            ref = 1.0 if a == b else 0.0
            assert abs(np.vdot(bell(a).vector, bell(b).vector) - ref) < 1e-15
    for name in names:
        rho = projector(bell(name))
        for leg in (0, 1):
            red = partial_trace(rho, (leg,))
            assert np.abs(red.matrix - np.eye(2) / 2).max() < 1e-15
    with pytest.raises(DomainError):
        bell("omega")


def test_werner_eigenvalues():
    for z in Z_GRID + [0.5, 1.0]:
        lam = np.sort(np.linalg.eigvalsh(werner(z).matrix))
        expect = np.sort([(1 + 3 * z) / 4, (1 - z) / 4, (1 - z) / 4, (1 - z) / 4])
        assert np.abs(lam - expect).max() < 1e-12
    assert np.abs(werner(0.0).matrix - np.eye(4) / 4).max() < 1e-15
    psim = bell("psi-").vector
    assert np.abs(werner(1.0).matrix - np.outer(psim, psim.conj())).max() < 1e-15
    with pytest.raises(DomainError):
        werner(-0.01)
    with pytest.raises(DomainError):
        werner(1.01)


def test_solve_phases_branch():
    t1, t2, t3, t4 = solve_phases(0.0).thetas
    assert t1 == 0.0
    assert t2 == pytest.approx(np.pi / 2)
    assert t3 == pytest.approx(np.pi / 4)
    assert t4 == pytest.approx(3 * np.pi / 4)
    assert solve_phases(1.0 / 3.0).thetas[2:] == pytest.approx((np.pi / 2, np.pi / 2))
    for z in Z_GRID:
        assert solve_phases(z).residual() <= 1e-10
    with pytest.raises(DomainError):
        solve_phases(0.4)
    with pytest.raises(DomainError):
        solve_phases(-0.1)


def test_phase_solution_rejects_bad_phases():
    for z, thetas in ((0.2, (0.0, 0.0, 0.0, 0.0)), (np.nan, solve_phases(0.2).thetas)):
        with pytest.raises(DomainError, match="phase equation residual"):
            PhaseSolution(z=z, thetas=thetas)
    assert phase_equation_residual((0, 0, 0, 0), 0.2) == pytest.approx(4.0)


def test_eta_states_identities():
    for z in Z_GRID:
        etas = eta_states(z)
        recon = np.zeros((4, 4), dtype=complex)
        for j, ej in enumerate(etas):
            assert abs(np.vdot(ej.vector, ej.vector) - 0.25) < 1e-10
            for k, ek in enumerate(etas):
                if j != k:
                    assert abs(np.vdot(ej.vector, ek.vector) - z / 4) < 1e-10
            recon += np.outer(ej.vector, ej.vector.conj())
        assert np.abs(recon - werner(z).matrix).max() < 1e-10
    assert np.abs(
        sum(np.outer(e.vector, e.vector.conj()) for e in eta_states(0.0)) - np.eye(4) / 4
    ).max() < 1e-12
    with pytest.raises(DomainError):
        eta_states(0.34)


def test_eta_states_z13_match_explicit_product():
    etas = eta_states(1.0 / 3.0)
    pairs = explicit_factors_z13()
    for j in range(4):
        assert abs(4 * np.vdot(etas[j].vector, etas[j].vector) - 1.0) < 1e-12
        target = 0.5 * np.kron(pairs[j][0].vector, pairs[j][1].vector)
        assert np.abs(etas[j].vector - target).max() < 1e-9


def _scalar_factoring(m):
    """One 2x2 row factored with numpy's scalar arithmetic: left, right and the phase."""
    u, s, vh = np.linalg.svd(m)
    factors, product = [], s[0]
    for v in (u[:, 0], vh[0]):
        ph = v[np.argmax(np.abs(v) > 1e-8)]
        ph = ph / abs(ph)
        factors.append(v / ph)
        product = product * ph
    return factors, float(np.angle(product))


def test_factor_products_random_stack():
    """One stacked call factors 200 random products and |01>, each row bit for bit
    as its own call and as numpy's scalar arithmetic on that row."""
    rng = np.random.default_rng(SEED)
    u = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    v = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # |01>: its first amplitude is 0, so its right factor takes the second as reference
    u = np.vstack([u, [1, 0]])
    v = np.vstack([v, [0, 1]])
    m = u[:, :, None] * v[:, None, :]
    f, phases = _factor_products(m)
    assert f.shape == (2, 201, 2) and phases.shape == (201,)
    for k in range(201):
        fk, pk = _factor_products(m[k : k + 1])
        assert fk.tobytes() == f[:, k : k + 1].tobytes() and pk.tobytes() == phases[k : k + 1].tobytes()
        (left, right), phase = _scalar_factoring(m[k])
        assert f[0, k].tobytes() == left.tobytes() and f[1, k].tobytes() == right.tobytes()
        assert phases[k] == phase
        assert np.abs(f[0, k] - _canon_phase(u[k])).max() < 1e-10
        assert np.abs(f[1, k] - _canon_phase(v[k])).max() < 1e-10
        rebuilt = np.exp(1j * phases[k]) * np.kron(f[0, k], f[1, k])
        assert np.abs(rebuilt - m[k].reshape(-1)).max() < 1e-10
    assert np.array_equal(f[:, 200], [[1, 0], [0, 1]]) and phases[200] == 0.0


def test_explicit_factors_identities():
    pairs = explicit_factors_z13()
    assert len(pairs) == 4
    for a, b in pairs:
        assert abs(np.linalg.norm(a.vector) - 1) < 1e-12
        assert abs(np.linalg.norm(b.vector) - 1) < 1e-12
        assert abs(np.vdot(a.vector, b.vector)) < 1e-10
    for j in range(4):
        for k in range(4):
            if j == k:
                continue
            cross = np.vdot(pairs[j][0].vector, pairs[k][0].vector) * np.vdot(
                pairs[j][1].vector, pairs[k][1].vector
            )
            assert abs(cross - 1.0 / 3.0) < 1e-10
    mix = sum(
        0.25
        * np.kron(
            np.outer(a.vector, a.vector.conj()), np.outer(b.vector, b.vector.conj())
        )
        for a, b in pairs
    )
    assert np.abs(mix - werner(1.0 / 3.0).matrix).max() < 1e-10


def test_product_decomposition_invariants():
    for z in Z_GRID:
        dec = product_decomposition(z)
        assert dec.z == pytest.approx(z)
        recon = np.zeros((4, 4), dtype=complex)
        for eta, (left, right), phase in zip(dec.etas, dec.factors, dec.phases):
            pair = eta.norm() * np.exp(1j * phase) * np.kron(left.vector, right.vector)
            assert np.abs(pair - eta.vector).max() < 1e-10
            recon += np.outer(eta.vector, eta.vector.conj())
        assert np.abs(recon - werner(z).matrix).max() < 1e-10
    # At z = 0 the rows of the factored stack pick different reference amplitudes
    # (on Z_GRID only there): components 0 and 1 their right factor's first,
    # components 2 and 3 its second, as the first is below PHASE_REF_CUTOFF.
    rights = np.array([right.vector for _, right in product_decomposition(0.0).factors])
    assert np.abs(rights[:2] - [1, 0]).max() <= 1e-15
    assert np.abs(rights[2:] - [0, 1]).max() <= 1e-15
    assert 0 < np.abs(rights[2:, 0]).max() <= 1e-8
    with pytest.raises(DomainError):
        product_decomposition(0.35)


def test_product_decomposition_z02_trace_distance():
    dec = product_decomposition(0.2)
    recon = sum(np.outer(e.vector, e.vector.conj()) for e in dec.etas)
    assert trace_distance(DensityMatrix(recon, (2, 2)), werner(0.2)) <= 1e-10


def test_product_decomposition_z13_matches_explicit():
    dec = product_decomposition(1.0 / 3.0)
    pairs = explicit_factors_z13()
    for j in range(4):
        assert np.abs(dec.factors[j][0].vector - _canon_phase(pairs[j][0].vector)).max() < 1e-9
        assert np.abs(dec.factors[j][1].vector - _canon_phase(pairs[j][1].vector)).max() < 1e-9


def test_cc_state():
    rho = cc_state(np.diag([0.5, 0.5]))
    expect = np.zeros((4, 4))
    expect[0, 0] = 0.5
    expect[3, 3] = 0.5
    assert np.abs(rho.matrix - expect).max() < 1e-15
    assert rho.legs == (2, 2)

    pure = cc_state(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.linalg.matrix_rank(pure.matrix, tol=1e-12) == 1

    with pytest.raises(DomainError):
        cc_state(np.array([[0.6, 0.0], [0.0, 0.5]]))  # sums to 1.1
    with pytest.raises(DomainError):
        cc_state(np.array([[-0.1, 0.6], [0.0, 0.5]]))
    with pytest.raises(DomainError):
        cc_state(np.diag([0.5, 0.5]), basis_a=[np.array([1, 0]), np.array([1, 1])])
    with pytest.raises(DomainError):
        cc_state(np.array([0.5, 0.5]))  # 1-D table
    for empty in (np.zeros((1, 0)), np.zeros((2, 0)), np.zeros((0, 2))):
        with pytest.raises(DomainError, match="empty"):
            cc_state(empty)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="cc_state: probability table has non-finite entries"):
            cc_state(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_cc_state_custom_bases():
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    rho = cc_state(np.diag([0.5, 0.5]), basis_a=[plus, minus], basis_b=[plus, minus])
    pp = np.outer(plus, plus.conj())
    mm = np.outer(minus, minus.conj())
    expect = 0.5 * np.kron(pp, pp) + 0.5 * np.kron(mm, mm)
    assert np.abs(rho.matrix - expect).max() < 1e-14


def _classical_reference(weights, avecs, blocks):
    """sum_i weights_i |a_i><a_i| x blocks_i, one Kronecker product per term."""
    d = len(avecs[0]) * len(blocks[0])
    rho = np.zeros((d, d), dtype=complex)
    for w, a, block in zip(weights, avecs, blocks):
        rho += w * np.kron(np.outer(a, a.conj()), block)
    return rho


def _cc_reference(p, avecs, bvecs):
    da, db = p.shape
    blocks = [np.outer(b, b.conj()) for b in bvecs]
    terms = [(p[i, j], avecs[i], blocks[j]) for i in range(da) for j in range(db)]
    return _classical_reference(*zip(*terms))


@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 5), (8, 8)])
def test_classical_states_match_kron_sum(da, db):
    """One contraction over the basis matrix gives the explicit sum of Kronecker products."""
    rng = np.random.default_rng(SEED + 10 * da + db)
    p = rng.dirichlet(np.ones(da * db)).reshape(da, db)
    p[0, -1] = 0.0
    p /= p.sum()
    ua, ub = haar_unitary(rng, da), haar_unitary(rng, db)
    rho = cc_state(p, list(ua.T), list(ub.T))
    assert np.abs(rho.matrix - _cc_reference(p, ua.T, ub.T)).max() < 1e-15
    assert rho.legs == (da, db)

    q = p.sum(axis=1)
    states_b = [random_density(rng, db) for _ in range(da)]
    rho = cq_state(q, list(ua.T), states_b)
    ref = _classical_reference(q, ua.T, [s.matrix for s in states_b])
    assert np.abs(rho.matrix - ref).max() < 1e-15
    assert rho.legs == (da, db)

    # computational bases, on the random table and on a dyadic one, are exact
    dyadic = rng.integers(0, 4, size=(da, db)).astype(float)
    dyadic[0, 0] = 1024 - dyadic.sum() + dyadic[0, 0]
    dyadic /= 1024
    ea, eb = np.eye(da), np.eye(db)
    for table in (p, dyadic):
        assert cc_state(table).matrix.tobytes() == _cc_reference(table, ea, eb).tobytes()
        q = table.sum(axis=1)
        ref = _classical_reference(q, ea, [s.matrix for s in states_b])
        assert cq_state(q, None, states_b).matrix.tobytes() == ref.tobytes()


def test_cc_state_largest_table_is_fast():
    """A uniform 32 x 32 table (d = 1024, the state-file cap) builds in one contraction."""
    p = np.full((32, 32), 1.0 / 1024)
    start = time.perf_counter()
    rho = cc_state(p)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"cc_state on a 32 x 32 table took {elapsed:.2f} s"
    assert rho.legs == (32, 32)
    assert np.array_equal(rho.matrix, np.diag(np.full(1024, 1.0 / 1024)).astype(complex))


def test_basis_errors():
    plus, minus = np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)
    table = np.diag([0.5, 0.5])
    sigma = DensityMatrix(np.eye(2) / 2)
    bad = {
        "expected 2 vectors of dimension 2": ([plus], [plus, minus, plus], [plus, np.ones(3)]),
        "vectors are not orthonormal": ([np.array([1, 0]), np.array([1, 1])], [plus, plus]),
    }
    for message, bases in bad.items():
        for basis in bases:
            for name, build in (
                ("basis_a", lambda v: cc_state(table, basis_a=v)),
                ("basis_b", lambda v: cc_state(table, basis_b=v)),
                ("basis_a", lambda v: cq_state([0.5, 0.5], v, [sigma, sigma])),
            ):
                with pytest.raises(DomainError, match=f"^{name}: {message}$"):
                    build(basis)


def test_cq_state():
    sigma = DensityMatrix(np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex))
    rho = cq_state([0.5, 0.5], None, [sigma, sigma])
    marg = partial_trace(rho, (1,))
    assert np.abs(rho.matrix - np.kron(marg.matrix, sigma.matrix)).max() < 1e-14

    proj0 = DensityMatrix(np.diag([1.0, 0.0]))
    proj1 = DensityMatrix(np.diag([0.0, 1.0]))
    assert np.abs(
        cq_state([0.5, 0.5], None, [proj0, proj1]).matrix - cc_state(np.diag([0.5, 0.5])).matrix
    ).max() < 1e-15

    with pytest.raises(DomainError):
        cq_state([0.5, 0.6], None, [sigma, sigma])
    with pytest.raises(DomainError):
        cq_state([0.5, 0.5], None, [sigma])
    with pytest.raises(DomainError):
        cq_state([0.5, 0.5], None, [sigma, sigma.matrix])
    for empty in ([], np.zeros((1, 0))):
        with pytest.raises(DomainError, match="empty"):
            cq_state(empty, None, [])
    for bad in (np.nan, -np.inf):
        with pytest.raises(DomainError, match="cq_state: probability table has non-finite entries"):
            cq_state([bad, 1.0], None, [sigma, sigma])


def test_cq_state_checks_the_state_it_builds():
    """`qdiss state cq` writes this state and the file must load back, so cq_state
    validates it: probabilities and B states each accepted at trace 1 + 0.9e-12
    compose to a trace of 1 + 1.8e-12, which it refuses."""
    b = DensityMatrix(np.diag([0.5, 0.5 + 0.9e-12]))
    with pytest.raises(DomainError, match=r"^matrix trace is 1\.0000000000018"):
        cq_state([0.5, 0.5 + 0.9e-12], None, [b, b])


def test_cc_pairs():
    two = cc_pairs(2)
    assert two.dim == 16
    assert two.legs == (2, 2, 2, 2)
    assert np.linalg.matrix_rank(two.matrix, tol=1e-10) == 4
    # each correlated pair marginal is the uniform CC state
    pair = cc_state(np.diag([0.5, 0.5]))
    assert np.abs(partial_trace(two, (1, 3)).matrix - pair.matrix).max() < 1e-14
    assert np.abs(partial_trace(two, (0, 2)).matrix - pair.matrix).max() < 1e-14

    three = cc_pairs(3)
    assert three.dim == 64
    assert np.linalg.matrix_rank(three.matrix, tol=1e-10) == 8
    assert three.purity() == pytest.approx(1.0 / 8.0, abs=1e-12)

    with pytest.raises(DomainError):
        cc_pairs(4)
    with pytest.raises(DomainError, match="must be an integer"):
        cc_pairs(2.0)
    assert cc_pairs(np.int64(2)).legs == (2, 2, 2, 2)


def test_cc_pairs_leg_order():
    # the pairs' tensor product regrouped from [A_1, B_1, A_2, ...] to all-A-then-all-B
    pair = cc_state(np.diag([0.5, 0.5]))
    for k in (2, 3):
        rho = pair
        for _ in range(k - 1):
            rho = tensor(rho, pair)
        d = 4**k
        perm = tuple(range(0, 2 * k, 2)) + tuple(range(1, 2 * k, 2))
        axes = perm + tuple(2 * k + p for p in perm)
        regrouped = rho.matrix.reshape((2,) * (4 * k)).transpose(axes).reshape(d, d)
        assert np.array_equal(cc_pairs(k).matrix, regrouped)
    # diagonal weight sits on |ii'> x |ii'>, i.e. A-string equals B-string
    two = cc_pairs(2)
    diag = np.real(np.diag(two.matrix)).reshape(2, 2, 2, 2)
    for a1 in range(2):
        for a2 in range(2):
            for b1 in range(2):
                for b2 in range(2):
                    expect = 0.25 if (a1 == b1 and a2 == b2) else 0.0
                    assert diag[a1, a2, b1, b2] == pytest.approx(expect, abs=1e-14)
