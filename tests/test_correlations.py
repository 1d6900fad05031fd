import dataclasses
import tracemalloc

import numpy as np
import pytest

from qdissonance import (
    DensityMatrix,
    DomainError,
    bell,
    cc_state,
    certify,
    classical_correlation,
    concurrence,
    conditional_entropy_after,
    cq_state,
    discord,
    entropy,
    geometric_discord,
    negativity,
    partial_trace,
    projector,
    qubit_measurement,
    run_kraus_protocol,
    run_unitary_protocol,
    tensor,
    total_correlation,
    werner,
    witness_report,
)
from qdissonance import cli, correlations, protocols, witness
from qdissonance.cli import sweep_rows
from qdissonance.correlations import (
    DEFAULT_GRID,
    Measurement,
    _STENCIL,
    _angles,
    _conditional_entropy_objective,
    _direction,
    _grid_directions,
    _measured_parts,
    _minimize_over_directions,
    _refine,
    _rule_measurements,
    _scan,
)
from qdissonance.qla import (
    CURVATURE_CUTOFF, DIFFERENCE_STEP, FLAT_SPREAD_TOL, NEWTON_ITER_CAP, NEWTON_TOL, PROB_CUTOFF,
    SCAN_SCREEN_TOL, ZERO_DISCORD_TOL,
)

from _zoo import (
    build_zoo, classical_quantum_states, haar_unitary, near_pure_rotated, random_cc, random_cq,
    random_density, random_product, random_qubit_basis, random_two_qubit,
    werner_with_imaginary_residual,
)

SEED = 7200


def _parts(rho):
    """One state's ``_measured_parts``: the N = 1 case of the stacked kernel."""
    return _measured_parts(rho.matrix[None], rho.legs)[0]


def werner_discord_analytic(z):
    """(1+3z)/4 log2(1+3z) + (1-z)/4 log2(1-z) - (1+z)/2 log2(1+z)."""
    terms = 0.0
    if 1 + 3 * z > 0:
        terms += (1 + 3 * z) / 4 * np.log2(1 + 3 * z)
    if 1 - z > 0:
        terms += (1 - z) / 4 * np.log2(1 - z)
    return terms - (1 + z) / 2 * np.log2(1 + z)


def test_entropy_examples():
    assert entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(1.0, abs=1e-12)
    assert entropy(projector(bell("phi+"))) == pytest.approx(0.0, abs=1e-12)
    expect = 0.5 + 0.5 * np.log2(6.0)
    assert entropy(werner(1.0 / 3.0)) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(1.7925, abs=1e-4)
    # a pure spectrum {0, 1} gives +0.0, not -0.0
    assert np.copysign(1.0, entropy(cc_state([[1.0, 0.0], [0.0, 0.0]]))) == 1.0


def test_entropy_reads_the_validated_spectrum(monkeypatch):
    rho = werner(0.3)
    expect = entropy(rho)

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("entropy recomputed the spectrum")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    assert entropy(rho) == expect


def test_total_correlation():
    rng = np.random.default_rng(SEED)
    prod = tensor(random_density(rng, 2), random_density(rng, 2))
    assert abs(total_correlation(prod)) < 1e-12
    assert total_correlation(werner(1.0)) == pytest.approx(2.0, abs=1e-12)
    assert total_correlation(cc_state(np.diag([0.5, 0.5]))) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        total_correlation(DensityMatrix(np.eye(8) / 8, (2, 2, 2)))


def test_qubit_measurement():
    # the angles are the whole state
    assert [f.name for f in dataclasses.fields(Measurement)] == ["theta", "phi"]
    m = qubit_measurement(np.pi / 2, 0.0)
    assert Measurement(theta=np.pi / 2, phi=0.0) == m
    # a non-finite angle is no direction; it must not reach the entropy
    for bad in ((float("nan"), 0.0), (0.0, float("nan")), (np.inf, 0), (0.0, -np.inf)):
        with pytest.raises(DomainError, match="finite"):
            qubit_measurement(*bad)
    # real scalars only: np.isfinite passes a complex, which failed later inside the entropy
    complex_ = np.complex128(0.5 + 0.1j)
    for bad in ((1j, 0.0), (complex_, 0.0), (0.0, np.array([0.1, 0.2])), ("0", 0.0), (10**400, 0)):
        with pytest.raises(DomainError, match="finite real numbers"):
            Measurement(*bad)
    for theta, phi in ((np.float64(0.5), 0), (1, np.float32(0.25)), (np.int64(1), 2.0)):
        assert Measurement(theta, phi) == Measurement(float(theta), float(phi))


def test_conditional_entropy_product_state():
    rng = np.random.default_rng(SEED + 1)
    rho_b = random_density(rng, 2)
    prod = tensor(random_density(rng, 2), rho_b)
    sb = entropy(rho_b)
    for _ in range(10):
        m = qubit_measurement(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        assert conditional_entropy_after(prod, m) == pytest.approx(sb, abs=1e-12)


def test_conditional_entropy_cc_computational():
    rho = cc_state(np.diag([0.5, 0.5]))
    m = qubit_measurement(0.0, 0.0)
    assert conditional_entropy_after(rho, m) == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_werner_direction_invariant():
    rng = np.random.default_rng(SEED + 2)
    for z in (0.2, 1.0 / 3.0, 0.8):
        rho = werner(z)
        ref = conditional_entropy_after(rho, qubit_measurement(0.0, 0.0))
        for _ in range(50):
            m = qubit_measurement(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            assert abs(conditional_entropy_after(rho, m) - ref) < 1e-9


def test_classical_correlation_examples():
    val, m = classical_correlation(cc_state(np.diag([0.5, 0.5])))
    assert val == pytest.approx(1.0, abs=1e-9)
    assert abs(abs(np.cos(m.theta)) - 1.0) < 1e-6  # computational direction

    val, _ = classical_correlation(projector(bell("psi-")))
    assert val == pytest.approx(1.0, abs=1e-6)

    rng = np.random.default_rng(SEED + 3)
    prod = tensor(random_density(rng, 2), random_density(rng, 2))
    val, _ = classical_correlation(prod)
    assert abs(val) < 1e-9

    with pytest.raises(DomainError):
        classical_correlation(DensityMatrix(np.eye(6) / 6, (3, 2)))


def test_discord_werner_grid_matches_analytic():
    for z in (0.1, 0.2, 1.0 / 3.0, 0.5, 0.75, 1.0):
        rep = discord(werner(z))
        assert rep.discord == pytest.approx(werner_discord_analytic(z), abs=1e-6)
        assert rep.discord == pytest.approx(rep.total - rep.classical, abs=1e-12)


def test_discord_werner_13_value():
    rep = discord(werner(1.0 / 3.0))
    assert rep.discord == pytest.approx(np.log2(3) / 2 - 2 / 3, abs=1e-9)
    assert rep.discord == pytest.approx(0.1258145836939115, abs=1e-9)


def test_discord_report_fields():
    rep = discord(werner(0.5))
    assert rep.geometric_discord == pytest.approx(0.125, abs=1e-12)
    assert rep.concurrence == pytest.approx(0.25, abs=1e-8)
    assert rep.negativity == pytest.approx(0.125, abs=1e-12)


def test_discord_zero_for_cc_and_cq():
    rng = np.random.default_rng(SEED + 4)
    rho = cc_state(np.diag([0.5, 0.5]))
    assert discord(rho).discord <= 1e-6
    for _ in range(100):
        cq = random_cq(rng)
        rep = discord(cq)
        assert rep.discord <= 1e-6
        assert geometric_discord(cq) == 0.0
        assert rep.geometric_discord == 0.0


def test_discord_qubit_qutrit_side():
    # B side larger than a qubit: report degrades gracefully
    rng = np.random.default_rng(SEED + 5)
    prod = tensor(random_density(rng, 2), random_density(rng, 3))
    rep = discord(prod)
    assert abs(rep.discord) <= 1e-6
    assert rep.geometric_discord is None
    assert rep.concurrence is None
    assert rep.negativity == pytest.approx(0.0, abs=1e-10)


def _bloch_by_trace(rho):
    """Local Bloch vector x and correlation tensor T from explicit traces."""
    sig = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    m = rho.matrix
    x = np.array([np.trace(m @ np.kron(s, np.eye(2))).real for s in sig])
    t = np.array([[np.trace(m @ np.kron(si, sj)).real for sj in sig] for si in sig])
    return x, t


def test_geometric_discord_closed_form():
    for name, rho, _ in build_zoo():
        x, t = _bloch_by_trace(rho)
        kmax = np.linalg.eigvalsh(np.outer(x, x) + t @ t.T)[-1]
        ref = (x @ x + np.sum(t * t) - kmax) / 4
        assert abs(geometric_discord(rho) - ref) < 1e-12, name
    for z in (0.0, 0.25, 1.0 / 3.0, 0.5, 1.0):
        assert geometric_discord(werner(z)) == pytest.approx(z * z / 2, abs=1e-12)
    assert geometric_discord(werner(1.0)) == pytest.approx(0.5, abs=1e-12)
    assert geometric_discord(werner(1.0 / 3.0)) == pytest.approx(1.0 / 18.0, abs=1e-12)
    assert geometric_discord(cc_state(np.diag([0.5, 0.5]))) == pytest.approx(0.0, abs=1e-12)
    # c = (0.9, delta, -delta / 2) under Haar-random U_A x U_B: (c_2^2 + c_3^2) / 4 is
    # far below the rounding of |x|^2 + |T|^2 - k_max, so it must not be taken as that difference
    rng = np.random.default_rng(SEED + 8)
    for delta in (1e-4, 1e-5, 1e-6, 1e-7):
        want = (delta**2 + (delta / 2) ** 2) / 4
        for _ in range(10):
            u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            m = _bell_diagonal((0.9, delta, -delta / 2)).matrix
            rho = DensityMatrix(u @ m @ u.conj().T, (2, 2))
            assert abs(geometric_discord(rho) - want) <= 1e-7 * want, delta
    with pytest.raises(DomainError):
        geometric_discord(DensityMatrix(np.eye(6) / 6, (2, 3)))
    with pytest.raises(DomainError):
        geometric_discord(werner(0.5), method="sideways")


def test_geometric_discord_brute_force():
    for z in (1.0 / 3.0, 1.0):
        brute = geometric_discord(werner(z), method="brute-force")
        assert brute == pytest.approx(z * z / 2, abs=1e-6)
    rng = np.random.default_rng(SEED + 6)
    for _ in range(10):
        rho = random_two_qubit(rng)
        closed = geometric_discord(rho)
        brute = geometric_discord(rho, method="brute-force")
        assert brute == pytest.approx(closed, abs=1e-4)


def _pure_product(rng):
    a, b = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
    v = np.kron(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return np.outer(v, v.conj())


def test_concurrence():
    z13 = 1.0 / 3.0
    for z in (0.0, 0.2, z13):
        assert concurrence(werner(z)) == 0.0
    # exactly 0 at the separable boundary from every route, not rounding noise
    assert concurrence(run_kraus_protocol(z13).final) == 0.0
    assert concurrence(run_unitary_protocol(z13).final) == 0.0
    z = z13 + 1e-6
    assert concurrence(werner(z)) == pytest.approx((3 * z - 1) / 2, abs=1e-12)
    # just above the boundary the value is reported, not floored at ENTANGLEMENT_FLOOR
    for delta in (1e-9, 1e-12):
        z = z13 + delta
        assert concurrence(werner(z)) == pytest.approx((3 * z - 1) / 2, abs=1e-14), delta
    rng = np.random.default_rng(SEED + 9)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        weights = rng.dirichlet(np.ones(k))
        mix = sum(w * random_product(rng).matrix for w in weights)
        assert concurrence(DensityMatrix(mix, (2, 2))) == 0.0
    # rank-deficient separable states: every Wootters lambda is rounding noise
    for k in (1, 2, 3) * 30:
        weights = rng.dirichlet(np.ones(k))
        mix = sum(w * _pure_product(rng) for w in weights)
        assert concurrence(DensityMatrix(mix, (2, 2))) == 0.0
    for z in (0.4, 0.6, 0.8, 1.0):
        assert concurrence(werner(z)) == pytest.approx((3 * z - 1) / 2, abs=1e-8)
    assert concurrence(projector(bell("psi-"))) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(DomainError):
        concurrence(DensityMatrix(np.eye(6) / 6, (2, 3)))


def test_negativity():
    for z in (0.0, 1.0 / 3.0):
        assert negativity(werner(z)) == pytest.approx(0.0, abs=1e-12)
    for z in (1.0 / 3.0 + 1e-6, 0.5, 1.0):
        assert negativity(werner(z)) == pytest.approx((3 * z - 1) / 4, abs=1e-12)
    # just above the boundary the value is reported, not floored at ENTANGLEMENT_FLOOR
    for delta in (1e-9, 1e-12):
        z = 1.0 / 3.0 + delta
        assert negativity(werner(z)) == pytest.approx((3 * z - 1) / 4, abs=1e-14), delta
    rng = np.random.default_rng(SEED + 7)
    prod = tensor(random_density(rng, 2), random_density(rng, 2))
    assert negativity(prod) == pytest.approx(0.0, abs=1e-12)
    # mixtures of 1-3 pure product states are separable: exactly 0, not rounding noise
    for i in range(500):
        weights = rng.dirichlet(np.ones(1 + i % 3))
        mix = sum(
            w * tensor(random_density(rng, 2, rank=1), random_density(rng, 2, rank=1)).matrix
            for w in weights
        )
        assert negativity(DensityMatrix(mix, (2, 2))) == 0.0, i


def test_opt_grid_flag_changes_resolution_not_result():
    rep_fine = discord(werner(0.5), grid=(96, 192))
    rep_default = discord(werner(0.5))
    assert rep_fine.discord == pytest.approx(rep_default.discord, abs=1e-7)
    with pytest.raises(DomainError):
        discord(werner(0.5), grid=(1, 4))
    # grid entries are integers, and there are exactly two of them
    for bad in ((64.5, 128), (64, 128.0), (64,), (8, 8, 8)):
        with pytest.raises(DomainError):
            discord(werner(0.3), grid=bad)
    rep_np = discord(werner(0.5), grid=(np.int64(96), np.int32(192)))
    assert rep_np.discord == rep_fine.discord


def _random_unitary(rng):
    return np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]


def _rotated_bell_diagonal(rng):
    """A Bell-diagonal state under random local unitaries: (rho, c, discord).

    With rho = (I + sum_i c_i s_i x s_i) / 4 and c = max |c_i|, Luo's
    closed form (PRA 77, 042303, 2008) gives the classical correlation
    [(1 - c) log2(1 - c) + (1 + c) log2(1 + c)] / 2, and the discord is
    I(A:B) minus it.  Both are invariant under local unitaries, which
    move the optimal measurement off the grid axes.
    """
    bells = [bell(name).vector for name in ("phi+", "phi-", "psi+", "psi-")]
    lam = rng.dirichlet(np.ones(4))
    m = sum(p * np.outer(v, v.conj()) for p, v in zip(lam, bells))
    c = np.diag(_bloch_by_trace(DensityMatrix(m, (2, 2)))[1])
    cmax = np.abs(c).max()
    classical = sum((1 + sgn * cmax) / 2 * np.log2(1 + sgn * cmax) for sgn in (-1, 1))
    luo = 2.0 + float(np.sum(lam * np.log2(lam))) - classical
    u = np.kron(_random_unitary(rng), _random_unitary(rng))
    return DensityMatrix(u @ m @ u.conj().T, (2, 2)), c, luo


def test_discord_matches_luo_on_rotated_bell_diagonal():
    """Luo's closed form for the discord, and the geometric discord
    (sum c_i^2 - max c_i^2) / 4, on rotated Bell-diagonal states."""
    rng = np.random.default_rng(SEED + 10)
    for _ in range(40):
        rho, c, luo = _rotated_bell_diagonal(rng)
        dg = (np.sum(c * c) - np.max(c * c)) / 4
        assert abs(discord(rho).discord - luo) <= 1e-9
        assert abs(geometric_discord(rho, method="brute-force") - dg) <= 1e-12


_SIGMA = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]


def _bell_diagonal(c):
    """The Bell-diagonal state (I + sum_i c_i s_i x s_i) / 4."""
    m = np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, _SIGMA))
    return DensityMatrix(m / 4, (2, 2))


def _explicit_conditional_entropy(rho, n):
    """sum_s p_s S(rho_B|s) from Tr_A[(P_s x I) rho (P_s x I)], P_s = (I + s n.sigma)/2."""
    ns = sum(c * s for c, s in zip(n, _SIGMA))
    db = rho.legs[1]
    total = 0.0
    for sgn in (1.0, -1.0):
        big = np.kron((np.eye(2) + sgn * ns) / 2.0, np.eye(db))
        post = (big @ rho.matrix @ big).reshape(2, db, 2, db)
        lam = np.clip(np.linalg.eigvalsh(np.einsum("abad->bd", post)), 0.0, None)
        p = lam.sum()
        total += -sum(v * np.log2(v) for v in lam if v > 1e-14) + (p * np.log2(p) if p > 1e-14 else 0.0)
    return total


def test_bloch_objective_matches_explicit_projection():
    """The two-qubit Bloch-form objective against explicit projective measurements.

    200 seeded states of rank 1-4, random directions: the conditional
    entropy agrees with Tr_A[(P x I) rho (P x I)] to 1e-13, is the same
    for n and -n, and classical_correlation's optimum is the value of
    conditional_entropy_after at the returned measurement.
    """
    rng = np.random.default_rng(SEED + 11)
    for i in range(200):
        rank = 1 + i % 4
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real, (2, 2))
        for _ in range(3):
            theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
            val = conditional_entropy_after(rho, qubit_measurement(theta, phi))
            assert abs(val - _explicit_conditional_entropy(rho, n)) <= 1e-13
            flipped = conditional_entropy_after(rho, qubit_measurement(np.pi - theta, phi + np.pi))
            assert abs(val - flipped) <= 1e-13
        if i % 20 == 0:
            classical, best = classical_correlation(rho)
            sb = entropy(partial_trace(rho, (0,)))
            assert abs(sb - classical - conditional_entropy_after(rho, best)) <= 1e-13
    # qubit-qudit states: the same split, with eigvalsh for the spectrum
    for i in range(20):
        db = (3, 5)[i % 2]
        rho = random_density(rng, 2 * db, (2, db), rank=1 + i % (2 * db))
        for _ in range(3):
            theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
            val = conditional_entropy_after(rho, qubit_measurement(theta, phi))
            assert abs(val - _explicit_conditional_entropy(rho, n)) <= 1e-13


def _scanned(objective, thetas, phis, tile=correlations._SCAN_TILE):
    """``_scan``'s result, and every value it scanned, captured tile by tile in grid order."""
    seen = []

    def capture(n, out=None):
        vals = objective(n, out=out)
        seen.append(vals.copy())
        return vals

    result = _scan(capture, thetas, phis, tile)
    return result, np.concatenate(seen)


def _planted(vals):
    """An objective that ignores its directions and gives ``vals`` in scan order."""
    pos = 0

    def objective(n, out=None):
        nonlocal pos
        out[...] = vals[pos : pos + out.size]
        pos += out.size
        return out

    return objective


def _assert_scan_selects(objective, thetas, phis, tile):
    """The scan's min, max and seeds are those of its whole value array, seeds by stable argsort."""
    (lo, hi, seeds, values), vals = _scanned(objective, thetas, phis, tile)
    assert vals.size == thetas.size * phis.size
    want = np.argsort(vals, kind="stable")[:3]
    assert np.array_equal(seeds, want), (seeds, want)
    assert np.array_equal(values, vals[want], equal_nan=True)
    assert np.array_equal([lo, hi], [vals.min(), vals.max()], equal_nan=True)
    return vals


def test_top3_selection_matches_stable_argsort():
    """The streamed scan keeps the three best cells exactly as a stable argsort of the grid.

    At a 64-direction tile planted ties straddle tiles, whole rows and
    pieces of one row; 2x2 has fewer than three hemisphere directions.
    """
    rng = np.random.default_rng(SEED + 12)
    for size in (1, 2, 3, 4, 7, 50, 1000):
        shapes = [(1, size), (size, 1)] + ([(size // 25, 25)] if size % 25 == 0 else [])
        for levels in (1, 2, 3, 5, 1000):
            vals = rng.integers(0, levels, size=size).astype(float)  # planted ties
            for rows, cols in shapes:
                got = _assert_scan_selects(_planted(vals), np.zeros(rows), np.zeros(cols), 64)
                assert np.array_equal(got, vals)
    # a NaN propagates to the min and max and sorts after every number, also
    # when it shares a later tile with the new best cells
    nan_cases = ((7, [0, 3]), (200, [1, 70, 130]), (160, [150]), (3, [0, 1, 2]), (130, range(128)))
    for size, nans in nan_cases:
        for vals in (rng.integers(0, 3, size=size).astype(float), np.arange(size, 0.0, -1.0)):
            vals[list(nans)] = np.nan
            _assert_scan_selects(_planted(vals), np.zeros(1), np.zeros(size), 64)
    # the isotropic Werner objective is flat up to rounding: ties everywhere
    werner_objective = _conditional_entropy_objective(_parts(werner(0.3)))
    generic = _conditional_entropy_objective(_parts(random_two_qubit(rng)))
    for tile in (64, correlations._SCAN_TILE):
        _assert_scan_selects(werner_objective, *_grid_directions(DEFAULT_GRID), tile)
        for grid in ((2, 2), (3, 5)):
            _assert_scan_selects(generic, *_grid_directions(grid), tile)


def test_qudit_scan_memory_is_bounded_by_tile(monkeypatch):
    """The scan tile counts split entries, so a (2, 16) scan stays small."""
    rng = np.random.default_rng(SEED + 14)
    rho = random_density(rng, 32, (2, 16))
    tracemalloc.start()
    try:
        discord(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    # the tile only splits the scan; the result does not depend on it
    small = random_density(rng, 6, (2, 3))
    ref = discord(small)
    monkeypatch.setattr(correlations, "_SCAN_TILE", 64)
    tiled = discord(small)
    assert abs(tiled.discord - ref.discord) <= 1e-14
    assert abs(tiled.classical - ref.classical) <= 1e-14


class _ReachedScan(Exception):
    pass


def test_qudit_scan_work_is_capped(monkeypatch):
    """A (2, d_B) search whose scan plus worst-case refinement exceeds
    MAX_QUDIT_SCAN_WORK is refused before it allocates or calls the objective."""
    rng = np.random.default_rng(SEED + 19)
    rho = random_density(rng, 64, (2, 32))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"\(2, 32\) state on grid 64x128 needs 4096"):
            classical_correlation(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20  # one scan tile of this state is 4 MiB

    calls = []
    make_objective = correlations._conditional_entropy_objective

    def counted(parts):
        objective = make_objective(parts)

        def call(n, out=None):
            calls.append(n.shape)
            return objective(n, out)

        return call

    monkeypatch.setattr(correlations, "_conditional_entropy_objective", counted)
    # the 837 refinement directions refuse (2, 44) on every grid, and a
    # coarser grid admits (2, 24)
    for db, grid, hint in ((44, (2, 2), "no grid"), (24, DEFAULT_GRID, "a coarser grid")):
        rho = random_density(rng, 2 * db, (2, db))
        with pytest.raises(DomainError, match=rf"needs \d+ scan \+ 837 refinement.*; {hint} admits it"):
            classical_correlation(rho, grid)
        with pytest.raises(DomainError, match=rf"\(2, {db}\) state on grid {grid[0]}x{grid[1]}"):
            discord(rho, grid)
    assert calls == []

    # the largest admitted cases reach the scan: (2, 43) at 2x2, (2, 23) at
    # the default grid and (2, 3) at the largest grid
    def reached(*args):
        raise _ReachedScan

    monkeypatch.setattr(correlations, "_minimize_over_directions", reached)
    for db, grid in ((43, (2, 2)), (23, DEFAULT_GRID), (3, (3, correlations.MAX_GRID_POINTS // 3))):
        with pytest.raises(_ReachedScan):
            classical_correlation(random_density(rng, 2 * db, (2, db)), grid)


def _searched(rho, grid=DEFAULT_GRID):
    """S(B) minus the search's minimum, and its angles: the scan and refinement alone."""
    objective = _conditional_entropy_objective(_parts(rho))
    val, theta, phi = _minimize_over_directions(objective, *_grid_directions(grid))
    return entropy(partial_trace(rho, (0,))) - val, theta, phi


def test_odd_and_tiny_grids_agree_with_luo_and_default():
    """Rotated Bell-diagonal states are decided by the axis rule on every grid, so the
    search is run on them directly; (2, 3) states and X states whose optimum only the
    second or third scan seed reaches at a coarse grid against the default grid."""
    rng = np.random.default_rng(SEED + 13)
    for _ in range(10):
        rho, _, luo = _rotated_bell_diagonal(rng)
        total = total_correlation(rho)
        for grid in ((2, 2), (3, 5), (15, 31)):
            assert abs(total - _searched(rho, grid)[0] - luo) <= 1e-9
            assert abs(discord(rho, grid=grid).discord - luo) <= 1e-9
    for _ in range(10):
        rho = random_density(rng, 6, (2, 3))
        ref = discord(rho).discord
        for grid in ((2, 2), (3, 5), (15, 31)):
            assert discord(rho, grid=grid).discord == pytest.approx(ref, abs=1e-7)
    for params in _SEED_X_STATES:
        rho = _x_state(*params)
        ref = classical_correlation(rho)[0]
        for grid in ((3, 5), (4, 8)):
            assert abs(classical_correlation(rho, grid=grid)[0] - ref) <= 1e-9, (params, grid)


def _at_pole(m):
    return (m.theta, m.phi) == (0.0, 0.0)


def test_flat_shortcut_fires_only_at_or_below_the_spread_tolerance():
    """A planted eps * sz x sz / 4 on werner(0.2) spreads the scan by ~0.3 eps, so the
    search alone reads it as flat, at the pole, only once that is below FLAT_SPREAD_TOL
    (~1.4e-14): at eps = 1e-15, not at 1e-13.  These states are axis rows, so the
    public path gives the same verdict from the axis rule, with no scan."""
    base = werner(0.2).matrix
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])) / 4
    ref, m = classical_correlation(werner(0.2))
    assert _at_pole(m)
    for eps in (1e-9, 1e-11, 1e-12, 1e-13):
        rho = DensityMatrix(base + eps * zz, (2, 2))
        val, theta, phi = _searched(rho)
        assert (theta, phi) != (0.0, 0.0), eps
        assert abs(val - ref) <= 1e-9, eps
        val, m = classical_correlation(rho)
        assert not _at_pole(m), eps
        assert abs(val - ref) <= 1e-9, eps
    rho = DensityMatrix(base + 1e-15 * zz, (2, 2))
    assert _searched(rho)[1:] == (0.0, 0.0)
    assert _at_pole(classical_correlation(rho)[1])
    # a scan too coarse to resolve every quadratic never reads as flat; the zero-discord
    # rule decides this state, so the search is run on it directly
    cc = cc_state(np.diag([0.5, 0.5]))
    for grid in ((2, 4), (2, 64), (4, 4), (64, 4)):
        assert _searched(cc, grid)[0] == pytest.approx(1.0, abs=1e-9), grid


def test_flat_objectives_match_closed_forms_at_the_pole():
    """Werner, Kraus-output, singlet, product and pure states against closed forms."""
    for z in np.linspace(0.0, 1.0, 21):
        rep = discord(werner(float(z)))
        assert _at_pole(rep.argmin_measurement), z
        assert abs(rep.discord - werner_discord_analytic(z)) <= 1e-12, z
        brute = geometric_discord(werner(float(z)), method="brute-force")
        assert abs(brute - z * z / 2) <= 1e-12, z
    for z in (0.05, 0.2, 1.0 / 3.0):
        rep = discord(run_kraus_protocol(z).final)
        assert _at_pole(rep.argmin_measurement), z
        assert abs(rep.discord - werner_discord_analytic(z)) <= 1e-12, z
    val, m = classical_correlation(projector(bell("psi-")))
    assert _at_pole(m) and abs(val - 1.0) <= 1e-12
    rng = np.random.default_rng(SEED + 15)
    for i in range(20):
        rep = discord(random_product(rng))
        assert _at_pole(rep.argmin_measurement), i
        assert abs(rep.discord) <= 1e-12 and abs(rep.classical) <= 1e-12, i
        pure = random_density(rng, 4, (2, 2), rank=1)
        rep = discord(pure)
        assert _at_pole(rep.argmin_measurement), i
        assert abs(rep.discord - entropy(partial_trace(pure, (1,)))) <= 1e-12, i
    prod23 = tensor(random_density(rng, 2), random_density(rng, 3))
    assert _at_pole(classical_correlation(prod23)[1])


def _no_scan(monkeypatch):
    def scan(*args):
        raise _ReachedScan

    monkeypatch.setattr(correlations, "_scan", scan)


def test_sphere_rule_decides_werner_class_states_without_a_scan(monkeypatch):
    """Werner states, their local rotations and both protocols' outputs are flat spheres
    (x = w = 0, M = T T^T prop. to I): the pole, with no scan, to Werner's closed form."""
    rng = np.random.default_rng(SEED + 20)
    zs = [float(z) for z in np.linspace(0.0, 1.0, 21)]
    cases = [(z, werner(z)) for z in zs]
    for z in zs:
        u = np.kron(_random_unitary(rng), _random_unitary(rng))
        cases.append((z, DensityMatrix(u @ werner(z).matrix @ u.conj().T, (2, 2))))
    cases += [(z, run_kraus_protocol(z).final) for z in (0.05, 0.2, 1.0 / 3.0)]
    cases.append((1.0 / 3.0, run_unitary_protocol(1.0 / 3.0).final))
    _no_scan(monkeypatch)
    for i, (z, rho) in enumerate(cases):
        rep = discord(rho)
        assert _at_pole(rep.argmin_measurement), i
        assert abs(rep.discord - werner_discord_analytic(z)) <= 1e-12, i


def test_states_just_off_the_sphere_reach_the_scan(monkeypatch):
    """A planted field eps sz x I / 4 on A gives x != 0; eps I x sz / 4 on B gives y != 0,
    so w = T y != 0 while M stays prop. to I.  A bad grid is refused before either rule."""
    _no_scan(monkeypatch)
    base = werner(0.3).matrix
    sz, i2 = np.diag([1.0, -1.0]), np.eye(2)
    for field in (np.kron(sz, i2), np.kron(i2, sz)):
        for eps in (1e-13, 1e-9):
            with pytest.raises(_ReachedScan):
                classical_correlation(DensityMatrix(base + eps * field / 4, (2, 2)))
    for grid in ((1, 1), (2, correlations.MAX_GRID_POINTS)):
        with pytest.raises(DomainError):
            classical_correlation(werner(0.3), grid=grid)


def _binary_entropy(p):
    return -sum(q * np.log2(q) for q in (p, 1.0 - p) if q > 0.0)


def _kernel_field_state(rng):
    """A state with x = 0 and y != 0 in ker T, and its discord from Luo's closed form.

    (I + s I x sz + t1 sx x sx + t2 sy x sy) / 4 is an X state with
    eigenvalues (1 +/- sqrt(s^2 + (t1 -/+ t2)^2)) / 4, so it is a state when
    s^2 + (|t1| + |t2|)^2 <= 1; y = s e_z spans ker T, so w = T y = 0.
    Measuring n leaves B with Bloch vectors of norm sqrt(s^2 + |T^T n|^2),
    so the classical correlation is h((1 + |s|) / 2) minus
    h((1 + sqrt(s^2 + max(t1^2, t2^2))) / 2).  Local unitaries keep all of it.
    """
    r, a, f = np.sqrt(rng.uniform(0.0, 0.98)), rng.uniform(0.05, 1.5), rng.uniform(0.0, 1.0)
    s, t = r * np.cos(a), r * np.sin(a)
    t1, t2 = rng.choice((-1.0, 1.0), 2) * (f * t, (1.0 - f) * t)
    sx, sy, sz = _SIGMA
    m = (np.eye(4) + s * np.kron(np.eye(2), sz) + t1 * np.kron(sx, sx) + t2 * np.kron(sy, sy)) / 4
    lam = np.array([
        (1.0 + sgn * np.hypot(s, t1 + pm * t2)) / 4
        for sgn in (-1, 1) for pm in (-1, 1)
    ])
    sb = _binary_entropy((1.0 + abs(s)) / 2)
    classical = sb - _binary_entropy((1.0 + np.sqrt(s * s + max(t1 * t1, t2 * t2))) / 2)
    total = 1.0 + sb + float(np.sum(lam * np.log2(lam)))
    u = np.kron(_random_unitary(rng), _random_unitary(rng))
    return DensityMatrix(u @ m @ u.conj().T, (2, 2)), total - classical


def test_axis_rule_decides_x_and_w_free_states_without_a_scan(monkeypatch):
    """x = w = 0 states (rotated Bell-diagonal ones, and ones with y != 0 in ker T) are
    measured along M's top eigenvector, with no scan, to Luo's closed form.  The rule's
    classical correlation is never below the search's: on every state at the default
    grid, and on every fourth at 640 x 1280."""
    rng = np.random.default_rng(SEED + 21)
    cases = [_rotated_bell_diagonal(rng)[::2] for _ in range(200)]
    cases += [_kernel_field_state(rng) for _ in range(40)]
    searched = [
        _searched(rho, (640, 1280) if i % 4 == 0 else DEFAULT_GRID)[0]
        for i, (rho, _) in enumerate(cases)
    ]
    _no_scan(monkeypatch)
    for i, ((rho, luo), search) in enumerate(zip(cases, searched)):
        rep = discord(rho)
        assert abs(rep.discord - luo) <= 1e-12, i
        assert rep.classical >= search - 1e-15, i
        # the value reported is the objective at the reported measurement
        at = conditional_entropy_after(rho, rep.argmin_measurement)
        assert abs(rep.classical - (entropy(partial_trace(rho, (0,))) - at)) <= 1e-15, i


def test_states_just_off_the_axis_reach_the_scan(monkeypatch):
    """A planted eps sz x I / 4 gives x != 0, and eps I x sz / 4 gives w = T y != 0, on a
    rotated Bell-diagonal state and on a circle; both then reach the scan."""
    rng = np.random.default_rng(SEED + 22)
    bases = [_rotated_bell_diagonal(rng)[0].matrix, _bell_diagonal((0.4, 0.4, 0.1)).matrix]
    _no_scan(monkeypatch)
    sz, i2 = np.diag([1.0, -1.0]), np.eye(2)
    for base in bases:
        classical_correlation(DensityMatrix(base, (2, 2)))  # an axis row: no scan
        for field in (np.kron(sz, i2), np.kron(i2, sz)):
            for eps in (1e-13, 1e-9):
                with pytest.raises(_ReachedScan):
                    classical_correlation(DensityMatrix(base + eps * field / 4, (2, 2)))


def _perturbed(rng, m):
    """m plus a seeded traceless Hermitian matrix of Frobenius norm 1e-15, as a two-qubit state."""
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    h -= np.trace(h) / 4 * np.eye(4)
    return DensityMatrix(m + h * (1e-15 / np.linalg.norm(h)), (2, 2))


def test_axis_rule_reports_one_point_of_a_circle():
    """c = (0.4, 0.4, 0.1): every equator direction is optimal.  Under 40 traceless
    Hermitian perturbations of Frobenius norm 1e-15 the rule reports e_x every time;
    a circle in a meridian plane reports the pole, and a rotated circle the projection
    of e_z onto its plane, to the rounding of that plane."""
    rng = np.random.default_rng(SEED + 23)
    base = _bell_diagonal((0.4, 0.4, 0.1)).matrix
    reported = set()
    for _ in range(40):
        m = discord(_perturbed(rng, base)).argmin_measurement
        reported.add((m.theta, m.phi))
    assert reported == {(np.pi / 2, 0.0)}
    for c in ((0.1, 0.4, 0.4), (0.4, 0.1, 0.4)):
        assert _at_pole(discord(_bell_diagonal(c)).argmin_measurement), c
    # rotated by U_A x U_B, the circle's plane has normal R_A e_z, and the point of it nearest
    # e_z is e_z - (R_A)_zz R_A e_z, normalized, with R_A = Tr(s_i U_A s_j U_A^dagger) / 2
    ua, ub = _random_unitary(rng), _random_unitary(rng)
    normal = np.real([np.trace(s @ ua @ _SIGMA[2] @ ua.conj().T) / 2 for s in _SIGMA])
    nearest = np.array([0.0, 0.0, 1.0]) - normal[2] * normal
    nearest /= np.linalg.norm(nearest)
    u = np.kron(ua, ub)
    base = u @ base @ u.conj().T
    for _ in range(40):
        m = discord(_perturbed(rng, base)).argmin_measurement
        assert np.abs(_direction(m.theta, m.phi) - nearest).max() <= 1e-12


def test_axis_rule_reports_the_pole_whenever_it_is_optimal():
    """Near a sphere the pole is reported exactly when it is optimal to SPHERE_TOL |T|.

    rho_14 = rho_41 = 1.25e-15 adds 2.5e-15 (sx x sx - sy x sy) / 4 to werner(z): the top
    of M moves to e_y and its bottom to e_x, while e_z^T M e_z stays ~0.8 SPHERE_TOL |T|
    below the top, so the pole is reported and not the weakest axis e_x.  A planted
    3.4e-15 sz x sz / 4 puts e_z^T M e_z ~1.1 SPHERE_TOL |T| below the equator's circle,
    whose fixed point e_x is reported, with a higher classical correlation than the pole's.
    """
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])) / 4
    pole, equator = (0.0, 0.0), (np.pi / 2, 0.0)
    for z in (0.2, 0.5):
        m = werner(z).matrix.copy()
        m[0, 3] = m[3, 0] = 1.25e-15
        off_pole = werner(z).matrix + 3.4e-15 * zz
        for matrix, want, other in ((m, pole, equator), (off_pole, equator, pole)):
            rho = DensityMatrix(matrix, (2, 2))
            classical, got = classical_correlation(rho)
            assert (got.theta, got.phi) == want, z
            sb = entropy(partial_trace(rho, (0,)))
            assert classical > sb - conditional_entropy_after(rho, qubit_measurement(*other)), z


def test_generic_states_reach_the_search():
    """Neither the axis rule nor the zero-discord rule takes a generic state: among 5000
    seeded states of rank 1 to 4 the classifier finds no rule row, so each is scanned
    and refined; on 50 of them the report is bitwise the search run directly."""
    rng = np.random.default_rng(SEED + 24)
    states = [random_density(rng, 4, (2, 2), rank=1 + i % 4) for i in range(5000)]
    bloch = _measured_parts(np.stack([rho.matrix for rho in states]), (2, 2))
    axis, zero, _, _ = correlations._classify(bloch)
    assert not axis.any() and not zero.any()
    for i, rho in enumerate(states[:50]):
        classical, m = classical_correlation(rho)
        assert (classical, m.theta, m.phi) == _searched(rho), i


def test_zero_discord_rule_decides_classical_quantum_states(monkeypatch):
    """300 CC, CQ and product two-qubit states and 40 (2, 3) CQ states and 5 (2, 3)
    products are decided with no scan: discord exactly 0 with classical bitwise total,
    measured along the A basis the state is classical in (to 1e-12, up to sign), or at the
    pole on a product.  classical_correlation returns that measurement and the value
    measured there, which is the search's optimum to rounding."""
    rng = np.random.default_rng(SEED + 25)
    cases = classical_quantum_states(rng, 300) + classical_quantum_states(rng, 40, db=3)
    cases += [(tensor(random_density(rng, 2), random_density(rng, 3)), None) for _ in range(5)]
    searched = [_searched(rho)[0] for rho, _ in cases[:300]]
    _no_scan(monkeypatch)
    for i, (rho, basis) in enumerate(cases):
        rep = discord(rho)
        assert rep.discord == 0.0 and rep.classical == rep.total, i
        m = rep.argmin_measurement
        if basis is None:
            assert _at_pole(m), i
        else:
            n = _direction(m.theta, m.phi)
            assert min(np.abs(n - basis).max(), np.abs(n + basis).max()) <= 1e-12, i
        classical, at = classical_correlation(rho)
        assert at == m, i
        sb = entropy(partial_trace(rho, (0,)))
        assert abs(classical - (sb - conditional_entropy_after(rho, m))) <= 1e-15, i
        if i < len(searched):
            assert abs(classical - searched[i]) <= 2e-15, i
    # a pole whose n_z rounds below 1 is still theta = 0 exactly
    qutrits = [DensityMatrix(np.diag([1.0, 0.0, 0.0])), DensityMatrix(np.eye(3) / 3)]
    rep = discord(cq_state([0.5, 0.5], None, qutrits))
    assert _at_pole(rep.argmin_measurement) and rep.discord == 0.0


def _off_rank_one(rho, k):
    """rho plus k ZERO_DISCORD_TOL |2 r| u_2 v_2^T on B = 2 r[1:], in B's singular frame.

    u_2 v_2^T is orthogonal to the rank-1 B of a CQ state, so sigma_2 is k times the
    rule's bound before rounding; Tr[(s_i x s_j)(s_k x s_l)] = 4 d_ik d_jl gives rho.
    """
    bloch = _parts(rho)
    u, _, vh = np.linalg.svd(bloch[1:])
    delta = k * ZERO_DISCORD_TOL * np.linalg.norm(bloch) * np.outer(u[:, 1], vh[1])
    paulis = [np.eye(2)] + _SIGMA
    m = rho.matrix + sum(
        delta[i, j] * np.kron(paulis[i + 1], paulis[j]) for i in range(3) for j in range(4)
    ) / 4
    return DensityMatrix(m, (2, 2))


def test_zero_discord_rule_takes_states_within_its_tolerance(monkeypatch):
    """CC and CQ states with sigma_2(B) set to k ZERO_DISCORD_TOL |2 r|: at k = 0.5 the rule
    takes all of them, at k = 10 none, and each then reaches the search; at k = 1 rounding
    decides.  The search's own discord on each state the rule takes is rounding noise, at
    most 2e-15, as on the unperturbed states."""
    rng = np.random.default_rng(SEED + 26)
    bases = [make(rng) for make in (random_cc, random_cq) for _ in range(50)]
    for k in (0.5, 1.0, 10.0):
        states = [_off_rank_one(rho, k) for rho in bases]
        _, zero, _, _ = correlations._classify(
            _measured_parts(np.stack([rho.matrix for rho in states]), (2, 2))
        )
        if k == 0.5:
            assert zero.all()
        for rho, taken in zip(states, zero.tolist()):
            if taken:
                assert total_correlation(rho) - _searched(rho)[0] <= 2e-15, k
                assert discord(rho).discord == 0.0, k
    # the states at k = 10
    assert not zero.any()
    _no_scan(monkeypatch)
    for rho in states:
        with pytest.raises(_ReachedScan):
            discord(rho)


def test_scan_tables_are_built_only_for_searched_rows(monkeypatch):
    """Rows the rules decide build no grid tables, yet a bad grid, or a (2, d_B) search over
    MAX_QUDIT_SCAN_WORK, is refused on every path, before any rule."""
    rng = np.random.default_rng(SEED + 27)
    built = []
    make_tables = correlations._grid_directions

    def counted(grid):
        built.append(grid)
        return make_tables(grid)

    monkeypatch.setattr(correlations, "_grid_directions", counted)
    ruled = [werner(0.3), cc_state(np.diag([0.5, 0.5])), random_product(rng), random_cq(rng)]
    ruled.append(cq_state([0.5, 0.5], None, [random_density(rng, 3), random_density(rng, 3)]))
    for rho in ruled:
        discord(rho)
        classical_correlation(rho)
    list(sweep_rows(0.0, 1.0, 21))
    assert built == []
    discord(random_two_qubit(rng))
    assert built == [DEFAULT_GRID]
    for rho in ruled:
        with pytest.raises(DomainError, match="grid must be at least 2x2"):
            discord(rho, grid=(1, 1))
        with pytest.raises(DomainError, match="grid must be at least 2x2"):
            classical_correlation(rho, grid=(1, 1))
    mixed = DensityMatrix(np.eye(48) / 48, (2, 24))  # a product
    with pytest.raises(DomainError, match=r"needs 4096 scan \+ 837 refinement"):
        discord(mixed)


def _golden_min(fn, lo, hi, tol=1e-10):
    """Minimum of fn on [lo, hi] by golden-section search (fn unimodal there)."""
    g = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = fn(d)
    return min(fc, fd)


def _x_state(a, b, c, d, w, v):
    """Real X state with diagonal (a, b, c, d), rho_14 = w and rho_23 = v."""
    return DensityMatrix([[a, 0, 0, w], [0, b, v, 0], [0, v, c, 0], [w, 0, 0, d]], (2, 2))


# X states whose conditional entropy is least strictly between the sigma_z
# and sigma_x/y axes, as in Lu et al. (PRA 83, 012327, 2011); found by a
# search that maximized the margin to the axis values (1.1e-3 to 1.7e-3 bits).
_OFF_AXIS_X_STATES = (
    (0.0095, 0.0529, 0.9369, 0.0007, 0.0003, -0.213),
    (0.9108, 0.0043, 0.0722, 0.0127, 0.0662, 0.0063),
    (0.0632, 0.0327, 0.901, 0.0031, -0.0062, 0.1313),
    (0.0306, 0.0313, 0.9328, 0.0053, -0.0107, -0.1346),
)
# X states whose sigma_z and sigma_y optima compete (values 2.3e-3 bits apart,
# and equal); Newton steps from far seeds need backtracking there.
_COMPETING_X_STATES = (
    (0.32775, 0.59344, 0.01235, 0.06646, -0.03508, 0.03009),
    (0.51984, 0.45124, 0.00154, 0.02738, -0.00563, -0.01314),
)
# X states where the best cell of a 3 x 5 or 4 x 8 scan refines into a basin whose
# classical correlation is 1.0e-3 to 2.8e-3 bits low; the second or third seed is not.
_SEED_X_STATES = (
    (0.2848, 0.4771, 0.0025, 0.2356, -0.1731, -0.0193),
    (0.4771, 0.4026, 0.1187, 0.0016, -0.0096, -0.1574),
)


def _spread_directions(k):
    """k near-uniform unit vectors (a Fibonacci lattice), shape (3, k)."""
    z = 1.0 - (2.0 * np.arange(k) + 1.0) / k
    phi = np.pi * (1.0 + np.sqrt(5.0)) * np.arange(k)
    return np.array([np.sqrt(1 - z * z) * np.cos(phi), np.sqrt(1 - z * z) * np.sin(phi), z])


def test_discord_finds_off_axis_optima_of_x_states():
    """Rotated X states against a 1-D reference.

    For a real X state the conditional entropy depends on phi only
    through cos^2 phi, so its optimum lies at phi = 0 or pi/2; the
    reference minimizes over theta alone on a 91-point scan and then by
    golden section, with explicit projections.  Discord is invariant
    under U_A x U_B, which moves the optimum off every grid axis.  Coarse
    grids seed the refinement far from the optimum, where the Hessian
    is indefinite; from 64 spread seeds every refinement converges
    within its cap and ends no higher than it started.
    """
    rng = np.random.default_rng(SEED + 16)
    thetas = np.linspace(0.0, np.pi / 2, 91)
    for params in _OFF_AXIS_X_STATES:
        x = _x_state(*params)
        best = np.inf
        for phi in (0.0, np.pi / 2):

            def cond(theta):
                return _explicit_conditional_entropy(x, _direction(theta, phi))

            k = int(np.argmin([cond(t) for t in thetas]))
            lo, hi = thetas[max(k - 1, 0)], thetas[min(k + 1, thetas.size - 1)]
            best = min(best, _golden_min(cond, lo, hi))
        ref = total_correlation(x) - entropy(partial_trace(x, (0,))) + best
        axes = min(_explicit_conditional_entropy(x, n) for n in np.eye(3))
        assert axes - best > 1e-3  # the optimum is off the axes
        for grid in (DEFAULT_GRID, (2, 2), (3, 5), (4, 8)):
            u = np.kron(_random_unitary(rng), _random_unitary(rng))
            rho = DensityMatrix(u @ x.matrix @ u.conj().T, (2, 2))
            assert abs(discord(rho, grid=grid).discord - ref) <= 1e-9, grid
    seeds = _spread_directions(64)
    for params in _OFF_AXIS_X_STATES + _COMPETING_X_STATES:
        objective = _conditional_entropy_objective(_parts(_x_state(*params)))
        calls = []

        def counted(n):
            calls.append(n.shape)
            return objective(n)

        for k in range(seeds.shape[1]):
            seed = seeds[:, k : k + 1]
            calls.clear()
            refined = _refine(counted, seed, objective(seed))
            # one call for the seed's stencil, then one per iteration, so a
            # refinement that did not converge within its cap made
            # NEWTON_ITER_CAP iterations
            assert len(calls) - 1 < NEWTON_ITER_CAP, (params, k)
            assert objective(refined)[0] <= objective(seed)[0]


def _haar_isometry(rng, db):
    """A Haar-random isometry V: C^2 -> C^db, shape (db, 2)."""
    q, r = np.linalg.qr(rng.standard_normal((db, 2)) + 1j * rng.standard_normal((db, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_qudit_discord_is_invariant_under_isometries_on_b():
    """Total, classical correlation and discord do not change under
    rho -> (I x V) rho (I x V)^dagger for an isometry V: C^2 -> C^d_B.

    The (2, d_B) path (Pauli parts, ``_split``, eigvalsh of each outcome)
    and the two-qubit path (Luo's closed form on the Bloch data) share no
    objective code, so each checks the other, on states with nonzero
    discord and on the off-axis X states, whose optima lie off every axis.
    """
    rng = np.random.default_rng(SEED + 21)
    states = [random_two_qubit(rng) for _ in range(10)]
    states += [_x_state(*params) for params in _OFF_AXIS_X_STATES]
    for i, rho in enumerate(states):
        ref = discord(rho)
        assert ref.discord > 1e-3, i
        for db in (3, 4, 6):
            w = np.kron(np.eye(2), _haar_isometry(rng, db))
            rep = discord(DensityMatrix(w @ rho.matrix @ w.conj().T, (2, db)))
            for field in ("total", "classical", "discord"):
                assert abs(getattr(rep, field) - getattr(ref, field)) <= 1e-10, (i, db, field)


_YY = np.kron(_SIGMA[1], _SIGMA[1])


def _formation_entropy(m):
    """Entanglement of formation of a two-qubit matrix, in bits (Wootters, PRL 80, 2245, 1998).

    C = max(0, l_1 - l_2 - l_3 - l_4), the l_i the square roots of the
    eigenvalues of m (Y x Y) m* (Y x Y) in decreasing order, and
    E_F = h((1 + sqrt(1 - C^2)) / 2).
    """
    lam = np.linalg.eigvals(m @ _YY @ m.conj() @ _YY).real
    root = np.sort(np.sqrt(np.clip(lam, 0.0, None)))[::-1]
    c = max(0.0, root[0] - root[1:].sum())
    p = (1.0 + np.sqrt(max(1.0 - c * c, 0.0))) / 2.0
    return -sum(q * np.log2(q) for q in (p, 1.0 - p) if q > 0.0)


def test_classical_correlation_within_the_koashi_winter_bound():
    """Koashi & Winter (PRA 69, 022309, 2004): purify a rank-2 rho_AB with a
    qubit E; the classical correlation over POVMs on A is S(B) - E_F(rho_BE).

    The projective optimum can only be lower, and on rank-2 states the
    POVM advantage is small (Galve, Giorgi & Zambrini, EPL 96, 40005,
    2011), so a search that misses the optimum basin falls well below
    the bound.  No grid or search is shared with the package.
    """
    rng = np.random.default_rng(SEED + 22)
    for i in range(200):
        rho = random_density(rng, 4, (2, 2), rank=2)
        lam, vec = np.linalg.eigh(rho.matrix)
        psi = (vec[:, 2:] * np.sqrt(lam[2:])).reshape(2, 2, 2)  # psi[a, b, e]
        rho_be = np.einsum("abe,acf->becf", psi, psi.conj()).reshape(4, 4)
        bound = entropy(partial_trace(rho, (0,))) - _formation_entropy(rho_be)
        classical, _ = classical_correlation(rho)
        assert bound - 1e-6 <= classical <= bound + 1e-12, (i, bound - classical)


def test_pure_outcomes_give_exact_answers():
    """Optima where a conditional state is pure: exact classical correlation and discord.

    The zero-discord rule decides these states; the search, run on them
    directly, reaches the same optima."""
    cc = cc_state(np.diag([0.5, 0.5]))
    rep = discord(cc)
    assert rep.classical == 1.0 and rep.discord == 0.0
    assert _searched(cc)[0] == 1.0
    rng = np.random.default_rng(SEED + 17)
    for _ in range(10):
        p0 = rng.uniform(0.2, 0.8)
        pure_b = [random_density(rng, 2, rank=1) for _ in range(2)]
        cq = cq_state([p0, 1.0 - p0], random_qubit_basis(rng), pure_b)
        assert discord(cq).discord == 0.0
        assert total_correlation(cq) - _searched(cq)[0] <= 1e-15


def test_newton_converges_on_a_circle_of_optima():
    """Bell-diagonal c = (0.4, 0.4, 0.1): every equator direction is optimal.

    The Riemannian Hessian is singular along the circle; the refinement
    still ends within its cap, at Luo's value.
    """
    c = np.array([0.4, 0.4, 0.1])
    cmax = np.abs(c).max()
    classical = sum((1 + sgn * cmax) / 2 * np.log2(1 + sgn * cmax) for sgn in (-1, 1))
    # the axis rule decides this state, so the search is run on it directly
    searched, theta, _ = _searched(_bell_diagonal(c))
    assert abs(searched - classical) <= 1e-9
    assert abs(theta - np.pi / 2) <= 1e-6


def test_reported_measurement_has_nonnegative_n_z():
    """n and -n are one measurement, and f(n) = f(-n) bitwise; the reported n has n_z >= 0.

    Seeds come from the upper-hemisphere scan, but a refined seed may
    cross the equator: state 25 of this set was reported at
    theta = 1.5904803451615288, phi = 1.7267311156287515 with classical
    correlation 0.3883480520779692 before the reported direction was
    mapped to the upper hemisphere.  A one-row scan (2x4) puts all
    three seeds at theta = pi/4, so its refined seeds cross often.
    """
    rng = np.random.default_rng(SEED)
    states = [random_density(rng, 4, (2, 2), rank=1 + i % 4) for i in range(40)]
    for rho in states:
        objective = _conditional_entropy_objective(_parts(rho))
        for grid in (DEFAULT_GRID, (2, 4)):
            _, m = classical_correlation(rho, grid)
            assert 0.0 <= m.theta <= np.pi / 2
            n = _direction(m.theta, m.phi)
            assert objective(n) == objective(-n)
    classical, m = classical_correlation(states[25])
    assert abs(classical - 0.3883480520779692) <= 1e-15
    before = _direction(1.5904803451615288, 1.7267311156287515)
    assert np.abs(_direction(m.theta, m.phi) + before).max() <= 1e-6


def test_angles_keep_phi_below_two_pi():
    """A tiny negative n_y with n_x > 0 gives arctan2 just below 0, whose remainder
    mod 2 pi rounds up to 2 pi; that phi is 0.  No other angle moves."""
    theta, phi = _angles(np.array([[0.6], [-1e-17], [0.8]]))
    assert phi.tolist() == [0.0] and theta.tolist() == [np.arccos(0.8)]
    crafted = np.array([
        [0.6, 0.6, -0.6, 1.0, 1e-16],
        [-1e-17, -1e-10, -1e-17, -0.0, -1e-16],
        [0.8, 0.8, 0.8, 0.0, 1.0],
    ])
    n = np.concatenate([_spread_directions(400), -_spread_directions(400), crafted], axis=1)
    theta, phi = _angles(n)
    pole = np.abs(n[:2]).max(axis=0) < correlations.POLE_CUTOFF
    before = np.where(pole, 0.0, np.arctan2(n[1], n[0]) % (2.0 * np.pi))
    assert (before == 2.0 * np.pi).sum() == 1
    assert np.array_equal(phi, np.where(before == 2.0 * np.pi, 0.0, before))
    assert ((0.0 <= phi) & (phi < 2.0 * np.pi)).all()
    assert np.array_equal(theta, np.arccos(np.clip(n[2], -1.0, 1.0)))


REFINE_TOL = 1e-7  # final compass-search step, radians


def _canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    """Map arbitrary real angles to theta in [0, pi], phi in [0, 2 pi)."""
    t, p = _angles(_direction(theta, phi))
    return float(t), float(p)


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


def _compass_minimum(objective, grid=DEFAULT_GRID):
    """The default-grid scan, flat rule and seeds, refined by the compass search."""
    thetas, phis = _grid_directions(grid)
    lo, hi, seeds, values = _scan(objective, thetas, phis)
    if hi - lo <= FLAT_SPREAD_TOL:
        return lo, 0.0, 0.0
    row, col = np.divmod(seeds, phis.size)
    return _compass_search(objective, thetas[row], phis[col], values, np.pi / grid[0])


def _brute_force_objective(monkeypatch, rho):
    """The objective that geometric_discord(rho, "brute-force") minimizes."""
    seen = []

    def capture(objective, *args):
        seen.append(objective)
        return 0.0, 0.0, 0.0

    with monkeypatch.context() as m:
        m.setattr(correlations, "_minimize_over_directions", capture)
        geometric_discord(rho, method="brute-force")
    return seen[0]


def test_refinement_matches_the_compass_search(monkeypatch):
    """Newton's minimum is never above the compass one, on every objective it serves.

    The two-qubit objective on the zoo and 200 seeded states, the
    qubit-qutrit objective on 20 seeded states and the brute-force
    geometric discord on 50: both refine the same three seeds of the same
    objective, and the argmin agrees to 1e-6 up to n <-> -n (flat
    objectives give the pole on both).
    """
    rng = np.random.default_rng(SEED + 18)
    states = [rho for _, rho, _ in build_zoo()]
    states += [random_density(rng, 4, (2, 2), rank=1 + i % 4) for i in range(200)]
    states += [random_density(rng, 6, (2, 3), rank=1 + i % 6) for i in range(20)]
    objectives = [_conditional_entropy_objective(_parts(rho)) for rho in states]
    for i in range(50):
        rho = random_density(rng, 4, (2, 2), rank=1 + i % 4)
        objectives.append(_brute_force_objective(monkeypatch, rho))
    for i, objective in enumerate(objectives):
        compass = _compass_minimum(objective)
        refined = _minimize_over_directions(objective, *_grid_directions(DEFAULT_GRID))
        assert refined[0] <= compass[0] + 1e-13, i
        a, b = _direction(*compass[1:]), _direction(*refined[1:])
        assert min(np.abs(a - b).max(), np.abs(a + b).max()) <= 1e-6, i


def _reference_xlog2(x):
    mask = x > PROB_CUTOFF
    return np.where(mask, x * np.log2(np.where(mask, x, 1.0)), 0.0)


def _reference_objective(bloch, n):
    """The two-qubit objective of one 2 r as the Bloch form reads: split, halve, spectrum, terms.

    Both outcomes (X_0 +/- n.X) / 2 of the rows X of 2 r, each outcome's
    eigenvalues (m_0 -/+ |m|) / 2 from its Pauli coefficients m, clipped
    at 0, then sum over outcomes of p log2 p - sum(lam log2 lam).
    """
    nx = (bloch[1:].T @ n.reshape(3, -1)).reshape((4,) + n.shape[1:])
    x0 = bloch[0].reshape((4,) + (1,) * (n.ndim - 1))
    m = np.stack([x0 + nx, x0 - nx]) / 2.0
    rad = np.sqrt((m[:, 1:] * m[:, 1:]).sum(axis=1))
    lam = np.clip(np.stack([m[:, 0] - rad, m[:, 0] + rad]) / 2.0, 0.0, None)
    return (-_reference_xlog2(lam).sum(axis=0) + _reference_xlog2(lam.sum(axis=0))).sum(axis=0)


def _kernel_states():
    """206 two-qubit states: every rank, the zoo, Bell-diagonal, X, near-pure and products."""
    rng = np.random.default_rng(SEED + 70)
    states = [random_density(rng, 4, (2, 2), rank=1 + i % 4) for i in range(100)]
    states += [rho for _, rho, _ in build_zoo()]
    bells = [bell(name).vector for name in ("phi+", "phi-", "psi+", "psi-")]
    for _ in range(10):
        m = sum(p * np.outer(v, v.conj()) for p, v in zip(rng.dirichlet(np.ones(4)), bells))
        u = np.kron(_random_unitary(rng), _random_unitary(rng))
        states += [DensityMatrix(m, (2, 2)), DensityMatrix(u @ m @ u.conj().T, (2, 2))]
    states += [_x_state(*params) for params in _OFF_AXIS_X_STATES + _COMPETING_X_STATES]
    states += [near_pure_rotated(rng, (2, 2)) for _ in range(20)]
    states += [random_product(rng) for _ in range(10)]
    return states


def test_bloch_kernel_is_bitwise_the_reference_chain():
    """The in-place two-qubit kernel gives the reference's bits on every call shape.

    Directions (3, N), the refinement's calls (3, k, 8) and (3, k, 9),
    the pole of a whole stack through the rules' one step, and every
    value the grid scan folds, at a 64-direction tile and at the default tile.
    """
    rng = np.random.default_rng(SEED + 71)
    states = _kernel_states()
    assert len(states) >= 200
    thetas, phis = _grid_directions(DEFAULT_GRID)
    grid = _direction(thetas[:, None], phis)
    n = _spread_directions(257)
    bloch = np.stack([_parts(rho) for rho in states])
    pole = np.array([_reference_objective(b, _direction(0.0, 0.0)) for b in bloch])
    # U = I with equal singular values makes the pole optimal, so every row takes it
    eye = np.broadcast_to(np.eye(3), (len(bloch), 3, 3))
    vals, theta, phi = _rule_measurements(
        bloch, eye, np.ones((len(bloch), 3)), np.zeros(len(bloch), dtype=bool)
    )
    assert np.array_equal(vals, pole) and not theta.any() and not phi.any()
    for i in range(len(states)):
        objective = _conditional_entropy_objective(bloch[i])
        stencil = rng.standard_normal((3, 3, 9))
        stencil /= np.sqrt((stencil * stencil).sum(axis=0))
        for dirs in (n, -n, n[:, :3], n[:, 0], stencil, stencil[:, :, 1:]):
            assert np.array_equal(objective(dirs), _reference_objective(bloch[i], dirs)), i
        want = _reference_objective(bloch[i], grid).reshape(-1)
        for tile in (64, correlations._SCAN_TILE):
            assert np.array_equal(_scanned(objective, thetas, phis, tile)[1], want), (i, tile)


def test_scan_buffers_start_on_a_64_byte_boundary():
    """The buffers that the scan streams through start on a 64-byte boundary, where the
    kernel runs fastest, whatever offset malloc returns."""
    for n in (1, 7, 8192, 14 * 8192):
        for dtype in (float, np.float32, bool):
            a = correlations._aligned(n, dtype)
            assert a.shape == (n,) and a.dtype == dtype and a.ctypes.data % 64 == 0


def _reference_refine(objective, seeds, values):
    """The Newton refinement as two calls per iteration: the stencil at the
    current points, then the trial points.

    Same stencil order, step, cutoffs, stopping rules and acceptance rule
    as ``_refine``, each point's frame and stencil built afresh.
    """
    h = DIFFERENCE_STEP
    n, f = seeds, values
    xi = np.zeros_like(n)
    t = np.ones(f.size)
    fresh = np.ones(f.size, dtype=bool)
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


def test_refinement_is_bitwise_the_two_call_reference(monkeypatch):
    """One objective call per Newton iteration, with the reference's bits.

    Each iteration evaluates the trial points together with their
    stencils, so an accepted point's stencil is never evaluated again.
    On the kernel states, 10 qubit-qutrit states and 20 brute-force
    geometric discord objectives, from the default grid's three seeds:
    the refined directions equal the two-call reference's, the refinement
    makes one call for the seeds' stencils and one per iteration (the
    reference's trial calls), and fewer calls than the reference in all.
    """
    rng = np.random.default_rng(SEED + 73)
    states = _kernel_states() + [random_density(rng, 6, (2, 3), rank=1 + i % 6) for i in range(10)]
    objectives = [_conditional_entropy_objective(_parts(rho)) for rho in states]
    for i in range(20):
        rho = random_density(rng, 4, (2, 2), rank=1 + i % 4)
        objectives.append(_brute_force_objective(monkeypatch, rho))
    thetas, phis = _grid_directions(DEFAULT_GRID)
    totals = {"new": 0, "reference": 0}
    for i, objective in enumerate(objectives):
        _, _, cells, values = _scan(objective, thetas, phis)
        row, col = np.divmod(cells, phis.size)
        seeds = _direction(thetas[row], phis[col])
        calls = {"new": [], "reference": []}

        def counted(side):
            def call(n, out=None):
                calls[side].append(n.shape)
                return objective(n, out)

            return call

        want = _reference_refine(counted("reference"), seeds, values)
        got = _refine(counted("new"), seeds, values)
        assert np.array_equal(got, want), i
        k = seeds.shape[1]
        iterations = sum(shape == (3, k) for shape in calls["reference"])
        assert calls["new"] == [(3, k, 8)] + [(3, k, 9)] * iterations, i
        for side in totals:
            totals[side] += len(calls[side])
    assert totals["new"] < totals["reference"], totals


def test_fine_scan_memory_is_bounded():
    """The 640x1280 scan holds one tile's buffers, not the grid.

    The hemisphere's 409600 values took 3.1 MiB, and their copy for the
    seed selection another 3.1 MiB (7.1 MiB peak); building the grid's
    (3, 409600) directions at once took another 9.4 MiB.  The float32
    screen holds tile-sized buffers and builds its patch bounds in place, and
    frees them before the exact pass allocates its own: each peaks at ~1.3 MiB
    (the bounds, built from expressions, took the screen's peak to 1.7 MiB).
    """
    rho = random_two_qubit(np.random.default_rng(SEED + 72))
    tracemalloc.start()
    try:
        discord(rho, grid=(640, 1280))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak


def _scan_calls(monkeypatch):
    """Counts of the directions that the two-qubit objective evaluates in float32 and of the
    exact scan's tile calls."""
    counts = {"float32": 0, "exact": 0}
    bloch_objective, scan = correlations._bloch_objective, correlations._scan

    def counted_objective(bloch, dtype=float):
        objective = bloch_objective(bloch, dtype)

        def call(n, out=None):
            counts["float32"] += n[0].size if n.dtype == np.float32 else 0
            return objective(n, out)

        return call

    def counted_scan(objective, *args):
        def call(n, out=None):
            counts["exact"] += 1
            return objective(n, out)

        return scan(call, *args)

    monkeypatch.setattr(correlations, "_bloch_objective", counted_objective)
    monkeypatch.setattr(correlations, "_scan", counted_scan)
    return counts


def test_fine_scans_are_screened_in_float32(monkeypatch):
    """The default grid's one tile is scanned exactly, with no float32 call.  On the
    640 x 1280 grid's 54 tiles the screen evaluates its one-cell-per-patch sample and
    the cells of the patches that its bound keeps, a fraction of the grid, and the exact
    pass visits fewer tiles.  The pure 0.8|00> + 0.6|11>, flat but no rule row, makes
    the screen fall back after its sample to the exact scan, whose flat rule reports the
    pole, bit for bit the unscreened report."""
    rho = random_two_qubit(np.random.default_rng(SEED + 74))
    counts = _scan_calls(monkeypatch)
    discord(rho)
    assert counts == {"float32": 0, "exact": 1}
    thetas, phis = _grid_directions((640, 1280))
    patches = correlations._patch_columns(phis, 6, 1280).size * -(-thetas.size // 6)
    discord(rho, grid=(640, 1280))
    assert patches < counts["float32"] < thetas.size * phis.size // 4, counts
    assert 1 + 1 <= counts["exact"] < 1 + 54, counts
    v = np.zeros(4)
    v[0], v[3] = 0.8, 0.6
    flat = DensityMatrix(np.outer(v, v), (2, 2))
    assert not correlations._classify(_parts(flat)[None])[0].any()
    counts.update(float32=0, exact=0)
    rep = discord(flat, grid=(640, 1280))
    assert counts == {"float32": patches, "exact": 54}
    assert rep.argmin_measurement == Measurement(0.0, 0.0)
    monkeypatch.setattr(correlations, "_SCREEN_TILES", 10**9)
    assert dataclasses.astuple(rep) == dataclasses.astuple(discord(flat, grid=(640, 1280)))


def test_screen_evaluates_few_cells_of_random_states(monkeypatch):
    """On seeded random rank-4 states at 640 x 1280 the screen evaluates fewer than 10%
    of the grid's cells in float32, its sample included."""
    rng = np.random.default_rng(SEED + 78)
    counts = _scan_calls(monkeypatch)
    for _ in range(10):
        discord(random_density(rng, 4, (2, 2), rank=4), grid=(640, 1280))
    assert counts["float32"] < 0.1 * 10 * 320 * 1280, counts


def _near_circles(rng):
    """The Bell-diagonal circle c = (0.4, 0.4, 0.1) mixed with eps of a random state and
    locally rotated: its near-tied optima run along a great circle across many scan tiles."""
    circle = DensityMatrix(
        [[0.275, 0, 0, 0], [0, 0.225, 0.2, 0], [0, 0.2, 0.225, 0], [0, 0, 0, 0.275]], (2, 2)
    ).matrix
    states = []
    for eps in (1e-7, 1e-6, 1e-5, 1e-4):
        u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        m = (1.0 - eps) * circle + eps * random_density(rng, 4).matrix
        states.append(DensityMatrix(u @ m @ u.conj().T, (2, 2)))
    return states


def test_screened_scan_equals_the_exhaustive_scan():
    """The float32 screen changes no bit of the scan: its minimum, seeds and seed values are
    the exhaustive scan's, and its maximum keeps the spread above FLAT_SPREAD_TOL.

    On rotated near-circles, whose near-tied cells straddle tiles within float32
    rounding of each other, random states of rank 2 to 4, near-CQ mixtures and X
    states, at grids whose tiles are whole theta rows or pieces of one row.  Every X
    state is screened, its pole a stationary point: the screen reads flatness from
    its sample over the whole hemisphere, not from the polar cap of the first tile.
    """
    rng = np.random.default_rng(SEED + 75)
    states = _near_circles(rng) + [random_density(rng, 4, (2, 2), rank=2 + i % 3) for i in range(3)]
    states += [
        DensityMatrix((1 - eps) * random_cq(rng).matrix + eps * random_density(rng, 4).matrix, (2, 2))
        for eps in (1e-9, 1e-5)
    ]
    x_states = _OFF_AXIS_X_STATES + _COMPETING_X_STATES + _SEED_X_STATES
    states += [_x_state(*params) for params in x_states]
    screened = 0
    for grid in ((640, 1280), (100, 1000), (8, 16384)):
        thetas, phis = _grid_directions(grid)
        for i, rho in enumerate(states):
            parts = _parts(rho)
            objective = _conditional_entropy_objective(parts)
            lo, hi, seeds, values = _scan(objective, thetas, phis, correlations._SCAN_TILE, parts)
            want_lo, want_hi, want_seeds, want_values = _scan(objective, thetas, phis)
            assert lo == want_lo and np.array_equal(seeds, want_seeds), (grid, i)
            assert np.array_equal(values, want_values), (grid, i)
            assert hi == want_hi or hi - lo > FLAT_SPREAD_TOL + SCAN_SCREEN_TOL, (grid, i)
            screened += hi != want_hi
            assert hi != want_hi or i < len(states) - len(x_states), (grid, i)
    assert screened >= 2 * len(states), screened


def test_float32_objective_is_within_a_tenth_of_the_screen_tolerance():
    """|f32 - f64| of the two-qubit objective, each at its own rounding of the direction, is at
    most SCAN_SCREEN_TOL / 10 on states where float32 rounding is worst: pure states (pure
    conditional states), pure-A products and |00> (outcomes of tiny p near the pole), CQ
    states with pure and mixed B states, products, X states and near-pure states."""
    rng = np.random.default_rng(SEED + 76)
    states = [random_density(rng, 4, (2, 2), rank=1) for _ in range(10)]
    states += [
        tensor(random_density(rng, 2, rank=1), random_density(rng, 2, rank=1 + i % 2))
        for i in range(10)
    ]
    states += [DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))]
    pure_b = [random_density(rng, 2, rank=1) for _ in range(2)]
    states += [cq_state([0.3, 0.7], random_qubit_basis(rng), pure_b) for _ in range(5)]
    states += [random_cq(rng) for _ in range(5)] + [random_product(rng) for _ in range(5)]
    x_states = _OFF_AXIS_X_STATES + _COMPETING_X_STATES + _SEED_X_STATES
    states += [_x_state(*params) for params in x_states]
    states += [near_pure_rotated(rng, (2, 2)) for _ in range(10)]
    thetas, phis = _grid_directions((128, 256))
    grid = _direction(thetas[:, None], phis).reshape(3, -1)
    pole = _direction(10.0 ** -np.linspace(1, 9, 40)[:, None], np.linspace(0, 2 * np.pi, 16))
    pole = pole.reshape(3, -1)
    n = np.concatenate([grid, -grid, _spread_directions(2000), pole, -pole], axis=1)
    for i, rho in enumerate(states):
        parts = _parts(rho)
        exact = correlations._bloch_objective(parts)(n)
        screen = correlations._bloch_objective(parts, np.float32)(n.astype(np.float32))
        assert screen.dtype == np.float32
        assert np.abs(screen - exact).max() <= SCAN_SCREEN_TOL / 10, i


def test_patch_bounds_are_below_every_cell_of_their_patch():
    """``_patch_bounds`` is at most the float64 objective at every cell of its screen patch,
    to 1e-12 bits, far below the SCAN_SCREEN_TOL margin that the screen prunes with.

    On pure and near-pure states (eps 1e-3 to 1e-9, pure conditional states and
    outcomes of tiny p), CQ states with pure and mixed B, products, the X states,
    near-circles and random states of rank 1 to 4, with the patches of the 640 x 1280,
    100 x 1000 and 64 x 128 tile geometries (6 x 8, 8 x 6 and 32 x 1 cells).
    """
    rng = np.random.default_rng(SEED + 77)
    states = [random_density(rng, 4, (2, 2), rank=1 + i % 4) for i in range(8)]
    for eps in (1e-3, 1e-5, 1e-7, 1e-9):
        pure = random_density(rng, 4, rank=1).matrix
        states.append(DensityMatrix((1 - eps) * pure + eps * random_density(rng, 4).matrix, (2, 2)))
    pure_b = [random_density(rng, 2, rank=1) for _ in range(2)]
    states += [cq_state([0.3, 0.7], random_qubit_basis(rng), pure_b) for _ in range(2)]
    states += [random_cq(rng) for _ in range(2)] + [random_product(rng) for _ in range(2)]
    states += [DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))]
    x_states = _OFF_AXIS_X_STATES + _COMPETING_X_STATES + _SEED_X_STATES
    states += [_x_state(*params) for params in x_states] + _near_circles(rng)
    for grid in ((640, 1280), (100, 1000), (64, 128)):
        thetas, phis = _grid_directions(grid)
        tile = correlations._SCAN_TILE
        rows, cols = max(tile // phis.size, 1), min(phis.size, tile)
        starts = correlations._patch_columns(phis, rows, cols)
        for i, rho in enumerate(states):
            parts = _parts(rho)
            objective = _conditional_entropy_objective(parts)
            least = np.stack([
                np.minimum.reduceat(objective(n).reshape(-1, phis.size).min(axis=0), starts)
                for _, n in correlations._tiles(thetas, phis, rows, phis.size)
            ])
            bound = correlations._patch_bounds(parts, thetas, phis, rows, starts)
            assert bound.shape == least.shape, (grid, i)
            assert (bound <= least + 1e-12).all(), (grid, i, (bound - least).max())


def test_discord_of_near_pure_states_stays_in_bounds():
    """Outcome probabilities far below 1 divide a state's rounding by p.

    On 200 seeded near-pure states, two-qubit and (2, 3), discord returns
    with 0 <= classical <= total and discord >= 0; derived states are not
    validated again, so none of them raises.
    """
    rng = np.random.default_rng(SEED + 60)
    for i in range(200):
        legs = (2, 3) if i % 20 == 19 else (2, 2)
        grid = (16, 32) if legs == (2, 3) else DEFAULT_GRID
        rep = discord(near_pure_rotated(rng, legs), grid=grid)
        assert 0.0 <= rep.classical <= rep.total, i
        assert rep.discord >= 0.0, i


def test_discord_builds_each_piece_once(monkeypatch):
    """One pass expands each state once and takes each marginal once.

    The pieces are stacked: one call covers every state of the pass.  A
    two-qubit discord call makes 1 correlation-matrix stack, 0 Pauli-part
    stacks and 2 marginal-entropy stacks; a (2, 3) call makes its Pauli
    parts once.  Discord and the witness are two passes over one correlation
    matrix stack: ``certify`` makes one stack, and a 21-row sweep one stack
    21 rows deep.  Every module that builds correlation matrices is
    counted.  Each two-qubit B = 2 r[1:]
    (3 x 4) is decomposed once, by one SVD of its stack that the axis rule
    and the geometric discord share, and no 3 x 3 eigensolve of M or
    B B^T is left.  The two rules measure every off-pole row of a stack,
    a rotated Bell-diagonal (axis) row and a rotated CQ (zero-discord) row,
    in one ``_measurement_angles`` call.  The shared pass returns bitwise
    what the public functions return.
    """
    rng = np.random.default_rng(SEED + 61)
    names = ("_correlation_matrices", "_pauli_parts", "_marginal_entropies")
    calls = {name: [] for name in names}

    def counting(module, name):
        f = getattr(module, name)

        def counted(*args):
            calls[name].append(len(args[0]))  # the states in the stack
            return f(*args)

        return counted

    for name in names:
        monkeypatch.setattr(correlations, name, counting(correlations, name))
    monkeypatch.setattr(witness, "_correlation_matrices", counting(witness, "_correlation_matrices"))
    assert not hasattr(cli, "_correlation_matrices") and not hasattr(protocols, "_correlation_matrices")

    decompositions = []  # (solver, states in the stack) of each 3 x 4 or 3 x 3 stack

    def counting_solver(name):
        f = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            if np.shape(a)[-2:] in ((3, 4), (3, 3)):
                decompositions.append((name, len(a)))
            return f(a, *args, **kwargs)

        return counted

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting_solver(name))

    def counts(call, *args):
        for name in names:
            calls[name].clear()
        decompositions.clear()
        call(*args)
        return tuple(calls[name] for name in names) + (list(decompositions),)

    one = [("svd", 1)]
    assert counts(discord, random_two_qubit(rng)) == ([1], [], [1, 1], one)
    assert counts(discord, werner(0.3)) == ([1], [], [1, 1], one)
    assert counts(geometric_discord, random_two_qubit(rng)) == ([1], [], [], one)
    assert counts(discord, random_density(rng, 6, (2, 3)))[1] == [1]
    assert counts(witness_report, werner(0.3)) == ([1], [], [], [])
    assert counts(certify, run_kraus_protocol(0.2)) == ([1], [], [1, 1], one)
    sweep = counts(lambda *zs: list(sweep_rows(*zs)), 0.0, 1.0, 21)
    assert sweep == ([21], [], [21, 21], [("svd", 21)])

    states = [rho for _, rho, _ in build_zoo()]
    states += [random_density(rng, 6, (2, 3), rank=1 + i % 6) for i in range(3)]
    for rho in states:
        rep = discord(rho)
        if rho.legs == (2, 2):
            assert rep.geometric_discord == geometric_discord(rho)
            assert rep.concurrence == concurrence(rho)
        assert rep.argmin_measurement == classical_correlation(rho)[1]
        assert rep.total == max(total_correlation(rho), 0.0)
        assert rep.negativity == negativity(rho)

    # the axis and zero-discord rules measure their rows off the pole in one call
    angle_calls = []
    measurement_angles = correlations._measurement_angles

    def counted_angles(n):
        angle_calls.append(n.shape[1])
        return measurement_angles(n)

    monkeypatch.setattr(correlations, "_measurement_angles", counted_angles)
    m, lam = _stack([_rotated_bell_diagonal(rng)[0], random_cq(rng)])
    correlations._reports(m, lam, _measured_parts(m, (2, 2)), (2, 2), DEFAULT_GRID)
    assert angle_calls == [2]


def _stack(states):
    return np.stack([rho.matrix for rho in states]), np.stack([rho.eigenvalues for rho in states])


def _same_witness(a, b):
    return (
        np.array_equal(a.singular_values, b.singular_values) and a.l_rank == b.l_rank
        and np.array_equal(a.s_ops, b.s_ops) and np.array_equal(a.f_ops, b.f_ops)
        and a.max_commutator_norm == b.max_commutator_norm
        and dict(a.verdicts) == dict(b.verdicts)
    )


def test_a_mixed_stack_equals_the_per_state_reports():
    """Every rule branch and the search in one two-qubit stack, and scanned and
    zero-discord (2, 3) states in another: every field of every row is bitwise the
    per-state discord and witness_report, from the stacked passes and from the one
    certify pass over the two-qubit stack.

    The two-qubit rows: Werner states (the axis rule's pole), the zoo (CC, CQ and
    product rows of the zero-discord rule, scans among the rest), a rotated
    Bell-diagonal state (M's top eigenvector), the circle c = (0.4, 0.4, 0.1) plain
    (its equator's point e_x) and rotated (the projection of e_z), werner(0.5) with
    rho_14 = rho_41 = 1.25e-15 (the pole by tolerance) and I/4 (B = 0).
    """
    rng = np.random.default_rng(SEED + 62)
    two_qubit = [werner(float(z)) for z in rng.uniform(0.0, 1.0, 7)]
    two_qubit += [rho for _, rho, _ in build_zoo()]
    qutrit = [random_density(rng, 6, (2, 3), rank=1 + i) for i in range(3)]
    circle = _bell_diagonal((0.4, 0.4, 0.1)).matrix
    u = np.kron(_random_unitary(rng), _random_unitary(rng))
    near_sphere = werner(0.5).matrix.copy()
    near_sphere[0, 3] = near_sphere[3, 0] = 1.25e-15
    two_qubit += [
        _rotated_bell_diagonal(rng)[0], DensityMatrix(circle, (2, 2)),
        DensityMatrix(u @ circle @ u.conj().T, (2, 2)), DensityMatrix(near_sphere, (2, 2)),
        DensityMatrix(np.eye(4) / 4, (2, 2)),
    ]
    qutrit += [
        classical_quantum_states(rng, 1, db=3)[0][0],
        tensor(random_density(rng, 2), random_density(rng, 3)),
    ]
    m, lam = _stack(two_qubit)
    parts = _measured_parts(m, (2, 2))
    wits = witness._witness_reports(correlations._correlation_matrices(m), m)
    assert len(wits) == len(two_qubit)
    for i, (rho, wit) in enumerate(zip(two_qubit, wits)):
        assert _same_witness(wit, witness_report(rho)), i
    # the certify pass: its witness reads the discord pass's parts halved
    bundles = protocols._certifications(m, lam)
    assert len(bundles) == len(two_qubit)
    for i, (rho, bundle) in enumerate(zip(two_qubit, bundles)):
        assert _same_witness(bundle.witness, witness_report(rho)), i
        assert dataclasses.astuple(bundle.correlations) == dataclasses.astuple(discord(rho)), i
    for grid in (DEFAULT_GRID, (16, 32)):
        rows = correlations._reports(m, lam, parts, (2, 2), grid)
        assert len(rows) == len(two_qubit)
        # some rows were scanned and refined
        assert not all(_at_pole(rep.argmin_measurement) for rep in rows)
        # the plain circle reports e_x, the near-sphere and I/4 the pole
        circle_m = rows[-4].argmin_measurement
        assert (circle_m.theta, circle_m.phi) == (np.pi / 2, 0.0)
        assert _at_pole(rows[-2].argmin_measurement) and _at_pole(rows[-1].argmin_measurement)
        for i, (rho, rep) in enumerate(zip(two_qubit, rows)):
            assert dataclasses.astuple(rep) == dataclasses.astuple(discord(rho, grid)), i
        m3, lam3 = _stack(qutrit)
        rows = correlations._reports(m3, lam3, _measured_parts(m3, (2, 3)), (2, 3), grid)
        assert len(rows) == len(qutrit)
        for i, (rho, rep) in enumerate(zip(qutrit, rows)):
            assert dataclasses.astuple(rep) == dataclasses.astuple(discord(rho, grid)), i
            assert rep.geometric_discord is None and rep.concurrence is None


def test_every_row_of_a_stack_is_checked():
    """A bad row anywhere in a stack raises as it would alone: the sign check of
    discord and the Schmidt reconstruction of the witness."""
    states = [werner(0.1), werner(0.2), cc_state(np.diag([0.5, 0.5])), werner(0.3)]
    m, lam = _stack(states)
    lam[2] = 0.25  # S(AB) = 2 bits with 1 bit per marginal: total 0 below classical 1
    with pytest.raises(ArithmeticError, match=r"total=0\.0, classical=1\.0, discord=-1\.0"):
        correlations._reports(m, lam, _measured_parts(m, (2, 2)), (2, 2), DEFAULT_GRID)
    m, lam = _stack(states)
    r = correlations._correlation_matrices(m)
    r[1, 3, 3] += 1e-6  # row 1's r no longer reconstructs row 1's matrix
    with pytest.raises(ArithmeticError, match="operator Schmidt reconstruction error"):
        witness._witness_reports(r, m)
    assert len(witness._witness_reports(np.delete(r, 1, 0), np.delete(m, 1, 0))) == 3


def test_accepted_hermiticity_residual_is_not_rechecked():
    """A residual of 0.9e-12 passes DensityMatrix; its marginal doubles it and is not re-validated."""
    rho = werner_with_imaginary_residual()
    ref = werner(0.3)
    assert abs(total_correlation(rho) - total_correlation(ref)) < 1e-10
    rep = discord(rho)
    assert abs(rep.discord - werner_discord_analytic(0.3)) < 1e-6
