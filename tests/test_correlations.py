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
from qdissonance import correlations
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
    _pole_values,
    _refine,
    _scan,
    _smallest,
)
from qdissonance.qla import FLAT_SPREAD_TOL, NEWTON_ITER_CAP, PROB_CUTOFF

from _zoo import (
    build_zoo, near_pure_rotated, random_cq, random_density, random_product, random_qubit_basis,
    random_two_qubit, werner_with_imaginary_residual,
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
        assert geometric_discord(cq) <= 1e-8


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


def test_discord_matches_luo_on_rotated_bell_diagonal():
    """Luo's closed form (PRA 77, 042303, 2008) for Bell-diagonal states.

    With rho = (I + sum_i c_i s_i x s_i) / 4 and c = max |c_i|, the
    discord is I(A:B) - [(1 - c) log2(1 - c) + (1 + c) log2(1 + c)] / 2
    and the geometric discord (sum c_i^2 - max c_i^2) / 4.  Both are
    invariant under local unitaries, which move the optimal measurement
    off the grid axes.
    """
    bells = [bell(name).vector for name in ("phi+", "phi-", "psi+", "psi-")]
    rng = np.random.default_rng(SEED + 10)
    for _ in range(40):
        lam = rng.dirichlet(np.ones(4))
        m = sum(p * np.outer(v, v.conj()) for p, v in zip(lam, bells))
        c = np.diag(_bloch_by_trace(DensityMatrix(m, (2, 2)))[1])
        cmax = np.abs(c).max()
        classical = sum((1 + sgn * cmax) / 2 * np.log2(1 + sgn * cmax) for sgn in (-1, 1))
        luo = 2.0 + float(np.sum(lam * np.log2(lam))) - classical
        dg = (np.sum(c * c) - np.max(c * c)) / 4
        u = np.kron(_random_unitary(rng), _random_unitary(rng))
        rho = DensityMatrix(u @ m @ u.conj().T, (2, 2))
        assert abs(discord(rho).discord - luo) <= 1e-9
        assert abs(geometric_discord(rho, method="brute-force") - dg) <= 1e-12


_SIGMA = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]


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


def test_top3_selection_matches_stable_argsort():
    rng = np.random.default_rng(SEED + 12)
    for size in (1, 2, 3, 4, 7, 50, 1000):
        for levels in (1, 2, 3, 5, 1000):
            vals = rng.integers(0, levels, size=size).astype(float)  # planted ties
            assert np.array_equal(_smallest(vals, 3), np.argsort(vals, kind="stable")[:3])
    # the isotropic Werner objective is flat up to rounding: ties everywhere
    vals = _scan(_conditional_entropy_objective(_parts(werner(0.3))), *_grid_directions(DEFAULT_GRID))
    assert np.array_equal(_smallest(vals, 3), np.argsort(vals, kind="stable")[:3])


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
    """A (2, d_B) scan above MAX_QUDIT_SCAN_WORK is refused before it allocates."""
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

    # the largest admitted cases reach the scan: (2, 16) at the default
    # grid and (2, 3) at the largest grid
    def reached(*args):
        raise _ReachedScan

    monkeypatch.setattr(correlations, "_minimize_over_directions", reached)
    for db, grid in ((16, DEFAULT_GRID), (3, (3, correlations.MAX_GRID_POINTS // 3))):
        with pytest.raises(_ReachedScan):
            classical_correlation(random_density(rng, 2 * db, (2, db)), grid)


def test_odd_and_tiny_grids_agree_with_luo_and_default():
    bells = [bell(name).vector for name in ("phi+", "phi-", "psi+", "psi-")]
    rng = np.random.default_rng(SEED + 13)
    for _ in range(10):
        lam = rng.dirichlet(np.ones(4))
        m = sum(p * np.outer(v, v.conj()) for p, v in zip(lam, bells))
        cmax = np.abs(np.diag(_bloch_by_trace(DensityMatrix(m, (2, 2)))[1])).max()
        classical = sum((1 + sgn * cmax) / 2 * np.log2(1 + sgn * cmax) for sgn in (-1, 1))
        luo = 2.0 + float(np.sum(lam * np.log2(lam))) - classical
        u = np.kron(_random_unitary(rng), _random_unitary(rng))
        rho = DensityMatrix(u @ m @ u.conj().T, (2, 2))
        for grid in ((2, 2), (3, 5), (15, 31)):
            assert abs(discord(rho, grid=grid).discord - luo) <= 1e-9
    for _ in range(10):
        rho = random_density(rng, 6, (2, 3))
        ref = discord(rho).discord
        for grid in ((2, 2), (3, 5), (15, 31)):
            assert discord(rho, grid=grid).discord == pytest.approx(ref, abs=1e-7)


def _at_pole(m):
    return (m.theta, m.phi) == (0.0, 0.0)


def test_flat_shortcut_fires_only_at_or_below_the_spread_tolerance():
    """A planted eps * sz x sz / 4 on werner(0.2) spreads the scan by ~0.3 eps."""
    base = werner(0.2).matrix
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])) / 4
    ref, m = classical_correlation(werner(0.2))
    assert _at_pole(m)
    for eps in (1e-9, 1e-11, 1e-12, 1e-13):
        val, m = classical_correlation(DensityMatrix(base + eps * zz, (2, 2)))
        assert not _at_pole(m), eps
        assert abs(val - ref) <= 1e-9, eps
    _, m = classical_correlation(DensityMatrix(base + 1e-15 * zz, (2, 2)))
    assert _at_pole(m)
    # a scan too coarse to resolve every quadratic never reads as flat
    cc = cc_state(np.diag([0.5, 0.5]))
    for grid in ((2, 4), (2, 64), (4, 4), (64, 4)):
        assert classical_correlation(cc, grid=grid)[0] == pytest.approx(1.0, abs=1e-9), grid


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
        trials = []

        def counted(n):
            if n.ndim == 2:  # a trial step; stencil calls have shape (3, k, 8)
                trials.append(n.shape[1])
            return objective(n)

        for k in range(seeds.shape[1]):
            seed = seeds[:, k : k + 1]
            trials.clear()
            refined = _refine(counted, seed, objective(seed))
            # each iteration makes one trial call, so a refinement that did
            # not converge within its cap made NEWTON_ITER_CAP of them
            assert len(trials) < NEWTON_ITER_CAP, (params, k)
            assert objective(refined)[0] <= objective(seed)[0]


def test_pure_outcomes_give_exact_answers():
    """Optima where a conditional state is pure: exact classical correlation and discord."""
    rep = discord(cc_state(np.diag([0.5, 0.5])))
    assert rep.classical == 1.0 and rep.discord == 0.0
    rng = np.random.default_rng(SEED + 17)
    for _ in range(10):
        p0 = rng.uniform(0.2, 0.8)
        pure_b = [random_density(rng, 2, rank=1) for _ in range(2)]
        cq = cq_state([p0, 1.0 - p0], random_qubit_basis(rng), pure_b)
        assert discord(cq).discord <= 1e-15


def test_newton_converges_on_a_circle_of_optima():
    """Bell-diagonal c = (0.4, 0.4, 0.1): every equator direction is optimal.

    The Riemannian Hessian is singular along the circle; the refinement
    still ends within its cap, at Luo's value.
    """
    sig = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    c = np.array([0.4, 0.4, 0.1])
    rho = DensityMatrix((np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, sig))) / 4, (2, 2))
    cmax = np.abs(c).max()
    classical = sum((1 + sgn * cmax) / 2 * np.log2(1 + sgn * cmax) for sgn in (-1, 1))
    rep = discord(rho)
    assert abs(rep.classical - classical) <= 1e-9
    assert abs(rep.argmin_measurement.theta - np.pi / 2) <= 1e-6


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
    vals = _scan(objective, thetas, phis)
    if vals.max() - vals.min() <= FLAT_SPREAD_TOL:
        return float(vals.min()), 0.0, 0.0
    seeds = _smallest(vals, 3)
    row, col = np.divmod(seeds, phis.size)
    return _compass_search(objective, thetas[row], phis[col], vals[seeds], np.pi / grid[0])


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

    Directions (3, N), stencils (3, k, 8), the pole of a whole stack,
    and the grid scan at a 64-direction tile and at the default tile.
    """
    rng = np.random.default_rng(SEED + 71)
    states = _kernel_states()
    assert len(states) >= 200
    thetas, phis = _grid_directions(DEFAULT_GRID)
    grid = _direction(thetas[:, None], phis)
    n = _spread_directions(257)
    bloch = np.stack([_parts(rho) for rho in states])
    pole = np.array([_reference_objective(b, _direction(0.0, 0.0)) for b in bloch])
    assert np.array_equal(_pole_values(bloch), pole)
    for i in range(len(states)):
        objective = _conditional_entropy_objective(bloch[i])
        stencil = rng.standard_normal((3, 3, 8))
        stencil /= np.sqrt((stencil * stencil).sum(axis=0))
        for dirs in (n, -n, n[:, :3], n[:, 0], stencil):
            assert np.array_equal(objective(dirs), _reference_objective(bloch[i], dirs)), i
        want = _reference_objective(bloch[i], grid).reshape(-1)
        for tile in (64, correlations._SCAN_TILE):
            assert np.array_equal(_scan(objective, thetas, phis, tile), want), (i, tile)


def test_fine_scan_memory_is_bounded():
    """The 640x1280 scan holds its value array and one tile's buffers, not the grid.

    The hemisphere's 409600 values take 3.1 MiB; building the grid's
    (3, 409600) directions at once took another 9.4 MiB.
    """
    rho = random_two_qubit(np.random.default_rng(SEED + 72))
    tracemalloc.start()
    try:
        discord(rho, grid=(640, 1280))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


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
    parts once; ``certify`` shares one correlation matrix between discord
    and the witness; a 21-row sweep makes each stack once, 21 rows deep.
    The shared pass returns bitwise what the public functions return.
    """
    rng = np.random.default_rng(SEED + 61)
    names = ("_correlation_matrices", "_pauli_parts", "_marginal_entropies")
    calls = {name: [] for name in names}

    def counting(name):
        f = getattr(correlations, name)

        def counted(*args):
            calls[name].append(len(args[0]))  # the states in the stack
            return f(*args)

        return counted

    for name in names:
        monkeypatch.setattr(correlations, name, counting(name))

    def counts(call, *args):
        for name in names:
            calls[name].clear()
        call(*args)
        return tuple(calls[name] for name in names)

    assert counts(discord, random_two_qubit(rng)) == ([1], [], [1, 1])
    assert counts(discord, werner(0.3)) == ([1], [], [1, 1])
    assert counts(discord, random_density(rng, 6, (2, 3)))[1] == [1]
    assert counts(certify, run_kraus_protocol(0.2))[0] == [1]
    assert counts(lambda *zs: list(sweep_rows(*zs)), 0.0, 1.0, 21) == ([21], [], [21, 21])

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
    """Werner rows (sphere rule) and the zoo (scans among them) in one two-qubit
    stack, and three (2, 3) states in another: every field of every row is
    bitwise the per-state discord and witness_report."""
    rng = np.random.default_rng(SEED + 62)
    two_qubit = [werner(float(z)) for z in rng.uniform(0.0, 1.0, 7)]
    two_qubit += [rho for _, rho, _ in build_zoo()]
    qutrit = [random_density(rng, 6, (2, 3), rank=1 + i) for i in range(3)]
    for grid in (DEFAULT_GRID, (16, 32)):
        rows = correlations._reports(*_stack(two_qubit), (2, 2), grid, witness=True)
        # some rows were scanned and refined
        assert not all(_at_pole(rep.argmin_measurement) for rep, _ in rows)
        for i, (rho, (rep, wit)) in enumerate(zip(two_qubit, rows)):
            assert dataclasses.astuple(rep) == dataclasses.astuple(discord(rho, grid)), i
            assert _same_witness(wit, witness_report(rho)), i
        rows = correlations._reports(*_stack(qutrit), (2, 3), grid)
        for i, (rho, (rep, wit)) in enumerate(zip(qutrit, rows)):
            assert dataclasses.astuple(rep) == dataclasses.astuple(discord(rho, grid)), i
            assert wit is None and rep.geometric_discord is None and rep.concurrence is None


def test_every_row_of_a_stack_is_checked():
    """A bad row anywhere in a stack raises as it would alone: the sign check of
    discord and the Schmidt reconstruction of the witness."""
    states = [werner(0.1), werner(0.2), cc_state(np.diag([0.5, 0.5])), werner(0.3)]
    m, lam = _stack(states)
    lam[2] = 0.25  # S(AB) = 2 bits with 1 bit per marginal: total 0 below classical 1
    with pytest.raises(ArithmeticError, match=r"total=0\.0, classical=1\.0, discord=-1\.0"):
        correlations._reports(m, lam, (2, 2), DEFAULT_GRID)
    m, lam = _stack(states)
    r = correlations._correlation_matrices(m)
    r[1, 3, 3] += 1e-6  # row 1's r no longer reconstructs row 1's matrix
    with pytest.raises(ArithmeticError, match="operator Schmidt reconstruction error"):
        correlations._witness_reports(r, m)
    assert len(correlations._witness_reports(np.delete(r, 1, 0), np.delete(m, 1, 0))) == 3


def test_accepted_hermiticity_residual_is_not_rechecked():
    """A residual of 0.9e-12 passes DensityMatrix; its marginal doubles it and is not re-validated."""
    rho = werner_with_imaginary_residual()
    ref = werner(0.3)
    assert abs(total_correlation(rho) - total_correlation(ref)) < 1e-10
    rep = discord(rho)
    assert abs(rep.discord - werner_discord_analytic(0.3)) < 1e-6
