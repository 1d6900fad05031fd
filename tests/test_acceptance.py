"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE <n> PASS|FAIL`` line (visible under
``pytest -s``) before asserting, and enforces its runtime budget where
one applies.  Tolerances are fixed here on purpose; loosening them is a
regression, not a fix.
"""

import csv
import time

import numpy as np

from qdissonance import (
    bell,
    build_kraus,
    build_unitary,
    cc_state,
    certify,
    conditional_block,
    discord,
    eta_states,
    geometric_discord,
    projector,
    run_kraus_protocol,
    run_unitary_protocol,
    tensor,
    trace_distance,
    werner,
    witness_report,
)
from qdissonance.cli import SWEEP_HEADER, main

from _zoo import build_zoo, explicit_factors_z13, random_two_qubit

Z13 = 1.0 / 3.0
Z_GRID = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, Z13]
WERNER_DISCORD_Z13 = 0.1258145836939115


def _finish(n, problems, elapsed, limit=None):
    if limit is not None and elapsed > limit:
        problems.append(f"runtime {elapsed:.2f}s exceeds {limit:g}s budget")
    verdict = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {n} {verdict} ({elapsed:.2f}s)")
    assert not problems, f"criterion {n}: " + "; ".join(problems)


def test_criterion_1_product_decomposition_identities():
    start = time.perf_counter()
    problems = []
    for z in Z_GRID:
        etas = eta_states(z)
        recon = np.zeros((4, 4), dtype=complex)
        for j, ej in enumerate(etas):
            norm2 = np.vdot(ej.vector, ej.vector)
            if abs(norm2 - 0.25) > 1e-10:
                problems.append(f"z={z}: <eta_{j}|eta_{j}> = {norm2} != 1/4")
            for k in range(j + 1, 4):
                ov = np.vdot(ej.vector, etas[k].vector)
                if abs(ov - z / 4) > 1e-10:
                    problems.append(f"z={z}: <eta_{j}|eta_{k}> = {ov} != z/4")
            recon += np.outer(ej.vector, ej.vector.conj())
        err = np.abs(recon - werner(z).matrix).max()
        if err > 1e-10:
            problems.append(f"z={z}: component sum misses werner(z) by {err:.3e}")
    _finish(1, problems, time.perf_counter() - start, limit=1.0)


def test_criterion_2_explicit_z13_factors():
    start = time.perf_counter()
    problems = []
    pairs = explicit_factors_z13()
    mix = np.zeros((4, 4), dtype=complex)
    for j, (psi_j, phi_j) in enumerate(pairs):
        ov = abs(np.vdot(psi_j.vector, phi_j.vector))
        if ov > 1e-10:
            problems.append(f"component {j}: |<Psi|Phi>| = {ov:.3e} != 0")
        for k, (psi_k, phi_k) in enumerate(pairs):
            if j == k:
                continue
            prod = np.vdot(psi_j.vector, psi_k.vector) * np.vdot(phi_j.vector, phi_k.vector)
            if abs(prod - 1.0 / 3.0) > 1e-10:
                problems.append(f"components {j},{k}: overlap product {prod} != 1/3")
        mix += 0.25 * np.kron(
            np.outer(psi_j.vector, psi_j.vector.conj()),
            np.outer(phi_j.vector, phi_j.vector.conj()),
        )
    err = np.abs(mix - werner(Z13).matrix).max()
    if err > 1e-10:
        problems.append(f"uniform product mixture misses werner(1/3) by {err:.3e}")
    _finish(2, problems, time.perf_counter() - start, limit=1.0)


def test_criterion_3_kraus_protocol():
    start = time.perf_counter()
    problems = []
    for z in Z_GRID[1:]:
        for side in ("A", "B"):
            ch = build_kraus(side, z)
            total = sum(m.conj().T @ m for m in ch.operators)
            err = np.abs(total - np.eye(4)).max()
            if err > 1e-10:
                problems.append(f"z={z} side {side}: completeness off by {err:.3e}")
        res = run_kraus_protocol(z)
        if res.trace_distance_to_target > 1e-10:
            problems.append(
                f"z={z}: output trace distance {res.trace_distance_to_target:.3e}"
            )
    _finish(3, problems, time.perf_counter() - start, limit=5.0)


def test_criterion_4_unitary_protocol():
    start = time.perf_counter()
    problems = []
    for side in ("A", "B"):
        u = build_unitary(side, Z13).matrix
        err = max(
            np.abs(u.conj().T @ u - np.eye(8)).max(),
            np.abs(u @ u.conj().T - np.eye(8)).max(),
        )
        if err > 1e-10:
            problems.append(f"side {side}: unitarity off by {err:.3e}")
    res = run_unitary_protocol(Z13)
    if res.trace_distance_to_target > 1e-10:
        problems.append(f"output trace distance {res.trace_distance_to_target:.3e}")
    pairs = explicit_factors_z13()
    for m in range(2):
        for n in range(2):
            blk = conditional_block(res.post_operation, m, n)
            psi, phi = pairs[2 * m + n]
            branch = 0.5 * (
                tensor(projector(psi), projector(phi)).matrix
                + tensor(projector(phi), projector(psi)).matrix
            )
            err = np.abs(blk - branch).max()
            if err > 1e-10:
                problems.append(f"block ({m},{n}) misses two-branch mixture by {err:.3e}")
    _finish(4, problems, time.perf_counter() - start, limit=5.0)


def test_criterion_5_dissonance_certification():
    start = time.perf_counter()
    problems = []
    res = run_kraus_protocol(Z13)
    bundle = certify(res)
    rep = bundle.correlations
    if not rep.concurrence <= 1e-10:
        problems.append(f"concurrence {rep.concurrence:.3e} not 0")
    if not rep.negativity <= 1e-10:
        problems.append(f"negativity {rep.negativity:.3e} not 0")
    if not rep.discord > 0.1:
        problems.append(f"discord {rep.discord} not > 0.1")
    if abs(rep.discord - WERNER_DISCORD_Z13) > 1e-3:
        problems.append(f"discord {rep.discord} misses oracle {WERNER_DISCORD_Z13}")
    target_dg = Z13**2 / 2
    if abs(rep.geometric_discord - target_dg) > 1e-6:
        problems.append(f"closed-form D_G {rep.geometric_discord} misses z^2/2")
    brute = geometric_discord(res.final, method="brute-force")
    if abs(brute - target_dg) > 1e-6:
        problems.append(f"brute-force D_G {brute} misses z^2/2")
    _finish(5, problems, time.perf_counter() - start, limit=30.0)


def test_criterion_6_witness_suite():
    start = time.perf_counter()
    problems = []
    for z in (0.05, 0.2, Z13, 0.7, 1.0):
        rep = witness_report(werner(z))
        if rep.l_rank != 4:
            problems.append(f"werner({z}): L = {rep.l_rank} != 4")
        if not rep.verdicts["rank_witness"]:
            problems.append(f"werner({z}): rank witness failed to fire")
    cc = cc_state(np.diag([0.5, 0.5]))
    rep = witness_report(cc)
    if rep.l_rank > 2:
        problems.append(f"CC state: L = {rep.l_rank} > 2")
    if not rep.verdicts["commutator_zero_discord"]:
        problems.append("CC state: commutator verdict not zero-discord")
    for name, rho, tag in build_zoo():
        d = discord(rho).discord
        is_zero = d <= 1e-6
        if (tag == "zero") != is_zero:
            problems.append(f"zoo tag mismatch for {name}: discord={d:.3e}, tag={tag}")
        rep = witness_report(rho)
        if rep.verdicts["commutator_zero_discord"] != is_zero:
            problems.append(
                f"{name}: commutator verdict {rep.verdicts['commutator_zero_discord']}"
                f" vs discord {d:.3e}"
            )
        if rep.verdicts["rank_witness"] and is_zero:
            problems.append(f"{name}: rank witness fired on zero-discord state")
    _finish(6, problems, time.perf_counter() - start, limit=60.0)


def test_criterion_7_singlet_endpoints():
    start = time.perf_counter()
    problems = []
    rep = discord(projector(bell("psi-")))
    for label, value, target, tol in (
        ("total", rep.total, 2.0, 1e-6),
        ("classical", rep.classical, 1.0, 1e-6),
        ("discord", rep.discord, 1.0, 1e-6),
        ("concurrence", rep.concurrence, 1.0, 1e-10),
    ):
        if abs(value - target) > tol:
            problems.append(f"singlet {label} = {value} != {target} (tol {tol:g})")
    _finish(7, problems, time.perf_counter() - start)


def test_criterion_8_sweep_shape(tmp_path):
    start = time.perf_counter()
    problems = []
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--zmin", "0", "--zmax", "1", "--steps", "21", "--out", str(out)])
    if code != 0:
        problems.append(f"sweep exit code {code}")
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != SWEEP_HEADER.split(","):
            problems.append(f"CSV header {reader.fieldnames}")
        rows = [{k: float(v) for k, v in row.items()} for row in reader]
    if len(rows) != 21:
        problems.append(f"expected 21 rows, got {len(rows)}")
    for key in ("total", "discord", "geometric_discord"):
        vals = [row[key] for row in rows]
        drops = [i for i in range(1, len(vals)) if vals[i] - vals[i - 1] < -1e-9]
        if drops:
            problems.append(f"{key} decreases at rows {drops}")
    zs = [row["z"] for row in rows]
    if any(b <= a for a, b in zip(zs, zs[1:])):
        problems.append("z column not strictly increasing")
    for row in rows:
        z = row["z"]
        conc_ref = max(0.0, (3 * z - 1) / 2)
        if abs(row["concurrence"] - conc_ref) > 1e-8:
            problems.append(f"z={z}: concurrence {row['concurrence']} != {conc_ref}")
        if z <= Z13 and row["concurrence"] != 0.0:
            problems.append(f"z={z}: concurrence nonzero in separable range")
        if abs(row["geometric_discord"] - z**2 / 2) > 1e-6:
            problems.append(f"z={z}: D_G {row['geometric_discord']} != z^2/2")
    _finish(8, problems, time.perf_counter() - start, limit=120.0)


def test_criterion_9_oracle_cross_validation():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(510)
    for i in range(25):
        rho = random_two_qubit(rng)
        closed = geometric_discord(rho)
        brute = geometric_discord(rho, method="brute-force")
        if abs(closed - brute) > 1e-4:
            problems.append(f"D_G mismatch {abs(closed - brute):.3e} on state {i}")
    for i in range(10):
        rho = random_two_qubit(rng)
        coarse = discord(rho).discord
        fine = discord(rho, grid=(640, 1280)).discord
        if abs(coarse - fine) > 1e-5:
            problems.append(f"discord grid gap {abs(coarse - fine):.3e} on state {i}")
    _finish(9, problems, time.perf_counter() - start)
