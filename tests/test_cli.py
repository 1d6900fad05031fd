import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qdissonance
from qdissonance import cli, protocols, statefile
from qdissonance import (
    DensityMatrix, DomainError, correlations, discord, load_state, save_state, werner, witness_report,
)
from qdissonance.cli import MAX_SWEEP_STEPS, SWEEP_HEADER, main, sweep_rows
from qdissonance.states import _werner_stack

from _zoo import werner_with_imaginary_residual


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse argument errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            pairs[key] = val
    return pairs


def test_state_werner(tmp_path, capsys):
    out_path = tmp_path / "w.qs"
    code, out, _ = run(capsys, "state", "werner", "--z", "0.25", "--out", str(out_path))
    assert code == 0
    assert f"wrote {out_path}" in out
    assert "dims: 2 2" in out
    rho = load_state(out_path)
    assert np.abs(rho.matrix - werner(0.25).matrix).max() == 0.0
    eig_line = [ln for ln in out.splitlines() if ln.startswith("eigenvalues:")][0]
    eig = sorted(float(tok) for tok in eig_line.split()[1:])
    assert np.allclose(eig, sorted([1.75 / 4, 0.75 / 4, 0.75 / 4, 0.75 / 4]))


def test_state_werner_bad_z(tmp_path, capsys):
    code, _, err = run(capsys, "state", "werner", "--z", "1.5", "--out", str(tmp_path / "x.qs"))
    assert code == 2
    assert "error:" in err


def test_state_werner_missing_z(tmp_path, capsys):
    code, _, err = run(capsys, "state", "werner", "--out", str(tmp_path / "x.qs"))
    assert code == 2
    assert "--z" in err


def test_state_bell(tmp_path, capsys):
    out_path = tmp_path / "b.qs"
    code, out, _ = run(capsys, "state", "bell", "--which", "psi-", "--out", str(out_path))
    assert code == 0
    rho = load_state(out_path)
    assert abs(rho.purity() - 1.0) < 1e-12
    code, _, err = run(capsys, "state", "bell", "--out", str(tmp_path / "b2.qs"))
    assert code == 2


def test_state_cc(tmp_path, capsys):
    out_path = tmp_path / "cc.qs"
    code, out, _ = run(capsys, "state", "cc", "--p", "0.5,0;0,0.5", "--out", str(out_path))
    assert code == 0
    rho = load_state(out_path)
    assert np.allclose(rho.matrix, np.diag([0.5, 0, 0, 0.5]))
    for table in ("", ";"):  # empty tables are a domain error, not a crash
        code, _, err = run(capsys, "state", "cc", "--p", table, "--out", str(tmp_path / "e.qs"))
        assert code == 2 and err.startswith("error:") and "empty" in err
    for table in ("a,b", "0.5,0.5;0.5"):  # not numbers; ragged rows
        code, _, err = run(capsys, "state", "cc", "--p", table, "--out", str(tmp_path / "e.qs"))
        assert code == 2 and err.startswith("error:") and "unparseable" in err
    code, _, err = run(capsys, "state", "cc", "--out", str(tmp_path / "e.qs"))
    assert code == 2 and "requires" in err
    assert not (tmp_path / "e.qs").exists()


def test_state_cq(tmp_path, capsys):
    b0 = tmp_path / "b0.qs"
    b1 = tmp_path / "b1.qs"
    save_state(DensityMatrix(np.diag([1.0, 0.0]), (2,)), b0)
    save_state(DensityMatrix(np.eye(2) / 2, (2,)), b1)
    out_path = tmp_path / "cq.qs"
    code, _, _ = run(
        capsys,
        "state", "cq", "--p", "0.5,0.5", "--states-b", str(b0), str(b1),
        "--out", str(out_path),
    )
    assert code == 0
    rho = load_state(out_path)
    assert rho.legs == (2, 2)
    assert np.allclose(rho.matrix, np.diag([0.5, 0.0, 0.25, 0.25]))
    code, _, err = run(
        capsys, "state", "cq", "--p", "", "--states-b", str(b0), "--out", str(tmp_path / "e.qs")
    )
    assert code == 2 and err.startswith("error:") and "empty" in err
    code, _, err = run(capsys, "state", "cq", "--p", "0.5,0.5", "--out", str(tmp_path / "e.qs"))
    assert code == 2 and "requires" in err
    assert not (tmp_path / "e.qs").exists()


def test_state_cc_pairs(tmp_path, capsys):
    out_path = tmp_path / "pairs.qs"
    code, out, _ = run(capsys, "state", "cc-pairs", "--k", "2", "--out", str(out_path))
    assert code == 0
    assert "dims: 2 2 2 2" in out
    rho = load_state(out_path)
    assert rho.legs == (2, 2, 2, 2)
    code, _, err = run(capsys, "state", "cc-pairs", "--out", str(tmp_path / "e.qs"))
    assert code == 2 and "requires" in err
    assert not (tmp_path / "e.qs").exists()


def test_measures_werner1(tmp_path, capsys):
    state_path = tmp_path / "w1.qs"
    save_state(werner(1.0), state_path)
    json_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "measures", str(state_path), "--json", str(json_path))
    assert code == 0
    pairs = kv(out)
    assert abs(float(pairs["discord"]) - 1.0) < 1e-6
    assert abs(float(pairs["total"]) - 2.0) < 1e-6
    assert abs(float(pairs["concurrence"]) - 1.0) < 1e-10
    payload = json.loads(json_path.read_text())
    assert abs(payload["discord"] - float(pairs["discord"])) < 1e-12
    assert set(payload) == {
        "total", "classical", "discord", "geometric_discord",
        "concurrence", "negativity", "theta", "phi",
    }


def test_measures_accepts_what_the_loader_accepts(tmp_path, capsys):
    """A file that loads as valid is measured: its marginal's doubled residual is not re-validated."""
    state_path = tmp_path / "residual.qs"
    save_state(werner_with_imaginary_residual(), state_path)
    code, out, err = run(capsys, "measures", str(state_path))
    assert (code, err) == (0, "")
    assert abs(float(kv(out)["total"]) - 0.169698808079) < 1e-11


def test_measures_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "measures", str(tmp_path / "missing.qs"))
    assert code == 1
    assert "error:" in err


def test_measures_corrupted_file(tmp_path, capsys):
    bad = tmp_path / "bad.qs"
    bad.write_text("qstate v1\ndims: 2 2\nnot a matrix\n")
    code, _, err = run(capsys, "measures", str(bad))
    assert code == 1
    # leg dimensions whose int64 product wraps to 1: one error line, not a traceback
    n = 2**63 - 1
    bad.write_text(f"qstate v1\ndims: {n} {n}\n1+0j\n")
    code, _, err = run(capsys, "measures", str(bad))
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1
    # a non-ASCII byte: one error line, not a UnicodeDecodeError traceback
    bad.write_bytes(b"qstate v1\ndims: 2\n\xc3\xa9 0j\n0j 1+0j\n")
    code, _, err = run(capsys, "measures", str(bad))
    assert code == 1 and err.startswith("error: not an ASCII state file") and err.count("\n") == 1


def test_measures_prints_unsigned_zero(tmp_path, capsys):
    state_path = tmp_path / "two1.qs"
    save_state(DensityMatrix(np.diag([1.0, 0.0]), (2, 1)), state_path)
    code, out, _ = run(capsys, "measures", str(state_path))
    assert code == 0
    assert kv(out)["classical"] == "0"


def test_measures_rejects_many_legs(tmp_path, capsys):
    state_path = tmp_path / "pairs.qs"
    from qdissonance import cc_pairs

    save_state(cc_pairs(2), state_path)
    code, _, err = run(capsys, "measures", str(state_path))
    assert code == 2


def test_witness_cc(tmp_path, capsys):
    from qdissonance import cc_state

    state_path = tmp_path / "cc.qs"
    save_state(cc_state(np.diag([0.5, 0.5])), state_path)
    code, out, _ = run(capsys, "witness", str(state_path))
    assert code == 0
    pairs = kv(out)
    assert pairs["L"] == "2"
    assert pairs["rank_witness"] == "FALSE"
    assert pairs["commutator_verdict"] == "ZERO-DISCORD"
    from qdissonance import cc_pairs

    save_state(cc_pairs(2), state_path)
    code, _, err = run(capsys, "witness", str(state_path))
    assert code == 2 and err.startswith("error:") and "two-qubit" in err


def test_witness_werner(tmp_path, capsys):
    state_path = tmp_path / "w.qs"
    save_state(werner(0.3), state_path)
    code, out, _ = run(capsys, "witness", str(state_path))
    assert code == 0
    pairs = kv(out)
    assert pairs["L"] == "4"
    assert pairs["rank_witness"] == "TRUE"
    assert pairs["commutator_verdict"] == "NONZERO-DISCORD"
    sv_line = [ln for ln in out.splitlines() if ln.startswith("singular_values:")][0]
    sv = [float(tok) for tok in sv_line.split()[1:]]
    assert np.allclose(sorted(sv, reverse=True), [0.5, 0.15, 0.15, 0.15])


def test_protocol_kraus_pass(tmp_path, capsys):
    dump = tmp_path / "dump"
    code, out, _ = run(
        capsys, "protocol", "kraus", "--z", str(1.0 / 3.0), "--dump-dir", str(dump)
    )
    assert code == 0
    assert "target_check=PASS" in out
    pairs = kv(out)
    assert abs(float(pairs["discord"]) - 0.1258145836939115) < 1e-6
    assert float(pairs["concurrence"]) <= 1e-10
    assert pairs["commutator_verdict"] == "NONZERO-DISCORD"
    initial = load_state(dump / "initial.qs")
    post = load_state(dump / "post.qs")
    final = load_state(dump / "final.qs")
    assert initial.legs == (2, 2, 2, 2)
    assert post.legs == (2, 2, 2, 2)
    assert final.legs == (2, 2)
    assert np.abs(final.matrix - werner(1.0 / 3.0).matrix).max() < 1e-10


def test_protocol_unitary_unavailable(capsys):
    code, _, err = run(capsys, "protocol", "unitary", "--z", "0.2")
    assert code == 3
    assert "unavailable" in err


def test_protocol_bad_z(capsys):
    code, _, err = run(capsys, "protocol", "kraus", "--z", "0.5")
    assert code == 2


def test_protocol_fail_path(capsys, monkeypatch):
    monkeypatch.setattr(qdissonance.cli, "TARGET_DISTANCE_TOL", 1e-30)
    code, out, _ = run(capsys, "protocol", "kraus", "--z", "0.2")
    assert code == 2
    assert "target_check=FAIL (tol=1.0e-30)" in out
    # the tolerance is the constant qla.TARGET_DISTANCE_TOL; no flag sets it
    code, out, err = run(capsys, "protocol", "kraus", "--z", "0.2", "--tol", "1e-3")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --tol" in err


def test_sweep(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out_path in (out_a, out_b):
        code, out, _ = run(
            capsys, "sweep", "--zmin", "0", "--zmax", "1", "--steps", "5",
            "--out", str(out_path),
        )
        assert code == 0
        assert "wrote 5 rows" in out
    text = out_a.read_text()
    lines = text.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 6
    assert text == out_b.read_text()  # deterministic byte-for-byte
    first = lines[1].split(",")
    assert first == ["0", "0", "0", "0", "0", "0", "0", "1"]
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert abs(float(last[3]) - 1.0) < 1e-6  # discord of werner(1)
    assert last[-1] == "4"


def test_sweep_bad_ranges(tmp_path, capsys):
    code, _, _ = run(capsys, "sweep", "--zmin", "0.5", "--zmax", "0.2", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    code, _, _ = run(capsys, "sweep", "--steps", "1", "--out", str(tmp_path / "y.csv"))
    assert code == 2
    code, _, _ = run(capsys, "sweep", "--zmax", "1.2", "--out", str(tmp_path / "z.csv"))
    assert code == 2
    # one step over MAX_SWEEP_STEPS is rejected before any row is computed
    big = str(MAX_SWEEP_STEPS + 1)
    code, _, err = run(capsys, "sweep", "--steps", big, "--out", str(tmp_path / "big.csv"))
    assert code == 2
    assert err.startswith("error:") and big in err
    assert not (tmp_path / "big.csv").exists()
    # the library reads steps as an integer; numpy integers pass
    for bad in (3.0, 2.5):
        with pytest.raises(DomainError, match="steps must be an integer"):
            sweep_rows(0.0, 1.0, bad)  # raises at the call, before any row
    for zmin, zmax, steps in ((0.5, 0.2, 3), (0.0, 1.2, 3), (0.0, 1.0, 1),
                              (0.0, 1.0, MAX_SWEEP_STEPS + 1)):
        with pytest.raises(DomainError):
            sweep_rows(zmin, zmax, steps)
    # a sweep takes no grid: every Werner row is a sphere, which no grid scans
    with pytest.raises(TypeError):
        sweep_rows(0.0, 1.0, 3, grid=(16, 32))
    assert len(list(sweep_rows(0.0, 1.0, np.int64(2)))) == 2


def _sweep_calls(rng, rows):
    """Seeded (zmin, zmax, steps) ranges with at least ``rows`` rows, after three whose
    endpoints are 0, 1/3 - 1e-12, 1/3, 1/3 + 1e-12 and 1."""
    calls = [(0.0, 1.0 / 3.0, 2), (1.0 / 3.0 - 1e-12, 1.0 / 3.0 + 1e-12, 3), (1.0 / 3.0, 1.0, 2)]
    while sum(steps for _, _, steps in calls) < rows:
        zmin = float(rng.uniform(0.0, 0.9))
        calls.append((zmin, float(rng.uniform(zmin + 1e-3, 1.0)), int(rng.integers(2, 30))))
    return calls


def _per_state_row(z, grid=(64, 128)):
    """The sweep row of werner(z), from discord on ``grid`` and witness_report."""
    rho = werner(z)
    rep = discord(rho, grid=grid)
    measures = {key: getattr(rep, key) for key in SWEEP_HEADER.split(",")[1:-1]}
    return {"z": z, **measures, "rank_L": witness_report(rho).l_rank}


def test_sweep_rows_equal_the_per_state_reports():
    """Every stacked row is bitwise discord(werner(z)) and witness_report(werner(z)).l_rank,
    on 500 seeded z values and the ends of the separable range, with discord at two
    grids: no grid changes a Werner row.  The values are Python floats and ints."""
    for zmin, zmax, steps in _sweep_calls(np.random.default_rng(20), 500):
        rows = list(sweep_rows(zmin, zmax, steps))
        assert [row["z"] for row in rows] == np.linspace(zmin, zmax, steps).tolist()
        for row in rows:
            for grid in ((64, 128), (16, 32)):
                assert row == _per_state_row(row["z"], grid), (row["z"], grid)
            assert list(map(type, row.values())) == [float] * 7 + [int], row["z"]


def test_sweep_rows_stream_in_blocks(monkeypatch):
    """A sweep stacks _SWEEP_BLOCK rows at a time, and the blocks change no row: sweeps
    around the block edges equal one unblocked certify pass over all their states, and
    the per-state reports at the rows beside each edge."""
    seen = []
    matrices = correlations._correlation_matrices

    def counted(*args):
        seen.append(len(args[0]))  # the states in the stack
        return matrices(*args)

    monkeypatch.setattr(correlations, "_correlation_matrices", counted)
    assert sum(1 for _ in sweep_rows(0.0, 1.0, 1025)) == 1025
    assert seen == [cli._SWEEP_BLOCK, cli._SWEEP_BLOCK, 1]
    monkeypatch.undo()

    block = cli._SWEEP_BLOCK
    for steps in (block - 1, block, block + 1, 2 * block + 1):
        zs = np.linspace(0.0, 1.0, steps)
        bundles = protocols._certifications(*_werner_stack(zs))
        assert len(bundles) == steps
        want = [
            {
                "z": z, **{key: getattr(b.correlations, key) for key in cli._MEASURES},
                "rank_L": b.witness.l_rank,
            }
            for z, b in zip(zs.tolist(), bundles)
        ]
        rows = list(sweep_rows(0.0, 1.0, steps))
        assert rows == want, steps
        for i in range(block - 2, steps, block):
            for row in rows[i:i + 4]:
                assert row == _per_state_row(row["z"]), (steps, row["z"])


def test_sweep_rows_memory_is_bounded():
    """A sweep at MAX_SWEEP_STEPS, consumed row by row, holds one block at a time."""
    tracemalloc.start()
    try:
        for _ in sweep_rows(0.0, 1.0, MAX_SWEEP_STEPS):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


def test_sweep_rows_never_scan(monkeypatch):
    """Every Werner row is a sphere: 21 rows take the pole, and no grid scan runs."""
    def scan(*args):
        raise AssertionError("a sweep row reached the grid scan")

    monkeypatch.setattr(correlations, "_scan", scan)
    assert len(list(sweep_rows(0.0, 1.0, 21))) == 21


def test_sweep_unwritable_out(tmp_path, capsys):
    code, _, err = run(
        capsys, "sweep", "--steps", "2", "--out", str(tmp_path / "no" / "dir" / "x.csv")
    )
    assert code == 1


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--z", "0.2")
    assert code == 0
    err_line = [ln for ln in out.splitlines() if ln.startswith("reconstruction_max_abs_error=")][0]
    assert float(err_line.partition("=")[2]) < 1e-10
    assert sum(1 for ln in out.splitlines() if ln.startswith("component ")) == 4
    phase_line = [ln for ln in out.splitlines() if ln.startswith("phases:")][0]
    thetas = [float(tok) for tok in phase_line.split()[1:]]
    assert len(thetas) == 4
    # values round-trip through %.12g, so compare at that resolution
    assert abs(thetas[0]) < 1e-11
    assert abs(thetas[1] - np.pi / 2) < 1e-11


def test_decompose_solves_phases_once(monkeypatch, capsys):
    from qdissonance import cli, states

    calls = []
    solve = states.solve_phases

    def counting(z):
        calls.append(z)
        return solve(z)

    monkeypatch.setattr(states, "solve_phases", counting)
    # also count a call through a name the CLI module imported itself
    monkeypatch.setattr(cli, "solve_phases", counting, raising=False)
    code, _, _ = run(capsys, "decompose", "--z", "0.2")
    assert code == 0
    assert calls == [0.2]


def test_decompose_prints_unsigned_zero(capsys):
    code, out, _ = run(capsys, "decompose", "--z", "-0")
    assert code == 0
    assert kv(out)["z"] == "0"


def test_decompose_factor_parts_print_unsigned_zero(capsys):
    """A factor part that rounds to zero prints +0.000000000; every other keeps its digits."""
    for x, want in ((1e-17, "+0.000000000"), (4.9e-10, "+0.000000000"), (5.1e-10, "+0.000000001")):
        assert cli._fixed9(x) == want
        assert cli._fixed9(-x) == ("+0.000000000" if x < 5e-10 else "-0.000000001")
    assert cli._fixed9(-0.0) == "+0.000000000"
    assert cli._fixed9(-0.624789859) == "-0.624789859"
    for z in ("0.2", "0.3333333333333333", "0"):
        code, out, _ = run(capsys, "decompose", "--z", z)
        assert code == 0
        assert "-0.000000000" not in out, z


def test_decompose_bad_z(capsys):
    code, _, err = run(capsys, "decompose", "--z", "0.5")
    assert code == 2


def test_opt_grid_flag(tmp_path, capsys):
    state_path = tmp_path / "w.qs"
    save_state(werner(0.5), state_path)
    code, out, _ = run(capsys, "measures", str(state_path), "--opt-grid", "16x32")
    assert code == 0
    pairs = kv(out)
    analytic = (1 + 1.5) / 4 * np.log2(2.5) + 0.5 / 4 * np.log2(0.5) - 0.75 * np.log2(1.5)
    assert abs(float(pairs["discord"]) - analytic) < 1e-6


def test_bad_grid_argument(tmp_path, capsys):
    state_path = tmp_path / "w.qs"
    save_state(werner(0.5), state_path)
    code, _, err = run(capsys, "measures", str(state_path), "--opt-grid", "64")
    assert code == 2
    # more directions than MAX_GRID_POINTS: rejected before anything is allocated
    code, _, err = run(capsys, "measures", str(state_path), "--opt-grid", "2048x1025")
    assert code == 2
    assert "directions" in err
    # a sweep takes no grid at all: argparse refuses the flag before any row
    out_csv = tmp_path / "s.csv"
    code, _, err = run(capsys, "sweep", "--opt-grid", "2048x1025", "--out", str(out_csv))
    assert code == 2
    assert "unrecognized arguments: --opt-grid" in err
    assert not out_csv.exists()
    # the refinement's stopping rules are constants (qla.NEWTON_TOL); no flag sets them
    for verb in (("measures", str(state_path)), ("sweep", "--out", str(out_csv))):
        code, _, err = run(capsys, *verb, "--opt-refine", "1e-6")
        assert code == 2
        assert "unrecognized arguments: --opt-refine" in err
    assert not out_csv.exists()


def test_over_cap_qudit_state_exits_2(tmp_path, capsys):
    state_path = tmp_path / "big.qs"
    save_state(DensityMatrix(np.eye(64) / 64, (2, 32)), state_path)
    code, out, err = run(capsys, "measures", str(state_path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: a (2, 32) state on grid 64x128")
    # a coarser grid brings the same state under the cap
    code, out, _ = run(capsys, "measures", str(state_path), "--opt-grid", "8x16")
    assert code == 0 and "discord=0" in out


def test_over_cap_state_file_exits_1(tmp_path, capsys):
    """90 KB of rows declaring a 30000 x 30000 matrix: exit 1 with one error line."""
    state_path = tmp_path / "huge.qs"
    state_path.write_text("qstate v1\ndims: 30000\n" + "0j\n" * 30000)
    code, out, err = run(capsys, "measures", str(state_path))
    assert code == 1 and out == ""
    assert err == "error: expected 30000 matrix rows, more than MAX_STATE_DIM = 1024\n"


def test_state_refuses_over_cap_dims_before_building(tmp_path, capsys, monkeypatch):
    """`state` refuses what the loader would refuse, with one error line and no file."""
    table = ";".join(",".join(["0.0"] * 32) for _ in range(33))
    out_path = tmp_path / "big.qs"
    start = time.perf_counter()
    code, out, err = run(capsys, "state", "cc", "--p", table, "--out", str(out_path))
    # building the 1056 x 1056 state would take tens of seconds
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err == "error: expected 1056 matrix rows, more than MAX_STATE_DIM = 1024\n"
    assert not out_path.exists()
    # a qubit-qutrit cq state has total dimension 6
    t0, t1 = tmp_path / "t0.qs", tmp_path / "t1.qs"
    save_state(DensityMatrix(np.diag([1.0, 0.0, 0.0]), (3,)), t0)
    save_state(DensityMatrix(np.diag([0.0, 0.0, 1.0]), (3,)), t1)
    argv = ("state", "cq", "--p", "0.5,0.5", "--states-b", str(t0), str(t1), "--out", str(out_path))
    monkeypatch.setattr(statefile, "MAX_STATE_DIM", 4)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: expected 6 matrix rows, more than MAX_STATE_DIM = 4\n"
    assert not out_path.exists()
    monkeypatch.setattr(statefile, "MAX_STATE_DIM", 6)
    code, _, _ = run(capsys, *argv)
    assert code == 0 and load_state(out_path).legs == (2, 3)


def test_package_imports_without_scipy():
    """The package depends on numpy alone; a CLI import must not pull in scipy."""
    code = "import sys, qdissonance.cli; print('scipy' in sys.modules)"
    env = dict(os.environ)
    src = str(Path(qdissonance.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
