"""The four benchmark workloads: seeded inputs, the timed op, and its checks.

Every workload is a closed loop with one client.  ``op`` is the timed
call into qdissonance; ``check`` runs afterwards, untimed, and raises
``CheckFailed`` when an output is wrong.  Only names in
``qdissonance.__all__``, ``qdissonance.cli.main``/``sweep_rows`` and the
``qdiss`` process are used, so later refactors of the package's
internals never need to edit this file.

Tolerances are the ones the acceptance tests fix: discord to 1e-6 bits,
geometric discord to 1e-6, Werner concurrence to 1e-8, separable
concurrence and negativity and protocol trace distance to 1e-10,
brute-force vs closed-form geometric discord to 1e-4 and fine-grid vs
default-grid discord to 1e-5.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
import qdissonance as qd
from qdissonance.cli import sweep_rows
from tracer import NO_TRACE

ROOT = Path(__file__).resolve().parent.parent
Z13 = 1.0 / 3.0
FINE_GRID = (640, 1280)
# The console script installed as ``qdiss`` runs exactly this.
QDISS = [sys.executable, "-c", "import sys; from qdissonance.cli import main; sys.exit(main())"]
SWEEP_HEADER = "z,total,classical,discord,geometric_discord,concurrence,negativity,rank_L"
MEASURES_KEYS = ("total", "classical", "discord", "geometric_discord", "concurrence", "negativity", "theta", "phi")


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def near(value: float, target: float, tol: float, what: str) -> None:
    check(abs(value - target) <= tol, f"{what} = {value!r}, expected {target!r} within {tol:g}")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=repr).encode()).hexdigest()[:16]


def matrix_key(m: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(m, dtype=complex).tobytes()).hexdigest()[:16]


def density(m: np.ndarray):
    return qd.DensityMatrix(m, (2, 2))


# --- shared checks --------------------------------------------------------

def check_bounds(rho, disc: float, total: float) -> None:
    """0 <= D <= min(S(A), I(A:B)), with the 1e-6 discord accuracy as slack."""
    s_a = qd.entropy(qd.partial_trace(rho, (1,)))
    check(-1e-6 <= disc <= min(s_a, total) + 1e-6, f"discord {disc} outside [0, min(S(A)={s_a}, I={total})]")


def check_separable(conc: float, neg: float, counters) -> None:
    check(conc <= 1e-10, f"separable state has concurrence {conc}")
    check(neg <= 1e-10, f"separable state has negativity {neg}")
    counters["separable_checked"] += 1
    if conc != 0.0:
        counters["correlations.concurrence_nonzero_separable"] += 1


def check_werner(z: float, disc: float, dg: float, conc: float, neg: float, counters) -> None:
    near(disc, oracles.luo_discord(oracles.werner_weights(z)), 1e-6, f"discord(werner({z}))")
    near(dg, z * z / 2.0, 1e-6, f"geometric_discord(werner({z}))")
    near(conc, oracles.werner_concurrence(z), 1e-8, f"concurrence(werner({z}))")
    if z <= Z13:
        check_separable(conc, neg, counters)


def check_report(item, rep, wit, counters) -> list:
    """Checks on discord(rho) and witness_report(rho) for one generated state."""
    rho = item["rho"]
    check_bounds(rho, rep.discord, rep.total)
    near(rep.geometric_discord, oracles.dvb_geometric_discord(rho.matrix), 1e-6, "geometric_discord vs DVB")
    if item.get("luo") is not None:
        near(rep.discord, item["luo"], 1e-6, "discord vs Luo")
    zero_verdict = wit.verdicts["commutator_zero_discord"]
    check(zero_verdict == (rep.discord <= 1e-6), f"commutator verdict {zero_verdict} vs discord {rep.discord}")
    if item["kind"] in ("cc", "cq", "product"):
        check(zero_verdict, "zero-discord state not recognised by the commutator test")
        check_separable(rep.concurrence, rep.negativity, counters)
    return [rep.total, rep.classical, rep.discord, rep.geometric_discord, rep.concurrence, wit.l_rank]


def breakdown(rho, rep, tr, iid) -> None:
    """Per-measure spans on one state, at the measurement discord returned."""
    with tr.span("certify.breakdown", iid):
        with tr.span("correlations.entropy", iid):
            qd.entropy(rho)
        with tr.span("correlations.total_correlation", iid):
            qd.total_correlation(rho)
        with tr.span("correlations.classical_correlation", iid):
            qd.classical_correlation(rho)
        with tr.span("correlations.conditional_entropy_after", iid):
            qd.conditional_entropy_after(rho, rep.argmin_measurement)
        with tr.span("correlations.geometric_discord", iid):
            qd.geometric_discord(rho)
        with tr.span("correlations.concurrence", iid):
            qd.concurrence(rho)
        with tr.span("correlations.negativity", iid):
            qd.negativity(rho)


# --- workloads ------------------------------------------------------------

class Workload:
    """Seeded inputs split into groups; the loop runs whole groups."""

    name = ""
    item_span = ""
    min_groups = 3
    # Reference run the timed ops are scaled by: "call" or "loop" kernel, or "process".
    reference = "call"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng([seed % 2**63, sum(map(ord, self.name))])
        self.groups: list[list[dict]] = []
        self.digest_inputs: list = []

    def input_digest(self) -> str:
        return digest(self.digest_inputs)

    def units(self, item) -> int:
        return 1

    def op(self, item, tr, iid):
        raise NotImplementedError

    def check(self, item, result, counters) -> list:
        raise NotImplementedError

    def breakdown(self, item, result, tr, iid) -> None:
        pass

    def warm_up(self) -> None:
        self.op(self.groups[0][0], NO_TRACE, "warm-up")


class Certify(Workload):
    """One state per call, warm and in-process."""

    name = "certify"
    item_span = "certify.item"
    MIX = (("random", 40), ("lowrank", 20), ("bell", 40), ("cc", 20), ("cq", 20),
           ("product", 20), ("kraus", 28), ("unitary", 6), ("unitary_off", 6))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        kinds = [k for k, n in self.MIX for _ in range(n)]
        items = [self._make(kind, rng) for kind in (kinds[i] for i in rng.permutation(len(kinds)))]
        self.groups = [[it] for it in items]
        self.digest_inputs = [[it["kind"], it.get("z"), it.get("key")] for it in items]

    @staticmethod
    def _make(kind, rng) -> dict:
        if kind == "kraus":
            return {"kind": kind, "z": float(rng.uniform(1e-3, Z13)) if rng.random() < 0.9 else Z13}
        if kind == "unitary":
            return {"kind": kind, "z": Z13}
        if kind == "unitary_off":
            return {"kind": kind, "z": float(rng.uniform(0.01, 0.32))}
        luo = None
        if kind == "random":
            m = oracles.random_state(rng)
        elif kind == "lowrank":
            m = oracles.random_state(rng, rank=int(rng.integers(1, 4)))
        elif kind == "bell":
            m, luo = oracles.rotated_bell_diagonal(rng)
        elif kind == "cc":
            p = rng.dirichlet(np.ones(4)).reshape(2, 2)
            basis_a = oracles.haar_unitary(rng)
            basis_b = oracles.haar_unitary(rng)
            m = qd.cc_state(p / p.sum(), list(basis_a.T), list(basis_b.T)).matrix
        elif kind == "cq":
            p0 = float(rng.uniform(0.2, 0.8))
            states_b = [qd.DensityMatrix(oracles.random_state(rng, d=2, rank=2)) for _ in range(2)]
            m = qd.cq_state([p0, 1.0 - p0], list(oracles.haar_unitary(rng).T), states_b).matrix
        else:  # product
            a = oracles.random_state(rng, d=2, rank=2)
            b = oracles.random_state(rng, d=2, rank=2)
            m = qd.tensor(qd.DensityMatrix(a), qd.DensityMatrix(b)).matrix
        return {"kind": kind, "rho": density(m), "luo": luo, "key": matrix_key(m)}

    def op(self, item, tr, iid):
        kind = item["kind"]
        if kind in ("kraus", "unitary", "unitary_off"):
            run = qd.run_kraus_protocol if kind == "kraus" else qd.run_unitary_protocol
            try:
                with tr.span(f"protocols.{run.__name__}", iid):
                    result = run(item["z"])
            except qd.ProtocolUnavailableError as exc:
                return exc
            with tr.span("protocols.certify", iid):
                bundle = qd.certify(result)
            return result, bundle
        with tr.span("correlations.discord", iid):
            rep = qd.discord(item["rho"])
        with tr.span("witness.witness_report", iid):
            wit = qd.witness_report(item["rho"])
        return rep, wit

    def breakdown(self, item, result, tr, iid):
        if isinstance(result, Exception):
            return
        if item["kind"] in ("kraus", "unitary"):
            rho = result[0].final
            with tr.span("correlations.discord", iid):
                rep = qd.discord(rho)
            with tr.span("witness.witness_report", iid):
                qd.witness_report(rho)
        else:
            rho, rep = item["rho"], result[0]
        breakdown(rho, rep, tr, iid)

    def check(self, item, result, counters):
        kind, z = item["kind"], item.get("z")
        if kind == "unitary_off":
            check(isinstance(result, qd.ProtocolUnavailableError), f"unitary protocol at z={z} was not refused")
            counters["protocols.unavailable"] += 1
            return ["refused", z]
        check(not isinstance(result, Exception), f"{kind} protocol at z={z} refused: {result}")
        if kind in ("kraus", "unitary"):
            res, bundle = result
            rep, wit = bundle.correlations, bundle.witness
            check(res.trace_distance_to_target <= 1e-10, f"trace distance {res.trace_distance_to_target}")
            check_werner(z, rep.discord, rep.geometric_discord, rep.concurrence, rep.negativity, counters)
            check_bounds(res.final, rep.discord, rep.total)
            check(wit.verdicts["rank_witness"] and not wit.verdicts["commutator_zero_discord"],
                  f"witness verdicts {wit.verdicts} at z={z}")
            return [res.trace_distance_to_target, rep.discord, rep.geometric_discord, rep.concurrence, wit.l_rank]
        return check_report(item, *result, counters)


class Sweep(Workload):
    """sweep_rows over seeded z ranges and step counts: many states per call."""

    name = "sweep"
    item_span = "sweep.item"
    min_groups = 1
    reference = "loop"

    # Each group holds one call for every step count from 3 to 12, so runs
    # of any length time the same mix of call sizes.
    STEPS = tuple(range(3, 13))
    WARM_UP = {"kind": "sweep", "zmin": 0.0, "zmax": 1.0, "steps": 3, "row": 0}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        for _ in range(6):
            group = []
            for steps in rng.permutation(self.STEPS):
                zmin = float(rng.uniform(0.0, 0.7)) if rng.random() < 0.8 else 0.0
                zmax = float(rng.uniform(zmin + 0.1, 1.0)) if rng.random() < 0.8 else 1.0
                group.append({"kind": "sweep", "zmin": zmin, "zmax": zmax, "steps": int(steps),
                              "row": int(rng.integers(steps))})
            self.groups.append(group)
        self.digest_inputs = self.groups

    def warm_up(self):
        self.op(self.WARM_UP, NO_TRACE, "warm-up")

    def units(self, item):
        return item["steps"]

    def op(self, item, tr, iid):
        with tr.span("cli.sweep_rows", iid):
            return list(sweep_rows(item["zmin"], item["zmax"], item["steps"]))

    def breakdown(self, item, rows, tr, iid):
        z = rows[item["row"]]["z"]
        with tr.span("sweep.breakdown", iid):
            with tr.span("states.werner", iid):
                rho = qd.werner(z)
            with tr.span("correlations.discord", iid):
                qd.discord(rho)
            with tr.span("witness.decompose_sf", iid):
                qd.decompose_sf(rho)

    def check(self, item, rows, counters):
        zs = np.linspace(item["zmin"], item["zmax"], item["steps"])
        check(len(rows) == item["steps"], f"{len(rows)} rows for {item['steps']} steps")
        out = []
        for z, row in zip(zs, rows):
            check(row["z"] == float(z), f"row z {row['z']} != {z}")
            check(row["rank_L"] == (4 if z > 0 else 1), f"rank_L {row['rank_L']} at z={z}")
            near(row["total"], 2.0 + float(oracles.xlog2(oracles.werner_weights(z)).sum()), 1e-6, f"total at z={z}")
            check(-1e-6 <= row["discord"] <= min(1.0, row["total"]) + 1e-6, f"discord bounds at z={z}")
            check_werner(float(z), row["discord"], row["geometric_discord"], row["concurrence"],
                         row["negativity"], counters)
            out.append([row[k] for k in ("z", "discord", "geometric_discord", "concurrence", "rank_L")])
        return out


class Oracle(Workload):
    """Fine Bloch grid and brute-force geometric discord on seeded random states."""

    name = "oracle"
    item_span = "oracle.item"
    min_groups = 1
    reference = "loop"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        # One state of each kind per group, so every run times the same mix.
        for _ in range(8):
            group = []
            for kind in ("random", "bell", "lowrank"):
                luo = None
                if kind == "bell":
                    m, luo = oracles.rotated_bell_diagonal(rng)
                else:
                    m = oracles.random_state(rng, rank=4 if kind == "random" else 2)
                group.append({"kind": kind, "rho": density(m), "luo": luo, "key": matrix_key(m)})
            self.groups.append(group)
        self.digest_inputs = [[it["kind"], it["key"]] for g in self.groups for it in g]

    def op(self, item, tr, iid):
        with tr.span("correlations.discord_fine", iid):
            fine = qd.discord(item["rho"], grid=FINE_GRID)
        with tr.span("correlations.geometric_discord_bf", iid):
            brute = qd.geometric_discord(item["rho"], method="brute-force")
        return fine, brute

    def breakdown(self, item, result, tr, iid):
        with tr.span("oracle.breakdown", iid):
            with tr.span("correlations.discord", iid):
                qd.discord(item["rho"])
            with tr.span("correlations.geometric_discord", iid):
                qd.geometric_discord(item["rho"])

    def check(self, item, result, counters):
        fine, brute = result
        rho = item["rho"]
        coarse = qd.discord(rho).discord
        closed = qd.geometric_discord(rho)
        near(fine.discord, coarse, 1e-5, "fine-grid vs default-grid discord")
        near(brute, closed, 1e-4, "brute-force vs closed-form geometric discord")
        near(closed, oracles.dvb_geometric_discord(rho.matrix), 1e-6, "closed-form geometric discord vs DVB")
        if item["luo"] is not None:
            near(fine.discord, item["luo"], 1e-6, "fine-grid discord vs Luo")
        check_bounds(rho, fine.discord, fine.total)
        return [fine.discord, coarse, brute, closed]


# --- cli-cold -------------------------------------------------------------

def kv(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line and ":" not in line.split("=", 1)[0])


def run_qdiss(argv, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(QDISS + list(argv), cwd=cwd, env=child_env(), capture_output=True,
                          text=True, timeout=170)


def _malformed(text: str, rng) -> str:
    lines = text.splitlines()
    variant = int(rng.integers(4))
    if variant == 0:
        lines[0] = "qstate v0"
    elif variant == 1:
        del lines[-1]
    elif variant == 2:
        lines[3] = lines[3].replace("e", "x", 1)
    else:  # not Hermitian
        toks = lines[2].split()
        toks[1] = "2.5e-01+0.0e+00j"
        lines[2] = " ".join(toks)
    return "\n".join(lines) + "\n"


class CliCold(Workload):
    """Rounds of ``qdiss`` processes, one per verb, plus the three error exits."""

    name = "cli-cold"
    item_span = "cli.item"
    # Two whole rounds in every run, so each run times the same mix of verbs.
    min_groups = 2
    reference = "process"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        for r in range(8):
            m_bell, luo = oracles.rotated_bell_diagonal(rng)
            qd.save_state(density(m_bell), workdir / f"m{r}.qs")
            zero_w = bool(r % 2)
            if zero_w:
                w_state = qd.cc_state(rng.dirichlet(np.ones(4)).reshape(2, 2), None, None)
            else:
                w_state = density(oracles.rotated_bell_diagonal(rng)[0])
            qd.save_state(w_state, workdir / f"w{r}.qs")
            bad = _malformed(qd.dumps_state(density(oracles.random_state(rng))), rng)
            (workdir / f"bad{r}.qs").write_text(bad, encoding="ascii")
            z_state = float(rng.uniform(0.0, 1.0))
            z_kraus = float(rng.uniform(1e-3, Z13))
            z_dec = float(rng.uniform(1e-3, Z13))
            z_off = float(rng.uniform(0.01, 0.32))
            zmin = float(rng.uniform(0.0, 0.6))
            zmax = float(rng.uniform(zmin + 0.1, 1.0))
            steps = int(rng.integers(3, 6))
            bad_z = float(rng.uniform(1.01, 2.0))
            out_of_range = [
                ["state", "werner", "--z", repr(bad_z), "--out", f"x{r}.qs"],
                ["protocol", "kraus", "--z", repr(bad_z / 3.0 + 0.01)],
                ["decompose", "--z", repr(bad_z / 2.0)],
            ][r % 3]
            self.groups.append([
                {"kind": "version", "argv": ["--version"], "code": 0},
                {"kind": "state", "argv": ["state", "werner", "--z", repr(z_state), "--out", f"s{r}.qs"],
                 "code": 0, "z": z_state},
                {"kind": "measures", "argv": ["measures", f"m{r}.qs"], "code": 0, "luo": luo,
                 "dg": oracles.dvb_geometric_discord(m_bell)},
                {"kind": "witness", "argv": ["witness", f"w{r}.qs"], "code": 0, "zero": zero_w},
                {"kind": "protocol_kraus", "argv": ["protocol", "kraus", "--z", repr(z_kraus)],
                 "code": 0, "z": z_kraus},
                {"kind": "protocol_unitary", "argv": ["protocol", "unitary", "--z", repr(Z13)],
                 "code": 0, "z": Z13},
                {"kind": "decompose", "argv": ["decompose", "--z", repr(z_dec)], "code": 0, "z": z_dec},
                {"kind": "sweep", "argv": ["sweep", "--zmin", repr(zmin), "--zmax", repr(zmax),
                                           "--steps", str(steps), "--out", f"sw{r}.csv"],
                 "code": 0, "zs": [zmin, zmax, steps], "out": f"sw{r}.csv"},
                {"kind": "unitary_unavailable", "argv": ["protocol", "unitary", "--z", repr(z_off)], "code": 3},
                {"kind": "malformed_qs", "argv": ["measures", f"bad{r}.qs"], "code": 1},
                {"kind": "z_out_of_range", "argv": out_of_range, "code": 2},
            ])
        files = sorted(p.name for p in workdir.iterdir())
        self.digest_inputs = [
            [it["argv"] for it in g] for g in self.groups
        ] + [[name, (workdir / name).read_text()] for name in files]

    def op(self, item, tr, iid):
        with tr.span(f"cli.{item['kind']}", iid):
            return run_qdiss(item["argv"], self.workdir)

    def check(self, item, proc, counters):
        kind = item["kind"]
        check(proc.returncode == item["code"],
              f"{kind}: exit {proc.returncode}, expected {item['code']}; stderr {proc.stderr.strip()[-200:]!r}")
        out = proc.stdout
        if item["code"] != 0:
            check(proc.stderr.startswith("error:"), f"{kind}: stderr lacks 'error:' ({proc.stderr[:80]!r})")
            return [kind, proc.returncode]
        getattr(self, "_check_" + kind)(item, out, counters)
        return [kind, out]

    def _check_version(self, item, out, counters):
        check(out.strip() == f"qdiss {qd.__version__}", f"version output {out!r}")

    def _check_state(self, item, out, counters):
        path = item["argv"][-1]
        lines = out.splitlines()
        check(lines[0] == f"wrote {path}" and lines[1] == "dims: 2 2", f"state output {lines[:2]}")
        check(lines[2].startswith("trace: ") and lines[3].startswith("eigenvalues: "), f"state output {lines[2:]}")
        saved = qd.load_state(self.workdir / path)
        check(np.abs(saved.matrix - qd.werner(item["z"]).matrix).max() == 0.0, "saved werner state differs")

    def _check_measures(self, item, out, counters):
        pairs = kv(out)
        check(tuple(pairs) == MEASURES_KEYS, f"measures keys {tuple(pairs)}")
        near(float(pairs["discord"]), item["luo"], 1e-6, "measures discord vs Luo")
        near(float(pairs["geometric_discord"]), item["dg"], 1e-6, "measures geometric discord vs DVB")

    def _check_witness(self, item, out, counters):
        lines = out.splitlines()
        check(lines[0].startswith("singular_values: ") and len(lines[0].split()) == 5, f"witness line {lines[0]!r}")
        pairs = kv(out)
        check(tuple(pairs) == ("L", "max_commutator_norm", "rank_witness", "commutator_verdict"),
              f"witness keys {tuple(pairs)}")
        expected = "ZERO-DISCORD" if item["zero"] else "NONZERO-DISCORD"
        check(pairs["commutator_verdict"] == expected, f"witness verdict {pairs['commutator_verdict']}")
        check(pairs["rank_witness"] == ("FALSE" if item["zero"] else "TRUE"), f"rank witness {pairs['rank_witness']}")

    def _check_protocol(self, item, out, counters):
        pairs = kv(out)
        keys = ("protocol", "trace_distance_to_target", "target_check", "discord", "geometric_discord",
                "concurrence", "negativity", "L", "commutator_verdict")
        check(tuple(pairs) == keys, f"protocol keys {tuple(pairs)}")
        z = item["z"]
        check(float(pairs["trace_distance_to_target"]) <= 1e-10, f"trace distance {pairs['trace_distance_to_target']}")
        check(pairs["target_check"].startswith("PASS"), f"target_check {pairs['target_check']}")
        check_werner(z, float(pairs["discord"]), float(pairs["geometric_discord"]),
                     float(pairs["concurrence"]), float(pairs["negativity"]), counters)
        check(pairs["L"] == "4" and pairs["commutator_verdict"] == "NONZERO-DISCORD", f"protocol witness {pairs}")

    _check_protocol_kraus = _check_protocol
    _check_protocol_unitary = _check_protocol

    def _check_decompose(self, item, out, counters):
        lines = out.splitlines()
        check(lines[0].startswith("z=") and abs(float(lines[0][2:]) - item["z"]) <= 1e-11, f"decompose {lines[0]!r}")
        check(lines[1].startswith("phases: ") and len(lines[1].split()) == 5, f"decompose phases {lines[1]!r}")
        check(sum(ln.startswith("component ") for ln in lines) == 4, "decompose: not 4 components")
        err = kv(out)["reconstruction_max_abs_error"]
        check(float(err) < 1e-10, f"reconstruction error {err}")

    def _check_sweep(self, item, out, counters):
        zmin, zmax, steps = item["zs"]
        check(out.strip() == f"wrote {steps} rows to {item['out']}", f"sweep output {out!r}")
        lines = (self.workdir / item["out"]).read_text().splitlines()
        check(lines[0] == SWEEP_HEADER and len(lines) == steps + 1, f"sweep csv {lines[:1]}, {len(lines)} lines")
        for z, line in zip(np.linspace(zmin, zmax, steps), lines[1:]):
            f = [float(tok) for tok in line.split(",")]
            near(f[0], float(z), 1e-11, "sweep z")
            check_werner(f[0], f[3], f[4], f[5], f[6], counters)

    def warm_up(self):
        run_qdiss(["--version"], self.workdir)


WORKLOADS = {cls.name: cls for cls in (CliCold, Certify, Sweep, Oracle)}


def setup(name: str, seed: int, workdir: Path) -> Workload:
    """Input generation plus one untimed op: everything before the first timed op."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, workdir)
    workload.warm_up()
    return workload
