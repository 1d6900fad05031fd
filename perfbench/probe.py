"""Layer probe for the traced run: every public layer, timed from outside.

The workloads exercise only the layers on their own path, but a traced
run reports every per-layer metric, so the probe calls each remaining
layer a fixed number of times on seeded inputs.  Each call is a span
named after the layer, like the spans the workloads record.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
import qdissonance as qd
from qdissonance.cli import sweep_rows
from workloads import Z13, FINE_GRID, child_env, check_separable, density, run_qdiss

CLI_VERBS = ("version", "state", "measures", "witness", "protocol_kraus", "protocol_unitary",
             "decompose", "sweep")


def import_times(repeats: int = 3) -> dict[str, float]:
    """Median ms of ``import qdissonance`` and of all numpy / scipy modules, from -X importtime."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qdissonance"],
                              env=child_env(), capture_output=True, text=True, timeout=170, check=True)
        got = {"qdissonance": 0.0, "scipy": 0.0, "numpy": 0.0}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            self_us, cum_us, module = int(m[1]), int(m[2]), m[4]
            top = module.split(".")[0]
            if module == "qdissonance":
                got["qdissonance"] = cum_us / 1e3
            elif top in ("scipy", "numpy"):
                got[top] += self_us / 1e3
        runs.append(got)
    return {f"import.{k}_ms": statistics.median(r[k] for r in runs) for k in runs[0]}


def probe(tr, seed: int, workdir, counters, cli: bool) -> dict[str, list[float]]:
    """Run the probe; returns extra samples keyed by per-layer metric name.

    ``cli=False`` skips the ``qdiss`` processes, for a run whose own loop
    already spawns every verb.
    """
    rng = np.random.default_rng([seed % 2**63, 7])
    mats = [oracles.random_state(rng) for _ in range(4)]
    states = [density(m) for m in mats]
    zs = [float(z) for z in rng.uniform(0.01, Z13, 4)]
    for i in range(40):
        iid = f"probe.{i}"
        m, rho, other = mats[i % 4], states[i % 4], states[(i + 1) % 4]
        z = zs[i % 4]
        with tr.span("qla.DensityMatrix", iid):
            qd.DensityMatrix(m, (2, 2))
        with tr.span("qla.partial_trace", iid):
            qd.partial_trace(rho, (1,))
        with tr.span("qla.trace_distance", iid):
            qd.trace_distance(rho, other)
        with tr.span("states.werner", iid):
            qd.werner(z)
        with tr.span("correlations.entropy", iid):
            qd.entropy(rho)
        with tr.span("correlations.total_correlation", iid):
            qd.total_correlation(rho)
        with tr.span("correlations.geometric_discord", iid):
            qd.geometric_discord(rho)
        with tr.span("correlations.concurrence", iid):
            qd.concurrence(rho)
        with tr.span("correlations.negativity", iid):
            qd.negativity(rho)
        meas = qd.qubit_measurement(*rng.uniform(0, np.pi, 2))
        with tr.span("correlations.conditional_entropy_after", iid):
            qd.conditional_entropy_after(rho, meas)
        with tr.span("witness.correlation_matrix", iid):
            qd.correlation_matrix(rho)
        path = workdir / f"probe{i % 4}.qs"
        with tr.span("statefile.save_state", iid):
            qd.save_state(rho, path)
        with tr.span("statefile.load_state", iid):
            qd.load_state(path)
    for i, z in enumerate(zs + [Z13]):
        iid = f"probe.p{i}"
        with tr.span("states.product_decomposition", iid):
            qd.product_decomposition(z)
        with tr.span("protocols.run_kraus_protocol", iid):
            final = qd.run_kraus_protocol(z).final
        check_separable(qd.concurrence(final), qd.negativity(final), counters)
        try:
            with tr.span("protocols.run_unitary_protocol", iid):
                final = qd.run_unitary_protocol(z).final
            check_separable(qd.concurrence(final), qd.negativity(final), counters)
        except qd.ProtocolUnavailableError:
            counters["protocols.unavailable"] += 1
        with tr.span("witness.decompose_sf", iid):
            qd.decompose_sf(states[i % 4])
        with tr.span("witness.witness_report", iid):
            qd.witness_report(states[i % 4])
    for i in range(3):
        iid = f"probe.d{i}"
        with tr.span("correlations.discord", iid):
            qd.discord(states[i])
        with tr.span("correlations.classical_correlation", iid):
            qd.classical_correlation(states[i])
        with tr.span("correlations.geometric_discord_bf", iid):
            qd.geometric_discord(states[i], method="brute-force")
    with tr.span("correlations.discord_fine", "probe.f"):
        qd.discord(states[0], grid=FINE_GRID)
    start = time.perf_counter()
    with tr.span("cli.sweep_rows", "probe.s"):
        list(sweep_rows(0.0, 1.0, 5))
    samples = {"cli.sweep_rows_ms_per_row": [(time.perf_counter() - start) * 1e3 / 5]}
    rounds = [
        ["--version"],
        ["state", "werner", "--z", repr(zs[0]), "--out", "probe-s.qs"],
        ["measures", "probe0.qs"],
        ["witness", "probe0.qs"],
        ["protocol", "kraus", "--z", repr(zs[1])],
        ["protocol", "unitary", "--z", repr(Z13)],
        ["decompose", "--z", repr(zs[2])],
        ["sweep", "--steps", "5", "--out", "probe.csv"],
    ]
    for verb, argv in zip(CLI_VERBS, rounds if cli else []):
        with tr.span(f"cli.{verb}", "probe.cli"):
            proc = run_qdiss(argv, workdir)
        if proc.returncode != 0:
            raise RuntimeError(f"probe: qdiss {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-200:]}")
    samples.update({k: [v] for k, v in import_times().items()})
    return samples
