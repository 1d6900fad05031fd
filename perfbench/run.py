"""qdissonance benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

A run builds the package from ``src/`` (byte-compiles it), sets up the
workload (import, seeded input generation, one untimed op), then drives
it as a closed loop with one client for ``--seconds``.  The last line of
stdout is one JSON object; ``--trace 0`` reports the ``end_to_end``
metrics of BENCHMARK.json and ``--trace 1`` the ``per_layer`` ones.
Every run also writes a result file with provenance, sample counts and,
when traced, the spans, into ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracer import NO_TRACE, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# Nominal times of the reference runs, close to their medians on the
# 2-core x86-64 VM the benchmark was built on.
REFERENCE_PROCESS_S = 0.3
_REF_MATRIX = np.eye(4) + 0.1
REFERENCE_PROCESS = [sys.executable, "-c",
                     "import argparse, dataclasses, json, numpy\ns = 0\nfor i in range(400000): s += i * i"]
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# Workload-specific names of the end-to-end metrics, written to the result file.
ALIASES = {
    "cli-cold": {"cli_s_p50": ("op_ms_p50", 1e-3, "s"), "cli_s_tail": ("op_ms_tail", 1e-3, "s")},
    "certify": {"certify_ms_p50": ("op_ms_p50", 1, "ms"), "certify_ms_tail": ("op_ms_tail", 1, "ms"),
                "certify_states_per_s": ("items_per_s", 1, "1/s")},
    "sweep": {"sweep_rows_per_s": ("items_per_s", 1, "1/s"), "sweep_call_s_p50": ("op_ms_p50", 1e-3, "s")},
    "oracle": {"oracle_ms_p50": ("op_ms_p50", 1, "ms")},
}


def tail(values) -> tuple[int, float]:
    """Highest listed percentile with at least ten samples beyond it (p50 below 20 samples)."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            break
    return p, float(np.percentile(values, p))


def provenance(seed: int, digest: str) -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "seed": seed,
        "input_digest": digest,
    }


def loop_kernel() -> float:
    """Seconds for a tight interpreter loop and small LAPACK calls."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    for _ in range(100):
        np.linalg.eigvalsh(_REF_MATRIX)
        np.abs(_REF_MATRIX - _REF_MATRIX.T).max()
    return time.perf_counter() - start


def _call(a: float, b: float) -> float:
    return a * b + 1.0


def call_kernel() -> float:
    """Seconds for Python function calls and small LAPACK and matmul calls."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(8000):
        acc = _call(acc, 0.5) if i % 3 else acc - 1.0
    for _ in range(60):
        np.linalg.eigvalsh(_REF_MATRIX)
        (_REF_MATRIX @ _REF_MATRIX).trace()
    return time.perf_counter() - start


def reference_process() -> float:
    """Wall seconds of a fresh interpreter that imports numpy and runs a fixed loop."""
    from workloads import child_env

    start = time.perf_counter()
    subprocess.run(REFERENCE_PROCESS, env=child_env(), check=True, timeout=170)
    return time.perf_counter() - start


class KernelClock:
    """Times an op in this process; returns (result, wall s, s at the nominal reference speed).

    The host this benchmark was built on changes speed by up to 40% over
    phases of several seconds (other tenants).  Every timed op is scaled
    by reference runs next to it that call nothing in qdissonance, so a
    change to the package cannot move the reference.  Here that is a
    kernel timed just before and just after the op.  Each workload uses
    the kernel that tracked its op best when both were interleaved on
    that host.  Raw wall times are kept in the result file.
    """

    def __init__(self, kernel, nominal_s: float):
        self.kernel = kernel
        self.nominal_s = nominal_s

    def __call__(self, fn):
        before = self.kernel()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        return result, wall, wall * 2.0 * self.nominal_s / (before + self.kernel())


class ProcessClock:
    """``KernelClock`` for ops that are child processes.

    The kernel, timed in this process, does not follow a child's speed,
    so each op is scaled by the mean of the ``reference_process()`` runs
    just before and just after it; consecutive ops share the run between
    them.
    """

    def __init__(self):
        self.before = reference_process()

    def __call__(self, fn):
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        after = reference_process()
        scaled = wall * 2.0 * REFERENCE_PROCESS_S / (self.before + after)
        self.before = after
        return result, wall, scaled


def time_setups(name: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Wall and scaled seconds of fresh processes that only set the workload up."""
    code = (f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; from pathlib import Path; "
            f"import workloads; workloads.setup({name!r}, {seed}, Path(sys.argv[1]))")
    clock = ProcessClock()
    runs = [clock(lambda: subprocess.run([sys.executable, "-c", code, str(workdir / f"setup{i}")],
                                         check=True, timeout=170))
            for i in range(SETUP_REPEATS)]
    return [r[1] for r in runs], [r[2] for r in runs]


def measure(wl, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: whole groups while the mean group still fits in ``seconds``.

    A traced run needs only one group beyond the time limit.
    """
    rec = {"raw": [], "times": [], "by_kind": {}, "units": 0, "attempted": 0, "failed": 0, "errors": [],
           "outputs": [], "counters": Counter(), "overhead": [], "per_unit": []}
    clock = {
        "process": ProcessClock,
        "loop": lambda: KernelClock(loop_kernel, 0.003),
        "call": lambda: KernelClock(call_kernel, 0.0017),
    }[wl.reference]()
    start = time.perf_counter()
    group_times = []
    g = 0
    min_groups = 1 if tracer else wl.min_groups
    while g < min_groups or time.perf_counter() - start + statistics.mean(group_times) <= seconds:
        t_group = time.perf_counter()
        for j, item in enumerate(wl.groups[g % len(wl.groups)]):
            iid = f"{g}.{j}"
            rec["attempted"] += 1
            try:
                result, wall, scaled = clock(lambda: wl.op(item, NO_TRACE, iid))
                if tracer is not None:
                    with tracer.span(wl.item_span, iid) as span:
                        traced = wl.op(item, tracer, iid)
                    item_s = (span[2] - span[1]) * 1e-9
                    rec["overhead"].append((item_s - wall) * 1e6)
                    rec["per_unit"].append(item_s * 1e3 / wl.units(item))
                    wl.breakdown(item, traced, tracer, iid)
                outputs = wl.check(item, result, rec["counters"])
            except Exception as exc:  # a failed op or check is counted, never fatal
                rec["failed"] += 1
                if len(rec["errors"]) < 20:
                    rec["errors"].append(f"{iid} {item['kind']}: {type(exc).__name__}: {exc}")
                continue
            rec["raw"].append(wall)
            rec["times"].append(scaled)
            rec["by_kind"].setdefault(item["kind"], []).append(wall)
            rec["units"] += wl.units(item)
            if g < min_groups:
                rec["outputs"].append(outputs)
        group_times.append(time.perf_counter() - t_group)
        g += 1
    rec["elapsed_s"] = time.perf_counter() - start
    return rec


def end_to_end(wl, rec, setups) -> tuple[dict, dict]:
    """Metrics from scaled times; the detail keeps sample counts and the raw wall medians."""
    ms = [t * 1e3 for t in rec["times"]]
    p, tail_ms = tail(ms)
    who = resource.RUSAGE_CHILDREN if wl.reference == "process" else resource.RUSAGE_SELF
    values = {
        "setup_s": statistics.median(setups[1]),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail_ms,
        "items_per_s": rec["units"] / sum(rec["times"]),
    }
    raw_ms = [t * 1e3 for t in rec["raw"]]
    detail = {
        "setup_s": {"samples": len(setups[1]), "wall": statistics.median(setups[0])},
        "peak_rss_mb": {"samples": 1},
        "op_ms_p50": {"samples": len(ms), "wall": statistics.median(raw_ms)},
        "op_ms_tail": {"samples": len(ms), "percentile": p, "wall": tail(raw_ms)[1]},
        "items_per_s": {"samples": rec["units"], "wall": rec["units"] / sum(rec["raw"])},
    }
    return values, detail


def per_layer(spec, tracer, samples, counters) -> dict:
    durations = tracer.durations()
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if m["unit"] == "count":
            values[name] = counters[name]
        elif name in samples:
            values[name] = statistics.median(samples[name])
        else:
            span, unit = name.rsplit("_", 1)
            values[name] = statistics.median(durations[span]) * {"ms": 1e3, "us": 1e6}[unit]
    return values


def run(args, spec) -> int:
    if not (SRC / "qdissonance" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'qdissonance'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path[:0] = [str(SRC)]
    import qdissonance
    import workloads

    if not Path(qdissonance.__file__).resolve().is_relative_to(SRC):
        print(f"error: qdissonance imported from {qdissonance.__file__}, not {SRC}", file=sys.stderr)
        return 2
    out_root = BENCH / "out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        wl = workloads.setup(args.workload, args.seed, workdir / "main")
        return report(args, spec, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, spec, wl, workdir) -> int:
    import workloads
    from probe import probe

    result = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(args.seed, wl.input_digest())}
    if args.trace:
        tracer = Tracer()
        rec = measure(wl, args.seconds / 2, tracer)
        samples = {"trace.overhead_us": rec["overhead"]}
        if rec["per_unit"] and args.workload == "sweep":
            samples["cli.sweep_rows_ms_per_row"] = rec["per_unit"]
        rec["attempted"] += 1
        try:
            for k, v in probe(tracer, args.seed, workdir / "main", rec["counters"], cli=args.workload != "cli-cold").items():
                samples.setdefault(k, []).extend(v)
            metrics = per_layer(spec, tracer, samples, rec["counters"])
        except Exception as exc:  # reported as a failed op; metrics are then incomplete
            rec["failed"] += 1
            rec["errors"].append(f"probe: {type(exc).__name__}: {exc}")
            metrics = {}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result["self_time"] = tracer.self_times()
        result["spans"] = tracer.records()
    else:
        setups = time_setups(args.workload, args.seed, workdir)
        rec = measure(wl, args.seconds)
        metrics, result["metric_detail"] = end_to_end(wl, rec, setups) if rec["times"] else ({}, {})
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        result["setup_s_samples"] = {"wall": setups[0], "scaled": setups[1]}
        result["named"] = {
            alias: {**result["metric_detail"][src], "value": metrics[src] * scale, "unit": unit,
                    "wall": result["metric_detail"][src].get("wall", metrics[src]) * scale}
            for alias, (src, scale, unit) in ALIASES[args.workload].items() if src in metrics
        }
        result["per_kind_wall_ms_p50"] = {k: statistics.median(v) * 1e3 for k, v in sorted(rec["by_kind"].items())}
    result.update({
        "attempted": rec["attempted"], "failed": rec["failed"],
        "error_rate": rec["failed"] / rec["attempted"], "errors": rec["errors"],
        "counters": dict(rec["counters"]), "elapsed_s": rec["elapsed_s"],
        "outputs_digest": workloads.digest(rec["outputs"]),
    })
    line = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    result["result"] = line
    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}_{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for err in rec["errors"]:
        print(f"FAILED {err}")
    print(f"workload={args.workload} seed={args.seed} input_digest={result['provenance']['input_digest']} "
          f"attempted={rec['attempted']} failed={rec['failed']} result_file={path}")
    for k, v in result.get("named", {}).items():
        print(f"  {k} = {v['value']:.6g} {v['unit']} (samples={v['samples']})")
    print(json.dumps(line))
    return 0


# --- compare ----------------------------------------------------------------

def _load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def _summary(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def compare(a: Path, b: Path, spec) -> int:
    """One row per workload and metric: medians, quartiles, ratio B/A and a verdict."""
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = []
    for path in (a, b):
        table = {}
        for res in _load(path):
            for name, m in res["result"]["metrics"].items():
                table.setdefault((res["workload"], name), []).append(m["value"])
        sides.append(table)
    regressions = 0
    print(f"{'workload':9} {'metric':42} {'A median [q1, q3] n':32} {'B median [q1, q3] n':32} {'B/A':>7}  verdict")
    for key in sorted(set(sides[0]) | set(sides[1])):
        va, vb = sides[0].get(key), sides[1].get(key)
        if not va or not vb:
            print(f"{key[0]:9} {key[1]:42} missing on side {'A' if not va else 'B'}")
            continue
        (ma, a1, a3), (mb, b1, b3) = _summary(va), _summary(vb)
        d = defs.get(key[1], {})
        ratio = mb / ma if ma else float("nan")
        verdict = "-"
        if "bound" in d and ma:
            bound = d["bound"]
            lower = d["better"] == "lower"
            spread = max((a3 - a1) / abs(ma), (b3 - b1) / abs(mb) if mb else 0.0)
            worse = (mb - ma) / abs(ma) if lower else (ma - mb) / abs(ma)
            all_better = max(vb) < min(va) if lower else min(vb) > max(va)
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = f"REGRESSION (> {bound:g})"
                regressions += 1
            else:
                verdict = "ok"
        cell = lambda m, q1, q3, n: f"{m:.4g} [{q1:.4g}, {q3:.4g}] {n}"
        print(f"{key[0]:9} {key[1]:42} {cell(ma, a1, a3, len(va)):32} {cell(mb, b1, b3, len(vb)):32} "
              f"{ratio:7.3f}  {verdict}  (base A={ma:.4g})")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("cli-cold", "certify", "sweep", "oracle"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", default=str(BENCH / "results"))
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two result files or directories of them")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
