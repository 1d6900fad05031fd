"""Self-checks of the benchmark itself, kept out of the package's test suite.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

For each workload, at a one-second size: every run passes its own
checks and prints every metric BENCHMARK.json names, with its unit; the
same seed gives the same input digest and the same outputs; another
seed gives other inputs.  Finally the benchmark must fail, without a
result, in a directory that holds only BENCHMARK.json and perfbench/.
Takes a few minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def run_once(workload: str, seed: int, trace: int, results: Path) -> dict:
    before = set(results.glob("*.json"))
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--results-dir", str(results))
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed={seed} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, proc.stdout[-2000:]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == wanted, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(wanted))} differ"
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    (new,) = set(results.glob("*.json")) - before
    result = json.loads(new.read_text())
    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads_env", "git_commit", "seed", "input_digest"):
        assert key in result["provenance"], key
    return result


def check_workload(workload: str, results: Path) -> None:
    a = run_once(workload, 11, 0, results)
    b = run_once(workload, 11, 0, results)
    c = run_once(workload, 12, 0, results)
    run_once(workload, 11, 1, results)
    assert a["provenance"]["input_digest"] == b["provenance"]["input_digest"], "same seed, other inputs"
    assert a["outputs_digest"] == b["outputs_digest"], "same seed, other outputs"
    assert a["provenance"]["input_digest"] != c["provenance"]["input_digest"], "other seed, same inputs"
    print(f"ok {workload}")


def check_refuses_without_source(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0, "benchmark succeeded without the package source"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the package source"
    print("ok refuses without source")


def main(argv: list[str]) -> int:
    workloads = argv or [w["name"] for w in SPEC["workloads"]]
    (BENCH / "out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=BENCH / "out"))
    try:
        check_refuses_without_source(scratch)
        for workload in workloads:
            check_workload(workload, scratch / "results")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
