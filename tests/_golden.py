"""The golden output corpus of the `qdiss` CLI: its runs, how to replay one, how to compare.

Every run is `cli.main` in-process, in one working directory and in the
order of ``RUNS``, so later runs read the files earlier ones wrote.  For
each run the corpus keeps, under ``tests/golden/<name>/``, the exit code
(``exit``), ``stdout``, ``stderr`` and, under ``files/``, every file the
run created or changed.

Regenerate the corpus from the repository root with

    PYTHONPATH=src python3 tests/_golden.py

and list every moved value in CHANGES.md.
"""

import contextlib
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).parent / "golden"

# Files the shell writes before the first run: the README's two qubit
# projectors, |00>, a generic rank-4 two-qubit state (neither an axis
# state nor flat, so `measures` scans and refines it), a `dims:` line whose
# int64 product wraps to 1, and one above statefile.MAX_STATE_DIM.
SETUP_FILES = {
    "b0.qs": "qstate v1\ndims: 2\n1+0j 0j\n0j 0j\n",
    "b1.qs": "qstate v1\ndims: 2\n0j 0j\n0j 1+0j\n",
    "zz.qs": "qstate v1\ndims: 2 2\n1+0j 0j 0j 0j\n0j 0j 0j 0j\n0j 0j 0j 0j\n0j 0j 0j 0j\n",
    "generic.qs": (
        "qstate v1\ndims: 2 2\n"
        "0.4 0.05+0.02j -0.03+0.01j 0.025-0.03j\n"
        "0.05-0.02j 0.3 0.04+0.035j -0.01+0.01j\n"
        "-0.03-0.01j 0.04-0.035j 0.2 0.02+0.01j\n"
        "0.025+0.03j -0.01-0.01j 0.02-0.01j 0.1\n"
    ),
    "big.qs": "qstate v1\ndims: 9223372036854775807 9223372036854775807\n1+0j\n",
    "huge.qs": "qstate v1\ndims: 30000\n",
}

# (name, argv) in run order.  The README command block comes first.
RUNS = (
    ("readme-state-werner", "state werner --z 0.25 --out w.qs"),
    ("readme-state-bell", "state bell --which psi- --out singlet.qs"),
    ("readme-state-cc", "state cc --p '0.5,0;0,0.5' --out cc.qs"),
    ("readme-state-cq", "state cq --p '0.5,0.5' --states-b b0.qs b1.qs --out cq.qs"),
    ("readme-state-cc-pairs", "state cc-pairs --k 2 --out pairs.qs"),
    ("readme-measures-werner", "measures w.qs --json report.json"),
    ("readme-witness-werner", "witness w.qs"),
    ("readme-protocol-kraus-third", "protocol kraus --z 0.3333333333333333 --dump-dir run1"),
    ("readme-protocol-unitary-0.2", "protocol unitary --z 0.2"),
    ("readme-sweep", "sweep --zmin 0 --zmax 1 --steps 21 --out sweep.csv"),
    ("readme-decompose-0.2", "decompose --z 0.2"),
    ("witness-cc", "witness cc.qs"),
    ("witness-singlet", "witness singlet.qs"),
    ("witness-cq", "witness cq.qs"),
    ("protocol-unitary-third", "protocol unitary --z 0.3333333333333333 --dump-dir run2"),
    ("protocol-kraus-0.2", "protocol kraus --z 0.2"),
    ("sweep-separable", "sweep --zmin 0 --zmax 0.3333333333333333 --steps 5 --out sweep2.csv"),
    ("decompose-third", "decompose --z 0.3333333333333333"),
    ("measures-00", "measures zz.qs --json zz.json"),
    ("measures-generic", "measures generic.qs --json generic.json"),
    ("measures-generic-fine", "measures generic.qs --opt-grid 640x1280 --json generic-fine.json"),
    ("error-werner-z2", "state werner --z 2"),
    ("error-missing-file", "measures missing.qs"),
    ("error-witness-pairs", "witness pairs.qs"),
    ("error-sweep-steps", "sweep --steps 10001 --out big.csv"),
    ("error-int64-dims", "measures big.qs"),
    ("error-over-cap-dims", "measures huge.qs"),
    ("error-protocol-tol", "protocol kraus --z 0.2 --tol 1e-3"),
)

# Written files compared byte for byte; the others (.qs dumps, --json
# reports) hold 17-digit numbers and are compared by ``same_numbers``.
EXACT_SUFFIXES = (".csv",)
# How far, in units in the last place, a 17-digit value that is not 0 may move.
ULPS = 4


def _snapshot(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def replay(workdir: Path, runs=RUNS) -> dict:
    """Run corpus commands in ``workdir``: {name: {"exit", "stdout", "stderr", "files"}}.

    ``runs`` is RUNS or a part of it, in its order.
    """
    from qdissonance.cli import main

    for fname, text in SETUP_FILES.items():
        (workdir / fname).write_text(text, encoding="ascii")
    results = {}
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage line to the terminal width
    os.chdir(workdir)
    try:
        for name, argv in runs:
            before = _snapshot(workdir)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(shlex.split(argv))
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            files = {k: v for k, v in _snapshot(workdir).items() if before.get(k) != v}
            results[name] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return results


def _same_value(got, want) -> bool:
    """Exact for 0, ints, bools, None and strings; within ULPS elsewhere."""
    if isinstance(want, float) and want != 0.0 and isinstance(got, float):
        return abs(got - want) <= ULPS * np.spacing(abs(want))
    return type(got) is type(want) and got == want


def same_numbers(name: str, got: bytes, want: bytes) -> bool:
    """A .qs or JSON file: the same text around its numbers, each number by ``_same_value``."""
    if name.endswith(".json"):
        g, w = json.loads(got), json.loads(want)
        return g.keys() == w.keys() and all(_same_value(g[k], w[k]) for k in w)
    g, w = got.decode("ascii").splitlines(), want.decode("ascii").splitlines()
    if g[:2] != w[:2] or len(g) != len(w):
        return False
    for grow, wrow in zip(g[2:], w[2:]):
        gtok, wtok = grow.split(), wrow.split()
        if len(gtok) != len(wtok):
            return False
        for gv, wv in zip(map(complex, gtok), map(complex, wtok)):
            if not (_same_value(gv.real, wv.real) and _same_value(gv.imag, wv.imag)):
                return False
    return True


def load_corpus() -> dict:
    """The committed corpus in the shape ``replay`` returns."""
    corpus = {}
    for name, _ in RUNS:
        case = GOLDEN_DIR / name
        files_dir = case / "files"
        corpus[name] = {
            "exit": int((case / "exit").read_text()),
            "stdout": (case / "stdout").read_bytes().decode("utf-8"),
            "stderr": (case / "stderr").read_bytes().decode("utf-8"),
            "files": _snapshot(files_dir) if files_dir.is_dir() else {},
        }
    return corpus


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as work:
        results = replay(Path(work))
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    for name, res in results.items():
        case = GOLDEN_DIR / name
        case.mkdir(parents=True)
        (case / "exit").write_text(f"{res['exit']}\n")
        (case / "stdout").write_bytes(res["stdout"].encode("utf-8"))
        (case / "stderr").write_bytes(res["stderr"].encode("utf-8"))
        for rel, data in res["files"].items():
            target = case / "files" / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
    print(f"wrote {len(results)} runs to {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
