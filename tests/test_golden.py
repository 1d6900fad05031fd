"""The CLI's outputs are the contract: replay the golden corpus and compare.

stdout, stderr, exit codes and sweep CSVs must match byte for byte; .qs
dumps and --json reports hold 17-digit numbers and must match exactly at
0, ranks and verdicts and to a few ulps elsewhere (``_golden``).  A few
runs are replayed again in subprocesses, with one OpenBLAS thread and
with its default, and must give the same bytes under both.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

from _golden import EXACT_SUFFIXES, GOLDEN_DIR, RUNS, load_corpus, replay, same_numbers


def test_corpus_replays(tmp_path):
    want = load_corpus()
    got = replay(tmp_path)
    for name, _ in RUNS:
        g, w = got[name], want[name]
        for key in ("exit", "stdout", "stderr"):
            assert g[key] == w[key], f"{name}: {key} moved (see {GOLDEN_DIR / name})"
        assert g["files"].keys() == w["files"].keys(), f"{name}: written files differ"
        for fname, data in w["files"].items():
            if fname.endswith(EXACT_SUFFIXES):
                assert g["files"][fname] == data, f"{name}: {fname} moved"
            else:
                assert same_numbers(fname, g["files"][fname], data), f"{name}: {fname} moved"


# Corpus runs replayed under both BLAS thread settings; the first only
# writes singlet.qs for the last.
BLAS_RUNS = ("readme-state-bell", "readme-sweep", "readme-protocol-kraus-third", "witness-singlet")


def _replay_in_subprocess(workdir, blas_threads):
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    here = Path(__file__).parent
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    runs = tuple(run for run in RUNS if run[0] in BLAS_RUNS)
    code = (
        "import pickle, sys; from pathlib import Path; from _golden import replay; "
        f"sys.stdout.buffer.write(pickle.dumps(replay(Path.cwd(), {runs!r})))"
    )
    workdir.mkdir()
    done = subprocess.run([sys.executable, "-c", code], cwd=workdir, env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    return pickle.loads(done.stdout)


def test_corpus_does_not_depend_on_blas_threads(tmp_path):
    """One BLAS thread and the library default give the same bytes, files included."""
    one = _replay_in_subprocess(tmp_path / "one", "1")
    default = _replay_in_subprocess(tmp_path / "default", None)
    want = load_corpus()
    for name in BLAS_RUNS:
        assert one[name]["stdout"] == want[name]["stdout"], name
        assert one[name] == default[name], name
