"""The CLI's outputs are the contract: replay the golden corpus and compare.

stdout, stderr, exit codes and sweep CSVs must match byte for byte; .qs
dumps and --json reports hold 17-digit numbers and must match exactly at
0, ranks and verdicts and to a few ulps elsewhere (``_golden``).
"""

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
