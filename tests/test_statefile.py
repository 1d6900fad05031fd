import re
import tracemalloc

import numpy as np
import pytest

from qdissonance import (
    FORMAT_VERSION,
    DensityMatrix,
    StateFileError,
    cc_pairs,
    dumps_state,
    load_state,
    save_state,
    werner,
)

from qdissonance.statefile import MAX_STATE_DIM

from _zoo import build_zoo, random_density

SEED = 7500

_ENTRY = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,}[+-]\d\.\d{16}e[+-]\d{2,}j$")


def _write(path, text):
    """``path``, holding the UTF-8 bytes of ``text``."""
    path.write_bytes(text.encode("utf-8"))
    return path


def _peak(path, message):
    """Peak traced memory of load_state(path), which must fail with ``message``."""
    tracemalloc.start()
    try:
        with pytest.raises(StateFileError, match=message):
            load_state(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.fixture
def load_text(tmp_path):
    """``load_state`` on a file that holds the UTF-8 bytes of a text."""
    return lambda text: load_state(_write(tmp_path / "text.qs", text))


def test_roundtrip_exact(load_text):
    rng = np.random.default_rng(SEED)
    states = [werner(0.0), werner(1.0 / 3.0), werner(1.0)]
    states += [rho for _, rho, _ in build_zoo()[40:46]]
    states += [random_density(rng, 4, (2, 2)), random_density(rng, 3, (3,))]
    # signed zeros, subnormals and extreme exponents, in Hermitian pairs
    edge = np.diag([0.5, 0.25 - 0.0j, 0.125, 0.125])
    for (i, j), v in {
        (0, 1): 5e-324 + 1e-300j,
        (0, 2): complex(-0.0, 0.0),
        (1, 3): complex(0.0, -0.0),
        (2, 3): -2.2250738585072014e-308 + 5e-324j,
        (0, 3): 1e-17 - 1e-200j,
    }.items():
        edge[i, j], edge[j, i] = v, v.conjugate()
    states.append(DensityMatrix(edge, (2, 2)))
    # off-diagonals scaled by 2^-k down into and below the subnormal range;
    # a power-of-two scale keeps the matrix exactly Hermitian and PSD
    base = random_density(rng, 4, (2, 2)).matrix
    diag = np.diag(np.diag(base))
    for k in (60, 500, 1020, 1060, 1074, 1100):
        states.append(DensityMatrix(diag + (base - diag) * 2.0**-k, (2, 2)))
    # seeded fuzz: random dimensions and ranks, a random k in [0, 1100] each
    for i in range(500):
        d = (2, 3, 4, 6)[i % 4]
        base = random_density(rng, d, rank=int(rng.integers(1, d + 1))).matrix
        diag = np.diag(np.diag(base))
        states.append(DensityMatrix(diag + (base - diag) * 2.0 ** -int(rng.integers(0, 1101))))
    for rho in states:
        back = load_text(dumps_state(rho))
        assert back.legs == rho.legs
        # bit patterns, because == treats -0.0 and 0.0 as equal
        assert np.array_equal(back.matrix.view(np.uint64), rho.matrix.view(np.uint64))


def test_rows_format_like_the_per_entry_f_string():
    """One % per row writes the bytes of formatting each entry with its own f-string."""
    rng = np.random.default_rng(SEED + 3)
    texts = []
    for d in (2, 6, 64):
        base = random_density(rng, d).matrix
        # 2^-1060 takes the off-diagonals into the subnormal range and 2^-1100 to
        # signed zeros: scaled as floats and picked by np.where, which keep -0.0
        for k in (0, 1060, 1100):
            scaled = (base.view(float) * 2.0**-k).view(complex)
            rho = DensityMatrix(np.where(np.eye(d, dtype=bool), base, scaled))
            rows = (" ".join(f"{v.real:.16e}{v.imag:+.16e}j" for v in row) for row in rho.matrix)
            want = "\n".join([FORMAT_VERSION, f"dims: {d}", *rows]) + "\n"
            texts.append(dumps_state(rho))
            assert texts[-1].encode() == want.encode(), (d, k)
    assert all(re.search(r"-0\.0{16}e\+00", text) for text in texts[2::3])
    assert all(re.search(r"\de-3[12]\d", text) for text in texts[1::3])


def test_file_layout():
    text = dumps_state(werner(0.25))
    lines = text.splitlines()
    assert lines[0] == FORMAT_VERSION == "qstate v1"
    assert lines[1] == "dims: 2 2"
    assert len(lines) == 2 + 4
    assert text.endswith("\n")
    for row in lines[2:]:
        entries = row.split()
        assert len(entries) == 4
        for tok in entries:
            assert _ENTRY.match(tok), tok


def test_save_and_load_path(tmp_path):
    rho = werner(0.3)
    path = tmp_path / "w.qs"
    save_state(rho, path)
    back = load_state(path)
    assert np.abs(back.matrix - rho.matrix).max() == 0.0
    assert back.legs == (2, 2)


def test_blank_lines_ignored(load_text):
    text = dumps_state(werner(0.2))
    padded = "\n" + text.replace("\n", "\n\n")
    back = load_text(padded)
    assert np.abs(back.matrix - werner(0.2).matrix).max() == 0.0


def test_bad_header(load_text):
    good = dumps_state(werner(0.2)).splitlines()
    with pytest.raises(StateFileError):
        load_text("\n".join(["qstate v2"] + good[1:]))
    with pytest.raises(StateFileError):
        load_text("")


def test_bad_dims_line(load_text):
    good = dumps_state(werner(0.2)).splitlines()
    with pytest.raises(StateFileError):
        load_text("\n".join([good[0]] + good[2:]))  # dims line missing
    with pytest.raises(StateFileError):
        load_text("\n".join([good[0], "dims: two two"] + good[2:]))
    with pytest.raises(StateFileError):
        load_text("\n".join([good[0], "dims:"] + good[2:]))
    with pytest.raises(StateFileError):
        load_text("\n".join([good[0], "dims: 2 0"] + good[2:]))
    # the dims product is taken exactly: int64 would wrap it to 1
    with pytest.raises(StateFileError, match="expected 85070591730234615847396907784232501249 "):
        load_text(f"{good[0]}\ndims: {2**63 - 1} {2**63 - 1}\n1+0j\n")
    with pytest.raises(StateFileError, match="expected 18446744078004518912 matrix rows"):
        load_text(f"{good[0]}\ndims: 4294967296 4294967297\n1+0j\n")


def test_over_cap_dims_refused_before_any_row(tmp_path, load_text):
    """A dims line above MAX_STATE_DIM is refused before the d x d matrix is allocated."""
    header_only = f"{FORMAT_VERSION}\ndims: 30000\n"
    # a 90 KB file whose 30000 rows match the dims: 13.4 GiB once allocated
    rows = header_only + "0j\n" * 30000
    for i, text in enumerate((header_only, rows, f"{FORMAT_VERSION}\ndims: 2 {MAX_STATE_DIM}\n")):
        path = _write(tmp_path / f"cap{i}.qs", text)
        peak = _peak(path, r"more than MAX_STATE_DIM = 1024$")
        # each file peaks at ~7 KB, its header read and no row; the matrix would take 13.4 GiB
        assert peak < (2**16 if text is not rows else 2**22)
    # the cap itself is admitted: the row count is what is wrong here
    with pytest.raises(StateFileError, match="expected 1024 matrix rows, found 0"):
        load_text(f"{FORMAT_VERSION}\ndims: 2 512\n")
    # the `qdiss state cc-pairs --k 3` state still round-trips
    rho = cc_pairs(3)
    back = load_text(dumps_state(rho))
    assert back.legs == (2,) * 6
    assert np.array_equal(back.matrix.view(np.uint64), rho.matrix.view(np.uint64))


def test_load_memory_follows_dims_not_file_size(tmp_path):
    """4 MB files with `dims: 2`: 700000 extra rows are counted and none is kept, and
    a row of 1.4 M entries is split at most 3 ways and the rest counted."""
    path = tmp_path / "long.qs"
    path.write_text(f"{FORMAT_VERSION}\ndims: 2\n" + "0j 0j\n" * 700_002)
    message = "^expected 2 matrix rows, found 700002$"
    # the whole text split into lines took ~50 MB
    assert _peak(path, message) < 2**20
    wide = tmp_path / "wide.qs"
    wide.write_text(f"{FORMAT_VERSION}\ndims: 2\n" + "0j " * 1_400_000 + "\n0j 0j\n")
    message = "^row 0: expected 2 entries, found 1400000$"
    # the row is read whole; splitting it into 1.4 M tokens took ~84 MB
    assert _peak(wide, message) <= 3 * wide.stat().st_size


def test_non_ascii_byte_named_by_file_offset(tmp_path):
    """The offset is the byte's position in the file, even past the first read buffer,
    and the error is reported ahead of any format error found earlier in the file."""
    path = tmp_path / "bad.qs"
    path.write_bytes(b"qstate v2\n" + b"x" * 9990 + b"\n\xc3\xa9\n")
    with pytest.raises(
        StateFileError,
        match=r"^not an ASCII state file: 'ascii' codec can't decode byte 0xc3 in position "
        r"10001: ordinal not in range\(128\)$",
    ):
        load_state(path)


def test_non_ascii_text_refused_like_the_file(load_text):
    """`int` and `complex` accept Unicode digits, so a file must be ASCII before it is
    parsed: the first UTF-8 byte of a non-ASCII character is named by its offset in
    the file, ahead of any format error."""
    arabic = str.maketrans("0123456789", "".join(chr(0x660 + i) for i in range(10)))
    good = dumps_state(werner(0.2))
    rows = good.splitlines()
    texts = {
        good.replace("dims: 2 2", "dims: \u0662 2"): "0xd9 in position 16",
        f"{FORMAT_VERSION}\n" + dumps_state(werner(0.0)).split("\n", 1)[1].translate(arabic): (
            "0xd9 in position 16"
        ),
        "\n".join(rows[:3] + [rows[3] + " \u00e9"] + rows[4:]): "0xc3",
        "qstate v0\ndims: 2\n\u00e90j 0j\n0j 0j\n": "0xc3 in position 18",
    }
    for text, where in texts.items():
        with pytest.raises(StateFileError, match="^not an ASCII state file") as refused:
            load_text(text)
        assert where in str(refused.value)


def test_wrong_row_count(load_text):
    good = dumps_state(werner(0.2)).splitlines()
    with pytest.raises(StateFileError):
        load_text("\n".join(good[:-1]))
    with pytest.raises(StateFileError):
        load_text("\n".join(good + [good[-1]]))


def test_wrong_entry_count(load_text):
    good = dumps_state(werner(0.2)).splitlines()
    bad = good[:2] + [" ".join(good[2].split()[:3])] + good[3:]
    with pytest.raises(StateFileError):
        load_text("\n".join(bad))


def test_unparseable_entry(load_text):
    good = dumps_state(werner(0.2)).splitlines()
    toks = good[2].split()
    toks[1] = "not-a-number"
    bad = good[:2] + [" ".join(toks)] + good[3:]
    with pytest.raises(StateFileError):
        load_text("\n".join(bad))


def test_well_formed_but_invalid_state(load_text):
    mat = 2 * werner(0.2).matrix  # trace 2
    lines = [FORMAT_VERSION, "dims: 2 2"]
    for row in mat:
        lines.append(" ".join(f"{v.real:.16e}{v.imag:+.16e}j" for v in row))
    with pytest.raises(StateFileError):
        load_text("\n".join(lines))
    # non-Hermitian content is also rejected
    mat = werner(0.2).matrix.copy()
    mat[0, 1] = 0.5
    lines = [FORMAT_VERSION, "dims: 2 2"]
    for row in mat:
        lines.append(" ".join(f"{v.real:.16e}{v.imag:+.16e}j" for v in row))
    with pytest.raises(StateFileError):
        load_text("\n".join(lines))


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_state(tmp_path / "nope.qs")
