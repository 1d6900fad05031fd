"""Generated command lines for `qdiss`: every run ends in a documented exit code.

Each example either returns 0, 1, 2 or 3 from ``cli.main`` or stops in
argparse with SystemExit(2), and writes at most one ``error:`` line to
stderr; any other exception fails the test.  Every ``state`` run either
fails with one ``error:`` line and writes nothing, or writes a file that
``load_state`` returns bit for bit.  The searches are derandomized and
keep no example database, so the tests are deterministic and write
nothing into the working tree.
"""

import contextlib
import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from qdissonance import cc_state, dumps_state, load_state, save_state, werner  # noqa: E402
from qdissonance import cli  # noqa: E402
from qdissonance.cli import main  # noqa: E402

# Valid files, so that the verbs also run past the loader.
_VALID = (
    dumps_state(werner(0.3)),
    dumps_state(cc_state([[0.5, 0.0], [0.0, 0.5]])),
    dumps_state(cc_state([[0.2, 0.1, 0.2], [0.1, 0.3, 0.1]])),
    "qstate v1\ndims: 2 1\n0.5 0j\n0j 0.5\n",
)
_TOKENS = (
    "0j", "1+0j", "0.5", "0.25+0j", "-0.0", "5e-324", "(1+0j)", "0.5j", "nan", "inf",
    "-inf", "nanj", "1e400", "junk", "0x10", "1,0", "é", "\x00",
)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-0.5, 1.5).map(repr),
    st.sampled_from(("nan", "inf", "-inf", "1e400", "0.2", "0.3333333333333333", "1/3", "")),
)
_GRIDS = st.one_of(
    st.tuples(st.integers(-3, 40), st.integers(-3, 40)).map(lambda g: f"{g[0]}x{g[1]}"),
    st.sampled_from(("64", "2x4x8", "axb", "2.5x4", "x", "", "4096x4096", "2048x1025")),
)


@st.composite
def _state_text(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_VALID))
    header = draw(st.sampled_from(("qstate v1", "qstate v1", "qstate v2", "", "dims: 2")))
    dims = draw(
        st.one_of(
            st.lists(st.integers(-1, 5), max_size=3).map(lambda ds: " ".join(map(str, ds))),
            st.sampled_from(("30000", "2 512", "2 513", "9223372036854775807 2", "2 two", "2.0")),
        )
    )
    rows = draw(
        st.lists(st.lists(st.sampled_from(_TOKENS), max_size=5).map(" ".join), max_size=6)
    )
    return "\n".join([header, "dims: " + dims, *rows]) + draw(st.sampled_from(("\n", "", "\r\n")))


@st.composite
def _tables(draw):
    entries = st.one_of(
        st.sampled_from(("0", "0.5", "0.25", "1", "-0.5", "nan", "inf", "x", "")),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
    )
    rows = draw(st.lists(st.lists(entries, max_size=3).map(",".join), min_size=1, max_size=3))
    # valid tables, and a uniform 33 x 32 one whose state is above MAX_STATE_DIM
    valid = ("1", "0.5,0.5", "0.5,0;0,0.5", "0.2,0.1,0.2;0.1,0.3,0.1", "0.25;0.75")
    big = ";".join([",".join([repr(1 / 1056)] * 32)] * 33)
    return draw(st.one_of(st.sampled_from(valid), st.just(big), st.just(";".join(rows))))


def _qs(draw, tmp):
    path = tmp / f"in{draw(st.integers(0, 3))}.qs"
    path.write_bytes(draw(_state_text()).encode("utf-8"))
    return str(path)


@st.composite
def _state_argv(draw, tmp):
    kind = draw(st.sampled_from(("werner", "cc", "cq", "bell", "cc-pairs")))
    argv = ["state", kind, "--out", str(tmp / "out")]
    if kind == "werner":
        argv += ["--z", draw(_FLOATS)]
    elif kind == "bell":
        argv += ["--which", draw(st.sampled_from(("psi-", "phi+", "PSI+", "omega")))]
    elif kind == "cc":
        argv += ["--p", draw(_tables())]
    elif kind == "cq":
        argv += ["--p", draw(_tables()), "--states-b"]
        argv += [_qs(draw, tmp) for _ in range(draw(st.integers(1, 3)))]
    else:
        argv += ["--k", draw(st.sampled_from(("2", "3", "4", "0", "-1", "2.5", str(2**70))))]
    return argv


@st.composite
def _argv(draw, tmp):
    out = str(tmp / "out")
    verb = draw(st.sampled_from(("state", "measures", "witness", "protocol", "sweep", "decompose")))
    if verb == "state":
        return draw(_state_argv(tmp))
    if verb == "measures":
        argv = ["measures", _qs(draw, tmp)]
        if draw(st.booleans()):
            argv += ["--opt-grid", draw(_GRIDS)]
        if draw(st.booleans()):
            argv += ["--json", out]
        return argv
    if verb == "witness":
        return ["witness", _qs(draw, tmp)]
    if verb == "protocol":
        return ["protocol", draw(st.sampled_from(("kraus", "unitary"))), "--z", draw(_FLOATS)]
    if verb == "sweep":
        argv = ["sweep", "--zmin", draw(_FLOATS), "--zmax", draw(_FLOATS), "--out", out]
        steps = draw(st.sampled_from(("-1", "0", "1", "2", "5", "10001", "2.5", str(2**70))))
        return argv + ["--steps", steps]
    return ["decompose", "--z", draw(_FLOATS)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_cli_exits_cleanly_on_generated_input(fuzz_dir):
    @settings(
        max_examples=150,
        database=None,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def run(data):
        argv = data.draw(_argv(fuzz_dir), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 1, 2, 3), (code, err.getvalue())
        assert err.getvalue().count("error:") <= 1, err.getvalue()

    run()


def test_state_output_loads_back_bit_for_bit(fuzz_dir, monkeypatch):
    written = []

    def recording_save(rho, path):
        written.append(rho)
        save_state(rho, path)

    monkeypatch.setattr(cli, "save_state", recording_save)
    out_path = fuzz_dir / "out"

    @settings(
        max_examples=60,
        database=None,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def run(data):
        argv = data.draw(_state_argv(fuzz_dir), label="argv")
        out_path.unlink(missing_ok=True)
        written.clear()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        if code != 0:
            assert err.getvalue().count("error:") == 1, err.getvalue()
            assert not out_path.exists()
            return
        (rho,) = written
        back = load_state(out_path)
        assert back.legs == rho.legs
        assert np.array_equal(back.matrix.view(np.uint64), rho.matrix.view(np.uint64))

    run()
