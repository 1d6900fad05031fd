"""Plain-text serialization of density matrices.

Format (one matrix per file):

    qstate v1
    dims: 2 2
    <row 0: d complex entries, space-separated>
    ...

Entries are written as ``re+imj`` with 17 significant digits, which
round-trips IEEE doubles exactly.  ``load_state`` is the only loader:
it reads its file once, line by line, with no seek, so a pipe serves as
well as a file, and a non-ASCII byte is named by its offset in the file
ahead of any format error.  It refuses a ``dims:`` line whose product
exceeds MAX_STATE_DIM (``check_dims``, which ``qdiss state`` applies
too) before it reads any row, keeps at most d rows and only counts the
lines after them, splits each row at most d + 1 ways and only counts the
entries after them, and validates every density matrix invariant: a
loaded state enters the package here.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from .qla import DensityMatrix, DomainError

__all__ = ["StateFileError", "FORMAT_VERSION", "dumps_state", "save_state", "load_state"]

FORMAT_VERSION = "qstate v1"
# Largest total dimension a state file may declare: a 16 MiB matrix, which
# `state` writes for a 32x32 cc table.  `measures` admits at most a (2, 43)
# state, at the coarsest 2x2 grid, under MAX_QUDIT_SCAN_WORK.
MAX_STATE_DIM = 1024


class StateFileError(ValueError):
    """The file is not a valid state file."""


def dumps_state(rho: DensityMatrix) -> str:
    # one % per row, over the (re, im) float pairs of its entries
    row = " ".join(["%.16e%+.16ej"] * rho.dim)
    lines = [FORMAT_VERSION, "dims: " + " ".join(str(d) for d in rho.legs)]
    lines += [row % tuple(values) for values in rho.matrix.view(float).tolist()]
    return "\n".join(lines) + "\n"


def check_dims(dims) -> int:
    """The total dimension of leg dimensions ``dims``; StateFileError above MAX_STATE_DIM."""
    d = math.prod(dims)
    if d > MAX_STATE_DIM:
        raise StateFileError(f"expected {d} matrix rows, more than MAX_STATE_DIM = {MAX_STATE_DIM}")
    return d


def _parse(physical) -> DensityMatrix:
    """A state from the physical lines of a binary file (``_ascii_lines``), read once;
    each is split again by ``str.splitlines`` and blank lines are skipped."""
    nonblank = (ln for line in physical for ln in line.splitlines() if ln and not ln.isspace())
    lines = list(itertools.islice(nonblank, 2))
    if not lines or lines[0].strip() != FORMAT_VERSION:
        raise StateFileError(f"missing or unknown format header (expected {FORMAT_VERSION!r})")
    if len(lines) < 2 or not lines[1].strip().startswith("dims:"):
        raise StateFileError("missing 'dims:' line")
    try:
        dims = tuple(int(tok) for tok in lines[1].split(":", 1)[1].split())
    except ValueError as exc:
        raise StateFileError(f"unparseable dims line: {exc}") from exc
    if not dims or any(d < 1 for d in dims):
        raise StateFileError(f"invalid dims {dims}")
    d = check_dims(dims)
    rows = list(itertools.islice(nonblank, d))
    found = len(rows) + sum(1 for _ in nonblank)
    if found != d:
        raise StateFileError(f"expected {d} matrix rows, found {found}")
    matrix = np.empty((d, d), dtype=complex)
    for i, row in enumerate(rows):
        toks = row.split(None, d)  # the tail of a longer row is counted, not split
        if len(toks) != d:
            found = len(toks) if len(toks) < d else d + sum(1 for _ in re.finditer(r"\S+", toks[d]))
            raise StateFileError(f"row {i}: expected {d} entries, found {found}")
        try:
            matrix[i] = [complex(tok) for tok in toks]
        except ValueError as exc:
            raise StateFileError(f"row {i}: unparseable entry ({exc})") from exc
    try:
        return DensityMatrix(matrix, dims)
    except DomainError as exc:
        raise StateFileError(f"file does not encode a valid density matrix: {exc}") from exc


def save_state(rho: DensityMatrix, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_state(rho))


def _ascii_lines(fh):
    """The lines of a binary file as text; a non-ASCII byte is named by its offset in the file."""
    offset = 0
    for raw in fh:
        if not raw.isascii():
            k = re.search(rb"[^\x00-\x7f]", raw).start()
            raise StateFileError(
                f"not an ASCII state file: 'ascii' codec can't decode byte 0x{raw[k]:02x} "
                f"in position {offset + k}: ordinal not in range(128)"
            )
        offset += len(raw)
        line = raw.decode("ascii")
        del raw  # hold one copy of a long line, not two
        yield line


def load_state(path) -> DensityMatrix:
    with open(path, "rb") as fh:
        lines = _ascii_lines(fh)
        try:
            return _parse(lines)
        except StateFileError:
            for _ in lines:  # a non-ASCII byte anywhere takes precedence over a format error
                pass
            raise
