"""Command-line interface.

Verbs: state (build and save), measures, witness, protocol, sweep,
decompose.  Exit codes: 0 success, 1 I/O or parse failure, 2 violated
domain precondition, 3 protocol unavailable at the requested z.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .qla import TARGET_DISTANCE_TOL, DomainError, _as_index, projector
from .states import (
    _BELL_NAMES, _werner_stack, bell, cc_pairs, cc_state, cq_state, product_decomposition, werner,
)
from .correlations import DEFAULT_GRID, discord
from .witness import WitnessReport, witness_report
from .protocols import (
    ProtocolUnavailableError, _certifications, certify, run_kraus_protocol, run_unitary_protocol,
)
from .statefile import StateFileError, check_dims, load_state, save_state
from . import __version__

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_PROTOCOL = 3

_STATE_KINDS = ("werner", "cc", "cq", "bell", "cc-pairs")
# The CorrelationReport fields printed by `measures` and written as sweep CSV columns.
_MEASURES = ("total", "classical", "discord", "geometric_discord", "concurrence", "negativity")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _fixed9(value: float) -> str:
    """value to 9 decimals with its sign; one that rounds to zero prints +0.000000000.

    So the sign of rounding noise, which depends on the CPU's kernels, never shows.
    """
    text = f"{value:+.9f}"
    return "+0.000000000" if text == "-0.000000000" else text


def _parse_table(text: str) -> np.ndarray:
    try:
        rows = [
            [float(tok) for tok in row.replace(",", " ").split()]
            for row in text.split(";")
        ]
        return np.array(rows, dtype=float)
    except ValueError as exc:
        raise DomainError(f"unparseable probability table {text!r}: {exc}") from exc


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        gt, gp = (int(tok) for tok in text.lower().split("x"))
        return gt, gp
    except ValueError as exc:
        raise DomainError(f"grid must look like '64x128', got {text!r}") from exc


def cmd_state(args) -> int:
    kind = args.constructor
    if kind == "werner":
        if args.z is None:
            raise DomainError("state werner requires --z")
        rho = werner(args.z)
    elif kind == "bell":
        if args.which is None:
            raise DomainError("state bell requires --which")
        rho = projector(bell(args.which))
    elif kind == "cc":
        if args.p is None:
            raise DomainError("state cc requires --p (rows ';'-separated)")
        table = _parse_table(args.p)
        check_dims(table.shape)
        rho = cc_state(table)
    elif kind == "cq":
        if args.p is None or not args.states_b:
            raise DomainError("state cq requires --p and --states-b")
        probs = _parse_table(args.p).reshape(-1)
        states = [load_state(path) for path in args.states_b]
        check_dims((probs.size, states[0].dim))
        rho = cq_state(probs, None, states)
    else:  # cc-pairs; argparse limits the choices
        if args.k is None:
            raise DomainError("state cc-pairs requires --k")
        rho = cc_pairs(args.k)
    out = args.out or f"{kind}.qs"
    save_state(rho, out)
    print(f"wrote {out}")
    print(f"dims: {' '.join(str(d) for d in rho.legs)}")
    print(f"trace: {_fmt(float(np.real(np.trace(rho.matrix))))}")
    print("eigenvalues: " + " ".join(_fmt(float(v)) for v in rho.eigenvalues[::-1]))
    return EXIT_OK


def cmd_measures(args) -> int:
    rho = load_state(args.input)
    if len(rho.legs) != 2:
        raise DomainError(f"measures needs a bipartite state, got legs {rho.legs}")
    report = discord(rho, grid=args.opt_grid)
    pairs = [(key, getattr(report, key)) for key in _MEASURES] + [
        ("theta", report.argmin_measurement.theta),
        ("phi", report.argmin_measurement.phi),
    ]
    for key, value in pairs:
        print(f"{key}={'n/a' if value is None else _fmt(value)}")
    if args.json:
        payload = {key: value for key, value in pairs}
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_witness(args) -> int:
    rho = load_state(args.input)
    if rho.legs != (2, 2):
        raise DomainError(f"witness needs a two-qubit state, got legs {rho.legs}")
    report = witness_report(rho)
    print("singular_values: " + " ".join(_fmt(float(s)) for s in report.singular_values))
    print(f"L={report.l_rank}")
    print(f"max_commutator_norm={_fmt(report.max_commutator_norm)}")
    print(f"rank_witness={'TRUE' if report.verdicts['rank_witness'] else 'FALSE'}")
    _print_commutator_verdict(report)
    return EXIT_OK


def _print_commutator_verdict(report: WitnessReport) -> None:
    zero = report.verdicts["commutator_zero_discord"]
    print(f"commutator_verdict={'ZERO-DISCORD' if zero else 'NONZERO-DISCORD'}")


def cmd_protocol(args) -> int:
    if args.kind == "kraus":
        result = run_kraus_protocol(args.z)
    else:
        result = run_unitary_protocol(args.z)
    bundle = certify(result)
    ok = result.trace_distance_to_target <= TARGET_DISTANCE_TOL
    print(f"protocol={result.kind} z={_fmt(result.z)}")
    print(f"trace_distance_to_target={result.trace_distance_to_target:.3e}")
    print(f"target_check={'PASS' if ok else 'FAIL'} (tol={TARGET_DISTANCE_TOL:.1e})")
    rep = bundle.correlations
    print(f"discord={_fmt(rep.discord)}")
    print(f"geometric_discord={_fmt(rep.geometric_discord)}")
    print(f"concurrence={_fmt(rep.concurrence)}")
    print(f"negativity={_fmt(rep.negativity)}")
    print(f"L={bundle.witness.l_rank}")
    _print_commutator_verdict(bundle.witness)
    if args.dump_dir:
        import os

        os.makedirs(args.dump_dir, exist_ok=True)
        save_state(result.initial, os.path.join(args.dump_dir, "initial.qs"))
        save_state(result.post_operation, os.path.join(args.dump_dir, "post.qs"))
        save_state(result.final, os.path.join(args.dump_dir, "final.qs"))
        print(f"dumped states to {args.dump_dir}")
    return EXIT_OK if ok else EXIT_DOMAIN


# Larger sweeps are rejected before anything is allocated.  The rows are
# computed _SWEEP_BLOCK at a time, so a sweep's memory does not grow with it.
MAX_SWEEP_STEPS = 10_000
_SWEEP_BLOCK = 512


def sweep_rows(zmin: float, zmax: float, steps: int):
    """Measure werner(z) on an even grid: an iterator of one row dict per z.

    The arguments are checked at the call.  The rows are then streamed in
    blocks of ``_SWEEP_BLOCK`` z values, each block one stacked
    ``certify`` pass (``protocols._certifications``).
    """
    if not (0.0 <= zmin < zmax <= 1.0):
        raise DomainError(f"need 0 <= zmin < zmax <= 1, got [{zmin}, {zmax}]")
    steps = _as_index(steps, "steps")
    if steps < 2:
        raise DomainError(f"steps must be >= 2, got {steps}")
    if steps > MAX_SWEEP_STEPS:
        raise DomainError(f"steps must be <= {MAX_SWEEP_STEPS}, got {steps}")
    return _sweep(np.linspace(zmin, zmax, steps))


def _sweep(zs: np.ndarray):
    """The rows of ``sweep_rows`` for the z values ``zs``, one block at a time."""
    for start in range(0, zs.size, _SWEEP_BLOCK):
        block = zs[start:start + _SWEEP_BLOCK]
        for z, bundle in zip(block.tolist(), _certifications(*_werner_stack(block))):
            rep, wit = bundle.correlations, bundle.witness
            yield {"z": z, **{key: getattr(rep, key) for key in _MEASURES}, "rank_L": wit.l_rank}


SWEEP_HEADER = ",".join(("z", *_MEASURES, "rank_L"))


def cmd_sweep(args) -> int:
    rows = sweep_rows(args.zmin, args.zmax, args.steps)
    count = 0
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for count, row in enumerate(rows, 1):
            fields = [_fmt(row[key]) for key in ("z", *_MEASURES)]
            fields.append(str(row["rank_L"]))
            fh.write(",".join(fields) + "\n")
    print(f"wrote {count} rows to {args.out}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    decomp = product_decomposition(args.z)
    print(f"z={_fmt(decomp.z)}")
    print("phases: " + " ".join(_fmt(t) for t in decomp.solution.thetas))
    for j, (eta, (left, right), phase) in enumerate(
        zip(decomp.etas, decomp.factors, decomp.phases)
    ):
        print(f"component {j}: norm={_fmt(eta.norm())} global_phase={_fmt(phase)}")
        print("  left:  " + " ".join(f"{_fixed9(v.real)}{_fixed9(v.imag)}j" for v in left.vector))
        print("  right: " + " ".join(f"{_fixed9(v.real)}{_fixed9(v.imag)}j" for v in right.vector))
    print(f"reconstruction_max_abs_error={decomp.reconstruction_error:.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiss",
        description="Generate and certify quantum dissonance in separable Werner states.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="build a state and save it to a state file")
    p_state.add_argument("constructor", choices=_STATE_KINDS)
    p_state.add_argument("--z", type=float, help="Werner mixing parameter")
    p_state.add_argument("--which", choices=_BELL_NAMES, help="Bell state name")
    p_state.add_argument("--p", help="probability table, rows ';'-separated, entries ','-separated")
    p_state.add_argument("--states-b", nargs="+", help="state files for the cq B side")
    p_state.add_argument("--k", type=int, help="number of classically correlated pairs")
    p_state.add_argument("--out", help="output path (default <constructor>.qs)")
    p_state.set_defaults(func=cmd_state)

    p_meas = sub.add_parser("measures", help="correlation measures of a saved state")
    p_meas.add_argument("input")
    p_meas.add_argument("--json", help="also write the report as JSON")
    p_meas.add_argument(
        "--opt-grid",
        type=_parse_grid,
        default=DEFAULT_GRID,
        metavar="TxP",
        help=f"measurement search grid (default {DEFAULT_GRID[0]}x{DEFAULT_GRID[1]})",
    )
    p_meas.set_defaults(func=cmd_measures)

    p_wit = sub.add_parser("witness", help="correlation-matrix witness of a saved state")
    p_wit.add_argument("input")
    p_wit.set_defaults(func=cmd_witness)

    p_proto = sub.add_parser("protocol", help="run a dissonance-generation protocol")
    p_proto.add_argument("kind", choices=("kraus", "unitary"))
    p_proto.add_argument("--z", type=float, required=True)
    p_proto.add_argument("--dump-dir", help="write initial/post/final state files here")
    p_proto.set_defaults(func=cmd_protocol)

    p_sweep = sub.add_parser("sweep", help="emit CSV of measures for werner(z) on a grid")
    p_sweep.add_argument("--zmin", type=float, default=0.0)
    p_sweep.add_argument("--zmax", type=float, default=1.0)
    p_sweep.add_argument("--steps", type=int, default=21)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_dec = sub.add_parser("decompose", help="print the product decomposition at z")
    p_dec.add_argument("--z", type=float, required=True)
    p_dec.set_defaults(func=cmd_decompose)
    return parser


# Each handled exception type with its exit code; the first match wins.
_EXIT_CODES = (
    (StateFileError, EXIT_IO),
    (OSError, EXIT_IO),
    (ProtocolUnavailableError, EXIT_PROTOCOL),
    (DomainError, EXIT_DOMAIN),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
