"""Command line front end.

Subcommands: design, simulate, spectrum, sweep, verify.  `run` loads the
material parameters, answers --emit-config, and writes the manifest JSON
(command, material parameters, options, emitted files, wall time, and the
BLAS library every BLAS and LAPACK call ran on, `_lapack.config`) around
each `cmd_*`, which returns its exit code and emitted files.  Domain, I/O
and eigensolver errors exit 1 without a manifest, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import _lapack
from .design import amplifier_intervals, epsilon_bounds, verify_design
from .errors import DomainError
from .materials import (TABLE1, MaterialParams, derive_constants, format_config,
                        parse_config)
from .orfd import build_system, discrete_energy, hat_initial_condition
from .simulate import fit_decay, integrate, max_energy_rise, modal_trace
from .spectral import spectrum, sweep

PRESET_DIR_ENV = "PIEZOBEAM_PRESET_DIR"

# Reference sweep grid: six velocity-gain columns by seven charge-gain rows.
TABLE3_XI1 = [10.0 ** e for e in (5.0, 5.5, 6.0, 6.5, 7.0, 7.5)]
TABLE3_XI2 = [1e-7, 1e-5, 1e-3, 1e6, 1e9, 1e10, 1e11]


# Rows formatted per write by _write_csv.
CSV_BLOCK_ROWS = 1024


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_params(args: argparse.Namespace) -> MaterialParams:
    if args.config:
        return parse_config(Path(args.config).read_text())
    if args.preset == "table1":
        return TABLE1
    preset_dir = Path(os.environ.get(PRESET_DIR_ENV, "."))
    path = preset_dir / f"{args.preset}.cfg"
    if not path.is_file():
        raise DomainError(
            f"unknown preset {args.preset!r}: not builtin and {path} not found"
        )
    return parse_config(path.read_text())


def _write_manifest(command: str, args: argparse.Namespace, params: MaterialParams,
                    outputs: list[Path], wall: float) -> Path:
    if getattr(args, "out", None):
        primary = Path(args.out)
        path = primary.with_name(primary.stem + ".manifest.json")
    else:
        path = Path(args.outdir) / f"{command}.manifest.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    # argparse leaves only str, int, float, bool and None here
    options = {k: v for k, v in vars(args).items()
               if k not in ("func", "command") and not k.startswith("_")}
    manifest = {
        "command": command,
        "params": {k: getattr(params, k) for k in
                   ("L", "rho", "mu", "alpha", "gamma", "beta")},
        "options": options,
        "outputs": [str(p) for p in outputs],
        "wall_time": wall,
        "blas": _lapack.config(),
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _resolve_out(args: argparse.Namespace, default_name: str) -> Path:
    if getattr(args, "out", None):
        out = Path(args.out)
    else:
        out = Path(args.outdir) / default_name
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: str, rows: np.ndarray, sep: str = ",") -> None:
    """Header, then one line per row of the 2-D array, values as _fmt joined by sep."""
    _write_csvs([(path, header, rows)], sep=sep)


def _write_csvs(files: list[tuple[Path, str, np.ndarray]], lead: np.ndarray | None = None,
                sep: str = ",") -> None:
    """Several CSVs of the same row count, each as `_write_csv` writes its
    (path, header, rows); line i of every file starts with lead[i] when
    given, formatted once for all of them."""
    # "%.17g" % x is format(x, ".17g"); one format per block of rows is ~20%
    # faster than one per row.  Blocks keep the Python floats and strings of
    # a long trace from all being alive at once.
    files = [(path, header, np.asarray(rows, dtype=float)) for path, header, rows in files]
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(path, "w")) for path, _, _ in files]
        for fh, (_, header, _) in zip(handles, files):
            fh.write(header + "\n")
        for start in range(0, files[0][2].shape[0], CSV_BLOCK_ROWS):
            head = None
            if lead is not None:
                head = list(map("%.17g".__mod__, lead[start:start + CSV_BLOCK_ROWS].tolist()))
            for fh, (_, _, rows) in zip(handles, files):
                fh.write(_csv_block(rows[start:start + CSV_BLOCK_ROWS], head, sep))


def _csv_block(block: np.ndarray, head: list[str] | None, sep: str) -> str:
    """The lines of a block of rows, each led by its string in head if given."""
    width = block.shape[1] + (head is not None)
    line = sep.join(["%s"] * (head is not None) + ["%.17g"] * block.shape[1]) + "\n"
    cells = [None] * (width * len(block))
    if head is not None:
        cells[0::width] = head
    for j in range(block.shape[1]):
        cells[width - block.shape[1] + j::width] = block[:, j].tolist()
    return (line * len(block)) % tuple(cells)


def _dump_matrices(sys_obj, outdir: Path) -> list[Path]:
    generator = sys_obj.A_E  # checks the memory budget, which covers the mesh blocks
    tridiag = lambda d, e: np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    mats = {"mass_matrix": tridiag(*sys_obj.M_stencil),
            "stiffness_matrix": tridiag(*sys_obj.Ah_stencil),
            "boundary_matrix": np.diag(np.r_[np.zeros(sys_obj.N), 1.0 / sys_obj.h]),
            "generator_matrix": generator}
    outdir.mkdir(parents=True, exist_ok=True)
    for name, mat in mats.items():
        _write_csv(outdir / f"{name}.txt", f"{mat.shape[0]} {mat.shape[1]}", mat, sep=" ")
    return [outdir / f"{name}.txt" for name in mats]


def cmd_design(args: argparse.Namespace,
               params: MaterialParams) -> tuple[int, list[Path]]:
    consts = derive_constants(params)
    design = amplifier_intervals(params, consts, args.epsilon)
    lo, hi = epsilon_bounds(params, consts)
    payload = {
        "epsilon": design.epsilon,
        "eps_bounds": [lo, hi],
        "c1": [design.c1_lo, design.c1_hi],
        "c2": [design.c2_lo, design.c2_hi],
        "xi_star": [design.xi1_star, design.xi2_star],
        "sigma_max": consts.sigma_max,
        "bigM": design.bigM,
    }
    print(json.dumps(payload, indent=2))
    rows = [
        ("epsilon", _fmt(design.epsilon)),
        ("eps_bounds", f"({_fmt(lo)}, {_fmt(hi)})"),
        ("c1 interval", f"({_fmt(design.c1_lo)}, {_fmt(design.c1_hi)})"),
        ("c2 interval", f"({_fmt(design.c2_lo)}, {_fmt(design.c2_hi)})"),
        ("xi_star", f"({_fmt(design.xi1_star)}, {_fmt(design.xi2_star)})"),
        ("sigma_max", _fmt(consts.sigma_max)),
        ("bigM", _fmt(design.bigM)),
        ("delta", _fmt(design.delta)),
        ("eta", _fmt(consts.eta)),
        ("T_obs_min", _fmt(consts.T_obs_min)),
    ]
    width = max(len(r[0]) for r in rows)
    for name, val in rows:
        print(f"  {name:<{width}}  {val}", file=sys.stderr)
    return 0, []


def cmd_verify(args: argparse.Namespace,
               params: MaterialParams) -> tuple[int, list[Path]]:
    consts = derive_constants(params)
    design = amplifier_intervals(params, consts, args.epsilon)
    report = verify_design(params, consts, args.xi1, args.xi2, args.epsilon)
    print(json.dumps({
        "xi1": args.xi1, "xi2": args.xi2, "epsilon": args.epsilon,
        "xi1_in_interval": report.xi1_in_interval,
        "xi2_in_interval": report.xi2_in_interval,
        "f1_val": report.f1_val, "f2_val": report.f2_val,
        "threshold": report.threshold, "ok": report.ok,
    }, indent=2))
    if not report.xi1_in_interval:
        print(f"xi1={_fmt(args.xi1)} outside the safe interval "
              f"({_fmt(design.c1_lo)}, {_fmt(design.c1_hi)})", file=sys.stderr)
    if not report.xi2_in_interval:
        print(f"xi2={_fmt(args.xi2)} outside the safe interval "
              f"({_fmt(design.c2_lo)}, {_fmt(design.c2_hi)})", file=sys.stderr)
    return (0 if report.ok else 1), []


def cmd_simulate(args: argparse.Namespace,
                 params: MaterialParams) -> tuple[int, list[Path]]:
    system = build_system(params, args.N, args.xi1, args.xi2)
    state0 = hat_initial_condition(params, args.N, args.peak_frac)
    if args.method == "modal":
        result = modal_trace(system, state0, args.T, samples=args.samples)
    else:
        result = integrate(system, state0, args.T, args.dt)
    trace = result.trace

    out = _resolve_out(args, "trace.csv")
    norm_out = out.with_name(out.stem + ".normalized.csv")
    E0 = trace.energies[0]
    _write_csvs([(out, "t,E,vdot_L,pdot_L",
                  np.column_stack([trace.energies, trace.boundary_v_dot, trace.boundary_p_dot])),
                 (norm_out, "t,E_norm", (trace.energies / E0)[:, None])],
                lead=trace.times)
    outputs = [out, norm_out]
    if args.dump_matrices:
        outputs += _dump_matrices(system, Path(args.outdir))

    summary = {"E0": float(E0), "E_start": discrete_energy(system, state0),
               "E_final": float(trace.energies[-1]),
               "samples": int(trace.times.size),
               "max_energy_rise": max_energy_rise(trace.energies)}
    if args.xi1 == 0.0 and args.xi2 == 0.0:
        # A rate fitted here would fit the roundoff drift of a conserved energy.
        summary.update(sigma_fit=None,
                       fit_skipped="both gains are 0: the undamped system conserves energy",
                       energy_drift=float(np.max(np.abs(trace.energies - E0)) / E0))
    else:
        try:
            fit = fit_decay(trace)
            summary.update(sigma_fit=fit.sigma_fit, r_squared=fit.r_squared,
                           fit_window=list(fit.window), fit_truncated=fit.truncated)
        except DomainError as exc:
            summary.update(sigma_fit=None, fit_skipped=str(exc))
    print(json.dumps(summary, indent=2))
    return 0, outputs


def cmd_spectrum(args: argparse.Namespace,
                 params: MaterialParams) -> tuple[int, list[Path]]:
    system = build_system(params, args.N, args.xi1, args.xi2)
    result = spectrum(system)
    payload = {
        "N": args.N, "xi1": args.xi1, "xi2": args.xi2,
        "max_real": result.max_real,
        "residual_max": result.residual_max,
        "certified": result.certified,
        "eigenvalues": [[z.real, z.imag] for z in result.eigenvalues],
    }
    text = json.dumps(payload, indent=2) + "\n"
    outputs = []
    if args.out:
        out = _resolve_out(args, "spectrum.json")
        out.write_text(text)
        outputs.append(out)
    else:
        sys.stdout.write(text)
    if args.dump_matrices:
        outputs += _dump_matrices(system, Path(args.outdir))
    return 0, outputs


def _sweep_axis(args: argparse.Namespace, which: str) -> np.ndarray:
    lo = getattr(args, f"{which}_min")
    hi = getattr(args, f"{which}_max")
    pts = getattr(args, f"{which}_points")
    if not (lo > 0.0 and hi > lo and pts >= 2):
        raise DomainError(f"bad {which} grid: need 0 < min < max and points >= 2")
    return np.logspace(math.log10(lo), math.log10(hi), pts)


def cmd_sweep(args: argparse.Namespace,
              params: MaterialParams) -> tuple[int, list[Path]]:
    if args.table3:
        xi1_values = np.array(TABLE3_XI1)
        xi2_values = np.array(TABLE3_XI2)
    else:
        xi1_values = _sweep_axis(args, "xi1")
        xi2_values = _sweep_axis(args, "xi2")
    consts = derive_constants(params)
    design = amplifier_intervals(params, consts, args.epsilon)

    grid = sweep(params, args.N, xi1_values, xi2_values)
    out = _resolve_out(args, "sweep.csv")
    rows = []
    for i, x1 in enumerate(grid.xi1_values):
        for j, x2 in enumerate(grid.xi2_values):
            rows.append((x1, x2, grid.max_real_grid[i, j],
                         1.0 if design.contains(x1, x2) else 0.0))
    _write_csv(out, "xi1,xi2,max_real,in_design_box", rows)
    if grid.failures:
        for i, j, msg in grid.failures:
            print(f"cell ({_fmt(grid.xi1_values[i])}, {_fmt(grid.xi2_values[j])}) "
                  f"failed: {msg}", file=sys.stderr)
    return 0, [out]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="piezobeam",
        description="Boundary feedback amplifier design and finite-difference "
                    "verification for coupled piezoelectric beam dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="material config file (key = value, # comments)")
        sp.add_argument("--preset", default="table1",
                        help="named material preset; 'table1' is builtin, other "
                             f"names resolve to <name>.cfg under ${PRESET_DIR_ENV}")
        sp.add_argument("--outdir", default=".", help="directory for emitted files")
        sp.add_argument("--emit-config", action="store_true",
                        help="print the effective material config and exit")

    sp = sub.add_parser("design", help="safe amplifier intervals and certified rate")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=1.0)
    sp.set_defaults(func=cmd_design)

    sp = sub.add_parser("verify", help="check an amplifier pair against the design")
    common(sp)
    sp.add_argument("--xi1", type=float, required=True)
    sp.add_argument("--xi2", type=float, required=True)
    sp.add_argument("--epsilon", type=float, default=1.0)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("simulate", help="time simulation with energy trace CSVs")
    common(sp)
    sp.add_argument("--xi1", type=float, default=1e6)
    sp.add_argument("--xi2", type=float, default=1e9)
    sp.add_argument("--N", type=int, default=80)
    sp.add_argument("--T", type=float, default=0.1)
    sp.add_argument("--dt", type=float, default=1e-6)
    sp.add_argument("--peak-frac", type=float, default=0.5)
    sp.add_argument("--method", choices=("midpoint", "modal"), default="midpoint",
                    help="midpoint time stepping, or exact modal propagation "
                         "(recommended for stiff amplifier pairs)")
    sp.add_argument("--samples", type=int, default=2001,
                    help="trace samples for --method modal")
    sp.add_argument("--out", help="energy trace CSV path (default trace.csv)")
    sp.add_argument("--dump-matrices", action="store_true",
                    help="also write the assembled matrices as text files")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("spectrum", help="generator eigenvalues at one amplifier pair")
    common(sp)
    sp.add_argument("--xi1", type=float, default=1e6)
    sp.add_argument("--xi2", type=float, default=1e9)
    sp.add_argument("--N", type=int, default=80)
    sp.add_argument("--out", help="write the JSON here instead of stdout")
    sp.add_argument("--dump-matrices", action="store_true")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("sweep", help="spectral abscissa over an amplifier grid")
    common(sp)
    sp.add_argument("--N", type=int, default=40)
    sp.add_argument("--xi1-min", type=float, default=1e-8)
    sp.add_argument("--xi1-max", type=float, default=1e12)
    sp.add_argument("--xi1-points", type=int, default=25)
    sp.add_argument("--xi2-min", type=float, default=1e-8)
    sp.add_argument("--xi2-max", type=float, default=1e12)
    sp.add_argument("--xi2-points", type=int, default=25)
    sp.add_argument("--table3", action="store_true",
                    help="use the reference 6x7 gain grid instead of the log grids")
    sp.add_argument("--epsilon", type=float, default=1.0,
                    help="design box drawn in the in_design_box column")
    sp.add_argument("--out", help="sweep CSV path (default sweep.csv)")
    sp.set_defaults(func=cmd_sweep)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    t0 = time.perf_counter()
    try:
        params = _load_params(args)
        if args.emit_config:
            sys.stdout.write(format_config(params))
            code, outputs = 0, []
        else:
            code, outputs = args.func(args, params)
        _write_manifest(args.command, args, params, outputs, time.perf_counter() - t0)
    except (DomainError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
