"""Benchmark workloads: CLI argument lists made from a seed, and the
correctness gate every CLI call must pass.

A workload is a list of tasks; one pass runs them back to back.  Each task
is one `piezobeam` CLI invocation plus a gate that reads its exit code,
stdout and output files.  A gate raises `GateMiss` when the output is wrong
and otherwise returns the health figures it measured on the way.  The
program only ever sees the generated argv.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from piezobeam import simulate
from piezobeam.simulate import EnergyTrace

# `design` for the builtin table1 preset at epsilon = 1.  The README quotes
# these to four digits (sigma_max 102.011, c1 = (7.171e5, 4.179e6),
# c2 = (1.020e-4, 9.783e9)); the gate holds them to DESIGN_RTOL.
SIGMA_MAX = 102.01102749855913
C1 = (717080.1129299272, 4179449.3334287545)
C2 = (0.0001020110274985602, 9783275617.10016)
BIG_M = 3.0
DESIGN_RTOL = 1e-6

# Gate thresholds.
IN_BOX_ABSCISSA = -SIGMA_MAX / 2   # in-box max_real must sit at or below this
ZERO_GAIN_DRIFT = 1e-6             # midpoint |E - E0| / E0 at zero gains
MIDPOINT_RISE = 1e-9               # midpoint upward energy step / E0
FIT_FLOOR = 1e3 * np.finfo(float).eps  # E/E0 below which fit_decay stops using samples

# Workload sizes.  "full" is what the benchmark measures; "tiny" is the
# warm-up before timing and the size of the harness smoke test.
SIZES = {
    "full": {"sweep_N": 40, "sweep_points": 25, "pair_N": 80, "pairs": 8,
             "modal_T": 0.1, "mid_N": 80, "mid_steps": 20000},
    "tiny": {"sweep_N": 8, "sweep_points": 3, "pair_N": 8, "pairs": 2,
             "modal_T": 0.1, "mid_N": 8, "mid_steps": 200},
}
SWEEP_DECADES = (-8.0, 12.0)  # default CLI grid, both axes
MIDPOINT_DT = 1e-6

# Health figures: how each combines over the tasks of a pass.
HEALTH = {
    "spectral.positive_abscissa_cells": sum,
    "spectral.spectrum.residual_max": max,
    "simulate.modal_trace.max_energy_rise": max,
    "simulate.integrate.energy_drift": max,
}


class GateMiss(Exception):
    """A task's output failed its correctness gate."""


@dataclass
class Task:
    argv: list[str]
    check: Callable[[int, str], dict]   # (exit code, stdout) -> health figures
    outputs: list[Path] = field(default_factory=list)  # removed before the call


@dataclass
class Workload:
    tasks: list[Task]
    work: int        # units of work per pass
    work_unit: str   # what one unit is


def in_box(xi1: float, xi2: float) -> bool:
    return C1[0] < xi1 < C1[1] and C2[0] < xi2 < C2[1]


def _num(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GateMiss(msg)


def _exit_zero(rc: int, what: str) -> None:
    _require(rc == 0, f"{what}: exit code {rc}, expected 0")


def _close(got, want, what: str) -> None:
    _require(got is not None and math.isclose(got, want, rel_tol=DESIGN_RTOL),
             f"{what} = {got!r}, expected {want!r} (rtol {DESIGN_RTOL:g})")


def _read_csv(path: Path, header: str, rows: int) -> np.ndarray:
    _require(path.is_file(), f"{path.name} was not written")
    with open(path) as fh:
        got_header = fh.readline().strip()
        _require(got_header == header, f"{path.name} header {got_header!r} != {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(data.shape[0] == rows, f"{path.name} has {data.shape[0]} rows, expected {rows}")
    _require(bool(np.all(np.isfinite(data))), f"{path.name} holds non-finite values")
    return data


def _read_trace(path: Path, rows: int) -> EnergyTrace:
    data = _read_csv(path, "t,E,vdot_L,pdot_L", rows)
    E = data[:, 1]
    _require(E[0] > 0.0, f"{path.name}: initial energy {E[0]!r} is not positive")
    return EnergyTrace(times=data[:, 0], energies=E,
                       boundary_v_dot=data[:, 2], boundary_p_dot=data[:, 3])


def _max_rise(E: np.ndarray) -> float:
    return max(0.0, float(np.max(np.diff(E)))) / float(E[0])


# -- gain_sweep ---------------------------------------------------------------

def gain_sweep(seed: int, workdir: Path, size: dict) -> Workload:
    """`sweep` over the default log grid; a nonzero seed shifts both axes by
    a seeded sub-cell offset in log space (seed 0 is the reference grid)."""
    points = size["sweep_points"]
    cell = (SWEEP_DECADES[1] - SWEEP_DECADES[0]) / (points - 1)
    rng = random.Random(seed)
    off = (0.0, 0.0) if seed == 0 else (rng.uniform(-0.5, 0.5) * cell,
                                        rng.uniform(-0.5, 0.5) * cell)
    axes = [np.logspace(SWEEP_DECADES[0] + o, SWEEP_DECADES[1] + o, points) for o in off]
    out = workdir / "sweep.csv"
    argv = ["sweep", "--preset", "table1", "--N", str(size["sweep_N"]),
            "--out", str(out)]
    for name, o in zip(("xi1", "xi2"), off):
        argv += [f"--{name}-min", _num(10.0 ** (SWEEP_DECADES[0] + o)),
                 f"--{name}-max", _num(10.0 ** (SWEEP_DECADES[1] + o)),
                 f"--{name}-points", str(points)]

    def check(rc: int, stdout: str) -> dict:
        _exit_zero(rc, "sweep")
        data = _read_csv(out, "xi1,xi2,max_real,in_design_box", points * points)
        xi1, xi2, max_real, box = data.T
        want1, want2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        _require(np.allclose(xi1, want1.ravel(), rtol=1e-12)
                 and np.allclose(xi2, want2.ravel(), rtol=1e-12),
                 "sweep grid does not match the requested axes")
        want_box = np.array([in_box(a, b) for a, b in zip(xi1, xi2)])
        _require(np.array_equal(box == 1.0, want_box), "in_design_box column is wrong")
        worst = max_real[want_box].max(initial=-np.inf)
        _require(worst <= IN_BOX_ABSCISSA,
                 f"in-box cell has max_real {worst:.6g} > {IN_BOX_ABSCISSA:.6g}")
        return {"spectral.positive_abscissa_cells": int(np.count_nonzero(max_real > 0.0))}

    return Workload([Task(argv, check, [out])],
                    work=points * points, work_unit="cells")


# -- point_check --------------------------------------------------------------

def _pairs(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """Half log-uniform inside the design box, half with one gain up to two
    decades outside its interval (the other inside)."""
    pairs = []
    for k in range(count):
        xi = [_log_uniform(rng, *C1), _log_uniform(rng, *C2)]
        if k >= count // 2:
            axis = rng.randrange(2)
            lo, hi = (C1, C2)[axis]
            xi[axis] = (_log_uniform(rng, lo / 100.0, lo) if rng.random() < 0.5
                        else _log_uniform(rng, hi, hi * 100.0))
        pairs.append((xi[0], xi[1]))
    return pairs


def _design_check(rc: int, stdout: str) -> dict:
    _exit_zero(rc, "design")
    got = json.loads(stdout)
    _close(got.get("sigma_max"), SIGMA_MAX, "sigma_max")
    _close(got.get("bigM"), BIG_M, "bigM")
    for key, want in (("c1", C1), ("c2", C2)):
        for end, w in zip(got.get(key) or (), want, strict=True):
            _close(end, w, key)
    return {}


def point_check(seed: int, workdir: Path, size: dict) -> Workload:
    """`design`, then verify + spectrum + modal simulate per seeded pair."""
    N, T = str(size["pair_N"]), _num(size["modal_T"])
    samples = 2001  # simulate --samples default
    tasks = [Task(["design", "--preset", "table1", "--outdir", str(workdir)],
                  _design_check)]
    for xi1, xi2 in _pairs(random.Random(seed), size["pairs"]):
        gains = ["--xi1", _num(xi1), "--xi2", _num(xi2)]
        inside = in_box(xi1, xi2)
        spec_out = workdir / "spectrum.json"
        trace_out = workdir / "modal.csv"

        def check_verify(rc, stdout, inside=inside):
            want = 0 if inside else 1
            _require(rc == want, f"verify: exit code {rc}, expected {want}")
            _require(json.loads(stdout).get("ok") is inside, "verify: 'ok' disagrees with the box")
            return {}

        def check_spectrum(rc, stdout, inside=inside, out=spec_out):
            _exit_zero(rc, "spectrum")
            _require(out.is_file(), "spectrum JSON was not written")
            got = json.loads(out.read_text())
            lam = np.array(got["eigenvalues"], dtype=float)
            _require(lam.shape == (4 * (int(N) + 1), 2) and bool(np.all(np.isfinite(lam))),
                     "spectrum: eigenvalue list has the wrong shape or non-finite entries")
            _require(got["max_real"] == lam[:, 0].max(), "spectrum: max_real is not the largest real part")
            _require(got["certified"] is True,
                     f"spectrum not certified (residual_max {got['residual_max']!r})")
            _require(not inside or got["max_real"] <= IN_BOX_ABSCISSA,
                     f"in-box pair has max_real {got['max_real']:.6g} > {IN_BOX_ABSCISSA:.6g}")
            return {"spectral.spectrum.residual_max": got["residual_max"],
                    "spectral.positive_abscissa_cells": int(got["max_real"] > 0.0)}

        def check_modal(rc, stdout, inside=inside, out=trace_out):
            _exit_zero(rc, "simulate --method modal")
            summary = json.loads(stdout)
            trace = _read_trace(out, samples)
            # Decay is gated where the design certifies it.  Outside the box
            # the ill-conditioned eigenbasis can make the trace grow (ROADMAP
            # item 1); max_energy_rise reports that instead.
            if inside:
                _require(summary["E_final"] < summary["E0"], "modal: energy did not decay")
                # A pair decaying faster than the window can resolve drops below
                # the fit floor early, and the CLI then skips the fit by design.
                _require(summary.get("sigma_fit") is not None
                         or trace.energies[-1] <= FIT_FLOOR * trace.energies[0],
                         "modal: sigma_fit is null although the energy stayed above the fit floor")
                env = simulate.envelope_check(trace, SIGMA_MAX, BIG_M)
                _require(env.ok, f"modal: envelope violated, margin {env.min_margin:.3g} "
                                 f"at t={env.t_at_min:.4g}")
            return {"simulate.modal_trace.max_energy_rise": _max_rise(trace.energies)}

        tasks += [
            Task(["verify", "--preset", "table1", *gains, "--outdir", str(workdir)],
                 check_verify),
            Task(["spectrum", "--preset", "table1", "--N", N, *gains,
                  "--out", str(spec_out)], check_spectrum, [spec_out]),
            Task(["simulate", "--preset", "table1", "--method", "modal", "--N", N,
                  "--T", T, *gains, "--out", str(trace_out)], check_modal, [trace_out]),
        ]
    return Workload(tasks, work=size["pairs"], work_unit="pairs")


# -- midpoint_run -------------------------------------------------------------

def midpoint_run(seed: int, workdir: Path, size: dict) -> Workload:
    """Midpoint `simulate` at zero gains and at one seeded in-box pair."""
    steps = size["mid_steps"]
    rng = random.Random(seed)
    pairs = [(0.0, 0.0), (_log_uniform(rng, *C1), _log_uniform(rng, *C2))]
    tasks = []
    for k, (xi1, xi2) in enumerate(pairs):
        out = workdir / f"midpoint{k}.csv"

        def check(rc, stdout, out=out, zero=(k == 0)):
            _exit_zero(rc, "simulate --method midpoint")
            _require(json.loads(stdout).get("samples") == steps + 1,
                     "midpoint: summary sample count is wrong")
            E = _read_trace(out, steps + 1).energies
            if zero:
                drift = float(np.max(np.abs(E - E[0])) / E[0])
                _require(drift <= ZERO_GAIN_DRIFT,
                         f"midpoint: zero-gain drift {drift:.3g} > {ZERO_GAIN_DRIFT:g}")
                return {"simulate.integrate.energy_drift": drift}
            rise = _max_rise(E)
            _require(rise <= MIDPOINT_RISE,
                     f"midpoint: energy rise {rise:.3g} E0 > {MIDPOINT_RISE:g} E0")
            return {}

        tasks.append(Task(
            ["simulate", "--preset", "table1", "--method", "midpoint",
             "--N", str(size["mid_N"]), "--dt", _num(MIDPOINT_DT),
             "--T", _num(round(steps * MIDPOINT_DT, 12)), "--xi1", _num(xi1), "--xi2", _num(xi2),
             "--out", str(out)],
            check, [out, out.with_name(out.stem + ".normalized.csv")]))
    return Workload(tasks, work=len(pairs) * steps, work_unit="steps")


BUILDERS = {"gain_sweep": gain_sweep, "point_check": point_check,
            "midpoint_run": midpoint_run}


def build(name: str, seed: int, workdir: Path, size: str = "full") -> Workload:
    return BUILDERS[name](seed, Path(workdir), SIZES[size])
