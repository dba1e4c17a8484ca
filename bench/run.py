"""piezobeam benchmark: the command named in BENCHMARK.json.

    python3 bench/run.py --workload gain_sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Spawns fresh worker interpreters (`worker.py`) with BLAS pinned to one
thread through the environment and the checkout's `src/` on PYTHONPATH.
One worker runs the workload as a closed loop, one client with passes back
to back, for `--seconds` (at least a few passes), checking every CLI call's
output.  Set-up time is the median over that worker and the fresh workers
probed between passes of the time from spawn until `piezobeam` and
`piezobeam.cli` are imported.
The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`).  See README.md in this directory for what each one means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gain_sweep", "point_check", "midpoint_run")
PROBES_PER_PASS = 2    # fresh workers timed for set-up between passes
MIN_PASSES = 3         # untraced passes in a plain run
MIN_TRACE_PASSES = 2   # of each kind in a traced run
RUN_BUDGET_S = 170.0  # the whole run, per workload, must end well within 180 s
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MiB"}
# (span name, statistic, unit) reported by the traced run.
LAYER_STATS = [
    ("spectral.spectral_abscissa", "calls", "count"),
    ("spectral.spectral_abscissa", "s", "s"),
    ("spectral.sweep", "self_s", "s"),
    ("orfd.build_system", "calls", "count"),
    ("orfd.build_system", "s", "s"),
    ("spectral.spectrum", "calls", "count"),
    ("spectral.spectrum", "s", "s"),
    ("simulate.modal_trace", "self_s", "s"),
    ("orfd.discrete_energy", "calls", "count"),
    ("orfd.discrete_energy", "s", "s"),
    ("simulate.integrate", "self_s", "s"),
    ("simulate.generator_radius_estimate", "s", "s"),
    ("simulate.fit_decay", "s", "s"),
    ("simulate.envelope_check", "s", "s"),
    ("design.verify_design", "s", "s"),
    ("design.amplifier_intervals", "s", "s"),
    ("materials.derive_constants", "s", "s"),
    ("cli.run", "calls", "count"),
    ("cli.run", "self_s", "s"),
]
HEALTH_UNITS = {
    "spectral.positive_abscissa_cells": "count",
    "spectral.oracle_relerr": "ratio",
    "spectral.spectrum.residual_max": "ratio",
    "simulate.modal_trace.max_energy_rise": "ratio",
    "simulate.integrate.energy_drift": "ratio",
}


class BenchError(RuntimeError):
    pass


class Workers:
    """Spawns worker interpreters, talks to them one JSON line at a time, and
    makes sure none outlives the run."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.procs: list[subprocess.Popen] = []
        self.env = {**os.environ, **PINNED, "PYTHONPATH": str(ROOT / "src")}

    def spawn(self) -> tuple[subprocess.Popen, float]:
        """Start a worker; return it and its set-up time in seconds."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                                cwd=self.workdir, env=self.env, bufsize=0,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.procs.append(proc)
        hello = self._read(proc)
        setup_s = time.perf_counter() - t0
        package = Path(hello["package"]).resolve().parent
        if package != (ROOT / "src" / "piezobeam").resolve():
            raise BenchError(f"worker imported piezobeam from {package}, not this checkout")
        return proc, setup_s

    def probe(self) -> float:
        """Set-up time of one fresh worker, which then exits."""
        proc, setup_s = self.spawn()
        self.stop(proc)
        return setup_s

    def call(self, proc: subprocess.Popen, request: dict) -> dict:
        os.write(proc.stdin.fileno(), json.dumps(request).encode() + b"\n")
        return self._read(proc)

    def stop(self, proc: subprocess.Popen) -> None:
        os.write(proc.stdin.fileno(), b"null\n")
        try:
            code = proc.wait(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not exit") from None
        if code != 0:
            raise BenchError(f"worker exited with code {code}")

    def _read(self, proc: subprocess.Popen) -> dict:
        buf = b""
        while not buf.endswith(b"\n"):
            remaining = self.deadline - time.monotonic()
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise BenchError("worker ran past the time budget")
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise BenchError(f"worker stopped (exit code {proc.wait()})")
            buf += chunk
        return json.loads(buf)

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Closed loop over passes of one workload, with set-up probes between
    passes so that they sample the same stretch of machine time."""
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workers = Workers(workdir, time.monotonic() + RUN_BUDGET_S)
    try:
        workers.probe()  # unmeasured: byte-compiles and fills the file cache
        proc, setup_s = workers.spawn()
        setups = [setup_s]
        job = {"workload": name, "seed": seed, "trace": trace, "size": size,
               "workdir": str(workdir)}
        raw = workers.call(proc, {"cmd": "load", "job": job})
        untraced, traced, layers = [], [], []
        end = time.monotonic() + seconds
        while True:
            traced_pass = trace and len(traced) < len(untraced)
            reply = workers.call(proc, {"cmd": "pass", "trace": traced_pass})
            if traced_pass:
                traced.append(reply["wall"])
                layers.append(reply["layers"])
            else:
                untraced.append(reply["wall"])
            enough = (min(len(traced), len(untraced)) >= MIN_TRACE_PASSES if trace
                      else len(untraced) >= MIN_PASSES)
            if enough and time.monotonic() >= end:
                break
            setups += [workers.probe() for _ in range(PROBES_PER_PASS)]
        raw.update(workers.call(proc, {"cmd": "done"}))
        workers.stop(proc)
    finally:
        workers.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()
    raw.update(setups=setups, untraced_walls=untraced, traced_walls=traced, layers=layers)
    return raw


def end_to_end(raw: dict) -> dict:
    walls = raw["untraced_walls"]
    values = {
        "setup_s": _median(raw["setups"]),
        "wall_s": _median(walls),
        "work_per_s": _median(raw["work"] / w for w in walls),
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(raw: dict) -> dict:
    metrics = {}
    for span, stat, unit in LAYER_STATS:
        value = _median(layer.get(span, {}).get(stat, 0) for layer in raw["layers"])
        metrics[f"{span}.{stat}"] = {"value": value, "unit": unit}
    overhead = _median(raw["traced_walls"]) - _median(raw["untraced_walls"])
    share = _median(layer.get("cli.run", {}).get("s", 0.0) / wall
                    for layer, wall in zip(raw["layers"], raw["traced_walls"]))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.top_span_share"] = {"value": share, "unit": "ratio"}
    health = {**raw["health"], "spectral.oracle_relerr": raw["oracle_relerr"]}
    for name, unit in HEALTH_UNITS.items():
        metrics[name] = {"value": health.get(name, 0), "unit": unit}
    return metrics


def report(name: str, seed: int, raw: dict, trace: bool) -> dict:
    metrics = per_layer(raw) if trace else end_to_end(raw)
    env = raw["environment"]
    record = {"workload": name, "seed": seed, "work_per_pass": raw["work"],
              "work_unit": raw["work_unit"], "setup_samples_s": raw["setups"],
              "untraced_walls_s": raw["untraced_walls"],
              "traced_walls_s": raw["traced_walls"], **env}
    print(json.dumps({"run": record}))
    for metric, entry in metrics.items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    for note in raw["failures"]:
        print(f"{name} FAILED {note}", file=sys.stderr)
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' runs the smoke-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "piezobeam" / "cli.py").is_file():
        print(f"error: no piezobeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            raw = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
            results[name] = report(name, args.seed, raw, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:  # worker died or spoke garbage
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": e for w, r in results.items()
                             for m, e in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
