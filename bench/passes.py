"""Passes of one workload inside a worker, on one thread, each task driven
in-process through `piezobeam.cli.run(argv)`.

`wall` of a pass is the summed time of its CLI calls (stdout and stderr
captured, as a shell would take them).  Gates run between calls, outside
that time.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import scipy

from piezobeam import cli, orfd, spectral
from piezobeam.materials import TABLE1

import workloads
from tracer import Tracer, summarize

HERE = Path(__file__).resolve().parent
MAX_FAILURE_NOTES = 20
ORACLE_POINT = (40, 1e6, 1e9)


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.health: dict[str, float] = {}

    def fail(self, argv: list[str], why: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(f"{' '.join(argv[:1])}: {why}")


def run_pass(tasks: list, stats: Stats) -> float:
    """Run every task once; return the summed wall time of the CLI calls."""
    wall = 0.0
    figures: dict[str, list] = {}
    for task in tasks:
        for path in task.outputs:
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.run(task.argv)
        except Exception as exc:  # noqa: BLE001 - a crashing call is a failed operation
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
        wall += time.perf_counter() - t0
        stats.attempted += 1
        if error is not None:
            stats.fail(task.argv, error)
            continue
        try:
            found = task.check(rc, out.getvalue())
        except workloads.GateMiss as miss:
            stats.fail(task.argv, f"{miss}; stderr: {err.getvalue().strip()[-300:]}")
            continue
        except (ValueError, KeyError, TypeError, OSError) as exc:  # malformed output
            stats.fail(task.argv, f"unreadable output: {type(exc).__name__}: {exc}")
            continue
        for name, value in found.items():
            figures.setdefault(name, []).append(value)
    for name, values in figures.items():
        value = workloads.HEALTH[name](values)
        stats.health[name] = max(value, stats.health.get(name, value))
    return wall


def oracle_relerr() -> float:
    """Relative error of the LAPACK abscissa against the committed mpmath value."""
    points = json.loads((HERE / "oracle.json").read_text())["points"]
    N, xi1, xi2 = ORACLE_POINT
    ref = next(float(p["abscissa"]) for p in points
               if (p["N"], p["xi1"], p["xi2"]) == (N, xi1, xi2))
    got = spectral.spectral_abscissa(orfd.build_system(TABLE1, N, xi1, xi2))
    return abs(got - ref) / abs(ref)


def _os_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    def blas(config: dict) -> str:
        info = config["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "os_threads_at_start": _os_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


class WorkloadRunner:
    """One workload loaded in this worker; the parent asks for passes."""

    def __init__(self, job: dict):
        self.env = environment()  # before any task, so the thread count is the import's
        if self.env["os_threads_at_start"] not in (None, 1):
            raise SystemExit(f"BLAS is not pinned: {self.env['os_threads_at_start']} "
                             "threads after import")
        workdir = Path(job["workdir"])
        self.traced = bool(job["trace"])
        self.load = workloads.build(job["workload"], job["seed"], workdir, job["size"])
        self.stats = Stats()
        # Warm-up at the smallest size: lazy imports, LAPACK start-up, file cache.
        run_pass(workloads.build(job["workload"], job["seed"], workdir, "tiny").tasks,
                 Stats())

    def run(self, trace: bool) -> dict:
        if not trace:
            return {"wall": run_pass(self.load.tasks, self.stats)}
        with Tracer() as tracer:
            wall = run_pass(self.load.tasks, self.stats)
        return {"wall": wall, "layers": summarize(tracer.spans)}

    def finish(self) -> dict:
        result = {
            "attempted": self.stats.attempted, "failed": self.stats.failed,
            "failures": self.stats.failures, "health": self.stats.health,
            "work": self.load.work, "work_unit": self.load.work_unit,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if self.traced:
            result["oracle_relerr"] = oracle_relerr()
        return result
