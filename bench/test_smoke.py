"""Smoke test of the benchmark harness at tiny sizes (N=8, 3x3 sweep grid,
200 midpoint steps).  Run with `PYTHONPATH=src python3 -m pytest bench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import passes
import run
import workloads
from piezobeam import TABLE1, cli, spectral
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "all",
                           "--seed", "3", "--seconds", "0", "--size", "tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, kind):
    proc = _bench("--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    want = {f"{w['name']}.{m['name']}": m["unit"]
            for w in MANIFEST["workloads"] for m in MANIFEST[kind]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == want
    assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())


def test_manifest_names_the_harness_workloads():
    names = [w["name"] for w in MANIFEST["workloads"]]
    assert names == list(workloads.BUILDERS) == list(run.WORKLOADS)


def test_nan_in_sweep_csv_is_a_failed_operation(tmp_path, monkeypatch):
    write_csv = cli._write_csv

    def corrupt(path, header, rows):
        rows = [list(r) for r in rows]
        rows[1][2] = float("nan")
        write_csv(path, header, rows)

    load = workloads.build("gain_sweep", 0, tmp_path, "tiny")
    clean = passes.Stats()
    passes.run_pass(load.tasks, clean)
    assert (clean.attempted, clean.failed) == (1, 0)

    monkeypatch.setattr(cli, "_write_csv", corrupt)
    stats = passes.Stats()
    passes.run_pass(load.tasks, stats)
    assert (stats.attempted, stats.failed) == (1, 1)
    assert "non-finite" in stats.failures[0]


def test_a_raising_call_is_a_failed_operation(tmp_path, monkeypatch):
    def boom(argv):
        raise RuntimeError("solver diverged")

    monkeypatch.setattr(cli, "run", boom)
    stats = passes.Stats()
    passes.run_pass(workloads.build("midpoint_run", 0, tmp_path, "tiny").tasks, stats)
    assert (stats.attempted, stats.failed) == (2, 2)
    assert "solver diverged" in stats.failures[0]


def test_pool_thread_spans_belong_to_the_sweep():
    with Tracer() as tracer:
        spectral.sweep(TABLE1, 4, [1.0, 2.0], [3.0, 4.0], threads=2)
    (sweep_id,) = [s[0] for s in tracer.spans if s[2] == "spectral.sweep"]
    cells = [s for s in tracer.spans if s[2] == "spectral.spectral_abscissa"]
    assert len(cells) == 4
    assert all(parent == sweep_id for _, parent, *_ in cells)
    assert not hasattr(spectral.sweep, "__wrapped__")  # uninstalled again


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "gain_sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
