"""End-to-end command line coverage driven through run()."""
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from piezobeam import _lapack, cli, orfd, simulate, spectral
from piezobeam.cli import CSV_BLOCK_ROWS, TABLE3_XI1, TABLE3_XI2, _write_csv, run
from piezobeam.design import amplifier_intervals, epsilon_bounds
from piezobeam.materials import (
    TABLE1,
    MaterialParams,
    derive_constants,
    format_config,
    parse_config,
)
from piezobeam.orfd import build_system

from conftest import dense_blocks


def _run(capsys, *argv):
    code = run(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ------------------------------------------------------------------- usage

def test_no_arguments_is_a_usage_error(capsys):
    code, _, err = _run(capsys)
    assert code == 2
    assert "usage" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 2


def test_runs_share_one_parser(tmp_path, capsys):
    cli._build_parser.cache_clear()
    for _ in range(2):
        code, _, _ = _run(capsys, "design", "--outdir", str(tmp_path))
        assert code == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# ------------------------------------------------------------------ design

def test_design_json_matches_library(tmp_path, capsys):
    code, out, err = _run(capsys, "design", "--outdir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"epsilon", "eps_bounds", "c1", "c2",
                            "xi_star", "sigma_max", "bigM"}
    consts = derive_constants(TABLE1)
    design = amplifier_intervals(TABLE1, consts, 1.0)
    assert payload["c1"] == [design.c1_lo, design.c1_hi]
    assert payload["c2"] == [design.c2_lo, design.c2_hi]
    assert payload["xi_star"] == [design.xi1_star, design.xi2_star]
    assert payload["sigma_max"] == consts.sigma_max
    assert payload["bigM"] == design.bigM
    assert payload["eps_bounds"] == list(epsilon_bounds(TABLE1, consts))
    assert "sigma_max" in err  # human-readable table goes to stderr
    manifest = json.loads((tmp_path / "design.manifest.json").read_text())
    assert manifest["command"] == "design"
    assert manifest["params"]["rho"] == 6000.0
    # the library every BLAS and LAPACK call runs on, as the run bound it
    blas = manifest["blas"]
    assert blas == _lapack.config()
    assert set(blas) == {"library", "config", "integer_bits", "held_threads"}
    assert Path(blas["library"]).is_file() and blas["integer_bits"] in (32, 64)
    assert blas["held_threads"] == (None if _lapack.thread_count() is None else 1)


def test_design_rejects_epsilon_outside_bounds(tmp_path, capsys):
    code, _, err = _run(capsys, "design", "--epsilon", "99",
                        "--outdir", str(tmp_path))
    assert code == 1
    assert "error:" in err
    assert not (tmp_path / "design.manifest.json").exists()  # none on a domain error


def test_design_scales_with_config_length(tmp_path, capsys):
    doubled = MaterialParams(L=2.0, rho=TABLE1.rho, mu=TABLE1.mu,
                             alpha=TABLE1.alpha, gamma=TABLE1.gamma,
                             beta=TABLE1.beta)
    cfg = tmp_path / "doubled.cfg"
    cfg.write_text(format_config(doubled))
    code, out, _ = _run(capsys, "design", "--config", str(cfg),
                        "--outdir", str(tmp_path))
    assert code == 0
    got = json.loads(out)["sigma_max"]
    assert got == derive_constants(doubled).sigma_max
    # the certified rate is inversely proportional to the span
    np.testing.assert_allclose(got, derive_constants(TABLE1).sigma_max / 2.0,
                               rtol=1e-12)


def test_bad_config_file_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("L = 1.0\nrho = -5\nmu = 1\nalpha = 1\ngamma = 0\nbeta = 1\n")
    code, _, err = _run(capsys, "design", "--config", str(cfg),
                        "--outdir", str(tmp_path))
    assert code == 1
    assert "error:" in err


def test_emit_config_round_trips(tmp_path, capsys):
    code, out, _ = _run(capsys, "design", "--emit-config",
                        "--outdir", str(tmp_path))
    assert code == 0
    assert out == format_config(TABLE1)
    assert parse_config(out) == TABLE1
    manifest = json.loads((tmp_path / "design.manifest.json").read_text())
    assert manifest["options"]["emit_config"] is True and manifest["outputs"] == []


def test_preset_directory_lookup(tmp_path, capsys, monkeypatch, toy):
    monkeypatch.setenv("PIEZOBEAM_PRESET_DIR", str(tmp_path))
    (tmp_path / "lab.cfg").write_text(format_config(toy))
    code, out, _ = _run(capsys, "design", "--preset", "lab",
                        "--outdir", str(tmp_path))
    assert code == 0
    consts = derive_constants(toy)
    design = amplifier_intervals(toy, consts, 1.0)
    assert json.loads(out)["c1"] == [design.c1_lo, design.c1_hi]


def test_unknown_preset_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PIEZOBEAM_PRESET_DIR", str(tmp_path))
    code, _, err = _run(capsys, "design", "--preset", "nope",
                        "--outdir", str(tmp_path))
    assert code == 1
    assert "unknown preset" in err


# ------------------------------------------------------------------ verify

def test_verify_accepts_pair_inside_the_box(tmp_path, capsys):
    code, out, _ = _run(capsys, "verify", "--xi1", "1e6", "--xi2", "1e9",
                        "--outdir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["xi1_in_interval"] and payload["xi2_in_interval"]


def test_verify_rejects_pair_outside_the_box(tmp_path, capsys):
    code, out, err = _run(capsys, "verify", "--xi1", "1.0", "--xi2", "1e9",
                          "--outdir", str(tmp_path))
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"] and not payload["xi1_in_interval"]
    assert "outside the safe interval" in err
    manifest = json.loads((tmp_path / "verify.manifest.json").read_text())
    assert manifest["command"] == "verify" and manifest["options"]["xi1"] == 1.0


# ---------------------------------------------------------------- simulate

def _toy_cfg(tmp_path, toy):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(format_config(toy))
    return cfg


def test_simulate_midpoint_writes_trace_files(tmp_path, capsys, toy):
    cfg = _toy_cfg(tmp_path, toy)
    out_csv = tmp_path / "trace.csv"
    code, out, _ = _run(capsys, "simulate", "--config", str(cfg),
                        "--N", "6", "--xi1", "0.5", "--xi2", "0.7",
                        "--T", "0.05", "--dt", "1e-3",
                        "--out", str(out_csv), "--outdir", str(tmp_path))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,E,vdot_L,pdot_L"
    assert len(lines) == 52  # header + 50 steps + initial sample
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) > 0.0

    norm = (tmp_path / "trace.normalized.csv").read_text().splitlines()
    assert norm[0] == "t,E_norm"
    assert norm[1] == "0,1"
    assert len(norm) == 52

    summary = json.loads(out)
    assert summary["E0"] == float(first[1])
    # the start's own energy, the cell quadrature, and the first sample's
    assert summary["E_start"] == pytest.approx(summary["E0"], rel=1e-13)
    assert summary["samples"] == 51
    assert summary["E_final"] < summary["E0"]
    assert summary["sigma_fit"] is not None

    manifest = json.loads((tmp_path / "trace.manifest.json").read_text())
    assert sorted(manifest["outputs"]) == sorted(
        [str(out_csv), str(tmp_path / "trace.normalized.csv")])
    assert manifest["options"]["dt"] == 1e-3


@pytest.mark.filterwarnings("ignore:dt=.*does not resolve:RuntimeWarning")
@pytest.mark.parametrize("method", ["midpoint", "modal"])
def test_simulate_zero_gains_reports_drift_not_a_rate(tmp_path, capsys, method):
    code, out, _ = _run(capsys, "simulate", "--method", method, "--N", "8",
                        "--T", "0.002", "--dt", "1e-6", "--samples", "51",
                        "--xi1", "0", "--xi2", "0",
                        "--out", str(tmp_path / "t.csv"), "--outdir", str(tmp_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["sigma_fit"] is None
    assert "conserves energy" in summary["fit_skipped"]
    assert "r_squared" not in summary
    E = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)[:, 1]
    assert summary["energy_drift"] == np.max(np.abs(E - E[0])) / E[0]
    assert summary["energy_drift"] <= 1e-8  # roundoff, no decay


@pytest.mark.filterwarnings("ignore:dt=.*does not resolve:RuntimeWarning")
def test_simulate_nonzero_gains_fit_a_rate(tmp_path, capsys):
    code, out, _ = _run(capsys, "simulate", "--N", "8", "--T", "0.002", "--dt", "1e-6",
                        "--xi1", "1e6", "--xi2", "0",
                        "--out", str(tmp_path / "t.csv"), "--outdir", str(tmp_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["sigma_fit"] > 0.0
    assert set(summary) == {"E0", "E_start", "E_final", "samples", "max_energy_rise", "sigma_fit",
                            "r_squared", "fit_window", "fit_truncated"}


def _modal_run(capsys, tmp_path, xi1, xi2):
    """Summary and energy column of a modal run at N=80, T=0.1."""
    code, out, _ = _run(capsys, "simulate", "--method", "modal", "--N", "80",
                        "--T", "0.1", "--xi1", repr(xi1), "--xi2", repr(xi2),
                        "--out", str(tmp_path / "t.csv"), "--outdir", str(tmp_path))
    assert code == 0
    return json.loads(out), np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)[:, 1]


def test_modal_energy_never_rises_in_the_design_box(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary, _ = _modal_run(capsys, tmp_path, 3176991.0945939, 4038705.294550744)
    assert summary["max_energy_rise"] == 0.0


def test_modal_run_warns_when_the_energy_rises(tmp_path, capsys, monkeypatch):
    # an eigensolve error that puts a slow mode in the right half-plane: the
    # trace grows although the flow is dissipative, and the run says so.  The
    # modal trace takes its eigenvalues from the QR iteration spectrum runs.
    real_eigvals = spectral._hessenberg_eigvals

    def moved(h):
        lam = real_eigvals(h)
        # the rightmost eigenvalue, with its conjugate
        lam[lam.real == lam.real.max()] += 1e3
        return lam

    monkeypatch.setattr(spectral, "_hessenberg_eigvals", moved)
    with pytest.warns(RuntimeWarning, match="ROADMAP item 2"):
        summary, E = _modal_run(capsys, tmp_path, 8.8e5, 6.8e11)
    assert summary["max_energy_rise"] == np.max(np.diff(E)) / E[0]
    assert summary["max_energy_rise"] > 1.0


def test_csv_writer_matches_per_value_format(tmp_path):
    # the blocked row format must write exactly what format(x, ".17g")
    # joined by commas writes, value by value
    tiny = np.nextafter(0.0, 1.0)
    values = [0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, 1e300, -1e-300,
              0.1, 1 / 3, 2.0 / 3e-7, 9007199254740993.0, 1.7976931348623157e308,
              np.inf, -np.inf, np.nan, 1.0, -123456.0, 5e-324 * 3, 1e16, 1e17]
    # the tricky values, then enough random rows to span several blocks
    rng = np.random.default_rng(2)
    rows = np.vstack([np.array(values).reshape(-1, 4),
                      rng.standard_normal((2 * CSV_BLOCK_ROWS + 3, 4))
                      * 10.0 ** rng.integers(-300, 300, (2 * CSV_BLOCK_ROWS + 3, 4))])
    path = tmp_path / "rows.csv"
    _write_csv(path, "a,b,c,d", rows)
    want = "a,b,c,d\n" + "".join(
        ",".join(format(float(x), ".17g") for x in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode()


def test_simulate_trace_files_match_the_per_row_writer(tmp_path, capsys, monkeypatch):
    # trace.csv and trace.normalized.csv share one formatted time column;
    # byte for byte they are what one "%.17g" per value, row by row, writes
    rng = np.random.default_rng(4)
    m = 2 * CSV_BLOCK_ROWS + 5
    times = np.r_[0.0, 5e-324, 0.1, 1 / 3, np.cumsum(rng.random(m - 4)) + 1.0]
    E = np.r_[3.0, 1 / 3, 1e-300, 1e300,
              rng.random(m - 4) * 10.0 ** rng.integers(-300, 300, m - 4)]
    rates = rng.standard_normal((2, m)) * 10.0 ** rng.integers(-300, 300, (2, m))
    rates[:, 0] = [-0.0, 9007199254740993.0]
    trace = simulate.EnergyTrace(times=times, energies=E,
                                 boundary_v_dot=rates[0], boundary_p_dot=rates[1])
    monkeypatch.setattr(cli, "integrate", lambda *args, **kwargs: simulate.IntegrationResult(
        trace=trace, final_state=np.zeros(36)))
    out_csv = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, "simulate", "--N", "8", "--xi1", "1", "--xi2", "1",
                      "--out", str(out_csv), "--outdir", str(tmp_path))
    assert code == 0

    def per_row(header, columns):
        rows = np.column_stack(columns).tolist()
        return (header + "\n" + "".join(",".join("%.17g" % x for x in row) + "\n"
                                        for row in rows)).encode()

    assert out_csv.read_bytes() == per_row("t,E,vdot_L,pdot_L", [times, E, *rates])
    assert (tmp_path / "trace.normalized.csv").read_bytes() == per_row(
        "t,E_norm", [times, E / E[0]])


def test_simulate_modal_row_count(tmp_path, capsys):
    out_csv = tmp_path / "modal.csv"
    code, out, _ = _run(capsys, "simulate", "--method", "modal",
                        "--N", "8", "--T", "0.01", "--samples", "51",
                        "--out", str(out_csv), "--outdir", str(tmp_path))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 52
    assert json.loads(out)["samples"] == 51


def test_simulate_modal_rejects_oversized_sample_count(tmp_path, capsys):
    out_csv = tmp_path / "modal.csv"
    code, _, err = _run(capsys, "simulate", "--method", "modal", "--N", "8",
                        "--samples", str(10**12), "--out", str(out_csv),
                        "--outdir", str(tmp_path))
    assert code == 1
    assert "needs about" in err and "MiB" in err and "Traceback" not in err
    assert not out_csv.exists()


def test_simulate_midpoint_rejects_oversized_step_count(tmp_path, capsys):
    out_csv = tmp_path / "mid.csv"
    code, _, err = _run(capsys, "simulate", "--N", "8", "--T", "1e3", "--dt", "1e-12",
                        "--out", str(out_csv), "--outdir", str(tmp_path))
    assert code == 1
    assert "needs about" in err and "MiB" in err and "Traceback" not in err
    assert not out_csv.exists()
    assert not (tmp_path / "mid.manifest.json").exists()


def test_simulate_midpoint_runs_a_fine_mesh(tmp_path, capsys):
    # the midpoint run holds bands, not dense mesh blocks, so N=2400 is
    # far inside the memory budget
    out_csv = tmp_path / "fine.csv"
    with pytest.warns(RuntimeWarning, match="does not resolve"):
        code, _, err = _run(capsys, "simulate", "--N", "2400", "--T", "1e-4", "--dt", "1e-6",
                            "--out", str(out_csv), "--outdir", str(tmp_path))
    assert code == 0, err
    assert len(out_csv.read_text().splitlines()) == 102


def test_simulate_dump_matrices_round_trip(tmp_path, capsys, toy):
    cfg = _toy_cfg(tmp_path, toy)
    code, _, _ = _run(capsys, "simulate", "--config", str(cfg),
                      "--N", "5", "--xi1", "0.5", "--xi2", "0.7",
                      "--T", "0.01", "--dt", "1e-3", "--dump-matrices",
                      "--out", str(tmp_path / "t.csv"),
                      "--outdir", str(tmp_path))
    assert code == 0
    sys_obj = build_system(toy, 5, 0.5, 0.7)
    M, Ah, B = dense_blocks(sys_obj)
    for name, mat in (("mass_matrix", M), ("stiffness_matrix", Ah),
                      ("boundary_matrix", B), ("generator_matrix", sys_obj.A_E)):
        path = tmp_path / f"{name}.txt"
        rows, cols = map(int, path.read_text().splitlines()[0].split())
        loaded = np.loadtxt(path, skiprows=1).reshape(rows, cols)
        np.testing.assert_array_equal(loaded, mat)  # %.17g is lossless


# ---------------------------------------------------------------- spectrum

def test_spectrum_stdout_and_file_agree(tmp_path, capsys):
    args = ("spectrum", "--N", "12", "--xi1", "1e6", "--xi2", "1e9",
            "--outdir", str(tmp_path))
    code, out, _ = _run(capsys, *args)
    assert code == 0
    stdout_payload = json.loads(out)

    out_json = tmp_path / "spec.json"
    code, out, _ = _run(capsys, *args, "--out", str(out_json))
    assert code == 0
    assert out == ""
    file_payload = json.loads(out_json.read_text())
    assert file_payload == stdout_payload
    assert file_payload["certified"] is True
    assert len(file_payload["eigenvalues"]) == 4 * 13
    assert file_payload["max_real"] < 0.0


@pytest.mark.parametrize("command", ["spectrum", "sweep"])
def test_generator_over_the_memory_budget_exits_one(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(orfd, "MEMORY_BYTES", 2**20)
    code, out, err = _run(capsys, command, "--N", "40", "--outdir", str(tmp_path))
    assert code == 1 and out == ""
    assert "generator at N=40 needs about" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())  # no manifest, no output


def test_gains_that_overflow_the_tip_rates_exit_one(tmp_path, capsys):
    # 1.7e308 is finite, but 4(N+1) xi1 / (rho h) is not
    code, out, err = _run(capsys, "simulate", "--method", "modal", "--xi1", "1.7e308",
                          "--outdir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())  # no manifest, no output


def test_midpoint_span_off_the_step_grid_exits_one(tmp_path, capsys):
    # 1e-4 is 3.33 steps of 3e-5: no run whose last sample misses T
    code, out, err = _run(capsys, "simulate", "--N", "8", "--T", "1e-4", "--dt", "3e-5",
                          "--outdir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a whole number of steps" in err
    assert not list(tmp_path.iterdir())  # no manifest, no output


def test_failed_eigensolve_exits_one(tmp_path, capsys, monkeypatch):
    # dlahqr reporting INFO > 0 (an eigenvalue that did not converge) is one
    # error line and exit 1, not a traceback
    real_dlahqr = spectral._dlahqr.fn

    def failing(*args):
        real_dlahqr(*args)
        args[-1]._obj.value = 3  # INFO, passed by reference

    monkeypatch.setattr(spectral._dlahqr, "fn", failing)
    code, out, err = _run(capsys, "spectrum", "--N", "8", "--outdir", str(tmp_path))
    assert code == 1 and out == ""
    assert err == "error: Eigenvalues did not converge\n"
    assert not list(tmp_path.iterdir())  # no manifest, no output


# ------------------------------------------------------------------- sweep

def test_sweep_csv_layout_and_determinism(tmp_path, capsys, toy):
    cfg = _toy_cfg(tmp_path, toy)
    out_csv = tmp_path / "sweep.csv"
    args = ("sweep", "--config", str(cfg), "--N", "6",
            "--xi1-min", "0.1", "--xi1-max", "10", "--xi1-points", "3",
            "--xi2-min", "0.1", "--xi2-max", "10", "--xi2-points", "2",
            "--out", str(out_csv), "--outdir", str(tmp_path))
    code, _, _ = _run(capsys, *args)
    assert code == 0
    first = out_csv.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "xi1,xi2,max_real,in_design_box"
    assert len(lines) == 1 + 3 * 2
    # xi1 is the outer loop
    xi1_col = [float(l.split(",")[0]) for l in lines[1:]]
    assert xi1_col == sorted(xi1_col)

    code, _, _ = _run(capsys, *args)
    assert code == 0
    assert out_csv.read_bytes() == first


def test_sweep_reference_grid_flags_design_box(tmp_path, capsys):
    out_csv = tmp_path / "ref.csv"
    code, _, _ = _run(capsys, "sweep", "--table3", "--N", "12",
                      "--out", str(out_csv), "--outdir", str(tmp_path))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + len(TABLE3_XI1) * len(TABLE3_XI2)
    cells = {}
    for line in lines[1:]:
        x1, x2, max_real, in_box = line.split(",")
        cells[(float(x1), float(x2))] = (float(max_real), in_box)
    # (1e6, 1e9) lies inside the certified box, (1e5, 1e-7) outside
    assert cells[(1e6, 1e9)][1] == "1"
    assert cells[(1e5, 1e-7)][1] == "0"
    assert all(np.isfinite(v) for v, _ in cells.values())


def test_sweep_rejects_degenerate_grid(tmp_path, capsys):
    code, _, err = _run(capsys, "sweep", "--xi1-min", "10", "--xi1-max", "1",
                        "--outdir", str(tmp_path))
    assert code == 1
    assert "grid" in err


# ------------------------------------------------------------- entry point

def test_module_entry_point(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "piezobeam", "design", "--outdir", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert set(json.loads(proc.stdout)) >= {"sigma_max", "c1", "c2"}


def test_the_cli_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: every BLAS and LAPACK call goes to
    # numpy's library, so importing the CLI and running a design and a
    # spectrum loads no scipy module
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from piezobeam import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "assert cli.run(['design', '--outdir', out]) == 0\n"
        "assert cli.run(['spectrum', '--N', '8', '--out', out + '/s.json']) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
