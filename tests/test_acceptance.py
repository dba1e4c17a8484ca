"""Delivery checklist: one test per acceptance criterion.

Each test prints a single `ACCEPTANCE n: PASS/FAIL - detail` line (visible
with -s, or in the captured output on failure) and asserts the same
condition, at the tolerance the criterion states.
"""
import time

import numpy as np
import pytest

from piezobeam.design import amplifier_intervals, delta_cap_p, delta_cap_v
from piezobeam.materials import derive_constants
from piezobeam.orfd import (
    build_system,
    discrete_energy,
    hat_initial_condition,
    perturbation_functional,
)
from piezobeam.simulate import envelope_check, fit_decay, integrate, modal_trace
from piezobeam.spectral import spectral_abscissa, spectrum

quiet_dt = pytest.mark.filterwarnings(
    "ignore:dt=.*does not resolve:RuntimeWarning")


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_acceptance_1_design_reproduction(table1, consts1):
    t0 = time.perf_counter()
    design = amplifier_intervals(table1, consts1, 1.0)
    sigma_max = consts1.sigma_max
    wall = time.perf_counter() - t0
    checks = [
        abs(sigma_max - 102.04) <= 0.005 * 102.04,
        abs(design.c1_lo - 7.17e5) <= 0.01 * 7.17e5,
        abs(design.c1_hi - 4.18e6) <= 0.01 * 4.18e6,
        abs(design.c2_lo - 1.02e-4) <= 0.01 * 1.02e-4,
        abs(design.c2_hi - 9.78e9) <= 0.01 * 9.78e9,
        wall < 1.0,
    ]
    _report(1, all(checks),
            f"sigma_max={sigma_max:.4f} (target 102.04 +-0.5%), "
            f"c1=({design.c1_lo:.3e}, {design.c1_hi:.3e}), "
            f"c2=({design.c2_lo:.3e}, {design.c2_hi:.3e}) all +-1%, "
            f"wall={wall:.3g}s")


def test_acceptance_2_spectral_reproduction(table1):
    # published grid cells; coordinates as realized on our (xi1, xi2) axes
    cells = [
        (1e6, 1e6, -177.0),
        (10.0 ** 6.5, 1e6, -421.0),
        (1e6, 1e-5, -10.0),
        (1e6, 1e-7, -0.1),
        (1e7, 1e9, -101.0),
    ]
    rows = []
    ok = True
    for xi1, xi2, target in cells:
        got = spectral_abscissa(build_system(table1, 80, xi1, xi2))
        hit = abs(got - target) <= 0.10 * abs(target)
        ok &= hit
        rows.append(f"({xi1:.3g},{xi2:.3g})->{got:.4g} vs {target:g}")
    _report(2, ok, "; ".join(rows) + " (all +-10%)")


def test_acceptance_3_envelope_validation(table1, consts1):
    sys = build_system(table1, 80, 1e6, 1e9)
    sv = hat_initial_condition(table1, 80, 0.5)
    res = modal_trace(sys, sv, 0.1, samples=2001)
    sigma_max = consts1.sigma_max
    env = envelope_check(res.trace, sigma=sigma_max, bigM=3.0)
    fit = fit_decay(res.trace)
    ok = env.ok and fit.sigma_fit >= sigma_max
    _report(3, ok,
            f"E(t) <= 3 E(0) exp(-{sigma_max:.2f} t) holds at all 2001 samples "
            f"(min margin {env.min_margin:.3f}); sigma_fit={fit.sigma_fit:.1f} "
            f">= sigma_max={sigma_max:.2f}")


@quiet_dt
def test_acceptance_4_conservative_oracle(table1):
    sys = build_system(table1, 40, 0.0, 0.0)
    sv = hat_initial_condition(table1, 40, 0.5)
    res = integrate(sys, sv, 1e4 * 1e-8, 1e-8)
    E = res.trace.energies
    drift = float(np.max(np.abs(E - E[0])) / E[0])
    lam = spectrum(sys).eigenvalues
    radius = float(np.abs(lam).max())
    rel_real = float(lam.real.max() / radius)
    ok = drift <= 1e-12 and rel_real < 1e-8
    _report(4, ok,
            f"energy drift {drift:.2e} <= 1e-12 over 1e4 steps; "
            f"max Re(mu) / radius = {rel_real:.2e} < 1e-8")


def test_acceptance_5_interval_inequality_equivalence(table1, consts1):
    design = amplifier_intervals(table1, consts1, 1.0)
    thr = 1.0 / (2.0 * consts1.eta)
    rng = np.random.default_rng(20260822)
    draws = 10.0 ** rng.uniform(-8.0, 12.0, size=(10000, 2))
    endpoints = (design.c1_lo, design.c1_hi, design.c2_lo, design.c2_hi)
    mismatches = 0
    tested = 0
    for x1, x2 in draws:
        # the interval boundary itself is a measure-zero knife edge where the
        # two float formulations may legitimately disagree in the last ulp
        if any(abs(x - e) <= 1e-12 * e for e in endpoints for x in (x1, x2)):
            continue
        tested += 1
        member1 = design.c1_lo < x1 < design.c1_hi
        member2 = design.c2_lo < x2 < design.c2_hi
        ineq1 = delta_cap_v(table1, consts1, x1, 1.0) > thr
        ineq2 = delta_cap_p(table1, consts1, x2, 1.0) > thr
        mismatches += (member1 != ineq1) + (member2 != ineq2)
    end_ok = (
        abs(delta_cap_v(table1, consts1, design.c1_hi, 1.0) - thr) <= 1e-9 * thr
        and abs(delta_cap_v(table1, consts1, design.c1_lo, 1.0) - thr) <= 1e-9 * thr
        and abs(delta_cap_p(table1, consts1, design.c2_lo, 1.0) - thr) <= 1e-9 * thr
        and abs(delta_cap_p(table1, consts1, design.c2_hi, 1.0) - thr) <= 1e-9 * thr
    )
    ok = mismatches == 0 and end_ok
    _report(5, ok,
            f"{tested} random amplifier pairs: interval membership == "
            f"cap-above-threshold with {mismatches} mismatches; all four "
            f"endpoint caps equal 1/(2 eta) to 1e-9 relative")


def test_acceptance_6_small_system_eigensolver_oracle(table1):
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")

    sys_num = build_system(table1, 2, 1e6, 1e6)
    lam_np, vecs = np.linalg.eig(sys_num.A_E)
    norm_A = float(np.linalg.norm(sys_num.A_E, 2))

    # independent exact assembly of the similar nodal generator at h = 1/3
    R = sympy.Rational
    h = R(1, 3)
    M = R(1, 4) * sympy.Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 1]])
    Ah = (1 / h**2) * sympy.Matrix([[2, -1, 0], [-1, 2, -1], [0, -1, 1]])
    B = sympy.zeros(3, 3)
    B[2, 2] = 1 / h
    rho, mu = R(6000), R(1, 10**6)
    alpha, gamma, beta = R(10**9), R(1, 1000), R(10**12)
    xi = R(10**6)
    C1 = sympy.diag(rho, mu)
    C2 = sympy.Matrix([[alpha, -gamma * beta], [-gamma * beta, beta]])
    C3 = sympy.diag(xi, xi)
    MinvAh, MinvB = M.solve(Ah), M.solve(B)
    A = sympy.zeros(12, 12)
    A[:6, 6:] = sympy.eye(6)
    A[6:, :6] = -sympy.Matrix(np.kron(np.array(C1.solve(C2)), np.array(MinvAh)))
    A[6:, 6:] = -sympy.Matrix(np.kron(np.array(C1.solve(C3)), np.array(MinvB)))
    poly = A.charpoly()

    mpmath.mp.dps = 60
    coeffs = [mpmath.mpf(c.p) / mpmath.mpf(c.q) for c in poly.all_coeffs()]
    roots = [complex(r) for r in mpmath.polyroots(coeffs, maxsteps=200,
                                                  extraprec=200)]
    worst_eig = 0.0
    for lam in lam_np:
        rel = min(abs(lam - r) / abs(r) for r in roots)
        worst_eig = max(worst_eig, rel)
    res = sys_num.A_E @ vecs - vecs * lam_np
    worst_res = float(np.abs(np.linalg.norm(res, axis=0)).max()) / norm_A
    ok = worst_eig <= 1e-6 and worst_res < 1e-8
    _report(6, ok,
            f"N=2 eigenvalues vs exact characteristic polynomial roots: "
            f"worst rel diff {worst_eig:.2e} <= 1e-6; worst residual "
            f"{worst_res:.2e} ||A|| < 1e-8 ||A||")


@quiet_dt
def test_acceptance_7_perturbation_sandwich_along_trajectory(table1, consts1):
    delta = 1.0 / (2.0 * consts1.eta * table1.L)
    sys = build_system(table1, 24, 1e6, 1e9)
    sv = hat_initial_condition(table1, 24, 0.5)
    res = integrate(sys, sv, 1000 * 1e-7, 1e-7, keep_states=True)
    margin_lo = margin_hi = np.inf
    ok = True
    for state in res.states:
        E = discrete_energy(sys, state)
        F = perturbation_functional(sys, state, table1)
        slack = 1e-6 * E
        lo_ok = 0.5 * E - slack <= E + delta * F
        hi_ok = E + delta * F <= 1.5 * E + slack
        ok &= lo_ok and hi_ok
        if E > 0.0:
            margin_lo = min(margin_lo, ((E + delta * F) - 0.5 * E) / E)
            margin_hi = min(margin_hi, (1.5 * E - (E + delta * F)) / E)
    _report(7, ok,
            f"0.5 E <= E + delta F <= 1.5 E at all 1001 samples "
            f"(smallest margins {margin_lo:.3f} / {margin_hi:.3f} of E, "
            f"slack 1e-6 E)")


def test_acceptance_8_suboptimal_amplifier_contrast(table1):
    sv = hat_initial_condition(table1, 80, 0.5)
    fits = {}
    for xi1 in (1e6, 1e4):
        sys = build_system(table1, 80, xi1, 1e9)
        fits[xi1] = fit_decay(modal_trace(sys, sv, 0.1, samples=2001).trace)
    ratio = fits[1e6].sigma_fit / fits[1e4].sigma_fit
    ok = ratio >= 5.0
    _report(8, ok,
            f"sigma_fit drops from {fits[1e6].sigma_fit:.1f} at the designed "
            f"amplifier to {fits[1e4].sigma_fit:.2f} at xi1=1e4 "
            f"(ratio {ratio:.1f} >= 5)")
