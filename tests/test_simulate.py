"""Time integration, exact modal propagation, decay fitting, envelopes."""
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from piezobeam import TABLE1, MaterialParams, derive_constants, simulate, spectral
from piezobeam.errors import DomainError
from piezobeam.orfd import _channel_transform, build_system, discrete_energy, hat_initial_condition
from piezobeam.simulate import (
    EnergyTrace,
    envelope_check,
    fit_decay,
    generator_radius_estimate,
    integrate,
    modal_trace,
)

from conftest import TOY, dense_blocks, energy_basis, random_material, run_under_blas_threads

quiet_dt = pytest.mark.filterwarnings(
    "ignore:dt=.*does not resolve:RuntimeWarning")

# E(0.1)/E0 from the hat start at N=8: 60-digit mpmath expm of the float64
# A_E, printed by tests/oracle_modal_energy.py.  At these stiff pairs the
# p-tip rate (3.7e19 and 2.2e20) sets ||A_E||_2; the tip-first
# eigenvalues read them to 2.6e-8 and 4.7e-8 relative, where eig
# on A_E in z order read 0.0183 and 8.6e11
MODAL_ENERGY = {
    (8, 2.718e6, 1.137e11): 0.14307758483328980319,
    (8, 8.8e5, 6.8e11): 0.6933967521097056269,
}
# The two tip entries of z(0.1) at the same keys, printed by the same
# script: sqrt(c_a / 4(N+1)) times the tip rates v_dot(L), p_dot(L).  The
# closed-form tip rates read them to 3.7e-7 and 2.9e-7 relative.
MODAL_TIPS = {
    (8, 2.718e6, 1.137e11): (-0.079680084068402291312, 0.00186342864080394747),
    (8, 8.8e5, 6.8e11): (-0.19494831674751916726, 0.00054761647984008365651),
}

# gamma = 0 decouples v and p: with one gain zero, the undamped channel's
# roots sit exactly on its poles
TOY_UNCOUPLED = MaterialParams(L=1.0, rho=1.0, mu=1.0, alpha=2.0, gamma=0.0, beta=1.0)


# ---------------------------------------------------------------- integrate

@quiet_dt
def test_undamped_midpoint_conserves_energy(table1):
    # xi = 0 removes the only dissipation channel; the midpoint rule then
    # preserves the energy quadratic exactly, so any drift is solver roundoff
    sys = build_system(table1, 40, 0.0, 0.0)
    sv = hat_initial_condition(table1, 40, 0.5)
    res = integrate(sys, sv, 1000e-8, 1e-8)
    E = res.trace.energies
    assert np.max(np.abs(E - E[0])) <= 1e-10 * E[0]


@quiet_dt
def test_undamped_midpoint_drift_at_reference_size(table1):
    # the benchmark's zero-gain run: 20,000 steps at N=80, dt=1e-6.  In the
    # modes a block of steps turns each mode by the table mu^m, |mu^m| = 1
    # to rounding, and forms no step matrix; it drifts 1.6e-15 over the
    # first 2000 steps and 1.04e-14 over all.  A turn table built by a
    # cumulative product of mu drifted 7.1e-14, turning by mu once per step
    # 2.6e-14 and 2.7e-13, the tridiagonal channel stepper 4.0e-12 and
    # 3.6e-11, the node-interleaved band stepper 4.9e-10 and 5.2e-9
    sys = build_system(table1, 80, 0.0, 0.0)
    res = integrate(sys, hat_initial_condition(table1, 80, 0.5), 20000e-6, 1e-6)
    E = res.trace.energies
    assert E.shape == (20001,)
    assert np.max(np.abs(E[:2001] - E[0])) <= 5e-15 * E[0]
    assert np.max(np.abs(E - E[0])) <= 3e-14 * E[0]


@quiet_dt
def test_undamped_midpoint_conserves_energy_over_random_materials():
    # the draws span wide gaps between the v and p scales of the step
    # matrix, which its banded Cholesky factors with no diagonal scaling
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = random_material(rng)
        sys = build_system(params, 16, 0.0, 0.0)
        dt = 0.02 / derive_constants(params).sigma_max
        E = integrate(sys, hat_initial_condition(params, 16, 0.5), 500 * dt, dt).trace.energies
        assert E.shape == (501,)
        assert np.max(np.abs(E - E[0])) <= 1e-10 * E[0]


@quiet_dt
def test_damped_midpoint_is_monotone(table1):
    sys = build_system(table1, 12, 1e6, 1e9)
    sv = hat_initial_condition(table1, 12, 0.5)
    res = integrate(sys, sv, 300e-8, 1e-8)
    E = res.trace.energies
    assert np.all(np.diff(E) <= 1e-12 * E[0])
    assert E[-1] < E[0]


@quiet_dt
def test_midpoint_run_is_time_reversible(table1):
    # flip the rates at the endpoint and integrate the same span again: the
    # undamped scheme is symmetric, so we land back on the start state up to
    # linear-solve roundoff (measured in the energy norm)
    sys = build_system(table1, 40, 0.0, 0.0)
    n = 41
    s0 = hat_initial_condition(table1, 40, 0.5)
    flip = np.concatenate([np.ones(2 * n), -np.ones(2 * n)])
    fwd = integrate(sys, s0, 200e-8, 1e-8).final_state
    back = integrate(sys, flip * fwd, 200e-8, 1e-8).final_state
    diff = flip * back - s0
    err = np.sqrt(discrete_energy(sys, diff) / discrete_energy(sys, s0))
    assert err <= 1e-10


def test_decay_rate_stable_under_dt_halving(toy):
    sys = build_system(toy, 8, 0.5, 0.7)
    sv = hat_initial_condition(toy, 8, 0.5)
    coarse = fit_decay(integrate(sys, sv, 4.0, 2e-4).trace)
    fine = fit_decay(integrate(sys, sv, 4.0, 1e-4).trace)
    assert abs(coarse.sigma_fit - fine.sigma_fit) <= 1e-4 * fine.sigma_fit


def test_midpoint_matches_modal_on_resolved_problem(toy):
    sys = build_system(toy, 8, 0.5, 0.7)
    sv = hat_initial_condition(toy, 8, 0.5)
    mid = fit_decay(integrate(sys, sv, 4.0, 1e-4).trace)
    exact = fit_decay(modal_trace(sys, sv, 4.0).trace)
    assert abs(mid.sigma_fit - exact.sigma_fit) <= 1e-3 * exact.sigma_fit


def test_trace_shapes_and_boundary_columns(toy):
    sys = build_system(toy, 6, 0.3, 0.4)
    sv = hat_initial_condition(toy, 6, 0.5)
    res = integrate(sys, sv, 50e-4, 1e-3, keep_states=True)
    n = 7
    assert res.trace.times.shape == (6,)
    assert res.trace.energies.shape == (6,)
    assert res.states.shape == (6, 4 * n)
    # boundary traces are the last rate entries of the recorded states
    np.testing.assert_array_equal(res.trace.boundary_v_dot,
                                  res.states[:, 3 * n - 1])
    np.testing.assert_array_equal(res.trace.boundary_p_dot,
                                  res.states[:, 4 * n - 1])
    assert res.trace.times[0] == 0.0
    np.testing.assert_allclose(res.trace.times[-1], 5e-3, rtol=1e-12)
    # energies recompute from the stored states
    for k in (0, 3, 5):
        np.testing.assert_allclose(res.trace.energies[k],
                                   discrete_energy(sys, res.states[k]),
                                   rtol=1e-12)


# table1 without coupling: K01 = 0, no rotation, the channels are v and p
UNCOUPLED = MaterialParams(L=1.0, rho=6000.0, mu=1e-6, alpha=1e9, gamma=0.0, beta=1e12)


def _channel_materials():
    rng = np.random.default_rng(7)
    return [TABLE1, TOY, UNCOUPLED] + [random_material(rng) for _ in range(50)]


def test_channel_transform_matches_an_extended_precision_eigensolve():
    # lam against a 40-digit eigensolve of C1^-1/2 C2 C1^-1/2, T^T C1 T = I
    # to 4 eps, and T^T C2 T diagonal: its off-diagonal entry, exact on the
    # float64 T, within 1e-14 of the geometric mean of its diagonal (measured:
    # 7e-16).  The tangent of the rotation keeps the angle exact however far
    # apart the two channels are; an atan2 angle sits near pi/2 at table1,
    # loses its cosine and mixes the channels by 4e-8, which the midpoint
    # steps would drop
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for params in _channel_materials():
            sys = build_system(params, 4, 0.0, 0.0)
            T, lam = _channel_transform(sys)
            r = [1 / mpmath.sqrt(mpmath.mpf(c)) for c in np.diag(sys.C1)]
            K = mpmath.matrix([[r[a] * mpmath.mpf(sys.C2[a, b]) * r[b] for b in range(2)]
                               for a in range(2)])
            exact = sorted(mpmath.eigsy(K, eigvals_only=True))
            for got, ref in zip(sorted(lam), exact):
                assert abs(mpmath.mpf(got) - ref) <= 1e-14 * abs(ref)
            np.testing.assert_allclose(T.T @ sys.C1 @ T, np.eye(2), rtol=0, atol=4 * eps)
            Tm = mpmath.matrix(T.tolist())
            D = Tm.T * mpmath.matrix(sys.C2.tolist()) * Tm
            assert abs(D[0, 1]) <= 1e-14 * mpmath.sqrt(D[0, 0] * D[1, 1])
            if params.gamma == 0.0:
                np.testing.assert_array_equal(T, np.diag(1 / np.sqrt(np.diag(sys.C1))))


@pytest.mark.parametrize("params,N,xi1,xi2,dt", [
    (TOY, 6, 0.3, 0.4, 1e-3),
    (TABLE1, 80, 1e6, 1e9, 1e-6),
    (UNCOUPLED, 20, 1e6, 1e9, 1e-6)])
@quiet_dt
def test_keep_states_does_not_change_the_run(params, N, xi1, xi2, dt):
    # keep_states only adds the states: the trace and the final state are
    # the same bits, and the tip rates are the states' tip columns exactly
    sys = build_system(params, N, xi1, xi2)
    s0 = hat_initial_condition(params, N, 0.5)
    bare = integrate(sys, s0, 40 * dt, dt)
    kept = integrate(sys, s0, 40 * dt, dt, keep_states=True)
    assert bare.states is None
    for name in ("times", "energies", "boundary_v_dot", "boundary_p_dot"):
        np.testing.assert_array_equal(getattr(kept.trace, name), getattr(bare.trace, name))
    np.testing.assert_array_equal(kept.final_state, bare.final_state)
    n = N + 1
    np.testing.assert_array_equal(kept.trace.boundary_v_dot, kept.states[:, 3 * n - 1])
    np.testing.assert_array_equal(kept.trace.boundary_p_dot, kept.states[:, 4 * n - 1])


@quiet_dt
def test_midpoint_blas_calls_per_block_and_per_step(toy, monkeypatch):
    # up to BLOCK_NODES nodes a run makes one triangular solve per block of
    # BLOCK_STEPS steps, the one call bound by hand (its products are
    # numpy's); above, a step takes none.  Another solve would show here
    # before it shows in the benchmark
    calls = 0
    solve = simulate._dtrsv.fn

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    monkeypatch.setattr(simulate._dtrsv, "fn", counted)
    B = simulate.BLOCK_STEPS
    steps = 3 * B + 5
    res = integrate(build_system(toy, 6, 0.3, 0.4), hat_initial_condition(toy, 6, 0.5),
                    steps * 1e-3, 1e-3)
    assert res.trace.energies.shape == (steps + 1,)
    assert calls == 4
    N = simulate.BLOCK_NODES
    res = integrate(build_system(toy, N, 0.3, 0.4), hat_initial_condition(toy, N, 0.5),
                    50e-6, 1e-6)
    assert res.trace.energies.shape == (51,)
    assert calls == 4


def _dense_midpoint(sys, dt):
    """The step y+ = y + dt/2 (u + u+), u+ = S^-1 (R u - dt KA y), block
    order, dense, as a function of the state.

    Evaluated in extended precision with iterative refinement on one LU
    factorization of S in double: in double, the entries of R lose KM to
    (dt^2/4) KA, which alone moves a step by ~1e-10 of the energy norm at
    table1, N=80, dt=1e-6.
    """
    ld = np.longdouble
    n = sys.N + 1
    M, Ah, B = dense_blocks(sys)
    KM = np.kron(sys.C1, M).astype(ld)
    KA = np.kron(sys.C2, Ah).astype(ld)
    KB = np.kron(np.diag([sys.xi1, sys.xi2]), B).astype(ld)
    dt = ld(dt)
    S = KM + dt * dt / 4 * KA + dt / 2 * KB
    R = KM - dt * dt / 4 * KA - dt / 2 * KB
    lu = scipy.linalg.lu_factor(S.astype(float))

    def step(state):
        y, u = state[: 2 * n].astype(ld), state[2 * n:].astype(ld)
        rhs = R @ u - dt * (KA @ y)
        u_new = np.zeros_like(rhs)
        for _ in range(4):
            u_new += scipy.linalg.lu_solve(lu, (rhs - S @ u_new).astype(float))
        return np.concatenate([y + dt / 2 * (u + u_new), u_new]).astype(float)
    return step


def _midpoint_cases():
    rng = np.random.default_rng(11)
    cases = [pytest.param(TABLE1, 80, 1e6, 1e9, 1e-6, 200, id="table1-designed"),
             pytest.param(TABLE1, 80, 0.0, 0.0, 1e-6, 200, id="table1-undamped")]
    for i in range(12):
        params = random_material(rng)
        cases.append(pytest.param(
            params, 16,
            np.sqrt(params.rho * params.alpha) * 10.0 ** rng.uniform(-3, 3),
            np.sqrt(params.mu * params.beta) * 10.0 ** rng.uniform(-3, 3),
            0.02 / derive_constants(params).sigma_max, 100, id=f"random{i}"))
    return cases


@quiet_dt
@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the dense reference needs extended precision")
@pytest.mark.parametrize("params,N,xi1,xi2,dt,steps", _midpoint_cases())
def test_banded_step_matches_dense_formula(params, N, xi1, xi2, dt, steps):
    # every recorded step is y+ = y + dt/2 (u + u+), u+ = S^-1 (R u - dt KA y)
    # in the block order, to 1e-11 in the energy norm, and every sampled
    # energy is the discrete energy of the recorded state
    sys = build_system(params, N, xi1, xi2)
    res = integrate(sys, hat_initial_condition(params, N, 0.5), steps * dt, dt,
                    keep_states=True)
    assert res.states.shape == (steps + 1, 4 * (N + 1))
    step = _dense_midpoint(sys, dt)
    for k in range(steps):
        err = res.states[k + 1] - step(res.states[k])
        assert discrete_energy(sys, err) <= 1e-11**2 * discrete_energy(sys, res.states[k])
    np.testing.assert_allclose(res.trace.energies,
                               [discrete_energy(sys, s) for s in res.states],
                               rtol=1e-12, atol=0)
    np.testing.assert_array_equal(res.final_state, res.states[-1])


@quiet_dt
@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the dense reference needs extended precision")
@pytest.mark.parametrize("xi1,xi2", [(0.0, 0.0), (1e6, 1e9), (8.8e5, 6.8e11), (1e12, 1e12)])
def test_midpoint_tip_rates_follow_the_dense_chain(table1, xi1, xi2):
    # 200 dense extended-precision steps chained from the hat start: each
    # traced tip rate within 1e-9 of its column's largest value (measured
    # <= 1.4e-10).  The trace reads the tips from the midpoint tip tau of
    # the 2x2 gain solve, tip_k+1 = 2 tau_k - tip_k; read as the mode sum
    # Psi^T Im(xi) they cancel where the tip is nearly clamped: the p-tip
    # column is 4.3e-6 off at (1e6, 1e9) and 4.3e-3 at (1e12, 1e12)
    N, dt, steps = 80, 1e-6, 200
    sys = build_system(table1, N, xi1, xi2)
    state = hat_initial_condition(table1, N, 0.5)
    trace = integrate(sys, state, steps * dt, dt).trace
    chain, step = [state], _dense_midpoint(sys, dt)
    for _ in range(steps):
        chain.append(step(chain[-1]))
    want = np.array(chain)[:, sys.tip_index]
    for got, ref in zip((trace.boundary_v_dot, trace.boundary_p_dot), want.T):
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


@quiet_dt
@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the dense reference needs extended precision")
def test_block_edges_match_the_dense_step(table1):
    # runs that end just before, at and just after a block edge, and inside
    # the third block: every step is the dense midpoint step to 1e-11 in the
    # energy norm, every energy the discrete energy of its state, and the
    # final state the last recorded one
    N, dt, B = 80, 1e-6, simulate.BLOCK_STEPS
    assert N + 1 <= simulate.BLOCK_NODES
    sys = build_system(table1, N, 1e6, 1e9)
    state0 = hat_initial_condition(table1, N, 0.5)
    step = _dense_midpoint(sys, dt)
    for steps in (1, B - 1, B, B + 1, 2 * B + 3):
        res = integrate(sys, state0, steps * dt, dt, keep_states=True)
        assert res.states.shape == (steps + 1, 4 * (N + 1))
        for k in range(steps):
            err = res.states[k + 1] - step(res.states[k])
            assert discrete_energy(sys, err) <= 1e-11**2 * discrete_energy(sys, res.states[k])
        np.testing.assert_allclose(res.trace.energies,
                                   [discrete_energy(sys, s) for s in res.states],
                                   rtol=1e-12, atol=0)
        np.testing.assert_array_equal(res.final_state, res.states[-1])


@quiet_dt
def test_blocks_and_single_steps_agree(table1, monkeypatch):
    # the same run in blocks and one step at a time (the path a mesh above
    # BLOCK_NODES takes): energies to 1e-12 relative, tip rates to 1e-9 of
    # their column's largest value
    N, dt, steps = 80, 1e-6, 1000
    sys = build_system(table1, N, 1e6, 1e9)
    state0 = hat_initial_condition(table1, N, 0.5)
    blocks = integrate(sys, state0, steps * dt, dt).trace
    monkeypatch.setattr(simulate, "BLOCK_NODES", N)
    single = integrate(sys, state0, steps * dt, dt).trace
    np.testing.assert_allclose(blocks.energies, single.energies, rtol=1e-12, atol=0)
    for name in ("boundary_v_dot", "boundary_p_dot"):
        got, ref = getattr(blocks, name), getattr(single, name)
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


@quiet_dt
@pytest.mark.parametrize("block_nodes", [simulate.BLOCK_NODES, 0], ids=["blocks", "single"])
def test_non_finite_state_aborts_at_its_step(table1, monkeypatch, block_nodes):
    # a gain correction 30 times too large makes the run grow until its
    # energy overflows, inside the second block.  The abort names that step:
    # the run one step shorter stays finite
    operators = simulate._midpoint_operators

    def unstable(sys, dt):
        mu, P, V = operators(sys, dt)
        return mu, P, 30.0 * V

    monkeypatch.setattr(simulate, "_midpoint_operators", unstable)
    monkeypatch.setattr(simulate, "BLOCK_NODES", block_nodes)
    N, dt, B = 80, 1e-6, simulate.BLOCK_STEPS
    sys = build_system(table1, N, 1e6, 1e9)
    state0 = hat_initial_condition(table1, N, 0.5)
    with pytest.raises(RuntimeError, match=r"non-finite state at step \d+ ") as err:
        integrate(sys, state0, 1000 * dt, dt)
    k = int(err.value.args[0].split()[4])
    assert B + 1 < k <= 2 * B
    E = integrate(sys, state0, (k - 1) * dt, dt).trace.energies
    assert np.all(np.isfinite(E)) and E.shape == (k,)


def test_unresolved_dt_warns(toy):
    sys = build_system(toy, 8, 0.5, 0.7)
    sv = hat_initial_condition(toy, 8, 0.5)
    assert 1e-3 * generator_radius_estimate(sys) > 0.2
    with pytest.warns(RuntimeWarning, match="does not resolve"):
        integrate(sys, sv, 5e-3, 1e-3)


def test_resolved_dt_is_quiet(toy):
    sys = build_system(toy, 6, 0.5, 0.7)
    sv = hat_initial_condition(toy, 6, 0.5)
    assert 1e-3 * generator_radius_estimate(sys) < 0.2
    with np.testing.assert_no_warnings():
        integrate(sys, sv, 5e-3, 1e-3)


def _radius_cases():
    rng = np.random.default_rng(3)
    cases = [(TOY, 8, 0.5, 0.7), (TABLE1, 40, 1e6, 1e9)]
    for _ in range(30):
        params = random_material(rng)
        cases.append((params, int(rng.integers(2, 25)),
                      np.sqrt(params.rho * params.alpha) * 10.0 ** rng.uniform(-4, 4),
                      np.sqrt(params.mu * params.beta) * 10.0 ** rng.uniform(-4, 4)))
    return cases


def test_radius_estimate_brackets_the_spectral_radius():
    # rho(A_E) <= ||G|| + ||D|| <= 2 max(||G||, ||D||), and the estimate is
    # not loose by more than a small factor either
    for params, N, xi1, xi2 in _radius_cases():
        sys = build_system(params, N, xi1, xi2)
        rho = np.abs(np.linalg.eigvals(sys.A_E)).max()
        assert 0.5 * rho <= generator_radius_estimate(sys) <= 3.0 * rho


def test_radius_estimate_mesh_norm_matches_svd():
    # the fastest closed-form mode against the SVD of the mesh factor
    # L_m^-1 L_Ah; at zero gains D = 0 and the estimate is ||G||_2 alone
    for params, N, xi1, xi2 in _radius_cases():
        for gains in ((xi1, xi2), (0.0, 0.0)):
            sys = build_system(params, N, *gains)
            coupling, mesh = sys.G_factors
            tip = (max(np.array(gains) / np.diag(sys.C1))
                   * np.linalg.inv(dense_blocks(sys)[0])[-1, -1] / sys.h)
            svd = max(np.linalg.norm(coupling, 2) * np.linalg.norm(mesh, 2), tip)
            np.testing.assert_allclose(generator_radius_estimate(sys), svd,
                                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("T,dt", [(0.0, 1e-3), (-1.0, 1e-3), (np.nan, 1e-3),
                                  (1.0, 0.0), (1.0, -1e-3), (1.0, np.nan),
                                  (1e-5, 1e-3),
                                  # 1e15 steps, petabytes: refused by the
                                  # memory estimate before allocating
                                  (1e3, 1e-12),
                                  # T / dt overflows: no step count to round
                                  (1.0, 1e-320), (1e308, 1e-10)])
def test_integrate_rejects_bad_spans(toy, T, dt):
    sys = build_system(toy, 6, 0.5, 0.7)
    sv = hat_initial_condition(toy, 6, 0.5)
    with pytest.raises(DomainError):
        integrate(sys, sv, T, dt)


@pytest.mark.parametrize("dt,spans", [(3e-5, "9e-05 and 0.00012"),
                                      (6e-5, "6e-05 and 0.00012")])
def test_integrate_rejects_a_span_that_is_not_a_whole_number_of_steps(toy, dt, spans):
    # round(T/dt) steps would end the run at 9e-5 or 1.2e-4, not at T
    sys = build_system(toy, 6, 0.5, 0.7)
    sv = hat_initial_condition(toy, 6, 0.5)
    with pytest.raises(DomainError, match=f"nearest spans are {spans}"):
        integrate(sys, sv, 1e-4, dt)


def test_integrate_rejects_bad_state_shape(toy):
    sys = build_system(toy, 6, 0.5, 0.7)
    with pytest.raises(DomainError):
        integrate(sys, np.zeros(11), 1e-2, 1e-3)


# N=40 runs blocks of steps; N=20000 single steps, whose energy sums 80,004
# squares: that dot product alone, run unheld, reads differently at 1 and
# 2 BLAS threads
@pytest.mark.parametrize("N, T, dt", [(40, 1000e-8, 1e-8), (20000, 1e-5, 1e-6)],
                         ids=["blocks", "single"])
def test_midpoint_trace_does_not_depend_on_blas_threads(N, T, dt):
    code = (
        "import json, warnings\n"
        "from piezobeam import TABLE1\n"
        "from piezobeam.orfd import build_system, hat_initial_condition\n"
        "from piezobeam.simulate import integrate\n"
        "warnings.simplefilter('ignore')\n"
        f"tr = integrate(build_system(TABLE1, {N}, 1e6, 1e9),\n"
        f"               hat_initial_condition(TABLE1, {N}, 0.5), {T!r}, {dt!r}).trace\n"
        "print(json.dumps([tr.energies.tolist(), tr.boundary_v_dot.tolist(),\n"
        "                  tr.boundary_p_dot.tolist()]))\n"
    )
    one, two = run_under_blas_threads(code)
    assert np.shape(one) == (3, round(T / dt) + 1)
    assert one == two


# --------------------------------------------------------------- modal_trace

def test_midpoint_converges_to_modal_at_second_order(toy):
    sys = build_system(toy, 6, 0.2, 0.9)
    sv = hat_initial_condition(toy, 6, 0.5)
    T = 1e-2
    exact = modal_trace(sys, sv, T, samples=2).final_state
    errs = [np.max(np.abs(integrate(sys, sv, T, dt).final_state - exact))
            for dt in (1e-4, 5e-5, 2.5e-5)]
    # halving dt quarters the endpoint error
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5
    # modal samples land on the same grid when samples-1 == steps
    mid = integrate(sys, sv, T, 1e-4)
    ref = modal_trace(sys, sv, T, samples=101)
    np.testing.assert_array_equal(ref.trace.times, mid.trace.times)
    np.testing.assert_allclose(mid.trace.energies, ref.trace.energies,
                               rtol=1e-3)


def test_modal_trace_shapes_and_energy_consistency(toy):
    sys = build_system(toy, 5, 0.1, 0.1)
    sv = hat_initial_condition(toy, 5, 0.5)
    res = modal_trace(sys, sv, 1.0, samples=51, keep_states=True)
    assert res.states.shape == (51, 24)
    assert res.trace.energies.shape == (51,)
    for k in (0, 25, 50):
        np.testing.assert_allclose(res.trace.energies[k],
                                   discrete_energy(sys, res.states[k]),
                                   rtol=1e-9)
    np.testing.assert_allclose(res.states[0], sv, atol=1e-12)
    assert res.trace.energies[-1] < res.trace.energies[0]


def test_modal_handles_stiff_constants(table1):
    # the implicit stepper cannot resolve the fast branch at any practical
    # dt; the eigenbasis route has no step-size restriction at all.  The
    # nodal states come back from the modes and must carry the
    # same energies and tip rates as the trace read from z.
    sys = build_system(table1, 24, 1e6, 1e9)
    sv = hat_initial_condition(table1, 24, 0.5)
    res = modal_trace(sys, sv, 0.05, samples=501, keep_states=True)
    E = res.trace.energies
    assert E[-1] < 1e-3 * E[0]
    assert np.all(np.isfinite(E)) and np.all(E >= 0.0)
    np.testing.assert_allclose(E, [discrete_energy(sys, s) for s in res.states],
                               rtol=1e-9)
    n = 25
    np.testing.assert_allclose(res.trace.boundary_v_dot, res.states[:, 3 * n - 1],
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.trace.boundary_p_dot, res.states[:, 4 * n - 1],
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.final_state, res.states[-1],
                               rtol=0, atol=1e-12 * np.abs(res.states[-1]).max())


def test_modal_energy_is_monotone(table1):
    # A_E + A_E^T <= 0, so the exact flow never gains energy; with a well
    # conditioned eigenbasis the samples keep that to roundoff.  Gains are
    # drawn around the impedances sqrt(rho alpha), sqrt(mu beta) of each
    # random material, and T spans two certified decay times.
    rng = np.random.default_rng(5)
    for _ in range(30):
        params = random_material(rng)
        xi1 = np.sqrt(params.rho * params.alpha) * 10.0 ** rng.uniform(-2, 2)
        xi2 = np.sqrt(params.mu * params.beta) * 10.0 ** rng.uniform(-2, 2)
        T = 2.0 / derive_constants(params).sigma_max
        E = modal_trace(build_system(params, 16, xi1, xi2),
                        hat_initial_condition(params, 16, 0.5), T).trace.energies
        assert np.diff(E).max() <= 1e-12 * E[0]
    # the designed pair of the reference material never steps up at all
    E = modal_trace(build_system(table1, 80, 1e6, 1e9),
                    hat_initial_condition(table1, 80, 0.5), 0.1).trace.energies
    assert np.diff(E).max() <= 0.0


@pytest.mark.parametrize("key", sorted(MODAL_ENERGY))
def test_modal_energy_matches_the_oracle(table1, key):
    N = key[0]
    E = modal_trace(build_system(table1, *key), hat_initial_condition(table1, N, 0.5),
                    0.1).trace.energies
    np.testing.assert_allclose(E[-1] / E[0], MODAL_ENERGY[key], rtol=1e-6)


@pytest.mark.parametrize("key", sorted(MODAL_TIPS))
def test_modal_tip_rates_match_the_oracle(table1, key):
    # at these keys the p tip is nearly clamped (tip rates 3.7e19 and
    # 2.2e20), where a sum over the modes cancels
    sys = build_system(table1, *key)
    tr = modal_trace(sys, hat_initial_condition(table1, key[0], 0.5), 0.1).trace
    want = np.array(MODAL_TIPS[key]) / np.sqrt(np.diag(sys.C1) / (4 * sys.n_nodes))
    np.testing.assert_allclose([tr.boundary_v_dot[-1], tr.boundary_p_dot[-1]], want, rtol=1e-6)


@pytest.mark.parametrize("key", [(80, 1e6, 1e9), (8, 2.718e6, 1.137e11)])
def test_modal_trace_starts_at_the_initial_state(table1, key):
    # the coefficients project the start onto eigenvectors built on the
    # dense eigenvalues; their residual corrections bring the first sample
    # back to it (without them the profiles were 1e-9 off and E(0) 7e-13)
    N = key[0]
    sys = build_system(table1, *key)
    sv = hat_initial_condition(table1, N, 0.5)
    res = modal_trace(sys, sv, 0.1, samples=11, keep_states=True)
    np.testing.assert_allclose(res.states[0, :2 * (N + 1)], sv[:2 * (N + 1)], rtol=0, atol=1e-14)
    np.testing.assert_allclose(res.trace.energies[0], discrete_energy(sys, sv), rtol=1e-13)


def test_modal_trace_takes_the_spectrum_eigenvalues_bit_for_bit(table1, monkeypatch):
    seen = []
    real_eigvals = spectral._hessenberg_eigvals

    def recorded(h):
        seen.append(real_eigvals(h))
        return seen[-1]

    monkeypatch.setattr(spectral, "_hessenberg_eigvals", recorded)
    modal_trace(build_system(table1, 80, 1e6, 1e9), hat_initial_condition(table1, 80, 0.5),
                0.1, samples=11)
    lam = seen[0]
    np.testing.assert_array_equal(lam[np.argsort(-lam.real, kind="stable")],
                                  spectral.spectrum(build_system(table1, 80, 1e6, 1e9)).eigenvalues)


def _reference_trace(sys, state0, times, digits=None):
    """Energies and tip rates of z(t) = expm(t A_E) z0 at each of times:
    scipy's expm, or with digits mpmath's at that precision."""
    z0 = energy_basis(sys) @ state0
    if digits is None:
        z = np.array([scipy.linalg.expm(t * sys.A_E) @ z0 for t in times])
    else:
        with mpmath.workdps(digits):
            A, z0 = mpmath.matrix(sys.A_E.tolist()), mpmath.matrix(z0.tolist())
            z = np.array([[float(x) for x in mpmath.expm(mpmath.mpf(t) * A) * z0]
                          for t in times])
    tips = z[:, sys.tip_index] / np.sqrt(np.diag(sys.C1) / (4 * sys.n_nodes))
    return 0.5 * sys.h * np.einsum("ij,ij->i", z, z), tips


@pytest.mark.parametrize("params, gains", [
    (TOY, (0.2, 0.9)), (TOY, (0.0, 0.0)), (TOY, (0.5, 0.0)), (TOY, (0.0, 0.5)),
    (TOY_UNCOUPLED, (0.5, 0.3)), (TOY_UNCOUPLED, (0.5, 0.0)), (TOY_UNCOUPLED, (0.0, 0.0)),
], ids=["toy", "toy-undamped", "toy-xi2-zero", "toy-xi1-zero",
        "gamma0", "gamma0-xi2-zero", "gamma0-undamped"])
def test_closed_form_eigenvectors_match_the_matrix_exponential(params, gains):
    # the eigenvectors are the pure modes where the damping does not reach
    # a root, and a tip without a gain reads its rate as a mode sum
    sys = build_system(params, 6, *gains)
    sv = hat_initial_condition(params, 6, 0.5)
    tr = modal_trace(sys, sv, 2.0, samples=21).trace
    E, tips = _reference_trace(sys, sv, tr.times)
    np.testing.assert_allclose(tr.energies, E, rtol=0, atol=1e-12 * E[0])
    for got, want in zip((tr.boundary_v_dot, tr.boundary_p_dot), tips.T):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * np.abs(want).max())
    if gains == (0.0, 0.0):
        # undamped: the energy is kept to roundoff (it drifts 2.2e-15)
        assert np.abs(tr.energies - tr.energies[0]).max() <= 1e-14 * tr.energies[0]
    else:
        assert tr.energies[-1] < 0.7 * tr.energies[0]


@pytest.mark.parametrize("params, gains", [
    (TOY_UNCOUPLED, (50.0, 0.0)), (TOY_UNCOUPLED, (50.0, 0.3)), (TOY, (50.0, 50.0)),
], ids=["gamma0-xi2-zero", "gamma0", "toy-D-multiple-of-C1"])
def test_closed_form_eigenvectors_where_the_channels_decouple(params, gains):
    # with gamma = 0, or with D a multiple of C1 (TOY at equal gains), every
    # root lives on one channel, and many sit nearest a pole of the other
    # channel, whose mode carries none of their vector: scaled there, the
    # vectors missed whole directions and E was 0.9-1.2 E0 off
    sys = build_system(params, 6, *gains)
    sv = hat_initial_condition(params, 6, 0.5)
    tr = modal_trace(sys, sv, 2.0, samples=21).trace
    E, tips = _reference_trace(sys, sv, tr.times)
    np.testing.assert_allclose(tr.energies, E, rtol=0, atol=1e-12 * E[0])
    for got, want in zip((tr.boundary_v_dot, tr.boundary_p_dot), tips.T):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * np.abs(want).max())


def test_modal_trace_warns_when_its_basis_misses_the_start(monkeypatch):
    # eigenvalues 10% off give vectors of no root, and the corrections leave
    # x(0) 0.53 from x0 (relative); the accurate ones leave 3.6e-17
    sys = build_system(TOY, 6, 0.5, 0.3)
    sv = hat_initial_condition(TOY, 6, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        modal_trace(sys, sv, 1.0, samples=11)
    real_eigvals = spectral._hessenberg_eigvals
    monkeypatch.setattr(spectral, "_hessenberg_eigvals", lambda h: 1.1 * real_eigvals(h))
    with pytest.warns(RuntimeWarning, match="from the initial state"):
        modal_trace(sys, sv, 1.0, samples=11)


@pytest.mark.parametrize("N, gains", [(8, (1e6, 0.0)), (4, (0.0, 1e9))])
def test_closed_form_eigenvectors_with_one_gain_zero_match_mpmath(table1, N, gains):
    # the tip with no gain has no closed-form rate c_a / sqrt(d_a): taken
    # from it, the rate would be 0/0.  At T=1e-3 the energies agree with a
    # 30-digit expm to 5.8e-10 E0 and the rates to 9.4e-8
    sys = build_system(table1, N, *gains)
    sv = hat_initial_condition(table1, N, 0.5)
    tr = modal_trace(sys, sv, 1e-3, samples=2).trace
    E, tips = _reference_trace(sys, sv, tr.times[-1:], digits=30)
    np.testing.assert_allclose(tr.energies[-1], E[0], rtol=0, atol=1e-8 * tr.energies[0])
    np.testing.assert_allclose([tr.boundary_v_dot[-1], tr.boundary_p_dot[-1]], tips[0],
                               rtol=1e-6)


def test_flushing_underflowed_phases_keeps_the_energies(table1, monkeypatch):
    # at (2e6, 1e-2) the fast roots are damped below the smallest normal
    # double within the run, and unflushed their phases feed the sample
    # product ~6,200 subnormal entries; zeroing them, and skipping roots
    # that are below the floor for a whole block, changes no energy beyond
    # 1e-12 E0
    sys = build_system(table1, 80, 2e6, 1e-2)
    sv = hat_initial_condition(table1, 80, 0.5)
    E = modal_trace(sys, sv, 0.1).trace.energies
    monkeypatch.setattr(simulate, "PHASE_FLOOR", 0.0)
    unflushed = modal_trace(sys, sv, 0.1).trace.energies
    assert E[-1] < 1e-40 * E[0]
    np.testing.assert_allclose(E, unflushed, rtol=0, atol=1e-12 * unflushed[0])


def test_modal_trace_does_not_depend_on_blas_threads():
    # the designed pair, and an out-of-box pair of the point_check benchmark
    # (seed 2); the eigenvalue reduction, the coefficient corrections and
    # the sample products all run on numpy's OpenBLAS held to one thread, and
    # the sums behind the closed-form vectors are einsum loops, so the figures
    # agree bit for bit
    code = (
        "import json, warnings\n"
        "import numpy as np\n"
        "from piezobeam import TABLE1\n"
        "from piezobeam.orfd import build_system, hat_initial_condition\n"
        "from piezobeam.simulate import fit_decay, max_energy_rise, modal_trace\n"
        "warnings.simplefilter('ignore')\n"
        "state0 = hat_initial_condition(TABLE1, 80, 0.5)\n"
        "tr = modal_trace(build_system(TABLE1, 80, 1e6, 1e9), state0, 0.1, 2001).trace\n"
        "out = modal_trace(build_system(TABLE1, 80, 2956772.666137572, 75891417772.03827),\n"
        "                  state0, 0.1, 2001).trace.energies\n"
        "print(json.dumps([[fit_decay(tr).sigma_fit,\n"
        "                   float(np.abs(tr.boundary_v_dot).max())],\n"
        "                  [out[-1] / out[0], max_energy_rise(out)]]))\n"
    )
    one, two = run_under_blas_threads(code)
    assert one == two


@pytest.mark.parametrize("kwargs", [dict(T=0.0), dict(T=-1.0),
                                    dict(T=np.nan), dict(T=1.0, samples=1),
                                    dict(T=1.0, samples=2.5),
                                    # petabytes: refused by the memory estimate
                                    dict(T=1.0, samples=10**12)])
def test_modal_rejects_bad_arguments(toy, kwargs):
    sys = build_system(toy, 5, 0.1, 0.1)
    sv = hat_initial_condition(toy, 5, 0.5)
    with pytest.raises(DomainError):
        modal_trace(sys, sv, **kwargs)


# ---------------------------------------------------------------- fit_decay

def _synthetic_trace(sigma, T=1.0, samples=101, scale=5.0):
    t = np.linspace(0.0, T, samples)
    E = scale * np.exp(-sigma * t)
    z = np.zeros(samples)
    return EnergyTrace(times=t, energies=E, boundary_v_dot=z, boundary_p_dot=z)


def test_fit_recovers_pure_exponential():
    fit = fit_decay(_synthetic_trace(3.0))
    np.testing.assert_allclose(fit.sigma_fit, 3.0, rtol=1e-12)
    np.testing.assert_allclose(fit.r_squared, 1.0, atol=1e-12)
    assert not fit.truncated
    lo, hi = fit.window
    assert 0.1 - 1e-12 <= lo and hi <= 0.9 + 1e-12


def test_fit_ignores_samples_outside_window():
    tr = _synthetic_trace(2.0)
    spiked = tr.energies.copy()
    spiked[:3] *= 50.0       # before the 10% mark
    spiked[-3:] *= 1e-4      # after the 90% mark
    tr2 = EnergyTrace(times=tr.times, energies=spiked,
                      boundary_v_dot=tr.boundary_v_dot,
                      boundary_p_dot=tr.boundary_p_dot)
    fit = fit_decay(tr2)
    np.testing.assert_allclose(fit.sigma_fit, 2.0, rtol=1e-12)


def test_fit_truncates_at_positivity_floor():
    # sigma = 40 over [0, 1] bottoms out near 4e-18 relative, far below the
    # 1e3*eps floor, so the tail must be dropped and flagged
    fit = fit_decay(_synthetic_trace(40.0, samples=2001))
    assert fit.truncated
    np.testing.assert_allclose(fit.sigma_fit, 40.0, rtol=1e-10)
    assert fit.window[1] < 0.9


def test_fit_rejects_thin_windows():
    with pytest.raises(DomainError, match="need >= 10"):
        fit_decay(_synthetic_trace(1.0, samples=8), window=(0.0, 1.0))
    with pytest.raises(DomainError):
        fit_decay(_synthetic_trace(1.0), window=(0.5, 0.500001))


def test_fit_rejects_zero_start_and_bad_window():
    tr = _synthetic_trace(1.0)
    dead = EnergyTrace(times=tr.times, energies=np.zeros_like(tr.energies),
                       boundary_v_dot=tr.boundary_v_dot,
                       boundary_p_dot=tr.boundary_p_dot)
    with pytest.raises(DomainError, match="zero energy"):
        fit_decay(dead)
    with pytest.raises(DomainError, match="window"):
        fit_decay(tr, window=(0.9, 0.1))
    with pytest.raises(DomainError, match="window"):
        fit_decay(tr, window=(-0.1, 0.5))


# ----------------------------------------------------------- envelope_check

def test_envelope_accepts_conforming_trace():
    # E = M * E0 * exp(-s t) with a strictly faster actual decay passes with
    # positive margin everywhere except t = 0 against the M = 2 envelope
    tr = _synthetic_trace(3.0)
    rep = envelope_check(tr, sigma=2.0, bigM=2.0)
    assert rep.ok
    assert rep.min_margin >= 0.5 - 1e-12   # worst case at t = 0: 1 - 1/M
    assert rep.t_at_min == 0.0


def test_envelope_flags_violation_with_location():
    tr = _synthetic_trace(1.0)
    bumped = tr.energies.copy()
    bumped[60] *= 10.0
    tr2 = EnergyTrace(times=tr.times, energies=bumped,
                      boundary_v_dot=tr.boundary_v_dot,
                      boundary_p_dot=tr.boundary_p_dot)
    rep = envelope_check(tr2, sigma=1.0, bigM=2.0)
    assert not rep.ok
    assert rep.min_margin < 0.0
    np.testing.assert_allclose(rep.t_at_min, tr.times[60], rtol=1e-12)


def test_envelope_exact_boundary_is_accepted():
    tr = _synthetic_trace(2.0)
    rep = envelope_check(tr, sigma=2.0, bigM=1.0)
    assert rep.ok
    assert abs(rep.min_margin) <= 1e-12
