import numpy as np
import pytest
from scipy.linalg import block_diag

from piezobeam import (DomainError, build_system, discrete_energy, hat_initial_condition,
                      integrate, modal_trace, perturbation_functional)

from conftest import TOY, random_material


def dense_energy_reference(sys, state):
    """Energy via the explicit Kronecker quadratic forms."""
    n = sys.N + 1
    y, u = state[:2 * n], state[2 * n:]
    KM = np.kron(sys.C1, sys.M_mat)
    KA = np.kron(sys.C2, sys.Ah_mat)
    return 0.5 * sys.h * (u @ KM @ u + y @ KA @ y)


def test_matrices_literal_small(toy):
    sys = build_system(toy, 2, 0.7, 0.3)
    assert sys.h == pytest.approx(1.0 / 3.0, rel=1e-15)
    M_want = np.array([[0.5, 0.25, 0.0], [0.25, 0.5, 0.25], [0.0, 0.25, 0.25]])
    A_want = 9.0 * np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    B_want = np.zeros((3, 3))
    B_want[2, 2] = 3.0
    np.testing.assert_allclose(sys.M_mat, M_want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(sys.Ah_mat, A_want, rtol=1e-14)
    np.testing.assert_allclose(sys.B_mat, B_want, rtol=0, atol=0)
    assert sys.C1[0, 0] == toy.rho and sys.C1[1, 1] == toy.mu
    assert sys.C2[0, 1] == sys.C2[1, 0] == -toy.gamma * toy.beta
    assert sys.C3[0, 0] == 0.7 and sys.C3[1, 1] == 0.3


def nodal_generator_reference(sys):
    """First-order generator on [v, p, v_dot, p_dot] from explicit inverses."""
    n = sys.N + 1
    Minv = np.linalg.inv(sys.M_mat)
    ref = np.zeros((4 * n, 4 * n))
    ref[:2 * n, 2 * n:] = np.eye(2 * n)
    ref[2 * n:, :2 * n] = -np.kron(np.linalg.inv(sys.C1) @ sys.C2, Minv @ sys.Ah_mat)
    ref[2 * n:, 2 * n:] = -np.kron(np.linalg.inv(sys.C1) @ sys.C3, Minv @ sys.B_mat)
    return ref


def test_generator_blocks_match_reference(table1, toy):
    # A_E = [[0, G^T], [-G, -D]] with G = L_M^-1 L_A and D = L_M^-1 (C3 (x) B) L_M^-T,
    # from the full-size Cholesky factors and explicit inverses
    rng = np.random.default_rng(63)
    for params, N, xi in ((toy, 5, (1.3, 0.2)), (table1, 7, (1e6, 1e9)),
                          (random_material(rng), 6, (2.0, 3.0))):
        sys = build_system(params, N, *xi)
        m = 2 * (N + 1)
        L_M = np.linalg.cholesky(np.kron(sys.C1, sys.M_mat))
        L_A = np.linalg.cholesky(np.kron(sys.C2, sys.Ah_mat))
        L_M_inv = np.linalg.inv(L_M)
        G_ref = L_M_inv @ L_A
        D_ref = L_M_inv @ np.kron(sys.C3, sys.B_mat) @ L_M_inv.T
        A = sys.A_E
        assert not A[:m, :m].any()
        np.testing.assert_allclose(A[:m, m:], G_ref.T, rtol=0, atol=1e-12 * np.abs(G_ref).max())
        np.testing.assert_allclose(A[m:, :m], -G_ref, rtol=0, atol=1e-12 * np.abs(G_ref).max())
        np.testing.assert_allclose(A[m:, m:], -D_ref, rtol=0, atol=1e-12 * np.abs(D_ref).max())
        # the damping acts on the two tip entries only, at rates
        # xi_a (M^-1)_NN / (c_a h)
        tips = [N, m - 1]
        off = np.delete(np.arange(m), tips)
        assert not A[m:, m:][off].any() and not A[m:, m:][:, off].any()
        rates = np.array(xi) * np.linalg.inv(sys.M_mat)[N, N] / (np.diag(sys.C1) * sys.h)
        np.testing.assert_allclose(-np.diag(A[m:, m:])[tips], rates, rtol=1e-12)


def test_energy_generator_matches_definition(table1, toy):
    # z = S x with S = diag(L_A^T, L_M^T) from the full-size Cholesky factors:
    # A_E S = S A_ref for the nodal generator A_ref of the second-order
    # system, E_h = (h/2)|z|^2, A_E + A_E^T <= 0, and the blockwise maps to
    # and from z agree with S and its inverse
    rng = np.random.default_rng(64)
    for params, N, xi in ((toy, 5, (1.3, 0.2)), (table1, 7, (1e6, 1e9)),
                          (random_material(rng), 6, (2.0, 3.0))):
        sys = build_system(params, N, *xi)
        L_M = np.linalg.cholesky(np.kron(sys.C1, sys.M_mat))
        L_A = np.linalg.cholesky(np.kron(sys.C2, sys.Ah_mat))
        S = block_diag(L_A.T, L_M.T)
        A_ref = nodal_generator_reference(sys)
        lhs, rhs = sys.A_E @ S, S @ A_ref
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * np.abs(rhs).max())
        states = rng.standard_normal((5, 4 * (N + 1)))
        for state in states:
            z = S @ state
            assert discrete_energy(sys, state) == pytest.approx(0.5 * sys.h * z @ z, rel=1e-12)
        zs = states @ S.T
        np.testing.assert_allclose(sys.to_energy_coords(states), zs,
                                   rtol=0, atol=1e-13 * np.abs(zs).max())
        np.testing.assert_allclose(sys.to_energy_coords(states[0]), zs[0],
                                   rtol=0, atol=1e-13 * np.abs(zs).max())
        np.testing.assert_allclose(sys.from_energy_coords(zs), states, rtol=0, atol=1e-9)
        sym = sys.A_E + sys.A_E.T
        assert np.linalg.eigvalsh(sym).max() <= 1e-14 * np.abs(sym).max()


@pytest.mark.parametrize("bad", [
    dict(N=1), dict(N=0), dict(N=-3), dict(N=2.5),
    dict(xi1=-1.0), dict(xi2=-1e-9), dict(xi1=float("nan")), dict(xi2=float("inf")),
])
def test_build_system_rejects(toy, bad):
    kwargs = dict(N=8, xi1=1.0, xi2=1.0)
    kwargs.update(bad)
    with pytest.raises(DomainError):
        build_system(toy, **kwargs)


GAIN_GRID = [0.0, 1e-8, 0.5, 1e6, 1e9, 1e12]


def test_with_gains_matches_build_system(table1, toy):
    for params, N in ((table1, 12), (toy, 6)):
        base = build_system(params, N, 0.5, 0.7)
        for xi1 in GAIN_GRID:
            for xi2 in GAIN_GRID:
                got = base.with_gains(xi1, xi2)
                want = build_system(params, N, xi1, xi2)
                assert (got.xi1, got.xi2) == (want.xi1, want.xi2)
                np.testing.assert_array_equal(got.C3, want.C3)
                # bit for bit, signed zeros included
                assert got.A_E.tobytes() == want.A_E.tobytes()
                for name in ("L_m", "L_Ah", "L_C2", "G_factors"):
                    assert getattr(got, name) is getattr(base, name)
        assert base.A_E.tobytes() == build_system(params, N, 0.5, 0.7).A_E.tobytes()


@pytest.mark.parametrize("gains", [(float("nan"), 1.0), (1.0, float("nan")),
                                   (-1.0, 1.0), (1.0, -1e-9), (float("inf"), 1.0)])
def test_with_gains_rejects_like_build_system(toy, gains):
    with pytest.raises(DomainError) as built:
        build_system(toy, 8, *gains)
    with pytest.raises(DomainError) as replaced:
        build_system(toy, 8, 1.0, 1.0).with_gains(*gains)
    assert str(replaced.value) == str(built.value)


def test_energy_matches_dense_reference(table1, toy):
    rng = np.random.default_rng(65)
    for params, N in ((table1, 7), (toy, 11)):
        sys = build_system(params, N, 2.0, 3.0)
        for _ in range(20):
            state = rng.standard_normal(4 * (N + 1))
            E = discrete_energy(sys, state)
            assert E == pytest.approx(dense_energy_reference(sys, state), rel=1e-12)
            assert E > 0.0  # the quadratic form is positive definite


def test_energy_zero_state(toy):
    sys = build_system(toy, 4, 0.0, 0.0)
    assert discrete_energy(sys, np.zeros(20)) == 0.0


def test_hat_profile_geometry(table1):
    state = hat_initial_condition(table1, 80, 0.5)
    n = 81
    assert state.shape == (4 * n,)
    v, p = state[:n], state[n:2 * n]
    peak = 40 - 1  # nearest node to the midpoint is node 40; array is 1-based nodes
    assert v[peak - 1] < v[peak] == 1.0 > v[peak + 1]
    assert v[-1] == 0.0
    np.testing.assert_array_equal(v, p)
    assert not state[2 * n:].any()
    # piecewise linear up and down: second differences vanish off the peak
    d2 = np.diff(np.concatenate(([0.0], v)), 2)
    offpeak = np.delete(np.arange(d2.size), peak)
    np.testing.assert_allclose(d2[offpeak], 0.0, atol=1e-13)


def test_hat_energy_closed_form(table1, toy):
    # with v = p the initial energy is (alpha + beta - 2*gamma*beta)/2 times
    # the exact Dirichlet integral of the unit hat: 1/xm + 1/(L - xm)
    for params, N, frac in ((table1, 80, 0.5), (toy, 7, 0.3), (table1, 40, 0.25)):
        n = N + 1
        state = hat_initial_condition(params, N, frac)
        sys = build_system(params, N, 0.0, 0.0)
        m = int(round(frac * n))
        xm = m * (params.L / n)
        coeff = 0.5 * (params.alpha + params.beta - 2.0 * params.gamma * params.beta)
        want = coeff * (1.0 / xm + 1.0 / (params.L - xm))
        assert discrete_energy(sys, state) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("frac", [0.0, 1.0, 1e-9, 0.9999999, -0.5, float("nan")])
def test_hat_rejects_boundary_peak(table1, frac):
    with pytest.raises(DomainError):
        hat_initial_condition(table1, 80, frac)


def test_perturbation_bound_exact(table1, toy, consts1, toy_consts):
    # |F| <= L*eta*E holds exactly for the discrete forms: the continuous
    # Hoelder/Young chain goes through because both sides are the same
    # midpoint quadratures
    rng = np.random.default_rng(67)
    for params, consts, N in ((table1, consts1, 17), (toy, toy_consts, 9)):
        sys = build_system(params, N, 1.0, 1.0)
        bound = params.L * consts.eta
        for _ in range(300):
            state = rng.standard_normal(4 * (N + 1)) * 10.0 ** rng.uniform(-3, 3)
            F = perturbation_functional(sys, state, params)
            E = discrete_energy(sys, state)
            assert abs(F) <= bound * E * (1.0 + 1e-12) + 1e-300


def test_perturbation_functional_structure(table1):
    sys = build_system(table1, 10, 0.0, 0.0)
    state = hat_initial_condition(table1, 10, 0.5)
    # no velocities, no functional
    assert perturbation_functional(sys, state, table1) == 0.0
    # linear in the rates
    n = 11
    rng = np.random.default_rng(68)
    rates = rng.standard_normal(2 * n)
    state[2 * n:] = rates
    F1 = perturbation_functional(sys, state, table1)
    state[2 * n:] = 2.0 * rates
    assert perturbation_functional(sys, state, table1) == pytest.approx(2.0 * F1, rel=1e-12)


@pytest.mark.parametrize("size", [0, 43, 48, 45])
def test_perturbation_functional_rejects_wrong_length(table1, size):
    # N=10 states have 4*11 = 44 entries; 48 = 4*12 is a state of N=11
    sys = build_system(table1, 10, 0.0, 0.0)
    with pytest.raises(DomainError, match="expected \\(44,\\)"):
        perturbation_functional(sys, np.zeros(size), table1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("use", [
    lambda sys, s, p: integrate(sys, s, 1e-2, 1e-3),
    lambda sys, s, p: modal_trace(sys, s, 1e-2),
    lambda sys, s, p: perturbation_functional(sys, s, p),
], ids=["integrate", "modal_trace", "perturbation_functional"])
def test_state_consumers_reject_non_finite_entries(toy, use, bad):
    # the state is refused up front, not blamed on the eigensolve, on a
    # step, or returned as a NaN functional
    sys = build_system(toy, 6, 0.5, 0.7)
    state = hat_initial_condition(toy, 6, 0.5)
    state[9] = bad
    with pytest.raises(DomainError, match="non-finite entries, the first at index 9"):
        use(sys, state, toy)


@pytest.mark.filterwarnings("ignore:dt=.*does not resolve:RuntimeWarning")
def test_dissipation_identity_along_midpoint_run(toy):
    # for the midpoint scheme the discrete bleed identity is algebraically
    # exact at the averaged state: E_{k+1} - E_k = -dt*(xi1*avg(vdot_L)^2
    # + xi2*avg(pdot_L)^2)
    N, dt = 8, 1e-3
    sys = build_system(toy, N, 0.5, 0.7)
    state0 = hat_initial_condition(toy, N, 0.5)
    res = integrate(sys, state0, 50 * dt, dt, keep_states=True)
    E = res.trace.energies
    n = N + 1
    E0 = E[0]
    for k in range(50):
        avg = 0.5 * (res.states[k] + res.states[k + 1])
        bleed = dt * (sys.xi1 * avg[3 * n - 1] ** 2 + sys.xi2 * avg[4 * n - 1] ** 2)
        assert E[k + 1] - E[k] == pytest.approx(-bleed, abs=5e-13 * E0)


@pytest.mark.filterwarnings("ignore:dt=.*does not resolve:RuntimeWarning")
def test_dissipation_identity_stiff_global(table1):
    # realistic constants, damped run: the global energy balance closes to
    # roundoff-transport level
    N, dt, steps = 12, 1e-8, 100
    sys = build_system(table1, N, 1e6, 1e9)
    state0 = hat_initial_condition(table1, N, 0.5)
    res = integrate(sys, state0, steps * dt, dt, keep_states=True)
    E = res.trace.energies
    n = N + 1
    bleed = 0.0
    for k in range(steps):
        avg = 0.5 * (res.states[k] + res.states[k + 1])
        bleed += dt * (sys.xi1 * avg[3 * n - 1] ** 2 + sys.xi2 * avg[4 * n - 1] ** 2)
    assert (E[-1] - E[0]) == pytest.approx(-bleed, abs=1e-8 * E[0])
