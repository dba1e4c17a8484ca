import mpmath
import numpy as np
import pytest
import scipy.linalg

from piezobeam import (TABLE1, DomainError, build_system, discrete_energy, hat_initial_condition,
                      integrate, modal_trace, orfd, perturbation_functional)

from conftest import TOY, dense_blocks, energy_basis, random_material


def dense_energy_reference(sys, state):
    """Energy via the explicit Kronecker quadratic forms."""
    n = sys.N + 1
    y, u = state[:2 * n], state[2 * n:]
    M, Ah, _ = dense_blocks(sys)
    KM = np.kron(sys.C1, M)
    KA = np.kron(sys.C2, Ah)
    return 0.5 * sys.h * (u @ KM @ u + y @ KA @ y)


def test_matrices_literal_small(toy):
    sys = build_system(toy, 2, 0.7, 0.3)
    assert sys.h == pytest.approx(1.0 / 3.0, rel=1e-15)
    M_want = np.array([[0.5, 0.25, 0.0], [0.25, 0.5, 0.25], [0.0, 0.25, 0.25]])
    A_want = 9.0 * np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    B_want = np.zeros((3, 3))
    B_want[2, 2] = 3.0
    tridiag = lambda d, e: np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    np.testing.assert_allclose(tridiag(*sys.M_stencil), M_want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(tridiag(*sys.Ah_stencil), A_want, rtol=1e-14)
    # the reference blocks of the other tests are the same matrices
    for got, want in zip(dense_blocks(sys), (M_want, A_want, B_want)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    assert sys.C1[0, 0] == toy.rho and sys.C1[1, 1] == toy.mu
    assert sys.C2[0, 1] == sys.C2[1, 0] == -toy.gamma * toy.beta
    assert sys.xi1 == 0.7 and sys.xi2 == 0.3
    # (M^-1)_NN = 4 (N+1) = 12 and h = 1/3
    np.testing.assert_allclose(sys.tip_rates, 36.0 * np.array([0.7, 0.3]) / np.diag(sys.C1),
                               rtol=1e-15)


@pytest.mark.parametrize("N", [2, 8, 80, 320])
def test_mesh_factors_are_the_closed_form(table1, N):
    # The mesh factor L_m^-1 L_Ah of G is lower triangular with entries
    # (2/h) [delta_ij + 2 (-1)^(i-j) w_j / w_i] for j <= i, 1-based, with
    # w_j = sqrt(j (j+1)) for j < n = N+1 and w_n = sqrt(n).  Every entry is
    # within 16 eps times the largest entry of its 40-digit value (measured
    # 6.4e-16 at N=80 and 1.8e-15 at N=320), and the upper triangle is
    # exactly zero.
    sys = build_system(table1, N, 1e6, 1e9)
    mesh = sys.G_factors[1]
    n = N + 1
    assert mesh.shape == (n, n) and not np.triu(mesh, 1).any()
    tol = 16 * np.finfo(float).eps * np.abs(mesh).max()
    with mpmath.workdps(40):
        w = [mpmath.sqrt(j * (j + 1)) for j in range(1, n)] + [mpmath.sqrt(n)]
        scale = 4 * n / mpmath.mpf(table1.L)  # 4/h
        for i in range(n):
            assert abs(mesh[i, i] - scale / 2) <= tol
            inv = (-1) ** i * scale / w[i]
            for j, got in enumerate(mesh[i, :i].tolist()):
                assert abs(got - (-1) ** j * w[j] * inv) <= tol


@pytest.mark.parametrize("N", [2, 8, 80])
@pytest.mark.parametrize("params", [pytest.param(TOY, id="toy"),
                                    pytest.param(TABLE1, id="table1")])
def test_closed_form_modes_match_numerical_eigensolves(params, N):
    # the frequencies against the pencil (A_h, M) and sigma against the
    # singular values of G, both to 1e-13 of the largest (measured 1.6e-14);
    # the tip values Psi = R (x) psi, which carry the sine modes' M-norm
    # (n/2) cos^2(k_j h/2), against the tip row of the mesh factor's left
    # singular vectors, and their signs against the tip rates: Psi^T Im(xi)
    # is sqrt(c_a / 4n) times the tip rates, the tip entries of the energy
    # coordinates
    sys = build_system(params, N, 0.0, 0.0)
    n = N + 1
    modes = sys.modes
    M, Ah, _ = dense_blocks(sys)
    w = scipy.linalg.eigh(Ah, M, eigvals_only=True)
    f = modes.sigma / np.sqrt(modes.lam)[:, None]
    np.testing.assert_allclose(f[0], f[1], rtol=4 * np.finfo(float).eps, atol=0)
    np.testing.assert_allclose(np.sqrt(w), f[0], rtol=0, atol=1e-13 * f[0, -1])
    coupling, mesh = sys.G_factors
    singular = np.linalg.svd(np.kron(coupling, mesh), compute_uv=False)
    np.testing.assert_allclose(np.sort(modes.sigma.ravel())[::-1], singular,
                               rtol=0, atol=1e-13 * singular[0])
    R = np.sqrt(np.diag(sys.C1))[:, None] * modes.T
    np.testing.assert_allclose(R.T @ R, np.eye(2), rtol=0, atol=4 * np.finfo(float).eps)
    U = np.linalg.svd(mesh)[0]  # descending singular values: mode j is column n-1-j
    np.testing.assert_allclose(np.abs(modes.tip), np.abs(R)[:, :, None] * np.abs(U[-1, ::-1]),
                               rtol=0, atol=1e-13)
    state = np.random.default_rng(N).standard_normal(4 * n)
    z = energy_basis(sys) @ state
    tips = modes.tip.reshape(2, 2 * n) @ sys.to_modes(state).imag.ravel()
    np.testing.assert_allclose(tips, np.sqrt(np.diag(sys.C1) / (4 * n)) * state[sys.tip_index],
                               rtol=0, atol=1e-13 * np.linalg.norm(z[2 * n:]))


@pytest.mark.parametrize("N", [80, 20000])
def test_mode_maps_round_trip_and_keep_the_energy(table1, N):
    # (h/2)|xi|^2 of the mode coordinates is the cell quadrature
    # discrete_energy, and to_modes inverts from_modes, to 1e-13 relative at
    # both sizes (measured: 1.3e-14 and 2.4e-14 at N=20000).  The maps are
    # FFTs of length 4(N+1), so no N x N array is formed.
    sys = build_system(table1, N, 1e6, 1e9)
    n = N + 1
    rng = np.random.default_rng(3)
    hat = hat_initial_condition(table1, N, 0.3)
    for state in (rng.standard_normal(4 * n), np.r_[hat[:2 * n], hat[::-1][:2 * n]]):
        xi = sys.to_modes(state)
        assert xi.shape == (2, n)
        np.testing.assert_allclose(0.5 * sys.h * np.vdot(xi, xi).real,
                                   discrete_energy(sys, state), rtol=1e-13, atol=0)
    xi = rng.standard_normal((3, 2, n)) + 1j * rng.standard_normal((3, 2, n))
    back = sys.to_modes(sys.from_modes(xi))
    assert back.shape == xi.shape
    assert np.linalg.norm(back - xi) <= 1e-13 * np.linalg.norm(xi)


def nodal_generator_reference(sys):
    """First-order generator on [v, p, v_dot, p_dot] from explicit inverses."""
    n = sys.N + 1
    M, Ah, B = dense_blocks(sys)
    Minv = np.linalg.inv(M)
    ref = np.zeros((4 * n, 4 * n))
    ref[:2 * n, 2 * n:] = np.eye(2 * n)
    ref[2 * n:, :2 * n] = -np.kron(np.linalg.inv(sys.C1) @ sys.C2, Minv @ Ah)
    C3 = np.diag([sys.xi1, sys.xi2])
    ref[2 * n:, 2 * n:] = -np.kron(np.linalg.inv(sys.C1) @ C3, Minv @ B)
    return ref


def test_generator_blocks_match_reference(table1, toy):
    # A_E = [[0, G^T], [-G, -D]] with G = L_M^-1 L_A and D = L_M^-1 (C3 (x) B) L_M^-T,
    # from the full-size Cholesky factors and explicit inverses
    rng = np.random.default_rng(63)
    for params, N, xi in ((toy, 5, (1.3, 0.2)), (table1, 7, (1e6, 1e9)),
                          (random_material(rng), 6, (2.0, 3.0))):
        sys = build_system(params, N, *xi)
        m = 2 * (N + 1)
        M, Ah, B = dense_blocks(sys)
        L_M = np.linalg.cholesky(np.kron(sys.C1, M))
        L_A = np.linalg.cholesky(np.kron(sys.C2, Ah))
        L_M_inv = np.linalg.inv(L_M)
        G_ref = L_M_inv @ L_A
        D_ref = L_M_inv @ np.kron(np.diag([sys.xi1, sys.xi2]), B) @ L_M_inv.T
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
        rates = np.array(xi) * np.linalg.inv(M)[N, N] / (np.diag(sys.C1) * sys.h)
        np.testing.assert_allclose(-np.diag(A[m:, m:])[tips], rates, rtol=1e-12)


def test_energy_generator_matches_definition(table1, toy):
    # z = S x with S = diag(L_A^T, L_M^T) from the full-size Cholesky factors:
    # A_E S = S A_ref for the nodal generator A_ref of the second-order
    # system, E_h = (h/2)|z|^2 and A_E + A_E^T <= 0
    rng = np.random.default_rng(64)
    for params, N, xi in ((toy, 5, (1.3, 0.2)), (table1, 7, (1e6, 1e9)),
                          (random_material(rng), 6, (2.0, 3.0))):
        sys = build_system(params, N, *xi)
        S = energy_basis(sys)
        A_ref = nodal_generator_reference(sys)
        lhs, rhs = sys.A_E @ S, S @ A_ref
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * np.abs(rhs).max())
        for state in rng.standard_normal((5, 4 * (N + 1))):
            z = S @ state
            assert discrete_energy(sys, state) == pytest.approx(0.5 * sys.h * z @ z, rel=1e-12)
        sym = sys.A_E + sys.A_E.T
        assert np.linalg.eigvalsh(sym).max() <= 1e-14 * np.abs(sym).max()


@pytest.mark.parametrize("N", [8, 40])
@pytest.mark.parametrize("gains", [(0.0, 0.0), (1e6, 1e9), (8.8e5, 6.8e11), (1e12, 1e12)])
def test_energy_generator_is_j_symmetric(table1, N, gains):
    # A_E^T = J A_E J with J = diag(I, -I), bit for bit: every row of A_E has
    # the norm of its column, so balancing (dgebal) would not scale it, and
    # no row is zero off the diagonal, so it would permute nothing out.
    # The eigensolve skips dgebal on that ground.  The spectrum certificate
    # needs no norm from J A_E: it divides by generator_radius_estimate, the
    # closed-form max(||G||_2, ||D||_2) <= ||A_E||_2.
    sys = build_system(table1, N, *gains)
    A = sys.A_E
    J = np.diag(np.repeat([1.0, -1.0], 2 * sys.n_nodes))
    np.testing.assert_array_equal(A.T, J @ A @ J)
    assert np.all((A - np.diag(np.diag(A)) != 0.0).any(axis=1))


@pytest.mark.parametrize("bad", [
    dict(N=1), dict(N=0), dict(N=-3), dict(N=2.5),
    dict(xi1=-1.0), dict(xi2=-1e-9), dict(xi1=float("nan")), dict(xi2=float("inf")),
    dict(xi1=1.7e308), dict(xi2=1e307),  # finite gains whose tip rates overflow
])
def test_build_system_rejects(toy, bad):
    kwargs = dict(N=8, xi1=1.0, xi2=1.0)
    kwargs.update(bad)
    with pytest.raises(DomainError):
        build_system(toy, **kwargs)


def test_memory_budget_is_checked_where_blocks_are_allocated(toy, monkeypatch):
    # 1 MiB: the generator's 6 (4(N+1))^2 doubles fit up to N=35, and its
    # dense mesh factor is not formed before that check.  A midpoint run
    # holds only mode arrays, about 48 (N+1) doubles, and 6 doubles per
    # step, so at N=2400 a few thousand steps fit
    monkeypatch.setattr(orfd, "MEMORY_BYTES", 2**20)
    sys = build_system(toy, 40, 1.0, 1.0)
    with pytest.raises(DomainError, match="generator at N=40 needs about 1 MiB"):
        sys.A_E
    with pytest.raises(DomainError, match="generator at N=40"):
        build_system(toy, 40, 2.0, 3.0).A_E
    assert "A_E" not in sys.__dict__ and "G_factors" not in sys.__dict__
    build_system(toy, 35, 1.0, 1.0).A_E
    big = build_system(toy, 2400, 1.0, 1.0)
    state0 = hat_initial_condition(toy, 2400)
    assert integrate(big, state0, 1e-8, 1e-9).trace.energies.size == 11
    with pytest.raises(DomainError, match="midpoint run at N=2400 with 10000 steps "
                                          "needs about 1 MiB.*fewer steps"):
        integrate(big, state0, 1e-5, 1e-9)


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
    # N=10 states have 4*11 = 44 entries; 48 = 4*12 is a state of N=11.
    # discrete_energy takes the same check
    sys = build_system(table1, 10, 0.0, 0.0)
    with pytest.raises(DomainError, match="expected \\(44,\\)"):
        perturbation_functional(sys, np.zeros(size), table1)
    with pytest.raises(DomainError, match="expected \\(44,\\)"):
        discrete_energy(sys, np.zeros(size))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("use", [
    lambda sys, s, p: integrate(sys, s, 1e-2, 1e-3),
    lambda sys, s, p: modal_trace(sys, s, 1e-2),
    lambda sys, s, p: perturbation_functional(sys, s, p),
    lambda sys, s, p: discrete_energy(sys, s),
], ids=["integrate", "modal_trace", "perturbation_functional", "discrete_energy"])
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
