import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from piezobeam import TABLE1, MaterialParams, derive_constants

# Soft nonstiff constants: both wave speeds order one, so midpoint stepping
# resolves everything and convergence/dissipation properties are testable.
TOY = MaterialParams(L=1.0, rho=1.0, mu=1.0, alpha=2.0, gamma=0.1, beta=1.0)


@pytest.fixture(scope="session")
def table1():
    return TABLE1


@pytest.fixture(scope="session")
def consts1():
    return derive_constants(TABLE1)


@pytest.fixture(scope="session")
def toy():
    return TOY


@pytest.fixture(scope="session")
def toy_consts():
    return derive_constants(TOY)


def random_material(rng: np.random.Generator) -> MaterialParams:
    """Log-uniform material draw keeping a hyperbolicity margin."""
    alpha = 10.0 ** rng.uniform(-2, 10)
    beta = 10.0 ** rng.uniform(-2, 13)
    gamma = rng.uniform(0.05, 0.95) * np.sqrt(alpha / beta) * rng.choice([-1.0, 1.0])
    return MaterialParams(
        L=10.0 ** rng.uniform(-1, 1),
        rho=10.0 ** rng.uniform(-2, 5),
        mu=10.0 ** rng.uniform(-8, 2),
        alpha=alpha,
        gamma=float(gamma),
        beta=beta,
    )


def dense_blocks(sys):
    """M, A_h and B of `sys` as dense (N+1)x(N+1) arrays.

    Assembled from the literal formulas of the `orfd` docstring,
    M = (1/4) tridiag(1, 2, 1) and A_h = (1/h^2) tridiag(-1, 2, -1) with
    last diagonal entries 1/4 and 1/h^2, and B = e_{N+1} e_{N+1}^T / h, not
    from the system's stencils, so dense reference checks stay independent
    of them.
    """
    n = sys.N + 1
    ones = np.ones(n - 1)
    M = 0.25 * (np.diag(np.full(n, 2.0)) + np.diag(ones, 1) + np.diag(ones, -1))
    M[-1, -1] = 0.25
    Ah = (np.diag(np.full(n, 2.0)) - np.diag(ones, 1) - np.diag(ones, -1)) / sys.h**2
    Ah[-1, -1] = 1.0 / sys.h**2
    B = np.zeros((n, n))
    B[-1, -1] = 1.0 / sys.h
    return M, Ah, B


def energy_basis(sys):
    """S with z = S x the energy coordinates of nodal states x, the basis of
    `sys.A_E`: S = diag(L_A^T, L_M^T) for the dense Cholesky factors
    C1 (x) M = L_M L_M^T and C2 (x) A_h = L_A L_A^T of `dense_blocks`, so
    reference checks in z stay independent of the system's own factors.
    Its tip rows are sqrt(c_a / 4(N+1)) times the tip rates."""
    M, Ah, _ = dense_blocks(sys)
    L_M = np.linalg.cholesky(np.kron(sys.C1, M))
    L_A = np.linalg.cholesky(np.kron(sys.C2, Ah))
    return scipy.linalg.block_diag(L_A.T, L_M.T)


BLAS_THREADS = ("1", "2")


def run_under_blas_threads(code: str) -> list:
    """stdout JSON of `code`, run in a fresh interpreter at each of
    BLAS_THREADS OpenBLAS threads with this checkout's src/ on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in BLAS_THREADS:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        runs.append(json.loads(out.stdout))
    return runs
