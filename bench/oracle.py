"""High-precision reference spectral abscissas for the benchmark.

Assembles the ORFD generator for the builtin `table1` material directly in
mpmath arithmetic (independently of `piezobeam.orfd`) and takes the largest
real part over all eigenvalues from `mpmath.eig`.  The double-precision
generator has norm ~1e26 and an eigenvector condition ~1e13, so its LAPACK
abscissa carries a relative error near 1e-3; 40 digits leave well over ten
correct ones.

Run once from the repository root; it takes several minutes and rewrites
`bench/oracle.json`, which the benchmark reads:

    python3 bench/oracle.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from piezobeam.materials import TABLE1  # noqa: E402

DPS = 40
POINTS = [(40, 1e6, 1e9), (24, 1e6, 1e9)]
# Published 40-digit values (ROADMAP, item 1) the output is checked against.
EXPECTED = {(40, 1e6, 1e9): -177.2048312, (24, 1e6, 1e9): -177.3119749}
EXPECTED_ATOL = 5e-7  # they are quoted to 7 decimals


def generator(params, N: int, xi1: float, xi2: float) -> mp.matrix:
    """First-order generator on [v, p, v_dot, p_dot] in mpmath arithmetic."""
    n = N + 1
    h = mp.mpf(params.L) / n
    M, Ah = mp.zeros(n), mp.zeros(n)
    for i in range(n):
        M[i, i] = mp.mpf(1) / 2
        Ah[i, i] = 2 / h**2
        if i + 1 < n:
            M[i, i + 1] = M[i + 1, i] = mp.mpf(1) / 4
            Ah[i, i + 1] = Ah[i + 1, i] = -1 / h**2
    M[n - 1, n - 1] = mp.mpf(1) / 4
    Ah[n - 1, n - 1] = 1 / h**2
    Minv = mp.inverse(M)
    Minv_Ah = Minv * Ah
    Minv_B_col = [Minv[i, n - 1] / h for i in range(n)]  # B = e_n e_n^T / h

    rho, mu, alpha, gamma, beta = (mp.mpf(getattr(params, k))
                                   for k in ("rho", "mu", "alpha", "gamma", "beta"))
    C1_inv = (1 / rho, 1 / mu)
    C2 = ((alpha, -gamma * beta), (-gamma * beta, beta))
    C3 = (mp.mpf(xi1), mp.mpf(xi2))

    A = mp.zeros(4 * n)
    for i in range(2 * n):
        A[i, 2 * n + i] = 1
    for a in range(2):
        row0 = 2 * n + a * n
        for b in range(2):
            c = C1_inv[a] * C2[a][b]
            for i in range(n):
                for j in range(n):
                    A[row0 + i, b * n + j] = -c * Minv_Ah[i, j]
        for i in range(n):
            A[row0 + i, row0 + n - 1] = -C1_inv[a] * C3[a] * Minv_B_col[i]
    return A


def abscissa(params, N: int, xi1: float, xi2: float) -> mp.mpf:
    eigenvalues = mp.eig(generator(params, N, xi1, xi2), left=False, right=False)
    return max(mp.re(lam) for lam in eigenvalues)


def main() -> int:
    mp.mp.dps = DPS
    points = []
    ok = True
    for key in POINTS:
        t0 = time.perf_counter()
        value = abscissa(TABLE1, *key)
        err = abs(float(value) - EXPECTED[key])
        ok &= err <= EXPECTED_ATOL
        print(f"N={key[0]} xi=({key[1]:g}, {key[2]:g}): {mp.nstr(value, 20)} "
              f"(published {EXPECTED[key]}, |diff| {err:.1e}, "
              f"{time.perf_counter() - t0:.0f} s)", file=sys.stderr)
        points.append({"N": key[0], "xi1": key[1], "xi2": key[2],
                       "abscissa": mp.nstr(value, 25)})
    if not ok:
        print("oracle disagrees with the published values; not writing", file=sys.stderr)
        return 1
    (HERE / "oracle.json").write_text(json.dumps(
        {"material": "table1", "dps": DPS, "points": points}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
