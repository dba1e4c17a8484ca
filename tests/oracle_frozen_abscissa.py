"""40-digit mpmath oracle for `FROZEN_ABSCISSA` in `tests/test_spectrum.py`.

Assembles the first-order ORFD generator of the builtin `table1` material in
mpmath arithmetic, straight from the definitions in the docstring of
`piezobeam.orfd` and independently of that module:

    (C1 (x) M) x'' + (C2 (x) A_h) x + (C3 (x) B) x' = 0,   x = [v; p],

    A = [[0, I], [-(C1 (x) M)^-1 (C2 (x) A_h), -(C1 (x) M)^-1 (C3 (x) B)]]

on the nodal state [v, p, v_dot, p_dot].  It prints the spectral abscissa
(largest real part over all eigenvalues from `mpmath.eig`) at each frozen
key.  `spectral_abscissa` (the double-precision eigensolve of the
energy-coordinate generator A_E) matches these keys to 5.4e-9 to 1.2e-8
relative, and 40 digits leave more than ten correct ones here.  At tiny
gains they do not: at (16, 1e-4, 1e-4) a 40-digit run reads
-1.67023078799e-8 and a 70-digit one -1.67023078838e-8, so an oracle there
needs DPS of at least 70.

The pure-Python mpmath backend is slow.  On a 2-vCPU x86-64 VM (Intel
Xeon) one N=40 point took 6 min and each N=80 point about 41 min of CPU
(50 min wall with two points running side by side), so a full serial run
takes about 1.5 h.  It is not collected by pytest.  Run it from the
repository root:

    python3 tests/oracle_frozen_abscissa.py              # all frozen keys
    python3 tests/oracle_frozen_abscissa.py 40 1e6 1e9   # one (N, xi1, xi2)
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from piezobeam.materials import TABLE1  # noqa: E402

DPS = 40
KEYS = [(80, 1e6, 1e6), (40, 1e6, 1e9), (80, 1e6, 1e9)]


def kron(C, K) -> mp.matrix:
    """Kronecker product of a 2x2 nested tuple with an mpmath matrix."""
    n = K.rows
    out = mp.zeros(2 * n)
    for a in range(2):
        for b in range(2):
            for i in range(n):
                for j in range(n):
                    out[a * n + i, b * n + j] = C[a][b] * K[i, j]
    return out


def generator(params, N: int, xi1: float, xi2: float) -> mp.matrix:
    """Nodal first-order generator on [v, p, v_dot, p_dot]."""
    n = N + 1
    h = mp.mpf(params.L) / n
    M, Ah, B = mp.zeros(n), mp.zeros(n), mp.zeros(n)
    for i in range(n):
        M[i, i] = mp.mpf(1) / 2
        Ah[i, i] = 2 / h**2
        if i + 1 < n:
            M[i, i + 1] = M[i + 1, i] = mp.mpf(1) / 4
            Ah[i, i + 1] = Ah[i + 1, i] = -1 / h**2
    M[n - 1, n - 1] = mp.mpf(1) / 4
    Ah[n - 1, n - 1] = 1 / h**2
    B[n - 1, n - 1] = 1 / h

    rho, mu, alpha, gamma, beta = (mp.mpf(getattr(params, k))
                                   for k in ("rho", "mu", "alpha", "gamma", "beta"))
    zero = mp.mpf(0)
    C1 = ((rho, zero), (zero, mu))
    C2 = ((alpha, -gamma * beta), (-gamma * beta, beta))
    C3 = ((mp.mpf(xi1), zero), (zero, mp.mpf(xi2)))

    KM_inv = mp.inverse(kron(C1, M))
    stiff = KM_inv * kron(C2, Ah)
    damp = KM_inv * kron(C3, B)
    m = 2 * n
    A = mp.zeros(2 * m)
    for i in range(m):
        A[i, m + i] = 1
        for j in range(m):
            A[m + i, j] = -stiff[i, j]
            A[m + i, m + j] = -damp[i, j]
    return A


def abscissa(params, N: int, xi1: float, xi2: float) -> mp.mpf:
    eigenvalues = mp.eig(generator(params, N, xi1, xi2), left=False, right=False)
    return max(mp.re(lam) for lam in eigenvalues)


def main(argv: list[str]) -> int:
    if argv and len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    keys = [(int(argv[0]), float(argv[1]), float(argv[2]))] if argv else KEYS
    mp.mp.dps = DPS
    for N, xi1, xi2 in keys:
        t0 = time.perf_counter()
        value = abscissa(TABLE1, N, xi1, xi2)
        print(f"({N}, {xi1:g}, {xi2:g}): {mp.nstr(value, 20)}  "
              f"[{time.perf_counter() - t0:.0f} s]", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
