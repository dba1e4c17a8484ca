"""60-digit mpmath oracle for `MODAL_ENERGY` and `MODAL_TIPS` in `tests/test_simulate.py`.

Takes the float64 generator A_E from `piezobeam.orfd` and the energy
coordinates z0 = S x0 of the hat start (`hat_initial_condition`), with S
from the dense Cholesky factors of `conftest.energy_basis`, converts both
to mpmath exactly, and prints E(T)/E0 = |expm(T A_E) z0|^2 / |z0|^2 of the
builtin `table1` material at each key, and the two tip entries of
z(T) = expm(T A_E) z0 (v_dot(L) and p_dot(L), each sqrt(c_a / 4(N+1))
times the tip rate).  So it checks the propagation of
`simulate.modal_trace` (eigenvalues, closed-form eigenvectors and their
tip rates, coefficients, sampling), not the assembly of A_E, which
`tests/oracle_frozen_abscissa.py` checks independently.  A_E is
dissipative, so E(T)/E0 <= 1 for every start.

One N=8 key takes about 4 s on a 2-vCPU x86-64 VM (Intel Xeon), and the
printed digits are the same at 90 digits.  It is not collected by pytest.
Run it from the repository root:

    python3 tests/oracle_modal_energy.py                  # all keys
    python3 tests/oracle_modal_energy.py 8 8.8e5 6.8e11   # one (N, xi1, xi2)
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from piezobeam.materials import TABLE1  # noqa: E402
from piezobeam.orfd import build_system, hat_initial_condition  # noqa: E402

from conftest import energy_basis  # noqa: E402

DPS = 60
T = 0.1
KEYS = [(8, 2.718e6, 1.137e11), (8, 8.8e5, 6.8e11)]


def energy_ratio(params, N: int, xi1: float, xi2: float) -> tuple[mp.mpf, list]:
    """E(T)/E0 and the two tip entries of z(T) at one key."""
    sys_ = build_system(params, N, xi1, xi2)
    A = mp.matrix(sys_.A_E.tolist())
    z0 = mp.matrix((energy_basis(sys_) @ hat_initial_condition(params, N, 0.5)).tolist())
    zT = mp.expm(mp.mpf(T) * A) * z0
    ratio = mp.fsum(x**2 for x in zT) / mp.fsum(x**2 for x in z0)
    return ratio, [zT[i] for i in sys_.tip_index]


def main(argv: list[str]) -> int:
    if argv and len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    keys = [(int(argv[0]), float(argv[1]), float(argv[2]))] if argv else KEYS
    mp.mp.dps = DPS
    for N, xi1, xi2 in keys:
        t0 = time.perf_counter()
        value, tips = energy_ratio(TABLE1, N, xi1, xi2)
        print(f"({N}, {xi1:g}, {xi2:g}): E({T:g})/E0 = {mp.nstr(value, 20)}, "
              f"z tips at T = {', '.join(mp.nstr(x, 20) for x in tips)}  "
              f"[{time.perf_counter() - t0:.0f} s]", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
