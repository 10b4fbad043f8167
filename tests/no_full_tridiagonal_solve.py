"""Run the oscillator demo and criterion 06 and fail on any full tridiagonal solve.

Usage: ``python no_full_tridiagonal_solve.py OUT_DIR``.  Every Hermitian
tridiagonal query of these windowed runs, the section norm too, is answered by
bisection, so a ``dstevd`` call (all eigenvalues of a section) makes this exit
1.  It imports whichever ``specexact`` the interpreter finds: the checkout's
``src`` with PYTHONPATH set to it, the installed package otherwise.  Prints
the orders of the ``dstevd`` calls it saw.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import specexact.cli as cli
from specexact import numerics

#: criterion 06 of the acceptance suite as a problem file: seven n = 1599 Hermitian tridiagonal sections
CRITERION_06 = {
    "kind": "schrodinger", "name": "criterion-06", "p": 0.0, "q": "x^2", "r": 0.0,
    "L_n": [float(L) for L in range(4, 11)], "m": 1600,
    "analysis": [{"op": "classify", "window": [0.0, 8.0, -1.0, 1.0], "tol": 2e-4, "quadrature_points": 32}],
}


class Counting:
    """``numerics._flapack`` with the order of each ``dstevd`` call recorded."""

    def __init__(self, lapack):
        self._lapack, self.orders = lapack, []

    def __getattr__(self, name):
        return getattr(self._lapack, name)

    def dstevd(self, d, *args, **kwargs):
        self.orders.append(d.shape[0])
        return self._lapack.dstevd(d, *args, **kwargs)


def main(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    problem = out / "criterion-06.json"
    problem.write_text(json.dumps(CRITERION_06))
    numerics._flapack = lapack = Counting(numerics._flapack)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = [cli.main(["demo", "oscillator", "--out", str(out / "osc")]),
              cli.main(["run", str(problem), "--out", str(out / "c06")])]
    print("exit codes", rc, "dstevd orders", lapack.orders)
    return int(rc != [0, 0] or bool(lapack.orders))


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
