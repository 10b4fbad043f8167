"""The dense reference the tests check shifted-operator kernels against."""

import numpy as np

from specexact import numerics


def sigma_min(m) -> float:
    """Smallest singular value of a :class:`numerics.Section` (or of an array read as one).

    Bidiagonalization SVD, with no thresholding, so exactly-singular structure
    yields exactly 0.0.  A Hermitian tridiagonal input, in either dtype, takes
    the eigenvalue path instead: its smallest absolute eigenvalue by the
    tridiagonal symmetric solver, same accuracy class.
    """
    sec = numerics.Section.of(m)
    if sec.tridiagonal is not None:
        return float(np.min(np.abs(sec.tridiagonal.eigenvalues())))
    s = np.linalg.svd(sec.dense(), compute_uv=False)
    return float(s[-1])
