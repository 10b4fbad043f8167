"""specexact: numerical laboratory for spectrally exact operator approximation.

Builds finite truncations of infinite operator matrices and singular
differential operators, computes spectra and resolvent norms, classifies
eigenvalue limit points as true eigenvalues versus spectral pollution, and
checks computable sufficient conditions for spectrally exact approximation.
"""

__version__ = "0.1.0"

from . import numerics  # noqa: E402,F401  first, so SciPy's LAPACK loads before numpy (see there)
