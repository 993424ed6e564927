"""Small dense helpers: singular values and the guarded Newton step.

Singular values come from LAPACK through numpy (``np.linalg.svd``).
"""

from __future__ import annotations

import numpy as np

from .errors import SingularJacobianError

# relative floor under which a matrix counts as numerically singular
SINGULAR_RTOL = 1e-10


def singular_values(a) -> np.ndarray:
    """Singular values of a real matrix, in descending order."""
    return np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)


def newton_step(jac, res, message: str) -> np.ndarray:
    """The Newton step -jac^-1 res, by LU with partial pivoting.

    A Jacobian with sigma_min < SINGULAR_RTOL*sigma_max (the zero matrix
    included) raises SingularJacobianError carrying sigma_min, with
    `message` and sigma_min as its text.
    """
    sv = singular_values(jac)
    if sv[0] == 0.0 or sv[-1] < SINGULAR_RTOL * sv[0]:
        raise SingularJacobianError(f"{message} (sigma_min {sv[-1]:.3e})",
                                    sigma_min=float(sv[-1]))
    return np.linalg.solve(jac, -res)
