"""Small dense helpers: singular values for regularity checks.

Singular values come from LAPACK through numpy (``np.linalg.svd``).
"""

from __future__ import annotations

import numpy as np

# relative floor under which a matrix counts as numerically singular
SINGULAR_RTOL = 1e-10


def singular_values(a) -> np.ndarray:
    """Singular values of a real matrix, in descending order."""
    return np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)


def is_numerically_singular(sv: np.ndarray, rtol: float = SINGULAR_RTOL) -> bool:
    """Classify a matrix by its singular values: sigma_min < rtol*sigma_max."""
    if sv[0] == 0.0:
        return True
    return sv[-1] < rtol * sv[0]
