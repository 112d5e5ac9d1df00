"""Dense reference forms shared by the test modules."""

import numpy as np


def multipole_kernel(grid, k: int) -> np.ndarray:
    """Dense pair kernel min(r_i,r_j)^k / max(r_i,r_j)^{k+1}."""
    r = grid.nodes
    mx = np.maximum.outer(r, r)
    if k == 0:
        return 1.0 / mx
    return np.minimum.outer(r, r) ** k / mx ** (k + 1)
