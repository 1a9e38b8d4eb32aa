"""Slow, independent references for the ring layer's operator algebra.

`site_operator` embeds a single-site matrix into the ring's product space as
an explicit Kronecker chain, the construction the library's tensor-axis
primitive replaces; tests compare the library against it.
"""
from __future__ import annotations

from functools import reduce

import numpy as np


def site_operator(op: np.ndarray, site: int, dims: tuple[int, ...]) -> np.ndarray:
    """Embed a single-site operator (0-based site) into the product space."""
    factors = [
        op if k == site else np.eye(d, dtype=np.complex128)
        for k, d in enumerate(dims)
    ]
    return reduce(np.kron, factors)
