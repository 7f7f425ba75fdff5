"""Fundamental scalar types shared across the framework.

The C++ SYgraph uses ``vertex_t``, ``edge_t`` and ``weight_t`` template
parameters; we pin concrete NumPy dtypes that match the framework's defaults
(32-bit vertex/edge ids, 32-bit float weights) and expose them under the
same names so algorithm code reads like the paper's listings.
"""

from __future__ import annotations

import numpy as np

#: Vertex identifier type (paper: ``vertex_t``).
vertex_t = np.uint32

#: Edge identifier type (paper: ``edge_t``).
edge_t = np.uint32

#: Edge weight type (paper: ``weight_t``).
weight_t = np.float32


def bitmap_dtype(bits: int) -> np.dtype:
    """Return the unsigned integer dtype backing a bitmap of ``bits`` bits."""
    if bits == 32:
        return np.dtype(np.uint32)
    if bits == 64:
        return np.dtype(np.uint64)
    raise ValueError(f"bitmap word size must be 32 or 64 bits, got {bits}")
