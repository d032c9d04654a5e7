"""Reference RMAT generator: the pre-bulk ``rmat_edges``, frozen verbatim.

This is :func:`repro.graph.generators.rmat_edges` as it stood before each
recursion level drew its row and column uniforms in one call and set its
bits with a shift instead of a masked ``|=``.  The property tests in
``test_generators.py`` assert the product generator returns bit-identical
edges to this one, which pins every RMAT stream (and through it every
Fig 7 and Fig 8 table) to the draws it always made.  Only the import of
``GRAPH500_PARAMS`` was rewritten to an absolute one; no other edits.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.generators import GRAPH500_PARAMS


def rmat_edges(
    scale: int,
    num_edges: int,
    rng: np.random.Generator,
    params: Tuple[float, float, float, float] = GRAPH500_PARAMS,
    noise: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """RMAT edge sample: ``num_edges`` edges over ``2**scale`` vertices.

    Vectorized over edges: each of the ``scale`` recursion levels draws
    one uniform array and picks the quadrant per edge.  ``noise`` (aka
    "smoothing") perturbs the quadrant probabilities per level, as
    suggested by Seshadhri et al. to avoid degenerate Kronecker artifacts;
    0 reproduces classic RMAT.
    """
    a, b, c, d = params
    if not np.isclose(a + b + c + d, 1.0):
        raise ValueError(f"RMAT parameters must sum to 1, got {a + b + c + d}")
    if scale < 1:
        raise ValueError("scale must be >= 1")
    u = np.zeros(num_edges, dtype=np.int64)
    v = np.zeros(num_edges, dtype=np.int64)
    for level in range(scale):
        bit = np.int64(1) << (scale - 1 - level)
        ab = a + b  # P(upper row half)
        if noise > 0.0:
            ab *= 1.0 + rng.uniform(-noise, noise)
            ab = min(max(ab, 1e-9), 1.0 - 1e-9)
        r_row = rng.random(num_edges)
        r_col = rng.random(num_edges)
        go_down = r_row >= ab
        # Column choice conditioned on the row half:
        #   P(right | up) = b/(a+b),  P(right | down) = d/(c+d).
        right_if_up = r_col >= a / (a + b)
        right_if_down = r_col >= c / (c + d)
        go_right = np.where(go_down, right_if_down, right_if_up)
        u[go_down] |= bit
        v[go_right] |= bit
    return u, v
