"""Reference re-binning kernel: the comparison-sort ``bin_by_hop``, frozen.

This is :meth:`repro.core.routing.base.RoutingScheme.bin_by_hop` as it
stood before hop keys came from per-rank tables: the hop column is
``next_hop_vec``'s ``int64`` output and the grouping is a stable
comparison sort over it.  ``tests/core/test_bin_by_hop.py`` holds the
product kernel to this one with ``array_equal`` on all four outputs.
Only the ``self`` receiver became the explicit ``scheme`` argument.
"""

from __future__ import annotations

import numpy as np


def bin_by_hop(scheme, cur: int, dests: np.ndarray):
    """``(hops, order, starts, ends)`` exactly as the kernel must return them."""
    hops = scheme.next_hop_vec(cur, dests)
    n = len(hops)
    one = np.ones(1, dtype=np.int64)
    if n == 0:
        return hops, None, np.empty(0, np.int64), np.empty(0, np.int64)
    if hops[0] == hops[n - 1] and (hops == hops[0]).all():
        return hops, None, 0 * one, n * one
    order = np.argsort(hops, kind="stable")
    hops = hops[order]
    boundaries = np.flatnonzero(hops[1:] != hops[:-1]) + 1
    starts = np.concatenate((0 * one, boundaries))
    ends = np.concatenate((boundaries, n * one))
    return hops, order, starts, ends
