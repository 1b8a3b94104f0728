"""Reference for exact's walk (_Bands): the best-first heap walk.

The heap pops plans in nondecreasing cost with ties broken
lexicographically by counts. Each plan is generated once, as a child
that increments a model index at or after the last one incremented, so a
plan's cost is its left fold: costs[m] added r_m times, model by model.
The banded numpy walk behind KEEP_ALL, a screen that keeps every plan,
must yield this sequence plan for plan.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

import numpy as np


class KeepAll:
    """A screen that keeps every plan, for an unscreened search: it states
    no halfspace, so every plan is a candidate."""

    halfspaces = (np.zeros((0, 0)), np.zeros(0))

    def passes(self, plans):
        return np.ones(len(plans), dtype=bool)


KEEP_ALL = KeepAll()


def lattice_ascending(
    costs: Sequence[float], cost_cap: float
) -> Iterator[tuple[float, tuple[int, ...]]]:
    """Yields (cost, counts) over all plans with cost <= cap, in
    nondecreasing cost with ties broken lexicographically."""
    K = len(costs)
    root = (0.0, (0,) * K, 0)
    heap = [root]
    while heap:
        cost, counts, mstart = heapq.heappop(heap)
        yield cost, counts
        for m in range(mstart, K):
            child_cost = cost + costs[m]
            if child_cost <= cost_cap + 1e-9:
                child = counts[:m] + (counts[m] + 1,) + counts[m + 1 :]
                heapq.heappush(heap, (child_cost, child, m))
