"""Reference for run_afptas: the literal sweep of the approximation scheme.

It enumerates the full tilt grid (the tilt axis to the power of the number
of ordered label pairs), floors the per-query log-weights at every grid
point, fills the dense covering DP there and keeps the cheapest state whose
conservative certificate meets every tolerance. That costs grid^pairs x
states and suits only toy fixtures. The planner's cost-ordered search
returns the same minimum cost, and tests compare it against this sweep.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from queryplan.bounds import label_caps, ordered_pairs
from queryplan.instances import Instance, QueryPlan, plan_cost
from queryplan.planner import (
    DerivedConstants,
    DpTable,
    backtrack,
    dp_solve,
    round_weights,
    tilt_axis,
    tilt_axis_size,
)

GRID_BUDGET = 250_000


class GridBudgetError(RuntimeError):
    """The tilt grid would exceed its size budget."""


def build_grid(
    constants: DerivedConstants, n_pairs: int, budget: int = GRID_BUDGET
) -> list[tuple[float, ...]]:
    """Full tilt grid: the axis to the power of the number of ordered pairs,
    in lexicographic order."""
    n_axis = tilt_axis_size(constants)
    size = n_axis**n_pairs
    if size > budget:
        raise GridBudgetError(
            f"grid would hold {size} points ({n_axis}^{n_pairs}), over the "
            f"budget of {budget}"
        )
    axis = tilt_axis(constants)
    return [tuple(p) for p in itertools.product(axis.tolist(), repeat=n_pairs)]


def find_feasible_state(
    instance: Instance,
    constants: DerivedConstants,
    grid_point: Sequence[float],
    table: DpTable,
) -> tuple[int, ...] | None:
    """Cheapest DP state whose conservative error certificate meets every
    tolerance, ties broken lexicographically; None if no state qualifies.

    The certificate for label y sums, over pairs (y, y'), the prior ratio
    tilted by s_p times exp(-round_scale * t_p); it upper-bounds the
    surrogate error of any plan covering t.
    """
    pairs = ordered_pairs(instance.n_labels)
    log_ratios = np.array(
        [
            float(instance.log_prior[j] - instance.log_prior[i])
            for (i, j) in pairs
        ]
    )
    amps = np.exp(np.asarray(grid_point) * log_ratios)
    masks = label_caps(instance)[0] > 0
    alphas = instance.tolerances
    scale = constants.round_scale

    shape = table.shape
    n_states = int(np.prod(shape))
    best_cost = math.inf
    best_idx = -1
    chunk = 1 << 20
    for start in range(0, n_states, chunk):
        stop = min(start + chunk, n_states)
        flat = np.arange(start, stop)
        coords = np.column_stack(np.unravel_index(flat, shape)).astype(float)
        terms = amps[None, :] * np.exp(-scale * coords)
        ok = np.ones(len(flat), dtype=bool)
        for yi, mask in enumerate(masks):
            ok &= terms[:, mask].sum(axis=1) <= float(alphas[yi])
        ok &= np.isfinite(table.costs[start:stop])
        if not ok.any():
            continue
        cand = np.where(ok, table.costs[start:stop], math.inf)
        i = int(np.argmin(cand))  # first minimum, so lowest flat index on ties
        if cand[i] < best_cost:
            best_cost = float(cand[i])
            best_idx = start + i
    if best_idx < 0:
        return None
    return tuple(int(v) for v in np.unravel_index(best_idx, shape))


def solve_sweep(
    instance: Instance, constants: DerivedConstants
) -> tuple[QueryPlan, list[float]] | None:
    """The cheapest plan over every grid point's certified DP states, and
    the grid point that certified it (the first such point on cost ties);
    None if no grid point certifies any state."""
    pairs = ordered_pairs(instance.n_labels)
    grid = build_grid(constants, len(pairs))
    best: tuple[float, QueryPlan, tuple[float, ...]] | None = None
    for point in grid:
        weights = round_weights(instance, constants, point)
        table = dp_solve(instance, constants, weights)
        state = find_feasible_state(instance, constants, point, table)
        if state is None:
            continue
        plan = backtrack(table, state)
        cost = plan_cost(instance, plan)
        if best is None or cost < best[0]:
            best = (cost, plan, point)
    if best is None:
        return None
    return best[1], list(best[2])
