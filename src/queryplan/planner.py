"""Approximation scheme for minimum-cost surrogate-feasible plans.

The surrogate problem still has a continuous tilt per label pair entangled
with the integer plan. The scheme discretizes both: tilts are snapped to a
mesh fine enough that the log-proxy moves by at most log(1+eps), and
per-query log-weights are floored to an integer grid coarse enough that a
bounded plan loses at most another log(1+eps). For a fixed tilt assignment
the problem becomes a covering dynamic program over integer requirement
states; scanning grid points and DP states yields a plan whose cost is
within (1+eps) of the surrogate optimum once the tolerances are tight
enough (the certificate reports whether that regime applies).

run_afptas has one solve path, a search: it walks plans in nondecreasing
cost and accepts the first plan certifiable at some grid assignment. Because
certification decouples across pairs, this returns exactly the minimum cost
of the literal scheme, which enumerates the full tilt grid, runs the dense
DP at every grid point and keeps the cheapest feasible state. That sweep
costs grid^pairs x states and suits only toy fixtures; it is kept
(_solve_sweep with build_grid, dp_solve, find_feasible_state and
backtrack) as the reference the tests compare the search against. The
walk is exact.search_lattice, shared with the exact optimizer: it
prescreens plans in batches with one matrix product of optimistic pair
bounds and hands the survivors, in cost order, to the certifier below.
Both come from one per-instance bounds.TangentTable, which the certifier
extends.

The search certifies a plan by each pair's lowest floored-weight
certificate over the tilt axis, whose length grows like 1/mesh (past a
million points on weakly separated instances). It never scans the whole
axis. The certificate is never below the convex exact proxy
f_p(s) = s log(prior ratio) + sum_m r_m log M_m(s), so tangents of f_p at a
fixed grid of tilts give a lower bound that rejects most plans outright,
and for the rest the certificate's argmin lies in the short interval where
every tangent stays below the certificate at one known axis point. Only
that window is scanned, with the full axis's arithmetic, so the plans,
tilts and answers equal those of a full-axis scan (see _WindowCertifier).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .bounds import (
    _TANGENT_GRID,
    PairTables,
    SurrogateReport,
    TangentTable,
    _logsumexp,
    is_surrogate_feasible,
    label_caps,
    ordered_pairs,
    uniform_feasible_count,
)
from .exact import _compositions, search_lattice
from .instances import (
    Instance,
    QueryPlan,
    _indistinguishable,
    plan_cost,
    require_finite,
)

GRID_BUDGET = 250_000
MEMORY_BUDGET = 1 << 28
SEARCH_NODE_BUDGET = 2_000_000


class GridBudgetError(RuntimeError):
    """The tilt grid would exceed its size budget."""


class MemoryBudgetError(RuntimeError):
    """The dense DP table would exceed its entry budget."""


@dataclass(frozen=True)
class DerivedConstants:
    """Instance-level quantities that size the mesh, rounding and DP.

    B bounds every per-symbol log-likelihood ratio; rho is the worst-case
    pair contraction per uniform round and n_unif the rounds certifying all
    tolerances; kappa_min is the smallest informative divergence, which
    keeps the tilt window [delta_margin, 1 - delta_margin] where the
    contraction theta < 1 holds; k_eps and k_max are padding counts derived
    from theta; n_max caps the queries any candidate plan needs; lam is the
    Lipschitz constant of log-proxies over plans within that cap; mesh and
    round_scale are the tilt and weight discretization steps; t_max is the
    largest rounded requirement a capped plan can reach.
    """

    epsilon: float
    B: float
    rho: float
    n_unif: int
    kappa_min: float
    delta_margin: float
    theta: float
    k_eps: int
    k_max: int
    n_max: int
    lam: float
    mesh: float
    round_scale: float
    t_max: int

    def to_dict(self) -> dict:
        return asdict(self)


def derive_constants(instance: Instance, epsilon: float) -> DerivedConstants:
    """Computes every discretization constant for the given accuracy target.
    Raises ValueError on non-finite input (see require_finite)."""
    require_finite(instance)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    L = instance.n_labels
    K = instance.n_models

    B = 0.0
    for m in instance.models:
        lc = m.log_conditional
        for i in range(L):
            for j in range(i + 1, L):
                B = max(B, float(np.max(np.abs(lc[i] - lc[j]))))
    if B <= 0.0:
        raise ValueError("no model separates any label pair")

    rho, n_unif = uniform_feasible_count(instance)

    kappa_min = math.inf
    for m in instance.models:
        for i in range(L):
            for j in range(L):
                if i == j or _indistinguishable(m, i, j):
                    continue
                p, q = m.conditional[i], m.conditional[j]
                kappa_min = min(kappa_min, float(np.sum(p * np.log(p / q))))
    if not math.isfinite(kappa_min):
        raise ValueError("no model separates any label pair")

    delta_margin = min(kappa_min / (4.0 * B * B), 0.25)

    theta = 0.0
    for i in range(L):
        for j in range(i + 1, L):
            tables = PairTables(instance, i, j)
            for s in (delta_margin, 1.0 - delta_margin):
                theta = max(theta, math.exp(float(tables.log_affinities(s).sum())))
    if not theta < 1.0:
        raise ValueError(
            "pair contraction is not bounded away from 1 inside the tilt window"
        )

    k_eps = math.ceil(2.0 * math.log1p(epsilon) / (-math.log(theta)))
    k_max = math.ceil(2.0 * math.log(2.0) / (-math.log(theta)))

    costs = [m.cost for m in instance.models]
    n_max = math.ceil(n_unif * sum(costs) / min(costs)) + k_max * K

    pr = instance.prior
    lam = math.log(float(pr.max()) / float(pr.min())) + B * n_max
    mesh = math.log1p(epsilon) / lam
    round_scale = math.log1p(epsilon) / n_max
    t_max = math.ceil(B * n_max / round_scale)

    return DerivedConstants(
        epsilon=float(epsilon),
        B=B,
        rho=rho,
        n_unif=n_unif,
        kappa_min=kappa_min,
        delta_margin=delta_margin,
        theta=theta,
        k_eps=k_eps,
        k_max=k_max,
        n_max=n_max,
        lam=lam,
        mesh=mesh,
        round_scale=round_scale,
        t_max=t_max,
    )


def tilt_axis_size(constants: DerivedConstants) -> int:
    """Length of tilt_axis, computed without materializing it.

    Weakly separated models can push the mesh below 1e-9 and the axis past
    1e9 points; callers must check this against their budget before asking
    for the array.
    """
    h = constants.mesh
    n = math.floor(1.0 / h) + 1
    if min((n - 1) * h, 1.0) != 1.0:
        n += 1
    return n


def _axis_tilts(index: np.ndarray, mesh: float, n_axis: int) -> np.ndarray:
    """The tilt_axis points at the given indices, for an axis of n_axis
    points: index * mesh clipped to 1, and exactly 1 at the last index."""
    return np.where(index >= n_axis - 1, 1.0, np.minimum(index * mesh, 1.0))


def tilt_axis(constants: DerivedConstants) -> np.ndarray:
    """Mesh points {0, h, 2h, ...} clipped to [0, 1], with 1 always included."""
    n = tilt_axis_size(constants)
    return _axis_tilts(np.arange(n), constants.mesh, n)


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


def round_weights(
    instance: Instance,
    constants: DerivedConstants,
    grid_point: Sequence[float],
) -> np.ndarray:
    """Integer DP weights: floor((-log M_m(s_p)) / round_scale), shape (K, P).

    Affinities can exceed 1 by a few ulps at the tilt endpoints; the raw
    weight is clipped at zero so rounding never goes negative.
    """
    pairs = ordered_pairs(instance.n_labels)
    if len(grid_point) != len(pairs):
        raise ValueError(
            f"grid point has {len(grid_point)} tilts, expected {len(pairs)}"
        )
    K = instance.n_models
    w = np.zeros((K, len(pairs)), dtype=np.int64)
    for p, ((yi, yj), s) in enumerate(zip(pairs, grid_point)):
        tables = PairTables(instance, yi, yj)
        raw = np.maximum(-tables.log_affinities(float(s)), 0.0)
        w[:, p] = np.floor(raw / constants.round_scale).astype(np.int64)
    return w


# ---------------------------------------------------------------------------
# Covering dynamic program over requirement states.
# ---------------------------------------------------------------------------


@dataclass
class DpTable:
    """DP values and backpointers over states [0, t_max]^P.

    value(t) is the minimum plan cost whose rounded weight sums reach at
    least t in every coordinate; backpointer(t) is the model whose query is
    removed first when reconstructing an optimal plan (-1 marks the origin
    and unreachable states).
    """

    t_max: int
    n_pairs: int
    weights: np.ndarray
    costs: np.ndarray
    backptr: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.t_max + 1,) * self.n_pairs

    def value(self, state: tuple[int, ...]) -> float:
        return float(self.costs[np.ravel_multi_index(state, self.shape)])

    def backpointer(self, state: tuple[int, ...]) -> int:
        return int(self.backptr[np.ravel_multi_index(state, self.shape)])


def dp_solve(
    instance: Instance,
    constants: DerivedConstants,
    weights: np.ndarray,
    memory_budget: int = MEMORY_BUDGET,
) -> DpTable:
    """Fills the covering DP for one grid point's integer weights.

    States are processed in nondecreasing coordinate sum; a transition adds
    one query of model m, moving the requirement from max(t - w[m], 0) to t.
    Transitions that make no progress are skipped, so every predecessor lies
    in an earlier shell and each shell can be filled independently. Ties
    between models are broken by the lower model index. The table is dense,
    so it only suits coarse constants: it is the literal scheme's oracle.
    """
    K = instance.n_models
    if K > 127:
        raise ValueError("backpointers are int8; at most 127 models supported")
    T = constants.t_max
    P = weights.shape[1]
    costs_per = np.array([m.cost for m in instance.models])
    n_states = (T + 1) ** P
    if n_states > memory_budget:
        raise MemoryBudgetError(
            f"dense table needs {n_states} entries, over the budget of "
            f"{memory_budget}; use coarser constants"
        )
    shape = (T + 1,) * P
    table = np.full(n_states, math.inf)
    bp = np.full(n_states, -1, dtype=np.int8)
    table[0] = 0.0
    for total in range(1, P * T + 1):
        states = _compositions(total, P, T)
        idx = np.ravel_multi_index(states.T, shape)
        best = np.full(len(states), math.inf)
        bestm = np.full(len(states), -1, dtype=np.int8)
        for m in range(K):
            pred = np.maximum(states - weights[m], 0)
            moved = (pred != states).any(axis=1)
            cand = costs_per[m] + table[np.ravel_multi_index(pred.T, shape)]
            upd = moved & (cand < best)
            best[upd] = cand[upd]
            bestm[upd] = m
        table[idx] = best
        bp[idx] = bestm
    return DpTable(t_max=T, n_pairs=P, weights=weights, costs=table, backptr=bp)


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


def backtrack(table: DpTable, state: tuple[int, ...]) -> QueryPlan:
    """Reconstructs an optimal covering plan from backpointers."""
    counts = [0] * table.weights.shape[0]
    t = tuple(int(v) for v in state)
    origin = (0,) * table.n_pairs
    while t != origin:
        m = table.backpointer(t)
        if m < 0:
            raise RuntimeError(f"dangling backpointer at state {t}")
        counts[m] += 1
        t = tuple(
            max(tv - int(wv), 0) for tv, wv in zip(t, table.weights[m])
        )
    return QueryPlan(tuple(counts))


# ---------------------------------------------------------------------------
# Solving: cost-ordered search, and the full sweep it is checked against.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveCertificate:
    """A plan plus everything needed to audit it: the certifying tilts, the
    exact surrogate errors, the discretization constants, and whether the
    (1+eps) factor is certified for this instance's tolerances."""

    plan: QueryPlan
    cost: float
    epsilon: float
    mode: str
    tilts: tuple[tuple[str, str, float], ...]  # (y, y', certifying tilt)
    surrogate: SurrogateReport
    guarantee: dict
    constants: DerivedConstants

    def to_dict(self) -> dict:
        return {
            "plan": list(self.plan.counts),
            "cost": self.cost,
            "epsilon": self.epsilon,
            "mode": self.mode,
            "tilts": [
                {"y": y, "other": yp, "s": s} for y, yp, s in self.tilts
            ],
            "surrogate": self.surrogate.to_dict(),
            "guarantee": self.guarantee,
            "constants": self.constants.to_dict(),
        }


def guarantee_threshold(instance: Instance, constants: DerivedConstants) -> float:
    """Largest min-tolerance at which the (1+eps) factor is certified.

    Below this threshold the padding that makes a near-optimal plan
    grid-certifiable costs at most an eps fraction of the optimum.
    """
    costs = [m.cost for m in instance.models]
    pr = instance.prior
    L = instance.n_labels
    pad = constants.B * constants.k_eps * sum(costs) / (
        constants.epsilon * min(costs)
    )
    return (L - 1) * float(pr.min()) / float(pr.max()) * math.exp(-pad)


# Window points evaluated per numpy batch; bounds memory on fine axes.
_WINDOW_CHUNK = 1 << 15


class _WindowCertifier(TangentTable):
    """The axis certificate of a plan, minimized per pair over the tilt axis
    without scanning the axis.

    For pair p and axis index i with tilt s_i, the certificate is

        cert_p(i) = s_i * log(prior ratio) - round_scale * min(r . w_p(i), t_max),

    with w_p(i) the floored weights of round_weights. A plan certifies when,
    for every label, the pairs' minima over i sum (after exp) to at most the
    tolerance; the certifying tilts are the first argmins.

    Flooring only shrinks weights and the t_max clip only raises cert, so
    cert_p(i) >= f_p(s_i), where f_p(s) = s * log(prior ratio) +
    sum_m r_m log M_m(s) is the exact tilted proxy, which is convex in s.
    Two consequences make a full-axis scan unnecessary, both drawn from the
    instance's TangentTable, which this certifier extends:

    * reject: the table's tangent lower bounds on min_s f_p already exceed
      some tolerance, so no assignment certifies.
    * window: with U_p the certificate at one axis index, every index whose
      certificate is <= U_p, the argmins among them, has f_p(s_i) <= U_p
      and so lies where every grid tangent is <= U_p: an interval. Scanning
      only that interval, with the same arithmetic as the full axis, yields
      the same first argmins and values.

    Both inequalities carry a margin of 1e-9 relative, far above the
    rounding they absorb.
    """

    def __init__(self, instance: Instance, constants: DerivedConstants):
        super().__init__(instance, _TANGENT_GRID)
        self.constants = constants
        self.n_axis = tilt_axis_size(constants)
        self.masks = self.label_mask > 0
        self.tolerances = [float(a) for a in instance.tolerances]

    def axis_certificates(
        self, pair_of: np.ndarray, index: np.ndarray, r: np.ndarray
    ) -> np.ndarray:
        """cert_{pair_of[n]}(index[n]) for every n, computed with the same
        operations in the same order as a full-axis table, so the values are
        bit-identical to it."""
        c = self.constants
        s = _axis_tilts(index, c.mesh, self.n_axis)
        v = (1.0 - s)[:, None, None] * self.log_p[pair_of] + s[
            :, None, None
        ] * self.log_q[pair_of]
        log_m = _logsumexp(v)  # (N, K)
        w = np.floor(np.maximum(-log_m, 0.0) / c.round_scale).astype(np.int64)
        covered = np.minimum(w @ r, c.t_max)
        return s * self.log_ratio[pair_of] - c.round_scale * covered

    def certify(self, counts: tuple[int, ...]) -> np.ndarray | None:
        """Per-pair first-argmin axis indices if the plan certifies every
        tolerance, else None; the same answer as scanning the whole axis."""
        f, df = self.proxy_on_grid(counts)
        if self.rejects(f, df):
            return None
        c = self.constants
        r = np.asarray(counts, dtype=np.int64)
        P = f.shape[0]
        last = self.n_axis - 1
        # U_p: the certificate at the axis index nearest the best grid tilt
        near = np.clip(np.rint(self.grid[f.argmin(axis=1)] / c.mesh), 0, last)
        near = near.astype(np.int64)
        cap = self.axis_certificates(np.arange(P), near, r)
        cap = cap + 1e-9 * (1.0 + np.abs(cap))
        # where every tangent f_g + f'_g (s - s_g) stays <= cap
        reach = self.grid + (cap[:, None] - f) / np.where(df != 0.0, df, 1.0)
        s_lo = np.where(df < 0.0, reach, 0.0).max(axis=1)
        s_hi = np.where(df > 0.0, reach, 1.0).min(axis=1)
        lo = np.minimum(np.maximum(np.floor(s_lo / c.mesh) - 1, 0), near)
        hi = np.maximum(np.minimum(np.ceil(s_hi / c.mesh) + 1, last), near)
        lo = lo.astype(np.int64)
        sizes = hi.astype(np.int64) - lo + 1
        starts = np.concatenate([[0], np.cumsum(sizes)])
        pair_of = np.repeat(np.arange(P), sizes)
        index = np.arange(starts[-1]) - np.repeat(starts[:-1] - lo, sizes)
        cert = np.concatenate(
            [
                self.axis_certificates(
                    pair_of[k : k + _WINDOW_CHUNK], index[k : k + _WINDOW_CHUNK], r
                )
                for k in range(0, len(index), _WINDOW_CHUNK)
            ]
        )
        best_idx = np.empty(P, dtype=np.int64)
        best = np.empty(P)
        for p in range(P):
            j = int(cert[starts[p] : starts[p + 1]].argmin())
            best_idx[p] = lo[p] + j
            best[p] = cert[starts[p] + j]
        for yi, mask in enumerate(self.masks):
            if math.fsum(math.exp(v) for v in best[mask]) > self.tolerances[yi]:
                return None
        return best_idx


def _solve_search(
    instance: Instance, constants: DerivedConstants, node_budget: int
) -> tuple[QueryPlan, list[float], str]:
    costs = [m.cost for m in instance.models]
    cost_cap = (constants.n_unif + constants.k_max) * sum(costs) + 1e-9
    certifier = _WindowCertifier(instance, constants)
    found = search_lattice(costs, cost_cap, certifier.certify, node_budget, certifier)
    if found is None:
        raise RuntimeError(
            "lattice exhausted without a certifiable plan; the uniform padded "
            "plan should always certify, so this indicates a constants bug"
        )
    counts, idx, _ = found
    tilts = _axis_tilts(idx, constants.mesh, certifier.n_axis).tolist()
    return QueryPlan(counts), tilts, "search-axis"


def _solve_sweep(
    instance: Instance,
    constants: DerivedConstants,
    grid_budget: int,
    memory_budget: int,
) -> tuple[QueryPlan, list[float], str]:
    pairs = ordered_pairs(instance.n_labels)
    grid = build_grid(constants, len(pairs), grid_budget)
    best: tuple[float, int, QueryPlan, tuple[float, ...]] | None = None
    for gi, point in enumerate(grid):
        weights = round_weights(instance, constants, point)
        table = dp_solve(instance, constants, weights, memory_budget)
        state = find_feasible_state(instance, constants, point, table)
        if state is None:
            continue
        plan = backtrack(table, state)
        cost = plan_cost(instance, plan)
        if best is None or cost < best[0]:
            best = (cost, gi, plan, point)
    if best is None:
        raise RuntimeError(
            "no grid point certified any state; the uniform padded plan "
            "should always certify, so this indicates a constants bug"
        )
    return best[2], list(best[3]), "sweep"


def run_afptas(
    instance: Instance,
    epsilon: float,
    check_optimal: bool = False,
    node_budget: int = SEARCH_NODE_BUDGET,
) -> SolveCertificate:
    """Runs the approximation scheme end to end and audits the result.

    It walks plans in cost order with exact.search_lattice, the walk
    exact_opt also uses, and certifies each plan its prescreen keeps with
    the window certificate: per pair, the first argmin of the floored
    certificate over the whole tilt axis, found by scanning only the window
    where the exact proxy's grid tangents allow a value at or below a known
    certificate. Every other axis point lies above that certificate, so the
    result is the full-axis argmin, on every axis length; there is no axis
    budget and no coarser fallback. The walk raises
    exact.EnumerationBudgetError once it passes node_budget plans. This
    returns the cost the literal sweep (_solve_sweep) would find; the sweep
    is kept only as the tests' reference.

    Raises ValueError if the prior, a tolerance, a conditional or a cost is
    NaN or infinite.

    The returned plan is always surrogate-feasible (checked independently
    with exact tilt optimization, not just the discretized certificate).
    The guarantee block reports whether the (1+eps) approximation factor is
    certified: unconditionally when the smallest tolerance is below the
    instance's guarantee threshold, or empirically when check_optimal is
    set and the exact surrogate optimum confirms the ratio.
    """
    constants = derive_constants(instance, epsilon)
    plan, tilts, used = _solve_search(instance, constants, node_budget)
    report = is_surrogate_feasible(instance, plan)
    if not report.feasible:
        raise RuntimeError(
            "certified plan fails the exact surrogate check; the grid "
            "certificate is supposed to dominate it"
        )
    cost = plan_cost(instance, plan)
    alpha_min = float(instance.tolerances.min())
    threshold = guarantee_threshold(instance, constants)
    guarantee = {
        "status": "heuristic-only",
        "alpha_min": alpha_min,
        "alpha_threshold": threshold,
        "checked_against_oracle": False,
        "oracle_opt_cost": None,
        "reason": "",
    }
    if alpha_min <= threshold:
        guarantee["status"] = "guaranteed"
        guarantee["reason"] = (
            f"min tolerance {alpha_min:.6g} is at or below the guarantee "
            f"threshold {threshold:.6g}, so cost is within (1+eps) of the "
            "surrogate optimum"
        )
    else:
        guarantee["reason"] = (
            f"min tolerance {alpha_min:.6g} exceeds the guarantee threshold "
            f"{threshold:.6g}; the plan is surrogate-feasible but the (1+eps) "
            "factor is not certified"
        )
    if check_optimal:
        from .exact import exact_opt

        opt = exact_opt(instance, problem="surrogate")
        guarantee["checked_against_oracle"] = True
        guarantee["oracle_opt_cost"] = opt.cost
        if cost <= (1.0 + epsilon) * opt.cost + 1e-9:
            guarantee["status"] = "guaranteed"
            guarantee["reason"] += (
                f"; oracle check passed (cost {cost:.6g} vs optimum "
                f"{opt.cost:.6g})"
            )
        else:
            guarantee["reason"] += (
                f"; oracle check FAILED (cost {cost:.6g} vs optimum "
                f"{opt.cost:.6g})"
            )
    pairs = ordered_pairs(instance.n_labels)
    named_tilts = tuple(
        (instance.labels[i], instance.labels[j], float(s))
        for (i, j), s in zip(pairs, tilts)
    )
    return SolveCertificate(
        plan=plan,
        cost=cost,
        epsilon=float(epsilon),
        mode=used,
        tilts=named_tilts,
        surrogate=report,
        guarantee=guarantee,
        constants=constants,
    )
