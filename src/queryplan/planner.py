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
costs grid^pairs x states and suits only toy fixtures, so it lives with
the tests (tests/reference_sweep.py) as the reference they compare the
search against; its building blocks round_weights, dp_solve and backtrack
stay here. The walk is the instance's exact.SurrogateWalk, which every
solve of the Instance object and the exact optimizer's searches share,
each stopping at its own cost cap: it prescreens plans in batches with
one matrix product of optimistic pair bounds, keeps the survivors and
their per-plan rejects, and hands the survivors, in cost order, to the
certifier below.
Both come from one per-instance bounds.TangentTable, which the certifier
holds. Only the window scan depends on epsilon; the cap, the constants
that do not depend on it and the audit of each plan are computed once per
instance too.

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

import math
import numbers
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from .bounds import (
    _TANGENT_GRID,
    _WINDOW_CHUNK,
    PairTables,
    SurrogateReport,
    _logsumexp,
    is_surrogate_feasible,
    ordered_pairs,
    pair_stack,
    uniform_feasible_count,
    upper_lanes,
)
from .exact import _budget, _compositions, exact_opt, surrogate_walk
from .instances import Instance, QueryPlan, _expect, _indistinguishable, plan_cost

MEMORY_BUDGET = 1 << 28
SEARCH_NODE_BUDGET = 2_000_000


class MemoryBudgetError(RuntimeError):
    """The dense DP table would exceed its entry budget."""


@dataclass(frozen=True, slots=True)
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
    The constants that do not depend on it are computed once per Instance
    object and shared by every call."""
    _expect(epsilon, numbers.Real, "epsilon", "a number")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    B, rho, n_unif, kappa_min, delta_margin, theta, k_max, n_max, lam = (
        instance._shared("instance_constants", lambda: _instance_constants(instance))
    )
    k_eps = math.ceil(2.0 * math.log1p(epsilon) / (-math.log(theta)))
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


def _instance_constants(instance: Instance) -> tuple:
    """derive_constants' values that do not depend on epsilon: (B, rho,
    n_unif, kappa_min, delta_margin, theta, k_max, n_max, lam)."""
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

    stack = pair_stack(instance)
    theta = 0.0
    for lane in upper_lanes(L):
        for s in (delta_margin, 1.0 - delta_margin):
            theta = max(theta, math.exp(float(stack.log_affinities(lane, s).sum())))
    if not theta < 1.0:
        raise ValueError(
            "pair contraction is not bounded away from 1 inside the tilt window"
        )

    k_max = math.ceil(2.0 * math.log(2.0) / (-math.log(theta)))

    costs = [m.cost for m in instance.models]
    n_max = math.ceil(n_unif * sum(costs) / min(costs)) + k_max * K

    pr = instance.prior
    lam = math.log(float(pr.max()) / float(pr.min())) + B * n_max
    return B, rho, n_unif, kappa_min, delta_margin, theta, k_max, n_max, lam


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


def _floor_weights(log_m: np.ndarray, round_scale: float) -> np.ndarray:
    """Integer weights floor(-log M / round_scale) of log-affinities log_m.

    Affinities can exceed 1 by a few ulps at the tilt endpoints; the raw
    weight is clipped at zero so rounding never goes negative.
    """
    return np.floor(np.maximum(-log_m, 0.0) / round_scale).astype(np.int64)


def round_weights(
    instance: Instance,
    constants: DerivedConstants,
    grid_point: Sequence[float],
) -> np.ndarray:
    """Integer DP weights: floor((-log M_m(s_p)) / round_scale), shape (K, P)."""
    pairs = ordered_pairs(instance.n_labels)
    if len(grid_point) != len(pairs):
        raise ValueError(
            f"grid point has {len(grid_point)} tilts, expected {len(pairs)}"
        )
    K = instance.n_models
    w = np.zeros((K, len(pairs)), dtype=np.int64)
    for p, ((yi, yj), s) in enumerate(zip(pairs, grid_point)):
        tables = PairTables(instance, yi, yj)
        w[:, p] = _floor_weights(
            tables.log_affinities(float(s)), constants.round_scale
        )
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
    memory_budget = _budget(memory_budget, "memory_budget")
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
# Solving: the cost-ordered search with the window certifier.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
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


# Axis points a window certifier keeps per pair (_WindowCertifier.spans); a
# longer window is scanned in _WINDOW_CHUNK batches and not kept.
_SPAN_MAX = 1 << 13


class _WindowCertifier:
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
    instance's TangentTable, which this certifier holds:

    * reject: the table's tangent lower bounds on min_s f_p already exceed
      some tolerance, so no assignment certifies. The search hands certify
      the survivors of its walk in order, so the reject is read from a
      batch the walk scored ahead (SurrogateWalk.rejects_plan).
    * window: with U_p the certificate at one axis index, every index whose
      certificate is <= U_p, the argmins among them, has f_p(s_i) <= U_p
      and so lies where every grid tangent is <= U_p: an interval. Scanning
      only that interval, with the same arithmetic as the full axis, yields
      the same first argmins and values.

    Both inequalities carry a margin of 1e-9 relative, far above the
    rounding they absorb. The walk is the instance's for the table's grid,
    so every solve of an instance reads it, up to the search's cost cap.

    s_i * log(prior ratio) and w_p(i) do not depend on the plan, and the
    windows of a solve's plans overlap, so the certifier keeps them per
    pair over one span of axis indices (``spans``): each window extends
    its pair's span, computing only the points outside it, all pairs' in
    one batch. A window that neither overlaps nor touches the span, or
    that would grow it past _SPAN_MAX points, replaces it; a window longer
    than that is scanned in batches and not kept. The cap U_p is read from
    the spans too when each holds its pair's index (_near), else computed
    in one batch. A certificate read from a span takes the same operations
    on the same values, so every answer is bit-identical to a scan's.
    """

    def __init__(self, instance: Instance, constants: DerivedConstants):
        self.walk = surrogate_walk(instance, _TANGENT_GRID)
        table = self.walk.table
        self.table = table
        # the table's grid proxies and their lower bounds, as the certifier's
        self.proxy_on_grid = table.proxy_on_grid
        self.lower_bounds = table.lower_bounds
        self.constants = constants
        self.n_axis = tilt_axis_size(constants)
        # each label's first pair and tolerance: its L - 1 pairs follow
        self.L = L = instance.n_labels
        firsts = range(0, L * (L - 1), L - 1)
        self.labels = list(zip(firsts, instance.tolerances.tolist()))
        # per pair: (first axis index, s_i * log ratio (n,), weights (n, K)),
        # or None before the pair's first window
        self.spans: list[tuple[int, np.ndarray, np.ndarray] | None] = [None] * len(
            table.log_ratio
        )

    def axis_weights(
        self, pair_of: np.ndarray, index: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """s_i * log(prior ratio) and the floored weights w_p(i), for
        p = pair_of[n] and i = index[n], computed with the same operations
        in the same order as a full-axis table, so the values are
        bit-identical to it."""
        c = self.constants
        t = self.table
        s = _axis_tilts(index, c.mesh, self.n_axis)
        v = (1.0 - s)[:, None, None] * t.log_p[pair_of] + s[
            :, None, None
        ] * t.log_q[pair_of]
        w = _floor_weights(_logsumexp(v), c.round_scale)  # (N, K)
        return s * t.log_ratio[pair_of], w

    def _certificates(
        self, amp: np.ndarray, w: np.ndarray, r: np.ndarray
    ) -> np.ndarray:
        """The plan's cert at points with axis_weights' values (amp, w),
        bit-identical to a full-axis table."""
        c = self.constants
        return amp - c.round_scale * np.minimum(w @ r, c.t_max)

    def _chunks(
        self, pair_of: np.ndarray, index: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """axis_weights over the points, in batches of _WINDOW_CHUNK."""
        for k in range(0, len(index), _WINDOW_CHUNK):
            yield self.axis_weights(
                pair_of[k : k + _WINDOW_CHUNK], index[k : k + _WINDOW_CHUNK]
            )

    def _extend(self, windows: list[tuple[int, int]]) -> None:
        """Makes each pair's span cover its window [lo, hi], if the window
        is kept (class docstring), computing only the points the span does
        not hold, every pair's in one batch."""
        # (pair, new span's first index, old points kept [k0, k1], new points)
        grown = []
        for p, (lo, hi) in enumerate(windows):
            if hi - lo >= _SPAN_MAX:
                continue  # scanned, never kept
            span = self.spans[p]
            s0, s1 = (span[0], span[0] + len(span[1]) - 1) if span else (lo, lo - 1)
            a, b = lo, hi  # the new span
            touch = lo <= s1 + 1 and s0 - 1 <= hi
            if touch and max(hi, s1) - min(lo, s0) < _SPAN_MAX:
                a, b = min(lo, s0), max(hi, s1)
            k0, k1 = max(a, s0), min(b, s1)
            if (k0, k1) == (a, b):
                continue  # held whole
            if k0 > k1:
                k0, k1 = b + 1, b  # nothing kept: every point is new
            new = np.concatenate((np.arange(a, k0), np.arange(k1 + 1, b + 1)))
            grown.append((p, a, k0, k1, new))
        if not grown:
            return
        pair_of = np.repeat([g[0] for g in grown], [len(g[4]) for g in grown])
        parts = list(self._chunks(pair_of, np.concatenate([g[4] for g in grown])))
        amp, w = parts[0]
        if len(parts) > 1:
            amp = np.concatenate([x for x, _ in parts])
            w = np.concatenate([x for _, x in parts])
        at = 0
        for p, a, k0, k1, new in grown:
            cut, end = at + k0 - a, at + len(new)  # new points left of k0 end at cut
            old = self.spans[p]
            if k0 > k1:  # keeps nothing: the batch's slices, not copies
                self.spans[p] = (a, amp[at:end], w[at:end])
            else:
                keep = slice(k0 - old[0], k1 + 1 - old[0])
                self.spans[p] = (
                    a,
                    np.concatenate([amp[at:cut], old[1][keep], amp[cut:end]]),
                    np.concatenate([w[at:cut], old[2][keep], w[cut:end]]),
                )
            at = end

    def _near(self, near: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """axis_weights at each pair's index near[p]: read from the kept
        spans when each holds its pair's index, else computed in one batch."""
        held = []
        for span, i in zip(self.spans, near):
            if span is None or not 0 <= i - span[0] < len(span[1]):
                return self.axis_weights(np.arange(len(near)), np.array(near))
            held.append((span, i - span[0]))
        amp = np.array([span[1][k] for span, k in held])
        return amp, np.array([span[2][k] for span, k in held])

    def certify(self, counts: tuple[int, ...]) -> np.ndarray | None:
        """Per-pair first-argmin axis indices if the plan certifies every
        tolerance, else None; the same answer as scanning the whole axis."""
        if self.walk.rejects_plan(counts):
            return None
        f, df = self.proxy_on_grid(counts)
        mesh = self.constants.mesh
        r = np.asarray(counts, dtype=np.int64)
        last = self.n_axis - 1
        # U_p: the certificate at the axis index nearest the best grid tilt
        grid = self.table.grid
        near = [
            min(max(round(s / mesh), 0), last)
            for s in grid[f.argmin(axis=1)].tolist()
        ]
        cap = self._certificates(*self._near(near), r)
        cap = cap + 1e-9 * (1.0 + np.abs(cap))
        # where every tangent f_g + f'_g (s - s_g) stays <= cap
        reach = grid + (cap[:, None] - f) / np.where(df != 0.0, df, 1.0)
        s_lo = np.where(df < 0.0, reach, 0.0).max(axis=1).tolist()
        s_hi = np.where(df > 0.0, reach, 1.0).min(axis=1).tolist()
        # the axis indices of the window, one point wider on each side and
        # holding near; clamping s / mesh to [-1, last + 1] moves no bound
        # and keeps an infinite one out of floor and ceil
        windows = []
        for a, b, k in zip(s_lo, s_hi, near):
            lo = math.floor(min(max(a / mesh, -1.0), last + 1.0)) - 1
            hi = math.ceil(min(max(b / mesh, -1.0), last + 1.0)) + 1
            windows.append((min(max(lo, 0), k), max(min(hi, last), k)))
        self._extend(windows)
        best_idx = []
        best = []
        for p, (i, j) in enumerate(windows):
            if j - i < _SPAN_MAX:  # read from the span
                s0, amp, w = self.spans[p]
                view = slice(i - s0, j + 1 - s0)
                cert = self._certificates(amp[view], w[view], r)
            else:  # too long to keep
                chunks = self._chunks(np.repeat(p, j - i + 1), np.arange(i, j + 1))
                cert = np.concatenate([self._certificates(*x, r) for x in chunks])
            k = int(cert.argmin())
            best_idx.append(i + k)
            best.append(float(cert[k]))
        for k, alpha in self.labels:
            if math.fsum(math.exp(v) for v in best[k : k + self.L - 1]) > alpha:
                return None
        return np.array(best_idx)


def _search_cap(instance: Instance, constants: DerivedConstants) -> float:
    """The search's cost cap: the padded uniform plan, which always
    certifies, costs (n_unif + k_max) times the sum of the costs."""
    costs = [m.cost for m in instance.models]
    return (constants.n_unif + constants.k_max) * sum(costs) + 1e-9


def _solve_search(
    instance: Instance, constants: DerivedConstants, node_budget: int
) -> tuple[QueryPlan, list[float]]:
    certifier = _WindowCertifier(instance, constants)
    cap = _search_cap(instance, constants)
    found = certifier.walk.search(certifier.certify, node_budget, cap)
    if found is None:
        raise RuntimeError(
            "lattice exhausted without a certifiable plan; the uniform padded "
            "plan should always certify, so this indicates a constants bug"
        )
    counts, idx, _ = found
    tilts = _axis_tilts(idx, constants.mesh, certifier.n_axis).tolist()
    return QueryPlan(counts), tilts


def run_afptas(
    instance: Instance,
    epsilon: float,
    check_optimal: bool = False,
    node_budget: int = SEARCH_NODE_BUDGET,
) -> SolveCertificate:
    """Runs the approximation scheme end to end and audits the result.

    It walks plans in cost order, up to its cost cap, on the instance's
    exact.SurrogateWalk, which every search on the instance shares, and
    certifies each plan its prescreen keeps with the window certificate:
    per pair, the first argmin of the floored
    certificate over the whole tilt axis, found by scanning only the window
    where the exact proxy's grid tangents allow a value at or below a known
    certificate. Every other axis point lies above that certificate, so the
    result is the full-axis argmin, on every axis length; there is no axis
    budget and no coarser fallback. The walk raises
    exact.EnumerationBudgetError once it passes node_budget plans. This
    returns the cost the literal sweep of the scheme would find; that sweep
    is the tests' reference (tests/reference_sweep.py), not a solve path.

    Raises ValueError if the prior, a tolerance, a conditional or a cost is
    NaN or infinite.

    The returned plan is always surrogate-feasible (checked independently
    with exact tilt optimization, not just the discretized certificate).
    The guarantee block reports whether the (1+eps) approximation factor is
    certified: unconditionally when the smallest tolerance is below the
    instance's guarantee threshold, or empirically when check_optimal is
    set and the exact surrogate optimum confirms the ratio.
    """
    node_budget = _budget(node_budget, "node_budget")
    constants = derive_constants(instance, epsilon)
    plan, tilts = _solve_search(instance, constants, node_budget)
    # the audit of a plan is the instance's too: solves at several epsilon
    # often find the same plan, and their certificates share it and its report
    plan, report = instance._shared(
        ("audited_plan", plan.counts),
        lambda: (plan, is_surrogate_feasible(instance, plan)),
    )
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
        mode="search-axis",
        tilts=named_tilts,
        surrogate=report,
        guarantee=guarantee,
        constants=constants,
    )
