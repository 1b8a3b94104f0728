"""Exact error evaluation and exact plan optimization by enumeration.

Observations are exchangeable given the label, so only per-model response
count vectors (profiles) matter. A plan r induces
prod_m C(r_m + |X_m| - 1, |X_m| - 1) joint profiles; each is scored once
with its multinomial weight. This is exponentially smaller than raw
sequence space but still explodes on large plans, hence explicit budgets.

The optimizer walks the plan lattice in nondecreasing cost, ties broken
lexicographically by count vector, and returns the first feasible plan,
which is therefore a minimum-cost one. The walk, lattice_bands, yields
that order as sorted integer arrays, one per cost band [lo, hi): for each
prefix of counts it keeps the next count of the last model and its cost,
so a band costs a few numpy calls however many plans it holds. The
search, search_lattice, is shared with the planner: it rules out most of
each band with one matrix product of pair bounds and hands the survivors
in walk order to a caller's acceptance check. For the surrogate problem
the bounds are the optimistic ones of bounds.TangentTable, and the check
is the surrogate check of is_surrogate_feasible behind the same table's
per-plan reject; the planner's window certificate uses the same table.
For the true problem the bound is bounds.BhattacharyyaScreen, a lower
bound on each label pair's Bayes error, and the check is exact errors.
One profile-mass loop serves every exact error, and each public entry
builds every (model, count) profile block once per call and reuses it
across labels and plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, Sequence, TypeVar

import numpy as np

from .bounds import (
    BhattacharyyaScreen,
    TangentTable,
    _logsumexp,
    _surrogate_check,
    uniform_feasible_count,
)
from .instances import (
    Instance,
    QueryPlan,
    _label_pair,
    as_plan,
    plan_cost,
    require_finite,
)
from .likelihood import _error_mask

# A log-likelihood difference this close to zero is counted as favoring the
# competitor; keeps the exact pairwise terms conservative under fp noise.
DELTA_TOL = 1e-12

PROFILE_BUDGET = 10_000_000
NODE_BUDGET = 1_000_000

# Max joint profiles materialized at once during enumeration.
_CHUNK = 1 << 20


class EnumerationBudgetError(RuntimeError):
    """Profile space or search frontier exceeded its budget."""


class InfeasibleWithinCapError(RuntimeError):
    """No feasible plan exists with cost at or below the cap."""


def profile_count(instance: Instance, plan: QueryPlan | Sequence[int]) -> int:
    """Number of joint count profiles the plan can produce."""
    plan = as_plan(plan, instance)
    n = 1
    for m, r in zip(instance.models, plan.counts):
        n *= math.comb(r + m.n_symbols - 1, m.n_symbols - 1)
    return n


def _compositions(total: int, width: int, cap: int) -> np.ndarray:
    """All integer vectors of the given width with entries in [0, cap]
    summing to total, in lexicographic order."""
    # first entries that fit the cap and leave the rest, at most
    # (width - 1) * cap, able to reach total
    first = np.arange(
        max(0, total - (width - 1) * cap), min(cap, total) + 1, dtype=np.int64
    )
    if width == 1:
        return first[:, None]
    rests = [_compositions(total - k, width - 1, cap) for k in first.tolist()]
    if not rests:
        return np.empty((0, width), dtype=np.int64)
    return np.column_stack(
        [np.repeat(first, [len(r) for r in rests]), np.vstack(rests)]
    )


# Coefficients of cephes lgam's Stirling correction polynomial in 1/x^2.
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _log_factorial(k: int) -> float:
    """log(k!) by the algorithm of cephes lgam (scipy's gammaln) at x = k + 1.

    It equals scipy.special.gammaln(k + 1) bit for bit, so exact errors do
    not depend on scipy; math.lgamma differs from it by a few ulps.
    """
    x = k + 1.0
    if x < 13.0:
        return math.log(float(math.factorial(k)))
    q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    poly = 0.0
    for c in _STIRLING:
        poly = poly * p + c
    return q + poly / x


# Profile blocks by (model index, query count), built once per call of a
# public entry and shared by every plan and label it scores.
_BlockCache = dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]


def _model_blocks(
    instance: Instance, plan: QueryPlan, cache: _BlockCache
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per model: (log-likelihood matrix (P, L), log multinomial coeffs (P,)).

    Models with zero queries contribute a single empty profile. A block
    missing from the cache is built and stored there.
    """
    blocks = []
    for k, (m, r) in enumerate(zip(instance.models, plan.counts)):
        block = cache.get((k, r))
        if block is None:
            profiles = _compositions(r, m.n_symbols, r)
            loglik = profiles.astype(float) @ m.log_conditional.T
            log_fact = np.array([_log_factorial(j) for j in range(r + 1)])
            logcoef = log_fact[r] - log_fact[profiles].sum(axis=1)
            block = cache[k, r] = (loglik, logcoef)
        blocks.append(block)
    return blocks


def _iter_joint(
    blocks: list[tuple[np.ndarray, np.ndarray]]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Streams the cartesian product of model blocks in bounded chunks.

    Yields (loglik (n, L), logcoef (n,)) pairs where rows are joint profiles.
    """
    ll0, lc0 = blocks[0]
    if len(blocks) == 1:
        for i in range(0, ll0.shape[0], _CHUNK):
            yield ll0[i : i + _CHUNK], lc0[i : i + _CHUNK]
        return
    for llr, lcr in _iter_joint(blocks[1:]):
        step = max(1, _CHUNK // llr.shape[0])
        for i in range(0, ll0.shape[0], step):
            ll = (ll0[i : i + step, None, :] + llr[None, :, :]).reshape(
                -1, ll0.shape[1]
            )
            lc = (lc0[i : i + step, None] + lcr[None, :]).reshape(-1)
            yield ll, lc


def _scan_profiles(
    instance: Instance, plan: QueryPlan, budget: int, cache: _BlockCache
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yields (posterior scores (n, L), log joint coefficient (n,)) chunks."""
    n = profile_count(instance, plan)
    if n > budget:
        raise EnumerationBudgetError(
            f"plan induces {n} profiles, over the budget of {budget}"
        )
    for loglik, logcoef in _iter_joint(_model_blocks(instance, plan, cache)):
        yield instance.log_prior[None, :] + loglik, logcoef


def _profile_mass(
    instance: Instance,
    plan: QueryPlan,
    yi: int,
    mask_of: Callable[[np.ndarray, int], np.ndarray],
    budget: int,
    cache: _BlockCache,
) -> float:
    """Probability under label yi of the profiles mask_of(scores, yi) keeps."""
    chunk_lse = []
    for scores, logcoef in _scan_profiles(instance, plan, budget, cache):
        mask = mask_of(scores, yi)
        if mask.any():
            # weight of a profile under y excludes the prior factor
            logw = logcoef[mask] + (scores[mask, yi] - instance.log_prior[yi])
            chunk_lse.append(float(_logsumexp(logw)))
    return math.exp(_logsumexp(np.array(chunk_lse))) if chunk_lse else 0.0


def exact_pairwise(
    instance: Instance,
    plan: QueryPlan | Sequence[int],
    y: int | str,
    y_other: int | str,
    budget: int = PROFILE_BUDGET,
) -> float:
    """Exact probability, under label y, that the observations weigh at
    least as heavily toward y_other (log-posterior difference >= 0).

    This is the quantity the per-pair tilted proxy upper-bounds. Raises
    ValueError on non-finite input (see require_finite).
    """
    require_finite(instance)
    plan = as_plan(plan, instance)
    yi, yj = _label_pair(instance, y, y_other)
    return _profile_mass(
        instance,
        plan,
        yi,
        lambda sc, i: sc[:, yj] - sc[:, i] >= -DELTA_TOL,
        budget,
        {},
    )


def exact_error(
    instance: Instance,
    plan: QueryPlan | Sequence[int],
    y: int | str,
    tie_policy: str = "lowest-index",
    budget: int = PROFILE_BUDGET,
) -> float:
    """Exact statewise MAP error for label y under the chosen tie policy.
    Raises ValueError on non-finite input (see require_finite)."""
    wrong = _error_mask(tie_policy)
    require_finite(instance)
    plan = as_plan(plan, instance)
    return _profile_mass(instance, plan, instance.label_index(y), wrong, budget, {})


@dataclass(frozen=True)
class ExactErrorResult:
    labels: tuple[str, ...]
    errors: tuple[float, ...]
    tie_policy: str
    profiles: int

    def to_dict(self) -> dict:
        return {
            "tie_policy": self.tie_policy,
            "profiles": self.profiles,
            "errors": [
                {"label": y, "error": e} for y, e in zip(self.labels, self.errors)
            ],
        }


def exact_error_table(
    instance: Instance,
    plan: QueryPlan | Sequence[int],
    tie_policy: str = "lowest-index",
    budget: int = PROFILE_BUDGET,
) -> ExactErrorResult:
    wrong = _error_mask(tie_policy)
    require_finite(instance)
    plan = as_plan(plan, instance)
    cache: _BlockCache = {}
    errors = tuple(
        _profile_mass(instance, plan, yi, wrong, budget, cache)
        for yi in range(instance.n_labels)
    )
    return ExactErrorResult(
        labels=instance.labels,
        errors=errors,
        tie_policy=tie_policy,
        profiles=profile_count(instance, plan),
    )


# ---------------------------------------------------------------------------
# Cost-ordered exact optimization over the plan lattice.
# ---------------------------------------------------------------------------


# Plans per band of the walk. A band costs a few dozen numpy calls almost
# whatever its size, so the first band holds 448 plans, within which two
# thirds of the benchmark pools' searches accept. Later bands double up to
# _BAND_MAX, which bounds the walk's working set. Every band scans all live
# prefixes, so a band also holds at least 1/_BAND_SHARE of them.
_BAND_FIRST = 448
_BAND_MAX = 2048
_BAND_SHARE = 4


class _Level:
    """The plans over the first k models, produced band by band.

    One row per live prefix, a plan of the first k - 1 models: the plan
    its next count of model k - 1 makes, and that plan's left fold.
    Prefixes join from the level below as the bands reach their folds, and
    leave once their next fold is at or past ``top``, so no plan is ever
    folded twice.
    """

    def __init__(self, costs: Sequence[float], top: float):
        self.cost = costs[-1]
        self.top = top
        self.sub = _Level(costs[:-1], top) if len(costs) > 1 else None
        rows = 1 if self.sub is None else 0  # the first model's empty prefix
        self.plans = np.zeros((rows, len(costs)), dtype=np.int64)
        self.fold = np.zeros(rows)

    def band(self, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """(counts (n, k), folds (n,)) of the plans whose fold lies in
        [lo, hi), unsorted, where lo is the previous call's hi."""
        if self.sub is not None:
            counts, folds = self.sub.band(hi)
            if len(folds):
                joined = np.zeros((len(folds), self.plans.shape[1]), dtype=np.int64)
                joined[:, :-1] = counts
                self.plans = np.concatenate([self.plans, joined])
                self.fold = np.concatenate([self.fold, folds])
        rows = np.nonzero(self.fold < hi)[0]
        runs = self._runs(self.fold[rows], hi)
        live = runs < hi
        # per plan, in row-major order: its prefix's row and its step past
        # the prefix's next plan
        src, step = np.nonzero(live)
        folds = runs[src, step]
        n = live.sum(axis=1)
        self.fold[rows] = runs[np.arange(len(rows)), n]
        counts = self.plans[rows[src]]
        counts[:, -1] += step
        self.plans[rows, -1] += n
        alive = self.fold < self.top
        if not alive.all():
            self.plans = self.plans[alive]
            self.fold = self.fold[alive]
        return counts, folds

    def _runs(self, start: np.ndarray, hi: float) -> np.ndarray:
        """Per row, the folds start, start + c, (start + c) + c, ... in
        columns, up to and including the first that reaches hi."""
        if not len(start):
            return np.empty((0, 1))
        blocks = []
        while True:
            width = int((hi - start.min()) / self.cost) + 2
            block = np.full((len(start), width), self.cost)
            block[:, 0] = start
            np.cumsum(block, axis=1, out=block)  # the fold, one add at a time
            blocks.append(block)
            if (block[:, -1] >= hi).all():
                return blocks[0] if len(blocks) == 1 else np.hstack(blocks)
            start = block[:, -1] + self.cost


def _by_cost(counts: np.ndarray, folds: np.ndarray) -> np.ndarray:
    """The plans sorted by (fold, counts)."""
    order = np.argsort(folds, kind="stable")
    if (np.diff(folds[order]) == 0).any():  # ties: order them by counts
        order = np.lexsort((*counts.T[::-1], folds))
    return counts[order]


def lattice_bands(costs: Sequence[float], cost_cap: float) -> Iterator[np.ndarray]:
    """Yields every plan with cost <= cost_cap + 1e-9, and always the empty
    plan, as (B, K) int64 arrays in nondecreasing cost with ties broken
    lexicographically by counts.

    A plan's cost is its left fold: costs[m] added r_m times, model by
    model, so equal plans cost equal floats. Each array is one cost band
    [lo, hi), sorted by (cost, counts), so ties never split across arrays.
    The first band's edge comes from the simplex volume: at least
    x^K / (K! prod(costs)) plans cost less than x, and the box bound
    prod(x / c_m + 1) keeps skewed costs from overfilling it. Later edges
    extrapolate the count walked so far as x^K, for about twice the last
    band's plans, up to _BAND_MAX or a share of the live prefixes.
    """
    costs = [float(c) for c in costs]
    K = len(costs)
    cap = cost_cap + 1e-9
    # band edges are half-open: a fold below top is at most the cap, and a
    # cap below zero (or NaN) leaves the empty plan alone
    top = math.nextafter(cap, math.inf) if cap >= 0 else math.ulp(0.0)
    level = _Level(costs, top)
    target = _BAND_FIRST
    hi = min(
        (target * math.factorial(K) * math.prod(costs)) ** (1 / K),
        min(costs) * (_BAND_MAX ** (1 / K) - 1),
    )
    walked = 0
    while True:
        hi = min(hi, top)
        band = _by_cost(*level.band(hi))
        if len(band):
            yield band
        if hi == top:
            return
        walked += len(band)
        target = min(2 * target, max(_BAND_MAX, len(level.fold) // _BAND_SHARE))
        hi *= (1 + target / walked) ** (1 / K)


_T = TypeVar("_T")


class BatchScreen(Protocol):
    """What search_lattice prescreens each band with: TangentTable, the
    planner's certifier, or BhattacharyyaScreen."""

    def passes(self, plans: np.ndarray) -> np.ndarray:
        """For plans stacked as a (B, K) array, a mask of those kept."""
        ...


def search_lattice(
    costs: Sequence[float],
    cost_cap: float,
    accept: Callable[[tuple[int, ...]], _T | None],
    node_budget: int,
    prescreen: BatchScreen,
) -> tuple[tuple[int, ...], _T, int] | None:
    """The first plan, in lattice_bands order, that the prescreen keeps and
    that ``accept`` maps to a result other than None.

    Returns (counts, result, enumerated), with enumerated the plan's
    1-based position in the walk, or None if the capped lattice runs out.
    Raises EnumerationBudgetError on reaching position node_budget + 1
    without an accepted plan. Each cost band the walk yields is one
    prescreen batch, and only its survivors become tuples; ``accept`` sees
    them one at a time in walk order and never a plan past the budget. The
    prescreen's mask is computed row by row, so the result, the budget
    behaviour and the sequence of accept calls are those of checking one
    plan at a time, wherever the bands are cut.
    """
    enumerated = 0
    for band in lattice_bands(costs, cost_cap):
        for i in np.flatnonzero(prescreen.passes(band.astype(float))).tolist():
            if enumerated + i + 1 > node_budget:
                break
            counts = tuple(band[i].tolist())
            result = accept(counts)
            if result is not None:
                return counts, result, enumerated + i + 1
        enumerated += len(band)
        if enumerated > node_budget:
            raise EnumerationBudgetError(
                f"search enumerated more than {node_budget} plans"
            )
    return None


@dataclass(frozen=True)
class OptResult:
    problem: str
    tie_policy: str | None
    plan: QueryPlan
    cost: float
    enumerated: int
    cost_cap: float

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "tie_policy": self.tie_policy,
            "plan": list(self.plan.counts),
            "cost": self.cost,
            "enumerated": self.enumerated,
            "cost_cap": self.cost_cap,
        }


def exact_opt(
    instance: Instance,
    problem: str = "surrogate",
    tie_policy: str = "lowest-index",
    cost_cap: float | None = None,
    node_budget: int = NODE_BUDGET,
    profile_budget: int = PROFILE_BUDGET,
) -> OptResult:
    """Minimum-cost plan meeting every tolerance, by cost-ordered search.

    ``problem`` selects the feasibility notion: "surrogate" uses the
    closed-form bound, "true" uses exact statewise errors under the given
    tie policy. The first feasible plan in (cost, lexicographic) order is
    optimal for its problem; search_lattice walks that order. For
    "surrogate" the instance's TangentTable rules most plans out, in
    batches and then one by one, before any tilt is optimized. For "true"
    the BhattacharyyaScreen rules out, in batches, plans whose errors no
    decision rule can bring under the tolerances, and the profile blocks
    the exact errors of the other plans need are built once per call. The
    default cost cap is the cost of querying every model for the uniform
    certifying round count, which is always surrogate-feasible (and hence
    true-feasible).

    Raises ValueError if the prior, a tolerance, a conditional or a cost is
    NaN or infinite, or if the prior, a conditional or a cost is <= 0 (see
    require_finite), InfeasibleWithinCapError if the capped lattice holds
    no feasible plan, and EnumerationBudgetError if the search walks more
    than node_budget plans or an exact error evaluation would exceed
    profile_budget. A plan the screen rules out is never evaluated, so it
    cannot exceed profile_budget.
    """
    if problem not in ("surrogate", "true"):
        raise ValueError(f"unknown problem {problem!r}")
    if cost_cap is not None and math.isnan(cost_cap):
        raise ValueError("cost_cap is NaN")
    wrong = _error_mask(tie_policy)
    require_finite(instance)
    costs = [m.cost for m in instance.models]
    if cost_cap is None:
        _, n_unif = uniform_feasible_count(instance)
        cost_cap = n_unif * float(sum(costs))
    labels = range(instance.n_labels)
    if problem == "surrogate":
        check = _surrogate_check(instance)
        prescreen = TangentTable(instance)

        def accept(counts: tuple[int, ...]) -> bool | None:
            r = np.array(counts, dtype=float)
            if prescreen.rejects(*prescreen.proxy_on_grid(r)):
                return None
            return all(check(r, yi)[0] for yi in labels) or None

    else:
        prescreen = BhattacharyyaScreen(instance)
        cache: _BlockCache = {}

        def accept(counts: tuple[int, ...]) -> bool | None:
            plan = QueryPlan(counts)
            return all(
                _profile_mass(instance, plan, yi, wrong, profile_budget, cache)
                <= instance.tolerances[yi]
                for yi in labels
            ) or None

    found = search_lattice(costs, cost_cap, accept, node_budget, prescreen)
    if found is None:
        raise InfeasibleWithinCapError(
            f"no {problem}-feasible plan with cost <= {cost_cap}"
        )
    counts, _, enumerated = found
    plan = QueryPlan(counts)
    return OptResult(
        problem=problem,
        tie_policy=tie_policy if problem == "true" else None,
        plan=plan,
        cost=plan_cost(instance, plan),
        enumerated=enumerated,
        cost_cap=float(cost_cap),
    )
