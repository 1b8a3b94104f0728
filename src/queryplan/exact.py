"""Exact error evaluation and exact plan optimization by enumeration.

Observations are exchangeable given the label, so only per-model response
count vectors (profiles) matter. A plan r induces
prod_m C(r_m + |X_m| - 1, |X_m| - 1) joint profiles; each is scored once
with its multinomial weight. This is exponentially smaller than raw
sequence space but still explodes on large plans, hence explicit budgets.

The optimizer walks the plan lattice in best-first order (nondecreasing
cost, ties broken lexicographically by count vector) and returns the first
feasible plan, which is therefore a minimum-cost one. That walk,
search_lattice, is shared with the planner's search: it takes plans from
the lattice in batches of growing size, rules out most of a batch with one
matrix product of optimistic pair bounds (bounds.TangentTable), and hands
the survivors in walk order to a caller's acceptance check: here the
surrogate check of is_surrogate_feasible, behind the same table's per-plan
reject, or exact errors (one profile-mass loop serves exact_pairwise and
exact_error), and the window certificate in the planner.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np
from scipy.special import gammaln

from .bounds import (
    TangentTable,
    _logsumexp,
    _surrogate_check,
    uniform_feasible_count,
)
from .instances import Instance, QueryPlan, as_plan, plan_cost, require_finite
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


def _model_blocks(
    instance: Instance, plan: QueryPlan
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per model: (log-likelihood matrix (P, L), log multinomial coeffs (P,)).

    Models with zero queries contribute a single empty profile.
    """
    blocks = []
    for m, r in zip(instance.models, plan.counts):
        profiles = _compositions(r, m.n_symbols, r)
        loglik = profiles.astype(float) @ m.log_conditional.T
        logcoef = gammaln(r + 1) - gammaln(profiles + 1).sum(axis=1)
        blocks.append((loglik, logcoef))
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
    instance: Instance, plan: QueryPlan, budget: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yields (posterior scores (n, L), log joint coefficient (n,)) chunks."""
    n = profile_count(instance, plan)
    if n > budget:
        raise EnumerationBudgetError(
            f"plan induces {n} profiles, over the budget of {budget}"
        )
    for loglik, logcoef in _iter_joint(_model_blocks(instance, plan)):
        yield instance.log_prior[None, :] + loglik, logcoef


def _profile_mass(
    instance: Instance,
    plan: QueryPlan,
    yi: int,
    mask_of: Callable[[np.ndarray, int], np.ndarray],
    budget: int,
) -> float:
    """Probability under label yi of the profiles mask_of(scores, yi) keeps."""
    chunk_lse = []
    for scores, logcoef in _scan_profiles(instance, plan, budget):
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
    yi = instance.label_index(y)
    yj = instance.label_index(y_other)
    if yi == yj:
        raise ValueError("exact_pairwise requires two distinct labels")
    return _profile_mass(
        instance, plan, yi, lambda sc, i: sc[:, yj] - sc[:, i] >= -DELTA_TOL, budget
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
    return _profile_mass(instance, plan, instance.label_index(y), wrong, budget)


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
    errors = tuple(
        _profile_mass(instance, plan, yi, wrong, budget)
        for yi in range(instance.n_labels)
    )
    return ExactErrorResult(
        labels=instance.labels,
        errors=errors,
        tie_policy=tie_policy,
        profiles=profile_count(instance, plan),
    )


def naive_sequence_pairwise(
    instance: Instance,
    plan: QueryPlan | Sequence[int],
    y: int | str,
    y_other: int | str,
) -> float:
    """Reference pairwise probability by raw sequence enumeration.

    Iterates every response sequence rather than count profiles; tractable
    only for tiny plans, and used to cross-check the profile path.
    """
    plan = as_plan(plan, instance)
    yi = instance.label_index(y)
    yj = instance.label_index(y_other)
    slots: list[np.ndarray] = []
    for m, r in zip(instance.models, plan.counts):
        slots.extend([m.log_conditional] * r)
    total = 0.0
    prior_gap = float(instance.log_prior[yj] - instance.log_prior[yi])
    for combo in itertools.product(*(range(lc.shape[1]) for lc in slots)):
        lp_i = sum(lc[yi, x] for lc, x in zip(slots, combo))
        lp_j = sum(lc[yj, x] for lc, x in zip(slots, combo))
        if prior_gap + lp_j - lp_i >= -DELTA_TOL:
            total += math.exp(lp_i)
    return total


# ---------------------------------------------------------------------------
# Best-first exact optimization over the plan lattice.
# ---------------------------------------------------------------------------


def lattice_ascending(
    costs: Sequence[float], cost_cap: float
) -> Iterator[tuple[float, tuple[int, ...]]]:
    """Yields (cost, counts) over all plans with cost <= cap, in
    nondecreasing cost with ties broken lexicographically.

    Each lattice point is generated once: children only increment a model
    index at or after the last one incremented.
    """
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


# Plans taken from the lattice per prescreen batch. Many searches accept
# within a few dozen plans, so the first batch is small; doubling it lets
# long searches prescreen thousands of plans per numpy call.
_BATCH_FIRST = 64
_BATCH_MAX = 8192

_T = TypeVar("_T")


def search_lattice(
    costs: Sequence[float],
    cost_cap: float,
    accept: Callable[[tuple[int, ...]], _T | None],
    node_budget: int,
    prescreen: TangentTable | None = None,
) -> tuple[tuple[int, ...], _T, int] | None:
    """The first plan, in lattice_ascending order, that the prescreen keeps
    and that ``accept`` maps to a result other than None.

    Returns (counts, result, enumerated), with enumerated the plan's
    1-based position in the walk, or None if the capped lattice runs out.
    Raises EnumerationBudgetError on reaching position node_budget + 1
    without an accepted plan. Plans are taken from the walk and prescreened
    in batches, but ``accept`` sees the survivors one at a time in walk
    order and never a plan past the budget, so the result, the budget
    behaviour and the sequence of accept calls are those of checking one
    plan at a time.
    """
    walk = lattice_ascending(costs, cost_cap)
    enumerated = 0
    size = _BATCH_FIRST
    while True:
        batch = [counts for _, counts in itertools.islice(walk, size)]
        if not batch:
            return None
        if prescreen is None:
            survivors = range(len(batch))
        else:
            kept = prescreen.passes(np.array(batch, dtype=float))
            survivors = np.flatnonzero(kept).tolist()
        for i in survivors:
            if enumerated + i + 1 > node_budget:
                break
            result = accept(batch[i])
            if result is not None:
                return batch[i], result, enumerated + i + 1
        enumerated += len(batch)
        if enumerated > node_budget:
            raise EnumerationBudgetError(
                f"search enumerated more than {node_budget} plans"
            )
        size = min(2 * size, _BATCH_MAX)


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
    """Minimum-cost plan meeting every tolerance, by best-first search.

    ``problem`` selects the feasibility notion: "surrogate" uses the
    closed-form bound, "true" uses exact statewise errors under the given
    tie policy. The first feasible plan in (cost, lexicographic) order is
    optimal for its problem; search_lattice walks that order, and for
    "surrogate" the instance's TangentTable rules most plans out, in
    batches and then one by one, before any tilt is optimized. The
    default cost cap is the cost of querying every model for the uniform
    certifying round count, which is always surrogate-feasible (and hence
    true-feasible).

    Raises ValueError if the prior, a tolerance, a conditional or a cost is
    NaN or infinite, InfeasibleWithinCapError if the capped lattice holds no
    feasible plan, and EnumerationBudgetError if the search walks more
    than node_budget plans or a single exact error evaluation would exceed
    profile_budget.
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
        prescreen = None

        def accept(counts: tuple[int, ...]) -> bool | None:
            plan = QueryPlan(counts)
            return all(
                _profile_mass(instance, plan, yi, wrong, profile_budget)
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
