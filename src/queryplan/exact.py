"""Exact error evaluation and exact plan optimization by enumeration.

Observations are exchangeable given the label, so only per-model response
count vectors (profiles) matter. A plan r induces
prod_m C(r_m + |X_m| - 1, |X_m| - 1) joint profiles; each is scored once
with its multinomial weight. This is exponentially smaller than raw
sequence space but still explodes on large plans, hence explicit budgets.

The optimizer walks the plan lattice in nondecreasing cost, ties broken
lexicographically by count vector, and returns the first feasible plan,
which is therefore a minimum-cost one. The walk, _Bands, yields that
order one cost band [lo, hi) at a time: for each prefix of counts it
keeps the next count of the last model and its cost, so a band costs a
few numpy calls however many plans it holds. The search, search_lattice,
is shared with the planner: it rules out most of each band with one
matrix product of pair bounds and hands the survivors in walk order to a
caller's acceptance check. Both screens also state a
necessary condition as halfspaces (BatchScreen), which give each prefix
a least last count; a screened band past the first then folds every
plan, to count it, but materializes, sorts and screens only the plans
at or past that count, and ranks them among all the band's folds. Such
a band holds its folds, not its plans, whole, so where few plans are
candidates it grows past _BAND_MAX, up to _BAND_PRUNED plans (or a
share of the live prefixes, if more). For the surrogate problem
the bounds are the optimistic ones of bounds.TangentTable, and the check
is the surrogate check of is_surrogate_feasible behind the same table's
per-plan reject; the planner's window certificate uses the same table.
The surrogate searches of one Instance object share one SurrogateWalk, a
walk with no cost cap: each search stops at its own cap, and the screened
bands, the survivors' tuples and the per-plan rejects one search computes
serve every later one, whatever its cap, which extends the walk only past
its end. For the true problem the bound is bounds.BhattacharyyaScreen, a
lower bound on each label pair's Bayes error, and the check is exact
errors; each such search walks on its own.
One profile-mass loop serves every exact error, and each public entry
builds every (model, count) profile block once per call and reuses it
across labels and plans; models with zero queries have no block.

exact_opt's true search decides each plan by a sorted split per label
pair (_split_accept) before any joint product, whatever the label count,
on an instance of several models. On an instance of one model every plan
is one block, with no joint product to avoid, and a block no later plan
reuses, so its plans go straight to the profile scan, which is faster
there.
For labels y < z, the score difference Δ = s_z − s_y is a sum of per-model
terms, so the largest block is sorted by Δ, with running sums of its
weights, and one searchsorted per row of the other blocks joined finds
the profiles past a threshold. Label y is wrong where some z scores above
it by more than SCORE_TOL and right where every z scores below it by more
than that, so by the union bound its error lies between the largest and
the sum of its pairs' probabilities of Δ past ±SCORE_TOL; with two labels
both events sit at the tie threshold and the bounds meet. Each bound
counts a profile only beyond a stated rounding margin of its threshold
(likelihood._delta_margin), and a plan whose bounds straddle a tolerance,
within a rounding band, goes to the profile scan, so every accept
decision, and so every plan and position, is the scan's.
exact_error_table, exact_error and exact_pairwise keep the scan, which
stays the audit of the split.
"""

from __future__ import annotations

import itertools
import math
import numbers
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol, Sequence, TypeVar

import numpy as np

from .bounds import (
    _TANGENT_GRID,
    BhattacharyyaScreen,
    TangentTable,
    _logsumexp,
    _surrogate_accept,
    tangent_table,
    uniform_feasible_count,
)
from .instances import Instance, QueryPlan, _expect, _label_pair, as_plan, plan_cost
from .likelihood import (
    SCORE_TOL,
    _delta_margin,
    _delta_threshold,
    _error_mask,
    _gamma,
    _log_scale,
)

# A log-likelihood difference this close to zero is counted as favoring the
# competitor; keeps the exact pairwise terms conservative under fp noise.
DELTA_TOL = 1e-12

PROFILE_BUDGET = 10_000_000
NODE_BUDGET = 1_000_000

# Max joint profiles materialized at once during enumeration.
_CHUNK = 1 << 20


def _budget(value: int, field: str) -> int:
    """A work budget as an int; a ValueError naming the field unless it is
    a non-negative integer (a bool is not one)."""
    _expect(value, numbers.Integral, field, "a non-negative integer")
    if value < 0:
        raise ValueError(f"{field} must be a non-negative integer, got {value!r}")
    return int(value)


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


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) for every integer j in [lo[i], hi[i]) of every row i, as two
    arrays in row-major order."""
    n = hi - lo
    src = np.repeat(np.arange(len(n)), n)
    start = np.cumsum(n)
    start -= hi  # each row's first index, less lo
    step = np.arange(len(src))
    step -= start[src]
    return src, step


def _compositions(total: int, width: int, cap: int) -> np.ndarray:
    """All integer vectors of the given width with entries in [0, cap]
    summing to total, in lexicographic order."""
    # built a column at a time: every prefix takes, in order, each next
    # entry that fits the cap and leaves the rest, at most cap each, able to
    # reach total; the last entry is then what the prefix leaves
    rows = np.arange(
        max(0, total - (width - 1) * cap), min(cap, total) + 1, dtype=np.int64
    )[:, None]
    if width == 1:
        return rows
    left = total - rows[:, 0]
    for rest in range(width - 2, 0, -1):
        lo = np.maximum(left - rest * cap, 0)
        src, step = _spans(lo, np.minimum(left, cap) + 1)
        rows = np.column_stack([rows[src], step])
        left = left[src] - step
    return np.column_stack([rows, left])


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
# public entry and shared by every plan and label it scores; under
# _LOG_FACT, the call's table of log-factorials (_log_factorials).
_BlockCache = dict[tuple[int, int] | str, "_Block | np.ndarray"]
_LOG_FACT = "log_fact"


def _log_factorials(cache: _BlockCache, r: int) -> np.ndarray:
    """log(k!) for k = 0..r at least: the cache's table, grown by
    _log_factorial where a block needs more of it."""
    table = cache.get(_LOG_FACT, np.empty(0))
    if len(table) <= r:
        more = [_log_factorial(k) for k in range(len(table), r + 1)]
        table = cache[_LOG_FACT] = np.concatenate([table, more])
    return table


class _Block:
    """One model's profiles at one query count: ``table`` (P, L + 1) holds
    each profile's log-likelihood under every label, then its log
    multinomial coefficient. ``sorted(y, z)`` is the view the sorted split
    reads for the label pair y < z, computed once per pair."""

    __slots__ = ("table", "_sorted")

    def __init__(self, table: np.ndarray):
        self.table = table
        self._sorted: dict[tuple[int, int], _Sorted] = {}

    def sorted(self, y: int, z: int) -> _Sorted:
        """The _side of the profiles sorted by Δ, (Δ, e_y, e_z, top_y,
        top_z), then (tail (P + 1,), head (P + 1,)), where tail[i] sums e_y
        over the sorted profiles from i on and head[i] sums e_z over those
        before i. Each is a direct running sum, never a difference of two."""
        got = self._sorted.get((y, z))
        if got is None:
            t = self.table
            side = _side(t[np.argsort(t[:, z] - t[:, y], kind="stable")], y, z)
            tail = np.zeros(len(t) + 1)
            tail[:-1] = np.cumsum(side[1][::-1])[::-1]
            head = np.zeros(len(t) + 1)
            np.cumsum(side[2], out=head[1:])
            got = self._sorted[y, z] = (*side, tail, head)
        return got


# (Δ, e_y, e_z, top_y, top_z) of _side.
_Side = tuple[np.ndarray, np.ndarray, np.ndarray, float, float]
# _Block.sorted's: a _Side, then (tail, head).
_Sorted = tuple[np.ndarray, np.ndarray, np.ndarray, float, float, np.ndarray, np.ndarray]


def _side(rows: np.ndarray, y: int, z: int) -> _Side:
    """Profile rows (n, L + 1), as a _Block's table holds them, read for
    the label pair y < z: (Δ, e_y, e_z, top_y, top_z), with
    Δ = loglik_z − loglik_y, and e_x = exp(w_x − top_x) for the log weight
    w_x = logcoef + loglik_x under x, whose largest value is top_x."""
    w = rows[:, y : z + 1 : z - y] + rows[:, -1:]
    top = np.maximum.reduce(w)
    e = np.exp(w.T - top[:, None])
    return rows[:, z] - rows[:, y], e[0], e[1], *top.tolist()


# The rest of a plan that queries one model: the empty profile, for any pair.
_EMPTY_SIDE: _Side = (np.zeros(1), np.ones(1), np.ones(1), 0.0, 0.0)


def _model_blocks(
    instance: Instance, plan: QueryPlan, cache: _BlockCache
) -> list[_Block]:
    """The blocks of the models the plan queries, in model order; a plan
    that queries none has the one empty profile, whose log-likelihoods
    and coefficient are 0.

    Models with zero queries contribute only that empty profile, so
    leaving them out adds no 0.0 to any sum and changes no bit, nor any
    chunk _iter_joint yields. A block missing from the cache is built and
    stored there.
    """
    blocks = []
    for k, (m, r) in enumerate(zip(instance.models, plan.counts)):
        if not r:
            continue
        block = cache.get((k, r))
        if block is None:
            profiles = _compositions(r, m.n_symbols, r)
            table = np.empty((len(profiles), instance.n_labels + 1))
            table[:, :-1] = profiles.astype(float) @ m.log_conditional.T
            log_fact = _log_factorials(cache, r)
            table[:, -1] = log_fact[r] - log_fact[profiles].sum(axis=1)
            block = cache[k, r] = _Block(table)
        blocks.append(block)
    return blocks or [_Block(np.zeros((1, instance.n_labels + 1)))]


def _iter_joint(tables: list[np.ndarray]) -> Iterator[np.ndarray]:
    """Streams the cartesian product of per-model tables (P_m, C) in
    bounded chunks: each row of a chunk (n, C) is the sum of one row of
    every table, the first table's outermost."""
    t0 = tables[0]
    if len(tables) == 1:
        for i in range(0, t0.shape[0], _CHUNK):
            yield t0[i : i + _CHUNK]
        return
    for rest in _iter_joint(tables[1:]):
        step = max(1, _CHUNK // rest.shape[0])
        for i in range(0, t0.shape[0], step):
            yield (t0[i : i + step, None, :] + rest[None, :, :]).reshape(
                -1, t0.shape[1]
            )


def _check_budget(instance: Instance, plan: QueryPlan, budget: int) -> int:
    """The plan's profile count, if within budget."""
    n = profile_count(instance, plan)
    if n > budget:
        raise EnumerationBudgetError(
            f"plan induces {n} profiles, over the budget of {budget}"
        )
    return n


def _scan_profiles(
    instance: Instance, plan: QueryPlan, budget: int, cache: _BlockCache
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yields (posterior scores (n, L), log joint coefficient (n,)) chunks."""
    _check_budget(instance, plan, budget)
    tables = [b.table for b in _model_blocks(instance, plan, cache)]
    for joint in _iter_joint(tables):
        yield instance.log_prior[None, :] + joint[:, :-1], joint[:, -1]


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


def _cuts(
    d: np.ndarray, delta: np.ndarray, past_at: float, short_of: float, margin: float
) -> tuple[np.ndarray, np.ndarray, bool]:
    """A label's two cuts of the sorted Δ values d for joined rows with Δ
    delta: (past, short, apart), where past[i] counts the profiles of d
    that row i does not take past past_at by more than the margin,
    short[i] those it takes short of short_of by more than it, and apart
    whether the two differ on some row."""
    x = past_at - delta
    past = d.searchsorted(x + margin, "right")
    short = d.searchsorted((x if short_of == past_at else short_of - delta) - margin)
    return past, short, (past != short).any()


def _split_bounds(
    instance: Instance,
    plan: QueryPlan,
    tie_policy: str,
    cache: _BlockCache,
    scale: float,
) -> Iterator[tuple[list[float], list[float]]]:
    """Every label's bounds on its MAP error by the sorted split, after
    each label pair y < z in turn: (lower, upper), each a bound on the
    exact error up to rounding (_split_accept), which the later pairs
    only tighten or complete; scale is _log_scale's.

    Label y is wrong where some z scores above it by more than
    SCORE_TOL, and right where every z scores below it by more than
    SCORE_TOL. So, with Δ = s_z − s_y and τ = SCORE_TOL, the union bound
    gives max_z P_y(Δ > τ) ≤ error_y ≤ Σ_z P_y(Δ ≥ −τ), and the reverse
    events of Δ bound label z. With two labels, both events of a label
    sit at its _delta_threshold, and the bounds meet at the error. A
    lower term counts only the profiles past its threshold by more than
    _delta_margin, and an upper term every profile short of it by less,
    so each holds for the scores' own decisions.

    Δ is a sum of per-model terms, so the largest block is sorted by Δ
    once per pair (_Block.sorted) and the other blocks are joined: per
    joined row with Δ_A, the profiles of the largest block past a
    threshold less Δ_A are one searchsorted away, and their weight is a
    running sum (the sort-and-search step of Horowitz and Sahni, JACM
    21(2), 1974). A term is then one dot product per chunk of joined
    rows, one for both bounds where their cuts agree, scaled by
    exp(top + shift), which is at least the chunk's largest joint
    weight: at least 1/n for a plan of n profiles in one chunk."""
    blocks = _model_blocks(instance, plan, cache)
    big = max(range(len(blocks)), key=lambda i: len(blocks[i].table))
    rest = [b for i, b in enumerate(blocks) if i != big]
    margin = _delta_margin(instance, plan.counts, scale)
    # each label's thresholds of a pair, (lower, upper): y is wrong where
    # Δ lies above them, z where it lies below them; y's cuts serve z
    # where z's (upper, lower) are y's (lower, upper)
    n_labels = instance.n_labels
    if n_labels == 2:
        t_y, t_z = _delta_threshold(tie_policy, 0), _delta_threshold(tie_policy, 1)
        y_at, z_at = (t_y, t_y), (t_z, t_z)
    else:
        y_at, z_at = (SCORE_TOL, -SCORE_TOL), (-SCORE_TOL, SCORE_TOL)
    shared = z_at[::-1] == y_at
    prior = instance.log_prior.tolist()
    lower = [0.0] * n_labels
    upper = [0.0] * n_labels
    for y, z in itertools.combinations(range(n_labels), 2):
        d, _, _, shift_y, shift_z, tail, head = blocks[big].sorted(y, z)
        if len(rest) < 2:
            sides = [rest[0].sorted(y, z)[:5] if rest else _EMPTY_SIDE]
        else:
            joint = _iter_joint([b.table for b in rest])
            sides = (_side(rows, y, z) for rows in joint)
        gap = prior[z] - prior[y]
        low_y = up_y = low_z = up_z = 0.0
        for delta, e_y, e_z, top_y, top_z in sides:
            past, short, apart = _cuts(d, delta, y_at[0] - gap, y_at[1] - gap, margin)
            if shared:
                past_z, short_z, apart_z = past, short, apart
            else:
                past_z, short_z, apart_z = _cuts(
                    d, delta, z_at[1] - gap, z_at[0] - gap, margin
                )
            # y is wrong from its cuts on: its lower term from past, its
            # upper from short; one dot product where they agree
            f = math.exp(top_y + shift_y)
            term = float(e_y @ tail[past]) * f
            low_y += term
            up_y += float(e_y @ tail[short]) * f if apart else term
            # z is wrong before its cuts: its upper term before past, its
            # lower before short
            f = math.exp(top_z + shift_z)
            term = float(e_z @ head[past_z]) * f
            up_z += term
            low_z += float(e_z @ head[short_z]) * f if apart_z else term
        if low_y > lower[y]:
            lower[y] = low_y
        if low_z > lower[z]:
            lower[z] = low_z
        upper[y] += up_y
        upper[z] += up_z
        yield lower, upper


def _split_accept(
    instance: Instance,
    plan: QueryPlan,
    tie_policy: str,
    budget: int,
    cache: _BlockCache,
) -> bool | None:
    """Whether a plan meets every tolerance, decided as the scan
    (_profile_mass) decides, from the bounds of _split_bounds: False as
    soon as some label's lower bound exceeds its tolerance by more than
    the rounding band, True if every upper bound lies under its
    tolerance by more than the band, else None, for the scan to decide.
    Raises as the scan does over budget.

    A bound and the scan sum exp(w) over nested sets of profiles (the
    margin sees to that), with log weights w built from the same block
    entries by sums of at most 2K + 3 terms of magnitude up to 2M (K
    queried models, M = _log_scale), so each term differs by at most
    γ_{2K+4}·4M, plus at most u·745 from shifting and taking logs of
    values down to the smallest double. An upper bound sums at most
    (L − 1)·n positive terms over L − 1 pairs of n profiles, which adds
    γ_{(L−1)n}, and the scan's n terms add less. Relative to the exact
    sums, each is then off by at most
    δ = γ_{2K+6}·(4M + 750) + γ_{(L−1)n}, and the band 1e-9 + 2δ covers
    both. Terms under the smallest normal double lose at most ulp(0)
    each, at most 4(L − 1)n·ulp(0) in all, an absolute floor that
    matters only at tolerances near 1e-300."""
    n = _check_budget(instance, plan, budget)
    scale = _log_scale(instance, plan.counts)
    k = sum(1 for r in plan.counts if r)
    terms = (instance.n_labels - 1) * n
    band = 1e-9 + 2.0 * (_gamma(2 * k + 6) * (4.0 * scale + 750.0) + _gamma(terms))
    floor = 4.0 * terms * math.ulp(0.0)
    tolerances = instance.tolerances.tolist()
    for lower, upper in _split_bounds(instance, plan, tie_policy, cache, scale):
        for e, a in zip(lower, tolerances):
            if e - a > band * a + floor:
                return False
    for e, a in zip(upper, tolerances):
        if a - e <= band * a + floor:
            return None
    return True


def exact_pairwise(
    instance: Instance,
    plan: QueryPlan | Sequence[int],
    y: int | str,
    y_other: int | str,
    budget: int = PROFILE_BUDGET,
) -> float:
    """Exact probability, under label y, that the observations weigh at
    least as heavily toward y_other (log-posterior difference >= 0).

    This is the quantity the per-pair tilted proxy upper-bounds.
    """
    budget = _budget(budget, "budget")
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
    """Exact statewise MAP error for label y under the chosen tie policy."""
    budget = _budget(budget, "budget")
    wrong = _error_mask(tie_policy)
    plan = as_plan(plan, instance)
    return _profile_mass(instance, plan, instance.label_index(y), wrong, budget, {})


@dataclass(frozen=True, slots=True)
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
    budget = _budget(budget, "budget")
    wrong = _error_mask(tie_policy)
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

# A walk pruned by its prescreen's halfspaces materializes only its
# candidates, so a band's working set is its folds, one float per plan,
# and its candidates' rows of counts. Its bands double until they would
# hold _BAND_MAX rows at the last band's share, up to this many plans (or
# 1/_BAND_SHARE of the live prefixes, if more), which lets each live
# prefix yield several plans per band.
_BAND_PRUNED = 8192


class _Level:
    """The plans over the first k models, produced band by band.

    One row per live prefix, a plan of the first k - 1 models: the plan
    its next count of model k - 1 makes, and that plan's left fold.
    Prefixes join from the level below as the bands reach their folds, and
    leave once their next fold is at or past ``top``, so no plan is ever
    folded twice. With a screen, each prefix also keeps, from the first
    call of candidates on, the least last count a candidate plan takes
    under the screen's halfspaces (_least_count), computed once per
    prefix.
    """

    def __init__(
        self,
        costs: Sequence[float],
        top: float,
        screen: BatchScreen | None = None,
    ):
        self.cost = costs[-1]
        self.top = top
        self.sub = _Level(costs[:-1], top) if len(costs) > 1 else None
        rows = 1 if self.sub is None else 0  # the first model's empty prefix
        self.plans = np.zeros((rows, len(costs)), dtype=np.int64)
        self.fold = np.zeros(rows)
        self.screen = screen
        self.floor: np.ndarray | None = None  # set by candidates

    def band(self, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """(counts (n, k), folds (n,)) of the plans whose fold lies in
        [lo, hi), unsorted, where lo is the previous call's hi."""
        rows, runs, live, n = self._fold(hi)
        # per plan, in row-major order: its prefix's row and its step past
        # the prefix's next plan
        src, step = np.nonzero(live)
        folds = runs[src, step]
        del runs, live  # freed before the counts are built
        counts = self._counts(rows, src, step)
        self._advance(rows, n)
        return counts, folds

    def candidates(
        self, hi: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
        """band's plans whose last count is at or past their prefix's
        floor, sorted by (fold, counts): (counts (n, k), folds (n,), ranks
        (n,), size, held), where a plan's rank is its 0-based position
        among all the band's size plans in that order, and held is how
        many plans became rows of counts on the way.

        Every plan is folded. When candidates are fewer than half the
        band's plans and no two plans share a fold, only the candidates
        become rows of counts, and a rank counts the band's folds below
        the plan's, by one sort of the folds. Otherwise every plan is
        materialized and sorted by (fold, counts), as a fold tie's order
        turns on counts.
        """
        rows, runs, live, n = self._fold(hi)
        if self.floor is None:
            self.least = _least_count(*self.screen.halfspaces)
            self.floor = self.least(self.plans[:, :-1])
        # each prefix's steps past its next plan to its first candidate
        first = np.maximum(self.floor[rows] - self.plans[rows, -1], 0.0)
        first = np.minimum(first, n).astype(np.int64)
        every = None
        if 2 * int((n - first).sum()) < int(n.sum()):
            every = runs[live]
            every.sort()
            if (every[1:] == every[:-1]).any():
                every = None
        if every is None:
            src, step = np.nonzero(live)
            keep = step >= first[src]
        else:
            # from 1-d arrays: a mask of the columns past first would
            # cost numpy buffers far larger than the band's runs
            src, step = _spans(first, n)
        del first
        folds = runs[src, step]
        del runs, live  # freed before the counts are built
        counts = self._counts(rows, src, step)
        del src, step  # freed before the sort; every holds what ranks need
        self._advance(rows, n)
        if every is not None:
            order = np.argsort(folds)  # distinct folds
            folds = folds[order]
            ranks = np.searchsorted(every, folds)
            return counts[order], folds, ranks, len(every), len(folds)
        order = _cost_order(counts, folds)
        if keep.all():
            ranks = np.arange(len(order))
        else:
            ranks = np.flatnonzero(keep[order])
            order = order[ranks]
        return counts[order], folds[order], ranks, len(folds), len(folds)

    def _counts(
        self, rows: np.ndarray, src: np.ndarray, step: np.ndarray
    ) -> np.ndarray:
        """The counts of the plans step[i] past the next plan of the prefix
        in row rows[src[i]]."""
        counts = self.plans[rows[src]]
        counts[:, -1] += step
        return counts

    def _fold(
        self, hi: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Joins the prefixes the level below reaches before hi, and folds
        each prefix with a fold below hi: (rows, runs, live, n), the
        prefixes' rows, their runs (_runs), the mask of runs below hi and
        its count per row. Each prefix's fold moves to its first plan at or
        past hi; its count moves with _advance, once the band is read."""
        if self.sub is not None:
            counts, folds = self.sub.band(hi)
            if len(folds):
                joined = np.zeros((len(folds), self.plans.shape[1]), dtype=np.int64)
                joined[:, :-1] = counts
                self.plans = np.concatenate([self.plans, joined])
                self.fold = np.concatenate([self.fold, folds])
                if self.floor is not None:
                    self.floor = np.concatenate([self.floor, self.least(counts)])
        rows = np.nonzero(self.fold < hi)[0]
        runs = self._runs(self.fold[rows], hi)
        live = runs < hi
        n = live.sum(axis=1)
        self.fold[rows] = runs[np.arange(len(rows)), n]
        return rows, runs, live, n

    def _advance(self, rows: np.ndarray, n: np.ndarray) -> None:
        """Moves the folded prefixes' counts n plans on, to their first
        plan at or past hi, and drops the prefixes past top."""
        self.plans[rows, -1] += n
        alive = self.fold < self.top
        if not alive.all():
            self.plans = self.plans[alive]
            self.fold = self.fold[alive]
            if self.floor is not None:
                self.floor = self.floor[alive]

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


def _least_count(
    weights: np.ndarray, floors: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """For halfspaces r . weights[h] >= floors[h] with weights >= 0, the map
    from prefixes (n, K - 1) to the least last count (n,) that meets every
    halfspace: as r . weights[h] grows with the last count, every plan of
    the prefix from that count on meets them, and none before it. A
    halfspace the last count does not move sets no count: its weight
    divides as NaN, which np.fmax passes over, so the count can only be
    too low, never too high. Rounding lowers a count by at most the
    margin the floors carry (BatchScreen). With no halfspace, every
    count is a candidate."""
    if not len(floors):
        return lambda prefixes: np.zeros(len(prefixes))
    head = weights[:, :-1].T
    slope = np.where(weights[:, -1] > 0.0, weights[:, -1], np.nan)

    def least(prefixes: np.ndarray) -> np.ndarray:
        need = (floors - prefixes @ head) / slope  # (n, H)
        return np.ceil(np.fmax.reduce(need, axis=1, initial=0.0))

    return least


def _cost_order(counts: np.ndarray, folds: np.ndarray) -> np.ndarray:
    """The order that sorts the plans by (fold, counts)."""
    order = np.argsort(folds, kind="stable")
    if (np.diff(folds[order]) == 0).any():  # ties: order them by counts
        order = np.lexsort((*counts.T[::-1], folds))
    return order


def _top(cost_cap: float) -> float:
    """The fold every plan of a walk capped at cost_cap lies below: the
    plans with cost <= cost_cap + 1e-9 (band edges are half-open), and only
    the empty plan for a cap below zero or NaN."""
    cap = cost_cap + 1e-9
    return math.nextafter(cap, math.inf) if cap >= 0 else math.ulp(0.0)


class _Bands:
    """The screened walk: an iterator of the plans with cost <= cost_cap +
    1e-9, and always the empty plan, in nondecreasing cost with ties broken
    lexicographically by counts, one cost band [lo, hi) at a time, each
    screened as one prescreen batch (a _Band). An object rather than a
    generator, so a walk paused between bands (a SurrogateWalk) holds its
    live prefixes but not the band it handed out last.

    A plan's cost is its left fold: costs[m] added r_m times, model by
    model, so equal plans cost equal floats, and ties never split across
    bands. The first band's edge comes from the simplex volume: at least
    x^K / (K! prod(costs)) plans cost less than x, and the box bound
    prod(x / c_m + 1) keeps skewed costs from overfilling it. Later edges
    extrapolate the count walked so far as x^K, for about twice the last
    band's plans, up to _BAND_MAX, or _BAND_PRUNED where a band
    materializes only its candidates, or a share of the live prefixes
    (_past)."""

    def __init__(
        self,
        costs: Sequence[float],
        cost_cap: float,
        prescreen: BatchScreen,
    ):
        costs = [float(c) for c in costs]
        self.K = K = len(costs)
        self.top = _top(cost_cap)
        self.prescreen = prescreen
        self.level: _Level | None = _Level(costs, self.top, prescreen)
        self.target = _BAND_FIRST
        self.hi = min(
            (self.target * math.factorial(K) * math.prod(costs)) ** (1 / K),
            min(costs) * (_BAND_MAX ** (1 / K) - 1),
        )
        self.walked = 0

    def __iter__(self) -> _Bands:
        return self

    def __next__(self) -> _Band:
        """The next band screened as one prescreen batch, with positions
        counted from the walk's start; StopIteration past the walk's end.

        Once the walk has passed a plan, only a band's candidates under
        the prescreen's halfspaces are materialized and sorted
        (_Level.candidates), and the batch holds them alone. The first
        band is small and ends most searches, so it is screened whole,
        without the least counts' fixed cost. The batch's mask is computed
        row by row, so both keep the same plans, and a position counts
        every plan of the walk before it."""
        walked = self.walked  # empty bands and the last one add nothing
        while self.level is not None:
            hi = self.hi = min(self.hi, self.top)
            if self.walked:
                plans, folds, ranks, size, held = self.level.candidates(hi)
            else:
                plans, folds = self.level.band(hi)
                order = _cost_order(plans, folds)
                plans, folds = plans[order], folds[order]
                ranks = np.arange(len(plans))
                size = held = len(plans)
            self._past(hi, size, held)
            if size:
                kept = np.flatnonzero(self.prescreen.passes(plans.astype(float)))
                positions = ranks[kept] + (walked + 1)
                return _Band(plans[kept], folds[kept], positions, walked + size, hi)
        raise StopIteration

    def _past(self, hi: float, size: int, held: int) -> None:
        """Moves past a band of size plans with upper edge hi, of which
        held became rows of counts: ends the walk at top, or sets the
        next band's edge. Bands double until they would hold _BAND_MAX
        rows at this band's share of rows to plans, up to _BAND_PRUNED
        plans, or a share of the live prefixes if more. A band that held
        every plan sets a limit of _BAND_MAX plans."""
        if hi == self.top:
            self.level = None  # the walk is done; free its prefixes
            return
        self.walked += size
        limit = _BAND_MAX
        if held < size:
            limit = min(_BAND_PRUNED, _BAND_MAX * size // max(held, 1))
        live = len(self.level.fold)
        self.target = min(2 * self.target, max(limit, live // _BAND_SHARE))
        self.hi *= (1 + self.target / self.walked) ** (1 / self.K)


_T = TypeVar("_T")


class BatchScreen(Protocol):
    """What search_lattice prescreens each band with: TangentTable (also
    the planner's, through the instance's SurrogateWalk) or
    BhattacharyyaScreen.

    Its ``halfspaces``, (weights (H, K), floors (H,)) with weights >= 0,
    state a necessary condition: every plan it keeps has
    r . weights[h] >= floors[h] for every h, with a margin above rounding.
    The walk prunes each band but the first to the plans that meet it
    before the batch (_Bands.__next__). A screen with H = 0 (weights of
    any width) prunes nothing."""

    halfspaces: tuple[np.ndarray, np.ndarray]

    def passes(self, plans: np.ndarray) -> np.ndarray:
        """For plans stacked as a (B, K) array, a mask of those kept."""
        ...


class _Band:
    """One band of a screened walk: the plans the prescreen kept, as a
    (n, K) int64 array, their folds and 1-based walk positions, the
    position of the band's last plan and the band's upper edge hi, which
    every later plan's fold is at or past.

    A search hands each survivor to its accept as a tuple from ``rows``,
    a list of the band's length that fill_rows fills by slices, in the
    chunks _batch_end gives; a SurrogateWalk scores each survivor's
    tangent reject into ``rejected`` in the same chunks, for the first
    ``scored``. Both lists are made whole at once, so two searches that
    race on a band write the same values to the same places."""

    __slots__ = (
        "plans", "folds", "positions", "end", "hi", "rows", "rejected", "scored"
    )

    def __init__(
        self,
        plans: np.ndarray,
        folds: np.ndarray,
        positions: np.ndarray,
        end: int,
        hi: float,
    ):
        self.plans = plans
        self.folds = folds
        self.positions = positions
        self.end = end
        self.hi = hi
        self.rows: list[tuple[int, ...] | None] = [None] * len(plans)
        self.rejected = [False] * len(plans)
        self.scored = 0

    def fill_rows(self, j: int, most: int) -> None:
        """Sets the rows of the chunk of survivors that starts at j."""
        end = _batch_end(j, most)
        self.rows[j:end] = map(tuple, self.plans[j:end].tolist())


# Survivors in a band's first chunk of rows and tangent rejects; each later
# chunk of the band doubles, up to a batch limit.
_AHEAD_FIRST = 8


def _batch_end(j: int, most: int) -> int:
    """The end of a band's chunk of survivors that starts at j: 8
    survivors, then as many as the band's chunks before it, up to most."""
    return j + min(j + _AHEAD_FIRST, most)


def _budget_error(node_budget: int) -> EnumerationBudgetError:
    return EnumerationBudgetError(f"search enumerated more than {node_budget} plans")


def _holds_more(
    costs: Sequence[float], cost_cap: float, screen: BatchScreen, node_budget: int
) -> bool:
    """Whether the walk capped at cost_cap holds more than node_budget
    plans: a screened band's end counts every plan before it, so the walk
    goes no further than the band that tells."""
    return any(band.end > node_budget for band in _Bands(costs, cost_cap, screen))


def _search(
    bands: Iterable[_Band],
    accept: Callable[[tuple[int, ...]], _T | None],
    node_budget: int,
    walk: SurrogateWalk | None = None,
    cost_cap: float = math.inf,
) -> tuple[tuple[int, ...], _T, int] | None:
    """search_lattice over screened bands, which may run past cost_cap
    (a SurrogateWalk's do): the search stops at its first plan over the
    cap, with the capped walk's outcome. Each survivor goes to accept as
    the tuple in its band's rows, filled a chunk at a time (_Band). Before
    each accept call, the walk, if any, learns which survivor the plan is
    and the very tuple handed (SurrogateWalk.at)."""
    top = _top(cost_cap)
    # a walk keeps its bands' rows for every later search; a band no walk
    # keeps is filled a few rows at a time, and each row is dropped once
    # handed, so its rows hold no more than its plans do
    most = _AHEAD_FIRST if walk is None else walk.table.batch_rows
    for band in bands:
        past = band.hi > top  # the cap falls in this band
        n = int(np.searchsorted(band.folds, top)) if past else len(band.plans)
        rows = band.rows
        # read lazily: a grown band may hold thousands of survivors past
        # the plan a search accepts
        for i, position in enumerate(memoryview(band.positions[:n])):
            if position > node_budget:
                raise _budget_error(node_budget)
            counts = rows[i]
            if counts is None:
                band.fill_rows(i, most)
                counts = rows[i]
            if walk is None:
                rows[i] = None
            else:
                walk.at = (band, i, counts)
            result = accept(counts)
            if result is not None:
                return counts, result, position
        if past:
            # the capped walk ends in this band, at its end or before: it
            # holds at most band.end plans, and past the budget only a count
            # tells how many
            if band.end > node_budget and _holds_more(
                walk.costs, cost_cap, walk.table, node_budget
            ):
                raise _budget_error(node_budget)
            return None
        if band.end > node_budget:
            raise _budget_error(node_budget)
        del band, rows  # freed before the next band is screened
    return None


def search_lattice(
    costs: Sequence[float],
    cost_cap: float,
    accept: Callable[[tuple[int, ...]], _T | None],
    node_budget: int,
    prescreen: BatchScreen,
) -> tuple[tuple[int, ...], _T, int] | None:
    """The first plan, in the walk's order (_Bands), that the prescreen
    keeps and that ``accept`` maps to a result other than None.

    Returns (counts, result, enumerated), with enumerated the plan's
    1-based position in the walk, or None if the capped lattice runs out.
    Raises EnumerationBudgetError on reaching position node_budget + 1
    without an accepted plan. Each cost band the walk yields is one
    prescreen batch, and only its survivors become tuples; past the first
    band the batch holds only the band's candidates under the prescreen's
    halfspaces, while positions still count every plan. ``accept`` sees
    the survivors one at a time in walk order and never a plan past the
    budget. The prescreen's mask is computed row by row, so the result,
    the budget behaviour and the sequence of accept calls are those of
    checking one plan at a time, wherever the bands are cut.
    """
    return _search(_Bands(costs, cost_cap, prescreen), accept, node_budget)


class SurrogateWalk:
    """The surrogate searches' walk of one instance: _Bands with no cost
    cap, screened by the instance's TangentTable, kept as it grows, so
    every search on the instance reads the same bands, w_max survivors,
    positions and tangent rejects, whatever its cap. Each band past the
    first is pruned by the table's halfspaces (_Bands.__next__), so the
    walk turns only a band's candidates into counts, while positions
    count every plan.

    A search reads the bands in order, stops at its first plan over its
    cap and extends the walk by one band only when it reaches the end;
    search behaves as search_lattice with the table as prescreen and the
    same cap. The capped walk's plans are a prefix of this one's, cut by
    the plans' folds, so only the budget check of the band where the cap
    falls may need to count the capped walk's plans (_holds_more).
    rejects_plan answers for the survivor a search is handing its accept,
    which it knows by the tuple's identity (or, from other callers, by
    equal counts), from rejects scored ahead in one batch: 8 survivors,
    then twice as many each time a search reaches the end of the scored
    ones, up to the table's batch_rows. The band's rows of tuples are
    filled in the same chunks (_Band), and both stay with the band. So a
    band is scored at most one batch past the furthest plan any search has
    reached, and a later search reads every tuple and reject an earlier
    one made.
    """

    def __init__(self, table: TangentTable, costs: Sequence[float]):
        self.table = table
        self.costs = [float(c) for c in costs]
        self.bands: list[_Band] = []
        self._lattice = _Bands(self.costs, math.inf, table)
        self._lock = threading.Lock()  # one thread at a time extends
        # the band, index and row of the survivor last handed to an accept
        self.at: tuple[_Band | None, int, tuple[int, ...] | None] = (None, 0, None)

    def _walk(self) -> Iterator[_Band]:
        """The bands in order, extending the walk past its end."""
        b = 0
        while True:
            if b == len(self.bands):
                with self._lock:
                    if b == len(self.bands):
                        self._extend()
            yield self.bands[b]
            b += 1

    def _extend(self) -> None:
        """Screens the walk's next band into bands; an uncapped walk has
        no end."""
        self.bands.append(next(self._lattice))

    def search(
        self,
        accept: Callable[[tuple[int, ...]], _T | None],
        node_budget: int,
        cost_cap: float,
    ) -> tuple[tuple[int, ...], _T, int] | None:
        """search_lattice on this walk, capped at cost_cap."""
        return _search(self._walk(), accept, node_budget, self, cost_cap)

    def rejects_plan(self, counts: Sequence[int]) -> bool:
        """The table's tangent reject of the plan: read from the rejects
        scored ahead if it is the survivor being handed to an accept (its
        row itself, or equal counts), else scored alone."""
        band, i, row = self.at
        if counts is not row and row != tuple(counts):
            return self.table.rejects_one(counts)
        rejected = band.rejected
        while band.scored <= i:
            j = band.scored
            end = _batch_end(j, self.table.batch_rows)
            rejected[j:end] = self.table.rejects_each(band.plans[j:end]).tolist()
            band.scored = min(end, len(rejected))
        return rejected[i]


def surrogate_walk(instance: Instance, grid: int = _TANGENT_GRID) -> SurrogateWalk:
    """The instance's SurrogateWalk, screened by its TangentTable of the
    given grid size: made once per Instance object and grid, and shared by
    every surrogate search on it, whatever its cost cap."""
    return instance._shared(
        ("surrogate_walk", grid),
        lambda: SurrogateWalk(
            tangent_table(instance, grid), [m.cost for m in instance.models]
        ),
    )


@dataclass(frozen=True, slots=True)
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
    batches and then one by one, before any tilt is optimized; the walk,
    its survivors and their rejects are the instance's SurrogateWalk,
    shared with every other surrogate search on the instance whatever its
    cap (run_afptas included), and the search stops at this cap. For
    "true" the BhattacharyyaScreen rules out, in batches, plans whose
    errors no decision rule can bring under the tolerances. Every other
    plan, whatever the label count, is decided by the pairwise split's
    bounds on each label's exact error (_split_accept), or by the profile
    scan where a bound straddles a tolerance, with the decision the scan
    would take; on an instance of one model, every plan goes to the scan
    directly. The profile blocks both read are built once per call. The default cost cap is the cost of querying every model for
    the uniform certifying round count, which is always surrogate-feasible
    (and hence true-feasible).

    Raises InfeasibleWithinCapError if the capped lattice holds no feasible
    plan, and EnumerationBudgetError if the search walks more
    than node_budget plans or an exact error evaluation would exceed
    profile_budget. A plan the screen rules out is never evaluated, so it
    cannot exceed profile_budget.
    """
    if problem not in ("surrogate", "true"):
        raise ValueError(f"unknown problem {problem!r}")
    if cost_cap is not None and math.isnan(cost_cap):
        raise ValueError("cost_cap is NaN")
    node_budget = _budget(node_budget, "node_budget")
    profile_budget = _budget(profile_budget, "profile_budget")
    wrong = _error_mask(tie_policy)
    costs = [m.cost for m in instance.models]
    if cost_cap is None:
        _, n_unif = uniform_feasible_count(instance)
        cost_cap = n_unif * float(sum(costs))
    labels = range(instance.n_labels)
    if problem == "surrogate":
        check = _surrogate_accept(instance)
        walk = surrogate_walk(instance)

        def accept(counts: tuple[int, ...]) -> bool | None:
            if walk.rejects_plan(counts):
                return None
            return check(np.array(counts, dtype=float)) or None

        found = walk.search(accept, node_budget, cost_cap)
    else:
        cache: _BlockCache = {}
        # with one model, each plan's one block serves no other plan, so the
        # split's sorted views of it are never reused and the scan is faster
        split = instance.n_models > 1

        def accept(counts: tuple[int, ...]) -> bool | None:
            plan = QueryPlan(counts)
            met = None
            if split:
                met = _split_accept(instance, plan, tie_policy, profile_budget, cache)
            if met is None:
                met = all(
                    _profile_mass(instance, plan, yi, wrong, profile_budget, cache)
                    <= instance.tolerances[yi]
                    for yi in labels
                )
            return met or None

        prescreen = BhattacharyyaScreen(instance)
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
