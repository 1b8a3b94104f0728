"""Pairwise affinity factors and the closed-form surrogate error bound.

For a label pair (y, y') and tilt s in [0, 1], a model's affinity factor is

    M(s) = sum_x p(x|y)^(1-s) * p(x|y')^s,

the moment generating function of the log-likelihood ratio evaluated along
the exponential family connecting the two rows. M(0) = M(1) = 1, M is
log-convex in s, and M < 1 on (0, 1) exactly when the rows differ. The
probability that observations under y favor y' is bounded, for every s, by

    (prior(y') / prior(y))^s * prod_m M_m(s)^(r_m),

and the surrogate error of label y sums this bound over competitors y' with
s optimized per pair. The surrogate dominates the exact statewise error, so
any plan feasible for the surrogate is feasible for the true problem.

The tilted pair proxy s*log(prior ratio) + sum_m r_m log M_m(s) is written
once, as PairStack.proxy. The pairs' tilts are independent, so a PairStack
holds several pairs as lanes, and golden_lanes minimizes them in lockstep:
each lane keeps its own interval as Python floats and takes the steps a
one-lane golden section would, while each step evaluates every lane in one
numpy call over a (lanes, K, X) stack. golden_section is its one-lane case.
An instance's stack of all L(L-1) ordered pairs is built once per
Instance object (pair_stack), and every check, screen and bound on the
instance reads it: is_surrogate_feasible runs all its lanes at once,
instance_contraction the lanes y < y' (upper_lanes), and TangentTable and
BhattacharyyaScreen take their tables from it. The check is the fsum of
the minima's exps against each label's tolerance. The searches' check,
_surrogate_accept, runs the same lanes and may settle: as each proxy is
convex, the value a lane ends on is at most the larger value at the ends
of any interval its golden section has reached, plus twice the rounding
bound δ of _proxy_rounding. Once those bounds, raised by 3δ, pass every
label's check after some lockstep round, the plan is accepted without
running the sections to the end.

Before it, searches rule plans out with one table per instance,
TangentTable, whose tangent lower bounds serve both the batched prescreen
and the per-plan reject of every surrogate search. A bound needs a tangent
crossing only in a grid cell where the slope changes sign, so only those
cells are computed. tangent_table builds an instance's table once per
Instance object, and uniform_feasible_count its answer, so every search on
the instance shares them; exact.SurrogateWalk scores the per-plan rejects
ahead of the searches in batches. The table and its batches compute only
the pairs y < y': the mirror (y', y) has f_{y'y}(s) = f_{yy'}(1 - s) -
ρ_{yy'}, with ρ_{yy'} the pair's log prior ratio, so its minimum is the
pair's minus ρ_{yy'}, and on a grid of 2^k + 1 tilts its grid tables are
the pair's read backwards. The exact search for the true problem screens
its batches with BhattacharyyaScreen instead, a lower bound on each pair's
Bayes error that no decision rule beats.

Reductions over the padded alphabet axis, which holds a handful of
symbols, go through _reduce_last: a large array is folded elementwise
across that axis, in numpy's own order, so every value is the reduce's bit
for bit.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from types import GeneratorType
from typing import Callable, Sequence

import numpy as np

from .instances import Instance, QueryPlan, _indistinguishable, _label_pair, as_plan
from .likelihood import _gamma, _log_scale

# Interval width at which golden-section search stops.
GSS_TOL = 1e-6

# Finite stand-in for log(0) when padding ragged alphabets; avoids NaN from
# 0 * -inf at the tilt endpoints.
_PAD = -1e30

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# _reduce_last folds arrays of more elements than this; below it one
# reduce call is faster. Measured with numpy 2.4.6 on a 2-CPU x86-64 host,
# _logsumexp of a golden-section lane stack of (6, 3, 3) took 6.3 µs
# reduced and 8.1 µs folded, and of (20, 3, 3) 9.1 µs and 8.4 µs.
_FOLD_MIN = 160

# numpy adds up to this many terms of a reduce one after another, from the
# first; from 8 terms it sums pairwise, so longer axes are not folded.
_FOLD_TERMS = 7


def _reduce_last(ufunc: np.ufunc, v: np.ndarray) -> np.ndarray:
    """ufunc.reduce(v, -1), bit for bit, for np.maximum and np.add.

    A reduce over a last axis of a few alphabet symbols is slow: on a
    (30000, 3, 3) array, numpy 2.4.6 took 5.5 ms for the max and 1.9 ms for
    the sum, against 0.24 and 0.26 ms as elementwise calls. So a large array
    is folded: ufunc across the axis's slices, first to last. A max is exact
    in any order, and a sum of at most _FOLD_TERMS terms is added in numpy's
    own order (tests/test_bounds.py pins both)."""
    if v.size <= _FOLD_MIN or not 2 <= v.shape[-1] <= _FOLD_TERMS:
        return ufunc.reduce(v, -1)
    out = ufunc(v[..., 0], v[..., 1])
    for k in range(2, v.shape[-1]):
        ufunc(out, v[..., k], out=out)
    return out


def _logsumexp(v: np.ndarray) -> np.ndarray:
    """log(sum(exp(v))) over the last axis. The window certifier must match
    a full-axis table bit for bit; scipy's logsumexp rounds differently.
    The reductions are numpy's max and sum over the axis (_reduce_last)."""
    top = _reduce_last(np.maximum, v)
    return np.log(_reduce_last(np.add, np.exp(v - top[..., None]))) + top


def ordered_pairs(L: int) -> list[tuple[int, int]]:
    """All ordered label index pairs (y, y'), y != y', in lexicographic order."""
    return [(i, j) for i in range(L) for j in range(L) if i != j]


def label_caps(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """What lower bounds on pair terms are tested against: (mask, caps).

    mask[y, p] is 1.0 when ordered pair p is (y, y'), so mask @ terms sums
    each label's pair terms; caps are the tolerances raised by 1e-9
    relative, so a lower bound rules a plan out only when it exceeds a
    tolerance by more than rounding.
    """
    pairs = ordered_pairs(instance.n_labels)
    mask = np.array(
        [[p[0] == y for p in pairs] for y in range(instance.n_labels)], dtype=float
    )
    return mask, np.asarray(instance.tolerances, dtype=float) * (1.0 + 1e-9)


class PairTables:
    """One pair's log-conditional tables padded to a common alphabet width:
    PairStack's one lane.

    Precomputing these once per (instance, pair) keeps repeated affinity
    evaluations cheap.
    """

    __slots__ = ("log_p", "log_q", "log_prior_ratio", "flat")

    def __init__(self, instance: Instance, yi: int, yj: int):
        stack = PairStack(instance, [(yi, yj)])
        self.log_p = stack.log_p[0]
        self.log_q = stack.log_q[0]
        self.log_prior_ratio = float(stack.log_ratio[0])
        self.flat = stack.flat[0]

    def log_affinities(self, s: float) -> np.ndarray:
        """log M_m(s) for every model m, as a length-K vector."""
        return _logsumexp((1.0 - s) * self.log_p + s * self.log_q)


def log_affinity(
    instance: Instance, m: int | str, y: int | str, y_other: int | str, s: float
) -> float:
    """log of the affinity factor M(s) for one model and one label pair."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"tilt s must lie in [0, 1], got {s!r}")
    mi = instance.model_index(m)
    yi, yj = _label_pair(instance, y, y_other)
    return float(PairTables(instance, yi, yj).log_affinities(s)[mi])


def affinity(
    instance: Instance, m: int | str, y: int | str, y_other: int | str, s: float
) -> float:
    return math.exp(log_affinity(instance, m, y, y_other, s))


def pairwise_proxy_log(
    instance: Instance,
    plan: QueryPlan | Sequence[int],
    y: int | str,
    y_other: int | str,
    s: float,
) -> float:
    """log of the tilted pair bound: s*log(prior ratio) + sum_m r_m log M_m(s)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"tilt s must lie in [0, 1], got {s!r}")
    counts = as_plan(plan, instance).as_array().astype(float)
    yi, yj = _label_pair(instance, y, y_other)
    return PairStack(instance, [(yi, yj)]).proxy(counts)([s], None)[0]


# An objective over lanes: f(s, live) returns, as a list of floats, the
# value of lane live[k] (of lane k when live is None) at tilt s[k].
LaneObjective = Callable[[list[float], "list[int] | None"], list[float]]


def _golden_steps(
    lo: float,
    hi: float,
    c: float,
    d: float,
    fc: float,
    fd: float,
    fa: float,
    fb: float,
    out: list,
    tops: list | None,
    k: int,
):
    """One lane's golden-section search on [lo, hi] from its values fc, fd
    at the first two points c < d and fa, fb at lo and hi, as a generator:
    yields each further point, is sent its value, keeps in tops[k], unless
    tops is None, the larger value at its interval's ends, and finally
    stores a point within GSS_TOL of the minimizer in out[k] and yields
    None."""
    a, b = lo, hi
    while (b - a) > GSS_TOL:
        if fc <= fd:
            b, d, fb, fd = d, c, fd, fc
            c = b - _INV_PHI * (b - a)
            if tops is not None:
                tops[k] = fa if fa > fb else fb
            fc = yield c
        else:
            a, c, fa, fc = c, d, fc, fd
            d = a + _INV_PHI * (b - a)
            if tops is not None:
                tops[k] = fa if fa > fb else fb
            fd = yield d
    out[k] = 0.5 * (a + b)
    yield None


_send = GeneratorType.send


def golden_lanes(
    f: LaneObjective,
    n: int,
    lo: float,
    hi: float,
    also: Sequence[float] = (),
    fixed: Sequence[bool] = (),
    settle: Callable[[list[float]], bool] | None = None,
) -> tuple[list[float], list[list[float]]] | None:
    """Minimizes n unimodal functions on [lo, hi] in lockstep.

    Returns each lane's point within GSS_TOL of its minimizer, and for each
    tilt in also, every lane's value there. Every lane runs _golden_steps,
    so it takes the steps it would take alone; the first call of f
    evaluates every lane at both first points and at also, and each later
    one the next point of every lane still running. A lane marked in fixed
    takes no step, and its point is the interval's midpoint.

    With settle, also begins with lo and hi, and each lane keeps the larger
    of its values at its interval's ends (a fixed lane's interval stays
    [lo, hi]). After every round of steps settle is passed those values,
    and once it answers True the search stops and returns None.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    first = f(
        [x for x in (c, d, *also) for _ in range(n)], list(range(n)) * (2 + len(also))
    )
    ends = [first[m : m + n] for m in range(2 * n, len(first), n)]
    if settle is None:
        fa = fb = [math.inf] * n
        tops = None
    else:
        fa, fb = ends[:2]
        tops = list(map(max, fa, fb))
    out = [0.5 * (lo + hi)] * n
    lanes = [k for k in range(n) if not (fixed and fixed[k])]
    steps = [
        _golden_steps(lo, hi, c, d, first[k], first[n + k], fa[k], fb[k], out, tops, k)
        for k in lanes
    ]
    if len(steps) == n == 1 and settle is None:
        # the same rounds without the bookkeeping of several lanes
        step = steps[0]
        x = next(step)
        while x is not None:
            x = step.send(f([x], None)[0])
        return out, ends
    points = list(map(next, steps))
    live = None if len(lanes) == n else lanes  # None: every lane
    while True:
        if settle is not None and settle(tops):
            return None
        if None in points:
            keep = [k for k, x in enumerate(points) if x is not None]
            live = lanes = [lanes[k] for k in keep]
            steps = [steps[k] for k in keep]
            points = [points[k] for k in keep]
        if not lanes:
            return out, ends
        points = list(map(_send, steps, f(points, live)))


def golden_section(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Minimizes a unimodal f on [lo, hi]; returns a point within GSS_TOL of
    the minimizer. The one-lane case of golden_lanes."""
    return golden_lanes(lambda s, live: [f(x) for x in s], 1, lo, hi)[0][0]


def _minimize_tilts(
    f: LaneObjective,
    flat: Sequence[bool],
    settle: Callable[[list[float]], bool] | None = None,
) -> list[tuple[float, float]] | None:
    """Minimizes convex tilt objectives over [0, 1] in lockstep lanes;
    returns (s*, value) per lane, or None if settle stops the lanes
    (golden_lanes).

    Each golden-section point is re-evaluated exactly and compared against
    both endpoints, so boundary minimizers are returned exactly. A flat
    objective returns s = 0.5 by convention and takes no golden-section
    step; with no other lane, nothing is left to settle.
    """
    n = len(flat)
    if all(flat):
        return [(0.5, v) for v in f([0.5] * n, None)]
    lanes = golden_lanes(f, n, 0.0, 1.0, (0.0, 1.0), flat, settle)
    if lanes is None:
        return None
    s_in, (at_0, at_1) = lanes
    best = []
    for fl, s, v, v0, v1 in zip(flat, s_in, f(s_in, None), at_0, at_1):
        if not fl:
            if v0 < v or (v0 == v and 0.0 < s):
                s, v = 0.0, v0
            if v1 < v or (v1 == v and 1.0 < s):
                s, v = 1.0, v1
        best.append((s, v))
    return best


class PairStack:
    """Label pairs' log-conditional tables, padded to a common alphabet
    width and stacked along a first axis: one lane per pair, whose tilts
    are optimized in lockstep."""

    def __init__(self, instance: Instance, pairs: Sequence[tuple[int, int]]):
        models = instance.models
        shape = (len(pairs), len(models), max(m.n_symbols for m in models))
        self.log_p = np.full(shape, _PAD)  # (n, K, X)
        self.log_q = np.full(shape, _PAD)
        for lane, (yi, yj) in enumerate(pairs):
            for k, m in enumerate(models):
                self.log_p[lane, k, : m.n_symbols] = m.log_conditional[yi]
                self.log_q[lane, k, : m.n_symbols] = m.log_conditional[yj]
        lp = instance.log_prior
        self.log_ratio = np.array([lp[yj] - lp[yi] for yi, yj in pairs])  # (n,)
        self.flat = [
            all(_indistinguishable(m, yi, yj) for m in models) for yi, yj in pairs
        ]
        self._lanes()

    def _lanes(self) -> None:
        # per lane: its (K, X) tables, and its prior ratio as a Python float
        self._rows = list(zip(self.log_p, self.log_q))
        self._ratios = self.log_ratio.tolist()

    def select(self, lanes: Sequence[int]) -> PairStack:
        """The stack of the given lanes, in that order, copied from this
        one's arrays without another build."""
        sub = copy.copy(self)
        sub.log_p, sub.log_q = self.log_p[lanes], self.log_q[lanes]
        sub.log_ratio = self.log_ratio[lanes]
        sub.flat = [self.flat[k] for k in lanes]
        sub._lanes()
        return sub

    def log_affinities(self, lane: int, s: float) -> np.ndarray:
        """log M_m(s) of one lane's pair for every model m, as a length-K
        vector: PairTables.log_affinities on the lane's tables."""
        p, q = self._rows[lane]
        return _logsumexp((1.0 - s) * p + s * q)

    def lane_objective(
        self,
        reduce: Callable[[np.ndarray], np.ndarray],
        ratios: list[float] | None = None,
    ) -> LaneObjective:
        """The lanes' objective s -> s * ratios[lane] + reduce(log M(s)),
        where reduce maps the (..., K) log affinities to (...) values; with
        ratios None, just reduce(log M(s))."""
        log_p, log_q, rows = self.log_p, self.log_q, self._rows

        def f(s: list[float], live: list[int] | None) -> list[float]:
            if len(s) == 1:
                # one lane on its 2-d tables with the tilt a Python float,
                # which numpy broadcasts and reduces faster
                k = 0 if live is None else live[0]
                t = s[0]
                p, q = rows[k]
                v = float(reduce(_logsumexp((1.0 - t) * p + t * q)))
                return [v if ratios is None else t * ratios[k] + v]
            t = np.array(s)[:, None, None]
            if live is None:
                v = reduce(_logsumexp((1.0 - t) * log_p + t * log_q)).tolist()
            else:
                v = reduce(_logsumexp((1.0 - t) * log_p[live] + t * log_q[live]))
                v = v.tolist()
            if ratios is None:
                return v
            r = ratios if live is None else [ratios[k] for k in live]
            return [x * ratio + y for x, ratio, y in zip(s, r, v)]

        return f

    def proxy(self, counts: np.ndarray) -> LaneObjective:
        """Each pair's tilted proxy for float plan counts, as a lane
        objective: f(s) = s * log(prior ratio) + sum_m counts[m] * log M_m(s).
        np.vecdot is the same BLAS dot as counts @ log_m, bit for bit."""
        return self.lane_objective(lambda log_m: np.vecdot(log_m, counts), self._ratios)

    def tilts(
        self,
        counts: np.ndarray,
        settle: Callable[[list[float]], bool] | None = None,
    ) -> list[tuple[float, float]] | None:
        """Each pair's optimal tilt and log proxy for float plan counts, or
        None if settle stops the lanes (golden_lanes)."""
        flat = [fl and q == 0.0 for fl, q in zip(self.flat, self._ratios)]
        return _minimize_tilts(self.proxy(counts), flat, settle)

    def contractions(self) -> list[tuple[float, float]]:
        """Each pair's (s*, min_s sum_m log M_m(s)): pair_contraction."""
        total = self.lane_objective(lambda log_m: np.add.reduce(log_m, -1))
        return _minimize_tilts(total, self.flat)


def pair_stack(instance: Instance) -> PairStack:
    """The PairStack of every ordered pair, in ordered_pairs' order, built
    once per Instance object: the tables every surrogate check, screen and
    bound on the instance reads."""
    return instance._shared(
        "pair_stack", lambda: PairStack(instance, ordered_pairs(instance.n_labels))
    )


def upper_lanes(L: int) -> list[int]:
    """The lanes of ordered_pairs(L) whose pair (y, y') has y < y', in
    order: the unordered pairs."""
    return [p for p, (y, y2) in enumerate(ordered_pairs(L)) if y < y2]


def optimize_tilt(
    instance: Instance,
    plan: QueryPlan | Sequence[int],
    y: int | str,
    y_other: int | str,
) -> tuple[float, float]:
    """Optimal tilt for one pair: returns (s*, log proxy value at s*).

    The objective s -> s*log(prior ratio) + sum_m r_m log M_m(s) is convex;
    the returned value is an upper bound on the true minimum (never an
    underestimate), so downstream feasibility claims stay conservative.
    """
    counts = as_plan(plan, instance).as_array().astype(float)
    yi, yj = _label_pair(instance, y, y_other)
    return PairStack(instance, [(yi, yj)]).tilts(counts)[0]


def _proxy_rounding(instance: Instance, counts: np.ndarray) -> float:
    """δ: a bound on how far one evaluation of a pair's tilted proxy,
    f(s) = s·ρ + Σ_m r_m·log M_m(s) as PairStack.proxy computes it, lies
    from its exact value, for plan counts r summing to n.

    With u = 2⁻⁵³, X the padded alphabet width, K the number of models,
    A_m = max |log p_m| and M = _log_scale (so |ρ| + Σ r_m·A_m ≤ 2M):
    - each (1 − s)·log p + s·log q takes three roundings of terms whose
      magnitudes sum to at most A_m: off by γ_3·A_m, which log-sum-exp
      passes on, as it moves by at most the largest move of an entry;
    - _logsumexp then subtracts the top (u·2A_m), takes exp and log
      (within one ulp each, so 2u relative), sums X terms in [0, 1] one of
      which is 1 (γ_X), and adds the top back (u·(A_m + 1)); padding adds
      exact zeros. With log X + 1 ≤ X, log M_m is off by at most
      γ_{X+12}·(A_m + X + 1), and |log M_m| ≤ A_m;
    - the dot product with the counts adds γ_K·Σ r_m·|log M_m|, and
      s·ρ and the last sum γ_2·(|ρ| + Σ r_m·|log M_m|).
    In all, δ ≤ γ_{X+K+16}·(3M + n·(X + 1) + 1), which is what this
    returns; the last term keeps δ at least 18u.
    """
    X = max(m.n_symbols for m in instance.models)
    n = float(np.add.reduce(counts))
    scale = _log_scale(instance, counts)
    return _gamma(X + instance.n_models + 16) * (3.0 * scale + n * (X + 1) + 1.0)


def _label_values(pair_tilts: Sequence[tuple[float, float]], L: int) -> list[float]:
    """Each label's surrogate error from the (s*, log proxy) of every
    ordered pair, in ordered_pairs' order: the fsum of its L - 1
    competitors' proxies."""
    return [
        math.fsum(math.exp(lv) for _, lv in pair_tilts[k : k + L - 1])
        for k in range(0, len(pair_tilts), L - 1)
    ]


def _surrogate_accept(instance: Instance) -> Callable[[np.ndarray], bool]:
    """The surrogate searches' check: accept(counts), for float plan
    counts, answers as is_surrogate_feasible(instance, counts).feasible
    does, on the same lanes, but settles where it can.

    Each lane's proxy f is convex and the value _minimize_tilts returns
    lies in an interval [a, b] of every golden-section round (a flat lane
    keeps [0, 1]), so that value is at most max(f(a), f(b)) + 2δ, with δ
    from _proxy_rounding. Past each round, accept takes those bounds plus
    3δ, which also covers forming the bound and its exp: once every
    label's fsum of their exps is at most its tolerance, the exact values
    would pass too, and the check accepts. A plan that never settles runs
    on to the exact values.
    """
    L = instance.n_labels
    stack = pair_stack(instance)
    labels = list(zip(range(0, len(stack.flat), L - 1), instance.tolerances.tolist()))

    def accept(counts: np.ndarray) -> bool:
        slack = 3.0 * _proxy_rounding(instance, counts)

        def settled(tops: list[float]) -> bool:
            return all(
                math.fsum(math.exp(t + slack) for t in tops[k : k + L - 1]) <= alpha
                for k, alpha in labels
            )

        pair_tilts = stack.tilts(counts, settled)
        if pair_tilts is None:
            return True
        values = _label_values(pair_tilts, L)
        return all(v <= alpha for v, (_, alpha) in zip(values, labels))

    return accept


# Tilts, evenly spaced over [0, 1], at which TangentTable tabulates log M and
# its slope. It sets how many plans reach the exact checks, never an answer.
_TANGENT_GRID = 129

# Work per numpy batch, which bounds its temporaries: window points in the
# planner's window scan, and elements of all the arrays a batch of
# TangentTable.rejects_each holds at once.
_WINDOW_CHUNK = 1 << 15

# A rejects_each batch holds about two float arrays of its (plans x pairs
# y < y' x grid tilts) size at once, f and its slope, since lower_bounds
# computes crossings only at the cells where the slope changes sign; so a
# batch's arrays get this share of _WINDOW_CHUNK.
_AHEAD_SHARE = 4


def _halfspaces(
    weights: np.ndarray, floors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A screen's necessary condition r . weights[h] >= floors[h], each
    floor lowered by 1e-9 relative, far above the rounding of the screen's
    own arithmetic: exact.BatchScreen's halfspaces."""
    return weights, floors - 1e-9 * (1.0 + np.abs(floors))


class TangentTable:
    """Every ordered pair's log M_m and its slope at a grid of tilts, and
    the lower bounds both searches rule plans out with.

    Tangents at the grid bound a convex function's minimum from below
    (lower_bounds): by the grid minimum, or inside a cell where the slope
    changes sign, by the crossing of its end tangents; only those cells
    are computed. Applied to each convex log M_m, the bound gives
    w_max[p, m] = max(-floor, 0), so with min_amp[p] = min(1, prior ratio)
    every tilt has f_p >= log(min_amp[p]) - r . w_max[p], where f_p(s) =
    s * log(prior ratio) + sum_m r_m log M_m(s) is a plan's tilted proxy:
    passes screens a batch of plans with one matrix product. Applied to
    f_p itself, it gives the per-plan rejects. A plan is ruled out when
    some label's bounds, after exp, sum past its cap (label_caps); as a
    golden-section value is never below the true minimum, no plan the
    surrogate check accepts is ever ruled out.

    The grid tables and the per-plan rejects need the L(L-1)/2 pairs
    y < y' only. As M_m of (y', y) at s is M_m of (y, y') at 1 - s, the
    mirror's tables at grid tilt k/(G - 1) are the pair's at
    1 - k/(G - 1). On a grid of G = 2^k + 1 points those tilts are dyadic
    and 1 - k/(G - 1) is exact, so the mirror's grid log M is the pair's
    read backwards, and its slope the pair's read backwards and negated
    (as 0.0 - x, which keeps a zero positive), bit for bit what a direct
    build computes; both are copied into one C-contiguous (P, G, K)
    array. A grid of another size raises ValueError. The mirror's proxy
    is f_{y'y}(s) = f_{yy'}(1 - s) - ρ, with ρ = log(prior(y') /
    prior(y)), so min f_{y'y} = min f_{yy'} - ρ, and rejects_each sets the
    mirror's bound to lb - ρ. That subtraction rounds by at most
    u |lb - ρ|, far inside lower_bounds' margin of 1e-9 (1 + |lb|), as
    |ρ| < 745 for any two positive doubles. So a batch of rejects computes
    proxies on half the pairs, and twice the plans share its elements
    (batch_rows). w_max, the halfspaces and the planner's window
    certificates keep all L(L-1) ordered pairs.

    Each term of a label's sum is at most the sum, so a plan passes only
    if r . w_max[p] >= log(min_amp[p] / cap_y) for each pair p = (y, y'):
    one halfspace per pair, with weights >= 0, in ``halfspaces``
    (exact.BatchScreen). The walk turns it into a least last count per
    prefix and screens only the plans at or past it.

    A table holds no state past its construction but its halfspaces,
    computed on first use from its fixed arrays, so one serves every
    search on an instance (tangent_table). Its log_p, log_q and log_ratio
    are the instance's pair_stack's arrays.
    """

    def __init__(self, instance: Instance, grid: int = _TANGENT_GRID):
        if grid < 2 or (grid - 1) & (grid - 2):
            raise ValueError(f"grid must have 2**k + 1 points, got {grid!r}")
        L, K = instance.n_labels, instance.n_models
        pairs = ordered_pairs(L)
        stack = pair_stack(instance)
        self.log_p, self.log_q = stack.log_p, stack.log_q  # (P, K, X)
        self.log_ratio = stack.log_ratio  # (P,)
        self.label_mask, self.alpha_cap = label_caps(instance)
        # the pairs y < y': their positions among the lanes, and where each
        # ordered pair's values lie among theirs and then their mirrors'
        upper = upper_lanes(L)
        at = {pairs[p]: k for k, p in enumerate(upper)}
        self._bound_of = np.array(
            [at[y, y2] if y < y2 else len(upper) + at[y2, y] for y, y2 in pairs]
        )

        s = np.linspace(0.0, 1.0, grid)
        self.grid = s
        s4 = s[:, None, None]
        log_p, log_q = self.log_p[upper, None], self.log_q[upper, None]
        v = (1.0 - s4) * log_p + s4 * log_q  # (U, G, K, X)
        top = _reduce_last(np.maximum, v)
        e = np.exp(v - top[..., None])
        z = _reduce_last(np.add, e)
        log_m = np.log(z) + top  # (U, G, K)
        # d/ds log M_m(s): the tilted mean of log q - log p (0 on padding)
        slope = _reduce_last(np.add, e * (log_q - log_p)) / z
        # each mirror is its pair read backwards, the slope negated, bit for
        # bit as G - 1 is a power of two (class docstring)
        self.grid_log_m = np.concatenate((log_m, log_m[:, ::-1]))[self._bound_of]
        self.grid_slope = np.concatenate((slope, 0.0 - slope[:, ::-1]))[
            self._bound_of
        ]  # (P, G, K), C-contiguous
        self.grid_amp = s[None, :] * self.log_ratio[:, None]  # (P, G)

        floor = self.lower_bounds(
            self.grid_log_m.swapaxes(1, 2), self.grid_slope.swapaxes(1, 2)
        )
        self.w_max = np.maximum(-floor, 0.0)  # (P, K)
        self.min_amp = np.minimum(1.0, np.exp(self.log_ratio))  # (P,)
        # rejects_each's pairs y < y': their grid tilts' prior terms (U, G)
        # and log ratios, and (K, U * G) views of their tables, for a
        # batch's proxies with one product each
        self._upper_amp = self.grid_amp[upper]
        self._upper_ratio = self.log_ratio[upper]
        self._upper_log_m = log_m.reshape(-1, K).T
        self._upper_slope = slope.reshape(-1, K).T
        # plans per rejects_each batch, whose arrays get a share of
        # _WINDOW_CHUNK elements (_AHEAD_SHARE)
        share = _WINDOW_CHUNK // _AHEAD_SHARE
        self.batch_rows = max(1, share // self._upper_amp.size)

    def proxy_on_grid(self, counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """f_p and its slope at every grid tilt, each shaped (P, G)."""
        r = np.asarray(counts, dtype=float)
        f = self.grid_amp + self.grid_log_m @ r
        df = self.log_ratio[:, None] + self.grid_slope @ r
        return f, df

    @functools.cached_property
    def halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """One halfspace per ordered pair (class docstring): a kept plan's
        every pair bound is at most its label's cap."""
        pair_caps = self.alpha_cap @ self.label_mask
        return _halfspaces(self.w_max, np.log(self.min_amp / pair_caps))

    def lower_bounds(self, f: np.ndarray, df: np.ndarray) -> np.ndarray:
        """A value no larger than min_s f(s) over [0, 1] for each convex f
        given by its values and slopes at the grid, along the last axis of
        arrays of two or more dimensions.

        A cell whose end slopes share a sign has its minimum at an end
        point; otherwise the two end tangents cross inside it, and f lies
        above their maximum, whose lowest point is that crossing. So only
        the cells where the slope turns from negative to positive are
        gathered, and their crossings folded into the grid minimum: the
        pass holds f, df and boolean masks, not a float array per cell.
        """
        d = float(self.grid[1] - self.grid[0])
        lb = np.minimum.reduce(f, -1)
        cell = np.nonzero((df[..., :-1] < 0.0) & (df[..., 1:] > 0.0))
        if cell[0].size:
            end = (*cell[:-1], cell[-1] + 1)
            fa, da, db = f[cell], df[cell], df[end]
            u = np.clip((fa - f[end] + db * d) / (db - da), 0.0, d)
            np.minimum.at(lb, cell[:-1], fa + da * u)
        return lb - 1e-9 * (1.0 + np.abs(lb))

    def _over_caps(self, pair_bounds: np.ndarray) -> np.ndarray:
        """Whether some label's pair bounds (..., P) sum past its cap."""
        return (pair_bounds @ self.label_mask.T > self.alpha_cap).any(axis=-1)

    def passes(self, plans: np.ndarray) -> np.ndarray:
        """For plans stacked as a (B, K) array, which the w_max bounds keep."""
        return ~self._over_caps(self.min_amp * np.exp(-(plans @ self.w_max.T)))

    def pair_bounds(self, plans: np.ndarray) -> np.ndarray:
        """For plans stacked as a (B, K) array, a value no larger than
        min_s f_p(s) for every ordered pair p, shaped (B, P): lower_bounds
        of the pairs y < y' and their mirrors' lb - ρ (class docstring)."""
        r = np.asarray(plans, dtype=float)
        shape = (len(r), *self._upper_amp.shape)
        f = self._upper_amp + (r @ self._upper_log_m).reshape(shape)
        df = self._upper_ratio[:, None] + (r @ self._upper_slope).reshape(shape)
        lb = self.lower_bounds(f, df)  # (B, U)
        mirrored = np.concatenate((lb, lb - self._upper_ratio), axis=1)
        return mirrored[:, self._bound_of]

    def rejects_each(self, plans: np.ndarray) -> np.ndarray:
        """Whether each plan of a (B, K) array can never certify, in one
        pass over the pairs y < y' (pair_bounds); callers keep B within
        batch_rows."""
        return self._over_caps(np.exp(self.pair_bounds(plans)))

    def rejects_one(self, counts: Sequence[int]) -> bool:
        """rejects_each of one plan: the same computation on one row."""
        return bool(self.rejects_each(np.array([counts], dtype=float))[0])


def tangent_table(instance: Instance, grid: int = _TANGENT_GRID) -> TangentTable:
    """The instance's TangentTable of the given grid size, built once per
    Instance object and shared by every search on it."""
    return instance._shared(
        ("tangent_table", grid), lambda: TangentTable(instance, grid)
    )


class BhattacharyyaScreen:
    """A necessary condition for true feasibility, tested on a batch of
    plans with one matrix product.

    For an unordered label pair (y, y') with normalized priors p and q, any
    decision rule's statewise errors satisfy

        p * err_y + q * err_y' >= 1/2 * (1 - sqrt(1 - 4pq * BC^2))

    (the Bhattacharyya lower bound on the pair's Bayes error, Kailath
    1967), where BC = prod_m M_m(1/2)^r_m. A plan is ruled out when, for
    some pair, this bound lowered by 1e-9 relative exceeds
    p * alpha_y + q * alpha_y' raised by 1e-9 relative (label_caps), so no
    plan whose exact errors meet every tolerance is ruled out.

    As 1 + sqrt(...) <= 2, the bound is at least pq BC^2, so a plan passes
    only if 2 r . (-log M(1/2)) >= log(pq (1 - 1e-9) / cap) for each pair:
    one halfspace per unordered pair, with weights >= 0, in ``halfspaces``
    (exact.BatchScreen), which the walk prunes its bands with.
    """

    def __init__(self, instance: Instance):
        L, K = instance.n_labels, instance.n_models
        pairs = [(i, j) for i in range(L) for j in range(i + 1, L)]
        self.pairs = pairs
        # log M_m(1/2) per unordered pair, shaped (U, K)
        stack = pair_stack(instance)
        self.log_bc = np.array(
            [stack.log_affinities(lane, 0.5) for lane in upper_lanes(L)]
        ).reshape(len(pairs), K)
        idx = np.array(pairs, dtype=int).reshape(-1, 2)
        w = instance.prior[idx]
        self.weights = w / w.sum(axis=1, keepdims=True)  # (U, 2): p, q
        _, caps = label_caps(instance)
        self.cap = (self.weights * caps[idx]).sum(axis=1)  # (U,)

    @functools.cached_property
    def halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """One halfspace per unordered pair (class docstring). log M_m(1/2)
        <= 0; clipping a rounded positive one to 0 only weakens it."""
        pq = self.weights[:, 0] * self.weights[:, 1]
        return _halfspaces(
            2.0 * np.maximum(-self.log_bc, 0.0), np.log(pq * (1.0 - 1e-9) / self.cap)
        )

    def lower_bounds(self, plans: np.ndarray) -> np.ndarray:
        """For plans stacked as a (B, K) array, each pair's bound on
        p * err_y + q * err_y', lowered by 1e-9 relative, shaped (B, U)."""
        p, q = self.weights[:, 0], self.weights[:, 1]
        log_bc2 = 2.0 * (plans @ self.log_bc.T)
        # 1/2 (1 - sqrt(1 - 4pq BC^2)) = 2pq BC^2 / (1 + sqrt(...)), with
        # 1 - 4pq BC^2 = (p - q)^2 + 4pq (1 - BC^2) kept accurate near 0
        gap = (p - q) ** 2 - 4.0 * p * q * np.expm1(log_bc2)
        root = np.sqrt(np.maximum(gap, 0.0))
        return 2.0 * p * q * np.exp(log_bc2) / (1.0 + root) * (1.0 - 1e-9)

    def passes(self, plans: np.ndarray) -> np.ndarray:
        """For plans stacked as a (B, K) array, which the bound keeps."""
        return ~(self.lower_bounds(plans) > self.cap).any(axis=-1)


def pair_contraction(
    instance: Instance, y: int | str, y_other: int | str
) -> tuple[float, float]:
    """Best joint contraction for a pair when every model is queried once.

    Returns (s*, min_s sum_m log M_m(s)); the prior plays no role here.
    """
    return PairStack(instance, [_label_pair(instance, y, y_other)]).contractions()[0]


def max_pair_weights(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Optimistic per-pair evidence bounds, the instance's TangentTable's.

    Returns (w_max, min_amp): w_max[p, m] upper-bounds the discrimination
    weight -log M_m(s) over all tilts for ordered pair p, and min_amp[p] =
    min(1, prior ratio) lower-bounds the tilted prior factor, so for any
    plan r pair p's proxy is at least min_amp[p] * exp(-r . w_max[p]) at
    every tilt.
    """
    table = TangentTable(instance)
    return table.w_max, table.min_amp


def instance_contraction(instance: Instance) -> float:
    """Worst-case pair contraction rho = max over pairs of min_s prod_m M_m(s).

    Lies in (0, 1) for identifiable instances; rho close to 1 means some
    label pair is barely distinguishable even using every model.
    """
    # min value is symmetric in the pair order since M swaps s -> 1-s
    lanes = upper_lanes(instance.n_labels)
    worst = 0.0
    for _, lv in pair_stack(instance).select(lanes).contractions():
        worst = max(worst, math.exp(lv))
    return worst


def uniform_feasible_count(instance: Instance) -> tuple[float, int]:
    """Rounds of one-query-per-model that certify every tolerance.

    Returns (rho, n) where querying every model n times yields surrogate
    error at most min_y alpha_y for every label. Raises if some pair is
    indistinguishable (rho would be 1 and no finite n exists). Computed
    once per Instance object: every later call reads the first answer.
    """
    return instance._shared(
        "uniform_feasible_count", lambda: _uniform_feasible_count(instance)
    )


def _uniform_feasible_count(instance: Instance) -> tuple[float, int]:
    alpha_min = float(instance.tolerances.min())
    rho = instance_contraction(instance)
    if rho >= 1.0:
        raise ValueError(
            "instance has an indistinguishable label pair; no uniform plan "
            "can certify the tolerances"
        )
    L = instance.n_labels
    pr = instance.prior
    need = math.log((L - 1) * float(pr.max()) / (float(pr.min()) * alpha_min))
    return rho, max(1, math.ceil(need / (-math.log(rho))))


def surrogate_error(
    instance: Instance,
    plan: QueryPlan | Sequence[int],
    y: int | str,
) -> float:
    """Surrogate statewise error for label y: the sum over competitors of
    the per-pair proxy at its optimal tilt (is_surrogate_feasible's)."""
    return is_surrogate_feasible(instance, plan).values[instance.label_index(y)]


@dataclass(frozen=True, slots=True)
class SurrogateReport:
    """Per-label surrogate errors with the optimizing tilts that achieve them."""

    labels: tuple[str, ...]
    values: tuple[float, ...]
    tolerances: tuple[float, ...]
    feasible_by_label: tuple[bool, ...]
    feasible: bool
    tilts: tuple[tuple[str, str, float, float], ...]  # (y, y', s*, log proxy)

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "labels": [
                {
                    "label": y,
                    "surrogate_error": v,
                    "tolerance": a,
                    "feasible": ok,
                }
                for y, v, a, ok in zip(
                    self.labels, self.values, self.tolerances, self.feasible_by_label
                )
            ],
            "pair_tilts": [
                {"y": y, "other": yp, "s": s, "log_proxy": lv}
                for y, yp, s, lv in self.tilts
            ],
        }


def is_surrogate_feasible(
    instance: Instance, plan: QueryPlan | Sequence[int]
) -> SurrogateReport:
    """Checks every label's surrogate error against its tolerance.

    Because the surrogate dominates the exact error, a feasible report is a
    proof of true feasibility; an infeasible report is only inconclusive.
    """
    counts = as_plan(plan, instance).as_array().astype(float)
    names = instance.labels
    pairs = ordered_pairs(len(names))
    # every label's pairs in one lockstep run; label y's are the (y, .) block
    pair_tilts = pair_stack(instance).tilts(counts)
    values = tuple(_label_values(pair_tilts, len(names)))
    tolerances = tuple(float(a) for a in instance.tolerances)
    flags = tuple(v <= a for v, a in zip(values, tolerances))
    return SurrogateReport(
        labels=names,
        values=values,
        tolerances=tolerances,
        feasible_by_label=flags,
        feasible=all(flags),
        tilts=tuple(
            (names[i], names[j], s, lv)
            for (i, j), (s, lv) in zip(pairs, pair_tilts)
        ),
    )
