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
once, as PairTables.proxy. One routine, _surrogate_check, makes this check
for every caller: golden section of that proxy per pair, then the fsum of
the minima's exps against the tolerance.

Before it, searches rule plans out with one table per instance,
TangentTable, whose tangent lower bounds serve both the batched prescreen
and the per-plan reject of every surrogate search. The per-plan reject is
scored a chunk ahead: the table keeps the survivors of its last prescreen
batch, and as the walk reaches them, scores the next 8, 16, 32, ... of them
in one pass, so at most one chunk per band is scored past the plan the
search accepts. The exact search for the true problem screens its batches
with BhattacharyyaScreen instead, a lower bound on each pair's Bayes error
that no decision rule beats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .instances import Instance, QueryPlan, _indistinguishable, _label_pair, as_plan

# Interval width at which golden-section search stops.
GSS_TOL = 1e-6

# Finite stand-in for log(0) when padding ragged alphabets; avoids NaN from
# 0 * -inf at the tilt endpoints.
_PAD = -1e30

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _logsumexp(v: np.ndarray) -> np.ndarray:
    """log(sum(exp(v))) over the last axis. The window certifier must match
    a full-axis table bit for bit; scipy's logsumexp rounds differently."""
    top = v.max(axis=-1)
    return np.log(np.exp(v - top[..., None]).sum(axis=-1)) + top


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
    """Per-pair log-conditional tables padded to a common alphabet width.

    Precomputing these once per (instance, pair) keeps repeated affinity
    evaluations (golden-section iterations, lattice searches) cheap.
    """

    __slots__ = ("log_p", "log_q", "log_prior_ratio", "flat")

    def __init__(self, instance: Instance, yi: int, yj: int):
        K = instance.n_models
        width = max(m.n_symbols for m in instance.models)
        log_p = np.full((K, width), _PAD)
        log_q = np.full((K, width), _PAD)
        for k, m in enumerate(instance.models):
            log_p[k, : m.n_symbols] = m.log_conditional[yi]
            log_q[k, : m.n_symbols] = m.log_conditional[yj]
        self.log_p = log_p
        self.log_q = log_q
        self.log_prior_ratio = float(
            instance.log_prior[yj] - instance.log_prior[yi]
        )
        self.flat = all(_indistinguishable(m, yi, yj) for m in instance.models)

    def log_affinities(self, s: float) -> np.ndarray:
        """log M_m(s) for every model m, as a length-K vector."""
        return _logsumexp((1.0 - s) * self.log_p + s * self.log_q)

    def proxy(self, counts: np.ndarray, s: float) -> float:
        """The pair's tilted proxy at s for float plan counts:
        f(s) = s * log(prior ratio) + sum_m counts[m] * log M_m(s)."""
        return s * self.log_prior_ratio + float(counts @ self.log_affinities(s))


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
    return PairTables(instance, yi, yj).proxy(counts, s)


def golden_section(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Minimizes a unimodal f on [lo, hi]; returns a point within GSS_TOL of
    the minimizer."""
    if not hi > lo:
        raise ValueError("need hi > lo")
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > GSS_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _minimize_tilt(
    objective: Callable[[float], float], flat: bool
) -> tuple[float, float]:
    """Minimizes a convex tilt objective over [0, 1].

    The golden-section point is re-evaluated exactly and compared against
    both endpoints, so boundary minimizers are returned exactly. A flat
    objective returns s = 0.5 by convention.
    """
    if flat:
        return 0.5, objective(0.5)
    s_in = golden_section(objective, 0.0, 1.0)
    best_s, best_v = s_in, objective(s_in)
    for s in (0.0, 1.0):
        v = objective(s)
        if v < best_v or (v == best_v and s < best_s):
            best_s, best_v = s, v
    return best_s, best_v


def _pair_tilt(tables: PairTables, counts: np.ndarray) -> tuple[float, float]:
    """optimize_tilt on prebuilt tables and float plan counts."""
    return _minimize_tilt(
        lambda s: tables.proxy(counts, s),
        tables.flat and tables.log_prior_ratio == 0.0,
    )


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
    plan = as_plan(plan, instance)
    yi, yj = _label_pair(instance, y, y_other)
    return _pair_tilt(PairTables(instance, yi, yj), plan.as_array().astype(float))


def _surrogate_check(instance: Instance) -> Callable[..., tuple]:
    """The surrogate check of one label, with every pair's tables built once.

    check(counts, yi), for float plan counts, returns (error <= tolerance,
    error, (s*, log proxy) per competitor in label order); the error is the
    fsum of the competitors' proxies at their optimal tilts.
    """
    L = instance.n_labels
    rows = [[PairTables(instance, i, j) for j in range(L) if j != i] for i in range(L)]
    alphas = [float(a) for a in instance.tolerances]

    def check(counts: np.ndarray, yi: int) -> tuple[bool, float, list]:
        tilts = [_pair_tilt(tb, counts) for tb in rows[yi]]
        value = math.fsum(math.exp(lv) for _, lv in tilts)
        return value <= alphas[yi], value, tilts

    return check


# Tilts, evenly spaced over [0, 1], at which TangentTable tabulates log M and
# its slope. It sets how many plans reach the exact checks, never an answer.
_TANGENT_GRID = 129

# Work per numpy batch, which bounds its temporaries: window points in the
# planner's window scan, and elements of all the arrays the tangent reject's
# lookahead holds at once.
_WINDOW_CHUNK = 1 << 15

# Plans in a band's first lookahead chunk; each later chunk doubles.
_AHEAD_FIRST = 8

# lower_bounds holds about five arrays of a chunk's (plans x pairs x grid
# tilts) size at once, so a chunk's arrays get this share of _WINDOW_CHUNK.
_AHEAD_SHARE = 8


class TangentTable:
    """Every ordered pair's log M_m and its slope at a grid of tilts, and
    the lower bounds both searches rule plans out with.

    Tangents at the grid bound a convex function's minimum from below
    (lower_bounds). Applied to each convex log M_m, the bound gives
    w_max[p, m] = max(-floor, 0), so with min_amp[p] = min(1, prior ratio)
    every tilt has f_p >= log(min_amp[p]) - r . w_max[p], where f_p(s) =
    s * log(prior ratio) + sum_m r_m log M_m(s) is a plan's tilted proxy:
    passes screens a batch of plans with one matrix product. Applied to
    f_p itself, it gives the per-plan rejects. A plan is ruled out when
    some label's bounds, after exp, sum past its cap (label_caps); as a
    golden-section value is never below the true minimum, no plan the
    surrogate check accepts is ever ruled out.

    passes keeps its batch's survivors as a queue. rejects_plan answers for
    the queue's head from a chunk of survivors scored ahead in one pass:
    8 plans, then twice as many each time the walk reaches the end of the
    last chunk, while its temporaries stay within _WINDOW_CHUNK elements.
    So a search that accepts early in a band scores at most one chunk past
    the plan it accepts.
    """

    def __init__(self, instance: Instance, grid: int = _TANGENT_GRID):
        tabs = [PairTables(instance, i, j) for i, j in ordered_pairs(instance.n_labels)]
        self.log_p = np.stack([t.log_p for t in tabs])  # (P, K, X)
        self.log_q = np.stack([t.log_q for t in tabs])
        self.log_ratio = np.array([t.log_prior_ratio for t in tabs])  # (P,)
        self.label_mask, self.alpha_cap = label_caps(instance)

        s = np.linspace(0.0, 1.0, grid)
        self.grid = s
        s4 = s[:, None, None]
        v = (1.0 - s4) * self.log_p[:, None] + s4 * self.log_q[:, None]  # (P, G, K, X)
        top = v.max(axis=3)
        e = np.exp(v - top[..., None])
        z = e.sum(axis=3)
        self.grid_log_m = np.log(z) + top  # (P, G, K)
        # d/ds log M_m(s): the tilted mean of log q - log p (0 on padding)
        self.grid_slope = (e * (self.log_q - self.log_p)[:, None]).sum(axis=3) / z
        self.grid_amp = s[None, :] * self.log_ratio[:, None]  # (P, G)

        floor = self.lower_bounds(
            self.grid_log_m.swapaxes(1, 2), self.grid_slope.swapaxes(1, 2)
        )
        self.w_max = np.maximum(-floor, 0.0)  # (P, K)
        self.min_amp = np.minimum(1.0, np.exp(self.log_ratio))  # (P,)
        # (K, P * G) views, for a batch's proxies with one product each
        K = instance.n_models
        self._log_m_rows = self.grid_log_m.reshape(-1, K).T
        self._slope_rows = self.grid_slope.reshape(-1, K).T

        # the lookahead: the last passes batch's survivors, the walk's
        # position among them, and the rejects of the first _scored
        self._queue = np.empty((0, K))
        self._head = 0
        self._scored = 0
        self._rejected = np.empty(0, dtype=bool)

    def proxy_on_grid(self, counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """f_p and its slope at every grid tilt, each shaped (P, G), or
        (B, P, G) for plans stacked as a (B, K) array."""
        r = np.asarray(counts, dtype=float)
        if r.ndim == 1:
            f = self.grid_amp + self.grid_log_m @ r
            df = self.log_ratio[:, None] + self.grid_slope @ r
            return f, df
        shape = (len(r), *self.grid_amp.shape)
        f = self.grid_amp + (r @ self._log_m_rows).reshape(shape)
        df = self.log_ratio[:, None] + (r @ self._slope_rows).reshape(shape)
        return f, df

    def lower_bounds(self, f: np.ndarray, df: np.ndarray) -> np.ndarray:
        """A value no larger than min_s f(s) over [0, 1] for each convex f
        given by its values and slopes at the grid, along the last axis.

        A cell whose end slopes share a sign has its minimum at an end
        point; otherwise the two end tangents cross inside it, and f lies
        above their maximum, whose lowest point is that crossing.
        """
        d = float(self.grid[1] - self.grid[0])
        fa, fb, da, db = f[..., :-1], f[..., 1:], df[..., :-1], df[..., 1:]
        inner = (da < 0.0) & (db > 0.0)
        u = np.clip((fa - fb + db * d) / np.where(inner, db - da, 1.0), 0.0, d)
        cross = np.where(inner, fa + da * u, np.inf)
        lb = np.minimum(f.min(axis=-1), cross.min(axis=-1))
        return lb - 1e-9 * (1.0 + np.abs(lb))

    def _over_caps(self, pair_bounds: np.ndarray) -> np.ndarray:
        """Whether some label's pair bounds (..., P) sum past its cap."""
        return (pair_bounds @ self.label_mask.T > self.alpha_cap).any(axis=-1)

    def passes(self, plans: np.ndarray) -> np.ndarray:
        """For plans stacked as a (B, K) array, which the w_max bounds keep.
        The kept plans become the queue rejects_plan reads ahead in."""
        keep = ~self._over_caps(self.min_amp * np.exp(-(plans @ self.w_max.T)))
        self._queue = plans[keep]
        self._head = self._scored = 0
        self._rejected = np.zeros(len(self._queue), dtype=bool)
        return keep

    def rejects(self, f: np.ndarray, df: np.ndarray) -> bool:
        """Whether the plan with proxy_on_grid (f, df) can never certify."""
        return bool(self._over_caps(np.exp(self.lower_bounds(f, df))))

    def rejects_plan(self, counts: Sequence[int]) -> bool:
        """rejects(*proxy_on_grid(counts)): read from the chunk scored ahead
        if the plan is the head of the queue, else scored alone."""
        i = self._head
        if i == len(self._queue) or self._queue[i].tolist() != list(counts):
            return self.rejects(*self.proxy_on_grid(counts))
        if i == self._scored:
            rows = max(1, _WINDOW_CHUNK // (_AHEAD_SHARE * self.grid_amp.size))
            end = i + min(i + _AHEAD_FIRST, rows)
            f, df = self.proxy_on_grid(self._queue[i:end])
            self._rejected[i:end] = self._over_caps(np.exp(self.lower_bounds(f, df)))
            self._scored = min(end, len(self._queue))
        self._head = i + 1
        return bool(self._rejected[i])


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
    """

    def __init__(self, instance: Instance):
        L, K = instance.n_labels, instance.n_models
        pairs = [(i, j) for i in range(L) for j in range(i + 1, L)]
        self.pairs = pairs
        # log M_m(1/2) per unordered pair, shaped (U, K)
        self.log_bc = np.array(
            [PairTables(instance, i, j).log_affinities(0.5) for i, j in pairs]
        ).reshape(len(pairs), K)
        idx = np.array(pairs, dtype=int).reshape(-1, 2)
        w = instance.prior[idx]
        self.weights = w / w.sum(axis=1, keepdims=True)  # (U, 2): p, q
        _, caps = label_caps(instance)
        self.cap = (self.weights * caps[idx]).sum(axis=1)  # (U,)

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
    yi, yj = _label_pair(instance, y, y_other)
    tables = PairTables(instance, yi, yj)

    def objective(s: float) -> float:
        return float(tables.log_affinities(s).sum())

    return _minimize_tilt(objective, tables.flat)


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
    worst = 0.0
    L = instance.n_labels
    for i in range(L):
        for j in range(i + 1, L):
            # min value is symmetric in the pair order since M swaps s -> 1-s
            _, lv = pair_contraction(instance, i, j)
            worst = max(worst, math.exp(lv))
    return worst


def uniform_feasible_count(instance: Instance) -> tuple[float, int]:
    """Rounds of one-query-per-model that certify every tolerance.

    Returns (rho, n) where querying every model n times yields surrogate
    error at most min_y alpha_y for every label. Raises if some pair is
    indistinguishable (rho would be 1 and no finite n exists).
    """
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
    the per-pair proxy at its optimal tilt."""
    counts = as_plan(plan, instance).as_array().astype(float)
    return _surrogate_check(instance)(counts, instance.label_index(y))[1]


@dataclass(frozen=True)
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
    check = _surrogate_check(instance)
    names = instance.labels
    flags, values, tilts = zip(*(check(counts, yi) for yi in range(len(names))))
    pair_tilts = [t for label_tilts in tilts for t in label_tilts]
    return SurrogateReport(
        labels=names,
        values=values,
        tolerances=tuple(float(a) for a in instance.tolerances),
        feasible_by_label=flags,
        feasible=all(flags),
        tilts=tuple(
            (names[i], names[j], s, lv)
            for (i, j), (s, lv) in zip(ordered_pairs(len(names)), pair_tilts)
        ),
    )
