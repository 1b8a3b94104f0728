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
holds several pairs as lanes, and their golden sections run in lockstep
(_lockstep, the one golden-section loop): each lane keeps its own interval
as Python floats and takes the steps a one-lane golden section would
(_golden_steps), while each call evaluates every lane that needs a value in
one numpy call over a (lanes, K, X) stack. golden_section is one lane
without a rule. An instance's stack of all L(L-1) ordered pairs is built
once per Instance object (pair_stack), and every check, screen and bound on
the instance reads it: is_surrogate_feasible runs all its lanes at once,
instance_contraction the lanes y < y' (upper_lanes), and TangentTable and
BhattacharyyaScreen take their tables from it. The check is the fsum of the
minima's exps against each label's tolerance.

A check's and a contraction's golden sections take the iterates of golden
sections decided from values, bit for bit, but evaluate few of them. Each
lane's objective f is convex, with slope ρ + Σ_m r_m·E_s[ℓ_m] and
curvature Σ_m r_m·Var_s[ℓ_m] in closed form (ℓ_m = log q - log p), and
|f'''| <= W·f'' for W the largest range of ℓ_m over the queried models.
PairStack._locate brackets each minimizer: one call evaluates slopes and
curvatures at 17 tilts, and up to three more at two points around a Newton
iterate, and a point whose computed slope lies beyond its rounding bound σ
bounds the minimizer from that side. From each end's slope and curvature
bounds, _golden_steps bounds D = f(d) - f(c) of a round; where D clears
±2δ, with δ the bound PairStack.rounding puts on one computed value, the
computed values compare as the exact ones do, and the round is decided
without them. Any other round (about the last few, where D is at rounding
level, and rounds the bounds are too loose for) is decided from values,
which it asks for with the points either outcome's next round needs. A run
makes about 3 derivative calls and 2 value calls, against 31 with every
round decided from values.

The searches' check, _surrogate_accept, locates the lanes' minimizers as
the check does and makes one value call, at each lane's bracket end p. As
each proxy is convex with curvature at most Σ_m r_m·W_m²/4, the value the
check would return is at most f(p) plus a margin derived from δ, the
rounds and GSS_TOL (PairStack._bracket_bounds); when those bounds pass
every label, the plan is accepted. Otherwise the check's certified rounds
run on the same rules, and their values decide.

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
from typing import Callable, Sequence

import numpy as np

from .instances import Instance, QueryPlan, _indistinguishable, _label_pair, as_plan
from .likelihood import _UNIT, _gamma, _log_maxima

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

# A lane's rule (_rule, _golden_steps): for the left end of its bracket and
# then the right, (s, 2s, g, κlo, κlo/2, κhi/2), each bound moved outward by
# _RULE_ROUNDING; then W and tol.
Rule = tuple[float, ...]


def _golden_steps(lo: float, hi: float, rule: Rule | None = None):
    """One lane's golden-section search on [lo, hi], as a generator, from
    the points c = hi - φ·(hi - lo) < d = lo + φ·(hi - lo): each round
    keeps [a, d] when f(c) <= f(d) and [c, b] otherwise. It returns a point
    within GSS_TOL of the minimizer, and its value when it was sent it.

    The rule, if any, answers the rounds whose outcome it proves (below).
    For any other round the generator yields the points whose values it
    lacks together with the point the next round needs after either outcome
    (the final point after the last round), and is sent all their values,
    so a run of such rounds takes about half as many calls. A lane without
    a rule decides every round so, from values.

    The rule proves f(c) <= f(d) or f(c) > f(d) for the computed values of
    a convex f wherever the exact difference D = f(d) - f(c) clears ±tol,
    with tol at least 2δ and δ the values' rounding bound. At its right end
    s_r, f'(s_r) >= g_r and κlo_r <= f''(s_r) <= κhi_r (at the left end
    s_l, -f'(s_l) >= g_l, the mirror image); a missing end lies at ±inf. As
    |f'''| <= W·f'' (f''' sums third central moments of ℓ_m, each at most
    its range W_m times the variance), f''(x) lies within f''(s)·e^{±W|x -
    s|}. For c + d > 2s_r, which puts d past s_r, as d - c > GSS_TOL/5
    outweighs the sum's rounding, with y = d - s_r and z = s_r - c:
    - z <= 0: f' >= f'(c) >= g_r + κlo_r·|z|·e^{-W|z|} on [c, d], so
      D >= (d - c)·(g_r + κlo_r·|z|·e^{-W|z|});
    - z > 0: integrating f' out from s_r both ways, D >= g_r·(d - c) +
      κlo_r·y²·e^{-Wy}/2 - κhi_r·z²·e^{Wz}/2.
    Each bound is valid whatever the sign of g_r. The left end is the
    mirror image, for c + d < 2s_l. The rule's terms carry
    _RULE_ROUNDING, which covers the rounding of the bound itself. A rule
    with no ends (2s_l = -inf, 2s_r = inf) proves no round: a lane without
    a rule runs on _NO_RULE."""
    a, b = lo, hi
    phi = _INV_PHI
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc = fd = None
    known: dict[float, float] = {}
    s_l, l2, g_l, k_l, a_l, b_l, s_r, r2, g_r, k_r, a_r, b_r, W, tol = rule or _NO_RULE
    exp = math.exp
    while (b - a) > GSS_TOL:
        m = c + d
        if m > r2:
            z = s_r - c
            if z <= 0.0:
                proved = (d - c) * (g_r - k_r * z * exp(W * z)) > tol
            else:
                y = d - s_r
                proved = (
                    g_r * (d - c) + a_r * y * y * exp(-W * y)
                    - b_r * z * z * exp(W * z)
                    > tol
                )
            if proved:
                b, d, fd, fc = d, c, fc, None
                c = b - phi * (b - a)
                continue
        elif m < l2:
            z = d - s_l
            if z <= 0.0:
                proved = (d - c) * (g_l - k_l * z * exp(W * z)) > tol
            else:
                y = s_l - c
                proved = (
                    g_l * (d - c) + a_l * y * y * exp(-W * y)
                    - b_l * z * z * exp(W * z)
                    > tol
                )
            if proved:
                a, c, fc, fd = c, d, fd, None
                d = a + phi * (b - a)
                continue
        if fc is None:
            fc = known.get(c)
        if fd is None:
            fd = known.get(d)
        if fc is None or fd is None:
            need = [x for x, v in ((c, fc), (d, fd)) if v is None]
            after_l = d - phi * (d - a) if d - a > GSS_TOL else 0.5 * (a + d)
            after_r = c + phi * (b - c) if b - c > GSS_TOL else 0.5 * (c + b)
            got = yield (*need, after_l, after_r)
            if fc is None:
                fc = got[0]
            if fd is None:
                fd = got[-3]
            known = {after_l: got[-2], after_r: got[-1]}
        if fc <= fd:
            b, d, fd, fc = d, c, fc, None
            c = b - phi * (b - a)
        else:
            a, c, fc, fd = c, d, fd, None
            d = a + phi * (b - a)
    x = 0.5 * (a + b)
    return x, known.get(x)


def _unmoved(x: float):
    """A lane that takes no step: a generator that returns (x, None) at
    once."""
    return x, None
    yield


def _valued(step):
    """step, then the value at the point it returns, asked for unless the
    step was sent it: returns (point, value)."""
    x, value = yield from step
    if value is None:
        (value,) = yield (x,)
    return x, value


def _values_at(*xs: float):
    """A request for one lane's values at xs, which it returns."""
    return (yield xs)


def _lockstep(f: LaneObjective, lanes: list[int], steps: list) -> list:
    """The one golden-section loop: runs generators that ask for values of
    lane lanes[i] (steps[i], as _golden_steps does), answering every
    request of a round with one call of f, and returns what each generator
    returns. A call that asks every lane of lanes, one point each and in
    order, passes f live = None."""
    out: list = [None] * len(steps)
    todo: list = []

    def advance(i: int, sent) -> None:
        try:
            todo.append((i, steps[i].send(sent)))
        except StopIteration as stop:
            out[i] = stop.value

    for i in range(len(steps)):
        advance(i, None)
    while todo:
        asked, todo = todo, []
        live = [lanes[i] for i, xs in asked for _ in xs]
        got = f([x for _, xs in asked for x in xs], None if live == lanes else live)
        j = 0
        for i, xs in asked:
            advance(i, got[j : j + len(xs)])
            j += len(xs)
    return out


def golden_section(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Minimizes a unimodal f on a finite [lo, hi], lo < hi; returns a point
    within GSS_TOL of the minimizer. It is one _golden_steps lane without a
    rule, so every round is decided from f's values."""
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"need finite lo < hi, got {lo!r} and {hi!r}")
    step = _golden_steps(lo, hi)
    ((x, _),) = _lockstep(lambda s, live: [f(t) for t in s], [0], [step])
    return x


def _ruled_lanes(
    f: LaneObjective, flat: Sequence[bool], rules: Sequence[Rule | None]
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Each lane's golden-section point on [0, 1] and the values at it, at
    0 and at 1 (0.0 for a flat lane), with each lane's rule answering the
    rounds it proves (_golden_steps); a lane without one decides every
    round from its values. A flat lane takes no step. The values at 0 and 1
    and at each lane's point ride on the calls its other rounds make."""
    n = len(flat)
    steps = [
        _valued(_unmoved(0.5) if fl else _golden_steps(0.0, 1.0, rule))
        for fl, rule in zip(flat, rules)
    ]
    lanes = [k for k in range(n) if not flat[k]]
    out = _lockstep(
        f, list(range(n)) + lanes, steps + [_values_at(0.0, 1.0) for _ in lanes]
    )
    at_0, at_1 = [0.0] * n, [0.0] * n
    for k, (v0, v1) in zip(lanes, out[n:]):
        at_0[k], at_1[k] = v0, v1
    s_in, values = map(list, zip(*out[:n]))
    return s_in, values, at_0, at_1


def _minimize_tilts(
    f: LaneObjective, flat: Sequence[bool], rules: Sequence[Rule | None]
) -> list[tuple[float, float]]:
    """Minimizes convex tilt objectives over [0, 1] in lockstep lanes;
    returns (s*, value) per lane.

    Each golden-section point is re-evaluated exactly and compared against
    both endpoints, so boundary minimizers are returned exactly. A flat
    objective returns s = 0.5 by convention and takes no golden-section
    step. The rules (PairStack._locate) answer the rounds they prove
    (_ruled_lanes), and the points and values are those of golden sections
    decided from values, bit for bit.
    """
    n = len(flat)
    if all(flat):
        return [(0.5, v) for v in f([0.5] * n, None)]
    s_in, values, at_0, at_1 = _ruled_lanes(f, flat, rules)
    best = []
    for fl, s, v, v0, v1 in zip(flat, s_in, values, at_0, at_1):
        if not fl:
            if v0 < v or (v0 == v and 0.0 < s):
                s, v = 0.0, v0
            if v1 < v or (v1 == v and 1.0 < s):
                s, v = 1.0, v1
        best.append((s, v))
    return best


# The first call of a located minimization (PairStack._locate) evaluates
# every lane's slope and curvature at these tilts, 0 and 1 among them.
_START = np.linspace(0.0, 1.0, 17)

# Most Newton calls a located minimization makes past its first, and the
# bracket width at which a lane takes no further step.
_NEWTON_CALLS = 3
_BRACKET = 1e-9

# Relative rounding a round's bound allows for (_golden_steps): each side
# of it takes at most a dozen roundings and one exp, whose argument W·y is
# off by at most 4u·W relative (W's own rounding, from ℓ's, and the
# product's), with W < 1490 for any log ratio of positive doubles: in all
# under 1e-12.
_RULE_ROUNDING = 1e-11
_DOWN, _UP = 1.0 - _RULE_ROUNDING, 1.0 + _RULE_ROUNDING


def _newton_point(
    side: list, width: float, sigma: float
) -> tuple[float, float] | None:
    """A lane's next two points, t ± Δ, or None once its bracket is narrow
    enough (PairStack._locate). side holds the nearest points of certified
    slope on each side of the minimizer, each as (s, slope, curvature) or
    None. With both, t is the root of the cubic that matches their slopes
    and curvatures, by two Newton steps from their secant root, and its
    error is about W³·h⁴/384 on a bracket of width h; with one, t is the
    Newton step from it, off by about W·step². Δ is a few times that error
    plus the slope's noise, and at most a quarter of the bracket."""
    left, right = side
    if left is not None and right is not None:
        x0, g0, k0 = left
        x1, g1, k1 = right
        h = x1 - x0
        if h <= _BRACKET:
            return None
        kappa = k0 if k0 < k1 else k1
        if not kappa > 0.0 or 8.0 * sigma >= kappa * h:
            return None  # as narrow as the slope's rounding lets it be
        # the cubic in τ = (x - x0)/h: g0·(1 - 3τ² + 2τ³) + g1·(3τ² - 2τ³)
        # + h·κ0·(τ - 2τ² + τ³) + h·κ1·(τ³ - τ²)
        a0, a1, dg = h * k0, h * k1, g1 - g0
        t = -g0 / dg
        for _ in range(2):
            t2 = t * t
            u = 1.0 - t
            p = g0 + dg * (3.0 - 2.0 * t) * t2 + a0 * t * u * u - a1 * t2 * u
            dp = 6.0 * dg * t * u + a0 * u * (1.0 - 3.0 * t) + a1 * t * (3.0 * t - 2.0)
            if not dp > 0.0:
                break
            t -= p / dp
        t = x0 + h * t
        lo, hi = x0, x1
        error = width**3 * h**4 / 64.0
    elif left is not None or right is not None:
        x, g, kappa = left or right
        lo = x if right is None else 0.0
        hi = 1.0 if right is None else x
        if hi - lo <= _BRACKET or not kappa > 0.0 or 8.0 * sigma >= kappa * (hi - lo):
            return None
        step = g / kappa
        t = x - step
        error = 2.0 * width * step * step
    else:
        return None
    if not lo < t < hi:
        t = 0.5 * (lo + hi)
    delta = min(error + 4.0 * sigma / kappa, 0.25 * (hi - lo))
    return (max(lo, t - delta), min(hi, t + delta))


def _rule(
    left: tuple[float, float, float] | None,
    right: tuple[float, float, float] | None,
    sigma: float,
    eta: float,
    zeta: float,
    width: float,
    delta: float,
) -> Rule:
    """A lane's rule (_golden_steps) from the ends of its bracket, each
    (s, slope, curvature) as computed, or None, when the exact slope lies
    within sigma of the computed one, the exact curvature within [(κ̂ -
    zeta)/(1 + eta), (κ̂ + zeta)/(1 - eta)] of the computed κ̂, each
    computed value of the objective within delta of the exact one, and
    |f'''| <= width·f''. The rounds are decided beyond tol = 2·delta, so
    that the computed values compare as the exact ones do. Each bound a
    term takes is widened by _RULE_ROUNDING, which also covers its own
    rounding."""
    ends: list[float] = []
    for end, sign in ((left, -1.0), (right, 1.0)):
        if end is None:
            ends += (sign * math.inf, sign * math.inf, 0.0, 0.0, 0.0, 0.0)
            continue
        x, g, kappa = end
        g = sign * g - sigma  # a lower bound on the exact -f'(x) or f'(x)
        g *= _DOWN if g > 0.0 else _UP
        low = max((kappa - zeta) * (1.0 - eta), 0.0) * _DOWN
        high = max(kappa + zeta, 0.0) * (1.0 + 2.0 * eta) * _UP
        ends += (x, 2.0 * x, g, low, 0.5 * low, 0.5 * high)
    return (*ends, width, 2.0 * delta * _UP)


# The rule of a lane without one, which proves no round (_golden_steps).
_NO_RULE = _rule(None, None, 0.0, 0.0, 0.0, 0.0, 0.0)


def _bracket_margin(delta: float, kappa: float) -> float:
    """How far above f̂(p), at any p in [0, 1], lies the value v that
    _minimize_tilts returns for a lane's convex f, when each computed value
    f̂ lies within delta = δ of f and f'' <= kappa = κ̄ on [0, 1]
    (PairStack._bracket_bounds); f* = min f over [0, 1], x* the golden
    point, and R = ⌈log GSS_TOL / log φ⌉ + 1 bounds the rounds, one more
    than the exact count for the computed widths.
    - v = min(f̂(x*), f̂(0), f̂(1)); a flat lane's v is f̂(0.5), with f
      constant.
    - A round a rule proves keeps the interval's exact minimum. A round
      decided from values keeps [a, d] with f(c) <= f(d) + 2δ (or [c, b],
      the mirror image); the convex f lies above the line through c and d
      past d, so the minimum over [a, b] is at least f(d) - 2δ·(b - d)/(d -
      c) = f(d) - 2δ/φ, and the kept interval's minimum is at most 2δ/φ =
      3.236δ above it (3.24δ also covers the computed points' drift from
      the golden ratio). So the final interval holds a t with f(t) <= f* +
      ε, ε = 3.24·δ·R.
    - If f* lies at 0 or 1, v <= f̂(0) or f̂(1) <= f* + δ.
    - Otherwise f'(s†) = 0 at the minimizer s†, and f' moves from 0 by at
      most κ̄ per unit, so f'(t)² <= 2κ̄·(f(t) - f*) <= 2κ̄ε. With |x* - t|
      <= GSS_TOL/2, f(x*) <= f(t) + |f'(t)|·GSS_TOL/2 + κ̄·GSS_TOL²/8 <= f*
      + E, E = ε + (GSS_TOL/2)·√(2κ̄ε) + κ̄·GSS_TOL²/4 (a quarter where an
      eighth is exact, which covers κ̄'s rounding); v <= f̂(x*) <= f* + E +
      δ.
    - As f* <= f(p) <= f̂(p) + δ, v <= f̂(p) + E + 2δ in either case.
    The margin is E + 3δ, whose last δ covers the bound's own rounding.
    Forming f̂(p) + margin is off by at most u·|f̂(p)| + 3u·(E + 3δ), with
    |f̂(p)| <= 2M + δ and δ >= γ_{X+K+16}·3M >= 54u·M (M as in
    PairStack.rounding): far below the δ - 4.1u left, as δ >= 18u. And
    math.exp is within an ulp, so the exp of a bound at least 4.1u above a
    value is at least the value's exp: a label's fsum of the bounds' exps
    is at least the check's own fsum."""
    eps = 3.24 * delta * (math.ceil(math.log(GSS_TOL) / math.log(_INV_PHI)) + 1)
    return (
        eps
        + 0.5 * GSS_TOL * math.sqrt(2.0 * kappa * eps)
        + 0.25 * kappa * GSS_TOL * GSS_TOL
        + 3.0 * delta
    )


class _Calculus:
    """Per-lane constants of a PairStack's located minimizations
    (PairStack._locate), over models m: the stack's log p and ℓ = log q -
    log p (0 on padding), and every symbol's (1, ℓ, ℓ²), shaped for
    _derivatives; the range W_m of ℓ_m over the alphabet (width, as lists)
    and W_m²/4 (curvature, an array); and the coefficients of the slope and
    curvature rounding bounds."""

    __slots__ = (
        "log_p", "ell", "basis", "width", "curvature", "slope_coef", "curv_coef", "eta"
    )

    def __init__(self, stack: PairStack):
        p, q = stack.log_p, stack.log_q
        K, X = p.shape[1:]
        ell = q - p
        spread = np.abs(ell).max(-1)  # L_m, (P, K)
        self.log_p, self.ell = p[:, None], ell[:, None]
        self.basis = np.stack((np.ones_like(ell), ell, ell * ell), -1)[:, None]
        # padding's ℓ of 0 widens no range, as both rows sum to 1, so a
        # model's ℓ are not all of one sign; where rounding makes them so,
        # a wider range only loosens the rules
        width = ell.max(-1) - ell.min(-1)
        self.width = width.tolist()
        self.curvature = 0.25 * width * width  # Var ℓ_m <= W_m²/4
        mag = np.array(stack._log_maxima[1])  # A_m over every label
        self.slope_coef = spread * (14.0 * mag + 2 * X + K + 12)
        self.curv_coef = (6 * X + 12) * spread * spread
        self.eta = _UNIT * 1.001 * (14.0 * float(mag.max()) + K + 8)

    def select(self, lanes: Sequence[int]) -> _Calculus:
        """These constants on the given lanes, in that order (eta is the
        instance's)."""
        sub = object.__new__(_Calculus)
        for name in ("log_p", "ell", "basis", "curvature", "slope_coef", "curv_coef"):
            setattr(sub, name, getattr(self, name)[lanes])
        sub.width = [self.width[k] for k in lanes]
        sub.eta = self.eta
        return sub


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
        self._log_maxima = _log_maxima(instance)
        self._lanes()

    def _lanes(self) -> None:
        # per lane: its (K, X) tables and its prior ratio as a Python float
        self._rows = list(zip(self.log_p, self.log_q))
        self._ratios = self.log_ratio.tolist()

    def select(self, lanes: Sequence[int]) -> PairStack:
        """The stack of the given lanes, in that order, copied from this
        one's arrays without another build. Its _calculus and _start are
        this stack's rows, computed here if not yet: every entry is
        computed within its lane, so they hold the values a build on the
        selected lanes would."""
        sub = copy.copy(self)
        sub.log_p, sub.log_q = self.log_p[lanes], self.log_q[lanes]
        sub.log_ratio = self.log_ratio[lanes]
        sub.flat = [self.flat[k] for k in lanes]
        sub._lanes()
        sub._calculus = self._calculus.select(lanes)
        sub._start = tuple(a[lanes] for a in self._start)
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

    def _ruled(
        self, counts: np.ndarray, delta: float
    ) -> tuple[list[bool], list[Rule | None]]:
        """For float plan counts, whose proxies' computed values lie within
        delta of the exact ones: the lanes tilts fixes (flat, with no prior
        term) and every lane's rule (_locate)."""
        fixed = [fl and q == 0.0 for fl, q in zip(self.flat, self._ratios)]
        return fixed, self._locate(self._ratios, counts, fixed, delta)

    def tilts(self, counts: np.ndarray) -> list[tuple[float, float]]:
        """Each pair's optimal tilt and log proxy for float plan counts. The
        lanes' rules (_ruled) answer the golden-section rounds they prove."""
        fixed, rules = self._ruled(counts, self.rounding(counts))
        return _minimize_tilts(self.proxy(counts), fixed, rules)

    def _bracket_bounds(
        self, counts: np.ndarray, delta: float, rules: Sequence[Rule | None]
    ) -> list[float]:
        """For float plan counts, with delta = rounding(counts) and the
        lanes' rules (_ruled), a bound on each lane's log proxy as tilts
        returns it, from one value call: f̂(p) + _bracket_margin(δ, κ̄) at
        the lane's bracket end p (its right end, else its left; 0.5 for a
        lane without a rule, which is sound but loose), with κ̄ = Σ_m
        r_m·W_m²/4."""
        points = [
            0.5 if rule is None else rule[6] if rule[6] <= 1.0 else rule[0]
            for rule in rules
        ]
        kappa = (self._calculus.curvature @ counts).tolist()
        return [
            v + _bracket_margin(delta, k)
            for v, k in zip(self.proxy(counts)(points, None), kappa)
        ]

    def contractions(self) -> list[tuple[float, float]]:
        """Each pair's (s*, min_s sum_m log M_m(s)): pair_contraction. Its
        rounding bound is a proxy's for one query of every model, as the
        objective is that proxy's without the prior term."""
        ones = np.ones(self.log_p.shape[1])
        rules = self._locate(None, ones, self.flat, self.rounding(ones))
        total = self.lane_objective(lambda log_m: np.add.reduce(log_m, -1))
        return _minimize_tilts(total, self.flat, rules)

    def rounding(self, counts: np.ndarray) -> float:
        """δ: a bound on how far one evaluation of a pair's tilted proxy,
        f(s) = s·ρ + Σ_m r_m·log M_m(s) as PairStack.proxy computes it, lies
        from its exact value, for plan counts r summing to n.

        With u = 2⁻⁵³, X the padded alphabet width, K the number of models,
        A_m = max |log p_m| and M = likelihood._log_scale (so |ρ| +
        Σ r_m·A_m ≤ 2M):
        - each (1 − s)·log p + s·log q takes three roundings of terms whose
          magnitudes sum to at most A_m: off by γ_3·A_m, which log-sum-exp
          passes on, as it moves by at most the largest move of an entry;
        - _logsumexp then subtracts the top (u·2A_m), takes exp and log
          (within one ulp each, so 2u relative), sums X terms in [0, 1] one
          of which is 1 (γ_X), and adds the top back (u·(A_m + 1)); padding
          adds exact zeros. With log X + 1 ≤ X, log M_m is off by at most
          γ_{X+12}·(A_m + X + 1), and |log M_m| ≤ A_m;
        - the dot product with the counts adds γ_K·Σ r_m·|log M_m|, and
          s·ρ and the last sum γ_2·(|ρ| + Σ r_m·|log M_m|).
        In all, δ ≤ γ_{X+K+16}·(3M + n·(X + 1) + 1), which is what this
        returns; the last term keeps δ at least 18u.
        """
        K, X = self.log_p.shape[1:]
        prior, models = self._log_maxima
        r = counts.tolist()
        scale = prior + sum(c * a for c, a in zip(r, models) if c)
        return _gamma(X + K + 16) * (3.0 * scale + sum(r) * (X + 1) + 1.0)

    @functools.cached_property
    def _calculus(self) -> _Calculus:
        """The stack's _Calculus, computed on first use (_locate derives
        its bounds) or sliced from the stack it was selected from."""
        return _Calculus(self)

    @functools.cached_property
    def _start(self) -> tuple[np.ndarray, np.ndarray]:
        """_derivatives at the _START tilts, where every _locate on the
        stack begins, whatever its weights: computed on first use or
        sliced from the stack it was selected from."""
        return self._derivatives(_START[None, :])

    def _derivatives(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """At tilts t shaped (P, J), one row per lane (or (1, J) for every
        lane), each model's slope and curvature of log M_m, shaped
        (P, J, K): the mean and variance of ℓ_m under the weights e_x =
        exp(log p_x + t·ℓ_x), from the sums of e_x·(1, ℓ_x, ℓ_x²)."""
        calc = self._calculus
        e = np.exp(calc.log_p + t[:, :, None, None] * calc.ell)
        sums = (e[..., None, :] @ calc.basis)[..., 0, :]  # (P, J, K, 3)
        z = sums[..., 0]
        mean = sums[..., 1] / z
        return mean, sums[..., 2] / z - mean * mean

    def _locate(
        self,
        ratios: list[float] | None,
        weights: np.ndarray,
        fixed: Sequence[bool],
        delta: float,
    ) -> list[Rule | None]:
        """The rule each lane's golden-section rounds are answered by
        (_golden_steps), or None, for an objective of slope ρ + Σ_m
        w_m·mean_m and curvature Σ_m w_m·var_m (_derivatives), with ρ =
        ratios (0 when None) and w = weights, whose computed values lie
        within delta of the exact ones. A fixed lane has no rule, and with
        every lane fixed nothing is evaluated.

        Every lane starts from its slopes and curvatures at the _START
        tilts, evaluated once per stack (_start); then at most
        _NEWTON_CALLS calls of _derivatives evaluate two points per lane around
        the next iterate (_newton_point). A point whose computed slope lies
        beyond ±σ has an exact slope of that sign, so it bounds the
        minimizer s† from that side; the nearest on each side are the
        rule's ends. The bounds, with u = 2⁻⁵³, K models, X the padded
        width, A_m = max |log p_m| over every label, L_m = max |ℓ_m| and
        W_m the range of ℓ_m:
        - σ. ℓ is off by u·L_m; the exponent log p + t·ℓ by at most
          u·(A_m + 3L_m) ≤ 7u·A_m, so with the exp's 2u the weights e_x are
          off by γ_{7A_m+3} relative, and normalized by γ_{14A_m+7} (the
          largest weight is at least e^{-log X - 373}, as each row sums to
          1, so a weight below the normal range moves nothing). The mean of
          ℓ is then off by γ_{14A_m+7}·L_m, plus γ_{2X+2}·L_m for its sums,
          products and division. The dot product with w and the sum with ρ
          add γ_{K+1}·(|ρ| + Σ_m w_m·L_m). So σ = u·1.001·((K + 1)·|ρ| +
          Σ_m w_m·L_m·(14A_m + 2X + K + 12)), as γ_n ≤ 1.001·n·u here.
        - Curvature. The variance under the perturbed weights is within
          γ_{14A_m+7} relative of the exact one (it is the least mean square
          about any centre, and every weight moves by that factor). The
          computed Σe·ℓ²/Σe − (Σe·ℓ/Σe)² is within (6X + 11)·u·L_m² of it:
          the first ratio is off by γ_{2X+1}·L_m² and by 3.01u·L_m² for the
          rounded ℓ², the square of the mean by 2γ_{2X+2}·L_m², and the
          square and difference by 2u·L_m². With the dot product's γ_K, the
          computed κ̂ lies within ζ of an exact curvature that is within a
          factor 1 ± η of the lane's, so that lies in [(κ̂ - ζ)/(1 + η),
          (κ̂ + ζ)/(1 - η)], where η = u·1.001·(14·max_m A_m + K + 8) and
          ζ = u·1.001·(6X + 12)·Σ_m w_m·L_m².
        - W is the largest W_m of a model with w_m > 0: f''' sums w_m times
          the third central moments of ℓ_m, each at most W_m times the
          variance.
        Ends of certified sign only make the rules sharp: a rule stays
        valid with an end on either side of s† (_golden_steps).
        """
        if all(fixed):
            return [None] * len(fixed)
        calc = self._calculus
        P = len(calc.width)
        K = len(weights)
        rho = [0.0] * P if ratios is None else ratios
        coef = (calc.slope_coef @ weights).tolist()
        sigma = [_UNIT * 1.001 * ((K + 1) * abs(x) + c) for x, c in zip(rho, coef)]
        queried = [w > 0.0 for w in weights.tolist()]
        width = [max([x for x, on in zip(row, queried) if on] or [0.0]) for row in calc.width]
        start = _START.tolist()
        sides = []
        mean, var = self._start
        grid = zip((mean @ weights).tolist(), (var @ weights).tolist())
        for k, (slopes, curves) in enumerate(grid):
            # the last start tilt of certified negative slope, the first of
            # certified positive slope
            left = right = None
            if not fixed[k]:
                for x, g, kappa in zip(start, slopes, curves):
                    g += rho[k]
                    if g < -sigma[k]:
                        left = (x, g, kappa)
                    elif g > sigma[k]:
                        right = (x, g, kappa)
                        break
            sides.append([left, right])

        live = [k for k in range(P) if not fixed[k]]
        for _ in range(_NEWTON_CALLS):
            points = [(0.5, 0.5)] * P
            now = []
            for k in live:
                x = _newton_point(sides[k], width[k], sigma[k])
                if x is not None:
                    points[k] = x
                    now.append(k)
            live = now
            if not live:
                break
            mean, var = self._derivatives(np.array(points))
            slopes, curves = (mean @ weights).tolist(), (var @ weights).tolist()
            for k in live:
                side = sides[k]
                for x, g, kappa in zip(points[k], slopes[k], curves[k]):
                    g += rho[k]
                    if g < -sigma[k] and (side[0] is None or x > side[0][0]):
                        side[0] = (x, g, kappa)
                    elif g > sigma[k] and (side[1] is None or x < side[1][0]):
                        side[1] = (x, g, kappa)

        zeta = (_UNIT * 1.001 * (calc.curv_coef @ weights)).tolist()
        return [
            None
            if fixed[k] or (left is None and right is None)
            else _rule(left, right, sigma[k], calc.eta, zeta[k], width[k], delta)
            for k, (left, right) in enumerate(sides)
        ]


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

    The objective s -> s*log(prior ratio) + sum_m r_m log M_m(s) is convex.
    The returned value is the objective as computed at the returned tilt,
    which lies within δ = PairStack.rounding(counts) of its exact value
    there. Every tilt's exact value bounds the pair's log error term from
    above, so the returned value does so up to δ; it is at least the exact
    minimum less δ, and golden-section search leaves it within a rounding
    level of that minimum.
    """
    counts = as_plan(plan, instance).as_array().astype(float)
    yi, yj = _label_pair(instance, y, y_other)
    return PairStack(instance, [(yi, yj)]).tilts(counts)[0]


def _label_values(logs: Sequence[float], L: int) -> list[float]:
    """Each label's surrogate error from the log proxy of every ordered
    pair, in ordered_pairs' order: the fsum of its L - 1 competitors'
    exps."""
    return [
        math.fsum(math.exp(lv) for lv in logs[k : k + L - 1])
        for k in range(0, len(logs), L - 1)
    ]


def _surrogate_accept(instance: Instance) -> Callable[[np.ndarray], bool]:
    """The surrogate searches' check: accept(counts), for float plan
    counts, answers as is_surrogate_feasible(instance, counts).feasible
    does, on the same lanes, mostly from one value call.

    It locates each lane's minimizer as tilts does (PairStack._ruled) and
    bounds each lane's log proxy from one value call at its bracket end
    (PairStack._bracket_bounds). When every label's fsum of the bounds'
    exps is at most its tolerance, the check's own fsum is too, and accept
    answers True. Otherwise it runs tilts' certified rounds on the same
    rules and compares their values as is_surrogate_feasible does.
    """
    L = instance.n_labels
    stack = pair_stack(instance)
    tolerances = instance.tolerances.tolist()

    def passes(logs: list[float]) -> bool:
        return all(v <= a for v, a in zip(_label_values(logs, L), tolerances))

    def accept(counts: np.ndarray) -> bool:
        delta = stack.rounding(counts)
        fixed, rules = stack._ruled(counts, delta)
        if passes(stack._bracket_bounds(counts, delta, rules)):
            return True
        pair_tilts = _minimize_tilts(stack.proxy(counts), fixed, rules)
        return passes([lv for _, lv in pair_tilts])

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
    values = tuple(_label_values([lv for _, lv in pair_tilts], len(names)))
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
