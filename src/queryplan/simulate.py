"""Monte Carlo estimation of statewise MAP error.

Trials are generated in fixed-size chunks, each from a Philox stream keyed
by (seed, chunk index), so results are reproducible for a given seed and
independent of how many chunks the trial count splits into. Within a chunk
everything is vectorized: multinomial draws per model, posterior scores,
and the MAP rule's error mask, shared with exact enumeration.

With two labels a chunk decides by the score difference Δ = s₁ − s₀
alone: each trial's Δ is the prior gap plus, per model, its counts times
the model's per-symbol differences log p(x|1) − log p(x|0), and a trial
is wrong on its label's side of likelihood._delta_threshold.

A plan that queries one model of two or three symbols is decided from
the chunk's uniforms, with no counts drawn (_Uniforms). Where
r·min(p, 1 − p) ≤ 30, numpy's binomial is sequential-search inversion
(Devroye, Non-Uniform Random Variate Generation, 1986, §X.4): a count is
the number of running sums of a pmf ladder below one uniform
(_ladders), and a three-symbol multinomial is two such binomials, the
second on the next uniform unless the first took every query. Δ is
linear in the counts, so each uniform's interval of the ladder fixes its
trial's decision, and a chunk costs one draw of uniforms, a parity scan
for where its trials start and a table lookup per trial.

Everything else is drawn: several queried models, four or more symbols,
and draws numpy makes by BTPE (Kachitvichyanukul and Schmeiser, CACM
31(2), 1988). A model of two symbols draws its first symbol's count with
rng.binomial(r, p₀), which numpy's multinomial draws for two categories
from the same stream, so the trials are the score path's. A chunk the
uniforms cannot decide exactly (a uniform within rounding of a ladder's
sum or past its restart bound, or one that draws a profile whose Δ lies
within likelihood._delta_margin of the threshold) is drawn from its key;
if a drawn trial's Δ lies within the margin, the score path draws it
again and decides it. The error count is the score path's either way.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .instances import Instance, ModelSpec, QueryPlan, _expect, as_plan
from .likelihood import _delta_margin, _delta_threshold, _error_mask, _log_scale

# Two-sided 95% normal quantile used for the Wilson interval.
WILSON_Z = 1.959963984540054

CHUNK_TRIALS = 100_000


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson score interval, at z = WILSON_Z, for a binomial proportion;
    always contains the point estimate errors/trials."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = errors / trials
    z = WILSON_Z
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # rounding can push an endpoint a few ulps past the point estimate;
    # widen so the documented containment holds exactly
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    trials: int
    errors: int
    std_error: float
    ci_low: float
    ci_high: float
    seed: int
    tie_policy: str

    def to_dict(self) -> dict:
        return asdict(self)


def simulate_error(
    instance: Instance,
    plan: QueryPlan | Sequence[int],
    y: int | str,
    trials: int,
    seed: int,
    tie_policy: str = "lowest-index",
) -> McEstimate:
    """Estimates the statewise MAP error for label y over repeated trials.

    trials and seed must be integers (Python or numpy, not bool): a
    float seed would otherwise draw a truncated seed's stream."""
    trials = int(_expect(trials, (int, np.integer), "trials", "an integer"))
    seed = int(_expect(seed, (int, np.integer), "seed", "an integer"))
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= seed < 2**64:
        # Philox keys are unsigned 64-bit words
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    wrong = _error_mask(tie_policy)
    plan = as_plan(plan, instance)
    yi = instance.label_index(y)
    active = [(m, r) for m, r in zip(instance.models, plan.counts) if r > 0]
    by_delta = None
    if instance.n_labels == 2:
        margin = _delta_margin(
            instance, plan.counts, _log_scale(instance, plan.counts)
        )
        by_delta = _DeltaChunks(instance, active, yi, tie_policy, margin)
    errors = 0
    done = 0
    index = 0
    while done < trials:
        n = min(CHUNK_TRIALS, trials - done)
        # as uint64 words: a list holding an int of 2**63 or more would
        # pass through float64 and lose its low bits
        key = np.array([seed, index], dtype=np.uint64)
        wrong_n = None if by_delta is None else by_delta.errors(key, n)
        if wrong_n is None:
            wrong_n = _score_errors(instance, active, yi, wrong, key, n)
        errors += wrong_n
        done += n
        index += 1
    p = errors / trials
    lo, hi = wilson_interval(errors, trials)
    return McEstimate(
        estimate=p,
        trials=trials,
        errors=errors,
        std_error=math.sqrt(p * (1.0 - p) / trials),
        ci_low=lo,
        ci_high=hi,
        seed=seed,
        tie_policy=tie_policy,
    )


def _score_errors(
    instance: Instance,
    active: list[tuple[ModelSpec, int]],
    yi: int,
    wrong: Callable[[np.ndarray, int], np.ndarray],
    key: np.ndarray,
    n: int,
) -> int:
    """The wrong trials among the chunk of n trials drawn from Philox key,
    by posterior scores and the MAP rule's error mask."""
    rng = np.random.Generator(np.random.Philox(key=key))
    scores = None
    for m, r in active:
        counts = rng.multinomial(r, m.conditional[yi], size=n)
        loglik = counts.astype(float) @ m.log_conditional.T
        if scores is None:
            # the first model's scores plus the prior, in place: float
            # addition commutes, so this is log_prior + loglik bit for bit
            scores = loglik
            scores += instance.log_prior
        else:
            scores += loglik
    if scores is None:  # no queries: every trial scores the prior alone
        scores = np.broadcast_to(instance.log_prior, (n, instance.n_labels))
    return int(wrong(scores, yi).sum())




class _DeltaChunks:
    """The two-label chunks, decided by Δ: per model its query count, its
    symbol probabilities under the true label and its per-symbol
    differences of log-likelihood. A plan that queries one model of two
    or three symbols is first tried by its uniforms (_Uniforms)."""

    def __init__(
        self,
        instance: Instance,
        active: list[tuple[ModelSpec, int]],
        yi: int,
        tie_policy: str,
        margin: float,
    ):
        self.models = [
            (r, m.conditional[yi], m.log_conditional[1] - m.log_conditional[0])
            for m, r in active
        ]
        self.gap = float(instance.log_prior[1] - instance.log_prior[0])
        self.yi = yi
        self.threshold = _delta_threshold(tie_policy, yi)
        self.margin = margin
        self.uniforms = None
        if len(self.models) == 1 and len(self.models[0][1]) <= 3:
            r, p, _ = self.models[0]
            self.uniforms = _Uniforms.build(r, p, self._kinds)

    def _kinds(self, counts: np.ndarray) -> np.ndarray:
        """The kind of each profile, for counts (..., X) of the one model:
        wrong or right by its Δ, or _REDRAW where Δ lies within the
        margin of the threshold. Outside the margin Δ decides as the
        scores do, in whatever order it is summed (_delta_margin)."""
        delta = counts @ self.models[0][2] + self.gap - self.threshold
        wrong = delta < 0.0 if self.yi else delta > 0.0
        kinds = np.where(wrong, _WRONG, _RIGHT).astype(np.int8)
        kinds[np.abs(delta) <= self.margin] = _REDRAW
        return kinds

    def errors(self, key: np.ndarray, n: int) -> int | None:
        """The wrong trials among the chunk of n trials drawn from Philox
        key, or None if some trial's Δ lies within the margin of the
        threshold."""
        if self.uniforms is not None:
            wrong = self.uniforms.errors(key, n)
            if wrong is not None:
                return wrong
        rng = np.random.Generator(np.random.Philox(key=key))
        delta = np.full(n, self.gap)
        for r, p, d in self.models:
            if len(d) == 2:
                # multinomial(r, p) draws its first count so, and the
                # second is what remains
                first = rng.binomial(r, p[0], size=n)
                delta += first * d[0] + (r - first) * d[1]
            else:
                delta += rng.multinomial(r, p, size=n) @ d
        delta -= self.threshold
        if np.minimum.reduce(np.abs(delta), initial=np.inf) <= self.margin:
            return None
        # label 0 is wrong above the threshold, label 1 below it
        return int(np.count_nonzero(delta < 0.0 if self.yi else delta > 0.0))


# The kinds of a profile, and of an interval of keys: decided right,
# decided wrong, or for the draw path to decide.
_RIGHT, _WRONG, _REDRAW = 0, 1, 2


def _ladders(ns: np.ndarray, p: float) -> tuple[bool, np.ndarray, np.ndarray] | None:
    """numpy's binomial(n, p) for each n of ns, as ladders: (flip, sums,
    bounds), or None where some n takes BTPE or p draws nothing.

    For n·min(p, 1 − p) ≤ 30 numpy draws by sequential-search inversion
    (Devroye, Non-Uniform Random Variate Generation, 1986, §X.4) on
    p' = min(p, 1 − p): from one uniform u it subtracts the pmf terms
    px₀ = q^n, px_k = (n − k + 1)·p'·px_{k−1} / (k·q) while u exceeds the
    next, so it draws X, the first k with u ≤ sums[k] = px₀ + … + px_k,
    and returns n − X if flip (p > 0.5). Past X = bound it restarts with
    a new uniform. The pmf terms here are numpy's, bit for bit; the sums
    (rows of sums, padded past each bound) are not its running
    differences, so callers decide only uniforms clear of them (_cuts)."""
    if not 0.0 < p <= 1.0:
        return None
    flip = p > 0.5
    if flip:
        p = 1.0 - p
    if not np.all(p * ns <= 30.0):
        return None
    q = 1.0 - p
    mean = ns * p
    bound = mean + 10.0 * np.sqrt(mean * q + 1.0)
    bounds = np.minimum(ns, bound).astype(np.int64)
    steps = np.arange(1, int(bounds.max()) + 1)[:, None]
    grow = (ns - steps + 1) * p  # (n − k + 1)·p', then times px_{k−1}
    shrink = steps * q  # over k·q
    px = np.empty((len(steps) + 1, len(ns)))
    log_q = math.log(q)
    # the C library's exp and log, as numpy's sampler calls them
    px[0] = [math.exp(n * log_q) for n in ns.tolist()]
    for k in range(1, len(px)):
        np.multiply(grow[k - 1], px[k - 1], out=px[k])
        px[k] /= shrink[k - 1]
    return flip, np.cumsum(px, axis=0).T, bounds


def _clearance(bounds: np.ndarray) -> np.ndarray:
    """How far a uniform must lie from a ladder's sums for its draw to be
    read off them, per bound.

    numpy's running difference u − px₀ − … − px_{k−1} stays in [0, 1),
    so each of its k subtractions rounds by at most 2⁻⁵⁴; each of the k
    additions of a sum below 2 rounds by at most 2⁻⁵³, and placing the
    cut sums[k] ± clearance one more. So below (2·bound + 1)·2⁻⁵³ the
    two could part; (bound + 4)·2⁻⁵⁰ is over four times that."""
    return (bounds + 4.0) * 2.0**-50


def _cuts(
    sums: np.ndarray,
    bounds: np.ndarray,
    kinds: np.ndarray,
    clear: np.ndarray,
    offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(edges, region kinds) that decide a key offset + u for each ladder
    row: its draw X has kinds[row, X], a u within clear of a sum where
    the kind changes, or past the bound's, is _REDRAW. Region i holds
    the keys in [edges[i − 1], edges[i]), the last one past every edge.

    Offsets are at least 2 apart, and each row starts with an edge at
    offset − 0.5, so a row's keys lie in its own regions. Rounding
    offset + c is monotone in c, so a key below fl(offset + c) has u
    below c, and one at or past it has u past c less an ulp of the key:
    widening clear by that ulp keeps every decision the ladder's."""
    clear = clear + math.ulp(float(offsets.max()) + 2.0)
    steps = np.arange(kinds.shape[1] - 1)
    change = (kinds[:, :-1] != kinds[:, 1:]) & (steps < bounds[:, None])
    rows, at = np.nonzero(change)
    per_row = change.sum(axis=1)
    first = np.cumsum(2 * per_row + 2) - (2 * per_row + 2)
    edges = np.empty(int(2 * per_row.sum()) + 2 * len(bounds))
    out = np.full(len(edges) + 1, _REDRAW, dtype=np.int8)
    edges[first] = offsets - 0.5
    out[first + 1] = kinds[:, 0]
    # the j-th change of a row: a guard from sums − clear, then the next
    # kind from sums + clear
    rank = np.arange(len(rows)) - (np.cumsum(per_row) - per_row)[rows]
    j = first[rows] + 1 + 2 * rank
    cut = sums[rows, at]
    edges[j] = (cut - clear[rows]) + offsets[rows]
    edges[j + 1] = (cut + clear[rows]) + offsets[rows]
    out[j + 2] = kinds[rows, at + 1]
    last = first + 2 * per_row + 1
    edges[last] = (sums[np.arange(len(bounds)), bounds] - clear) + offsets
    # guards that overlap merge, leaving the kind between them empty
    np.maximum.accumulate(edges, out=edges)
    return edges, out


class _Cells:
    """values[searchsorted(edges, key, side="right")] for keys in
    [0, span), read from a table of cells 1/per_unit wide. A cell that an
    edge lies in holds −1, and its keys are searched. per_unit is a power
    of two, so scaling keys and edges by it is exact, and a scaled key's
    integer part is its cell."""

    def __init__(
        self, edges: np.ndarray, values: np.ndarray, span: int, per_unit: int
    ):
        starts = np.arange(span * per_unit + 1, dtype=float)
        self.edges = edges * per_unit
        self.values = values
        self.scale = float(per_unit)
        at = np.searchsorted(self.edges, starts, side="right")
        self.table = values[at[:-1]]
        self.table[at[:-1] != np.searchsorted(self.edges, starts[1:], side="left")] = -1

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        """The values of keys, which are scaled in place."""
        keys *= self.scale
        out = self.table[keys.astype(np.intp)]
        loose = np.flatnonzero(out == -1)
        out[loose] = self.values[np.searchsorted(self.edges, keys[loose], side="right")]
        return out


class _Uniforms:
    """The two-label chunks of a plan that queries one model of two or
    three symbols, decided from the chunk's uniforms with no counts drawn.

    Two symbols: numpy's binomial(r, p₀) draws the first count from one
    uniform (_ladders), the draw path's Δ is linear in it, and the kind
    of each count is fixed; so a trial's kind is that of the region of
    _cuts its uniform falls in. Three symbols: multinomial(r, p) draws x₀
    so from one uniform and, unless x₀ = r, x₁ from binomial(r − x₀,
    p₁ / (1 − p₀)) on the next (_trials finds where each trial starts).
    The first uniform gives the offset 2·X₀ where it lies clear of the
    first ladder's sums, and the key offset + u₂ falls in the regions of
    the second ladder of X₀; an unclear first uniform gives an offset
    past every ladder, where all keys redraw. A chunk with a key in a
    _REDRAW region, or a plan whose draws take BTPE, goes to the draw
    path."""

    # the cells of a table, over all its units of key: a few percent of
    # the keys land in a cell with an edge
    CELLS = 4096

    def __init__(self, edges, kinds, span, offsets=None, one=None):
        per_unit = 1 << max(4, (self.CELLS // span).bit_length() - 1)
        self.kind = _Cells(edges, kinds, span, per_unit)
        # three symbols: the first uniform's offsets, and (flip, cut)
        # where x₀ = r: u ≤ cut if flip, else u > cut
        self.offsets = offsets
        self.one = one

    @classmethod
    def build(
        cls, r: int, p: np.ndarray, kinds_of: Callable[[np.ndarray], np.ndarray]
    ) -> "_Uniforms | None":
        """The chunks of r queries of a model with symbol probabilities p,
        whose profiles (..., len(p)) kinds_of sorts into kinds; None where
        numpy draws them by BTPE."""
        ladder = _ladders(np.array([r]), float(p[0]))
        if ladder is None:
            return None
        flip, sums, bounds = ladder
        b = int(bounds[0])
        draws = np.arange(b + 1)
        x0 = r - draws if flip else draws
        clear = _clearance(bounds)
        if len(p) == 2:
            kinds = kinds_of(np.stack([x0, r - x0], axis=1).astype(float))
            return cls(*_cuts(sums, bounds, kinds[None, :], clear, np.zeros(1)), 1)
        # the multinomial's second binomial, p₁ over what p₀ leaves
        rest = r - x0
        second = _ladders(np.maximum(rest, 1), float(p[1]) / (1.0 - float(p[0])))
        if second is None:
            return None
        flip1, sums1, bounds1 = second
        draws1 = np.arange(sums1.shape[1])
        x1 = rest[:, None] - draws1 if flip1 else np.broadcast_to(draws1, sums1.shape)
        counts = np.stack(
            np.broadcast_arrays(x0[:, None], x1, rest[:, None] - x1), axis=-1
        )
        kinds = kinds_of(counts.astype(float))
        # x₀ = r draws no second uniform: the kind of (r, 0, 0) for every
        # key of its row, past which (1.25 − clear) its keys redraw
        done = rest == 0
        kinds[done] = kinds[done, :1]
        bounds1[done] = 0
        sums1[done, 0] = 1.25
        # the first uniform's regions: X₀ clear of the sums, between
        # guards and past the bound's guard
        edges = np.empty(2 * b + 1)
        edges[0::2] = sums[0] - clear[0]
        edges[1::2] = sums[0, :-1] + clear[0]
        np.maximum.accumulate(edges, out=edges)
        offset = np.full(2 * b + 2, 2.0 * b + 2.0)
        offset[0::2] = 2.0 * draws
        one = None
        if flip:
            one = (True, sums[0, 0])
        elif b == r:
            one = (False, sums[0, r - 1])
        cuts = _cuts(sums1, bounds1, kinds, _clearance(bounds1), 2.0 * draws)
        offsets = _Cells(edges, offset, 1, cls.CELLS)
        return cls(*cuts, 2 * b + 4, offsets=offsets, one=one)

    def errors(self, key: np.ndarray, n: int) -> int | None:
        """The wrong trials of the chunk of n trials drawn from Philox key,
        or None for the draw path to decide."""
        rng = np.random.Generator(np.random.Philox(key=key))
        if self.offsets is None:
            keys = rng.random(n)
        else:
            first, keys = self._trials(rng.random(2 * n), n)
            keys += self.offsets(first)
        kinds = self.kind(keys)
        if (kinds == _REDRAW).any():
            return None
        return int(np.count_nonzero(kinds == _WRONG))

    def _trials(self, u: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The first and next uniform of each of the n trials of a
        three-symbol chunk whose uniforms are u (2n of them).

        A trial takes one uniform where it draws x₀ = r, and two
        otherwise, so each position of u either starts a trial or is the
        second uniform of the trial before it. Position i + 1 is a second
        uniform when position i starts a two-uniform trial, which holds
        for the even steps of a run of positions that would take two:
        so when the run holding i began at a position of the other parity
        than i + 1. A position the trials skip has no say, so only the
        starts' uniforms need be clear of the cut (a redraw region
        otherwise)."""
        if self.one is not None:
            flip, cut = self.one
            two = u > cut if flip else u <= cut
        if self.one is None or two.all():
            return u[0::2], u[1::2]
        heads = np.flatnonzero(two[1:] > two[:-1]) + 1
        if two[0]:
            heads = np.concatenate(([0], heads))
        # the parity of the last run's first position, at every position
        odd = heads & 1
        switch = np.empty(len(heads), dtype=bool)
        switch[:1] = odd[:1]
        np.not_equal(odd[1:], odd[:-1], out=switch[1:])
        last = np.zeros(len(u), dtype=bool)
        last[heads[switch]] = True
        np.logical_xor.accumulate(last, out=last)
        # now whether that parity differs from the next position's
        np.logical_not(last[0::2], out=last[0::2])
        start = np.empty(len(u), dtype=bool)
        start[0] = True
        np.logical_and(two[:-1], last[:-1], out=start[1:])
        np.logical_not(start[1:], out=start[1:])
        # the n-th start lies within two positions of each start missing
        # from the first n positions
        end = 3 * n - 2 * int(np.count_nonzero(start[:n]))
        starts = np.flatnonzero(start[:end])[:n]
        return u[starts], u[1:][starts]
