"""Monte Carlo estimation of statewise MAP error.

Trials are generated in fixed-size chunks, each from a Philox stream keyed
by (seed, chunk index), so results are reproducible for a given seed and
independent of how many chunks the trial count splits into. Within a chunk
everything is vectorized: multinomial draws per model, posterior scores,
and the MAP rule's error mask, shared with exact enumeration.

With two labels a chunk decides by the score difference Δ = s₁ − s₀
alone: each trial's Δ is the prior gap plus, per model, its counts times
the model's per-symbol differences log p(x|1) − log p(x|0), and a trial
is wrong on its label's side of likelihood._delta_threshold. A model of
two symbols draws its first symbol's count with rng.binomial(r, p₀),
which numpy's multinomial draws for two categories from the same stream,
so the trials are the score path's. If any trial's Δ lies within
likelihood._delta_margin of the threshold, the chunk is drawn again from
its own key by the score path, which then decides it; the error count is
the score path's either way.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .instances import Instance, ModelSpec, QueryPlan, as_plan
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
    """Estimates the statewise MAP error for label y over repeated trials."""
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
    """The two-label chunks, decided by Δ: per model its query count, the
    probability of its first symbol under the true label and its
    per-symbol differences of log-likelihood."""

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

    def errors(self, key: np.ndarray, n: int) -> int | None:
        """The wrong trials among the chunk of n trials drawn from Philox
        key, or None if some trial's Δ lies within the margin of the
        threshold."""
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
