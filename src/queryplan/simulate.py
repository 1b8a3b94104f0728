"""Monte Carlo estimation of statewise MAP error.

Trials are generated in fixed-size chunks, each from a Philox stream keyed
by (seed, chunk index), so results are reproducible for a given seed and
independent of how many chunks the trial count splits into. Within a chunk
everything is vectorized: multinomial draws per model, posterior scores,
and the MAP rule's error mask, shared with exact enumeration.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .instances import Instance, QueryPlan, as_plan, require_finite
from .likelihood import _error_mask

# Two-sided 95% normal quantile used for the Wilson interval.
WILSON_Z = 1.959963984540054

CHUNK_TRIALS = 100_000


def wilson_interval(errors: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; always contains the
    point estimate errors/trials."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = errors / trials
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
    Raises ValueError on non-finite input (see require_finite)."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= seed < 2**64:
        # Philox keys are unsigned 64-bit words
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    wrong = _error_mask(tie_policy)
    require_finite(instance)
    plan = as_plan(plan, instance)
    yi = instance.label_index(y)
    active = [(m, r) for m, r in zip(instance.models, plan.counts) if r > 0]
    errors = 0
    done = 0
    index = 0
    while done < trials:
        n = min(CHUNK_TRIALS, trials - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, index]))
        scores = np.broadcast_to(instance.log_prior, (n, instance.n_labels)).copy()
        for m, r in active:
            counts = rng.multinomial(r, m.conditional[yi], size=n)
            scores += counts.astype(float) @ m.log_conditional.T
        errors += int(wrong(scores, yi).sum())
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
