"""Reference for simulate.simulate_error: every chunk by posterior scores.

This is the chunk loop simulate_error ran for every label count before it
decided two-label chunks by the score difference: per chunk, multinomial
draws per model from the chunk's Philox stream, posterior scores and the
MAP rule's error mask. The tests require simulate_error to return the same
McEstimate, field for field.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from queryplan.instances import Instance, QueryPlan, as_plan
from queryplan.likelihood import _error_mask
from queryplan.simulate import CHUNK_TRIALS, McEstimate, wilson_interval


def reference_simulate_error(
    instance: Instance,
    plan: QueryPlan | Sequence[int],
    y: int | str,
    trials: int,
    seed: int,
    tie_policy: str = "lowest-index",
) -> McEstimate:
    """simulate_error with every chunk decided by the scores."""
    wrong = _error_mask(tie_policy)
    plan = as_plan(plan, instance)
    yi = instance.label_index(y)
    active = [(m, r) for m, r in zip(instance.models, plan.counts) if r > 0]
    errors = 0
    done = 0
    index = 0
    while done < trials:
        n = min(CHUNK_TRIALS, trials - done)
        key = np.array([seed, index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        scores = None
        for m, r in active:
            counts = rng.multinomial(r, m.conditional[yi], size=n)
            loglik = counts.astype(float) @ m.log_conditional.T
            if scores is None:
                scores = loglik
                scores += instance.log_prior
            else:
                scores += loglik
        if scores is None:
            scores = np.broadcast_to(instance.log_prior, (n, instance.n_labels))
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
