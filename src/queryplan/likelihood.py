"""Posterior scores, MAP decisions, and observation sampling.

Observations from repeated queries are exchangeable given the label, so the
per-model response counts are a sufficient statistic. All scoring works on
count vectors; raw response sequences never need to be materialized.

One MAP rule, _map_rule, decides for map_estimate and for the error mask
that exact enumeration and Monte Carlo share: scores within SCORE_TOL of
the maximum are tied, and the first tied label is the decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .instances import Instance, QueryPlan, as_plan, require_finite

# Posterior log-scores within this absolute tolerance of the maximum are
# treated as tied; keeps decisions stable under floating-point noise.
SCORE_TOL = 1e-12

# Returned by map_estimate under the count-tie-as-error policy when several
# labels share the top score.
TIE = "<tie>"

TIE_POLICIES = ("lowest-index", "count-tie-as-error")


@dataclass(frozen=True)
class ObservationSet:
    """Per-model response counts; ``counts[m][j]`` is how often model m
    returned its j-th alphabet symbol."""

    counts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        counts = tuple(np.asarray(c, dtype=np.int64) for c in self.counts)
        for c in counts:
            if c.ndim != 1 or np.any(c < 0):
                raise ValueError("counts must be 1-d and nonnegative")
            c.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(sum(int(c.sum()) for c in self.counts))

    @classmethod
    def empty(cls, instance: Instance) -> "ObservationSet":
        return cls(tuple(np.zeros(m.n_symbols, dtype=np.int64) for m in instance.models))

    @classmethod
    def from_mapping(
        cls, instance: Instance, responses: Mapping[str, Mapping[str, int]]
    ) -> "ObservationSet":
        """Builds counts from ``{model name: {symbol: count}}``."""
        unknown = set(responses) - {m.name for m in instance.models}
        if unknown:
            raise ValueError(f"unknown models in observations: {sorted(unknown)}")
        counts = []
        for m in instance.models:
            c = np.zeros(m.n_symbols, dtype=np.int64)
            for sym, k in responses.get(m.name, {}).items():
                c[m.symbol_index(sym)] += int(k)
            counts.append(c)
        return cls(tuple(counts))

    def to_mapping(self, instance: Instance) -> dict:
        out: dict = {}
        for m, c in zip(instance.models, self.counts):
            nz = {m.alphabet[j]: int(k) for j, k in enumerate(c) if k}
            if nz:
                out[m.name] = nz
        return out


def check_observations(instance: Instance, obs: ObservationSet) -> None:
    if len(obs.counts) != instance.n_models:
        raise ValueError(
            f"observations cover {len(obs.counts)} models, instance has "
            f"{instance.n_models}"
        )
    for m, c in zip(instance.models, obs.counts):
        if c.shape != (m.n_symbols,):
            raise ValueError(
                f"model {m.name!r}: counts have shape {c.shape}, expected "
                f"({m.n_symbols},)"
            )


def log_posterior_scores(instance: Instance, obs: ObservationSet) -> np.ndarray:
    """Unnormalized log-posterior of each label given the observed counts.

    score(y) = log prior(y) + sum over models and symbols of
    count * log p(symbol | y). Differences of scores are exact
    log-posterior-odds; the common normalizer is irrelevant for MAP.
    map_estimate and delta score through here, so all three raise
    ValueError on non-finite input (see require_finite).
    """
    require_finite(instance)
    check_observations(instance, obs)
    scores = instance.log_prior.copy()
    for m, c in zip(instance.models, obs.counts):
        if c.any():
            scores = scores + m.log_conditional @ c.astype(float)
    return scores


def map_estimate(
    instance: Instance, obs: ObservationSet, tie_policy: str = "lowest-index"
) -> str:
    """MAP label for the observations.

    Scores within SCORE_TOL of the maximum are tied. Under "lowest-index"
    the tied label earliest in instance label order wins; under
    "count-tie-as-error" any tie returns the TIE sentinel.
    """
    if tie_policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie_policy!r}")
    predicted, tied = _map_rule(log_posterior_scores(instance, obs)[None, :])
    if tie_policy == "count-tie-as-error" and tied.sum() > 1:
        return TIE
    return instance.labels[int(predicted[0])]


def _map_rule(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The MAP rule for every row of scores (n, L): (predicted, tied), the
    first label within SCORE_TOL of the row's maximum and the mask of all
    such labels."""
    top = scores.max(axis=1)
    tied = scores >= (top - SCORE_TOL)[:, None]
    return tied.argmax(axis=1), tied


def _error_mask(tie_policy: str) -> Callable[[np.ndarray, int], np.ndarray]:
    """Checks tie_policy and returns map_estimate's error mask under it:
    given scores (n, L) and the true label's index, true for each wrong row."""
    if tie_policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie_policy!r}")

    def wrong(scores: np.ndarray, yi: int) -> np.ndarray:
        predicted, tied = _map_rule(scores)
        if tie_policy == "lowest-index":
            return predicted != yi
        return (predicted != yi) | (tied.sum(axis=1) > 1)

    return wrong


def delta(
    instance: Instance, obs: ObservationSet, y: int | str, y_other: int | str
) -> float:
    """Log-posterior difference score(y_other) - score(y).

    The decision boundary between the two labels: nonnegative delta means
    y_other is at least as likely as y given the observations. Computed as a
    difference of scores so that delta(y, y') == -delta(y', y) exactly.
    """
    yi = instance.label_index(y)
    yj = instance.label_index(y_other)
    if yi == yj:
        raise ValueError("delta requires two distinct labels")
    scores = log_posterior_scores(instance, obs)
    return float(scores[yj] - scores[yi])


def sample_observations(
    instance: Instance,
    plan: QueryPlan | Sequence[int],
    true_label: int | str,
    seed: int,
) -> ObservationSet:
    """Draws one observation set for the plan under the given true label."""
    plan = as_plan(plan, instance)
    yi = instance.label_index(true_label)
    rng = np.random.default_rng(seed)
    counts = []
    for m, r in zip(instance.models, plan.counts):
        if r:
            counts.append(rng.multinomial(r, m.conditional[yi]).astype(np.int64))
        else:
            counts.append(np.zeros(m.n_symbols, dtype=np.int64))
    return ObservationSet(tuple(counts))
