"""Posterior scores and MAP decisions.

Observations from repeated queries are exchangeable given the label, so the
per-model response counts are a sufficient statistic. All scoring works on
count vectors; raw response sequences never need to be materialized.

One MAP rule, _map_rule, decides for map_estimate and for the error mask
that exact enumeration and Monte Carlo share: scores within SCORE_TOL of
the maximum are tied (_tied), and the first tied label is the decision.
The mask reads that decision from the tied labels alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .instances import Instance, _label_pair

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
    """
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
    such labels (_tied)."""
    tied = _tied(scores)
    return tied.argmax(axis=1), tied


def _tied(scores: np.ndarray) -> np.ndarray:
    """The mask of labels within SCORE_TOL of each row's maximum, for
    scores (n, L); a row of finite scores always has one."""
    # column by column: numpy's max(axis=1) over a few columns is slow
    top = functools.reduce(np.maximum, scores.T)
    return scores >= (top - SCORE_TOL)[:, None]


def _error_mask(tie_policy: str) -> Callable[[np.ndarray, int], np.ndarray]:
    """Checks tie_policy and returns map_estimate's error mask under it:
    given scores (n, L) and the true label's index, true for each wrong row.

    _map_rule decides for the first tied label, and every row has one, so
    the mask reads the tied columns alone: a row is wrong when the true
    label is not tied or when, under "lowest-index", an earlier label is,
    and under "count-tie-as-error", any other label is."""
    if tie_policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie_policy!r}")
    lowest = tie_policy == "lowest-index"

    def wrong(scores: np.ndarray, yi: int) -> np.ndarray:
        tied = _tied(scores)
        out = ~tied[:, yi]
        for j in range(yi if lowest else scores.shape[1]):
            if j != yi:
                out |= tied[:, j]
        return out

    return wrong


def _delta_threshold(tie_policy: str, yi: int) -> float:
    """With two labels, _error_mask's rule on the score difference
    Δ = s₁ − s₀: label 0 is wrong when Δ lies above the returned
    threshold, label 1 when Δ lies below it.

    _tied marks label 0 when Δ ≤ SCORE_TOL and label 1 when
    Δ ≥ −SCORE_TOL. So under "lowest-index" label 0 is wrong when
    Δ > SCORE_TOL and label 1 when Δ ≤ SCORE_TOL; under
    "count-tie-as-error" label 0 is wrong when Δ ≥ −SCORE_TOL, and label
    1 as before. A Δ at the threshold itself is for the scores to decide:
    callers decide by Δ only where it lies farther than _delta_margin
    from the threshold."""
    return -SCORE_TOL if tie_policy == "count-tie-as-error" and yi == 0 else SCORE_TOL


# The unit roundoff of float64.
_UNIT = 2.0**-53


def _gamma(n: int) -> float:
    """γ_n = n·u / (1 − n·u): a sum or dot product of n terms, computed in
    any order, is off by at most γ_n times the sum of its terms'
    magnitudes (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, §3.1 and §4.2), and γ_a + γ_b ≤ γ_{a+b}."""
    return n * _UNIT / (1.0 - n * _UNIT)


def _log_scale(instance: Instance, counts: Sequence[int]) -> float:
    """M = max |log prior| + Σ_m r_m · max |log p_m|, over the plan's
    models: a bound on every score, log-likelihood, log multinomial
    coefficient (at most r_m·log |X_m|, and some symbol has p ≤ 1/|X_m|)
    and partial sum of them that a profile of the plan takes; score
    differences are bounded by 2M. The maxima are taken once per Instance
    object."""
    prior, models = instance._shared(
        "log_maxima",
        lambda: (
            float(np.abs(instance.log_prior).max()),
            [float(np.abs(m.log_conditional).max()) for m in instance.models],
        ),
    )
    return prior + sum(r * a for r, a in zip(counts, models) if r)


def _delta_margin(instance: Instance, counts: Sequence[int], scale: float) -> float:
    """How far a profile's Δ must lie from a _delta_threshold for every
    way of computing it here to decide alike, given scale = _log_scale.

    With X the largest alphabet and K the number of queried models:
    - The scores' rule computes s_y as K dot products of counts with
      log p_m(·|y), of up to X terms each, plus the prior: off by at most
      γ_{X+K}·M each. It compares s₀ with fl(s₁ − SCORE_TOL) or the
      reverse, one more rounding of at most u·(M + SCORE_TOL). So it
      decides as the exact Δ does unless that lies within
      2γ_{X+K}·M + u·(M + 1) of the threshold.
    - A Δ path takes per-symbol or per-profile differences of
      log-likelihoods (one rounding each, of terms up to 2M in all),
      their dot products with counts (γ_X), a sum over the K models and
      the prior gap (K + 1 terms), and compares with the threshold less
      a partial sum (one more): off by at most γ_{X+K+3}·2M.
    Both together are below γ_{3X+3K+4}·(2M + 1); the margin takes
    γ_{4(X+K+2)}·(2M + 1). At M = 14.5 (six queries of a 0.9/0.1
    channel) it is 6.7e-14, far below SCORE_TOL, so the exact ties of
    symmetric channels, Δ = 0, are decided by Δ."""
    active = [m.n_symbols for m, r in zip(instance.models, counts) if r]
    width = max(active, default=1) + len(active) + 2
    return _gamma(4 * width) * (2.0 * scale + 1.0)


def delta(
    instance: Instance, obs: ObservationSet, y: int | str, y_other: int | str
) -> float:
    """Log-posterior difference score(y_other) - score(y).

    The decision boundary between the two labels: nonnegative delta means
    y_other is at least as likely as y given the observations. Computed as a
    difference of scores so that delta(y, y') == -delta(y', y) exactly.
    """
    yi, yj = _label_pair(instance, y, y_other)
    scores = log_posterior_scores(instance, obs)
    return float(scores[yj] - scores[yi])
