"""Scalar tilt optimization: one golden section per pair, one pair after
another.

queryplan.bounds minimizes a check's pair objectives in lockstep lanes;
these are the one-pair-at-a-time routines it replaced, kept verbatim so the
tests can check that every lane returns the same tilt and value, bit for
bit.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from queryplan.bounds import GSS_TOL, PairTables

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _logsumexp(v: np.ndarray) -> np.ndarray:
    """log(sum(exp(v))) over the last axis."""
    top = v.max(axis=-1)
    return np.log(np.exp(v - top[..., None]).sum(axis=-1)) + top


def log_affinities(tables: PairTables, s: float) -> np.ndarray:
    """log M_m(s) for every model m, as a length-K vector."""
    return _logsumexp((1.0 - s) * tables.log_p + s * tables.log_q)


def proxy(tables: PairTables, counts: np.ndarray, s: float) -> float:
    """The pair's tilted proxy at s for float plan counts."""
    return s * tables.log_prior_ratio + float(counts @ log_affinities(tables, s))


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


def pair_tilt(tables: PairTables, counts: np.ndarray) -> tuple[float, float]:
    """A pair's optimal tilt and log proxy for float plan counts."""
    return _minimize_tilt(
        lambda s: proxy(tables, counts, s),
        tables.flat and tables.log_prior_ratio == 0.0,
    )


def pair_contraction(tables: PairTables) -> tuple[float, float]:
    """(s*, min_s sum_m log M_m(s)) for a pair queried once per model."""
    return _minimize_tilt(
        lambda s: float(log_affinities(tables, s).sum()), tables.flat
    )


def surrogate_error(instance, counts: np.ndarray, yi: int) -> float:
    """The fsum of label yi's pair proxies at their optimal tilts."""
    return math.fsum(
        math.exp(pair_tilt(PairTables(instance, yi, j), counts)[1])
        for j in range(instance.n_labels)
        if j != yi
    )
