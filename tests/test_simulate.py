from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import near_threshold_instance, symmetric_instance, two_label_plans
from queryplan.exact import exact_error
from queryplan.instances import QueryPlan
from queryplan.likelihood import TIE_POLICIES, _delta_margin, _log_scale
from queryplan.simulate import (
    CHUNK_TRIALS,
    WILSON_Z,
    _DeltaChunks,
    simulate_error,
    wilson_interval,
)
from reference_simulate import reference_simulate_error


def test_wilson_interval_endpoints():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0
    assert hi > 0.0
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0
    assert lo < 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_wilson_interval_matches_quadratic_roots():
    # the interval endpoints solve (p - phat)^2 = z^2 p (1 - p) / n
    errors, n = 5, 100
    phat = errors / n
    z2 = WILSON_Z**2
    a = 1.0 + z2 / n
    b = -(2.0 * phat + z2 / n)
    c = phat * phat
    disc = math.sqrt(b * b - 4.0 * a * c)
    lo_ref = (-b - disc) / (2.0 * a)
    hi_ref = (-b + disc) / (2.0 * a)
    lo, hi = wilson_interval(errors, n)
    assert lo == pytest.approx(lo_ref, abs=1e-12)
    assert hi == pytest.approx(hi_ref, abs=1e-12)


def test_interval_contains_point_estimate(bsc):
    est = simulate_error(bsc, (2,), "1", trials=1000, seed=0)
    assert est.ci_low <= est.estimate <= est.ci_high
    assert est.errors == round(est.estimate * est.trials)
    d = est.to_dict()
    assert d["trials"] == 1000
    assert d["seed"] == 0
    assert d["tie_policy"] == "lowest-index"


def test_simulation_is_deterministic(bsc):
    a = simulate_error(bsc, (6,), "1", trials=50_000, seed=5)
    b = simulate_error(bsc, (6,), "1", trials=50_000, seed=5)
    c = simulate_error(bsc, (6,), "1", trials=50_000, seed=6)
    assert a == b
    assert (a.errors, a.estimate) != (c.errors, c.estimate)


def test_estimate_agrees_with_exact_error(bsc):
    exact = exact_error(bsc, (6,), "1")
    est = simulate_error(bsc, (6,), "1", trials=200_000, seed=123)
    se = math.sqrt(exact * (1.0 - exact) / est.trials)
    assert abs(est.estimate - exact) <= 4.0 * se


@pytest.mark.parametrize(
    "policy,label",
    [
        ("lowest-index", "1"),
        ("lowest-index", "2"),
        ("count-tie-as-error", "1"),
    ],
)
def test_tie_policies_match_exact(bsc, policy, label):
    # the 1-1 tie row makes the two policies differ for label 1
    exact = exact_error(bsc, (2,), label, tie_policy=policy)
    est = simulate_error(bsc, (2,), label, trials=100_000, seed=3, tie_policy=policy)
    se = math.sqrt(exact * (1.0 - exact) / est.trials)
    assert abs(est.estimate - exact) <= 4.0 * se


def test_argument_validation(bsc):
    with pytest.raises(ValueError, match="trials"):
        simulate_error(bsc, (2,), "1", trials=0, seed=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            simulate_error(bsc, (2,), "1", trials=10, seed=seed)
    with pytest.raises(ValueError, match="tie policy"):
        simulate_error(bsc, (2,), "1", trials=10, seed=0, tie_policy="flip")


@settings(max_examples=60, deadline=None)
@given(
    case=two_label_plans(),
    yi=st.integers(0, 1),
    trials=st.integers(1, 3000),
    seed=st.integers(0, 2**64 - 1),
    policy=st.sampled_from(TIE_POLICIES),
)
# exact ties: the profile (1, 1) has Δ = 0, decided by Δ
@example(
    case=(symmetric_instance([0.9]), QueryPlan((2,))),
    yi=0,
    trials=2000,
    seed=3,
    policy="count-tie-as-error",
)
# Δ at the threshold: every chunk falls back to the scores
@example(
    case=(near_threshold_instance(), QueryPlan((2,))),
    yi=1,
    trials=2000,
    seed=3,
    policy="lowest-index",
)
# three chunks, the last of one trial
@example(
    case=(symmetric_instance([0.75, 0.6]), QueryPlan((3, 4))),
    yi=0,
    trials=2 * CHUNK_TRIALS + 1,
    seed=11,
    policy="lowest-index",
)
def test_two_label_estimates_match_the_score_path(case, yi, trials, seed, policy):
    inst, plan = case
    got = simulate_error(inst, plan, yi, trials, seed, policy)
    assert got == reference_simulate_error(inst, plan, yi, trials, seed, policy)


@pytest.mark.parametrize("policy", TIE_POLICIES)
def test_chunks_fall_back_only_near_the_threshold(policy):
    # exact ties lie far from either threshold, a Δ at SCORE_TOL does not
    plan = (2,)
    for inst, falls_back in (
        (symmetric_instance([0.9]), False),
        (near_threshold_instance(), True),
    ):
        active = [(inst.models[0], 2)]
        margin = _delta_margin(inst, plan, _log_scale(inst, plan))
        chunks = _DeltaChunks(inst, active, 1, policy, margin)
        key = np.array([3, 0], dtype=np.uint64)
        assert (chunks.errors(key, 2000) is None) == falls_back


@pytest.mark.parametrize("r", [1, 2, 7, 29, 30, 31, 100, 1000, 10**6])
@pytest.mark.parametrize("p", [1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 1 - 1e-3])
def test_binomial_draws_are_the_two_symbol_multinomial(r, p):
    # simulate_error's Δ path draws a two-symbol model's counts with
    # binomial(r, p) where the score path calls multinomial(r, [p, 1 - p]);
    # both must consume the same stream alike, inversion (r·min(p, 1 - p)
    # < 30) and BTPE alike, or the estimates would part
    for key in ([0, 0], [7, 3], [2**64 - 1, 5]):
        key = np.array(key, dtype=np.uint64)
        a = np.random.Generator(np.random.Philox(key=key))
        b = np.random.Generator(np.random.Philox(key=key))
        first = a.binomial(r, p, size=500)
        counts = b.multinomial(r, [p, 1.0 - p], size=500)
        assert np.array_equal(first, counts[:, 0])
        assert np.array_equal(a.integers(2**62, size=4), b.integers(2**62, size=4))


def test_seeds_past_2_63_keep_their_low_bits():
    # Philox keys are two uint64 words: seeds past 2**63 that differ in
    # their lowest bit draw different streams (through float64 they drew
    # one), and the largest seed draws without a warning about a cast
    inst = symmetric_instance([0.9])
    seeds = (2**64 - 1, 2**64 - 2, 2**63 + 1, 2**63 + 2)
    errors = [simulate_error(inst, (1,), 0, 20_000, s).errors for s in seeds]
    assert errors == [1994, 1990, 2032, 2054]
