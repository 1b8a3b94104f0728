from __future__ import annotations

import math

import pytest

from queryplan.exact import exact_error
from queryplan.simulate import WILSON_Z, simulate_error, wilson_interval


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
