from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from queryplan.experiments import random_instance
from queryplan.likelihood import (
    TIE,
    TIE_POLICIES,
    ObservationSet,
    _error_mask,
    check_observations,
    delta,
    log_posterior_scores,
    map_estimate,
    sample_observations,
)


def obs_ab(instance, a: int, b: int) -> ObservationSet:
    return ObservationSet.from_mapping(instance, {"bsc": {"a": a, "b": b}})


def test_observation_set_basics(bsc):
    obs = obs_ab(bsc, 4, 2)
    assert obs.total == 6
    assert obs.to_mapping(bsc) == {"bsc": {"a": 4, "b": 2}}
    empty = ObservationSet.empty(bsc)
    assert empty.total == 0
    assert empty.to_mapping(bsc) == {}
    check_observations(bsc, obs)


def test_observation_set_rejects_bad_counts(bsc):
    with pytest.raises(ValueError):
        ObservationSet((np.array([1, -1]),))
    with pytest.raises(ValueError):
        ObservationSet((np.array([[1, 2]]),))
    with pytest.raises(ValueError, match="unknown models"):
        ObservationSet.from_mapping(bsc, {"nope": {"a": 1}})
    with pytest.raises(ValueError, match="cover"):
        check_observations(bsc, ObservationSet((np.zeros(2, dtype=int),) * 2))
    with pytest.raises(ValueError, match="shape"):
        check_observations(bsc, ObservationSet((np.zeros(3, dtype=int),)))


def test_log_posterior_scores_hand_value(bsc):
    obs = obs_ab(bsc, 4, 2)
    scores = log_posterior_scores(bsc, obs)
    expected_1 = math.log(0.5) + 4 * math.log(0.9) + 2 * math.log(0.1)
    expected_2 = math.log(0.5) + 4 * math.log(0.1) + 2 * math.log(0.9)
    assert scores[0] == pytest.approx(expected_1, abs=1e-12)
    assert scores[1] == pytest.approx(expected_2, abs=1e-12)


def test_map_estimate_and_ties(bsc):
    assert map_estimate(bsc, obs_ab(bsc, 4, 2)) == "1"
    assert map_estimate(bsc, obs_ab(bsc, 2, 4)) == "2"
    # balanced counts under a uniform prior tie exactly
    assert map_estimate(bsc, obs_ab(bsc, 3, 3), "lowest-index") == "1"
    assert map_estimate(bsc, obs_ab(bsc, 3, 3), "count-tie-as-error") == TIE
    with pytest.raises(ValueError, match="tie policy"):
        map_estimate(bsc, obs_ab(bsc, 3, 3), "coin-flip")


def test_empty_observations_fall_back_to_prior(bsc, asym):
    assert map_estimate(bsc, ObservationSet.empty(bsc), "count-tie-as-error") == TIE
    assert map_estimate(asym, ObservationSet.empty(asym)) == "1"
    assert delta(asym, ObservationSet.empty(asym), "1", "2") == pytest.approx(
        math.log(0.1) - math.log(0.9), abs=1e-12
    )


def assert_one_map_rule(instance, obs):
    """map_estimate and the error mask exact enumeration and Monte Carlo
    use decide alike; a TIE is wrong for every label."""
    scores = log_posterior_scores(instance, obs)[None, :]
    for policy in TIE_POLICIES:
        label = map_estimate(instance, obs, policy)
        wrong = _error_mask(policy)
        for yi, y in enumerate(instance.labels):
            assert bool(wrong(scores, yi)[0]) == (label != y)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_labels=st.integers(2, 4), data=st.data())
def test_map_estimate_matches_error_mask(seed, n_labels, data):
    inst = random_instance(np.random.default_rng(seed), n_labels=n_labels)
    counts = tuple(
        np.array(data.draw(st.lists(st.integers(0, 6), min_size=k, max_size=k)))
        for k in (m.n_symbols for m in inst.models)
    )
    assert_one_map_rule(inst, ObservationSet(counts))


def test_map_estimate_matches_error_mask_on_tie(bsc):
    assert_one_map_rule(bsc, obs_ab(bsc, 3, 3))


def test_delta_hand_value_and_errors(bsc):
    obs = obs_ab(bsc, 4, 2)
    assert delta(bsc, obs, "1", "2") == pytest.approx(-2 * math.log(9.0), abs=1e-12)
    with pytest.raises(ValueError, match="distinct"):
        delta(bsc, obs, "1", "1")


# the instance fixture is immutable, so sharing it across examples is fine
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(a=st.integers(0, 20), b=st.integers(0, 20))
def test_delta_is_antisymmetric(bsc, a, b):
    obs = obs_ab(bsc, a, b)
    assert delta(bsc, obs, "1", "2") == -delta(bsc, obs, "2", "1")


def test_sample_observations_deterministic(bsc):
    first = sample_observations(bsc, (200,), "1", seed=7)
    second = sample_observations(bsc, (200,), "1", seed=7)
    other = sample_observations(bsc, (200,), "1", seed=8)
    assert np.array_equal(first.counts[0], second.counts[0])
    assert not np.array_equal(first.counts[0], other.counts[0])


def test_sample_observations_totals_match_plan(duo):
    obs = sample_observations(duo, (5, 3), "2", seed=0)
    assert [int(c.sum()) for c in obs.counts] == [5, 3]
    empty = sample_observations(duo, (0, 0), "2", seed=0)
    assert empty.total == 0
