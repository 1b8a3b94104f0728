from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from queryplan.exact import exact_error
from queryplan.setcover import (
    SetCoverInstance,
    load_setcover,
    min_cover,
    random_setcover,
    reduce,
    verify_equivalence,
)

EPS = 0.2


def test_setcover_validation():
    with pytest.raises(ValueError, match="universe"):
        SetCoverInstance(n=0, sets=(frozenset({1}),), weights=(1.0,))
    with pytest.raises(ValueError, match="one weight per set"):
        SetCoverInstance(n=2, sets=(frozenset({1}),), weights=(1.0, 2.0))
    with pytest.raises(ValueError, match="at least one set"):
        SetCoverInstance(n=2, sets=(), weights=())
    with pytest.raises(ValueError, match="empty"):
        SetCoverInstance(n=2, sets=(frozenset(),), weights=(1.0,))
    with pytest.raises(ValueError, match="outside"):
        SetCoverInstance(n=2, sets=(frozenset({1, 5}),), weights=(1.0,))
    with pytest.raises(ValueError, match="positive"):
        SetCoverInstance(n=2, sets=(frozenset({1, 2}),), weights=(0.0,))


@pytest.mark.parametrize("elements", [{0, 1}, {-3, 2}, {2, 3}, {1, 10**30}])
def test_setcover_names_the_set_with_elements_outside_the_universe(elements):
    sets = (frozenset({1, 2}), frozenset(elements))
    with pytest.raises(ValueError, match="^set 1 has elements outside the universe$"):
        SetCoverInstance(n=2, sets=sets, weights=(1.0, 1.0))


def test_setcover_checks_a_large_universe_in_constant_memory():
    # the universe is never built: a set's elements are checked by their
    # range, and a cover by the size of the union
    n = 10**6
    tracemalloc.start()
    try:
        sc = SetCoverInstance(n=n, sets=(frozenset({1, n}),), weights=(1.0,))
        covered = sc.covers((0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert not covered
    with pytest.raises(ValueError, match="^set 0 has elements outside the universe$"):
        SetCoverInstance(n=n, sets=(frozenset({1, n + 1}),), weights=(1.0,))


def test_setcover_names_an_integer_too_large_for_a_float(sc3):
    weights = (10**400,) + sc3.weights[1:]
    with pytest.raises(ValueError, match=r"too large for a float in weights\[0\]"):
        SetCoverInstance(n=sc3.n, sets=sc3.sets, weights=weights)
    with pytest.raises(ValueError, match="too large for a float in budget"):
        SetCoverInstance(n=sc3.n, sets=sc3.sets, weights=sc3.weights, budget=10**400)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_setcover_rejects_non_finite_numbers(sc3, value):
    weights = (value,) + sc3.weights[1:]
    with pytest.raises(ValueError, match=r"weights\[0\] must be finite"):
        SetCoverInstance(n=sc3.n, sets=sc3.sets, weights=weights)
    with pytest.raises(ValueError, match="budget must be finite"):
        SetCoverInstance(n=sc3.n, sets=sc3.sets, weights=sc3.weights, budget=value)
    with pytest.raises(ValueError, match="delta_prime must be finite"):
        reduce(sc3, EPS, delta_prime=value)


def test_covers(sc3):
    assert sc3.covers((2,))
    assert sc3.covers((0, 1))
    assert not sc3.covers((0,))
    assert not sc3.covers(())


def test_load_round_trip(sc3, tmp_path):
    data = sc3.to_dict()
    assert "budget" not in data
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(data))
    loaded = load_setcover(str(path))
    assert loaded == sc3

    budgeted = SetCoverInstance(n=sc3.n, sets=sc3.sets, weights=sc3.weights, budget=4.0)
    path.write_text(json.dumps(budgeted.to_dict()))
    assert load_setcover(str(path)).budget == 4.0


def test_min_cover(sc3):
    assert min_cover(sc3) == (3.0, (2,))
    # equal-weight ties prefer the lexicographically smallest index tuple
    tied = SetCoverInstance(
        n=2,
        sets=(frozenset({1}), frozenset({2}), frozenset({1, 2}), frozenset({1, 2})),
        weights=(1.0, 1.0, 2.0, 2.0),
    )
    assert min_cover(tied) == (2.0, (0, 1))
    with pytest.raises(ValueError, match="do not cover"):
        min_cover(SetCoverInstance(n=2, sets=(frozenset({1}),), weights=(1.0,)))


def test_reduce_structure(sc3):
    red = reduce(sc3, EPS)
    inst = red.instance
    assert inst.labels == ("0", "1", "2", "3")
    assert np.allclose(inst.prior, [0.5, 1 / 6, 1 / 6, 1 / 6])
    assert np.allclose(inst.tolerances, [1.0 - 1e-3, 0.4, 0.4, 0.4])
    assert [m.name for m in inst.models] == ["pinpoint", "set1", "set2", "set3"]
    # pinpoint is a thousandth of the lightest set weight
    assert inst.models[0].cost == pytest.approx(0.002, rel=1e-12)
    assert inst.models[0].alphabet == ("e1", "e2", "e3")
    assert np.allclose(inst.models[0].conditional[0], 1 / 3)
    assert inst.models[0].conditional[1, 0] == pytest.approx(1.0 - 2e-9)
    assert inst.models[0].conditional[1, 1] == pytest.approx(1e-9)
    # set1 = {1, 2}: leans "in" on covered labels, fair coin elsewhere
    assert inst.models[1].conditional[1].tolist() == [0.8, 0.2]
    assert inst.models[1].conditional[3].tolist() == [0.5, 0.5]
    assert red.metadata["universe"] == 3
    assert red.metadata["set_models"] == ["set1", "set2", "set3"]
    assert "instance" in red.to_dict()


def test_reduce_respects_budget(sc3):
    budgeted = SetCoverInstance(n=sc3.n, sets=sc3.sets, weights=sc3.weights, budget=4.0)
    red = reduce(budgeted, EPS)
    assert red.metadata["budget"] == 4.0
    assert red.metadata["translated_budget"] == pytest.approx(4.002)


def test_reduce_domain_errors(sc3):
    for eps in (0.0, 0.25, 0.3):
        with pytest.raises(ValueError, match="epsilon"):
            reduce(sc3, eps)
    with pytest.raises(ValueError, match="at least 2"):
        reduce(SetCoverInstance(n=1, sets=(frozenset({1}),), weights=(1.0,)), EPS)
    with pytest.raises(ValueError, match="delta_dprime"):
        reduce(sc3, EPS, delta_dprime=1.0)
    with pytest.raises(ValueError, match="eta"):
        reduce(sc3, EPS, eta=0.5)
    with pytest.raises(ValueError, match="delta_prime"):
        reduce(sc3, EPS, delta_prime=-1.0)


def test_single_cover_error_is_epsilon(sc3):
    # pinpoint once plus the big set: every element is covered exactly once,
    # so each errs exactly when its one covering query answers "out"
    inst = reduce(sc3, EPS).instance
    plan = (1, 0, 0, 1)
    for label in ("1", "2", "3"):
        for policy in ("lowest-index", "count-tie-as-error"):
            err = exact_error(inst, plan, label, policy)
            assert err == pytest.approx(EPS, abs=1e-6)


def test_multi_cover_errors(sc3):
    # querying all three sets covers e1 and e3 twice and e2 three times;
    # an "out" (log-odds log 0.4) outweighs one "in" (log 1.6) but not two
    inst = reduce(sc3, EPS).instance
    plan = (1, 1, 1, 1)
    expected = {
        "1": 1.0 - 0.8**2,  # any "out" among two covers errs
        "2": 3 * 0.8 * 0.2**2 + 0.2**3,  # two "out"s needed among three
        "3": 1.0 - 0.8**2,
    }
    for label, err in expected.items():
        assert exact_error(inst, plan, label) == pytest.approx(err, abs=1e-6)
        assert err <= 2 * EPS
    assert exact_error(inst, plan, "0") <= 1.0 - 1e-3


def test_uncovered_element_errs_with_certainty(sc3):
    # set1 = {1, 2} leaves element 3 uncovered: its scores tie with the
    # null on every set response and the tie resolves to the null label
    inst = reduce(sc3, EPS).instance
    plan = (1, 1, 0, 0)
    for policy in ("lowest-index", "count-tie-as-error"):
        assert exact_error(inst, plan, "3", policy) >= 1.0 - 1e-6
    assert exact_error(inst, plan, "1") == pytest.approx(EPS, abs=1e-6)


def test_verify_equivalence_holds_at_safe_epsilon(sc3):
    result = verify_equivalence(sc3, EPS)
    assert result["equivalent"]
    assert result["mismatches"] == []
    assert result["plans_checked"] == 8
    assert result["min_cover_weight"] == 3.0
    assert result["min_cover_sets"] == [2]
    assert result["family_opt_plan"] == [1, 0, 0, 1]
    assert result["family_opt_cost"] == pytest.approx(3.002, rel=1e-12)
    assert result["expected_opt_cost"] == pytest.approx(3.002, rel=1e-12)
    assert result["opt_match"]
    # repeating the near-free pinpoint model undercuts every covering plan
    assert result["unrestricted_opt_plan"] == [2, 0, 0, 0]
    assert result["unrestricted_opt_cost"] == pytest.approx(0.004, rel=1e-12)
    assert "pinpoint" in result["note"]


def test_verify_equivalence_detects_small_epsilon_breakdown(sc3):
    # at epsilon = 0.1 one "out" outvotes two "in"s, so the triply covered
    # element errs with probability 0.271 > 0.2 under the all-sets plan
    result = verify_equivalence(sc3, 0.1)
    assert not result["equivalent"]
    assert [m["plan"] for m in result["mismatches"]] == [[1, 1, 1, 1]]
    assert result["mismatches"][0]["covers"] is True
    assert result["mismatches"][0]["feasible"] is False
    inst = reduce(sc3, 0.1).instance
    assert exact_error(inst, (1, 1, 1, 1), "2") == pytest.approx(0.271, abs=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_setcover_properties(seed):
    rng = np.random.default_rng(seed)
    sc = random_setcover(rng)
    assert 2 <= sc.n <= 4
    assert 1 <= sc.n_sets <= 4
    assert sc.covers(range(sc.n_sets))
    assert all(1.0 <= w <= 5.0 for w in sc.weights)
    again = random_setcover(np.random.default_rng(seed))
    assert again == sc
