from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryplan.bounds import (
    affinity,
    instance_contraction,
    is_surrogate_feasible,
    log_affinity,
    max_pair_weights,
    optimize_tilt,
    pair_contraction,
    pairwise_proxy_log,
    surrogate_error,
    uniform_feasible_count,
)
from queryplan.exact import exact_error, exact_error_table, exact_opt, exact_pairwise
from queryplan.experiments import greedy_baseline
from queryplan.instances import (
    Instance,
    ModelSpec,
    QueryPlan,
    as_plan,
    calibrate,
    instance_from_dict,
    instance_to_dict,
    instance_to_json,
    load_instance,
    plan_cost,
    read_calibration_log,
    save_instance,
    validate,
)
from queryplan.likelihood import (
    ObservationSet,
    delta,
    log_posterior_scores,
    map_estimate,
)
from queryplan.planner import derive_constants, run_afptas
from queryplan.simulate import simulate_error


def test_label_and_model_indexing(bsc):
    assert bsc.label_index("2") == 1
    assert bsc.label_index(0) == 0
    assert bsc.model_index("bsc") == 0
    assert bsc.model_index(0) == 0
    with pytest.raises(ValueError):
        bsc.label_index("nope")
    with pytest.raises(ValueError):
        bsc.model_index("nope")
    with pytest.raises(ValueError):
        bsc.label_index(5)


def test_constructor_shape_checks():
    m = ModelSpec("m", ("a", "b"), np.array([[0.5, 0.5], [0.4, 0.6]]), 1.0)
    with pytest.raises(ValueError):
        Instance(("1",), np.array([1.0]), (m,), np.array([0.1]))  # 1 row vs 2
    with pytest.raises(ValueError):
        Instance(("1", "1"), np.array([0.5, 0.5]), (m,), np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        Instance(("1", "2"), np.array([0.5, 0.5]), (m, m), np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        ModelSpec("m", ("a",), np.array([[0.5, 0.5], [0.4, 0.6]]), 1.0)


def test_plan_cost_and_as_plan(duo):
    assert plan_cost(duo, (0, 3)) == pytest.approx(7.5, abs=1e-12)
    assert plan_cost(duo, QueryPlan((4, 1))) == pytest.approx(6.5, abs=1e-12)
    plan = as_plan([1, 2], duo)
    assert plan.counts == (1, 2)
    assert plan.total == 3
    with pytest.raises(ValueError):
        as_plan([1], duo)
    with pytest.raises(ValueError):
        as_plan([1, -2], duo)


@given(counts=st.lists(st.integers(0, 50), min_size=2, max_size=2))
def test_plan_cost_is_linear(counts):
    p = (2.0 + math.sqrt(3.0)) / 4.0
    inst = Instance(
        ("1", "2"),
        np.array([0.5, 0.5]),
        (
            ModelSpec("m1", ("a", "b"), np.array([[p, 1 - p], [1 - p, p]]), 1.5),
            ModelSpec("m2", ("a", "b"), np.array([[p, 1 - p], [1 - p, p]]), 0.25),
        ),
        np.array([0.1, 0.1]),
    )
    assert plan_cost(inst, counts) == pytest.approx(
        1.5 * counts[0] + 0.25 * counts[1], rel=1e-12
    )


def test_validate_accepts_reference_instance(bsc):
    result = validate(bsc)
    assert result.ok
    assert result.violations == ()
    assert result.to_dict() == {"ok": True, "violations": []}


def test_validate_reports_every_violation():
    inst = Instance(
        labels=("1", "2"),
        prior=np.array([0.7, 0.5]),  # sums to 1.2
        models=(
            ModelSpec("m", ("a", "a"), np.array([[0.9, 0.2], [0.1, 0.9]]), -1.0),
        ),
        tolerances=np.array([0.0, 1.5]),
    )
    result = validate(inst)
    assert not result.ok
    text = " ".join(result.violations)
    assert "prior sums to" in text
    assert "tolerance" in text
    assert "distinct" in text
    assert "sums to" in text
    assert "cost" in text


def test_validate_flags_indistinguishable_labels():
    rows = np.array([[0.5, 0.5], [0.5, 0.5]])
    inst = Instance(
        ("1", "2"),
        np.array([0.5, 0.5]),
        (ModelSpec("flat", ("a", "b"), rows, 1.0),),
        np.array([0.1, 0.1]),
    )
    result = validate(inst)
    assert not result.ok
    assert any("indistinguishable" in v for v in result.violations)


def test_validate_flags_nonpositive_entries():
    rows = np.array([[1.0, 0.0], [0.1, 0.9]])
    inst = Instance(
        ("1", "2"),
        np.array([0.5, 0.5]),
        (ModelSpec("m", ("a", "b"), rows, 1.0),),
        np.array([0.1, 0.1]),
    )
    result = validate(inst)
    assert any("positive" in v for v in result.violations)


def poisoned(inst: Instance, field: str, value: float) -> Instance:
    """The instance with one entry of prior, tolerances or the first
    model's conditional, or that model's cost, replaced by value."""
    prior, tol = inst.prior.copy(), inst.tolerances.copy()
    models = list(inst.models)
    if field == "prior":
        prior[0] = value
    elif field == "tolerances":
        tol[1] = value
    else:
        m = models[0]
        rows = m.conditional.copy()
        cost = value if field == "cost" else m.cost
        if field == "conditional":
            rows[1, 0] = value
        models[0] = ModelSpec(m.name, m.alphabet, rows, cost)
    return Instance(inst.labels, prior, tuple(models), tol)


NONFINITE_NAMES = {
    "prior": "prior",
    "tolerances": "tolerances",
    "conditional": "model 'bsc' conditional",
    "cost": "model 'bsc' cost",
}

# counts of the bsc model's two symbols
OBS = ObservationSet((np.array([3, 1]),))

SOLVERS = {
    "run_afptas": lambda inst: run_afptas(inst, 0.5),
    "exact_opt": lambda inst: exact_opt(inst, problem="surrogate"),
    "is_surrogate_feasible": lambda inst: is_surrogate_feasible(inst, (6,)),
    "surrogate_error": lambda inst: surrogate_error(inst, (6,), 0),
    "optimize_tilt": lambda inst: optimize_tilt(inst, (6,), 0, 1),
    "exact_error": lambda inst: exact_error(inst, (6,), 0),
    "exact_pairwise": lambda inst: exact_pairwise(inst, (6,), 0, 1),
    "exact_error_table": lambda inst: exact_error_table(inst, (6,)),
    "simulate_error": lambda inst: simulate_error(inst, (6,), 0, trials=10, seed=0),
    "log_posterior_scores": lambda inst: log_posterior_scores(inst, OBS),
    "map_estimate": lambda inst: map_estimate(inst, OBS),
    "delta": lambda inst: delta(inst, OBS, 0, 1),
    "derive_constants": lambda inst: derive_constants(inst, 0.5),
    "uniform_feasible_count": uniform_feasible_count,
    "greedy_baseline": greedy_baseline,
    "greedy_baseline_capped": lambda inst: greedy_baseline(inst, max_steps=5),
    "max_pair_weights": max_pair_weights,
    "pairwise_proxy_log": lambda inst: pairwise_proxy_log(inst, (6,), 0, 1, 0.5),
    "log_affinity": lambda inst: log_affinity(inst, 0, 0, 1, 0.5),
    "affinity": lambda inst: affinity(inst, 0, 0, 1, 0.5),
    "pair_contraction": lambda inst: pair_contraction(inst, 0, 1),
    "instance_contraction": instance_contraction,
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", sorted(NONFINITE_NAMES))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solvers_name_the_nonfinite_field(bsc, solver, field, value):
    with pytest.raises(ValueError, match=r"non-finite .* in " + NONFINITE_NAMES[field]):
        SOLVERS[solver](poisoned(bsc, field, value))


@pytest.mark.parametrize("value", [0.0, -0.1])
@pytest.mark.parametrize(
    "solver",
    [
        "derive_constants",
        "exact_opt",
        "greedy_baseline",
        "greedy_baseline_capped",
        "run_afptas",
        "uniform_feasible_count",
    ],
)
def test_solvers_reject_nonpositive_tolerance(bsc, solver, value):
    # no plan meets a zero tolerance, and the uniform count would take its log
    with pytest.raises(ValueError, match="tolerances must be positive"):
        SOLVERS[solver](poisoned(bsc, "tolerances", value))


@pytest.mark.parametrize(
    "field,value",
    [("prior", 0.0), ("conditional", 0.0), ("cost", 0.0), ("cost", -1.0)],
)
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solvers_name_the_nonpositive_field(bsc, solver, field, value):
    # a zero prior or conditional entry's log is -inf, and a cost <= 0
    # never ends a search
    name = NONFINITE_NAMES[field]
    with pytest.raises(ValueError, match="non-positive value in " + name):
        SOLVERS[solver](poisoned(bsc, field, value))


PAIR_ENTRIES = {
    "log_affinity": lambda inst, y, yo: log_affinity(inst, 0, y, yo, 0.5),
    "affinity": lambda inst, y, yo: affinity(inst, 0, y, yo, 0.5),
    "pairwise_proxy_log": lambda inst, y, yo: pairwise_proxy_log(
        inst, (6,), y, yo, 0.5
    ),
    "optimize_tilt": lambda inst, y, yo: optimize_tilt(inst, (6,), y, yo),
    "pair_contraction": pair_contraction,
    "exact_pairwise": lambda inst, y, yo: exact_pairwise(inst, (6,), y, yo),
    "delta": lambda inst, y, yo: delta(inst, OBS, y, yo),
}


@pytest.mark.parametrize("pair", [("1", "1"), ("1", 0)])
@pytest.mark.parametrize("entry", sorted(PAIR_ENTRIES))
def test_pair_entries_reject_one_label_twice(bsc, entry, pair):
    with pytest.raises(ValueError, match="distinct"):
        PAIR_ENTRIES[entry](bsc, *pair)


@pytest.mark.parametrize("field", sorted(NONFINITE_NAMES))
def test_validate_flags_nonfinite_fields(bsc, field):
    result = validate(poisoned(bsc, field, math.nan))
    assert f"{NONFINITE_NAMES[field]} holds NaN or inf" in result.violations


def test_json_round_trip_is_byte_identical(bsc, tmp_path):
    text = instance_to_json(bsc)
    again = instance_to_json(instance_from_dict(json.loads(text)))
    assert text == again

    path = tmp_path / "inst.json"
    save_instance(bsc, str(path))
    loaded = load_instance(str(path))
    assert loaded.labels == bsc.labels
    assert np.array_equal(loaded.prior, bsc.prior)
    assert np.array_equal(loaded.models[0].conditional, bsc.models[0].conditional)
    assert instance_to_json(loaded) == text


def test_from_dict_rejects_unknown_and_missing_keys(bsc):
    data = instance_to_dict(bsc)
    data["bogus"] = 1
    with pytest.raises(ValueError, match="unknown instance keys"):
        instance_from_dict(data)
    data.pop("bogus")
    data["models"][0]["extra"] = 1
    with pytest.raises(ValueError, match="unknown model keys"):
        instance_from_dict(data)
    data["models"][0].pop("extra")
    data.pop("prior")
    with pytest.raises(ValueError, match="missing required key"):
        instance_from_dict(data)


def test_from_dict_allows_metadata(bsc):
    data = instance_to_dict(bsc)
    data["metadata"] = {"source": "unit test"}
    inst = instance_from_dict(data)
    assert inst.labels == bsc.labels


def test_renormalize_rescales_rows_and_prior(bsc):
    data = instance_to_dict(bsc)
    data["prior"] = [2.0, 2.0]
    data["models"][0]["conditional"] = [[9.0, 1.0], [1.0, 9.0]]
    with pytest.raises(ValueError, match="renormalize"):
        instance_from_dict(data)
    inst = instance_from_dict(data, renormalize=True)
    assert np.allclose(inst.prior, [0.5, 0.5])
    assert np.allclose(inst.models[0].conditional, [[0.9, 0.1], [0.1, 0.9]])


def test_with_tolerances_returns_new_instance(bsc):
    tight = bsc.with_tolerances([1e-4, 1e-4])
    assert float(tight.tolerances[0]) == 1e-4
    assert float(bsc.tolerances[0]) == 0.05
    assert tight.models is bsc.models


def test_calibrate_hand_counts():
    records = [("m", "1", "a"), ("m", "1", "a"), ("m", "1", "b"), ("m", "2", "b")]
    frag = calibrate(records, smoothing=1.0)
    assert frag["labels"] == ["1", "2"]
    (model,) = frag["models"]
    assert model["name"] == "m"
    assert model["alphabet"] == ["a", "b"]
    # additive smoothing: label 1 saw a twice and b once, label 2 only b
    assert model["conditional"][0] == pytest.approx([3 / 5, 2 / 5], abs=1e-12)
    assert model["conditional"][1] == pytest.approx([1 / 3, 2 / 3], abs=1e-12)


def test_calibrate_respects_declared_labels_and_alphabets():
    records = [("m", "1", "a")]
    frag = calibrate(
        records,
        smoothing=0.5,
        labels=["2", "1"],
        alphabets={"m": ["a", "b", "c"]},
    )
    assert frag["labels"] == ["2", "1"]
    (model,) = frag["models"]
    assert model["alphabet"] == ["a", "b", "c"]
    # label "2" has no records: uniform from pure smoothing
    assert model["conditional"][0] == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    assert model["conditional"][1] == pytest.approx([1.5 / 2.5, 0.5 / 2.5, 0.5 / 2.5])


def test_calibrate_rejects_undeclared_names():
    with pytest.raises(ValueError, match="undeclared labels"):
        calibrate([("m", "9", "a")], labels=["1", "2"])
    with pytest.raises(ValueError, match="undeclared symbols"):
        calibrate([("m", "1", "z")], alphabets={"m": ["a", "b"]})
    with pytest.raises(ValueError, match="no records"):
        calibrate([])
    with pytest.raises(ValueError, match="no mass"):
        calibrate([("m", "1", "a")], smoothing=0.0, labels=["1", "2"])
    with pytest.raises(ValueError, match="smoothing"):
        calibrate([("m", "1", "a")], smoothing=-1.0)


def test_calibrate_rejects_repeated_labels():
    # a repeated label would leave one of its rows with smoothing only
    with pytest.raises(ValueError, match=r"declared labels .* \['1'\]"):
        calibrate([("m", "1", "a"), ("m", "2", "b")], labels=["1", "1", "2"])


def test_calibrate_rejects_repeated_symbols():
    # a repeated symbol would leave its first column without counts
    with pytest.raises(ValueError, match=r"model 'm': declared symbols .* \['a'\]"):
        calibrate([("m", "1", "a")], alphabets={"m": ["a", "a", "b"]})


@settings(max_examples=50, deadline=None)
@given(
    n_labels=st.integers(2, 3),
    n_symbols=st.integers(2, 3),
    smoothing=st.floats(0.1, 5.0),
    data=st.data(),
)
def test_calibrate_rows_are_distributions(n_labels, n_symbols, smoothing, data):
    labels = [str(i + 1) for i in range(n_labels)]
    symbols = [chr(ord("a") + j) for j in range(n_symbols)]
    records = data.draw(
        st.lists(
            st.tuples(st.just("m"), st.sampled_from(labels), st.sampled_from(symbols)),
            max_size=30,
        )
    )
    frag = calibrate(records, smoothing=smoothing, labels=labels,
                     alphabets={"m": symbols})
    rows = np.array(frag["models"][0]["conditional"])
    assert rows.shape == (n_labels, n_symbols)
    assert np.all(rows > 0)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_read_calibration_log(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("model,label,response\nm,1,a\nm,2,b\n")
    assert read_calibration_log(str(path)) == [("m", "1", "a"), ("m", "2", "b")]
    bad = tmp_path / "bad.csv"
    bad.write_text("model,label\nm,1\n")
    with pytest.raises(ValueError):
        read_calibration_log(str(bad))
