from __future__ import annotations

import dataclasses
import json
import math
import re

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


def test_plan_counts_fit_in_int64(duo):
    # the solvers hold counts as int64; a larger count used to raise
    # OverflowError from QueryPlan.as_array
    assert as_plan([2**63 - 1, 0], duo).as_array()[0] == 2**63 - 1
    for count in (2**63, 10**5000):
        with pytest.raises(ValueError, match=r"plan counts must be below 2\*\*63"):
            as_plan([count, 0], duo)


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
            ModelSpec("m", ("a", "a"), np.array([[0.9, 0.2], [0.1, 0.9]]), 1.0),
        ),
        tolerances=np.array([0.05, 1.5]),
    )
    result = validate(inst)
    assert not result.ok
    assert result.violations == (
        "prior sums to 1.2, off by more than 1e-12",
        "tolerance for label '2' is 1.5, must lie in (0, 1)",
        "model 'm': alphabet symbols must be distinct",
        "model 'm': row for label '1' sums to 1.1",
    )


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


def builds_holding(inst: Instance, field: str, value: float) -> dict:
    """Every way to build a model or an instance whose field holds value,
    by name. A prior or conditional row holds (value, 1 - value) for a
    finite value, so it still sums to 1, and (value, value) otherwise; a
    file's prior and rows are checked for NaN and inf before they are
    summed."""
    model = inst.models[0]
    pair = np.array([value, 1.0 - value] if math.isfinite(value) else [value] * 2)
    rows = np.vstack([model.conditional[0], pair])
    data = instance_to_dict(inst)
    from_file = {"instance_from_dict": lambda: instance_from_dict(data)}
    if field == "conditional":
        data["models"][0]["conditional"] = rows.tolist()
        return {
            "ModelSpec": lambda: ModelSpec(
                model.name, model.alphabet, rows, model.cost
            ),
            "replace": lambda: dataclasses.replace(model, conditional=rows),
            **from_file,
        }
    if field == "prior":
        data["prior"] = pair.tolist()
        return {
            "Instance": lambda: Instance(
                inst.labels, pair, inst.models, inst.tolerances
            ),
            "replace": lambda: dataclasses.replace(inst, prior=pair),
            **from_file,
        }
    if field == "cost":
        data["models"][0]["cost"] = value
        return {
            "ModelSpec": lambda: ModelSpec(
                model.name, model.alphabet, model.conditional, value
            ),
            "replace": lambda: dataclasses.replace(model, cost=value),
            **from_file,
        }
    tol = np.array([0.05, value])
    data["tolerances"] = tol.tolist()
    return {
        "Instance": lambda: Instance(inst.labels, inst.prior, inst.models, tol),
        "replace": lambda: dataclasses.replace(inst, tolerances=tol),
        "with_tolerances": lambda: inst.with_tolerances(tol),
        **from_file,
    }


@pytest.mark.parametrize("field", sorted(NONFINITE_NAMES))
def test_constructors_name_the_bad_field(bsc, field):
    # no model or instance can hold a value whose log a solver would take
    # as -inf or NaN, or a cost that never ends a search
    name = NONFINITE_NAMES[field]
    for value in (math.nan, math.inf, 0.0, -0.1):
        if not math.isfinite(value):
            expected = f"non-finite value (NaN or inf) in {name}"
        elif field == "tolerances":
            expected = f"tolerances must be positive, got {value!r}"
        else:
            expected = f"non-positive value in {name}"
        for build in builds_holding(bsc, field, value).values():
            with pytest.raises(ValueError, match=re.escape(expected)):
                build()


def string_name_builds(inst: Instance, field: str) -> dict:
    """Every way to build a model or an instance whose field's first entry
    is the integer 0, with the message each gives."""
    model = inst.models[0]
    data = instance_to_dict(inst)

    def from_file():
        return instance_from_dict(data)

    if field == "labels":
        data["labels"] = [0, *inst.labels[1:]]
        labels = tuple(data["labels"])
        message = "labels[0] must be a string, got int"
        return {
            message: [
                lambda: Instance(labels, inst.prior, inst.models, inst.tolerances),
                lambda: dataclasses.replace(inst, labels=labels),
                from_file,
            ]
        }
    if field == "name":
        data["models"][0]["name"] = 0
        return {
            "model name must be a string, got int": [
                lambda: ModelSpec(0, model.alphabet, model.conditional, model.cost),
                lambda: dataclasses.replace(model, name=0),
            ],
            "models[0].name must be a string, got int": [from_file],
        }
    data["models"][0]["alphabet"] = [0, *model.alphabet[1:]]
    alphabet = tuple(data["models"][0]["alphabet"])
    return {
        f"model {model.name!r}: alphabet[0] must be a string, got int": [
            lambda: ModelSpec(model.name, alphabet, model.conditional, model.cost),
            lambda: dataclasses.replace(model, alphabet=alphabet),
            from_file,
        ]
    }


@pytest.mark.parametrize("field", ["labels", "name", "alphabet"])
def test_constructors_require_string_names(bsc, field):
    # str() would make the label 0 the name "0", which label_index(0) reads
    # as an index and label_index("0") as a name
    for message, builds in string_name_builds(bsc, field).items():
        for build in builds:
            with pytest.raises(ValueError, match=re.escape(message)):
                build()


def test_constructors_name_an_integer_too_large_for_a_float(bsc):
    big = 10**400
    model = bsc.models[0]
    builds = {
        "model 'bsc' cost": lambda: dataclasses.replace(model, cost=big),
        "model 'bsc' conditional": lambda: dataclasses.replace(
            model, conditional=[[big, 0.1], [0.1, 0.9]]
        ),
        "prior": lambda: dataclasses.replace(bsc, prior=[big, 0.5]),
        "tolerances": lambda: dataclasses.replace(bsc, tolerances=[0.05, big]),
    }
    for field, build in builds.items():
        message = f"number too large for a float in {field}"
        with pytest.raises(ValueError, match=message):
            build()


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


def test_calibrate_rejects_non_string_names():
    # str() would turn these into the labels "1" and "None" and the symbol "None"
    records = [("m", "1", "a")]
    cases = [
        ({"labels": ["1", None]}, "declared labels[1] must be a string, got NoneType"),
        ({"labels": [1, "2"]}, "declared labels[0] must be a string, got int"),
        (
            {"alphabets": {"m": [None, "a"]}},
            "model 'm': declared symbols[0] must be a string, got NoneType",
        ),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            calibrate(records, **kwargs)


def test_read_calibration_log(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("model,label,response\nm,1,a\nm,2,b\n")
    assert read_calibration_log(str(path)) == [("m", "1", "a"), ("m", "2", "b")]
    bad = tmp_path / "bad.csv"
    bad.write_text("model,label\nm,1\n")
    with pytest.raises(ValueError):
        read_calibration_log(str(bad))
