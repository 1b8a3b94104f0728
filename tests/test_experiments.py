from __future__ import annotations

import csv

import numpy as np
import pytest

from conftest import three_label_draw
from queryplan.exact import exact_opt
from queryplan.experiments import (
    GUARANTEE_FIELDS,
    TIGHTNESS_FIELDS,
    guarantee_sweep,
    random_instance,
    random_plan,
    tightness_sweep,
    write_rows,
)
from queryplan.instances import validate


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_instance_is_valid_and_separated(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    assert validate(inst).ok
    assert inst.n_labels == 2
    assert 1 <= inst.n_models <= 3
    assert float(inst.prior.min()) >= 0.1 / (0.1 + 0.9)  # floored then rescaled
    for m in inst.models:
        assert 0.5 <= m.cost <= 2.0
        assert 2 <= m.n_symbols <= 3
        sep = float(np.max(np.abs(m.conditional[0] - m.conditional[1])))
        assert sep >= 0.05
    again = random_instance(np.random.default_rng(seed))
    assert again.labels == inst.labels
    assert all(
        np.array_equal(a.conditional, b.conditional)
        for a, b in zip(again.models, inst.models)
    )


def test_random_plan_bounds():
    rng = np.random.default_rng(7)
    inst = random_instance(rng)
    for _ in range(20):
        plan = random_plan(rng, inst)
        assert len(plan.counts) == inst.n_models
        assert 0 <= plan.total <= 8


def test_tightness_sweep_reference_instance(bsc):
    rows = tightness_sweep(bsc, [0.1, 0.05, 0.01])
    assert [set(r) for r in rows] == [set(TIGHTNESS_FIELDS)] * 3
    by_alpha = {r["alpha_min"]: r for r in rows}
    assert by_alpha[0.05]["opt"] == 3.0
    assert by_alpha[0.05]["surrogate_opt"] == 6.0
    assert by_alpha[0.05]["ratio"] == pytest.approx(2.0)
    assert all(r["ratio"] >= 1.0 for r in rows)


@pytest.mark.parametrize(
    "draw, alpha, counts, enumerated",
    [
        pytest.param(0, 1e-2, (28, 0, 0), 2_556, id="draw0-1e-2"),
        pytest.param(0, 1e-3, (45, 0, 0), 9_909, id="draw0-1e-3"),
        pytest.param(1, 1e-2, (0, 39, 4), 8_136, id="draw1-1e-2"),
        pytest.param(1, 1e-3, (0, 62, 6), 30_662, id="draw1-1e-3"),
        pytest.param(5, 1e-2, (16, 15), 605, id="draw5-1e-2"),
        pytest.param(5, 1e-3, (24, 24), 1_454, id="draw5-1e-3"),
    ],
)
def test_three_label_tightness_rungs(draw, alpha, counts, enumerated):
    # the true optima the profile scan found before the pairwise split, and
    # the surrogate optimum never cheaper than the true one
    inst = three_label_draw(draw).with_tolerances(np.full(3, alpha))
    opt = exact_opt(inst, problem="true")
    assert (opt.plan.counts, opt.enumerated) == (counts, enumerated)
    surrogate = exact_opt(inst, problem="surrogate")
    assert surrogate.cost / opt.cost >= 1.0


def test_guarantee_sweep_tiny_run():
    rows = guarantee_sweep(seed=11, n_instances=2, epsilons=(0.5,))
    assert len(rows) == 2
    for row in rows:
        assert set(row) == set(GUARANTEE_FIELDS)
        assert row["ratio"] >= 1.0 - 1e-12
        assert row["within_factor"]
    again = guarantee_sweep(seed=11, n_instances=2, epsilons=(0.5,))
    assert again == rows


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
def test_guarantee_sweep_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha"):
        guarantee_sweep(seed=11, n_instances=1, epsilons=(0.5,), alpha=alpha)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_instances", -1),
        ("n_instances", 1.5),
        ("n_instances", True),
        ("seed", -5),
        ("seed", 1.5),
        ("seed", False),
    ],
)
def test_guarantee_sweep_rejects_counts_that_are_not_non_negative_integers(
    field, value
):
    args = {"seed": 11, "n_instances": 1, field: value}
    with pytest.raises(ValueError, match=f"{field} must be a non-negative integer"):
        guarantee_sweep(**args, epsilons=(0.5,))


def test_write_rows_round_trip(tmp_path):
    rows = [
        {"alpha_min": 0.1, "opt": 1.0, "surrogate_opt": 2.0, "ratio": 2.0},
        {"alpha_min": 0.05, "opt": 3.0, "surrogate_opt": 6.0, "ratio": 2.0},
    ]
    path = tmp_path / "sweep.csv"
    write_rows(str(path), rows, TIGHTNESS_FIELDS)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 2
    assert back[0]["alpha_min"] == "0.1"
    assert back[1]["surrogate_opt"] == "6.0"
