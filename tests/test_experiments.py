from __future__ import annotations

import csv

import numpy as np
import pytest

from queryplan.experiments import (
    GUARANTEE_FIELDS,
    TIGHTNESS_FIELDS,
    greedy_baseline,
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


def test_greedy_baseline_meets_tolerances_on_reference(bsc):
    result = greedy_baseline(bsc)
    assert result.plan.counts == (6,)
    assert result.cost == 6.0
    assert result.steps == (0,) * 6
    assert result.to_dict()["plan"] == [6]


def test_greedy_baseline_is_myopic_on_the_foil(duo):
    # every single step favors the cheap model, overshooting the optimum
    # (three sharp queries, cost 7.5)
    result = greedy_baseline(duo)
    assert result.plan.counts == (10, 0)
    assert result.cost == 10.0
    assert set(result.steps) == {0}


def test_greedy_baseline_step_cap(duo):
    with pytest.raises(RuntimeError, match="greedy reached"):
        greedy_baseline(duo, max_steps=2)


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
