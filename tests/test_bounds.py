from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from queryplan.bounds import (
    PairTables,
    TangentTable,
    _minimize_tilt,
    _pair_tilt,
    affinity,
    golden_section,
    instance_contraction,
    is_surrogate_feasible,
    log_affinity,
    max_pair_weights,
    optimize_tilt,
    ordered_pairs,
    pair_contraction,
    pairwise_proxy_log,
    surrogate_error,
    uniform_feasible_count,
)
from queryplan.experiments import random_instance, random_plan
from queryplan.instances import Instance, ModelSpec


def test_affinity_bsc_midpoint(bsc):
    # 0.9^0.5 * 0.1^0.5 + 0.1^0.5 * 0.9^0.5 = 2 * 0.3
    assert affinity(bsc, "bsc", "1", "2", 0.5) == pytest.approx(0.6, abs=1e-12)


def test_affinity_endpoints_are_one(bsc, duo):
    for inst in (bsc, duo):
        for m in range(inst.n_models):
            assert affinity(inst, m, "1", "2", 0.0) == pytest.approx(1.0, abs=1e-12)
            assert affinity(inst, m, "1", "2", 1.0) == pytest.approx(1.0, abs=1e-12)


def test_affinity_domain_errors(bsc):
    with pytest.raises(ValueError, match="tilt"):
        log_affinity(bsc, 0, "1", "2", -0.1)
    with pytest.raises(ValueError, match="tilt"):
        log_affinity(bsc, 0, "1", "2", 1.1)
    with pytest.raises(ValueError, match="distinct"):
        log_affinity(bsc, 0, "1", "1", 0.5)
    with pytest.raises(ValueError, match="tilt"):
        pairwise_proxy_log(bsc, (1,), "1", "2", 2.0)
    with pytest.raises(ValueError, match="plan has 2 counts"):
        pairwise_proxy_log(bsc, (1, 1), "1", "2", 0.5)


# the instance fixture is immutable, so sharing it across examples is fine
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    s1=st.floats(0.0, 1.0),
    s2=st.floats(0.0, 1.0),
    lam=st.floats(0.0, 1.0),
)
def test_log_affinity_is_convex(duo, s1, s2, lam):
    s_mid = lam * s1 + (1.0 - lam) * s2
    for m in range(duo.n_models):
        lhs = log_affinity(duo, m, "1", "2", min(max(s_mid, 0.0), 1.0))
        rhs = lam * log_affinity(duo, m, "1", "2", s1) + (1.0 - lam) * log_affinity(
            duo, m, "1", "2", s2
        )
        assert lhs <= rhs + 1e-9


def test_flat_pair_contracts_nowhere():
    rows = np.array([[0.5, 0.5], [0.5, 0.5]])
    inst = Instance(
        ("1", "2"),
        np.array([0.5, 0.5]),
        (ModelSpec("flat", ("a", "b"), rows, 1.0),),
        np.array([0.1, 0.1]),
    )
    s, lv = pair_contraction(inst, "1", "2")
    assert (s, lv) == (0.5, 0.0)
    with pytest.raises(ValueError, match="indistinguishable"):
        uniform_feasible_count(inst)


def test_optimize_tilt_hits_endpoints_exactly(asym):
    # with no queries only the prior factor remains: (1/9)^s is minimized
    # at s = 1 for pair (1, 2) and at s = 0 for pair (2, 1)
    s, lv = optimize_tilt(asym, (0,), "1", "2")
    assert s == 1.0
    assert lv == pytest.approx(math.log(1.0 / 9.0), abs=1e-12)
    s, lv = optimize_tilt(asym, (0,), "2", "1")
    assert s == 0.0
    assert lv == 0.0


def test_optimize_tilt_interior_bsc(bsc):
    s, lv = optimize_tilt(bsc, (6,), "1", "2")
    assert s == pytest.approx(0.5, abs=1e-5)
    assert lv == pytest.approx(6 * math.log(0.6), rel=1e-9)
    assert pairwise_proxy_log(bsc, (6,), "1", "2", s) == pytest.approx(lv, abs=1e-12)


def test_surrogate_error_bsc(bsc):
    assert surrogate_error(bsc, (6,), "1") == pytest.approx(0.6**6, rel=1e-9)
    assert surrogate_error(bsc, (6,), "2") == pytest.approx(0.6**6, rel=1e-9)
    assert surrogate_error(bsc, (0,), "1") == pytest.approx(1.0, abs=1e-9)


def test_is_surrogate_feasible_boundary(bsc):
    report = is_surrogate_feasible(bsc, (6,))
    assert report.feasible
    assert report.feasible_by_label == (True, True)
    assert report.values[0] == pytest.approx(0.046656, rel=1e-9)
    assert not is_surrogate_feasible(bsc, (5,)).feasible
    d = report.to_dict()
    assert d["feasible"] is True
    assert len(d["labels"]) == 2
    assert len(d["pair_tilts"]) == 2


def test_instance_contraction_and_uniform_count(bsc):
    assert instance_contraction(bsc) == pytest.approx(0.6, rel=1e-9)
    rho, n = uniform_feasible_count(bsc)
    assert rho == pytest.approx(0.6, rel=1e-9)
    assert n == 6


def test_golden_section_quartic():
    x = golden_section(lambda t: (t - 0.3) ** 4, 0.0, 1.0)
    assert abs(x - 0.3) <= 1e-6
    with pytest.raises(ValueError):
        golden_section(lambda t: t, 1.0, 1.0)


def test_pair_tables_match_scalar_path(duo):
    tables = PairTables(duo, 0, 1)
    for s in (0.0, 0.25, 0.5, 0.8, 1.0):
        vec = tables.log_affinities(s)
        for m in range(duo.n_models):
            assert vec[m] == pytest.approx(
                log_affinity(duo, m, "1", "2", s), abs=1e-12
            )


def test_max_pair_weights_bsc(bsc, asym):
    w_max, min_amp = max_pair_weights(bsc)
    assert w_max.shape == (2, 1)
    best = -math.log(0.6)
    for p in range(2):
        # never underestimates the true best weight, and only barely over
        assert 0.0 <= w_max[p, 0] - best <= 5e-6
    assert np.allclose(min_amp, 1.0)

    _, min_amp = max_pair_weights(asym)
    pairs = ordered_pairs(2)
    assert min_amp[pairs.index((0, 1))] == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert min_amp[pairs.index((1, 0))] == 1.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_max_pair_weights_lower_bound_is_sound(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    plan = random_plan(rng, inst)
    w_max, min_amp = max_pair_weights(inst)
    counts = np.asarray(plan.counts, dtype=float)
    for p, (yi, yj) in enumerate(ordered_pairs(inst.n_labels)):
        lb = min_amp[p] * math.exp(-float(w_max[p] @ counts))
        _, lv = optimize_tilt(inst, plan, yi, yj)
        assert lb <= math.exp(lv) * (1.0 + 1e-9) + 1e-300


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    alpha=st.floats(1e-4, 0.3),
    counts=st.lists(st.integers(0, 30), min_size=3, max_size=3),
)
def test_tangent_table_bounds_golden_sections(seed, n_labels, alpha, counts):
    rng = np.random.default_rng(seed)
    inst = random_instance(
        rng, n_labels=n_labels, max_models=3, alphabet_sizes=(2, 4), alpha=alpha
    )
    r = np.asarray(counts[: inst.n_models], dtype=float)
    table = TangentTable(inst)
    f, df = table.proxy_on_grid(r)
    lb = table.lower_bounds(f, df)
    for p, (yi, yj) in enumerate(ordered_pairs(inst.n_labels)):
        tables = PairTables(inst, yi, yj)
        # the plan's bound never exceeds the golden-section pair proxy
        assert lb[p] <= _pair_tilt(tables, r)[1]
        for m in range(inst.n_models):
            _, lv = _minimize_tilt(
                lambda s, m=m: float(tables.log_affinities(s)[m]), False
            )
            # w_max never undercuts a model's golden-section weight
            assert table.w_max[p, m] >= -lv
    if is_surrogate_feasible(inst, tuple(int(c) for c in r)).feasible:
        assert not table.rejects(f, df)
