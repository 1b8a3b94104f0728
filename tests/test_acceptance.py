"""End-to-end acceptance checks.

Each test is one numbered criterion and prints a single PASS line with the
measured evidence; tolerances and runtime budgets are pinned in the
assertions. The shared suite of 200 random instances (seed 20260826,
alternating two and three labels) plus one random plan each is solved once
at eps = 0.5 and reused across criteria.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from conftest import SUITE_SEED, SUITE_SIZE, acceptance_suite
from queryplan.bounds import (
    PairTables,
    golden_section,
    is_surrogate_feasible,
    log_affinity,
    optimize_tilt,
    ordered_pairs,
    pairwise_proxy_log,
    surrogate_error,
)
from queryplan.exact import exact_error, exact_pairwise
from queryplan.experiments import (
    guarantee_sweep,
    random_plan,
    tightness_sweep,
)
from queryplan.instances import Instance, ModelSpec
from queryplan.likelihood import TIE_POLICIES
from queryplan.planner import (
    backtrack,
    derive_constants,
    dp_solve,
    round_weights,
    run_afptas,
)
from queryplan.setcover import SetCoverInstance, random_setcover, reduce, verify_equivalence
from queryplan.simulate import simulate_error

SUITE_EPSILON = 0.5


@pytest.fixture(scope="module")
def suite():
    return acceptance_suite()


@pytest.fixture(scope="module")
def certs(suite):
    return [run_afptas(inst, SUITE_EPSILON) for inst, _ in suite]


def test_criterion_01_exact_error_never_exceeds_surrogate(suite):
    t0 = time.perf_counter()
    checks = 0
    for inst, plan in suite:
        for yi in range(inst.n_labels):
            sur = surrogate_error(inst, plan, yi)
            for policy in TIE_POLICIES:
                err = exact_error(inst, plan, yi, policy)
                assert err <= sur + 1e-9
                checks += 1
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(
        f"criterion 1: PASS — exact error <= surrogate bound on {checks} "
        f"label/policy checks over {SUITE_SIZE} instances ({dt:.1f} s)"
    )


def test_criterion_02_union_bound_chain(suite):
    checks = 0
    for inst, plan in suite:
        for yi in range(inst.n_labels):
            pair_terms = []
            proxy_terms = []
            for yj in range(inst.n_labels):
                if yj == yi:
                    continue
                pw = exact_pairwise(inst, plan, yi, yj)
                _, lv = optimize_tilt(inst, plan, yi, yj)
                assert pw <= math.exp(lv) + 1e-12
                pair_terms.append(pw)
                proxy_terms.append(math.exp(lv))
            pair_sum = math.fsum(pair_terms)
            proxy_sum = math.fsum(proxy_terms)
            assert pair_sum <= proxy_sum + 1e-12
            assert abs(proxy_sum - surrogate_error(inst, plan, yi)) <= 1e-12
            for policy in TIE_POLICIES:
                assert exact_error(inst, plan, yi, policy) <= pair_sum + 1e-12
                checks += 1
    print(
        "criterion 2: PASS — exact <= sum of pairwise <= sum of tilted "
        f"proxies on {checks} checks (slack 1e-12)"
    )


def _diff_instance(d: float) -> Instance:
    rows = np.array([[0.5 + d / 2, 0.5 - d / 2], [0.5 - d / 2, 0.5 + d / 2]])
    return Instance(
        labels=("1", "2"),
        prior=np.array([0.5, 0.5]),
        models=(ModelSpec("m", ("a", "b"), rows, 1.0),),
        tolerances=np.array([0.1, 0.1]),
    )


def test_criterion_03_affinity_factor_properties(suite):
    mesh = np.linspace(0.0, 1.0, 17)
    instances = [(_diff_instance(d), None) for d in (1e-3, 1e-2, 0.1, 0.3)]
    instances += suite
    models_checked = 0
    for inst, _ in instances:
        for m in range(inst.n_models):
            for yi, yj in ordered_pairs(inst.n_labels):
                vals = [log_affinity(inst, m, yi, yj, s) for s in mesh]
                # unit endpoints, (0, 1] range, midpoint convexity
                assert abs(vals[0]) <= 1e-12 and abs(vals[-1]) <= 1e-12
                assert all(v <= 1e-12 for v in vals)
                assert all(math.isfinite(v) for v in vals)
                for a in range(len(mesh) - 2):
                    assert vals[a + 1] <= (vals[a] + vals[a + 2]) / 2 + 1e-9
                # strictly contracting at the optimized tilt
                s_star = golden_section(
                    lambda s: log_affinity(inst, m, yi, yj, s), 0.0, 1.0
                )
                assert math.exp(log_affinity(inst, m, yi, yj, s_star)) < 1 - 1e-9
                models_checked += 1
    print(
        "criterion 3: PASS — unit endpoints, midpoint log-convexity on a "
        f"17-point mesh, and interior contraction < 1 - 1e-9 for "
        f"{models_checked} model/pair combinations"
    )


def test_criterion_04_solver_plans_are_feasible(suite, certs):
    for (inst, _), cert in zip(suite, certs):
        report = is_surrogate_feasible(inst, cert.plan)
        assert report.feasible
    print(
        f"criterion 4: PASS — {len(certs)}/{len(certs)} solver plans "
        "re-verified feasible with fresh tilt optimization"
    )


def test_criterion_05_approximation_factor_on_random_suite():
    t0 = time.perf_counter()
    rows = guarantee_sweep(
        seed=42, n_instances=50, epsilons=(0.1, 0.5, 1.0), alpha=1e-3
    )
    dt = time.perf_counter() - t0
    assert len(rows) == 150
    assert all(row["within_factor"] for row in rows)
    assert dt < 600.0
    worst = max(row["ratio"] for row in rows)
    print(
        "criterion 5: PASS — cost within (1+eps) of the exact surrogate "
        f"optimum on all 150 runs (worst ratio {worst:.4f}, {dt:.1f} s)"
    )


def _brute_cover(weights: np.ndarray, costs: list[float], t, r_cap: int) -> float:
    best = math.inf
    K = len(costs)
    for r in product(range(r_cap + 1), repeat=K):
        if all(
            sum(r[m] * int(weights[m][p]) for m in range(K)) >= t[p]
            for p in range(len(t))
        ):
            best = min(best, sum(r[m] * costs[m] for m in range(K)))
    return best


def test_criterion_06_covering_dp_matches_brute_force(bsc):
    inst = Instance(
        labels=("1", "2"),
        prior=np.array([0.5, 0.5]),
        models=(
            ModelSpec("m0", ("a", "b"), np.array([[0.9, 0.1], [0.1, 0.9]]), 1.0),
            ModelSpec("m1", ("a", "b"), np.array([[0.8, 0.2], [0.2, 0.8]]), 1.7),
        ),
        tolerances=np.array([0.05, 0.05]),
    )
    base = derive_constants(bsc, 0.5)
    rng = np.random.default_rng(6)
    states_checked = 0
    for _ in range(4):
        t_max = int(rng.integers(5, 31))
        constants = replace(base, t_max=t_max)
        weights = rng.integers(0, 6, size=(2, 1)).astype(np.int64)
        dense = dp_solve(inst, constants, weights)
        for t in range(t_max + 1):
            ref = _brute_cover(weights, [1.0, 1.7], (t,), t_max)
            assert dense.value((t,)) == pytest.approx(ref, abs=1e-12)
            if math.isfinite(ref) and t > 0:
                plan = backtrack(dense, (t,))
                covered = sum(c * int(weights[m][0]) for m, c in enumerate(plan.counts))
                assert covered >= t
            states_checked += 1
    for _ in range(3):
        t_max = int(rng.integers(3, 9))
        constants = replace(base, t_max=t_max)
        weights = rng.integers(0, 4, size=(2, 2)).astype(np.int64)
        dense = dp_solve(inst, constants, weights)
        for t in product(range(t_max + 1), repeat=2):
            ref = _brute_cover(weights, [1.0, 1.7], t, t_max)
            assert dense.value(t) == pytest.approx(ref, abs=1e-12)
            states_checked += 1
    print(
        "criterion 6: PASS — the covering DP matches brute-force covering "
        f"optima on {states_checked} states"
    )


def test_criterion_07_setcover_reduction_equivalence(sc3):
    eps = 0.2
    rng = np.random.default_rng(99)
    singles = 0
    for _ in range(20):
        sc = random_setcover(rng)
        res = verify_equivalence(sc, eps)
        assert res["equivalent"]
        assert abs(res["family_opt_cost"] - res["expected_opt_cost"]) <= 1e-6
        # singly covered elements err at exactly the lean rate
        inst = reduce(sc, eps).instance
        chosen = res["min_cover_sets"]
        plan = (1,) + tuple(1 if j in chosen else 0 for j in range(sc.n_sets))
        multiplicity = Counter(e for j in chosen for e in sc.sets[j])
        for e in range(1, sc.n + 1):
            if multiplicity[e] == 1:
                err = exact_error(inst, plan, str(e))
                assert abs(err - eps) <= 1e-6
                singles += 1
    assert singles >= 1
    # outside the safe lean window the correspondence genuinely fails
    broken = verify_equivalence(sc3, 0.1)
    assert not broken["equivalent"]
    assert [m["plan"] for m in broken["mismatches"]] == [[1, 1, 1, 1]]
    print(
        "criterion 7: PASS — cover/feasibility correspondence verified on "
        f"20 random instances at eps=0.2 ({singles} singly covered elements "
        "err at rate eps +/- 1e-6); eps=0.1 counterexample detected"
    )


def test_criterion_08_surrogate_tightens_as_tolerances_shrink(bsc):
    alphas = [0.1, 0.05, 0.01, 1e-3, 1e-4]
    rows = tightness_sweep(bsc, alphas)
    ratios = [row["ratio"] for row in rows]
    opts = [row["opt"] for row in rows]
    assert all(r >= 1.0 for r in ratios)
    assert all(a <= b for a, b in zip(opts, opts[1:]))
    assert ratios[-1] <= ratios[0] + 0.05
    assert ratios[-1] <= 1.5
    print(
        "criterion 8: PASS — surrogate-to-exact cost ratio fell from "
        f"{ratios[0]:.3f} at alpha={alphas[0]} to {ratios[-1]:.3f} at "
        f"alpha={alphas[-1]}"
    )


def test_criterion_09_monte_carlo_agrees_with_exact(bsc):
    exact = exact_error(bsc, (6,), "1")
    est = simulate_error(bsc, (6,), "1", trials=2_000_000, seed=SUITE_SEED)
    se = math.sqrt(exact * (1.0 - exact) / est.trials)
    dev = abs(est.estimate - exact) / se
    assert dev <= 3.0
    covered = 0
    for seed in range(100):
        run = simulate_error(bsc, (6,), "1", trials=20_000, seed=seed)
        if run.ci_low <= exact <= run.ci_high:
            covered += 1
    assert covered >= 90
    print(
        f"criterion 9: PASS — 2e6-trial estimate within {dev:.2f} standard "
        f"errors of the exact value; Wilson interval covered it in "
        f"{covered}/100 independent runs"
    )


def test_criterion_10_derived_constants_audit(suite, certs):
    rng = np.random.default_rng(10)
    log_eps = math.log1p(SUITE_EPSILON)
    for (inst, _), cert in zip(suite, certs):
        c = cert.constants
        assert 0.0 < c.rho < 1.0
        assert 0.0 < c.theta < 1.0
        assert c.B > 0.0 and c.kappa_min > 0.0
        assert 0.0 < c.delta_margin <= 0.25
        assert 1 <= c.k_eps <= c.k_max
        # the two discretization budgets each spend exactly log(1+eps)
        assert abs(c.n_max * c.round_scale - log_eps) <= 1e-9
        assert abs(c.lam * c.mesh - log_eps) <= 1e-9
        assert c.t_max == math.ceil(c.B * c.n_max / c.round_scale)

        pairs = ordered_pairs(inst.n_labels)
        point = rng.uniform(0.0, 1.0, size=len(pairs))
        w = round_weights(inst, c, point)
        for p, (yi, yj) in enumerate(pairs):
            tables = PairTables(inst, yi, yj)
            raw = np.maximum(-tables.log_affinities(float(point[p])), 0.0)
            # flooring: scale * w <= raw < scale * (w + 1)
            assert np.all(c.round_scale * w[:, p] <= raw + 1e-12)
            assert np.all(raw < c.round_scale * (w[:, p] + 1))

        plan = random_plan(rng, inst)
        for yi, yj in pairs:
            s1, s2 = rng.uniform(0.0, 1.0, size=2)
            f1 = pairwise_proxy_log(inst, plan, yi, yj, float(s1))
            f2 = pairwise_proxy_log(inst, plan, yi, yj, float(s2))
            assert abs(f1 - f2) <= c.lam * abs(s1 - s2) + 1e-9

        pr = inst.prior
        L = inst.n_labels
        alpha_min = float(inst.tolerances.min())
        floor_err = (L - 1) * float(pr.min()) / float(pr.max())
        assert alpha_min < floor_err  # the lower bound regime applies
        cmin = min(m.cost for m in inst.models)
        csum = sum(m.cost for m in inst.models)
        lower = cmin / c.B * math.log(floor_err / alpha_min)
        assert cert.cost >= lower - 1e-9
        assert cert.cost <= (c.n_unif + c.k_max) * csum + 1e-9
    print(
        f"criterion 10: PASS — constants audited on {len(certs)} instances: "
        "contractions in (0,1), discretization budgets exact, weight floors "
        "sandwiched, proxies Lipschitz in the tilt, and certificate costs "
        "inside the derived bounds"
    )
