"""Searches on one Instance object share what they derive from it.

uniform_feasible_count, the stack of ordered pairs, the TangentTables,
the surrogate searches' walks, the epsilon-free constants and
run_afptas's audits are built once per Instance object. Every search
must answer as it would on a fresh copy, in any order and under any
budget, and the shared state must stay out of everything an Instance
shows: repr, ==, JSON, pickles and copies.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from queryplan.bounds import (
    PairStack,
    is_surrogate_feasible,
    pair_stack,
    uniform_feasible_count,
)
from queryplan.exact import (
    EnumerationBudgetError,
    OptResult,
    _Bands,
    _top,
    exact_opt,
    surrogate_walk,
)
from queryplan.experiments import random_instance
from queryplan.instances import (
    Instance,
    instance_from_dict,
    instance_to_dict,
    instance_to_json,
)
from queryplan.planner import run_afptas
from reference_lattice import KEEP_ALL

EPSILONS = (0.1, 0.5, 1.0)


def fresh(inst: Instance) -> Instance:
    """An equal instance that shares nothing with inst."""
    return instance_from_dict(instance_to_dict(inst))


def outcome(job, inst: Instance) -> str:
    """The repr of what the job returns on inst, or of the error it raises:
    a blown budget or, under a cap, no feasible plan."""
    try:
        return repr(job(inst))
    except RuntimeError as exc:
        return repr(exc)


def exact_job(node_budget: int = 1_000_000, cost_cap: float | None = None):
    return lambda inst: exact_opt(
        inst, problem="surrogate", node_budget=node_budget, cost_cap=cost_cap
    )


def solve_job(epsilon: float, node_budget: int = 2_000_000):
    return lambda inst: run_afptas(inst, epsilon, node_budget=node_budget)


def fresh_optimum(inst: Instance) -> OptResult | None:
    """The surrogate optimum of a fresh copy, or None if it lies past the
    default node budget."""
    try:
        return exact_opt(fresh(inst), problem="surrogate")
    except EnumerationBudgetError:
        return None


def cheap_cap(inst: Instance, opt: OptResult | None) -> float:
    """A cost cap strictly below the surrogate optimum: twice the cheapest
    model's cost, or less where the optimum costs no more (a search takes
    the plans up to cap + 1e-9). An optimum past the node budget has more
    than a million plans at or below its cost, so it costs more than the
    few plans within twice the cheapest cost."""
    cap = 2.0 * float(inst.costs.min())
    return cap if opt is None else min(cap, opt.cost - 1e-6)


def jobs(cap: float) -> list:
    return [
        ("exact", exact_job()),
        ("exact-capped", exact_job(cost_cap=cap)),
        *[(eps, solve_job(eps)) for eps in EPSILONS],
    ]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    alpha=st.floats(0.01, 0.2),
    budget=st.integers(1, 300),
)
# the optimum, (2, 0, 0), costs exactly twice the cheapest model's cost
@example(seed=18870, n_labels=2, alpha=0.125, budget=1)
# the optimum lies past the default node budget
@example(seed=269, n_labels=4, alpha=0.06211538695890965, budget=1)
def test_shared_searches_answer_as_fresh_copies(seed, n_labels, alpha, budget):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_labels=n_labels, max_models=3, alpha=alpha)
    opt = fresh_optimum(inst)
    named = jobs(cheap_cap(inst, opt))
    want = {name: outcome(job, fresh(inst)) for name, job in named}
    assert "InfeasibleWithinCapError" in want["exact-capped"]
    # both epsilon orders, with the exact searches first and last
    for order in (named, named[::-1]):
        shared = fresh(inst)
        assert {name: outcome(job, shared) for name, job in order} == want

    # a search that runs out of budget, then one that accepts on the same
    # walk, and the reverse order; an exact search can accept only within
    # the default budget
    small, large = solve_job(0.5, budget), solve_job(0.5, 4 * budget)
    budgets = [(small, large)]
    if opt is not None:
        budgets.append((exact_job(opt.enumerated - 1), exact_job(opt.enumerated)))
        blown = outcome(exact_job(opt.enumerated - 1), fresh(inst))
        assert "EnumerationBudgetError" in blown
    for pair in budgets:
        for sequence in (pair, pair[::-1]):
            shared = fresh(inst)
            for job in sequence:
                assert outcome(job, shared) == outcome(job, fresh(inst))


def kind_of(job, inst: Instance) -> tuple:
    """(outcome type, plan, enumerated) of the job on inst."""
    try:
        got = job(inst)
    except RuntimeError as exc:
        return (type(exc).__name__, None, None)
    return (type(got).__name__, got.plan.counts, got.enumerated)


@pytest.mark.parametrize("seed", range(80))
def test_capped_search_on_a_longer_walk_keeps_its_budget_edge(seed):
    # a search under a cap below run_afptas's reads a walk that already
    # runs past the cap; at budgets about the size of the capped lattice,
    # its outcome is a fresh copy's and that of the capped lattice walked
    # on its own: the optimum if it lies within the cap and the budget,
    # else a budget error if the capped lattice outgrows the budget, else
    # no plan within the cap
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_labels=2 + seed % 2, max_models=3, alpha=0.1)
    opt = exact_opt(fresh(inst))
    cheapest = float(inst.costs.min())
    shared = fresh(inst)
    run_afptas(shared, 0.5)
    for cap in (2.0 * cheapest, 4.0 * cheapest, opt.cost):
        assert surrogate_walk(shared).bands[-1].hi > _top(cap)
        walk = _Bands(list(inst.costs), cap, KEEP_ALL)
        size = sum(len(band.plans) for band in walk)
        for budget in (size - 1, size, size + 1):
            job = exact_job(budget, cap)
            if opt.cost <= cap and opt.enumerated <= budget:
                want = ("OptResult", opt.plan.counts, opt.enumerated)
            elif size > budget:
                want = ("EnumerationBudgetError", None, None)
            else:
                want = ("InfeasibleWithinCapError", None, None)
            assert kind_of(job, shared) == want
            assert outcome(job, shared) == outcome(job, fresh(inst))


def shown(inst: Instance) -> tuple:
    """Everything an instance shows but its identity."""
    twin = fresh(inst)
    return (
        repr(inst),
        instance_to_json(inst),
        inst == inst,
        pickle.dumps(inst),
        repr(pickle.loads(pickle.dumps(inst))),
        repr(copy.deepcopy(inst)),
        repr(dataclasses.replace(inst)),
        twin.labels == inst.labels,
    )


def test_shared_state_stays_invisible(duo):
    before = shown(duo)
    run_afptas(duo, 0.5)
    exact_opt(duo, problem="surrogate")
    assert "_search" in vars(duo)
    assert shown(duo) == before
    # equality still compares the fields, arrays and all
    with pytest.raises(ValueError, match="ambiguous"):
        assert duo == fresh(duo)
    for other in (pickle.loads(pickle.dumps(duo)), copy.deepcopy(duo), copy.copy(duo)):
        assert "_search" not in vars(other)
        assert repr(run_afptas(other, 0.5)) == repr(run_afptas(fresh(duo), 0.5))


def test_copies_with_other_tolerances_get_their_own_state(duo):
    exact_opt(duo, problem="surrogate")
    memo = vars(duo)["_search"]
    tighter = np.array([1e-4, 1e-4])
    for other in (
        duo.with_tolerances(tighter),
        dataclasses.replace(duo, tolerances=tighter),
    ):
        assert "_search" not in vars(other)
        got = exact_opt(other, problem="surrogate")
        assert vars(other)["_search"] is not memo
        assert repr(got) == repr(exact_opt(fresh(other), problem="surrogate"))
        assert got.cost > exact_opt(duo, problem="surrogate").cost
    assert uniform_feasible_count(duo) == uniform_feasible_count(fresh(duo))


@pytest.mark.parametrize("n_labels", [2, 3])
def test_one_pair_stack_serves_every_search_on_an_instance(monkeypatch, n_labels):
    # both exact optima, three solves and an audit read the instance's one
    # stack of ordered pairs: the tangent table, the surrogate check, the
    # Bhattacharyya screen, the contraction and the constants
    inst = random_instance(
        np.random.default_rng(42), n_labels=n_labels, max_models=3, alpha=0.02
    )
    built = []
    init = PairStack.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(PairStack, "__init__", counted)
    opt = exact_opt(inst, problem="surrogate")
    exact_opt(inst, problem="true")
    for epsilon in EPSILONS:
        run_afptas(inst, epsilon)
    assert is_surrogate_feasible(inst, opt.plan).feasible
    assert len(built) == 1
    assert pair_stack(inst) is built[0]
    # a fresh copy builds its own
    exact_opt(fresh(inst), problem="surrogate")
    assert len(built) == 2
