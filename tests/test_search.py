"""The batched cost-ordered search against a one-plan-at-a-time reference.

search_lattice prescreens plans in batches but must behave exactly like
the loop below, which both solvers ran before: the same plan, result and
enumerated count, the same accept calls in the same order, and the same
budget error at the same plan. Its banded numpy walk, lattice_bands, must
yield the reference heap walk's plans in the same order, in bounded memory.
"""

from __future__ import annotations

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryplan.bounds import (
    BhattacharyyaScreen,
    TangentTable,
    is_surrogate_feasible,
    uniform_feasible_count,
)
from queryplan.exact import (
    EnumerationBudgetError,
    exact_error_table,
    lattice_bands,
    search_lattice,
)
from queryplan.experiments import random_instance
from reference_lattice import lattice_ascending


def per_plan_search(costs, cost_cap, accept, node_budget, prescreen=None):
    """The reference: walk, budget check and prescreen one plan at a time."""
    enumerated = 0
    for _, counts in lattice_ascending(costs, cost_cap):
        enumerated += 1
        if enumerated > node_budget:
            raise EnumerationBudgetError(
                f"search enumerated more than {node_budget} plans"
            )
        if prescreen is not None and not per_plan_keeps(prescreen, counts):
            continue
        result = accept(counts)
        if result is not None:
            return counts, result, enumerated
    return None


def per_plan_keeps(prescreen, counts):
    """One plan through either screen, its bounds written out per pair."""
    r = np.asarray(counts, dtype=float)
    if isinstance(prescreen, TangentTable):
        lb = prescreen.min_amp * np.exp(-(prescreen.w_max @ r))
        return not (prescreen.label_mask @ lb > prescreen.alpha_cap).any()
    for log_m, (p, q), cap in zip(prescreen.log_bc, prescreen.weights, prescreen.cap):
        bc2 = math.exp(2.0 * float(log_m @ r))
        bayes = 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * p * q * bc2)))
        if bayes * (1.0 - 1e-9) > cap:
            return False
    return True


def run_logged(search, accept, costs, cost_cap, node_budget, **kwargs):
    """(outcome, accept calls): the search's return value, or the message
    of its budget error, with every plan it handed to accept."""
    calls = []

    def logged(counts):
        calls.append(counts)
        return accept(counts)

    try:
        return search(costs, cost_cap, logged, node_budget, **kwargs), calls
    except EnumerationBudgetError as exc:
        return f"EnumerationBudgetError: {exc}", calls


def assert_same_search(accept, *args, **kwargs):
    """Runs the engine and the reference; returns their common outcome."""
    got = run_logged(search_lattice, accept, *args, **kwargs)
    assert got == run_logged(per_plan_search, accept, *args, **kwargs)
    return got[0]


@pytest.mark.parametrize("position", [1, 2, 63, 64, 65, 192, 193, 500, 4000])
def test_accept_position_and_budget_across_batch_edges(position):
    costs = (1.0, 1.5, 2.0)
    walk = [counts for _, counts in lattice_ascending(costs, 60.0)]
    target = walk[position - 1]

    def accept(counts):
        return sum(counts) if counts == target else None

    found = assert_same_search(accept, costs, 60.0, position)
    assert found == (target, sum(target), position)
    assert assert_same_search(accept, costs, 60.0, 10**6) == found
    blown = assert_same_search(accept, costs, 60.0, position - 1)
    message = f"search enumerated more than {position - 1} plans"
    assert blown == f"EnumerationBudgetError: {message}"


def test_exhausted_lattice_returns_none_within_budget():
    size = len(list(lattice_ascending((1.0, 2.0), 5.0)))
    assert assert_same_search(lambda counts: None, (1.0, 2.0), 5.0, size) is None
    blown = assert_same_search(lambda counts: None, (1.0, 2.0), 5.0, size - 1)
    assert blown.startswith("EnumerationBudgetError")


# Plans a property example may walk; a search that runs past it ends in
# the budget error, which is compared like any other outcome. Exact errors
# cost the most per plan, so that accept walks fewer.
WALK_LIMIT = 2000
TRUE_WALK_LIMIT = 500


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    alpha=st.floats(0.01, 0.3),
    accept_kind=st.sampled_from(
        ["surrogate", "true", "residue", "residue-unscreened"]
    ),
    residue=st.integers(0, 400),
)
def test_batched_search_matches_per_plan_search(
    seed, n_labels, alpha, accept_kind, residue
):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_labels=n_labels, max_models=3, alpha=alpha)
    costs = [m.cost for m in inst.models]
    _, n_unif = uniform_feasible_count(inst)
    cost_cap = n_unif * float(sum(costs))
    if accept_kind == "residue-unscreened":
        prescreen = None
    elif accept_kind == "true":
        prescreen = BhattacharyyaScreen(inst)
    else:
        prescreen = TangentTable(inst)
    if accept_kind == "surrogate":
        # the surrogate check exact_opt runs behind the prescreen
        def accept(counts):
            return is_surrogate_feasible(inst, counts).feasible or None

    elif accept_kind == "true":
        # exact_opt(problem="true")'s check, behind the Bhattacharyya screen;
        # every search below asks for the same plans, so each is scored once
        @functools.cache
        def accept(counts):
            errors = exact_error_table(inst, counts).errors
            return all(e <= a for e, a in zip(errors, inst.tolerances)) or None

    else:
        # an arbitrary accepted set, spread over batch edges
        def accept(counts):
            key = sum(c * (7 + 3 * k) ** 2 for k, c in enumerate(counts))
            return key if key % 401 == residue else None

    kwargs = {"prescreen": prescreen}
    limit = TRUE_WALK_LIMIT if accept_kind == "true" else WALK_LIMIT
    found = assert_same_search(accept, costs, cost_cap, limit, **kwargs)
    if isinstance(found, str):
        budgets = [limit // 3]
    else:
        walk = lattice_ascending(costs, cost_cap)
        stop = len(list(walk)) if found is None else found[2]
        budgets = [stop - 1, stop + 100]  # just below and above the outcome
    for budget in budgets:
        assert_same_search(accept, costs, cost_cap, budget, **kwargs)


def left_fold(costs, counts):
    """A plan's cost as both walks add it: costs[m] r_m times, in order."""
    cost = 0.0
    for c, r in zip(costs, counts):
        for _ in range(r):
            cost += c
    return cost


# Plans a walk-order example compares; longer walks compare their prefix.
ORDER_LIMIT = 3000

WALK_COSTS = st.one_of(
    st.integers(1, 30).map(lambda k: k / 10),  # multiples of 0.1: ties
    st.just(1.0),  # equal costs: large tie classes
    st.floats(1e-3, 1e3),
)


@settings(max_examples=120, deadline=None)
@given(
    costs=st.lists(WALK_COSTS, min_size=1, max_size=5),
    cheap_last=st.booleans(),
    cap_kind=st.sampled_from(["below 0", "0", "below cheapest", "inf", "finite"]),
    scale=st.floats(0.0, 1.0),
)
def test_banded_walk_yields_the_heap_sequence(costs, cheap_last, cap_kind, scale):
    if cheap_last:
        costs = costs + [min(costs) / 50]
    cheapest = min(costs)
    cost_cap = {
        "below 0": -1.0 - scale,
        "0": 0.0,
        "below cheapest": scale * cheapest * 0.99,
        "inf": math.inf,
        "finite": scale * 12 * max(costs),
    }[cap_kind]
    walk = lattice_ascending(costs, cost_cap)
    heap = [counts for _, counts in itertools.islice(walk, ORDER_LIMIT)]
    walked = []
    edges = []
    for band in lattice_bands(costs, cost_cap):
        assert band.dtype == np.int64 and band.shape[1] == len(costs) and len(band)
        edges.append((tuple(band[0].tolist()), tuple(band[-1].tolist())))
        walked.extend(tuple(row) for row in band.tolist())
        if len(walked) >= ORDER_LIMIT:
            break
    assert walked[:ORDER_LIMIT] == heap
    if cap_kind in ("below 0", "0", "below cheapest"):
        assert walked == [(0,) * len(costs)]
    # ties never split across bands: each band costs more than the last
    for (_, last), (first, _) in zip(edges, edges[1:]):
        assert left_fold(costs, last) < left_fold(costs, first)


def test_banded_walk_continues_runs_past_float_drift():
    # thousands of adds of one cheap cost fold to less than start + j * c,
    # so the columns sized from the band's width can end short of its edge
    costs, cost_cap = (0.0005987520159159514,), 8.723571011758693
    bands = lattice_bands(costs, cost_cap)
    banded = [tuple(row) for band in bands for row in band.tolist()]
    assert banded == [counts for _, counts in lattice_ascending(costs, cost_cap)]


# The guarantee pool's largest search: its costs, its cap and its length.
GUARANTEE_COSTS = (0.9405343761003392, 0.7228358286865199, 0.889838117171245)
GUARANTEE_CAP = 150.63929099552814
GUARANTEE_PLANS = 47_932

# tracemalloc peak of lattice_bands over that search: 317-324 KB on numpy
# 2.4 when this bound was set, which leaves about a fifth for headroom. The
# heap walk's peak read 372 KB in a fresh process (less once tuple free
# lists are warm, so it is no fixed yardstick); bands of up to 16,384
# plans read 1.6 MB.
WALK_PEAK_BYTES = 400_000


def test_walk_footprint_is_bounded():
    tracemalloc.start()
    try:
        walked = 0
        for band in lattice_bands(GUARANTEE_COSTS, GUARANTEE_CAP):
            walked += len(band)
            if walked >= GUARANTEE_PLANS:
                break
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WALK_PEAK_BYTES
