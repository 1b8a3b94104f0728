"""The batched cost-ordered search against a one-plan-at-a-time reference.

search_lattice prescreens plans a cost band at a time but must behave
exactly like the loop below, which both solvers ran before: the same plan,
result and enumerated count, the same accept calls in the same order, and
the same budget error at the same plan. Its banded numpy walk, _Bands,
behind KEEP_ALL, a screen that keeps every plan, must yield the
reference heap walk's plans in the same order, in bounded memory. Past
its first band, a walk under a screen with halfspaces materializes only
each band's candidates, and its bands grow past KEEP_ALL's size; the
searches must not tell.
"""

from __future__ import annotations

import bisect
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
    SurrogateWalk,
    _Bands,
    _least_count,
    _top,
    exact_error_table,
    exact_opt,
    search_lattice,
)
from queryplan.experiments import random_instance
from queryplan.planner import _search_cap, run_afptas
from reference_lattice import KEEP_ALL, lattice_ascending


def per_plan_search(costs, cost_cap, accept, node_budget, prescreen, walk=None):
    """The reference: walk, budget check and prescreen one plan at a time.
    walk, if given, is a prefix of lattice_ascending's plans at least
    node_budget + 1 long, or the whole capped walk."""
    enumerated = 0
    if walk is None:
        walk = (counts for _, counts in lattice_ascending(costs, cost_cap))
    for counts in walk:
        enumerated += 1
        if enumerated > node_budget:
            raise EnumerationBudgetError(
                f"search enumerated more than {node_budget} plans"
            )
        if not per_plan_keeps(prescreen, counts):
            continue
        result = accept(counts)
        if result is not None:
            return counts, result, enumerated
    return None


def per_plan_keeps(prescreen, counts):
    """One plan through any of the screens, its bounds written out per pair."""
    r = np.asarray(counts, dtype=float)
    if prescreen is KEEP_ALL:
        return True
    if isinstance(prescreen, TangentTable):
        lb = prescreen.min_amp * np.exp(-(prescreen.w_max @ r))
        return not (prescreen.label_mask @ lb > prescreen.alpha_cap).any()
    for log_m, (p, q), cap in zip(prescreen.log_bc, prescreen.weights, prescreen.cap):
        bc2 = math.exp(2.0 * float(log_m @ r))
        bayes = 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * p * q * bc2)))
        if bayes * (1.0 - 1e-9) > cap:
            return False
    return True


def run_logged(search, accept, costs, cost_cap, node_budget, prescreen):
    """(outcome, accept calls): the search's return value, or the message
    of its budget error, with every plan it handed to accept."""
    calls = []

    def logged(counts):
        calls.append(counts)
        return accept(counts)

    try:
        return search(costs, cost_cap, logged, node_budget, prescreen), calls
    except EnumerationBudgetError as exc:
        return f"EnumerationBudgetError: {exc}", calls


def assert_same_search(accept, costs, cost_cap, node_budget, prescreen=KEEP_ALL):
    """Runs the engine and the reference; returns their common outcome."""
    args = (costs, cost_cap, node_budget, prescreen)
    got = run_logged(search_lattice, accept, *args)
    assert got == run_logged(per_plan_search, accept, *args)
    return got[0]


# The walk the position test searches, and its first three band edges:
# the last position of each band and the positions on either side of it.
EDGE_COSTS, EDGE_CAP = (1.0, 1.5, 2.0), 60.0
BAND_ENDS = [
    band.end
    for band in itertools.islice(_Bands(EDGE_COSTS, EDGE_CAP, KEEP_ALL), 3)
]
EDGE_POSITIONS = [end + side for end in BAND_ENDS for side in (-1, 0, 1)]


@pytest.mark.parametrize("position", [1, 2, *EDGE_POSITIONS, 500, 4000])
def test_accept_position_and_budget_across_batch_edges(position):
    walk = [counts for _, counts in lattice_ascending(EDGE_COSTS, EDGE_CAP)]
    target = walk[position - 1]

    def accept(counts):
        return sum(counts) if counts == target else None

    found = assert_same_search(accept, EDGE_COSTS, EDGE_CAP, position)
    assert found == (target, sum(target), position)
    assert assert_same_search(accept, EDGE_COSTS, EDGE_CAP, 10**6) == found
    blown = assert_same_search(accept, EDGE_COSTS, EDGE_CAP, position - 1)
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
        prescreen = KEEP_ALL
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
        # an arbitrary accepted set, spread over band edges
        def accept(counts):
            key = sum(c * (7 + 3 * k) ** 2 for k, c in enumerate(counts))
            return key if key % 401 == residue else None

    limit = TRUE_WALK_LIMIT if accept_kind == "true" else WALK_LIMIT
    found = assert_same_search(accept, costs, cost_cap, limit, prescreen)
    if isinstance(found, str):
        budgets = [limit // 3]
    else:
        walk = lattice_ascending(costs, cost_cap)
        stop = len(list(walk)) if found is None else found[2]
        budgets = [stop - 1, stop + 100]  # just below and above the outcome
    for budget in budgets:
        assert_same_search(accept, costs, cost_cap, budget, prescreen)


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
    for band in _Bands(costs, cost_cap, KEEP_ALL):
        plans = band.plans
        assert plans.dtype == np.int64 and plans.shape[1] == len(costs) and len(plans)
        edges.append((tuple(plans[0].tolist()), tuple(plans[-1].tolist())))
        walked.extend(tuple(row) for row in plans.tolist())
        if len(walked) >= ORDER_LIMIT:
            break
    assert walked[:ORDER_LIMIT] == heap
    if cap_kind in ("below 0", "0", "below cheapest"):
        assert walked == [(0,) * len(costs)]
    # ties never split across bands: each band costs more than the last
    for (_, last), (first, _) in zip(edges, edges[1:]):
        assert left_fold(costs, last) < left_fold(costs, first)


@settings(max_examples=120, deadline=None)
@given(
    costs=st.lists(WALK_COSTS, min_size=1, max_size=4),
    cap_kind=st.sampled_from(["plan", "scaled"]),
    pick=st.floats(0.0, 1.0),
)
def test_capped_walk_is_a_prefix_of_the_uncapped_walk(costs, cap_kind, pick):
    # the uncapped walk's plans and their folds, as a SurrogateWalk reads
    # them, up to ORDER_LIMIT plans
    walk = _Bands(costs, math.inf, KEEP_ALL)
    plans, folds = [], []
    while len(plans) < ORDER_LIMIT:
        band = next(walk)
        plans.extend(tuple(row) for row in band.plans.tolist())
        folds.extend(band.folds.tolist())
    assert folds == sorted(folds)
    if cap_kind == "plan":  # a cap equal to a walked plan's cost
        cost_cap = folds[int(pick * (len(plans) - 1))]
    else:
        cost_cap = pick * 12 * max(costs)
    # the capped walk is the prefix of plans whose fold is below top
    below = bisect.bisect_left(folds, _top(cost_cap))
    capped = []
    for band in _Bands(costs, cost_cap, KEEP_ALL):
        capped.extend(tuple(row) for row in band.plans.tolist())
        if len(capped) > len(plans):
            break
    if below < len(plans):
        assert capped == plans[:below]
    else:
        assert capped[: len(plans)] == plans


def test_one_walk_serves_every_cost_cap(duo):
    exact = exact_opt(duo, problem="surrogate")
    certs = [run_afptas(duo, eps) for eps in (0.1, 0.5, 1.0)]
    # four searches under two caps, on one walk
    assert all(exact.cost_cap < _search_cap(duo, c.constants) for c in certs)
    walks = [v for v in vars(duo)["_search"].values() if isinstance(v, SurrogateWalk)]
    assert len(walks) == 1


def test_banded_walk_continues_runs_past_float_drift():
    # thousands of adds of one cheap cost fold to less than start + j * c,
    # so the columns sized from the band's width can end short of its edge
    costs, cost_cap = (0.0005987520159159514,), 8.723571011758693
    bands = _Bands(costs, cost_cap, KEEP_ALL)
    banded = [tuple(row) for band in bands for row in band.plans.tolist()]
    assert banded == [counts for _, counts in lattice_ascending(costs, cost_cap)]


def walk_search(walk):
    """SurrogateWalk.search with search_lattice's arguments; the walk
    brings its own prescreen and has no cap of its own."""
    return lambda costs, cost_cap, accept, node_budget, prescreen: walk.search(
        accept, node_budget, cost_cap
    )


# The longest prefix of a pruned walk a property example searches: it
# spans the walk's first bands past _BAND_MAX, which grow up to
# _BAND_PRUNED plans.
PRUNED_LIMIT = 16_000


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    alpha=st.floats(1e-4, 0.3),
    costs=st.lists(WALK_COSTS, min_size=3, max_size=3),
    screen_kind=st.sampled_from(["tangent", "bhattacharyya"]),
    cap_scale=st.one_of(st.just(math.inf), st.floats(0.0, 40.0)),
    accept_kind=st.sampled_from(["none", "residue"]),
    residue=st.integers(0, 400),
    edge=st.integers(0, 8),
)
def test_pruned_walk_matches_per_plan_search(
    seed, n_labels, alpha, costs, screen_kind, cap_scale, accept_kind, residue, edge
):
    # a screen with halfspaces prunes each band before its batch; the
    # searches must not tell, at budgets on either side of a band's end
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_labels=n_labels, max_models=3, alpha=alpha)
    costs = costs[: inst.n_models]
    cost_cap = cap_scale * max(costs)
    if screen_kind == "tangent":
        screen = TangentTable(inst)
    else:
        screen = BhattacharyyaScreen(inst)
    assert screen.halfspaces is not None

    def accept(counts):
        if accept_kind == "none":
            return None
        key = sum(c * (7 + 3 * k) ** 2 for k, c in enumerate(counts))
        return key if key % 401 == residue else None

    ends = []
    for band in _Bands(costs, cost_cap, screen):
        ends.append(band.end)
        if band.end >= PRUNED_LIMIT:
            break
    if ends[-1] > PRUNED_LIMIT and len(ends) > 1:
        ends.pop()
    end = ends[min(edge, len(ends) - 1)]
    walk = [
        counts
        for _, counts in itertools.islice(lattice_ascending(costs, cost_cap), end + 2)
    ]
    reference = functools.partial(per_plan_search, walk=walk)
    searches = [search_lattice]
    if screen_kind == "tangent":
        searches.append(walk_search(SurrogateWalk(screen, costs)))
    for budget in (end - 1, end, end + 1):
        args = (costs, cost_cap, budget, screen)
        want = run_logged(reference, accept, *args)
        for search in searches:
            assert run_logged(search, accept, *args) == want


def test_least_count_matches_brute_force():
    # small binary fractions keep every product and sum exact, so the least
    # count is the brute-force one; a halfspace with a zero last weight
    # holds for all counts or none, and is left out
    rng = np.random.default_rng(7)
    for _ in range(200):
        H, K = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        weights = rng.integers(0, 9, size=(H, K)) / 4.0
        weights[rng.random(H) < 0.3, -1] = 0.0
        floors = rng.integers(-8, 40, size=H) / 4.0
        prefixes = rng.integers(0, 6, size=(20, K - 1))
        got = _least_count(weights, floors)(prefixes)
        steep = weights[:, -1] > 0.0
        for prefix, least in zip(prefixes, got):
            plans = np.column_stack([np.tile(prefix, (200, 1)), np.arange(200)])
            meets = (plans @ weights[steep].T >= floors[steep]).all(axis=1)
            assert least == np.flatnonzero(meets)[0]
            assert meets[int(least) :].all()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    alpha=st.floats(1e-4, 0.3),
    top=st.integers(1, 300),
)
def test_kept_plans_meet_the_screens_halfspaces(seed, n_labels, alpha, top):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_labels=n_labels, max_models=3, alpha=alpha)
    plans = rng.integers(0, top + 1, size=(2000, inst.n_models)).astype(float)
    for screen in (TangentTable(inst), BhattacharyyaScreen(inst)):
        weights, floors = screen.halfspaces
        assert (weights >= 0.0).all()
        kept = plans[screen.passes(plans)]
        assert (kept @ weights.T >= floors).all()


# The seed-42 guarantee sweep's two longest surrogate searches: draws 6 and
# 2 of its stream, with their optima and walk positions.
LONG_WALKS = {6: ((0, 58, 0), 47_932), 2: ((253, 0), 22_920)}


def guarantee_draw(index):
    rng = np.random.default_rng(42)
    for _ in range(index + 1):
        inst = random_instance(rng, n_labels=2, max_models=3, alpha=1e-3)
    return inst


@pytest.mark.parametrize("index", sorted(LONG_WALKS))
def test_long_screened_walks_keep_their_optima(index):
    plan, enumerated = LONG_WALKS[index]
    opt = exact_opt(guarantee_draw(index), problem="surrogate")
    assert (opt.plan.counts, opt.enumerated) == (plan, enumerated)


# The guarantee pool's largest search: its costs, its cap and its length.
GUARANTEE_COSTS = (0.9405343761003392, 0.7228358286865199, 0.889838117171245)
GUARANTEE_CAP = 150.63929099552814
GUARANTEE_PLANS = 47_932

# tracemalloc peak of search_lattice over that search behind KEEP_ALL,
# whose every plan is a candidate, so that every band past the first is
# materialized whole and keeps _BAND_MAX's size, accepting nothing: 308-310
# KB on numpy 2.4.6, with each live prefix's least count, as each band is
# freed before the next is screened (372-377 KB while it was not). The
# heap walk's peak read 372 KB in a fresh process (less once tuple free
# lists are warm, so it is no fixed yardstick); bands of up to 16,384
# plans read 1.6 MB.
WALK_PEAK_BYTES = 400_000

# The search exact_opt runs on that walk: draw 6's SurrogateWalk, pruned
# by its TangentTable's halfspaces, in bands of up to _BAND_PRUNED plans
# whose folds, not counts, are held whole. Its peak reads 395 KB with the
# lists of rows and rejects the walk keeps per band (386-387 KB with the
# rejects as a bool array), and read 312 KB in bands of up to _BAND_MAX
# plans each materialized whole; this bound leaves a sixth for headroom.
SCREENED_PEAK_BYTES = 460_000


def traced_peak(run):
    """tracemalloc's peak, in bytes, over one call of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_footprint_is_bounded():
    def search():
        costs, cap = GUARANTEE_COSTS, GUARANTEE_CAP
        with pytest.raises(EnumerationBudgetError):
            search_lattice(costs, cap, lambda counts: None, GUARANTEE_PLANS, KEEP_ALL)

    # the same search with the models in draw order, as exact_opt runs it
    inst = guarantee_draw(6)
    table = TangentTable(inst)
    costs = [m.cost for m in inst.models]
    plan, enumerated = LONG_WALKS[6]
    assert enumerated == GUARANTEE_PLANS

    def screened():
        walk = SurrogateWalk(table, costs)
        found = walk.search(lambda c: c == plan or None, 10**6, GUARANTEE_CAP)
        assert found == (plan, True, enumerated)

    assert traced_peak(search) <= WALK_PEAK_BYTES
    assert traced_peak(screened) <= SCREENED_PEAK_BYTES
