from __future__ import annotations

import itertools
import math
import re
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    labelled_plans,
    near_threshold_instance,
    symmetric_instance,
    symmetric_labels_instance,
    three_label_draw,
    two_label_plans,
)
from queryplan.bounds import (
    BhattacharyyaScreen,
    is_surrogate_feasible,
    surrogate_error,
    uniform_feasible_count,
)
from queryplan.exact import (
    DELTA_TOL,
    NODE_BUDGET,
    PROFILE_BUDGET,
    EnumerationBudgetError,
    InfeasibleWithinCapError,
    _Bands,
    _Block,
    _composition_columns,
    _compositions,
    _log_factorial,
    _model_blocks,
    _ProfileMemo,
    _profile_mass,
    _scan_profiles,
    _split_accept,
    _split_bounds,
    _PROFILES,
    exact_error,
    exact_error_table,
    exact_opt,
    exact_pairwise,
    profile_count,
)
from queryplan.experiments import random_instance, random_plan
from queryplan.instances import Instance, ModelSpec, QueryPlan, as_plan, plan_cost
from queryplan.likelihood import (
    SCORE_TOL,
    TIE_POLICIES,
    _delta_margin,
    _error_mask,
    _log_scale,
)
from reference_lattice import KEEP_ALL, lattice_ascending

# binomial tail oracles for the two-symbol reference model with p = 0.9:
# P(Bin(6, 0.1) >= 3) and P(Bin(6, 0.1) >= 4)
TAIL_6_3 = 0.01585
TAIL_6_4 = 0.00127


def naive_sequence_pairwise(
    instance: Instance,
    plan: QueryPlan | Sequence[int],
    y: int | str,
    y_other: int | str,
) -> float:
    """Reference pairwise probability by raw sequence enumeration.

    Iterates every response sequence rather than count profiles; tractable
    only for tiny plans, and used to cross-check the profile path.
    """
    plan = as_plan(plan, instance)
    yi = instance.label_index(y)
    yj = instance.label_index(y_other)
    slots: list[np.ndarray] = []
    for m, r in zip(instance.models, plan.counts):
        slots.extend([m.log_conditional] * r)
    total = 0.0
    prior_gap = float(instance.log_prior[yj] - instance.log_prior[yi])
    for combo in itertools.product(*(range(lc.shape[1]) for lc in slots)):
        lp_i = sum(lc[yi, x] for lc, x in zip(slots, combo))
        lp_j = sum(lc[yj, x] for lc, x in zip(slots, combo))
        if prior_gap + lp_j - lp_i >= -DELTA_TOL:
            total += math.exp(lp_i)
    return total


def test_profile_count(bsc, duo):
    assert profile_count(bsc, (6,)) == 7
    assert profile_count(duo, (2, 3)) == 12
    assert profile_count(duo, (0, 0)) == 1


def test_exact_pairwise_binomial_tail(bsc):
    assert exact_pairwise(bsc, (6,), "1", "2") == pytest.approx(TAIL_6_3, rel=1e-12)
    assert exact_pairwise(bsc, (6,), "2", "1") == pytest.approx(TAIL_6_3, rel=1e-12)
    with pytest.raises(ValueError, match="distinct"):
        exact_pairwise(bsc, (6,), "1", "1")


@pytest.mark.parametrize(
    "plan,policy,expected",
    [
        # six queries: ties impossible at odd margins, tie row is 3-3
        ((6,), "lowest-index", {"1": TAIL_6_4, "2": TAIL_6_3}),
        ((6,), "count-tie-as-error", {"1": TAIL_6_3, "2": TAIL_6_3}),
        # two queries: the 1-1 tie goes to label 1 under lowest-index
        ((2,), "lowest-index", {"1": 0.01, "2": 0.19}),
        ((2,), "count-tie-as-error", {"1": 0.19, "2": 0.19}),
        # no queries: the uniform prior ties outright
        ((0,), "lowest-index", {"1": 0.0, "2": 1.0}),
        ((0,), "count-tie-as-error", {"1": 1.0, "2": 1.0}),
    ],
)
def test_exact_error_hand_values(bsc, plan, policy, expected):
    for label, err in expected.items():
        assert exact_error(bsc, plan, label, policy) == pytest.approx(
            err, abs=1e-12
        )


def test_exact_error_table(bsc):
    table = exact_error_table(bsc, (6,))
    assert table.labels == ("1", "2")
    assert table.tie_policy == "lowest-index"
    assert table.profiles == 7
    assert table.errors[0] == pytest.approx(TAIL_6_4, rel=1e-12)
    d = table.to_dict()
    assert d["errors"][1]["label"] == "2"
    assert d["errors"][1]["error"] == pytest.approx(TAIL_6_3, rel=1e-12)


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_profile_path_matches_sequence_enumeration(bsc, r):
    fast = exact_pairwise(bsc, (r,), "1", "2")
    slow = naive_sequence_pairwise(bsc, (r,), "1", "2")
    assert fast == pytest.approx(slow, abs=1e-12)


def test_profile_path_matches_sequences_two_models(duo):
    for plan in [(0, 0), (1, 0), (2, 1), (1, 2)]:
        fast = exact_pairwise(duo, plan, "2", "1")
        slow = naive_sequence_pairwise(duo, plan, "2", "1")
        assert fast == pytest.approx(slow, abs=1e-12)


def test_lattice_ascending_order_and_coverage():
    costs = (1.0, 2.5)
    cap = 5.0
    walked = list(lattice_ascending(costs, cap))
    brute = sorted(
        (
            (a * costs[0] + b * costs[1], (a, b))
            for a, b in itertools.product(range(6), range(3))
            if a * costs[0] + b * costs[1] <= cap + 1e-9
        ),
    )
    assert walked == brute
    bands = _Bands(costs, cap, KEEP_ALL)
    banded = [tuple(row) for band in bands for row in band.plans.tolist()]
    assert banded == [counts for _, counts in brute]


def test_compositions_match_filtered_product():
    # caps below the total are dp_solve's case; totals reach past width * cap
    for width, total, cap in itertools.product(range(1, 5), range(30), range(8)):
        expected = [
            v
            for v in itertools.product(range(cap + 1), repeat=width)
            if sum(v) == total
        ]
        got = _compositions(total, width, cap)
        assert got.dtype == np.int64
        assert got.shape == (len(expected), width)
        assert got.tolist() == [list(v) for v in expected]


def test_closed_form_compositions_match_the_column_build():
    # widths 1 and 2 are written in closed form; every width returns the
    # column build's int64 rows in the same order, capped or not
    for width, total, cap in itertools.product(range(1, 5), range(40), range(41)):
        got = _compositions(total, width, cap)
        want = _composition_columns(total, width, cap)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        assert got.tolist() == want.tolist()


def test_compositions_of_uncapped_totals():
    # the profile blocks' case, cap == total, at sizes the searches build: as
    # many rows as compositions, each a composition, in strictly increasing
    # lexicographic order, so each composition exactly once
    for width, total in itertools.product(range(1, 5), [0, 1, 2, 29, 60]):
        got = _compositions(total, width, total)
        assert len(got) == math.comb(total + width - 1, width - 1)
        assert got.shape[1] == width and (got >= 0).all()
        assert (got.sum(axis=1) == total).all()
        rows = got.tolist()
        assert all(a < b for a, b in zip(rows, rows[1:]))


def test_log_factorial_matches_scipy_gammaln_bit_for_bit():
    # exact errors must not move when scipy's gammaln is replaced; the range
    # crosses the helper's branch edges at x = 13 and x = 1000, and the
    # large values its cut-off at x = 1e8
    gammaln = pytest.importorskip("scipy.special").gammaln
    ks = list(range(100_001)) + [10**8 - 1, 10**8, 10**8 + 5, 10**9]
    got = np.array([_log_factorial(k) for k in ks])
    want = gammaln(np.array(ks, dtype=float) + 1.0)
    assert np.flatnonzero(got != want).tolist() == []


def test_log_factorial_table_grows_from_the_scalar(monkeypatch):
    # the memo's entries read one table, grown on demand: its entries are
    # _log_factorial's, and a block built from a grown table is the block
    # built from a fresh one; a table past the memo's bound is not kept
    memo = _ProfileMemo()
    small = memo._log_factorials(5)
    assert memo._log_factorials(3) is small
    grown = memo._log_factorials(40)
    assert grown.tolist() == [_log_factorial(k) for k in range(41)]
    inst = symmetric_instance([0.75, 0.6])
    plan = QueryPlan((7, 3))
    fresh = _model_blocks(inst, plan, {})
    monkeypatch.setattr("queryplan.exact._PROFILES", memo)
    shared = _model_blocks(inst, plan, {})
    for a, b in zip(fresh, shared):
        assert a.table.tobytes() == b.table.tobytes()
    bounded = _ProfileMemo(bound=10)
    assert bounded._log_factorials(20).tolist() == grown[:21].tolist()
    assert len(bounded._log_factorials(0)) == 1  # the 21 values were not kept


def direct_coefficients(r: int, width: int) -> np.ndarray:
    """The log multinomial coefficients of the compositions of r into
    width symbols, from _log_factorial."""
    log_fact = np.array([_log_factorial(j) for j in range(r + 1)])
    return log_fact[r] - log_fact[_compositions(r, width, r)].sum(axis=1)


def direct_table(inst: Instance, k: int, r: int) -> np.ndarray:
    """Model k's profile block at count r, built within the call that reads
    it: the compositions, their log-likelihoods by one matrix product and
    their log multinomial coefficients."""
    m = inst.models[k]
    profiles = _compositions(r, m.n_symbols, r)
    table = np.empty((len(profiles), inst.n_labels + 1))
    table[:, :-1] = profiles.astype(float) @ m.log_conditional.T
    table[:, -1] = direct_coefficients(r, m.n_symbols)
    return table


@st.composite
def wide_plans(draw) -> tuple[Instance, QueryPlan]:
    """Plans of 0-40 queries of 1-3 models of 2-4 symbols each, over 2-4
    labels, with random conditionals."""
    n_labels = draw(st.integers(2, 4))
    widths = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    n = len(widths)
    counts = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = tuple(
        ModelSpec(f"m{k}", tuple("abcd"[:w]), rng.dirichlet(np.ones(w), n_labels), 1.0)
        for k, w in enumerate(widths)
    )
    prior = rng.dirichlet(np.ones(n_labels))
    labels = tuple(str(y) for y in range(n_labels))
    inst = Instance(labels, prior, models, np.full(n_labels, 0.05))
    return inst, QueryPlan(tuple(counts))


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=60, deadline=None)
@given(case=wide_plans())
@example(case=(symmetric_instance([0.9]), QueryPlan((0,))))
def test_blocks_from_the_memo_match_a_direct_build(case):
    # each block, and each sorted view the split reads of it, is the block
    # built within the call, bit for bit, with the memo cleared and warm
    inst, plan = case
    want = [direct_table(inst, k, r) for k, r in enumerate(plan.counts) if r]
    if not want:
        want = [np.zeros((1, inst.n_labels + 1))]
    pairs = list(itertools.combinations(range(inst.n_labels), 2))
    _PROFILES.clear()
    for _ in ("cleared", "warm"):
        blocks = _model_blocks(inst, plan, {})
        assert len(blocks) == len(want)
        for block, table in zip(blocks, want):
            assert same_bits(block.table, table)
            direct = _Block(table)
            for y, z in pairs:
                got, expected = block.sorted(y, z), direct.sorted(y, z)
                assert all(same_bits(a, b) for a, b in zip(got, expected))


def test_memo_entries_are_read_only():
    profiles, coef = _PROFILES.get(6, 3)
    assert same_bits(profiles, _compositions(6, 3, 6).astype(float))
    for a in (profiles, coef):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_memo_keeps_within_its_bound():
    # entries of width X count X + 1 floats a row; the least recently used
    # leave first, and an entry larger than the bound is never kept
    memo = _ProfileMemo(bound=200)
    lru: dict[tuple[int, int], int] = {}  # a reference, in use order
    for r, width in [(3, 2), (10, 2), (4, 3), (3, 2), (6, 3), (12, 2), (4, 3), (3, 4)]:
        profiles, coef = memo.get(r, width)
        assert same_bits(profiles, _compositions(r, width, r).astype(float))
        assert same_bits(coef, direct_coefficients(r, width))
        lru[r, width] = lru.pop((r, width), len(coef) * (width + 1))
        while sum(lru.values()) > 200:
            del lru[next(iter(lru))]
        assert list(memo._entries) == list(lru)
        assert memo.held == sum(lru.values()) <= 200
    kept = list(memo._entries)
    assert kept == [(12, 2), (4, 3), (3, 4)]
    profiles, coef = memo.get(30, 3)  # 496 rows of 4 floats
    assert len(coef) == 496 and same_bits(coef, direct_coefficients(30, 3))
    assert list(memo._entries) == kept
    assert memo.held == sum(lru.values())


def test_exact_opt_true_vs_surrogate(bsc):
    # under the bound, six queries are needed; the exact criterion needs
    # only three (two still fails: the tie row costs label 2 error 0.19)
    true_opt = exact_opt(bsc, problem="true")
    assert true_opt.plan.counts == (3,)
    assert true_opt.cost == pytest.approx(3.0)
    assert true_opt.tie_policy == "lowest-index"
    tie_opt = exact_opt(bsc, problem="true", tie_policy="count-tie-as-error")
    assert tie_opt.plan.counts == (3,)
    sur_opt = exact_opt(bsc, problem="surrogate")
    assert sur_opt.plan.counts == (6,)
    assert sur_opt.cost == pytest.approx(6.0)
    assert sur_opt.tie_policy is None
    assert sur_opt.to_dict()["plan"] == [6]


def test_exact_opt_prefers_cheap_accuracy_tradeoff(duo):
    # three sharp queries (cost 7.5) beat any cheap-model-only plan
    opt = exact_opt(duo, problem="surrogate")
    assert opt.plan.counts == (0, 3)
    assert opt.cost == pytest.approx(7.5)


def test_exact_opt_budget_and_cap_errors(bsc, duo):
    with pytest.raises(InfeasibleWithinCapError):
        exact_opt(bsc, problem="true", cost_cap=2.0)
    with pytest.raises(EnumerationBudgetError):
        exact_opt(duo, problem="surrogate", node_budget=2)
    with pytest.raises(EnumerationBudgetError, match="profiles"):
        exact_error(bsc, (6,), "1", budget=3)


def test_exact_opt_argument_validation(bsc):
    with pytest.raises(ValueError, match="problem"):
        exact_opt(bsc, problem="approximate")
    with pytest.raises(ValueError, match="tie policy"):
        exact_opt(bsc, problem="true", tie_policy="random")
    with pytest.raises(ValueError, match="tie policy"):
        exact_error(bsc, (2,), "1", tie_policy="random")
    with pytest.raises(ValueError, match="tie policy"):
        exact_error_table(bsc, (2,), tie_policy="random")


# Values no work budget takes: a bool, a float, a string and a negative int.
BAD_BUDGETS = [(True, "bool"), (10**6 + 0.5, "float"), ("10", "str"), (-1, "-1")]


@pytest.mark.parametrize("value, named", BAD_BUDGETS)
@pytest.mark.parametrize("problem", ["surrogate", "true"])
def test_exact_opt_rejects_a_bad_node_budget(bsc, problem, value, named):
    with pytest.raises(ValueError, match=f"node_budget must be .*{named}"):
        exact_opt(bsc, problem=problem, node_budget=value)


@pytest.mark.parametrize("value, named", BAD_BUDGETS)
@pytest.mark.parametrize("problem", ["surrogate", "true"])
def test_exact_opt_rejects_a_bad_profile_budget(bsc, problem, value, named):
    with pytest.raises(ValueError, match=f"profile_budget must be .*{named}"):
        exact_opt(bsc, problem=problem, profile_budget=value)


@pytest.mark.parametrize("value, named", BAD_BUDGETS)
def test_exact_errors_reject_a_bad_budget(bsc, value, named):
    match = f"budget must be .*{named}"
    with pytest.raises(ValueError, match=match):
        exact_error(bsc, (2,), "1", budget=value)
    with pytest.raises(ValueError, match=match):
        exact_pairwise(bsc, (2,), "1", "2", budget=value)
    with pytest.raises(ValueError, match=match):
        exact_error_table(bsc, (2,), budget=value)


def test_budgets_take_any_non_negative_integer(bsc):
    # numpy integers are integers; zero is a budget, if a small one
    assert exact_opt(bsc, node_budget=np.int64(100)).plan.counts == (6,)
    want = exact_error(bsc, (2,), "1")
    assert exact_error(bsc, (2,), "1", budget=np.uint8(3)) == want
    with pytest.raises(EnumerationBudgetError, match="profiles"):
        exact_error_table(bsc, (2,), budget=0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    alpha=st.floats(0.05, 0.3),
    max_total=st.integers(0, 5),
)
# an optimum past NODE_BUDGET: plan (377, 1, 0) at position 1,438,956
@example(seed=83032, n_labels=4, alpha=0.25, max_total=0)
def test_error_chain_and_surrogate_optimum_up_to_four_labels(
    seed, n_labels, alpha, max_total
):
    # criterion 2's chain and slack, on label counts the suite does not draw
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_labels=n_labels, max_models=3, alpha=alpha)
    plan = random_plan(rng, inst, max_total)
    for yi in range(n_labels):
        pair_sum = math.fsum(
            exact_pairwise(inst, plan, yi, yj) for yj in range(n_labels) if yj != yi
        )
        assert pair_sum <= surrogate_error(inst, plan, yi) + 1e-12
        for policy in TIE_POLICIES:
            assert exact_error(inst, plan, yi, policy) <= pair_sum + 1e-12
    # exact_opt and is_surrogate_feasible run one surrogate check; a budget
    # error must mean the optimum lies past the budget
    try:
        opt = exact_opt(inst, problem="surrogate")
    except EnumerationBudgetError:
        opt = exact_opt(inst, problem="surrogate", node_budget=20 * NODE_BUDGET)
        assert opt.enumerated > NODE_BUDGET
    assert is_surrogate_feasible(inst, opt.plan).feasible


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    max_total=st.integers(0, 10),
)
def test_bhattacharyya_bound_is_below_exact_pair_errors(seed, n_labels, max_total):
    # the screen's bound holds for any decision rule, so for the MAP rule
    # under either tie policy
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_labels=n_labels, max_models=3)
    screen = BhattacharyyaScreen(inst)
    for _ in range(3):
        plan = random_plan(rng, inst, max_total)
        bounds = screen.lower_bounds(plan.as_array().astype(float)[None, :])[0]
        for policy in TIE_POLICIES:
            err = exact_error_table(inst, plan, policy).errors
            for (i, j), (p, q), bound in zip(screen.pairs, screen.weights, bounds):
                assert 0.0 <= bound <= p * err[i] + q * err[j]


def reference_true_opt(
    instance: Instance,
    tie_policy: str,
    cost_cap: float,
    node_budget: int,
    profile_budget: int,
) -> tuple[tuple[int, ...], int] | None:
    """exact_opt(problem="true") without its screen and block cache: every
    plan in walk order, each label's error from fresh profile blocks.
    Returns (counts, enumerated) or None, or raises as exact_opt's search
    does at plan node_budget + 1."""
    wrong = _error_mask(tie_policy)
    costs = [m.cost for m in instance.models]
    for enumerated, (_, counts) in enumerate(lattice_ascending(costs, cost_cap), 1):
        if enumerated > node_budget:
            raise EnumerationBudgetError(
                f"search enumerated more than {node_budget} plans"
            )
        plan = QueryPlan(counts)
        if all(
            _profile_mass(instance, plan, yi, wrong, profile_budget, {})
            <= instance.tolerances[yi]
            for yi in range(instance.n_labels)
        ):
            return counts, enumerated
    return None


def assert_matches_reference(inst: Instance, tie_policy: str, node_budget: int):
    """exact_opt(problem="true") and the reference walk agree on the plan,
    its cost and its position, or raise the same budget error."""
    _, n_unif = uniform_feasible_count(inst)
    cost_cap = n_unif * float(sum(m.cost for m in inst.models))
    kwargs = {"problem": "true", "tie_policy": tie_policy, "node_budget": node_budget}
    try:
        want = reference_true_opt(
            inst, tie_policy, cost_cap, node_budget, PROFILE_BUDGET
        )
    except EnumerationBudgetError as exc:
        with pytest.raises(EnumerationBudgetError, match=re.escape(str(exc))):
            exact_opt(inst, **kwargs)
        return
    counts, enumerated = want
    opt = exact_opt(inst, **kwargs)
    assert opt.plan.counts == counts
    assert opt.cost == plan_cost(inst, counts)
    assert opt.enumerated == enumerated


def scan_only_true_opt(inst: Instance, **kwargs):
    """exact_opt(problem="true") with every accept decided by the profile
    scan: the sorted split always defers to it."""
    with mock.patch("queryplan.exact._split_accept", return_value=None):
        return exact_opt(inst, problem="true", **kwargs)


def assert_split_matches_scan(inst: Instance, tie_policy: str, **kwargs):
    """exact_opt(problem="true") returns the scan-only search's plan, cost
    and position, or raises the same budget error."""
    kwargs["tie_policy"] = tie_policy
    try:
        want = scan_only_true_opt(inst, **kwargs)
    except EnumerationBudgetError as exc:
        with pytest.raises(EnumerationBudgetError, match=re.escape(str(exc))):
            exact_opt(inst, problem="true", **kwargs)
        return
    opt = exact_opt(inst, problem="true", **kwargs)
    assert (opt.plan, opt.cost, opt.enumerated) == (
        want.plan,
        want.cost,
        want.enumerated,
    )


@pytest.mark.parametrize("policy", TIE_POLICIES)
@pytest.mark.parametrize("name", ["bsc", "asym", "duo"])
def test_exact_opt_true_matches_unscreened_walk_on_fixtures(request, name, policy):
    inst = request.getfixturevalue(name)
    assert_matches_reference(inst, policy, 10**6)
    assert_split_matches_scan(inst, policy)


# Plans the unscreened reference may walk per example; some draws walk ten
# thousand at alpha 0.3, and a longer search ends in the budget error,
# which both sides must raise alike.
REFERENCE_WALK_LIMIT = 150

# Plans the scan-only search may walk per example: four-label draws at
# alpha 0.02 may take seconds per thousand plans.
SCAN_WALK_LIMIT = 3000


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    alpha=st.floats(0.02, 0.3),
    policy=st.sampled_from(TIE_POLICIES),
)
def test_exact_opt_true_matches_unscreened_walk(seed, n_labels, alpha, policy):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_labels=n_labels, max_models=3, alpha=alpha)
    assert_matches_reference(inst, policy, REFERENCE_WALK_LIMIT)
    assert_split_matches_scan(inst, policy, node_budget=SCAN_WALK_LIMIT)


def test_screened_plans_no_longer_hit_the_profile_budget():
    # an uninformative 8-symbol model is cheap, and its plans have the most
    # profiles; the Bhattacharyya screen rules out every plan without at
    # least two sharp queries, so the search never scores the big plans
    noise = ModelSpec("noise", tuple("abcdefgh"), np.full((2, 8), 1 / 8), 3.0)
    sharp = ModelSpec("sharp", ("a", "b"), np.array([[0.9, 0.1], [0.1, 0.9]]), 10.0)
    inst = Instance(("1", "2"), np.array([0.5, 0.5]), (noise, sharp), np.full(2, 0.05))
    # unscreened, plan (6, 0) at cost 18 holds 1716 profiles
    with pytest.raises(EnumerationBudgetError, match="1716 profiles"):
        reference_true_opt(inst, "lowest-index", 78.0, 10**6, 1000)
    opt = exact_opt(inst, problem="true", profile_budget=1000)
    assert opt.plan.counts == (0, 3)
    assert opt.enumerated == 22
    assert exact_opt(inst, problem="true") == opt


# ---------------------------------------------------------------------------
# The sorted split: each label's error bounded by its pairs' score differences.
# ---------------------------------------------------------------------------


def split_bounds(
    inst: Instance, plan: QueryPlan, policy: str
) -> tuple[list[float], list[float]]:
    """Every label's (lower, upper) bounds once every pair is split."""
    margin = _delta_margin(inst, plan.counts, _log_scale(inst, plan.counts))
    for lower, upper in _split_bounds(inst, plan, policy, {}, margin):
        pass
    return lower, upper


def near_a_threshold(inst: Instance, plan: QueryPlan) -> bool:
    """Whether some profile of a two-label plan has its score difference
    within twice _delta_margin of a tie threshold, ±SCORE_TOL: the split
    computes it another way, within the margin of this."""
    margin = _delta_margin(inst, plan.counts, _log_scale(inst, plan.counts))
    deltas = np.concatenate(
        [
            scores[:, 1] - scores[:, 0]
            for scores, _ in _scan_profiles(inst, plan, PROFILE_BUDGET, {})
        ]
    )
    return bool((np.abs(np.abs(deltas) - SCORE_TOL) <= 2.0 * margin).any())


@settings(max_examples=200, deadline=None)
@given(case=two_label_plans(), policy=st.sampled_from(TIE_POLICIES))
@example(case=(symmetric_instance([0.9]), QueryPlan((2,))), policy="lowest-index")
@example(
    case=(symmetric_instance([0.9, 0.75]), QueryPlan((0, 0))),
    policy="count-tie-as-error",
)
def test_split_errors_match_profile_scan(case, policy):
    # exact ties (Δ = 0) lie far outside the margin, so with two labels both
    # bounds are the error, which is the scan's up to rounding
    inst, plan = case
    lower, upper = split_bounds(inst, plan, policy)
    assert lower == upper
    wrong = _error_mask(policy)
    for yi, got in enumerate(lower):
        want = _profile_mass(inst, plan, yi, wrong, PROFILE_BUDGET, {})
        assert abs(got - want) <= 1e-13 * want


@settings(max_examples=150, deadline=None)
@given(case=labelled_plans(), policy=st.sampled_from(TIE_POLICIES))
@example(
    case=(symmetric_labels_instance(3, [0.7]), QueryPlan((2,))),
    policy="lowest-index",
)
@example(
    case=(symmetric_labels_instance(4, [0.5, 0.9]), QueryPlan((3, 1))),
    policy="count-tie-as-error",
)
def test_split_bounds_bracket_exact_errors(case, policy):
    # lower ≤ exact error ≤ upper for every label, up to 1e-9 relative, the
    # least rounding band _split_accept allows; with two labels and no
    # profile in the margin, the bounds meet
    inst, plan = case
    lower, upper = split_bounds(inst, plan, policy)
    for yi in range(inst.n_labels):
        err = exact_error(inst, plan, yi, policy)
        assert lower[yi] <= err * (1.0 + 1e-9)
        assert err <= upper[yi] * (1.0 + 1e-9)
    if inst.n_labels == 2 and not near_a_threshold(inst, plan):
        assert lower == upper


def split_decisions(
    inst: Instance, policy: str
) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], bool]]:
    """The plans exact_opt(problem="true") hands to the scan because the
    split defers, in walk order, and the split's decision on every other
    plan it saw."""
    deferred = []
    decided = {}

    def spy(instance, plan, *args):
        met = _split_accept(instance, plan, *args)
        if met is None:
            deferred.append(plan.counts)
        else:
            decided[plan.counts] = met
        return met

    with mock.patch("queryplan.exact._split_accept", spy):
        exact_opt(inst, problem="true", tie_policy=policy)
    return deferred, decided



def scanned_plans(inst: Instance, policy: str) -> list[tuple[int, ...]]:
    """The plans exact_opt(problem="true") hands the profile scan, in walk
    order."""
    plans = []

    def spy(instance, plan, *args):
        if plans[-1:] != [plan.counts]:
            plans.append(plan.counts)
        return _profile_mass(instance, plan, *args)

    with mock.patch("queryplan.exact._profile_mass", spy):
        exact_opt(inst, problem="true", tie_policy=policy)
    return plans


def scan_meets(inst: Instance, counts: tuple[int, ...], policy: str) -> bool:
    """Whether the profile scan finds every label's error within its
    tolerance."""
    wrong = _error_mask(policy)
    plan = QueryPlan(counts)
    return all(
        _profile_mass(inst, plan, yi, wrong, PROFILE_BUDGET, {}) <= inst.tolerances[yi]
        for yi in range(inst.n_labels)
    )


def test_split_defers_at_the_tolerance(duo):
    # with the tolerances at the optimum's exact errors, the split's errors
    # lie within its rounding band of them, so the scan accepts the optimum
    opt = exact_opt(duo, problem="true")
    errors = exact_error_table(duo, opt.plan).errors
    at_errors = duo.with_tolerances(np.array(errors))
    assert split_decisions(duo, "lowest-index")[0] == []
    assert split_decisions(at_errors, "lowest-index")[0] == [opt.plan.counts]
    got = exact_opt(at_errors, problem="true")
    assert (got.plan, got.cost, got.enumerated) == (opt.plan, opt.cost, opt.enumerated)
    assert_matches_reference(at_errors, "lowest-index", 10**6)
    assert_split_matches_scan(at_errors, "lowest-index")


@pytest.mark.parametrize("policy", TIE_POLICIES)
def test_split_band_grows_with_the_log_scale(policy):
    # a symbol of probability 1e-300 makes M = _log_scale about 41,000 at
    # 60 queries, so the band's rounding term 2δ adds about 3.7e-10 to its
    # 1e-9: a tolerance 1.2e-9 from the scan's error, either way, lies
    # within the band, and the split defers; one 2e-9 from it is decided
    tiny = 1e-300
    a = ModelSpec(
        "a", tuple("xyz"), np.array([[0.6, 0.4, tiny], [0.35, 0.65, tiny]]), 1.0
    )
    b = ModelSpec("b", tuple("xy"), np.array([[0.8, 0.2], [0.25, 0.75]]), 2.0)
    inst = Instance(("0", "1"), np.array([0.45, 0.55]), (a, b), np.full(2, 0.05))
    plan = QueryPlan((60, 10))
    assert 41_000 < _log_scale(inst, plan.counts) < 42_000
    errors = np.array(exact_error_table(inst, plan, policy).errors)
    got = [
        _split_accept(
            inst.with_tolerances(errors * factor), plan, policy, PROFILE_BUDGET, {}
        )
        for factor in (1 + 2e-9, 1 + 1.2e-9, 1 - 1.2e-9, 1 - 2e-9)
    ]
    assert got == [True, None, None, False]


@pytest.mark.parametrize("policy", TIE_POLICIES)
def test_split_defers_at_the_delta_margin(policy):
    inst = near_threshold_instance()
    # the profile (1, 1) lies at the threshold SCORE_TOL, so plan (2,)'s
    # bounds part for label 1, and for label 0 unless count-tie-as-error
    # moves its threshold to -SCORE_TOL; plans of odd counts hold no such
    # profile
    lower, upper = split_bounds(inst, QueryPlan((2,)), policy)
    parted = [lo < up for lo, up in zip(lower, upper)]
    assert parted == [policy == "lowest-index", True]
    lower, upper = split_bounds(inst, QueryPlan((3,)), policy)
    assert lower == upper
    # under count-tie-as-error, label 0's lower bound already counts the
    # tie and exceeds the tolerance, so the bounds reject (2,); wherever
    # the bounds decide, the decision is the scan's. The search hands these
    # one-model plans straight to the scan, so the split is asked here
    plans = scanned_plans(inst, policy)
    assert (2,) in plans
    deferred, decided = [], {}
    for counts in plans:
        met = _split_accept(inst, QueryPlan(counts), policy, PROFILE_BUDGET, {})
        if met is None:
            deferred.append(counts)
        else:
            decided[counts] = met
    assert split_decisions(inst, policy) == ([], {})
    assert deferred == ([(2,)] if policy == "lowest-index" else [])
    for counts, met in decided.items():
        assert met == scan_meets(inst, counts, policy)
    assert_matches_reference(inst, policy, 10**6)
    assert_split_matches_scan(inst, policy)


def test_split_defers_straddling_plans_to_the_scan():
    # three-label draw 5 at alpha 1e-2: twenty plans' max-versus-sum
    # brackets straddle a tolerance, and the scan decides them as the
    # scan-only search does
    inst = three_label_draw(5).with_tolerances(np.full(3, 1e-2))
    deferred, _ = split_decisions(inst, "lowest-index")
    assert len(deferred) == 20
    opt = exact_opt(inst, problem="true")
    assert (opt.plan.counts, opt.enumerated) == ((16, 15), 605)
    assert_split_matches_scan(inst, "lowest-index")


def test_split_keeps_the_profile_budget():
    # a plan over the budget raises before any block is built or memoized,
    # in the split and in the scan
    inst = symmetric_instance([0.9, 0.75])
    _PROFILES.clear()
    cache: dict = {}
    with pytest.raises(EnumerationBudgetError, match="42 profiles"):
        _split_accept(inst, QueryPlan((5, 6)), "lowest-index", 41, cache)
    with pytest.raises(EnumerationBudgetError, match="42 profiles"):
        exact_error_table(inst, (5, 6), budget=41)
    assert cache == {}
    assert (len(_PROFILES), _PROFILES.held) == (0, 0)
