from __future__ import annotations

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import symmetric_binary
from queryplan import planner
from queryplan.bounds import TangentTable
from queryplan.exact import (
    EnumerationBudgetError,
    SurrogateWalk,
    exact_opt,
    surrogate_walk,
)
from queryplan.experiments import random_instance
from queryplan.instances import Instance, QueryPlan, plan_cost
from queryplan.planner import (
    SEARCH_NODE_BUDGET,
    MemoryBudgetError,
    _solve_search,
    backtrack,
    derive_constants,
    dp_solve,
    guarantee_threshold,
    round_weights,
    run_afptas,
    tilt_axis,
    tilt_axis_size,
)
from reference_certifier import FullAxisCertifier
from reference_lattice import lattice_ascending
from reference_sweep import (
    GridBudgetError,
    build_grid,
    find_feasible_state,
    solve_sweep,
)

LOG9 = math.log(9.0)


@pytest.fixture
def bsc_constants(bsc):
    return derive_constants(bsc, 0.5)


@pytest.fixture
def coarse_constants(bsc_constants):
    """Hand-checkable discretization: 5-point axis, weight step 0.2."""
    return dataclasses.replace(
        bsc_constants, mesh=0.25, round_scale=0.2, t_max=20
    )


def test_derived_constants_frozen_values(bsc, bsc_constants):
    c = bsc_constants
    assert c.epsilon == 0.5
    assert c.B == pytest.approx(LOG9, abs=1e-12)
    assert c.rho == pytest.approx(0.6, rel=1e-9)
    assert c.n_unif == 6
    # KL of the 0.9/0.1 row pair
    assert c.kappa_min == pytest.approx(0.8 * LOG9, rel=1e-12)
    assert c.delta_margin == pytest.approx(0.2 / LOG9, rel=1e-12)
    # contraction at the window edge, from the closed form of the affinity
    d = 0.2 / LOG9
    theta_ref = 0.9 ** (1 - d) * 0.1**d + 0.1 ** (1 - d) * 0.9**d
    assert c.theta == pytest.approx(theta_ref, rel=1e-12)
    assert c.k_eps == 6
    assert c.k_max == 10
    assert c.n_max == 16
    assert c.lam == pytest.approx(16 * LOG9, rel=1e-12)
    assert c.mesh == pytest.approx(math.log(1.5) / (16 * LOG9), rel=1e-12)
    assert c.round_scale == pytest.approx(math.log(1.5) / 16, rel=1e-12)
    assert c.t_max == 1388
    assert c.t_max == math.ceil(c.B * c.n_max / c.round_scale)
    assert c.to_dict()["t_max"] == 1388


def test_derive_constants_epsilon_domain(bsc):
    for eps in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="epsilon"):
            derive_constants(bsc, eps)


def test_tilt_axis_matches_size(bsc_constants, coarse_constants):
    for c in (bsc_constants, coarse_constants):
        axis = tilt_axis(c)
        assert len(axis) == tilt_axis_size(c)
        assert axis[0] == 0.0
        assert axis[-1] == 1.0
        assert np.all(np.diff(axis) > 0)
        # interior spacing is the mesh
        assert np.allclose(np.diff(axis)[:-1], c.mesh)
    degenerate = dataclasses.replace(bsc_constants, mesh=1.5)
    assert tilt_axis_size(degenerate) == 2
    assert tilt_axis(degenerate).tolist() == [0.0, 1.0]


def test_build_grid_order_and_budget(coarse_constants):
    grid = build_grid(coarse_constants, 2)
    axis = [0.0, 0.25, 0.5, 0.75, 1.0]
    assert grid == list(itertools.product(axis, axis))
    with pytest.raises(GridBudgetError, match="budget"):
        build_grid(coarse_constants, 2, budget=10)


def test_round_weights_hand_value(bsc, bsc_constants):
    w = round_weights(bsc, bsc_constants, (0.5, 0.5))
    # -log 0.6 / round_scale = 20.15..., floored
    assert w.shape == (1, 2)
    assert w.tolist() == [[20, 20]]
    with pytest.raises(ValueError, match="grid point"):
        round_weights(bsc, bsc_constants, (0.5,))


def two_model_instance(c0: float, c1: float) -> Instance:
    return Instance(
        labels=("1", "2"),
        prior=np.array([0.5, 0.5]),
        models=(
            symmetric_binary(0.9, c0, "m0"),
            symmetric_binary(0.8, c1, "m1"),
        ),
        tolerances=np.array([0.05, 0.05]),
    )


def brute_force_cover(
    weights: np.ndarray, costs: list[float], t: tuple[int, ...], r_cap: int
) -> float:
    best = math.inf
    K = len(costs)
    for r in itertools.product(range(r_cap + 1), repeat=K):
        if all(
            sum(r[m] * int(weights[m][p]) for m in range(K)) >= t[p]
            for p in range(len(t))
        ):
            best = min(best, sum(r[m] * costs[m] for m in range(K)))
    return best


def test_dp_one_pair_hand_fixture(bsc_constants):
    inst = two_model_instance(2.0, 1.0)
    constants = dataclasses.replace(bsc_constants, t_max=5)
    weights = np.array([[3], [1]], dtype=np.int64)
    table = dp_solve(inst, constants, weights)
    assert [table.value((t,)) for t in range(6)] == [0.0, 1.0, 2.0, 2.0, 3.0, 4.0]
    assert [table.backpointer((t,)) for t in range(6)] == [-1, 1, 0, 0, 0, 0]
    plan = backtrack(table, (5,))
    assert plan.counts == (2, 0)
    assert plan_cost(inst, plan) == table.value((5,))


def test_dp_two_pairs_matches_brute_force(bsc_constants):
    inst = two_model_instance(1.0, 1.0)
    constants = dataclasses.replace(bsc_constants, t_max=3)
    weights = np.array([[2, 1], [1, 2]], dtype=np.int64)
    table = dp_solve(inst, constants, weights)
    for t in itertools.product(range(4), repeat=2):
        assert table.value(t) == brute_force_cover(weights, [1.0, 1.0], t, 3)
    assert table.value((3, 3)) == 2.0
    plan = backtrack(table, (3, 3))
    assert plan.counts == (1, 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dp_randomized_against_brute_force(bsc_constants, seed):
    rng = np.random.default_rng(seed)
    inst = two_model_instance(1.0, 1.7)
    t_max = int(rng.integers(4, 13))
    constants = dataclasses.replace(bsc_constants, t_max=t_max)
    weights = rng.integers(0, 5, size=(2, 1)).astype(np.int64)
    table = dp_solve(inst, constants, weights)
    for t in range(t_max + 1):
        assert table.value((t,)) == pytest.approx(
            brute_force_cover(weights, [1.0, 1.7], (t,), t_max), abs=1e-12
        )

    t_max2 = int(rng.integers(3, 7))
    constants2 = dataclasses.replace(bsc_constants, t_max=t_max2)
    weights2 = rng.integers(0, 4, size=(2, 2)).astype(np.int64)
    table2 = dp_solve(inst, constants2, weights2)
    for t in itertools.product(range(t_max2 + 1), repeat=2):
        assert table2.value(t) == pytest.approx(
            brute_force_cover(weights2, [1.0, 1.7], t, t_max2), abs=1e-12
        )


def test_dp_budget_and_mode_errors(bsc_constants):
    inst = two_model_instance(1.0, 1.0)
    constants = dataclasses.replace(bsc_constants, t_max=100)
    weights = np.ones((2, 2), dtype=np.int64)
    with pytest.raises(MemoryBudgetError, match="coarser constants"):
        dp_solve(inst, constants, weights, memory_budget=10)
    with pytest.raises(TypeError):
        dp_solve(inst, constants, weights, mode="sparse")


@pytest.mark.parametrize(
    "value, named", [(True, "bool"), (10**6 + 0.5, "float"), ("10", "str"), (-1, "-1")]
)
def test_dp_solve_rejects_a_bad_memory_budget(bsc, coarse_constants, value, named):
    weights = round_weights(bsc, coarse_constants, [0.5, 0.5])
    with pytest.raises(ValueError, match=f"memory_budget must be .*{named}"):
        dp_solve(bsc, coarse_constants, weights, memory_budget=value)


def test_backtrack_rejects_unreachable_state(bsc_constants):
    inst = two_model_instance(1.0, 1.0)
    constants = dataclasses.replace(bsc_constants, t_max=2)
    weights = np.zeros((2, 1), dtype=np.int64)
    table = dp_solve(inst, constants, weights)
    assert table.value((1,)) == math.inf
    with pytest.raises(RuntimeError, match="backpointer"):
        backtrack(table, (1,))


def test_find_feasible_state_coarse_grid(bsc, coarse_constants):
    point = (0.5, 0.5)
    weights = round_weights(bsc, coarse_constants, point)
    assert weights.tolist() == [[2, 2]]
    table = dp_solve(bsc, coarse_constants, weights)
    # exp(-0.2 t) <= 0.05 needs t >= 15; ties resolve to the lex-first state
    state = find_feasible_state(bsc, coarse_constants, point, table)
    assert state == (15, 15)
    plan = backtrack(table, state)
    assert plan.counts == (8,)

    tight = bsc.with_tolerances([1e-6, 1e-6])
    assert find_feasible_state(tight, coarse_constants, point, table) is None


def test_sweep_and_search_agree_on_coarse_grid(bsc, asym, duo):
    # the literal sweep is the reference the search must match
    for inst, cost in ((bsc, 8.0), (asym, 11.0), (duo, 8.5)):
        constants = dataclasses.replace(
            derive_constants(inst, 0.5), mesh=0.25, round_scale=0.2, t_max=40
        )
        sweep_plan, sweep_tilts = solve_sweep(inst, constants)
        search_plan, _ = _solve_search(inst, constants, SEARCH_NODE_BUDGET)
        assert plan_cost(inst, sweep_plan) == plan_cost(inst, search_plan) == cost
        assert len(sweep_tilts) == 2


def test_sweep_and_search_agree_on_random_draws():
    rng = np.random.default_rng(0)
    certified = 0
    for _ in range(10):
        inst = random_instance(rng, n_labels=2, max_models=3, alpha=0.05)
        constants = dataclasses.replace(
            derive_constants(inst, 0.5), mesh=0.25, round_scale=0.1, t_max=60
        )
        found = solve_sweep(inst, constants)
        if found is None:
            # nothing certifies under the t_max clip: the search would walk
            # the lattice to its budget
            continue
        certified += 1
        search_plan, _ = _solve_search(inst, constants, SEARCH_NODE_BUDGET)
        assert plan_cost(inst, search_plan) == plan_cost(inst, found[0])
    assert certified == 8


def test_run_afptas_reference_instance(bsc):
    cert = run_afptas(bsc, 0.5)
    assert cert.plan.counts == (6,)
    assert cert.cost == 6.0
    assert cert.mode == "search-axis"
    assert cert.surrogate.feasible
    assert cert.guarantee["status"] == "heuristic-only"
    assert cert.guarantee["alpha_min"] == 0.05
    # the reported tilts themselves certify every tolerance with the exact
    # (unfloored) proxies, since flooring only weakened them
    from queryplan.bounds import pairwise_proxy_log

    for y, y_other, s in cert.tilts:
        assert 0.0 <= s <= 1.0
        proxy = math.exp(pairwise_proxy_log(bsc, cert.plan, y, y_other, s))
        assert proxy <= float(bsc.tolerances[bsc.label_index(y)]) + 1e-12
    d = cert.to_dict()
    assert d["plan"] == [6]
    assert d["guarantee"]["status"] == "heuristic-only"

    assert run_afptas(bsc, 0.1).plan.counts == (6,)
    # a coarser weight floor forfeits one query's evidence
    assert run_afptas(bsc, 1.0).plan.counts == (7,)


def test_run_afptas_oracle_check(bsc):
    cert = run_afptas(bsc, 0.5, check_optimal=True)
    assert cert.guarantee["checked_against_oracle"]
    assert cert.guarantee["oracle_opt_cost"] == 6.0
    assert cert.guarantee["status"] == "guaranteed"


def test_run_afptas_unconditional_guarantee(bsc):
    tight = bsc.with_tolerances([1e-12, 1e-12])
    constants = derive_constants(tight, 0.5)
    threshold = guarantee_threshold(tight, constants)
    assert threshold == pytest.approx(9.0**-12, rel=1e-9)
    cert = run_afptas(tight, 0.5)
    assert cert.guarantee["status"] == "guaranteed"
    assert not cert.guarantee["checked_against_oracle"]
    # surrogate optimum is 55 queries; within (1+eps) of that
    assert 55.0 <= cert.cost <= 1.5 * 55.0 + 1e-9


def test_run_afptas_sweep_rejects_large_grids():
    from queryplan.instances import ModelSpec

    rows = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
    inst = Instance(
        labels=("1", "2", "3"),
        prior=np.array([1 / 3, 1 / 3, 1 / 3]),
        models=(ModelSpec("m0", ("a", "b"), rows, 1.0),),
        tolerances=np.array([0.05, 0.05, 0.05]),
    )
    # six ordered pairs against a fine tilt axis: the full grid is hopeless
    with pytest.raises(GridBudgetError, match=r"\(1264\^6\)"):
        solve_sweep(inst, derive_constants(inst, 0.5))


def test_run_afptas_search_budget_raises_enumeration_error(duo):
    with pytest.raises(EnumerationBudgetError, match="more than 2 plans"):
        run_afptas(duo, 0.5, node_budget=2)


def test_run_afptas_argument_validation(bsc):
    with pytest.raises(ValueError, match="epsilon"):
        run_afptas(bsc, 2.0)


@pytest.mark.parametrize(
    "value, named", [(True, "bool"), ("0.5", "str"), (None, "NoneType")]
)
def test_run_afptas_rejects_an_epsilon_that_is_no_number(bsc, value, named):
    # True would pass as epsilon 1.0
    with pytest.raises(ValueError, match=f"epsilon must be a number, got {named}"):
        run_afptas(bsc, value)
    with pytest.raises(ValueError, match=f"epsilon must be a number, got {named}"):
        derive_constants(bsc, value)


@pytest.mark.parametrize(
    "value, named", [(True, "bool"), (10**6 + 0.5, "float"), ("10", "str"), (-1, "-1")]
)
def test_run_afptas_rejects_a_bad_node_budget(bsc, value, named):
    with pytest.raises(ValueError, match=f"node_budget must be .*{named}"):
        run_afptas(bsc, 0.5, node_budget=value)


# ---------------------------------------------------------------------------
# The tangent reject scored ahead: SurrogateWalk.rejects_plan
# ---------------------------------------------------------------------------


@pytest.fixture
def scored_alone(monkeypatch):
    """Logs the table of every plan TangentTable.rejects_one scores alone."""
    alone: list[TangentTable] = []
    rejects_one = TangentTable.rejects_one

    def counted(self, counts):
        alone.append(self)
        return rejects_one(self, counts)

    monkeypatch.setattr(TangentTable, "rejects_one", counted)
    return alone


@pytest.fixture
def scored_rejects(monkeypatch, scored_alone):
    """Checks every rejects_plan answer against the plan's reject scored
    alone. Yields a log of (counts, answered from the batch scored ahead)."""
    log: list[tuple[tuple[int, ...], bool]] = []
    rejects_plan = SurrogateWalk.rejects_plan

    def checked(self, counts):
        before = len(scored_alone)
        got = rejects_plan(self, counts)
        log.append((counts, len(scored_alone) == before))
        assert got == self.table.rejects_one(counts), counts
        return got

    monkeypatch.setattr(SurrogateWalk, "rejects_plan", checked)
    return log


def sweep_draws(n: int) -> list[Instance]:
    """The first n draws of the seed-42 guarantee sweep."""
    rng = np.random.default_rng(42)
    return [
        random_instance(rng, n_labels=2, max_models=3, alpha=1e-3) for _ in range(n)
    ]


@pytest.mark.parametrize("name", ["bsc", "asym", "duo"])
def test_lookahead_matches_rejects_on_fixture_walks(request, scored_rejects, name):
    inst = request.getfixturevalue(name)
    for epsilon in (0.1, 0.5, 1.0):
        run_afptas(inst, epsilon)
    exact_opt(inst, problem="surrogate")
    # both searches hand the reject every survivor in walk order
    assert scored_rejects and all(ahead for _, ahead in scored_rejects)


def test_lookahead_matches_rejects_on_sweep_walks(scored_rejects):
    for inst in sweep_draws(12):
        run_afptas(inst, 0.5)
        exact_opt(inst, problem="surrogate")
    assert len(scored_rejects) > 1_000
    assert all(ahead for _, ahead in scored_rejects)


@pytest.mark.parametrize("index", [0, 1, 7])
def test_rejects_plan_reads_the_handed_row_in_any_form(scored_alone, index):
    inst = sweep_draws(index + 1)[index]
    walk = surrogate_walk(inst)
    table = walk.table
    handed = []

    def accept(counts):
        band, i, row = walk.at
        assert counts is row and row is band.rows[i]
        # the row itself, an equal tuple, a list and an int64 array
        forms = [counts, tuple(list(counts)), list(counts), np.array(counts)]
        before = len(scored_alone)
        got = [walk.rejects_plan(c) for c in forms]
        assert len(scored_alone) == before  # each read from the batch
        assert got == [table.rejects_one(counts)] * len(forms)
        handed.append(counts)
        return None

    with pytest.raises(EnumerationBudgetError):
        walk.search(accept, 5_000, math.inf)
    assert len(handed) > 100
    # the rows were filled in the chunks the rejects were scored in, each
    # the plan's counts as a tuple
    for band in walk.bands:
        filled = [r is not None for r in band.rows]
        assert filled == [k < band.scored for k in range(len(band.rows))]
        assert band.rows[: band.scored] == list(map(tuple, band.plans.tolist()))[
            : band.scored
        ]
    # a plan other than the one handed out last is scored alone
    before = len(scored_alone)
    other = tuple(c + 1 for c in handed[-1])
    assert walk.rejects_plan(other) == table.rejects_one(other)
    assert len(scored_alone) == before + 2


def walk_survivors(inst: Instance, last: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The plans the tangent prescreen keeps, one at a time, in walk order
    up to and including last."""
    table = TangentTable(inst)
    costs = [m.cost for m in inst.models]
    kept = []
    for _, counts in lattice_ascending(costs, math.inf):
        if table.passes(np.array([counts], dtype=float))[0]:
            kept.append(counts)
        if counts == last:
            return kept


@pytest.mark.parametrize("draw", ["bsc", "asym", "duo", 0, 1, 2])
def test_certify_sees_every_survivor_of_the_walk(request, monkeypatch, draw):
    if isinstance(draw, str):
        inst = request.getfixturevalue(draw)
    else:
        inst = sweep_draws(draw + 1)[draw]
    calls = []
    certify = planner._WindowCertifier.certify

    def logged(self, counts):
        calls.append(counts)
        return certify(self, counts)

    monkeypatch.setattr(planner._WindowCertifier, "certify", logged)
    cert = run_afptas(inst, 0.5)
    assert calls == walk_survivors(inst, cert.plan.counts)


@pytest.mark.parametrize("name", ["bsc", "asym", "duo"])
def test_certify_out_of_walk_order_scores_the_plan_alone(request, scored_alone, name):
    inst = request.getfixturevalue(name)
    constants = derive_constants(inst, 0.5)
    plans = np.array(
        list(itertools.product(range(13), repeat=inst.n_models)), dtype=float
    )
    certifier = planner._WindowCertifier(inst, constants)
    table = certifier.table
    kept = [tuple(int(c) for c in r) for r in plans[table.passes(plans)]]

    def same(got, want):
        return got is None if want is None else np.array_equal(got, want)

    # before any search, every plan is scored alone
    want = [certifier.certify(counts) for counts in kept]
    assert any(w is not None for w in want)
    assert scored_alone.count(table) == len(kept)
    # after a search, against the walk order: only the plan the search
    # accepted, the survivor its walk handed out last, is read from a batch
    accepted = run_afptas(inst, 0.5).plan.counts
    assert accepted in kept
    del scored_alone[:]
    again = planner._WindowCertifier(inst, constants)
    assert again.walk is certifier.walk
    for counts, w in reversed(list(zip(kept, want))):
        assert same(again.certify(counts), w)
    assert scored_alone.count(table) == len(kept) - 1


def test_window_certifier_takes_the_patched_grid(bsc):
    # the certifier reads planner._TANGENT_GRID when it is built, so a test
    # that patches it certifies with a table of that grid, not the shared
    # default one
    constants = derive_constants(bsc, 0.5)
    default = planner._WindowCertifier(bsc, constants)
    with mock.patch.object(planner, "_TANGENT_GRID", 17):
        patched = planner._WindowCertifier(bsc, constants)
    assert default.table.grid.size == planner._TANGENT_GRID
    assert patched.table.grid.size == 17
    assert patched.walk.table is patched.table
    assert patched.walk is not default.walk
    for counts in [(k,) for k in range(12)]:
        want = default.certify(counts)
        got = patched.certify(counts)
        assert got is None if want is None else np.array_equal(got, want)


# ---------------------------------------------------------------------------
# The window certifier's kept spans of axis weights
# ---------------------------------------------------------------------------


def _spans(certifier) -> list[tuple[int, int] | None]:
    """Each pair's span as (first axis index, points), None if empty."""
    return [None if s is None else (s[0], len(s[1])) for s in certifier.spans]


def _span_moves(before, after) -> set[str]:
    """How the spans moved: "left" or "right" where a span grew on that
    side, "jump" where it moved to a range it does not overlap."""
    moves = set()
    for b, a in zip(before, after):
        if b is None or a is None or a == b:
            continue
        (b0, bn), (a0, an) = b, a
        if a0 + an <= b0 or a0 >= b0 + bn:
            moves.add("jump")
        if a0 < b0 < a0 + an:
            moves.add("left")
        if a0 < b0 + bn < a0 + an:
            moves.add("right")
    return moves


def _check(certifier, reference, counts, got, span_max) -> None:
    """The certifier's answer got for counts is the full-axis reference's,
    and every span holds at most span_max points."""
    want = reference.certify(counts)
    assert (got is None) == (want is None), counts
    assert want is None or np.array_equal(got, want), (counts, got, want)
    assert all(s is None or s[1] <= span_max for s in _spans(certifier))


def _drive(certifier, reference, plans, span_max) -> set[str]:
    """Certifies the plans in order, each checked (_check); returns the
    spans' moves."""
    moves = set()
    for counts in plans:
        before = _spans(certifier)
        _check(certifier, reference, counts, certifier.certify(counts), span_max)
        moves |= _span_moves(before, _spans(certifier))
    return moves


def test_kept_spans_grow_jump_and_answer_as_the_full_axis():
    # on this draw, the plans' windows grow each pair's span on both
    # sides and jump to disjoint ranges, twice over
    rng = np.random.default_rng(12)
    inst = random_instance(rng, n_labels=2, max_models=2, alpha=0.3)
    constants = derive_constants(inst, 0.5)
    plans = [(60, 0), (0, 60), (60, 0), (30, 30), (0, 60), (200, 0), (0, 200)] * 2
    certifier = planner._WindowCertifier(inst, constants)
    reference = FullAxisCertifier(inst, constants)
    moves = _drive(certifier, reference, plans, planner._SPAN_MAX)
    assert moves == {"left", "right", "jump"}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 3),
    mesh=st.floats(2e-3, 0.2),
    round_scale=st.floats(0.02, 0.5),
    t_max=st.integers(1, 400),
    plans=st.lists(
        st.lists(st.integers(0, 80), min_size=3, max_size=3), min_size=1, max_size=10
    ),
    span_max=st.sampled_from([1, 5, 40, planner._SPAN_MAX]),
    chunk=st.sampled_from([3, planner._WINDOW_CHUNK]),
)
def test_kept_spans_answer_as_the_full_axis(
    seed, n_labels, mesh, round_scale, t_max, plans, span_max, chunk
):
    # any plan sequence, with spans bounded to a few points or not, and
    # windows longer than the bound scanned without being kept
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_labels=n_labels, max_models=3, alpha=0.3)
    constants = dataclasses.replace(
        derive_constants(inst, 0.5), mesh=mesh, round_scale=round_scale, t_max=t_max
    )
    plans = [tuple(p[: inst.n_models]) for p in plans]
    reference = FullAxisCertifier(inst, constants)
    with mock.patch.multiple(planner, _SPAN_MAX=span_max, _WINDOW_CHUNK=chunk):
        certifier = planner._WindowCertifier(inst, constants)
        _drive(certifier, reference, plans * 2, span_max)


def test_kept_spans_on_the_guarantee_case_of_plan_0_253(monkeypatch):
    # the seed-42 guarantee draw 2, its models swapped: the solve at eps 0.5
    # scans one pair window after another over the same stretch of the
    # axis, and computes only a small share of the points they hold
    rng = np.random.default_rng(42)
    draw = [random_instance(rng, n_labels=2, max_models=3) for _ in range(3)][2]
    inst = dataclasses.replace(draw, models=draw.models[::-1])
    constants = derive_constants(inst, 0.5)
    reference = FullAxisCertifier(inst, constants)
    windows, computed = [], []
    extend = planner._WindowCertifier._extend
    axis_weights = planner._WindowCertifier.axis_weights
    certify = planner._WindowCertifier.certify

    def logged_extend(self, pair_windows):
        windows.extend(pair_windows)
        return extend(self, pair_windows)

    def counted(self, pair_of, index):
        computed.append(len(index))
        return axis_weights(self, pair_of, index)

    def checked(self, counts):
        got = certify(self, counts)
        _check(self, reference, counts, got, planner._SPAN_MAX)
        return got

    # each certification's cap: whether the spans held every pair's
    # nearest index, and how many axis points it computed
    caps = []
    near_weights = planner._WindowCertifier._near

    def logged_near(self, near):
        held = all(
            s is not None and s[0] <= i < s[0] + len(s[1])
            for s, i in zip(self.spans, near)
        )
        before = len(computed)
        amp, w = near_weights(self, near)
        caps.append((held, sum(computed[before:])))
        # the cap's weights are the axis's at those indices, bit for bit
        want = axis_weights(self, np.arange(len(near)), np.array(near))
        assert np.array_equal(amp, want[0]) and np.array_equal(w, want[1])
        return amp, w

    monkeypatch.setattr(planner._WindowCertifier, "_extend", logged_extend)
    monkeypatch.setattr(planner._WindowCertifier, "axis_weights", counted)
    monkeypatch.setattr(planner._WindowCertifier, "certify", checked)
    monkeypatch.setattr(planner._WindowCertifier, "_near", logged_near)
    assert exact_opt(inst).plan.counts == (0, 253)
    assert run_afptas(inst, 0.5).plan.counts == (0, 258)
    scanned = sum(hi - lo + 1 for lo, hi in windows)
    assert len(windows) >= 2 * 40
    assert 10 * sum(computed) < scanned
    # only the first certification finds no span to read its cap from; a
    # cap whose nearest indices lie in the spans computes no axis point,
    # any other one per pair
    assert len(caps) == len(windows) // 2
    assert [held for held, _ in caps] == [False] + [True] * (len(caps) - 1)
    assert all(points == (0 if held else 2) for held, points in caps)
