from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import reference_tilt
from conftest import acceptance_suite, symmetric_binary, symmetric_labels_instance
from queryplan.bounds import (
    _AHEAD_SHARE,
    _FOLD_MIN,
    _FOLD_TERMS,
    _NEWTON_CALLS,
    _PAD,
    _WINDOW_CHUNK,
    PairStack,
    PairTables,
    TangentTable,
    _bracket_margin,
    _golden_steps,
    _lockstep,
    _logsumexp,
    _minimize_tilts,
    _reduce_last,
    _rule,
    _ruled_lanes,
    _surrogate_accept,
    _values_at,
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
    upper_lanes,
)
from queryplan.exact import EnumerationBudgetError, SurrogateWalk, exact_opt
from queryplan.experiments import GUARANTEE_NODE_BUDGET, random_instance, random_plan
from queryplan.instances import Instance, ModelSpec
from queryplan.planner import run_afptas


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


def test_log_affinity_is_the_proxys_factor():
    # with one query of model m the proxy is s * log(prior ratio) + log M_m(s)
    # bit for bit, also for a model narrower than the widest alphabet
    rng = np.random.default_rng(5)
    models = tuple(
        ModelSpec(
            f"m{x}", tuple(map(str, range(x))), rng.dirichlet(np.ones(x), 3), 1.0
        )
        for x in (6, 12)
    )
    prior = np.array([0.2, 0.3, 0.5])
    inst = Instance(("1", "2", "3"), prior, models, np.full(3, 0.1))
    for m, plan in enumerate([(1, 0), (0, 1)]):
        for yi, yj in ordered_pairs(3):
            ratio = float(inst.log_prior[yj] - inst.log_prior[yi])
            for s in np.linspace(0.0, 1.0, 9):
                assert pairwise_proxy_log(inst, plan, yi, yj, s) == (
                    s * ratio + log_affinity(inst, m, yi, yj, s)
                )


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
    # an infinite bound raises rather than returning NaN
    for lo, hi in [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf)]:
        with pytest.raises(ValueError, match="finite"):
            golden_section(lambda t: (t - 0.3) ** 2, lo, hi)


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
    stack = PairStack(inst, ordered_pairs(inst.n_labels))
    # the plan's bound never exceeds the golden-section pair proxy
    assert all(b <= lv for b, (_, lv) in zip(lb, stack.tilts(r)))
    n = len(stack.flat)
    for m in range(inst.n_models):
        one_model = stack.lane_objective(lambda log_m, m=m: log_m[..., m])
        # a model's log M is a proxy of one query of it, less the prior term
        unit = np.eye(inst.n_models)[m]
        rules = stack._locate(None, unit, [False] * n, stack.rounding(unit))
        minima = _minimize_tilts(one_model, [False] * n, rules)
        # w_max never undercuts a model's golden-section weight
        assert all(table.w_max[p, m] >= -lv for p, (_, lv) in enumerate(minima))
    if is_surrogate_feasible(inst, tuple(int(c) for c in r)).feasible:
        assert not table.rejects_one(r)


class LoggedTable(TangentTable):
    """A TangentTable that logs the size of every batch of plans it
    scores; a plan scored alone is a batch of one."""

    def __init__(self, instance):
        self.batches = []
        super().__init__(instance)

    def rejects_each(self, plans):
        self.batches.append(len(plans))
        return super().rejects_each(plans)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    alpha=st.floats(1e-4, 0.3),
    n_plans=st.integers(1, 400),
)
def test_lookahead_rejects_match_rejects_alone(seed, n_labels, alpha, n_plans):
    rng = np.random.default_rng(seed)
    inst = random_instance(
        rng, n_labels=n_labels, max_models=3, alphabet_sizes=(2, 4), alpha=alpha
    )
    costs = [m.cost for m in inst.models]
    table = LoggedTable(inst)
    walk, cap = SurrogateWalk(table, costs), 40.0 * max(costs)
    asked = []

    def accept(counts):
        # the plan scored alone, unlogged
        want = TangentTable.rejects_each(table, np.array([counts], dtype=float))
        assert walk.rejects_plan(counts) == want[0]
        asked.append(counts)
        return None

    try:
        walk.search(accept, n_plans, cap)
    except EnumerationBudgetError:
        pass
    # every survivor was read from a batch: per band 8 plans, then twice as
    # many each time, up to a share of _WINDOW_CHUNK elements over the
    # L(L-1)/2 pairs y < y'; no plan was scored alone
    assert sum(table.batches) >= len(asked)
    pairs = n_labels * (n_labels - 1) // 2
    rows = max(1, _WINDOW_CHUNK // (_AHEAD_SHARE * pairs * table.grid.size))
    assert table.batch_rows == rows
    sizes = []
    for band in walk.bands:
        j = 0
        while j < band.scored:
            sizes.append(min(j + 8, rows, len(band.plans) - j))
            j += min(j + 8, rows)
    assert table.batches == sizes
    # a second search on the walk reads every reject the first scored
    batches, first = len(table.batches), asked[:]
    asked.clear()
    try:
        walk.search(accept, n_plans, cap)
    except EnumerationBudgetError:
        pass
    assert asked == first
    assert len(table.batches) == batches


def _lane_instance(seed: int, n_labels: int, kind: str) -> Instance:
    """A random instance; with kind "flat" labels 1 and 2 share every row
    and the prior (a flat pair), with "flat-ratio" they share every row
    but not the prior, and "bsc" is the binary symmetric channel."""
    if kind == "bsc":
        models = (symmetric_binary(0.9, 1.0, "bsc"),)
        return Instance(("1", "2"), np.array([0.5, 0.5]), models, np.full(2, 0.05))
    rng = np.random.default_rng(seed)
    prior = rng.dirichlet(np.ones(n_labels))
    if kind != "random":
        prior[1] = prior[0] if kind == "flat" else prior[0] * 0.5
    models = []
    for k in range(int(rng.integers(1, 4))):
        x = int(rng.integers(2, 5))
        rows = rng.dirichlet(np.ones(x), n_labels) * 0.98 + 0.02 / x
        if kind != "random":
            rows[1] = rows[0]
        models.append(ModelSpec(f"m{k}", tuple(map(str, range(x))), rows, 1.0))
    labels = tuple(str(y) for y in range(n_labels))
    return Instance(labels, prior / prior.sum(), tuple(models), np.full(n_labels, 0.1))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    kind=st.sampled_from(["random", "flat", "flat-ratio", "bsc"]),
    counts=st.lists(st.integers(0, 30) | st.just(0), min_size=3, max_size=3),
)
def test_lanes_match_scalar_reference(seed, n_labels, kind, counts):
    # every lane's tilt and value is the one-pair-at-a-time search's, bit
    # for bit, also for flat pairs, all-zero plans and boundary minimizers
    inst = _lane_instance(seed, n_labels, kind)
    L = inst.n_labels
    r = np.asarray(counts[: inst.n_models], dtype=float)
    plan = tuple(int(c) for c in r)
    pairs = ordered_pairs(L)
    want = [reference_tilt.pair_tilt(PairTables(inst, i, j), r) for i, j in pairs]
    report = is_surrogate_feasible(inst, plan)
    assert [(s, lv) for _, _, s, lv in report.tilts] == want
    for yi in range(L):
        value = reference_tilt.surrogate_error(inst, r, yi)
        assert report.values[yi] == value == surrogate_error(inst, plan, yi)
        assert report.feasible_by_label[yi] == (value <= inst.tolerances[yi])
    for (i, j), tilt in zip(pairs, want):
        assert optimize_tilt(inst, plan, i, j) == tilt
    worst = 0.0
    for i in range(L):
        for j in range(i + 1, L):
            pc = reference_tilt.pair_contraction(PairTables(inst, i, j))
            assert pair_contraction(inst, i, j) == pc
            worst = max(worst, math.exp(pc[1]))
    assert instance_contraction(inst) == worst


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    kind=st.sampled_from(["random", "flat", "flat-ratio", "bsc"]),
    counts=st.lists(st.integers(0, 30) | st.just(0), min_size=3, max_size=3),
    skew=st.sampled_from([None, 1e-3, 1e-6]),
)
def test_certified_rounds_match_exact_golden_sections(
    seed, n_labels, kind, counts, skew
):
    # the rules answer only rounds whose outcome the values would give:
    # every lane's golden-section point, its value there and at 0 and 1
    # are those of rule-less lanes, which decide every round from the
    # values, bit for bit, for proxies and contractions, also
    # for flat and twin-label lanes, all-zero plans, and (a label of tiny
    # prior, few queries) minimizers at 0 or 1
    inst = _lane_instance(seed, n_labels, kind)
    if skew is not None:
        prior = inst.prior.copy()
        prior[-1] = skew
        inst = dataclasses.replace(inst, prior=prior / prior.sum())
    L = inst.n_labels
    r = np.asarray(counts[: inst.n_models], dtype=float)
    stack = PairStack(inst, ordered_pairs(L))
    fixed = [fl and q == 0.0 for fl, q in zip(stack.flat, stack.log_ratio.tolist())]
    f = stack.proxy(r)
    if not all(fixed):
        rules = stack._locate(stack.log_ratio.tolist(), r, fixed, stack.rounding(r))
        unruled = [None] * len(fixed)
        assert _ruled_lanes(f, fixed, rules) == _ruled_lanes(f, fixed, unruled)
    assert stack.tilts(r) == [
        reference_tilt.pair_tilt(PairTables(inst, i, j), r) for i, j in ordered_pairs(L)
    ]
    upper = stack.select(upper_lanes(L))
    if not all(upper.flat):
        ones = np.ones(inst.n_models)
        rules = upper._locate(None, ones, upper.flat, upper.rounding(ones))
        total = upper.lane_objective(lambda log_m: np.add.reduce(log_m, -1))
        unruled = [None] * len(upper.flat)
        assert _ruled_lanes(total, upper.flat, rules) == _ruled_lanes(
            total, upper.flat, unruled
        )
    assert upper.contractions() == [
        reference_tilt.pair_contraction(PairTables(inst, i, j))
        for i, j in ordered_pairs(L)
        if i < j
    ]


def test_selected_lanes_keep_a_build_on_them_alone():
    # select slices the stack's located-minimization constants (_calculus,
    # _start), each computed within its lane: they equal those of a stack
    # built on the selected pairs alone, bit for bit
    rng = np.random.default_rng(3)
    for _ in range(12):
        inst = random_instance(rng, n_labels=int(rng.integers(2, 5)), max_models=4)
        pairs = ordered_pairs(inst.n_labels)
        lanes = upper_lanes(inst.n_labels)[::-1]
        sub = PairStack(inst, pairs).select(lanes)
        alone = PairStack(inst, [pairs[k] for k in lanes])
        for name in ("log_p", "ell", "basis", "curvature", "slope_coef", "curv_coef"):
            got, built = getattr(sub._calculus, name), getattr(alone._calculus, name)
            assert np.array_equal(got, built)
        assert sub._calculus.width == alone._calculus.width
        assert sub._calculus.eta == alone._calculus.eta
        assert all(map(np.array_equal, sub._start, alone._start))
        assert sub.contractions() == alone.contractions()


def test_a_tied_round_is_decided_from_the_values(monkeypatch):
    # the binary symmetric channel under a uniform prior has proxies and a
    # contraction symmetric about s = 1/2, so the first round's points c
    # and 1 - c tie exactly: no rule proves it, and its values are asked
    # for; the results are still those of the sections decided from values
    # and of the one-pair reference
    inst = _lane_instance(0, 2, "bsc")
    r = np.array([6.0])
    asked = []
    lane_objective = PairStack.lane_objective

    def recorded(self, *args):
        f = lane_objective(self, *args)

        def g(s, live):
            asked.append(list(s))
            return f(s, live)

        return g

    monkeypatch.setattr(PairStack, "lane_objective", recorded)
    first = [1.0 - (math.sqrt(5.0) - 1.0) / 2.0, (math.sqrt(5.0) - 1.0) / 2.0]
    stack = PairStack(inst, ordered_pairs(2))
    tilts = stack.tilts(r)
    assert all(x in asked[0] for x in first)
    assert tilts == _minimize_tilts(stack.proxy(r), [False, False], [None, None])
    assert tilts == [
        reference_tilt.pair_tilt(PairTables(inst, i, j), r) for i, j in ordered_pairs(2)
    ]
    del asked[:]
    (contraction,) = stack.select([0]).contractions()
    assert all(x in asked[0] for x in first)
    assert contraction == reference_tilt.pair_contraction(PairTables(inst, 0, 1))


def _relabelled(inst: Instance, rng: np.random.Generator) -> Instance:
    """inst with its labels and its models in a random order."""
    lp, mp = rng.permutation(inst.n_labels), rng.permutation(inst.n_models)
    models = tuple(
        ModelSpec(m.name, m.alphabet, m.conditional[lp], m.cost)
        for m in (inst.models[k] for k in mp)
    )
    labels = tuple(inst.labels[i] for i in lp)
    return Instance(labels, inst.prior[lp], models, inst.tolerances[lp])


def test_audits_and_contractions_make_at_most_ten_objective_calls(monkeypatch):
    # every check's tilts and every contraction the solver makes on the
    # seed-42 guarantee draws and on the acceptance suite's first 23 draws
    # (relabelled by seed 101) take at most 10 calls of their objective and
    # of the slopes and curvatures that locate its minimizers, against 30
    # or 31 when every golden-section round is evaluated; a rule that
    # stopped proving rounds would fail here
    rng = np.random.default_rng(42)
    guarantee = [
        random_instance(rng, n_labels=2, max_models=3, alpha=1e-3) for _ in range(12)
    ]
    rng = np.random.default_rng(101)
    solve = [_relabelled(inst, rng) for inst, _ in acceptance_suite(23)]
    calls = [0]
    runs = []
    lane_objective = PairStack.lane_objective
    derivatives = PairStack._derivatives

    def counted(self, *args):
        f = lane_objective(self, *args)

        def g(s, live):
            calls[0] += 1
            return f(s, live)

        return g

    def counted_derivatives(self, t):
        calls[0] += 1
        return derivatives(self, t)

    def run(method):
        def wrapped(self, *args):
            before = calls[0]
            out = method(self, *args)
            runs.append(calls[0] - before)
            return out

        return wrapped

    monkeypatch.setattr(PairStack, "lane_objective", counted)
    monkeypatch.setattr(PairStack, "_derivatives", counted_derivatives)
    monkeypatch.setattr(PairStack, "tilts", run(PairStack.tilts))
    monkeypatch.setattr(PairStack, "contractions", run(PairStack.contractions))
    for inst in guarantee:
        opt = exact_opt(inst, node_budget=GUARANTEE_NODE_BUDGET)
        assert is_surrogate_feasible(inst, opt.plan).feasible
        for eps in (0.1, 0.5, 1.0):
            run_afptas(inst, eps)
    for inst in solve:
        run_afptas(inst, 0.5)
    assert len(runs) >= 80
    assert max(runs) <= 10, sorted(runs)[-5:]


def _lane_with_noise(family, a, w, s0, delta, mode, t, seed):
    """A convex lane with |f'''| <= w·f'', its exact slope and curvature,
    and its values as a computation within delta of them would return.

    The lane is a·log cosh(w·(s - s0)/2) ("logcosh", the log moment
    generating function of two points w apart), or a·(e^{-w(s - s0)} +
    w·(s - s0))/w² ("exp") or its mirror image about s0 ("expm"), whose
    curvature drifts at the largest rate w allows. The values move by up
    to 0.999·delta: upward left of t and downward right of it ("split",
    which flips near ties at t), or at random ("hash")."""
    if family == "logcosh":

        def exact(s):
            return a * math.log(math.cosh(0.5 * w * (s - s0)))

        def slope(s):
            return 0.5 * a * w * math.tanh(0.5 * w * (s - s0))

        def curvature(s):
            return 0.25 * a * w * w / math.cosh(0.5 * w * (s - s0)) ** 2

    else:
        sign = 1.0 if family == "exp" else -1.0

        def exact(s):
            return a * (math.exp(-sign * w * (s - s0)) + sign * w * (s - s0)) / (w * w)

        def slope(s):
            return sign * a * (1.0 - math.exp(-sign * w * (s - s0))) / w

        def curvature(s):
            return a * math.exp(-sign * w * (s - s0))

    def computed(s):
        if mode == "split":
            nu = 1.0 if s < t else -1.0
        else:
            nu = np.random.default_rng([seed, int(s * 2**53)]).uniform(-1.0, 1.0)
        return exact(s) + 0.999 * delta * nu

    return computed, slope, curvature


def _decades(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda x: 10.0**x)


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["logcosh", "exp", "expm"]),
    s0=st.floats(0.0, 1.0),
    w=_decades(-1.3, 1.8),
    a=_decades(-3.0, 3.0),
    delta=_decades(-9.0, 0.5),
    sigma=_decades(-9.0, 0.0),
    eta=_decades(-12.0, -1.0),
    zeta=_decades(-9.0, 0.0),
    left=st.none() | _decades(-9.0, -0.3),
    right=st.none() | _decades(-9.0, -0.3),
    mode=st.sampled_from(["split", "hash"]),
    t=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
# cases where a rule without one of its margins answers a round against
# the values: the slope bound halved, the e^{±W|x - s|} drift dropped,
# tol = δ in place of 2δ, and the lower curvature bound taken as computed
@example(
    family="expm", s0=0.455644593371049, w=6.676274847567339, a=105.63438457817809,
    delta=6.442927597756233e-07, sigma=0.007387636735865982, eta=2.0046413455825572e-07,
    zeta=6.439174951525394e-05, left=1.8257148634986392e-06,
    right=2.565935408659994e-06, mode="hash", t=0.18129726846890626, seed=2166855448,
)
@example(
    family="exp", s0=0.6889304699620175, w=11.135037526723222, a=0.14173871889503745,
    delta=2.4607535676159704e-06, sigma=5.381957418443539e-08,
    eta=1.6266414013463806e-10, zeta=1.3364349572686503e-08, left=6.790760936181563e-05,
    right=7.762272244229937e-05, mode="split", t=0.403061385748817, seed=30102869,
)
@example(
    family="exp", s0=0.3630147970687997, w=1.7577134174722508, a=128.70667553344046,
    delta=0.0010119481374907457, sigma=0.00016391989814457222, eta=0.020808307535789692,
    zeta=8.444711426535003e-07, left=2.092946094502577e-06, right=0.02249039728022871,
    mode="hash", t=0.9465423470954097, seed=629507577,
)
@example(
    family="exp", s0=0.1699713087549629, w=42.6555905441128, a=0.1840521227106656,
    delta=0.004487268367110274, sigma=2.96469336006012e-06, eta=8.653455505069143e-05,
    zeta=0.45201484948570786, left=1.518114764373394e-05, right=2.103787819668273e-09,
    mode="split", t=0.26080288034820687, seed=2650190809,
)
def test_rules_decide_as_the_computed_values_do(
    family, s0, w, a, delta, sigma, eta, zeta, left, right, mode, t, seed
):
    # a rule built from slopes and curvatures off by up to their bounds
    # answers a round only as the golden section on values off by up to δ
    # answers it, whatever those errors are; the lane's scale sets theirs
    delta *= a
    sigma *= a * w
    zeta *= a * w * w
    computed, slope, curvature = _lane_with_noise(family, a, w, s0, delta, mode, t, seed)
    rng = np.random.default_rng(seed)

    def end(x):
        if x is None:
            return None
        g = slope(x) + 0.999 * sigma * rng.choice([-1.0, 1.0])
        kappa = curvature(x) * (1.0 + 0.999 * eta * rng.choice([-1.0, 1.0]))
        return (x, g, kappa + 0.999 * zeta * rng.choice([-1.0, 1.0]))

    ends = (
        end(None if left is None else max(0.0, s0 - left)),
        end(None if right is None else min(1.0, s0 + right)),
    )
    rule = _rule(*ends, sigma, eta, zeta, w, delta)
    step = _golden_steps(0.0, 1.0, rule)
    (got,) = _lockstep(lambda s, live: [computed(x) for x in s], [0], [step])
    assert got[0] == reference_tilt.golden_section(computed, 0.0, 1.0)


def _twin(inst: Instance, same_prior: bool) -> Instance:
    """inst with label 2 given label 1's rows in every model, an
    indistinguishable pair; with same_prior, also label 1's prior, so
    the pair's lanes are flat."""
    models = []
    for m in inst.models:
        rows = m.conditional.copy()
        rows[1] = rows[0]
        models.append(ModelSpec(m.name, m.alphabet, rows, m.cost))
    prior = inst.prior.copy()
    if same_prior:
        prior[1] = prior[0]
    return Instance(inst.labels, prior / prior.sum(), tuple(models), inst.tolerances)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    alpha=st.floats(1e-4, 0.3),
    counts=st.lists(st.integers(0, 40), min_size=3, max_size=3),
    twin=st.sampled_from([None, "flat", "ratio"]),
    near=st.sampled_from([None, 1.0 - 1e-12, 1.0 + 1e-12]),
)
# a plan the bracket bounds accept, and one whose tolerance lies within
# their margin of its surrogate error, which the certified rounds decide
@example(seed=0, n_labels=2, alpha=0.01, counts=[40] * 3, twin=None, near=None)
@example(seed=0, n_labels=2, alpha=0.01, counts=[40] * 3, twin=None, near=1.0 + 1e-12)
def test_accept_answers_as_the_full_check(seed, n_labels, alpha, counts, twin, near):
    # the accept says what is_surrogate_feasible says: also with a
    # tolerance 1e-12 relative from the plan's own surrogate error, where
    # only the exact values can tell, and with an indistinguishable pair,
    # whose lanes are flat or linear
    rng = np.random.default_rng(seed)
    inst = random_instance(
        rng, n_labels=n_labels, max_models=3, alphabet_sizes=(2, 4), alpha=alpha
    )
    if twin is not None:
        inst = _twin(inst, twin == "flat")
    plan = tuple(counts[: inst.n_models])
    if near is not None:
        values = np.array(is_surrogate_feasible(inst, plan).values) * near
        inst = inst.with_tolerances(np.where(values < 1.0, values, inst.tolerances))
    want = is_surrogate_feasible(inst, plan).feasible
    assert _surrogate_accept(inst)(np.array(plan, dtype=float)) == want


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    kind=st.sampled_from(["random", "flat", "flat-ratio", "bsc"]),
    counts=st.lists(st.integers(0, 40), min_size=3, max_size=3),
    skew=st.sampled_from([None, 1e-3, 1e-6]),
)
def test_bracket_bounds_stay_above_the_checks_values(
    seed, n_labels, kind, counts, skew
):
    # each lane's bracket bound is at least the log proxy the full check
    # reports for it, also for flat and twin-label lanes, all-zero plans,
    # and minimizers at 0 or 1 (a label of tiny prior)
    inst = _lane_instance(seed, n_labels, kind)
    if skew is not None:
        prior = inst.prior.copy()
        prior[-1] = skew
        inst = dataclasses.replace(inst, prior=prior / prior.sum())
    r = np.asarray(counts[: inst.n_models], dtype=float)
    stack = PairStack(inst, ordered_pairs(inst.n_labels))
    delta = stack.rounding(r)
    _, rules = stack._ruled(r, delta)
    tops = stack._bracket_bounds(r, delta, rules)
    report = is_surrogate_feasible(inst, tuple(int(c) for c in r))
    assert all(top >= lv for top, (*_, lv) in zip(tops, report.tilts))


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["logcosh", "exp", "expm"]),
    s0=st.floats(0.0, 1.0),
    w=_decades(-1.3, 1.8),
    a=_decades(-3.0, 3.0),
    delta=_decades(-13.5, 0.5),
    mode=st.sampled_from(["split", "hash"]),
    t=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
# cases whose rounds, decided from the values, lose more than 3δ, which a
# margin without ε would not cover
@example(
    family="logcosh", s0=0.03611941144378816, w=0.12435825164524887,
    a=2.2155664919629663, delta=3.7978370352061226e-09, mode="hash",
    t=0.041585887231903734, seed=361815429,
)
@example(
    family="exp", s0=0.5136154082588822, w=0.7072062012211726, a=3.0922316630743474,
    delta=0.00011408091714046414, mode="hash", t=0.8389836360197808, seed=555176573,
)
def test_bracket_margin_covers_golden_sections(family, s0, w, a, delta, mode, t, seed):
    # a golden section on values off by up to δ, every round decided from
    # them, ends on a value (the least of its point's, 0's and 1's) at most
    # _bracket_margin(δ, κ̄) above any value within δ of the minimum, with
    # κ̄ the largest curvature on [0, 1]; the lane moves its values by
    # 0.98δ, which leaves the rest of δ for its own rounding
    delta *= a
    exact, _, curvature = _lane_with_noise(family, a, w, s0, 0.0, mode, t, seed)
    computed, _, _ = _lane_with_noise(family, a, w, s0, 0.98 * delta, mode, t, seed)
    kappa = max(curvature(0.0), curvature(1.0), curvature(s0))
    x = reference_tilt.golden_section(computed, 0.0, 1.0)
    v = min(computed(x), computed(0.0), computed(1.0))
    assert v <= exact(s0) - delta + _bracket_margin(delta, kappa)


def test_bracket_margin_covers_the_final_interval():
    # exact values (δ = 0) of quadratics of curvature κ̄ = 2: the golden
    # point misses the minimizer by up to GSS_TOL/2, which only the margin's
    # κ̄·GSS_TOL² term covers
    for s0 in (0.1, 0.3, 0.5, 0.77):
        target = Fraction(s0)

        def f(s):
            return (Fraction(s) - target) ** 2

        x = golden_section(f, 0.0, 1.0)
        v = min(f(x), f(0.0), f(1.0))
        assert 0 < v <= _bracket_margin(0.0, 2.0), s0


def test_accept_makes_one_value_call(monkeypatch):
    # on the seed-42 guarantee draws, the accept of each surrogate optimum
    # is decided by its bracket bounds: one value call, after the calls
    # that locate the minimizers, and the same answer as the full check
    rng = np.random.default_rng(42)
    draws = [random_instance(rng, n_labels=2, max_models=3) for _ in range(12)]
    plans = [
        exact_opt(inst, node_budget=GUARANTEE_NODE_BUDGET).plan.counts
        for inst in draws
    ]
    values, derivatives = [], []
    lane_objective = PairStack.lane_objective
    located = PairStack._derivatives

    def counted(self, *args):
        f = lane_objective(self, *args)

        def g(s, live):
            values.append(len(s))
            return f(s, live)

        return g

    def counted_derivatives(self, t):
        derivatives.append(t.shape)
        return located(self, t)

    monkeypatch.setattr(PairStack, "lane_objective", counted)
    monkeypatch.setattr(PairStack, "_derivatives", counted_derivatives)
    for inst, plan in zip(draws, plans):
        accept = _surrogate_accept(inst)
        del values[:], derivatives[:]
        assert accept(np.array(plan, dtype=float))
        assert len(values) == 1, (plan, values)
        assert len(derivatives) <= 1 + _NEWTON_CALLS, (plan, derivatives)
        assert is_surrogate_feasible(inst, plan).feasible


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-50.0, 50.0),
    width=st.floats(1e-7, 100.0),
    target=st.floats(-60.0, 160.0),
    power=st.sampled_from([1, 2, 4]),
)
def test_golden_section_matches_reference(lo, width, target, power):
    hi = lo + width
    assume(hi > lo)

    def f(t):
        return abs(t - target) ** power

    assert golden_section(f, lo, hi) == reference_tilt.golden_section(f, lo, hi)


@pytest.mark.parametrize(
    "lo, hi", [(0.0, 2.6180339887498946e-06), (0.3, 0.30000261803398875)]
)
def test_golden_lanes_that_stop_at_different_rounds(lo, hi):
    # widths of about GSS_TOL * phi^2, where rounding makes a lane that
    # always keeps the left part stop a round apart from one that keeps
    # the right; each rule-less lane in lockstep still ends at its one-lane
    # point, and the values at lo and hi ride on the first call
    targets = [lo - 1.0, hi + 1.0, 0.5 * (lo + hi)]
    calls = []

    def f(s, live):
        calls.append(live)
        lanes = range(len(s)) if live is None else live
        return [abs(x - targets[k]) for k, x in zip(lanes, s)]

    steps = [_golden_steps(lo, hi) for _ in targets]
    out = _lockstep(f, [0, 1, 2] * 2, steps + [_values_at(lo, hi) for _ in targets])
    assert any(live is not None and 0 < len(set(live)) < 3 for live in calls[1:])
    assert [x for x, _ in out[:3]] == [
        reference_tilt.golden_section(lambda t, y=y: abs(t - y), lo, hi)
        for y in targets
    ]
    ends = [list(v) for v in zip(*out[3:])]
    assert ends == [[abs(lo - y) for y in targets], [abs(hi - y) for y in targets]]


@pytest.mark.parametrize("n_labels", [3, 4])
def test_lane_objectives_evaluate_the_lanes_they_are_given(n_labels):
    # f(s, live) is lane live[k]'s value at s[k]: one lane alone, a subset
    # out of order, a lane repeated, and every lane
    rng = np.random.default_rng(n_labels)
    inst = random_instance(rng, n_labels=n_labels, max_models=3, alphabet_sizes=(2, 4))
    pairs = ordered_pairs(n_labels)
    stack = PairStack(inst, pairs)
    r = rng.integers(0, 20, size=inst.n_models).astype(float)
    proxy = stack.proxy(r)
    total = stack.lane_objective(lambda log_m: np.add.reduce(log_m, -1))
    for live in [[0], [len(pairs) - 1], [2, 0], [1, 1, 3], None]:
        lanes = range(len(pairs)) if live is None else live
        s = rng.uniform(0.0, 1.0, size=len(lanes)).tolist()
        tables = [PairTables(inst, *pairs[k]) for k in lanes]
        assert proxy(s, live) == [
            reference_tilt.proxy(tb, r, x) for tb, x in zip(tables, s)
        ]
        assert total(s, live) == [
            float(reference_tilt.log_affinities(tb, x).sum())
            for tb, x in zip(tables, s)
        ]


def test_logsumexp_matches_reference():
    rng = np.random.default_rng(11)
    for shape in [(4,), (3, 4), (5, 3, 4), (2, 6, 3, 7)]:
        v = rng.normal(scale=30.0, size=shape)
        v[..., 0] = -1e30  # the padding of a narrow alphabet
        assert np.array_equal(_logsumexp(v), reference_tilt._logsumexp(v))


def _fold_in_order(v: np.ndarray) -> np.ndarray:
    """The slices of v's last axis added first to last."""
    total = v[..., 0] + v[..., 1]
    for k in range(2, v.shape[-1]):
        total = total + v[..., k]
    return total


@pytest.mark.parametrize("X", range(2, 10))
def test_folds_match_numpy_reduce_bit_for_bit(X):
    rng = np.random.default_rng(X)
    # both sides of _FOLD_MIN: golden-section lane stacks and the
    # planner's window batches
    rows = _FOLD_MIN // (3 * X) + 1
    for shape in [(X,), (2, X), (3, 3, X), (rows, 3, X), (2000, 3, X)]:
        v = rng.normal(scale=30.0, size=shape)
        v[..., -1] = _PAD  # the padding of a narrow alphabet
        views = [v, v[..., ::-1], np.asfortranarray(v)]
        if v.ndim > 1:
            views.append(v[::2])  # strided rows
        for w in views:
            assert np.array_equal(_logsumexp(w), reference_tilt._logsumexp(w))
            assert np.array_equal(_reduce_last(np.maximum, w), w.max(axis=-1))
            e = np.exp(w - w.max(axis=-1, keepdims=True))
            assert np.array_equal(_reduce_last(np.add, e), e.sum(axis=-1))
    # folding relies on numpy adding a reduce of up to _FOLD_TERMS terms
    # in order; a numpy whose order differs must fail here, so the data
    # also tells that order from the reverse one
    e = np.exp(rng.normal(scale=3.0, size=(2000, 3, X)))
    if X <= _FOLD_TERMS:
        assert np.array_equal(np.add.reduce(e, -1), _fold_in_order(e)), (
            f"numpy no longer adds a reduce of {X} terms in order: "
            "re-measure bounds._FOLD_TERMS"
        )
    if X >= 3:
        assert not np.array_equal(_fold_in_order(e), _fold_in_order(e[..., ::-1]))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float arrays hold the same values bit for bit, the
    signs of zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n_labels", [2, 3, 4])
@pytest.mark.parametrize("sizes", [(2, 2), (2, 4), (3, 7), (8, 9)])
def test_tangent_table_grids_match_reduced_tables(sizes, n_labels):
    rng = np.random.default_rng(sum(sizes) + n_labels)
    inst = random_instance(rng, n_labels=n_labels, alphabet_sizes=sizes)
    for grid in (2, 3, 17, 129):
        table = TangentTable(inst, grid)
        # every ordered pair's tables built directly, as numpy's reductions
        # over the alphabet build them; the table builds the pairs y < y'
        # and reads each mirror's backwards
        s4 = table.grid[:, None, None]
        v = (1.0 - s4) * table.log_p[:, None] + s4 * table.log_q[:, None]
        top = v.max(axis=3)
        e = np.exp(v - top[..., None])
        z = e.sum(axis=3)
        slope = (e * (table.log_q - table.log_p)[:, None]).sum(axis=3) / z
        assert same_bits(table.grid_log_m, np.log(z) + top)
        assert same_bits(table.grid_slope, slope)
        assert table.grid_log_m.flags.c_contiguous
        assert table.grid_slope.flags.c_contiguous


def test_tangent_table_mirrors_keep_a_zero_slope_positive():
    # a symmetric channel under equal priors has slope 0 at s = 1/2, which
    # a mirror read as -slope would turn into -0.0
    inst = symmetric_labels_instance(3, [0.9, 0.75])
    table = TangentTable(inst, 17)
    assert (table.grid_slope[:, 8] == 0.0).all()
    assert not np.signbit(table.grid_slope[:, 8]).any()


@pytest.mark.parametrize("grid", [-1, 0, 1, 4, 100, 128, 130])
def test_tangent_table_grid_must_have_dyadic_tilts(bsc, grid):
    # a mirror is its pair read backwards only where 1 - k/(G - 1) is exact
    with pytest.raises(ValueError, match=r"2\*\*k \+ 1 points"):
        TangentTable(bsc, grid)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    alpha=st.floats(1e-4, 0.3),
    skew=st.floats(0.05, 1.0),
    counts=st.lists(st.integers(0, 30), min_size=3, max_size=3),
)
def test_mirrored_bounds_stay_below_golden_sections(seed, n_labels, alpha, skew, counts):
    rng = np.random.default_rng(seed)
    inst = random_instance(
        rng, n_labels=n_labels, max_models=3, alphabet_sizes=(2, 4), alpha=alpha
    )
    # priors far apart, so the mirrors' bounds lb - ρ move far from lb
    prior = np.maximum(rng.dirichlet(np.full(n_labels, skew)), 1e-6)
    inst = dataclasses.replace(inst, prior=prior / prior.sum())
    r = np.asarray(counts[: inst.n_models], dtype=float)
    table = TangentTable(inst)
    bounds = table.pair_bounds(r[None])[0]
    pairs = ordered_pairs(n_labels)
    # every pair's bound, the mirrors' y > y' included, is at most its
    # golden-section minimum
    tilts = PairStack(inst, pairs).tilts(r)
    assert all(b <= lv for b, (_, lv) in zip(bounds, tilts))
    if is_surrogate_feasible(inst, tuple(int(c) for c in r)).feasible:
        assert not table.rejects_one(r)
        assert not table.rejects_each(np.stack([r, r]))[1]


def _dense_lower_bounds(table: TangentTable, f: np.ndarray, df: np.ndarray):
    """lower_bounds with a crossing computed in every grid cell."""
    d = float(table.grid[1] - table.grid[0])
    fa, fb, da, db = f[..., :-1], f[..., 1:], df[..., :-1], df[..., 1:]
    inner = (da < 0.0) & (db > 0.0)
    u = np.clip((fa - fb + db * d) / np.where(inner, db - da, 1.0), 0.0, d)
    cross = np.where(inner, fa + da * u, np.inf)
    lb = np.minimum(f.min(axis=-1), cross.min(axis=-1))
    return lb - 1e-9 * (1.0 + np.abs(lb))


@pytest.mark.parametrize("n_labels", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sign_change_crossings_match_dense_cells(seed, n_labels):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_labels=n_labels, max_models=3)
    table = TangentTable(inst)
    plans = rng.integers(0, 40, size=(50, inst.n_models)).astype(float)
    plans[0] = 0.0
    f, df = map(np.stack, zip(*map(table.proxy_on_grid, plans)))  # (B, P, G)
    assert np.array_equal(table.lower_bounds(f, df), _dense_lower_bounds(table, f, df))
    for r in plans[:10]:  # single plans, (P, G)
        f, df = table.proxy_on_grid(r)
        want = _dense_lower_bounds(table, f, df)
        assert np.array_equal(table.lower_bounds(f, df), want)
    # the (P, K, G) log M tables that w_max comes from
    f, df = table.grid_log_m.swapaxes(1, 2), table.grid_slope.swapaxes(1, 2)
    assert np.array_equal(table.lower_bounds(f, df), _dense_lower_bounds(table, f, df))


def test_sign_change_crossings_with_several_per_row():
    # wavy rows change slope sign several times, so np.minimum.at meets the
    # same row more than once; flat and monotone rows have no crossing
    table = TangentTable(
        Instance(
            ("1", "2"),
            np.array([0.5, 0.5]),
            (symmetric_binary(0.9, 1.0, "bsc"),),
            np.full(2, 0.05),
        )
    )
    rng = np.random.default_rng(3)
    g = table.grid
    f = np.stack(
        [
            np.sin(2 * np.pi * w * g + phase) + 0.1 * rng.normal(size=g.size)
            for w, phase in rng.uniform(0.5, 6.0, size=(40, 2))
        ]
        + [np.zeros_like(g), g, -g, (g - 0.5) ** 2]
    )
    df = np.gradient(f, g, axis=-1) + 0.3 * rng.normal(size=f.shape)
    df[-4] = 0.0
    changes = ((df[:, :-1] < 0.0) & (df[:, 1:] > 0.0)).sum(axis=1)
    assert changes.max() >= 3
    for shape in [(44,), (4, 11), (2, 2, 11)]:
        fs, dfs = f.reshape(*shape, -1), df.reshape(*shape, -1)
        want = _dense_lower_bounds(table, fs, dfs)
        assert np.array_equal(table.lower_bounds(fs, dfs), want)
