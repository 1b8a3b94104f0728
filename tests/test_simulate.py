from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import near_threshold_instance, symmetric_instance, two_label_plans
from queryplan.exact import exact_error
from queryplan.experiments import random_instance
from queryplan.instances import Instance, ModelSpec, QueryPlan
from queryplan.likelihood import TIE_POLICIES, _delta_margin, _log_scale
from queryplan.simulate import (
    CHUNK_TRIALS,
    WILSON_Z,
    _clearance,
    _DeltaChunks,
    _ladders,
    _Uniforms,
    simulate_error,
    wilson_interval,
)
from reference_simulate import reference_simulate_error

# Philox keys of the guard tests: both words zero, small, and the largest
KEYS = ([0, 0], [7, 3], [2**64 - 1, 5])


def streams(key: list[int]) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators on one Philox key."""
    key = np.array(key, dtype=np.uint64)
    return tuple(np.random.Generator(np.random.Philox(key=key)) for _ in range(2))


def channel(*rows: Sequence[float], prior0: float = 0.5) -> Instance:
    """Two labels and one model whose conditional rows are rows."""
    model = ModelSpec(
        name="m",
        alphabet=tuple("abcd"[: len(rows[0])]),
        conditional=np.array(rows),
        cost=1.0,
    )
    prior = np.array([prior0, 1.0 - prior0])
    return Instance(("0", "1"), prior, (model,), np.full(2, 0.05))


def delta_chunks(
    inst: Instance, plan: tuple[int, ...], yi: int, policy: str
) -> _DeltaChunks:
    """simulate_error's two-label chunks of the plan for label yi."""
    active = [(m, r) for m, r in zip(inst.models, plan) if r]
    margin = _delta_margin(inst, plan, _log_scale(inst, plan))
    return _DeltaChunks(inst, active, yi, policy, margin)


def test_wilson_interval_endpoints():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0
    assert hi > 0.0
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0
    assert lo < 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_wilson_interval_matches_quadratic_roots():
    # the interval endpoints solve (p - phat)^2 = z^2 p (1 - p) / n
    errors, n = 5, 100
    phat = errors / n
    z2 = WILSON_Z**2
    a = 1.0 + z2 / n
    b = -(2.0 * phat + z2 / n)
    c = phat * phat
    disc = math.sqrt(b * b - 4.0 * a * c)
    lo_ref = (-b - disc) / (2.0 * a)
    hi_ref = (-b + disc) / (2.0 * a)
    lo, hi = wilson_interval(errors, n)
    assert lo == pytest.approx(lo_ref, abs=1e-12)
    assert hi == pytest.approx(hi_ref, abs=1e-12)


def test_interval_contains_point_estimate(bsc):
    est = simulate_error(bsc, (2,), "1", trials=1000, seed=0)
    assert est.ci_low <= est.estimate <= est.ci_high
    assert est.errors == round(est.estimate * est.trials)
    d = est.to_dict()
    assert d["trials"] == 1000
    assert d["seed"] == 0
    assert d["tie_policy"] == "lowest-index"


def test_simulation_is_deterministic(bsc):
    a = simulate_error(bsc, (6,), "1", trials=50_000, seed=5)
    b = simulate_error(bsc, (6,), "1", trials=50_000, seed=5)
    c = simulate_error(bsc, (6,), "1", trials=50_000, seed=6)
    assert a == b
    assert (a.errors, a.estimate) != (c.errors, c.estimate)


def test_estimate_agrees_with_exact_error(bsc):
    exact = exact_error(bsc, (6,), "1")
    est = simulate_error(bsc, (6,), "1", trials=200_000, seed=123)
    se = math.sqrt(exact * (1.0 - exact) / est.trials)
    assert abs(est.estimate - exact) <= 4.0 * se


@pytest.mark.parametrize(
    "policy,label",
    [
        ("lowest-index", "1"),
        ("lowest-index", "2"),
        ("count-tie-as-error", "1"),
    ],
)
def test_tie_policies_match_exact(bsc, policy, label):
    # the 1-1 tie row makes the two policies differ for label 1
    exact = exact_error(bsc, (2,), label, tie_policy=policy)
    est = simulate_error(bsc, (2,), label, trials=100_000, seed=3, tie_policy=policy)
    se = math.sqrt(exact * (1.0 - exact) / est.trials)
    assert abs(est.estimate - exact) <= 4.0 * se


def test_argument_validation(bsc):
    with pytest.raises(ValueError, match="trials"):
        simulate_error(bsc, (2,), "1", trials=0, seed=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            simulate_error(bsc, (2,), "1", trials=10, seed=seed)
    with pytest.raises(ValueError, match="tie policy"):
        simulate_error(bsc, (2,), "1", trials=10, seed=0, tie_policy="flip")


def test_seed_and_trials_must_be_integers():
    # a float or bool seed drew the stream of its truncation, seed 1's
    # (4,396 errors here), and a float trial count raised numpy's TypeError
    inst = symmetric_instance([0.7])
    for seed in (1.5, 1.99, True, np.float64(1.0), np.bool_(True)):
        with pytest.raises(ValueError, match="seed"):
            simulate_error(inst, (3,), 0, trials=20_000, seed=seed)
    for trials in (1000.0, True, "1000"):
        with pytest.raises(ValueError, match="trials"):
            simulate_error(inst, (3,), 0, trials=trials, seed=1)
    est = simulate_error(inst, (3,), 0, trials=20_000, seed=1)
    assert est.errors == 4396
    for seed in (np.int64(1), np.uint64(1), np.int8(1)):
        got = simulate_error(inst, (3,), 0, trials=np.int32(20_000), seed=seed)
        assert got == est
        assert type(got.seed) is int and type(got.trials) is int


@settings(max_examples=60, deadline=None)
@given(
    case=two_label_plans(),
    yi=st.integers(0, 1),
    trials=st.integers(1, 3000),
    seed=st.integers(0, 2**64 - 1),
    policy=st.sampled_from(TIE_POLICIES),
)
# exact ties: the profile (1, 1) has Δ = 0, decided by Δ
@example(
    case=(symmetric_instance([0.9]), QueryPlan((2,))),
    yi=0,
    trials=2000,
    seed=3,
    policy="count-tie-as-error",
)
# Δ at the threshold: every chunk falls back to the scores
@example(
    case=(near_threshold_instance(), QueryPlan((2,))),
    yi=1,
    trials=2000,
    seed=3,
    policy="lowest-index",
)
# three chunks, the last of one trial
@example(
    case=(symmetric_instance([0.75, 0.6]), QueryPlan((3, 4))),
    yi=0,
    trials=2 * CHUNK_TRIALS + 1,
    seed=11,
    policy="lowest-index",
)
def test_two_label_estimates_match_the_score_path(case, yi, trials, seed, policy):
    inst, plan = case
    got = simulate_error(inst, plan, yi, trials, seed, policy)
    assert got == reference_simulate_error(inst, plan, yi, trials, seed, policy)


@pytest.mark.parametrize("policy", TIE_POLICIES)
def test_chunks_fall_back_only_near_the_threshold(policy):
    # exact ties lie far from either threshold, a Δ at SCORE_TOL does not
    plan = (2,)
    for inst, falls_back in (
        (symmetric_instance([0.9]), False),
        (near_threshold_instance(), True),
    ):
        active = [(inst.models[0], 2)]
        margin = _delta_margin(inst, plan, _log_scale(inst, plan))
        chunks = _DeltaChunks(inst, active, 1, policy, margin)
        key = np.array([3, 0], dtype=np.uint64)
        assert (chunks.errors(key, 2000) is None) == falls_back


@pytest.mark.parametrize("r", [1, 2, 7, 29, 30, 31, 100, 1000, 10**6])
@pytest.mark.parametrize("p", [1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 1 - 1e-3])
def test_binomial_draws_are_the_two_symbol_multinomial(r, p):
    # simulate_error's Δ path draws a two-symbol model's counts with
    # binomial(r, p) where the score path calls multinomial(r, [p, 1 - p]);
    # both must consume the same stream alike, inversion (r·min(p, 1 - p)
    # < 30) and BTPE alike, or the estimates would part
    for key in ([0, 0], [7, 3], [2**64 - 1, 5]):
        key = np.array(key, dtype=np.uint64)
        a = np.random.Generator(np.random.Philox(key=key))
        b = np.random.Generator(np.random.Philox(key=key))
        first = a.binomial(r, p, size=500)
        counts = b.multinomial(r, [p, 1.0 - p], size=500)
        assert np.array_equal(first, counts[:, 0])
        assert np.array_equal(a.integers(2**62, size=4), b.integers(2**62, size=4))


def test_seeds_past_2_63_keep_their_low_bits():
    # Philox keys are two uint64 words: seeds past 2**63 that differ in
    # their lowest bit draw different streams (through float64 they drew
    # one), and the largest seed draws without a warning about a cast
    inst = symmetric_instance([0.9])
    seeds = (2**64 - 1, 2**64 - 2, 2**63 + 1, 2**63 + 2)
    errors = [simulate_error(inst, (1,), 0, 20_000, s).errors for s in seeds]
    assert errors == [1994, 1990, 2032, 2054]


@pytest.mark.parametrize("r", [1, 2, 7, 29, 30, 31, 60, 61, 100, 300, 301, 1000])
@pytest.mark.parametrize("p", [1e-3, 0.05, 0.3, 0.5, 0.7, 0.9, 0.95, 1 - 1e-3])
def test_ladders_are_numpys_binomial_draws(r, p):
    # simulate_error reads a single model's counts off _ladders where the
    # draw path calls binomial(r, p): numpy's inversion draws the first
    # k with u ≤ sums[k], flipped for p > 0.5, and BTPE takes
    # r·min(p, 1 - p) > 30 (here at 60·0.5 and 300·(1 - 0.9) against
    # 61·0.5, 100·0.3 and 301·(1 - 0.9)). A numpy upgrade that changes
    # either fails here, as the estimates would part from the score path
    side = p if p <= 0.5 else 1.0 - p
    ladder = _ladders(np.array([r]), p)
    if side * r > 30.0:
        assert ladder is None
        return
    flip, sums, bounds = ladder
    assert flip == (p > 0.5)
    sums = sums[0, : bounds[0] + 1]
    for key in KEYS:
        a, b = streams(key)
        u = a.random(500)
        x = np.searchsorted(sums, u)
        assert (x <= bounds[0]).all()  # no restart
        assert np.abs(u[:, None] - sums).min() > _clearance(bounds)[0]
        assert np.array_equal(r - x if flip else x, b.binomial(r, p, size=500))


def no_kinds(counts: np.ndarray) -> np.ndarray:
    """Every profile right: _Uniforms.build for its ladders alone."""
    return np.zeros(counts.shape[:-1], dtype=np.int8)


@pytest.mark.parametrize(
    "p",
    [
        (0.95, 0.04, 0.01),  # x₀ = r often: most trials take one uniform
        (0.6, 0.3, 0.1),
        (0.3, 0.3, 0.4),
        (0.2, 0.5, 0.3),  # not flipped: x₀ = r at the ladder's bound
        (0.05, 0.9, 0.05),  # the second binomial flipped
    ],
)
@pytest.mark.parametrize("r", [1, 2, 5, 24])
def test_trial_starts_read_the_multinomials_draws(p, r):
    # a three-symbol multinomial(r, p) draws binomial(r, p₀) and, unless
    # that is r, binomial(r - x₀, p₁ / (1 - p₀)) on the next uniform;
    # _trials finds each trial's uniforms without a loop, and the ladders
    # read both counts off them
    p = np.array(p)
    uniforms = _Uniforms.build(r, p, no_kinds)
    flip, sums, _ = _ladders(np.array([r]), p[0])
    n = 2000
    for key in KEYS:
        a, b = streams(key)
        first, second = uniforms._trials(a.random(2 * n), n)
        counts = b.multinomial(r, p, size=n)
        x = np.searchsorted(sums[0], first)
        x0 = r - x if flip else x
        assert np.array_equal(x0, counts[:, 0])
        for rest in np.unique(r - x0[x0 < r]):
            at = x0 == r - rest
            flip1, sums1, _ = _ladders(np.array([rest]), p[1] / (1.0 - p[0]))
            x1 = np.searchsorted(sums1[0], second[at])
            assert np.array_equal(rest - x1 if flip1 else x1, counts[at, 1])


@st.composite
def one_model_plans(draw) -> tuple[Instance, QueryPlan]:
    """A random two-label instance (two or three symbols per model) or one
    of symmetric channels, and a plan querying one of its models 1 to 80
    times: to r = 60 always by inversion, past it by BTPE for some p."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        inst = random_instance(rng, n_labels=2, max_models=3)
    else:
        ps = draw(st.lists(st.sampled_from([0.6, 0.75, 0.9]), min_size=1, max_size=3))
        inst = symmetric_instance(ps)
    counts = [0] * inst.n_models
    counts[draw(st.integers(0, inst.n_models - 1))] = draw(st.integers(1, 80))
    return inst, QueryPlan(tuple(counts))


@settings(max_examples=80, deadline=None)
@given(
    case=one_model_plans(),
    yi=st.integers(0, 1),
    trials=st.integers(1, 3000),
    seed=st.integers(0, 2**64 - 1),
    policy=st.sampled_from(TIE_POLICIES),
)
# most trials take one uniform
@example(
    case=(channel([0.95, 0.04, 0.01], [0.6, 0.2, 0.2]), QueryPlan((1,))),
    yi=0,
    trials=3000,
    seed=7,
    policy="lowest-index",
)
# x₀ = r at the first ladder's bound, under a prior that ties (1, 0, 0)
@example(
    case=(channel([0.3, 0.3, 0.4], [0.5, 0.25, 0.25], prior0=0.625), QueryPlan((1,))),
    yi=1,
    trials=3000,
    seed=0,
    policy="count-tie-as-error",
)
# two chunks of three symbols, the second of one trial
@example(
    case=(channel([0.6, 0.3, 0.1], [0.2, 0.3, 0.5]), QueryPlan((24,))),
    yi=1,
    trials=CHUNK_TRIALS + 1,
    seed=2**63 + 5,
    policy="lowest-index",
)
def test_single_model_counts_match_the_score_path(case, yi, trials, seed, policy):
    inst, plan = case
    got = simulate_error(inst, plan, yi, trials, seed, policy)
    assert got == reference_simulate_error(inst, plan, yi, trials, seed, policy)


@pytest.mark.parametrize("policy", TIE_POLICIES)
@pytest.mark.parametrize(
    "inst,plan",
    [
        (symmetric_instance([0.9]), (6,)),  # exact ties, Δ = 0
        (symmetric_instance([0.9]), (2,)),
        (channel([0.6, 0.3, 0.1], [0.2, 0.3, 0.5]), (24,)),
        (channel([0.95, 0.04, 0.01], [0.6, 0.2, 0.2]), (3,)),
    ],
)
def test_single_model_chunks_are_decided_by_their_uniforms(inst, plan, policy):
    key = np.array([9, 0], dtype=np.uint64)
    for yi in (0, 1):
        chunks = delta_chunks(inst, plan, yi, policy)
        wrong = chunks.uniforms.errors(key, CHUNK_TRIALS)
        assert wrong is not None
        want = reference_simulate_error(inst, plan, yi, CHUNK_TRIALS, 9, policy)
        assert wrong == want.errors


@pytest.mark.parametrize("policy", TIE_POLICIES)
def test_other_plans_take_the_draw_path(bsc, policy):
    cases = [
        (bsc, (400,)),  # 400·0.1 > 30: BTPE
        (channel([0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]), (5,)),  # four symbols
        (symmetric_instance([0.9, 0.75]), (3, 4)),  # two models
        # 120·0.1 ≤ 30 for x₀, but 120·0.5 > 30 for x₁ of (120 - x₀, 0.5)
        (channel([0.1, 0.45, 0.45], [0.2, 0.4, 0.4]), (120,)),
    ]
    for inst, plan in cases:
        for yi in (0, 1):
            assert delta_chunks(inst, plan, yi, policy).uniforms is None
            got = simulate_error(inst, plan, yi, 20_000, 3, policy)
            assert got == reference_simulate_error(inst, plan, yi, 20_000, 3, policy)


@pytest.mark.parametrize("policy", TIE_POLICIES)
def test_uniforms_redraw_near_the_threshold(policy):
    # the profile (1, 1) has Δ at the threshold: a chunk that draws it
    # goes to the draw path, which hands it to the scores
    inst = near_threshold_instance()
    key = np.array([3, 0], dtype=np.uint64)
    chunks = delta_chunks(inst, (2,), 1, policy)
    assert chunks.uniforms is not None
    assert chunks.uniforms.errors(key, 2000) is None
    assert simulate_error(inst, (2,), 1, 2000, 3, policy) == reference_simulate_error(
        inst, (2,), 1, 2000, 3, policy
    )
