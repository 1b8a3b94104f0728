from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from queryplan.experiments import random_instance, random_plan
from queryplan.instances import Instance, ModelSpec, QueryPlan
from queryplan.likelihood import SCORE_TOL
from queryplan.setcover import SetCoverInstance

# The acceptance suite: random instances alternating two and three labels,
# each followed by one random plan from the same stream.
SUITE_SEED = 20260826
SUITE_SIZE = 200


def acceptance_suite(n: int = SUITE_SIZE) -> list[tuple[Instance, QueryPlan]]:
    """The first ``n`` (instance, plan) draws of the acceptance suite."""
    rng = np.random.default_rng(SUITE_SEED)
    items = []
    for i in range(n):
        inst = random_instance(
            rng, n_labels=2 if i % 2 == 0 else 3, max_models=3, alpha=0.05
        )
        items.append((inst, random_plan(rng, inst)))
    return items


def symmetric_binary(p: float, cost: float, name: str) -> ModelSpec:
    """Two-symbol model emitting its label's preferred symbol with prob p."""
    return ModelSpec(
        name=name,
        alphabet=("a", "b"),
        conditional=np.array([[p, 1.0 - p], [1.0 - p, p]]),
        cost=cost,
    )


def symmetric_instance(ps: Sequence[float], prior0: float = 0.5) -> Instance:
    """Two labels and one symmetric channel per entry of ps; under the
    uniform prior, every profile with as many of each symbol has Δ = 0."""
    models = tuple(symmetric_binary(p, 1.0 + j, f"m{j}") for j, p in enumerate(ps))
    return Instance(
        ("0", "1"), np.array([prior0, 1.0 - prior0]), models, np.full(2, 0.05)
    )


def near_threshold_instance() -> Instance:
    """A symmetric channel under a prior whose log odds are SCORE_TOL, so
    every profile with as many of each symbol has Δ at the threshold
    SCORE_TOL."""
    prior0 = 1.0 / (1.0 + math.exp(SCORE_TOL))
    return symmetric_instance([0.9], prior0)


def three_label_draw(k: int) -> Instance:
    """Draw k of the three-label stream: the (k + 1)-th
    random_instance(rng, n_labels=3, max_models=3) from
    np.random.default_rng(5)."""
    rng = np.random.default_rng(5)
    for _ in range(k + 1):
        inst = random_instance(rng, n_labels=3, max_models=3)
    return inst


@st.composite
def two_label_plans(draw) -> tuple[Instance, QueryPlan]:
    """A random two-label instance or one of symmetric channels, and a plan
    querying any of its models up to 12 times, so 0 to 3 of them."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        inst = random_instance(rng, n_labels=2, max_models=3)
    else:
        ps = draw(st.lists(st.sampled_from([0.6, 0.75, 0.9]), min_size=1, max_size=3))
        inst = symmetric_instance(ps)
    counts = draw(st.tuples(*(st.integers(0, 12) for _ in inst.models)))
    return inst, QueryPlan(counts)


def symmetric_labels_instance(n_labels: int, ps: Sequence[float]) -> Instance:
    """n_labels labels under a uniform prior, and one symmetric channel per
    entry p of ps, with one symbol per label: label y emits its own symbol
    with prob p and each other one with prob (1 - p) / (n_labels - 1).
    Labels whose symbols a profile holds equally often tie: Δ = 0."""
    models = []
    for j, p in enumerate(ps):
        cond = np.full((n_labels, n_labels), (1.0 - p) / (n_labels - 1))
        np.fill_diagonal(cond, p)
        models.append(ModelSpec(f"m{j}", tuple("abcd"[:n_labels]), cond, 1.0 + j))
    return Instance(
        tuple(str(y) for y in range(n_labels)),
        np.full(n_labels, 1.0 / n_labels),
        tuple(models),
        np.full(n_labels, 0.05),
    )


@st.composite
def labelled_plans(draw) -> tuple[Instance, QueryPlan]:
    """A random instance of 2 to 4 labels or one of symmetric channels, and
    a plan querying any of its models up to 6 times, so 0 to 3 of them."""
    n_labels = draw(st.integers(2, 4))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        inst = random_instance(rng, n_labels=n_labels, max_models=3)
    else:
        ps = draw(st.lists(st.sampled_from([0.5, 0.7, 0.9]), min_size=1, max_size=2))
        inst = symmetric_labels_instance(n_labels, ps)
    counts = draw(st.tuples(*(st.integers(0, 6) for _ in inst.models)))
    return inst, QueryPlan(counts)


@pytest.fixture
def bsc() -> Instance:
    """Binary symmetric channel: the hand-checked reference instance."""
    return Instance(
        labels=("1", "2"),
        prior=np.array([0.5, 0.5]),
        models=(symmetric_binary(0.9, 1.0, "bsc"),),
        tolerances=np.array([0.05, 0.05]),
    )


@pytest.fixture
def asym() -> Instance:
    """Same channel with a lopsided prior, for endpoint-tilt checks."""
    return Instance(
        labels=("1", "2"),
        prior=np.array([0.9, 0.1]),
        models=(symmetric_binary(0.9, 1.0, "bsc"),),
        tolerances=np.array([0.05, 0.05]),
    )


@pytest.fixture
def duo() -> Instance:
    """Greedy foil: a cheap weak model vs a pricey sharp one.

    cheap: p(1-p) = 1/16 so the affinity at s=1/2 is exactly 0.5, cost 1.
    sharp: q(1-q) = 0.0024 so the affinity is ~0.098, cost 2.5.
    At alpha = 1e-3 the myopic baseline buys ten cheap queries (cost 10)
    while three sharp queries (cost 7.5) already meet the tolerance.
    """
    p = (2.0 + math.sqrt(3.0)) / 4.0
    q = (1.0 + math.sqrt(0.9904)) / 2.0
    return Instance(
        labels=("1", "2"),
        prior=np.array([0.5, 0.5]),
        models=(
            symmetric_binary(p, 1.0, "cheap"),
            symmetric_binary(q, 2.5, "sharp"),
        ),
        tolerances=np.array([1e-3, 1e-3]),
    )


@pytest.fixture
def sc3() -> SetCoverInstance:
    """Three-element cover whose cheapest cover is the single big set."""
    return SetCoverInstance(
        n=3,
        sets=(frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 2, 3})),
        weights=(2.0, 2.0, 3.0),
    )
