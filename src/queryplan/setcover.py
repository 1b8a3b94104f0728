"""Embedding weighted set cover into plan optimization.

A cover instance over universe {1..n} maps to a classification instance
with a null label 0 and one label per element. A near-free "pinpoint" model
reveals the element label almost surely (softened by eta so conditionals
stay positive) and is uninformative under the null. Each set becomes a
binary model that leans toward "in" exactly on the labels it covers and is
a fair coin otherwise. With tolerances alpha_0 = 1 - delta_dprime and
alpha_i = 2 * epsilon, a plan that queries the pinpoint model once and a
0/1 subset of set models meets every tolerance exactly when the chosen sets
cover the universe: a covering query separates element i from the null,
while with no covering query the two scores tie and label 0 wins the tie,
so the element errs with certainty.

The correspondence is stated over that restricted plan family. Repeating
the pinpoint model is excluded because two near-certain pinpoint hits beat
the null by likelihood accumulation alone, meeting every tolerance at cost
2 * delta_prime without covering anything; verify_equivalence computes that
unrestricted optimum too and reports it alongside the family optimum.

One subtlety limits the lean parameter: an "out" response carries log-odds
log(2*epsilon) against the element while an "in" carries only
log(2*(1-epsilon)) for it, so for small epsilon a single "out" outvotes
several "in"s and an element covered by three or more queried sets errs
with probability about 1 - (1-epsilon)^k > 2*epsilon. Near epsilon = 1/4
two "in"s outvote an "out" and the correspondence holds for every coverage
multiplicity that small instances can produce; epsilon = 0.2 is a safe
choice for universes up to four elements and four sets, the sizes
random_setcover draws up to (MAX_N and MAX_SETS).

verify_equivalence decides ties by TIE_POLICY, "lowest-index": the
argument above is that label 0 wins the tie.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import exact_error, exact_opt
from .instances import (
    Instance,
    ModelSpec,
    QueryPlan,
    _expect,
    instance_to_dict,
    plan_cost,
)

DEFAULT_ETA = 1e-9
DEFAULT_DELTA_DPRIME = 1e-3

# How far the family optimum may sit from delta_prime plus the cover weight;
# also the slack on the unrestricted search's cost cap.
OPT_TOL = 1e-9

# delta_prime defaults to this fraction of the lightest set weight.
DELTA_PRIME_FRACTION = 1e-3

# The largest universe and number of sets random_setcover draws: the sizes
# for which epsilon = 0.2 is safe (see the module docstring).
MAX_N = 4
MAX_SETS = 4

# The tie policy of the correspondence: a tie goes to the null label 0.
TIE_POLICY = "lowest-index"


@dataclass(frozen=True)
class SetCoverInstance:
    """Weighted set cover over universe {1, ..., n}."""

    n: int
    sets: tuple[frozenset[int], ...]
    weights: tuple[float, ...]
    budget: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("universe must be nonempty")
        sets = tuple(frozenset(int(e) for e in s) for s in self.sets)
        weights = tuple(float(w) for w in self.weights)
        if len(sets) != len(weights):
            raise ValueError("need one weight per set")
        if not sets:
            raise ValueError("need at least one set")
        universe = set(range(1, self.n + 1))
        for i, s in enumerate(sets):
            if not s:
                raise ValueError(f"set {i} is empty")
            if not s <= universe:
                raise ValueError(f"set {i} has elements outside the universe")
        for i, w in enumerate(weights):
            if not (math.isfinite(w) and w > 0):
                raise ValueError(
                    f"weights[{i}] must be finite and positive, got {w!r}"
                )
        if self.budget is not None and not math.isfinite(self.budget):
            raise ValueError(f"budget must be finite, got {self.budget!r}")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "weights", weights)

    @property
    def n_sets(self) -> int:
        return len(self.sets)

    def covers(self, indices: Sequence[int]) -> bool:
        got: set[int] = set()
        for j in indices:
            got |= self.sets[j]
        return got == set(range(1, self.n + 1))

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "sets": [sorted(s) for s in self.sets],
            "weights": list(self.weights),
        }
        if self.budget is not None:
            d["budget"] = self.budget
        return d


def load_setcover(path: str) -> SetCoverInstance:
    """Reads a JSON object {n, sets, weights[, budget]}; raises ValueError
    naming the first missing, unknown or malformed field."""
    with open(path) as fh:
        data = _expect(json.load(fh), dict, "set-cover file", "an object")
    unknown = set(data) - {"n", "sets", "weights", "budget"}
    if unknown:
        raise ValueError(f"unknown set-cover keys: {sorted(unknown)}")
    missing = [key for key in ("n", "sets", "weights") if key not in data]
    if missing:
        raise ValueError(f"set-cover file is missing required keys {missing}")
    sets = _expect(data["sets"], list, "sets", "an array")
    for i, s in enumerate(sets):
        for e in _expect(s, list, f"sets[{i}]", "an array"):
            _expect(e, int, f"sets[{i}] elements", "integers")
    weights = _expect(data["weights"], list, "weights", "an array")
    for i, w in enumerate(weights):
        _expect(w, (int, float), f"weights[{i}]", "a number")
    budget = data.get("budget")
    if budget is not None:
        _expect(budget, (int, float), "budget", "a number")
    return SetCoverInstance(
        n=_expect(data["n"], int, "n", "an integer"),
        sets=tuple(frozenset(s) for s in sets),
        weights=tuple(weights),
        budget=budget,
    )


def min_cover(sc: SetCoverInstance) -> tuple[float, tuple[int, ...]]:
    """Minimum-weight cover by exhaustive subset search; raises if no cover
    exists. Ties prefer the lexicographically smallest index set."""
    if sc.n_sets > 20:
        raise ValueError("exhaustive cover search is capped at 20 sets")
    best: tuple[float, tuple[int, ...]] | None = None
    for mask in range(1 << sc.n_sets):
        idx = tuple(j for j in range(sc.n_sets) if mask >> j & 1)
        if not sc.covers(idx):
            continue
        w = math.fsum(sc.weights[j] for j in idx)
        key = (w, idx)
        if best is None or key < best:
            best = key
    if best is None:
        raise ValueError("the sets do not cover the universe")
    return best


@dataclass(frozen=True)
class Reduction:
    instance: Instance
    metadata: dict

    def to_dict(self) -> dict:
        return {"instance": instance_to_dict(self.instance), "metadata": self.metadata}


def reduce(
    sc: SetCoverInstance,
    epsilon: float,
    delta_prime: float | None = None,
    delta_dprime: float = DEFAULT_DELTA_DPRIME,
    eta: float = DEFAULT_ETA,
) -> Reduction:
    """Builds the classification instance embedding the cover instance.

    epsilon in (0, 1/4) sets the set models' lean and the element
    tolerances 2*epsilon; delta_prime is the near-free pinpoint cost
    (default: a thousandth of the lightest set weight); delta_dprime sets
    the slack tolerance 1 - delta_dprime on the null label; eta softens the
    pinpoint conditionals so all entries stay positive.
    """
    if sc.n < 2:
        raise ValueError("reduction needs a universe of at least 2 elements")
    if not 0.0 < epsilon < 0.25:
        raise ValueError(f"epsilon must lie in (0, 1/4), got {epsilon!r}")
    if not 0.0 < delta_dprime < 1.0:
        raise ValueError("delta_dprime must lie in (0, 1)")
    if not 0.0 < eta < 1.0 / (2 * sc.n):
        raise ValueError("eta must be a small positive softener")
    if delta_prime is None:
        delta_prime = DELTA_PRIME_FRACTION * min(sc.weights)
    if not (math.isfinite(delta_prime) and delta_prime > 0):
        raise ValueError(
            f"delta_prime must be finite and positive, got {delta_prime!r}"
        )
    n = sc.n
    labels = tuple(str(i) for i in range(n + 1))
    prior = np.array([0.5] + [0.5 / n] * n)
    tolerances = np.array([1.0 - delta_dprime] + [2.0 * epsilon] * n)

    pinpoint_rows = np.full((n + 1, n), 1.0 / n)
    for i in range(1, n + 1):
        pinpoint_rows[i] = eta
        pinpoint_rows[i, i - 1] = 1.0 - (n - 1) * eta
    models = [
        ModelSpec(
            name="pinpoint",
            alphabet=tuple(f"e{i}" for i in range(1, n + 1)),
            conditional=pinpoint_rows,
            cost=delta_prime,
        )
    ]
    for j, (s, w) in enumerate(zip(sc.sets, sc.weights)):
        rows = np.full((n + 1, 2), 0.5)
        for i in s:
            rows[i] = (1.0 - epsilon, epsilon)
        models.append(
            ModelSpec(
                name=f"set{j + 1}",
                alphabet=("in", "out"),
                conditional=rows,
                cost=w,
            )
        )
    instance = Instance(
        labels=labels, prior=prior, models=tuple(models), tolerances=tolerances
    )
    metadata = {
        "universe": n,
        "n_sets": sc.n_sets,
        "epsilon": epsilon,
        "delta_prime": delta_prime,
        "delta_dprime": delta_dprime,
        "eta": eta,
        "discriminator": "pinpoint",
        "set_models": [f"set{j + 1}" for j in range(sc.n_sets)],
    }
    if sc.budget is not None:
        metadata["budget"] = sc.budget
        metadata["translated_budget"] = sc.budget + delta_prime
    return Reduction(instance=instance, metadata=metadata)


def verify_equivalence(
    sc: SetCoverInstance,
    epsilon: float,
    delta_prime: float | None = None,
    delta_dprime: float = DEFAULT_DELTA_DPRIME,
    eta: float = DEFAULT_ETA,
) -> dict:
    """Exhaustively checks the cover/feasibility correspondence.

    Over the family {pinpoint once, each set model 0 or 1 times}: a plan is
    truly feasible iff its chosen sets cover the universe, and the cheapest
    feasible plan costs delta_prime plus the minimum cover weight. Also
    computes the unrestricted exact optimum, which exploits pinpoint
    repetition and undercuts every covering plan; it is reported, not
    counted against the correspondence.

    The feasibility half of the correspondence needs epsilon large enough
    that multiply-covered elements stay within tolerance (see the module
    docstring); with epsilon well below that window this function honestly
    reports the mismatching plans.
    """
    red = reduce(sc, epsilon, delta_prime, delta_dprime, eta)
    inst = red.instance
    n, K = sc.n, sc.n_sets
    mismatches = []
    family_best: tuple[float, tuple[int, ...]] | None = None
    checked = 0
    for bits in itertools.product((0, 1), repeat=K):
        counts = (1,) + bits
        checked += 1
        feasible = all(
            exact_error(inst, counts, yi, TIE_POLICY) <= float(inst.tolerances[yi])
            for yi in range(inst.n_labels)
        )
        chosen = [j for j in range(K) if bits[j]]
        covering = sc.covers(chosen)
        if feasible != covering:
            mismatches.append(
                {"plan": list(counts), "feasible": feasible, "covers": covering}
            )
        if feasible:
            key = (plan_cost(inst, counts), counts)
            if family_best is None or key < family_best:
                family_best = key
    cover_weight, cover_idx = min_cover(sc)
    expected_cost = red.metadata["delta_prime"] + cover_weight
    family_cost = family_best[0] if family_best else math.inf
    opt_match = abs(family_cost - expected_cost) <= OPT_TOL

    unrestricted = exact_opt(
        inst,
        problem="true",
        tie_policy=TIE_POLICY,
        cost_cap=expected_cost + OPT_TOL,
    )
    return {
        "equivalent": not mismatches and opt_match,
        "plans_checked": checked,
        "mismatches": mismatches,
        "family_opt_cost": family_cost,
        "family_opt_plan": list(family_best[1]) if family_best else None,
        "expected_opt_cost": expected_cost,
        "min_cover_weight": cover_weight,
        "min_cover_sets": list(cover_idx),
        "opt_match": opt_match,
        "unrestricted_opt_cost": unrestricted.cost,
        "unrestricted_opt_plan": list(unrestricted.plan.counts),
        "note": (
            "feasibility matches covering over plans querying the pinpoint "
            "model exactly once; the unrestricted optimum repeats the "
            "pinpoint model, which separates elements from the null by "
            "accumulated likelihood without covering anything"
        ),
    }


def random_setcover(rng: np.random.Generator) -> SetCoverInstance:
    """Random covering instance of 2..MAX_N elements and 1..MAX_SETS sets;
    the union always covers the universe."""
    n = int(rng.integers(2, MAX_N + 1))
    k = int(rng.integers(1, MAX_SETS + 1))
    universe = list(range(1, n + 1))
    sets = []
    for _ in range(k):
        size = int(rng.integers(1, n + 1))
        sets.append(frozenset(rng.choice(universe, size=size, replace=False).tolist()))
    missing = set(universe) - set().union(*sets)
    if missing:
        sets[-1] = sets[-1] | missing
    weights = np.round(rng.uniform(1.0, 5.0, size=k), 3)
    return SetCoverInstance(n=n, sets=tuple(sets), weights=tuple(weights))
