"""Experiment drivers: random instances and sweeps.

The random family keeps instances desk-scale: small alphabets, conditional
rows drawn from a flat Dirichlet then floored at ROW_FLOOR and renormalized
(bounding every log-likelihood ratio), a per-model row separation of at
least MIN_SEPARATION so no model is uninformative, and costs log-uniform
over COST_RANGE. Sweeps that need the exact optimizer skip draws whose
lattice search would blow its node budget, so runs stay deterministic and
bounded for a given seed.
"""

from __future__ import annotations

import csv
import math
from typing import Sequence

import numpy as np

from .exact import (
    EnumerationBudgetError,
    _budget,
    exact_opt,
)
from .instances import Instance, ModelSpec, QueryPlan
from .planner import run_afptas

# random_instance's family: the floor on every conditional entry before
# renormalizing, the range of the log-uniform costs, and the gap that every
# two rows of a model must reach in some entry.
ROW_FLOOR = 0.01
COST_RANGE = (0.5, 2.0)
MIN_SEPARATION = 0.05

# guarantee_sweep skips a draw whose exact surrogate optimum needs more
# lattice nodes than this.
GUARANTEE_NODE_BUDGET = 200_000

TIGHTNESS_FIELDS = ("alpha_min", "opt", "surrogate_opt", "ratio")
GUARANTEE_FIELDS = (
    "instance",
    "epsilon",
    "opt",
    "afptas_cost",
    "ratio",
    "within_factor",
    "guarantee_status",
)


def random_instance(
    rng: np.random.Generator,
    n_labels: int = 2,
    max_models: int = 3,
    alphabet_sizes: tuple[int, int] = (2, 3),
    alpha: float = 1e-3,
) -> Instance:
    """Draws a small random instance.

    Conditional rows are Dirichlet(1) draws floored at ROW_FLOOR and
    renormalized; a model is redrawn until every label pair differs by at
    least MIN_SEPARATION in some entry, so every model carries evidence
    for every pair. Costs are log-uniform over COST_RANGE; tolerances
    are ``alpha`` for every label.
    """
    K = int(rng.integers(1, max_models + 1))
    models = []
    for k in range(K):
        size = int(rng.integers(alphabet_sizes[0], alphabet_sizes[1] + 1))
        for _ in range(200):
            rows = rng.dirichlet(np.ones(size), size=n_labels)
            rows = np.maximum(rows, ROW_FLOOR)
            rows = rows / rows.sum(axis=1, keepdims=True)
            sep = min(
                float(np.max(np.abs(rows[i] - rows[j])))
                for i in range(n_labels)
                for j in range(i + 1, n_labels)
            )
            if sep >= MIN_SEPARATION:
                break
        else:
            raise RuntimeError("could not draw a separated model in 200 tries")
        cost = math.exp(
            rng.uniform(math.log(COST_RANGE[0]), math.log(COST_RANGE[1]))
        )
        models.append(
            ModelSpec(
                name=f"m{k + 1}",
                alphabet=tuple(f"x{j + 1}" for j in range(size)),
                conditional=rows,
                cost=cost,
            )
        )
    prior = rng.dirichlet(np.ones(n_labels))
    prior = np.maximum(prior, 0.1)
    prior = prior / prior.sum()
    return Instance(
        labels=tuple(str(i + 1) for i in range(n_labels)),
        prior=prior,
        models=tuple(models),
        tolerances=np.full(n_labels, alpha),
    )


def random_plan(
    rng: np.random.Generator, instance: Instance, max_total: int = 8
) -> QueryPlan:
    total = int(rng.integers(0, max_total + 1))
    if total == 0:
        return QueryPlan((0,) * instance.n_models)
    share = rng.multinomial(total, np.full(instance.n_models, 1.0 / instance.n_models))
    return QueryPlan(tuple(int(c) for c in share))


def write_rows(path: str, rows: Sequence[dict], fields: Sequence[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fields})


def _sweep_alpha(alpha: float) -> float:
    """alpha as a float; raises ValueError unless 0 < alpha < 1, as a sweep
    sets every label's tolerance to it."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(
            f"alpha sets every label's tolerance, and tolerances must lie in "
            f"(0, 1), got {alpha!r}"
        )
    return float(alpha)


def tightness_sweep(
    instance: Instance,
    alphas: Sequence[float],
    tie_policy: str = "lowest-index",
) -> list[dict]:
    """Exact optimum vs surrogate optimum as tolerances tighten.

    Every label's tolerance is set to the same alpha at each sweep point.
    The ratio surrogate_opt / opt is at least 1 and should drift toward 1
    as alpha shrinks, reflecting the bound's asymptotic tightness. Raises
    ValueError unless every alpha lies in (0, 1).
    """
    alphas = [_sweep_alpha(alpha) for alpha in alphas]
    rows = []
    for alpha in alphas:
        inst = instance.with_tolerances(np.full(instance.n_labels, alpha))
        opt = exact_opt(inst, problem="true", tie_policy=tie_policy)
        sur = exact_opt(inst, problem="surrogate")
        if opt.cost > 0:
            ratio = sur.cost / opt.cost
        else:
            ratio = 1.0 if sur.cost == 0 else math.inf
        rows.append(
            {
                "alpha_min": alpha,
                "opt": opt.cost,
                "surrogate_opt": sur.cost,
                "ratio": ratio,
            }
        )
    return rows


def guarantee_sweep(
    seed: int,
    n_instances: int = 50,
    epsilons: Sequence[float] = (0.1, 0.5, 1.0),
    alpha: float = 1e-3,
) -> list[dict]:
    """Approximation ratios of the scheme on random instances.

    Draws two-label instances of at most three models until
    ``n_instances`` admit an exact surrogate optimum within
    GUARANTEE_NODE_BUDGET lattice nodes (others are skipped), then runs
    the scheme at each epsilon and records cost, ratio, and whether the
    (1+eps) factor held. Deterministic for a given seed. Raises ValueError
    unless seed and n_instances are non-negative integers and 0 < alpha < 1,
    alpha being every label's tolerance.
    """
    seed = _budget(seed, "seed")
    n_instances = _budget(n_instances, "n_instances")
    alpha = _sweep_alpha(alpha)
    rng = np.random.default_rng(seed)
    rows = []
    accepted = 0
    draws = 0
    while accepted < n_instances:
        draws += 1
        if draws > 50 * n_instances:
            raise RuntimeError("too many rejected draws; loosen the budget")
        inst = random_instance(rng, n_labels=2, max_models=3, alpha=alpha)
        try:
            opt = exact_opt(
                inst, problem="surrogate", node_budget=GUARANTEE_NODE_BUDGET
            )
        except EnumerationBudgetError:
            continue
        accepted += 1
        for eps in epsilons:
            cert = run_afptas(inst, eps)
            ratio = cert.cost / opt.cost if opt.cost > 0 else 1.0
            rows.append(
                {
                    "instance": accepted,
                    "epsilon": eps,
                    "opt": opt.cost,
                    "afptas_cost": cert.cost,
                    "ratio": ratio,
                    "within_factor": cert.cost <= (1.0 + eps) * opt.cost + 1e-9,
                    "guarantee_status": cert.guarantee["status"],
                }
            )
    return rows
