"""In-memory spans and the per-layer metrics derived from them.

Spans are recorded by the benchmark around its own calls into the package's
public functions; nothing inside the package is instrumented. A span has a
name (``<module>.<function>``), start and end times, the span that caused it,
the job it belongs to, and the host-speed scale in force when it started.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: int | None
    start: float
    scale: float = 1.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Duration in reference seconds: wall seconds times ``scale``."""
        return (self.end - self.start) * self.scale


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []

    def start(
        self, name: str, parent: int | None = None, job: int | None = None, scale: float = 1.0
    ) -> Span:
        span = Span(len(self.spans), name, parent, job, perf_counter(), scale)
        self.spans.append(span)
        return span

    def stop(self, span: Span) -> None:
        span.end = perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


# (name, unit) of every per-layer metric, in report order. planner.search.s
# is derived by subtraction, not measured; see DERIVED.
PER_LAYER = (
    ("planner.run_afptas.s", "s"),
    ("planner.run_afptas.calls", "count"),
    ("planner.derive_constants.s", "s"),
    ("planner.search.s", "s"),
    ("planner.snap_jobs", "count"),
    ("planner.axis_points.max", "count"),
    ("bounds.max_pair_weights.s", "s"),
    ("bounds.uniform_feasible_count.s", "s"),
    ("bounds.is_surrogate_feasible.s", "s"),
    ("bounds.is_surrogate_feasible.calls", "count"),
    ("exact.exact_opt.surrogate.s", "s"),
    ("exact.exact_opt.surrogate.enumerated", "count"),
    ("exact.exact_opt.true.s", "s"),
    ("exact.exact_opt.true.enumerated", "count"),
    ("exact.exact_error_table.s", "s"),
    ("exact.profiles", "count"),
    ("exact.budget_errors", "count"),
    ("simulate.simulate_error.s", "s"),
    ("simulate.trials_per_s", "1/s"),
    ("instances.load.s", "s"),
    ("experiments.random_instance.s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

DERIVED = {
    "planner.search.s": "derived: planner.run_afptas.s - planner.derive_constants.s"
    " - bounds.is_surrogate_feasible.s, each timed on the same input",
}


def layer_metrics(spans: list[Span], overhead_ratio: float) -> dict[str, float]:
    """Sums the spans of one traced pass (and its set-up) into PER_LAYER."""

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def seconds(name: str) -> float:
        return sum(s.seconds for s in named(name))

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in named(name))

    afptas = named("planner.run_afptas")
    sim_s = seconds("simulate.simulate_error")
    m = {
        "planner.run_afptas.s": seconds("planner.run_afptas"),
        "planner.run_afptas.calls": len(afptas),
        "planner.derive_constants.s": seconds("planner.derive_constants"),
        "planner.snap_jobs": sum(s.attrs.get("mode") == "search-snap" for s in afptas),
        "planner.axis_points.max": max(
            (s.attrs.get("axis_points", 0) for s in afptas), default=0
        ),
        "bounds.max_pair_weights.s": seconds("bounds.max_pair_weights"),
        "bounds.uniform_feasible_count.s": seconds("bounds.uniform_feasible_count"),
        "bounds.is_surrogate_feasible.s": seconds("bounds.is_surrogate_feasible"),
        "bounds.is_surrogate_feasible.calls": len(named("bounds.is_surrogate_feasible")),
        "exact.exact_opt.surrogate.s": seconds("exact.exact_opt.surrogate"),
        "exact.exact_opt.surrogate.enumerated": attr_sum(
            "exact.exact_opt.surrogate", "enumerated"
        ),
        "exact.exact_opt.true.s": seconds("exact.exact_opt.true"),
        "exact.exact_opt.true.enumerated": attr_sum("exact.exact_opt.true", "enumerated"),
        "exact.exact_error_table.s": seconds("exact.exact_error_table"),
        "exact.profiles": attr_sum("exact.exact_error_table", "profiles"),
        "exact.budget_errors": sum(
            s.attrs.get("error") == "EnumerationBudgetError" for s in spans
        ),
        "simulate.simulate_error.s": sim_s,
        "simulate.trials_per_s": (
            attr_sum("simulate.simulate_error", "trials") / sim_s if sim_s > 0 else 0.0
        ),
        "instances.load.s": seconds("instances.load"),
        "experiments.random_instance.s": seconds("experiments.random_instance"),
        "trace.overhead_ratio": overhead_ratio,
    }
    m["planner.search.s"] = (
        m["planner.run_afptas.s"]
        - m["planner.derive_constants.s"]
        - m["bounds.is_surrogate_feasible.s"]
    )
    return {name: m[name] for name, _ in PER_LAYER}
