"""Problem instances: labels, priors, noisy models, and query plans.

An instance describes a classification problem where the true label can only
be probed through stochastic models. Each model has a finite response
alphabet, a per-label conditional distribution over that alphabet, and a
positive per-query cost. A query plan assigns a repetition count to every
model; queries are conditionally independent given the label.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

SCHEMA_VERSION = "1"

# Tolerance for probability normalization checks throughout the package.
SUM_TOL = 1e-12

# Two conditional rows are treated as identical when they differ by no more
# than this in any entry; such a pair carries no usable evidence.
IDENTIFIABILITY_TOL = 1e-12

_T = TypeVar("_T")


@dataclass(frozen=True)
class ModelSpec:
    """One queryable model: response alphabet, conditionals, per-query cost.

    ``conditional[i, j]`` is the probability of emitting ``alphabet[j]``
    when the true label has index ``i`` (rows follow instance label order).
    The name and every symbol must be strings, and every conditional entry
    and the cost finite and positive; the constructor raises ValueError
    naming the field otherwise.
    """

    name: str
    alphabet: tuple[str, ...]
    conditional: np.ndarray
    cost: float
    log_conditional: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _expect(self.name, str, "model name", "a string")
        alphabet = tuple(_strings(self.alphabet, f"model {self.name!r}: alphabet"))
        cond = _to_float(self.conditional, f"model {self.name!r} conditional", True)
        if cond.ndim != 2:
            raise ValueError(f"model {self.name!r}: conditional must be a 2-d matrix")
        if cond.shape[1] != len(alphabet):
            raise ValueError(
                f"model {self.name!r}: conditional has {cond.shape[1]} columns "
                f"but alphabet has {len(alphabet)} symbols"
            )
        cost = _to_float(self.cost, f"model {self.name!r} cost")
        if not (0.0 < cost < math.inf and _finite_positive(cond)):
            named = {
                f"model {self.name!r} conditional": cond,
                f"model {self.name!r} cost": cost,
            }
            _name_bad_values(named, named)
        cond.setflags(write=False)
        logc = np.log(cond)
        logc.setflags(write=False)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "conditional", cond)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "log_conditional", logc)

    @property
    def n_symbols(self) -> int:
        return len(self.alphabet)

    def symbol_index(self, symbol: str) -> int:
        try:
            return self.alphabet.index(symbol)
        except ValueError:
            raise ValueError(
                f"model {self.name!r} has no symbol {symbol!r}"
            ) from None


def _too_large(field: str) -> ValueError:
    """The error for an integer too large for a float in field, for which
    Python and numpy raise OverflowError."""
    return ValueError(f"number too large for a float in {field}")


def _to_float(value, field: str, array: bool = False):
    """float(value), or value as a float array; _too_large(field) for an
    integer too large for a float."""
    try:
        return np.array(value, dtype=float) if array else float(value)
    except OverflowError:
        raise _too_large(field) from None


def _finite_positive(values: np.ndarray) -> bool:
    """Whether every entry is finite and > 0 (NaN is neither). A Python
    loop: these arrays are small, and numpy's per-call cost would dominate
    building an instance."""
    return all(0.0 < x < math.inf for x in values.ravel().tolist())


def _name_bad_values(finite: Mapping, positive: Mapping) -> None:
    """Raises ValueError naming every field of finite that holds NaN or an
    infinity, or failing that every field of positive that holds a value <= 0."""
    bad = [name for name, v in finite.items() if not np.isfinite(v).all()]
    if bad:
        raise ValueError(f"non-finite value (NaN or inf) in {', '.join(bad)}")
    bad = [name for name, v in positive.items() if np.any(v <= 0)]
    if bad:
        raise ValueError(f"non-positive value in {', '.join(bad)}")


def _indistinguishable(model: ModelSpec, i: int, j: int) -> bool:
    """Whether the model's rows for labels i and j differ by no more than
    IDENTIFIABILITY_TOL anywhere, so its answers carry no evidence between
    the two labels."""
    gap = float(np.max(np.abs(model.conditional[i] - model.conditional[j])))
    return gap <= IDENTIFIABILITY_TOL


@dataclass(frozen=True)
class Instance:
    """An immutable classification problem.

    ``prior[i]`` and ``tolerances[i]`` refer to ``labels[i]``. Every model's
    conditional matrix must have one row per label, in label order. Every
    label must be a string, and every prior entry and tolerance finite and
    positive; the constructor raises ValueError naming the field otherwise.
    The solvers take logs of these values and rely on this instead of
    checking each call.
    """

    labels: tuple[str, ...]
    prior: np.ndarray
    models: tuple[ModelSpec, ...]
    tolerances: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(_strings(self.labels, "labels"))
        prior = _to_float(self.prior, "prior", True)
        tol = _to_float(self.tolerances, "tolerances", True)
        models = tuple(self.models)
        L = len(labels)
        if prior.shape != (L,):
            raise ValueError(f"prior has shape {prior.shape}, expected ({L},)")
        if tol.shape != (L,):
            raise ValueError(f"tolerances has shape {tol.shape}, expected ({L},)")
        if len(set(labels)) != L:
            raise ValueError("labels must be distinct")
        for m in models:
            if m.conditional.shape[0] != L:
                raise ValueError(
                    f"model {m.name!r}: conditional has {m.conditional.shape[0]} "
                    f"rows but instance has {L} labels"
                )
        if len({m.name for m in models}) != len(models):
            raise ValueError("model names must be distinct")
        if not (_finite_positive(prior) and _finite_positive(tol)):
            _name_bad_values({"prior": prior, "tolerances": tol}, {"prior": prior})
            raise ValueError(f"tolerances must be positive, got {float(tol.min())!r}")
        prior.setflags(write=False)
        tol.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "tolerances", tol)
        object.__setattr__(self, "_label_pos", {y: i for i, y in enumerate(labels)})
        object.__setattr__(
            self, "_model_pos", {m.name: i for i, m in enumerate(models)}
        )
        logp = np.log(prior)
        logp.setflags(write=False)
        object.__setattr__(self, "log_prior", logp)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def n_models(self) -> int:
        return len(self.models)

    @property
    def costs(self) -> np.ndarray:
        return np.array([m.cost for m in self.models])

    def label_index(self, y: int | str) -> int:
        """Accepts a label name or an index and returns the index."""
        if isinstance(y, (int, np.integer)):
            if not 0 <= y < self.n_labels:
                raise ValueError(f"label index {y} out of range")
            return int(y)
        try:
            return self._label_pos[str(y)]
        except KeyError:
            raise ValueError(f"unknown label {y!r}") from None

    def model_index(self, m: int | str) -> int:
        if isinstance(m, (int, np.integer)):
            if not 0 <= m < self.n_models:
                raise ValueError(f"model index {m} out of range")
            return int(m)
        try:
            return self._model_pos[str(m)]
        except KeyError:
            raise ValueError(f"unknown model {m!r}") from None

    def with_tolerances(self, tolerances: Sequence[float]) -> "Instance":
        return Instance(self.labels, self.prior, self.models, np.asarray(tolerances))

    def _shared(self, key, build: Callable[[], _T]) -> _T:
        """build(), made once per key for this Instance object and shared
        by every search on it: uniform_feasible_count's answer, the
        PairStack of its ordered pairs, the TangentTable of each grid
        size, the surrogate searches' walk of each grid size, which serves
        every cost cap, the constants of derive_constants that do not
        depend on epsilon, each plan run_afptas returns with its surrogate
        report, and the largest log magnitudes of the prior and of each
        model's conditional (likelihood._log_scale). The memo is no field,
        so repr, ==, JSON, dataclasses.replace and with_tolerances do not
        see it, and pickles and copies leave it out (__getstate__): a copy
        builds its own. An instance is immutable, so what is built from it
        never goes stale."""
        memo = self.__dict__.get("_search")
        if memo is None:
            memo = self.__dict__.setdefault("_search", {})
        value = memo.get(key)
        if value is None:
            value = memo.setdefault(key, build())
        return value

    def __getstate__(self) -> dict:
        """What pickles and copies keep: every attribute but the memo."""
        state = dict(self.__dict__)
        state.pop("_search", None)
        return state


@dataclass(frozen=True, slots=True)
class QueryPlan:
    """Nonnegative integer repetition counts, one per model."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError("plan counts must be nonnegative")
        # the solvers hold counts as int64
        if any(c >= 2**63 for c in counts):
            raise ValueError("plan counts must be below 2**63")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def as_array(self) -> np.ndarray:
        return np.array(self.counts, dtype=np.int64)


def as_plan(plan: QueryPlan | Sequence[int], instance: Instance) -> QueryPlan:
    """Coerces a sequence of counts to a QueryPlan sized for the instance."""
    if not isinstance(plan, QueryPlan):
        plan = QueryPlan(tuple(plan))
    if len(plan.counts) != instance.n_models:
        raise ValueError(
            f"plan has {len(plan.counts)} counts but instance has "
            f"{instance.n_models} models"
        )
    return plan


def plan_cost(instance: Instance, plan: QueryPlan | Sequence[int]) -> float:
    """Total cost of a plan: sum over models of count times per-query cost."""
    plan = as_plan(plan, instance)
    return float(sum(c * m.cost for c, m in zip(plan.counts, instance.models)))


@dataclass(frozen=True)
class Validation:
    ok: bool
    violations: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": list(self.violations)}


def validate(instance: Instance) -> Validation:
    """Checks the modelling rules the constructors leave open and reports
    all violations found.

    The constructors already hold every prior entry, tolerance,
    conditional entry and cost finite and positive. Rules checked here: at
    least two labels, a prior summing to one (within 1e-12), tolerances
    below 1, at least one model, and for each model an alphabet of at
    least 2 distinct symbols and rows summing to one within 1e-12.
    Additionally every label pair must be distinguishable by some model.
    """
    v: list[str] = []
    L = instance.n_labels
    if L < 2:
        v.append(f"need at least 2 labels, got {L}")
    s = float(instance.prior.sum())
    if abs(s - 1.0) > SUM_TOL:
        v.append(f"prior sums to {s!r}, off by more than {SUM_TOL}")
    for y, a in zip(instance.labels, instance.tolerances.tolist()):
        if a >= 1.0:
            v.append(f"tolerance for label {y!r} is {a!r}, must lie in (0, 1)")
    if instance.n_models == 0:
        v.append("instance has no models")
    for m in instance.models:
        if m.n_symbols < 2:
            v.append(f"model {m.name!r}: alphabet needs at least 2 symbols")
        if len(set(m.alphabet)) != m.n_symbols:
            v.append(f"model {m.name!r}: alphabet symbols must be distinct")
        bad = np.abs(m.conditional.sum(axis=1) - 1.0) > SUM_TOL
        for i in np.flatnonzero(bad):
            v.append(
                f"model {m.name!r}: row for label {instance.labels[i]!r} sums to "
                f"{float(m.conditional[i].sum())!r}"
            )
    if instance.n_models > 0 and L >= 2:
        for i in range(L):
            for j in range(i + 1, L):
                if all(_indistinguishable(m, i, j) for m in instance.models):
                    v.append(
                        f"labels {instance.labels[i]!r} and {instance.labels[j]!r} "
                        "are indistinguishable under every model"
                    )
    return Validation(ok=not v, violations=tuple(v))


def _label_pair(
    instance: Instance, y: int | str, y_other: int | str
) -> tuple[int, int]:
    """The indices (yi, yj) of a label pair, which must name two distinct
    labels; every entry that takes a pair (y, y') checks it here."""
    yi = instance.label_index(y)
    yj = instance.label_index(y_other)
    if yi == yj:
        raise ValueError(
            f"a label pair needs two distinct labels, got {y!r} and {y_other!r}"
        )
    return yi, yj


# ---------------------------------------------------------------------------
# JSON serialization. Key order is fixed so that save(load(f)) reproduces a
# canonical file byte for byte; floats round-trip through repr.
# ---------------------------------------------------------------------------

_TOP_KEYS = {"schema_version", "labels", "prior", "tolerances", "models", "metadata"}
_MODEL_KEYS = {"name", "cost", "alphabet", "conditional"}


def instance_to_dict(instance: Instance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "labels": list(instance.labels),
        "prior": [float(p) for p in instance.prior],
        "tolerances": [float(a) for a in instance.tolerances],
        "models": [
            {
                "name": m.name,
                "cost": float(m.cost),
                "alphabet": list(m.alphabet),
                "conditional": [[float(p) for p in row] for row in m.conditional],
            }
            for m in instance.models
        ],
    }


def instance_to_json(instance: Instance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(instance_to_json(instance))


def _parse_int(literal: str) -> int:
    """json's parse_int hook, the one way the package reads JSON integers.
    int() refuses literals past the interpreter's digit limit (4,300 by
    default); decimal.Decimal reads them, so a long integer reaches the
    field's own check, which names the field."""
    try:
        return int(literal)
    except ValueError:
        import decimal  # only for such literals: the module costs 0.4 MB

        return int(decimal.Decimal(literal))


def _expect(value, kinds: type | tuple[type, ...], field: str, kind: str):
    """value if it is one of kinds and not a bool, else a ValueError naming
    the field, so a malformed file never reaches code that iterates it."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{field} must be {kind}, got {type(value).__name__}")
    return value


def _strings(values, field: str) -> list[str]:
    """values as a list if every entry is a string, else a ValueError naming
    the first entry that is not. The constructors call this, so the entries'
    names are only formatted for the error."""
    values = list(values)
    for i, v in enumerate(values):
        if not isinstance(v, str):
            _expect(v, str, f"{field}[{i}]", "a string")
    return values


def _float_array(value, field: str) -> np.ndarray:
    """value as a float array, else a ValueError naming the field, also if
    it holds NaN or an infinity: a sum or a divide would warn about that."""
    try:
        array = np.array(value, dtype=float)
    except OverflowError:
        raise _too_large(field) from None
    except (TypeError, ValueError):
        raise ValueError(f"{field} must hold only numbers") from None
    if not all(map(math.isfinite, array.ravel().tolist())):
        _name_bad_values({field: array}, {})
    return array


def instance_from_dict(data: Mapping, renormalize: bool = False) -> Instance:
    """Builds an instance from its JSON form; raises ValueError naming the
    first missing, unknown or malformed field."""
    _expect(data, Mapping, "instance", "an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown instance keys: {sorted(unknown)}")
    for key in ("labels", "prior", "tolerances", "models"):
        if key not in data:
            raise ValueError(f"instance is missing required key {key!r}")
    array = (list, tuple)
    labels = _expect(data["labels"], array, "labels", "an array")
    prior = _float_array(data["prior"], "prior")
    models = []
    for i, md in enumerate(_expect(data["models"], array, "models", "an array")):
        _expect(md, Mapping, f"models[{i}]", "an object")
        unknown = set(md) - _MODEL_KEYS
        if unknown:
            raise ValueError(f"unknown model keys: {sorted(unknown)}")
        for key in _MODEL_KEYS:
            if key not in md:
                raise ValueError(f"model entry is missing required key {key!r}")
        name = _expect(md["name"], str, f"models[{i}].name", "a string")
        where = f"model {name!r}"
        alphabet = _expect(md["alphabet"], array, f"{where}: alphabet", "an array")
        cost = _expect(md["cost"], (int, float), f"{where}: cost", "a number")
        cond = _float_array(md["conditional"], f"{where} conditional")
        if cond.ndim != 2 or cond.shape[0] != len(labels):
            raise ValueError(f"{where}: conditional must have one row per label")
        if renormalize:
            rs = cond.sum(axis=1, keepdims=True)
            if np.any(rs <= 0):
                raise ValueError(f"{where}: row sums must be positive")
            cond = cond / rs
        else:
            bad = np.abs(cond.sum(axis=1) - 1.0) > SUM_TOL
            if np.any(bad):
                raise ValueError(
                    f"{where}: conditional rows "
                    f"{np.flatnonzero(bad).tolist()} do not sum to 1 within "
                    f"{SUM_TOL}; pass renormalize to rescale"
                )
        models.append(
            ModelSpec(
                name=name,
                alphabet=tuple(alphabet),
                conditional=cond,
                cost=cost,
            )
        )
    if renormalize:
        ps = prior.sum()
        if ps <= 0:
            raise ValueError("prior sum must be positive")
        prior = prior / ps
    elif abs(float(prior.sum()) - 1.0) > SUM_TOL:
        raise ValueError(
            f"prior sums to {float(prior.sum())!r}; pass renormalize to rescale"
        )
    return Instance(
        labels=tuple(labels),
        prior=prior,
        models=tuple(models),
        tolerances=_float_array(data["tolerances"], "tolerances"),
    )


def load_instance(path: str, renormalize: bool = False) -> Instance:
    with open(path) as fh:
        data = json.load(fh, parse_int=_parse_int)
    return instance_from_dict(data, renormalize=renormalize)


# ---------------------------------------------------------------------------
# Calibration from observation logs.
# ---------------------------------------------------------------------------

CALIBRATION_COLUMNS = ("model", "label", "response")


def read_calibration_log(path: str) -> list[tuple[str, str, str]]:
    """Reads a calibration CSV with header ``model,label,response``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("calibration log is empty") from None
        if tuple(h.strip() for h in header) != CALIBRATION_COLUMNS:
            raise ValueError(
                f"calibration log header must be {','.join(CALIBRATION_COLUMNS)}, "
                f"got {','.join(header)}"
            )
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"line {lineno}: expected 3 fields, got {len(row)}")
            records.append((row[0].strip(), row[1].strip(), row[2].strip()))
    return records


def _require_distinct(values: list[str], field: str) -> None:
    """A ValueError naming the field and its repeated values, if any."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{field} must be distinct, repeated: {repeated}")


def calibrate(
    records: Iterable[tuple[str, str, str]],
    smoothing: float = 1.0,
    labels: Sequence[str] | None = None,
    alphabets: Mapping[str, Sequence[str]] | None = None,
) -> dict:
    """Estimates conditional matrices from (model, label, response) records.

    Counts are smoothed additively: every (label, symbol) cell starts at
    ``smoothing`` before normalization, so positive smoothing yields strictly
    positive rows even for unseen symbols. Labels and per-model alphabets may
    be declared explicitly; otherwise they are inferred (sorted) from the
    log. A record mentioning an undeclared label or symbol is an error, as is
    a declared label or symbol that is not a string, a label or a model's
    symbol declared twice, and a declared model with no records and no
    declared alphabet to size its rows by.

    Returns an instance fragment: ``{"labels": [...], "models": [...]}``
    where each model entry carries ``name``, ``alphabet`` and ``conditional``
    (costs, priors and tolerances are not calibratable from a log).
    """
    if not (math.isfinite(smoothing) and smoothing >= 0):
        raise ValueError(
            f"smoothing must be finite and nonnegative, got {smoothing!r}"
        )
    records = list(records)
    alphabets = {
        name: _strings(symbols, f"model {name!r}: declared symbols")
        for name, symbols in (alphabets or {}).items()
    }
    if not records and not alphabets:
        raise ValueError("no records and no declared alphabets")
    for name, alphabet in alphabets.items():
        _require_distinct(alphabet, f"model {name!r}: declared symbols")

    if labels is None:
        label_list = sorted({r[1] for r in records})
    else:
        label_list = _strings(labels, "declared labels")
        _require_distinct(label_list, "declared labels")
        unknown = {r[1] for r in records} - set(label_list)
        if unknown:
            raise ValueError(f"log mentions undeclared labels: {sorted(unknown)}")
    if not label_list:
        raise ValueError("no labels in log and none declared")

    model_names: list[str] = []
    for name, _, _ in records:
        if name not in model_names:
            model_names.append(name)
    for name in sorted(alphabets):
        if name not in model_names:
            model_names.append(name)

    by_model: dict[str, list[tuple[str, str]]] = {n: [] for n in model_names}
    for name, y, x in records:
        by_model[name].append((y, x))

    out_models = []
    lpos = {y: i for i, y in enumerate(label_list)}
    for name in model_names:
        recs = by_model[name]
        if name in alphabets:
            alphabet = list(alphabets[name])
            unknown = {x for _, x in recs} - set(alphabet)
            if unknown:
                raise ValueError(
                    f"model {name!r}: log mentions undeclared symbols "
                    f"{sorted(unknown)}"
                )
        else:
            if not recs:
                raise ValueError(
                    f"model {name!r} has no records and no declared alphabet"
                )
            alphabet = sorted({x for _, x in recs})
        xpos = {x: j for j, x in enumerate(alphabet)}
        counts = np.full((len(label_list), len(alphabet)), float(smoothing))
        for y, x in recs:
            if y not in lpos:
                raise ValueError(f"model {name!r}: unknown label {y!r}")
            counts[lpos[y], xpos[x]] += 1.0
        sums = counts.sum(axis=1, keepdims=True)
        if np.any(sums == 0):
            raise ValueError(
                f"model {name!r}: some labels have no mass (no records and "
                "zero smoothing)"
            )
        out_models.append(
            {
                "name": name,
                "alphabet": alphabet,
                "conditional": (counts / sums).tolist(),
            }
        )
    return {"labels": label_list, "models": out_models}
