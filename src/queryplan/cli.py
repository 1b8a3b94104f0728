"""Command-line interface.

Commands mirror the library surface: validate and calibrate instances,
solve with the approximation scheme, evaluate plans exactly, simulate,
verify surrogate feasibility, build set-cover reductions, and run sweeps.
JSON results carry a schema_version field; exit code 0 means success, 1 a
domain failure (invalid instance, infeasibility, blown budget), 2 a usage
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable

from . import experiments, setcover
from .exact import exact_error_table, exact_opt
from .instances import (
    SCHEMA_VERSION,
    Instance,
    _parse_int,
    calibrate,
    instance_to_dict,
    load_instance,
    read_calibration_log,
    validate,
)
from .bounds import is_surrogate_feasible
from .likelihood import TIE_POLICIES
from .planner import run_afptas
from .simulate import simulate_error


def _emit(payload: dict, output: str | None) -> None:
    """Writes the payload as JSON; a ValueError, before anything is written,
    if it holds a NaN or an infinity, which JSON cannot express."""
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_plan(text: str) -> list[int]:
    if text.startswith("@"):
        with open(text[1:]) as fh:
            data = json.load(fh, parse_int=_parse_int)
        if isinstance(data, dict):
            data = data.get("plan")
    else:
        data = json.loads(text, parse_int=_parse_int)
    if not isinstance(data, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in data
    ):
        raise ValueError("plan must be a JSON array of integers")
    return data


def _parse_floats(text: str, option: str) -> list[float]:
    """The numbers of a comma-separated list, empty items skipped; a
    ValueError naming the option unless it holds at least one number and
    nothing else."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(
            f"{option} must be comma-separated numbers, got {text!r}"
        ) from None
    if not values:
        raise ValueError(f"{option} must list at least one number, got {text!r}")
    return values


def _load_valid(args: argparse.Namespace) -> Instance:
    """Loads ``--instance`` and rejects it unless every domain requirement
    holds, so no command computes on an invalid instance."""
    inst = load_instance(args.instance, renormalize=args.renormalize)
    result = validate(inst)
    if not result.ok:
        raise ValueError("invalid instance: " + "; ".join(result.violations))
    return inst


def _cmd_validate(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance, renormalize=args.renormalize)
    result = validate(inst)
    _emit(result.to_dict(), args.output)
    return 0 if result.ok else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    records = read_calibration_log(args.log)
    labels = args.labels.split(",") if args.labels else None
    alphabets = None
    if args.alphabets:
        with open(args.alphabets) as fh:
            alphabets = json.load(fh, parse_int=_parse_int)
        if not isinstance(alphabets, dict) or not all(
            isinstance(v, list) for v in alphabets.values()
        ):
            raise ValueError("--alphabets must hold a JSON object {model: [symbols]}")
    fragment = calibrate(
        records, smoothing=args.smoothing, labels=labels, alphabets=alphabets
    )
    _emit(fragment, args.output)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    cert = run_afptas(
        _load_valid(args), args.epsilon, check_optimal=args.check_optimal
    )
    _emit(cert.to_dict(), args.output)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    inst = _load_valid(args)
    if (args.plan is None) == (args.opt is None):
        raise ValueError("pass exactly one of --plan or --opt")
    if args.cost_cap is not None and not math.isfinite(args.cost_cap):
        raise ValueError(f"--cost-cap must be a finite number, got {args.cost_cap}")
    if args.plan is not None:
        table = exact_error_table(inst, _parse_plan(args.plan), args.tie_policy)
        _emit(table.to_dict(), args.output)
    else:
        result = exact_opt(
            inst,
            problem=args.opt,
            tie_policy=args.tie_policy,
            cost_cap=args.cost_cap,
        )
        _emit(result.to_dict(), args.output)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    est = simulate_error(
        _load_valid(args),
        _parse_plan(args.plan),
        args.label,
        trials=args.trials,
        seed=args.seed,
        tie_policy=args.tie_policy,
    )
    _emit(est.to_dict(), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = is_surrogate_feasible(_load_valid(args), _parse_plan(args.plan))
    _emit(report.to_dict(), args.output)
    return 0 if report.feasible else 1


def _cmd_reduce_setcover(args: argparse.Namespace) -> int:
    sc = setcover.load_setcover(args.sets)
    if args.universe is not None and args.universe != sc.n:
        raise ValueError(
            f"--universe {args.universe} does not match the file's n={sc.n}"
        )
    red = setcover.reduce(
        sc,
        args.epsilon,
        delta_prime=args.delta_prime,
        delta_dprime=args.delta_dprime,
        eta=args.eta,
    )
    payload = red.to_dict()
    code = 0
    if args.check:
        payload["equivalence"] = setcover.verify_equivalence(
            sc,
            args.epsilon,
            delta_prime=args.delta_prime,
            delta_dprime=args.delta_dprime,
            eta=args.eta,
        )
        code = 0 if payload["equivalence"]["equivalent"] else 1
    _emit(payload, args.output)
    return code


def _cmd_sweep_tightness(args: argparse.Namespace) -> int:
    rows = experiments.tightness_sweep(
        _load_valid(args),
        _parse_floats(args.alphas, "--alphas"),
        tie_policy=args.tie_policy,
    )
    if args.output:
        experiments.write_rows(args.output, rows, experiments.TIGHTNESS_FIELDS)
    else:
        _emit({"rows": rows}, None)
    return 0


def _cmd_sweep_guarantee(args: argparse.Namespace) -> int:
    rows = experiments.guarantee_sweep(
        seed=args.seed,
        n_instances=args.instances,
        epsilons=_parse_floats(args.epsilons, "--epsilons"),
        alpha=args.alpha,
    )
    if args.output:
        experiments.write_rows(args.output, rows, experiments.GUARANTEE_FIELDS)
    else:
        _emit({"rows": rows}, None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queryplan",
        description="Minimum-cost query plans for noisy-model classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags several commands share, declared once
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write JSON/CSV here instead of stdout")
    reads = argparse.ArgumentParser(add_help=False, parents=[output])
    reads.add_argument("--instance", required=True)
    reads.add_argument("--renormalize", action="store_true")
    ties = argparse.ArgumentParser(add_help=False)
    ties.add_argument("--tie-policy", choices=TIE_POLICIES, default="lowest-index")

    def command(
        name: str,
        help: str,
        func: Callable[[argparse.Namespace], int],
        *parents: argparse.ArgumentParser,
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=list(parents))
        p.set_defaults(func=func)
        return p

    command("validate", "check an instance file", _cmd_validate, reads)

    p = command(
        "calibrate", "estimate conditionals from a CSV log", _cmd_calibrate, output
    )
    p.add_argument("--log", required=True, help="CSV with model,label,response")
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--labels", help="comma-separated label order")
    p.add_argument("--alphabets", help="JSON file {model: [symbols]}")

    p = command("solve", "run the approximation scheme", _cmd_solve, reads)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--check-optimal", action="store_true")

    p = command(
        "exact", "exact errors for a plan, or exact optimum", _cmd_exact, reads, ties
    )
    p.add_argument("--plan", help="JSON array of counts, or @file")
    p.add_argument("--opt", choices=("surrogate", "true"))
    p.add_argument("--cost-cap", type=float)

    p = command("simulate", "Monte Carlo error estimate", _cmd_simulate, reads, ties)
    p.add_argument("--plan", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = command("verify", "surrogate feasibility report for a plan", _cmd_verify, reads)
    p.add_argument("--plan", required=True)

    p = command(
        "reduce-setcover",
        "embed a weighted set-cover instance",
        _cmd_reduce_setcover,
        output,
    )
    p.add_argument("--sets", required=True, help="JSON {n, sets, weights[, budget]}")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--universe", type=int, help="expected universe size (check)")
    p.add_argument("--delta-prime", type=float)
    p.add_argument("--delta-dprime", type=float, default=setcover.DEFAULT_DELTA_DPRIME)
    p.add_argument("--eta", type=float, default=setcover.DEFAULT_ETA)
    p.add_argument("--check", action="store_true", help="verify the correspondence")

    p = command(
        "sweep-tightness",
        "opt vs surrogate-opt over alphas",
        _cmd_sweep_tightness,
        reads,
        ties,
    )
    p.add_argument("--alphas", required=True, help="comma-separated values")

    p = command(
        "sweep-guarantee",
        "approximation ratios on random instances",
        _cmd_sweep_guarantee,
        output,
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--epsilons", default="0.1,0.5,1.0")
    p.add_argument("--alpha", type=float, default=1e-3)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
