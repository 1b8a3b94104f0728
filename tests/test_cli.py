from __future__ import annotations

import json
import math

import numpy as np
import pytest

from queryplan.cli import _emit, main
from queryplan.instances import Instance, ModelSpec, instance_to_dict, save_instance


@pytest.fixture
def bsc_path(bsc, tmp_path):
    path = tmp_path / "bsc.json"
    save_instance(bsc, str(path))
    return str(path)


@pytest.fixture
def sc3_path(sc3, tmp_path):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(sc3.to_dict()))
    return str(path)


def run(capsys, argv: list[str]) -> tuple[int, dict]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else {})


def test_validate_ok(bsc_path, capsys):
    code, payload = run(capsys, ["validate", "--instance", bsc_path])
    assert code == 0
    assert payload["schema_version"] == "1"
    assert payload["ok"] is True


def test_validate_reports_violations(tmp_path, capsys):
    rows = np.array([[0.5, 0.5], [0.5, 0.5]])
    inst = Instance(
        ("1", "2"),
        np.array([0.5, 0.5]),
        (ModelSpec("flat", ("a", "b"), rows, 1.0),),
        np.array([0.1, 0.1]),
    )
    path = tmp_path / "flat.json"
    save_instance(inst, str(path))
    code, payload = run(capsys, ["validate", "--instance", str(path)])
    assert code == 1
    assert payload["ok"] is False
    assert payload["violations"]


def test_validate_rejects_unnormalized_without_flag(tmp_path, capsys):
    data = {
        "schema_version": "1",
        "labels": ["1", "2"],
        "prior": [2.0, 2.0],
        "models": [
            {
                "name": "m",
                "alphabet": ["a", "b"],
                "conditional": [[0.9, 0.1], [0.1, 0.9]],
                "cost": 1.0,
            }
        ],
        "tolerances": [0.1, 0.1],
    }
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    code, payload = run(
        capsys, ["validate", "--instance", str(path), "--renormalize"]
    )
    assert code == 0
    assert payload["ok"] is True


def instance_file(tmp_path, conditional, tolerances) -> str:
    """Writes a one-model two-label instance file and returns its path."""
    data = {
        "schema_version": "1",
        "labels": ["1", "2"],
        "prior": [0.5, 0.5],
        "models": [
            {
                "name": "m",
                "alphabet": ["a", "b"],
                "conditional": conditional,
                "cost": 1.0,
            }
        ],
        "tolerances": tolerances,
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def tolerance_one_path(tmp_path):
    """Loads fine, but a tolerance of 1 fails validation."""
    return instance_file(tmp_path, [[0.9, 0.1], [0.1, 0.9]], [0.05, 1.0])


@pytest.fixture
def zero_entry_path(tmp_path):
    """A zero conditional entry: the file fails to load."""
    return instance_file(tmp_path, [[1.0, 0.0], [0.1, 0.9]], [0.05, 0.05])


def one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


INSTANCE_COMMANDS = [
    ["solve", "--epsilon", "0.5"],
    ["exact", "--plan", "[6]"],
    ["simulate", "--plan", "[6]", "--label", "1", "--trials", "10", "--seed", "1"],
    ["verify", "--plan", "[6]"],
    ["sweep-tightness", "--alphas", "0.05"],
]


@pytest.mark.parametrize("argv", INSTANCE_COMMANDS, ids=lambda argv: argv[0])
def test_commands_reject_invalid_instance(tolerance_one_path, capsys, argv):
    code = main([argv[0], "--instance", tolerance_one_path, *argv[1:]])
    assert code == 1
    line = one_error_line(capsys)
    assert "invalid instance" in line
    assert "tolerance for label '2' is 1.0, must lie in (0, 1)" in line


@pytest.mark.parametrize(
    "argv", [["validate"], *INSTANCE_COMMANDS], ids=lambda argv: argv[0]
)
def test_commands_reject_zero_entry_at_load(zero_entry_path, capsys, argv):
    code = main([argv[0], "--instance", zero_entry_path, *argv[1:]])
    assert code == 1
    assert "non-positive value in model 'm' conditional" in one_error_line(capsys)


@pytest.mark.parametrize("flags", [[], ["--renormalize"]], ids=["plain", "renormalize"])
def test_validate_names_an_infinite_row_before_summing_it(tmp_path, capsys, flags):
    # inf + -inf is NaN: summing or dividing the row first makes numpy warn
    # on stderr, and the test configuration turns that warning into an error
    path = instance_file(tmp_path, [[0.9, 0.1], [math.inf, -math.inf]], [0.05, 0.05])
    assert main(["validate", "--instance", path, *flags]) == 1
    line = one_error_line(capsys)
    assert "non-finite value (NaN or inf) in model 'm' conditional" in line


BIG = 10**400  # an integer JSON holds but a float cannot


def _with(path: list, value):
    """A content function that sets the entry at path of a dict to value."""

    def content(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return data

    return content


@pytest.mark.parametrize(
    "argv, content, field",
    [
        pytest.param(
            ["validate"], _with(["models", 0, "cost"], BIG), "'bsc' cost", id="cost"
        ),
        pytest.param(["validate"], _with(["prior", 0], BIG), "in prior", id="prior"),
        pytest.param(
            ["validate", "--renormalize"],
            _with(["prior", 1], BIG),
            "in prior",
            id="prior-renormalize",
        ),
        pytest.param(
            ["validate"], _with(["tolerances", 0], BIG), "in tolerances", id="tolerance"
        ),
        pytest.param(
            ["validate"],
            _with(["models", 0, "conditional", 0, 0], BIG),
            "model 'bsc' conditional",
            id="conditional",
        ),
        pytest.param(
            ["reduce-setcover", "--epsilon", "0.2"],
            lambda _: {"n": 2, "sets": [[1, 2]], "weights": [BIG]},
            "in weights[0]",
            id="setcover-weight",
        ),
        pytest.param(
            ["reduce-setcover", "--epsilon", "0.2"],
            lambda _: {"n": 2, "sets": [[1, 2]], "weights": [1], "budget": BIG},
            "in budget",
            id="setcover-budget",
        ),
    ],
)
def test_files_with_an_integer_too_large_for_a_float(
    bsc, tmp_path, capsys, argv, content, field
):
    # float() of such an integer raises OverflowError, not ValueError
    path = tmp_path / "big.json"
    path.write_text(json.dumps(content(instance_to_dict(bsc))))
    flag = "--sets" if argv[0] == "reduce-setcover" else "--instance"
    assert main([argv[0], flag, str(path), *argv[1:]]) == 1
    line = one_error_line(capsys)
    assert "number too large for a float" in line and field in line


# A JSON integer literal past the 4,300 digits Python's int() reads.
HUGE = "9" * 5001


@pytest.mark.parametrize(
    "argv, content, field",
    [
        pytest.param(
            ["validate"], _with(["models", 0, "cost"], "HUGE"), "'bsc' cost", id="cost"
        ),
        pytest.param(
            ["reduce-setcover", "--epsilon", "0.2"],
            lambda _: {"n": 2, "sets": [[1, 2]], "weights": ["HUGE"]},
            "in weights[0]",
            id="setcover-weight",
        ),
    ],
)
def test_files_with_an_integer_past_the_digit_limit(
    bsc, tmp_path, capsys, argv, content, field
):
    # json.dumps cannot write such an integer either, so it is spliced in
    path = tmp_path / "huge.json"
    text = json.dumps(content(instance_to_dict(bsc))).replace('"HUGE"', HUGE)
    path.write_text(text)
    flag = "--sets" if argv[0] == "reduce-setcover" else "--instance"
    assert main([argv[0], flag, str(path), *argv[1:]]) == 1
    line = one_error_line(capsys)
    assert "number too large for a float" in line and field in line


@pytest.mark.parametrize("count", ["1" + "0" * 30, HUGE], ids=["31-digit", "huge"])
@pytest.mark.parametrize("argv", INSTANCE_COMMANDS[1:4], ids=lambda argv: argv[0])
@pytest.mark.parametrize("source", ["literal", "file"])
def test_plans_with_a_count_too_large(bsc_path, tmp_path, capsys, argv, count, source):
    plan = f"[{count}]"
    if source == "file":
        (tmp_path / "plan.json").write_text(plan)
        plan = f"@{tmp_path / 'plan.json'}"
    argv = [argv[0], "--instance", bsc_path, "--plan", plan, *argv[3:]]
    assert main(argv) == 1
    assert "plan counts must be below 2**63" in one_error_line(capsys)


def test_simulate_rejects_out_of_range_seed(bsc_path, capsys):
    argv = ["simulate", "--instance", bsc_path, "--plan", "[2]", "--label", "1"]
    code = main([*argv, "--trials", "10", "--seed", "99999999999999999999999"])
    assert code == 1
    assert "seed must lie in [0, 2**64)" in one_error_line(capsys)


def test_solve(bsc_path, capsys):
    code, payload = run(
        capsys, ["solve", "--instance", bsc_path, "--epsilon", "0.5"]
    )
    assert code == 0
    assert payload["plan"] == [6]
    assert payload["cost"] == 6.0
    assert payload["mode"] == "search-axis"
    assert payload["surrogate"]["feasible"] is True
    assert payload["guarantee"]["status"] == "heuristic-only"
    assert payload["constants"]["t_max"] == 1388
    # the search is the only solve path; there is no mode to pick
    argv = ["solve", "--instance", bsc_path, "--epsilon", "0.5", "--mode", "search"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_exact_plan_table(bsc_path, capsys):
    code, payload = run(
        capsys, ["exact", "--instance", bsc_path, "--plan", "[6]"]
    )
    assert code == 0
    assert payload["profiles"] == 7
    errors = {e["label"]: e["error"] for e in payload["errors"]}
    assert errors["1"] == pytest.approx(0.00127, rel=1e-9)
    assert errors["2"] == pytest.approx(0.01585, rel=1e-9)


def test_exact_opt_both_problems(bsc_path, capsys):
    code, payload = run(
        capsys, ["exact", "--instance", bsc_path, "--opt", "true"]
    )
    assert code == 0
    assert payload["plan"] == [3]
    code, payload = run(
        capsys, ["exact", "--instance", bsc_path, "--opt", "surrogate"]
    )
    assert code == 0
    assert payload["plan"] == [6]


def test_exact_requires_exactly_one_selector(bsc_path, capsys):
    assert main(["exact", "--instance", bsc_path]) == 1
    assert "exactly one" in capsys.readouterr().err
    code = main(
        ["exact", "--instance", bsc_path, "--plan", "[6]", "--opt", "true"]
    )
    assert code == 1


def test_exact_infeasible_cap(bsc_path, capsys):
    code = main(
        ["exact", "--instance", bsc_path, "--opt", "true", "--cost-cap", "2"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_exact_plan_from_file(bsc_path, tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"plan": [6]}))
    code, payload = run(
        capsys, ["exact", "--instance", bsc_path, "--plan", f"@{plan_file}"]
    )
    assert code == 0
    assert payload["profiles"] == 7


def test_exact_rejects_malformed_plan(bsc_path, capsys):
    for plan in ("[1.5]", "[true]"):
        assert main(["exact", "--instance", bsc_path, "--plan", plan]) == 1
        assert "array of integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        pytest.param(
            ["sweep-tightness", "--instance", "{bsc}", "--alphas", "0"],
            "tolerances",
            id="tightness-alpha-0",
        ),
        pytest.param(
            ["sweep-tightness", "--instance", "{bsc}", "--alphas", "-0.1"],
            "tolerances",
            id="tightness-alpha-negative",
        ),
        pytest.param(
            ["sweep-tightness", "--instance", "{bsc}", "--alphas", "1.5"],
            "alpha sets every label's tolerance",
            id="tightness-alpha-above-1",
        ),
        pytest.param(
            ["sweep-tightness", "--instance", "{bsc}", "--alphas", ","],
            "--alphas must list at least one number",
            id="tightness-alphas-empty",
        ),
        pytest.param(
            ["sweep-tightness", "--instance", "{bsc}", "--alphas", "0.1,x"],
            "--alphas must be comma-separated numbers",
            id="tightness-alphas-not-numbers",
        ),
        pytest.param(
            ["sweep-guarantee", "--seed", "1", "--alpha", "0"],
            "tolerances",
            id="guarantee-alpha-0",
        ),
        pytest.param(
            ["sweep-guarantee", "--seed", "1", "--instances", "1", "--epsilons", ","],
            "--epsilons must list at least one number",
            id="guarantee-epsilons-empty",
        ),
        pytest.param(
            ["sweep-guarantee", "--seed", "1", "--epsilons", "0.5,abc"],
            "--epsilons must be comma-separated numbers",
            id="guarantee-epsilons-not-numbers",
        ),
        pytest.param(
            ["exact", "--instance", "{bsc}", "--opt", "true", "--cost-cap", "nan"],
            "--cost-cap must be a finite number",
            id="cost-cap-nan",
        ),
        pytest.param(
            ["exact", "--instance", "{bsc}", "--opt", "true", "--cost-cap", "inf"],
            "--cost-cap must be a finite number",
            id="cost-cap-inf",
        ),
        pytest.param(
            ["exact", "--instance", "{bsc}", "--opt", "true", "--cost-cap=-inf"],
            "--cost-cap must be a finite number",
            id="cost-cap-minus-inf",
        ),
        pytest.param(
            ["calibrate", "--log", "{log}", "--smoothing", "nan"],
            "smoothing",
            id="smoothing-nan",
        ),
        pytest.param(
            ["calibrate", "--log", "{log}", "--smoothing", "inf"],
            "smoothing",
            id="smoothing-inf",
        ),
        pytest.param(
            ["calibrate", "--log", "{log}", "--labels", "1,1,2"],
            "declared labels must be distinct",
            id="labels-repeated",
        ),
        pytest.param(
            ["sweep-guarantee", "--seed", "1", "--alpha", "1.5"],
            "alpha",
            id="guarantee-alpha-above-1",
        ),
        pytest.param(
            ["sweep-guarantee", "--seed", "42", "--instances", "-1"],
            "n_instances must be a non-negative integer",
            id="guarantee-instances-negative",
        ),
        pytest.param(
            [
                "reduce-setcover",
                "--sets",
                "{sets}",
                "--epsilon",
                "0.2",
                "--delta-prime",
                "nan",
            ],
            "delta_prime",
            id="delta-prime-nan",
        ),
    ],
)
def test_commands_reject_bad_values(
    bsc_path, sc3_path, tmp_path, capsys, argv, field
):
    log = tmp_path / "log.csv"
    log.write_text("model,label,response\nm,1,a\nm,2,b\n")
    code = main([a.format(bsc=bsc_path, log=log, sets=sc3_path) for a in argv])
    assert code == 1
    assert field in one_error_line(capsys)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_emit_refuses_numbers_json_cannot_express(tmp_path, capsys, value):
    # strict JSON has no Infinity or NaN, so no command may print them: the
    # payload is refused before anything is written
    out = tmp_path / "out.json"
    for output in (None, str(out)):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit({"rows": [{"ratio": value}]}, output)
    assert capsys.readouterr().out == ""
    assert not out.exists()


def replaced(key: str, value, model: bool = False):
    """Edits an instance dict: key set to value, at top level or in model 0."""

    def edit(data: dict) -> dict:
        (data["models"][0] if model else data)[key] = value
        return data

    return edit


@pytest.mark.parametrize(
    "argv, content, field",
    [
        pytest.param(
            ["validate"], lambda d: 5, "instance must be an object", id="number"
        ),
        pytest.param(
            ["validate"],
            replaced("labels", 5),
            "labels must be an array",
            id="labels-number",
        ),
        pytest.param(
            ["validate"],
            replaced("models", 7),
            "models must be an array",
            id="models-number",
        ),
        pytest.param(
            ["exact", "--opt", "true"],
            replaced("models", [3]),
            "models[0] must be an object",
            id="model-number",
        ),
        pytest.param(
            ["exact", "--plan", "[6]"],
            replaced("cost", [1], model=True),
            "cost must be a number",
            id="cost-array",
        ),
        pytest.param(
            ["validate"],
            replaced("alphabet", 5, model=True),
            "alphabet must be an array",
            id="alphabet-number",
        ),
        pytest.param(
            ["validate"],
            replaced("prior", {"1": 0.5}),
            "prior must hold only numbers",
            id="prior-object",
        ),
        pytest.param(
            ["validate"],
            replaced("labels", [{"a": 1}, "2"]),
            "labels[0] must be a string",
            id="label-object",
        ),
        pytest.param(
            ["solve", "--epsilon", "0.5"],
            replaced("labels", [1, 2]),
            "labels[0] must be a string",
            id="label-number",
        ),
        pytest.param(
            ["validate"],
            replaced("name", [1], model=True),
            "models[0].name must be a string",
            id="model-name-array",
        ),
        pytest.param(
            ["validate"],
            replaced("alphabet", [None, "b"], model=True),
            "alphabet[0] must be a string",
            id="alphabet-null",
        ),
    ],
)
def test_commands_reject_malformed_instance_files(
    bsc, tmp_path, capsys, argv, content, field
):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content(instance_to_dict(bsc))))
    assert main([argv[0], "--instance", str(path), *argv[1:]]) == 1
    assert field in one_error_line(capsys)


@pytest.mark.parametrize(
    "argv, content, field",
    [
        pytest.param(
            ["reduce-setcover", "--epsilon", "0.2", "--sets"],
            {"n": 3, "sets": [[1, 2], [3]]},
            "missing required keys ['weights']",
            id="sets-no-weights",
        ),
        pytest.param(
            ["reduce-setcover", "--epsilon", "0.2", "--sets"],
            [[1, 2], [3]],
            "set-cover file must be an object",
            id="sets-array",
        ),
        pytest.param(
            ["reduce-setcover", "--epsilon", "0.2", "--sets"],
            {"n": 3, "sets": [[1, [2]], [3]], "weights": [1, 1]},
            "sets[0] elements must be integers",
            id="sets-nested-element",
        ),
        pytest.param(
            ["reduce-setcover", "--epsilon", "0.2", "--sets"],
            {"n": 3, "sets": [[1, 2], [3]], "weights": [[1], 1]},
            "weights[0] must be a number",
            id="sets-weight-array",
        ),
        pytest.param(
            ["reduce-setcover", "--epsilon", "0.2", "--sets"],
            {"n": 3, "sets": [[1, 2], [3]], "weights": [1, 1], "budget": "x"},
            "budget must be a number",
            id="sets-budget-string",
        ),
        pytest.param(
            ["reduce-setcover", "--epsilon", "0.2", "--check", "--sets"],
            {"n": 3, "sets": [[1, 2], [3]], "weights": [1, 1], "budgt": 4},
            "unknown set-cover keys: ['budgt']",
            id="sets-unknown-key",
        ),
        pytest.param(
            ["reduce-setcover", "--epsilon", "0.2", "--sets"],
            {"n": 2, "sets": [[1, 2]], "weights": [float("nan")]},
            "weights[0] must be finite and positive",
            id="sets-weight-nan",
        ),
        pytest.param(
            ["reduce-setcover", "--epsilon", "0.2", "--sets"],
            {"n": 2, "sets": [[1, 2]], "weights": [1], "budget": float("inf")},
            "budget must be finite",
            id="sets-budget-inf",
        ),
        pytest.param(
            ["calibrate", "--log", "{log}", "--alphabets"],
            [["a", "b"]],
            "--alphabets must hold a JSON object",
            id="alphabets-array",
        ),
        pytest.param(
            ["calibrate", "--log", "{log}", "--alphabets"],
            {"m": ["a", "a", "b"]},
            "model 'm': declared symbols must be distinct",
            id="alphabets-repeated-symbol",
        ),
        pytest.param(
            ["calibrate", "--log", "{log}", "--alphabets"],
            {"m": ["a", "b", None, {"k": 1}]},
            "model 'm': declared symbols[2] must be a string, got NoneType",
            id="alphabets-non-string-symbol",
        ),
    ],
)
def test_commands_reject_malformed_json_files(tmp_path, capsys, argv, content, field):
    log = tmp_path / "log.csv"
    log.write_text("model,label,response\nm,1,a\nm,2,b\n")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    assert main([*(a.format(log=log) for a in argv), str(path)]) == 1
    assert field in one_error_line(capsys)


def test_simulate_deterministic(bsc_path, capsys):
    argv = [
        "simulate",
        "--instance",
        bsc_path,
        "--plan",
        "[2]",
        "--label",
        "1",
        "--trials",
        "1000",
        "--seed",
        "9",
    ]
    code, first = run(capsys, argv)
    assert code == 0
    assert first["trials"] == 1000
    assert first["ci_low"] <= first["estimate"] <= first["ci_high"]
    _, second = run(capsys, argv)
    assert second == first


def test_simulate_requires_seed(bsc_path):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "simulate",
                "--instance",
                bsc_path,
                "--plan",
                "[2]",
                "--label",
                "1",
                "--trials",
                "10",
            ]
        )
    assert exc.value.code == 2


def test_verify_exit_codes(bsc_path, capsys):
    code, payload = run(
        capsys, ["verify", "--instance", bsc_path, "--plan", "[6]"]
    )
    assert code == 0
    assert payload["feasible"] is True
    code, payload = run(
        capsys, ["verify", "--instance", bsc_path, "--plan", "[5]"]
    )
    assert code == 1
    assert payload["feasible"] is False


def test_reduce_setcover_check(sc3_path, capsys):
    code, payload = run(
        capsys,
        ["reduce-setcover", "--sets", sc3_path, "--epsilon", "0.2", "--check"],
    )
    assert code == 0
    assert payload["equivalence"]["equivalent"] is True
    assert payload["instance"]["labels"] == ["0", "1", "2", "3"]

    # the correspondence genuinely breaks below the safe lean window
    code, payload = run(
        capsys,
        ["reduce-setcover", "--sets", sc3_path, "--epsilon", "0.1", "--check"],
    )
    assert code == 1
    assert payload["equivalence"]["equivalent"] is False


def test_reduce_setcover_universe_mismatch(sc3_path, capsys):
    code = main(
        [
            "reduce-setcover",
            "--sets",
            sc3_path,
            "--epsilon",
            "0.2",
            "--universe",
            "5",
        ]
    )
    assert code == 1
    assert "does not match" in capsys.readouterr().err


def test_calibrate_command(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text(
        "model,label,response\nm,1,a\nm,1,a\nm,1,b\nm,2,b\n"
    )
    code, payload = run(capsys, ["calibrate", "--log", str(log)])
    assert code == 0
    assert payload["labels"] == ["1", "2"]
    assert payload["models"][0]["conditional"][0] == pytest.approx([0.6, 0.4])
    code, payload = run(
        capsys, ["calibrate", "--log", str(log), "--labels", "2,1"]
    )
    assert code == 0
    assert payload["labels"] == ["2", "1"]


def test_sweep_tightness_csv_output(bsc_path, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep-tightness",
            "--instance",
            bsc_path,
            "--alphas",
            "0.1,0.05",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha_min,opt,surrogate_opt,ratio"
    assert len(lines) == 3

    code, payload = run(
        capsys,
        ["sweep-tightness", "--instance", bsc_path, "--alphas", "0.05"],
    )
    assert code == 0
    assert payload["rows"][0]["ratio"] == pytest.approx(2.0)


def test_sweep_guarantee_small_run(capsys):
    code, payload = run(
        capsys,
        [
            "sweep-guarantee",
            "--seed",
            "11",
            "--instances",
            "2",
            "--epsilons",
            "0.5",
        ],
    )
    assert code == 0
    assert len(payload["rows"]) == 2
    assert all(r["within_factor"] for r in payload["rows"])


def test_output_flag_writes_file(bsc_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["validate", "--instance", bsc_path, "--output", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["ok"] is True


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
