from __future__ import annotations

import json

import numpy as np
import pytest

from queryplan.cli import main
from queryplan.instances import Instance, ModelSpec, save_instance


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


@pytest.fixture
def zero_entry_path(tmp_path):
    """Loads fine, but a zero conditional entry fails validation."""
    data = {
        "schema_version": "1",
        "labels": ["1", "2"],
        "prior": [0.5, 0.5],
        "models": [
            {
                "name": "m",
                "alphabet": ["a", "b"],
                "conditional": [[1.0, 0.0], [0.1, 0.9]],
                "cost": 1.0,
            }
        ],
        "tolerances": [0.05, 0.05],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    return str(path)


def one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--epsilon", "0.5"],
        ["exact", "--plan", "[6]"],
        ["simulate", "--plan", "[6]", "--label", "1", "--trials", "10", "--seed", "1"],
        ["verify", "--plan", "[6]"],
        ["sweep-tightness", "--alphas", "0.05"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_reject_invalid_instance(zero_entry_path, capsys, argv):
    code = main([argv[0], "--instance", zero_entry_path, *argv[1:]])
    assert code == 1
    line = one_error_line(capsys)
    assert "invalid instance" in line
    assert "conditional entries must be positive" in line


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
            ["sweep-guarantee", "--seed", "1", "--alpha", "0"],
            "tolerances",
            id="guarantee-alpha-0",
        ),
        pytest.param(
            ["exact", "--instance", "{bsc}", "--opt", "true", "--cost-cap", "nan"],
            "cost_cap",
            id="cost-cap-nan",
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
    ],
)
def test_commands_reject_bad_values(bsc_path, tmp_path, capsys, argv, field):
    log = tmp_path / "log.csv"
    log.write_text("model,label,response\nm,1,a\nm,2,b\n")
    code = main([a.format(bsc=bsc_path, log=log) for a in argv])
    assert code == 1
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
