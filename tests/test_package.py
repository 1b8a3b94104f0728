from __future__ import annotations

import json
import subprocess
import sys

import queryplan


def test_every_export_resolves():
    assert len(set(queryplan.__all__)) == len(queryplan.__all__)
    for name in queryplan.__all__:
        assert hasattr(queryplan, name), name


def test_sweep_helpers_are_not_exported():
    # the literal sweep lives in tests/reference_sweep.py, not the package;
    # the greedy baseline, the observation sampler and the unscreened walk
    # are gone, as no claim, command or workload used them
    removed = ("greedy_baseline", "GreedyResult", "sample_observations")
    for name in ("build_grid", "find_feasible_state", *removed):
        assert name not in queryplan.__all__
        assert not hasattr(queryplan, name)
    for name in ("lattice_bands", "_screened"):
        assert not hasattr(queryplan.exact, name)


def test_runtime_loads_no_scipy():
    # the package and its CLI depend on numpy alone; scipy is a test extra
    code = """
import json, sys
import numpy as np
import queryplan, queryplan.cli
from queryplan import Instance, ModelSpec, exact_error_table
model = ModelSpec("m", ("a", "b"), np.array([[0.9, 0.1], [0.1, 0.9]]), 1.0)
inst = Instance(("1", "2"), np.array([0.5, 0.5]), (model,), np.array([0.05, 0.05]))
exact_error_table(inst, (6,))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == []
