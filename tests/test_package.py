from __future__ import annotations

import queryplan


def test_every_export_resolves():
    assert len(set(queryplan.__all__)) == len(queryplan.__all__)
    for name in queryplan.__all__:
        assert hasattr(queryplan, name), name


def test_sweep_helpers_are_not_exported():
    # the literal sweep lives in tests/reference_sweep.py, not the package
    for name in ("build_grid", "find_feasible_state"):
        assert name not in queryplan.__all__
        assert not hasattr(queryplan, name)
